//! The existing MaxSAT-guided greedy descent, adapted behind [`Strategy`].

use crate::strategy::{Incumbent, Proposal, SearchContext, Strategy};
use prophunt::{PropHunt, PropHuntConfig};
use prophunt_circuit::MemoryBasis;
use prophunt_obs::Counter;
use prophunt_runtime::{Runtime, RuntimeConfig};

/// The paper's optimizer as a portfolio arm: each round runs **one**
/// `build_graph → sample → solve → enumerate → verify → apply` pipeline
/// iteration ([`PropHunt::step`]) on the instance's working schedule,
/// alternating the analysed memory basis between rounds exactly like
/// [`PropHunt::try_optimize`] alternates it between iterations.
///
/// Unlike the local-search arms this strategy does not chase depth directly:
/// it applies the minimum-depth *verified effective-distance-restoring*
/// changes, pulling the portfolio toward schedules that are also good circuits,
/// not just shallow ones.
///
/// Incumbent policy: adopts the portfolio incumbent as its working schedule
/// whenever the incumbent is strictly shallower — descent then continues from
/// the portfolio's best known point (with the decoding-graph cache rebuilt for
/// the adopted schedule on the next step).
#[derive(Debug)]
pub struct MaxSatDescent {
    prophunt: PropHunt,
    schedule: prophunt_circuit::schedule::ScheduleSpec,
    depth: usize,
    /// Hoisted `search.maxsat.iterations` counter handle (None when the
    /// context's observability is disabled).
    iterations: Option<Counter>,
}

impl MaxSatDescent {
    /// Creates an instance working on the context's initial schedule.
    ///
    /// `seed` becomes the instance's private optimizer seed; the inner
    /// runtime is single-threaded so the portfolio's worker pool stays the
    /// only source of parallelism (nesting bounded pools would oversubscribe
    /// without changing any result).
    pub fn new(ctx: &SearchContext, seed: u64) -> MaxSatDescent {
        let config = PropHuntConfig {
            iterations: 1,
            samples_per_iteration: ctx.params.samples_per_iteration,
            noise: ctx.params.noise,
            maxsat_budget: ctx.params.maxsat_budget,
            ..PropHuntConfig::quick(ctx.params.memory_rounds)
        };
        let depth = ctx
            .initial
            .depth()
            .expect("search context schedules are validated");
        MaxSatDescent {
            prophunt: PropHunt::new(
                ctx.code.clone(),
                config,
                Runtime::new(RuntimeConfig::new(1, 16, seed)),
            ),
            schedule: ctx.initial.clone(),
            depth,
            iterations: ctx.obs.counter("search.maxsat.iterations"),
        }
    }
}

impl Strategy for MaxSatDescent {
    fn name(&self) -> &'static str {
        "maxsat"
    }

    fn propose(&mut self, round: usize, _seed: u64) -> Proposal {
        // The optimizer derives all stage randomness from (its own seed,
        // iteration); feeding the portfolio round as the iteration number
        // keeps the streams distinct across rounds, and the per-instance
        // optimizer seed keeps them distinct across instances.
        let basis = if round.is_multiple_of(2) {
            MemoryBasis::Z
        } else {
            MemoryBasis::X
        };
        if let Some(c) = &self.iterations {
            c.inc();
        }
        let record = self.prophunt.step(round, basis, &mut self.schedule);
        self.depth = record.depth;
        Proposal {
            schedule: self.schedule.clone(),
            depth: self.depth,
        }
    }

    fn observe(&mut self, incumbent: &Incumbent, accepted: bool) {
        if !accepted && incumbent.depth < self.depth {
            self.schedule = incumbent.schedule.clone();
            self.depth = incumbent.depth;
        }
    }
}
