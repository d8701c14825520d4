//! Simulated annealing over commutation-preserving schedule mutations.

use crate::moves::MoveSet;
use crate::strategy::{Incumbent, Proposal, SearchContext, Strategy};
use prophunt_circuit::schedule::eval::ScheduleEval;
use prophunt_obs::Counter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Starting temperature, in CNOT-depth units.
const INITIAL_TEMPERATURE: f64 = 1.5;
/// Multiplicative temperature decay per round.
const COOLING: f64 = 0.85;

/// Simulated annealing over the shared move neighborhood (reorders, same-kind
/// swaps, paired cross-kind swaps, stabilizer promotion — see the `moves`
/// module).
///
/// Each round evaluates `proposals_per_round` seeded random moves by mutating
/// one [`ScheduleEval`] in place: an accepted move keeps the incrementally
/// relayered state, a rejected one is undone with
/// [`ScheduleEval::revert`] — no per-proposal schedule clone or from-scratch
/// validation. Non-worsening moves are always taken, worsening moves with
/// probability `exp(-Δdepth / T)`, and the temperature decays by the
/// `COOLING` factor per round — the classic schedule-free
/// exploration arm of the portfolio, after Sato & Suzuki's observation that
/// permuted-ordering restarts escape the minima greedy descent gets stuck in.
///
/// Incumbent policy: re-anneals *from* the incumbent when the incumbent is
/// strictly shallower than the instance's own best — exploration continues,
/// but never from a point the portfolio has already beaten.
#[derive(Debug)]
pub struct Annealing {
    moves: MoveSet,
    eval: ScheduleEval,
    best: Proposal,
    temperature: f64,
    proposals_per_round: usize,
    /// Hoisted `search.anneal.accepts` / `.reverts` counter handles (None when
    /// the context's observability is disabled).
    accepts: Option<Counter>,
    reverts: Option<Counter>,
}

impl Annealing {
    /// Creates an instance annealing from the context's initial schedule.
    pub fn new(ctx: &SearchContext) -> Annealing {
        let eval =
            ScheduleEval::new(ctx.initial.clone()).expect("search context schedules are validated");
        let depth = eval.depth();
        Annealing {
            moves: MoveSet::new(&ctx.initial),
            eval,
            best: Proposal {
                schedule: ctx.initial.clone(),
                depth,
            },
            temperature: INITIAL_TEMPERATURE,
            proposals_per_round: ctx.params.proposals_per_round,
            accepts: ctx.obs.counter("search.anneal.accepts"),
            reverts: ctx.obs.counter("search.anneal.reverts"),
        }
    }
}

impl Strategy for Annealing {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn propose(&mut self, _round: usize, seed: u64) -> Proposal {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut current_depth = self.eval.depth();
        for _ in 0..self.proposals_per_round {
            let Some(mv) = self.moves.draw(self.eval.spec(), &mut rng) else {
                continue;
            };
            let Some(depth) = self.eval.try_apply(&mv) else {
                continue;
            };
            let accept = depth <= current_depth || {
                let delta = (depth - current_depth) as f64;
                rng.gen_range(0.0..1.0) < (-delta / self.temperature.max(1e-6)).exp()
            };
            if accept {
                self.eval.commit();
                if let Some(c) = &self.accepts {
                    c.inc();
                }
                current_depth = depth;
                if depth < self.best.depth {
                    self.best = Proposal {
                        schedule: self.eval.spec().clone(),
                        depth,
                    };
                }
            } else {
                self.eval.revert();
                if let Some(c) = &self.reverts {
                    c.inc();
                }
            }
        }
        self.temperature *= COOLING;
        self.best.clone()
    }

    fn observe(&mut self, incumbent: &Incumbent, accepted: bool) {
        if !accepted && incumbent.depth < self.best.depth {
            self.eval = ScheduleEval::new(incumbent.schedule.clone())
                .expect("portfolio incumbents are valid schedules");
            self.best = Proposal {
                schedule: incumbent.schedule.clone(),
                depth: incumbent.depth,
            };
        }
    }
}
