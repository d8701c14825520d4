//! The [`Portfolio`] executor: N seeded strategy instances raced in
//! synchronized rounds on the deterministic runtime.

use crate::strategy::{Incumbent, SearchContext, SearchParams, StrategyKind};
use crate::Strategy;
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::CircuitError;
use prophunt_obs::Counter;
use prophunt_qec::surface::SurfaceLayout;
use prophunt_qec::CssCode;
use prophunt_runtime::Runtime;
use std::sync::Mutex;

/// Provenance label of the starting schedule while it is still the incumbent.
pub const INITIAL_STRATEGY: &str = "initial";

/// Seed-stream labels, disjoint from the optimizer's stage labels by crate.
mod stream {
    /// Per-instance base seeds (construction-time randomness, inner runtimes).
    pub const INSTANCE: u64 = 101;
    /// Per-round, per-instance proposal seeds.
    pub const ROUND: u64 = 102;
}

/// Algorithm knobs of a portfolio run. Threads, seed and observability
/// belong to the [`Runtime`] passed to [`Portfolio::new`].
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// The strategy mix. Instance slot `i` runs `strategies[i % len]`, so a
    /// portfolio larger than the mix cycles through it.
    pub strategies: Vec<StrategyKind>,
    /// Number of strategy instances raced in parallel.
    pub portfolio_size: usize,
    /// Number of synchronized rounds.
    pub rounds: usize,
    /// Strategy tuning knobs.
    pub params: SearchParams,
}

impl PortfolioConfig {
    /// A small configuration suitable for tests and examples: the full
    /// strategy mix, one instance each, few rounds.
    pub fn quick() -> PortfolioConfig {
        PortfolioConfig {
            strategies: StrategyKind::ALL.to_vec(),
            portfolio_size: StrategyKind::ALL.len(),
            rounds: 4,
            params: SearchParams::default(),
        }
    }
}

/// One instance's proposal summary within a [`RoundRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceProposal {
    /// Portfolio instance slot.
    pub instance: usize,
    /// Strategy name of that slot.
    pub strategy: &'static str,
    /// Depth of the instance's round proposal.
    pub depth: usize,
}

/// One synchronized round's bookkeeping: every instance's proposal depth plus
/// the incumbent after the round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// Round number (0-based).
    pub round: usize,
    /// Per-instance proposals, in instance order.
    pub proposals: Vec<InstanceProposal>,
    /// The portfolio incumbent after this round (monotonically improving).
    pub incumbent: Incumbent,
    /// Whether this round's best proposal improved on the previous incumbent.
    pub improved: bool,
    /// Number of this round's proposals whose canonical fingerprint
    /// ([`ScheduleSpec::fingerprint`]) the portfolio had already seen — those
    /// candidates are deduplicated and never re-verified.
    pub duplicates: usize,
}

/// The result of a portfolio run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// CNOT depth of the starting schedule.
    pub initial_depth: usize,
    /// The final incumbent: best schedule, depth, and provenance.
    pub best: Incumbent,
    /// Per-round records, in order (what the observer saw).
    pub rounds: Vec<RoundRecord>,
}

impl SearchResult {
    /// Depth improvement over the starting schedule (0 when none was found).
    pub fn depth_saved(&self) -> usize {
        self.initial_depth.saturating_sub(self.best.depth)
    }
}

/// Runs N seeded strategy instances in synchronized rounds with deterministic
/// incumbent sharing. See the [crate docs](crate) for the protocol and the
/// determinism contract.
#[derive(Debug)]
pub struct Portfolio {
    config: PortfolioConfig,
    runtime: Runtime,
}

impl Portfolio {
    /// Creates a portfolio executor from `config` that steps its instances on
    /// `runtime`. The result is a pure function of the runtime's seed; its
    /// thread count is wall-clock only.
    ///
    /// The runtime's observability handle receives round/proposal/dedup
    /// counters, per-arm `search.<arm>.*` counters from the strategies, the
    /// `search.round.ns` span histogram, and the pool metrics. All search
    /// counters are updated either at the single-threaded round boundary or
    /// by deterministic strategy steps, so they stay bit-identical at any
    /// thread count.
    pub fn new(config: PortfolioConfig, runtime: Runtime) -> Portfolio {
        Portfolio { config, runtime }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    /// Runs the portfolio on `code`, starting every instance from `initial`,
    /// invoking `observer` with each completed [`RoundRecord`] as the run
    /// progresses. The observer sees exactly the records collected in the
    /// returned [`SearchResult`], in order.
    ///
    /// `layout` (for codes that have one) unlocks structured
    /// permuted-ordering restarts in the hill-climbing arm; pass `None` for
    /// codes without a surface layout.
    ///
    /// # Errors
    ///
    /// Returns the [`CircuitError`] raised by validating `initial` against
    /// `code`, or [`CircuitError::InvalidSchedule`] when the configuration has
    /// no strategies, no instances or no rounds.
    pub fn run(
        &self,
        code: &CssCode,
        layout: Option<&SurfaceLayout>,
        initial: &ScheduleSpec,
        mut observer: impl FnMut(&RoundRecord),
    ) -> Result<SearchResult, CircuitError> {
        if self.config.strategies.is_empty()
            || self.config.portfolio_size == 0
            || self.config.rounds == 0
        {
            return Err(CircuitError::InvalidSchedule {
                reason: "portfolio needs at least one strategy, one instance and one round"
                    .to_string(),
            });
        }
        initial.validate_for_code(code)?;
        let initial_depth = initial.depth()?;

        let obs = self.runtime.obs();
        let ctx = SearchContext::new(
            code.clone(),
            layout.cloned(),
            initial.clone(),
            self.config.params.clone(),
        )
        .with_obs(obs.clone());
        let root = self.runtime.seed_stream();
        let instance_seeds = root.substream(stream::INSTANCE);
        // Stepping needs `&mut` per strategy from worker threads; one
        // uncontended mutex per instance keeps that safe without per-round
        // state shuffling (task i is the only locker of instance i).
        let instances: Vec<Mutex<Box<dyn Strategy>>> = (0..self.config.portfolio_size)
            .map(|i| {
                let kind = self.config.strategies[i % self.config.strategies.len()];
                Mutex::new(kind.build(&ctx, instance_seeds.seed_for(i as u64)))
            })
            .collect();
        let names: Vec<&'static str> = (0..self.config.portfolio_size)
            .map(|i| self.config.strategies[i % self.config.strategies.len()].name())
            .collect();
        // Hoisted counter handles, all updated at the single-threaded round
        // boundary in instance order (never from workers), so every count is a
        // function of the round records alone — thread-count invariant.
        let rounds_ctr = obs.counter("search.rounds");
        let proposals_ctr = obs.counter("search.proposals");
        let dedup_ctr = obs.counter("search.dedup.hits");
        let improvements_ctr = obs.counter("search.improvements");
        let arm_proposals: Vec<Option<Counter>> = names
            .iter()
            .map(|name| obs.counter(&format!("search.{name}.proposals")))
            .collect();
        let arm_wins: Vec<Option<Counter>> = names
            .iter()
            .map(|name| obs.counter(&format!("search.{name}.wins")))
            .collect();
        // Convergence diagnostics (trace-only): per-arm move-class counters
        // are re-read at each round boundary so the tracer can emit exact
        // per-round deltas. Every value involved — counter totals, dedup
        // flags, plateau streak — is computed after the round's `run_tasks`
        // barrier from thread-count-invariant state, so diag records are
        // bit-identical at any thread count.
        const DIAG_SUFFIXES: [&str; 7] = [
            "proposals",
            "wins",
            "accepts",
            "reverts",
            "restarts",
            "expansions",
            "iterations",
        ];
        let tracer = obs.tracer().cloned();
        let mut distinct_names: Vec<&'static str> = Vec::new();
        for &name in &names {
            if !distinct_names.contains(&name) {
                distinct_names.push(name);
            }
        }
        type DiagEntry = (&'static str, Option<Counter>, u64);
        let mut diag_state: Vec<(&'static str, Vec<DiagEntry>)> = if tracer.is_some() {
            distinct_names
                .iter()
                .map(|&name| {
                    let entries = DIAG_SUFFIXES
                        .iter()
                        .map(|&suffix| (suffix, obs.counter(&format!("search.{name}.{suffix}")), 0))
                        .collect();
                    (name, entries)
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut plateau: u64 = 0;

        let mut incumbent = Incumbent {
            schedule: initial.clone(),
            depth: initial_depth,
            strategy: INITIAL_STRATEGY,
            instance: 0,
            round: 0,
        };
        // Canonical-fingerprint dedup: `seen` tracks every distinct candidate
        // the portfolio has been offered, `verified` the ones whose claimed
        // depth and validity have been re-checked. A duplicate candidate —
        // two instances converging on one schedule, or an instance
        // re-proposing its unchanged best round after round — is counted but
        // never re-verified. Both sets are updated in instance order at the
        // (single-threaded) round boundary, so the dedup is deterministic.
        let initial_fingerprint = initial.fingerprint();
        let mut seen: std::collections::HashSet<u64> =
            std::collections::HashSet::from([initial_fingerprint]);
        let mut verified: std::collections::HashSet<u64> =
            std::collections::HashSet::from([initial_fingerprint]);
        let mut rounds = Vec::with_capacity(self.config.rounds);
        for round in 0..self.config.rounds {
            let mut round_span = obs.span("search.round", "search");
            round_span.arg("round", round as u64);
            let round_seeds = root.substream(stream::ROUND).substream(round as u64);
            // One runtime task per instance; results return in instance order
            // whatever the completion order, so everything below is
            // thread-count independent.
            let proposals = self.runtime.run_tasks(instances.len(), |i| {
                let mut strategy = instances[i].lock().expect("strategy mutex poisoned");
                strategy.propose(round, round_seeds.seed_for(i as u64))
            });

            // Deterministic fingerprint dedup, in instance order.
            let fingerprints: Vec<u64> =
                proposals.iter().map(|p| p.schedule.fingerprint()).collect();
            let mut duplicates = 0usize;
            let mut dup_flags = vec![false; fingerprints.len()];
            for (i, &fp) in fingerprints.iter().enumerate() {
                if !seen.insert(fp) {
                    duplicates += 1;
                    dup_flags[i] = true;
                }
            }
            if let Some(c) = &rounds_ctr {
                c.inc();
            }
            if let Some(c) = &proposals_ctr {
                c.add(proposals.len() as u64);
            }
            if let Some(c) = &dedup_ctr {
                c.add(duplicates as u64);
            }
            for c in arm_proposals.iter().flatten() {
                c.inc();
            }

            // Deterministic incumbent selection: minimum depth, ties broken by
            // the lowest instance slot; improvement must be strict.
            let (winner, best_proposal) = proposals
                .iter()
                .enumerate()
                .min_by_key(|(i, p)| (p.depth, *i))
                .expect("portfolio has at least one instance");
            let improved = best_proposal.depth < incumbent.depth;
            if improved {
                if let Some(c) = &improvements_ctr {
                    c.inc();
                }
                if let Some(c) = &arm_wins[winner] {
                    c.inc();
                }
                // Re-verify a winning candidate once per distinct schedule:
                // the portfolio does not take a strategy's depth claim on
                // faith, but a fingerprint it has already verified is not
                // re-evaluated.
                if verified.insert(fingerprints[winner]) {
                    best_proposal.schedule.validate_for_code(code)?;
                    let actual = best_proposal.schedule.depth()?;
                    if actual != best_proposal.depth {
                        return Err(CircuitError::InvalidSchedule {
                            reason: format!(
                                "strategy {} proposed depth {} for a schedule of depth {actual}",
                                names[winner], best_proposal.depth
                            ),
                        });
                    }
                }
                incumbent = Incumbent {
                    schedule: best_proposal.schedule.clone(),
                    depth: best_proposal.depth,
                    strategy: names[winner],
                    instance: winner,
                    round,
                };
            }
            for (i, instance) in instances.iter().enumerate() {
                let mut strategy = instance.lock().expect("strategy mutex poisoned");
                strategy.observe(&incumbent, improved && i == winner);
            }

            plateau = if improved { 0 } else { plateau + 1 };
            if let Some(t) = &tracer {
                // Deterministic convergence-diagnostic records: timeless diag
                // events carrying only round-boundary state, emitted from this
                // single thread in a fixed order. Per-slot arm records on lane
                // = slot, per-strategy move-class deltas on the strategy's
                // first slot, and one portfolio-level round record on lane 0.
                for (i, p) in proposals.iter().enumerate() {
                    t.diag(
                        "search.arm",
                        i as u64,
                        &[
                            ("round", round as u64),
                            ("depth", p.depth as u64),
                            ("win", u64::from(improved && i == winner)),
                            ("dup", u64::from(dup_flags[i])),
                        ],
                    );
                }
                for (name, entries) in &mut diag_state {
                    let mut args: Vec<(&str, u64)> = Vec::with_capacity(entries.len());
                    for (suffix, handle, last) in entries.iter_mut() {
                        let now = handle.as_ref().map_or(0, Counter::get);
                        args.push((suffix, now.wrapping_sub(*last)));
                        *last = now;
                    }
                    let lane = names.iter().position(|n| n == name).unwrap_or(0) as u64;
                    t.diag(&format!("search.strategy.{name}"), lane, &args);
                }
                t.diag(
                    "search.round",
                    0,
                    &[
                        ("round", round as u64),
                        ("depth", incumbent.depth as u64),
                        ("improved", u64::from(improved)),
                        ("duplicates", duplicates as u64),
                        ("plateau", plateau),
                        ("seen", seen.len() as u64),
                        ("proposals", proposals.len() as u64),
                    ],
                );
            }

            let record = RoundRecord {
                round,
                proposals: proposals
                    .iter()
                    .enumerate()
                    .map(|(i, p)| InstanceProposal {
                        instance: i,
                        strategy: names[i],
                        depth: p.depth,
                    })
                    .collect(),
                incumbent: incumbent.clone(),
                improved,
                duplicates,
            };
            observer(&record);
            rounds.push(record);
        }
        Ok(SearchResult {
            initial_depth,
            best: incumbent,
            rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_obs::Obs;
    use prophunt_qec::surface::rotated_surface_code_with_layout;
    use prophunt_runtime::RuntimeConfig;

    fn runtime(threads: usize) -> Runtime {
        Runtime::new(RuntimeConfig::new(threads, 16, 11))
    }

    fn local_config() -> PortfolioConfig {
        // Local-search arms only: fast enough for unit tests.
        PortfolioConfig {
            strategies: vec![
                StrategyKind::Annealing,
                StrategyKind::Beam,
                StrategyKind::HillClimb,
            ],
            portfolio_size: 3,
            rounds: 4,
            params: SearchParams::default(),
        }
    }

    #[test]
    fn portfolio_improves_the_coloration_depth_of_the_d3_surface_code() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let initial = ScheduleSpec::coloration(&code);
        let initial_depth = initial.depth().unwrap();
        let result = Portfolio::new(local_config(), runtime(3))
            .run(&code, None, &initial, |_| {})
            .unwrap();
        assert_eq!(result.initial_depth, initial_depth);
        result.best.schedule.validate_for_code(&code).unwrap();
        assert_eq!(result.best.schedule.depth().unwrap(), result.best.depth);
        // The hand-designed depth-4 schedule exists, and the coloration
        // baseline sits well above it: the local-search portfolio must close
        // at least part of that gap.
        assert!(
            result.best.depth < initial_depth,
            "portfolio should improve on coloration depth {initial_depth}"
        );
        assert_eq!(result.rounds.len(), 4);
        // Provenance points at a real instance.
        assert!(result.best.instance < 3);
        assert_ne!(result.best.strategy, INITIAL_STRATEGY);
    }

    #[test]
    fn incumbent_sequence_is_monotone_and_matches_the_observer() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let initial = ScheduleSpec::coloration(&code);
        let mut streamed = Vec::new();
        let result = Portfolio::new(local_config(), runtime(3))
            .run(&code, None, &initial, |r| streamed.push(r.clone()))
            .unwrap();
        assert_eq!(streamed, result.rounds);
        let mut last = result.initial_depth;
        for record in &result.rounds {
            assert!(record.incumbent.depth <= last, "incumbent must not regress");
            assert_eq!(
                record.improved,
                record.incumbent.depth < last,
                "improved flag must track strict improvement"
            );
            last = record.incumbent.depth;
            assert_eq!(record.proposals.len(), 3);
        }
        assert_eq!(result.best, result.rounds.last().unwrap().incumbent);
    }

    #[test]
    fn fixed_seed_and_chunk_size_give_bit_identical_results_at_any_thread_count() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let initial = ScheduleSpec::coloration(&code);
        let run = |threads: usize| {
            Portfolio::new(local_config(), runtime(threads))
                .run(&code, None, &initial, |_| {})
                .unwrap()
        };
        let reference = run(1);
        for threads in [2, 8] {
            let result = run(threads);
            assert_eq!(
                result.best.schedule, reference.best.schedule,
                "best schedule diverged at threads = {threads}"
            );
            assert_eq!(result, reference, "threads = {threads}");
        }
    }

    #[test]
    fn search_counters_are_recorded_and_thread_count_invariant() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let initial = ScheduleSpec::coloration(&code);
        let run = |threads: usize| {
            let obs = Obs::enabled();
            let runtime = Runtime::with_obs(RuntimeConfig::new(threads, 16, 11), obs.clone());
            Portfolio::new(local_config(), runtime)
                .run(&code, None, &initial, |_| {})
                .unwrap();
            obs.snapshot().unwrap()
        };
        let reference = run(1);
        assert_eq!(reference.counter("search.rounds"), 4);
        assert_eq!(reference.counter("search.proposals"), 12);
        assert_eq!(
            reference.counter("search.anneal.proposals")
                + reference.counter("search.beam.proposals")
                + reference.counter("search.hillclimb.proposals"),
            12
        );
        assert!(
            reference.counter("search.improvements") >= 1,
            "coloration start must improve at least once"
        );
        assert!(
            reference.counter("search.anneal.accepts") + reference.counter("search.anneal.reverts")
                > 0,
            "annealing arm must have stepped"
        );
        assert!(reference.counter("search.beam.expansions") > 0);
        assert!(reference
            .histogram("search.round.ns")
            .is_some_and(|h| h.count == 4));
        for threads in [2, 8] {
            let snap = run(threads);
            assert_eq!(snap.counters, reference.counters, "threads = {threads}");
        }
    }

    #[test]
    fn convergence_diagnostics_are_emitted_and_thread_count_invariant() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let initial = ScheduleSpec::coloration(&code);
        let run = |threads: usize| {
            let tracer = prophunt_obs::Tracer::new();
            let obs = Obs::enabled().with_tracer(tracer.clone());
            let runtime = Runtime::with_obs(RuntimeConfig::new(threads, 16, 11), obs);
            let result = Portfolio::new(local_config(), runtime)
                .run(&code, None, &initial, |_| {})
                .unwrap();
            let diags: Vec<_> = tracer
                .drain()
                .events
                .into_iter()
                .filter(|e| e.cat == prophunt_obs::DIAG_CATEGORY)
                .collect();
            (result, diags)
        };
        let (result, reference) = run(1);
        // 4 rounds × (3 arm records + 3 strategy records + 1 round record).
        assert_eq!(reference.len(), 4 * 7);
        let rounds: Vec<_> = reference
            .iter()
            .filter(|e| e.name == "search.round")
            .collect();
        assert_eq!(rounds.len(), 4);
        let last = rounds.last().unwrap();
        let args: std::collections::HashMap<&str, u64> =
            last.args.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(args["depth"], result.best.depth as u64);
        assert_eq!(args["proposals"], 3);
        // Timeless by construction: the deterministic subset carries no clock.
        for e in &reference {
            assert_eq!((e.ts_ns, e.dur_ns, e.id, e.parent), (0, 0, 0, 0));
        }
        // Per-arm records attribute lanes to slots.
        let arm_lanes: std::collections::HashSet<u64> = reference
            .iter()
            .filter(|e| e.name == "search.arm")
            .map(|e| e.tid)
            .collect();
        assert_eq!(arm_lanes, (0..3).collect());
        // Strategy move-class deltas exist for each arm in the mix.
        for name in ["anneal", "beam", "hillclimb"] {
            assert!(reference
                .iter()
                .any(|e| e.name == format!("search.strategy.{name}")));
        }
        for threads in [2, 8] {
            let (other_result, diags) = run(threads);
            assert_eq!(other_result, result, "threads = {threads}");
            assert_eq!(
                diags, reference,
                "diag records diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn degenerate_configurations_are_rejected() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let initial = ScheduleSpec::coloration(&code);
        for broken in [
            PortfolioConfig {
                strategies: vec![],
                ..local_config()
            },
            PortfolioConfig {
                portfolio_size: 0,
                ..local_config()
            },
            PortfolioConfig {
                rounds: 0,
                ..local_config()
            },
        ] {
            assert!(Portfolio::new(broken, runtime(3))
                .run(&code, None, &initial, |_| {})
                .is_err());
        }
        // A schedule for the wrong code is rejected by validation.
        let (code5, _) = rotated_surface_code_with_layout(5);
        assert!(Portfolio::new(local_config(), runtime(3))
            .run(&code5, None, &initial, |_| {})
            .is_err());
    }

    #[test]
    fn portfolio_cycles_the_strategy_mix_across_instances() {
        let (code, _) = rotated_surface_code_with_layout(3);
        let initial = ScheduleSpec::coloration(&code);
        let config = PortfolioConfig {
            strategies: vec![StrategyKind::HillClimb, StrategyKind::Annealing],
            portfolio_size: 5,
            rounds: 1,
            params: SearchParams::default(),
        };
        let result = Portfolio::new(config, Runtime::new(RuntimeConfig::new(2, 16, 3)))
            .run(&code, None, &initial, |_| {})
            .unwrap();
        let names: Vec<&str> = result.rounds[0]
            .proposals
            .iter()
            .map(|p| p.strategy)
            .collect();
        assert_eq!(
            names,
            vec!["hillclimb", "anneal", "hillclimb", "anneal", "hillclimb"]
        );
    }
}
