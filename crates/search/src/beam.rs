//! Greedy beam search over schedule orderings.

use crate::moves::MoveSet;
use crate::strategy::{Incumbent, Proposal, SearchContext, Strategy};
use prophunt_circuit::schedule::eval::ScheduleEval;
use prophunt_obs::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Slots in the beam.
const BEAM_WIDTH: usize = 4;

/// Greedy beam search: a beam of the `BEAM_WIDTH` best ordering assignments
/// found so far, each expanded with seeded random moves every round, with the
/// shallowest `BEAM_WIDTH` survivors (parents included) carried forward.
///
/// Where annealing follows one trajectory and hill climbing restarts, the beam
/// keeps several partially refined orderings alive at once, so a deep
/// reordering that only pays off after several compounding moves is not
/// discarded the moment an alternative looks one layer shallower.
///
/// Expansion drives one [`ScheduleEval`] per parent: each candidate move is
/// applied incrementally, the resulting schedule captured, and the eval
/// reverted back to the parent — duplicates are dropped by canonical
/// fingerprint instead of full schedule comparison.
///
/// Incumbent policy: injects the incumbent into the beam (displacing the
/// deepest slot) when it is shallower than the current beam best, so the whole
/// beam refines the portfolio's best known orderings.
#[derive(Debug)]
pub struct Beam {
    moves: MoveSet,
    /// Beam slots ordered shallow-to-deep, ties kept in insertion order,
    /// each with its schedule fingerprint for dedup.
    beam: Vec<(Proposal, u64)>,
    proposals_per_round: usize,
    /// Hoisted `search.beam.expansions` counter handle (None when the
    /// context's observability is disabled).
    expansions: Option<Counter>,
}

impl Beam {
    /// Creates an instance whose beam starts as the initial schedule alone.
    pub fn new(ctx: &SearchContext) -> Beam {
        let depth = ctx
            .initial
            .depth()
            .expect("search context schedules are validated");
        let fingerprint = ctx.initial.fingerprint();
        Beam {
            moves: MoveSet::new(&ctx.initial),
            beam: vec![(
                Proposal {
                    schedule: ctx.initial.clone(),
                    depth,
                },
                fingerprint,
            )],
            proposals_per_round: ctx.params.proposals_per_round,
            expansions: ctx.obs.counter("search.beam.expansions"),
        }
    }

    /// Inserts `candidate` keeping the beam sorted by depth (stable for ties)
    /// and truncated to the width; duplicates of existing slots — detected by
    /// canonical fingerprint — are dropped.
    fn insert(&mut self, candidate: Proposal, fingerprint: u64) {
        if self.beam.iter().any(|(_, fp)| *fp == fingerprint) {
            return;
        }
        let at = self
            .beam
            .iter()
            .position(|(p, _)| p.depth > candidate.depth)
            .unwrap_or(self.beam.len());
        self.beam.insert(at, (candidate, fingerprint));
        self.beam.truncate(BEAM_WIDTH);
    }
}

impl Strategy for Beam {
    fn name(&self) -> &'static str {
        "beam"
    }

    fn propose(&mut self, _round: usize, seed: u64) -> Proposal {
        let mut rng = StdRng::seed_from_u64(seed);
        let parents: Vec<Proposal> = self.beam.iter().map(|(p, _)| p.clone()).collect();
        let per_parent = (self.proposals_per_round / parents.len().max(1)).max(1);
        for parent in &parents {
            let mut eval = ScheduleEval::new(parent.schedule.clone())
                .expect("beam slots hold valid schedules");
            for _ in 0..per_parent {
                let Some(mv) = self.moves.draw(eval.spec(), &mut rng) else {
                    continue;
                };
                if let Some(depth) = eval.try_apply(&mv) {
                    if let Some(c) = &self.expansions {
                        c.inc();
                    }
                    let fingerprint = eval.fingerprint();
                    self.insert(
                        Proposal {
                            schedule: eval.spec().clone(),
                            depth,
                        },
                        fingerprint,
                    );
                    eval.revert();
                }
            }
        }
        self.beam[0].0.clone()
    }

    fn observe(&mut self, incumbent: &Incumbent, accepted: bool) {
        if !accepted && incumbent.depth < self.beam[0].0.depth {
            self.insert(
                Proposal {
                    schedule: incumbent.schedule.clone(),
                    depth: incumbent.depth,
                },
                incumbent.schedule.fingerprint(),
            );
        }
    }
}
