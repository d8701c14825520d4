//! Strategy-portfolio search over syndrome-measurement schedules.
//!
//! The PropHunt optimizer (`crates/prophunt`) explores schedule space with one
//! heuristic: MaxSAT-guided greedy descent. Related work treats the same
//! landscape very differently — AlphaSyndrome as a learned sequential-decision
//! problem, Sato & Suzuki's few-ancilla scheduling as restarts over permuted
//! orderings — and no single heuristic dominates across code families. This
//! crate makes the heuristic pluggable and races several of them:
//!
//! * [`Strategy`] — the search-strategy interface: `propose` a candidate
//!   schedule each round, `observe` the portfolio incumbent (and whether your
//!   own proposal was accepted as the new incumbent).
//! * Four built-in implementations, selectable via [`StrategyKind`]:
//!   [`MaxSatDescent`] (the existing optimizer behind the trait, one pipeline
//!   iteration per round), [`Annealing`] (simulated annealing over
//!   commutation-preserving coloration swaps), [`Beam`] (greedy beam search
//!   over schedule orderings), and [`HillClimb`] (random-restart hill
//!   climbing).
//! * [`Portfolio`] — runs N seeded strategy instances on the shared
//!   [`prophunt_runtime`] worker pool in synchronized rounds with
//!   deterministic incumbent sharing and canonical-fingerprint deduplication
//!   of candidates (a schedule two instances converge on is verified once,
//!   never re-evaluated).
//!
//! # The incremental hot path
//!
//! The local-search arms are driven entirely through
//! [`prophunt_circuit::ScheduleEval`], the incremental evaluation engine:
//! [`MoveSet::draw`] selects a typed move, `try_apply` validates it in
//! O(pairs touched) (commutation parity counters) plus O(cone) (in-place
//! relayering of the touched CNOTs' forward cone), and rejected proposals are
//! undone with `revert` — no per-proposal schedule clone, no O(X·Z·shared)
//! commutation rescan, no full dependency-DAG rebuild. The incremental
//! results are exactly the from-scratch ones (property-pinned in
//! `prophunt-circuit`), so the determinism contract below is unchanged.
//!
//! # Determinism contract
//!
//! The portfolio inherits the runtime layer's contract: a fixed
//! `(seed, chunk_size)` pair yields a **bit-identical best schedule and an
//! identical per-round incumbent sequence at any thread count**. Instance
//! slot `i` is constructed with the seed `SeedStream(seed) →
//! substream(INSTANCE) → seed_for(i)`, round `r` hands it the proposal seed
//! `SeedStream(seed) → substream(ROUND) → substream(r) → seed_for(i)`,
//! instances are stepped as order-preserving runtime tasks, and the incumbent
//! is selected by the total order `(depth, instance index)` — never by
//! completion order.
//!
//! # Objective
//!
//! Candidates are scored by **CNOT depth** of a schedule that stays valid for
//! the code (commutation preserved, dependency DAG acyclic). Depth is the
//! quantity the paper's evaluation tabulates per code, and minimizing it under
//! the validity constraint is the part of the problem every strategy can
//! evaluate cheaply; the MaxSAT-descent arm additionally pulls its candidates
//! toward effective-distance-restoring schedules exactly like the standalone
//! optimizer.
//!
//! # Example
//!
//! ```
//! use prophunt_circuit::schedule::ScheduleSpec;
//! use prophunt_qec::surface::rotated_surface_code_with_layout;
//! use prophunt_runtime::{Runtime, RuntimeConfig};
//! use prophunt_search::{Portfolio, PortfolioConfig, StrategyKind};
//!
//! let (code, _) = rotated_surface_code_with_layout(3);
//! let initial = ScheduleSpec::coloration(&code);
//! let config = PortfolioConfig {
//!     strategies: vec![StrategyKind::HillClimb, StrategyKind::Annealing],
//!     portfolio_size: 2,
//!     rounds: 3,
//!     ..PortfolioConfig::quick()
//! };
//! let runtime = Runtime::new(RuntimeConfig::new(2, 64, 7));
//! let result = Portfolio::new(config, runtime).run(&code, None, &initial, |_round| {})?;
//! assert!(result.best.depth <= result.initial_depth);
//! # Ok::<(), prophunt_circuit::CircuitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod beam;
mod hillclimb;
mod maxsat;
mod moves;
mod portfolio;
mod strategy;

pub use anneal::Annealing;
pub use beam::Beam;
pub use hillclimb::HillClimb;
pub use maxsat::MaxSatDescent;
pub use moves::MoveSet;
pub use portfolio::{
    InstanceProposal, Portfolio, PortfolioConfig, RoundRecord, SearchResult, INITIAL_STRATEGY,
};
pub use strategy::{Incumbent, Proposal, SearchContext, SearchParams, Strategy, StrategyKind};
