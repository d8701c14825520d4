//! The unified experiment API of the PropHunt suite: a composable
//! Session/Job surface with pluggable decoders, a noise-model family and
//! deterministic adaptive shot budgets.
//!
//! The paper evaluates schedules across codes, decoders and noise settings; this
//! crate makes that product space first-class instead of hard-wiring each
//! combination:
//!
//! * [`ExperimentSpec`] — a validating builder for *what* to run: code family +
//!   schedule source + noise spec + decoder name + rounds + basis.
//! * [`Session`] — *where* it runs: owns the deterministic parallel
//!   [`prophunt_runtime::Runtime`] and caches built memory experiments, detector
//!   error models and decoder instances across jobs, so sweeps share work.
//! * [`OptimizeJob`] / [`LerJob`] / [`SearchJob`] — *how* it runs: typed jobs
//!   emitting a unified [`Event`] stream (iteration records, shot-chunk
//!   progress, per-round search incumbents with strategy provenance, stop
//!   reason) through one observer channel.
//! * [`ShotBudget`] — *how long* it runs: fixed shots, a failure target, or a
//!   relative-standard-error target, all stopping at chunk granularity so
//!   early-stopped failure counts stay bit-identical at any thread count.
//! * [`DecoderRegistry`] / [`NoiseSpec`] — the pluggable registries: decoders
//!   selectable by name (`bposd`, `unionfind`, user-registered), noise models
//!   constructible from spec strings (`depolarizing:0.001`, `si1000:0.002`,
//!   `biased:0.001:10`).
//!
//! Every session also carries a [`prophunt_obs`] registry (re-exported as
//! [`obs`]) shared with its runtime, the LER engine and search;
//! [`Session::metrics`] snapshots cache hit/miss counters, deterministic
//! shot/chunk counters and per-stage span histograms in one call.
//!
//! # Example
//!
//! ```
//! use prophunt_api::{BasisSelection, ExperimentSpec, LerJob, Session, ShotBudget};
//! use prophunt_runtime::RuntimeConfig;
//!
//! let mut session = Session::new(RuntimeConfig::new(4, 64, 7));
//! let spec = ExperimentSpec::builder()
//!     .code_family("surface:3")?
//!     .noise_str("depolarizing:0.003")?
//!     .decoder("bposd")
//!     .basis(BasisSelection::Both)
//!     .build()?;
//! let job = LerJob::new(spec).with_budget(ShotBudget::MaxFailures {
//!     max_failures: 10,
//!     max_shots: 20_000,
//! });
//! let outcome = session.run_ler_quiet(&job)?;
//! println!(
//!     "LER {:.2e} after {} shots ({})",
//!     outcome.combined.rate(),
//!     outcome.combined.shots,
//!     outcome.stop.as_str()
//! );
//! # Ok::<(), prophunt_api::ApiError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decoder;
pub mod error;
pub mod job;
pub mod noise;
pub mod search;
pub mod session;
pub mod spec;

pub use decoder::{DecoderBuilder, DecoderRegistry};
pub use error::ApiError;
pub use job::{
    BasisEstimate, Event, JobKind, LerJob, LerOutcome, OptimizeJob, OptimizeOutcome, StopReason,
};
pub use noise::NoiseSpec;
pub use search::{SearchJob, SearchOutcome};
pub use session::Session;
pub use spec::{BasisSelection, ExperimentSpec, ExperimentSpecBuilder, ScheduleSource};

// Re-export the budget, engine and strategy types jobs are parameterized by,
// so downstream users need only this crate.
pub use prophunt_decoders::{DecodeCache, Engine, ShotBudget};
pub use prophunt_search::StrategyKind;

// Re-export the observability layer sessions record into.
pub use prophunt_obs as obs;
pub use prophunt_obs::{Obs, Snapshot};
