//! Decoders and logical-error-rate estimation for circuit-level detector error models.
//!
//! The paper decodes surface codes with PyMatching (sparse blossom) and LP/RQT codes with
//! BP-LSD. This crate provides the same decoding capability from scratch:
//!
//! * [`BpOsdDecoder`] — normalized min-sum belief propagation over the detector error
//!   model's Tanner graph, with ordered-statistics (OSD-0) post-processing. BP+OSD is the
//!   decoder family BP-LSD belongs to, and it also handles matchable (surface-code)
//!   decoding graphs, so a single implementation covers every benchmark code.
//! * [`UnionFindDecoder`] — a cluster-growth union-find decoder for graph-like detector
//!   error models (each error mechanism flips at most two detectors after restriction),
//!   used as a faster alternative on surface codes and as an ablation point.
//! * [`estimate_logical_error_rate`] — the Monte-Carlo harness: sample 64 shots per
//!   machine word from a [`DemSampler`](prophunt_circuit::DemSampler), batch-decode,
//!   and count logical failures under a deterministic, optionally adaptive
//!   [`ShotBudget`], across threads.
//! * [`reference`](mod@reference) — the per-shot estimation loop, kept only as a test and
//!   benchmark oracle.
//!
//! # Example
//!
//! ```
//! use prophunt_qec::surface::rotated_surface_code_with_layout;
//! use prophunt_circuit::{MemoryBasis, MemoryExperiment, NoiseModel, DetectorErrorModel};
//! use prophunt_circuit::schedule::ScheduleSpec;
//! use prophunt_decoders::{estimate_logical_error_rate, BpOsdDecoder, DecodeCache, ShotBudget};
//! use prophunt_runtime::{Runtime, RuntimeConfig};
//!
//! let (code, layout) = rotated_surface_code_with_layout(3);
//! let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
//! let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
//! let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3));
//! let decoder = BpOsdDecoder::new(&dem);
//! let runtime = Runtime::new(RuntimeConfig::single_threaded(0));
//! let (estimate, _stop) = estimate_logical_error_rate(
//!     &dem,
//!     &decoder,
//!     ShotBudget::fixed(200),
//!     0xfeed,
//!     DecodeCache::On,
//!     &runtime,
//!     &mut |_| {},
//! );
//! assert!(estimate.rate() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bposd;
pub mod ler;
pub mod reference;
pub mod unionfind;

pub use batch::{decode_shots_cached, DecodeCache, DecodeStats};
pub use bposd::BpOsdDecoder;
pub use ler::{
    estimate_logical_error_rate, ChunkProgress, Engine, LerStopReason, LogicalErrorEstimate,
    ShotBudget,
};
pub use unionfind::UnionFindDecoder;

use prophunt_gf2::BitVec;

/// Decoder-side tallies for one [`Decoder::decode_batch`] call.
///
/// Like every deterministic counter in this workspace, the fields are pure
/// functions of the input shots. Decoders without a BP/OSD split (union-find)
/// report the default all-zero stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Shots whose BP pass converged (reproduced the syndrome).
    pub bp_converged: usize,
    /// Shots that fell through to the OSD post-processor.
    pub osd_calls: usize,
}

/// A decoder over a fixed detector error model.
///
/// Given the detector outcomes of one shot, the decoder predicts which logical
/// observables were flipped; a shot counts as a logical failure when the prediction
/// disagrees with the true observable flips.
pub trait Decoder: Send + Sync {
    /// Predicts the observable flips for the given detector outcomes.
    fn decode(&self, detectors: &BitVec) -> BitVec;

    /// Predicts the observable flips of a whole batch of shots, one prediction
    /// per input syndrome, in order, plus decoder-side [`BatchStats`] tallies.
    ///
    /// The contract is strict equality with the per-shot path: for every `i`,
    /// `decode_batch(shots).0[i] == decode(&shots[i])`, and the stats are a
    /// pure function of the shots (deterministic at any thread count). The
    /// default implementation simply loops [`Decoder::decode`] and reports
    /// all-zero stats; decoders with per-call scratch ([`BpOsdDecoder`],
    /// [`UnionFindDecoder`]) override it to build the scratch once and reuse
    /// it across the batch, which is where the frame engine's batch-decoding
    /// speedup comes from, and [`BpOsdDecoder`] also reports BP convergence
    /// and OSD fallback counts.
    fn decode_batch(&self, shots: &[BitVec]) -> (Vec<BitVec>, BatchStats) {
        let predictions = shots.iter().map(|s| self.decode(s)).collect();
        (predictions, BatchStats::default())
    }

    /// Number of detectors the decoder expects per shot.
    fn num_detectors(&self) -> usize;

    /// Number of observables the decoder predicts per shot.
    fn num_observables(&self) -> usize;
}
