//! Monte-Carlo logical-error-rate estimation with deterministic adaptive shot budgets.
//!
//! Sampling is split into fixed-size *chunks* of `runtime.chunk_size()` shots; chunk
//! `c` draws its shots from an independent RNG stream seeded with
//! `SeedStream::new(seed).seed_for(c)`. The chunk boundaries and seeds depend only on
//! `(seed, chunk_size)`, never on the worker-thread count, and adaptive stopping
//! decisions ([`ShotBudget`]) are evaluated *in chunk order*, so a fixed
//! `(seed, chunk_size)` gives bit-identical failure counts at any thread count —
//! including runs that stop early.
//!
//! Each chunk runs the bit-parallel *frame* kernel: it packs 64 shots per machine
//! word ([`DemSampler::sample_frames`](prophunt_circuit::DemSampler::sample_frames)),
//! transposes the frames into per-shot syndromes and decodes the whole chunk
//! through the batch pipeline ([`decode_shots_cached`]): zero-syndrome fast
//! path, per-chunk syndrome-dedup cache, then [`Decoder::decode_batch`] on the
//! distinct residue. The pipeline's tallies surface as the deterministic
//! `ler.decode.{zero,cache.hit,cache.miss,bp.converged,osd.calls}` counters,
//! incremented — like every LER counter — only in the in-order adaptive scan.
//!
//! The per-shot loop (one `sample_into`, one [`Decoder::decode`] per shot)
//! survives only as the [`reference`](crate::reference) oracle.

use crate::batch::{decode_shots_cached, DecodeCache, DecodeStats};
use crate::Decoder;
use prophunt_circuit::DetectorErrorModel;
use prophunt_gf2::{transpose_lane_words, BitVec};
use prophunt_obs::{Obs, Timer};
use prophunt_runtime::{Runtime, SeedStream};

/// The result of a Monte-Carlo logical-error-rate estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicalErrorEstimate {
    /// Number of shots sampled.
    pub shots: usize,
    /// Number of shots in which the decoder's observable prediction was wrong.
    pub failures: usize,
}

impl LogicalErrorEstimate {
    /// The empty estimate (0 shots, 0 failures).
    pub const ZERO: LogicalErrorEstimate = LogicalErrorEstimate {
        shots: 0,
        failures: 0,
    };

    /// Returns the estimated logical error rate (failures per shot).
    ///
    /// An estimate with 0 shots has rate `0.0` by convention (pinned by tests): it
    /// reports "no failures observed", never `NaN`.
    pub fn rate(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.failures as f64 / self.shots as f64
    }

    /// Returns the binomial standard error of the estimate.
    ///
    /// Degenerate estimates are pinned to `0.0` rather than `NaN`: 0 shots, 0
    /// failures (`p = 0`) and all-failures (`p = 1`) all return `0.0`. Use
    /// [`Self::relative_standard_error`] when a stopping rule needs "no
    /// information yet" to read as *infinite* uncertainty instead.
    pub fn standard_error(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        let p = self.rate();
        (p * (1.0 - p) / self.shots as f64).sqrt()
    }

    /// Returns the relative standard error `standard_error / rate` — the quantity
    /// targeted by [`ShotBudget::TargetRse`].
    ///
    /// With 0 shots or 0 failures the rate estimate carries no relative-precision
    /// information, so the RSE is `f64::INFINITY` (an adaptive run must keep
    /// sampling, not stop at a spuriously "precise" zero).
    pub fn relative_standard_error(&self) -> f64 {
        if self.shots == 0 || self.failures == 0 {
            return f64::INFINITY;
        }
        self.standard_error() / self.rate()
    }

    /// Combines two estimates (e.g. X- and Z-basis memory experiments) by summing shots
    /// and failures.
    pub fn combined(self, other: LogicalErrorEstimate) -> LogicalErrorEstimate {
        LogicalErrorEstimate {
            shots: self.shots + other.shots,
            failures: self.failures + other.failures,
        }
    }
}

/// How many Monte-Carlo shots an estimation job may spend, and when it may stop
/// early.
///
/// Budgets are evaluated at *chunk* granularity in chunk-index order, which keeps
/// early-stopped runs deterministic: a [`ShotBudget::MaxFailures`] or
/// [`ShotBudget::TargetRse`] run stops after exactly the chunk prefix of the
/// corresponding [`ShotBudget::Fixed`] run (same `(seed, chunk_size)`) whose
/// cumulative tally first satisfies the rule, at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShotBudget {
    /// Sample exactly `shots` shots.
    Fixed {
        /// Number of shots to sample.
        shots: usize,
    },
    /// Stop at the end of the first chunk whose cumulative failure count reaches
    /// `max_failures`, sampling at most `max_shots` shots.
    MaxFailures {
        /// Failure count that ends the run.
        max_failures: usize,
        /// Hard cap on the number of shots.
        max_shots: usize,
    },
    /// Stop at the end of the first chunk where the cumulative
    /// [`LogicalErrorEstimate::relative_standard_error`] drops to `target` or
    /// below, sampling at most `max_shots` shots.
    TargetRse {
        /// Relative standard error that ends the run.
        target: f64,
        /// Hard cap on the number of shots.
        max_shots: usize,
    },
}

impl ShotBudget {
    /// A fixed budget of exactly `shots` shots.
    pub fn fixed(shots: usize) -> ShotBudget {
        ShotBudget::Fixed { shots }
    }

    /// Returns the maximum number of shots the budget may spend.
    pub fn max_shots(&self) -> usize {
        match *self {
            ShotBudget::Fixed { shots } => shots,
            ShotBudget::MaxFailures { max_shots, .. } => max_shots,
            ShotBudget::TargetRse { max_shots, .. } => max_shots,
        }
    }

    /// Returns the adaptive stop reason triggered by the cumulative estimate, if
    /// any. [`ShotBudget::Fixed`] never stops early.
    fn adaptive_stop(&self, cumulative: &LogicalErrorEstimate) -> Option<LerStopReason> {
        match *self {
            ShotBudget::Fixed { .. } => None,
            ShotBudget::MaxFailures { max_failures, .. } => (max_failures > 0
                && cumulative.failures >= max_failures)
                .then_some(LerStopReason::MaxFailuresReached),
            ShotBudget::TargetRse { target, .. } => (cumulative.failures > 0
                && cumulative.relative_standard_error() <= target)
                .then_some(LerStopReason::TargetRseReached),
        }
    }
}

/// Why an estimation run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LerStopReason {
    /// The budget's (maximum) shot count was fully sampled.
    ShotsExhausted,
    /// A [`ShotBudget::MaxFailures`] rule was satisfied before the shot cap.
    MaxFailuresReached,
    /// A [`ShotBudget::TargetRse`] rule was satisfied before the shot cap.
    TargetRseReached,
}

impl LerStopReason {
    /// A stable machine-readable name (used in report records).
    pub fn as_str(&self) -> &'static str {
        match self {
            LerStopReason::ShotsExhausted => "shots_exhausted",
            LerStopReason::MaxFailuresReached => "max_failures",
            LerStopReason::TargetRseReached => "target_rse",
        }
    }
}

/// Cumulative progress after one completed chunk, reported to the observer of
/// [`estimate_logical_error_rate`] in chunk-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkProgress {
    /// Index of the chunk that just completed (0-based).
    pub chunk: usize,
    /// Total shots sampled through this chunk.
    pub shots: usize,
    /// Total failures observed through this chunk.
    pub failures: usize,
}

/// The estimation engine, as recorded in the `engine` field of report records.
///
/// The bit-parallel frame kernel is the only engine. The type remains so that
/// reports keep naming the engine their counts came from, and so that callers
/// pinning [`Engine::Frames`] keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Sample 64 shots per machine word, transpose, and batch-decode through
    /// [`decode_shots_cached`].
    #[default]
    Frames,
}

impl Engine {
    /// A stable machine-readable name (used in report records).
    pub fn as_str(&self) -> &'static str {
        match self {
            Engine::Frames => "frames",
        }
    }
}

/// The deterministic LER counters, in the order [`ChunkResult::counts`]
/// tallies them.
const LER_COUNTERS: [&str; 8] = [
    "ler.chunks",
    "ler.shots",
    "ler.failures",
    "ler.decode.zero",
    "ler.decode.cache.hit",
    "ler.decode.cache.miss",
    "ler.decode.bp.converged",
    "ler.decode.osd.calls",
];

/// Estimates the logical error rate of `decoder` on shots sampled from `dem`,
/// spending at most `budget` and stopping early when the budget's adaptive rule is
/// satisfied.
///
/// A shot counts as a failure when the predicted observable flips differ from the true
/// flips in *any* logical observable (the paper's per-shot logical error, covering both
/// X and Z logicals when both experiments' estimates are combined).
///
/// Chunks are evaluated in parallel waves, but the stopping rule is applied by
/// scanning completed chunks *in chunk-index order*, so the returned estimate (and
/// the observer's event stream) is a pure function of `(seed, chunk_size, budget)`
/// — the thread count changes wall-clock time only. In particular, an
/// early-stopped run returns exactly the cumulative tally of chunks `0..=k` of the
/// equivalent [`ShotBudget::Fixed`] run, where `k` is the first chunk satisfying
/// the rule.
///
/// `cache` switches the batch pipeline's syndrome-dedup cache. The cache is
/// bit-identity-preserving (every prediction is a pure function of its
/// syndrome), so the estimate is the same for both settings — which is exactly
/// what the knob makes checkable; only wall-clock and the `ler.decode.*`
/// counters differ.
///
/// `observer` is invoked once per counted chunk with the cumulative progress.
pub fn estimate_logical_error_rate(
    dem: &DetectorErrorModel,
    decoder: &dyn Decoder,
    budget: ShotBudget,
    seed: u64,
    cache: DecodeCache,
    runtime: &Runtime,
    observer: &mut dyn FnMut(ChunkProgress),
) -> (LogicalErrorEstimate, LerStopReason) {
    let max_shots = budget.max_shots();
    if max_shots == 0 {
        return (LogicalErrorEstimate::ZERO, LerStopReason::ShotsExhausted);
    }
    let chunk = runtime.chunk_size();
    let total_chunks = max_shots.div_ceil(chunk);
    let stream = SeedStream::new(seed);
    let mut cumulative = LogicalErrorEstimate::ZERO;
    let mut done = 0usize;
    // LER counters are incremented only in the in-order adaptive scan below:
    // a wave may execute surplus chunks past an early stop, but those are
    // discarded, so the counted chunk prefix — and every counter — is a pure
    // function of (seed, chunk_size, budget), never of the thread count.
    let obs = runtime.obs();
    let counters = LER_COUNTERS.map(|name| obs.counter(name));
    let timers = FrameTimers::new(obs);
    while done < total_chunks {
        // One wave of chunks. The wave size is a wall-clock knob only: stopping is
        // decided by an in-order scan below, so overshooting a wave never changes
        // the result — surplus chunks are simply discarded.
        let wave = (runtime.threads() * 2).clamp(1, total_chunks - done);
        let results = runtime.run_tasks(wave, |i| {
            let c = done + i;
            let chunk_shots = chunk.min(max_shots - c * chunk);
            run_chunk(
                dem,
                decoder,
                chunk_shots,
                stream.seed_for(c as u64),
                cache,
                &timers,
            )
        });
        for (i, partial) in results.into_iter().enumerate() {
            cumulative = cumulative.combined(partial.estimate);
            for (counter, n) in counters.iter().zip(partial.counts()) {
                if let Some(counter) = counter {
                    counter.add(n);
                }
            }
            observer(ChunkProgress {
                chunk: done + i,
                shots: cumulative.shots,
                failures: cumulative.failures,
            });
            if let Some(reason) = budget.adaptive_stop(&cumulative) {
                return (cumulative, reason);
            }
        }
        done += wave;
    }
    (cumulative, LerStopReason::ShotsExhausted)
}

/// One chunk's result: the shot/failure tally plus the batch decode
/// pipeline's deterministic per-chunk stats.
struct ChunkResult {
    estimate: LogicalErrorEstimate,
    decode: DecodeStats,
}

impl ChunkResult {
    /// This chunk's increments of the [`LER_COUNTERS`], in order.
    fn counts(&self) -> [u64; 8] {
        [
            1,
            self.estimate.shots as u64,
            self.estimate.failures as u64,
            self.decode.zero as u64,
            self.decode.cache_hits as u64,
            self.decode.cache_misses as u64,
            self.decode.bp_converged as u64,
            self.decode.osd_calls as u64,
        ]
    }
}

/// The frame kernel's timed regions, built once per estimate. With neither a
/// registry nor a tracer attached, the kernel never reads the clock.
struct FrameTimers {
    chunk: Timer,
    sample: Timer,
    transpose: Timer,
    decode: Timer,
}

impl FrameTimers {
    fn new(obs: &Obs) -> FrameTimers {
        FrameTimers {
            chunk: obs.timer("ler.chunk", "ler"),
            sample: obs.timer("ler.frames.sample", "ler.stage"),
            transpose: obs.timer("ler.frames.transpose", "ler.stage"),
            decode: obs.timer("ler.frames.decode", "ler.stage"),
        }
    }
}

fn run_chunk(
    dem: &DetectorErrorModel,
    decoder: &dyn Decoder,
    shots: usize,
    seed: u64,
    cache: DecodeCache,
    timers: &FrameTimers,
) -> ChunkResult {
    let mut sampler = dem.sampler(seed);
    let mut det_frames = vec![0u64; dem.num_detectors()];
    let mut obs_frames = vec![0u64; dem.num_observables()];
    let mut det_shots: Vec<BitVec> = Vec::with_capacity(shots);
    let mut obs_shots: Vec<BitVec> = Vec::with_capacity(shots);
    let chunk_span = timers.chunk.start();
    // Sample and transpose every 64-lane block first, then decode the whole
    // chunk at once so the syndrome-dedup cache sees the full chunk's
    // duplicate structure.
    let mut remaining = shots;
    while remaining > 0 {
        let lanes = remaining.min(64);
        let mut span = timers.sample.start();
        if let Some(span) = &mut span {
            span.arg("lanes", lanes as u64);
        }
        sampler.sample_frames(lanes, &mut det_frames, &mut obs_frames);
        drop(span);
        let span = timers.transpose.start();
        det_shots.extend(transpose_lane_words(&det_frames, lanes));
        obs_shots.extend(transpose_lane_words(&obs_frames, lanes));
        drop(span);
        remaining -= lanes;
    }
    let span = timers.decode.start();
    let (predictions, decode) = decode_shots_cached(decoder, &det_shots, cache);
    drop(span);
    let failures = predictions
        .iter()
        .zip(&obs_shots)
        .filter(|(prediction, observed)| prediction != observed)
        .count();
    if let Some(mut span) = chunk_span {
        span.arg("shots", shots as u64);
        span.arg("failures", failures as u64);
    }
    ChunkResult {
        estimate: LogicalErrorEstimate { shots, failures },
        decode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, BpOsdDecoder, UnionFindDecoder};
    use prophunt_circuit::schedule::ScheduleSpec;
    use prophunt_circuit::{MemoryBasis, MemoryExperiment, NoiseModel, GEOMETRIC_SKIP_MAX_P};
    use prophunt_qec::surface::rotated_surface_code_with_layout;
    use prophunt_runtime::RuntimeConfig;

    fn surface_dem(d: usize, p: f64, rounds: usize) -> DetectorErrorModel {
        let (code, layout) = rotated_surface_code_with_layout(d);
        let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        let exp = MemoryExperiment::build(&code, &schedule, rounds, MemoryBasis::Z).unwrap();
        DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p))
    }

    /// [`estimate_logical_error_rate`] with the default cache and no observer.
    fn estimate(
        dem: &DetectorErrorModel,
        decoder: &dyn Decoder,
        budget: ShotBudget,
        seed: u64,
        runtime: &Runtime,
    ) -> (LogicalErrorEstimate, LerStopReason) {
        estimate_logical_error_rate(
            dem,
            decoder,
            budget,
            seed,
            DecodeCache::On,
            runtime,
            &mut |_| {},
        )
    }

    /// A fixed-budget [`estimate`], without the stop reason.
    fn fixed(
        dem: &DetectorErrorModel,
        decoder: &dyn Decoder,
        shots: usize,
        seed: u64,
        runtime: &Runtime,
    ) -> LogicalErrorEstimate {
        estimate(dem, decoder, ShotBudget::fixed(shots), seed, runtime).0
    }

    #[test]
    fn estimate_math_is_consistent() {
        let e = LogicalErrorEstimate {
            shots: 200,
            failures: 10,
        };
        assert!((e.rate() - 0.05).abs() < 1e-12);
        assert!(e.standard_error() > 0.0);
        let c = e.combined(LogicalErrorEstimate {
            shots: 100,
            failures: 5,
        });
        assert_eq!(c.shots, 300);
        assert_eq!(c.failures, 15);
    }

    #[test]
    fn zero_shot_estimates_are_pinned_to_zero_not_nan() {
        let empty = LogicalErrorEstimate::ZERO;
        assert_eq!(empty.rate(), 0.0);
        assert_eq!(empty.standard_error(), 0.0);
        assert_eq!(empty.relative_standard_error(), f64::INFINITY);
        // Combining with the empty estimate is the identity.
        let e = LogicalErrorEstimate {
            shots: 50,
            failures: 3,
        };
        assert_eq!(empty.combined(e), e);
        assert_eq!(e.combined(empty), e);
        assert_eq!(empty.combined(empty), empty);
    }

    #[test]
    fn zero_failure_estimates_have_zero_error_but_infinite_rse() {
        let e = LogicalErrorEstimate {
            shots: 1000,
            failures: 0,
        };
        assert_eq!(e.rate(), 0.0);
        assert_eq!(e.standard_error(), 0.0);
        assert_eq!(e.relative_standard_error(), f64::INFINITY);
        // All-failures is the other degenerate binomial endpoint: p = 1, se = 0.
        let all = LogicalErrorEstimate {
            shots: 40,
            failures: 40,
        };
        assert_eq!(all.rate(), 1.0);
        assert_eq!(all.standard_error(), 0.0);
        assert_eq!(all.relative_standard_error(), 0.0);
    }

    #[test]
    fn relative_standard_error_matches_definition_in_the_regular_case() {
        let e = LogicalErrorEstimate {
            shots: 400,
            failures: 100,
        };
        let expected = e.standard_error() / e.rate();
        assert!((e.relative_standard_error() - expected).abs() < 1e-15);
        assert!(expected.is_finite() && expected > 0.0);
    }

    #[test]
    fn multithreaded_estimate_matches_shot_count_and_is_reasonable() {
        let dem = surface_dem(3, 3e-3, 3);
        let decoder = BpOsdDecoder::new(&dem);
        let runtime = Runtime::new(RuntimeConfig::new(4, 64, 0));
        let estimate = fixed(&dem, &decoder, 400, 7, &runtime);
        assert_eq!(estimate.shots, 400);
        // d=3 at p = 0.3% should fail well below 10% of shots.
        assert!(estimate.rate() < 0.1, "rate {}", estimate.rate());
    }

    #[test]
    fn higher_physical_error_rate_gives_higher_logical_error_rate() {
        let low = surface_dem(3, 1e-3, 3);
        let high = surface_dem(3, 2e-2, 3);
        let dec_low = BpOsdDecoder::new(&low);
        let dec_high = BpOsdDecoder::new(&high);
        let runtime = Runtime::new(RuntimeConfig::new(2, 64, 0));
        let e_low = fixed(&low, &dec_low, 300, 13, &runtime);
        let e_high = fixed(&high, &dec_high, 300, 13, &runtime);
        assert!(e_high.failures > e_low.failures);
    }

    #[test]
    fn failure_counts_are_identical_across_thread_counts() {
        // Union-find at a chunk size that is not a multiple of 64, so every
        // chunk ends in a partial lane block.
        let dem = surface_dem(3, 8e-3, 3);
        let decoder = UnionFindDecoder::new(&dem);
        let run = |threads| {
            fixed(
                &dem,
                &decoder,
                500,
                42,
                &Runtime::new(RuntimeConfig::new(threads, 50, 0)),
            )
        };
        let reference = run(1);
        assert!(reference.failures > 0, "want a nonzero count to compare");
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn zero_budget_returns_the_empty_estimate() {
        let dem = surface_dem(3, 8e-3, 2);
        let decoder = BpOsdDecoder::new(&dem);
        let runtime = Runtime::new(RuntimeConfig::new(2, 64, 0));
        let (est, stop) = estimate_logical_error_rate(
            &dem,
            &decoder,
            ShotBudget::fixed(0),
            1,
            DecodeCache::On,
            &runtime,
            &mut |_| panic!("no chunks expected"),
        );
        assert_eq!(est, LogicalErrorEstimate::ZERO);
        assert_eq!(stop, LerStopReason::ShotsExhausted);
    }

    #[test]
    fn max_failures_budget_stops_at_the_chunk_prefix_of_the_fixed_run() {
        let dem = surface_dem(3, 2e-2, 3);
        let decoder = BpOsdDecoder::new(&dem);
        let runtime = Runtime::new(RuntimeConfig::new(4, 32, 0));
        // Reference: a fixed run, recording the cumulative tally after each chunk.
        let mut prefix = Vec::new();
        let (full, stop) = estimate_logical_error_rate(
            &dem,
            &decoder,
            ShotBudget::fixed(960),
            5,
            DecodeCache::On,
            &runtime,
            &mut |p| prefix.push(p),
        );
        assert_eq!(stop, LerStopReason::ShotsExhausted);
        assert_eq!(prefix.len(), 30);
        assert!(full.failures >= 8, "need failures, got {}", full.failures);
        let max_failures = full.failures / 2;
        let expected = prefix
            .iter()
            .find(|p| p.failures >= max_failures)
            .expect("threshold below the total must be crossed");
        let (adaptive, stop) = estimate(
            &dem,
            &decoder,
            ShotBudget::MaxFailures {
                max_failures,
                max_shots: 960,
            },
            5,
            &runtime,
        );
        assert_eq!(stop, LerStopReason::MaxFailuresReached);
        assert_eq!(adaptive.shots, expected.shots);
        assert_eq!(adaptive.failures, expected.failures);
        assert!(adaptive.shots < full.shots, "must stop early");
    }

    #[test]
    fn adaptive_budgets_fall_back_to_the_shot_cap() {
        let dem = surface_dem(3, 1e-3, 2);
        let decoder = BpOsdDecoder::new(&dem);
        let runtime = Runtime::new(RuntimeConfig::new(2, 64, 0));
        let (est, stop) = estimate(
            &dem,
            &decoder,
            ShotBudget::MaxFailures {
                max_failures: usize::MAX,
                max_shots: 128,
            },
            3,
            &runtime,
        );
        assert_eq!(stop, LerStopReason::ShotsExhausted);
        assert_eq!(est.shots, 128);
        // An unreachable RSE target also runs to the cap.
        let (est, stop) = estimate(
            &dem,
            &decoder,
            ShotBudget::TargetRse {
                target: 1e-9,
                max_shots: 128,
            },
            3,
            &runtime,
        );
        assert_eq!(stop, LerStopReason::ShotsExhausted);
        assert_eq!(est.shots, 128);
    }

    #[test]
    fn target_rse_budget_stops_once_the_estimate_is_precise_enough() {
        let dem = surface_dem(3, 2e-2, 3);
        let decoder = BpOsdDecoder::new(&dem);
        let runtime = Runtime::new(RuntimeConfig::new(4, 32, 0));
        let budget = ShotBudget::TargetRse {
            target: 0.5,
            max_shots: 100_000,
        };
        let (est, stop) = estimate(&dem, &decoder, budget, 9, &runtime);
        assert_eq!(stop, LerStopReason::TargetRseReached);
        assert!(est.relative_standard_error() <= 0.5);
        assert!(est.shots < 100_000, "must stop well before the cap");
        // The decision is taken at chunk granularity: stopping exactly at a chunk
        // boundary means the previous chunk's tally was still above target.
        assert_eq!(est.shots % 32, 0);
    }

    #[test]
    fn engine_is_frames_and_names_itself_in_reports() {
        assert_eq!(Engine::default(), Engine::Frames);
        assert_eq!(Engine::Frames.as_str(), "frames");
    }

    #[test]
    fn frame_engine_failure_counts_are_identical_across_thread_counts() {
        let dem = surface_dem(3, 8e-3, 3);
        let decoder = BpOsdDecoder::new(&dem);
        let run = |threads| {
            fixed(
                &dem,
                &decoder,
                500,
                42,
                &Runtime::new(RuntimeConfig::new(threads, 64, 0)),
            )
        };
        let reference = run(1);
        assert_eq!(reference.shots, 500);
        assert!(reference.failures > 0, "want a nonzero count to compare");
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn frame_engine_handles_partial_lane_blocks_and_chunk_tails() {
        // 150 shots at chunk 64 → chunks of 64, 64, 22; the last chunk exercises a
        // partial (22-lane) frame block.
        let dem = surface_dem(3, 2e-2, 3);
        let decoder = BpOsdDecoder::new(&dem);
        let runtime = Runtime::new(RuntimeConfig::new(2, 64, 0));
        let (est, stop) = estimate(&dem, &decoder, ShotBudget::fixed(150), 11, &runtime);
        assert_eq!(stop, LerStopReason::ShotsExhausted);
        assert_eq!(est.shots, 150);
        assert!(est.failures > 0, "p = 2% on d3 should fail sometimes");
        assert!(est.rate() < 0.5, "rate {}", est.rate());
    }

    /// Two-proportion z statistic of `a` against `b` under the pooled null
    /// hypothesis that both sample the same logical error rate.
    fn two_proportion_z(a: LogicalErrorEstimate, b: LogicalErrorEstimate) -> f64 {
        let pooled = a.combined(b).rate();
        let se = (pooled * (1.0 - pooled) * (1.0 / a.shots as f64 + 1.0 / b.shots as f64)).sqrt();
        (a.rate() - b.rate()) / se
    }

    /// The statistical cross-engine gate: the frame engine and the per-shot
    /// reference oracle sample different shot sequences from the same
    /// distribution, so their logical error rates must agree within a
    /// two-proportion |z| <= 4 (fixed seeds, so the outcome is reproducible).
    /// p = 2e-2 is the sampler's geometric-skip threshold: its model exercises
    /// both frame-sampling paths.
    #[test]
    fn frames_agree_with_the_reference_oracle_within_four_sigma() {
        let runtime = Runtime::new(RuntimeConfig::new(4, 1024, 0));
        for (p, shots) in [(1e-3, 200_000), (GEOMETRIC_SKIP_MAX_P, 40_000)] {
            let dem = surface_dem(3, p, 3);
            if p == GEOMETRIC_SKIP_MAX_P {
                let probabilities = || dem.errors().iter().map(|e| e.probability);
                assert!(probabilities().any(|q| q > 0.0 && q < GEOMETRIC_SKIP_MAX_P));
                assert!(probabilities().any(|q| q >= GEOMETRIC_SKIP_MAX_P));
            }
            let decoder = UnionFindDecoder::new(&dem);
            let frames = fixed(&dem, &decoder, shots, 17, &runtime);
            let oracle = reference::per_shot_estimate(&dem, &decoder, shots, 17, &runtime);
            assert_eq!(frames.shots, oracle.shots);
            assert!(frames.failures > 0 && oracle.failures > 0, "p = {p}");
            let z = two_proportion_z(frames, oracle);
            assert!(
                z.abs() <= 4.0,
                "p = {p}: frames {frames:?} vs reference {oracle:?} (z = {z:.2})"
            );
        }
    }

    #[test]
    fn frame_engine_adaptive_stop_matches_its_own_fixed_chunk_prefix() {
        // The fixed run decodes through the dedup cache, the adaptive run
        // without it: the cache must not move the stopping chunk.
        let dem = surface_dem(3, 2e-2, 3);
        let decoder = BpOsdDecoder::new(&dem);
        let runtime = Runtime::new(RuntimeConfig::new(4, 32, 0));
        let mut prefix = Vec::new();
        let (full, _) = estimate_logical_error_rate(
            &dem,
            &decoder,
            ShotBudget::fixed(960),
            5,
            DecodeCache::On,
            &runtime,
            &mut |p| prefix.push(p),
        );
        assert!(full.failures >= 8, "need failures, got {}", full.failures);
        let target = 0.35;
        let expected = prefix
            .iter()
            .find(|p| {
                let e = LogicalErrorEstimate {
                    shots: p.shots,
                    failures: p.failures,
                };
                e.failures > 0 && e.relative_standard_error() <= target
            })
            .expect("target must be crossed inside the fixed run");
        assert!(expected.shots < full.shots, "must stop early");
        let (adaptive, stop) = estimate_logical_error_rate(
            &dem,
            &decoder,
            ShotBudget::TargetRse {
                target,
                max_shots: 960,
            },
            5,
            DecodeCache::Off,
            &runtime,
            &mut |_| {},
        );
        assert_eq!(stop, LerStopReason::TargetRseReached);
        assert_eq!(adaptive.shots, expected.shots);
        assert_eq!(adaptive.failures, expected.failures);
    }

    #[test]
    fn budget_helpers_expose_caps_and_names() {
        assert_eq!(ShotBudget::fixed(10).max_shots(), 10);
        assert_eq!(
            ShotBudget::MaxFailures {
                max_failures: 1,
                max_shots: 7
            }
            .max_shots(),
            7
        );
        assert_eq!(
            ShotBudget::TargetRse {
                target: 0.1,
                max_shots: 9
            }
            .max_shots(),
            9
        );
        assert_eq!(LerStopReason::ShotsExhausted.as_str(), "shots_exhausted");
        assert_eq!(LerStopReason::MaxFailuresReached.as_str(), "max_failures");
        assert_eq!(LerStopReason::TargetRseReached.as_str(), "target_rse");
    }

    #[test]
    fn ler_counters_are_thread_count_invariant_and_stage_timings_recorded() {
        let dem = surface_dem(3, 0.02, 2);
        let decoder = BpOsdDecoder::new(&dem);
        // An early-stopping budget: waves overshoot the stop point at high
        // thread counts, which is exactly the case the counter contract has
        // to survive.
        let budget = ShotBudget::MaxFailures {
            max_failures: 4,
            max_shots: 2048,
        };
        let mut reference = None;
        for threads in [1, 2, 8] {
            let obs = Obs::enabled();
            let runtime = Runtime::with_obs(RuntimeConfig::new(threads, 16, 0), obs.clone());
            let (estimate, _) = estimate(&dem, &decoder, budget, 5, &runtime);
            let snap = obs.snapshot().unwrap();
            assert_eq!(snap.counter("ler.shots"), estimate.shots as u64);
            assert_eq!(snap.counter("ler.failures"), estimate.failures as u64);
            assert!(snap.counter("ler.chunks") > 0);
            // Every LER counter is registered on every run, zero or not.
            for name in LER_COUNTERS {
                assert!(snap.counters.iter().any(|(n, _)| n == name), "{name}");
            }
            let counters = snap.counters.clone();
            match &reference {
                None => reference = Some(counters),
                Some(r) => assert_eq!(&counters, r, "at {threads} threads"),
            }
            for stage in [
                "ler.chunk.ns",
                "ler.frames.sample.ns",
                "ler.frames.transpose.ns",
                "ler.frames.decode.ns",
            ] {
                assert!(
                    snap.histogram(stage).is_some_and(|h| h.count > 0),
                    "{stage} empty"
                );
            }
        }
        // A plain runtime records nothing and returns the same estimate.
        let plain = Runtime::new(RuntimeConfig::new(2, 16, 0));
        let (estimate, _) = estimate(&dem, &decoder, budget, 5, &plain);
        assert!(estimate.shots > 0);
    }

    #[test]
    fn tracing_records_stage_events_without_changing_estimates() {
        let dem = surface_dem(3, 0.02, 2);
        let decoder = BpOsdDecoder::new(&dem);
        let budget = ShotBudget::fixed(200);
        let plain = Runtime::new(RuntimeConfig::new(2, 16, 0));
        let (baseline, _) = estimate(&dem, &decoder, budget, 7, &plain);
        // Tracer-only Obs: no registry, so histograms stay off and the trace
        // path has to carry the instrumented branch alone.
        let tracer = prophunt_obs::Tracer::new();
        let obs = Obs::disabled().with_tracer(tracer.clone());
        let traced = Runtime::with_obs(RuntimeConfig::new(2, 16, 0), obs);
        let (estimate, _) = estimate(&dem, &decoder, budget, 7, &traced);
        assert_eq!(estimate, baseline, "tracing changed the result");
        let log = tracer.drain();
        let chunk_spans = log.events.iter().filter(|e| e.name == "ler.chunk").count();
        assert!(chunk_spans > 0, "no ler.chunk spans");
        for stage in [
            "ler.frames.sample",
            "ler.frames.transpose",
            "ler.frames.decode",
        ] {
            let n = log.events.iter().filter(|e| e.name == stage).count();
            assert!(n > 0, "no {stage} events");
        }
        // Stage events nest under their chunk span on the same lane.
        let chunk_ids: std::collections::HashSet<u64> = log
            .events
            .iter()
            .filter(|e| e.name == "ler.chunk")
            .map(|e| e.id)
            .collect();
        for e in log.events.iter().filter(|e| e.cat == "ler.stage") {
            assert!(chunk_ids.contains(&e.parent), "stage event orphaned");
        }
    }
}
