//! Per-shot reference vs bit-parallel frame-engine LER throughput on the
//! Table 1 code suite.
//!
//! This is the bench behind the frame engine's acceptance claim. For every
//! benchmark code it runs the same fixed shot budget twice — once through the
//! per-shot oracle [`reference::per_shot_estimate`] (one sampled shot, one
//! `decode` call at a time) and once through the engine,
//! [`estimate_logical_error_rate`] (64 shots per word: `sample_frames` →
//! `transpose_lane_words` → the batch decode pipeline) — at the Table 1
//! operating point (p = 1e-3) with the production decoder per family:
//! union-find on the matchable surface codes, BP+OSD on the LDPC codes. The
//! report keeps its `scalar_*` field names for the reference side, so the
//! format stays stable.
//!
//! What the frame engine can and cannot speed up: it eliminates per-shot
//! sampling cost (geometric-skip word sampling), per-shot allocation, and
//! per-shot scratch resets — so codes whose per-shot path is dominated by those
//! overheads (the union-find surface rows) gain 5-10x. On the LDPC rows its
//! decode stage is the three-layer batch pipeline: the zero-syndrome fast
//! path, the per-chunk syndrome-dedup cache (each distinct syndrome decoded
//! once, fanned back out in first-occurrence order), and the
//! structure-of-arrays lane-parallel BP core with convergence-based lane
//! retirement plus the reused-workspace eliminator-matrix OSD-0 for the
//! non-converged residue. All three layers are bit-identity-preserving, so
//! every layer's win is bounded by the decode *arithmetic* both paths
//! share: at the Table 1 operating point `bb_72_12`'s chunks contain almost
//! no repeated syndromes (the row reports `distinct_syndromes`), min-sum BP
//! plus OSD dominate both paths, and the row — with it the LDPC and suite
//! aggregates — is Amdahl-capped near ~1.7-2x. The per-bucket floors in
//! [`BUCKET_GATES`] are set at that honest level (with headroom for run-to-
//! run machine variance); the headline gate remains the surface (union-find)
//! sub-aggregate `>= 5x`.
//!
//! The two paths lay out the per-chunk RNG stream differently (shot-major vs
//! mechanism-major), so their failure counts legitimately differ; the
//! correctness gate is *same-frames decode parity*: on identical sampled error
//! frames, the frame pipeline's per-shot predictions — and hence its failure
//! count — must equal the per-shot `decode` path's exactly. The bin asserts
//! that for every code and aborts loudly otherwise (this is the CI smoke
//! assertion). The committed `BENCH_frames.json` records the full-profile run;
//! `PROPHUNT_SMOKE=1` trims the shot budget and skips the timing gates (the
//! parity assertion always runs).

use prophunt_bench::{benchmark_suite, runtime_config_from_env, stage_seed};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
use prophunt_decoders::{
    decode_shots_cached, estimate_logical_error_rate, reference, BpOsdDecoder, DecodeCache,
    Decoder, ShotBudget, UnionFindDecoder,
};
use prophunt_formats::report::ReportRecord;
use prophunt_formats::{write_report, Json};
use prophunt_gf2::transpose_lane_words;
use prophunt_obs::Obs;
use prophunt_runtime::Runtime;
use std::time::{Duration, Instant};

/// The per-bucket speedup floors the full profile is gated on, in one place.
/// The surface (union-find) sub-aggregate is the headline: the frame engine
/// removes that family's dominant per-shot costs outright. The LDPC and
/// whole-suite aggregates are capped by `bb_72_12`'s BP+OSD arithmetic —
/// bit-identical work on both paths — so their floors are set at the
/// measured honest level minus headroom for machine variance, not at the
/// surface headline.
const BUCKET_GATES: [(usize, &str, f64); 3] = [
    (SURFACE, "surface (uf)", 5.0),
    (LDPC, "ldpc (bposd)", 1.5),
    (SUITE, "suite", 1.5),
];

/// Every per-code row must at least not regress against the per-shot reference.
const PER_CODE_FLOOR: f64 = 1.0;

/// Aggregation-bucket indices into the wall-clock totals.
const SURFACE: usize = 0;
const LDPC: usize = 1;
const SUITE: usize = 2;

struct EngineRun {
    failures: usize,
    wall: Duration,
}

struct FrameRow {
    code: String,
    p: f64,
    shots: usize,
    reference: EngineRun,
    frames: EngineRun,
    parity_shots: usize,
    parity_failures: usize,
    /// Distinct non-zero syndromes the frames engine's chunks decoded
    /// (`ler.decode.cache.miss` over the full budget) — how much per-chunk
    /// dedup headroom this code has at the benchmarked operating point.
    distinct_syndromes: u64,
    /// Fraction of shots short-circuited by the zero-syndrome fast path.
    zero_fraction: f64,
}

impl FrameRow {
    fn reference_sps(&self) -> f64 {
        self.shots as f64 / self.reference.wall.as_secs_f64().max(1e-12)
    }

    fn frames_sps(&self) -> f64 {
        self.shots as f64 / self.frames.wall.as_secs_f64().max(1e-12)
    }

    fn speedup(&self) -> f64 {
        self.reference.wall.as_secs_f64() / self.frames.wall.as_secs_f64().max(1e-12)
    }

    fn to_record(&self) -> ReportRecord {
        ReportRecord::Table {
            name: "frame_bench".into(),
            fields: vec![
                ("code".into(), Json::Str(self.code.clone())),
                ("p".into(), Json::Float(self.p)),
                ("shots".into(), Json::UInt(self.shots as u64)),
                (
                    "scalar_failures".into(),
                    Json::UInt(self.reference.failures as u64),
                ),
                (
                    "frames_failures".into(),
                    Json::UInt(self.frames.failures as u64),
                ),
                (
                    "scalar_shots_per_sec".into(),
                    Json::Float(self.reference_sps()),
                ),
                (
                    "frames_shots_per_sec".into(),
                    Json::Float(self.frames_sps()),
                ),
                ("speedup".into(), Json::Float(self.speedup())),
                ("parity_shots".into(), Json::UInt(self.parity_shots as u64)),
                (
                    "parity_failures".into(),
                    Json::UInt(self.parity_failures as u64),
                ),
                // Additive batch-pipeline profile fields (see FORMATS.md):
                // parsers that predate them ignore unknown table fields.
                (
                    "distinct_syndromes".into(),
                    Json::UInt(self.distinct_syndromes),
                ),
                ("zero_fraction".into(), Json::Float(self.zero_fraction)),
            ],
        }
    }
}

/// Same-frames decode parity: sample `shots` error frames once, then decode
/// the identical syndromes through the scalar per-shot path, the decoder's
/// raw `decode_batch`, and the full batch pipeline ([`decode_shots_cached`])
/// with the syndrome-dedup cache on and off. Returns the (common) failure
/// count; panics when any per-shot prediction — or the resulting failure
/// count — differs anywhere in the stack.
fn assert_same_frames_parity(
    name: &str,
    dem: &DetectorErrorModel,
    decoder: &dyn Decoder,
    shots: usize,
    seed: u64,
) -> usize {
    let mut sampler = dem.sampler(seed);
    let mut det_frames = vec![0u64; dem.num_detectors()];
    let mut obs_frames = vec![0u64; dem.num_observables()];
    let mut scalar_failures = 0usize;
    let mut batch_failures = 0usize;
    let mut remaining = shots;
    while remaining > 0 {
        let lanes = remaining.min(64);
        sampler.sample_frames(lanes, &mut det_frames, &mut obs_frames);
        let det_shots = transpose_lane_words(&det_frames, lanes);
        let obs_shots = transpose_lane_words(&obs_frames, lanes);
        let (batch, _) = decoder.decode_batch(&det_shots);
        let (cached, _) = decode_shots_cached(decoder, &det_shots, DecodeCache::On);
        let (uncached, _) = decode_shots_cached(decoder, &det_shots, DecodeCache::Off);
        for (lane, (shot, observed)) in det_shots.iter().zip(&obs_shots).enumerate() {
            let scalar = decoder.decode(shot);
            assert_eq!(
                scalar, batch[lane],
                "{name}: scalar decode and decode_batch disagree on identical frames \
                 (seed {seed}, lane {lane})"
            );
            assert_eq!(
                scalar, cached[lane],
                "{name}: the dedup cache changed a prediction (seed {seed}, lane {lane})"
            );
            assert_eq!(
                scalar, uncached[lane],
                "{name}: the cache-off pipeline changed a prediction \
                 (seed {seed}, lane {lane})"
            );
            if &scalar != observed {
                scalar_failures += 1;
            }
            if &batch[lane] != observed {
                batch_failures += 1;
            }
        }
        remaining -= lanes;
    }
    assert_eq!(
        scalar_failures, batch_failures,
        "{name}: both paths must report identical failure counts on identical frames"
    );
    scalar_failures
}

fn main() {
    let smoke = std::env::var("PROPHUNT_SMOKE").is_ok();
    let runtime = runtime_config_from_env();
    let shots = if smoke { 256 } else { 4096 };
    let parity_shots = if smoke { 128 } else { 256 };
    println!("LER estimation throughput: bit-parallel frame engine vs per-shot reference");
    println!(
        "  {shots} shots per code and path, {} threads, chunk {}, seed {} \
         (PROPHUNT_SMOKE=1 trims the budget)",
        runtime.threads, runtime.chunk_size, runtime.seed
    );
    println!(
        "{:<14} {:>7} {:>6} {:>12} {:>12} {:>9}  parity",
        "code", "p", "shots", "ref sh/s", "frames sh/s", "speedup"
    );
    let mut records = Vec::new();
    // (reference wall, frames wall, shots) per aggregation bucket.
    let mut totals: [(Duration, Duration, usize); 3] = Default::default();
    for (stage, bench) in benchmark_suite(true).into_iter().enumerate() {
        // The Table 1 operating point (p = 1e-3), with the production decoder
        // for each family: union-find on the matchable surface codes, BP+OSD
        // on the LDPC codes. This is the workload `tab01_codes` actually runs,
        // so the measured shots/sec is the real campaign hot path.
        let p = 1e-3;
        let schedule = bench
            .hand_designed
            .clone()
            .unwrap_or_else(|| ScheduleSpec::coloration(&bench.code));
        let exp = MemoryExperiment::build(&bench.code, &schedule, bench.rounds, MemoryBasis::Z)
            .expect("benchmark schedule must be valid for its code");
        let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p));
        let decoder: Box<dyn Decoder> = if bench.code.name().starts_with("surface") {
            Box::new(UnionFindDecoder::new(&dem))
        } else {
            Box::new(BpOsdDecoder::new(&dem))
        };
        let decoder = &*decoder;
        let seed = stage_seed(&runtime, 80 + stage as u64);

        // Same-frames decode parity: the deterministic gate, always on.
        let parity_failures = assert_same_frames_parity(
            bench.code.name(),
            &dem,
            decoder,
            parity_shots,
            stage_seed(&runtime, 90 + stage as u64),
        );

        let rt = Runtime::new(runtime);
        let t = Instant::now();
        let estimate = reference::per_shot_estimate(&dem, decoder, shots, seed, &rt);
        let reference = EngineRun {
            failures: estimate.failures,
            wall: t.elapsed(),
        };
        let t = Instant::now();
        let (estimate, _) = estimate_logical_error_rate(
            &dem,
            decoder,
            ShotBudget::fixed(shots),
            seed,
            DecodeCache::On,
            &rt,
            &mut |_| {},
        );
        let frames = EngineRun {
            failures: estimate.failures,
            wall: t.elapsed(),
        };
        // Untimed, observability-enabled frames run for the deterministic
        // batch pipeline profile: how many distinct non-zero syndromes the
        // chunks actually decoded (`ler.decode.cache.miss`) and what fraction
        // of shots the zero fast path short-circuited. Kept separate from the
        // timed runs so registry updates never skew the speedup ratio.
        let (distinct_syndromes, zero_fraction) = {
            let obs = Obs::enabled();
            let rt = Runtime::with_obs(runtime, obs.clone());
            estimate_logical_error_rate(
                &dem,
                decoder,
                ShotBudget::fixed(shots),
                seed,
                DecodeCache::On,
                &rt,
                &mut |_| {},
            );
            let snap = obs.snapshot().expect("an enabled registry snapshots");
            (
                snap.counter("ler.decode.cache.miss"),
                snap.counter("ler.decode.zero") as f64 / shots as f64,
            )
        };
        let row = FrameRow {
            code: bench.code.name().to_string(),
            p,
            shots,
            reference,
            frames,
            parity_shots,
            parity_failures,
            distinct_syndromes,
            zero_fraction,
        };
        println!(
            "{:<14} {:>7} {:>6} {:>12.0} {:>12.0} {:>8.1}x  ok ({}/{} failures, \
             {} distinct, {:.0}% zero)",
            row.code,
            row.p,
            row.shots,
            row.reference_sps(),
            row.frames_sps(),
            row.speedup(),
            row.parity_failures,
            row.parity_shots,
            row.distinct_syndromes,
            100.0 * row.zero_fraction,
        );
        // Per-code timing gates only run at the full budget: the smoke
        // profile's per-code windows are short enough that one scheduler
        // stall on a loaded CI runner could flip the comparison with no code
        // defect. (The same-frames parity assert above is the deterministic
        // gate and always runs.)
        if !smoke {
            assert!(
                row.speedup() >= PER_CODE_FLOOR,
                "frame engine must not be slower than the per-shot reference on {}",
                row.code
            );
        }
        let family = if row.code.starts_with("surface") {
            SURFACE
        } else {
            LDPC
        };
        for bucket in [family, SUITE] {
            totals[bucket].0 += row.reference.wall;
            totals[bucket].1 += row.frames.wall;
            totals[bucket].2 += row.shots;
        }
        records.push(row.to_record());
    }
    for (bucket, label, floor) in BUCKET_GATES {
        let (reference, frames, shots) = totals[bucket];
        let speedup = reference.as_secs_f64() / frames.as_secs_f64().max(1e-12);
        let reference_sps = shots as f64 / reference.as_secs_f64().max(1e-12);
        let frames_sps = shots as f64 / frames.as_secs_f64().max(1e-12);
        println!(
            "{:<14} {:>7} {:>6} {:>12.0} {:>12.0} {:>8.1}x",
            label, "", shots, reference_sps, frames_sps, speedup
        );
        if !smoke {
            assert!(
                speedup >= floor,
                "frame engine must deliver >= {floor}x aggregate shots/sec \
                 over the per-shot reference on {label} (got {speedup:.2}x)"
            );
        }
        records.push(ReportRecord::Table {
            name: "frame_bench".into(),
            fields: vec![
                ("code".into(), Json::Str(label.into())),
                ("shots".into(), Json::UInt(shots as u64)),
                ("scalar_shots_per_sec".into(), Json::Float(reference_sps)),
                ("frames_shots_per_sec".into(), Json::Float(frames_sps)),
                ("speedup".into(), Json::Float(speedup)),
            ],
        });
    }
    if smoke {
        // Never clobber the committed full-profile baseline with trimmed
        // smoke numbers.
        println!("smoke mode: skipping BENCH_frames.json (baseline is the full profile)");
    } else {
        std::fs::write("BENCH_frames.json", write_report(&records))
            .expect("cannot write BENCH_frames.json");
        println!("wrote BENCH_frames.json ({} rows)", records.len());
    }
}
