//! Enabled-vs-disabled registry overhead of the `prophunt-obs` layer on the
//! Table 1 frames-engine LER workload.
//!
//! This is the bench behind the observability layer's acceptance claim: an
//! *enabled* registry (counters incremented per chunk, span histograms around
//! every sample/transpose/decode stage) must cost at most a few percent of
//! frames-engine throughput, and a *disabled* handle must be effectively free.
//! For every benchmark code it runs the same fixed shot budget through
//! [`estimate_logical_error_rate`] at the Table 1 operating point (p = 1e-3,
//! production decoder per family), alternating between a runtime built on
//! [`Obs::disabled`] and one built on [`Obs::enabled`], and reports the
//! per-code and suite-aggregate overhead of the enabled registry (minimum wall
//! over the repetitions, so one scheduler stall cannot bias either side).
//!
//! Two deterministic gates always run, smoke profile included:
//!
//! * instrumentation must not perturb results — the failure counts of the
//!   disabled and enabled runs must be identical (the registry is out-of-band
//!   of the splitmix64 seed streams);
//! * the enabled registry must actually observe the run — `ler.shots` must
//!   equal the exact shot budget across the repetitions and the per-stage
//!   frame-pipeline histograms must be populated.
//!
//! The timing gate (suite-aggregate overhead <= 3%) only runs at the full
//! profile: the smoke budget's windows are short enough that timer noise, not
//! the registry, would dominate the comparison. The committed `BENCH_obs.json`
//! records the full-profile run; `PROPHUNT_SMOKE=1` trims the budget and skips
//! the file write.

use prophunt_bench::{benchmark_suite, runtime_config_from_env, stage_seed};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
use prophunt_decoders::{
    estimate_logical_error_rate, BpOsdDecoder, DecodeCache, Decoder, ShotBudget, UnionFindDecoder,
};
use prophunt_formats::report::ReportRecord;
use prophunt_formats::{write_report, Json};
use prophunt_obs::Obs;
use prophunt_runtime::Runtime;
use std::time::{Duration, Instant};

struct ObsRow {
    code: String,
    shots: usize,
    disabled: Duration,
    enabled: Duration,
}

impl ObsRow {
    fn disabled_sps(&self) -> f64 {
        self.shots as f64 / self.disabled.as_secs_f64().max(1e-12)
    }

    fn enabled_sps(&self) -> f64 {
        self.shots as f64 / self.enabled.as_secs_f64().max(1e-12)
    }

    fn overhead_pct(&self) -> f64 {
        100.0 * (self.enabled.as_secs_f64() / self.disabled.as_secs_f64().max(1e-12) - 1.0)
    }

    fn to_record(&self) -> ReportRecord {
        ReportRecord::Table {
            name: "obs_bench".into(),
            fields: vec![
                ("code".into(), Json::Str(self.code.clone())),
                ("shots".into(), Json::UInt(self.shots as u64)),
                (
                    "disabled_shots_per_sec".into(),
                    Json::Float(self.disabled_sps()),
                ),
                (
                    "enabled_shots_per_sec".into(),
                    Json::Float(self.enabled_sps()),
                ),
                ("overhead_pct".into(), Json::Float(self.overhead_pct())),
            ],
        }
    }
}

fn main() {
    let smoke = std::env::var("PROPHUNT_SMOKE").is_ok();
    let runtime = runtime_config_from_env();
    let shots = if smoke { 512 } else { 4096 };
    let reps = if smoke { 2 } else { 5 };
    println!("prophunt-obs registry overhead: frames-engine LER, enabled vs disabled registry");
    println!(
        "  {shots} shots per code and configuration, best of {reps} alternating reps, \
         {} threads, chunk {}, seed {} (PROPHUNT_SMOKE=1 trims the budget)",
        runtime.threads, runtime.chunk_size, runtime.seed
    );
    println!(
        "{:<14} {:>6} {:>14} {:>14} {:>9}",
        "code", "shots", "disabled sh/s", "enabled sh/s", "overhead"
    );
    let mut records = Vec::new();
    let mut disabled_total = Duration::ZERO;
    let mut enabled_total = Duration::ZERO;
    for (stage, bench) in benchmark_suite(true).into_iter().enumerate() {
        // The frame_bench workload: Table 1 operating point, production
        // decoder per family, frames engine. The registry rides along out of
        // band, so both configurations consume identical RNG streams.
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
        let seed = stage_seed(&runtime, 100 + stage as u64);

        let run = |obs: &Obs| {
            let rt = Runtime::with_obs(runtime, obs.clone());
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
            (estimate.failures, t.elapsed())
        };

        // One shared enabled registry across this code's reps, so the counter
        // totals below are an exact function of (shots, reps).
        let enabled_obs = Obs::enabled();
        let disabled_obs = Obs::disabled();
        let mut disabled = Duration::MAX;
        let mut enabled = Duration::MAX;
        for _ in 0..reps {
            let (disabled_failures, wall) = run(&disabled_obs);
            disabled = disabled.min(wall);
            let (enabled_failures, wall) = run(&enabled_obs);
            enabled = enabled.min(wall);
            // Deterministic gate, always on: instrumentation is out-of-band of
            // the seed streams, so it must not change a single failure count.
            assert_eq!(
                disabled_failures,
                enabled_failures,
                "{}: enabling the obs registry changed the failure count",
                bench.code.name()
            );
        }
        // Deterministic gate, always on: the enabled registry must have
        // observed exactly the shot budget, and the per-stage frame-pipeline
        // histograms must be populated.
        let snap = enabled_obs.snapshot().expect("enabled registry snapshots");
        assert_eq!(
            snap.counter("ler.shots"),
            (shots * reps) as u64,
            "{}: ler.shots must equal the exact shot budget",
            bench.code.name()
        );
        assert!(snap.counter("ler.chunks") > 0);
        for hist in ["ler.frames.sample.ns", "ler.frames.decode.ns"] {
            let h = snap
                .histogram(hist)
                .unwrap_or_else(|| panic!("{}: missing histogram {hist}", bench.code.name()));
            assert!(h.count > 0, "{}: empty histogram {hist}", bench.code.name());
        }

        let row = ObsRow {
            code: bench.code.name().to_string(),
            shots,
            disabled,
            enabled,
        };
        println!(
            "{:<14} {:>6} {:>14.0} {:>14.0} {:>8.2}%",
            row.code,
            row.shots,
            row.disabled_sps(),
            row.enabled_sps(),
            row.overhead_pct()
        );
        disabled_total += disabled;
        enabled_total += enabled;
        records.push(row.to_record());
    }
    let overhead =
        100.0 * (enabled_total.as_secs_f64() / disabled_total.as_secs_f64().max(1e-12) - 1.0);
    println!(
        "{:<14} {:>6} {:>14} {:>14} {:>8.2}%",
        "suite", "", "", "", overhead
    );
    // The timing gate only runs at the full budget: the smoke profile's
    // windows are short enough that timer noise would dominate. (The
    // failure-count and counter-exactness asserts above are the deterministic
    // gates and always run.)
    if !smoke {
        assert!(
            overhead <= 3.0,
            "enabled obs registry must cost <= 3% of frames-engine throughput \
             on the suite aggregate (got {overhead:.2}%)"
        );
    }
    records.push(ReportRecord::Table {
        name: "obs_bench".into(),
        fields: vec![
            ("code".into(), Json::Str("suite".into())),
            ("overhead_pct".into(), Json::Float(overhead)),
        ],
    });
    if smoke {
        // Never clobber the committed full-profile baseline with trimmed
        // smoke numbers.
        println!("smoke mode: skipping BENCH_obs.json (baseline is the full profile)");
    } else {
        std::fs::write("BENCH_obs.json", write_report(&records))
            .expect("cannot write BENCH_obs.json");
        println!("wrote BENCH_obs.json ({} rows)", records.len());
    }
}
