//! Overhead of the `prophunt-obs` layer on the Table 1 frames-engine LER
//! workload — the registry against a disabled handle, and a tracer on top of
//! the registry — plus the search-identity gate.
//!
//! This is the bench behind the observability layer's acceptance claims: an
//! enabled registry (counters per chunk, a span around every runtime task,
//! LER chunk and sample/transpose/decode stage) must cost at most a few
//! percent of frames-engine throughput, attaching a [`Tracer`] to it must cost
//! at most a few percent more, and a disabled handle must be effectively free.
//! For every benchmark code it runs the same fixed shot budget through
//! [`estimate_logical_error_rate`] at the Table 1 operating point (p = 1e-3,
//! production decoder per family), alternating four configurations each rep:
//!
//! 1. `disabled` — [`Obs::disabled`];
//! 2. `registry` — an enabled registry, shared across the reps;
//! 3. `control` — a second shared registry: byte-for-byte the `registry`
//!    configuration, so its measured "overhead" bounds timer noise and proves
//!    that a registry without a tracer (the default) pays nothing for tracing;
//! 4. `traced` — an enabled registry with a fresh tracer attached.
//!
//! Overheads compare the minimum wall over the reps, so one scheduler stall
//! cannot bias either side.
//!
//! Deterministic gates always run, smoke profile included:
//!
//! * instrumentation must not perturb results — the failure counts of all four
//!   configurations must be identical (registry and tracer are out-of-band of
//!   the splitmix64 seed streams), and a traced portfolio search must produce
//!   the bit-identical incumbent (depth, strategy, instance, round, schedule
//!   and per-round depth sequence) as the untraced run;
//! * instrumentation must actually observe the run — `ler.shots` must equal the
//!   exact shot budget across the reps, the `ler.frames.*.ns` stage histograms
//!   must be populated, every traced rep must record the same, nonzero number
//!   of events with none dropped, and the traced search must emit
//!   convergence-diagnostic records.
//!
//! The timing gates (suite aggregate: registry <= 3% over disabled, traced
//! <= 5% over registry, control within 1% of registry) only run at the full
//! profile: the smoke budget's windows are short enough that timer noise, not
//! the instrumentation, would dominate. The committed `BENCH_obs.json` records
//! the full-profile run; `PROPHUNT_SMOKE=1` trims the budget and skips the
//! file write.

use prophunt_api::{DecoderRegistry, ExperimentSpec, SearchJob, Session, StrategyKind};
use prophunt_bench::{benchmark_suite, runtime_config_from_env, stage_seed};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
use prophunt_decoders::{
    estimate_logical_error_rate, BpOsdDecoder, DecodeCache, Decoder, ShotBudget, UnionFindDecoder,
};
use prophunt_formats::report::ReportRecord;
use prophunt_formats::{write_report, write_schedule, Json};
use prophunt_obs::{Obs, Tracer, DIAG_CATEGORY};
use prophunt_runtime::Runtime;
use std::time::{Duration, Instant};

/// Indices of the four configurations, in the order every rep runs them.
const DISABLED: usize = 0;
const REGISTRY: usize = 1;
const CONTROL: usize = 2;
const TRACED: usize = 3;

/// Percent by which `wall` exceeds `baseline`.
fn overhead_pct(wall: Duration, baseline: Duration) -> f64 {
    100.0 * (wall.as_secs_f64() / baseline.as_secs_f64().max(1e-12) - 1.0)
}

/// One code's best-of-reps wall per configuration.
struct ObsRow {
    code: String,
    shots: usize,
    events: usize,
    walls: [Duration; 4],
}

impl ObsRow {
    fn sps(&self, config: usize) -> f64 {
        self.shots as f64 / self.walls[config].as_secs_f64().max(1e-12)
    }

    /// Registry over disabled, traced over registry, control over registry.
    fn overheads(&self) -> [f64; 3] {
        let w = &self.walls;
        [
            overhead_pct(w[REGISTRY], w[DISABLED]),
            overhead_pct(w[TRACED], w[REGISTRY]),
            overhead_pct(w[CONTROL], w[REGISTRY]),
        ]
    }

    fn to_record(&self) -> ReportRecord {
        let [registry, traced, control] = self.overheads();
        ReportRecord::Table {
            name: "obs_bench".into(),
            fields: vec![
                ("code".into(), Json::Str(self.code.clone())),
                ("shots".into(), Json::UInt(self.shots as u64)),
                ("events".into(), Json::UInt(self.events as u64)),
                (
                    "disabled_shots_per_sec".into(),
                    Json::Float(self.sps(DISABLED)),
                ),
                (
                    "registry_shots_per_sec".into(),
                    Json::Float(self.sps(REGISTRY)),
                ),
                ("traced_shots_per_sec".into(), Json::Float(self.sps(TRACED))),
                ("registry_overhead_pct".into(), Json::Float(registry)),
                ("traced_overhead_pct".into(), Json::Float(traced)),
                ("control_overhead_pct".into(), Json::Float(control)),
            ],
        }
    }
}

/// Runs one code's fixed shot budget `reps` times in each configuration and
/// applies the deterministic gates.
fn measure_code(
    name: &str,
    dem: &DetectorErrorModel,
    decoder: &dyn Decoder,
    seed: u64,
    shots: usize,
    reps: usize,
) -> ObsRow {
    let runtime = runtime_config_from_env();
    let run = |obs: &Obs| {
        let rt = Runtime::with_obs(runtime, obs.clone());
        let t = Instant::now();
        let (estimate, _) = estimate_logical_error_rate(
            dem,
            decoder,
            ShotBudget::fixed(shots),
            seed,
            DecodeCache::On,
            &rt,
            &mut |_| {},
        );
        (estimate.failures, t.elapsed())
    };
    // Shared registries across the reps, so the counter totals below are an
    // exact function of (shots, reps).
    let registry = Obs::enabled();
    let control = Obs::enabled();
    let mut walls = [Duration::MAX; 4];
    let mut events: Option<usize> = None;
    for _ in 0..reps {
        let tracer = Tracer::new();
        let configs = [
            Obs::disabled(),
            registry.clone(),
            control.clone(),
            Obs::enabled().with_tracer(tracer.clone()),
        ];
        let mut failures = [0usize; 4];
        for (slot, obs) in configs.iter().enumerate() {
            let (f, wall) = run(obs);
            failures[slot] = f;
            walls[slot] = walls[slot].min(wall);
        }
        // Deterministic gate, always on: instrumentation is out-of-band of
        // the seed streams, so it must not change a single failure count.
        assert!(
            failures.iter().all(|&f| f == failures[DISABLED]),
            "{name}: instrumentation changed the failure count \
             (disabled, registry, control, traced: {failures:?})"
        );
        // Deterministic gate, always on: the traced run must record the same,
        // nonzero number of events every rep (the span structure is a
        // function of the deterministic chunking) and drop none.
        let log = tracer.drain();
        assert_eq!(log.dropped, 0, "{name}: trace dropped events");
        assert!(!log.events.is_empty());
        match events {
            None => events = Some(log.events.len()),
            Some(n) => assert_eq!(
                n,
                log.events.len(),
                "{name}: traced event count varies across identical reps"
            ),
        }
    }
    // Deterministic gate, always on: the registry must have observed exactly
    // the shot budget, and the per-stage frame-pipeline histograms must be
    // populated.
    let snap = registry.snapshot().expect("enabled registry snapshots");
    assert_eq!(
        snap.counter("ler.shots"),
        (shots * reps) as u64,
        "{name}: ler.shots must equal the exact shot budget"
    );
    assert!(snap.counter("ler.chunks") > 0);
    for hist in [
        "ler.frames.sample.ns",
        "ler.frames.transpose.ns",
        "ler.frames.decode.ns",
    ] {
        let h = snap
            .histogram(hist)
            .unwrap_or_else(|| panic!("{name}: missing histogram {hist}"));
        assert!(h.count > 0, "{name}: empty histogram {hist}");
    }
    ObsRow {
        code: name.to_string(),
        shots,
        events: events.unwrap_or(0),
        walls,
    }
}

/// The search-identity gate: the full portfolio on the smallest suite code,
/// once untraced and once traced, must agree bit-for-bit on the incumbent —
/// and the traced run must have emitted convergence diagnostics.
fn search_identity_gate(smoke: bool) -> ReportRecord {
    let runtime = runtime_config_from_env();
    let bench = benchmark_suite(false)
        .into_iter()
        .next()
        .expect("benchmark suite is never empty");
    let builder = match &bench.layout {
        Some(layout) => {
            ExperimentSpec::builder().code_with_layout(bench.code.clone(), layout.clone())
        }
        None => ExperimentSpec::builder().code(bench.code.clone()),
    };
    let spec = builder
        .rounds(bench.rounds.min(3))
        .build()
        .expect("coloration schedules are valid for their code");
    let (rounds, samples) = if smoke { (2, 4) } else { (4, 12) };
    let job = SearchJob::new(spec)
        .with_strategies(StrategyKind::ALL.to_vec())
        .with_portfolio_size(StrategyKind::ALL.len())
        .with_rounds(rounds)
        .with_samples(samples)
        .with_seed(stage_seed(&runtime, 300));

    let mut untraced = Session::new(runtime);
    let plain = untraced
        .run_search_quiet(&job)
        .expect("benchmark search job must be runnable");

    let tracer = Tracer::new();
    let obs = Obs::enabled().with_tracer(tracer.clone());
    let mut traced_session = Session::with_obs(runtime, DecoderRegistry::with_defaults(), obs);
    let traced = traced_session
        .run_search_quiet(&job)
        .expect("benchmark search job must be runnable");

    let (a, b) = (&plain.result.best, &traced.result.best);
    assert!(
        a.depth == b.depth
            && a.strategy == b.strategy
            && a.instance == b.instance
            && a.round == b.round
            && write_schedule(&a.schedule) == write_schedule(&b.schedule),
        "tracing changed the search incumbent on {}: depth {} vs {}",
        bench.code.name(),
        a.depth,
        b.depth
    );
    let depths = |r: &prophunt_api::SearchOutcome| -> Vec<usize> {
        r.result
            .rounds
            .iter()
            .map(|round| round.incumbent.depth)
            .collect()
    };
    assert_eq!(
        depths(&plain),
        depths(&traced),
        "tracing changed the per-round incumbent-depth sequence"
    );
    let log = tracer.drain();
    assert_eq!(log.dropped, 0, "search trace dropped events");
    let diags = log.events.iter().filter(|e| e.cat == DIAG_CATEGORY).count();
    assert!(
        diags > 0,
        "traced search must emit convergence-diagnostic records"
    );
    println!(
        "search identity: {} depth {} ({} rounds) identical traced vs untraced, {} diag records",
        bench.code.name(),
        b.depth,
        rounds,
        diags
    );
    ReportRecord::Table {
        name: "obs_bench".into(),
        fields: vec![
            ("code".into(), Json::Str(bench.code.name().to_string())),
            ("search_depth".into(), Json::UInt(b.depth as u64)),
            ("search_diag_records".into(), Json::UInt(diags as u64)),
            ("search_identical".into(), Json::Bool(true)),
        ],
    }
}

fn main() {
    let smoke = std::env::var("PROPHUNT_SMOKE").is_ok();
    let runtime = runtime_config_from_env();
    let shots = if smoke { 512 } else { 4096 };
    let reps = if smoke { 2 } else { 5 };
    println!("prophunt-obs overhead: frames-engine LER, disabled / registry / control / traced");
    println!(
        "  {shots} shots per code and configuration, best of {reps} alternating reps, \
         {} threads, chunk {}, seed {} (PROPHUNT_SMOKE=1 trims the budget)",
        runtime.threads, runtime.chunk_size, runtime.seed
    );
    println!(
        "{:<14} {:>6} {:>7} {:>14} {:>14} {:>9} {:>9} {:>9}",
        "code", "shots", "events", "disabled sh/s", "traced sh/s", "registry", "traced", "control"
    );
    let mut records = Vec::new();
    let mut totals = [Duration::ZERO; 4];
    for (stage, bench) in benchmark_suite(true).into_iter().enumerate() {
        // The frame_bench workload: Table 1 operating point, production
        // decoder per family, frames engine.
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
        let seed = stage_seed(&runtime, 100 + stage as u64);
        let row = measure_code(bench.code.name(), &dem, &*decoder, seed, shots, reps);
        let [registry, traced, control] = row.overheads();
        println!(
            "{:<14} {:>6} {:>7} {:>14.0} {:>14.0} {registry:>8.2}% {traced:>8.2}% {control:>8.2}%",
            row.code,
            row.shots,
            row.events,
            row.sps(DISABLED),
            row.sps(TRACED),
        );
        for (total, wall) in totals.iter_mut().zip(row.walls) {
            *total += wall;
        }
        records.push(row.to_record());
    }
    let registry = overhead_pct(totals[REGISTRY], totals[DISABLED]);
    let traced = overhead_pct(totals[TRACED], totals[REGISTRY]);
    let control = overhead_pct(totals[CONTROL], totals[REGISTRY]);
    println!(
        "{:<14} {:>6} {:>7} {:>14} {:>14} {registry:>8.2}% {traced:>8.2}% {control:>8.2}%",
        "suite", "", "", "", ""
    );

    records.push(search_identity_gate(smoke));

    // The timing gates only run at the full budget: the smoke profile's
    // windows are short enough that timer noise would dominate. (The
    // failure-count, counter, histogram, event-count and search-identity
    // asserts above are the deterministic gates and always run.)
    if !smoke {
        assert!(
            registry <= 3.0,
            "enabled obs registry must cost <= 3% of frames-engine throughput \
             on the suite aggregate (got {registry:.2}%)"
        );
        assert!(
            traced <= 5.0,
            "full tracing must cost <= 5% of frames-engine throughput on the \
             suite aggregate (got {traced:.2}%)"
        );
        assert!(
            control.abs() <= 1.0,
            "a trace-disabled registry is the baseline configuration; the \
             control run must agree within 1% (got {control:.2}%)"
        );
    }
    records.push(ReportRecord::Table {
        name: "obs_bench".into(),
        fields: vec![
            ("code".into(), Json::Str("suite".into())),
            ("registry_overhead_pct".into(), Json::Float(registry)),
            ("traced_overhead_pct".into(), Json::Float(traced)),
            ("control_overhead_pct".into(), Json::Float(control)),
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
