//! Traced-vs-untraced overhead of the `prophunt-obs` trace-event layer on the
//! frames-engine LER workload, plus the search-identity gate.
//!
//! This is the bench behind the trace layer's acceptance claim: attaching a
//! [`Tracer`] to the production registry (span begin/end around every runtime
//! task, LER chunk and pipeline stage) must cost at most a few percent of
//! frames-engine throughput, and a registry *without* a tracer — the default,
//! tracing-disabled configuration — must be indistinguishable from the
//! pre-trace baseline. For every benchmark code it runs the same fixed shot
//! budget through [`estimate_logical_error_rate`], alternating three
//! configurations: the untraced enabled registry (the baseline), a second
//! untraced enabled registry (the tracing-disabled control — byte-for-byte the
//! same configuration, so its measured "overhead" bounds timer noise and
//! proves disabled tracing adds nothing), and the enabled registry with a
//! tracer attached (full tracing).
//!
//! Deterministic gates always run, smoke profile included:
//!
//! * tracing must not perturb results — the failure counts of the untraced
//!   and traced runs must be identical (the tracer is out-of-band of the
//!   splitmix64 seed streams), and a traced portfolio search must produce the
//!   bit-identical incumbent (depth, strategy, instance, round, schedule and
//!   per-round depth sequence) as the untraced run;
//! * the tracer must actually observe the run — every traced rep must record
//!   the same, nonzero number of events with none dropped, and the traced
//!   search must emit convergence-diagnostic records.
//!
//! The timing gates (suite-aggregate overhead <= 5% with full tracing, <= 1%
//! for the tracing-disabled control) only run at the full profile: the smoke
//! budget's windows are short enough that timer noise, not the tracer, would
//! dominate. The committed `BENCH_trace.json` records the full-profile run;
//! `PROPHUNT_SMOKE=1` trims the budget and skips the file write.

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

struct TraceRow {
    code: String,
    shots: usize,
    baseline: Duration,
    control: Duration,
    traced: Duration,
    events: usize,
}

impl TraceRow {
    fn sps(&self, wall: Duration) -> f64 {
        self.shots as f64 / wall.as_secs_f64().max(1e-12)
    }

    fn overhead_pct(&self, wall: Duration) -> f64 {
        100.0 * (wall.as_secs_f64() / self.baseline.as_secs_f64().max(1e-12) - 1.0)
    }

    fn to_record(&self) -> ReportRecord {
        ReportRecord::Table {
            name: "trace_bench".into(),
            fields: vec![
                ("code".into(), Json::Str(self.code.clone())),
                ("shots".into(), Json::UInt(self.shots as u64)),
                ("events".into(), Json::UInt(self.events as u64)),
                (
                    "untraced_shots_per_sec".into(),
                    Json::Float(self.sps(self.baseline)),
                ),
                (
                    "traced_shots_per_sec".into(),
                    Json::Float(self.sps(self.traced)),
                ),
                (
                    "traced_overhead_pct".into(),
                    Json::Float(self.overhead_pct(self.traced)),
                ),
                (
                    "disabled_overhead_pct".into(),
                    Json::Float(self.overhead_pct(self.control)),
                ),
            ],
        }
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
        name: "trace_bench".into(),
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
    println!("prophunt-obs trace layer overhead: frames-engine LER, traced vs untraced registry");
    println!(
        "  {shots} shots per code and configuration, best of {reps} alternating reps, \
         {} threads, chunk {}, seed {} (PROPHUNT_SMOKE=1 trims the budget)",
        runtime.threads, runtime.chunk_size, runtime.seed
    );
    println!(
        "{:<14} {:>6} {:>7} {:>14} {:>14} {:>9} {:>9}",
        "code", "shots", "events", "untraced sh/s", "traced sh/s", "traced", "disabled"
    );
    let mut records = Vec::new();
    let mut baseline_total = Duration::ZERO;
    let mut control_total = Duration::ZERO;
    let mut traced_total = Duration::ZERO;
    for (stage, bench) in benchmark_suite(true).into_iter().enumerate() {
        // The obs_bench workload: Table 1 operating point, production decoder
        // per family, frames engine. The tracer rides along out of band, so
        // every configuration consumes identical RNG streams.
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
        let seed = stage_seed(&runtime, 200 + stage as u64);

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

        let mut baseline = Duration::MAX;
        let mut control = Duration::MAX;
        let mut traced = Duration::MAX;
        let mut events: Option<usize> = None;
        for _ in 0..reps {
            let (baseline_failures, wall) = run(&Obs::enabled());
            baseline = baseline.min(wall);
            let (control_failures, wall) = run(&Obs::enabled());
            control = control.min(wall);
            let tracer = Tracer::new();
            let (traced_failures, wall) = run(&Obs::enabled().with_tracer(tracer.clone()));
            traced = traced.min(wall);
            // Deterministic gate, always on: tracing is out-of-band of the
            // seed streams, so it must not change a single failure count.
            assert!(
                baseline_failures == traced_failures && baseline_failures == control_failures,
                "{}: attaching a tracer changed the failure count",
                bench.code.name()
            );
            // Deterministic gate, always on: the traced run must record the
            // same, nonzero number of events every rep (the span structure is
            // a function of the deterministic chunking) and drop none.
            let log = tracer.drain();
            assert_eq!(
                log.dropped,
                0,
                "{}: trace dropped events",
                bench.code.name()
            );
            assert!(!log.events.is_empty());
            match events {
                None => events = Some(log.events.len()),
                Some(n) => assert_eq!(
                    n,
                    log.events.len(),
                    "{}: traced event count varies across identical reps",
                    bench.code.name()
                ),
            }
        }

        let row = TraceRow {
            code: bench.code.name().to_string(),
            shots,
            baseline,
            control,
            traced,
            events: events.unwrap_or(0),
        };
        println!(
            "{:<14} {:>6} {:>7} {:>14.0} {:>14.0} {:>8.2}% {:>8.2}%",
            row.code,
            row.shots,
            row.events,
            row.sps(row.baseline),
            row.sps(row.traced),
            row.overhead_pct(row.traced),
            row.overhead_pct(row.control)
        );
        baseline_total += baseline;
        control_total += control;
        traced_total += traced;
        records.push(row.to_record());
    }
    let pct = |wall: Duration| {
        100.0 * (wall.as_secs_f64() / baseline_total.as_secs_f64().max(1e-12) - 1.0)
    };
    let traced_overhead = pct(traced_total);
    let disabled_overhead = pct(control_total);
    println!(
        "{:<14} {:>6} {:>7} {:>14} {:>14} {:>8.2}% {:>8.2}%",
        "suite", "", "", "", "", traced_overhead, disabled_overhead
    );

    records.push(search_identity_gate(smoke));

    // The timing gates only run at the full budget: the smoke profile's
    // windows are short enough that timer noise would dominate. (The
    // failure-count, event-count and search-identity asserts above are the
    // deterministic gates and always run.)
    if !smoke {
        assert!(
            traced_overhead <= 5.0,
            "full tracing must cost <= 5% of frames-engine throughput on the \
             suite aggregate (got {traced_overhead:.2}%)"
        );
        assert!(
            disabled_overhead.abs() <= 1.0,
            "a trace-disabled registry is the baseline configuration; the \
             control run must agree within 1% (got {disabled_overhead:.2}%)"
        );
    }
    records.push(ReportRecord::Table {
        name: "trace_bench".into(),
        fields: vec![
            ("code".into(), Json::Str("suite".into())),
            ("traced_overhead_pct".into(), Json::Float(traced_overhead)),
            (
                "disabled_overhead_pct".into(),
                Json::Float(disabled_overhead),
            ),
        ],
    });
    if smoke {
        // Never clobber the committed full-profile baseline with trimmed
        // smoke numbers.
        println!("smoke mode: skipping BENCH_trace.json (baseline is the full profile)");
    } else {
        std::fs::write("BENCH_trace.json", write_report(&records))
            .expect("cannot write BENCH_trace.json");
        println!("wrote BENCH_trace.json ({} rows)", records.len());
    }
}
