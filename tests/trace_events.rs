//! The trace layer's determinism contract, end to end through the Session API:
//! attaching a [`Tracer`] never changes results, the deterministic subset of
//! trace records — the `diag` convergence diagnostics — is bit-identical at
//! any thread count, and the timeline span *structure* (which spans exist, how
//! many, under which parents) is a pure function of `(seed, chunk_size)` even
//! though the timestamps are not.

use prophunt_suite::api::{
    DecoderRegistry, ExperimentSpec, LerJob, OptimizeJob, SearchJob, Session, ShotBudget,
};
use prophunt_suite::formats::trace_event_to_record;
use prophunt_suite::obs::{Obs, TraceKind, TraceLog, Tracer, DIAG_CATEGORY};
use prophunt_suite::runtime::RuntimeConfig;

fn traced_session(threads: usize, seed: u64) -> (Session, Tracer) {
    let tracer = Tracer::new();
    let obs = Obs::enabled().with_tracer(tracer.clone());
    let session = Session::with_obs(
        RuntimeConfig::new(threads, 64, seed),
        DecoderRegistry::with_defaults(),
        obs,
    );
    (session, tracer)
}

/// The deterministic subset, serialized: every `diag` record as its JSON line,
/// in emission order (drain sorts them ahead of the wall-clock spans because
/// their timestamps are pinned to zero).
fn diag_lines(log: &TraceLog) -> String {
    log.events
        .iter()
        .filter(|e| e.cat == DIAG_CATEGORY)
        .map(|e| trace_event_to_record(e).to_json_line() + "\n")
        .collect()
}

/// The thread-independent shape of the timeline: per (name, cat) span/instant
/// counts, sorted. Timestamps, worker lanes and interleavings vary with the
/// pool; which work spans exist does not. `runtime.call` is excluded: adaptive
/// budgets submit chunks in worker-sized waves, so the number of pool *calls*
/// (unlike the number of tasks) is a legitimate function of the thread count.
fn span_census(log: &TraceLog) -> Vec<(String, String, usize)> {
    let mut keys: Vec<(String, String)> = log
        .events
        .iter()
        .filter(|e| e.name != "runtime.call")
        .map(|e| (e.name.clone(), e.cat.clone()))
        .collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|(name, cat)| {
            let count = log
                .events
                .iter()
                .filter(|e| e.name == name && e.cat == cat)
                .count();
            (name, cat, count)
        })
        .collect()
}

#[test]
fn traced_ler_matches_untraced_and_its_span_census_is_thread_independent() {
    let spec = ExperimentSpec::builder()
        .code_family("surface:3")
        .unwrap()
        .noise_str("depolarizing:0.008")
        .unwrap()
        .build()
        .unwrap();
    let job = LerJob::new(spec).with_budget(ShotBudget::fixed(512));

    let mut plain = Session::new(RuntimeConfig::new(4, 64, 9));
    let baseline = plain.run_ler_quiet(&job).unwrap();

    let mut censuses = Vec::new();
    for threads in [1, 2, 8] {
        let (mut session, tracer) = traced_session(threads, 9);
        let outcome = session.run_ler_quiet(&job).unwrap();
        // Tracing is out-of-band: the estimate is bit-identical to the
        // untraced session's at every thread count.
        assert_eq!(
            outcome.combined.failures, baseline.combined.failures,
            "threads {threads}: tracing changed the failure count"
        );
        let log = tracer.drain();
        assert_eq!(log.dropped, 0);
        assert!(log
            .events
            .iter()
            .any(|e| e.name == "job.ler" && e.cat == "job"));
        assert!(log.events.iter().any(|e| e.name == "runtime.task"));
        assert!(log.events.iter().any(|e| e.name == "ler.chunk"));
        censuses.push(span_census(&log));
    }
    // 512 shots in 64-shot chunks: the same spans exist at any thread count,
    // in the same numbers.
    assert_eq!(
        censuses[0], censuses[1],
        "span census differs between 1 and 2 threads"
    );
    assert_eq!(
        censuses[0], censuses[2],
        "span census differs between 1 and 8 threads"
    );
    assert!(censuses[0]
        .iter()
        .any(|(name, _, count)| name == "ler.chunk" && *count == 8));
}

#[test]
fn traced_optimize_matches_untraced_and_its_span_census_is_thread_independent() {
    let spec = ExperimentSpec::builder()
        .code_family("surface:3")
        .unwrap()
        .build()
        .unwrap();
    let job = OptimizeJob::new(spec)
        .with_iterations(2)
        .with_samples(20)
        .with_seed(11);

    let mut plain = Session::new(RuntimeConfig::new(4, 64, 11));
    let baseline = plain.run_optimize_quiet(&job).unwrap();

    let mut censuses = Vec::new();
    for threads in [1, 2, 8] {
        let (mut session, tracer) = traced_session(threads, 11);
        let outcome = session.run_optimize_quiet(&job).unwrap();
        assert_eq!(
            outcome.result.records, baseline.result.records,
            "threads {threads}: tracing changed the optimizer records"
        );
        let log = tracer.drain();
        assert_eq!(log.dropped, 0);
        let job_id = log
            .events
            .iter()
            .find(|e| e.name == "job.optimize" && e.cat == "job")
            .expect("job.optimize span")
            .id;
        // The optimizer's stages run on the session's runtime, so its pool
        // calls nest under the job span.
        let under_job = |mut parent: u64| {
            while parent != 0 {
                if parent == job_id {
                    return true;
                }
                parent = log
                    .events
                    .iter()
                    .find(|e| e.id == parent)
                    .map_or(0, |e| e.parent);
            }
            false
        };
        assert!(log
            .events
            .iter()
            .any(|e| e.name == "runtime.call" && under_job(e.parent)));
        assert!(log.events.iter().any(|e| e.name == "runtime.task"));
        censuses.push(span_census(&log));
    }
    // One task per sample, subgraph and candidate: the same spans exist at
    // any thread count, in the same numbers.
    assert_eq!(
        censuses[0], censuses[1],
        "span census differs between 1 and 2 threads"
    );
    assert_eq!(
        censuses[0], censuses[2],
        "span census differs between 1 and 8 threads"
    );
}

#[test]
fn traced_search_diag_records_are_bit_identical_across_thread_counts() {
    let job = {
        let spec = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .build()
            .unwrap();
        SearchJob::new(spec)
            .with_rounds(3)
            .with_proposals(8)
            .with_samples(8)
    };
    let run = |threads: usize| {
        let (mut session, tracer) = traced_session(threads, 11);
        let outcome = session.run_search_quiet(&job).unwrap();
        (outcome.result.best.depth, tracer.drain())
    };
    let (reference_depth, reference_log) = run(1);
    let reference = diag_lines(&reference_log);
    assert!(
        reference.contains("\"name\":\"search.round\"")
            && reference.contains("\"name\":\"search.arm\"")
            && reference.contains("\"name\":\"search.strategy."),
        "diag stream must carry round, arm and strategy records:\n{reference}"
    );
    for threads in [2, 8] {
        let (depth, log) = run(threads);
        assert_eq!(depth, reference_depth, "threads {threads}");
        // The convergence diagnostics are the deterministic subset of the
        // trace: serialized bytes, not just counts, match the single-threaded
        // run. (CI re-checks this through the CLI with --trace.)
        assert_eq!(
            diag_lines(&log),
            reference,
            "threads {threads}: diag records must be bit-identical"
        );
    }
}

#[test]
fn draining_a_trace_mid_run_is_harmless_to_results() {
    // Drain mid-run from another handle: the tracer is lock-free and shared,
    // so a concurrent drain (e.g. a future live exporter) must not perturb
    // the run's deterministic outputs, only steal the events drained so far.
    let spec = ExperimentSpec::builder()
        .code_family("surface:3")
        .unwrap()
        .noise_str("depolarizing:0.008")
        .unwrap()
        .build()
        .unwrap();
    let job = LerJob::new(spec).with_budget(ShotBudget::fixed(256));
    let mut plain = Session::new(RuntimeConfig::new(2, 64, 21));
    let baseline = plain.run_ler_quiet(&job).unwrap();

    let (mut session, tracer) = traced_session(2, 21);
    let mid = tracer.drain();
    assert!(mid.events.is_empty(), "nothing recorded before the job");
    let outcome = session.run_ler_quiet(&job).unwrap();
    assert_eq!(outcome.combined.failures, baseline.combined.failures);
    assert!(!tracer.drain().events.is_empty());
}

#[test]
fn every_span_has_a_histogram_and_every_timing_histogram_has_spans() {
    // One primitive records both planes, so the metrics and the trace cannot
    // drift: on a registry+tracer session, each span name `X` has a histogram
    // `X.ns` with exactly one observation per `X` event, and each `*.ns`
    // histogram (bar the pool's queue-wait distribution, which is a task-span
    // arg rather than a span of its own) names a span.
    let spec = |family: &str| {
        ExperimentSpec::builder()
            .code_family(family)
            .unwrap()
            .noise_str("depolarizing:0.008")
            .unwrap()
            .build()
            .unwrap()
    };
    let (mut session, tracer) = traced_session(2, 5);
    session
        .run_ler_quiet(&LerJob::new(spec("surface:3")).with_budget(ShotBudget::fixed(256)))
        .unwrap();
    session
        .run_optimize_quiet(
            &OptimizeJob::new(spec("surface:3"))
                .with_iterations(1)
                .with_samples(8),
        )
        .unwrap();
    session
        .run_search_quiet(
            &SearchJob::new(spec("surface:3"))
                .with_rounds(2)
                .with_proposals(4)
                .with_samples(4),
        )
        .unwrap();
    let log = tracer.drain();
    assert_eq!(log.dropped, 0);
    let metrics = session.metrics();

    let spans: Vec<&str> = log
        .events
        .iter()
        .filter(|e| e.cat != DIAG_CATEGORY && e.kind == TraceKind::Span)
        .map(|e| e.name.as_str())
        .collect();
    let mut span_names = spans.clone();
    span_names.sort_unstable();
    span_names.dedup();
    for &name in &span_names {
        let events = spans.iter().filter(|&&span| span == name).count() as u64;
        let hist = metrics
            .histogram(&format!("{name}.ns"))
            .unwrap_or_else(|| panic!("span {name} has no {name}.ns histogram"));
        assert_eq!(hist.count, events, "{name}: histogram vs trace events");
    }
    for (hist, _) in &metrics.histograms {
        let Some(name) = hist.strip_suffix(".ns") else {
            continue;
        };
        if hist == "runtime.task.wait.ns" {
            continue;
        }
        assert!(span_names.contains(&name), "histogram {hist} has no spans");
    }
    // The session's build steps and the LER kernel's chunks are on both planes.
    for name in ["session.dem", "session.decoder", "ler.chunk", "job.search"] {
        assert!(span_names.contains(&name), "no {name} spans");
    }
}
