//! The observability layer's determinism contract, end to end through the
//! Session API: the counter plane of the `prophunt-obs` registry is a pure
//! function of `(seed, chunk_size)` — bit-identical at any thread count — for
//! LER estimation and for portfolio search, while timings live
//! in separate gauge/histogram instruments and in separate JSON keys.

use prophunt_suite::api::{BasisSelection, ExperimentSpec, LerJob, SearchJob, Session, ShotBudget};
use prophunt_suite::formats::parse_report;
use prophunt_suite::formats::report::ReportRecord;
use prophunt_suite::runtime::RuntimeConfig;

fn spec_d3(p: f64) -> ExperimentSpec {
    ExperimentSpec::builder()
        .code_family("surface:3")
        .unwrap()
        .noise_str(&format!("depolarizing:{p}"))
        .unwrap()
        .basis(BasisSelection::Both)
        .build()
        .unwrap()
}

#[test]
fn ler_counters_are_bit_identical_across_thread_counts() {
    let counters_at = |threads: usize| {
        let mut session = Session::new(RuntimeConfig::new(threads, 64, 9));
        session
            .run_ler_quiet(&LerJob::new(spec_d3(8e-3)).with_budget(ShotBudget::fixed(512)))
            .unwrap();
        session.metrics().counters
    };
    let reference = counters_at(1);
    let counter = |name: &str| {
        reference
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    // 512 shots per basis, two bases, 64-shot chunks.
    assert_eq!(counter("ler.shots"), 1024);
    assert_eq!(counter("ler.chunks"), 16);
    assert_eq!(counter("session.jobs"), 1);
    // The batch-pipeline counters partition the shots: every shot is a zero
    // syndrome, a cache hit or a cache miss.
    assert_eq!(
        counter("ler.decode.zero")
            + counter("ler.decode.cache.hit")
            + counter("ler.decode.cache.miss"),
        1024
    );
    for threads in [2, 8] {
        assert_eq!(counters_at(threads), reference, "threads {threads}");
    }
}

#[test]
fn search_counters_are_bit_identical_across_thread_counts() {
    let counters_at = |threads: usize| {
        let mut session = Session::new(RuntimeConfig::new(threads, 64, 11));
        let spec = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .build()
            .unwrap();
        session
            .run_search_quiet(
                &SearchJob::new(spec)
                    .with_rounds(3)
                    .with_proposals(8)
                    .with_samples(8),
            )
            .unwrap();
        session.metrics().counters
    };
    let reference = counters_at(1);
    let counter = |name: &str| {
        reference
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(counter("search.rounds"), 3);
    assert!(counter("search.proposals") > 0);
    for threads in [2, 8] {
        assert_eq!(counters_at(threads), reference, "threads {threads}");
    }
}

#[test]
fn metrics_and_meta_records_round_trip_and_separate_counters_from_timings() {
    let mut session = Session::new(RuntimeConfig::new(2, 64, 3));
    session
        .run_ler_quiet(&LerJob::new(spec_d3(1e-2)).with_budget(ShotBudget::fixed(128)))
        .unwrap();
    let meta = ReportRecord::meta("0.1.0", 3, 2, 64, "frames");
    let metrics = ReportRecord::metrics_from_snapshot(&session.metrics());
    let text = format!("{}\n{}\n", meta.to_json_line(), metrics.to_json_line());
    let parsed = parse_report(&text).unwrap();
    assert_eq!(parsed, vec![meta, metrics.clone()]);

    let ReportRecord::Metrics {
        counters,
        histograms,
        ..
    } = metrics
    else {
        panic!("expected a metrics record");
    };
    // The deterministic/timing partition: counts live in `counters`, every
    // span timing lives in a `.ns` histogram, and no timing leaks into the
    // counter plane.
    assert!(counters.iter().any(|(n, v)| n == "ler.shots" && *v == 256));
    assert!(counters.iter().all(|(n, _)| !n.ends_with(".ns")));
    assert!(histograms
        .iter()
        .any(|h| h.name == "job.ler.ns" && h.count == 1));
    assert!(histograms.iter().any(|h| h.name.starts_with("ler.frames.")));
}
