//! End-to-end coverage of the unified experiment API: Session caching across
//! jobs, the unified event stream, decoder/noise registries, and the
//! determinism of adaptively budgeted jobs across thread counts.

use prophunt_suite::api::{
    BasisSelection, Event, ExperimentSpec, JobKind, LerJob, OptimizeJob, ScheduleSource, Session,
    ShotBudget, StopReason,
};
use prophunt_suite::circuit::schedule::ScheduleSpec;
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
fn ler_jobs_are_bit_identical_across_thread_counts_even_with_adaptive_budgets() {
    let budget = ShotBudget::MaxFailures {
        max_failures: 8,
        max_shots: 4_096,
    };
    let run = |threads: usize| {
        let mut session = Session::new(RuntimeConfig::new(threads, 64, 9));
        session
            .run_ler_quiet(&LerJob::new(spec_d3(2e-2)).with_budget(budget))
            .unwrap()
    };
    let reference = run(1);
    assert!(
        reference.stop.stopped_early(),
        "budget should trigger, got {:?}",
        reference.stop
    );
    for threads in [2, 8] {
        let outcome = run(threads);
        assert_eq!(outcome.combined, reference.combined, "threads {threads}");
        assert_eq!(outcome.stop, reference.stop);
        assert_eq!(outcome.per_basis, reference.per_basis);
    }
}

#[test]
fn one_session_caches_models_across_an_optimize_then_estimate_workflow() {
    let mut session = Session::new(RuntimeConfig::new(4, 64, 11));
    let spec = spec_d3(3e-3);
    let job = OptimizeJob::new(spec.clone())
        .with_iterations(2)
        .with_samples(15);
    let outcome = session.run_optimize_quiet(&job).unwrap();
    outcome.result.final_schedule.validate(spec.code()).unwrap();

    // Estimate baseline and optimized schedules plus a second decoder: the
    // baseline DEMs are shared, the optimized schedule gets fresh ones.
    let optimized = spec
        .with_schedule(outcome.result.final_schedule.clone())
        .unwrap();
    for s in [&spec, &optimized] {
        session
            .run_ler_quiet(&LerJob::new(s.clone()).with_budget(ShotBudget::fixed(128)))
            .unwrap();
        session
            .run_ler_quiet(
                &LerJob::new(s.with_decoder("unionfind")).with_budget(ShotBudget::fixed(128)),
            )
            .unwrap();
    }
    let snap = session.metrics();
    // 2 schedules x 2 bases experiments/models; decoders: 2 schedules x 2 bases x 2 names.
    assert_eq!(snap.counter("session.cache.experiment.miss"), 4);
    assert_eq!(snap.counter("session.cache.dem.miss"), 4);
    assert_eq!(snap.counter("session.cache.decoder.miss"), 8);
    assert!(
        snap.counter("session.cache.dem.hit") >= 4,
        "second decoder must reuse the models"
    );
    assert_eq!(snap.counter("session.jobs"), 5);
}

#[test]
fn the_event_stream_is_deterministic_and_well_formed() {
    let events_at = |threads: usize| {
        let mut session = Session::new(RuntimeConfig::new(threads, 64, 5));
        let mut events = Vec::new();
        session
            .run_ler(
                &LerJob::new(spec_d3(8e-3)).with_budget(ShotBudget::fixed(256)),
                |e| events.push(e.clone()),
            )
            .unwrap();
        events
    };
    let reference = events_at(1);
    assert!(matches!(
        reference.first(),
        Some(Event::JobStarted {
            kind: JobKind::Ler,
            ..
        })
    ));
    assert!(matches!(
        reference.last(),
        Some(Event::JobFinished {
            stop: StopReason::ShotsExhausted
        })
    ));
    // 2 bases x 4 chunks + start + finish.
    assert_eq!(reference.len(), 2 + 8);
    for threads in [2, 8] {
        assert_eq!(events_at(threads), reference, "threads {threads}");
    }
}

#[test]
fn outcome_records_round_trip_through_the_report_format() {
    let mut session = Session::new(RuntimeConfig::new(2, 64, 3));
    let spec = spec_d3(1e-2).with_decoder("unionfind");
    let outcome = session
        .run_ler_quiet(&LerJob::new(spec).with_budget(ShotBudget::TargetRse {
            target: 0.4,
            max_shots: 8_192,
        }))
        .unwrap();
    let record = outcome.to_record("grid/point");
    let line = record.to_json_line();
    let parsed = ReportRecord::from_json_line(&line).unwrap();
    assert_eq!(parsed, record);
    let ReportRecord::Ler {
        label,
        decoder,
        noise,
        stop,
        shots,
        failures,
        seed,
        chunk_size,
        ..
    } = parsed
    else {
        panic!("expected a ler record");
    };
    assert_eq!(label, "grid/point");
    assert_eq!(decoder, "unionfind");
    assert_eq!(noise, "depolarizing:0.01");
    assert_eq!(seed, 3);
    assert_eq!(chunk_size, 64);
    assert_eq!(shots, outcome.combined.shots as u64);
    assert_eq!(failures, outcome.combined.failures as u64);
    assert_eq!(stop, outcome.stop.as_str());
}

#[test]
fn optimize_jobs_match_the_legacy_prophunt_surface() {
    // The Session/Job surface is a re-plumbing, not a re-derivation: the same
    // (seed, chunk_size) must reproduce the exact legacy optimizer result.
    use prophunt_suite::core::{PropHunt, PropHuntConfig};
    use prophunt_suite::qec::surface::rotated_surface_code_with_layout;

    let (code, layout) = rotated_surface_code_with_layout(3);
    let poor = ScheduleSpec::surface_poor(&code, &layout);
    let config = PropHuntConfig::quick(3).with_seed(11);
    let legacy = PropHunt::new(code.clone(), config.clone())
        .try_optimize(poor.clone())
        .unwrap();

    let mut session = Session::new(RuntimeConfig::new(
        config.runtime.threads,
        config.runtime.chunk_size,
        11,
    ));
    let spec = ExperimentSpec::builder()
        .code_with_layout(code, layout)
        .schedule(ScheduleSource::Explicit(poor))
        .build()
        .unwrap();
    let outcome = session.run_optimize_quiet(&OptimizeJob::new(spec)).unwrap();
    assert_eq!(outcome.result, legacy);
}

#[test]
fn search_jobs_emit_provenanced_incumbents_and_beat_single_strategy_maxsat() {
    use prophunt_suite::api::{SearchJob, StrategyKind};
    let spec = ExperimentSpec::builder()
        .code_family("surface:3")
        .unwrap()
        .build()
        .unwrap();
    let mut session = Session::new(RuntimeConfig::new(2, 64, 11));
    let base = SearchJob::new(spec)
        .with_rounds(4)
        .with_proposals(16)
        .with_samples(10)
        .with_label("hunt");

    // Single-strategy baseline: the optimizer alone, same budgets.
    let maxsat = session
        .run_search_quiet(
            &base
                .clone()
                .with_strategies(vec![StrategyKind::MaxSatDescent])
                .with_portfolio_size(1),
        )
        .unwrap();

    // The full portfolio, with the event stream observed.
    let mut events = Vec::new();
    let outcome = session
        .run_search(&base.clone(), |e| events.push(e.clone()))
        .unwrap();

    // The portfolio's answer is never worse than its own MaxSAT arm alone.
    assert!(
        outcome.result.best.depth <= maxsat.result.best.depth,
        "portfolio depth {} must be <= single-strategy depth {}",
        outcome.result.best.depth,
        maxsat.result.best.depth
    );
    outcome
        .result
        .best
        .schedule
        .validate(base.spec.code())
        .unwrap();

    // Event stream shape: JobStarted, one provenanced Incumbent per round,
    // JobFinished with a round_limit stop.
    assert!(
        matches!(&events[0], Event::JobStarted { kind: JobKind::Search, label } if label == "hunt")
    );
    let incumbents: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Incumbent {
                round,
                strategy,
                depth,
                improved,
                ..
            } => Some((*round, strategy.clone(), *depth, *improved)),
            _ => None,
        })
        .collect();
    assert_eq!(incumbents.len(), 4, "one incumbent event per round");
    assert_eq!(incumbents[0].0, 0);
    assert!(
        incumbents.iter().any(|(_, _, _, improved)| *improved),
        "the coloration baseline must be improved on surface:3"
    );
    let Some(Event::JobFinished { stop }) = events.last() else {
        panic!("expected JobFinished last");
    };
    assert_eq!(stop.as_str(), "round_limit");
    assert!(matches!(stop, StopReason::RoundLimit { rounds: 4 }));
    assert_eq!(session.metrics().counter("session.jobs"), 2);
}
