//! The traced run: per-layer metrics from stage replicas and timed calls into
//! each crate, the replica-equality and thread-count checks, and the tracing
//! overhead against an untraced repetition of the same inputs.

use crate::replica::{
    candidate_dems, replay_ler, replay_optimize, timed, LerTrace, OptimizeParams, OptimizeTrace,
};
use crate::workload::{
    check_rep, guarded, median, rep_seed, run_rep, trimmed_mean, Rep, Specs, Tally, Workload,
    CHUNK_SIZE, THREADS,
};
use prophunt_api::{DecoderRegistry, Event, Obs, Session};
use prophunt_runtime::{Runtime, RuntimeConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric with its unit, in report order. A workload that
/// does not exercise a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("api.experiment_build_s", "s"),
    ("api.dem_build_s", "s"),
    ("api.decoder_build_s", "s"),
    ("circuit.graph_build_s", "s"),
    ("circuit.graph_builds", "count"),
    ("circuit.candidate_dem_s", "s"),
    ("circuit.candidate_dems", "count"),
    ("prophunt.iteration_s_p50", "s"),
    ("prophunt.iteration_s_max", "s"),
    ("prophunt.sample_s", "s"),
    ("prophunt.samples", "count"),
    ("prophunt.subgraphs", "count"),
    ("prophunt.sample_yield", "ratio"),
    ("prophunt.enumerate_s", "s"),
    ("prophunt.candidates", "count"),
    ("prophunt.verify_s", "s"),
    ("prophunt.verified", "count"),
    ("prophunt.verify_yield", "ratio"),
    ("prophunt.apply_s", "s"),
    ("prophunt.changes_applied", "count"),
    ("prophunt.stage_coverage", "ratio"),
    ("maxsat.solve_s", "s"),
    ("maxsat.solves", "count"),
    ("maxsat.conflicts", "count"),
    ("maxsat.sat_calls", "count"),
    ("maxsat.non_optimal", "count"),
    ("maxsat.vars_mean", "count"),
    ("decoders.sample_s", "s"),
    ("gf2.transpose_s", "s"),
    ("decoders.decode_s", "s"),
    ("decoders.shots", "count"),
    ("decoders.zero_frac", "ratio"),
    ("decoders.dedup_hit_frac", "ratio"),
    ("decoders.cache_miss", "count"),
    ("decoders.bp_converged_frac", "ratio"),
    ("decoders.osd_calls", "count"),
    ("decoders.stage_coverage", "ratio"),
    ("runtime.busy_frac", "ratio"),
    ("runtime.task_wait_s", "s"),
    ("runtime.workers_peak", "count"),
    ("search.round_s_p50", "s"),
    ("search.round_s_max", "s"),
    ("search.rounds", "count"),
    ("search.proposals", "count"),
    ("search.dedup_hits", "count"),
    ("search.improvements", "count"),
    ("search.best_round", "count"),
    ("search.maxsat.wins", "count"),
    ("search.anneal.wins", "count"),
    ("search.beam.wins", "count"),
    ("search.hillclimb.wins", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// The coverage below which a job's stage breakdown is flagged.
const COVERAGE_TARGET: f64 = 0.95;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn same(what: &str, equal: bool) -> Result<(), String> {
    if equal {
        Ok(())
    } else {
        Err(format!("{what} differs"))
    }
}

/// Checks that two repetitions of the same inputs produced the same outputs.
fn same_outputs(a: &Rep, b: &Rep) -> Result<(), String> {
    same("optimize result", a.optimize.result == b.optimize.result)?;
    same(
        "search result",
        a.search.as_ref().map(|s| &s.result) == b.search.as_ref().map(|s| &s.result),
    )?;
    let lers = |r: &Rep| {
        r.lers
            .iter()
            .map(|l| (l.outcome.per_basis.clone(), l.stats))
            .collect::<Vec<_>>()
    };
    same("LER estimates", lers(a) == lers(b))
}

/// Per-layer metrics by name.
pub type Metrics = BTreeMap<&'static str, f64>;

fn record_optimize(m: &mut Metrics, t: &OptimizeTrace) {
    m.insert("circuit.graph_build_s", t.graph_s);
    m.insert("circuit.graph_builds", t.graph_builds as f64);
    m.insert("prophunt.iteration_s_p50", median(t.iteration_s.clone()));
    m.insert(
        "prophunt.iteration_s_max",
        t.iteration_s.iter().copied().fold(0.0, f64::max),
    );
    m.insert("prophunt.sample_s", t.sample_s);
    m.insert("prophunt.samples", t.samples as f64);
    m.insert("prophunt.subgraphs", t.subgraphs as f64);
    m.insert(
        "prophunt.sample_yield",
        ratio(t.subgraphs as f64, t.samples as f64),
    );
    m.insert("prophunt.enumerate_s", t.enumerate_s);
    m.insert("prophunt.candidates", t.candidates as f64);
    m.insert("prophunt.verify_s", t.verify_s);
    m.insert("prophunt.verified", t.verified as f64);
    m.insert(
        "prophunt.verify_yield",
        ratio(t.verified as f64, t.candidates as f64),
    );
    m.insert("prophunt.apply_s", t.apply_s);
    m.insert("prophunt.changes_applied", t.changes_applied as f64);
    m.insert("prophunt.stage_coverage", t.stage_coverage());
    m.insert("maxsat.solve_s", t.solve_s);
    m.insert("maxsat.solves", t.solves as f64);
    m.insert("maxsat.conflicts", t.conflicts as f64);
    m.insert("maxsat.sat_calls", t.sat_calls as f64);
    m.insert("maxsat.non_optimal", t.non_optimal as f64);
    m.insert(
        "maxsat.vars_mean",
        ratio(t.vars_total as f64, t.solutions as f64),
    );
}

fn record_ler(m: &mut Metrics, t: &LerTrace, coverage: f64) {
    let s = t.stats;
    m.insert("decoders.sample_s", t.sample_s);
    m.insert("gf2.transpose_s", t.transpose_s);
    m.insert("decoders.decode_s", t.decode_s);
    m.insert("decoders.shots", t.shots as f64);
    m.insert("decoders.zero_frac", ratio(s.zero as f64, t.shots as f64));
    m.insert(
        "decoders.dedup_hit_frac",
        ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64),
    );
    m.insert("decoders.cache_miss", s.cache_misses as f64);
    m.insert(
        "decoders.bp_converged_frac",
        ratio(s.bp_converged as f64, s.cache_misses as f64),
    );
    m.insert("decoders.osd_calls", s.osd_calls as f64);
    m.insert("decoders.stage_coverage", coverage);
}

fn flag_coverage(workload: Workload, layer: &str, coverage: f64) {
    if coverage < COVERAGE_TARGET {
        println!(
            "FLAG {} {layer}.stage_coverage {coverage:.4} is below {COVERAGE_TARGET}",
            workload.name()
        );
    }
}

/// Runs the traced pass on a fresh instrumented session and records the
/// per-layer metrics. `reference` is the untraced repetition on the same
/// seed; every replayed output must equal it. Returns the traced wall time.
fn traced_pass(
    workload: Workload,
    specs: &Specs,
    seed: u64,
    reference: &Rep,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<f64, String> {
    let obs = Obs::enabled();
    let config = RuntimeConfig::new(THREADS, CHUNK_SIZE, seed);
    let runtime = Runtime::with_obs(config, obs.clone());
    let start = Instant::now();
    let mut session = Session::with_obs(config, DecoderRegistry::with_defaults(), obs.clone());
    let (mut experiment_s, mut dem_s, mut decoder_s) = (0.0, 0.0, 0.0);
    for spec in specs.all() {
        for &basis in spec.basis().bases() {
            timed(&mut experiment_s, || session.experiment(spec, basis))
                .map_err(|e| e.to_string())?;
            timed(&mut dem_s, || session.dem(spec, basis)).map_err(|e| e.to_string())?;
            timed(&mut decoder_s, || session.decoder(spec, basis)).map_err(|e| e.to_string())?;
        }
    }
    m.insert("api.experiment_build_s", experiment_s);
    m.insert("api.dem_build_s", dem_s);
    m.insert("api.decoder_build_s", decoder_s);

    let spec = &specs.optimize;
    let params = OptimizeParams::of(&workload.optimize_job(spec));
    let t = replay_optimize(spec.code(), &params, &runtime, spec.schedule())?;
    tally.record(same(
        "optimizer replica",
        reference.optimize.result.records == t.records,
    ));
    let last = t.records.last().map(|r| r.schedule.clone());
    let ler_specs = specs.ler_specs(last.unwrap_or_else(|| spec.schedule().clone()))?;

    let mut ler_total = LerTrace::default();
    let mut ler_coverage = f64::INFINITY;
    for (ler_spec, expected) in ler_specs.iter().zip(&reference.lers) {
        let mut job_trace = LerTrace::default();
        for (&basis, estimate) in ler_spec
            .basis()
            .bases()
            .iter()
            .zip(&expected.outcome.per_basis)
        {
            let dem = session.dem(ler_spec, basis).map_err(|e| e.to_string())?;
            let decoder = session
                .decoder(ler_spec, basis)
                .map_err(|e| e.to_string())?;
            let t = replay_ler(
                &dem,
                decoder.as_ref(),
                workload.shots(),
                expected.outcome.seed,
                ler_spec.decode_cache(),
                &runtime,
            );
            tally.record(same(
                "LER replica failures",
                t.failures == estimate.estimate.failures,
            ));
            job_trace.merge(&t);
        }
        tally.record(same(
            "LER replica decode stats",
            job_trace.stats == expected.stats,
        ));
        ler_coverage = ler_coverage.min(job_trace.stage_coverage());
        ler_total.merge(&job_trace);
    }

    let mut search_rounds = Vec::new();
    if let Some(job) = workload.search_job(spec) {
        let mut stamps = vec![Instant::now()];
        let outcome = session
            .run_search(&job, |event| {
                if matches!(event, Event::Incumbent { .. }) {
                    stamps.push(Instant::now());
                }
            })
            .map_err(|e| e.to_string())?;
        search_rounds = stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let expected = reference.search.as_ref().map(|s| &s.result);
        tally.record(same("traced search", expected == Some(&outcome.result)));
        m.insert("search.best_round", outcome.result.best.round as f64);
    }
    let wall_s = start.elapsed().as_secs_f64();

    // On an uninstrumented runtime, so the pool metrics keep describing the
    // traced pass alone.
    let plain = Runtime::new(config);
    let (secs, built) = candidate_dems(spec.code(), &params, &plain, &t.candidate_sets)?;
    m.insert("circuit.candidate_dem_s", secs);
    m.insert("circuit.candidate_dems", built as f64);
    record_optimize(m, &t);
    flag_coverage(workload, "prophunt", t.stage_coverage());
    if ler_total.shots > 0 {
        record_ler(m, &ler_total, ler_coverage);
        flag_coverage(workload, "decoders", ler_coverage);
    }

    let snap = obs.snapshot().unwrap_or_default();
    let hist_sum = |name: &str| snap.histogram(name).map_or(0, |h| h.sum) as f64 * 1e-9;
    m.insert(
        "runtime.busy_frac",
        ratio(hist_sum("runtime.task.ns"), THREADS as f64 * wall_s),
    );
    m.insert("runtime.task_wait_s", hist_sum("runtime.task.wait.ns"));
    let peak = snap
        .gauges
        .iter()
        .find(|(name, _)| name == "runtime.workers.peak")
        .map_or(0, |&(_, v)| v);
    m.insert("runtime.workers_peak", peak as f64);
    if !search_rounds.is_empty() {
        m.insert("search.round_s_p50", median(search_rounds.clone()));
        m.insert(
            "search.round_s_max",
            search_rounds.iter().copied().fold(0.0, f64::max),
        );
        for (metric, counter) in [
            ("search.rounds", "search.rounds"),
            ("search.proposals", "search.proposals"),
            ("search.dedup_hits", "search.dedup.hits"),
            ("search.improvements", "search.improvements"),
            ("search.maxsat.wins", "search.maxsat.wins"),
            ("search.anneal.wins", "search.anneal.wins"),
            ("search.beam.wins", "search.beam.wins"),
            ("search.hillclimb.wins", "search.hillclimb.wins"),
        ] {
            m.insert(metric, snap.counter(counter) as f64);
        }
    }
    Ok(wall_s)
}

/// Runs one seed's reference repetition and traced pass, returning the
/// reference and the per-layer metrics (every one of [`PER_LAYER`] present).
fn traced_rep(
    workload: Workload,
    specs: &Specs,
    seed: u64,
    oracle: bool,
    tally: &mut Tally,
) -> Option<(Rep, Metrics)> {
    let mut m: Metrics = PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
    let mut reference = tally.record(run_rep(workload, specs, seed, THREADS))?;
    check_rep(workload, specs, &mut reference, seed, oracle, tally);
    let traced = guarded("traced pass", || {
        traced_pass(workload, specs, seed, &reference, &mut m, tally)
    });
    let traced_s = tally.record(traced)?;
    m.insert(
        "bench.trace_overhead_frac",
        traced_s / reference.total_s - 1.0,
    );
    Some((reference, m))
}

/// The whole traced run of one workload: for fresh seeds until `seconds`
/// are used up, an untraced repetition (the reference) and the traced pass
/// on the same inputs; once, the first seed's jobs again at one thread.
/// Returns each per-layer metric's trimmed mean over the seeds and the
/// number of seeds.
pub fn traced_run(
    workload: Workload,
    specs: &Specs,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> (Metrics, usize) {
    let start = Instant::now();
    let mut samples: Vec<Metrics> = Vec::new();
    let first = rep_seed(seed, 0);
    if let Some((reference, m)) = traced_rep(workload, specs, first, true, tally) {
        samples.push(m);
        let single = run_rep(workload, specs, first, 1).and_then(|single| {
            same_outputs(&reference, &single).map_err(|e| format!("1 vs {THREADS} threads: {e}"))
        });
        tally.record(single);
    }
    let mut rep = 1;
    let mut rep_s = start.elapsed().as_secs_f64();
    while start.elapsed().as_secs_f64() + rep_s <= seconds {
        let rep_start = Instant::now();
        if let Some((_, m)) = traced_rep(workload, specs, rep_seed(seed, rep), false, tally) {
            samples.push(m);
        }
        rep += 1;
        rep_s = rep_start.elapsed().as_secs_f64();
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = samples.iter().map(|m| m[name]).collect();
            (name, trimmed_mean(&values))
        })
        .collect();
    (metrics, samples.len())
}
