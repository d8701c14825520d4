//! The workloads: their generated inputs, one timed repetition, and the
//! output checks that follow it.

use crate::replica::check_chunk_against_oracle;
use prophunt_api::{
    BasisSelection, DecodeCache, Engine, ExperimentSpec, LerJob, LerOutcome, OptimizeJob,
    OptimizeOutcome, SearchJob, SearchOutcome, Session, ShotBudget,
};
use prophunt_bench::benchmark_suite;
use prophunt_circuit::ScheduleSpec;
use prophunt_decoders::DecodeStats;
use prophunt_runtime::{RuntimeConfig, SeedStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Worker threads of every timed job.
pub const THREADS: usize = 2;
/// Shots per deterministic LER chunk.
pub const CHUNK_SIZE: usize = 256;
/// Depolarizing physical error rate of every workload.
const P: f64 = 1e-3;

/// Optimizer iterations of `surface`.
const SURFACE_ITERATIONS: usize = 3;
/// Shots per basis of each `surface` LER job.
const SURFACE_SHOTS: usize = 100_000;
/// Optimizer iterations of `ldpc` (gb_36_2, one per basis).
const LDPC_ITERATIONS: usize = 2;
/// Shots of the `ldpc` LER job (bb_72_12).
const LDPC_SHOTS: usize = 512;

/// Budget of every MaxSAT solve (a deterministic conflict budget: 10k
/// conflicts). Under the quick profile's 20 s a few hard subgraphs per seed
/// decide both the time and the peak memory of the LDPC optimizer.
const MAXSAT_BUDGET: Duration = Duration::from_millis(200);

/// Portfolio rounds of the `surface` search.
const SEARCH_ROUNDS: usize = 4;

/// MaxSAT-descent samples per search round.
const SEARCH_SAMPLES: usize = 60;

/// Cold set-ups per repetition; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Seed-stream label of the chunks the per-shot oracle re-decodes.
const ORACLE: u64 = 0x0_ac1e;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// surface_d5: optimize, LER of the initial and optimized schedules, then
    /// a portfolio search.
    Surface,
    /// gb_36_2 optimize, then a BP+OSD LER job on bb_72_12.
    Ldpc,
}

/// The spec of one `benchmark_suite` code: coloration schedule, depolarizing
/// noise at [`P`], the suite's rounds (and layout, where it has one), frames
/// engine with the decode cache on.
fn suite_spec(
    code_name: &str,
    decoder: &str,
    basis: BasisSelection,
) -> Result<ExperimentSpec, String> {
    let bench = benchmark_suite(true)
        .into_iter()
        .find(|b| b.code.name() == code_name)
        .ok_or_else(|| format!("{code_name} is not in the benchmark suite"))?;
    let builder = match bench.layout {
        Some(layout) => ExperimentSpec::builder().code_with_layout(bench.code, layout),
        None => ExperimentSpec::builder().code(bench.code),
    };
    builder
        .noise(prophunt_api::NoiseSpec::uniform(P))
        .rounds(bench.rounds)
        .decoder(decoder)
        .basis(basis)
        .engine(Engine::Frames)
        .decode_cache(DecodeCache::On)
        .build()
        .map_err(|e| format!("{code_name} spec: {e}"))
}

/// The experiment specs of a workload.
pub struct Specs {
    /// The optimizer's spec. On `surface` the search runs on it too, and the
    /// LER jobs estimate its initial and its optimized schedule.
    pub optimize: ExperimentSpec,
    /// The spec of the separate LER job (`ldpc`).
    pub ler: Option<ExperimentSpec>,
}

impl Specs {
    /// Every spec, the optimizer's first.
    pub fn all(&self) -> impl Iterator<Item = &ExperimentSpec> {
        std::iter::once(&self.optimize).chain(&self.ler)
    }

    /// The specs of the LER jobs, given the optimizer's final schedule.
    pub fn ler_specs(&self, optimized: ScheduleSpec) -> Result<Vec<ExperimentSpec>, String> {
        match &self.ler {
            Some(ler) => Ok(vec![ler.clone()]),
            None => Ok(vec![
                self.optimize.clone(),
                self.optimize
                    .with_schedule(optimized)
                    .map_err(|e| e.to_string())?,
            ]),
        }
    }
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 2] = [Workload::Surface, Workload::Ldpc];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Surface => "surface",
            Workload::Ldpc => "ldpc",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's experiment specs.
    pub fn specs(self) -> Result<Specs, String> {
        Ok(match self {
            Workload::Surface => Specs {
                optimize: suite_spec("surface_d5", "unionfind", BasisSelection::Both)?,
                ler: None,
            },
            Workload::Ldpc => Specs {
                optimize: suite_spec("gb_36_2", "bposd", BasisSelection::Z)?,
                ler: Some(suite_spec("bb_72_12", "bposd", BasisSelection::Z)?),
            },
        })
    }

    /// The shot count of each LER job, per basis.
    pub fn shots(self) -> usize {
        match self {
            Workload::Surface => SURFACE_SHOTS,
            Workload::Ldpc => LDPC_SHOTS,
        }
    }

    /// The workload's optimize job.
    pub fn optimize_job(self, spec: &ExperimentSpec) -> OptimizeJob {
        let iterations = match self {
            Workload::Surface => SURFACE_ITERATIONS,
            Workload::Ldpc => LDPC_ITERATIONS,
        };
        OptimizeJob::new(spec.clone())
            .with_iterations(iterations)
            .with_maxsat_budget(MAXSAT_BUDGET)
    }

    /// The workload's search job, if it has one: the default strategy mix
    /// over [`SEARCH_ROUNDS`].
    pub fn search_job(self, spec: &ExperimentSpec) -> Option<SearchJob> {
        if self != Workload::Surface {
            return None;
        }
        let mut job = SearchJob::new(spec.clone())
            .with_rounds(SEARCH_ROUNDS)
            .with_samples(SEARCH_SAMPLES);
        job.maxsat_budget = MAXSAT_BUDGET;
        Some(job)
    }
}

/// The mean of `values` without the lowest and the highest one (once there
/// are at least five). The work of a repetition depends on its seed, and the
/// repetition times of one run often fall into two clusters that a median
/// jumps between; this mean is steadier from run to run while one stalled or
/// unusually lucky repetition still cannot move it much.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let kept = if v.len() >= 5 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The median of `values` (0 when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The seed of repetition `rep` of a run seeded with `seed`.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    SeedStream::new(seed).seed_for(rep as u64)
}

/// One LER job of a repetition with its decode counters.
pub struct LerRun {
    pub job: LerJob,
    pub outcome: LerOutcome,
    pub stats: DecodeStats,
}

/// What one repetition produced.
pub struct Rep {
    pub session: Session,
    /// The median of `setups`.
    pub setup_s: f64,
    /// Wall time of each cold set-up.
    pub setups: Vec<f64>,
    pub total_s: f64,
    pub optimize: OptimizeOutcome,
    pub lers: Vec<LerRun>,
    pub search: Option<SearchOutcome>,
}

impl Rep {
    /// Shots over LER wall time, across every LER job of the repetition.
    pub fn ler_shots_per_s(&self) -> f64 {
        let shots: usize = self.lers.iter().map(|l| l.outcome.combined.shots).sum();
        let wall: f64 = self.lers.iter().map(|l| l.outcome.wall.as_secs_f64()).sum();
        shots as f64 / wall
    }

    /// Initial over optimized combined LER (`surface` only).
    pub fn ler_gain(&self) -> Option<f64> {
        match self.lers.as_slice() {
            [initial, optimized] => {
                Some(initial.outcome.combined.rate() / optimized.outcome.combined.rate())
            }
            _ => None,
        }
    }
}

fn decode_stats(session: &Session) -> DecodeStats {
    let m = session.metrics();
    let get = |name: &str| m.counter(name) as usize;
    DecodeStats {
        zero: get("ler.decode.zero"),
        cache_hits: get("ler.decode.cache.hit"),
        cache_misses: get("ler.decode.cache.miss"),
        bp_converged: get("ler.decode.bp.converged"),
        osd_calls: get("ler.decode.osd.calls"),
    }
}

fn delta(after: DecodeStats, before: DecodeStats) -> DecodeStats {
    DecodeStats {
        zero: after.zero - before.zero,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        bp_converged: after.bp_converged - before.bp_converged,
        osd_calls: after.osd_calls - before.osd_calls,
    }
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err(format!("{what} panicked")))
        .map_err(|e| format!("{what}: {e}"))
}

/// Creates a cold session and builds every experiment, model and decoder of
/// `specs` in it.
pub fn setup(specs: &Specs, seed: u64, threads: usize) -> Result<Session, String> {
    let mut session = Session::new(RuntimeConfig::new(threads, CHUNK_SIZE, seed));
    for spec in specs.all() {
        for &basis in spec.basis().bases() {
            session.experiment(spec, basis).map_err(|e| e.to_string())?;
            session.dem(spec, basis).map_err(|e| e.to_string())?;
            session.decoder(spec, basis).map_err(|e| e.to_string())?;
        }
    }
    Ok(session)
}

/// Sets up a cold session [`SETUP_REPEATS`] times (reporting the median
/// set-up time), then on the last one, on `threads` workers, runs the
/// workload's jobs one after another: optimize, the LER jobs, and the
/// search. Every error, including a panic, is returned as a message.
pub fn run_rep(
    workload: Workload,
    specs: &Specs,
    seed: u64,
    threads: usize,
) -> Result<Rep, String> {
    guarded(workload.name(), || {
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let (mut session, mut start) = (None, Instant::now());
        for _ in 0..SETUP_REPEATS {
            start = Instant::now();
            session = Some(setup(specs, seed, threads)?);
            setups.push(start.elapsed().as_secs_f64());
        }
        let mut session = session.ok_or("no set-up ran")?;
        let setup_s = median(setups.clone());

        let job = workload.optimize_job(&specs.optimize);
        let optimize = session
            .run_optimize_quiet(&job)
            .map_err(|e| e.to_string())?;
        let mut lers = Vec::new();
        for ler_spec in specs.ler_specs(optimize.result.final_schedule.clone())? {
            let job = LerJob::new(ler_spec).with_budget(ShotBudget::fixed(workload.shots()));
            let before = decode_stats(&session);
            let outcome = session.run_ler_quiet(&job).map_err(|e| e.to_string())?;
            let stats = delta(decode_stats(&session), before);
            lers.push(LerRun {
                job,
                outcome,
                stats,
            });
        }
        let search = match workload.search_job(&specs.optimize) {
            Some(job) => Some(session.run_search_quiet(&job).map_err(|e| e.to_string())?),
            None => None,
        };
        let total_s = start.elapsed().as_secs_f64();
        Ok(Rep {
            session,
            setup_s,
            setups,
            total_s,
            optimize,
            lers,
            search,
        })
    })
}

/// Counts operations (jobs and output checks) and the ones that failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation, reporting a failure on standard error.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(message) => {
                self.failed += 1;
                eprintln!("FAILED: {message}");
                None
            }
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Runs the output checks of one repetition: job invariants, optimized LER
/// below initial LER on `surface`, and, when `oracle` is set, the
/// per-shot oracle on one seeded chunk per basis of every LER job.
pub fn check_rep(
    workload: Workload,
    specs: &Specs,
    rep: &mut Rep,
    seed: u64,
    oracle: bool,
    tally: &mut Tally,
) {
    let shots = workload.shots();
    for ler in &rep.lers {
        tally.record(
            if ler
                .outcome
                .per_basis
                .iter()
                .all(|b| b.estimate.shots == shots)
            {
                Ok(())
            } else {
                Err(format!(
                    "{}: LER job ran a wrong shot count",
                    workload.name()
                ))
            },
        );
    }
    tally.record(
        rep.optimize
            .result
            .final_schedule
            .validate_for_code(specs.optimize.code())
            .map_err(|e| format!("{}: optimized schedule invalid: {e}", workload.name())),
    );
    if let Some(search) = &rep.search {
        let r = &search.result;
        tally.record(if r.best.depth <= r.initial_depth {
            Ok(())
        } else {
            Err(format!(
                "{}: search depth grew to {}",
                workload.name(),
                r.best.depth
            ))
        });
    }
    if let Some(gain) = rep.ler_gain() {
        tally.record(if gain > 1.0 {
            Ok(())
        } else {
            Err(format!(
                "{}: optimized LER not below initial (gain {gain})",
                workload.name()
            ))
        });
    }
    if !oracle {
        return;
    }
    let chunks = shots.div_ceil(CHUNK_SIZE);
    let picks = SeedStream::new(seed).substream(ORACLE);
    for (j, ler) in rep.lers.iter().enumerate() {
        for (b, &basis) in ler.job.spec.basis().bases().iter().enumerate() {
            let chunk = (picks.seed_for((2 * j + b) as u64) % chunks as u64) as usize;
            let chunk_shots = CHUNK_SIZE.min(shots - chunk * CHUNK_SIZE);
            let spec = &ler.job.spec;
            let session = &mut rep.session;
            tally.record(guarded("oracle check", || {
                let dem = session.dem(spec, basis).map_err(|e| e.to_string())?;
                let decoder = session.decoder(spec, basis).map_err(|e| e.to_string())?;
                check_chunk_against_oracle(
                    &dem,
                    decoder.as_ref(),
                    ler.outcome.seed,
                    chunk,
                    chunk_shots,
                    spec.decode_cache(),
                )
            }));
        }
    }
}
