//! Stage-by-stage replicas of the optimizer and the frames LER engine.
//!
//! Each replica calls the same public stage functions, in the same order and
//! with the same seeds, as the job it mirrors, and times every stage from the
//! caller's side. Callers compare the replica's outputs with the job's, so a
//! replica that drifts from the program fails the run instead of charging time
//! to the wrong stage.

use prophunt::changes::{apply_verified_changes, enumerate_candidates, verify_candidate};
use prophunt::minweight::min_weight_logical_error;
use prophunt::{find_ambiguous_subgraph, CandidateChange, DecodingGraph, IterationRecord};
use prophunt_api::OptimizeJob;
use prophunt_circuit::{DetectorErrorModel, MemoryBasis, NoiseModel, ScheduleEval, ScheduleSpec};
use prophunt_decoders::{decode_shots_cached, DecodeCache, DecodeStats, Decoder};
use prophunt_gf2::{transpose_lane_words, BitVec};
use prophunt_qec::CssCode;
use prophunt_runtime::{Runtime, SeedStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed-stream labels of the optimizer's parallel stages. They copy the
/// private `stage::SAMPLE` and `stage::ENUMERATE` labels of
/// `prophunt::optimizer`; the equality check against the job catches any
/// drift that changes what the optimizer does.
const SAMPLE: u64 = 1;
const ENUMERATE: u64 = 2;

/// Runs `f`, adding its wall time to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// The optimizer settings a [`OptimizeJob`] resolves to inside the session.
pub struct OptimizeParams {
    iterations: usize,
    samples: usize,
    maxsat_budget: Duration,
    max_steps: usize,
    max_subgraphs: usize,
    rounds: usize,
    noise: NoiseModel,
}

impl OptimizeParams {
    /// The settings `Session::run_optimize` derives from `job`.
    pub fn of(job: &OptimizeJob) -> OptimizeParams {
        OptimizeParams {
            iterations: job.iterations,
            samples: job.samples_per_iteration,
            maxsat_budget: job.maxsat_budget,
            max_steps: job.max_subgraph_steps,
            max_subgraphs: job.max_subgraphs_per_iteration,
            rounds: job.spec.rounds(),
            noise: job.spec.noise().build(),
        }
    }
}

/// Every candidate one iteration verified, with the schedule it modifies.
pub struct CandidateSet {
    schedule: ScheduleSpec,
    basis: MemoryBasis,
    candidates: Vec<CandidateChange>,
}

/// What the optimizer replica did and how long each stage took (seconds).
#[derive(Default)]
pub struct OptimizeTrace {
    pub records: Vec<IterationRecord>,
    pub wall_s: f64,
    pub iteration_s: Vec<f64>,
    pub graph_s: f64,
    pub graph_builds: usize,
    pub sample_s: f64,
    pub samples: usize,
    pub subgraphs: usize,
    pub solve_s: f64,
    pub solves: usize,
    pub solutions: usize,
    pub conflicts: u64,
    pub sat_calls: usize,
    pub non_optimal: usize,
    pub vars_total: usize,
    pub enumerate_s: f64,
    pub candidates: usize,
    pub verify_s: f64,
    pub verified: usize,
    pub apply_s: f64,
    pub changes_applied: usize,
    pub candidate_sets: Vec<CandidateSet>,
}

impl OptimizeTrace {
    /// Sum of the six stage times over the replica's wall time.
    pub fn stage_coverage(&self) -> f64 {
        let stages = self.graph_s
            + self.sample_s
            + self.solve_s
            + self.enumerate_s
            + self.verify_s
            + self.apply_s;
        stages / self.wall_s
    }
}

/// Replays `PropHunt::try_optimize` stage by stage on `runtime`, whose seed
/// must be the job's seed.
///
/// # Errors
///
/// Returns a message when a schedule the optimizer would accept fails to
/// build.
pub fn replay_optimize(
    code: &CssCode,
    params: &OptimizeParams,
    runtime: &Runtime,
    initial: &ScheduleSpec,
) -> Result<OptimizeTrace, String> {
    let start = Instant::now();
    let mut t = OptimizeTrace::default();
    let mut schedule = initial.clone();
    // Mirrors the optimizer's per-basis graph cache, keyed by schedule.
    let mut cache: [Option<(ScheduleSpec, Arc<DecodingGraph>)>; 2] = [None, None];
    for iteration in 0..params.iterations {
        let iteration_start = Instant::now();
        let (basis, slot) = if iteration % 2 == 0 {
            (MemoryBasis::Z, 0)
        } else {
            (MemoryBasis::X, 1)
        };

        let graph = timed(&mut t.graph_s, || match &cache[slot] {
            Some((cached, graph)) if *cached == schedule => Ok(Arc::clone(graph)),
            _ => {
                let graph = DecodingGraph::build_with_noise(
                    code,
                    &schedule,
                    params.rounds,
                    basis,
                    &params.noise,
                )
                .map(Arc::new)
                .map_err(|e| format!("decoding graph: {e:?}"))?;
                cache[slot] = Some((schedule.clone(), Arc::clone(&graph)));
                t.graph_builds += 1;
                Ok::<_, String>(graph)
            }
        })?;

        let subgraphs = timed(&mut t.sample_s, || {
            let stream = runtime
                .seed_stream()
                .substream(SAMPLE)
                .substream(iteration as u64);
            let mut found: Vec<_> = runtime
                .par_seeded(params.samples, &stream, |_task, seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    find_ambiguous_subgraph(&graph, &mut rng, params.max_steps)
                })
                .into_iter()
                .flatten()
                .collect();
            found.sort_by_key(|s| (s.errors.len(), s.detectors.clone()));
            found.dedup_by(|a, b| a.detectors == b.detectors);
            found.truncate(params.max_subgraphs);
            found
        });
        t.samples += params.samples;
        t.subgraphs += subgraphs.len();

        let solutions = timed(&mut t.solve_s, || {
            runtime.par_map(&subgraphs, |sub| {
                min_weight_logical_error(sub, params.maxsat_budget)
            })
        });
        t.solves += subgraphs.len();
        for solution in &solutions {
            match solution {
                Some(s) => {
                    t.solutions += 1;
                    t.conflicts += s.stats.conflicts;
                    t.sat_calls += s.stats.iterations;
                    t.vars_total += s.stats.num_variables;
                    t.non_optimal += usize::from(!s.optimal);
                }
                None => t.non_optimal += 1,
            }
        }
        let solved: Vec<_> = subgraphs
            .into_iter()
            .zip(solutions)
            .filter_map(|(sub, solution)| solution.map(|s| (sub, s)))
            .collect();
        let solution_weights: Vec<usize> = solved.iter().map(|(_, s)| s.weight).collect();
        let subgraphs_found = solved.len();

        let tasks = timed(&mut t.enumerate_s, || {
            let seed = runtime
                .seed_stream()
                .substream(ENUMERATE)
                .seed_for(iteration as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            solved
                .into_iter()
                .map(|(sub, solution)| {
                    let candidates =
                        enumerate_candidates(&graph, code, &schedule, &solution, &mut rng);
                    (sub, solution, candidates)
                })
                .collect::<Vec<_>>()
        });
        let candidates_enumerated: usize = tasks.iter().map(|(_, _, c)| c.len()).sum();
        t.candidates += candidates_enumerated;

        let verified = timed(&mut t.verify_s, || {
            let work: Vec<_> = tasks
                .iter()
                .enumerate()
                .flat_map(|(group, (sub, solution, candidates))| {
                    candidates.iter().map(move |c| (group, sub, solution, c))
                })
                .collect();
            let base_eval =
                ScheduleEval::new(schedule.clone()).map_err(|e| format!("schedule eval: {e:?}"))?;
            let results = runtime.par_map(&work, |&(group, sub, solution, candidate)| {
                verify_candidate(
                    code,
                    &base_eval,
                    candidate,
                    sub,
                    solution,
                    &graph,
                    params.rounds,
                    basis,
                    &params.noise,
                )
                .map(|v| (group, v))
            });
            let mut per_subgraph = vec![Vec::new(); tasks.len()];
            for (group, v) in results.into_iter().flatten() {
                per_subgraph[group].push(v);
            }
            Ok::<_, String>(per_subgraph)
        })?;
        t.verified += verified.iter().map(Vec::len).sum::<usize>();

        t.candidate_sets.push(CandidateSet {
            schedule: schedule.clone(),
            basis,
            candidates: tasks.into_iter().flat_map(|(_, _, c)| c).collect(),
        });
        let changes_applied = timed(&mut t.apply_s, || {
            apply_verified_changes(&mut schedule, verified)
        });
        t.changes_applied += changes_applied;

        let record = IterationRecord {
            iteration,
            basis,
            subgraphs_found,
            solution_weights,
            candidates_enumerated,
            changes_applied,
            depth: schedule.depth().unwrap_or(usize::MAX),
            schedule: schedule.clone(),
        };
        let stop = record.subgraphs_found == 0 && iteration > 0;
        t.records.push(record);
        t.iteration_s.push(iteration_start.elapsed().as_secs_f64());
        if stop {
            break;
        }
    }
    t.wall_s = start.elapsed().as_secs_f64();
    Ok(t)
}

/// Rebuilds the detector error model of every candidate the replica
/// verified: `ScheduleEval::try_ops` plus `DecodingGraph::build_with_noise`,
/// under one `par_map` per iteration like the verify stage. Returns the time
/// taken and the number of models built.
pub fn candidate_dems(
    code: &CssCode,
    params: &OptimizeParams,
    runtime: &Runtime,
    sets: &[CandidateSet],
) -> Result<(f64, usize), String> {
    let mut secs = 0.0;
    let mut built = 0;
    for set in sets {
        let base =
            ScheduleEval::new(set.schedule.clone()).map_err(|e| format!("schedule eval: {e:?}"))?;
        let ok = timed(&mut secs, || {
            runtime.par_map(&set.candidates, |candidate| {
                let mut eval = base.clone();
                eval.try_ops(&candidate.eval_ops())?;
                let schedule = eval.into_spec();
                DecodingGraph::build_with_noise(
                    code,
                    &schedule,
                    params.rounds,
                    set.basis,
                    &params.noise,
                )
                .ok()
            })
        });
        built += ok.iter().flatten().count();
    }
    Ok((secs, built))
}

/// One 64-lane block of sampled frames.
struct Frames {
    lanes: usize,
    det: Vec<u64>,
    obs: Vec<u64>,
}

/// Samples one chunk exactly as the frames engine does: one sampler per
/// chunk, seeded from the chunk index, 64 lanes per block.
fn sample_chunk(dem: &DetectorErrorModel, seed: u64, shots: usize) -> Vec<Frames> {
    let mut sampler = dem.sampler(seed);
    let mut blocks = Vec::with_capacity(shots.div_ceil(64));
    let mut remaining = shots;
    while remaining > 0 {
        let lanes = remaining.min(64);
        let mut det = vec![0u64; dem.num_detectors()];
        let mut obs = vec![0u64; dem.num_observables()];
        sampler.sample_frames(lanes, &mut det, &mut obs);
        blocks.push(Frames { lanes, det, obs });
        remaining -= lanes;
    }
    blocks
}

/// Transposes sampled blocks into per-shot detector and observable vectors.
fn transpose_chunk(blocks: &[Frames]) -> (Vec<BitVec>, Vec<BitVec>) {
    let mut det = Vec::new();
    let mut obs = Vec::new();
    for block in blocks {
        det.extend(transpose_lane_words(&block.det, block.lanes));
        obs.extend(transpose_lane_words(&block.obs, block.lanes));
    }
    (det, obs)
}

/// What the LER replica computed and how long each stage took (seconds).
#[derive(Default)]
pub struct LerTrace {
    pub shots: usize,
    pub failures: usize,
    pub stats: DecodeStats,
    pub wall_s: f64,
    pub sample_s: f64,
    pub transpose_s: f64,
    pub decode_s: f64,
}

impl LerTrace {
    /// Sum of the three stage times over the replica's wall time.
    pub fn stage_coverage(&self) -> f64 {
        (self.sample_s + self.transpose_s + self.decode_s) / self.wall_s
    }

    /// Accumulates another basis' replay.
    pub fn merge(&mut self, other: &LerTrace) {
        self.shots += other.shots;
        self.failures += other.failures;
        self.stats.merge(other.stats);
        self.wall_s += other.wall_s;
        self.sample_s += other.sample_s;
        self.transpose_s += other.transpose_s;
        self.decode_s += other.decode_s;
    }
}

/// Replays a fixed-shot frames-engine estimate: the same chunks, seeds and
/// waves as `estimate_with_budget_engine_cached`, with sampling, transposing
/// and decoding each run as a timed parallel stage of their own.
pub fn replay_ler(
    dem: &DetectorErrorModel,
    decoder: &dyn Decoder,
    shots: usize,
    seed: u64,
    cache: DecodeCache,
    runtime: &Runtime,
) -> LerTrace {
    let start = Instant::now();
    let mut t = LerTrace {
        shots,
        ..LerTrace::default()
    };
    let chunk = runtime.chunk_size();
    let total_chunks = shots.div_ceil(chunk);
    let stream = SeedStream::new(seed);
    let mut done = 0;
    while done < total_chunks {
        let wave = (runtime.threads() * 2).clamp(1, total_chunks - done);
        let sampled = timed(&mut t.sample_s, || {
            runtime.run_tasks(wave, |i| {
                let c = done + i;
                sample_chunk(dem, stream.seed_for(c as u64), chunk.min(shots - c * chunk))
            })
        });
        // Each stage consumes (and frees) the previous stage's output.
        let transposed = timed(&mut t.transpose_s, || {
            let out = runtime.par_map(&sampled, |blocks| transpose_chunk(blocks));
            drop(sampled);
            out
        });
        let decoded = timed(&mut t.decode_s, || {
            let out = runtime.par_map(&transposed, |(det, observed)| {
                let (predictions, stats) = decode_shots_cached(decoder, det, cache);
                let failures = predictions
                    .iter()
                    .zip(observed)
                    .filter(|(p, o)| p != o)
                    .count();
                (failures, stats)
            });
            drop(transposed);
            out
        });
        for (failures, stats) in decoded {
            t.failures += failures;
            t.stats.merge(stats);
        }
        done += wave;
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

/// Checks one chunk of a frames estimate against the per-shot oracle: every
/// batch prediction must equal `Decoder::decode` on the same syndrome.
///
/// # Errors
///
/// Returns a message naming the first shot that differs.
pub fn check_chunk_against_oracle(
    dem: &DetectorErrorModel,
    decoder: &dyn Decoder,
    seed: u64,
    chunk: usize,
    chunk_shots: usize,
    cache: DecodeCache,
) -> Result<(), String> {
    let blocks = sample_chunk(
        dem,
        SeedStream::new(seed).seed_for(chunk as u64),
        chunk_shots,
    );
    let (det, _) = transpose_chunk(&blocks);
    let (batch, _) = decode_shots_cached(decoder, &det, cache);
    for (i, (syndrome, predicted)) in det.iter().zip(&batch).enumerate() {
        if decoder.decode(syndrome) != *predicted {
            return Err(format!(
                "chunk {chunk} shot {i}: batch prediction differs from Decoder::decode"
            ));
        }
    }
    Ok(())
}
