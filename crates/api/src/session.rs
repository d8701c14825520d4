//! [`Session`]: the stateful execution context jobs run in.
//!
//! A session owns the deterministic parallel [`Runtime`] and memoizes the
//! expensive intermediate artifacts of experiment evaluation — built
//! [`MemoryExperiment`]s, [`DetectorErrorModel`]s and decoder instances — keyed
//! by the exact `(code, schedule, rounds, basis, noise)` combination, so a sweep
//! over decoders reuses the model, a sweep over noise reuses the experiment, and
//! repeated jobs on the same grid point are free.
//!
//! Every session carries an enabled `prophunt-obs` registry (shared with its
//! runtime, the LER engine and search, so one [`Session::metrics`] snapshot
//! covers all four layers). Cache accounting lives in the registry as
//! `session.cache.<kind>.hit` / `.miss` counters plus `session.jobs`.

use crate::decoder::DecoderRegistry;
use crate::error::ApiError;
use crate::job::{
    BasisEstimate, Event, JobKind, LerJob, LerOutcome, OptimizeJob, OptimizeOutcome, StopReason,
};
use crate::search::{SearchJob, SearchOutcome};
use crate::spec::ExperimentSpec;
use prophunt::{PropHunt, PropHuntConfig};
use prophunt_circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment};
use prophunt_decoders::{
    estimate_logical_error_rate, DecodeCache, Decoder, LogicalErrorEstimate, ShotBudget,
};
use prophunt_formats::write_schedule;
use prophunt_obs::{Obs, Snapshot};
use prophunt_runtime::{Runtime, RuntimeConfig};
use prophunt_search::{Portfolio, PortfolioConfig, SearchParams};
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key identifying a built memory experiment.
///
/// The code is fingerprinted by name and dimensions; the schedule by its
/// canonical `prophunt-schedule v1` text (exact, not name-based). Distinct codes
/// sharing a name *and* dimensions would alias — give custom codes distinct
/// names.
type ExperimentKey = (String, String, usize, u8);

/// Cache key identifying a detector error model: an experiment plus a canonical
/// noise spec string.
type DemKey = (ExperimentKey, String);

/// Cache key identifying a decoder instance: a model plus the decoder name.
type DecoderKey = (DemKey, String);

fn basis_tag(basis: MemoryBasis) -> u8 {
    match basis {
        MemoryBasis::Z => 0,
        MemoryBasis::X => 1,
    }
}

/// The stateful execution context of the experiment API. See the module docs.
pub struct Session {
    runtime: Runtime,
    registry: DecoderRegistry,
    experiments: HashMap<ExperimentKey, Arc<MemoryExperiment>>,
    dems: HashMap<DemKey, Arc<DetectorErrorModel>>,
    decoders: HashMap<DecoderKey, Arc<dyn Decoder>>,
    obs: Obs,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("runtime", self.runtime.config())
            .field("registry", &self.registry)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Creates a session with the default decoder registry.
    pub fn new(config: RuntimeConfig) -> Session {
        Session::with_registry(config, DecoderRegistry::with_defaults())
    }

    /// Creates a session with a custom decoder registry.
    pub fn with_registry(config: RuntimeConfig, registry: DecoderRegistry) -> Session {
        Session::with_obs(config, registry, Obs::enabled())
    }

    /// Creates a session recording into a caller-supplied observability handle
    /// (e.g. a registry shared with other sessions). A disabled handle turns the
    /// session's metrics off wholesale; [`Session::metrics`] then reads empty.
    pub fn with_obs(config: RuntimeConfig, registry: DecoderRegistry, obs: Obs) -> Session {
        Session {
            runtime: Runtime::with_obs(config, obs.clone()),
            registry,
            experiments: HashMap::new(),
            dems: HashMap::new(),
            decoders: HashMap::new(),
            obs,
        }
    }

    /// Returns the shared parallel runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Returns the decoder registry.
    pub fn registry(&self) -> &DecoderRegistry {
        &self.registry
    }

    /// Registers (or replaces) a decoder constructor; see
    /// [`DecoderRegistry::register`]. Replacing a name also evicts every decoder
    /// instance cached under it, so later jobs use the new constructor.
    pub fn register_decoder(
        &mut self,
        name: impl Into<String>,
        builder: impl Fn(&DetectorErrorModel) -> Arc<dyn Decoder> + Send + Sync + 'static,
    ) {
        let name = name.into();
        // lint: allow(no-hash-iter) — order-insensitive: retain applies an
        // independent per-entry predicate; no output depends on visit order.
        self.decoders.retain(|(_, cached), _| cached != &name);
        self.registry.register(name, builder);
    }

    /// Returns the observability handle shared by the session, its runtime, the
    /// LER engine and search.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Returns a point-in-time snapshot of every instrument recorded so far
    /// (empty when the session was built with a disabled [`Obs`]).
    pub fn metrics(&self) -> Snapshot {
        self.obs.snapshot().unwrap_or_default()
    }

    fn experiment_key(spec: &ExperimentSpec, basis: MemoryBasis) -> ExperimentKey {
        (
            format!(
                "{}[{},{}]",
                spec.code().name(),
                spec.code().n(),
                spec.code().k()
            ),
            write_schedule(spec.schedule()),
            spec.rounds(),
            basis_tag(basis),
        )
    }

    /// Returns the (cached) memory experiment for one basis of `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Circuit`] when the experiment cannot be built.
    pub fn experiment(
        &mut self,
        spec: &ExperimentSpec,
        basis: MemoryBasis,
    ) -> Result<Arc<MemoryExperiment>, ApiError> {
        let key = Self::experiment_key(spec, basis);
        if let Some(experiment) = self.experiments.get(&key) {
            self.obs.inc("session.cache.experiment.hit");
            return Ok(Arc::clone(experiment));
        }
        let experiment = Arc::new(MemoryExperiment::build(
            spec.code(),
            spec.schedule(),
            spec.rounds(),
            basis,
        )?);
        self.obs.inc("session.cache.experiment.miss");
        self.experiments.insert(key, Arc::clone(&experiment));
        Ok(experiment)
    }

    /// Returns the (cached) detector error model for one basis of `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Circuit`] when the underlying experiment cannot be
    /// built.
    pub fn dem(
        &mut self,
        spec: &ExperimentSpec,
        basis: MemoryBasis,
    ) -> Result<Arc<DetectorErrorModel>, ApiError> {
        let key = (Self::experiment_key(spec, basis), spec.noise().to_string());
        if let Some(dem) = self.dems.get(&key) {
            self.obs.inc("session.cache.dem.hit");
            return Ok(Arc::clone(dem));
        }
        let _span = self.obs.span("session.dem", "session");
        let experiment = self.experiment(spec, basis)?;
        let dem = Arc::new(DetectorErrorModel::from_experiment(
            &experiment,
            &spec.noise().build(),
        ));
        self.obs.inc("session.cache.dem.miss");
        self.dems.insert(key, Arc::clone(&dem));
        Ok(dem)
    }

    /// Returns the (cached) decoder instance for one basis of `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::UnknownDecoder`] when the spec's decoder name is not
    /// registered, and [`ApiError::Circuit`] when the model cannot be built.
    pub fn decoder(
        &mut self,
        spec: &ExperimentSpec,
        basis: MemoryBasis,
    ) -> Result<Arc<dyn Decoder>, ApiError> {
        let dem_key = (Self::experiment_key(spec, basis), spec.noise().to_string());
        let key = (dem_key, spec.decoder().to_string());
        if let Some(decoder) = self.decoders.get(&key) {
            self.obs.inc("session.cache.decoder.hit");
            return Ok(Arc::clone(decoder));
        }
        let _span = self.obs.span("session.decoder", "session");
        let dem = self.dem(spec, basis)?;
        let decoder = self.registry.build(spec.decoder(), &dem)?;
        self.obs.inc("session.cache.decoder.miss");
        self.decoders.insert(key, Arc::clone(&decoder));
        Ok(decoder)
    }

    /// Runs a [`LerJob`], emitting [`Event`]s through `observer`.
    ///
    /// The estimate is a pure function of the job and the session's
    /// `(seed, chunk_size)`; thread count changes wall-clock time only,
    /// including for adaptively stopped budgets (decisions are made at chunk
    /// granularity in chunk order).
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::UnknownDecoder`] or [`ApiError::Circuit`]; no events
    /// are emitted in that case beyond those already delivered.
    pub fn run_ler(
        &mut self,
        job: &LerJob,
        mut observer: impl FnMut(&Event),
    ) -> Result<LerOutcome, ApiError> {
        let span = self.obs.span("job.ler", "job");
        let seed = job.seed.unwrap_or(self.runtime.config().seed);
        observer(&Event::JobStarted {
            kind: JobKind::Ler,
            label: job.label().to_string(),
        });
        let mut per_basis = Vec::new();
        let mut combined = LogicalErrorEstimate::ZERO;
        let mut stop = StopReason::ShotsExhausted;
        for &basis in job.spec.basis().bases() {
            let dem = self.dem(&job.spec, basis)?;
            let decoder = self.decoder(&job.spec, basis)?;
            let runtime = self.runtime.clone();
            let (estimate, reason) = estimate_logical_error_rate(
                &dem,
                decoder.as_ref(),
                job.budget,
                seed,
                job.spec.decode_cache(),
                &runtime,
                &mut |progress| {
                    observer(&Event::ShotChunk {
                        basis,
                        chunk: progress.chunk,
                        shots: progress.shots,
                        failures: progress.failures,
                    });
                },
            );
            let reason = StopReason::from(reason);
            if reason.stopped_early() && !stop.stopped_early() {
                stop = reason;
            }
            per_basis.push(BasisEstimate {
                basis,
                estimate,
                stop: reason,
            });
            combined = combined.combined(estimate);
        }
        observer(&Event::JobFinished { stop });
        self.obs.inc("session.jobs");
        Ok(LerOutcome {
            per_basis,
            combined,
            stop,
            seed,
            chunk_size: self.runtime.chunk_size(),
            decoder: job.spec.decoder().to_string(),
            noise: Some(job.spec.noise()),
            p: job.spec.noise().p(),
            idle: job.spec.noise().idle(),
            wall: span.finish(),
        })
    }

    /// Runs a [`LerJob`] without observing progress events.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run_ler`].
    pub fn run_ler_quiet(&mut self, job: &LerJob) -> Result<LerOutcome, ApiError> {
        self.run_ler(job, |_| {})
    }

    /// Runs an [`OptimizeJob`], emitting [`Event::Iteration`] as iterations
    /// complete.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::InvalidSpec`] when the job samples no subgraphs per
    /// iteration, and [`ApiError::Circuit`] when the starting schedule fails
    /// validation.
    pub fn run_optimize(
        &mut self,
        job: &OptimizeJob,
        mut observer: impl FnMut(&Event),
    ) -> Result<OptimizeOutcome, ApiError> {
        require_samples(job.samples_per_iteration)?;
        let span = self.obs.span("job.optimize", "job");
        let seed = job.seed.unwrap_or(self.runtime.config().seed);
        let mut config = PropHuntConfig::quick(job.spec.rounds());
        config.iterations = job.iterations;
        config.samples_per_iteration = job.samples_per_iteration;
        config.maxsat_budget = job.maxsat_budget;
        config.max_subgraph_steps = job.max_subgraph_steps;
        config.max_subgraphs_per_iteration = job.max_subgraphs_per_iteration;
        config.noise = job.spec.noise().build();
        observer(&Event::JobStarted {
            kind: JobKind::Optimize,
            label: job.label().to_string(),
        });
        let runtime = Runtime::with_obs(self.runtime.config().with_seed(seed), self.obs.clone());
        let prophunt = PropHunt::new(job.spec.code().clone(), config, runtime);
        let result =
            prophunt.try_optimize_with_observer(job.spec.schedule().clone(), |record| {
                observer(&Event::Iteration(record.clone()));
            })?;
        let iterations = result.records.len();
        let converged = result
            .records
            .last()
            .is_some_and(|record| record.subgraphs_found == 0);
        let stop = if converged {
            StopReason::Converged { iterations }
        } else {
            StopReason::IterationLimit { iterations }
        };
        observer(&Event::JobFinished { stop });
        self.obs.inc("session.jobs");
        Ok(OptimizeOutcome {
            result,
            stop,
            seed,
            wall: span.finish(),
        })
    }

    /// Runs an [`OptimizeJob`] without observing progress events.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run_optimize`].
    pub fn run_optimize_quiet(&mut self, job: &OptimizeJob) -> Result<OptimizeOutcome, ApiError> {
        self.run_optimize(job, |_| {})
    }

    /// Runs a [`SearchJob`], emitting one [`Event::Incumbent`] per portfolio
    /// round (with per-strategy provenance) between the usual
    /// [`Event::JobStarted`] / [`Event::JobFinished`] pair.
    ///
    /// The event sequence and the returned best schedule are pure functions of
    /// the job and the session's `(seed, chunk_size)` — the portfolio inherits
    /// the runtime determinism contract, so thread count changes wall-clock
    /// time only.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::InvalidSpec`] when the job samples no subgraphs per
    /// iteration, and [`ApiError::Circuit`] when the spec's schedule fails
    /// validation or the portfolio shape is degenerate (no
    /// strategies/instances/rounds).
    pub fn run_search(
        &mut self,
        job: &SearchJob,
        mut observer: impl FnMut(&Event),
    ) -> Result<SearchOutcome, ApiError> {
        require_samples(job.samples_per_iteration)?;
        let span = self.obs.span("job.search", "job");
        let seed = job.seed.unwrap_or(self.runtime.config().seed);
        observer(&Event::JobStarted {
            kind: JobKind::Search,
            label: job.label().to_string(),
        });
        let params = SearchParams {
            proposals_per_round: job.proposals_per_round,
            memory_rounds: job.spec.rounds(),
            noise: job.spec.noise().build(),
            samples_per_iteration: job.samples_per_iteration,
            maxsat_budget: job.maxsat_budget,
        };
        let config = PortfolioConfig {
            strategies: job.strategies.clone(),
            portfolio_size: job.portfolio_size,
            rounds: job.rounds,
            params,
        };
        let runtime = Runtime::with_obs(self.runtime.config().with_seed(seed), self.obs.clone());
        let result = Portfolio::new(config, runtime).run(
            job.spec.code(),
            job.spec.layout(),
            job.spec.schedule(),
            |record| {
                observer(&Event::Incumbent {
                    round: record.round,
                    strategy: record.incumbent.strategy.to_string(),
                    instance: record.incumbent.instance,
                    depth: record.incumbent.depth,
                    improved: record.improved,
                    schedule: record.incumbent.schedule.clone(),
                });
            },
        )?;
        let stop = StopReason::RoundLimit {
            rounds: result.rounds.len(),
        };
        observer(&Event::JobFinished { stop });
        self.obs.inc("session.jobs");
        Ok(SearchOutcome {
            result,
            stop,
            seed,
            chunk_size: self.runtime.chunk_size(),
            wall: span.finish(),
        })
    }

    /// Runs a [`SearchJob`] without observing progress events.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run_search`].
    pub fn run_search_quiet(&mut self, job: &SearchJob) -> Result<SearchOutcome, ApiError> {
        self.run_search(job, |_| {})
    }

    /// Estimates a pre-built detector error model (e.g. parsed from a `.dem`
    /// file) under `decoder_name`, `budget` and `decode_cache` — the Session
    /// entry point for model-only workloads, bypassing the spec caches.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::UnknownDecoder`] when the decoder is not registered.
    pub fn run_ler_on_dem(
        &mut self,
        dem: &DetectorErrorModel,
        decoder_name: &str,
        budget: ShotBudget,
        seed: u64,
        decode_cache: DecodeCache,
        mut observer: impl FnMut(&Event),
    ) -> Result<LerOutcome, ApiError> {
        let span = self.obs.span("job.ler", "job");
        let decoder = self.registry.build(decoder_name, dem)?;
        observer(&Event::JobStarted {
            kind: JobKind::Ler,
            label: "dem".to_string(),
        });
        let (estimate, reason) = estimate_logical_error_rate(
            dem,
            decoder.as_ref(),
            budget,
            seed,
            decode_cache,
            &self.runtime,
            &mut |progress| {
                observer(&Event::ShotChunk {
                    basis: MemoryBasis::Z,
                    chunk: progress.chunk,
                    shots: progress.shots,
                    failures: progress.failures,
                });
            },
        );
        let stop = StopReason::from(reason);
        observer(&Event::JobFinished { stop });
        self.obs.inc("session.jobs");
        Ok(LerOutcome {
            per_basis: vec![BasisEstimate {
                basis: MemoryBasis::Z,
                estimate,
                stop,
            }],
            combined: estimate,
            stop,
            seed,
            chunk_size: self.runtime.chunk_size(),
            decoder: decoder_name.to_string(),
            // A .dem file has its error distribution baked in; there is no noise
            // spec to report (the record's noise field stays empty).
            noise: None,
            p: 0.0,
            idle: 0.0,
            wall: span.finish(),
        })
    }
}

/// Rejects a zero subgraph-sample count: such a job finds no subgraph and would
/// report a vacuous convergence.
fn require_samples(samples_per_iteration: usize) -> Result<(), ApiError> {
    if samples_per_iteration == 0 {
        return Err(ApiError::InvalidSpec(
            "samples per iteration must be at least 1".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BasisSelection, ExperimentSpec};
    use prophunt_formats::report::ReportRecord;

    fn d3_spec() -> ExperimentSpec {
        ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .build()
            .unwrap()
    }

    fn session() -> Session {
        Session::new(RuntimeConfig::new(2, 64, 7))
    }

    #[test]
    fn dems_and_decoders_are_cached_across_jobs() {
        let mut session = session();
        let spec = d3_spec();
        let job = LerJob::new(spec.clone()).with_budget(ShotBudget::fixed(128));
        let first = session.run_ler_quiet(&job).unwrap();
        let snap = session.metrics();
        assert_eq!(snap.counter("session.cache.dem.miss"), 1);
        assert_eq!(snap.counter("session.cache.decoder.miss"), 1);
        let second = session.run_ler_quiet(&job).unwrap();
        assert_eq!(first.combined, second.combined, "cached rerun must agree");
        let snap = session.metrics();
        assert_eq!(snap.counter("session.cache.dem.miss"), 1, "model reused");
        assert_eq!(
            snap.counter("session.cache.decoder.miss"),
            1,
            "decoder reused"
        );
        assert!(snap.counter("session.cache.dem.hit") >= 1);
        assert!(snap.counter("session.cache.decoder.hit") >= 1);
        // A different decoder on the same model reuses the DEM but builds a new
        // decoder instance.
        let union = LerJob::new(spec.with_decoder("unionfind")).with_budget(ShotBudget::fixed(128));
        session.run_ler_quiet(&union).unwrap();
        let snap = session.metrics();
        assert_eq!(snap.counter("session.cache.dem.miss"), 1);
        assert_eq!(snap.counter("session.cache.decoder.miss"), 2);
        assert_eq!(snap.counter("session.jobs"), 3);
    }

    #[test]
    fn noise_changes_rebuild_the_model_but_reuse_the_experiment() {
        let mut session = session();
        let spec = d3_spec();
        session
            .run_ler_quiet(&LerJob::new(spec.clone()).with_budget(ShotBudget::fixed(64)))
            .unwrap();
        let si = spec.with_noise(crate::noise::NoiseSpec::parse("si1000:0.001").unwrap());
        session
            .run_ler_quiet(&LerJob::new(si).with_budget(ShotBudget::fixed(64)))
            .unwrap();
        let snap = session.metrics();
        assert_eq!(
            snap.counter("session.cache.experiment.miss"),
            1,
            "experiment shared across noise"
        );
        assert_eq!(
            snap.counter("session.cache.dem.miss"),
            2,
            "each noise spec gets its own model"
        );
    }

    #[test]
    fn replacing_a_decoder_evicts_its_cached_instances() {
        use prophunt_gf2::BitVec;
        struct AlwaysZero {
            detectors: usize,
            observables: usize,
        }
        impl prophunt_decoders::Decoder for AlwaysZero {
            fn decode(&self, _detectors: &BitVec) -> BitVec {
                BitVec::zeros(self.observables)
            }
            fn num_detectors(&self) -> usize {
                self.detectors
            }
            fn num_observables(&self) -> usize {
                self.observables
            }
        }
        let mut session = session();
        // Populate the cache under "bposd" with a high-p job that has failures.
        let spec = d3_spec().with_noise(crate::noise::NoiseSpec::uniform(2e-2));
        let job = LerJob::new(spec).with_budget(ShotBudget::fixed(256));
        let before = session.run_ler_quiet(&job).unwrap();
        assert!(before.combined.failures > 0);
        // Replace "bposd" with a decoder that never predicts a flip: the cached
        // instance must be evicted, so the rerun uses the new constructor.
        session.register_decoder("bposd", |dem| {
            std::sync::Arc::new(AlwaysZero {
                detectors: dem.num_detectors(),
                observables: dem.num_observables(),
            })
        });
        let after = session.run_ler_quiet(&job).unwrap();
        assert_ne!(
            after.combined.failures, before.combined.failures,
            "replaced decoder must actually be used"
        );
    }

    #[test]
    fn unknown_decoder_surfaces_as_a_typed_error() {
        let mut session = session();
        let job = LerJob::new(d3_spec().with_decoder("nope"));
        let err = session.run_ler_quiet(&job).unwrap_err();
        assert!(matches!(err, ApiError::UnknownDecoder { .. }), "{err}");
    }

    #[test]
    fn ler_jobs_emit_started_chunks_finished_in_order() {
        let mut session = session();
        let job = LerJob::new(d3_spec())
            .with_budget(ShotBudget::fixed(128))
            .with_label("probe");
        let mut events = Vec::new();
        session.run_ler(&job, |e| events.push(e.clone())).unwrap();
        assert!(
            matches!(&events[0], Event::JobStarted { kind: JobKind::Ler, label } if label == "probe")
        );
        assert!(matches!(events.last(), Some(Event::JobFinished { .. })));
        let chunks: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::ShotChunk { chunk, shots, .. } => Some((*chunk, *shots)),
                _ => None,
            })
            .collect();
        assert_eq!(chunks, vec![(0, 64), (1, 128)]);
    }

    #[test]
    fn both_bases_combine_estimates() {
        let mut session = session();
        let spec = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .basis(BasisSelection::Both)
            .build()
            .unwrap();
        let outcome = session
            .run_ler_quiet(&LerJob::new(spec).with_budget(ShotBudget::fixed(100)))
            .unwrap();
        assert_eq!(outcome.per_basis.len(), 2);
        assert_eq!(outcome.combined.shots, 200);
        assert_eq!(
            outcome.combined.failures,
            outcome.per_basis.iter().map(|b| b.estimate.failures).sum()
        );
    }

    #[test]
    fn frame_engine_jobs_run_and_record_their_engine() {
        let mut session = session();
        let outcome = session
            .run_ler_quiet(&LerJob::new(d3_spec()).with_budget(ShotBudget::fixed(128)))
            .unwrap();
        assert_eq!(outcome.combined.shots, 128);
        let ReportRecord::Ler { engine, .. } = outcome.to_record("d3") else {
            panic!("expected a ler record");
        };
        assert_eq!(engine, "frames");
    }

    #[test]
    fn stats_are_backed_by_the_metrics_registry() {
        let mut session = session();
        let job = LerJob::new(d3_spec()).with_budget(ShotBudget::fixed(128));
        session.run_ler_quiet(&job).unwrap();
        session.run_ler_quiet(&job).unwrap();
        let snap = session.metrics();
        assert_eq!(snap.counter("session.cache.dem.miss"), 1);
        // First run: dem() misses, then decoder()'s build path re-reads it (one
        // hit). Second run: dem() hits, decoder() hits without touching dems.
        assert_eq!(snap.counter("session.cache.dem.hit"), 2);
        assert_eq!(snap.counter("session.cache.decoder.miss"), 1);
        assert_eq!(snap.counter("session.cache.decoder.hit"), 1);
        assert_eq!(snap.counter("session.jobs"), 2);
        // The shared registry also carries the runtime / LER-engine instruments.
        assert!(snap.counter("ler.shots") >= 256);
        assert!(snap.histogram("job.ler.ns").is_some_and(|h| h.count == 2));
        assert!(snap.histogram("runtime.task.ns").is_some());
    }

    #[test]
    fn a_disabled_obs_handle_turns_session_metrics_off() {
        let mut session = Session::with_obs(
            RuntimeConfig::new(2, 64, 7),
            DecoderRegistry::with_defaults(),
            Obs::disabled(),
        );
        let job = LerJob::new(d3_spec()).with_budget(ShotBudget::fixed(64));
        let outcome = session.run_ler_quiet(&job).unwrap();
        assert_eq!(outcome.combined.shots, 64);
        assert!(outcome.wall.as_nanos() > 0, "wall clock still measured");
        assert_eq!(session.metrics(), Snapshot::default());
    }

    #[test]
    fn optimize_jobs_stream_iterations_and_reuse_the_session_runtime_seed() {
        let mut session = session();
        let spec = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .build()
            .unwrap();
        let job = OptimizeJob::new(spec).with_iterations(2).with_samples(15);
        let mut iterations = 0usize;
        let outcome = session
            .run_optimize(&job, |e| {
                if matches!(e, Event::Iteration(_)) {
                    iterations += 1;
                }
            })
            .unwrap();
        assert_eq!(outcome.result.records.len(), iterations);
        assert_eq!(outcome.seed, 7, "session runtime seed is the default");
        assert!(matches!(
            outcome.stop,
            StopReason::Converged { .. } | StopReason::IterationLimit { .. }
        ));
        outcome
            .result
            .final_schedule
            .validate(job.spec.code())
            .unwrap();
    }

    #[test]
    fn jobs_with_zero_samples_are_rejected() {
        let mut session = session();
        let optimize = OptimizeJob::new(d3_spec()).with_samples(0);
        assert!(matches!(
            session.run_optimize_quiet(&optimize),
            Err(ApiError::InvalidSpec(_))
        ));
        let search = SearchJob::new(d3_spec()).with_samples(0);
        assert!(matches!(
            session.run_search_quiet(&search),
            Err(ApiError::InvalidSpec(_))
        ));
    }
}
