//! [`ExperimentSpec`]: the declarative description of one experiment — code,
//! schedule, noise, decoder, rounds and basis — built through a validating
//! builder and consumed by jobs.

use crate::error::ApiError;
use crate::noise::NoiseSpec;
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::MemoryBasis;
use prophunt_decoders::{DecodeCache, Engine};
use prophunt_formats::{resolve_family, ResolvedCode};
use prophunt_qec::surface::SurfaceLayout;
use prophunt_qec::CssCode;

/// Where the initial/analysed schedule comes from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ScheduleSource {
    /// The coloration-circuit baseline (every code has one).
    #[default]
    Coloration,
    /// The hand-designed surface-code schedule (requires a layout).
    HandDesigned,
    /// An explicit schedule (e.g. parsed from a file or produced by a previous
    /// optimization job).
    Explicit(ScheduleSpec),
}

impl ScheduleSource {
    /// A short label for records and event streams.
    pub fn label(&self) -> &'static str {
        match self {
            ScheduleSource::Coloration => "coloration",
            ScheduleSource::HandDesigned => "hand",
            ScheduleSource::Explicit(_) => "explicit",
        }
    }
}

/// Which memory bases an estimation job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BasisSelection {
    /// Z-basis memory experiment only.
    #[default]
    Z,
    /// X-basis memory experiment only.
    X,
    /// Both bases, combined into one estimate (the paper's per-shot logical error).
    Both,
}

impl BasisSelection {
    /// The concrete bases to run, in order.
    pub fn bases(&self) -> &'static [MemoryBasis] {
        match self {
            BasisSelection::Z => &[MemoryBasis::Z],
            BasisSelection::X => &[MemoryBasis::X],
            BasisSelection::Both => &[MemoryBasis::Z, MemoryBasis::X],
        }
    }
}

/// A fully resolved experiment description.
///
/// Built via [`ExperimentSpec::builder`], which validates everything up front:
/// the code exists, the schedule is valid *for that code*, the noise parameters
/// are in range, rounds are positive. A spec is immutable and reusable — run it
/// under different budgets, seeds or sessions without re-validating.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    code: CssCode,
    layout: Option<SurfaceLayout>,
    schedule: ScheduleSpec,
    schedule_label: String,
    noise: NoiseSpec,
    decoder: String,
    rounds: usize,
    basis: BasisSelection,
    decode_cache: DecodeCache,
}

impl ExperimentSpec {
    /// Starts a builder with the defaults: coloration schedule, uniform
    /// depolarizing noise at `p = 0.001`, the `bposd` decoder, 3 rounds, Z basis.
    pub fn builder() -> ExperimentSpecBuilder {
        ExperimentSpecBuilder::default()
    }

    /// Returns the code under test.
    pub fn code(&self) -> &CssCode {
        &self.code
    }

    /// Returns the surface layout when the code has one.
    pub fn layout(&self) -> Option<&SurfaceLayout> {
        self.layout.as_ref()
    }

    /// Returns the resolved, validated schedule.
    pub fn schedule(&self) -> &ScheduleSpec {
        &self.schedule
    }

    /// Returns a short label describing the schedule source.
    pub fn schedule_label(&self) -> &str {
        &self.schedule_label
    }

    /// Returns the noise specification.
    pub fn noise(&self) -> NoiseSpec {
        self.noise
    }

    /// Returns the registry name of the decoder.
    pub fn decoder(&self) -> &str {
        &self.decoder
    }

    /// Returns the number of syndrome-measurement rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Returns the basis selection.
    pub fn basis(&self) -> BasisSelection {
        self.basis
    }

    /// Returns the syndrome-dedup decode-cache setting (default:
    /// [`DecodeCache::On`]). Results are bit-identical either way — the knob
    /// exists for A/B timing and as a belt-and-braces escape hatch.
    pub fn decode_cache(&self) -> DecodeCache {
        self.decode_cache
    }

    /// Returns a derived spec with a different schedule (revalidated against the
    /// code) — the cheap way to evaluate an optimized schedule under the same
    /// noise/decoder settings.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Circuit`] when the schedule is invalid for the code.
    pub fn with_schedule(&self, schedule: ScheduleSpec) -> Result<ExperimentSpec, ApiError> {
        schedule.validate_for_code(&self.code)?;
        let mut spec = self.clone();
        spec.schedule = schedule;
        spec.schedule_label = "explicit".to_string();
        Ok(spec)
    }

    /// Returns a derived spec with a different noise model.
    pub fn with_noise(&self, noise: NoiseSpec) -> ExperimentSpec {
        let mut spec = self.clone();
        spec.noise = noise;
        spec
    }

    /// Returns a derived spec with a different decoder name. The name is resolved
    /// against the session's registry at run time.
    pub fn with_decoder(&self, decoder: impl Into<String>) -> ExperimentSpec {
        let mut spec = self.clone();
        spec.decoder = decoder.into();
        spec
    }

    /// Returns a derived spec with a different decode-cache setting.
    pub fn with_decode_cache(&self, cache: DecodeCache) -> ExperimentSpec {
        let mut spec = self.clone();
        spec.decode_cache = cache;
        spec
    }
}

/// Builder for [`ExperimentSpec`]; see [`ExperimentSpec::builder`].
#[derive(Debug, Clone)]
pub struct ExperimentSpecBuilder {
    code: Option<(CssCode, Option<SurfaceLayout>)>,
    schedule: ScheduleSource,
    noise: NoiseSpec,
    decoder: String,
    rounds: usize,
    basis: BasisSelection,
    decode_cache: DecodeCache,
}

impl Default for ExperimentSpecBuilder {
    fn default() -> Self {
        ExperimentSpecBuilder {
            code: None,
            schedule: ScheduleSource::Coloration,
            noise: NoiseSpec::uniform(1e-3),
            decoder: "bposd".to_string(),
            rounds: 3,
            basis: BasisSelection::Z,
            decode_cache: DecodeCache::On,
        }
    }
}

impl ExperimentSpecBuilder {
    /// Sets the code from a family string (`surface:3`, `steane`,
    /// `generalized_bicycle:9:0,1:0,3`, ...).
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Format`] when the family string does not resolve.
    pub fn code_family(mut self, family: &str) -> Result<Self, ApiError> {
        let ResolvedCode { code, layout } = resolve_family(family)?;
        self.code = Some((code, layout));
        Ok(self)
    }

    /// Sets an explicitly constructed code (no layout: `hand` schedules are
    /// unavailable).
    pub fn code(mut self, code: CssCode) -> Self {
        self.code = Some((code, None));
        self
    }

    /// Sets a code together with its surface layout.
    pub fn code_with_layout(mut self, code: CssCode, layout: SurfaceLayout) -> Self {
        self.code = Some((code, Some(layout)));
        self
    }

    /// Sets an already resolved code (e.g. from a parsed spec file).
    pub fn resolved_code(mut self, resolved: ResolvedCode) -> Self {
        self.code = Some((resolved.code, resolved.layout));
        self
    }

    /// Sets the schedule source (default: coloration).
    pub fn schedule(mut self, schedule: ScheduleSource) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the noise model (default: uniform depolarizing at `p = 0.001`).
    pub fn noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the noise model from a spec string (`si1000:0.002`, ...).
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::InvalidNoise`] when the string does not parse.
    pub fn noise_str(self, spec: &str) -> Result<Self, ApiError> {
        Ok(self.noise(NoiseSpec::parse(spec)?))
    }

    /// Sets the decoder registry name (default: `bposd`). Resolution against the
    /// registry happens when a job runs in a session.
    pub fn decoder(mut self, name: impl Into<String>) -> Self {
        self.decoder = name.into();
        self
    }

    /// Sets the number of syndrome-measurement rounds (default: 3).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the basis selection (default: Z).
    pub fn basis(mut self, basis: BasisSelection) -> Self {
        self.basis = basis;
        self
    }

    /// Accepts the estimation engine and changes nothing: [`Engine::Frames`]
    /// is the only engine. Kept so that callers which pin it keep compiling.
    pub fn engine(self, _engine: Engine) -> Self {
        self
    }

    /// Sets the estimation engine's syndrome-dedup decode cache (default:
    /// [`DecodeCache::On`]). Results are bit-identical either way; see
    /// [`prophunt_decoders::decode_shots_cached`].
    pub fn decode_cache(mut self, cache: DecodeCache) -> Self {
        self.decode_cache = cache;
        self
    }

    /// Resolves and validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::InvalidSpec`] when no code was given, rounds are zero,
    /// or a hand-designed schedule is requested without a layout, and
    /// [`ApiError::Circuit`] when the schedule fails validation against the code.
    pub fn build(self) -> Result<ExperimentSpec, ApiError> {
        let (code, layout) = self
            .code
            .ok_or_else(|| ApiError::InvalidSpec("no code given (set code_family/code)".into()))?;
        if self.rounds == 0 {
            return Err(ApiError::InvalidSpec("rounds must be at least 1".into()));
        }
        let schedule_label = self.schedule.label().to_string();
        let schedule = match self.schedule {
            ScheduleSource::Coloration => ScheduleSpec::coloration(&code),
            ScheduleSource::HandDesigned => {
                let layout = layout.as_ref().ok_or_else(|| {
                    ApiError::InvalidSpec(
                        "hand-designed schedules need a code with a layout (surface:<d>)".into(),
                    )
                })?;
                ScheduleSpec::surface_hand_designed(&code, layout)
            }
            ScheduleSource::Explicit(schedule) => schedule,
        };
        schedule.validate_for_code(&code)?;
        Ok(ExperimentSpec {
            code,
            layout,
            schedule,
            schedule_label,
            noise: self.noise,
            decoder: self.decoder,
            rounds: self.rounds,
            basis: self.basis,
            decode_cache: self.decode_cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_produce_a_valid_surface_spec() {
        let spec = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(spec.decoder(), "bposd");
        assert_eq!(spec.rounds(), 3);
        assert_eq!(spec.schedule_label(), "coloration");
        assert_eq!(spec.noise(), NoiseSpec::uniform(1e-3));
        assert!(spec.layout().is_some());
        spec.schedule().validate_for_code(spec.code()).unwrap();
    }

    #[test]
    fn hand_designed_schedules_need_a_layout() {
        let err = ExperimentSpec::builder()
            .code_family("steane")
            .unwrap()
            .schedule(ScheduleSource::HandDesigned)
            .build()
            .unwrap_err();
        assert!(matches!(err, ApiError::InvalidSpec(_)), "{err}");
        let ok = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .schedule(ScheduleSource::HandDesigned)
            .build()
            .unwrap();
        assert_eq!(ok.schedule_label(), "hand");
    }

    #[test]
    fn builder_rejects_missing_code_and_zero_rounds() {
        assert!(matches!(
            ExperimentSpec::builder().build(),
            Err(ApiError::InvalidSpec(_))
        ));
        assert!(matches!(
            ExperimentSpec::builder()
                .code_family("surface:3")
                .unwrap()
                .rounds(0)
                .build(),
            Err(ApiError::InvalidSpec(_))
        ));
        assert!(ExperimentSpec::builder().code_family("nope:1").is_err());
    }

    #[test]
    fn derived_specs_revalidate_schedules() {
        let spec = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .build()
            .unwrap();
        // A schedule for a different code must be rejected.
        let other = ExperimentSpec::builder()
            .code_family("steane")
            .unwrap()
            .build()
            .unwrap();
        assert!(spec.with_schedule(other.schedule().clone()).is_err());
        // The code's own hand-designed schedule is accepted.
        let layout = spec.layout().unwrap().clone();
        let hand = ScheduleSpec::surface_hand_designed(spec.code(), &layout);
        let derived = spec.with_schedule(hand).unwrap();
        assert_eq!(derived.schedule_label(), "explicit");
        // Noise/decoder derivation preserves the rest of the spec.
        let si = derived.with_noise(NoiseSpec::parse("si1000:0.002").unwrap());
        assert_eq!(si.noise().p(), 2e-3);
        assert_eq!(si.with_decoder("unionfind").decoder(), "unionfind");
    }

    #[test]
    fn engine_knob_is_accepted_and_changes_nothing() {
        let pinned = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .engine(Engine::Frames)
            .build()
            .unwrap();
        let default = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(format!("{pinned:?}"), format!("{default:?}"));
    }

    #[test]
    fn decode_cache_defaults_on_and_derives_like_the_other_knobs() {
        let spec = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(spec.decode_cache(), DecodeCache::On);
        let off = spec.with_decode_cache(DecodeCache::Off);
        assert_eq!(off.decode_cache(), DecodeCache::Off);
        assert_eq!(off.decoder(), spec.decoder());
        let built = ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .decode_cache(DecodeCache::Off)
            .build()
            .unwrap();
        assert_eq!(built.decode_cache(), DecodeCache::Off);
    }
}
