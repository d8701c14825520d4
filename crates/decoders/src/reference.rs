//! The per-shot reference oracle for [`estimate_logical_error_rate`].
//!
//! This is a test and benchmark oracle, not a production path. [`per_shot_estimate`]
//! samples and decodes one shot at a time — [`DemSampler::sample_into`] then
//! [`Decoder::decode`] — over the same chunk seeds
//! (`SeedStream::new(seed).seed_for(c)`) as the engine, with no instrumentation
//! and no adaptive stop. Its RNG stream is shot-major while the engine's is
//! mechanism-major within each 64-shot block, so the two sample *different*
//! shot sequences from the same distribution: their failure counts agree
//! statistically, not exactly. The decoders' own parity tests compare
//! predictions on identical syndromes instead.
//!
//! [`DemSampler::sample_into`]: prophunt_circuit::DemSampler::sample_into

#[cfg(doc)]
use crate::estimate_logical_error_rate;
use crate::{Decoder, LogicalErrorEstimate};
use prophunt_circuit::DetectorErrorModel;
use prophunt_gf2::BitVec;
use prophunt_runtime::{Runtime, SeedStream};

/// Estimates the logical error rate of `decoder` on `shots` shots from `dem`,
/// one sampled shot and one [`Decoder::decode`] call at a time.
///
/// Chunks of `runtime.chunk_size()` shots run in parallel; the result is a
/// pure function of `(seed, chunk_size)`.
pub fn per_shot_estimate(
    dem: &DetectorErrorModel,
    decoder: &dyn Decoder,
    shots: usize,
    seed: u64,
    runtime: &Runtime,
) -> LogicalErrorEstimate {
    let chunk = runtime.chunk_size();
    let stream = SeedStream::new(seed);
    runtime
        .run_tasks(shots.div_ceil(chunk), |c| {
            let chunk_shots = chunk.min(shots - c * chunk);
            let mut sampler = dem.sampler(stream.seed_for(c as u64));
            let mut detectors = BitVec::zeros(dem.num_detectors());
            let mut observables = BitVec::zeros(dem.num_observables());
            let failures = (0..chunk_shots)
                .filter(|_| {
                    sampler.sample_into(&mut detectors, &mut observables);
                    decoder.decode(&detectors) != observables
                })
                .count();
            LogicalErrorEstimate {
                shots: chunk_shots,
                failures,
            }
        })
        .into_iter()
        .fold(LogicalErrorEstimate::ZERO, LogicalErrorEstimate::combined)
}
