//! Batch-native decode pipeline: zero-syndrome fast path and per-chunk
//! syndrome deduplication in front of [`Decoder::decode_batch`].
//!
//! At the paper's operating points (p ~ 1e-3) most shots carry an all-zero
//! detector frame and many of the rest repeat a handful of low-weight
//! syndromes, so a chunk rarely contains as many *distinct* decoding problems
//! as it contains shots. [`decode_shots_cached`] exploits that in two stacked
//! layers, both decoder-agnostic:
//!
//! 1. **Zero-syndrome fast path** — all-zero frames are word-tested
//!    ([`BitVec::is_zero`], O(words)) and short-circuited to the decoder's
//!    zero correction, computed once per call, before any decoding runs.
//! 2. **Syndrome-dedup cache** — the remaining syndromes are grouped by
//!    content ([`BitVec::hash_words`] buckets, verified by word equality),
//!    each *distinct* syndrome is decoded once, and the prediction is fanned
//!    back out to every shot sharing it.
//!
//! Determinism: distinct syndromes are decoded in first-occurrence order
//! within the call, the hash map is used for *lookup only* (never iterated),
//! and every prediction is a pure function of its syndrome — so the output
//! (and the [`DecodeStats`] tallies) are a pure function of the input shot
//! sequence, bit-identical at any thread count. The strict batch contract
//! (`output[i] == decoder.decode(&shots[i])` for every `i`) is preserved by
//! construction and pinned by the engine-parity tests and the in-bin
//! `frame_bench` parity assert.

use crate::Decoder;
use prophunt_gf2::BitVec;
use std::collections::HashMap;

/// Whether the batch decode pipeline may use the zero-syndrome fast path and
/// the per-chunk syndrome-dedup cache.
///
/// The cache is bit-identity-preserving by construction, so this knob exists
/// to make that claim *checkable* (CI compares failure counts both ways) and
/// to provide a reference timing path; [`DecodeCache::On`] is the default
/// everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecodeCache {
    /// Zero fast path + syndrome dedup in front of the decoder (default).
    #[default]
    On,
    /// Plain [`Decoder::decode_batch`] on every shot (the reference path).
    Off,
}

impl DecodeCache {
    /// A stable machine-readable name (used in report records and CLI flags).
    pub fn as_str(&self) -> &'static str {
        match self {
            DecodeCache::On => "on",
            DecodeCache::Off => "off",
        }
    }

    /// Parses the name produced by [`DecodeCache::as_str`].
    pub fn parse(name: &str) -> Option<DecodeCache> {
        match name {
            "on" => Some(DecodeCache::On),
            "off" => Some(DecodeCache::Off),
            _ => None,
        }
    }
}

impl std::str::FromStr for DecodeCache {
    type Err = String;

    fn from_str(s: &str) -> Result<DecodeCache, String> {
        DecodeCache::parse(s).ok_or_else(|| format!("unknown decode-cache '{s}' (expected on|off)"))
    }
}

impl std::fmt::Display for DecodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-call tallies of the batch decode pipeline, the source of the
/// deterministic `ler.decode.*` counters.
///
/// Every field is a pure function of the input shot sequence (never of the
/// thread count or the clock). `zero + cache_hits + cache_misses` equals the
/// shot count when the cache is on; with the cache off only the decoder-side
/// fields (`bp_converged`, `osd_calls`) are populated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeStats {
    /// Shots short-circuited by the zero-syndrome fast path.
    pub zero: usize,
    /// Shots resolved by an earlier identical syndrome in the same call.
    pub cache_hits: usize,
    /// Distinct non-zero syndromes actually decoded.
    pub cache_misses: usize,
    /// Decoded syndromes where BP converged (BP+OSD decoders only).
    pub bp_converged: usize,
    /// Decoded syndromes that fell through to OSD (BP+OSD decoders only).
    pub osd_calls: usize,
}

impl DecodeStats {
    /// Accumulates another call's tallies into `self`.
    pub fn merge(&mut self, other: DecodeStats) {
        self.zero += other.zero;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.bp_converged += other.bp_converged;
        self.osd_calls += other.osd_calls;
    }
}

/// Sentinel in the per-shot assignment table for "zero syndrome".
const ZERO_LANE: usize = usize::MAX;

/// Decodes a chunk of shots through the batch pipeline, returning one
/// prediction per shot (in order) plus the pipeline's [`DecodeStats`].
///
/// With [`DecodeCache::On`] the zero-syndrome fast path and the syndrome-dedup
/// cache run in front of [`Decoder::decode_batch`]; with
/// [`DecodeCache::Off`] every shot goes straight to the decoder. Both paths
/// satisfy `output[i] == decoder.decode(&shots[i])` bit-for-bit.
pub fn decode_shots_cached(
    decoder: &dyn Decoder,
    shots: &[BitVec],
    cache: DecodeCache,
) -> (Vec<BitVec>, DecodeStats) {
    if cache == DecodeCache::Off {
        let (predictions, batch) = decoder.decode_batch(shots);
        let stats = DecodeStats {
            bp_converged: batch.bp_converged,
            osd_calls: batch.osd_calls,
            ..DecodeStats::default()
        };
        return (predictions, stats);
    }
    let mut stats = DecodeStats::default();
    // assign[i]: ZERO_LANE for zero syndromes, else the index (in
    // first-occurrence order) of shot i's distinct syndrome.
    let mut assign = vec![ZERO_LANE; shots.len()];
    let mut distinct: Vec<usize> = Vec::new();
    // Hash buckets hold indices into `distinct` and are chained on word
    // equality; the map is only ever *looked up* by key, never iterated, so
    // its internal order can't leak into results (lint rule no-hash-iter).
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, shot) in shots.iter().enumerate() {
        if shot.is_zero() {
            stats.zero += 1;
            continue;
        }
        let bucket = buckets.entry(shot.hash_words()).or_default();
        match bucket
            .iter()
            .copied()
            .find(|&j| &shots[distinct[j]] == shot)
        {
            Some(j) => {
                stats.cache_hits += 1;
                assign[i] = j;
            }
            None => {
                let j = distinct.len();
                distinct.push(i);
                bucket.push(j);
                stats.cache_misses += 1;
                assign[i] = j;
            }
        }
    }
    let distinct_shots: Vec<BitVec> = distinct.iter().map(|&i| shots[i].clone()).collect();
    let (predictions, batch) = decoder.decode_batch(&distinct_shots);
    stats.bp_converged = batch.bp_converged;
    stats.osd_calls = batch.osd_calls;
    // The zero correction is itself a pure function of the decoder, computed
    // once per call (decoders short-circuit all-zero syndromes internally, so
    // this is O(observables)).
    let zero_prediction =
        (stats.zero > 0).then(|| decoder.decode(&BitVec::zeros(decoder.num_detectors())));
    let out = assign
        .iter()
        .map(|&a| {
            if a == ZERO_LANE {
                zero_prediction
                    .clone()
                    .expect("zero prediction computed whenever a zero syndrome was seen")
            } else {
                predictions[a].clone()
            }
        })
        .collect();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BpOsdDecoder, UnionFindDecoder};
    use prophunt_circuit::schedule::ScheduleSpec;
    use prophunt_circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
    use prophunt_qec::surface::rotated_surface_code_with_layout;

    fn surface_dem(d: usize, p: f64) -> DetectorErrorModel {
        let (code, layout) = rotated_surface_code_with_layout(d);
        let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        let exp = MemoryExperiment::build(&code, &schedule, d, MemoryBasis::Z).unwrap();
        DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p))
    }

    #[test]
    fn decode_cache_names_round_trip_and_default_is_on() {
        assert_eq!(DecodeCache::default(), DecodeCache::On);
        for cache in [DecodeCache::On, DecodeCache::Off] {
            assert_eq!(DecodeCache::parse(cache.as_str()), Some(cache));
            assert_eq!(cache.as_str().parse::<DecodeCache>(), Ok(cache));
            assert_eq!(cache.to_string(), cache.as_str());
        }
        assert_eq!(DecodeCache::parse("maybe"), None);
        assert!("maybe".parse::<DecodeCache>().is_err());
    }

    #[test]
    fn cached_and_uncached_predictions_match_per_shot_decode() {
        let dem = surface_dem(3, 1e-2);
        let decoder = BpOsdDecoder::new(&dem);
        let mut sampler = dem.sampler(17);
        let shots: Vec<BitVec> = (0..100).map(|_| sampler.sample().0).collect();
        for cache in [DecodeCache::On, DecodeCache::Off] {
            let (predictions, _) = decode_shots_cached(&decoder, &shots, cache);
            assert_eq!(predictions.len(), shots.len());
            for (i, (shot, prediction)) in shots.iter().zip(&predictions).enumerate() {
                assert_eq!(&decoder.decode(shot), prediction, "{cache}: shot {i}");
            }
        }
    }

    #[test]
    fn stats_partition_the_chunk_and_pin_fanout_ordering() {
        // A crafted chunk: zero syndromes interleaved with duplicates, so the
        // first-occurrence dedup order and the fan-out are both exercised.
        let dem = surface_dem(3, 1e-2);
        let decoder = BpOsdDecoder::new(&dem);
        let zero = BitVec::zeros(dem.num_detectors());
        let mut sampler = dem.sampler(23);
        let (a, b) = loop {
            let s1 = sampler.sample().0;
            let s2 = sampler.sample().0;
            if !s1.is_zero() && !s2.is_zero() && s1 != s2 {
                break (s1, s2);
            }
        };
        let shots = vec![
            zero.clone(),
            a.clone(),
            b.clone(),
            a.clone(),
            zero.clone(),
            a.clone(),
            b.clone(),
        ];
        let (predictions, stats) = decode_shots_cached(&decoder, &shots, DecodeCache::On);
        assert_eq!(stats.zero, 2);
        assert_eq!(stats.cache_misses, 2, "a and b are the distinct syndromes");
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(
            stats.zero + stats.cache_hits + stats.cache_misses,
            shots.len()
        );
        // Fan-out: duplicates get the first occurrence's prediction object.
        assert_eq!(predictions[1], predictions[3]);
        assert_eq!(predictions[3], predictions[5]);
        assert_eq!(predictions[2], predictions[6]);
        assert_eq!(predictions[0], predictions[4]);
        assert_eq!(predictions[0], decoder.decode(&zero));
        for (shot, prediction) in shots.iter().zip(&predictions) {
            assert_eq!(&decoder.decode(shot), prediction);
        }
    }

    #[test]
    fn cache_works_for_any_decoder_including_union_find() {
        let dem = surface_dem(3, 2e-2);
        let decoder = UnionFindDecoder::new(&dem);
        let mut sampler = dem.sampler(5);
        let shots: Vec<BitVec> = (0..80).map(|_| sampler.sample().0).collect();
        let (on, stats) = decode_shots_cached(&decoder, &shots, DecodeCache::On);
        let (off, _) = decode_shots_cached(&decoder, &shots, DecodeCache::Off);
        assert_eq!(on, off);
        assert_eq!(
            stats.zero + stats.cache_hits + stats.cache_misses,
            shots.len()
        );
        // Union-find reports no BP/OSD stats.
        assert_eq!(stats.bp_converged, 0);
        assert_eq!(stats.osd_calls, 0);
    }

    #[test]
    fn empty_chunk_is_a_no_op() {
        let dem = surface_dem(3, 1e-3);
        let decoder = BpOsdDecoder::new(&dem);
        let (predictions, stats) = decode_shots_cached(&decoder, &[], DecodeCache::On);
        assert!(predictions.is_empty());
        assert_eq!(stats, DecodeStats::default());
    }
}
