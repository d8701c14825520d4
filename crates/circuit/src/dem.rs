//! Detector error models: static propagation of every circuit fault into the
//! circuit-level check matrix `H` and observable matrix `L`, plus Monte-Carlo sampling.
//!
//! This is the circuit-level model of the paper's Section 2.7: each elementary fault the
//! noise model can inject is propagated (deterministically, using the CNOT propagation
//! rules of Figure 3b) through the remainder of the circuit, and recorded by the set of
//! detectors and logical observables it flips. Faults with identical signatures are
//! merged into a single *error mechanism* with a combined probability. The resulting
//! bipartite structure (error mechanisms vs. detectors) is exactly the decoding graph
//! PropHunt's ambiguity analysis walks over.

use crate::builder::MemoryExperiment;
use crate::noise::{Fault, NoiseModel, SparsePauli};
use crate::ops::Op;
use prophunt_gf2::{BitMatrix, BitVec};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// The circuit fault (or one of several merged faults) behind an [`ErrorMechanism`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSource {
    /// Moment index of the faulty operation.
    pub moment: usize,
    /// The operation the fault is attached to.
    pub op: Op,
    /// The injected Pauli error.
    pub error: SparsePauli,
}

/// One column of the detector error model: a set of detectors and observables flipped
/// together with some probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorMechanism {
    /// Probability that this mechanism fires in one shot.
    pub probability: f64,
    /// Sorted detector indices flipped by the mechanism.
    pub detectors: Vec<usize>,
    /// Sorted observable indices flipped by the mechanism.
    pub observables: Vec<usize>,
    /// The circuit faults merged into this mechanism.
    pub sources: Vec<FaultSource>,
}

impl ErrorMechanism {
    /// Returns `true` if the mechanism flips at least one logical observable.
    pub fn flips_observable(&self) -> bool {
        !self.observables.is_empty()
    }
}

/// The detector error model of a noisy memory experiment.
///
/// Rows of [`DetectorErrorModel::h_matrix`] are detectors, columns are error mechanisms;
/// rows of [`DetectorErrorModel::l_matrix`] are logical observables.
#[derive(Debug, Clone)]
pub struct DetectorErrorModel {
    num_detectors: usize,
    num_observables: usize,
    errors: Vec<ErrorMechanism>,
    /// Flattened mechanism tables shared by every [`DemSampler`] over this
    /// model, built on first use: [`DetectorErrorModel::sampler`] is called
    /// once per Monte-Carlo *chunk*, so it must not copy the mechanism list.
    sampler_tables: std::sync::OnceLock<std::sync::Arc<SamplerTables>>,
}

impl DetectorErrorModel {
    /// Builds the detector error model of `experiment` under `noise` by enumerating and
    /// propagating every elementary fault.
    pub fn from_experiment(experiment: &MemoryExperiment, noise: &NoiseModel) -> Self {
        let faults = noise.enumerate_faults(&experiment.circuit);
        Self::from_faults(experiment, &faults)
    }

    /// Builds a detector error model from an explicit fault list (used by tests and by
    /// effective-distance analyses that want unit-probability faults).
    pub fn from_faults(experiment: &MemoryExperiment, faults: &[Fault]) -> Self {
        let circuit = &experiment.circuit;
        let num_qubits = circuit.num_qubits();

        // Measurement index of each (moment, op_index).
        let mut meas_index: Vec<Vec<usize>> = Vec::with_capacity(circuit.num_moments());
        let mut counter = 0usize;
        for moment in circuit.moments() {
            let mut row = Vec::with_capacity(moment.len());
            for op in moment {
                if op.is_measurement() {
                    row.push(counter);
                    counter += 1;
                } else {
                    row.push(usize::MAX);
                }
            }
            meas_index.push(row);
        }

        // Membership maps from measurement index to detectors / observables.
        let mut meas_to_detectors: Vec<Vec<usize>> = vec![Vec::new(); counter];
        for (d, members) in experiment.detectors.iter().enumerate() {
            for &m in members {
                meas_to_detectors[m].push(d);
            }
        }
        let mut meas_to_observables: Vec<Vec<usize>> = vec![Vec::new(); counter];
        for (o, members) in experiment.observables.iter().enumerate() {
            for &m in members {
                meas_to_observables[m].push(o);
            }
        }

        let mut frame_x = vec![false; num_qubits];
        let mut frame_z = vec![false; num_qubits];
        let mut touched: Vec<usize> = Vec::new();
        let mut merged: HashMap<(Vec<usize>, Vec<usize>), usize> = HashMap::new();
        let mut errors: Vec<ErrorMechanism> = Vec::new();

        for fault in faults {
            // Inject the error.
            for &(q, pauli) in &fault.error {
                if pauli.has_x() {
                    frame_x[q] = !frame_x[q];
                }
                if pauli.has_z() {
                    frame_z[q] = !frame_z[q];
                }
                touched.push(q);
            }

            // Propagate through the rest of the circuit, recording measurement flips.
            let mut flipped_meas: Vec<usize> = Vec::new();
            let start_op = if fault.pre_op {
                fault.op_index
            } else {
                fault.op_index.saturating_add(1)
            };
            for mi in fault.moment..circuit.num_moments() {
                let ops = circuit.moment(mi);
                let first = if mi == fault.moment {
                    start_op.min(ops.len())
                } else {
                    0
                };
                for (oi, op) in ops.iter().enumerate().skip(first) {
                    match *op {
                        Op::Cnot(c, t) => {
                            if frame_x[c] {
                                frame_x[t] = !frame_x[t];
                                touched.push(t);
                            }
                            if frame_z[t] {
                                frame_z[c] = !frame_z[c];
                                touched.push(c);
                            }
                        }
                        Op::H(q) => {
                            let (x, z) = (frame_x[q], frame_z[q]);
                            frame_x[q] = z;
                            frame_z[q] = x;
                        }
                        Op::ResetZ(q) | Op::ResetX(q) => {
                            frame_x[q] = false;
                            frame_z[q] = false;
                        }
                        Op::MeasureZ(q) => {
                            if frame_x[q] {
                                flipped_meas.push(meas_index[mi][oi]);
                            }
                        }
                        Op::MeasureX(q) => {
                            if frame_z[q] {
                                flipped_meas.push(meas_index[mi][oi]);
                            }
                        }
                    }
                }
            }

            // Clear the frame for the next fault.
            for &q in &touched {
                frame_x[q] = false;
                frame_z[q] = false;
            }
            touched.clear();

            // Convert measurement flips into detector / observable flips. BTreeMaps
            // keep the parity sets sorted by index, so the collected vectors come
            // out in canonical order directly.
            let mut det_parity: BTreeMap<usize, bool> = BTreeMap::new();
            let mut obs_parity: BTreeMap<usize, bool> = BTreeMap::new();
            for &m in &flipped_meas {
                for &d in &meas_to_detectors[m] {
                    *det_parity.entry(d).or_insert(false) ^= true;
                }
                for &o in &meas_to_observables[m] {
                    *obs_parity.entry(o).or_insert(false) ^= true;
                }
            }
            let detectors: Vec<usize> = det_parity
                .into_iter()
                .filter_map(|(d, on)| on.then_some(d))
                .collect();
            let observables: Vec<usize> = obs_parity
                .into_iter()
                .filter_map(|(o, on)| on.then_some(o))
                .collect();
            if detectors.is_empty() && observables.is_empty() {
                continue;
            }

            let source = FaultSource {
                moment: fault.moment,
                op: fault.op,
                error: fault.error.clone(),
            };
            let key = (detectors.clone(), observables.clone());
            match merged.get(&key) {
                Some(&idx) => {
                    let mech = &mut errors[idx];
                    mech.probability = mech.probability * (1.0 - fault.probability)
                        + fault.probability * (1.0 - mech.probability);
                    mech.sources.push(source);
                }
                None => {
                    merged.insert(key, errors.len());
                    errors.push(ErrorMechanism {
                        probability: fault.probability,
                        detectors,
                        observables,
                        sources: vec![source],
                    });
                }
            }
        }

        DetectorErrorModel {
            num_detectors: experiment.num_detectors(),
            num_observables: experiment.num_observables(),
            errors,
            sampler_tables: std::sync::OnceLock::new(),
        }
    }

    /// Rebuilds a detector error model from its serialized parts: detector/observable
    /// counts and an explicit mechanism list. This is the constructor behind the
    /// `prophunt-formats` `.dem` parser; mechanisms reconstructed from a file carry no
    /// [`FaultSource`]s (the file format does not record circuit provenance).
    ///
    /// Detector and observable index lists are sorted; mechanisms are kept in the given
    /// order and are *not* merged by signature.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CircuitError::InvalidErrorModel`] if any mechanism names a detector
    /// `>= num_detectors` or observable `>= num_observables`, repeats an index, or has a
    /// probability outside `[0, 1]`.
    pub fn from_parts(
        num_detectors: usize,
        num_observables: usize,
        mut errors: Vec<ErrorMechanism>,
    ) -> Result<Self, crate::CircuitError> {
        let invalid = |reason: String| crate::CircuitError::InvalidErrorModel { reason };
        for (i, err) in errors.iter_mut().enumerate() {
            if !(0.0..=1.0).contains(&err.probability) {
                return Err(invalid(format!(
                    "error mechanism {i} has probability {} outside [0, 1]",
                    err.probability
                )));
            }
            err.detectors.sort_unstable();
            err.observables.sort_unstable();
            if err.detectors.windows(2).any(|w| w[0] == w[1]) {
                return Err(invalid(format!("error mechanism {i} repeats a detector")));
            }
            if err.observables.windows(2).any(|w| w[0] == w[1]) {
                return Err(invalid(format!(
                    "error mechanism {i} repeats an observable"
                )));
            }
            if let Some(&d) = err.detectors.last() {
                if d >= num_detectors {
                    return Err(invalid(format!(
                        "error mechanism {i} flips detector {d} but the model has {num_detectors}"
                    )));
                }
            }
            if let Some(&o) = err.observables.last() {
                if o >= num_observables {
                    return Err(invalid(format!(
                        "error mechanism {i} flips observable {o} but the model has {num_observables}"
                    )));
                }
            }
        }
        Ok(DetectorErrorModel {
            num_detectors,
            num_observables,
            errors,
            sampler_tables: std::sync::OnceLock::new(),
        })
    }

    /// Returns `true` if `self` and `other` describe the same error distribution: equal
    /// detector/observable counts and, mechanism by mechanism *in order*, bit-identical
    /// probabilities and identical detector/observable signatures.
    ///
    /// Fault provenance ([`ErrorMechanism::sources`]) is deliberately ignored — it is
    /// what the `.dem` file format cannot carry, and it does not affect sampling or
    /// decoding. Two models equal under this predicate produce identical
    /// [`DemSampler`] streams for every seed.
    pub fn same_distribution(&self, other: &Self) -> bool {
        self.num_detectors == other.num_detectors
            && self.num_observables == other.num_observables
            && self.errors.len() == other.errors.len()
            && self.errors.iter().zip(other.errors.iter()).all(|(a, b)| {
                a.probability.to_bits() == b.probability.to_bits()
                    && a.detectors == b.detectors
                    && a.observables == b.observables
            })
    }

    /// Returns the number of detectors (rows of `H`).
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Returns the number of logical observables (rows of `L`).
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Returns the number of distinct error mechanisms (columns of `H` and `L`).
    pub fn num_errors(&self) -> usize {
        self.errors.len()
    }

    /// Returns the error mechanisms.
    pub fn errors(&self) -> &[ErrorMechanism] {
        &self.errors
    }

    /// Returns error mechanism `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn error(&self, index: usize) -> &ErrorMechanism {
        &self.errors[index]
    }

    /// Returns the circuit-level check matrix `H` (detectors × error mechanisms).
    pub fn h_matrix(&self) -> BitMatrix {
        let mut m = BitMatrix::zeros(self.num_detectors, self.errors.len());
        for (col, err) in self.errors.iter().enumerate() {
            for &d in &err.detectors {
                m.set(d, col, true);
            }
        }
        m
    }

    /// Returns the circuit-level observable matrix `L` (observables × error mechanisms).
    pub fn l_matrix(&self) -> BitMatrix {
        let mut m = BitMatrix::zeros(self.num_observables, self.errors.len());
        for (col, err) in self.errors.iter().enumerate() {
            for &o in &err.observables {
                m.set(o, col, true);
            }
        }
        m
    }

    /// Returns, for each detector, the indices of error mechanisms that flip it — the
    /// adjacency used by subgraph expansion and by matching-style decoders.
    pub fn detector_to_errors(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_detectors];
        for (col, err) in self.errors.iter().enumerate() {
            for &d in &err.detectors {
                out[d].push(col);
            }
        }
        out
    }

    /// Creates a Monte-Carlo sampler over this model with the given seed.
    ///
    /// The first call flattens the mechanism list into shared `SamplerTables`;
    /// every subsequent call is O(1) (an [`std::sync::Arc`] clone plus RNG
    /// seeding). The estimation engine creates one sampler per chunk, so this
    /// must stay cheap.
    pub fn sampler(&self, seed: u64) -> DemSampler {
        let tables = self
            .sampler_tables
            .get_or_init(|| std::sync::Arc::new(SamplerTables::build(&self.errors)));
        DemSampler {
            tables: std::sync::Arc::clone(tables),
            num_detectors: self.num_detectors,
            num_observables: self.num_observables,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

/// The mechanism list of a [`DetectorErrorModel`] flattened into CSR-style
/// arrays for sampling: per-mechanism probability plus the concatenated
/// detector and observable signatures. Built once per model and shared by all
/// its samplers.
#[derive(Debug)]
struct SamplerTables {
    probabilities: Vec<f64>,
    det_offsets: Vec<u32>,
    det_indices: Vec<u32>,
    obs_offsets: Vec<u32>,
    obs_indices: Vec<u32>,
    /// Mechanisms grouped by bit-identical probability, for the frame engine's
    /// grouped sampling paths (frame XORs commute, so sampling mechanisms in
    /// group order draws the same per-mechanism law as mechanism order).
    groups: Vec<SampleGroup>,
}

/// A set of mechanisms sharing one probability, with the sampling strategy the
/// frame engine uses for it.
#[derive(Debug)]
struct SampleGroup {
    probability: f64,
    /// `1 / ln(1 - p)` for the geometric-skip path, chosen for rare
    /// mechanisms; `None` selects the per-mechanism Bernoulli-word path.
    inv_ln_q: Option<f64>,
    /// Mechanism indices, ascending.
    mechs: Vec<u32>,
}

/// Below this probability the frame engine samples a group by geometric
/// skipping over (mechanism, lane) trials — expected cost proportional to the
/// number of *fired* events — instead of drawing a Bernoulli word per
/// mechanism.
pub const GEOMETRIC_SKIP_MAX_P: f64 = 0.02;

impl SamplerTables {
    fn build(errors: &[ErrorMechanism]) -> Self {
        let mut tables = SamplerTables {
            probabilities: Vec::with_capacity(errors.len()),
            det_offsets: Vec::with_capacity(errors.len() + 1),
            det_indices: Vec::new(),
            obs_offsets: Vec::with_capacity(errors.len() + 1),
            obs_indices: Vec::new(),
            groups: Vec::new(),
        };
        tables.det_offsets.push(0);
        tables.obs_offsets.push(0);
        let mut group_of: HashMap<u64, usize> = HashMap::new();
        for (i, err) in errors.iter().enumerate() {
            let p = err.probability;
            tables.probabilities.push(p);
            for &d in &err.detectors {
                tables
                    .det_indices
                    .push(u32::try_from(d).expect("detector index fits u32"));
            }
            for &o in &err.observables {
                tables
                    .obs_indices
                    .push(u32::try_from(o).expect("observable index fits u32"));
            }
            tables.det_offsets.push(tables.det_indices.len() as u32);
            tables.obs_offsets.push(tables.obs_indices.len() as u32);
            if p <= 0.0 {
                // Never fires; keep it out of the frame path entirely.
                continue;
            }
            let gi = *group_of.entry(p.to_bits()).or_insert_with(|| {
                let inv_ln_q = (p < GEOMETRIC_SKIP_MAX_P).then(|| (1.0 - p).ln().recip());
                tables.groups.push(SampleGroup {
                    probability: p,
                    inv_ln_q,
                    mechs: Vec::new(),
                });
                tables.groups.len() - 1
            });
            tables.groups[gi]
                .mechs
                .push(u32::try_from(i).expect("mechanism index fits u32"));
        }
        tables
    }

    fn detectors(&self, i: usize) -> &[u32] {
        &self.det_indices[self.det_offsets[i] as usize..self.det_offsets[i + 1] as usize]
    }

    fn observables(&self, i: usize) -> &[u32] {
        &self.obs_indices[self.obs_offsets[i] as usize..self.obs_offsets[i + 1] as usize]
    }
}

/// Samples detector/observable outcomes from a [`DetectorErrorModel`].
///
/// Sampling happens directly in detector space: each error mechanism fires independently
/// with its probability and XORs its detector and observable signature into the shot,
/// which is equivalent to Pauli-frame simulation of the underlying circuit noise.
#[derive(Debug, Clone)]
pub struct DemSampler {
    tables: std::sync::Arc<SamplerTables>,
    num_detectors: usize,
    num_observables: usize,
    rng: SmallRng,
}

impl DemSampler {
    /// Samples one shot, returning `(detector outcomes, observable flips, fired errors)`.
    pub fn sample_with_errors(&mut self) -> (BitVec, BitVec, Vec<usize>) {
        let mut dets = BitVec::zeros(self.num_detectors);
        let mut obs = BitVec::zeros(self.num_observables);
        let mut fired = Vec::new();
        let tables = &self.tables;
        for (i, &p) in tables.probabilities.iter().enumerate() {
            if self.rng.gen_bool(p) {
                fired.push(i);
                for &d in tables.detectors(i) {
                    dets.flip(d as usize);
                }
                for &o in tables.observables(i) {
                    obs.flip(o as usize);
                }
            }
        }
        (dets, obs, fired)
    }

    /// Samples one shot, returning `(detector outcomes, observable flips)`.
    pub fn sample(&mut self) -> (BitVec, BitVec) {
        let (d, o, _) = self.sample_with_errors();
        (d, o)
    }

    /// Samples one shot into caller-provided buffers, avoiding the per-shot
    /// allocations of [`DemSampler::sample`].
    ///
    /// Draws exactly the same RNG stream as [`DemSampler::sample`] (one
    /// [`Rng::gen_bool`] per mechanism, in mechanism order), so a sampler
    /// advanced through either method produces identical shots. The buffers are
    /// cleared before sampling.
    ///
    /// # Panics
    ///
    /// Panics if `dets` / `obs` do not have exactly `num_detectors` /
    /// `num_observables` bits.
    pub fn sample_into(&mut self, dets: &mut BitVec, obs: &mut BitVec) {
        assert_eq!(dets.len(), self.num_detectors, "detector buffer length");
        assert_eq!(obs.len(), self.num_observables, "observable buffer length");
        dets.clear();
        obs.clear();
        let tables = &self.tables;
        for (i, &p) in tables.probabilities.iter().enumerate() {
            if self.rng.gen_bool(p) {
                for &d in tables.detectors(i) {
                    dets.flip(d as usize);
                }
                for &o in tables.observables(i) {
                    obs.flip(o as usize);
                }
            }
        }
    }

    /// Samples up to 64 shots at once into detector-major *frame* buffers: bit
    /// `lane` of `det_frames[d]` (resp. `obs_frames[o]`) is detector `d`
    /// (observable `o`) of shot-lane `lane`.
    ///
    /// This is the bit-parallel sampling kernel of the frame engine.
    /// Mechanisms are visited grouped by probability (frame XORs commute, so
    /// the sampled law is unchanged by the reordering), and each group uses the
    /// cheaper of two strategies:
    ///
    /// - *rare* groups (`p < GEOMETRIC_SKIP_MAX_P`) geometrically skip
    ///   across the group's (mechanism, lane) trial sequence, so the expected
    ///   cost is proportional to the number of events that actually *fire*
    ///   rather than to the mechanism count;
    /// - the remaining groups draw a fired-lane *word* per mechanism — one
    ///   exact `Bernoulli(p)` bit per lane in expected `~log2(lanes)` RNG
    ///   draws, by comparing each lane's implicit uniform variate against the
    ///   binary expansion of `p`.
    ///
    /// Fired events XOR the mechanism's detector and observable signature into
    /// the fired lanes. The RNG stream is therefore laid out group- and
    /// mechanism-major, unlike the shot-major stream of [`DemSampler::sample`]
    /// — each layout is deterministic per seed, but the two produce
    /// different (equally valid) shot sequences.
    ///
    /// The frame buffers are cleared before sampling; lanes `>= lanes` stay
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or greater than 64, or if the buffer lengths
    /// differ from `num_detectors` / `num_observables`.
    pub fn sample_frames(&mut self, lanes: usize, det_frames: &mut [u64], obs_frames: &mut [u64]) {
        assert!((1..=64).contains(&lanes), "lanes must be in 1..=64");
        assert_eq!(det_frames.len(), self.num_detectors, "detector frame rows");
        assert_eq!(
            obs_frames.len(),
            self.num_observables,
            "observable frame rows"
        );
        det_frames.fill(0);
        obs_frames.fill(0);
        let lane_mask = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        let tables = &self.tables;
        for group in &tables.groups {
            if let Some(inv_ln_q) = group.inv_ln_q {
                // Geometric skipping: trial index t runs mechanism-major over
                // the group's (mechanism, lane) pairs; each skip length is the
                // number of non-firing trials before the next firing one.
                let total = group.mechs.len() as u64 * lanes as u64;
                let mut t = 0u64;
                loop {
                    // 53 high bits -> uniform f64 in (0, 1].
                    let u =
                        1.0 - ((self.rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
                    t = t.saturating_add((u.ln() * inv_ln_q) as u64);
                    if t >= total {
                        break;
                    }
                    let mech = group.mechs[t as usize / lanes] as usize;
                    let fired = 1u64 << (t as usize % lanes);
                    for &d in tables.detectors(mech) {
                        det_frames[d as usize] ^= fired;
                    }
                    for &o in tables.observables(mech) {
                        obs_frames[o as usize] ^= fired;
                    }
                    t += 1;
                }
            } else {
                for &mech in &group.mechs {
                    let fired = bernoulli_word(&mut self.rng, group.probability, lane_mask);
                    if fired != 0 {
                        for &d in tables.detectors(mech as usize) {
                            det_frames[d as usize] ^= fired;
                        }
                        for &o in tables.observables(mech as usize) {
                            obs_frames[o as usize] ^= fired;
                        }
                    }
                }
            }
        }
    }

    /// Returns the number of detectors per shot.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Returns the number of observables per shot.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }
}

/// Draws a word of independent exact `Bernoulli(p)` bits, one per set bit of
/// `lane_mask` (clear lanes stay 0).
///
/// Each lane conceptually holds a uniform variate `U` built from the lane's
/// bits of successive `u64` draws (most significant first) and fires iff
/// `U < p`. Scanning the binary expansion of `p` one bit at a time decides
/// every lane as soon as its `U` prefix differs from the prefix of `p`:
/// each round halves the undecided set in expectation, so the expected number
/// of draws is `~log2(lanes) + 2` regardless of `p`. Every `f64` in `[0, 1)`
/// is dyadic, so lanes still undecided when the expansion is exhausted have
/// `U >= p` and do not fire — the per-lane law is *exactly* `Bernoulli(p)`,
/// not an approximation.
fn bernoulli_word(rng: &mut SmallRng, p: f64, lane_mask: u64) -> u64 {
    if p >= 1.0 {
        return lane_mask;
    }
    let mut fired = 0u64;
    let mut undecided = lane_mask;
    // Remaining binary expansion of p: doubling and subtracting 1 are exact
    // on f64, so the bits come out unrounded.
    let mut rest = p;
    while rest > 0.0 && undecided != 0 {
        let draw = rng.next_u64();
        rest *= 2.0;
        if rest >= 1.0 {
            // p-bit 1: lanes whose U-bit is 0 have U < p.
            rest -= 1.0;
            fired |= undecided & !draw;
            undecided &= draw;
        } else {
            // p-bit 0: lanes whose U-bit is 1 have U > p.
            undecided &= !draw;
        }
    }
    fired
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{MemoryBasis, MemoryExperiment};
    use crate::noise::Pauli;
    use crate::schedule::ScheduleSpec;
    use prophunt_qec::small::quantum_repetition_code;
    use prophunt_qec::surface::rotated_surface_code_with_layout;
    use prophunt_qec::StabilizerKind;

    fn d3_experiment(rounds: usize) -> (prophunt_qec::CssCode, MemoryExperiment) {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        let exp = MemoryExperiment::build(&code, &schedule, rounds, MemoryBasis::Z).unwrap();
        (code, exp)
    }

    #[test]
    fn noiseless_model_has_no_error_mechanisms() {
        let (_, exp) = d3_experiment(2);
        let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::noiseless());
        assert_eq!(dem.num_errors(), 0);
    }

    #[test]
    fn every_mechanism_flips_something_and_probabilities_are_sane() {
        let (_, exp) = d3_experiment(3);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3));
        assert!(dem.num_errors() > 100);
        for err in dem.errors() {
            assert!(!err.detectors.is_empty() || !err.observables.is_empty());
            assert!(err.probability > 0.0 && err.probability < 0.1);
            assert!(!err.sources.is_empty());
            assert!(err.detectors.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn mechanism_index_sets_are_sorted_and_extraction_is_reproducible() {
        // Regression pin for the det_parity/obs_parity HashMap -> BTreeMap
        // conversion: the per-mechanism index sets must come out of the parity
        // maps already in canonical ascending order (no post-sort pass exists any
        // more), and two independent extractions must agree mechanism-for-mechanism.
        let (_, exp) = d3_experiment(3);
        let noise = NoiseModel::uniform_depolarizing(1e-3);
        let dem_a = DetectorErrorModel::from_experiment(&exp, &noise);
        let dem_b = DetectorErrorModel::from_experiment(&exp, &noise);
        assert_eq!(dem_a.num_errors(), dem_b.num_errors());
        for (a, b) in dem_a.errors().iter().zip(dem_b.errors()) {
            assert!(a.detectors.windows(2).all(|w| w[0] < w[1]));
            assert!(a.observables.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(a.detectors, b.detectors);
            assert_eq!(a.observables, b.observables);
            assert_eq!(a.probability, b.probability);
        }
    }

    #[test]
    fn initial_data_x_error_flips_round_zero_z_detectors_and_observable() {
        let (code, exp) = d3_experiment(3);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3));
        // Find the mechanism sourced from an X error after the initial reset of data
        // qubit 4 (the central qubit, in the support of L_Z).
        let mech = dem
            .errors()
            .iter()
            .find(|e| {
                e.sources.iter().any(|s| {
                    s.moment == 0 && s.op == Op::ResetZ(4) && s.error == vec![(4, Pauli::X)]
                })
            })
            .expect("central data qubit reset fault must appear in the DEM");
        // It flips the two round-0 detectors of the Z stabilizers containing qubit 4 and
        // the logical observable.
        assert_eq!(mech.detectors.len(), 2);
        for &d in &mech.detectors {
            let info = exp.detector_info[d];
            assert_eq!(info.round, 0);
            let (kind, index) = exp.schedule.kind_index(info.stabilizer);
            assert_eq!(kind, StabilizerKind::Z);
            assert!(code
                .stabilizer_support(StabilizerKind::Z, index)
                .contains(&4));
        }
        assert_eq!(mech.observables, vec![0]);
    }

    #[test]
    fn ancilla_measurement_flip_gives_time_pair() {
        let (_, exp) = d3_experiment(4);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3));
        // A measurement flip on a Z ancilla in a middle round flips exactly the two
        // detectors comparing that round to its neighbours, and no observable.
        let mech = dem
            .errors()
            .iter()
            .find(|e| {
                e.sources.iter().any(|s| {
                    matches!(s.op, Op::MeasureZ(q) if q >= 9)
                        && exp.round_of_moment(s.moment) == Some(1)
                        && s.error.len() == 1
                })
            })
            .expect("ancilla measurement flip must appear");
        assert_eq!(mech.detectors.len(), 2);
        assert!(mech.observables.is_empty());
        let rounds: Vec<usize> = mech
            .detectors
            .iter()
            .map(|&d| exp.detector_info[d].round)
            .collect();
        assert_eq!(rounds, vec![1, 2]);
    }

    #[test]
    fn h_and_l_matrices_have_matching_shapes() {
        let (_, exp) = d3_experiment(2);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(2e-3));
        let h = dem.h_matrix();
        let l = dem.l_matrix();
        assert_eq!(h.num_rows(), exp.num_detectors());
        assert_eq!(h.num_cols(), dem.num_errors());
        assert_eq!(l.num_rows(), 1);
        assert_eq!(l.num_cols(), dem.num_errors());
        // detector_to_errors is the transpose adjacency of H.
        let adj = dem.detector_to_errors();
        for (d, errs) in adj.iter().enumerate() {
            for &e in errs {
                assert!(h.get(d, e));
            }
        }
    }

    #[test]
    fn no_single_mechanism_is_an_undetected_logical_error_for_good_schedule() {
        // With a valid schedule and d = 3, no single fault may flip the observable while
        // flipping no detector (that would mean d_eff = 1).
        let (_, exp) = d3_experiment(3);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3));
        for err in dem.errors() {
            assert!(
                !(err.detectors.is_empty() && err.flips_observable()),
                "found an undetectable single-fault logical error: {err:?}"
            );
        }
    }

    #[test]
    fn repetition_code_dem_is_a_repetition_decoding_graph() {
        let code = quantum_repetition_code(5);
        let schedule = ScheduleSpec::coloration(&code);
        let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(1e-3));
        // Every mechanism flips at most 2 detectors (the decoding graph is matchable).
        for err in dem.errors() {
            assert!(
                err.detectors.len() <= 2,
                "repetition DEM must be graph-like: {err:?}"
            );
        }
    }

    #[test]
    fn sampler_is_deterministic_per_seed_and_zero_for_zero_noise() {
        let (_, exp) = d3_experiment(2);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(5e-3));
        let mut a = dem.sampler(42);
        let mut b = dem.sampler(42);
        for _ in 0..20 {
            assert_eq!(a.sample(), b.sample());
        }
        let noiseless = DetectorErrorModel::from_experiment(&exp, &NoiseModel::noiseless());
        let mut s = noiseless.sampler(1);
        let (d, o) = s.sample();
        assert!(d.is_zero() && o.is_zero());
    }

    #[test]
    fn sample_into_matches_the_allocating_path_shot_for_shot() {
        let (_, exp) = d3_experiment(3);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(8e-3));
        let mut a = dem.sampler(13);
        let mut b = dem.sampler(13);
        let mut dets = BitVec::zeros(dem.num_detectors());
        let mut obs = BitVec::zeros(dem.num_observables());
        for _ in 0..50 {
            let (want_d, want_o) = a.sample();
            b.sample_into(&mut dets, &mut obs);
            assert_eq!(dets, want_d);
            assert_eq!(obs, want_o);
        }
    }

    #[test]
    fn sample_frames_is_deterministic_and_respects_lane_count() {
        let (_, exp) = d3_experiment(3);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(2e-2));
        let mut det_a = vec![0u64; dem.num_detectors()];
        let mut obs_a = vec![0u64; dem.num_observables()];
        let mut det_b = det_a.clone();
        let mut obs_b = obs_a.clone();
        dem.sampler(7).sample_frames(64, &mut det_a, &mut obs_a);
        dem.sampler(7).sample_frames(64, &mut det_b, &mut obs_b);
        assert_eq!(det_a, det_b);
        assert_eq!(obs_a, obs_b);
        assert!(det_a.iter().any(|&w| w != 0), "noise must flip something");
        // A partial word leaves lanes >= `lanes` zero in every row.
        let mut det_c = vec![0u64; dem.num_detectors()];
        let mut obs_c = vec![0u64; dem.num_observables()];
        dem.sampler(7).sample_frames(5, &mut det_c, &mut obs_c);
        assert!(det_c.iter().chain(obs_c.iter()).all(|&w| w >> 5 == 0));
    }

    #[test]
    fn sample_frames_of_a_certain_mechanism_flips_its_signature_in_every_lane() {
        // A single mechanism with probability 1 must fire in every lane.
        let dem = DetectorErrorModel::from_parts(
            3,
            2,
            vec![ErrorMechanism {
                probability: 1.0,
                detectors: vec![0, 2],
                observables: vec![1],
                sources: Vec::new(),
            }],
        )
        .unwrap();
        let mut det = vec![0u64; 3];
        let mut obs = vec![0u64; 2];
        dem.sampler(0).sample_frames(64, &mut det, &mut obs);
        assert_eq!(det, vec![u64::MAX, 0, u64::MAX]);
        assert_eq!(obs, vec![0, u64::MAX]);
        dem.sampler(0).sample_frames(3, &mut det, &mut obs);
        assert_eq!(det, vec![0b111, 0, 0b111]);
        assert_eq!(obs, vec![0, 0b111]);
    }

    #[test]
    fn bernoulli_word_is_exact_at_the_endpoints_and_unbiased_in_between() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(bernoulli_word(&mut rng, 0.0, u64::MAX), 0);
        assert_eq!(bernoulli_word(&mut rng, 1.0, u64::MAX), u64::MAX);
        assert_eq!(bernoulli_word(&mut rng, 1.0, 0b101), 0b101);
        // Clear lanes of the mask never fire.
        for _ in 0..100 {
            assert_eq!(bernoulli_word(&mut rng, 0.7, 0b1111) & !0b1111, 0);
        }
        // Empirical rate over many words tracks p to a few standard errors.
        for p in [0.001, 0.25, 0.5, 0.9] {
            let words = 4000usize;
            let ones: u32 = (0..words)
                .map(|_| bernoulli_word(&mut rng, p, u64::MAX).count_ones())
                .sum();
            let n = (words * 64) as f64;
            let rate = f64::from(ones) / n;
            let sigma = (p * (1.0 - p) / n).sqrt();
            assert!(
                (rate - p).abs() < 6.0 * sigma.max(1e-5),
                "p = {p}: empirical rate {rate} too far off"
            );
        }
    }

    #[test]
    fn frame_sampling_matches_scalar_sampling_statistics() {
        // The two sampling paths draw different streams (and the frame path mixes
        // geometric skipping with Bernoulli words), but the per-shot law is the
        // same — so the mean number of flipped detectors must agree.
        let (_, exp) = d3_experiment(3);
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(2e-2));
        let shots = 6400;
        let mut sampler = dem.sampler(13);
        let mut scalar_flips = 0usize;
        for _ in 0..shots {
            let (d, _) = sampler.sample();
            scalar_flips += d.weight();
        }
        let mut sampler = dem.sampler(99);
        let mut det = vec![0u64; dem.num_detectors()];
        let mut obs = vec![0u64; dem.num_observables()];
        let mut frame_flips = 0usize;
        for _ in 0..shots / 64 {
            sampler.sample_frames(64, &mut det, &mut obs);
            frame_flips += det.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        }
        let scalar_mean = scalar_flips as f64 / shots as f64;
        let frame_mean = frame_flips as f64 / shots as f64;
        assert!(
            (scalar_mean - frame_mean).abs() < 0.1 * scalar_mean,
            "scalar mean {scalar_mean} vs frame mean {frame_mean}"
        );
    }

    #[test]
    fn sampled_detector_rate_tracks_physical_error_rate() {
        let (_, exp) = d3_experiment(3);
        let p = 2e-2;
        let dem = DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p));
        let mut sampler = dem.sampler(7);
        let shots = 500;
        let mut flips = 0usize;
        for _ in 0..shots {
            let (d, _) = sampler.sample();
            flips += d.weight();
        }
        let mean = flips as f64 / shots as f64;
        // The expected number of flipped detectors per shot is of order
        // (total error probability); just check it is clearly nonzero and bounded.
        assert!(mean > 0.5 && mean < 50.0, "mean flipped detectors {mean}");
    }
}
