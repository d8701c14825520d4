//! Belief propagation with ordered-statistics post-processing (BP+OSD).

use crate::{BatchStats, Decoder};
use prophunt_circuit::DetectorErrorModel;
use prophunt_gf2::BitVec;

/// Lane width of the structure-of-arrays block BP core: how many syndromes
/// iterate min-sum together in one set of contiguous message arrays. Wide
/// enough to keep the per-edge lane loops vectorizable, narrow enough that a
/// block's messages stay cache-resident on the large LDPC models.
const BP_BLOCK_LANES: usize = 32;

/// Min-sum belief propagation over a detector error model's Tanner graph, followed by
/// ordered-statistics decoding (OSD-0) when BP alone does not reproduce the syndrome.
///
/// This is the decoder family the paper uses for LP and RQT codes (BP-LSD); it also
/// decodes matchable surface-code graphs, so the benchmark harness can use one decoder
/// implementation everywhere.
#[derive(Debug, Clone)]
pub struct BpOsdDecoder {
    /// error -> detectors
    error_detectors: Vec<Vec<usize>>,
    /// error -> observables
    error_observables: Vec<Vec<usize>>,
    /// prior log-likelihood ratios log((1-p)/p) per error
    priors: Vec<f64>,
    /// detector-signature -> most likely single mechanism with exactly that signature
    signature_lookup: std::collections::HashMap<Vec<usize>, usize>,
    num_detectors: usize,
    num_observables: usize,
    max_iterations: usize,
    scaling: f64,
}

impl BpOsdDecoder {
    /// Builds a decoder for the given detector error model with default parameters
    /// (30 min-sum iterations, normalization factor 0.8).
    pub fn new(dem: &DetectorErrorModel) -> Self {
        Self::with_parameters(dem, 30, 0.8)
    }

    /// Builds a decoder with explicit iteration count and min-sum normalization factor.
    pub fn with_parameters(dem: &DetectorErrorModel, max_iterations: usize, scaling: f64) -> Self {
        let error_detectors: Vec<Vec<usize>> =
            dem.errors().iter().map(|e| e.detectors.clone()).collect();
        let error_observables: Vec<Vec<usize>> =
            dem.errors().iter().map(|e| e.observables.clone()).collect();
        let priors: Vec<f64> = dem
            .errors()
            .iter()
            .map(|e| {
                let p = e.probability.clamp(1e-12, 0.5 - 1e-12);
                ((1.0 - p) / p).ln()
            })
            .collect();
        let mut signature_lookup = std::collections::HashMap::new();
        for (i, err) in dem.errors().iter().enumerate() {
            signature_lookup
                .entry(err.detectors.clone())
                .and_modify(|best: &mut usize| {
                    if dem.error(*best).probability < err.probability {
                        *best = i;
                    }
                })
                .or_insert(i);
        }
        BpOsdDecoder {
            error_detectors,
            error_observables,
            priors,
            signature_lookup,
            num_detectors: dem.num_detectors(),
            num_observables: dem.num_observables(),
            max_iterations,
            scaling,
        }
    }

    /// Runs min-sum BP; returns `(hard decision, posterior LLRs, converged)`.
    fn belief_propagation(&self, syndrome: &BitVec) -> (BitVec, Vec<f64>, bool) {
        let num_errors = self.priors.len();
        // Messages indexed by (error, position in error's detector list).
        let mut var_to_check: Vec<Vec<f64>> = self
            .error_detectors
            .iter()
            .enumerate()
            .map(|(e, dets)| vec![self.priors[e]; dets.len()])
            .collect();
        let mut check_to_var: Vec<Vec<f64>> = self
            .error_detectors
            .iter()
            .map(|dets| vec![0.0; dets.len()])
            .collect();
        // For check-side iteration we need, per detector, the list of (error, slot).
        let mut check_adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.num_detectors];
        for (e, dets) in self.error_detectors.iter().enumerate() {
            for (slot, &d) in dets.iter().enumerate() {
                check_adj[d].push((e, slot));
            }
        }

        let mut llr = vec![0.0f64; num_errors];
        let mut decision = BitVec::zeros(num_errors);
        for _ in 0..self.max_iterations {
            // Check update (min-sum with normalization).
            for (d, adj) in check_adj.iter().enumerate() {
                let target = if syndrome.get(d) { -1.0 } else { 1.0 };
                // Product of signs and two smallest magnitudes of incoming messages.
                let mut sign_product = target;
                let mut min1 = f64::INFINITY;
                let mut min2 = f64::INFINITY;
                let mut min_idx = usize::MAX;
                for (k, &(e, slot)) in adj.iter().enumerate() {
                    let m = var_to_check[e][slot];
                    if m < 0.0 {
                        sign_product = -sign_product;
                    }
                    let mag = m.abs();
                    if mag < min1 {
                        min2 = min1;
                        min1 = mag;
                        min_idx = k;
                    } else if mag < min2 {
                        min2 = mag;
                    }
                }
                for (k, &(e, slot)) in adj.iter().enumerate() {
                    let m = var_to_check[e][slot];
                    let sign = sign_product * if m < 0.0 { -1.0 } else { 1.0 };
                    let mag = if k == min_idx { min2 } else { min1 };
                    let mag = if mag.is_finite() { mag } else { 0.0 };
                    check_to_var[e][slot] = self.scaling * sign * mag;
                }
            }
            // Variable update and hard decision.
            for e in 0..num_errors {
                let total: f64 = self.priors[e] + check_to_var[e].iter().sum::<f64>();
                llr[e] = total;
                decision.set(e, total < 0.0);
                for (slot, _) in self.error_detectors[e].iter().enumerate() {
                    var_to_check[e][slot] = total - check_to_var[e][slot];
                }
            }
            if self.syndrome_of(&decision) == *syndrome {
                return (decision, llr, true);
            }
        }
        (decision, llr, false)
    }

    fn syndrome_of(&self, errors: &BitVec) -> BitVec {
        let mut s = BitVec::zeros(self.num_detectors);
        self.syndrome_of_into(errors, &mut s);
        s
    }

    fn syndrome_of_into(&self, errors: &BitVec, out: &mut BitVec) {
        out.clear();
        for e in errors.ones() {
            for &d in &self.error_detectors[e] {
                out.flip(d);
            }
        }
    }

    /// OSD-0: order columns by BP reliability (most likely error first), Gaussian
    /// eliminate to find a pivot basis, and solve for an error supported on the pivots.
    fn osd_zero(&self, syndrome: &BitVec, llr: &[f64]) -> BitVec {
        let num_errors = self.priors.len();
        let mut order: Vec<usize> = (0..num_errors).collect();
        order.sort_by(|&a, &b| {
            llr[a]
                .partial_cmp(&llr[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // Gaussian elimination over the column-permuted check matrix, carrying the
        // syndrome as an augmented column. Rows are detectors.
        // We store each row sparsely as a BitVec over the *ordered* columns, built lazily
        // column by column to avoid materialising the full matrix: standard elimination
        // on columns, keeping track of pivot rows.
        let mut pivot_row_of_col: Vec<Option<usize>> = Vec::with_capacity(self.num_detectors);
        let mut row_used = vec![false; self.num_detectors];
        // Row representation: for elimination we need full row operations; operate on the
        // transposed problem instead. Build matrix rows = detectors over ordered columns.
        let mut rows: Vec<BitVec> = vec![BitVec::zeros(num_errors); self.num_detectors];
        for (new_col, &e) in order.iter().enumerate() {
            for &d in &self.error_detectors[e] {
                rows[d].set(new_col, true);
            }
        }
        let mut rhs = syndrome.clone();
        let mut pivot_cols: Vec<(usize, usize)> = Vec::new(); // (column, pivot row)
        for col in 0..num_errors {
            if pivot_cols.len() == self.num_detectors {
                break;
            }
            // Find an unused row with a one in this column.
            let Some(pr) = (0..self.num_detectors).find(|&r| !row_used[r] && rows[r].get(col))
            else {
                pivot_row_of_col.push(None);
                continue;
            };
            row_used[pr] = true;
            pivot_cols.push((col, pr));
            pivot_row_of_col.push(Some(pr));
            let pivot = rows[pr].clone();
            let pivot_rhs = rhs.get(pr);
            for r in 0..self.num_detectors {
                if r != pr && rows[r].get(col) {
                    rows[r].xor_assign_with(&pivot);
                    if pivot_rhs {
                        rhs.flip(r);
                    }
                }
            }
        }
        // Solution: pivot column value = reduced rhs of its pivot row; others zero.
        let mut solution = BitVec::zeros(num_errors);
        for &(col, pr) in &pivot_cols {
            if rhs.get(pr) {
                solution.set(order[col], true);
            }
        }
        solution
    }

    /// Total prior weight of an error set (sum of `log((1-p)/p)`); lower is more likely.
    fn weight_of(&self, errors: &BitVec) -> f64 {
        errors.ones().map(|e| self.priors[e]).sum()
    }

    /// Predicts the physical error pattern (over error-mechanism indices) for a syndrome.
    ///
    /// Several candidate explanations are produced — the single mechanism with exactly
    /// this detector signature (if one exists), the BP hard decision when it reproduces
    /// the syndrome, and the OSD-0 solution — and the most likely (lowest prior weight)
    /// syndrome-consistent candidate is returned.
    pub fn decode_to_errors(&self, detectors: &BitVec) -> BitVec {
        if detectors.is_zero() {
            return BitVec::zeros(self.priors.len());
        }
        let mut candidates: Vec<BitVec> = Vec::with_capacity(3);
        let signature: Vec<usize> = detectors.ones().collect();
        if let Some(&single) = self.signature_lookup.get(&signature) {
            candidates.push(BitVec::from_indices(self.priors.len(), &[single]));
        }
        let (decision, llr, converged) = self.belief_propagation(detectors);
        if converged {
            candidates.push(decision);
        } else {
            candidates.push(self.osd_zero(detectors, &llr));
        }
        candidates
            .into_iter()
            .filter(|c| &self.syndrome_of(c) == detectors)
            .min_by(|a, b| {
                self.weight_of(a)
                    .partial_cmp(&self.weight_of(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or_else(|| BitVec::zeros(self.priors.len()))
    }

    fn observables_of(&self, errors: &BitVec) -> BitVec {
        let mut obs = BitVec::zeros(self.num_observables);
        for e in errors.ones() {
            for &o in &self.error_observables[e] {
                obs.flip(o);
            }
        }
        obs
    }

    /// Candidate selection for one non-zero syndrome given its block BP
    /// outcome: exactly the candidate set and weight tie-breaking of
    /// [`BpOsdDecoder::decode_to_errors`], with OSD-0 running over reusable
    /// scratch for the non-converged residue.
    fn decode_to_errors_from_bp(
        &self,
        detectors: &BitVec,
        outcome: LaneBp,
        s: &mut BpScratch,
    ) -> BitVec {
        let mut candidates: Vec<BitVec> = Vec::with_capacity(2);
        let signature: Vec<usize> = detectors.ones().collect();
        if let Some(&single) = self.signature_lookup.get(&signature) {
            candidates.push(BitVec::from_indices(self.priors.len(), &[single]));
        }
        match outcome {
            LaneBp::Converged(decision) => candidates.push(decision),
            LaneBp::Stuck(llr) => {
                s.llr.copy_from_slice(&llr);
                candidates.push(self.osd_zero_with_scratch(detectors, s));
            }
        }
        candidates
            .into_iter()
            .filter(|c| &self.syndrome_of(c) == detectors)
            .min_by(|a, b| {
                self.weight_of(a)
                    .partial_cmp(&self.weight_of(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or_else(|| BitVec::zeros(self.priors.len()))
    }

    /// Structure-of-arrays lane-parallel min-sum BP over a block of up to 64
    /// syndromes at once.
    ///
    /// The core is *message-free*: neither direction's messages are stored as
    /// f64 arrays. A check→variable message is always `scaling * sign * mag`
    /// with `sign`/`mag` drawn from its detector's per-iteration statistics
    /// (sign product, two smallest magnitudes, slot of the first minimum),
    /// and a variable→check message is always `posterior - that message`, so
    /// both passes reconstruct the exact f64 each scalar pass would have
    /// loaded — same expression trees, same operand order — from the
    /// posterior LLR array, the previous iteration's detector statistics, and
    /// one stored message *sign bit* per slot (a u64 lane bitmask). That
    /// shrinks the per-iteration streamed state from two O(slots × lanes)
    /// f64 arrays to an O(errors × lanes) f64 array plus one u64 per slot.
    ///
    /// Sign handling is exact: applying a stored sign bit is a conditional
    /// negation (select between `x` and `-x`), which commutes bit-for-bit
    /// with the scalar path's `if m < 0.0 { sign = -sign }` bookkeeping.
    /// The lane-inner loops are branch-free select chains over exact-length
    /// subslices (conditional moves, no data-dependent branches).
    ///
    /// Per lane, the floating-point operation sequence is *exactly* the one
    /// [`BpOsdDecoder::belief_propagation`] applies to that syndrome alone —
    /// checks in detector order, slots in detector-list order, the same
    /// select chains for the sign/min tracking — so each lane's hard decision
    /// and posterior LLRs are bit-identical to the per-shot path.
    ///
    /// Convergence is tracked word-parallel: per-error hard decisions become
    /// 64-lane bitmasks, the decision syndrome is accumulated by XOR per
    /// detector, and lanes whose decision syndrome matches their input
    /// syndrome are retired — their outcome snapshotted at the convergence
    /// iteration (matching the scalar early return) and the surviving lanes
    /// compacted so retired lanes cost nothing. Lanes still active after
    /// `max_iterations` come back as [`LaneBp::Stuck`] with their final LLRs
    /// for the OSD fallback.
    fn belief_propagation_block(
        &self,
        syndromes: &[&BitVec],
        graph: &BpScratch,
        s: &mut BpBlockScratch,
    ) -> Vec<Option<LaneBp>> {
        let num_errors = self.priors.len();
        let num_slots = *graph
            .slot_base
            .last()
            .expect("slot_base has num_errors + 1 entries");
        let mut l = syndromes.len();
        assert!(l <= 64, "at most 64 lanes per BP block, got {l}");
        let mut outcomes: Vec<Option<LaneBp>> = (0..l).map(|_| None).collect();
        if l == 0 {
            return outcomes;
        }
        s.lane_shot.clear();
        s.lane_shot.extend(0..l);
        // Initial state encodes "previous message = prior": the posterior
        // starts at the prior, and the statistics reconstruct a zero
        // check→variable message (positive sign, zero minima), so the first
        // check pass reads `prior - scaling * 1.0 * 0.0 = prior` — exactly
        // the scalar initialisation.
        s.msg_sign.clear();
        s.msg_sign.resize(num_slots, 0);
        s.llr.clear();
        s.llr.resize(num_errors * l, 0.0);
        for e in 0..num_errors {
            s.llr[e * l..e * l + l].fill(self.priors[e]);
        }
        s.dec_mask.clear();
        s.dec_mask.resize(num_errors, 0);
        s.syn_mask.clear();
        s.syn_mask.resize(self.num_detectors, 0);
        for (lane, syn) in syndromes.iter().enumerate() {
            for d in syn.ones() {
                s.syn_mask[d] |= 1u64 << lane;
            }
        }
        s.acc.clear();
        s.acc.resize(self.num_detectors, 0);
        s.sign.clear();
        s.sign.resize(self.num_detectors * l, 1.0);
        s.min1.clear();
        s.min1.resize(self.num_detectors * l, 0.0);
        s.min2.clear();
        s.min2.resize(self.num_detectors * l, 0.0);
        s.min_flat.clear();
        s.min_flat.resize(self.num_detectors * l, usize::MAX);
        s.tot.resize(l, 0.0);
        for _ in 0..self.max_iterations {
            // Check pass: reconstruct each incoming variable→check message as
            // `posterior - previous check→variable message` (the previous
            // message rebuilt from last iteration's statistics for this
            // detector plus the stored sign bit — the exact f64 the scalar
            // path stored), record the new sign bits, and fold the min-sum
            // statistics (sign product, two smallest magnitudes, flat slot of
            // the first minimum). Last iteration's statistics for this
            // detector are copied to the stack first so the main arrays can
            // become this iteration's accumulators in place. Lanes are
            // innermost over exact-length subslices so the compiler can drop
            // the bounds checks and vectorize.
            for (d, adj) in graph.check_adj.iter().enumerate() {
                let syn = s.syn_mask[d];
                let base = d * l;
                let mut psign = [0.0f64; 64];
                let mut pmin1 = [0.0f64; 64];
                let mut pmin2 = [0.0f64; 64];
                let mut pflat = [0usize; 64];
                psign[..l].copy_from_slice(&s.sign[base..base + l]);
                pmin1[..l].copy_from_slice(&s.min1[base..base + l]);
                pmin2[..l].copy_from_slice(&s.min2[base..base + l]);
                pflat[..l].copy_from_slice(&s.min_flat[base..base + l]);
                let psign = &psign[..l];
                let pmin1 = &pmin1[..l];
                let pmin2 = &pmin2[..l];
                let pflat = &pflat[..l];
                let sign = &mut s.sign[base..base + l];
                let min1 = &mut s.min1[base..base + l];
                let min2 = &mut s.min2[base..base + l];
                let min_flat = &mut s.min_flat[base..base + l];
                for (lane, sg) in sign.iter_mut().enumerate() {
                    *sg = if (syn >> lane) & 1 == 1 { -1.0 } else { 1.0 };
                }
                min1.fill(f64::INFINITY);
                min2.fill(f64::INFINITY);
                min_flat.fill(usize::MAX);
                for &(e, flat) in adj.iter() {
                    let llr = &s.llr[e * l..e * l + l];
                    let prev_neg = s.msg_sign[flat];
                    let mut neg = 0u64;
                    for lane in 0..l {
                        let psg = if (prev_neg >> lane) & 1 == 1 {
                            -psign[lane]
                        } else {
                            psign[lane]
                        };
                        let pmag = if flat == pflat[lane] {
                            pmin2[lane]
                        } else {
                            pmin1[lane]
                        };
                        let pmag = if pmag < f64::INFINITY { pmag } else { 0.0 };
                        let m = llr[lane] - self.scaling * psg * pmag;
                        let is_neg = m < 0.0;
                        neg |= u64::from(is_neg) << lane;
                        sign[lane] = if is_neg { -sign[lane] } else { sign[lane] };
                        let mag = m.abs();
                        let lt1 = mag < min1[lane];
                        let lt2 = mag < min2[lane];
                        min2[lane] = if lt1 {
                            min1[lane]
                        } else if lt2 {
                            mag
                        } else {
                            min2[lane]
                        };
                        min1[lane] = if lt1 { mag } else { min1[lane] };
                        min_flat[lane] = if lt1 { flat } else { min_flat[lane] };
                    }
                    s.msg_sign[flat] = neg;
                }
            }
            // Variable pass: rebuild each incoming check→variable message from
            // the detector statistics and this iteration's sign bits
            // (bit-identical to the scalar two-pass formulation: same
            // expression tree, same slot order), accumulate the posterior, and
            // emit hard decisions as lane bitmasks.
            for e in 0..num_errors {
                let slots = graph.slot_base[e]..graph.slot_base[e + 1];
                let tot = &mut s.tot[..l];
                tot.fill(0.0);
                for k in slots.clone() {
                    let d = graph.slot_detector[k];
                    let base = d * l;
                    let sign = &s.sign[base..base + l];
                    let min1 = &s.min1[base..base + l];
                    let min2 = &s.min2[base..base + l];
                    let min_flat = &s.min_flat[base..base + l];
                    let neg = s.msg_sign[k];
                    for lane in 0..l {
                        let sg = if (neg >> lane) & 1 == 1 {
                            -sign[lane]
                        } else {
                            sign[lane]
                        };
                        let mag = if k == min_flat[lane] {
                            min2[lane]
                        } else {
                            min1[lane]
                        };
                        let mag = if mag < f64::INFINITY { mag } else { 0.0 };
                        tot[lane] += self.scaling * sg * mag;
                    }
                }
                let prior = self.priors[e];
                let llr = &mut s.llr[e * l..e * l + l];
                let mut mask = 0u64;
                for lane in 0..l {
                    let total = prior + tot[lane];
                    llr[lane] = total;
                    mask |= u64::from(total < 0.0) << lane;
                }
                s.dec_mask[e] = mask;
            }
            // Convergence: the decision syndrome for every lane at once, by
            // XOR-accumulating decision masks per detector incidence.
            for (d, adj) in graph.check_adj.iter().enumerate() {
                let mut a = 0u64;
                for &(e, _) in adj.iter() {
                    a ^= s.dec_mask[e];
                }
                s.acc[d] = a;
            }
            let mut mismatch = 0u64;
            for (d, &a) in s.acc.iter().enumerate() {
                mismatch |= a ^ s.syn_mask[d];
            }
            let full = if l == 64 { u64::MAX } else { (1u64 << l) - 1 };
            let newly = full & !mismatch;
            if newly == 0 {
                continue;
            }
            // Snapshot converged lanes at this iteration (the scalar path
            // returns immediately on convergence, so later iterations must
            // not touch them) ...
            for lane in 0..l {
                if (newly >> lane) & 1 == 1 {
                    let mut decision = BitVec::zeros(num_errors);
                    for e in 0..num_errors {
                        if (s.dec_mask[e] >> lane) & 1 == 1 {
                            decision.set(e, true);
                        }
                    }
                    outcomes[s.lane_shot[lane]] = Some(LaneBp::Converged(decision));
                }
            }
            // ... and compact the survivors to the front so retired lanes
            // cost nothing. In-place front-to-back is safe: every write index
            // is <= the index it reads from (kept lanes only move left).
            // Everything the next check pass reconstructs messages from moves
            // with the lane: posteriors, sign bits, and this iteration's
            // detector statistics.
            let keep: Vec<usize> = (0..l).filter(|&lane| (newly >> lane) & 1 == 0).collect();
            let nl = keep.len();
            if nl == 0 {
                l = 0;
                break;
            }
            for e in 0..num_errors {
                for (ni, &ol) in keep.iter().enumerate() {
                    s.llr[e * nl + ni] = s.llr[e * l + ol];
                }
            }
            for d in 0..self.num_detectors {
                for (ni, &ol) in keep.iter().enumerate() {
                    s.sign[d * nl + ni] = s.sign[d * l + ol];
                    s.min1[d * nl + ni] = s.min1[d * l + ol];
                    s.min2[d * nl + ni] = s.min2[d * l + ol];
                    s.min_flat[d * nl + ni] = s.min_flat[d * l + ol];
                }
            }
            for m in s.msg_sign.iter_mut() {
                let mut out = 0u64;
                for (ni, &ol) in keep.iter().enumerate() {
                    out |= ((*m >> ol) & 1) << ni;
                }
                *m = out;
            }
            for m in s.syn_mask.iter_mut() {
                let mut out = 0u64;
                for (ni, &ol) in keep.iter().enumerate() {
                    out |= ((*m >> ol) & 1) << ni;
                }
                *m = out;
            }
            for (ni, &ol) in keep.iter().enumerate() {
                s.lane_shot[ni] = s.lane_shot[ol];
            }
            s.lane_shot.truncate(nl);
            l = nl;
        }
        // Whatever is still active after max_iterations is stuck: hand the
        // final LLRs to the OSD fallback.
        for lane in 0..l {
            let llr: Vec<f64> = (0..num_errors).map(|e| s.llr[e * l + lane]).collect();
            outcomes[s.lane_shot[lane]] = Some(LaneBp::Stuck(llr));
        }
        outcomes
    }

    /// OSD-0 over reusable scratch: the same column ordering (stable sort on
    /// the scratch LLRs), elimination order and pivot choices as
    /// [`BpOsdDecoder::osd_zero`], reformulated through the eliminator matrix.
    ///
    /// Instead of materialising the detector × error matrix over ordered
    /// columns and doing row operations across its full width, this tracks
    /// only `E`, the product of the row operations applied so far (detector ×
    /// detector, stored column-major; starts as the identity). The reduced
    /// state of any original column is then `E · A[:, e]` — the XOR of `E`'s
    /// columns at the error's detectors — so each candidate column is reduced
    /// on demand in detector-width words, and the reduced rhs `E · syndrome`
    /// falls out the same way after elimination finishes. Pivot selection
    /// (first unused detector row with a one, columns in reliability order)
    /// and the row operations are exactly the scalar path's, so the solution
    /// is bit-identical; only the arithmetic width shrinks from `num_errors`
    /// bits per row op to `num_detectors`.
    fn osd_zero_with_scratch(&self, syndrome: &BitVec, s: &mut BpScratch) -> BitVec {
        let num_errors = self.priors.len();
        let BpScratch {
            llr,
            order,
            elim,
            reduced,
            r_mask,
            row_used,
            pivot_cols,
            ..
        } = s;
        order.clear();
        order.extend(0..num_errors);
        order.sort_by(|&a, &b| {
            llr[a]
                .partial_cmp(&llr[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for (d, col) in elim.iter_mut().enumerate() {
            col.clear();
            col.set(d, true);
        }
        row_used.fill(false);
        pivot_cols.clear();
        for &e in order.iter() {
            if pivot_cols.len() == self.num_detectors {
                break;
            }
            reduced.clear();
            for &d in &self.error_detectors[e] {
                reduced.xor_assign_with(&elim[d]);
            }
            // First unused row with a one in this column (ones() ascends, so
            // this is the scalar path's 0..num_detectors scan).
            let Some(pr) = reduced.ones().find(|&r| !row_used[r]) else {
                continue;
            };
            row_used[pr] = true;
            pivot_cols.push((e, pr));
            // Row op: every other row with a one in this column absorbs the
            // pivot row. On E that flips exactly those rows in each column
            // whose pivot-row bit is set.
            r_mask.clone_from(reduced);
            r_mask.set(pr, false);
            if !r_mask.is_zero() {
                for col in elim.iter_mut() {
                    if col.get(pr) {
                        col.xor_assign_with(r_mask);
                    }
                }
            }
        }
        reduced.clear();
        for d in syndrome.ones() {
            reduced.xor_assign_with(&elim[d]);
        }
        let mut solution = BitVec::zeros(num_errors);
        for &(e, pr) in pivot_cols.iter() {
            if reduced.get(pr) {
                solution.set(e, true);
            }
        }
        solution
    }
}

/// The block BP core's verdict for one lane (one non-zero syndrome).
enum LaneBp {
    /// BP converged; the hard decision at the convergence iteration.
    Converged(BitVec),
    /// BP did not converge; the posterior LLRs after the final iteration,
    /// ready for the OSD-0 fallback.
    Stuck(Vec<f64>),
}

/// Reusable per-batch working memory for [`BpOsdDecoder`]: the Tanner-graph
/// layout (flattened message-slot spans and the per-detector check adjacency,
/// built once per batch instead of once per shot) and the OSD-0 elimination
/// matrix for the non-converged residue.
struct BpScratch {
    /// `slot_base[e]..slot_base[e + 1]` spans error `e`'s message slots.
    slot_base: Vec<usize>,
    /// Per detector: `(error, flattened slot index)`, in the same order the
    /// per-shot path builds its adjacency (errors ascending).
    check_adj: Vec<Vec<(usize, usize)>>,
    /// Flat slot index -> the detector that slot's message talks to.
    slot_detector: Vec<usize>,
    /// OSD input: the posterior LLRs of the lane being post-processed.
    llr: Vec<f64>,
    order: Vec<usize>,
    /// The OSD eliminator `E` (accumulated row operations), column-major:
    /// `elim[d]` is column `d`, `num_detectors` bits. Reset to identity per call.
    elim: Vec<BitVec>,
    /// One reduced column / the reduced rhs, `num_detectors` bits.
    reduced: BitVec,
    /// The pivot row-op mask (reduced column minus the pivot row).
    r_mask: BitVec,
    row_used: Vec<bool>,
    /// `(original error column, pivot detector row)` per pivot, in order.
    pivot_cols: Vec<(usize, usize)>,
}

impl BpScratch {
    fn new(decoder: &BpOsdDecoder) -> Self {
        let num_errors = decoder.priors.len();
        let mut slot_base = Vec::with_capacity(num_errors + 1);
        let mut total = 0usize;
        for dets in &decoder.error_detectors {
            slot_base.push(total);
            total += dets.len();
        }
        slot_base.push(total);
        let mut check_adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); decoder.num_detectors];
        let mut slot_detector = vec![0usize; total];
        for (e, dets) in decoder.error_detectors.iter().enumerate() {
            for (slot, &d) in dets.iter().enumerate() {
                check_adj[d].push((e, slot_base[e] + slot));
                slot_detector[slot_base[e] + slot] = d;
            }
        }
        BpScratch {
            slot_base,
            check_adj,
            slot_detector,
            llr: vec![0.0; num_errors],
            order: Vec::with_capacity(num_errors),
            elim: vec![BitVec::zeros(decoder.num_detectors); decoder.num_detectors],
            reduced: BitVec::zeros(decoder.num_detectors),
            r_mask: BitVec::zeros(decoder.num_detectors),
            row_used: vec![false; decoder.num_detectors],
            pivot_cols: Vec::new(),
        }
    }
}

/// Reusable working memory for [`BpOsdDecoder::belief_propagation_block`]:
/// the posterior array and per-slot message sign bits both passes reconstruct
/// messages from, the per-detector syndrome and per-error decision lane
/// masks, and the per-detector min-sum statistics. Buffers are resized per
/// block and compacted in place as lanes retire.
#[derive(Default)]
struct BpBlockScratch {
    /// Posterior LLRs, `[e * lanes + lane]`.
    llr: Vec<f64>,
    /// Per flat slot: the sign bits of the latest reconstructed
    /// variable→check messages through that slot, one bit per lane
    /// (set = negative).
    msg_sign: Vec<u64>,
    /// Per detector: which lanes' syndromes set this detector.
    syn_mask: Vec<u64>,
    /// Per error: which lanes' hard decisions include this error.
    dec_mask: Vec<u64>,
    /// Per detector: XOR-accumulated decision syndrome, one bit per lane.
    acc: Vec<u64>,
    /// Check statistics, `[d * lanes + lane]`: this iteration's accumulators
    /// during the check pass, then read back by the variable pass and the
    /// next check pass's message reconstruction.
    sign: Vec<f64>,
    min1: Vec<f64>,
    min2: Vec<f64>,
    /// Flat slot index of each detector's first-minimum message
    /// (`usize::MAX` marks "none yet").
    min_flat: Vec<usize>,
    tot: Vec<f64>,
    /// Current lane index -> position in the caller's block.
    lane_shot: Vec<usize>,
}

impl Decoder for BpOsdDecoder {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        let errors = self.decode_to_errors(detectors);
        self.observables_of(&errors)
    }

    /// Batch path of the frame engine: shots run through the
    /// structure-of-arrays lane-parallel BP core in blocks of
    /// `BP_BLOCK_LANES` (32), with the Tanner-graph layout and the OSD
    /// elimination matrix built once and reused across the whole batch.
    /// All-zero syndromes short-circuit exactly like the per-shot path.
    /// Per-shot results are pinned equal to [`Decoder::decode`] by the
    /// equality tests in this crate and the `frame_engine` suite tests.
    fn decode_batch(&self, shots: &[BitVec]) -> (Vec<BitVec>, BatchStats) {
        let mut scratch = BpScratch::new(self);
        let mut block_scratch = BpBlockScratch::default();
        let mut stats = BatchStats::default();
        let mut out: Vec<BitVec> = Vec::with_capacity(shots.len());
        for block in shots.chunks(BP_BLOCK_LANES) {
            let live: Vec<&BitVec> = block.iter().filter(|shot| !shot.is_zero()).collect();
            let mut outcomes = self.belief_propagation_block(&live, &scratch, &mut block_scratch);
            let mut next_live = 0usize;
            for shot in block {
                if shot.is_zero() {
                    out.push(BitVec::zeros(self.num_observables));
                    continue;
                }
                let outcome = outcomes[next_live]
                    .take()
                    .expect("block BP produces one outcome per live lane");
                next_live += 1;
                match &outcome {
                    LaneBp::Converged(_) => stats.bp_converged += 1,
                    LaneBp::Stuck(_) => stats.osd_calls += 1,
                }
                let errors = self.decode_to_errors_from_bp(shot, outcome, &mut scratch);
                out.push(self.observables_of(&errors));
            }
        }
        (out, stats)
    }

    fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    fn num_observables(&self) -> usize {
        self.num_observables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_circuit::schedule::ScheduleSpec;
    use prophunt_circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
    use prophunt_qec::small::quantum_repetition_code;
    use prophunt_qec::surface::rotated_surface_code_with_layout;

    fn surface_dem(d: usize, p: f64) -> DetectorErrorModel {
        let (code, layout) = rotated_surface_code_with_layout(d);
        let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        let exp = MemoryExperiment::build(&code, &schedule, d, MemoryBasis::Z).unwrap();
        DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p))
    }

    #[test]
    fn zero_syndrome_decodes_to_zero() {
        let dem = surface_dem(3, 1e-3);
        let decoder = BpOsdDecoder::new(&dem);
        let zero = BitVec::zeros(dem.num_detectors());
        assert!(decoder.decode(&zero).is_zero());
    }

    #[test]
    fn single_error_syndromes_are_corrected() {
        // Feeding a single mechanism's syndrome to the decoder should almost always
        // reproduce its observable effect. Mechanisms whose syndrome has an alternative
        // multi-error explanation of comparable likelihood are allowed to disagree (that
        // near-degeneracy is exactly what sets the logical error floor), so the test
        // tolerates a small fraction of mismatches overall but none for single-detector
        // (boundary-like) mechanisms.
        let dem = surface_dem(3, 1e-3);
        let decoder = BpOsdDecoder::new(&dem);
        let mut failures = 0;
        let mut boundary_failures = 0;
        for err in dem.errors() {
            let mut syndrome = BitVec::zeros(dem.num_detectors());
            for &d in &err.detectors {
                syndrome.set(d, true);
            }
            let mut expected = BitVec::zeros(dem.num_observables());
            for &o in &err.observables {
                expected.set(o, true);
            }
            if decoder.decode(&syndrome) != expected {
                failures += 1;
                if err.detectors.len() <= 1 {
                    boundary_failures += 1;
                }
            }
        }
        assert_eq!(
            boundary_failures, 0,
            "single-detector syndromes must never misdecode"
        );
        let limit = dem.num_errors() / 20;
        assert!(
            failures <= limit,
            "too many single-fault misdecodes: {failures}/{}",
            dem.num_errors()
        );
    }

    #[test]
    fn decoded_errors_reproduce_the_syndrome() {
        let dem = surface_dem(3, 2e-3);
        let decoder = BpOsdDecoder::new(&dem);
        let mut sampler = dem.sampler(11);
        for _ in 0..50 {
            let (dets, _) = sampler.sample();
            let errors = decoder.decode_to_errors(&dets);
            assert_eq!(
                decoder.syndrome_of(&errors),
                dets,
                "correction must explain the syndrome"
            );
        }
    }

    #[test]
    fn decode_batch_equals_per_shot_decode_including_osd_shots() {
        // High enough noise that some shots fail BP convergence and fall
        // through to OSD-0, exercising the reused elimination matrix.
        let dem = surface_dem(3, 3e-2);
        let decoder = BpOsdDecoder::new(&dem);
        let mut sampler = dem.sampler(29);
        let shots: Vec<BitVec> = (0..60).map(|_| sampler.sample().0).collect();
        let (batch, _) = decoder.decode_batch(&shots);
        assert_eq!(batch.len(), shots.len());
        for (i, (shot, prediction)) in shots.iter().zip(&batch).enumerate() {
            assert_eq!(&decoder.decode(shot), prediction, "shot {i}");
        }
    }

    #[test]
    fn batch_stats_count_every_nonzero_shot_once() {
        // High enough noise that lanes converge at different iterations and
        // some fall through to OSD, exercising block compaction end to end.
        let dem = surface_dem(3, 3e-2);
        let decoder = BpOsdDecoder::new(&dem);
        let mut sampler = dem.sampler(31);
        let shots: Vec<BitVec> = (0..100).map(|_| sampler.sample().0).collect();
        let nonzero = shots.iter().filter(|s| !s.is_zero()).count();
        assert!(nonzero > 0);
        let (predictions, stats) = decoder.decode_batch(&shots);
        assert_eq!(stats.bp_converged + stats.osd_calls, nonzero);
        assert!(stats.bp_converged > 0, "some shots should converge in BP");
        for (i, (shot, prediction)) in shots.iter().zip(&predictions).enumerate() {
            assert_eq!(&decoder.decode(shot), prediction, "shot {i}");
        }
    }

    #[test]
    fn repetition_code_sampled_shots_decode_mostly_correctly() {
        let code = quantum_repetition_code(5);
        let schedule = ScheduleSpec::coloration(&code);
        let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(5e-3));
        let decoder = BpOsdDecoder::new(&dem);
        let mut sampler = dem.sampler(3);
        let mut failures = 0;
        let shots = 300;
        for _ in 0..shots {
            let (dets, obs) = sampler.sample();
            if decoder.decode(&dets) != obs {
                failures += 1;
            }
        }
        // At p = 0.5% a distance-5 repetition code should essentially never fail in 300 shots.
        assert!(failures <= 3, "too many failures: {failures}/{shots}");
    }
}
