//! Binary measurement ensembles.
//!
//! The sensor's compressed samples are sums of *selected* pixels:
//! `y_k = Σ_{i ∈ mask_k} x_i`, i.e. Φ is a 0/1 matrix. Two physical
//! layouts are modeled:
//!
//! * [`XorMeasurement`] — the paper's full-frame strategy: pixel `(i,j)`
//!   is selected iff `S_i ⊕ S_j = 1` with row/column bits from a pattern
//!   source (the CA ring). The matrix is never materialized — each row
//!   is described by only `M + N` bits, which is the entire point of the
//!   architecture.
//! * [`DenseBinaryMeasurement`] — explicit per-row masks, used for the
//!   idealized Bernoulli/thresholded-Gaussian baselines and for LFSR /
//!   Hadamard strategies (any [`BitPatternSource`](tepics_ca::BitPatternSource) of full pixel-count
//!   patterns). The block-based CS baseline (refs. \[6–8\], \[11\])
//!   measures each image block with one of these.
//!
//! All ensembles implement [`LinearOperator`] (0/1 arithmetic in `f64`)
//! and [`SelectionMeasurement`] (mask access + per-row selection counts,
//! which the mean-split decoder needs).

mod dense;
mod xor;

pub use dense::DenseBinaryMeasurement;
pub use xor::XorMeasurement;

use crate::op::LinearOperator;
use tepics_util::BitVec;

/// Common interface of 0/1 measurement ensembles.
pub trait SelectionMeasurement: LinearOperator {
    /// Materializes the selection mask of measurement `k` over all
    /// `cols()` pixels.
    ///
    /// # Panics
    ///
    /// Implementations panic if `k >= rows()`.
    fn mask(&self, k: usize) -> BitVec;

    /// Number of selected pixels in measurement `k`. Implementations
    /// should override when it is computable without materializing the
    /// mask.
    fn ones_in_row(&self, k: usize) -> usize {
        self.mask(k).count_ones()
    }

    /// The per-row selection counts `c_k` as floats — the regressor the
    /// mean-split decoder uses to estimate the scene mean
    /// (`μ̂ = ⟨c,y⟩ / ⟨c,c⟩`).
    fn selection_counts(&self) -> Vec<f64> {
        (0..self.rows())
            .map(|k| self.ones_in_row(k) as f64)
            .collect()
    }
}

/// Shared 0/1 apply used by mask-based implementations.
pub(crate) fn apply_masks(masks: &[BitVec], x: &[f64], y: &mut [f64]) {
    for (k, mask) in masks.iter().enumerate() {
        y[k] = mask.iter_ones().map(|i| x[i]).sum();
    }
}

/// Shared 0/1 adjoint used by mask-based implementations.
pub(crate) fn adjoint_masks(masks: &[BitVec], y: &[f64], x: &mut [f64]) {
    x.fill(0.0);
    for (k, mask) in masks.iter().enumerate() {
        let yk = y[k];
        if yk == 0.0 {
            continue;
        }
        for i in mask.iter_ones() {
            x[i] += yk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::adjoint_mismatch;
    use tepics_ca::{BernoulliSource, CaSource, ElementaryRule};

    /// Every ensemble's operator view must match its own materialized
    /// masks — the single most important invariant of this module.
    fn check_operator_matches_masks<M: SelectionMeasurement>(m: &M, seed: u64) {
        let mut rng = tepics_util::SplitMix64::new(seed);
        let x: Vec<f64> = (0..m.cols()).map(|_| rng.next_f64() * 10.0).collect();
        let y = m.apply_vec(&x);
        for (k, &yk) in y.iter().enumerate() {
            let expected: f64 = m.mask(k).iter_ones().map(|i| x[i]).sum();
            assert!(
                (yk - expected).abs() < 1e-9,
                "row {k}: operator {yk} vs mask {expected}",
            );
            assert_eq!(m.ones_in_row(k), m.mask(k).count_ones());
        }
        assert!(adjoint_mismatch(m, 5, seed) < 1e-12);
    }

    #[test]
    fn xor_measurement_consistency() {
        let mut src = CaSource::new(8 + 8, 3, ElementaryRule::RULE_30, 32, 1);
        let m = XorMeasurement::from_source(8, 8, &mut src, 20);
        check_operator_matches_masks(&m, 1);
    }

    #[test]
    fn dense_measurement_consistency() {
        let m = DenseBinaryMeasurement::bernoulli(15, 64, 5, 0.5);
        check_operator_matches_masks(&m, 2);
    }

    #[test]
    fn selection_counts_match_masks() {
        let mut src = BernoulliSource::balanced(12, 8);
        let m = DenseBinaryMeasurement::from_source(&mut src, 7);
        let counts = m.selection_counts();
        for (k, &count) in counts.iter().enumerate() {
            assert_eq!(count, m.mask(k).count_ones() as f64);
        }
    }
}
