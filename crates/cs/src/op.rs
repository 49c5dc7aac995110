//! The matrix-free linear-operator abstraction.
//!
//! Recovery at the sensor's native scale (4096 pixels, ~1600
//! measurements) never materializes `Φ Ψ` as a dense matrix; solvers
//! only need `A x` and `Aᵀ y`. [`LinearOperator`] captures exactly that,
//! and this module also hosts the small vector kernels (`dot`, `norm2`,
//! `axpy`) shared by the solvers.

/// A real linear map `A : R^cols → R^rows` exposed through forward and
/// adjoint applications.
///
/// Implementations must satisfy the adjoint identity
/// `⟨A x, y⟩ = ⟨x, Aᵀ y⟩` — the test suites of the implementing types
/// verify it numerically.
pub trait LinearOperator {
    /// Output dimension (number of measurements for Φ).
    fn rows(&self) -> usize;

    /// Input dimension (number of pixels / coefficients).
    fn cols(&self) -> usize;

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `x.len() != cols()` or
    /// `y.len() != rows()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Computes `x = Aᵀ y`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `y.len() != rows()` or
    /// `x.len() != cols()`.
    fn apply_adjoint(&self, y: &[f64], x: &mut [f64]);

    /// Convenience allocating forward application.
    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.apply(x, &mut y);
        y
    }

    /// Convenience allocating adjoint application.
    fn apply_adjoint_vec(&self, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.cols()];
        self.apply_adjoint(y, &mut x);
        x
    }

    /// Materializes column `j` (`A e_j`). O(rows·cols) for matrix-free
    /// operators; greedy solvers call this only for selected atoms.
    fn column(&self, j: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.rows()];
        self.column_into(j, &mut out);
        out
    }

    /// Writes column `j` (`A e_j`) into `out` without allocating the
    /// result. The default builds a unit vector per call; operators with
    /// cheaper column access (dense storage, the closed-form XOR columns
    /// of a [`ComposedOperator`](crate::ComposedOperator)) override it.
    ///
    /// # Panics
    ///
    /// Implementations panic if `j >= cols()` or `out.len() != rows()`.
    fn column_into(&self, j: usize, out: &mut [f64]) {
        assert!(j < self.cols(), "column {j} out of range");
        assert_eq!(out.len(), self.rows(), "output length mismatch");
        let mut e = vec![0.0; self.cols()];
        e[j] = 1.0;
        self.apply(&e, out);
    }

    /// The shared Gram-column store of this operator, when one is
    /// attached (see [`crate::gram`]). The greedy solvers (Batch-OMP,
    /// CoSaMP) read admitted columns from it and offer it the ones they
    /// compute; without a store every column is computed per solve. The
    /// default is `None`.
    fn gram_store(&self) -> Option<&crate::gram::GramStore> {
        None
    }

    /// The row-streaming view of this operator, when it measures a 2-D
    /// pixel grid and can produce/consume the image block-of-rows at a
    /// time (see [`crate::fused`]).
    /// [`ComposedOperator`](crate::ComposedOperator) uses it to fuse Φ
    /// with the dictionary's row pass. The default is `None`;
    /// [`XorMeasurement`](crate::XorMeasurement) overrides it.
    fn row_streamed(&self) -> Option<&dyn crate::fused::RowStreamedOperator> {
        None
    }

    /// The paper's XOR measurement behind this operator, when it is one:
    /// its per-sample row and column selections are what
    /// [`ComposedOperator`](crate::ComposedOperator) combines with a
    /// separable dictionary to build `Φ·Ψ` columns in closed form. The
    /// default is `None`; [`XorMeasurement`](crate::XorMeasurement)
    /// returns itself.
    fn xor_structure(&self) -> Option<&crate::XorMeasurement> {
        None
    }
}

/// Estimates the spectral norm `‖A‖₂` by power iteration on `AᵀA`.
///
/// `iters` in the 20–50 range is ample for the step-size estimates the
/// solvers need (they only require an upper bound within ~1%; callers
/// multiply by a safety margin anyway).
///
/// # Panics
///
/// Panics if the operator has zero rows or columns.
pub fn operator_norm_est<A: LinearOperator + ?Sized>(a: &A, iters: usize, seed: u64) -> f64 {
    assert!(a.rows() > 0 && a.cols() > 0, "degenerate operator");
    let mut rng = tepics_util::SplitMix64::new(seed);
    let mut v: Vec<f64> = (0..a.cols()).map(|_| rng.next_gaussian()).collect();
    let mut y = vec![0.0; a.rows()];
    let mut norm = 0.0;
    for _ in 0..iters.max(1) {
        let n = norm2(&v);
        if n == 0.0 {
            return 0.0;
        }
        scale(&mut v, 1.0 / n);
        a.apply(&v, &mut y);
        a.apply_adjoint(&y, &mut v);
        norm = norm2(&v).sqrt(); // ‖AᵀA v‖ ≈ σ² ⇒ σ = sqrt
    }
    norm
}

/// Dot product (four-lane kernel, deterministic reduction order — see
/// [`tepics_util::simd`]).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    tepics_util::simd::dot4(a, b)
}

/// Four-accumulator gather-sum `Σ vals[idx[t]]` in index order (the
/// XOR measurement's selected row, column and atom-entry sums).
// tidy:alloc-free
#[inline]
pub(crate) fn gather_sum(vals: &[f64], idx: &[u32]) -> f64 {
    let mut s = [0.0f64; 4];
    let mut chunks = idx.chunks_exact(4);
    for c in &mut chunks {
        s[0] += vals[c[0] as usize];
        s[1] += vals[c[1] as usize];
        s[2] += vals[c[2] as usize];
        s[3] += vals[c[3] as usize];
    }
    let mut acc = (s[0] + s[1]) + (s[2] + s[3]);
    for &j in chunks.remainder() {
        acc += vals[j as usize];
    }
    acc
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x` (four-lane kernel; exactly the scalar loop's bits).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    tepics_util::simd::axpy4(alpha, x, y);
}

/// `x *= alpha`.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for v in x {
        *v *= alpha;
    }
}

/// `out = a - b`.
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Checks the adjoint identity `⟨Ax, y⟩ = ⟨x, Aᵀy⟩` on random vectors;
/// returns the maximum relative mismatch observed. Test helper shared by
/// every operator implementation in the workspace.
pub fn adjoint_mismatch<A: LinearOperator + ?Sized>(a: &A, trials: usize, seed: u64) -> f64 {
    let mut rng = tepics_util::SplitMix64::new(seed);
    let mut worst: f64 = 0.0;
    for _ in 0..trials {
        let x: Vec<f64> = (0..a.cols()).map(|_| rng.next_gaussian()).collect();
        let y: Vec<f64> = (0..a.rows()).map(|_| rng.next_gaussian()).collect();
        let ax = a.apply_vec(&x);
        let aty = a.apply_adjoint_vec(&y);
        let lhs = dot(&ax, &y);
        let rhs = dot(&x, &aty);
        let denom = lhs.abs().max(rhs.abs()).max(1e-12);
        worst = worst.max((lhs - rhs).abs() / denom);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::DenseMatrix;

    #[test]
    fn vector_kernels() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, -5.0, 6.0];
        assert_eq!(dot(&a, &b), 12.0);
        assert!((norm2(&a) - 14.0f64.sqrt()).abs() < 1e-15);
        let mut y = b;
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [6.0, -1.0, 12.0]);
        let mut z = a;
        scale(&mut z, -1.0);
        assert_eq!(z, [-1.0, -2.0, -3.0]);
        assert_eq!(sub(&a, &b), vec![-3.0, 7.0, -3.0]);
    }

    #[test]
    fn power_iteration_matches_known_singular_value() {
        // Diagonal matrix: norm is the largest diagonal entry.
        let m = DenseMatrix::from_fn(4, 4, |r, c| if r == c { (r + 1) as f64 } else { 0.0 });
        let est = operator_norm_est(&m, 100, 3);
        assert!((est - 4.0).abs() < 1e-6, "estimate {est}");
    }

    #[test]
    fn power_iteration_on_rectangular_operator() {
        // A = [1 1; 0 0; 0 0] has singular value sqrt(2).
        let m = DenseMatrix::from_fn(3, 2, |r, _| if r == 0 { 1.0 } else { 0.0 });
        let est = operator_norm_est(&m, 100, 5);
        assert!((est - 2.0f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn column_extraction_matches_matrix() {
        let m = DenseMatrix::from_fn(3, 4, |r, c| (r * 10 + c) as f64);
        let col2 = m.column(2);
        assert_eq!(col2, vec![2.0, 12.0, 22.0]);
    }

    #[test]
    fn adjoint_mismatch_is_zero_for_dense() {
        let m = DenseMatrix::from_fn(5, 7, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0);
        assert!(adjoint_mismatch(&m, 10, 1) < 1e-12);
    }
}
