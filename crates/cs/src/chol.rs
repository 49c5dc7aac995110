//! Cholesky factorization grown one atom at a time, for greedy
//! pursuit.
//!
//! OMP repeatedly solves least-squares systems whose support grows by
//! one atom per iteration; [`GrowingCholesky`] updates the
//! factorization in O(k²) per added atom instead of refactoring in
//! O(k³), which is the standard trick that makes OMP practical.
//!
//! The solve is incremental too. When the right-hand side also grows by
//! one entry per atom (OMP's `α⁰_I`), the forward substitution
//! `z = L⁻¹b` of the earlier entries never changes: row `i` of `L` and
//! `b_i` are fixed once pushed. [`GrowingCholesky::solve_into`] keeps
//! `z` across calls and forward-substitutes only the new rows, with the
//! same operations in the same order as a full substitution, so results
//! are bit-identical to solving from scratch. One O(k²) back
//! substitution per call remains.

use std::fmt;

/// Error returned when a matrix is not (numerically) symmetric positive
/// definite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotSpdError {
    /// Index of the pivot that failed.
    pub pivot: usize,
}

impl fmt::Display for NotSpdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is not positive definite (pivot {})", self.pivot)
    }
}

impl std::error::Error for NotSpdError {}

/// Incrementally grown Cholesky factorization of a Gram matrix.
///
/// Greedy pursuit adds one atom per iteration; [`GrowingCholesky::push`]
/// extends `L` with the new atom's Gram column in O(k²).
///
/// # Examples
///
/// ```
/// use tepics_cs::chol::GrowingCholesky;
///
/// let mut g = GrowingCholesky::with_capacity(2);
/// g.push(&[], 4.0).unwrap();            // A = [4]
/// g.push(&[2.0], 3.0).unwrap();         // A = [[4,2],[2,3]]
/// let x = g.solve(&[8.0, 7.0]);
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct GrowingCholesky {
    cap: usize,
    k: usize,
    /// Row-major lower-triangular storage with row stride `cap`. Only
    /// the triangle of the first `k` rows is meaningful: every read
    /// touches an entry a push since the last reset wrote, so the rest
    /// may hold values from an earlier factorization.
    l: Vec<f64>,
}

impl GrowingCholesky {
    /// Creates an empty factorization that can grow to `cap` atoms.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "capacity must be positive");
        GrowingCholesky {
            cap,
            k: 0,
            l: vec![0.0; cap * cap],
        }
    }

    /// Current dimension.
    pub fn dim(&self) -> usize {
        self.k
    }

    /// Empties the factorization and re-targets it at `cap` atoms,
    /// reusing the existing storage (no reallocation when `cap` fits the
    /// current capacity). Greedy solvers keep one instance in their
    /// workspace and reset it per solve. Nothing is zeroed: no read
    /// reaches an entry before a push has written it.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn reset(&mut self, cap: usize) {
        assert!(cap > 0, "capacity must be positive");
        self.k = 0;
        self.cap = cap;
        if self.l.len() < cap * cap {
            self.l.resize(cap * cap, 0.0);
        }
    }

    /// Appends a new atom: `cross` holds its Gram inner products against
    /// the existing `dim()` atoms, `diag` its squared norm.
    ///
    /// # Errors
    ///
    /// Returns [`NotSpdError`] when the new atom is (numerically)
    /// linearly dependent on the current set; the factorization is left
    /// unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `cross.len() != dim()` or capacity is exhausted.
    pub fn push(&mut self, cross: &[f64], diag: f64) -> Result<(), NotSpdError> {
        assert_eq!(cross.len(), self.k, "cross-Gram length mismatch");
        assert!(self.k < self.cap, "capacity exhausted");
        let n = self.cap;
        let k = self.k;
        // Solve L w = cross for the new row, writing w directly into the
        // row-k slots (they are overwritten wholesale on every push at
        // this dimension, so a failed push leaves no observable state).
        let (head, tail) = self.l.split_at_mut(k * n);
        let w = &mut tail[..k + 1];
        for i in 0..k {
            let mut sum = cross[i];
            for j in 0..i {
                sum -= head[i * n + j] * w[j];
            }
            w[i] = sum / head[i * n + i];
        }
        let rem = diag - w[..k].iter().map(|v| v * v).sum::<f64>();
        if rem <= 1e-12 {
            return Err(NotSpdError { pivot: k });
        }
        w[k] = rem.sqrt();
        self.k += 1;
        Ok(())
    }

    /// Solves the current `k × k` system `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()` or the factorization is empty.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        let mut z = Vec::new();
        self.solve_into(b, &mut x, &mut z);
        x
    }

    /// [`GrowingCholesky::solve`] into caller-owned buffers, carrying
    /// the forward substitution across calls: on entry `z` holds
    /// `L⁻¹b` for the leading `z.len()` entries of `b`, from an earlier
    /// call against this factorization with the same leading entries
    /// (empty for a fresh solve). Only the rows after them are
    /// forward-substituted, then `x` gets the solution of the current
    /// system by one back substitution. Bit-identical to
    /// [`GrowingCholesky::solve`], and allocation-free once the buffers
    /// are warm.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`, the factorization is empty, or `z`
    /// is longer than `b`.
    // tidy:alloc-free
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>, z: &mut Vec<f64>) {
        assert!(self.k > 0, "empty factorization");
        assert_eq!(b.len(), self.k, "rhs length mismatch");
        assert!(z.len() <= self.k, "forward prefix longer than the rhs");
        let n = self.cap;
        let k = self.k;
        for (i, &bi) in b.iter().enumerate().skip(z.len()) {
            let mut sum = bi;
            for (j, &zj) in z.iter().enumerate() {
                sum -= self.l[i * n + j] * zj;
            }
            z.push(sum / self.l[i * n + i]);
        }
        x.clear();
        x.resize(k, 0.0);
        for i in (0..k).rev() {
            let mut sum = z[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                sum -= self.l[j * n + i] * xj;
            }
            x[i] = sum / self.l[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::DenseMatrix;

    /// The dense factorization `L Lᵀ = A`, refactored from scratch:
    /// the oracle for [`GrowingCholesky`].
    struct Cholesky {
        n: usize,
        /// Row-major lower triangle (full n×n storage for simplicity).
        l: Vec<f64>,
    }

    impl Cholesky {
        fn factor(a: &DenseMatrix) -> Result<Cholesky, NotSpdError> {
            assert_eq!(a.row_count(), a.col_count(), "matrix must be square");
            let n = a.row_count();
            let mut l = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..=i {
                    let mut sum = a.get(i, j);
                    for k in 0..j {
                        sum -= l[i * n + k] * l[j * n + k];
                    }
                    if i == j {
                        if sum <= 0.0 {
                            return Err(NotSpdError { pivot: i });
                        }
                        l[i * n + i] = sum.sqrt();
                    } else {
                        l[i * n + j] = sum / l[j * n + j];
                    }
                }
            }
            Ok(Cholesky { n, l })
        }

        /// Solves `A x = b` via forward/backward substitution.
        fn solve(&self, b: &[f64]) -> Vec<f64> {
            assert_eq!(b.len(), self.n, "rhs length mismatch");
            let n = self.n;
            // Forward: L z = b.
            let mut z = vec![0.0; n];
            for i in 0..n {
                let mut sum = b[i];
                for (k, &zk) in z.iter().enumerate().take(i) {
                    sum -= self.l[i * n + k] * zk;
                }
                z[i] = sum / self.l[i * n + i];
            }
            // Backward: Lᵀ x = z.
            let mut x = vec![0.0; n];
            for i in (0..n).rev() {
                let mut sum = z[i];
                for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                    sum -= self.l[k * n + i] * xk;
                }
                x[i] = sum / self.l[i * n + i];
            }
            x
        }
    }

    fn random_spd(n: usize, seed: u64) -> DenseMatrix {
        let mut rng = tepics_util::SplitMix64::new(seed);
        let b = DenseMatrix::from_fn(n + 2, n, |_, _| rng.next_gaussian());
        let mut g = b.gram();
        for i in 0..n {
            g.set(i, i, g.get(i, i) + 0.5); // ensure well-conditioned
        }
        g
    }

    #[test]
    fn factor_solve_roundtrip() {
        use crate::op::LinearOperator;
        for n in [1usize, 2, 5, 12] {
            let a = random_spd(n, n as u64);
            let chol = Cholesky::factor(&a).unwrap();
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 - 1.5) * 0.3).collect();
            let b = a.apply_vec(&x_true);
            let x = chol.solve(&b);
            for (xs, xt) in x.iter().zip(&x_true) {
                assert!((xs - xt).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // indefinite
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn growing_matches_batch() {
        use crate::op::LinearOperator;
        let n = 8;
        let a = random_spd(n, 77);
        let batch = Cholesky::factor(&a).unwrap();
        let mut grow = GrowingCholesky::with_capacity(n);
        for k in 0..n {
            let cross: Vec<f64> = (0..k).map(|j| a.get(k, j)).collect();
            grow.push(&cross, a.get(k, k)).unwrap();
        }
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let b = a.apply_vec(&x_true);
        let xb = batch.solve(&b);
        let xg = grow.solve(&b);
        for (p, q) in xb.iter().zip(&xg) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn growing_rejects_dependent_atom() {
        let mut g = GrowingCholesky::with_capacity(3);
        g.push(&[], 1.0).unwrap();
        // Second atom identical to the first: gram [[1,1],[1,1]].
        let err = g.push(&[1.0], 1.0).unwrap_err();
        assert_eq!(err.pivot, 1);
        // Factorization still usable at dimension 1.
        assert_eq!(g.dim(), 1);
        let x = g.solve(&[2.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_solves_equal_fresh_solves_bitwise() {
        // OMP's pattern: one atom and one rhs entry per step, z carried
        // across steps. Each step must equal a fresh solve to the bit,
        // also on storage a larger earlier factorization left dirty.
        let n = 9;
        let a = random_spd(n, 31);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut grow = GrowingCholesky::with_capacity(n + 3);
        let big = random_spd(n + 3, 4);
        for k in 0..n + 3 {
            let cross: Vec<f64> = (0..k).map(|j| big.get(k, j)).collect();
            grow.push(&cross, big.get(k, k)).unwrap();
        }
        for cap in [n + 3, n] {
            grow.reset(cap);
            let (mut x, mut z) = (Vec::new(), Vec::new());
            for k in 0..n {
                let cross: Vec<f64> = (0..k).map(|j| a.get(k, j)).collect();
                grow.push(&cross, a.get(k, k)).unwrap();
                grow.solve_into(&b[..=k], &mut x, &mut z);
                let fresh = grow.solve(&b[..=k]);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&fresh), "cap {cap}, step {k}");
                assert_eq!(z.len(), k + 1);
            }
        }
    }

    #[test]
    fn partial_growing_solve_uses_leading_block() {
        let a = random_spd(6, 5);
        let mut grow = GrowingCholesky::with_capacity(6);
        for k in 0..3 {
            let cross: Vec<f64> = (0..k).map(|j| a.get(k, j)).collect();
            grow.push(&cross, a.get(k, k)).unwrap();
        }
        // Solve against the leading 3×3 block.
        let lead = DenseMatrix::from_fn(3, 3, |r, c| a.get(r, c));
        let batch = Cholesky::factor(&lead).unwrap();
        let b = [1.0, -2.0, 0.5];
        let xg = grow.solve(&b);
        let xb = batch.solve(&b);
        for (p, q) in xg.iter().zip(&xb) {
            assert!((p - q).abs() < 1e-10);
        }
    }
}
