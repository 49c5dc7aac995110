//! CGLS — conjugate gradient on the normal equations.
//!
//! Solves `min_x ‖A x − b‖₂` matrix-free. Besides solving whole
//! problems, it is the engine of the [`debias`](crate::debias) re-fit,
//! which runs it on a [`RestrictedOperator`]: the operator confined to
//! a column support without materializing anything.

use crate::solver::{SolveResult, Solver, SolverCaps};
use crate::workspace::SolverWorkspace;
use crate::{breakdown, check_dims, Recovery, RecoveryError, SolveStats};
use std::cell::RefCell;
use tepics_cs::op::{self, LinearOperator};

/// A view of an operator restricted to a subset of its columns.
///
/// `apply` scatters the small coefficient vector into the full domain
/// and applies the inner operator; `apply_adjoint` applies the inner
/// adjoint and gathers the supported entries. Both run through
/// internal full-width scratch buffers, so repeated applications (the
/// CGLS loop) allocate nothing after the first call.
///
/// The scratch buffers make this type `!Sync`; it is a per-solve view,
/// never shared across threads. The per-frame debias pass constructs it
/// via [`RestrictedOperator::with_scratch`] from workspace-owned
/// buffers and recovers them with [`RestrictedOperator::into_parts`],
/// keeping warm solves allocation-free.
#[derive(Debug, Clone)]
pub struct RestrictedOperator<'a, A: ?Sized> {
    inner: &'a A,
    support: Vec<usize>,
    /// Full-width scatter buffer for `apply`. Off-support entries are
    /// zeroed once and stay zero: `apply` only ever writes the same
    /// support positions.
    full_in: RefCell<Vec<f64>>,
    /// Full-width gather buffer for `apply_adjoint` (separate from
    /// `full_in` so the adjoint cannot disturb its zero invariant).
    full_out: RefCell<Vec<f64>>,
}

impl<'a, A: LinearOperator + ?Sized> RestrictedOperator<'a, A> {
    /// Restricts `inner` to `support` (column indices, unique).
    ///
    /// # Panics
    ///
    /// Panics if `support` is empty or contains an out-of-range index.
    pub fn new(inner: &'a A, support: Vec<usize>) -> Self {
        Self::with_scratch(inner, support, Vec::new(), Vec::new())
    }

    /// Like [`RestrictedOperator::new`], reusing caller-owned scratch
    /// buffers (recovered afterwards with
    /// [`RestrictedOperator::into_parts`]); results are identical.
    ///
    /// # Panics
    ///
    /// Panics if `support` is empty or contains an out-of-range index.
    pub fn with_scratch(
        inner: &'a A,
        support: Vec<usize>,
        mut full_in: Vec<f64>,
        mut full_out: Vec<f64>,
    ) -> Self {
        assert!(!support.is_empty(), "support must be non-empty");
        for &j in &support {
            assert!(j < inner.cols(), "support index {j} out of range");
        }
        full_in.clear();
        full_in.resize(inner.cols(), 0.0);
        full_out.clear();
        full_out.resize(inner.cols(), 0.0);
        RestrictedOperator {
            inner,
            support,
            full_in: RefCell::new(full_in),
            full_out: RefCell::new(full_out),
        }
    }

    /// Consumes the view, returning the support and scratch buffers for
    /// reuse.
    pub fn into_parts(self) -> (Vec<usize>, Vec<f64>, Vec<f64>) {
        (
            self.support,
            self.full_in.into_inner(),
            self.full_out.into_inner(),
        )
    }
}

impl<'a, A: LinearOperator + ?Sized> LinearOperator for RestrictedOperator<'a, A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.support.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.support.len(), "input length mismatch");
        let mut full = self.full_in.borrow_mut();
        for (&j, &v) in self.support.iter().zip(x) {
            full[j] = v;
        }
        self.inner.apply(&full, y);
    }

    fn apply_adjoint(&self, y: &[f64], x: &mut [f64]) {
        assert_eq!(x.len(), self.support.len(), "output length mismatch");
        let mut full = self.full_out.borrow_mut();
        self.inner.apply_adjoint(y, &mut full);
        for (o, &j) in x.iter_mut().zip(&self.support) {
            *o = full[j];
        }
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        assert!(j < self.support.len(), "column {j} out of range");
        self.inner.column_into(self.support[j], out);
    }
}

/// CGLS configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cgls {
    max_iter: usize,
    tol: f64,
}

impl Cgls {
    /// Creates a solver with the given iteration cap and relative
    /// residual tolerance.
    pub fn new(max_iter: usize, tol: f64) -> Self {
        Cgls { max_iter, tol }
    }

    /// CGLS from a zero start, without the final coefficient clone: the
    /// solution is left in `workspace.lsq_x` for the debias pass, which
    /// consumes it in place. It runs on the dedicated `lsq_*` buffers,
    /// so it can run nested inside the debias pass while that holds the
    /// inner solver's buffers.
    pub(crate) fn solve_into<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        b: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> Result<SolveStats, RecoveryError> {
        check_dims(a.rows(), b)?;
        let n = a.cols();
        let m = a.rows();
        let SolverWorkspace {
            lsq_x: x,
            lsq_r: r,
            lsq_s: s,
            lsq_p: p,
            lsq_q: q,
            ..
        } = workspace;
        x.clear();
        x.resize(n, 0.0);
        // r = b − Ax = b at x=0.
        r.clear();
        r.extend_from_slice(b);
        s.clear();
        s.resize(n, 0.0);
        a.apply_adjoint(r, s); // s = Aᵀr
        p.clear();
        p.extend_from_slice(s);
        q.clear();
        q.resize(m, 0.0);
        let mut snorm2 = op::dot(s, s);
        let b_norm = op::norm2(b).max(1e-300);
        let mut iterations = 0;
        let mut converged = snorm2.sqrt() <= self.tol * b_norm;
        for it in 0..self.max_iter {
            if converged {
                break;
            }
            iterations = it + 1;
            a.apply(p, q);
            let qq = op::dot(q, q);
            if qq == 0.0 {
                break; // p in the null space; nothing more to gain
            }
            let alpha = snorm2 / qq;
            op::axpy(alpha, p, x);
            op::axpy(-alpha, q, r);
            a.apply_adjoint(r, s);
            let snorm2_new = op::dot(s, s);
            if snorm2_new.sqrt() <= self.tol * b_norm {
                converged = true;
            }
            let beta = snorm2_new / snorm2;
            for i in 0..n {
                p[i] = s[i] + beta * p[i];
            }
            snorm2 = snorm2_new;
        }
        // Final residual ‖Ax − b‖, reusing q.
        a.apply(x, q);
        let mut rr = 0.0;
        for (qi, &bi) in q.iter().zip(b) {
            let d = qi - bi;
            rr += d * d;
        }
        let residual_norm = rr.sqrt();
        if !residual_norm.is_finite() {
            return Err(breakdown("cgls", "the residual is not finite"));
        }
        Ok(SolveStats {
            iterations,
            residual_norm,
            converged,
        })
    }
}

impl Default for Cgls {
    fn default() -> Self {
        Cgls::new(200, 1e-10)
    }
}

impl Solver for Cgls {
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            name: "cgls",
            norm_seed: None,
        }
    }

    /// Solves `min ‖Ax − y‖` from a zero start.
    ///
    /// # Errors
    ///
    /// A [`DimensionMismatch`](crate::RecoveryError::DimensionMismatch)
    /// if `y` does not match the operator rows, or a
    /// [`Breakdown`](crate::RecoveryError::Breakdown) if the final
    /// residual is not finite.
    // tidy:alloc-free
    fn solve_with(
        &self,
        a: &dyn LinearOperator,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> SolveResult {
        let stats = self.solve_into(a, y, workspace)?;
        Ok(Recovery {
            // tidy:allow(alloc: the returned coefficient vector, once per solve)
            coefficients: workspace.lsq_x.clone(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_cs::DenseMatrix;
    use tepics_util::SplitMix64;

    #[test]
    fn solves_consistent_overdetermined_system() {
        let mut rng = SplitMix64::new(8);
        let a = DenseMatrix::from_fn(20, 5, |_, _| rng.next_gaussian());
        let x_true: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let b = a.apply_vec(&x_true);
        let rec = Cgls::default().solve(&a, &b).unwrap();
        assert!(rec.stats.converged);
        for (p, q) in rec.coefficients.iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-7);
        }
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_range() {
        let mut rng = SplitMix64::new(9);
        let a = DenseMatrix::from_fn(15, 4, |_, _| rng.next_gaussian());
        let b: Vec<f64> = (0..15).map(|_| rng.next_gaussian()).collect();
        let rec = Cgls::new(500, 1e-12).solve(&a, &b).unwrap();
        let r = op::sub(&a.apply_vec(&rec.coefficients), &b);
        let atr = a.apply_adjoint_vec(&r);
        assert!(
            op::norm2(&atr) < 1e-7,
            "normal equations violated: {}",
            op::norm2(&atr)
        );
    }

    #[test]
    fn restricted_operator_solves_on_support() {
        let mut rng = SplitMix64::new(10);
        let a = DenseMatrix::from_fn(20, 30, |_, _| rng.next_gaussian());
        let support = vec![3usize, 17, 22];
        let coeffs = [1.0, -2.0, 0.5];
        let restricted = RestrictedOperator::new(&a, support.clone());
        let b = restricted.apply_vec(&coeffs);
        let rec = Cgls::default().solve(&restricted, &b).unwrap();
        for (p, q) in rec.coefficients.iter().zip(&coeffs) {
            assert!((p - q).abs() < 1e-7);
        }
        // The restricted adjoint gathers the inner adjoint's entries,
        // and restricted columns forward to the inner columns.
        let full = a.apply_adjoint_vec(&b);
        let gathered: Vec<f64> = support.iter().map(|&j| full[j]).collect();
        assert_eq!(restricted.apply_adjoint_vec(&b), gathered);
        assert_eq!(restricted.column(1), a.column(17));
    }

    #[test]
    fn scratch_buffers_round_trip() {
        let a = DenseMatrix::identity(6);
        let restricted = RestrictedOperator::with_scratch(&a, vec![1, 4], vec![9.0; 2], Vec::new());
        let y = restricted.apply_vec(&[2.0, 3.0]);
        assert_eq!(y, vec![0.0, 2.0, 0.0, 0.0, 3.0, 0.0]);
        let (support, full_in, full_out) = restricted.into_parts();
        assert_eq!(support, vec![1, 4]);
        assert_eq!(full_in.len(), 6, "scratch grew to the full domain");
        assert_eq!(full_out.len(), 6);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = DenseMatrix::identity(4);
        let rec = Cgls::default().solve(&a, &[0.0; 4]).unwrap();
        assert!(rec.coefficients.iter().all(|&v| v == 0.0));
        assert!(rec.stats.converged);
    }

    #[test]
    #[should_panic(expected = "support index")]
    fn out_of_range_support_panics() {
        let a = DenseMatrix::identity(4);
        RestrictedOperator::new(&a, vec![4]);
    }
}
