//! AMP — approximate message passing (Donoho, Maleki & Montanari 2009).
//!
//! For measurement ensembles with i.i.d.-like entries, AMP iterates
//! soft thresholding with an *Onsager correction* term that keeps the
//! effective noise Gaussian, converging in tens of iterations where
//! ISTA needs hundreds. The threshold is set adaptively from the
//! residual's estimated noise level by the common `τ = κ·‖z‖/√m` rule,
//! with `κ = 2.5`.
//!
//! AMP's state-evolution guarantees assume i.i.d. sub-Gaussian matrices;
//! on the XOR-structured CA ensemble it is a heuristic — the solver
//! comparison in the experiments treats it accordingly.

use crate::iterative::{finish, iterate, resolve_scale, zero_solution};
use crate::shrink::soft_threshold;
use crate::solver::{norm_seeds, SolveResult, Solver, SolverCaps};
use crate::workspace::SolverWorkspace;
use crate::{check_dims, Recovery, RecoveryError};
use tepics_cs::op::{self, LinearOperator};

/// AMP's name in its capabilities and errors.
const NAME: &str = "amp";

/// Threshold multiplier κ of `τ = κ·‖z‖/√m` (≈2–3 for noiseless CS).
const KAPPA: f64 = 2.5;

/// AMP solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Amp {
    max_iter: usize,
    tol: f64,
    norm: Option<f64>,
}

impl Amp {
    /// Creates a solver with defaults: 60 iterations, tolerance 1e-8.
    pub fn new() -> Self {
        Amp {
            max_iter: 60,
            tol: 1e-8,
            norm: None,
        }
    }

    /// Overrides the operator-norm estimate `‖A‖₂` behind the internal
    /// rescaling (skips the seeded power iteration — callers that
    /// memoize it pass its result back through here). A non-positive
    /// value is rejected at solve time, like the sibling `step`
    /// overrides on FISTA/ISTA/IHT.
    pub fn operator_norm(&mut self, norm: f64) -> &mut Self {
        self.norm = Some(norm);
        self
    }

    /// Iteration cap.
    pub fn max_iter(&mut self, n: usize) -> &mut Self {
        self.max_iter = n;
        self
    }

    /// Relative-change stopping tolerance.
    pub fn tol(&mut self, tol: f64) -> &mut Self {
        self.tol = tol;
        self
    }

    /// Runs the solver with freshly allocated buffers. The operator is
    /// internally rescaled by `1/‖A‖` so AMP's unit-column-variance
    /// assumption approximately holds.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::DimensionMismatch`] if `y` does not
    /// match the operator, [`RecoveryError::InvalidParameter`] for a
    /// non-positive norm override, or [`RecoveryError::Breakdown`] once
    /// an iterate or the final residual is not finite.
    pub fn solve<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        y: &[f64],
    ) -> Result<Recovery, RecoveryError> {
        self.solve_with(a, y, &mut SolverWorkspace::new())
    }

    /// Runs the solver reusing `workspace` buffers; results are
    /// bit-identical to [`Amp::solve`], with no allocations inside the
    /// iteration loop once the workspace is warm.
    ///
    /// # Errors
    ///
    /// Same as [`Amp::solve`].
    // tidy:alloc-free
    pub fn solve_with<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> Result<Recovery, RecoveryError> {
        check_dims(a.rows(), y)?;
        let m = a.rows();
        let n = a.cols();
        // Normalize the operator so columns have ~unit norm in the
        // aggregate: scale = ‖A‖₂ / (1 + sqrt(n/m)), since for an
        // i.i.d. matrix with unit columns ‖A‖ ≈ 1 + sqrt(n/m).
        let Some(norm) = resolve_scale(
            a,
            self.norm,
            norm_seeds::AMP,
            |norm| norm,
            "operator norm override",
        )?
        else {
            return Ok(zero_solution(n, y));
        };
        let scale = norm / (1.0 + (n as f64 / m as f64).sqrt());
        workspace.prepare(m, n);
        let SolverWorkspace {
            alpha: x,
            alpha_prev: prev,
            grad,
            resid: y_s,
            rows_tmp: ax,
            rows_tmp2: z,
            ..
        } = workspace;
        for (s, &v) in y_s.iter_mut().zip(y) {
            *s = v / scale;
        }
        z.copy_from_slice(y_s); // corrected residual starts at y_s
        let mut nnz_prev = 0usize;
        let progress = iterate(NAME, self.max_iter, self.tol, x, prev, |x, _| {
            // Pseudo-data: x + Aᵀz (A scaled by 1/scale on the fly).
            a.apply_adjoint(z, grad);
            for (v, &g) in x.iter_mut().zip(grad.iter()) {
                *v += g / scale;
            }
            // Adaptive threshold from the residual noise level.
            let tau = KAPPA * op::norm2(z) / (m as f64).sqrt();
            soft_threshold(x, tau);
            let nnz = x.iter().filter(|&&v| v != 0.0).count();
            // Residual with Onsager term: z ← y − Ax + z·(nnz/m).
            a.apply(x, ax);
            let onsager = nnz_prev as f64 / m as f64;
            for ((zk, &ys), &axk) in z.iter_mut().zip(y_s.iter()).zip(ax.iter()) {
                *zk = ys - axk / scale + *zk * onsager;
            }
            nnz_prev = nnz;
        })?;
        // The model was (A/scale)·x = y/scale, so x is already the
        // solution in the original coordinates.
        finish(NAME, a, y, x, ax, progress)
    }
}

impl Default for Amp {
    fn default() -> Self {
        Amp::new()
    }
}

impl Solver for Amp {
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            name: NAME,
            norm_seed: Some(norm_seeds::AMP),
        }
    }

    fn solve_with(
        &self,
        a: &dyn LinearOperator,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> SolveResult {
        Amp::solve_with(self, a, y, workspace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_cs::DenseMatrix;
    use tepics_util::SplitMix64;

    fn gaussian_problem(
        rows: usize,
        cols: usize,
        k: usize,
        seed: u64,
    ) -> (DenseMatrix, Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let a = DenseMatrix::from_fn(rows, cols, |_, _| {
            rng.next_gaussian() / (rows as f64).sqrt()
        });
        let mut x = vec![0.0; cols];
        let mut placed = 0;
        while placed < k {
            let i = rng.next_below(cols as u64) as usize;
            if x[i] == 0.0 {
                x[i] = if rng.next_bool() { 2.0 } else { -2.0 };
                placed += 1;
            }
        }
        let y = a.apply_vec(&x);
        (a, x, y)
    }

    #[test]
    fn recovers_support_on_iid_gaussian() {
        let (a, x, y) = gaussian_problem(80, 200, 8, 5);
        let rec = Amp::new().max_iter(150).solve(&a, &y).unwrap();
        // AMP with adaptive thresholding is not exact; the support and
        // sign pattern must match and values land within 15%.
        for (i, &xi) in x.iter().enumerate() {
            if xi != 0.0 {
                assert!(
                    (rec.coefficients[i] - xi).abs() < 0.35,
                    "coef {i}: {} vs {}",
                    rec.coefficients[i],
                    xi
                );
            }
        }
        let spurious = rec
            .coefficients
            .iter()
            .enumerate()
            .filter(|(i, &v)| x[*i] == 0.0 && v.abs() > 0.3)
            .count();
        assert_eq!(spurious, 0, "large spurious coefficients");
    }

    #[test]
    fn faster_than_ista_at_equal_accuracy() {
        use crate::ista::Ista;
        let (a, _, y) = gaussian_problem(80, 200, 8, 9);
        let amp = Amp::new().tol(1e-6).max_iter(500).solve(&a, &y).unwrap();
        let ista = Ista::new()
            .lambda_ratio(0.02)
            .tol(1e-6)
            .max_iter(2000)
            .solve(&a, &y)
            .unwrap();
        assert!(
            amp.stats.iterations < ista.stats.iterations,
            "AMP {} vs ISTA {} iterations",
            amp.stats.iterations,
            ista.stats.iterations
        );
    }

    #[test]
    fn zero_input_returns_zero() {
        let (a, _, _) = gaussian_problem(30, 60, 3, 2);
        let rec = Amp::new().solve(&a, &vec![0.0; 30]).unwrap();
        assert!(rec.coefficients.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dimension_mismatch_reported() {
        let (a, _, _) = gaussian_problem(30, 60, 3, 2);
        assert!(Amp::new().solve(&a, &vec![0.0; 29]).is_err());
    }

    #[test]
    fn non_positive_norm_override_is_rejected() {
        let (a, _, y) = gaussian_problem(30, 60, 3, 4);
        let err = Amp::new().operator_norm(0.0).solve(&a, &y).unwrap_err();
        assert!(matches!(err, crate::RecoveryError::InvalidParameter(_)));
    }

    #[test]
    fn norm_override_matches_internal_estimate() {
        let (a, _, y) = gaussian_problem(40, 80, 4, 6);
        let norm = crate::solver::norm_seeds::estimate(&a, crate::solver::norm_seeds::AMP);
        let auto = Amp::new().solve(&a, &y).unwrap();
        let overridden = Amp::new().operator_norm(norm).solve(&a, &y).unwrap();
        assert_eq!(auto, overridden, "override must be bit-transparent");
    }
}
