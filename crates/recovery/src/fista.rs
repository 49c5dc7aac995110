//! FISTA — fast iterative shrinkage-thresholding (Beck & Teboulle 2009).
//!
//! Solves the LASSO `min_α ½‖Aα − y‖² + λ‖α‖₁` with Nesterov momentum.
//! This is the default full-frame decoder: at the sensor's native size
//! the operator is matrix-free and each iteration costs two operator
//! applications.

use crate::iterative::{finish, iterate, resolve_step, zero_solution};
use crate::shrink::soft_threshold;
use crate::solver::{norm_seeds, SolveResult, Solver, SolverCaps};
use crate::workspace::SolverWorkspace;
use crate::{check_dims, RecoveryError};
use tepics_cs::op::LinearOperator;

/// How the regularization weight λ is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LambdaRule {
    /// Use the given absolute λ.
    Absolute(f64),
    /// `λ = ratio · ‖Aᵀy‖∞` — scale-free; `ratio = 1` yields the zero
    /// solution, typical values are 0.01–0.1.
    RatioOfMax(f64),
}

impl LambdaRule {
    /// λ for a problem whose correlations are `aty = Aᵀy`.
    fn resolve(self, aty: &[f64]) -> Result<f64, RecoveryError> {
        let lambda = match self {
            LambdaRule::Absolute(l) => l,
            LambdaRule::RatioOfMax(r) => {
                if r <= 0.0 {
                    return Err(RecoveryError::InvalidParameter(
                        "lambda ratio must be positive".into(),
                    ));
                }
                r * aty.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
            }
        };
        if lambda < 0.0 {
            return Err(RecoveryError::InvalidParameter(
                "lambda must be non-negative".into(),
            ));
        }
        Ok(lambda)
    }
}

/// FISTA's name in its capabilities and errors.
const NAME: &str = "fista";

/// FISTA solver configuration (non-consuming builder).
///
/// # Examples
///
/// ```
/// use tepics_cs::{DenseMatrix, LinearOperator};
/// use tepics_recovery::{Fista, Solver};
/// use tepics_util::SplitMix64;
///
/// let mut rng = SplitMix64::new(1);
/// let a = DenseMatrix::from_fn(12, 24, |_, _| rng.next_gaussian() / 12f64.sqrt());
/// let mut x = vec![0.0; 24];
/// x[7] = 2.0;
/// let y = a.apply_vec(&x);
/// let rec = Fista::new().lambda_ratio(0.01).max_iter(1000).solve(&a, &y).unwrap();
/// assert!((rec.coefficients[7] - 2.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fista {
    lambda: LambdaRule,
    max_iter: usize,
    tol: f64,
    step: Option<f64>,
}

impl Fista {
    /// Creates a solver with defaults: `λ = 0.02·‖Aᵀy‖∞`, 400
    /// iterations, tolerance 1e-6.
    pub fn new() -> Self {
        Fista {
            lambda: LambdaRule::RatioOfMax(0.02),
            max_iter: 400,
            tol: 1e-6,
            step: None,
        }
    }

    /// Sets an absolute λ.
    pub fn lambda(&mut self, lambda: f64) -> &mut Self {
        self.lambda = LambdaRule::Absolute(lambda);
        self
    }

    /// Sets λ as a fraction of `‖Aᵀy‖∞`.
    pub fn lambda_ratio(&mut self, ratio: f64) -> &mut Self {
        self.lambda = LambdaRule::RatioOfMax(ratio);
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

    /// Overrides the gradient step `1/L` (skips the internal norm
    /// estimation — callers that memoize the seeded power iteration
    /// pass its result back through here).
    pub fn step(&mut self, step: f64) -> &mut Self {
        self.step = Some(step);
        self
    }
}

impl Default for Fista {
    fn default() -> Self {
        Fista::new()
    }
}

impl Solver for Fista {
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            name: NAME,
            norm_seed: Some(norm_seeds::FISTA),
        }
    }

    /// The proximal-gradient loop `α ← soft(z − (1/L)Aᵀ(Az − y), λ/L)`,
    /// with `z` extrapolated from the last two iterates.
    ///
    /// # Errors
    ///
    /// A [`DimensionMismatch`](crate::RecoveryError::DimensionMismatch)
    /// if `y` does not match the operator, an
    /// [`InvalidParameter`](crate::RecoveryError::InvalidParameter) for
    /// non-positive λ/step configurations, or a
    /// [`Breakdown`](crate::RecoveryError::Breakdown) once an iterate or
    /// the final residual is not finite.
    // tidy:alloc-free
    fn solve_with(
        &self,
        a: &dyn LinearOperator,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> SolveResult {
        check_dims(a.rows(), y)?;
        let n = a.cols();
        workspace.prepare(a.rows(), n);
        let SolverWorkspace {
            alpha,
            alpha_prev,
            z,
            grad,
            resid,
            ..
        } = workspace;
        // λ resolution (grad doubles as the Aᵀy buffer here; the loop
        // overwrites it before reading it again).
        a.apply_adjoint(y, grad);
        let lambda = self.lambda.resolve(grad)?;
        let Some(step) = resolve_step(a, self.step, norm_seeds::FISTA)? else {
            return Ok(zero_solution(n, y));
        };
        let mut t = 1.0f64;
        let progress = iterate(
            NAME,
            self.max_iter,
            self.tol,
            alpha,
            alpha_prev,
            |alpha, prev| {
                // grad = Aᵀ(Az − y)
                a.apply(z, resid);
                for (r, &yi) in resid.iter_mut().zip(y) {
                    *r -= yi;
                }
                a.apply_adjoint(resid, grad);
                // Proximal step from z.
                for ((v, &zi), &g) in alpha.iter_mut().zip(z.iter()).zip(grad.iter()) {
                    *v = zi - step * g;
                }
                soft_threshold(alpha, lambda * step);
                let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
                let beta = (t - 1.0) / t_next;
                for ((zi, &v), &p) in z.iter_mut().zip(alpha.iter()).zip(prev) {
                    *zi = v + beta * (v - p);
                }
                t = t_next;
            },
        )?;
        finish(NAME, a, y, alpha, resid, progress)
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
        let scale = 1.0 / (rows as f64).sqrt();
        let a = DenseMatrix::from_fn(rows, cols, |_, _| rng.next_gaussian() * scale);
        let mut x = vec![0.0; cols];
        let mut placed = 0;
        while placed < k {
            let i = rng.next_below(cols as u64) as usize;
            if x[i] == 0.0 {
                x[i] = if rng.next_bool() { 1.0 } else { -1.0 } * (0.5 + rng.next_f64());
                placed += 1;
            }
        }
        let y = a.apply_vec(&x);
        (a, x, y)
    }

    #[test]
    fn recovers_sparse_signal_support() {
        let (a, x, y) = gaussian_problem(40, 100, 5, 7);
        let rec = Fista::new()
            .lambda_ratio(0.01)
            .max_iter(2000)
            .tol(1e-9)
            .solve(&a, &y)
            .unwrap();
        // Support match: the 5 largest recovered entries are the truth.
        let mut idx: Vec<usize> = (0..100).collect();
        idx.sort_by(|&p, &q| {
            rec.coefficients[q]
                .abs()
                .partial_cmp(&rec.coefficients[p].abs())
                .unwrap()
        });
        for &i in &idx[..5] {
            assert!(x[i] != 0.0, "recovered support contains spurious atom {i}");
        }
        // Values close after shrinkage.
        for (i, &xi) in x.iter().enumerate() {
            assert!(
                (rec.coefficients[i] - xi).abs() < 0.15,
                "coef {i}: {} vs {}",
                rec.coefficients[i],
                xi
            );
        }
    }

    #[test]
    fn large_lambda_gives_zero_solution() {
        let (a, _, y) = gaussian_problem(20, 50, 3, 9);
        let rec = Fista::new().lambda_ratio(1.1).solve(&a, &y).unwrap();
        assert!(rec.coefficients.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_measurements_give_zero_solution() {
        let (a, _, _) = gaussian_problem(20, 50, 3, 11);
        let rec = Fista::new().solve(&a, &[0.0; 20]).unwrap();
        assert!(rec.coefficients.iter().all(|&v| v == 0.0));
        assert!(rec.stats.converged);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let (a, _, _) = gaussian_problem(10, 20, 2, 1);
        let err = Fista::new().solve(&a, &[0.0; 9]).unwrap_err();
        assert!(matches!(
            err,
            RecoveryError::DimensionMismatch {
                expected: 10,
                actual: 9
            }
        ));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let (a, _, y) = gaussian_problem(10, 20, 2, 2);
        assert!(Fista::new().lambda_ratio(0.0).solve(&a, &y).is_err());
        assert!(Fista::new().step(-1.0).solve(&a, &y).is_err());
    }

    #[test]
    fn explicit_step_matches_auto_estimate() {
        let (a, _, y) = gaussian_problem(30, 60, 3, 21);
        let auto = Fista::new()
            .lambda_ratio(0.02)
            .max_iter(3000)
            .tol(1e-10)
            .solve(&a, &y)
            .unwrap();
        let norm = tepics_cs::op::operator_norm_est(&a, 60, 5);
        let manual = Fista::new()
            .lambda_ratio(0.02)
            .step(1.0 / (norm * norm * 1.05))
            .max_iter(3000)
            .tol(1e-10)
            .solve(&a, &y)
            .unwrap();
        for (p, q) in auto.coefficients.iter().zip(&manual.coefficients) {
            assert!((p - q).abs() < 1e-5);
        }
    }
}
