//! ISTA — plain proximal gradient, kept as the ablation baseline for
//! FISTA's momentum (the `warmup`/solver experiments report both).

use crate::shrink::soft_threshold;
use crate::solver::{norm_seeds, SolveResult, Solver, SolverCaps};
use crate::workspace::SolverWorkspace;
use crate::{check_dims, Recovery, RecoveryError, SolveStats};
use tepics_cs::op::{self, LinearOperator};

/// ISTA solver configuration (non-consuming builder).
///
/// Same objective and parameters as [`crate::Fista`], without momentum:
/// `α ← soft(α − (1/L)Aᵀ(Aα − y), λ/L)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ista {
    lambda_ratio: Option<f64>,
    lambda_abs: Option<f64>,
    max_iter: usize,
    tol: f64,
    step: Option<f64>,
}

impl Ista {
    /// Creates a solver with defaults matching [`crate::Fista::new`].
    pub fn new() -> Self {
        Ista {
            lambda_ratio: Some(0.02),
            lambda_abs: None,
            max_iter: 400,
            tol: 1e-6,
            step: None,
        }
    }

    /// Overrides the gradient step `1/L` (skips the internal norm
    /// estimation — callers that memoize the seeded power iteration pass
    /// its result back through here).
    pub fn step(&mut self, step: f64) -> &mut Self {
        self.step = Some(step);
        self
    }

    /// Sets an absolute λ.
    pub fn lambda(&mut self, lambda: f64) -> &mut Self {
        self.lambda_abs = Some(lambda);
        self.lambda_ratio = None;
        self
    }

    /// Sets λ as a fraction of `‖Aᵀy‖∞`.
    pub fn lambda_ratio(&mut self, ratio: f64) -> &mut Self {
        self.lambda_ratio = Some(ratio);
        self.lambda_abs = None;
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

    /// Runs the solver with freshly allocated buffers.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::DimensionMismatch`] on length mismatch or
    /// [`RecoveryError::InvalidParameter`] for non-positive λ settings.
    pub fn solve<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        y: &[f64],
    ) -> Result<Recovery, RecoveryError> {
        self.solve_with(a, y, &mut SolverWorkspace::new())
    }

    /// Runs the solver reusing `workspace` buffers; results are
    /// bit-identical to [`Ista::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`Ista::solve`].
    // tidy:alloc-free
    pub fn solve_with<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> Result<Recovery, RecoveryError> {
        check_dims(a.rows(), y)?;
        let n = a.cols();
        workspace.prepare(a.rows(), n);
        let SolverWorkspace {
            alpha,
            alpha_prev: prev,
            grad,
            resid,
            ..
        } = workspace;
        // λ resolution (grad doubles as the Aᵀy buffer; the loop
        // overwrites it before reading it again).
        a.apply_adjoint(y, grad);
        let aty = &*grad;
        let lambda = if let Some(l) = self.lambda_abs {
            if l < 0.0 {
                return Err(RecoveryError::InvalidParameter(
                    "lambda must be non-negative".into(),
                ));
            }
            l
        } else {
            let r = self.lambda_ratio.unwrap_or(0.02);
            if r <= 0.0 {
                return Err(RecoveryError::InvalidParameter(
                    "lambda ratio must be positive".into(),
                ));
            }
            r * aty.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
        };
        let step = match self.step {
            Some(s) if s > 0.0 => s,
            Some(_) => {
                return Err(RecoveryError::InvalidParameter(
                    "step must be positive".into(),
                ))
            }
            None => {
                let norm = op::operator_norm_est(a, 30, norm_seeds::ISTA);
                if norm == 0.0 {
                    return Ok(Recovery {
                        // tidy:allow(alloc: zero-operator early exit, before the iteration loop)
                        coefficients: vec![0.0; n],
                        stats: SolveStats {
                            iterations: 0,
                            residual_norm: op::norm2(y),
                            converged: true,
                        },
                    });
                }
                1.0 / (norm * norm * 1.05)
            }
        };
        let mut iterations = 0;
        let mut converged = false;
        for it in 0..self.max_iter {
            iterations = it + 1;
            a.apply(alpha, resid);
            for (r, &yi) in resid.iter_mut().zip(y) {
                *r -= yi;
            }
            a.apply_adjoint(resid, grad);
            prev.copy_from_slice(alpha);
            for i in 0..n {
                alpha[i] -= step * grad[i];
            }
            soft_threshold(alpha, lambda * step);
            let mut diff = 0.0;
            let mut nrm = 0.0;
            for i in 0..n {
                let d = alpha[i] - prev[i];
                diff += d * d;
                nrm += alpha[i] * alpha[i];
            }
            if diff.sqrt() <= self.tol * nrm.sqrt().max(1e-12) {
                converged = true;
                break;
            }
        }
        a.apply(alpha, resid);
        for (r, &yi) in resid.iter_mut().zip(y) {
            *r -= yi;
        }
        Ok(Recovery {
            // tidy:allow(alloc: the returned coefficient vector, once per solve)
            coefficients: alpha.clone(),
            stats: SolveStats {
                iterations,
                residual_norm: op::norm2(resid),
                converged,
            },
        })
    }
}

impl Default for Ista {
    fn default() -> Self {
        Ista::new()
    }
}

impl Solver for Ista {
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            name: "ista",
            norm_seed: Some(norm_seeds::ISTA),
        }
    }

    fn solve_with(
        &self,
        a: &dyn LinearOperator,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> SolveResult {
        Ista::solve_with(self, a, y, workspace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_cs::DenseMatrix;
    use tepics_util::SplitMix64;

    #[test]
    fn ista_converges_on_small_problem() {
        let mut rng = SplitMix64::new(3);
        let a = DenseMatrix::from_fn(30, 60, |_, _| rng.next_gaussian() / 30f64.sqrt());
        let mut x = vec![0.0; 60];
        x[10] = 1.0;
        x[40] = -2.0;
        let y = a.apply_vec(&x);
        let rec = Ista::new()
            .lambda_ratio(0.02)
            .max_iter(3000)
            .tol(1e-8)
            .solve(&a, &y)
            .unwrap();
        assert!(rec.stats.converged);
        assert!((rec.coefficients[40] + 2.0).abs() < 0.2);
        assert!((rec.coefficients[10] - 1.0).abs() < 0.2);
    }

    #[test]
    fn objective_decreases_monotonically() {
        // ISTA is a monotone method: check objective at a few milestones.
        let mut rng = SplitMix64::new(5);
        let a = DenseMatrix::from_fn(20, 40, |_, _| rng.next_gaussian() / 20f64.sqrt());
        let mut x = vec![0.0; 40];
        x[5] = 1.5;
        let y = a.apply_vec(&x);
        let objective = |alpha: &[f64], lambda: f64| {
            let r = tepics_cs::op::sub(&a.apply_vec(alpha), &y);
            0.5 * tepics_cs::op::dot(&r, &r) + lambda * alpha.iter().map(|v| v.abs()).sum::<f64>()
        };
        let aty = a.apply_adjoint_vec(&y);
        let lambda = 0.05 * aty.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let mut last = f64::INFINITY;
        for iters in [1usize, 5, 20, 100, 400] {
            let rec = Ista::new()
                .lambda(lambda)
                .max_iter(iters)
                .tol(0.0)
                .solve(&a, &y)
                .unwrap();
            let obj = objective(&rec.coefficients, lambda);
            assert!(obj <= last + 1e-9, "objective rose at {iters} iters");
            last = obj;
        }
    }
}
