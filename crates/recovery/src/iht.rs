//! Normalized iterative hard thresholding (NIHT).
//!
//! `α ← H_k(α + μ Aᵀ(y − Aα))` with the adaptive step of Blumensath &
//! Davies' NIHT: `μ = ‖g_S‖² / ‖A g_S‖²` computed on the current
//! support, falling back to the gradient step `1/L` when that ratio is
//! undefined.
//! Cheap per iteration and the natural solver when the target sparsity
//! is known (e.g. star fields with a known source count).

use crate::check_dims;
use crate::iterative::{finish, iterate, resolve_step, zero_solution};
use crate::shrink::hard_threshold_top_k;
use crate::solver::{norm_seeds, SolveResult, Solver, SolverCaps};
use crate::workspace::SolverWorkspace;
use tepics_cs::op::{self, LinearOperator};

/// IHT's name in its capabilities and errors.
const NAME: &str = "iht";

/// IHT solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Iht {
    sparsity: usize,
    max_iter: usize,
    tol: f64,
    step: Option<f64>,
}

impl Iht {
    /// Creates a solver targeting `sparsity` nonzeros.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity == 0`.
    pub fn new(sparsity: usize) -> Self {
        assert!(sparsity > 0, "sparsity must be positive");
        Iht {
            sparsity,
            max_iter: 300,
            tol: 1e-7,
            step: None,
        }
    }

    /// Overrides the fallback gradient step `1/L` (skips the internal
    /// norm estimation — callers that memoize the seeded power iteration
    /// pass its result back through here). The adaptive NIHT step still
    /// applies on supported iterates; this only replaces the fallback.
    pub fn step(&mut self, step: f64) -> &mut Self {
        self.step = Some(step);
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
}

impl Solver for Iht {
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            name: NAME,
            norm_seed: Some(norm_seeds::IHT),
        }
    }

    /// # Errors
    ///
    /// A [`DimensionMismatch`](crate::RecoveryError::DimensionMismatch)
    /// if `y` does not match the operator, an
    /// [`InvalidParameter`](crate::RecoveryError::InvalidParameter) for a
    /// non-positive step, or a
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
        let Some(fallback_step) = resolve_step(a, self.step, norm_seeds::IHT)? else {
            return Ok(zero_solution(n, y));
        };
        workspace.prepare(a.rows(), n);
        let SolverWorkspace {
            alpha,
            alpha_prev,
            z: g_s,
            grad,
            resid,
            rows_tmp: ag,
            keep: order,
            ..
        } = workspace;
        resid.copy_from_slice(y); // r = y − Aα, starts at y
        let progress = iterate(
            NAME,
            self.max_iter,
            self.tol,
            alpha,
            alpha_prev,
            |alpha, _| {
                a.apply_adjoint(resid, grad);
                // NIHT step: restrict gradient to the current support (or the
                // full gradient on the first pass when support is empty).
                g_s.copy_from_slice(grad);
                if alpha.iter().any(|&v| v != 0.0) {
                    for (g, &v) in g_s.iter_mut().zip(alpha.iter()) {
                        if v == 0.0 {
                            *g = 0.0;
                        }
                    }
                }
                let g_norm2 = op::dot(g_s, g_s);
                let mu = if g_norm2 == 0.0 {
                    fallback_step
                } else {
                    a.apply(g_s, ag);
                    let denom = op::dot(ag, ag);
                    if denom == 0.0 {
                        fallback_step
                    } else {
                        g_norm2 / denom
                    }
                };
                for (v, &g) in alpha.iter_mut().zip(grad.iter()) {
                    *v += mu * g;
                }
                hard_threshold_top_k(alpha, self.sparsity, order);
                // Refresh residual.
                a.apply(alpha, ag);
                for (r, (&yi, &av)) in resid.iter_mut().zip(y.iter().zip(ag.iter())) {
                    *r = yi - av;
                }
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
    fn recovers_known_sparsity_signal() {
        let (a, x, y) = gaussian_problem(50, 100, 5, 17);
        let rec = Iht::new(5).max_iter(500).solve(&a, &y).unwrap();
        for (i, &xi) in x.iter().enumerate() {
            assert!(
                (rec.coefficients[i] - xi).abs() < 1e-3,
                "coef {i}: {} vs {}",
                rec.coefficients[i],
                xi
            );
        }
    }

    #[test]
    fn solution_is_exactly_k_sparse() {
        let (a, _, y) = gaussian_problem(40, 90, 4, 23);
        let rec = Iht::new(4).solve(&a, &y).unwrap();
        let nnz = rec.coefficients.iter().filter(|&&v| v != 0.0).count();
        assert!(nnz <= 4);
    }

    #[test]
    fn zero_input_returns_zero() {
        let (a, _, _) = gaussian_problem(20, 40, 2, 3);
        let rec = Iht::new(2).solve(&a, &[0.0; 20]).unwrap();
        assert!(rec.coefficients.iter().all(|&v| v == 0.0));
    }
}
