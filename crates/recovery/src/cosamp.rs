//! CoSaMP — compressive sampling matching pursuit (Needell & Tropp
//! 2009).
//!
//! Per iteration: identify the 2k atoms most correlated with the
//! residual, merge them with the current support, solve least squares
//! on the merged support `Ω`, prune back to the k largest coefficients.
//! More robust than OMP when atoms are correlated, at the price of
//! larger least-squares subproblems.
//!
//! # On Gram slots
//!
//! CoSaMP runs on the same Gram slots as [`Omp`](crate::Omp) (see
//! [`tepics_cs::gram`]), read through the operator's shared
//! [`GramStore`](tepics_cs::gram::GramStore) when one is attached. The
//! least squares on `Ω` is one Cholesky solve on all `K` rows built
//! from slots alone, `(G_train,ΩΩ + A_cv,Ωᵀ A_cv,Ω) γ = α⁰_Ω + A_cv,Ωᵀ y_cv`
//! with `α⁰ = [Aᵀ(mask ⊙ y); y_cv]` computed once per solve: OMP's
//! final re-fit, run every iteration. An atom whose pivot fails — the
//! DC-pinned atom, whose column is exactly zero, or one dependent on
//! the atoms before it — is left out of `Ω`.
//!
//! The proxy stays one adjoint of the residual per iteration: a slot
//! holds the *training* Gram column, so `α⁰ − G[:, T]·x_T` built from
//! slots would miss the held-out rows, and restoring them costs about
//! an adjoint anyway. One forward application per iteration then
//! updates the residual. A residual norm or coefficient that is not
//! finite ends the solve with
//! [`RecoveryError::Breakdown`](crate::RecoveryError::Breakdown).

use crate::greedy::{correlations_into, fit_all_rows, residual_into, GramSlots};
use crate::shrink::top_k_indices_into;
use crate::solver::{SolveResult, Solver, SolverCaps};
use crate::workspace::SolverWorkspace;
use crate::{breakdown, check_dims, Recovery, SolveStats};
use tepics_cs::op::{self, LinearOperator};

/// Iteration cap.
const MAX_ITER: usize = 50;

/// The pursuit stops once `‖r‖ ≤ RESIDUAL_TOL · ‖y‖`.
const RESIDUAL_TOL: f64 = 1e-9;

/// CoSaMP solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoSaMp {
    sparsity: usize,
}

impl CoSaMp {
    /// Creates a solver targeting `sparsity` nonzeros.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity == 0`.
    pub fn new(sparsity: usize) -> Self {
        assert!(sparsity > 0, "sparsity must be positive");
        CoSaMp { sparsity }
    }
}

impl Solver for CoSaMp {
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            name: "cosamp",
            norm_seed: None,
        }
    }

    /// Runs the pursuit on `workspace` buffers (the iterate, the merged
    /// support, per-solve Gram slots and the small least-squares set),
    /// so the whole pursuit allocates nothing once the workspace is
    /// warm, apart from admissions into an attached Gram store.
    ///
    /// # Errors
    ///
    /// A [`DimensionMismatch`](crate::RecoveryError::DimensionMismatch)
    /// if `y` does not match the operator, and a
    /// [`Breakdown`](crate::RecoveryError::Breakdown) if the residual or
    /// a coefficient stops being finite.
    // tidy:alloc-free
    fn solve_with(
        &self,
        a: &dyn LinearOperator,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> SolveResult {
        check_dims(a.rows(), y)?;
        let n = a.cols();
        let k = self.sparsity.min(n);
        let y_norm = op::norm2(y);
        workspace.prepare(a.rows(), n);
        let SolverWorkspace {
            alpha: x,
            z: alpha0,
            grad,
            resid,
            rows_tmp: atom,
            candidate: omega,
            keep,
            gram_misses,
            gram_starts,
            normal: ne,
            ..
        } = workspace;
        correlations_into(a, y, atom, alpha0);
        let mut slots = GramSlots::new(a, gram_misses, gram_starts);
        let mut iterations = 0;
        let mut converged = y_norm == 0.0;
        let mut last_resid = f64::INFINITY;
        resid.copy_from_slice(y);
        for it in 0..MAX_ITER {
            if converged {
                break;
            }
            iterations = it + 1;
            // Ω: the 2k atoms most correlated with the residual ∪ the
            // current support.
            a.apply_adjoint(resid, grad);
            top_k_indices_into(grad, 2 * k, omega);
            omega.extend((0..n).filter(|&j| x[j] != 0.0));
            omega.sort_unstable();
            omega.dedup();
            // Least squares on Ω over all rows, from Gram slots.
            for &j in omega.iter() {
                slots.fetch(a, j, atom);
            }
            fit_all_rows(&slots, alpha0, omega, ne);
            // Prune to the k largest coefficients.
            top_k_indices_into(&ne.gamma, k, keep);
            x.fill(0.0);
            for &t in keep.iter() {
                x[omega[t]] = ne.gamma[t];
            }
            residual_into(a, x, y, resid);
            let rn = op::norm2(resid);
            if !rn.is_finite() {
                return Err(breakdown("CoSaMP", "the residual is not finite"));
            }
            if rn <= RESIDUAL_TOL * y_norm.max(1e-300) {
                converged = true;
            }
            // Stall detection: no meaningful progress.
            if (last_resid - rn).abs() <= 1e-12 * y_norm.max(1e-300) {
                break;
            }
            last_resid = rn;
        }
        if !x.iter().all(|c| c.is_finite()) {
            return Err(breakdown("CoSaMP", "a coefficient is not finite"));
        }
        Ok(Recovery {
            // tidy:allow(alloc: the returned coefficient vector, once per solve)
            coefficients: x.clone(),
            stats: SolveStats {
                iterations,
                residual_norm: op::norm2(resid),
                converged,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecoveryError;
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
                x[i] = if rng.next_bool() { 1.0 } else { -1.0 } * (1.0 + rng.next_f64());
                placed += 1;
            }
        }
        let y = a.apply_vec(&x);
        (a, x, y)
    }

    #[test]
    fn exact_recovery_on_well_posed_problems() {
        for seed in [2u64, 4, 6] {
            let (a, x, y) = gaussian_problem(60, 128, 6, seed);
            let rec = CoSaMp::new(6).solve(&a, &y).unwrap();
            assert!(rec.stats.converged, "seed {seed}");
            for (i, &xi) in x.iter().enumerate() {
                assert!(
                    (rec.coefficients[i] - xi).abs() < 1e-6,
                    "seed {seed} coef {i}"
                );
            }
        }
    }

    #[test]
    fn solution_is_k_sparse() {
        let (a, _, y) = gaussian_problem(40, 100, 5, 12);
        let rec = CoSaMp::new(5).solve(&a, &y).unwrap();
        assert!(rec.coefficients.iter().filter(|&&v| v != 0.0).count() <= 5);
    }

    #[test]
    fn non_finite_operators_break_down_instead_of_emitting_garbage() {
        // A NaN or an inf entry, in a column of the true support and in
        // one outside it, with and without the hold-out, and a NaN in y.
        for rows in [30, 60] {
            let (a, x, y) = gaussian_problem(rows, 80, 5, 11);
            let picked = x.iter().position(|&v| v != 0.0).unwrap();
            let unused = x.iter().position(|&v| v == 0.0).unwrap();
            for bad in [f64::NAN, f64::INFINITY] {
                for col in [picked, unused] {
                    let mut broken = a.clone();
                    broken.set(rows / 2, col, bad);
                    match CoSaMp::new(5).solve(&broken, &y) {
                        Err(RecoveryError::Breakdown(_)) => {}
                        other => panic!("{rows} rows, {bad} in column {col}: {other:?}"),
                    }
                }
            }
            let mut nan_y = y.clone();
            nan_y[1] = f64::NAN;
            assert!(matches!(
                CoSaMp::new(5).solve(&a, &nan_y),
                Err(RecoveryError::Breakdown(_))
            ));
        }
    }

    #[test]
    fn zero_measurements_converge_immediately() {
        let (a, _, _) = gaussian_problem(20, 50, 3, 1);
        let rec = CoSaMp::new(3).solve(&a, &[0.0; 20]).unwrap();
        assert!(rec.stats.converged);
        assert_eq!(rec.stats.iterations, 0);
    }

    #[test]
    fn dimension_mismatch_reported() {
        let (a, _, _) = gaussian_problem(20, 50, 3, 1);
        assert!(CoSaMp::new(3).solve(&a, &[0.0; 19]).is_err());
    }
}
