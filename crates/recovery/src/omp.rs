//! Orthogonal matching pursuit, run as Batch-OMP.
//!
//! The classic greedy decoder: pick the atom most correlated with the
//! residual, re-fit all selected atoms by least squares (via incremental
//! Cholesky on the growing Gram matrix), repeat. Exact for k-sparse
//! signals when the matrix is well-conditioned on the support, and the
//! standard per-block solver of block-based CS.
//!
//! # Batch-OMP
//!
//! The pursuit never forms the residual inside its loop. It computes
//! `α⁰ = Aᵀy` once; after each re-fit `γ_I` on the support `I`, the
//! correlations with the new residual are `α = α⁰ − G[:, I]·γ_I`, and
//! the Cholesky cross terms of a new atom `j` are read from its Gram
//! column `G[:, j] = Aᵀ a_j` at the rows `I`. So an iteration costs one
//! Gram column (none once it is stored) plus `O(|I|·N)` flops, instead
//! of one adjoint and a residual recompute. A selected-flag mask keeps
//! chosen atoms out of the argmax. Reference: R. Rubinstein, M.
//! Zibulevsky and M. Elad, "Efficient Implementation of the K-SVD
//! Algorithm using Batch Orthogonal Matching Pursuit", Technion
//! CS-2008-08.
//!
//! The least-squares re-fit is incremental as well: `α⁰_I` and the
//! Cholesky factor of `G_II` each grow by one row per iteration, so the
//! forward substitution `L⁻¹α⁰_I` is kept across iterations and only
//! its new entry is computed, bit-identical to a full substitution. One
//! back substitution per iteration remains (see
//! [`GrowingCholesky::solve_into`](tepics_cs::chol::GrowingCholesky::solve_into)).
//!
//! Gram columns come from the operator's shared
//! [`GramStore`](tepics_cs::gram::GramStore) when one is attached
//! ([`LinearOperator::gram_store`]): a stored column is a hit, a new
//! one is admitted while the store has room, and one a full store turns
//! away is computed into the workspace for this solve only. Without a
//! store every column is such a miss. A Gram column is a pure function
//! of the operator and the atom, so results never depend on what the
//! store holds, on warmth, or on the thread that filled it.
//!
//! The residual norm `‖y‖² − γᵀα⁰_I` comes for free but cancels to
//! noise once `‖r‖²` falls below about `1e-8·‖y‖²`. A tracked value at
//! or below the stop threshold (or that floor) is therefore confirmed
//! with one explicit forward application, and the reported
//! [`residual_norm`](crate::SolveStats::residual_norm) always comes
//! from one.

use crate::solver::{SolveResult, Solver, SolverCaps};
use crate::workspace::SolverWorkspace;
use crate::{check_dims, Recovery, RecoveryError, SolveStats};
use tepics_cs::gram::gram_column_into;
use tepics_cs::op::{self, LinearOperator};

/// The relative `‖r‖²/‖y‖²` below which the tracked residual norm is
/// cancellation noise and must be confirmed explicitly.
const TRACKED_FLOOR: f64 = 1e-8;

/// OMP solver configuration.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Omp {
    max_atoms: usize,
    residual_tol: f64,
}

impl Omp {
    /// Creates a solver that selects at most `max_atoms` atoms.
    ///
    /// # Panics
    ///
    /// Panics if `max_atoms == 0`.
    pub fn new(max_atoms: usize) -> Self {
        assert!(max_atoms > 0, "need at least one atom");
        Omp {
            max_atoms,
            residual_tol: 1e-9,
        }
    }

    /// Stops early once `‖r‖ ≤ tol · ‖y‖`.
    pub fn residual_tol(&mut self, tol: f64) -> &mut Self {
        self.residual_tol = tol;
        self
    }

    /// Runs the pursuit with freshly allocated buffers.
    ///
    /// Atom selection maximizes `|⟨a_j, r⟩|` (unnormalized); for the
    /// ensembles in this workspace columns have near-equal norms, and
    /// the equal-norm assumption is standard for OMP on such ensembles.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::DimensionMismatch`] if `y` does not match
    /// the operator.
    pub fn solve<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        y: &[f64],
    ) -> Result<Recovery, RecoveryError> {
        self.solve_with(a, y, &mut SolverWorkspace::new())
    }

    /// Runs the pursuit reusing `workspace` buffers (correlations,
    /// the selected-flag mask, per-solve Gram columns, the growing
    /// Cholesky, and the small least-squares vectors); results are
    /// bit-identical to [`Omp::solve`], with no allocations inside the
    /// pursuit loop once the workspace is warm, apart from admissions
    /// into an attached Gram store.
    ///
    /// # Errors
    ///
    /// Same as [`Omp::solve`].
    // tidy:alloc-free
    pub fn solve_with<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> Result<Recovery, RecoveryError> {
        check_dims(a.rows(), y)?;
        let n = a.cols();
        let m = a.rows();
        let y2 = op::dot(y, y);
        let y_norm = y2.sqrt();
        let budget = self.max_atoms.min(n).min(m);
        let tol = self.residual_tol;
        let store = a.gram_store();
        let SolverWorkspace {
            alpha: alpha0,
            grad: corr,
            z: x,
            resid: residual,
            rows_tmp: atom,
            selected,
            support,
            gram_misses: misses,
            gram_cross: cross,
            rhs,
            small: coeffs,
            small2: forward,
            chol,
            ..
        } = workspace;
        let chol = chol
            // tidy:allow(alloc: cold-path Cholesky factor; warm workspaces reuse it)
            .get_or_insert_with(|| tepics_cs::chol::GrowingCholesky::with_capacity(budget.max(1)));
        chol.reset(budget.max(1));
        alpha0.clear();
        alpha0.resize(n, 0.0);
        a.apply_adjoint(y, alpha0);
        corr.clear();
        corr.extend_from_slice(alpha0);
        atom.clear();
        atom.resize(m, 0.0);
        selected.clear();
        selected.resize(n, false);
        residual.clear();
        residual.extend_from_slice(y);
        // Whether `residual` holds y − A·x for the current support.
        let mut residual_fresh = true;
        support.clear();
        misses.clear();
        rhs.clear();
        forward.clear();
        coeffs.clear();
        let mut converged = y_norm == 0.0;
        while support.len() < budget && !converged {
            // Best atom not already selected.
            let mut best = None;
            let mut best_mag = 0.0;
            for (j, (&c, &taken)) in corr.iter().zip(selected.iter()).enumerate() {
                if c.abs() > best_mag && !taken {
                    best_mag = c.abs();
                    best = Some(j);
                }
            }
            let Some(j) = best else { break };
            if best_mag < 1e-14 {
                break; // residual orthogonal to every atom
            }
            // G[:, j]: a store hit, an admission, or a miss computed into
            // the workspace for this solve only.
            let stored =
                store.and_then(|s| s.column_or_admit(j, |g| gram_column_into(a, j, atom, g)));
            let g = match stored {
                Some(g) => g,
                None => {
                    let start = misses.len();
                    // Capacity tracks the most misses a solve on this
                    // workspace has needed, not the atom budget.
                    misses.reserve_exact(n);
                    misses.resize(start + n, 0.0);
                    gram_column_into(a, j, atom, &mut misses[start..]);
                    &misses[start..]
                }
            };
            cross.clear();
            cross.extend(support.iter().map(|&i| g[i]));
            if chol.push(cross, g[j]).is_err() {
                // Dependent atom: skip it by pretending correlation is
                // exhausted (no further progress possible on this atom).
                break;
            }
            support.push(j);
            selected[j] = true;
            // Least squares on the support: G_II γ = α⁰_I. The rhs
            // entries never change, so each iteration appends only the
            // new atom's entry and forward-substitutes only its row.
            rhs.push(alpha0[j]);
            chol.solve_into(rhs, coeffs, forward);
            // α = α⁰ − G[:, I]·γ_I. Selected atoms read their column from
            // the store, or else the next miss in selection order.
            corr.copy_from_slice(alpha0);
            let mut local = misses.chunks_exact(n);
            let mut quad: [(&[f64], f64); 4] = [(&[], 0.0); 4];
            for (t, (&i, &c)) in support.iter().zip(coeffs.iter()).enumerate() {
                let gi = store
                    .and_then(|s| s.column(i))
                    .or_else(|| local.next())
                    .unwrap_or_default();
                quad[t % 4] = (gi, c);
                if t % 4 == 3 {
                    subtract_quad(corr, &quad);
                }
            }
            for &(gi, c) in &quad[..support.len() % 4] {
                op::axpy(-c, gi, corr);
            }
            residual_fresh = false;
            let tracked = y2 - op::dot(coeffs, rhs);
            if tracked <= (tol * tol).max(TRACKED_FLOOR) * y2 {
                x.clear();
                x.resize(n, 0.0);
                for (&i, &c) in support.iter().zip(coeffs.iter()) {
                    x[i] = c;
                }
                residual_into(a, x, y, residual);
                residual_fresh = true;
                converged = op::norm2(residual) <= tol * y_norm.max(1e-300);
            }
        }
        // tidy:allow(alloc: the returned coefficient vector, once per solve)
        let mut full = vec![0.0; n];
        for (&j, &c) in support.iter().zip(coeffs.iter()) {
            full[j] = c;
        }
        if !residual_fresh {
            residual_into(a, &full, y, residual);
        }
        Ok(Recovery {
            coefficients: full,
            stats: SolveStats {
                iterations: support.len(),
                residual_norm: op::norm2(residual),
                converged,
            },
        })
    }
}

/// `corr −= Σ c·g` over four Gram columns in one pass, so the
/// correlations are loaded and stored once per four columns.
// tidy:alloc-free
#[inline]
fn subtract_quad(corr: &mut [f64], quad: &[(&[f64], f64); 4]) {
    let [(g0, c0), (g1, c1), (g2, c2), (g3, c3)] = *quad;
    let columns = g0.iter().zip(g1).zip(g2).zip(g3);
    for (o, (((&a, &b), &c), &d)) in corr.iter_mut().zip(columns) {
        *o -= (c0 * a + c1 * b) + (c2 * c + c3 * d);
    }
}

/// `residual = y − A x`, by one explicit forward application.
// tidy:alloc-free
fn residual_into<A: LinearOperator + ?Sized>(a: &A, x: &[f64], y: &[f64], residual: &mut [f64]) {
    a.apply(x, residual);
    for (r, &yk) in residual.iter_mut().zip(y) {
        *r = yk - *r;
    }
}

impl Solver for Omp {
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            name: "omp",
            norm_seed: None,
            column_hungry: false,
        }
    }

    fn solve_with(
        &self,
        a: &dyn LinearOperator,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> SolveResult {
        Omp::solve_with(self, a, y, workspace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_cs::gram::GramStore;
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
                x[i] = if rng.next_bool() { 1.0 } else { -1.0 } * (0.5 + rng.next_f64());
                placed += 1;
            }
        }
        let y = a.apply_vec(&x);
        (a, x, y)
    }

    #[test]
    fn exact_recovery_of_sparse_signals() {
        // A small atom budget beyond k absorbs the occasional early
        // mis-pick; once the true support is in, the LS fit drives the
        // residual to zero and convergence stops the pursuit.
        for seed in 1..=5 {
            let (a, x, y) = gaussian_problem(40, 120, 6, seed);
            let rec = Omp::new(10).residual_tol(1e-10).solve(&a, &y).unwrap();
            assert!(rec.stats.converged, "seed {seed} did not converge");
            for (i, &xi) in x.iter().enumerate() {
                assert!(
                    (rec.coefficients[i] - xi).abs() < 1e-6,
                    "seed {seed}, coef {i}: {} vs {}",
                    rec.coefficients[i],
                    xi
                );
            }
        }
    }

    #[test]
    fn column_view_leaves_results_bit_identical() {
        // A view materialized from a dense matrix serves the same
        // columns and rounds its applications exactly like it, so
        // results must be equal bit for bit.
        use tepics_cs::colview::ColumnMatrix;
        let (a, _, y) = gaussian_problem(30, 80, 5, 99);
        let view = ColumnMatrix::from_operator(&a);
        let plain = Omp::new(8).solve(&a, &y).unwrap();
        let through_view = Omp::new(8).solve(&view, &y).unwrap();
        assert_eq!(plain, through_view);
    }

    /// A dense operator with an attached Gram store.
    struct Stored<'a> {
        a: &'a DenseMatrix,
        store: GramStore,
    }

    impl LinearOperator for Stored<'_> {
        fn rows(&self) -> usize {
            self.a.rows()
        }

        fn cols(&self) -> usize {
            self.a.cols()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.a.apply(x, y);
        }

        fn apply_adjoint(&self, y: &[f64], x: &mut [f64]) {
            self.a.apply_adjoint(y, x);
        }

        fn column_into(&self, j: usize, out: &mut [f64]) {
            self.a.column_into(j, out);
        }

        fn gram_store(&self) -> Option<&GramStore> {
            Some(&self.store)
        }
    }

    #[test]
    fn gram_store_leaves_results_bit_identical() {
        // A stored Gram column equals the one a miss computes, so cold,
        // warm and full stores all reproduce the store-less solve.
        let (a, _, y) = gaussian_problem(30, 80, 5, 99);
        let plain = Omp::new(12).solve(&a, &y).unwrap();
        let stored = Stored {
            a: &a,
            store: GramStore::new(30, 80),
        };
        let cold = Omp::new(12).solve(&stored, &y).unwrap();
        let warm = Omp::new(12).solve(&stored, &y).unwrap();
        assert_eq!(plain, cold);
        assert_eq!(plain, warm);
        assert_eq!(stored.store.admitted(), plain.stats.iterations);
        // A store filled to its cap with the last 30 columns turns the
        // solve's other atoms away; they become per-solve misses.
        let full = Stored {
            a: &a,
            store: GramStore::new(30, 80),
        };
        let mut atom = vec![0.0; 30];
        for j in 50..80 {
            full.store
                .column_or_admit(j, |g| gram_column_into(&a, j, &mut atom, g));
        }
        assert_eq!(full.store.admitted(), full.store.capacity());
        assert_eq!(plain, Omp::new(12).solve(&full, &y).unwrap());
        assert_eq!(full.store.admitted(), full.store.capacity());
    }

    #[test]
    fn residual_decreases_with_atom_budget() {
        let (a, _, y) = gaussian_problem(30, 80, 10, 42);
        let mut last = f64::INFINITY;
        for budget in [1usize, 3, 6, 10] {
            let rec = Omp::new(budget).solve(&a, &y).unwrap();
            assert!(
                rec.stats.residual_norm <= last + 1e-12,
                "residual rose at budget {budget}"
            );
            last = rec.stats.residual_norm;
        }
    }

    #[test]
    fn zero_measurement_yields_zero() {
        let (a, _, _) = gaussian_problem(20, 40, 3, 7);
        let rec = Omp::new(5).solve(&a, [0.0; 20].as_ref()).unwrap();
        assert!(rec.coefficients.iter().all(|&v| v == 0.0));
        assert!(rec.stats.converged);
        assert_eq!(rec.stats.iterations, 0);
    }

    #[test]
    fn budget_caps_support_size() {
        let (a, _, y) = gaussian_problem(30, 80, 10, 3);
        let rec = Omp::new(4).solve(&a, &y).unwrap();
        let nnz = rec.coefficients.iter().filter(|&&v| v != 0.0).count();
        assert!(nnz <= 4);
    }

    #[test]
    fn handles_duplicate_columns_gracefully() {
        // Two identical columns: OMP must not crash on the dependent atom.
        let a = DenseMatrix::from_rows(&[vec![1.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]]);
        let y = vec![2.0, 1.0];
        let rec = Omp::new(3).solve(&a, &y).unwrap();
        // Either col 0 or col 1 explains the first component.
        let fit = a.apply_vec(&rec.coefficients);
        assert!((fit[0] - 2.0).abs() < 1e-9);
        assert!((fit[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let (a, _, _) = gaussian_problem(10, 20, 2, 1);
        assert!(Omp::new(2).solve(&a, &[0.0; 11]).is_err());
    }
}
