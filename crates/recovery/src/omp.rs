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
//! away is computed into the workspace, once per solve. Without a store
//! every column is such a miss. A Gram column is a pure function
//! of the operator and the atom, so results never depend on what the
//! store holds, on warmth, or on the thread that filled it.
//!
//! # Where to stop: the held-out residual
//!
//! A fixed atom budget is the wrong stop for real content: past some
//! support size each new atom fits noise and the tile gets worse, and
//! that size differs from tile to tile. So the pursuit holds out a few
//! measurements, runs on the rest, and stops where the residual on the
//! held-out ones is least (P. Boufounos, M. Duarte and R. Baraniuk,
//! IEEE SSP 2007; R. Ward, "Compressed sensing with cross validation",
//! IEEE T-IT 2009, which also shows that this residual estimates the
//! reconstruction error). `max_atoms` is only the cap.
//!
//! * The held-out rows are
//!   [`held_out_rows`](tepics_cs::gram::held_out_rows): every tenth row
//!   once `K ≥ 40`, none below, in which case the pursuit runs exactly
//!   as plain Batch-OMP. They depend on `K` alone, so every tile of a
//!   key and every frame share one Gram store.
//! * A Gram slot holds the training column `Aᵀ(mask ⊙ a_j)` and the
//!   held-out entries `a_j[cv]` (see [`tepics_cs::gram`]). `α⁰` is
//!   `Aᵀ(mask ⊙ y)` followed by `y_cv`, so the one update
//!   `α = α⁰ − Σ_I slot_i·γ_i` yields both the training correlations
//!   and the held-out residual `r_cv = y_cv − A_cv,I·γ_I`, at
//!   `O(m_cv·|I|)` extra cost.
//! * The pursuit remembers the support size and `γ` with the least
//!   `‖r_cv‖` (the empty support included) and stops once `PATIENCE`
//!   further atoms brought no new minimum, or at the cap; it then
//!   truncates to the best support.
//! * The chosen support is re-fitted on all `K` rows from stored values
//!   only: `(G_train,II + A_cv,Iᵀ A_cv,I) γ = α⁰_I + A_cv,Iᵀ y_cv`, one
//!   small Cholesky (the least squares [`CoSaMp`](crate::CoSaMp) runs
//!   every iteration). The held-out rows only add to the training
//!   Gram, so its pivots pass wherever the training factor's did; an
//!   atom whose pivot still fails to rounding is left out.
//!
//! The training residual norm `‖y_train‖² − γᵀα⁰_I` comes for free but
//! cancels to noise once it falls below about `1e-8·‖y_train‖²`. A
//! tracked value at or below the stop threshold (or that floor) is
//! therefore confirmed with one explicit forward application on all
//! rows, and the reported
//! [`residual_norm`](crate::SolveStats::residual_norm) always comes
//! from one. A tracked or held-out residual that is not finite, or a
//! final residual or coefficient that is not, ends the solve with
//! [`RecoveryError::Breakdown`](crate::RecoveryError::Breakdown): the
//! pursuit never returns non-finite coefficients.

use crate::greedy::{correlations_into, factor, fit_all_rows, residual_into, GramSlots};
use crate::solver::{SolveResult, Solver, SolverCaps};
use crate::workspace::SolverWorkspace;
use crate::{breakdown, check_dims, Recovery, SolveStats};
use tepics_cs::gram::held_out_count;
use tepics_cs::op::{self, LinearOperator};

/// The relative `‖r‖²/‖y‖²` below which the tracked residual norm is
/// cancellation noise and must be confirmed explicitly.
const TRACKED_FLOOR: f64 = 1e-8;

/// The pursuit stops early once `‖r‖ ≤ RESIDUAL_TOL · ‖y‖`.
const RESIDUAL_TOL: f64 = 1e-9;

/// Atoms past the held-out residual's last minimum after which the
/// pursuit stops. Measured with `codecbench` (32×32 tiles, `K = 359`,
/// cap 100, 2-core x86-64): at 8, `fleet32_cold`'s `psnr_db` fell below
/// fixed 100-atom OMP (37.46 vs 37.68 dB); at 12 it rose to 38.07 and
/// `tiled256_lossy` decoded 5.2× as many frames/s. Longer patience
/// finds the later, lower minima some blob tiles have (20: 38.58 dB)
/// but cost a third of `tiled256_lossy`'s frames/s, gained nothing on
/// natural tiles, and grew the peak heap as the Gram store fills.
const PATIENCE: usize = 12;

/// OMP solver configuration.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Omp {
    max_atoms: usize,
}

impl Omp {
    /// Creates a solver that selects at most `max_atoms` atoms; where
    /// it stops below that cap is the held-out residual's call (see the
    /// [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `max_atoms == 0`.
    pub fn new(max_atoms: usize) -> Self {
        assert!(max_atoms > 0, "need at least one atom");
        Omp { max_atoms }
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

impl Solver for Omp {
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            name: "omp",
            norm_seed: None,
        }
    }

    /// Runs the pursuit on `workspace` buffers (correlations, the
    /// selected-flag mask, per-solve Gram slots, the growing Cholesky,
    /// the re-fit's held-out rows and the small least-squares vectors),
    /// with no allocations inside the pursuit loop once the workspace is
    /// warm, apart from admissions into an attached Gram store.
    ///
    /// Atom selection maximizes `|⟨a_j, r⟩|` (unnormalized); for the
    /// ensembles in this workspace columns have near-equal norms, and
    /// the equal-norm assumption is standard for OMP on such ensembles.
    ///
    /// # Errors
    ///
    /// A [`DimensionMismatch`](crate::RecoveryError::DimensionMismatch)
    /// if `y` does not match the operator, and a
    /// [`Breakdown`](crate::RecoveryError::Breakdown) if a residual or
    /// coefficient stops being finite.
    // tidy:alloc-free
    fn solve_with(
        &self,
        a: &dyn LinearOperator,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> SolveResult {
        check_dims(a.rows(), y)?;
        let n = a.cols();
        let m = a.rows();
        let held = held_out_count(m);
        let budget = self.max_atoms.min(n).min(m - held);
        let SolverWorkspace {
            alpha: alpha0,
            grad: corr,
            z: x,
            resid: residual,
            rows_tmp: atom,
            selected,
            support,
            gram_misses,
            gram_starts,
            normal: ne,
            ..
        } = workspace;
        let chol = factor(&mut ne.chol, budget.max(1));
        // α⁰ = [Aᵀ(mask ⊙ y); y_cv], and ‖y‖² over the training rows.
        correlations_into(a, y, atom, alpha0);
        let y2 = op::dot(atom, atom);
        let y_norm = op::dot(y, y).sqrt();
        corr.clear();
        corr.extend_from_slice(alpha0);
        selected.clear();
        selected.resize(n, false);
        residual.clear();
        residual.extend_from_slice(y);
        // Whether `residual` holds y − A·x for the current support.
        let mut residual_fresh = true;
        support.clear();
        let mut slots = GramSlots::new(a, gram_misses, gram_starts);
        ne.rhs.clear();
        ne.forward.clear();
        ne.gamma.clear();
        // The least held-out residual so far, and the support size at it.
        let mut best_cv = op::dot(&alpha0[n..], &alpha0[n..]);
        let mut best_len = 0;
        let mut converged = y_norm == 0.0;
        let mut stopped = false;
        while support.len() < budget && !converged && !stopped {
            // Best atom not already selected (the zip ends at the N
            // training correlations).
            let mut best_atom = None;
            let mut best_mag = 0.0;
            for (j, (&c, &taken)) in corr.iter().zip(selected.iter()).enumerate() {
                if c.abs() > best_mag && !taken {
                    best_mag = c.abs();
                    best_atom = Some(j);
                }
            }
            let Some(j) = best_atom else { break };
            if best_mag < 1e-14 {
                break; // residual orthogonal to every atom
            }
            let g = slots.fetch(a, j, atom);
            ne.cross.clear();
            ne.cross.extend(support.iter().map(|&i| g[i]));
            if chol.push(&ne.cross, g[j]).is_err() {
                // Dependent atom: skip it by pretending correlation is
                // exhausted (no further progress possible on this atom).
                break;
            }
            support.push(j);
            selected[j] = true;
            // Least squares on the support: G_II γ = α⁰_I. The rhs
            // entries never change, so each iteration appends only the
            // new atom's entry and forward-substitutes only its row.
            ne.rhs.push(alpha0[j]);
            chol.solve_into(&ne.rhs, &mut ne.gamma, &mut ne.forward);
            // [α; r_cv] = α⁰ − Σ_I slot_i·γ_i.
            corr.copy_from_slice(alpha0);
            let mut quad: [(&[f64], f64); 4] = [(&[], 0.0); 4];
            for (t, (&i, &c)) in support.iter().zip(ne.gamma.iter()).enumerate() {
                quad[t % 4] = (slots.get(i), c);
                if t % 4 == 3 {
                    subtract_quad(corr, &quad);
                }
            }
            for &(gi, c) in &quad[..support.len() % 4] {
                op::axpy(-c, gi, corr);
            }
            residual_fresh = false;
            let tracked = y2 - op::dot(&ne.gamma, &ne.rhs);
            let cv = op::dot(&corr[n..], &corr[n..]);
            if !tracked.is_finite() || !cv.is_finite() {
                return Err(breakdown("OMP", "a tracked residual is not finite"));
            }
            if held > 0 {
                if cv < best_cv {
                    best_cv = cv;
                    best_len = support.len();
                } else if support.len() - best_len >= PATIENCE {
                    stopped = true;
                }
            }
            if tracked <= (RESIDUAL_TOL * RESIDUAL_TOL).max(TRACKED_FLOOR) * y2 {
                x.clear();
                x.resize(n, 0.0);
                for (&i, &c) in support.iter().zip(ne.gamma.iter()) {
                    x[i] = c;
                }
                residual_into(a, x, y, residual);
                residual_fresh = true;
                converged = op::norm2(residual) <= RESIDUAL_TOL * y_norm.max(1e-300);
            }
        }
        if held > 0 && !support.is_empty() {
            // A confirmed fit is its own best; otherwise truncate to the
            // held-out minimum. Then re-fit on all K rows.
            if !converged {
                support.truncate(best_len);
            }
            fit_all_rows(&slots, alpha0, support, ne);
            residual_fresh = false;
        }
        // tidy:allow(alloc: the returned coefficient vector, once per solve)
        let mut full = vec![0.0; n];
        for (&j, &c) in support.iter().zip(ne.gamma.iter()) {
            full[j] = c;
        }
        if !residual_fresh {
            residual_into(a, &full, y, residual);
        }
        let residual_norm = op::norm2(residual);
        if !residual_norm.is_finite() || !ne.gamma.iter().all(|c| c.is_finite()) {
            return Err(breakdown("OMP", "the fitted residual is not finite"));
        }
        Ok(Recovery {
            coefficients: full,
            stats: SolveStats {
                iterations: support.len(),
                residual_norm,
                converged: converged || stopped,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecoveryError;
    use tepics_cs::gram::{gram_column_into, GramStore};
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
            let rec = Omp::new(10).solve(&a, &y).unwrap();
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
        // A stored Gram slot equals the one a miss computes, so cold,
        // warm and full stores all reproduce the store-less solve, with
        // the hold-out off (30 rows) and on (60 rows, six held out, a
        // noisy y so the held-out minimum ends the solve).
        for (rows, atoms, noise) in [(30, 12, 0.0), (60, 30, 0.05)] {
            let (a, _, mut y) = gaussian_problem(rows, 80, 5, 99);
            let mut rng = SplitMix64::new(7);
            y.iter_mut().for_each(|v| *v += noise * rng.next_gaussian());
            let plain = Omp::new(atoms).solve(&a, &y).unwrap();
            let stored = Stored {
                a: &a,
                store: GramStore::new(rows, 80),
            };
            let cold = Omp::new(atoms).solve(&stored, &y).unwrap();
            let warm = Omp::new(atoms).solve(&stored, &y).unwrap();
            assert_eq!(plain, cold, "{rows} rows");
            assert_eq!(plain, warm, "{rows} rows");
            // Every selected atom was admitted; with the hold-out the
            // pursuit also selected the atoms it then truncated.
            let admitted = stored.store.admitted();
            assert!(admitted >= plain.stats.iterations, "{rows} rows");
            assert_eq!(
                admitted == plain.stats.iterations,
                noise == 0.0,
                "{rows} rows"
            );
            // A store filled to its cap with the last columns turns the
            // solve's other atoms away; they become per-solve misses.
            let full = Stored {
                a: &a,
                store: GramStore::new(rows, 80),
            };
            let mut atom = vec![0.0; rows];
            for j in 80 - full.store.capacity()..80 {
                full.store
                    .column_or_admit(j, |g| gram_column_into(&a, j, &mut atom, g));
            }
            assert_eq!(full.store.admitted(), full.store.capacity());
            assert_eq!(
                plain,
                Omp::new(atoms).solve(&full, &y).unwrap(),
                "{rows} rows"
            );
            assert_eq!(full.store.admitted(), full.store.capacity());
        }
    }

    /// FNV-1a over a recovery's coefficient bits, residual bits and
    /// atom count.
    fn fingerprint(rec: &Recovery) -> u64 {
        let words = rec.coefficients.iter().map(|c| c.to_bits());
        let words = words.chain([
            rec.stats.residual_norm.to_bits(),
            rec.stats.iterations as u64,
        ]);
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    #[test]
    fn below_the_hold_out_threshold_results_are_plain_batch_omp() {
        // 39 rows hold nothing out, so the pursuit is the plain
        // fixed-budget Batch-OMP: these fingerprints were recorded
        // before the held-out stop rule existed.
        let (a, _, mut y) = gaussian_problem(39, 90, 8, 21);
        let mut rng = SplitMix64::new(3);
        y.iter_mut().for_each(|v| *v += 0.05 * rng.next_gaussian());
        let got: Vec<u64> = [4, 16, 39]
            .iter()
            .map(|&atoms| fingerprint(&Omp::new(atoms).solve(&a, &y).unwrap()))
            .collect();
        assert_eq!(
            got,
            [
                0x768d_5d3e_eb77_d062,
                0xbe85_2bfd_2af7_6208,
                0xdf53_ca83_47c8_8fbe
            ],
            "fingerprints {got:#x?}"
        );
    }

    #[test]
    fn held_out_residual_stops_noisy_solves_near_the_true_support() {
        for seed in 1..=4 {
            let (a, x, mut y) = gaussian_problem(80, 160, 6, seed);
            let mut rng = SplitMix64::new(seed);
            y.iter_mut().for_each(|v| *v += 0.01 * rng.next_gaussian());
            let rec = Omp::new(60).solve(&a, &y).unwrap();
            let iterations = rec.stats.iterations;
            assert!(
                (6..=60 - PATIENCE).contains(&iterations),
                "seed {seed}: {iterations} atoms"
            );
            assert!(rec.stats.converged, "seed {seed}: the stop rule fired");
            for (i, (&got, &want)) in rec.coefficients.iter().zip(&x).enumerate() {
                assert!(
                    (got - want).abs() < 0.05,
                    "seed {seed}, coef {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn the_empty_support_is_a_held_out_candidate() {
        // Measurements that vanish on the held-out rows: any atom's fit
        // spills into them, so no support beats the empty one.
        let (a, _, _) = gaussian_problem(60, 120, 1, 5);
        let mut rng = SplitMix64::new(17);
        let mut y: Vec<f64> = (0..60).map(|_| rng.next_gaussian()).collect();
        for r in tepics_cs::gram::held_out_rows(60) {
            y[r] = 0.0;
        }
        let rec = Omp::new(30).solve(&a, &y).unwrap();
        assert_eq!(rec.stats.iterations, 0);
        assert!(rec.coefficients.iter().all(|&c| c == 0.0));
        assert!(rec.stats.converged, "the stop rule fired");
        assert_eq!(rec.stats.residual_norm, op::norm2(&y));
    }

    #[test]
    fn non_finite_operators_break_down_instead_of_emitting_garbage() {
        // A NaN or an inf entry, in a column the pursuit selects and in
        // one it never does, with and without the hold-out.
        for rows in [30, 60] {
            let (a, x, y) = gaussian_problem(rows, 80, 5, 11);
            let picked = x.iter().position(|&v| v != 0.0).unwrap();
            let unused = x.iter().position(|&v| v == 0.0).unwrap();
            for bad in [f64::NAN, f64::INFINITY] {
                for col in [picked, unused] {
                    let mut broken = a.clone();
                    broken.set(rows / 2, col, bad);
                    match Omp::new(10).solve(&broken, &y) {
                        Err(RecoveryError::Breakdown(_)) => {}
                        other => panic!("{rows} rows, {bad} in column {col}: {other:?}"),
                    }
                }
            }
            let mut nan_y = y.clone();
            nan_y[1] = f64::NAN;
            assert!(matches!(
                Omp::new(10).solve(&a, &nan_y),
                Err(RecoveryError::Breakdown(_))
            ));
        }
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
