//! The unified [`Solver`] trait.
//!
//! Every recovery algorithm in this crate — FISTA, IHT, CoSaMP, OMP,
//! CGLS, and the [`Debias`](crate::debias::Debias)
//! wrapper — implements one object-safe interface:
//! `solve_with(&self, op, y, workspace)` over a `&dyn LinearOperator`,
//! returning a [`Recovery`] and reusing a [`SolverWorkspace`]. A decoder
//! can therefore hold *any* solver behind `&dyn Solver`/`Box<dyn
//! Solver>` and swap algorithms per workload without touching its
//! pipeline, and every solver — not just the proximal family — runs
//! allocation-free once its workspace is warm. Each algorithm lives in
//! its `solve_with`; the trait's default [`Solver::solve`] is the one
//! allocating convenience.
//!
//! [`SolverCaps`] carries the capability metadata a host needs to serve
//! a solver well without knowing its type: its name and the seed of its
//! internal operator-norm estimate (so a cache can memoize the power
//! iteration per solver — different solvers use different seeds, and
//! mixing them would silently change results). Each solver's module is
//! the one place that states both.

use crate::workspace::SolverWorkspace;
use crate::{Recovery, RecoveryError};
use tepics_cs::op::LinearOperator;

/// The result type shared by every solver entry point.
pub type SolveResult = Result<Recovery, RecoveryError>;

/// Deterministic power-iteration seeds of the solvers' internal
/// operator-norm estimates. A host that memoizes norms (to skip the
/// power iteration on warm paths) must key them by this seed and
/// compute them with [`estimate`](norm_seeds::estimate): each solver
/// derives its step/scale from *its own* seeded estimate, and serving
/// one solver another's estimate would change results.
pub mod norm_seeds {
    use tepics_cs::op::{operator_norm_est, LinearOperator};

    /// [`Fista`](crate::Fista)'s step-size estimate.
    pub const FISTA: u64 = 0x0F1A57A;
    /// [`Iht`](crate::Iht)'s fallback-step estimate.
    pub const IHT: u64 = 0x1147;

    /// The `‖A‖` estimate a solver with norm seed `seed` computes: 30
    /// steps of the power iteration started from `seed`. A step override
    /// derived from it leaves results bit-identical.
    pub fn estimate<A: LinearOperator + ?Sized>(a: &A, seed: u64) -> f64 {
        operator_norm_est(a, 30, seed)
    }

    /// The gradient step `1/L`, with `L = ‖A‖²` and a 5% safety margin,
    /// that FISTA and IHT derive from the estimate `norm`.
    pub fn step(norm: f64) -> f64 {
        1.0 / (norm * norm * 1.05)
    }
}

/// Capability metadata of a [`Solver`] (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverCaps {
    /// Short stable identifier (`"fista"`, `"omp"`, …) for reports and
    /// diagnostics.
    pub name: &'static str,
    /// Seed of the solver's internal `‖A‖` power-iteration estimate,
    /// when it runs one and accepts a precomputed step override
    /// ([`norm_seeds::step`] of [`norm_seeds::estimate`]) — FISTA and
    /// IHT. `None` for solvers that never estimate a norm (the greedy
    /// pursuits, CGLS).
    pub norm_seed: Option<u64>,
}

/// A sparse-recovery algorithm behind one object-safe interface.
///
/// # Examples
///
/// Solvers are interchangeable behind `&dyn Solver`:
///
/// ```
/// use tepics_cs::{DenseMatrix, LinearOperator};
/// use tepics_recovery::{Fista, Omp, Solver, SolverWorkspace};
///
/// let a = DenseMatrix::from_fn(8, 16, |r, c| {
///     ((r * 31 + c * 17 + (r * c) % 7) % 13) as f64 / 13.0 - 0.5
/// });
/// let mut x = vec![0.0; 16];
/// x[3] = 1.5;
/// let y = a.apply_vec(&x);
///
/// let fista = Fista::new();
/// let omp = Omp::new(2);
/// let mut ws = SolverWorkspace::new();
/// for solver in [&fista as &dyn Solver, &omp] {
///     let rec = solver.solve_with(&a, &y, &mut ws).unwrap();
///     assert!((rec.coefficients[3] - 1.5).abs() < 0.2, "{}", solver.caps().name);
/// }
/// ```
pub trait Solver {
    /// Capability metadata (stable name, norm seed).
    fn caps(&self) -> SolverCaps;

    /// Runs the solver reusing `workspace` buffers; bit-identical to
    /// [`Solver::solve`] and allocation-free inside the solver loop once
    /// the workspace is warm.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::DimensionMismatch`] if `y` does not match the
    /// operator, plus each solver's parameter/breakdown errors.
    fn solve_with(
        &self,
        a: &dyn LinearOperator,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> SolveResult;

    /// Runs the solver with freshly allocated buffers.
    ///
    /// # Errors
    ///
    /// Same as [`Solver::solve_with`].
    fn solve(&self, a: &dyn LinearOperator, y: &[f64]) -> SolveResult {
        self.solve_with(a, y, &mut SolverWorkspace::new())
    }
}

impl std::fmt::Debug for dyn Solver + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dyn Solver({})", self.caps().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoSaMp, Fista, Iht, Omp, RecoveryError};
    use tepics_cs::DenseMatrix;
    use tepics_util::SplitMix64;

    #[test]
    fn caps_names_are_unique_and_stable() {
        let fista = Fista::new();
        let iht = Iht::new(2);
        let omp = Omp::new(2);
        let cosamp = CoSaMp::new(2);
        let cgls = crate::cg::Cgls::default();
        let solvers: [&dyn Solver; 5] = [&fista, &iht, &omp, &cosamp, &cgls];
        let mut names: Vec<&str> = solvers.iter().map(|s| s.caps().name).collect();
        assert_eq!(names, vec!["fista", "iht", "omp", "cosamp", "cgls"]);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5, "duplicate solver names");
    }

    /// A NaN in `y` ends every solver in a breakdown that names it:
    /// never an `Ok` with a NaN residual, never a panic.
    #[test]
    fn a_non_finite_measurement_is_a_breakdown_for_every_solver() {
        let mut rng = SplitMix64::new(0xB0_0C);
        let a = DenseMatrix::from_fn(20, 40, |_, _| rng.next_gaussian() / 20f64.sqrt());
        let mut y: Vec<f64> = (0..20).map(|k| f64::from(k) - 9.5).collect();
        y[3] = f64::NAN;
        let fista = Fista::new();
        let iht = Iht::new(3);
        let omp = Omp::new(5);
        let cosamp = CoSaMp::new(3);
        let cgls = crate::cg::Cgls::default();
        let solvers: [&dyn Solver; 5] = [&fista, &iht, &omp, &cosamp, &cgls];
        for solver in solvers {
            let name = solver.caps().name;
            match solver.solve(&a, &y) {
                Err(RecoveryError::Breakdown(msg)) => assert!(
                    msg.to_lowercase().starts_with(name),
                    "{name}: message {msg:?}"
                ),
                other => panic!("{name}: expected a breakdown, got {other:?}"),
            }
        }
    }

    #[test]
    fn norm_seeds_match_caps() {
        assert_eq!(Fista::new().caps().norm_seed, Some(norm_seeds::FISTA));
        assert_eq!(Iht::new(1).caps().norm_seed, Some(norm_seeds::IHT));
        assert_eq!(Omp::new(1).caps().norm_seed, None);
        assert_eq!(CoSaMp::new(1).caps().norm_seed, None);
    }
}
