//! ISTA — FISTA's loop without momentum, kept as the ablation baseline
//! for FISTA's momentum (the `warmup`/solver experiments report both).
//!
//! `Ista` holds a [`Fista`] configuration and runs its loop with `z`
//! copied from `α` each iteration:
//! `α ← soft(α − (1/L)Aᵀ(Aα − y), λ/L)`. Only its name and its norm
//! seed ([`norm_seeds::ISTA`](crate::solver::norm_seeds::ISTA)) are its
//! own.

use crate::fista::{Fista, Momentum};
use crate::solver::{SolveResult, Solver, SolverCaps};
use crate::workspace::SolverWorkspace;
use crate::{Recovery, RecoveryError};
use tepics_cs::op::LinearOperator;

/// ISTA solver configuration (non-consuming builder).
///
/// Same objective, parameters and defaults as [`Fista`], without
/// momentum.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ista {
    fista: Fista,
}

impl Ista {
    /// Creates a solver with [`Fista::new`]'s defaults.
    pub fn new() -> Self {
        Ista::default()
    }

    /// Overrides the gradient step `1/L` (see [`Fista::step`]).
    pub fn step(&mut self, step: f64) -> &mut Self {
        self.fista.step(step);
        self
    }

    /// Sets an absolute λ.
    pub fn lambda(&mut self, lambda: f64) -> &mut Self {
        self.fista.lambda(lambda);
        self
    }

    /// Sets λ as a fraction of `‖Aᵀy‖∞`.
    pub fn lambda_ratio(&mut self, ratio: f64) -> &mut Self {
        self.fista.lambda_ratio(ratio);
        self
    }

    /// Iteration cap.
    pub fn max_iter(&mut self, n: usize) -> &mut Self {
        self.fista.max_iter(n);
        self
    }

    /// Relative-change stopping tolerance.
    pub fn tol(&mut self, tol: f64) -> &mut Self {
        self.fista.tol(tol);
        self
    }

    /// Runs the solver with freshly allocated buffers.
    ///
    /// # Errors
    ///
    /// Same as [`Fista::solve`].
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
    /// Same as [`Fista::solve`].
    pub fn solve_with<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> Result<Recovery, RecoveryError> {
        self.fista.descend(a, y, workspace, Momentum::Off)
    }
}

/// ISTA on a FISTA configuration: the same λ rule, step, iteration cap
/// and tolerance, with the momentum off.
impl From<Fista> for Ista {
    fn from(fista: Fista) -> Self {
        Ista { fista }
    }
}

impl Solver for Ista {
    fn caps(&self) -> SolverCaps {
        Momentum::Off.caps()
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
