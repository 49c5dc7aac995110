//! What the iterative thresholding solvers share: their step, their
//! stop rule and their result.
//!
//! [`Fista`](crate::Fista) and [`Iht`](crate::Iht) are one skeleton
//! with two iteration bodies:
//!
//! * [`resolve_step`] takes the caller's step override, or derives it
//!   from the solver's seeded `‖A‖` estimate, and finds a zero
//!   operator, whose solve ends at [`zero_solution`];
//! * [`iterate`] runs the body until
//!   `‖α − α_prev‖ ≤ tol·max(‖α‖, 1e-12)`, and stops with
//!   [`RecoveryError::Breakdown`] once that change or norm is not
//!   finite;
//! * [`finish`] computes the last iterate's residual `Aα − y` and
//!   assembles the [`Recovery`], or stops with
//!   [`RecoveryError::Breakdown`] when the residual's norm is not
//!   finite (a non-finite measurement).

use crate::solver::norm_seeds;
use crate::{breakdown, Recovery, RecoveryError, SolveStats};
use tepics_cs::op::{self, LinearOperator};

/// A solver's gradient step: `given` when the caller set it (it must be
/// positive), else [`norm_seeds::step`] of the `‖A‖` estimate seeded
/// with `seed`. `None` means `A` is zero.
///
/// # Errors
///
/// [`RecoveryError::InvalidParameter`] for a non-positive `given`.
pub(crate) fn resolve_step(
    a: &dyn LinearOperator,
    given: Option<f64>,
    seed: u64,
) -> Result<Option<f64>, RecoveryError> {
    match given {
        Some(v) if v > 0.0 => Ok(Some(v)),
        Some(_) => Err(RecoveryError::InvalidParameter(
            "step must be positive".into(),
        )),
        None => {
            let norm = norm_seeds::estimate(a, seed);
            Ok((norm != 0.0).then(|| norm_seeds::step(norm)))
        }
    }
}

/// The solution on a zero operator: `α = 0`, whose residual is `‖y‖`.
pub(crate) fn zero_solution(n: usize, y: &[f64]) -> Recovery {
    Recovery {
        // tidy:allow(alloc: zero-operator early exit, before any iteration)
        coefficients: vec![0.0; n],
        stats: SolveStats {
            iterations: 0,
            residual_norm: op::norm2(y),
            converged: true,
        },
    }
}

/// How far a loop got: the iterations it ran, and whether the stop rule
/// ended it before the cap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Progress {
    iterations: usize,
    converged: bool,
}

/// Runs `update(α, α_prev)` at most `max_iter` times, with `α_prev`
/// holding `α`'s value from before the call, until
/// `‖α − α_prev‖ ≤ tol·max(‖α‖, 1e-12)`.
///
/// # Errors
///
/// [`RecoveryError::Breakdown`], naming `solver`, once `‖α − α_prev‖`
/// or `‖α‖` is not finite.
// tidy:alloc-free
pub(crate) fn iterate(
    solver: &str,
    max_iter: usize,
    tol: f64,
    alpha: &mut [f64],
    prev: &mut [f64],
    mut update: impl FnMut(&mut [f64], &[f64]),
) -> Result<Progress, RecoveryError> {
    for it in 0..max_iter {
        prev.copy_from_slice(alpha);
        update(alpha, prev);
        let mut diff = 0.0;
        let mut norm = 0.0;
        for (&v, &p) in alpha.iter().zip(prev.iter()) {
            let d = v - p;
            diff += d * d;
            norm += v * v;
        }
        if !(diff.is_finite() && norm.is_finite()) {
            return Err(breakdown(solver, "the iterate is not finite"));
        }
        if diff.sqrt() <= tol * norm.sqrt().max(1e-12) {
            return Ok(Progress {
                iterations: it + 1,
                converged: true,
            });
        }
    }
    Ok(Progress {
        iterations: max_iter,
        converged: false,
    })
}

/// The [`Recovery`] of a finished loop: `α`, with the residual `Aα − y`
/// computed into `resid` for its norm.
///
/// # Errors
///
/// [`RecoveryError::Breakdown`], naming `solver`, when that norm is not
/// finite, as it is for a non-finite measurement.
// tidy:alloc-free
pub(crate) fn finish(
    solver: &str,
    a: &dyn LinearOperator,
    y: &[f64],
    alpha: &[f64],
    resid: &mut [f64],
    progress: Progress,
) -> Result<Recovery, RecoveryError> {
    a.apply(alpha, resid);
    for (r, &yi) in resid.iter_mut().zip(y) {
        *r -= yi;
    }
    let residual_norm = op::norm2(resid);
    if !residual_norm.is_finite() {
        return Err(breakdown(solver, "the residual is not finite"));
    }
    Ok(Recovery {
        // tidy:allow(alloc: the returned coefficient vector, once per solve)
        coefficients: alpha.to_vec(),
        stats: SolveStats {
            iterations: progress.iterations,
            residual_norm,
            converged: progress.converged,
        },
    })
}

#[cfg(test)]
mod tests {
    use crate::{Fista, Iht, RecoveryError, Solver};
    use tepics_cs::{DenseMatrix, LinearOperator};
    use tepics_util::SplitMix64;

    /// A Gaussian operator whose adjoint overflows in coefficient 0, as
    /// an operator with a runaway entry would.
    struct Overflowing(DenseMatrix);

    impl LinearOperator for Overflowing {
        fn rows(&self) -> usize {
            self.0.rows()
        }

        fn cols(&self) -> usize {
            self.0.cols()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.0.apply(x, y);
        }

        fn apply_adjoint(&self, y: &[f64], x: &mut [f64]) {
            self.0.apply_adjoint(y, x);
            x[0] = f64::INFINITY;
        }
    }

    #[test]
    fn a_non_finite_iterate_is_a_breakdown_for_every_solver() {
        let mut rng = SplitMix64::new(0xB0_0B);
        let a = Overflowing(DenseMatrix::from_fn(20, 40, |_, _| {
            rng.next_gaussian() / 20f64.sqrt()
        }));
        let y: Vec<f64> = (0..20).map(|k| f64::from(k) - 9.5).collect();
        // Explicit λ and step overrides: a ratio λ and the power
        // iteration would both read the overflow themselves.
        let mut fista = Fista::new();
        fista.lambda(0.01).step(0.1);
        let mut iht = Iht::new(3);
        iht.step(0.1);
        let solvers: [&dyn Solver; 2] = [&fista, &iht];
        for solver in solvers {
            let name = solver.caps().name;
            match solver.solve(&a, &y) {
                Err(RecoveryError::Breakdown(msg)) => {
                    assert!(msg.starts_with(name), "{name}: message {msg:?}")
                }
                other => panic!("{name}: expected a breakdown, got {other:?}"),
            }
        }
    }
}
