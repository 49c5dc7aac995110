//! Sparse-recovery algorithms for compressed sensing, behind one
//! [`Solver`] trait.
//!
//! The paper's decoder is "convex optimization" in one sentence; this
//! crate supplies the whole menagerie the experiments need, all running
//! matrix-free over [`tepics_cs::LinearOperator`] and all implementing
//! the object-safe [`Solver`] trait, so a host can swap algorithms per
//! workload behind `&dyn Solver` without touching its pipeline:
//!
//! * [`Fista`] — the proximal-gradient ℓ1 solver (LASSO), the
//!   workhorse for full-frame reconstruction.
//! * [`Omp`] — orthogonal matching pursuit with incremental Cholesky,
//!   the standard block-based decoder, stopped where the residual on a
//!   few held-out measurements is least.
//! * [`CoSaMP`](cosamp::CoSaMp) — compressive sampling matching pursuit,
//!   on the same Gram slots and all-rows least squares as OMP.
//! * [`Iht`] — normalized iterative hard thresholding.
//! * [`Cgls`] — CGLS least squares, also the engine behind the debias
//!   re-fit.
//! * [`Debias`] — any solver above, wrapped with a CGLS support
//!   re-fit as one composite algorithm.
//!
//! FISTA and IHT run on one iterative engine: it resolves the step
//! from an override or the solver's seeded `‖A‖` estimate, answers a zero operator with `α = 0`, stops once
//! `‖α − α_prev‖ ≤ tol·max(‖α‖, 1e-12)`, and reports `‖Aα − y‖`; each
//! solver brings only its iteration body. An iterate whose change or
//! norm is not finite ends the solve with [`RecoveryError::Breakdown`].
//! So does a final residual that is not finite, in every solver here:
//! a non-finite measurement is a breakdown, never an `Ok` with a NaN
//! residual. OMP and CoSaMP share the Gram-slot engine of the greedy
//! pursuits.
//!
//! # The trait + workspace contract
//!
//! Every solver returns a [`Recovery`] with convergence diagnostics and
//! is deterministic given its inputs. Two guarantees hold across the
//! whole roster and are pinned down by property tests:
//!
//! 1. **Workspace transparency.** Every solver takes a
//!    [`SolverWorkspace`] and resets the buffers it uses to the exact
//!    state a fresh allocation would have, so warm solves are
//!    bit-identical to cold ones — and allocate nothing inside the
//!    solver loop once warm. This covers the greedy pursuits (Gram
//!    slots, growing Cholesky) and the nested CGLS of the debias pass,
//!    which runs on a dedicated `lsq_*` buffer set so nesting never
//!    clobbers the outer solver's state.
//! 2. **Capability metadata.** [`Solver::caps`] tells a host what the
//!    solver needs to run fast: the seed of its internal operator-norm
//!    power iteration (memoize it per solver — seeds differ, and mixing
//!    estimates across solvers would change results). The greedy
//!    pursuits need no flag: they read the Gram store an operator
//!    carries ([`LinearOperator::gram_store`](tepics_cs::LinearOperator::gram_store)).
//!
//! # Examples
//!
//! Any solver through the trait:
//!
//! ```
//! use tepics_cs::DenseMatrix;
//! use tepics_cs::LinearOperator;
//! use tepics_recovery::{Omp, Solver, SolverWorkspace};
//!
//! // A tiny exactly-sparse problem: x has 2 nonzeros, 8 measurements.
//! let a = DenseMatrix::from_fn(8, 16, |r, c| {
//!     ((r * 31 + c * 17 + (r * c) % 7) % 13) as f64 / 13.0 - 0.5
//! });
//! let mut x = vec![0.0; 16];
//! x[3] = 1.5;
//! x[11] = -0.7;
//! let y = a.apply_vec(&x);
//! let solver: &dyn Solver = &Omp::new(2);
//! let mut ws = SolverWorkspace::new();
//! let rec = solver.solve_with(&a, &y, &mut ws).unwrap();
//! assert!((rec.coefficients[3] - 1.5).abs() < 1e-6);
//! assert!((rec.coefficients[11] + 0.7).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod cosamp;
pub mod debias;
pub mod fista;
mod greedy;
pub mod iht;
mod iterative;
pub mod omp;
pub mod shrink;
pub mod solver;
pub mod workspace;

pub use cg::Cgls;
pub use cosamp::CoSaMp;
pub use debias::Debias;
pub use fista::Fista;
pub use iht::Iht;
pub use omp::Omp;
pub use solver::{SolveResult, Solver, SolverCaps};
pub use workspace::SolverWorkspace;

use std::fmt;

/// Convergence diagnostics attached to every solver result.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Iterations (or atoms, for greedy methods) actually used.
    pub iterations: usize,
    /// Final residual norm `‖A α − y‖₂`.
    pub residual_norm: f64,
    /// `true` if the stopping criterion was met before the iteration cap.
    pub converged: bool,
}

/// A recovered coefficient vector plus diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Recovered coefficients (length = operator columns).
    pub coefficients: Vec<f64>,
    /// Convergence diagnostics.
    pub stats: SolveStats,
}

/// Errors shared by the solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The measurement vector length does not match the operator.
    DimensionMismatch {
        /// Expected length (operator rows).
        expected: usize,
        /// Provided length.
        actual: usize,
    },
    /// A solver parameter is outside its valid range.
    InvalidParameter(String),
    /// The solver broke down numerically (e.g. dependent atoms beyond
    /// recoverable handling).
    Breakdown(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "measurement length {actual} does not match operator rows {expected}"
                )
            }
            RecoveryError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            RecoveryError::Breakdown(msg) => write!(f, "numerical breakdown: {msg}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

pub(crate) fn check_dims(rows: usize, y: &[f64]) -> Result<(), RecoveryError> {
    if y.len() != rows {
        Err(RecoveryError::DimensionMismatch {
            expected: rows,
            actual: y.len(),
        })
    } else {
        Ok(())
    }
}

/// The error for a `solver`'s solve whose numbers stopped being finite.
#[cold]
pub(crate) fn breakdown(solver: &str, what: &str) -> RecoveryError {
    // tidy:allow(alloc: the error message, once, on the failure path)
    RecoveryError::Breakdown(format!("{solver}: {what}"))
}
