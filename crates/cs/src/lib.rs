//! Compressed-sensing operators for the TEPICS pipeline.
//!
//! This crate is the linear-algebra layer between the sensor (which
//! produces compressed samples `y = Φ x`) and the recovery algorithms
//! (which need `A = Φ Ψ` and its adjoint):
//!
//! * [`LinearOperator`] — the matrix-free abstraction every solver in
//!   `tepics-recovery` consumes; includes power-iteration norm
//!   estimation.
//! * [`DenseMatrix`] / [`chol`] / [`eig`] — the small dense kernel:
//!   explicit matrices, incremental Cholesky for greedy solvers, and
//!   Jacobi eigenvalues for RIP estimation.
//! * [`measurement`] — the measurement ensembles: the paper's
//!   XOR-structured CA strategy ([`XorMeasurement`]), dense binary
//!   ensembles (Bernoulli / thresholded Gaussian / LFSR / Hadamard via
//!   any [`tepics_ca::BitPatternSource`]); the block-based CS baseline
//!   measures each block with its own dense ensemble.
//! * [`dictionary`] — sparsifying dictionaries Ψ (2-D DCT, Haar,
//!   identity) plus the zero-mean wrapper used by the mean-split
//!   decoder.
//! * [`operator`] — composition `Φ ∘ Ψ` and the signed (±1) view of a
//!   binary measurement.
//! * [`fused`] — the one-pass `ΦᵀΨᵀ` / `ΨΦ` streaming kernels: a
//!   row-streamed measurement protocol plus a row-staged dictionary
//!   protocol, fused block-by-block so the intermediate pixel image
//!   never round-trips through memory. [`ComposedOperator`] dispatches
//!   to them automatically when both sides qualify.
//! * [`gram`] — the capped, shared store of Gram columns `Aᵀ a_j`
//!   that the greedy solvers (Batch-OMP, CoSaMP) read instead of
//!   running an adjoint or a nested least-squares solve per iteration.
//! * [`colview`] — the closed-form columns of the XOR measurement
//!   composed with a separable dictionary, behind every Gram column.
//! * [`coherence`] — mutual coherence and empirical RIP-constant
//!   estimation, used by the `matrices` experiment to compare the CA
//!   strategy against Bernoulli/LFSR/Hadamard.
//!
//! # Examples
//!
//! ```
//! use tepics_cs::measurement::DenseBinaryMeasurement;
//! use tepics_cs::LinearOperator;
//!
//! let phi = DenseBinaryMeasurement::bernoulli(16, 64, 7, 0.5);
//! let x = vec![1.0; 64];
//! let mut y = vec![0.0; 16];
//! phi.apply(&x, &mut y);
//! // Each row sums ~32 ones.
//! assert!(y.iter().all(|&v| v > 10.0 && v < 55.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chol;
pub mod coherence;
pub mod colview;
pub mod dictionary;
pub mod eig;
pub mod fused;
pub mod gram;
pub mod mat;
pub mod measurement;
pub mod op;
pub mod operator;

pub use colview::ColumnMatrix;
pub use dictionary::{Dct2dDictionary, Dictionary, Haar2dDictionary, IdentityDictionary};
pub use fused::{FusedScratch, RowStagedDictionary, RowStreamedOperator, StagedDictionary};
pub use gram::GramStore;
pub use mat::DenseMatrix;
pub use measurement::{DenseBinaryMeasurement, XorMeasurement};
pub use op::LinearOperator;
pub use operator::{ComposedOperator, ComposedScratch, SignedMeasurementOp};
