//! Foundation utilities for the TEPICS workspace.
//!
//! This crate hosts the small, dependency-free building blocks shared by
//! every other TEPICS crate:
//!
//! * [`BitVec`] — a compact, word-packed bit vector used for selection
//!   masks and cellular-automaton states.
//! * [`SplitMix64`] — a tiny, deterministic pseudo-random generator used
//!   wherever reproducibility across runs and platforms matters more than
//!   statistical sophistication (seed expansion, synthetic scenes).
//! * [`RunningStats`] / [`Histogram`] — streaming statistics used by the
//!   experiment harness.
//! * [`fixed`] — fixed-width integer helpers that model the saturating
//!   hardware accumulators of the sensor's Sample & Add stage.
//! * [`pool`] — the persistent worker pool, the workspace's one
//!   executor: deterministic, input-ordered maps with sticky per-worker
//!   scratch slots. Decode sessions and batch runs both fan out on it,
//!   so the warm steady state spawns no threads.
//! * [`parallel`] — the default thread count and the process-wide
//!   counter of pool worker spawns.
//! * [`simd`] — explicit-width chunked f64 kernels (`dot4`, `axpy4`,
//!   `sum4`) shared by every hot numeric loop.
//!
//! # Examples
//!
//! ```
//! use tepics_util::BitVec;
//!
//! let mut bits = BitVec::zeros(128);
//! bits.set(3, true);
//! bits.set(64, true);
//! assert_eq!(bits.count_ones(), 2);
//! assert!(bits.get(64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod fixed;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod simd;
pub mod stats;

pub use bits::BitVec;
pub use rng::SplitMix64;
pub use stats::{Histogram, RunningStats};
