//! End-to-end and per-layer benchmark of the TEPICS codec.
//!
//! Every workload drives seeded scenes through the public pipeline —
//! `EncodeSession::capture` → wire bytes → `DecodeSession::push_bytes`
//! → frame — checks the decoded frames, and reports the end-to-end
//! metrics of [`END_TO_END`]. The traced run (`--trace 1`) records spans
//! around calls into each layer's public functions and reports the
//! per-layer metrics of [`PER_LAYER`]. `README.md` next to this crate
//! describes the workloads and how the two tables relate.

// A benchmark reads the wall clock by design; the workspace's
// determinism lint is for product code.
#![allow(clippy::disallowed_methods)]

pub mod calib;
pub mod heap;
pub mod json;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;

pub use report::{Outcome, END_TO_END, PER_LAYER};
pub use workload::{run, RunArgs, Workload, DEFAULT_SECONDS, DEFAULT_SEED};
