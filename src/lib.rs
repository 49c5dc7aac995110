#![forbid(unsafe_code)]
//! # TEPICS — Time-Encoded PIxel Compressive Sampling
//!
//! A full-system Rust reproduction of *"Concurrent focal-plane generation
//! of compressed samples from time-encoded pixel values"* (Trevisi et
//! al., DATE 2018): an event-accurate simulator of the proposed 64×64
//! compressive-sampling image sensor, its Rule-30 cellular-automaton
//! measurement generator, the sparse-recovery decoder, and the baselines
//! the paper compares against.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! namespace. See the individual crates for deep documentation:
//!
//! * [`ca`] — cellular automata, LFSR, Hadamard pattern generators.
//! * [`imaging`] — images, synthetic scenes, metrics, transforms.
//! * [`cs`] — measurement operators, dictionaries, matrix analysis.
//! * [`recovery`] — FISTA/IHT/OMP/CoSaMP/CGLS sparse recovery.
//! * [`sensor`] — the event-accurate chip simulator.
//! * [`core`] — the end-to-end imager/decoder pipeline.
//! * [`util`] — bit vectors, deterministic RNG, statistics.
//!
//! # Quickstart
//!
//! The public API is session-oriented: an
//! [`EncodeSession`](core::EncodeSession) captures a sequence of scenes
//! into one contiguous wire stream (stream header once, compact
//! per-frame records after), and a [`DecodeSession`](core::DecodeSession)
//! consumes that stream incrementally — from arbitrary byte chunks —
//! reconstructing each frame as it completes. The decoder receives only
//! samples plus a 64-bit seed, never Φ; the session rebuilds Φ once and
//! reuses it (with the dictionary, the per-solver step sizes, and the
//! greedy solvers' Gram stores) for every frame of the stream.
//!
//! Recovery is solver-pluggable: every algorithm in [`recovery`]
//! (FISTA, IHT, OMP, CoSaMP, CGLS, and the CGLS debias wrapper)
//! implements one `Solver` trait and is selectable per
//! session via [`SolverKind`](core::SolverKind) /
//! [`RecoveryParams`](core::RecoveryParams) — see the README's
//! "Choosing a solver" table for guidance.
//!
//! ```
//! use tepics::prelude::*;
//!
//! // Capture a short 32×32 sequence at compression ratio 0.35.
//! let imager = CompressiveImager::builder(32, 32)
//!     .ratio(0.35)
//!     .seed(42)
//!     .build()
//!     .expect("valid configuration");
//! let mut enc = EncodeSession::new(imager).expect("header fits the container");
//! let scene = Scene::gaussian_blobs(3).render(32, 32, 7);
//! enc.capture(&scene).expect("capture");
//! enc.capture(&scene).expect("capture");
//!
//! // The receiver sees only bytes; frames pop out as records complete.
//! let mut dec = DecodeSession::new();
//! let decoded = dec.push_bytes(&enc.to_bytes()).expect("well-formed stream");
//! assert_eq!(decoded.len(), 2);
//! assert_eq!(dec.cache().stats().hits, 1, "second frame decoded warm");
//!
//! let truth = enc.imager().ideal_codes(&scene);
//! let db = psnr(
//!     &truth.to_code_f64(),
//!     decoded[0].reconstruction.code_image(),
//!     255.0,
//! );
//! assert!(db > 18.0, "PSNR {db} dB unexpectedly low");
//! ```
//!
//! The README maps the frame-at-a-time API onto sessions.

pub use tepics_ca as ca;
pub use tepics_core as core;
pub use tepics_cs as cs;
pub use tepics_imaging as imaging;
pub use tepics_recovery as recovery;
pub use tepics_sensor as sensor;
pub use tepics_util as util;

/// One-stop imports for the common capture → transmit → reconstruct flow.
pub mod prelude {
    pub use tepics_core::prelude::*;
}
