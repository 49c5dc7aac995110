//! Solver-pluggable recovery stack: end-to-end identity guarantees.
//!
//! Every [`SolverKind`] must behave identically however it is driven:
//! one-shot per-frame decoders, warm cached sessions, and the parallel
//! batch engine all produce bit-identical reconstructions, because
//! every decode runs the same path through an operator cache, every
//! cached value (operator, dictionary, per-solver norm estimate, column
//! view) is built deterministically, and every workspace reset is
//! value-transparent.

use std::sync::Arc;

use tepics::core::batch::BatchRunner;
use tepics::prelude::*;

fn imager(side: usize, seed: u64) -> CompressiveImager {
    CompressiveImager::builder(side, side)
        .ratio(0.35)
        .seed(seed)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
}

/// Warm (cached session) decodes are bit-identical to cold (a fresh
/// one-shot decoder on its own private cache) decodes for every solver
/// kind over every dictionary — the cache and workspace layers are
/// value-transparent across the whole roster — and every cold decode
/// scores a finite PSNR against the ideal codes.
#[test]
fn warm_session_equals_cold_decoder_for_every_solver_kind() {
    let im = imager(16, 0xBEEF);
    let scenes: Vec<ImageF64> = (0..3)
        .map(|i| Scene::gaussian_blobs(2).render(16, 16, i))
        .collect();
    let frames: Vec<CompressedFrame> = scenes.iter().map(|s| im.capture(s)).collect();
    let truths: Vec<ImageF64> = scenes
        .iter()
        .map(|s| im.ideal_codes(s).to_code_f64())
        .collect();
    let k = frames[0].samples.len();
    for dictionary in [
        DictionaryKind::Dct2d,
        DictionaryKind::Haar2d,
        DictionaryKind::Identity,
    ] {
        for solver in SolverKind::shootout_set(k) {
            let params = RecoveryParams { solver, dictionary };
            // Cold: a fresh decoder per frame.
            let cold: Vec<Reconstruction> = frames
                .iter()
                .map(|f| {
                    let mut d = Decoder::for_frame(f).unwrap();
                    d.params(params);
                    d.reconstruct(f).unwrap()
                })
                .collect();
            for (i, (recon, truth)) in cold.iter().zip(&truths).enumerate() {
                let db = psnr(truth, recon.code_image(), 255.0);
                assert!(db.is_finite(), "{params:?}: frame {i} PSNR {db}");
            }
            // Warm: one session; frames 2..n hit every cache layer.
            let mut session = DecodeSession::new();
            session.params(params);
            for (i, f) in frames.iter().enumerate() {
                let warm = session.push_frame(f).unwrap();
                assert_eq!(
                    warm.reconstruction, cold[i],
                    "{params:?}: frame {i} warm != cold"
                );
            }
            assert!(
                session.cache().stats().hits >= frames.len() as u64 - 1,
                "{params:?}: session never went warm"
            );
        }
    }
}

/// A shared cache serves many sessions without cross-talk: two sessions
/// with different solvers on one cache reproduce their private-cache
/// results exactly (per-solver norm entries and column views are keyed
/// per solver, so they can never mix).
#[test]
fn shared_cache_does_not_mix_solver_state() {
    let im = imager(16, 0x7EA);
    let scene = Scene::gaussian_blobs(3).render(16, 16, 9);
    let frame = im.capture(&scene);
    let k = frame.samples.len();
    let kinds = SolverKind::shootout_set(k);
    // Private-cache reference per kind.
    let reference: Vec<Reconstruction> = kinds
        .iter()
        .map(|&kind| {
            let mut s = DecodeSession::new();
            s.algorithm(kind);
            s.push_frame(&frame).unwrap().reconstruction
        })
        .collect();
    // All kinds through one shared cache, interleaved twice.
    let shared = Arc::new(OperatorCache::new());
    for round in 0..2 {
        for (i, &kind) in kinds.iter().enumerate() {
            let mut s = DecodeSession::with_cache(shared.clone());
            s.algorithm(kind);
            let got = s.push_frame(&frame).unwrap().reconstruction;
            assert_eq!(
                got, reference[i],
                "round {round}: {kind:?} changed under the shared cache"
            );
        }
    }
}

/// The batch engine's thread-count determinism holds for every solver
/// kind selected through `run`'s params.
#[test]
fn batch_runs_identical_across_thread_counts_for_all_solvers() {
    let im = imager(16, 42);
    let scenes: Vec<ImageF64> = (0..4)
        .map(|i| Scene::gaussian_blobs(3).render(16, 16, i))
        .collect();
    let k = im.capture(&scenes[0]).samples.len();
    for kind in SolverKind::shootout_set(k) {
        let params = RecoveryParams {
            solver: kind,
            ..RecoveryParams::default()
        };
        let serial = BatchRunner::with_threads(1)
            .run(&im, &scenes, params)
            .unwrap();
        let parallel = BatchRunner::with_threads(4)
            .run(&im, &scenes, params)
            .unwrap();
        assert_eq!(
            serial.reports, parallel.reports,
            "{kind:?}: thread count changed batch results"
        );
    }
}

/// `RecoveryParams` presets drive the same path as setting solver and
/// dictionary by hand.
#[test]
fn recovery_params_equal_manual_configuration() {
    let im = imager(16, 5);
    let scene = Scene::star_field(5).render(16, 16, 2);
    let frame = im.capture(&scene);
    let params = RecoveryParams::star_field(10);
    let via_params = {
        let mut s = DecodeSession::new();
        s.params(params);
        s.push_frame(&frame).unwrap().reconstruction
    };
    let manual = {
        let mut s = DecodeSession::new();
        s.algorithm(params.solver).dictionary(params.dictionary);
        s.push_frame(&frame).unwrap().reconstruction
    };
    assert_eq!(via_params, manual);
}

/// A session reconfigured after its first frame decodes the next frame
/// exactly as a fresh session configured up front would, and keeps its
/// one Φ build: new params reach the existing decoder instead of
/// rebuilding it.
#[test]
fn params_set_after_the_first_frame_apply_to_the_next() {
    let im = imager(16, 0x5E7);
    let frames: Vec<CompressedFrame> = (0..2)
        .map(|i| im.capture(&Scene::star_field(5).render(16, 16, i)))
        .collect();
    let params = RecoveryParams::star_field(10);
    let mut late = DecodeSession::new();
    late.push_frame(&frames[0]).unwrap();
    late.params(params);
    let got = late.push_frame(&frames[1]).unwrap().reconstruction;

    let mut upfront = DecodeSession::new();
    upfront.params(params);
    let want = upfront.push_frame(&frames[1]).unwrap().reconstruction;
    assert_eq!(got, want, "late params must match up-front params");
    let default = DecodeSession::new()
        .push_frame(&frames[1])
        .unwrap()
        .reconstruction;
    assert_ne!(got, default, "the new params must take effect");
    assert_eq!(late.cache().stats().misses, 1, "Φ is built once");

    // The per-field setters reach the live decoder too.
    let mut split = DecodeSession::new();
    split.push_frame(&frames[0]).unwrap();
    split.algorithm(params.solver).dictionary(params.dictionary);
    assert_eq!(split.push_frame(&frames[1]).unwrap().reconstruction, want);
}
