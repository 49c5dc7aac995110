//! Correctness guarantees for the fused `ΦᵀΨᵀ` / `ΨΦ` kernel engine.
//!
//! [`ComposedOperator`] silently dispatches to the one-pass fused
//! kernels whenever the measurement is row-streamed and the dictionary
//! is row-staged (the XOR measurement with DCT/Haar/identity
//! dictionaries — the decoder's entire operating envelope). These tests
//! pin the fusion to the semantics of the unfused two-pass composition:
//!
//! * fused apply/adjoint equal the explicit `Ψ then Φ` / `Φᵀ then Ψᵀ`
//!   reference within 1e-10 relative, across power-of-two and ragged
//!   geometries and every dictionary family (including the DC-pinned
//!   zero-mean wrapper), with geometries large enough to stream in
//!   several row blocks;
//! * warm decodes through a reused workspace — which route every solver
//!   iteration through the fused kernels with donated scratch — stay
//!   bit-identical to cold decodes, for the full solver shootout set,
//!   on a single-block and a multi-block frame;
//! * the decode-session thread count remains bit-transparent.

use std::sync::Arc;

use tepics::cs::dictionary::ZeroMeanDictionary;
use tepics::cs::{
    ComposedOperator, Dct2dDictionary, Dictionary, Haar2dDictionary, IdentityDictionary,
    LinearOperator, XorMeasurement,
};
use tepics::prelude::*;
use tepics::recovery::SolverWorkspace;
use tepics::util::{BitVec, SplitMix64};

/// A random XOR measurement on an `m×n` image (row-major `m` rows).
fn xor_phi(m: usize, n: usize, k: usize, rng: &mut SplitMix64) -> XorMeasurement {
    let patterns: Vec<BitVec> = (0..k)
        .map(|_| BitVec::from_bools((0..m + n).map(|_| rng.next_bool())))
        .collect();
    XorMeasurement::from_patterns(m, n, patterns)
}

fn assert_close(got: &[f64], want: &[f64], tol: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(1.0);
        assert!(
            (g - w).abs() <= tol * scale,
            "{what}[{i}]: fused {g} vs reference {w}"
        );
    }
}

/// Fused composed apply/adjoint equal the explicit two-pass reference
/// within 1e-10 relative, across pow2 and non-pow2 geometries and every
/// dictionary family the decoder can select.
#[test]
fn fused_composition_matches_two_pass_reference() {
    let mut rng = SplitMix64::new(0xF05E);
    // (rows, cols): square pow2, ragged even, odd/prime, wide, tall,
    // then 64×64 and 128×128, which stream in 2 and 8 row blocks.
    let geometries = [
        (16, 16),
        (12, 10),
        (17, 13),
        (8, 32),
        (32, 8),
        (1, 7),
        (64, 64),
        (128, 128),
    ];
    for &(m, n) in &geometries {
        let k = (m * n / 4).max(2);
        let phi = xor_phi(m, n, k, &mut rng);
        let dicts: Vec<(&str, Box<dyn Dictionary>)> = vec![
            ("dct", Box::new(Dct2dDictionary::new(n, m))),
            (
                "dct-zeromean",
                Box::new(ZeroMeanDictionary::new(Dct2dDictionary::new(n, m), 0)),
            ),
            ("haar", Box::new(Haar2dDictionary::new(n, m))),
            (
                "haar-zeromean",
                Box::new(ZeroMeanDictionary::new(Haar2dDictionary::new(n, m), 0)),
            ),
            ("identity", Box::new(IdentityDictionary::new(m * n))),
        ];
        for (name, dict) in &dicts {
            let a = ComposedOperator::new(&phi, dict.as_ref());
            let alpha: Vec<f64> = (0..m * n).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
            let y: Vec<f64> = (0..k).map(|_| rng.next_f64() * 100.0 - 50.0).collect();
            // Reference: the unfused composition, stage by stage.
            let fwd_ref = phi.apply_vec(&dict.synthesize_vec(&alpha));
            let adj_ref = dict.analyze_vec(&phi.apply_adjoint_vec(&y));
            let what = format!("{m}x{n} {name}");
            assert_close(
                &a.apply_vec(&alpha),
                &fwd_ref,
                1e-10,
                &format!("{what} apply"),
            );
            assert_close(
                &a.apply_adjoint_vec(&y),
                &adj_ref,
                1e-10,
                &format!("{what} adjoint"),
            );
        }
    }
}

/// Asserts a warm decode through one reused workspace equals a cold
/// decode of `frame` under `params`, bit for bit.
fn assert_warm_equals_cold(frame: &CompressedFrame, params: RecoveryParams) {
    let mut dec = Decoder::for_frame(frame).unwrap();
    dec.params(params);
    let cold = dec.reconstruct(frame).unwrap();
    let mut ws = SolverWorkspace::new();
    dec.reconstruct_with(frame, &mut ws).unwrap(); // warm the buffers
    let warm = dec.reconstruct_with(frame, &mut ws).unwrap();
    let (rows, cols) = (frame.header.rows, frame.header.cols);
    assert_eq!(
        cold, warm,
        "{rows}×{cols} {params:?}: warm fused decode differs from cold"
    );
}

fn capture(side: usize) -> CompressedFrame {
    let im = CompressiveImager::builder(side, side)
        .ratio(0.4)
        .seed(0xF0)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    im.capture(&Scene::gaussian_blobs(2).render(side, side, 5))
}

const DICTIONARIES: [DictionaryKind; 3] = [
    DictionaryKind::Dct2d,
    DictionaryKind::Haar2d,
    DictionaryKind::Identity,
];

/// Warm decodes through one reused workspace — the path that runs every
/// solver iteration through the fused kernels with donated scratch —
/// are bit-identical to cold decodes, for every solver in the shootout
/// set and every dictionary family on a 16×16 frame (one row block),
/// and for a short debiased FISTA on a 64×64 frame (two row blocks).
#[test]
fn warm_fused_decode_is_bit_identical_to_cold_for_all_solvers() {
    let small = capture(16);
    assert_eq!(tepics::cs::fused::fused_block_rows(16, 16), 16);
    for dictionary in DICTIONARIES {
        for solver in SolverKind::shootout_set(small.samples.len()) {
            assert_warm_equals_cold(&small, RecoveryParams { solver, dictionary });
        }
    }
    let large = capture(64);
    assert_eq!(tepics::cs::fused::fused_block_rows(64, 64), 32);
    let solver = SolverKind::Fista {
        lambda_ratio: 0.02,
        max_iter: 40,
        debias: true,
    };
    for dictionary in DICTIONARIES {
        assert_warm_equals_cold(&large, RecoveryParams { solver, dictionary });
    }
}

/// The decode-session worker count stays bit-transparent on the fused
/// path: the same stream decoded serially and with a thread pool yields
/// identical reconstructions.
#[test]
fn threaded_session_decode_is_bit_identical_on_fused_path() {
    let im = CompressiveImager::builder(16, 16)
        .ratio(0.35)
        .seed(0x7B)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    let mut enc = EncodeSession::new(im).unwrap();
    for i in 0..4 {
        let scene = Scene::gaussian_blobs(2).render(16, 16, i);
        enc.capture(&scene).unwrap();
    }
    let bytes = enc.into_bytes();
    let decode = |threads: usize| {
        let mut session = DecodeSession::new();
        session.threads(threads);
        let frames = session.push_bytes(&bytes).unwrap();
        frames
            .into_iter()
            .map(|f| f.reconstruction)
            .collect::<Vec<_>>()
    };
    let serial = decode(1);
    let pooled = decode(3);
    assert_eq!(serial.len(), 4);
    assert_eq!(serial, pooled, "thread count must be bit-transparent");
}

/// The fused dispatch actually engages on the decoder's envelope: both
/// hooks report ready for the XOR measurement with each decoder
/// dictionary. (Guards the wiring, so a refactor cannot silently fall
/// back to the two-pass path and rot the fused kernels.)
#[test]
fn decoder_envelope_qualifies_for_fusion() {
    let mut rng = SplitMix64::new(0xD15);
    let phi = xor_phi(16, 16, 32, &mut rng);
    assert!(phi.row_streamed().is_some(), "XOR must be row-streamed");
    let dct = ZeroMeanDictionary::new(Dct2dDictionary::new(16, 16), 0);
    let haar = ZeroMeanDictionary::new(Haar2dDictionary::new(16, 16), 0);
    let id = IdentityDictionary::new(256);
    assert!(dct.row_staged().is_some(), "pinned DCT must be row-staged");
    assert!(
        haar.row_staged().is_some(),
        "pinned Haar must be row-staged"
    );
    assert!(id.row_staged().is_some(), "identity must be row-staged");
    let _ = Arc::new(phi); // session stores Φ behind an Arc; keep that cheap here too
}
