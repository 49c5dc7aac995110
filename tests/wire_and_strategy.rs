//! Integration: wire-format robustness and strategy synchronization
//! across the encoder/decoder boundary.

use tepics::core::stream::{StreamParser, RESILIENT_HEADER_BYTES, SYNC_WORD};
use tepics::prelude::*;

/// Every byte of a valid one-record stream flipped one at a time, on
/// both wire profiles: parsing must fail cleanly, wait for more bytes,
/// skip the record, or produce a *different* frame — never panic, never
/// silently accept a corrupted header or record as the original. (The
/// resilient stream's leading sync word is the one redundant stretch:
/// damage there costs nothing, so the record must come through whole.)
#[test]
fn single_byte_corruption_never_panics() {
    let scene = Scene::gaussian_blobs(2).render(16, 16, 3);
    let imager = CompressiveImager::builder(16, 16)
        .ratio(0.2)
        .seed(0xAB)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    for profile in [WireProfile::Compact, WireProfile::Resilient] {
        let mut enc = EncodeSession::with_profile(imager.clone(), profile).unwrap();
        let frame = enc.capture(&scene).unwrap().remove(0);
        let bytes = enc.into_bytes();
        let sync = RESILIENT_HEADER_BYTES..RESILIENT_HEADER_BYTES + SYNC_WORD.len();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xFF;
            let mut parser = StreamParser::new();
            parser.push_bytes(&corrupted);
            // A clean rejection (Err) or no frame is fine; silent
            // acceptance is not.
            if let Ok(Some(parsed)) = parser.next_frame() {
                if profile == WireProfile::Resilient && sync.contains(&i) {
                    assert_eq!(parsed, frame, "byte {i}: sync damage lost the record");
                } else {
                    assert_ne!(
                        parsed, frame,
                        "{profile:?} byte {i}: corruption went unnoticed"
                    );
                }
            }
        }
    }
}

/// A frame captured on one "machine" must decode identically on
/// another: stream it, re-parse, rebuild Φ, reconstruct, and compare
/// against reconstructing from the original in-memory frame.
#[test]
fn reconstruction_is_identical_across_the_wire() {
    let scene = Scene::natural_like().render(24, 24, 8);
    let imager = CompressiveImager::builder(24, 24)
        .ratio(0.3)
        .seed(0xFEED)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    let mut enc = EncodeSession::new(imager).unwrap();
    let frame = enc.capture(&scene).unwrap().remove(0);
    let mut parser = StreamParser::new();
    parser.push_bytes(&enc.to_bytes());
    let received = parser.next_frame().unwrap().unwrap();
    assert_eq!(received, frame);
    let local = Decoder::for_frame(&frame)
        .unwrap()
        .reconstruct(&frame)
        .unwrap();
    let remote = Decoder::for_frame(&received)
        .unwrap()
        .reconstruct(&received)
        .unwrap();
    assert_eq!(local.code_image(), remote.code_image());
    assert_eq!(local.mean_code(), remote.mean_code());
}

/// Two frames of the same scene with different seeds decorrelate, yet
/// both reconstruct — the imager can hop seeds per frame (a privacy
/// property ref. [13] cares about) as long as each frame carries its
/// seed.
#[test]
fn seed_hopping_frames_both_reconstruct() {
    let scene = Scene::gaussian_blobs(3).render(16, 16, 6);
    let truth = {
        let im = CompressiveImager::builder(16, 16)
            .ratio(0.4)
            .seed(1)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        im.ideal_codes(&scene).to_code_f64()
    };
    for seed in [1u64, 2] {
        let im = CompressiveImager::builder(16, 16)
            .ratio(0.4)
            .seed(seed)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let frame = im.capture(&scene);
        let recon = Decoder::for_frame(&frame)
            .unwrap()
            .reconstruct(&frame)
            .unwrap();
        let db = psnr(&truth, recon.code_image(), 255.0);
        assert!(db > 20.0, "seed {seed}: {db:.1} dB");
    }
    // And the sample streams themselves are uncorrelated.
    let f1 = CompressiveImager::builder(16, 16)
        .ratio(0.4)
        .seed(1)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
        .capture(&scene);
    let f2 = CompressiveImager::builder(16, 16)
        .ratio(0.4)
        .seed(2)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
        .capture(&scene);
    assert_ne!(f1.samples, f2.samples);
}

/// Decoders must reject frames whose geometry they were not built for.
#[test]
fn decoder_rejects_foreign_frames() {
    let scene16 = Scene::Uniform(0.5).render(16, 16, 0);
    let scene24 = Scene::Uniform(0.5).render(24, 24, 0);
    let im16 = CompressiveImager::builder(16, 16)
        .ratio(0.2)
        .seed(1)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    let im24 = CompressiveImager::builder(24, 24)
        .ratio(0.2)
        .seed(1)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    let f16 = im16.capture(&scene16);
    let f24 = im24.capture(&scene24);
    let decoder16 = Decoder::for_frame(&f16).unwrap();
    assert!(decoder16.reconstruct(&f24).is_err());
}
