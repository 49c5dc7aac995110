//! Integration: the full paper-prototype system, 64×64, end to end.

use tepics::core::stream::StreamParser;
use tepics::prelude::*;
use tepics::sensor::EventStats;

/// Captures `scene` into a one-record stream and parses the record back
/// out of the bytes, as a receiver would. Returns the capture's event
/// statistics, the stream bytes and the received frame, which must
/// equal the captured one.
fn over_the_wire(
    imager: &CompressiveImager,
    scene: &ImageF64,
) -> (EventStats, Vec<u8>, CompressedFrame) {
    let mut enc = EncodeSession::new(imager.clone()).unwrap();
    let (mut frames, stats) = enc.capture_with_stats(scene).unwrap();
    let bytes = enc.into_bytes();
    let mut parser = StreamParser::new();
    parser.push_bytes(&bytes);
    let received = parser.next_frame().unwrap().expect("one complete record");
    assert_eq!(received, frames.remove(0));
    (stats, bytes, received)
}

/// The headline loop at the paper's own scale: 64×64 array, R just
/// below the 0.4 break-even (Sect. III.B requires R < N_b/N_B strictly —
/// at exactly 0.4 the 20-bit samples tie the 8-bit raw readout),
/// Rule-30 strategy, event-accurate capture, wire round-trip, FISTA +
/// debias reconstruction.
#[test]
fn paper_prototype_end_to_end() {
    let scene = Scene::gaussian_blobs(4).render(64, 64, 2024);
    let imager = CompressiveImager::builder(64, 64)
        .ratio(0.38)
        .seed(0xDA7E_2018)
        .build()
        .unwrap();
    let (stats, bytes, received) = over_the_wire(&imager, &scene);
    assert_eq!(received.sample_count(), (0.38f64 * 4096.0).ceil() as usize);
    assert_eq!(received.header.sample_bits, 20, "Eq. (1): 8 + log2(4096)");
    // Event protocol must have seen real contention at this scale but
    // never an accumulator overflow (Eq. (1) is exact).
    assert!(stats.total_pulses > 1_000_000);
    assert!(stats.queued_pulses > 0);
    assert_eq!(stats.column_overflows, 0);
    assert_eq!(stats.sample_overflows, 0);

    // The whole stream, header included, beats the raw readout.
    assert!(
        (bytes.len() * 8) < 4096 * 8,
        "R=0.38 at 20 bits must beat the 8-bit raw readout"
    );

    // Reconstruct (iteration budget trimmed for CI runtimes).
    let mut decoder = Decoder::for_frame(&received).unwrap();
    decoder.params(RecoveryParams {
        solver: SolverKind::Fista {
            lambda_ratio: 0.02,
            max_iter: 150,
            debias: true,
        },
        dictionary: DictionaryKind::Dct2d,
    });
    let recon = decoder.reconstruct(&received).unwrap();
    let truth = imager.ideal_codes(&scene).to_code_f64();
    let db = psnr(&truth, recon.code_image(), 255.0);
    assert!(db > 24.0, "64×64 end-to-end PSNR {db:.1} dB below floor");
}

/// Encoder and decoder must derive the *identical* measurement from the
/// seed: recomputing every sample from the decoder's rebuilt Φ and the
/// sensor's ideal codes reproduces the functional capture bit-for-bit.
#[test]
fn decoder_rebuilds_the_exact_measurement() {
    let scene = Scene::piecewise_smooth(4).render(32, 32, 9);
    let imager = CompressiveImager::builder(32, 32)
        .ratio(0.25)
        .seed(4242)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    let frame = imager.capture(&scene);
    let decoder = Decoder::for_frame(&frame).unwrap();
    let phi = decoder.rebuild_measurement(frame.sample_count()).unwrap();
    let codes: Vec<f64> = imager.ideal_codes(&scene).to_code_f64().into_vec();
    let y = {
        use tepics::cs::LinearOperator;
        phi.apply_vec(&codes)
    };
    for (k, (&sample, yk)) in frame.samples.iter().zip(&y).enumerate() {
        assert_eq!(
            sample as f64, *yk,
            "sample {k} disagrees with the rebuilt measurement"
        );
    }
}

/// Different strategy kinds survive the wire and reconstruct.
#[test]
fn all_strategies_roundtrip_through_the_wire() {
    let scene = Scene::gaussian_blobs(2).render(16, 16, 5);
    for strategy in [
        StrategyKind::default_for(16, 16),
        StrategyKind::Lfsr { width: 24 },
        StrategyKind::Hadamard,
        StrategyKind::Bernoulli,
    ] {
        let imager = CompressiveImager::builder(16, 16)
            .ratio(0.4)
            .strategy(strategy)
            .seed(77)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let (_, _, received) = over_the_wire(&imager, &scene);
        assert_eq!(received.header.strategy, strategy);
        let recon = Decoder::for_frame(&received)
            .unwrap()
            .reconstruct(&received)
            .unwrap();
        assert!(
            recon.code_image().as_slice().iter().all(|v| v.is_finite()),
            "{strategy:?} produced non-finite output"
        );
    }
}

/// The compressed stream degrades gracefully: truncating samples (e.g.
/// a dropped packet tail) still reconstructs, just worse.
#[test]
fn truncated_sample_stream_degrades_gracefully() {
    let scene = Scene::gaussian_blobs(3).render(32, 32, 11);
    let imager = CompressiveImager::builder(32, 32)
        .ratio(0.45)
        .seed(31)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    let frame = imager.capture(&scene);
    let truth = imager.ideal_codes(&scene).to_code_f64();
    let full_db = {
        let r = Decoder::for_frame(&frame)
            .unwrap()
            .reconstruct(&frame)
            .unwrap();
        psnr(&truth, r.code_image(), 255.0)
    };
    let mut cut = frame.clone();
    cut.samples.truncate(frame.sample_count() / 3);
    let cut_db = {
        let r = Decoder::for_frame(&cut).unwrap().reconstruct(&cut).unwrap();
        psnr(&truth, r.code_image(), 255.0)
    };
    assert!(
        cut_db > 10.0,
        "truncated stream collapsed entirely: {cut_db:.1} dB"
    );
    assert!(
        full_db > cut_db,
        "more samples must not hurt: full {full_db:.1} vs cut {cut_db:.1}"
    );
}
