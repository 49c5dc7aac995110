//! Integration: the session API — stream round-trip parity with the
//! frame API, container overhead, operator-cache behavior, and
//! batch-engine determinism for whole streams.

use tepics::core::stream::{
    StreamParser, StreamWriter, WireProfile, FRAME_RECORD_BYTES, STREAM_HEADER_BYTES,
    TILED_HEADER_BYTES,
};
use tepics::prelude::*;

fn imager(side: usize, seed: u64) -> CompressiveImager {
    CompressiveImager::builder(side, side)
        .ratio(0.35)
        .seed(seed)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
}

/// The acceptance property: a scene sequence encoded via
/// `EncodeSession::to_bytes` and decoded via `DecodeSession::push_bytes`
/// round-trips bit-identically to per-frame `capture`/`reconstruct`.
#[test]
fn session_stream_matches_per_frame_capture_reconstruct() {
    let im = imager(24, 0xDA7E);
    let scenes: Vec<ImageF64> = (0..5)
        .map(|i| Scene::gaussian_blobs(3).render(24, 24, i))
        .collect();

    // Frame API: capture, send each frame as its own one-record stream,
    // parse, cold-reconstruct.
    let mut per_frame = Vec::new();
    for scene in &scenes {
        let frame = im.capture(scene);
        let mut writer = StreamWriter::new(frame.header, None, WireProfile::Compact).unwrap();
        writer.push_frame(&frame).unwrap();
        let mut parser = StreamParser::new();
        parser.push_bytes(writer.bytes());
        let received = parser.next_frame().unwrap().unwrap();
        let recon = Decoder::for_frame(&received)
            .unwrap()
            .reconstruct(&received)
            .unwrap();
        per_frame.push(recon);
    }

    // Session API: one stream, one decode session.
    let mut enc = EncodeSession::new(im).unwrap();
    for scene in &scenes {
        enc.capture(scene).unwrap();
    }
    let mut dec = DecodeSession::new();
    let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();

    assert_eq!(decoded.len(), per_frame.len());
    for (d, cold) in decoded.iter().zip(&per_frame) {
        assert_eq!(
            d.reconstruction, *cold,
            "frame {}: session decode diverged from per-frame decode",
            d.index
        );
    }
}

/// The container's whole point: the stream header is paid once, and
/// each captured frame adds only a 5-byte record prefix and its
/// bit-packed samples (wire-bits accounting, verified arithmetically
/// and against the serialization).
#[test]
fn stream_wire_bits_match_the_container_layout() {
    let im = imager(16, 77);
    let scenes: Vec<ImageF64> = (0..6)
        .map(|i| Scene::natural_like().render(16, 16, i))
        .collect();
    let mut enc = EncodeSession::new(im.clone()).unwrap();
    let mut payload_bytes = 0;
    for scene in &scenes {
        let records = enc.capture(scene).unwrap();
        let [frame] = records.as_slice() else {
            panic!("untiled capture yields one record");
        };
        payload_bytes += frame.payload_bits().div_ceil(8);
    }
    assert_eq!(
        enc.wire_bits(),
        (STREAM_HEADER_BYTES + scenes.len() * FRAME_RECORD_BYTES + payload_bytes) * 8
    );
    assert_eq!(enc.wire_bits(), enc.to_bytes().len() * 8);
}

/// `pipeline::evaluate` reports the bits of the stream it writes and
/// parses: exactly what an `EncodeSession` writes for the same capture,
/// one header and then one record per tile, untiled and tiled.
#[test]
fn evaluate_reports_the_bits_of_the_stream_it_writes() {
    let tiled = CompressiveImager::builder_for(FrameGeometry::new(40, 28))
        .tiling(TileConfig::new(16).overlap(4))
        .ratio(0.35)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    // 90 samples of 16 bits per 16×16 tile: 180 payload bytes.
    let record = FRAME_RECORD_BYTES + 180;
    for (im, expected_bytes) in [
        (imager(16, 5), STREAM_HEADER_BYTES + record),
        (tiled, TILED_HEADER_BYTES + 6 * record),
    ] {
        let g = im.geometry();
        let scene = Scene::gaussian_blobs(2).render(g.width(), g.height(), 9);
        let report = evaluate(
            &OperatorCache::shared(),
            &im,
            RecoveryParams::default(),
            &scene,
        )
        .unwrap();
        let mut enc = EncodeSession::new(im).unwrap();
        enc.capture(&scene).unwrap();
        assert_eq!(report.wire_bits, enc.wire_bits());
        assert_eq!(report.wire_bits, expected_bytes * 8);
    }
}

/// Decoding ≥4 same-seed frames through one session builds Φ once; the
/// remaining frames are served warm — the deterministic half of the
/// cache claim (the wall-clock half is asserted by the `batch`
/// experiment's warm-vs-cold audit).
#[test]
fn one_operator_build_serves_a_same_seed_stream() {
    let im = imager(16, 0x5EED);
    let mut enc = EncodeSession::new(im).unwrap();
    for i in 0..4 {
        enc.capture(&Scene::gaussian_blobs(2).render(16, 16, i))
            .unwrap();
    }
    let mut dec = DecodeSession::new();
    let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
    assert_eq!(decoded.len(), 4);
    let stats = dec.cache().stats();
    assert_eq!(stats.misses, 1, "Φ must be built exactly once");
    assert_eq!(stats.hits, 3, "frames 2–4 must decode warm");
}

/// Byte-at-a-time delivery: frames complete exactly when their last
/// byte arrives, and the result matches one-shot decoding.
#[test]
fn chunked_ingestion_is_equivalent_to_one_shot() {
    let im = imager(16, 31);
    let mut enc = EncodeSession::new(im).unwrap();
    for i in 0..3 {
        enc.capture(&Scene::gaussian_blobs(2).render(16, 16, i))
            .unwrap();
    }
    let bytes = enc.into_bytes();

    let mut one_shot = DecodeSession::new();
    let expected = one_shot.push_bytes(&bytes).unwrap();

    let mut chunked = DecodeSession::new();
    let mut got = Vec::new();
    for chunk in bytes.chunks(13) {
        got.extend(chunked.push_bytes(chunk).unwrap());
    }
    assert_eq!(got, expected);
    assert_eq!(chunked.buffered_bytes(), 0);
}

/// Delta mode over the wire: a static scene sequence reconstructs
/// identically frame to frame, and the delta frames are flagged.
#[test]
fn delta_mode_streams_static_scenes_for_free() {
    let im = imager(24, 0xF1DE);
    let scene = Scene::gaussian_blobs(3).render(24, 24, 5);
    let mut enc = EncodeSession::new(im).unwrap();
    for _ in 0..3 {
        enc.capture(&scene).unwrap();
    }
    let mut dec = DecodeSession::new();
    dec.delta_mode(20, 0);
    let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
    assert_eq!(decoded.len(), 3);
    assert!(decoded[0].is_key);
    assert!(!decoded[1].is_key && !decoded[2].is_key);
    for d in &decoded[1..] {
        assert_eq!(
            d.reconstruction.code_image(),
            decoded[0].reconstruction.code_image(),
            "zero delta must not move the reconstruction"
        );
    }
}

/// Whole streams on the batch engine: `decode_streams` results are
/// bit-identical at any thread count (the PR-1 guarantee, extended from
/// single frames to sequences).
#[test]
fn batch_stream_decoding_is_thread_count_invariant() {
    let im = imager(16, 0xBA7C);
    let streams: Vec<Vec<u8>> = (0..5)
        .map(|s| {
            let mut enc = EncodeSession::new(im.clone()).unwrap();
            for i in 0..2 {
                enc.capture(&Scene::gaussian_blobs(3).render(16, 16, s * 7 + i))
                    .unwrap();
            }
            enc.into_bytes()
        })
        .collect();
    let serial = BatchRunner::with_threads(1).decode_streams(&streams);
    let parallel = BatchRunner::with_threads(8).decode_streams(&streams);
    assert_eq!(serial, parallel);
    assert_eq!(serial.failed_streams(), 0);
    assert_eq!(serial.total_frames(), 10);
    // And the shared cache means one build for the whole batch.
    let runner = BatchRunner::with_threads(4);
    runner.decode_streams(&streams);
    assert_eq!(runner.cache().stats().misses, 1);
}

/// Delta-mode parity between the two session entry points: parsed
/// frames pushed one at a time (`push_frame`) reproduce a delta-mode
/// session fed raw stream bytes (`push_bytes`) bit for bit.
#[test]
fn delta_session_frame_and_byte_entry_points_agree() {
    let im = imager(24, 0x0DD);
    let mut enc = EncodeSession::new(im.clone()).unwrap();
    let mut frames = Vec::new();
    for i in 0..3 {
        let mut scene = Scene::gaussian_blobs(2).render(24, 24, 9);
        scene.set(4 + i, 12, 0.9);
        frames.extend(enc.capture(&scene).unwrap());
    }
    let mut by_frame = DecodeSession::new();
    by_frame.delta_mode(25, 0);
    let frame_codes: Vec<ImageF64> = frames
        .iter()
        .map(|f| {
            by_frame
                .push_frame(f)
                .unwrap()
                .reconstruction
                .code_image()
                .clone()
        })
        .collect();

    let mut session = DecodeSession::new();
    session.delta_mode(25, 0);
    let decoded = session.push_bytes(&enc.to_bytes()).unwrap();
    assert_eq!(decoded.len(), frame_codes.len());
    for (d, codes) in decoded.iter().zip(&frame_codes) {
        assert_eq!(d.reconstruction.code_image(), codes);
    }
}
