//! Integration: the persistent decode executor — the pooled tiled
//! decode path must be observationally indistinguishable from the
//! inline path at every thread count, whether frames arrive one push
//! at a time or pipeline through a single push, whether tiles are all
//! present or erased by wire damage, and whether the session was
//! prewarmed or not. Only throughput may differ.

use tepics::core::stream::RESILIENT_TILED_HEADER_BYTES;
use tepics::core::FaultInjector;
use tepics::prelude::*;

/// A 40×28 imager in shifted 16-px tiles with 4-px overlap (9 tiles).
fn tiled_imager(seed: u64) -> CompressiveImager {
    CompressiveImager::builder_for(FrameGeometry::new(40, 28))
        .tiling(TileConfig::new(16).overlap(4))
        .ratio(0.35)
        .seed(seed)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
}

/// Captures `n` distinct frames into one compact tiled stream,
/// snapshotting the byte length after each capture so the stream can be
/// replayed in frame-aligned chunks.
fn tiled_stream(seed: u64, n: usize) -> (Vec<u8>, Vec<usize>) {
    let mut enc = EncodeSession::new(tiled_imager(seed)).unwrap();
    let mut cuts = vec![0usize];
    for i in 0..n {
        let scene = Scene::gaussian_blobs(3).render(40, 28, seed ^ i as u64);
        enc.capture(&scene).unwrap();
        cuts.push(enc.to_bytes().len());
    }
    (enc.into_bytes(), cuts)
}

/// Drains one configured session over `bytes` in a single push.
fn drain(
    bytes: &[u8],
    configure: impl FnOnce(&mut DecodeSession),
) -> (Vec<DecodedFrame>, DecodeReport) {
    let mut dec = DecodeSession::new();
    configure(&mut dec);
    let mut frames = dec.push_bytes(bytes).unwrap();
    frames.extend(dec.finish().unwrap());
    (frames, dec.report())
}

/// The acceptance property of the executor: pooled decodes are
/// bit-identical to the serial reference at every thread count, frames
/// and report alike.
#[test]
fn executors_are_bit_identical_at_every_thread_count() {
    let (bytes, _) = tiled_stream(0x9001, 3);
    let reference = drain(&bytes, |d| {
        d.threads(1);
    });
    for threads in [2, 4, 7] {
        let got = drain(&bytes, |d| {
            d.threads(threads);
        });
        assert_eq!(got, reference, "threads {threads} diverged");
    }
}

/// Frame pipelining is a scheduling detail, not a semantics change: a
/// single push completing several tile groups must yield exactly the
/// frames (same indices, same pixels, same report) of frame-aligned
/// pushes through the same session config.
#[test]
fn single_push_pipelining_matches_frame_aligned_pushes() {
    let (bytes, cuts) = tiled_stream(0x919E, 4);

    let (pipelined, pipelined_report) = drain(&bytes, |d| {
        d.threads(4);
    });
    assert_eq!(pipelined.len(), 4);

    let mut chunked_session = DecodeSession::new();
    chunked_session.threads(4);
    let mut chunked = Vec::new();
    for i in 0..4 {
        let got = chunked_session
            .push_bytes(&bytes[cuts[i]..cuts[i + 1]])
            .unwrap();
        assert_eq!(got.len(), 1, "chunk {i} must complete exactly one frame");
        chunked.extend(got);
    }
    chunked.extend(chunked_session.finish().unwrap());

    assert_eq!(pipelined, chunked);
    assert_eq!(pipelined_report, chunked_session.report());
    for (i, frame) in pipelined.iter().enumerate() {
        assert_eq!(frame.index, i, "stream order must survive pipelining");
    }
}

/// Erasure handling rides through the pool unchanged: a wire-damaged
/// resilient stream degrades to the same frames and the same ledger
/// pooled as inline, under both lenient policies.
#[test]
fn erased_tiles_decode_identically_on_every_executor() {
    let mut enc = EncodeSession::with_profile(tiled_imager(0xE5A), WireProfile::Resilient).unwrap();
    for i in 0..3 {
        let scene = Scene::gaussian_blobs(3).render(40, 28, 60 + i);
        enc.capture(&scene).unwrap();
    }
    let mut dirty = enc.into_bytes();
    let flipped = FaultInjector::new(7).flip_bits_after(
        &mut dirty,
        RESILIENT_TILED_HEADER_BYTES,
        0.001 / 8.0,
    );
    assert!(flipped > 0, "fault injection must actually damage the wire");

    for policy in [ErasurePolicy::NeighborBlend, ErasurePolicy::FlaggedZero] {
        let reference = drain(&dirty, |d| {
            d.threads(1).erasure_policy(policy);
        });
        assert!(
            reference.1.tiles_erased > 0,
            "{policy:?}: damage must erase at least one tile for this test to bite"
        );
        let got = drain(&dirty, |d| {
            d.threads(4).erasure_policy(policy);
        });
        assert_eq!(got, reference, "{policy:?} diverged on the pool");
    }
}

/// [`DecodeSession::prewarm`] is a results no-op: it may only move
/// work earlier in time (workspace warm-up), never change a pixel, an
/// index, or the report.
#[test]
fn prewarm_does_not_change_results() {
    let im = tiled_imager(0x9E4A);
    let scene = Scene::gaussian_blobs(3).render(40, 28, 21);
    let mut enc = EncodeSession::new(im).unwrap();
    let records = enc.capture(&scene).unwrap();
    let bytes = enc.into_bytes();

    let cold = drain(&bytes, |d| {
        d.threads(4);
    });
    let warm = drain(&bytes, |d| {
        d.threads(4);
        d.prewarm(&records[0]).unwrap();
    });
    assert_eq!(warm, cold);
}

/// A single tiled stream through the batch engine regains its inner
/// tile parallelism on the pool — and the outcome is exactly what a
/// directly driven session produces.
#[test]
fn batch_single_stream_matches_direct_session_decode() {
    let (bytes, _) = tiled_stream(0xBA7C, 3);
    let (frames, report) = drain(&bytes, |d| {
        d.threads(4);
    });

    let outcome = BatchRunner::with_threads(4).decode_streams(&[&bytes[..]]);
    assert_eq!(outcome.outcomes.len(), 1);
    assert_eq!(outcome.failed_streams(), 0);
    let stream = &outcome.outcomes[0];
    assert!(stream.error.is_none());
    assert_eq!(stream.frames, frames);
    assert_eq!(stream.report, report);
}
