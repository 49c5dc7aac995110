//! Integration: the tiled decode path — geometry-first capture through
//! v2 wire streams, stitched reconstruction invariance across tile
//! sizes and thread counts, a composed stitching oracle (with and
//! without erased tiles), v1 backward compatibility, hostile-header
//! robustness, and operator-cache byte budgets under tiled load.

use std::sync::Arc;

use std::collections::VecDeque;

use tepics::core::stream::{
    StreamParser, RESILIENT_RECORD_PREFIX_BYTES, RESILIENT_TILED_HEADER_BYTES, STREAM_VERSION,
    STREAM_VERSION_TILED, SYNC_INTERVAL,
};
use tepics::prelude::*;
use tepics::util::SplitMix64;

/// A 40×28 imager tiled into `tile`-px squares with `overlap`.
fn tiled_imager(tile: usize, overlap: usize, seed: u64) -> CompressiveImager {
    CompressiveImager::builder_for(FrameGeometry::new(40, 28))
        .tiling(TileConfig::new(tile).overlap(overlap))
        .ratio(0.35)
        .seed(seed)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
}

/// Encodes `scene` through `imager` and returns the stream bytes.
fn stream_bytes(imager: CompressiveImager, scene: &ImageF64) -> Vec<u8> {
    let mut enc = EncodeSession::new(imager).unwrap();
    enc.capture(scene).unwrap();
    enc.into_bytes()
}

/// The stitched decode must be acceptable at every tile size: the tile
/// grid is an internal decomposition, not a quality knob the caller has
/// to tune. (Exact equality across tile sizes is not expected — each
/// grid solves different subproblems — but every grid must clear the
/// same quality bar on the same scene.)
#[test]
fn stitched_quality_holds_across_tile_sizes() {
    let scene = Scene::gaussian_blobs(3).render(64, 48, 11);
    for (tile, overlap) in [(16, 4), (32, 8)] {
        let im = CompressiveImager::builder_for(FrameGeometry::new(64, 48))
            .tiling(TileConfig::new(tile).overlap(overlap))
            .ratio(0.35)
            .seed(0x71DE)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let truth = im.ideal_codes(&scene).to_code_f64();
        let bytes = stream_bytes(im, &scene);
        let mut dec = DecodeSession::new();
        let decoded = dec.push_bytes(&bytes).unwrap();
        assert_eq!(decoded.len(), 1, "tile {tile}: one stitched frame");
        let recon = decoded[0].reconstruction.code_image();
        assert_eq!((recon.width(), recon.height()), (64, 48));
        let db = psnr(&truth, recon, 255.0);
        assert!(db > 20.0, "tile {tile} overlap {overlap}: {db:.1} dB");
    }
}

/// Stitched decodes are bit-identical at every thread count — the
/// acceptance property of the block-parallel engine. Every tile shares
/// one geometry, so the serial decode builds Φ once and serves every
/// other tile from the cache, and the stitched frame clears 18 dB.
#[test]
fn stitched_decode_is_thread_count_invariant() {
    for (scene, seed) in [
        (Scene::natural_like().render(40, 28, 3), 0xB17),
        (Scene::gaussian_blobs(3).render(40, 28, 5), 0x7EDD),
    ] {
        let im = tiled_imager(16, 4, seed);
        let tiles = im.tile_layout().unwrap().tiles() as u64;
        let truth = im.ideal_codes(&scene).to_code_f64();
        let bytes = stream_bytes(im, &scene);
        let mut serial = DecodeSession::new();
        let reference = serial.push_bytes(&bytes).unwrap();
        assert_eq!(reference.len(), 1, "seed {seed:#x}: one stitched frame");
        let stats = serial.cache().stats();
        assert_eq!(
            (stats.misses, stats.hits),
            (1, tiles - 1),
            "seed {seed:#x}: the shared tile geometry should build Φ exactly once"
        );
        let db = psnr(&truth, reference[0].reconstruction.code_image(), 255.0);
        assert!(db >= 18.0, "seed {seed:#x}: stitched PSNR {db:.1} dB");
        for threads in [2, 3, 4, 8] {
            let mut dec = DecodeSession::new();
            dec.threads(threads);
            let decoded = dec.push_bytes(&bytes).unwrap();
            assert_eq!(
                decoded, reference,
                "seed {seed:#x}: threads = {threads} diverged"
            );
        }
    }
}

/// A naive stitch of per-tile code images following `layout`: each
/// pixel is the weighted mean of the surviving (`Some`) tiles that
/// cover it, weighted 1 under `Average` and, under `Feather`, by the
/// product over both axes of the distance to the tile's nearer edge
/// (counting the edge pixel as 1), capped at `overlap + 1`. A pixel no
/// surviving tile covers is 0.0 and `None` in the returned mask.
fn naive_stitch(tiles: &[Option<ImageF64>], layout: &TileLayout) -> Vec<Option<f64>> {
    let frame = layout.frame();
    let ramp = |d: usize, extent: usize| match layout.blend() {
        BlendMode::Average => 1.0,
        BlendMode::Feather => (d + 1).min(extent - d).min(layout.overlap() + 1) as f64,
    };
    let mut out = Vec::with_capacity(frame.pixels());
    for y in 0..frame.height() {
        for x in 0..frame.width() {
            let (mut sum, mut weight) = (0.0, 0.0);
            for (tile, r) in tiles.iter().zip(layout.rects()) {
                let Some(tile) = tile else { continue };
                if (r.x..r.x + r.w).contains(&x) && (r.y..r.y + r.h).contains(&y) {
                    let (dx, dy) = (x - r.x, y - r.y);
                    let w = ramp(dx, r.w) * ramp(dy, r.h);
                    sum += w * tile.get(dx, dy);
                    weight += w;
                }
            }
            out.push((weight > 0.0).then(|| sum / weight));
        }
    }
    out
}

/// Fills the uncovered (`None`) pixels of a naive stitch by inward
/// diffusion, written independently of the library: a BFS over
/// 4-neighbours gives each pixel its distance to the covered set, and
/// then, in order of distance, each uncovered pixel takes the mean of
/// its 4-neighbours one step closer to that set.
fn diffuse(stitched: &[Option<f64>], width: usize) -> Vec<f64> {
    let height = stitched.len() / width;
    let neighbours = |i: usize| {
        let (x, y) = (i % width, i / width);
        [
            (x > 0).then(|| i - 1),
            (x + 1 < width).then(|| i + 1),
            (y > 0).then(|| i - width),
            (y + 1 < height).then(|| i + width),
        ]
        .into_iter()
        .flatten()
    };
    let mut dist = vec![usize::MAX; stitched.len()];
    let mut queue = VecDeque::new();
    for (i, v) in stitched.iter().enumerate() {
        if v.is_some() {
            dist[i] = 0;
            queue.push_back(i);
        }
    }
    let mut order = Vec::new();
    while let Some(i) = queue.pop_front() {
        for j in neighbours(i) {
            if dist[j] == usize::MAX {
                dist[j] = dist[i] + 1;
                queue.push_back(j);
                order.push(j);
            }
        }
    }
    let mut out: Vec<f64> = stitched.iter().map(|v| v.unwrap_or(0.0)).collect();
    for i in order {
        let closer: Vec<f64> = neighbours(i)
            .filter(|&j| dist[j] + 1 == dist[i])
            .map(|j| out[j])
            .collect();
        out[i] = closer.iter().sum::<f64>() / closer.len() as f64;
    }
    out
}

/// The largest per-code deviation between a decoded frame and `want`.
fn worst_deviation(frame: &DecodedFrame, want: &[f64]) -> f64 {
    frame
        .reconstruction
        .code_image()
        .as_slice()
        .iter()
        .zip(want)
        .map(|(got, want)| (got - want).abs())
        .fold(0.0f64, f64::max)
}

/// Composed stitching oracle: a tiled session decode equals, within
/// 1e-10 per code, the untiled `Decoder` run on each tile record of the
/// stream (the decoder the OMP and FISTA oracles pin to textbook twins)
/// and stitched naively here. In delta mode the per-tile reference is
/// an untiled delta session fed only that tile slot's records, so
/// every slot keeps a chain of its own. The 44×30 frame in 16-px tiles
/// with overlap 4 shifts the last tile column and row back to the
/// frame edge, so those tiles overlap their neighbors by more than
/// 4 px.
#[test]
fn tiled_decode_equals_a_naive_stitch_of_untiled_tile_decodes() {
    let solvers = [
        RecoveryParams::exact_sparse(30),
        RecoveryParams {
            solver: SolverKind::Fista {
                lambda_ratio: 0.02,
                max_iter: 150,
                debias: false,
            },
            dictionary: DictionaryKind::Dct2d,
        },
    ];
    for blend in [BlendMode::Average, BlendMode::Feather] {
        let imager = CompressiveImager::builder_for(FrameGeometry::new(44, 30))
            .tiling(TileConfig::new(16).overlap(4).blend(blend))
            .ratio(0.35)
            .seed(0x5717C)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let mut enc = EncodeSession::new(imager).unwrap();
        for i in 0..3 {
            enc.capture(&Scene::natural_like().render(44, 30, 60 + i))
                .unwrap();
        }
        let bytes = enc.into_bytes();
        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes);
        let mut records = Vec::new();
        while let Some(record) = parser.next_frame().unwrap() {
            records.push(record);
        }
        let layout = parser.tile_layout().unwrap().clone();
        assert_eq!(layout.blend(), blend);
        assert_eq!((layout.tiles_x(), layout.tiles_y()), (4, 3));
        assert_eq!(records.len(), 3 * layout.tiles());
        // Delta frames always run IHT, so one key solver covers them.
        let configs = [
            (solvers[0], None),
            (solvers[1], None),
            (solvers[0], Some((30, 0))),
        ];
        for (params, delta) in configs {
            let label = format!("{blend:?} {} delta={delta:?}", params.solver.name());
            let tiles: Vec<ImageF64> = match delta {
                None => records
                    .iter()
                    .map(|record| {
                        let mut decoder = Decoder::for_frame(record).unwrap();
                        decoder.params(params);
                        decoder.reconstruct(record).unwrap().code_image().clone()
                    })
                    .collect(),
                Some((sparsity, interval)) => {
                    let mut slots: Vec<DecodeSession> = (0..layout.tiles())
                        .map(|_| {
                            let mut slot = DecodeSession::new();
                            slot.params(params).delta_mode(sparsity, interval);
                            slot
                        })
                        .collect();
                    records
                        .iter()
                        .enumerate()
                        .map(|(seq, record)| {
                            let slot = &mut slots[seq % layout.tiles()];
                            let frame = slot.push_frame(record).unwrap();
                            assert_eq!(frame.is_key, seq < layout.tiles(), "{label}");
                            frame.reconstruction.code_image().clone()
                        })
                        .collect()
                }
            };
            for threads in [1, 2] {
                let mut dec = DecodeSession::new();
                dec.params(params).threads(threads);
                if let Some((sparsity, interval)) = delta {
                    dec.delta_mode(sparsity, interval);
                }
                let frames = dec.push_bytes(&bytes).unwrap();
                assert_eq!(frames.len(), 3, "{label}: three stitched frames");
                for (frame, group) in frames.iter().zip(tiles.chunks(layout.tiles())) {
                    assert_eq!(frame.is_key, delta.is_none() || frame.index == 0);
                    let group: Vec<Option<ImageF64>> = group.iter().cloned().map(Some).collect();
                    let want: Vec<f64> = naive_stitch(&group, &layout)
                        .into_iter()
                        .map(|v| v.expect("a full tile set covers every pixel"))
                        .collect();
                    let worst = worst_deviation(frame, &want);
                    assert!(
                        worst <= 1e-10,
                        "{label} threads {threads} frame {}: codes deviate by {worst:e}",
                        frame.index
                    );
                }
            }
        }
    }
}

/// Erasure-fill oracle: a resilient tiled stream whose damaged tile
/// records fail their payload CRC decodes, under `FlaggedZero` and
/// `NeighborBlend` at threads 1 and 2, to within 1e-10 of the untiled
/// `Decoder` run on each surviving record, stitched naively with the
/// erased tiles left out, and — for `NeighborBlend` — the uncovered
/// pixels filled by this file's own diffusion. Frame 0 loses its
/// top-left tile (a corner hole); frame 1 loses its whole middle tile
/// column (a strip filled from both sides); frame 2 is clean.
#[test]
fn erased_tiles_fill_like_a_naive_stitch_plus_diffusion() {
    let params = RecoveryParams::exact_sparse(30);
    let imager = tiled_imager(16, 4, 0xF111);
    let layout = imager.tile_layout().unwrap().clone();
    assert_eq!((layout.tiles_x(), layout.tiles_y()), (3, 2));
    let mut enc = EncodeSession::with_profile(imager, WireProfile::Resilient).unwrap();
    for i in 0..3 {
        enc.capture(&Scene::natural_like().render(40, 28, 70 + i))
            .unwrap();
    }
    let mut bytes = enc.into_bytes();
    let mut parser = StreamParser::new();
    parser.push_bytes(&bytes);
    let mut records = Vec::new();
    while let Some(record) = parser.next_frame().unwrap() {
        records.push(record);
    }
    assert_eq!(records.len(), 3 * layout.tiles());

    // Every record has the same length; a sync word precedes every
    // `SYNC_INTERVAL`-th one. Flip one payload byte of each erased
    // record so its payload CRC fails.
    let record_len = RESILIENT_RECORD_PREFIX_BYTES
        + (records[0].sample_count() * records[0].header.sample_bits as usize).div_ceil(8)
        + 1;
    let erased = [0, layout.tiles() + 1, layout.tiles() + 4];
    for &seq in &erased {
        let start = RESILIENT_TILED_HEADER_BYTES + 4 * (seq / SYNC_INTERVAL + 1) + seq * record_len;
        bytes[start + RESILIENT_RECORD_PREFIX_BYTES + 1] ^= 0xFF;
    }

    let tiles: Vec<Option<ImageF64>> = records
        .iter()
        .enumerate()
        .map(|(seq, record)| {
            (!erased.contains(&seq)).then(|| {
                let mut decoder = Decoder::for_frame(record).unwrap();
                decoder.params(params);
                decoder.reconstruct(record).unwrap().code_image().clone()
            })
        })
        .collect();
    let width = layout.frame().width();
    for policy in [ErasurePolicy::FlaggedZero, ErasurePolicy::NeighborBlend] {
        for threads in [1, 2] {
            let label = format!("{policy:?} threads {threads}");
            let mut dec = DecodeSession::new();
            dec.params(params).threads(threads).erasure_policy(policy);
            let mut frames = dec.push_bytes(&bytes).unwrap();
            frames.extend(dec.finish().unwrap());
            assert_eq!(frames.len(), 3, "{label}: every frame is emitted");
            let report = dec.report();
            assert_eq!(report.tiles_erased, erased.len(), "{label}");
            assert_eq!(report.frames_degraded, 2, "{label}");
            for (frame, group) in frames.iter().zip(tiles.chunks(layout.tiles())) {
                let missing = group.iter().filter(|t| t.is_none()).count();
                assert_eq!(frame.erased_tiles, missing, "{label} frame {}", frame.index);
                let stitched = naive_stitch(group, &layout);
                let want = match policy {
                    ErasurePolicy::NeighborBlend => diffuse(&stitched, width),
                    _ => stitched.iter().map(|v| v.unwrap_or(0.0)).collect(),
                };
                let worst = worst_deviation(frame, &want);
                assert!(
                    worst <= 1e-10,
                    "{label} frame {}: codes deviate by {worst:e}",
                    frame.index
                );
            }
        }
    }
}

/// Untiled sessions still speak version-1 streams byte for byte: the
/// tile extension is opt-in, and old receivers never see it.
#[test]
fn untiled_streams_remain_version_one() {
    let im = CompressiveImager::builder(16, 16)
        .ratio(0.35)
        .seed(9)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    let scene = Scene::gaussian_blobs(2).render(16, 16, 4);
    let bytes = stream_bytes(im, &scene);
    assert_eq!(bytes[4], STREAM_VERSION, "untiled streams stay v1");

    // And a v1 stream decodes through a session with no tile layout.
    let mut dec = DecodeSession::new();
    let decoded = dec.push_bytes(&bytes).unwrap();
    assert_eq!(decoded.len(), 1);
    assert!(dec.tile_layout().is_none());
}

/// Tiled streams carry the v2 marker and replay their layout on the
/// receiver without any out-of-band configuration.
#[test]
fn tiled_streams_replay_the_layout_from_the_header() {
    let scene = Scene::gaussian_blobs(2).render(40, 28, 8);
    let bytes = stream_bytes(tiled_imager(16, 4, 0x40), &scene);
    assert_eq!(bytes[4], STREAM_VERSION_TILED);
    let mut parser = StreamParser::new();
    parser.push_bytes(&bytes);
    while parser.next_frame().unwrap().is_some() {}
    let layout = parser.tile_layout().expect("layout decoded from header");
    assert_eq!((layout.frame().width(), layout.frame().height()), (40, 28));
    assert_eq!((layout.tile_width(), layout.tile_height()), (16, 16));
    assert_eq!(layout.overlap(), 4);
}

/// Hostile-input property: random corruption of a tiled stream must
/// yield `MalformedFrame` (or a clean parse of the unharmed prefix) —
/// never a panic, whatever bytes arrive.
#[test]
fn corrupted_tiled_headers_error_instead_of_panicking() {
    let scene = Scene::gaussian_blobs(2).render(40, 28, 1);
    let pristine = stream_bytes(tiled_imager(16, 4, 0xE7), &scene);
    let mut rng = SplitMix64::new(0xFADE);
    // Parser level: random byte smashes, biased toward the 30-byte v2
    // header, must never panic — only fail as MalformedFrame or parse a
    // consistent stream.
    for _ in 0..2000 {
        let mut bytes = pristine.clone();
        for _ in 0..(1 + rng.next_u64() % 3) {
            let target = if rng.next_bool() {
                (rng.next_u64() as usize) % 30.min(bytes.len())
            } else {
                (rng.next_u64() as usize) % bytes.len()
            };
            bytes[target] = rng.next_u64() as u8;
        }
        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes);
        while let Ok(Some(_)) = parser.next_frame() {}
    }
    // Session level (full decodes are expensive, so fewer rounds):
    // header-region corruption through the public byte entry point.
    for _ in 0..20 {
        let mut bytes = pristine.clone();
        let target = (rng.next_u64() as usize) % 30;
        bytes[target] = rng.next_u64() as u8;
        let mut dec = DecodeSession::new();
        // Any Ok/Err outcome is fine; panics fail the test.
        let _ = dec.push_bytes(&bytes);
    }
    // Truncation at every prefix of the header is equally panic-free.
    for len in 0..pristine.len().min(64) {
        let mut dec = DecodeSession::new();
        let _ = dec.push_bytes(&pristine[..len]);
    }
}

/// A byte-budgeted cache decodes a multi-geometry workload without ever
/// exceeding its budget, and the evicted-and-rebuilt decodes are
/// bit-identical to those of a default-budget cache that never evicted.
#[test]
fn bounded_cache_respects_budget_and_stays_bit_identical() {
    let scenes: Vec<(usize, ImageF64)> = [16usize, 32, 16, 32, 16, 32]
        .iter()
        .map(|&side| (side, Scene::gaussian_blobs(2).render(side, side, 7)))
        .collect();
    let streams: Vec<Vec<u8>> = scenes
        .iter()
        .map(|(side, scene)| {
            let im = CompressiveImager::builder(*side, *side)
                .ratio(0.35)
                .seed(0xCAFE)
                .fidelity(Fidelity::Functional)
                .build()
                .unwrap();
            stream_bytes(im, scene)
        })
        .collect();

    // Reference decodes, each geometry through its own default-budget
    // cache, which holds the full working set (no eviction) so it can be
    // measured.
    let mut working_sets = std::collections::BTreeMap::new();
    let reference: Vec<_> = streams
        .iter()
        .zip(&scenes)
        .map(|(bytes, (side, _))| {
            let cache = OperatorCache::shared();
            let mut dec = DecodeSession::with_cache(cache.clone());
            let decoded = dec.push_bytes(bytes).unwrap();
            assert_eq!(cache.stats().evictions, 0, "reference cache evicted");
            working_sets.insert(*side, cache.resident_bytes());
            decoded
        })
        .collect();

    // Budget fits either geometry's working set alone but not both, so
    // the 16 → 32 → 16 → … rotation must evict on every switch.
    let budget = working_sets.values().max().unwrap() + 1024;
    assert!(
        budget < working_sets.values().sum::<usize>(),
        "geometries too small to overflow the budget: {working_sets:?}"
    );
    let bounded = Arc::new(OperatorCache::with_budget(budget));
    for (bytes, expected) in streams.iter().zip(&reference) {
        let mut dec = DecodeSession::with_cache(bounded.clone());
        let decoded = dec.push_bytes(bytes).unwrap();
        assert_eq!(&decoded, expected, "bounded cache changed a decode");
        assert!(
            bounded.resident_bytes() <= budget,
            "resident {} exceeds budget {budget}",
            bounded.resident_bytes()
        );
    }
    assert!(
        bounded.stats().evictions > 0,
        "the rotating workload should overflow a {budget}-byte budget"
    );
}
