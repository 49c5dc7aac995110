//! Golden behaviour table: one stable hash per codec configuration.
//!
//! Each row encodes a few seeded scenes, decodes the stream through a
//! configured `DecodeSession`, and hashes the wire bytes plus every
//! field of every `DecodedFrame` (index, key flag, erased tiles, the
//! code image's `f64` bits, `mean_code` bits, and the `SolveStats`),
//! then the `DecodeReport` counters that do not depend on how frames
//! are assembled. The last three rows pin the block-based CS baseline
//! (`BlockCs`): its block samples and its reconstruction's `f64` bits,
//! an `EventAccurate` capture: its samples and every `EventStats`
//! field, so the column-bus arbitration is pinned too, and a
//! `Functional` capture the same way, so the column-sum path is pinned
//! past 64 rows.
//! A refactor proves it kept behaviour bit for bit by leaving the table
//! unchanged.
//!
//! The hash is FNV-1a 64, written out below so it never changes with
//! the toolchain (`DefaultHasher` makes no such promise). When a row
//! differs, the test prints the whole computed table so an intended
//! behaviour change can be reviewed and pasted in as one edit.

use tepics::core::stream::{
    RESILIENT_HEADER_BYTES, RESILIENT_RECORD_PREFIX_BYTES, RESILIENT_TILED_HEADER_BYTES,
    SYNC_INTERVAL,
};
use tepics::core::FaultInjector;
use tepics::prelude::*;
use tepics::sensor::EventStats;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }
}

/// Hashes a stream and what one session decoded from it.
fn digest(wire: &[u8], frames: &[DecodedFrame], report: &DecodeReport) -> u64 {
    let mut h = Fnv::new();
    h.usize(wire.len());
    h.bytes(wire);
    h.usize(frames.len());
    for frame in frames {
        h.usize(frame.index);
        h.bool(frame.is_key);
        h.usize(frame.erased_tiles);
        let recon = &frame.reconstruction;
        let image = recon.code_image();
        h.usize(image.width());
        h.usize(image.height());
        for &v in image.as_slice() {
            h.f64(v);
        }
        h.f64(recon.mean_code());
        let stats = recon.stats();
        h.usize(stats.iterations);
        h.f64(stats.residual_norm);
        h.bool(stats.converged);
    }
    // Every counter except `tiles_recovered`, whose untiled value is
    // allowed to change with the assembly.
    for counter in [
        report.frames_recovered,
        report.frames_degraded,
        report.frames_lost,
        report.tiles_erased,
        report.corrupt_events,
        report.bytes_skipped,
        report.reanchors,
        report.stale_records,
    ] {
        h.usize(counter);
    }
    h.0
}

fn untiled_imager(seed: u64) -> CompressiveImager {
    CompressiveImager::builder(16, 16)
        .ratio(0.35)
        .seed(seed)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
}

/// 40×28 in 16-px tiles with a 4-px overlap: nine tiles per frame.
fn tiled_imager(seed: u64) -> CompressiveImager {
    CompressiveImager::builder_for(FrameGeometry::new(40, 28))
        .tiling(TileConfig::new(16).overlap(4))
        .ratio(0.35)
        .seed(seed)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
}

/// Captures `scenes` seeded scenes into one stream; returns the bytes
/// and the records of each capture.
fn encode(
    imager: CompressiveImager,
    profile: WireProfile,
    scenes: u64,
    scene_seed: u64,
) -> (Vec<u8>, Vec<Vec<CompressedFrame>>) {
    let geometry = imager.geometry();
    let (w, h) = (geometry.width(), geometry.height());
    let mut enc = EncodeSession::with_profile(imager, profile).unwrap();
    let captures = (0..scenes)
        .map(|i| {
            let scene = Scene::gaussian_blobs(3).render(w, h, scene_seed + i);
            enc.capture(&scene).unwrap()
        })
        .collect();
    (enc.into_bytes(), captures)
}

/// Decodes `wire` in one push plus `finish` on a session `configure`d
/// first, and hashes the result.
fn decode_digest(wire: &[u8], configure: impl FnOnce(&mut DecodeSession)) -> u64 {
    let mut dec = DecodeSession::new();
    configure(&mut dec);
    let mut frames = dec.push_bytes(wire).unwrap();
    frames.extend(dec.finish().unwrap());
    digest(wire, &frames, &dec.report())
}

/// Every algorithm, FISTA with and without debias.
fn solver_kinds() -> Vec<SolverKind> {
    let mut kinds = Vec::new();
    for debias in [true, false] {
        kinds.push(SolverKind::Fista {
            lambda_ratio: 0.02,
            max_iter: 120,
            debias,
        });
    }
    kinds.push(SolverKind::Iht { sparsity: 20 });
    kinds.push(SolverKind::Omp { atoms: 30 });
    kinds.push(SolverKind::CoSamp { sparsity: 20 });
    kinds.push(SolverKind::Cgls { max_iter: 50 });
    kinds
}

fn profile_name(profile: WireProfile) -> &'static str {
    match profile {
        WireProfile::Compact => "compact",
        WireProfile::Resilient => "resilient",
    }
}

/// Computes every row of the table, in a fixed order.
fn compute_table() -> Vec<(String, u64)> {
    let mut rows = Vec::new();

    // Every solver × every dictionary, 16×16 compact untiled.
    let (wire, _) = encode(untiled_imager(0x601D), WireProfile::Compact, 2, 10);
    for kind in solver_kinds() {
        for dict in [
            DictionaryKind::Dct2d,
            DictionaryKind::Haar2d,
            DictionaryKind::Identity,
        ] {
            let name = format!("solver/{}/debias={}/{dict:?}", kind.name(), kind.debias());
            rows.push((
                name,
                decode_digest(&wire, |d| {
                    d.params(RecoveryParams {
                        solver: kind,
                        dictionary: dict,
                    });
                }),
            ));
        }
    }

    // Wire profile × tiling × threads.
    for profile in [WireProfile::Compact, WireProfile::Resilient] {
        for tiled in [false, true] {
            let imager = if tiled {
                tiled_imager(0x7113)
            } else {
                untiled_imager(0x7113)
            };
            let (wire, _) = encode(imager, profile, 3, 20);
            for threads in [1, 2] {
                let layout = if tiled { "tiled40x28" } else { "untiled16" };
                let name = format!(
                    "stream/{}/{layout}/threads={threads}",
                    profile_name(profile)
                );
                rows.push((
                    name,
                    decode_digest(&wire, |d| {
                        d.threads(threads);
                    }),
                ));
            }
        }
    }

    // A damaged resilient tiled stream under every erasure policy.
    let (mut wire, _) = encode(tiled_imager(0xE2A5), WireProfile::Resilient, 3, 30);
    let flipped =
        FaultInjector::new(11).flip_bits_after(&mut wire, RESILIENT_TILED_HEADER_BYTES, 0.0005);
    assert!(flipped > 0, "the fault injector must damage the wire");
    for policy in [
        ErasurePolicy::Strict,
        ErasurePolicy::FlaggedZero,
        ErasurePolicy::NeighborBlend,
    ] {
        let mut dec = DecodeSession::new();
        dec.erasure_policy(policy);
        let mut frames = dec.push_bytes(&wire).unwrap();
        frames.extend(dec.finish().unwrap());
        let report = dec.report();
        let erased = report.tiles_erased + report.frames_lost;
        assert!(erased > 0, "{policy:?}: the damage must erase a tile");
        rows.push((
            format!("erasure/{policy:?}"),
            digest(&wire, &frames, &report),
        ));
    }

    // Delta mode on a compact stream.
    let (wire, _) = encode(untiled_imager(0xDE17), WireProfile::Compact, 5, 40);
    rows.push((
        "delta/compact".into(),
        decode_digest(&wire, |d| {
            d.delta_mode(30, 3);
        }),
    ));

    // Delta mode on a resilient stream with record 2 cut out: the frame
    // after the gap re-anchors.
    let (wire, captures) = encode(untiled_imager(0xDE17), WireProfile::Resilient, 5, 40);
    let record = &captures[0][0];
    let rec_len = RESILIENT_RECORD_PREFIX_BYTES
        + (record.sample_count() * record.header.sample_bits as usize).div_ceil(8)
        + 1;
    let start = RESILIENT_HEADER_BYTES + 4 * (2 / SYNC_INTERVAL + 1) + 2 * rec_len;
    let mut gapped = wire.clone();
    gapped.drain(start..start + rec_len);
    let mut dec = DecodeSession::new();
    dec.delta_mode(30, 0);
    let mut frames = dec.push_bytes(&gapped).unwrap();
    frames.extend(dec.finish().unwrap());
    assert_eq!(dec.report().reanchors, 1, "the cut must force a re-anchor");
    rows.push((
        "delta/resilient-reanchor".into(),
        digest(&gapped, &frames, &dec.report()),
    ));

    // Delta mode on a resilient stream of eight frames whose first
    // record is cut and whose record 3 fails its payload CRC: the
    // stream opens on a re-anchor, re-anchors again mid-stream, and the
    // key-frame cadence restarts from each re-anchor.
    let (mut damaged, captures) = encode(untiled_imager(0xDA3A), WireProfile::Resilient, 8, 50);
    let record = &captures[0][0];
    let rec_len = RESILIENT_RECORD_PREFIX_BYTES
        + (record.sample_count() * record.header.sample_bits as usize).div_ceil(8)
        + 1;
    let span = |i: usize| RESILIENT_HEADER_BYTES + 4 * (i / SYNC_INTERVAL + 1) + i * rec_len;
    damaged[span(3) + RESILIENT_RECORD_PREFIX_BYTES + 1] ^= 0x5A;
    damaged.drain(span(0)..span(0) + rec_len);
    let mut dec = DecodeSession::new();
    dec.delta_mode(30, 2);
    let mut frames = dec.push_bytes(&damaged).unwrap();
    frames.extend(dec.finish().unwrap());
    let keys: Vec<(usize, bool)> = frames.iter().map(|f| (f.index, f.is_key)).collect();
    assert_eq!(
        keys,
        [
            (1, true),
            (2, false),
            (4, true),
            (5, false),
            (6, false),
            (7, true)
        ],
        "the damage must re-anchor twice and the cadence restart"
    );
    assert_eq!((dec.report().reanchors, dec.report().frames_lost), (2, 2));
    rows.push((
        "delta/resilient-damaged".into(),
        digest(&damaged, &frames, &dec.report()),
    ));

    rows.push(("baseline/block8/32x32".into(), block_baseline_digest()));
    rows.push((
        "capture/event-accurate/32x32".into(),
        event_capture_digest(),
    ));
    rows.push((
        "capture/functional/40x75".into(),
        functional_capture_digest(),
    ));

    rows
}

/// The block-based CS baseline (`BlockCs`, 8-px blocks) on 32×32 ideal
/// code images at a generous and a starved ratio: hashes every block
/// sample and the reconstruction's `f64` bits.
fn block_baseline_digest() -> u64 {
    let imager = CompressiveImager::builder(32, 32)
        .ratio(0.35)
        .seed(0xB10C)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    let mut h = Fnv::new();
    for ratio in [0.25, 0.06] {
        let bcs = BlockCs::new(32, 32, 8, ratio, 0xB10C).unwrap();
        for scene in [Scene::natural_like(), Scene::gaussian_blobs(3)] {
            let codes = imager.ideal_codes(&scene.render(32, 32, 50));
            let frame = bcs.capture_codes(&codes);
            h.usize(frame.k_per_block);
            h.usize(frame.samples.len());
            for &s in &frame.samples {
                h.u64(u64::from(s));
            }
            let recon = bcs.reconstruct(&frame).unwrap();
            for &v in recon.as_slice() {
                h.f64(v);
            }
        }
    }
    h.0
}

/// Two seeded `EventAccurate` captures at the default event timing
/// (5 ns events, 1 ns release), where pixels contend for their column
/// bus: hashes every sample and every `EventStats` field, `max_delay`
/// by its bits and the whole `code_error_lsb` histogram.
fn event_capture_digest() -> u64 {
    let imager = CompressiveImager::builder(32, 32)
        .ratio(0.4)
        .seed(0xE7E7)
        .fidelity(Fidelity::EventAccurate)
        .build()
        .unwrap();
    let mut h = Fnv::new();
    for scene in [Scene::natural_like(), Scene::Uniform(0.45)] {
        let (frame, stats) = imager.capture_with_stats(&scene.render(32, 32, 60));
        assert!(stats.queued_pulses > 0, "the capture must contend");
        hash_capture(&mut h, &frame, &stats);
    }
    h.0
}

/// An untiled `Functional` capture of a 40-wide, 75-high array (more
/// than 64 rows, a multiple of neither 6 nor 8, so the column-sum
/// capture's last row group is short) with fixed-pattern noise on and a
/// 6-bit window that the scene's dark side overruns: hashes every
/// sample and every `EventStats` field.
fn functional_capture_digest() -> u64 {
    let (rows, cols) = (75, 40);
    let imager = CompressiveImager::builder(rows, cols)
        .ratio(0.3)
        .seed(0xF00D)
        .fidelity(Fidelity::Functional)
        .sensor_config(
            SensorConfig::builder(rows, cols)
                .counter_bits(6)
                .offset_sigma_volts(4e-3)
                .fpn_gain_sigma(0.03)
                .noise_seed(0xF9A)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let scene = Scene::LinearGradient { angle: 0.4 }.render(cols, rows, 70);
    let (frame, stats) = imager.capture_with_stats(&scene);
    assert!(
        0 < stats.missed_pulses && stats.missed_pulses < stats.total_pulses,
        "some pulses, not all, must miss the window"
    );
    let mut h = Fnv::new();
    hash_capture(&mut h, &frame, &stats);
    h.0
}

/// Hashes a capture's samples and every `EventStats` field, `max_delay`
/// by its bits and the whole `code_error_lsb` histogram.
fn hash_capture(h: &mut Fnv, frame: &CompressedFrame, stats: &EventStats) {
    h.usize(frame.samples.len());
    for &s in &frame.samples {
        h.u64(u64::from(s));
    }
    for count in [
        stats.total_pulses,
        stats.queued_pulses,
        stats.missed_pulses,
        stats.column_overflows,
        stats.sample_overflows,
    ] {
        h.u64(count);
    }
    h.f64(stats.max_delay);
    h.usize(stats.code_error_lsb.len());
    for &bin in &stats.code_error_lsb {
        h.u64(bin);
    }
}

/// The recorded behaviour, one `(config, hash)` row per configuration.
const GOLDEN: &[(&str, u64)] = &[
    ("solver/fista/debias=true/Dct2d", 0x1d70b2e1f11f2a36),
    ("solver/fista/debias=true/Haar2d", 0xb3e35f3c0d59d015),
    ("solver/fista/debias=true/Identity", 0xd64077773068cdec),
    ("solver/fista/debias=false/Dct2d", 0xd7fbb36e1a9e66a6),
    ("solver/fista/debias=false/Haar2d", 0x531b75e5dc151179),
    ("solver/fista/debias=false/Identity", 0x7edfab1698e6d702),
    ("solver/iht/debias=false/Dct2d", 0xbb8a8757cf75046f),
    ("solver/iht/debias=false/Haar2d", 0x381bf5fea30242d4),
    ("solver/iht/debias=false/Identity", 0x1f2fe6715f4488d0),
    ("solver/omp/debias=false/Dct2d", 0xd42c6d7e6e34604d),
    ("solver/omp/debias=false/Haar2d", 0x9368d128d7cf202e),
    ("solver/omp/debias=false/Identity", 0x454fb00bc249bf03),
    ("solver/cosamp/debias=false/Dct2d", 0x70be48dd6dfc2b23),
    ("solver/cosamp/debias=false/Haar2d", 0xe1dfe7b9382198b0),
    ("solver/cosamp/debias=false/Identity", 0xd921e06458764c99),
    ("solver/cgls/debias=false/Dct2d", 0xf6d2c320c4b0868e),
    ("solver/cgls/debias=false/Haar2d", 0x05eae8ac5357c725),
    ("solver/cgls/debias=false/Identity", 0xa7edcc3b404ba241),
    ("stream/compact/untiled16/threads=1", 0xefd1a7ad3754e26a),
    ("stream/compact/untiled16/threads=2", 0xefd1a7ad3754e26a),
    ("stream/compact/tiled40x28/threads=1", 0x571f4bdf616ec205),
    ("stream/compact/tiled40x28/threads=2", 0x571f4bdf616ec205),
    ("stream/resilient/untiled16/threads=1", 0x8fbb77f62f124745),
    ("stream/resilient/untiled16/threads=2", 0x8fbb77f62f124745),
    ("stream/resilient/tiled40x28/threads=1", 0xb024b3996a2cb83e),
    ("stream/resilient/tiled40x28/threads=2", 0xb024b3996a2cb83e),
    ("erasure/Strict", 0x183acc4d473156cf),
    ("erasure/FlaggedZero", 0x6d4ae29925d03e21),
    ("erasure/NeighborBlend", 0x2dbebadb18d0d1b5),
    ("delta/compact", 0xc5e62a7317395643),
    ("delta/resilient-reanchor", 0xc34da1193c288b76),
    ("delta/resilient-damaged", 0x8fe9a8f49f631a4e),
    ("baseline/block8/32x32", 0x0bb50500acc01185),
    ("capture/event-accurate/32x32", 0xc14aae5613b8f9b2),
    ("capture/functional/40x75", 0xeb2792d8cea37c4f),
];

#[test]
fn decoded_streams_match_the_golden_table() {
    let table = compute_table();
    let rendered: String = table
        .iter()
        .map(|(name, hash)| format!("    (\"{name}\", 0x{hash:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|&(name, hash)| (name.to_string(), hash))
        .collect();
    assert!(
        table == expected,
        "golden table differs; computed table:\n{rendered}"
    );
}
