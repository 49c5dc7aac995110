//! (infrastructure) Tiled megapixel decode: stitched quality and
//! block-parallel core scaling.
//!
//! The tiled path splits a frame into fixed-size overlapping tiles,
//! captures one wire record per tile, and stitches the per-tile
//! reconstructions back into a full frame. Every tile shares one
//! geometry (the last tile in each axis is shifted back to the frame
//! edge), so a single `OperatorCache` entry serves the whole frame —
//! the decode cost is `tiles × warm-tile-solve`, which is what makes
//! megapixel-class frames tractable on the 64×64-native recovery stack.
//!
//! Two measurements, written to `BENCH_tiled.json`:
//!
//! * **Stitching quality** at 64×64: the stitched PSNR of a 32-px-tile
//!   decode (overlap 8, feather blend) against the per-tile reference
//!   (each tile scored against its own ideal codes) and against a
//!   monolithic single-frame decode of the same scene.
//! * **Core scaling** at 512×512 (tile 64, overlap 8, 81 tiles): warm
//!   stitched decodes at several thread counts — through the persistent
//!   decode pool — reporting tiles/sec and the speedup curve, with
//!   every run checked bit-identical to the single-thread decode. The
//!   JSON records the host's `available_parallelism`, and on a 1-core
//!   host the speedup column is suppressed (`null` / "n/a") rather
//!   than reporting a misleading flat curve.

use std::time::Instant;

use crate::report::{section, Table};
use tepics_core::prelude::*;
use tepics_imaging::tile::split_tiles;

/// Where the machine-readable numbers land (workspace root).
const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tiled.json");

/// Builds a tiled imager over `width`×`height` with square `tile`s.
fn tiled_imager(width: usize, height: usize, tile: usize, overlap: usize) -> CompressiveImager {
    CompressiveImager::builder_for(FrameGeometry::new(width, height))
        .tiling(TileConfig::new(tile).overlap(overlap))
        .ratio(0.35)
        .seed(0x7EDD)
        .fidelity(Fidelity::Functional)
        .build()
        .expect("tiled imager config")
}

/// Stitched vs per-tile vs monolithic PSNR at 64×64 (tile 32).
struct QualityNumbers {
    monolithic_db: f64,
    stitched_db: f64,
    per_tile_mean_db: f64,
}

fn measure_quality() -> QualityNumbers {
    let side = 64;
    let scene = Scene::natural_like().render(side, side, 21);

    // Monolithic reference: one full-frame record, one solve.
    let mono = CompressiveImager::builder(side, side)
        .ratio(0.35)
        .seed(0x7EDD)
        .fidelity(Fidelity::Functional)
        .build()
        .expect("monolithic imager config");
    // The two geometries are distinct cache keys: both decode cold.
    let cache = OperatorCache::shared();
    let params = RecoveryParams::default();
    let mono_report = evaluate(&cache, &mono, params, &scene).expect("monolithic evaluate");

    // Tiled: 3×3 grid of 32-px tiles at overlap 8, stitched.
    let imager = tiled_imager(side, side, 32, 8);
    let stitched_report = evaluate(&cache, &imager, params, &scene).expect("tiled evaluate");

    // Per-tile reference: each record decoded standalone and scored
    // against the ideal codes of its own tile. The per-tile squared
    // errors are pooled over all tile pixels before converting to dB —
    // a mean of per-tile dB values would overweight the easy tiles and
    // make the reference incomparable to the full-frame stitched PSNR.
    let layout = imager.tile_layout().expect("layout").clone();
    let tile_imager = imager.tile_imager().expect("tile imager");
    let mut enc = EncodeSession::new(imager.clone()).expect("tiled encode");
    let records = enc.capture(&scene).expect("tiled capture");
    let mut per_tile = DecodeSession::new();
    let code_max = ((1u32 << enc.header().code_bits) - 1) as f64;
    let tiles = split_tiles(&scene, &layout);
    let mut pooled_sq = 0.0;
    for (record, tile) in records.iter().zip(&tiles) {
        let decoded = per_tile.push_frame(record).expect("per-tile decode");
        let tile_scene =
            ImageF64::from_vec(layout.tile_width(), layout.tile_height(), tile.clone());
        let truth = tile_imager.ideal_codes(&tile_scene).to_code_f64();
        pooled_sq += mse(&truth, decoded.reconstruction.code_image());
    }
    let pooled_mse = pooled_sq / records.len() as f64;

    QualityNumbers {
        monolithic_db: mono_report.psnr_code_db,
        stitched_db: stitched_report.psnr_code_db,
        per_tile_mean_db: 10.0 * (code_max * code_max / pooled_mse).log10(),
    }
}

/// One point on the core-scaling curve.
struct ScalePoint {
    threads: usize,
    seconds: f64,
    tiles_per_sec: f64,
    identical: bool,
}

/// Warm stitched decodes of one `side`×`side` frame at each thread
/// count, all checked bit-identical to the single-thread result.
fn measure_scaling(side: usize, tile: usize, thread_counts: &[usize]) -> (Vec<ScalePoint>, usize) {
    let imager = tiled_imager(side, side, tile, 8);
    let tiles = imager.tile_layout().expect("layout").tiles();
    let scene = Scene::natural_like().render(side, side, 33);
    let mut enc = EncodeSession::new(imager).expect("scaling encode");
    enc.capture(&scene).expect("scaling capture");
    let bytes = enc.to_bytes();

    // Shared cache: one cold decode primes Φ/dictionary/step size, then
    // every timed run is warm — pure block-parallel solve cost.
    let cache = OperatorCache::shared();
    let decode = |threads: usize| {
        let mut dec = DecodeSession::with_cache(cache.clone());
        dec.threads(threads);
        dec.push_bytes(&bytes).expect("scaling decode")
    };
    let reference = decode(1);

    let mut points = Vec::new();
    for &threads in thread_counts {
        let t = Instant::now();
        let decoded = decode(threads);
        let seconds = t.elapsed().as_secs_f64();
        points.push(ScalePoint {
            threads,
            seconds,
            tiles_per_sec: tiles as f64 / seconds,
            identical: decoded == reference,
        });
    }
    (points, tiles)
}

/// Runs the experiment: 64×64 stitching quality + 512×512 core scaling,
/// updating `BENCH_tiled.json`.
pub fn run() -> String {
    let quality = measure_quality();
    let side = 512;
    let tile = 64;
    let thread_counts = [1, 2, 4];
    let (points, tiles) = measure_scaling(side, tile, &thread_counts);
    // Honesty guard: a speedup curve from a 1-core host is noise, not
    // scaling — record the host's parallelism and flag the column so
    // readers (and CI on small runners) don't mistake flat for broken.
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let speedup_meaningful = host_parallelism > 1;

    // Machine-readable trail.
    let mut json = String::from("{\n  \"schema\": 2,\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {host_parallelism}, \"speedup_meaningful\": {speedup_meaningful},\n"
    ));
    json.push_str(&format!(
        "  \"quality\": {{\"side\": 64, \"tile\": 32, \"overlap\": 8, \
         \"monolithic_db\": {:.3}, \"stitched_db\": {:.3}, \"per_tile_mean_db\": {:.3}, \
         \"stitch_delta_db\": {:.3}}},\n",
        quality.monolithic_db,
        quality.stitched_db,
        quality.per_tile_mean_db,
        quality.stitched_db - quality.per_tile_mean_db,
    ));
    json.push_str(&format!(
        "  \"scaling\": {{\"side\": {side}, \"tile\": {tile}, \"overlap\": 8, \"tiles\": {tiles}, \"points\": ["
    ));
    let base = points[0].seconds;
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        if speedup_meaningful {
            json.push_str(&format!(
                "{{\"threads\": {}, \"seconds\": {:.3}, \"tiles_per_sec\": {:.2}, \
                 \"speedup\": {:.2}, \"bit_identical\": {}}}",
                p.threads,
                p.seconds,
                p.tiles_per_sec,
                base / p.seconds,
                p.identical,
            ));
        } else {
            json.push_str(&format!(
                "{{\"threads\": {}, \"seconds\": {:.3}, \"tiles_per_sec\": {:.2}, \
                 \"speedup\": null, \"bit_identical\": {}}}",
                p.threads, p.seconds, p.tiles_per_sec, p.identical,
            ));
        }
    }
    json.push_str("]}\n}\n");
    let json_written = std::fs::write(JSON_PATH, &json).is_ok();

    let mut out = String::from("# Tiled decode — stitched quality and core scaling\n");
    out.push_str(&section("64×64, tile 32, overlap 8, feather blend"));
    let mut q = Table::new(&["decode path", "PSNR (dB)"]);
    q.row_owned(vec![
        "monolithic (one 64×64 solve)".into(),
        format!("{:.2}", quality.monolithic_db),
    ]);
    q.row_owned(vec![
        "per-tile reference (9 solo tiles)".into(),
        format!("{:.2}", quality.per_tile_mean_db),
    ]);
    q.row_owned(vec![
        "stitched (9 tiles, feathered)".into(),
        format!("{:.2}", quality.stitched_db),
    ]);
    out.push_str(&q.render());
    out.push_str(&format!(
        "\nstitch delta vs per-tile reference: {:+.2} dB (acceptance: no more than\n\
         0.5 dB below the reference; positive = feathered overlaps help)\n",
        quality.stitched_db - quality.per_tile_mean_db
    ));

    out.push_str(&section(&format!(
        "{side}×{side}, tile {tile}, overlap 8 — {tiles} tiles, warm decodes"
    )));
    let mut t = Table::new(&[
        "threads",
        "seconds",
        "tiles/sec",
        "speedup",
        "bit-identical",
    ]);
    for p in &points {
        t.row_owned(vec![
            p.threads.to_string(),
            format!("{:.2}", p.seconds),
            format!("{:.1}", p.tiles_per_sec),
            if speedup_meaningful {
                format!("{:.2}×", base / p.seconds)
            } else {
                "n/a (1 core)".into()
            },
            if p.identical {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    out.push_str(&t.render());
    if speedup_meaningful {
        out.push_str(&format!(
            "\n(host has {host_parallelism} cores; tiles are independent, so the\n\
             speedup curve tracks available cores)\n"
        ));
    } else {
        out.push_str(
            "\n(host has 1 core: the speedup column is suppressed — a flat curve\n\
             here measures scheduling overhead, not scaling)\n",
        );
    }
    out.push_str(&format!(
        "\n{} {JSON_PATH}\n",
        if json_written {
            "machine-readable numbers written to"
        } else {
            "WARNING: could not write"
        },
    ));
    out
}

/// Smoke-mode tiled check for CI: a 40×28 frame in 16-px tiles.
///
/// Exercises the full geometry-first path — non-square, non-multiple
/// frame dims, tiled wire records, stitched decode — and checks the
/// operator cache served every tile after the first from one entry,
/// plus bit-identity between serial and threaded decodes.
pub fn smoke() -> Result<String, Vec<String>> {
    let mut failures = Vec::new();
    let imager = tiled_imager(40, 28, 16, 4);
    let tiles = imager.tile_layout().expect("layout").tiles();
    let scene = Scene::gaussian_blobs(3).render(40, 28, 5);
    let truth = imager.ideal_codes(&scene).to_code_f64();

    let mut enc = EncodeSession::new(imager).expect("smoke tiled encode");
    enc.capture(&scene).expect("smoke tiled capture");
    let bytes = enc.to_bytes();

    let mut dec = DecodeSession::new();
    let decoded = dec.push_bytes(&bytes).expect("smoke tiled decode");
    if decoded.len() != 1 {
        failures.push(format!("tiled smoke: {} frames, expected 1", decoded.len()));
    }
    let stats = dec.cache().stats();
    if stats.misses != 1 || stats.hits != tiles as u64 - 1 {
        failures.push(format!(
            "tiled smoke: cache hits {} misses {}, expected {} / 1 — the shared tile \
             geometry should build Φ exactly once",
            stats.hits,
            stats.misses,
            tiles - 1,
        ));
    }
    let db = psnr(&truth, decoded[0].reconstruction.code_image(), 255.0);
    if db < 18.0 {
        failures.push(format!("tiled smoke: stitched PSNR {db:.1} dB < 18"));
    }

    let mut threaded = DecodeSession::new();
    threaded.threads(4);
    let parallel = threaded.push_bytes(&bytes).expect("smoke threaded decode");
    if parallel != decoded {
        failures.push("tiled smoke: threaded decode diverged from serial".into());
    }

    if failures.is_empty() {
        Ok(format!(
            "tiled smoke: 40×28 in {tiles} 16-px tiles, stitched {db:.1} dB, \
             1 Φ build + {} cache hits, threads(4) ≡ serial",
            tiles - 1
        ))
    } else {
        Err(failures)
    }
}
