//! (infrastructure) Tiled decode: stitched quality.
//!
//! The tiled path splits a frame into fixed-size overlapping tiles,
//! captures one wire record per tile, and stitches the per-tile
//! reconstructions back into a full frame. Every tile shares one
//! geometry (the last tile in each axis is shifted back to the frame
//! edge), so a single `OperatorCache` entry serves the whole frame —
//! the decode cost is `tiles × warm-tile-solve`, which is what makes
//! megapixel-class frames tractable on the 64×64-native recovery stack.
//!
//! This experiment measures **stitching quality** at 64×64: the
//! stitched PSNR of a 32-px-tile decode (overlap 8, feather blend)
//! against the per-tile reference (each tile scored against its own
//! ideal codes) and against a monolithic single-frame decode of the
//! same scene. Tiled decode speed is measured end to end by
//! `codecbench` (`BENCHMARK.json`, workload `tiled256_lossy`).

use crate::report::{section, Table};
use tepics_core::prelude::*;
use tepics_imaging::tile::split_tiles;

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
    let imager = CompressiveImager::builder_for(FrameGeometry::new(side, side))
        .tiling(TileConfig::new(32).overlap(8))
        .ratio(0.35)
        .seed(0x7EDD)
        .fidelity(Fidelity::Functional)
        .build()
        .expect("tiled imager config");
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

/// Runs the experiment: 64×64 stitching quality.
pub fn run() -> String {
    let quality = measure_quality();
    let mut out = String::from("# Tiled decode — stitched quality\n");
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
    out
}
