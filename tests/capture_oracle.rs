//! Capture oracle: the per-column-sum functional capture against the
//! per-pulse loop it replaced, plus a seeded sweep of imager builder
//! configurations through `EncodeSession::capture`.
//!
//! The jitter-free functional readout sums code rows per column instead
//! of visiting pulses. [`per_pulse_capture`] keeps the old loop as the
//! reference: every selected pixel of every sample is converted and
//! added one pulse at a time. Samples and every `EventStats` field must
//! agree exactly.

use std::panic::{self, AssertUnwindSafe};
use std::thread;

use tepics::ca::{BitPatternSource, CaSource, ElementaryRule};
use tepics::core::CoreError;
use tepics::imaging::tile::split_tiles;
use tepics::prelude::*;
use tepics::sensor::comparator::Comparator;
use tepics::sensor::noise::NoiseModel;
use tepics::sensor::tdc::{Conversion, GlobalCounter, SampleAdd};
use tepics::sensor::{CapturedFrame, CodeTransfer, EventStats, FrameReadout};
use tepics::util::{BitVec, SplitMix64};

/// Base flip time of pixel `(row, col)`: fixed-pattern noise, no jitter.
fn base_flip_time(
    config: &SensorConfig,
    noise: &NoiseModel,
    scene: &ImageF64,
    row: usize,
    col: usize,
) -> f64 {
    let e = scene.get(col, row);
    match config.transfer() {
        CodeTransfer::Reciprocal => {
            let comparator = Comparator::new(noise.offset(row, col));
            comparator.flip_time(config, e * noise.gain(row, col), 0.0)
        }
        CodeTransfer::Linearized => {
            let code = (e.clamp(0.0, 1.0) * config.code_max() as f64).round();
            config.initial_delay() + (code + 0.5) * config.t_clk()
        }
    }
}

/// The functional readout one pulse at a time: for each sample and
/// column, collect the pixels whose row bit differs from the column
/// bit, convert each flip time, and add it to the column's Sample & Add.
fn per_pulse_capture(
    config: &SensorConfig,
    scene: &ImageF64,
    patterns: &[BitVec],
) -> CapturedFrame {
    let (m, n) = (config.rows(), config.cols());
    let noise = NoiseModel::new(config);
    let counter = GlobalCounter::new(config);
    let mut sample_add = SampleAdd::for_config(config);
    let mut stats = EventStats::default();
    let mut samples = Vec::with_capacity(patterns.len());
    let base: Vec<f64> = (0..m * n)
        .map(|px| base_flip_time(config, &noise, scene, px / n, px % n))
        .collect();
    let jitter_free = config.jitter_sigma() == 0.0;
    let mut column_pulses: Vec<(usize, f64)> = Vec::with_capacity(m);
    for (sample_idx, pattern) in patterns.iter().enumerate() {
        for col in 0..n {
            let col_selected = pattern.get(m + col);
            column_pulses.clear();
            for row in 0..m {
                if pattern.get(row) != col_selected {
                    let mut t = base[row * n + col];
                    if !jitter_free {
                        t = (t + noise.jitter(row, col, sample_idx)).max(0.0);
                    }
                    column_pulses.push((row, t));
                }
            }
            stats.total_pulses += column_pulses.len() as u64;
            for &(_, t) in &column_pulses {
                let conv = counter.convert(t);
                if conv == Conversion::Missed {
                    stats.missed_pulses += 1;
                }
                sample_add.add(col, conv);
            }
        }
        let word = sample_add.finish();
        if word.column_overflow {
            stats.column_overflows += 1;
        }
        if word.sample_overflow {
            stats.sample_overflows += 1;
        }
        samples.push(word.value as u32);
    }
    CapturedFrame { samples, stats }
}

fn rule30(config: &SensorConfig, seed: u64) -> CaSource {
    CaSource::new(
        config.rows() + config.cols(),
        seed,
        ElementaryRule::RULE_30,
        2 * (config.rows() + config.cols()),
        1,
    )
}

fn draw(source: &mut dyn BitPatternSource, k: usize) -> Vec<BitVec> {
    (0..k).map(|_| source.next_pattern()).collect()
}

/// The functional capture equals the per-pulse loop on every geometry,
/// scene and transfer of the sweep, with fixed-pattern noise on, and in
/// the dark case with pulses that miss the 6-bit window. The geometries
/// cover one-row and one-column arrays, every remainder of the row
/// groups the capture tabulates, row bits in one, two and three `u64`
/// words, and column bits in one and two.
#[test]
fn column_sums_match_the_per_pulse_loop() {
    let geometries = [
        (8, 8),
        (16, 24),
        (24, 16),
        (31, 17),
        (32, 32),
        (40, 40),
        (17, 70),
        (70, 17),
        (64, 64),
        (1, 40),
        (40, 1),
        (63, 9),
        (65, 9),
        (129, 5),
    ];
    let transfers = [CodeTransfer::Reciprocal, CodeTransfer::Linearized];
    let mut rng = SplitMix64::new(0xC0FFEE);
    let mut missed = 0;
    for &(rows, cols) in &geometries {
        for transfer in transfers {
            let scenes = [
                ("uniform", Scene::Uniform(0.5), 8),
                ("natural", Scene::natural_like(), 8),
                ("gradient", Scene::LinearGradient { angle: 0.7 }, 8),
                ("dark", Scene::Uniform(0.02), 6),
            ];
            for (name, scene, bits) in scenes {
                let config = SensorConfig::builder(rows, cols)
                    .transfer(transfer)
                    .counter_bits(bits)
                    .offset_sigma_volts(4e-3)
                    .fpn_gain_sigma(0.03)
                    .noise_seed(rng.next_u64())
                    .build()
                    .unwrap();
                let image = scene.render(cols, rows, rng.next_u64());
                let readout = FrameReadout::new(config.clone(), Fidelity::Functional);
                let seed = rng.next_u64();
                let k = (rows * cols / 4).max(1);
                let patterns = draw(&mut rule30(&config, seed), k);
                let expected = per_pulse_capture(&config, &image, &patterns);
                let case = format!("{rows}×{cols} {transfer:?} {name}");
                assert_eq!(
                    readout.capture_patterns(&image, &patterns),
                    expected,
                    "{case}"
                );
                assert_eq!(
                    readout.capture(&image, &mut rule30(&config, seed), k),
                    expected,
                    "{case}: capture from a source"
                );
                missed += expected.stats.missed_pulses;
            }
        }
    }
    assert!(missed > 0, "the dark scenes must miss pulses");
}

/// A tiled capture equals standalone captures of each tile through a
/// fresh pattern source, with and without overlap and with tiles that
/// do not divide the frame; the merged statistics are the tiles' sum.
#[test]
fn tiled_capture_equals_standalone_tile_captures() {
    for (width, height, tile, overlap) in [(40, 28, 16, 0), (40, 28, 16, 4), (37, 23, 12, 4)] {
        let imager = CompressiveImager::builder_for(FrameGeometry::new(width, height))
            .tiling(TileConfig::new(tile).overlap(overlap))
            .ratio(0.3)
            .seed(0x5EED + overlap as u64)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let scene = Scene::natural_like().render(width, height, 3);
        let (frames, stats) = imager.capture_tiles_with_stats(&scene);
        let layout = imager.tile_layout().unwrap();
        let tile_imager = imager.tile_imager().unwrap();
        let config = tile_imager.sensor_config();
        let readout = FrameReadout::new(config.clone(), Fidelity::Functional);
        let header = imager.frame_header();
        let mut merged = EventStats::default();
        let tiles = split_tiles(&scene, layout);
        assert_eq!(frames.len(), tiles.len());
        for (i, (frame, tile_pixels)) in frames.iter().zip(tiles).enumerate() {
            let tile_image =
                ImageF64::from_vec(layout.tile_width(), layout.tile_height(), tile_pixels);
            let mut source = header
                .strategy
                .build_source(config.rows() + config.cols(), header.seed)
                .unwrap();
            let standalone = readout.capture(&tile_image, source.as_mut(), frame.sample_count());
            assert_eq!(
                frame.samples, standalone.samples,
                "{width}×{height} tile {tile} overlap {overlap}: tile {i}"
            );
            merged.merge(&standalone.stats);
        }
        assert_eq!(stats, merged, "{width}×{height} overlap {overlap}");
    }
}

/// One fuzzed builder configuration.
#[derive(Debug)]
struct FuzzCase {
    rows: usize,
    cols: usize,
    tiling: Option<(usize, usize)>,
    ratio: f64,
    strategy: StrategyKind,
    fidelity: Fidelity,
    jitter: bool,
    seed: u64,
}

impl FuzzCase {
    fn draw(rng: &mut SplitMix64) -> FuzzCase {
        let pick = |rng: &mut SplitMix64, n: usize| rng.next_below(n as u64) as usize;
        let fidelity = if pick(rng, 4) == 0 {
            Fidelity::EventAccurate
        } else {
            Fidelity::Functional
        };
        // The event-accurate arbiter is slow; keep its frames small.
        let side = if fidelity == Fidelity::EventAccurate {
            12
        } else {
            40
        };
        let rows = 1 + pick(rng, side);
        let cols = 1 + pick(rng, side);
        let tiling = match pick(rng, 6) {
            0 | 1 => None,
            2 => {
                // Overlap one less than the tile: the densest layout.
                let tile = 2 + pick(rng, 10);
                Some((tile, tile - 1))
            }
            3 => Some((rows.max(cols), 0)), // one tile as large as the frame
            _ => {
                let tile = 1 + pick(rng, 16);
                Some((tile, pick(rng, tile)))
            }
        };
        let ratio = match pick(rng, 4) {
            0 => 1e-3 * (1 + pick(rng, 9)) as f64,
            1 => 1.0 - 1e-3 * pick(rng, 10) as f64,
            2 => [0.0, 1.0 + 1e-9, -0.5][pick(rng, 3)], // rejected by build
            _ => 0.05 + 0.9 * rng.next_f64(),
        };
        let strategy = match pick(rng, 5) {
            0 => StrategyKind::default_for(rows, cols),
            1 => StrategyKind::CellularAutomaton {
                rule: [30, 45, 90, 110][pick(rng, 4)],
                warmup: pick(rng, 100) as u16,
                steps_per_sample: pick(rng, 4) as u8, // 0 is rejected
            },
            2 => StrategyKind::Lfsr {
                width: pick(rng, 36) as u8, // outside 2..=32 is rejected
            },
            3 => StrategyKind::Hadamard,
            _ => StrategyKind::Bernoulli,
        };
        FuzzCase {
            rows,
            cols,
            tiling,
            ratio,
            strategy,
            fidelity,
            // Explicit sensor configs are untiled only.
            jitter: tiling.is_none() && pick(rng, 2) == 0,
            seed: rng.next_u64(),
        }
    }

    fn build(&self) -> Result<CompressiveImager, CoreError> {
        let mut builder = CompressiveImager::builder(self.rows, self.cols);
        builder
            .ratio(self.ratio)
            .strategy(self.strategy)
            .fidelity(self.fidelity)
            .seed(self.seed);
        if let Some((tile, overlap)) = self.tiling {
            builder.tiling(TileConfig::new(tile).overlap(overlap));
        }
        if self.jitter {
            builder.sensor_config(
                SensorConfig::builder(self.rows, self.cols)
                    .jitter_sigma(15e-9)
                    .noise_seed(self.seed)
                    .build()
                    .unwrap(),
            );
        }
        builder.build()
    }
}

/// The records an imager must capture, per tile, by the per-pulse loop
/// over a fresh pattern source; `None` if the imager's readout is not
/// the jitter-free functional one.
fn oracle_records(imager: &CompressiveImager, scene: &ImageF64) -> Option<Vec<Vec<u32>>> {
    let single = imager.tile_imager().unwrap_or(imager);
    let config = single.sensor_config();
    if config.jitter_sigma() != 0.0 {
        return None;
    }
    let header = imager.frame_header();
    let mut source = header
        .strategy
        .build_source(config.rows() + config.cols(), header.seed)
        .unwrap();
    let patterns = draw(source.as_mut(), imager.sample_count());
    let tiles = match imager.tile_layout() {
        Some(layout) => split_tiles(scene, layout)
            .into_iter()
            .map(|t| ImageF64::from_vec(layout.tile_width(), layout.tile_height(), t))
            .collect(),
        None => vec![scene.clone()],
    };
    Some(
        tiles
            .iter()
            .map(|tile| per_pulse_capture(config, tile, &patterns).samples)
            .collect(),
    )
}

/// What one fuzzed configuration exercised.
#[derive(Debug, Default)]
struct FuzzTally {
    rejected: usize,
    tiled: usize,
    event_accurate: usize,
    jittered: usize,
    oracle: usize,
}

fn run_case(case: &FuzzCase, tally: &mut FuzzTally) {
    let imager = match case.build() {
        Ok(imager) => imager,
        Err(CoreError::InvalidConfig(_)) => {
            tally.rejected += 1;
            return;
        }
        Err(e) => panic!("build must fail only with InvalidConfig, got {e:?}"),
    };
    let scene = Scene::natural_like().render(case.cols, case.rows, case.seed);
    let mut enc = EncodeSession::new(imager.clone()).unwrap();
    let first = enc.capture(&scene).unwrap();
    assert_eq!(enc.capture(&scene).unwrap(), first, "capturing twice");
    let clone = imager.clone();
    let scene_copy = scene.clone();
    let threaded = thread::spawn(move || {
        EncodeSession::new(clone)
            .unwrap()
            .capture(&scene_copy)
            .unwrap()
    })
    .join()
    .unwrap();
    assert_eq!(threaded, first, "a clone on another thread");
    tally.tiled += usize::from(imager.is_tiled());
    tally.jittered += usize::from(case.jitter);
    if case.fidelity == Fidelity::EventAccurate {
        tally.event_accurate += 1;
    } else if let Some(expected) = oracle_records(&imager, &scene) {
        let samples: Vec<Vec<u32>> = first.into_iter().map(|f| f.samples).collect();
        assert_eq!(samples, expected, "the per-pulse oracle");
        tally.oracle += 1;
    }
}

/// Seeded builder-config fuzz through `EncodeSession::capture`: odd
/// geometries, tile/overlap edge cases, ratios near 0 and 1, every
/// strategy, both fidelities, jitter on and off. Each configuration
/// either builds or fails with `InvalidConfig`; a built one captures
/// the same records twice and on a clone in another thread, and the
/// jitter-free functional ones match the per-pulse oracle.
#[test]
fn fuzzed_imager_configs_capture_deterministically() {
    let mut rng = SplitMix64::new(0xF0220);
    let mut tally = FuzzTally::default();
    for round in 0..160 {
        let case = FuzzCase::draw(&mut rng);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_case(&case, &mut tally)));
        if let Err(payload) = outcome {
            eprintln!("fuzz round {round} failed: {case:?}");
            panic::resume_unwind(payload);
        }
    }
    // The sweep must reach every branch it claims to cover.
    assert!(
        tally.rejected >= 10
            && tally.tiled >= 20
            && tally.event_accurate >= 10
            && tally.jittered >= 10
            && tally.oracle >= 30,
        "{tally:?}"
    );
}
