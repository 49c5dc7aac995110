//! Seeded decoder-config fuzz: the decoder half of the config fuzz that
//! `capture_oracle.rs` runs for the encoder.
//!
//! The OMP sweep draws an imager and an OMP decode configuration — odd
//! and non-power-of-two geometries (where the generic column path
//! runs), occasional tiling, ratios near 0 and 1, the DCT, Haar and
//! identity dictionaries, atom budgets at or beyond the sample count,
//! all-zero scenes, and tile sample counts on both sides of the 40 rows
//! at which OMP starts holding measurements out. No decode may report
//! more atoms than its budget allows. The second sweep gives every other solver, with and
//! without debias where it has one, the geometries that pick the DCT's
//! paths: power-of-two tiles (the transposed Lee row pass),
//! non-power-of-two ones (the basis-matrix path) and 64-wide ones (two
//! fused row blocks). Both drive two captures through `EncodeSession` →
//! bytes → `DecodeSession`. Every built configuration must decode
//! without panicking to finite codes, identically at threads(1) and
//! threads(2), and identically cold (a fresh cache) and warm (a cache,
//! and its Gram stores and norms, filled by an earlier decode of the
//! same bytes).
//!
//! The delta-mode sweep draws `delta_mode(sparsity, keyframe_interval)`
//! sessions: intervals 0, 1 and larger, one to six frames of static,
//! sparsely changing or wholly new scenes, on compact and resilient
//! wires, some damaged past their header by a [`FaultInjector`]. A
//! share of its cases is tiled: frames of 17 to 36 px in 16-px tiles,
//! decoded at threads 1 or 2, where every tile slot keeps a delta
//! chain of its own. Each stream decodes in one shot and again
//! re-chunked (a tiled case at the other thread count), cold and warm;
//! the frames, the sticky error and the report must agree bit for
//! bit.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use tepics::core::stream::{RESILIENT_HEADER_BYTES, STREAM_HEADER_BYTES};
use tepics::core::{CoreError, FaultInjector};
use tepics::prelude::*;
use tepics::util::SplitMix64;

/// One fuzzed configuration.
#[derive(Debug, Clone)]
struct Case {
    rows: usize,
    cols: usize,
    tiling: Option<(usize, usize)>,
    ratio: f64,
    dictionary: DictionaryKind,
    /// Atom budget; `None` = a budget at or beyond the sample count.
    atoms: Option<usize>,
    zero_scene: bool,
    seed: u64,
}

fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

impl Case {
    fn draw(rng: &mut SplitMix64) -> Case {
        let side = |rng: &mut SplitMix64| match pick(rng, 4) {
            0 => [8, 16][pick(rng, 2)],
            _ => 2 + pick(rng, 19),
        };
        let (rows, cols) = (side(rng), side(rng));
        let tiling = (pick(rng, 5) == 0).then(|| {
            let tile = 4 + pick(rng, 9);
            (tile, pick(rng, tile / 2))
        });
        let ratio = match pick(rng, 4) {
            0 => 1e-3 * (1 + pick(rng, 30)) as f64,
            1 => 1.0 - 1e-3 * pick(rng, 10) as f64,
            _ => 0.05 + 0.9 * rng.next_f64(),
        };
        let dictionary = [
            DictionaryKind::Dct2d,
            DictionaryKind::Haar2d,
            DictionaryKind::Identity,
        ][pick(rng, 3)];
        let atoms = match pick(rng, 3) {
            0 => None,
            _ => Some(1 + pick(rng, 40)),
        };
        Case {
            rows,
            cols,
            tiling,
            ratio,
            dictionary,
            atoms,
            zero_scene: pick(rng, 4) == 0,
            seed: rng.next_u64(),
        }
    }

    fn imager(&self) -> Result<CompressiveImager, CoreError> {
        let mut builder = CompressiveImager::builder(self.rows, self.cols);
        builder
            .ratio(self.ratio)
            .fidelity(Fidelity::Functional)
            .seed(self.seed);
        if let Some((tile, overlap)) = self.tiling {
            builder.tiling(TileConfig::new(tile).overlap(overlap));
        }
        builder.build()
    }
}

/// What the sweep exercised.
#[derive(Debug, Default)]
struct Tally {
    rejected: usize,
    decoded: usize,
    tiled: usize,
    odd: usize,
    haar: usize,
    identity: usize,
    atoms_beyond_k: usize,
    extreme_ratios: usize,
    zero_scenes: usize,
    /// Tiles with `K ≥ 40`: OMP holds measurements out.
    held_out: usize,
    /// Tiles with `K < 40`: plain fixed-budget OMP.
    below_hold_out: usize,
}

/// Decodes `wire` with `params` on `cache` at `threads`, returning
/// every frame.
fn decode(
    wire: &[u8],
    params: RecoveryParams,
    cache: &Arc<OperatorCache>,
    threads: usize,
) -> Vec<DecodedFrame> {
    let mut session = DecodeSession::with_cache(Arc::clone(cache));
    session.params(params).threads(threads);
    let mut frames = session.push_bytes(wire).unwrap();
    frames.extend(session.finish().unwrap());
    frames
}

fn run_case(case: &Case, tally: &mut Tally) {
    let imager = match case.imager() {
        Ok(imager) => imager,
        Err(CoreError::InvalidConfig(_)) => {
            tally.rejected += 1;
            return;
        }
        Err(e) => panic!("build must fail only with InvalidConfig, got {e:?}"),
    };
    let k = imager
        .tile_imager()
        .unwrap_or(&imager)
        .sample_count()
        .max(1);
    let atoms = case
        .atoms
        .unwrap_or(k + pick(&mut SplitMix64::new(case.seed), 3 * k));
    let params = RecoveryParams {
        solver: SolverKind::Omp { atoms },
        dictionary: case.dictionary,
    };
    let scene = if case.zero_scene {
        Scene::Uniform(0.0)
    } else {
        Scene::natural_like()
    };
    let wire = encode(&imager, &scene, case.seed);
    let frames = assert_decodes_deterministically(&wire, params);
    // A tiled frame's stats sum over its tiles.
    let tiles = imager.tile_layout().map_or(1, |layout| layout.tiles());
    for frame in &frames {
        let iterations = frame.reconstruction.stats().iterations;
        assert!(
            iterations <= atoms * tiles,
            "{iterations} atoms over {tiles} tiles at budget {atoms}"
        );
    }

    tally.decoded += 1;
    tally.tiled += usize::from(imager.is_tiled());
    tally.odd += usize::from(!case.rows.is_power_of_two() || !case.cols.is_power_of_two());
    tally.haar += usize::from(case.dictionary == DictionaryKind::Haar2d);
    tally.identity += usize::from(case.dictionary == DictionaryKind::Identity);
    tally.atoms_beyond_k += usize::from(atoms >= k);
    tally.extreme_ratios += usize::from(case.ratio < 0.05 || case.ratio > 0.95);
    tally.zero_scenes += usize::from(case.zero_scene);
    tally.held_out += usize::from(k >= 40);
    tally.below_hold_out += usize::from(k < 40);
}

/// Two captures of `scene` (seeded `seed`, `seed + 1`) as one stream.
fn encode(imager: &CompressiveImager, scene: &Scene, seed: u64) -> Vec<u8> {
    let (rows, cols) = (imager.geometry().height(), imager.geometry().width());
    let mut enc = EncodeSession::new(imager.clone()).unwrap();
    for i in 0..2 {
        enc.capture(&scene.render(cols, rows, seed + i)).unwrap();
    }
    enc.into_bytes()
}

/// Both frames of `wire` decode to finite codes, identically at
/// threads(1) and threads(2), cold and warm; returns them.
fn assert_decodes_deterministically(wire: &[u8], params: RecoveryParams) -> Vec<DecodedFrame> {
    let warm_cache = OperatorCache::shared();
    let cold1 = decode(wire, params, &warm_cache, 1);
    assert_eq!(cold1.len(), 2, "both frames decode");
    for frame in &cold1 {
        let codes = frame.reconstruction.code_image().as_slice();
        assert!(codes.iter().all(|v| v.is_finite()), "non-finite code");
        assert!(frame.reconstruction.stats().residual_norm.is_finite());
    }
    let warm2 = decode(wire, params, &warm_cache, 2);
    assert_eq!(warm2, cold1, "warm threads(2) != cold threads(1)");
    let warm1 = decode(wire, params, &warm_cache, 1);
    assert_eq!(warm1, cold1, "warm threads(1) != cold threads(1)");
    let cold2 = decode(wire, params, &OperatorCache::shared(), 2);
    assert_eq!(cold2, cold1, "cold threads(2) != cold threads(1)");
    cold1
}

/// Seeded OMP decoder-config fuzz (see the module docs).
#[test]
fn fuzzed_omp_decodes_are_finite_and_deterministic() {
    let mut rng = SplitMix64::new(0x0_DEC0DE);
    let mut tally = Tally::default();
    for round in 0..120 {
        let case = Case::draw(&mut rng);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_case(&case, &mut tally)));
        if let Err(payload) = outcome {
            eprintln!("fuzz round {round} failed: {case:?}");
            panic::resume_unwind(payload);
        }
    }
    // The sweep must reach every branch it claims to cover.
    assert!(
        tally.decoded >= 100
            && tally.tiled >= 10
            && tally.odd >= 50
            && tally.haar >= 20
            && tally.identity >= 20
            && tally.atoms_beyond_k >= 20
            && tally.extreme_ratios >= 30
            && tally.zero_scenes >= 20
            && tally.held_out >= 30
            && tally.below_hold_out >= 30,
        "{tally:?}"
    );
}

/// The geometry classes of the other-solver sweep, by the DCT path
/// their tiles take.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Power-of-two tiles: the transposed Lee row pass, one row block.
    PowerOfTwo,
    /// Non-power-of-two tiles: the basis-matrix path.
    Odd,
    /// 40×64 frames: the Lee row pass over two fused row blocks
    /// (32 + 8 rows), the basis-matrix column pass.
    Wide,
}

/// What the other-solver sweep exercised, by the tile geometry each
/// decode ran on.
#[derive(Debug, Default)]
struct SolverTally {
    decoded: usize,
    tiled: usize,
    /// Power-of-two tiles in both dimensions.
    pow2: usize,
    /// Non-power-of-two tiles in both dimensions.
    odd: usize,
    /// 64-wide tiles that stream more than one fused row block.
    two_blocks: usize,
    debiased: usize,
}

/// Every solver but OMP, with and without debias where it has one, at
/// iteration caps that keep the debug run short. A `None` slot stands
/// for a retired kind (ISTA and AMP after each FISTA): its slot and its
/// draws stay, so every other fuzzed configuration keeps its seeded
/// draws.
fn other_solvers(rng: &mut SplitMix64) -> Vec<Option<SolverKind>> {
    let iters = |rng: &mut SplitMix64| 4 + pick(rng, 20);
    let mut solvers = Vec::new();
    for debias in [false, true] {
        let lambda_ratio = 0.005 + 0.1 * rng.next_f64();
        solvers.push(Some(SolverKind::Fista {
            lambda_ratio,
            max_iter: iters(rng),
            debias,
        }));
        for _retired in 0..2 {
            iters(rng);
            solvers.push(None);
        }
    }
    solvers.push(Some(SolverKind::Iht {
        sparsity: 1 + pick(rng, 30),
    }));
    solvers.push(Some(SolverKind::CoSamp {
        sparsity: 1 + pick(rng, 12),
    }));
    solvers.push(Some(SolverKind::Cgls {
        max_iter: iters(rng),
    }));
    solvers
}

/// Seeded decoder-config fuzz over every solver but OMP (see the module
/// docs): each solver meets the power-of-two and non-power-of-two
/// classes twice and the wide class once.
#[test]
fn fuzzed_other_solver_decodes_are_finite_and_deterministic() {
    let mut rng = SplitMix64::new(0x0501_7E25);
    let mut tally = SolverTally::default();
    for round in 0..2 {
        let shapes: &[Shape] = match round {
            0 => &[Shape::PowerOfTwo, Shape::Odd, Shape::Wide],
            _ => &[Shape::PowerOfTwo, Shape::Odd],
        };
        for (i, solver) in other_solvers(&mut rng).into_iter().enumerate() {
            for (s, &shape) in shapes.iter().enumerate() {
                let side = |rng: &mut SplitMix64| match shape {
                    Shape::PowerOfTwo => [8, 16, 32][pick(rng, 3)],
                    _ => [6, 12, 20][pick(rng, 3)],
                };
                let tile = (shape != Shape::Wide && pick(&mut rng, 3) == 0).then(|| side(&mut rng));
                let (rows, cols) = match (shape, tile) {
                    (Shape::Wide, _) => (40, 64),
                    (_, Some(t)) => (t + pick(&mut rng, t / 2), t + 1 + pick(&mut rng, t)),
                    (_, None) => (side(&mut rng), side(&mut rng)),
                };
                let dictionary = [
                    DictionaryKind::Dct2d,
                    DictionaryKind::Dct2d,
                    DictionaryKind::Haar2d,
                    DictionaryKind::Identity,
                ][pick(&mut rng, 4)];
                let ratio = match shape {
                    Shape::Wide => 0.05 + 0.15 * rng.next_f64(),
                    _ => 0.08 + 0.32 * rng.next_f64(),
                };
                let seed = rng.next_u64();
                let overlap = tile.map(|t| pick(&mut rng, t / 2));
                let Some(solver) = solver else {
                    continue;
                };
                let mut builder = CompressiveImager::builder(rows, cols);
                builder
                    .ratio(ratio)
                    .fidelity(Fidelity::Functional)
                    .seed(seed);
                if let (Some(t), Some(overlap)) = (tile, overlap) {
                    builder.tiling(TileConfig::new(t).overlap(overlap));
                }
                let imager = builder.build().unwrap();
                let params = RecoveryParams { solver, dictionary };
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    let wire = encode(&imager, &Scene::natural_like(), seed);
                    assert_decodes_deterministically(&wire, params);
                }));
                if let Err(payload) = outcome {
                    eprintln!(
                        "round {round} solver {i} shape {s}: {rows}×{cols} tile {tile:?} \
                         ratio {ratio} {params:?}"
                    );
                    panic::resume_unwind(payload);
                }
                // Tally the tile geometry each decode actually ran on.
                let (th, tw) = match imager.tile_imager() {
                    Some(t) => (t.geometry().height(), t.geometry().width()),
                    None => (rows, cols),
                };
                tally.decoded += 1;
                tally.tiled += usize::from(imager.is_tiled());
                tally.pow2 += usize::from(th.is_power_of_two() && tw.is_power_of_two());
                tally.odd += usize::from(!th.is_power_of_two() && !tw.is_power_of_two());
                tally.two_blocks +=
                    usize::from(tw == 64 && tepics::cs::fused::fused_block_rows(th, tw) < th);
                tally.debiased += usize::from(solver.debias());
            }
        }
    }
    // 5 solver configs × (3 + 2) shapes.
    assert!(
        tally.decoded == 25
            && tally.tiled >= 5
            && tally.pow2 == 10
            && tally.odd == 10
            && tally.two_blocks == 5
            && tally.debiased == 5,
        "{tally:?}"
    );
}

/// `EventAccurate` captures decode end to end next to `Functional`
/// captures of the same configurations, with OMP and with FISTA: no
/// panic, finite codes, threads(1) ≡ threads(2), warm ≡ cold. The
/// column buses queue pulses on these scenes, so the event-accurate
/// samples carry arbitration error the decoder never modelled.
#[test]
fn event_accurate_captures_decode_like_functional_ones() {
    let mut rng = SplitMix64::new(0x0E7E_47AC);
    let mut queued = 0;
    let shapes = [
        (16, 16, None),
        (8, 8, None),
        (12, 16, None),
        (16, 14, Some(8)),
    ];
    for (round, &(rows, cols, tile)) in shapes.iter().enumerate() {
        let ratio = 0.2 + 0.3 * rng.next_f64();
        let seed = rng.next_u64();
        let scene = if round % 2 == 0 {
            Scene::natural_like()
        } else {
            Scene::Uniform(0.5)
        };
        let solvers = [
            SolverKind::Omp {
                atoms: 8 + pick(&mut rng, 24),
            },
            SolverKind::Fista {
                lambda_ratio: 0.005 + 0.05 * rng.next_f64(),
                max_iter: 10 + pick(&mut rng, 20),
                debias: false,
            },
        ];
        for fidelity in [Fidelity::Functional, Fidelity::EventAccurate] {
            let mut builder = CompressiveImager::builder(rows, cols);
            builder.ratio(ratio).fidelity(fidelity).seed(seed);
            if let Some(t) = tile {
                builder.tiling(TileConfig::new(t).overlap(2));
            }
            let imager = builder.build().unwrap();
            let (_, stats) = imager.capture_tiles_with_stats(&scene.render(cols, rows, seed));
            queued += stats.queued_pulses;
            for solver in solvers {
                let params = RecoveryParams {
                    solver,
                    dictionary: DictionaryKind::Dct2d,
                };
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    let wire = encode(&imager, &scene, seed);
                    assert_decodes_deterministically(&wire, params);
                }));
                if let Err(payload) = outcome {
                    eprintln!(
                        "round {round}: {rows}×{cols} tile {tile:?} {fidelity:?} \
                         ratio {ratio} seed {seed:#x} {params:?}"
                    );
                    panic::resume_unwind(payload);
                }
            }
        }
    }
    assert!(queued > 0, "no event-accurate capture queued a pulse");
}

/// How the scene changes from one delta-mode frame to the next.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Motion {
    /// The same scene every frame: every delta is zero.
    Static,
    /// A few pixels change per frame: the pixel-sparse delta IHT models.
    Sparse,
    /// A new scene every frame: a dense delta.
    Dense,
}

/// One fuzzed delta-mode configuration.
#[derive(Debug, Clone)]
struct DeltaCase {
    rows: usize,
    cols: usize,
    /// Overlap of the 16-px tiles of a tiled case.
    tiling: Option<usize>,
    /// Executors of the one-shot decodes; the re-chunked decode of a
    /// tiled case runs at the other count of 1 and 2.
    threads: usize,
    ratio: f64,
    /// Key-frame recovery; deltas always run IHT.
    solver: SolverKind,
    /// As passed to `delta_mode`; 0 is clamped to 1 there.
    sparsity: usize,
    keyframe_interval: usize,
    frames: usize,
    motion: Motion,
    profile: WireProfile,
    /// Damages the wire past its header with a fault of this kind.
    fault: Option<u64>,
    seed: u64,
}

impl DeltaCase {
    fn draw(rng: &mut SplitMix64) -> DeltaCase {
        let (rows, cols) = (4 + pick(rng, 17), 4 + pick(rng, 17));
        let solver = match pick(rng, 2) {
            0 => SolverKind::Omp {
                atoms: 1 + pick(rng, 30),
            },
            _ => SolverKind::Fista {
                lambda_ratio: 0.005 + 0.05 * rng.next_f64(),
                max_iter: 10 + pick(rng, 30),
                debias: rng.next_bool(),
            },
        };
        let keyframe_interval = match pick(rng, 4) {
            0 => 0,
            1 => 1,
            _ => 2 + pick(rng, 4),
        };
        DeltaCase {
            rows,
            cols,
            tiling: None,
            threads: 1,
            ratio: 0.02 + 0.6 * rng.next_f64(),
            solver,
            sparsity: pick(rng, rows * cols + 8),
            keyframe_interval,
            frames: 1 + pick(rng, 6),
            motion: [Motion::Static, Motion::Sparse, Motion::Dense][pick(rng, 3)],
            profile: [WireProfile::Compact, WireProfile::Resilient][pick(rng, 2)],
            fault: (pick(rng, 3) == 0).then(|| rng.next_u64()),
            seed: rng.next_u64(),
        }
    }

    /// A tiled case: the draws of [`DeltaCase::draw`], then a frame of
    /// 17 to 36 px a side in 16-px tiles, a sparsity up to the tile's
    /// pixel count and beyond, threads 1 or 2, and two to six frames,
    /// mostly on a resilient wire and damaged half the time, so tiles
    /// get lost between frames that chain.
    fn draw_tiled(rng: &mut SplitMix64) -> DeltaCase {
        let mut case = DeltaCase::draw(rng);
        case.rows = 17 + pick(rng, 20);
        case.cols = 17 + pick(rng, 20);
        case.tiling = Some(pick(rng, 5));
        case.threads = 1 + pick(rng, 2);
        case.sparsity = pick(rng, 16 * 16 + 8);
        case.frames = 2 + pick(rng, 5);
        if pick(rng, 4) != 0 {
            case.profile = WireProfile::Resilient;
        }
        case.fault = (pick(rng, 2) == 0).then(|| rng.next_u64());
        case
    }

    /// The case's stream: `frames` captures of its scene sequence.
    fn wire(&self, imager: &CompressiveImager) -> Vec<u8> {
        let mut enc = EncodeSession::with_profile(imager.clone(), self.profile).unwrap();
        let mut rng = SplitMix64::new(self.seed);
        let mut scene = Scene::natural_like().render(self.cols, self.rows, self.seed);
        for i in 0..self.frames {
            match self.motion {
                Motion::Static => {}
                Motion::Sparse => {
                    for _ in 0..1 + pick(&mut rng, 3) {
                        let (x, y) = (pick(&mut rng, self.cols), pick(&mut rng, self.rows));
                        scene.set(x, y, rng.next_f64());
                    }
                }
                Motion::Dense => {
                    scene = Scene::natural_like().render(self.cols, self.rows, self.seed + i as u64)
                }
            }
            enc.capture(&scene).unwrap();
        }
        let mut wire = enc.into_bytes();
        if let Some(fault_seed) = self.fault {
            let header = match self.profile {
                WireProfile::Compact => STREAM_HEADER_BYTES,
                WireProfile::Resilient => RESILIENT_HEADER_BYTES,
            };
            let mut f = FaultInjector::new(fault_seed);
            match fault_seed % 4 {
                0 => {
                    f.flip_bits(&mut wire[header..], 0.003);
                }
                1 => {
                    f.burst_erase(&mut wire[header..], 24);
                }
                2 => {
                    f.truncate(&mut wire, header);
                }
                _ => {
                    f.duplicate_range(&mut wire, 32);
                }
            }
        }
        wire
    }
}

/// What a delta-mode session made of a stream delivered as `chunks`:
/// its frames, its sticky error and its report.
type DeltaOutcome = (Vec<DecodedFrame>, Option<CoreError>, DecodeReport);

fn decode_delta<'a>(
    case: &DeltaCase,
    chunks: impl IntoIterator<Item = &'a [u8]>,
    cache: &Arc<OperatorCache>,
    threads: usize,
) -> DeltaOutcome {
    let mut session = DecodeSession::with_cache(Arc::clone(cache));
    session
        .params(RecoveryParams {
            solver: case.solver,
            dictionary: DictionaryKind::Dct2d,
        })
        .delta_mode(case.sparsity, case.keyframe_interval)
        .threads(threads);
    let mut frames = Vec::new();
    for chunk in chunks {
        match session.push_bytes(chunk) {
            Ok(out) => frames.extend(out),
            Err(_) => break,
        }
    }
    if session.error().is_none() {
        frames.extend(session.finish().unwrap());
    }
    (frames, session.error().cloned(), session.report())
}

/// What the delta-mode sweep exercised.
#[derive(Debug, Default)]
struct DeltaTally {
    rejected: usize,
    decoded: usize,
    never_rekey: usize,
    every_other: usize,
    interval_beyond_one: usize,
    clean_compact: usize,
    clean_resilient: usize,
    damaged: usize,
    single_frame: usize,
    sparsity_beyond_pixels: usize,
    key_frames: usize,
    delta_frames: usize,
    lost_frames: usize,
    errors: usize,
    tiled: usize,
    tiled_threads2: usize,
    tiled_damaged_resilient: usize,
    tiled_delta_frames: usize,
    /// Tiled frames that chained deltas with a tile erased.
    tiled_degraded_deltas: usize,
    /// Tile slots re-keyed on tiled streams.
    tiled_reanchors: usize,
}

fn run_delta_case(case: &DeltaCase, tally: &mut DeltaTally) {
    let mut builder = CompressiveImager::builder(case.rows, case.cols);
    builder
        .ratio(case.ratio)
        .fidelity(Fidelity::Functional)
        .seed(case.seed);
    if let Some(overlap) = case.tiling {
        builder.tiling(TileConfig::new(16).overlap(overlap));
    }
    let imager = match builder.build() {
        Ok(imager) => imager,
        Err(CoreError::InvalidConfig(_)) => {
            tally.rejected += 1;
            return;
        }
        Err(e) => panic!("build must fail only with InvalidConfig, got {e:?}"),
    };
    let wire = case.wire(&imager);
    let cache = OperatorCache::shared();
    let cold = decode_delta(case, [wire.as_slice()], &cache, case.threads);
    let warm = decode_delta(case, [wire.as_slice()], &cache, case.threads);
    assert_eq!(warm, cold, "warm one-shot != cold one-shot");
    let chunks = FaultInjector::new(case.seed ^ 0xC4C4)
        .rechunk(&wire, 1 + pick(&mut SplitMix64::new(case.seed), 97));
    let rechunk_threads = if case.tiling.is_some() {
        3 - case.threads
    } else {
        case.threads
    };
    let rechunked = decode_delta(
        case,
        chunks.iter().map(Vec::as_slice),
        &OperatorCache::shared(),
        rechunk_threads,
    );
    assert_eq!(rechunked, cold, "re-chunked != one-shot");

    let (frames, error, report) = cold;
    for frame in &frames {
        let codes = frame.reconstruction.code_image().as_slice();
        assert!(codes.iter().all(|v| v.is_finite()), "non-finite code");
        assert!(frame.reconstruction.stats().residual_norm.is_finite());
    }
    if case.fault.is_none() {
        assert_eq!(error, None, "a clean wire decodes without error");
        assert_eq!(report.frames_seen(), case.frames, "{report:?}");
        // A key frame, then `interval` deltas before the next; 0 never
        // re-keys.
        let n = case.keyframe_interval;
        let keys: Vec<bool> = frames.iter().map(|f| f.is_key).collect();
        let want: Vec<bool> = (0..case.frames)
            .map(|i| i == 0 || (n > 0 && i % (n + 1) == 0))
            .collect();
        assert_eq!(keys, want, "key frames of interval {n}");
    }

    tally.decoded += 1;
    tally.never_rekey += usize::from(case.keyframe_interval == 0);
    tally.every_other += usize::from(case.keyframe_interval == 1);
    tally.interval_beyond_one += usize::from(case.keyframe_interval > 1);
    let clean = case.fault.is_none();
    tally.clean_compact += usize::from(clean && case.profile == WireProfile::Compact);
    tally.clean_resilient += usize::from(clean && case.profile == WireProfile::Resilient);
    tally.damaged += usize::from(!clean);
    tally.single_frame += usize::from(case.frames == 1);
    tally.sparsity_beyond_pixels += usize::from(case.sparsity >= case.rows * case.cols);
    tally.key_frames += frames.iter().filter(|f| f.is_key).count();
    tally.delta_frames += frames.iter().filter(|f| !f.is_key).count();
    tally.lost_frames += report.frames_lost;
    tally.errors += usize::from(error.is_some());
    if imager.is_tiled() {
        tally.tiled += 1;
        tally.tiled_threads2 += usize::from(case.threads == 2);
        tally.tiled_damaged_resilient +=
            usize::from(!clean && case.profile == WireProfile::Resilient);
        tally.tiled_delta_frames += frames.iter().filter(|f| !f.is_key).count();
        tally.tiled_degraded_deltas += frames
            .iter()
            .filter(|f| !f.is_key && f.erased_tiles > 0)
            .count();
        tally.tiled_reanchors += report.reanchors;
    }
}

/// Seeded delta-mode config fuzz (see the module docs).
#[test]
fn fuzzed_delta_mode_decodes_are_finite_and_deterministic() {
    let mut rng = SplitMix64::new(0xDE17_A5EE);
    let mut tally = DeltaTally::default();
    let mut tiled_rng = SplitMix64::new(0x711E_DE17);
    for round in 0..80 {
        let case = if round < 60 {
            DeltaCase::draw(&mut rng)
        } else {
            DeltaCase::draw_tiled(&mut tiled_rng)
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_delta_case(&case, &mut tally)));
        if let Err(payload) = outcome {
            eprintln!("delta fuzz round {round} failed: {case:?}");
            panic::resume_unwind(payload);
        }
    }
    // The sweep must reach every branch it claims to cover.
    assert!(
        tally.decoded >= 75
            && tally.never_rekey >= 10
            && tally.every_other >= 10
            && tally.interval_beyond_one >= 15
            && tally.clean_compact >= 10
            && tally.clean_resilient >= 10
            && tally.damaged >= 10
            && tally.single_frame >= 5
            && tally.sparsity_beyond_pixels >= 3
            && tally.key_frames >= 50
            && tally.delta_frames >= 50
            && tally.lost_frames >= 1
            && tally.errors >= 1
            && tally.tiled >= 18
            && tally.tiled_threads2 >= 5
            && tally.tiled_damaged_resilient >= 5
            && tally.tiled_delta_frames >= 30
            && tally.tiled_degraded_deltas >= 2
            && tally.tiled_reanchors >= 2,
        "{tally:?}"
    );
}
