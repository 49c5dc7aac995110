//! Seeded decoder-config fuzz for OMP: the decoder half of the config
//! fuzz that `capture_oracle.rs` runs for the encoder.
//!
//! Each round draws an imager and an OMP decode configuration — odd and
//! non-power-of-two geometries (where the generic column path runs),
//! occasional tiling, ratios near 0 and 1, the DCT, Haar and identity
//! dictionaries, atom budgets at or beyond the sample count, all-zero
//! scenes — and drives two captures through `EncodeSession` →
//! bytes → `DecodeSession`. Every built configuration must decode
//! without panicking to finite codes, identically at threads(1) and
//! threads(2), and identically cold (a fresh cache) and warm (a cache,
//! and its Gram stores, filled by an earlier decode of the same bytes).

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use tepics::core::CoreError;
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
}

/// Decodes `wire` with OMP on `cache` at `threads`, returning every
/// frame.
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
    let mut enc = EncodeSession::new(imager.clone()).unwrap();
    for i in 0..2 {
        let scene = if case.zero_scene {
            Scene::Uniform(0.0)
        } else {
            Scene::natural_like()
        };
        enc.capture(&scene.render(case.cols, case.rows, case.seed + i))
            .unwrap();
    }
    let wire = enc.into_bytes();

    let warm_cache = OperatorCache::shared();
    let cold1 = decode(&wire, params, &warm_cache, 1);
    assert_eq!(cold1.len(), 2, "both frames decode");
    for frame in &cold1 {
        let codes = frame.reconstruction.code_image().as_slice();
        assert!(codes.iter().all(|v| v.is_finite()), "non-finite code");
        assert!(frame.reconstruction.stats().residual_norm.is_finite());
    }
    let warm2 = decode(&wire, params, &warm_cache, 2);
    assert_eq!(warm2, cold1, "warm threads(2) != cold threads(1)");
    let warm1 = decode(&wire, params, &warm_cache, 1);
    assert_eq!(warm1, cold1, "warm threads(1) != cold threads(1)");
    let cold2 = decode(&wire, params, &OperatorCache::shared(), 2);
    assert_eq!(cold2, cold1, "cold threads(2) != cold threads(1)");

    tally.decoded += 1;
    tally.tiled += usize::from(imager.is_tiled());
    tally.odd += usize::from(!case.rows.is_power_of_two() || !case.cols.is_power_of_two());
    tally.haar += usize::from(case.dictionary == DictionaryKind::Haar2d);
    tally.identity += usize::from(case.dictionary == DictionaryKind::Identity);
    tally.atoms_beyond_k += usize::from(atoms >= k);
    tally.extreme_ratios += usize::from(case.ratio < 0.05 || case.ratio > 0.95);
    tally.zero_scenes += usize::from(case.zero_scene);
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
            && tally.zero_scenes >= 20,
        "{tally:?}"
    );
}
