//! Solver-pluggable recovery stack: end-to-end identity guarantees.
//!
//! Every [`SolverKind`] must behave identically however it is driven:
//! one-shot per-frame decoders, warm cached sessions, sessions whose
//! cache evicts, and the parallel batch engine all produce bit-identical
//! reconstructions, because every decode runs the same path through an
//! operator cache, every cached value (operator, dictionary, per-solver
//! norm estimate, Gram column) is built deterministically,
//! and every workspace reset is value-transparent.

use std::sync::Arc;

use tepics::core::batch::BatchRunner;
use tepics::cs::dictionary::ZeroMeanDictionary;
use tepics::cs::gram::gram_column_into;
use tepics::cs::measurement::SelectionMeasurement;
use tepics::cs::op::dot;
use tepics::cs::{ComposedOperator, Dct2dDictionary, GramStore};
use tepics::prelude::*;
use tepics::recovery::{CoSaMp, Omp, Solver};

/// A cache budget below one 16×16 Gram store: such entries are served
/// but never retained, so every decode starts a fresh one.
const EVICTING_BUDGET: usize = 64 << 10;

fn imager(side: usize, seed: u64) -> CompressiveImager {
    CompressiveImager::builder(side, side)
        .ratio(0.35)
        .seed(seed)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
}

/// Warm (cached session) decodes are bit-identical to cold (a fresh
/// one-shot decoder on its own private cache) decodes for every solver
/// kind over every dictionary — the cache and workspace layers are
/// value-transparent across the whole roster — and so are decodes
/// through a cache that evicts its Gram stores. Every
/// cold decode scores a finite PSNR against the ideal codes.
#[test]
fn warm_session_equals_cold_decoder_for_every_solver_kind() {
    let im = imager(16, 0xBEEF);
    let scenes: Vec<ImageF64> = (0..3)
        .map(|i| Scene::gaussian_blobs(2).render(16, 16, i))
        .collect();
    let frames: Vec<CompressedFrame> = scenes.iter().map(|s| im.capture(s)).collect();
    let truths: Vec<ImageF64> = scenes
        .iter()
        .map(|s| im.ideal_codes(s).to_code_f64())
        .collect();
    let k = frames[0].samples.len();
    for dictionary in [
        DictionaryKind::Dct2d,
        DictionaryKind::Haar2d,
        DictionaryKind::Identity,
    ] {
        for solver in SolverKind::shootout_set(k) {
            let params = RecoveryParams { solver, dictionary };
            // Cold: a fresh decoder per frame.
            let cold: Vec<Reconstruction> = frames
                .iter()
                .map(|f| {
                    let mut d = Decoder::for_frame(f).unwrap();
                    d.params(params);
                    d.reconstruct(f).unwrap()
                })
                .collect();
            for (i, (recon, truth)) in cold.iter().zip(&truths).enumerate() {
                let db = psnr(truth, recon.code_image(), 255.0);
                assert!(db.is_finite(), "{params:?}: frame {i} PSNR {db}");
            }
            // Warm: one session; frames 2..n hit every cache layer.
            let mut session = DecodeSession::new();
            session.params(params);
            for (i, f) in frames.iter().enumerate() {
                let warm = session.push_frame(f).unwrap();
                assert_eq!(
                    warm.reconstruction, cold[i],
                    "{params:?}: frame {i} warm != cold"
                );
            }
            assert!(
                session.cache().stats().hits >= frames.len() as u64 - 1,
                "{params:?}: session never went warm"
            );
            // Evicting: the Gram store (OMP) or view (CoSaMP) is rebuilt
            // for every frame.
            let mut evicting =
                DecodeSession::with_cache(Arc::new(OperatorCache::with_budget(EVICTING_BUDGET)));
            evicting.params(params);
            for (i, f) in frames.iter().enumerate() {
                let got = evicting.push_frame(f).unwrap();
                assert_eq!(
                    got.reconstruction, cold[i],
                    "{params:?}: frame {i} through an evicting cache != cold"
                );
            }
        }
    }
}

/// A shared cache serves many sessions without cross-talk: two sessions
/// with different solvers on one cache reproduce their private-cache
/// results exactly (per-solver norm entries are keyed per solver, and a
/// Gram store holds only operator columns, so they can never mix).
#[test]
fn shared_cache_does_not_mix_solver_state() {
    let im = imager(16, 0x7EA);
    let scene = Scene::gaussian_blobs(3).render(16, 16, 9);
    let frame = im.capture(&scene);
    let k = frame.samples.len();
    let kinds = SolverKind::shootout_set(k);
    // Private-cache reference per kind.
    let reference: Vec<Reconstruction> = kinds
        .iter()
        .map(|&kind| {
            let mut s = DecodeSession::new();
            s.params(RecoveryParams {
                solver: kind,
                ..RecoveryParams::default()
            });
            s.push_frame(&frame).unwrap().reconstruction
        })
        .collect();
    // All kinds through one shared cache, interleaved twice.
    let shared = Arc::new(OperatorCache::new());
    for round in 0..2 {
        for (i, &kind) in kinds.iter().enumerate() {
            let mut s = DecodeSession::with_cache(shared.clone());
            s.params(RecoveryParams {
                solver: kind,
                ..RecoveryParams::default()
            });
            let got = s.push_frame(&frame).unwrap().reconstruction;
            assert_eq!(
                got, reference[i],
                "round {round}: {kind:?} changed under the shared cache"
            );
        }
    }
}

/// The batch engine's thread-count determinism holds for every solver
/// kind selected through `run`'s params, at 1, 2 and 4 threads.
#[test]
fn batch_runs_identical_across_thread_counts_for_all_solvers() {
    let im = imager(16, 42);
    let scenes: Vec<ImageF64> = (0..4)
        .map(|i| Scene::gaussian_blobs(3).render(16, 16, i))
        .collect();
    let k = im.capture(&scenes[0]).samples.len();
    for kind in SolverKind::shootout_set(k) {
        let params = RecoveryParams {
            solver: kind,
            ..RecoveryParams::default()
        };
        let serial = BatchRunner::with_threads(1)
            .run(&im, &scenes, params)
            .unwrap();
        for threads in [2, 4] {
            let parallel = BatchRunner::with_threads(threads)
                .run(&im, &scenes, params)
                .unwrap();
            assert_eq!(
                serial.reports, parallel.reports,
                "{kind:?}: {threads} threads changed batch results"
            );
        }
    }
}

/// `RecoveryParams` presets drive the same path as a solver and
/// dictionary spelled out by hand, in a session and in a bare decoder.
#[test]
fn recovery_params_equal_manual_configuration() {
    let im = imager(16, 5);
    let scene = Scene::star_field(5).render(16, 16, 2);
    let frame = im.capture(&scene);
    let params = RecoveryParams::star_field(10);
    let via_params = {
        let mut s = DecodeSession::new();
        s.params(params);
        s.push_frame(&frame).unwrap().reconstruction
    };
    let manual = {
        let mut d = Decoder::for_frame(&frame).unwrap();
        d.params(RecoveryParams {
            solver: SolverKind::Iht { sparsity: 10 },
            dictionary: DictionaryKind::Identity,
        });
        d.reconstruct(&frame).unwrap()
    };
    assert_eq!(via_params, manual);
}

/// A session reconfigured after its first frame decodes the next frame
/// exactly as a fresh session configured up front would, and keeps its
/// one Φ build: new params reach the existing decoder instead of
/// rebuilding it.
#[test]
fn params_set_after_the_first_frame_apply_to_the_next() {
    let im = imager(16, 0x5E7);
    let frames: Vec<CompressedFrame> = (0..2)
        .map(|i| im.capture(&Scene::star_field(5).render(16, 16, i)))
        .collect();
    let params = RecoveryParams::star_field(10);
    let mut late = DecodeSession::new();
    late.push_frame(&frames[0]).unwrap();
    late.params(params);
    let got = late.push_frame(&frames[1]).unwrap().reconstruction;

    let mut upfront = DecodeSession::new();
    upfront.params(params);
    let want = upfront.push_frame(&frames[1]).unwrap().reconstruction;
    assert_eq!(got, want, "late params must match up-front params");
    let default = DecodeSession::new()
        .push_frame(&frames[1])
        .unwrap()
        .reconstruction;
    assert_ne!(got, default, "the new params must take effect");
    assert_eq!(late.cache().stats().misses, 1, "Φ is built once");
}

/// A greedy solve (OMP and CoSaMP) does not depend on the state of the
/// operator's shared Gram store or on who filled it: on real 32×32
/// measurements (mean split, DC pinned) a solve without a store,
/// through a cold store, through the same store warm, through a store
/// filled to its cap by other columns (so most atoms are turned away),
/// and through one store filled by 1, 2 and 4 racing threads all give
/// the same bits. The decoder's own greedy decodes are identical cold,
/// warm and through an evicting cache, and their stores never exceed
/// the cap.
#[test]
fn omp_ignores_gram_store_state_and_thread_count() {
    let side = 32;
    let im = imager(side, 0x0_6A4);
    let frames: Vec<CompressedFrame> = (0..4)
        .map(|i| im.capture(&Scene::natural_like().render(side, side, 60 + i)))
        .collect();
    let k = frames[0].samples.len();
    let phi = Decoder::for_frame(&frames[0])
        .unwrap()
        .rebuild_measurement(k)
        .unwrap();
    let counts = phi.selection_counts();
    let psi = ZeroMeanDictionary::new(Dct2dDictionary::new(side, side), 0);
    let ys: Vec<Vec<f64>> = frames
        .iter()
        .map(|f| {
            let y: Vec<f64> = f.samples.iter().map(|&s| f64::from(s)).collect();
            let mean = (dot(&counts, &y) / dot(&counts, &counts)).clamp(0.0, 255.0);
            y.iter().zip(&counts).map(|(v, c)| v - mean * c).collect()
        })
        .collect();
    let (omp, cosamp) = (Omp::new(60), CoSaMp::new(k / 8));
    let cosamp_params = RecoveryParams {
        solver: SolverKind::CoSamp { sparsity: k / 8 },
        dictionary: DictionaryKind::Dct2d,
    };
    for (solver, params) in [
        (
            &omp as &(dyn Solver + Sync),
            RecoveryParams::exact_sparse(60),
        ),
        (&cosamp, cosamp_params),
    ] {
        let name = solver.caps().name;
        let solve = |y: &[f64], store: Option<&Arc<GramStore>>| {
            let a = ComposedOperator::new(&phi, &psi);
            let a = match store {
                Some(store) => a.with_gram_store(store.clone()),
                None => a,
            };
            solver.solve(&a, y).unwrap()
        };
        let reference: Vec<_> = ys.iter().map(|y| solve(y, None)).collect();

        let store = Arc::new(GramStore::new(k, side * side));
        for round in ["cold", "warm"] {
            for (f, y) in ys.iter().enumerate() {
                assert_eq!(
                    solve(y, Some(&store)),
                    reference[f],
                    "{name}: {round} store, frame {f}"
                );
            }
        }
        assert!(store.admitted() <= store.capacity());

        // Filled to the cap from the highest-frequency atoms down.
        let full = Arc::new(GramStore::new(k, side * side));
        let plain = ComposedOperator::new(&phi, &psi);
        let mut atom = vec![0.0; k];
        for j in (0..side * side).rev().take(full.capacity()) {
            full.column_or_admit(j, |g| gram_column_into(&plain, j, &mut atom, g));
        }
        assert_eq!(full.admitted(), full.capacity());
        for (f, y) in ys.iter().enumerate() {
            assert_eq!(
                solve(y, Some(&full)),
                reference[f],
                "{name}: full store, frame {f}"
            );
        }
        assert_eq!(
            full.admitted(),
            full.capacity(),
            "{name}: a full store admits nothing"
        );

        for threads in [1, 2, 4] {
            let shared = Arc::new(GramStore::new(k, side * side));
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (shared, solve, ys, reference) = (&shared, &solve, &ys, &reference);
                    scope.spawn(move || {
                        // Each racer walks the frames from its own offset.
                        for i in 0..ys.len() {
                            let f = (i + t) % ys.len();
                            assert_eq!(
                                solve(&ys[f], Some(shared)),
                                reference[f],
                                "{name}: {threads} racing threads, frame {f}"
                            );
                        }
                    });
                }
            });
            assert!(shared.admitted() <= shared.capacity());
        }

        // The same invariance through the decoder's own cache.
        let cold: Vec<Reconstruction> = frames
            .iter()
            .map(|f| {
                let mut d = Decoder::for_frame(f).unwrap();
                d.params(params);
                d.reconstruct(f).unwrap()
            })
            .collect();
        for (label, cache) in [
            ("shared", OperatorCache::shared()),
            (
                "evicting",
                Arc::new(OperatorCache::with_budget(EVICTING_BUDGET)),
            ),
        ] {
            for round in 0..2 {
                for (f, frame) in frames.iter().enumerate() {
                    let mut d = Decoder::for_frame(frame).unwrap();
                    d.params(params).use_cache(cache.clone());
                    assert_eq!(
                        d.reconstruct(frame).unwrap(),
                        cold[f],
                        "{name}: {label} cache, round {round}, frame {f}"
                    );
                }
            }
        }
    }
}
