//! Dynamic complement to `tepics-tidy`'s static `// tidy:alloc-free`
//! regions: a counting global allocator proves at runtime that the warm
//! solver loops (FISTA and IHT on the shared iterative engine, OMP,
//! CoSaMP), a warm Gram column and a warm two-block composed
//! adjoint, the warm serial decode path (tiled, and in delta mode
//! untiled and tiled) and the per-sample capture loop do not touch the
//! heap. OMP is measured without a Gram
//! store, with one prefilled by an earlier solve, and with one full to
//! its cap; only admissions into a store allocate, so the differential
//! budgets run on a prefilled store. CoSaMP, on the same Gram slots, is
//! measured on a prefilled store and a full one. Its held-out stop rule and all-rows
//! re-fit are measured on the decoder's 32×32, K = 359 operator.
//!
//! The method is differential: run the same warm solve at two different
//! iteration budgets (or capture at two sample counts) and assert the
//! *allocation counts are equal*. Any per-iteration allocation would
//! scale with the budget, so equality
//! pins the loop body to zero allocations without having to whitelist
//! the (documented, one-time) allocations outside the loop. Where the
//! one-time set is exactly known — the returned coefficient vector — we
//! additionally assert the absolute count.
//!
//! The counter is thread-local, so the test harness's other threads
//! cannot perturb a measurement taken on this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tepics::cs::dictionary::ZeroMeanDictionary;
use tepics::cs::gram::{gram_column_into, held_out_count};
use tepics::cs::{
    ComposedOperator, Dct2dDictionary, DenseMatrix, Dictionary, GramStore, LinearOperator,
    XorMeasurement,
};
use tepics::prelude::*;
use tepics::recovery::{CoSaMp, Fista, Iht, Omp, Solver, SolverWorkspace};
use tepics::util::{BitVec, SplitMix64};

struct CountingAllocator;

thread_local! {
    /// Allocations (alloc + alloc_zeroed + realloc) observed on this
    /// thread. `const` init: no lazy allocation, no TLS destructor, so
    /// the allocator itself never recurses into the counter.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns (allocations on this thread during `f`, result).
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// A dense Gaussian sensing problem with a `k`-sparse ground truth.
/// Its magnitudes halve from atom to atom, so every true atom OMP adds
/// also lowers its held-out residual and budgets below `k` run out.
fn sparse_problem(m: usize, n: usize, k: usize, seed: u64) -> (DenseMatrix, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let a = DenseMatrix::from_fn(m, n, |_, _| rng.next_gaussian() / (m as f64).sqrt());
    let mut x = vec![0.0; n];
    let mut magnitude = 64.0;
    for i in 0..k {
        x[(i * 97) % n] = if i % 2 == 0 { magnitude } else { -magnitude };
        magnitude *= 0.5;
    }
    let y = a.apply_vec(&x);
    (a, y)
}

/// A solver of the shared iterative engine, configured for an
/// iteration budget.
type Budgeted = fn(usize) -> Box<dyn Solver>;

/// Warm iterations of every solver on the shared iterative engine —
/// FISTA and IHT — allocate nothing: doubling `max_iter` leaves the
/// allocation count unchanged, and that count is exactly the one
/// documented allocation (the returned coefficient vector). Explicit
/// steps skip the power iteration, which allocates and is cached
/// elsewhere; a negative tolerance keeps every loop running to its full
/// budget.
#[test]
fn warm_fista_iterations_allocate_nothing() {
    let (a, y) = sparse_problem(64, 128, 8, 0xA110C);
    let solvers: [(&str, Budgeted); 2] = [
        ("FISTA", |iters| {
            let mut s = Fista::new();
            s.lambda_ratio(0.05).max_iter(iters).tol(-1.0).step(0.05);
            Box::new(s)
        }),
        ("IHT", |iters| {
            let mut s = Iht::new(8);
            s.max_iter(iters).tol(-1.0).step(0.05);
            Box::new(s)
        }),
    ];
    for (label, solver_at) in solvers {
        let mut ws = SolverWorkspace::new();
        // Warm the workspace, then measure.
        solver_at(10).solve_with(&a, &y, &mut ws).unwrap();
        let (short_solver, long_solver) = (solver_at(50), solver_at(100));
        let (short, rec_short) = count_allocs(|| short_solver.solve_with(&a, &y, &mut ws).unwrap());
        let (long, rec_long) = count_allocs(|| long_solver.solve_with(&a, &y, &mut ws).unwrap());
        assert_eq!(
            rec_short.stats.iterations, 50,
            "{label}: short run must not stop early"
        );
        assert_eq!(
            rec_long.stats.iterations, 100,
            "{label}: long run must not stop early"
        );
        assert_eq!(
            short, long,
            "{label} loop allocates: 50 iters cost {short} allocations, 100 iters cost {long}"
        );
        assert_eq!(
            short, 1,
            "warm {label} solve should allocate exactly the returned coefficient vector"
        );
    }
}

/// Warm OMP pursuit allocates nothing: doubling the atom budget leaves
/// the allocation count unchanged at exactly the returned coefficient
/// vector.
#[test]
fn warm_omp_iterations_allocate_nothing() {
    let (a, y) = sparse_problem(64, 128, 12, 0x0113B);
    let mut ws = SolverWorkspace::new();
    // Warm at the largest budget so every buffer reaches full size.
    Omp::new(8).solve_with(&a, &y, &mut ws).unwrap();
    let (small, rec_small) = count_allocs(|| Omp::new(4).solve_with(&a, &y, &mut ws).unwrap());
    let (large, rec_large) = count_allocs(|| Omp::new(8).solve_with(&a, &y, &mut ws).unwrap());
    assert_eq!(
        rec_small.stats.iterations, 4,
        "small budget must be exhausted"
    );
    assert_eq!(
        rec_large.stats.iterations, 8,
        "large budget must be exhausted"
    );
    assert_eq!(
        small, large,
        "OMP loop allocates: 4 atoms cost {small} allocations, 8 atoms cost {large}"
    );
    assert_eq!(
        small, 1,
        "warm OMP solve should allocate exactly the returned coefficient vector"
    );
}

/// The decoder's composed operator — XOR measurement × DC-pinned DCT —
/// on a 16×16 grid with 96 samples, and a measurement of a scene made of
/// 24 low-frequency atoms whose magnitudes decay, so OMP budgets below
/// 24 run out before the held-out residual stops the pursuit.
fn composed_problem() -> (
    XorMeasurement,
    ZeroMeanDictionary<Dct2dDictionary>,
    Vec<f64>,
) {
    let (m, n) = (16, 16);
    let mut rng = SplitMix64::new(0xC0_0C);
    let patterns: Vec<BitVec> = (0..96)
        .map(|_| BitVec::from_bools((0..m + n).map(|_| rng.next_bool())))
        .collect();
    let phi = XorMeasurement::from_patterns(m, n, patterns);
    let psi = ZeroMeanDictionary::new(Dct2dDictionary::new(n, m), 0);
    let mut c = vec![0.0; m * n];
    for (i, ci) in c.iter_mut().enumerate().skip(1).take(24) {
        *ci = 400.0 * 0.8f64.powi(i as i32) * if rng.next_bool() { 1.0 } else { -1.0 };
    }
    let y = ComposedOperator::new(&phi, &psi).apply_vec(&c);
    (phi, psi, y)
}

/// Warm OMP on the decoder's composed operator allocates only the
/// returned coefficient vector, with no Gram store (every Gram column a
/// per-solve miss into the warm workspace, every atom column from the
/// closed-form kernel) and with a store prefilled by a first solve
/// (every Gram column a hit).
#[test]
fn warm_composed_omp_without_view_allocates_nothing() {
    let (phi, psi, y) = composed_problem();
    let plain = ComposedOperator::new(&phi, &psi);
    let store = Arc::new(GramStore::new(phi.rows(), psi.atoms()));
    let stored = ComposedOperator::new(&phi, &psi).with_gram_store(store.clone());
    for (label, a) in [("no store", &plain), ("prefilled store", &stored)] {
        let mut ws = SolverWorkspace::new();
        // Warm (and prefill) at the largest budget.
        Omp::new(12).solve_with(a, &y, &mut ws).unwrap();
        let (small, rec_small) = count_allocs(|| Omp::new(6).solve_with(a, &y, &mut ws).unwrap());
        let (large, rec_large) = count_allocs(|| Omp::new(12).solve_with(a, &y, &mut ws).unwrap());
        assert_eq!(
            rec_small.stats.iterations, 6,
            "{label}: small budget must be exhausted"
        );
        assert_eq!(
            rec_large.stats.iterations, 12,
            "{label}: large budget must be exhausted"
        );
        assert_eq!(
            small, large,
            "{label}: composed OMP loop allocates: 6 atoms cost {small}, 12 atoms cost {large}"
        );
        assert_eq!(
            small, 1,
            "{label}: warm composed OMP solve should allocate exactly the returned coefficient vector"
        );
    }
    assert_eq!(store.admitted(), 12, "the first solve admitted its atoms");
}

/// A Gram store filled to its cap admits nothing more: a warm solve
/// whose atoms it turns away computes them into the workspace and
/// allocates only its returned coefficient vector.
#[test]
fn full_gram_store_admits_nothing_and_omp_allocates_only_its_result() {
    let (phi, psi, y) = composed_problem();
    let plain = ComposedOperator::new(&phi, &psi);
    let store = Arc::new(GramStore::new(phi.rows(), psi.atoms()));
    // Fill the store from the highest-frequency atoms down.
    let mut atom = vec![0.0; phi.rows()];
    for j in (0..psi.atoms()).rev().take(store.capacity()) {
        store.column_or_admit(j, |g| gram_column_into(&plain, j, &mut atom, g));
    }
    assert_eq!(store.admitted(), store.capacity());
    // A store-less solve warms the workspace for a solve of all misses,
    // and the operator's scratch, which the stored operator then takes
    // over (the decoder's per-solve donation).
    let mut ws = SolverWorkspace::new();
    let want = Omp::new(12).solve_with(&plain, &y, &mut ws).unwrap();
    let stored = ComposedOperator::new(&phi, &psi)
        .with_scratch(plain.into_scratch())
        .with_gram_store(store.clone());
    let (allocs, got) = count_allocs(|| Omp::new(12).solve_with(&stored, &y, &mut ws).unwrap());
    assert_eq!(got, want, "a full store must not change the result");
    assert!(
        (0..psi.atoms()).any(|j| got.coefficients[j] != 0.0 && store.column(j).is_none()),
        "the solve must select atoms the full store turned away"
    );
    assert_eq!(
        store.admitted(),
        store.capacity(),
        "a full store admits nothing"
    );
    assert_eq!(
        allocs, 1,
        "OMP on a full store should allocate exactly the returned coefficient vector"
    );
}

/// Warm CoSaMP on the decoder's composed operator allocates only its
/// returned coefficient vector: its least squares run on Gram slots in
/// workspace buffers. Measured on a store prefilled by a first solve
/// (every slot a hit) and on a store filled to its cap with other atoms
/// (the solve's slots are per-solve misses, each computed once), whose
/// result equals the store-less solve and which admits nothing.
#[test]
fn warm_cosamp_on_a_gram_store_allocates_only_its_result() {
    let (phi, psi, y) = composed_problem();
    let cosamp = CoSaMp::new(8);

    let store = Arc::new(GramStore::new(phi.rows(), psi.atoms()));
    let prefilled = ComposedOperator::new(&phi, &psi).with_gram_store(store.clone());
    let mut ws = SolverWorkspace::new();
    let first = cosamp.solve_with(&prefilled, &y, &mut ws).unwrap();
    assert!(first.stats.iterations > 1, "the pursuit must iterate");
    let admitted = store.admitted();
    let (allocs, again) = count_allocs(|| cosamp.solve_with(&prefilled, &y, &mut ws).unwrap());
    assert_eq!(again, first, "prefilled store: warm result changed");
    assert_eq!(store.admitted(), admitted, "a warm solve admits nothing");
    assert_eq!(
        allocs, 1,
        "prefilled store: a warm CoSaMP solve should allocate exactly its result"
    );

    let plain = ComposedOperator::new(&phi, &psi);
    let full = Arc::new(GramStore::new(phi.rows(), psi.atoms()));
    let mut atom = vec![0.0; phi.rows()];
    for j in (0..psi.atoms()).rev().take(full.capacity()) {
        full.column_or_admit(j, |g| gram_column_into(&plain, j, &mut atom, g));
    }
    // A store-less solve warms the workspace for a solve of all misses,
    // and the operator's scratch, which the stored operator takes over.
    let mut ws = SolverWorkspace::new();
    let want = cosamp.solve_with(&plain, &y, &mut ws).unwrap();
    assert_eq!(want, first, "a store must not change the result");
    let stored = ComposedOperator::new(&phi, &psi)
        .with_scratch(plain.into_scratch())
        .with_gram_store(full.clone());
    let (allocs, got) = count_allocs(|| cosamp.solve_with(&stored, &y, &mut ws).unwrap());
    assert_eq!(got, want, "a full store must not change the result");
    assert!(
        (0..psi.atoms()).any(|j| got.coefficients[j] != 0.0 && full.column(j).is_none()),
        "the solve must select atoms the full store turned away"
    );
    assert_eq!(
        full.admitted(),
        full.capacity(),
        "a full store admits nothing"
    );
    assert_eq!(
        allocs, 1,
        "full store: a warm CoSaMP solve should allocate exactly its result"
    );
}

/// A warm OMP solve on the decoder's 32×32, K = 359 operator, with the
/// hold-out active, allocates only its returned coefficient vector: the
/// held-out residual, the best-support snapshot and the all-rows re-fit
/// all run in workspace buffers. Two natural scenes warm the workspace
/// and the Gram store; solving them again admits nothing and allocates
/// once each.
#[test]
fn warm_held_out_omp_allocates_only_its_result() {
    let (phi, psi) = composed_square(32, 359, 0xC5_0F);
    assert_eq!(
        held_out_count(phi.rows()),
        35,
        "the hold-out must be active"
    );
    let store = Arc::new(GramStore::new(phi.rows(), psi.atoms()));
    let a = ComposedOperator::new(&phi, &psi).with_gram_store(store.clone());
    let scenes: Vec<Vec<f64>> = (0..2)
        .map(|i| phi.apply_vec(Scene::natural_like().render(32, 32, 60 + i).as_slice()))
        .collect();
    let omp = Omp::new(100);
    let mut ws = SolverWorkspace::new();
    let warm: Vec<_> = scenes
        .iter()
        .map(|y| omp.solve_with(&a, y, &mut ws).unwrap())
        .collect();
    let admitted = store.admitted();
    for (i, y) in scenes.iter().enumerate() {
        let (allocs, got) = count_allocs(|| omp.solve_with(&a, y, &mut ws).unwrap());
        assert_eq!(got, warm[i], "scene {i}: warm result changed");
        assert!(
            got.stats.iterations < 100,
            "scene {i}: the held-out residual must stop the pursuit"
        );
        assert_eq!(
            allocs, 1,
            "scene {i}: a warm held-out OMP solve should allocate exactly its result"
        );
    }
    assert_eq!(store.admitted(), admitted, "warm solves admit nothing");
}

/// The decoder's composed operator at `side`×`side` with `k` samples.
fn composed_square(
    side: usize,
    k: usize,
    seed: u64,
) -> (XorMeasurement, ZeroMeanDictionary<Dct2dDictionary>) {
    let mut rng = SplitMix64::new(seed);
    let patterns: Vec<BitVec> = (0..k)
        .map(|_| BitVec::from_bools((0..2 * side).map(|_| rng.next_bool())))
        .collect();
    let phi = XorMeasurement::from_patterns(side, side, patterns);
    let psi = ZeroMeanDictionary::new(Dct2dDictionary::new(side, side), 0);
    (phi, psi)
}

/// A Gram column — one closed-form atom column and one fused composed
/// adjoint, whose DCT row pass transposes each row block — allocates
/// nothing once the operator's scratch is warm: computing one column or
/// sixty-four costs zero allocations. The same holds for a 64×64
/// composed adjoint and apply, which stream two row blocks each. So the
/// transposed block lives in the dictionary scratch the operator keeps,
/// not in a new or thread-local buffer.
#[test]
fn warm_gram_columns_and_two_block_adjoints_allocate_nothing() {
    let (phi, psi) = composed_square(32, 359, 0x6_7A4);
    let a = ComposedOperator::new(&phi, &psi)
        .with_gram_store(Arc::new(GramStore::new(phi.rows(), psi.atoms())));
    let mut atom = vec![0.0; a.rows()];
    let mut g = vec![0.0; a.cols() + held_out_count(a.rows())];
    gram_column_into(&a, 1, &mut atom, &mut g);
    let (one, ()) = count_allocs(|| gram_column_into(&a, 2, &mut atom, &mut g));
    let (many, ()) = count_allocs(|| {
        for j in (0..a.cols()).step_by(16) {
            gram_column_into(&a, j, &mut atom, &mut g);
        }
    });
    assert_eq!((one, many), (0, 0), "warm Gram columns allocate");

    let (phi, psi) = composed_square(64, 1434, 0x6464);
    assert_eq!(tepics::cs::fused::fused_block_rows(64, 64), 32);
    let a = ComposedOperator::new(&phi, &psi);
    let mut rng = SplitMix64::new(5);
    let y: Vec<f64> = (0..a.rows()).map(|_| rng.next_gaussian()).collect();
    let alpha: Vec<f64> = (0..a.cols()).map(|_| rng.next_gaussian()).collect();
    let (mut out_cols, mut out_rows) = (vec![0.0; a.cols()], vec![0.0; a.rows()]);
    a.apply_adjoint(&y, &mut out_cols);
    a.apply(&alpha, &mut out_rows);
    let (adjoints, ()) = count_allocs(|| {
        for _ in 0..4 {
            a.apply_adjoint(&y, &mut out_cols);
        }
    });
    let (applies, ()) = count_allocs(|| {
        for _ in 0..4 {
            a.apply(&alpha, &mut out_rows);
        }
    });
    assert_eq!(
        (adjoints, applies),
        (0, 0),
        "warm 64×64 composed adjoint / apply allocate"
    );
}

/// Warm *fused* FISTA decode iterations allocate nothing: a full
/// decoder pass (XOR measurement × DC-pinned DCT, routed through the
/// fused one-pass kernels with workspace-donated scratch) at doubled
/// iteration budgets costs the identical number of allocations. Any
/// per-iteration heap touch inside the fused apply/adjoint — table
/// builds, row staging, dictionary scratch — would scale with the
/// budget and break the equality.
#[test]
fn warm_fused_decode_iterations_allocate_nothing() {
    let im = CompressiveImager::builder(16, 16)
        .ratio(0.4)
        .seed(0xF0_5D)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    let scene = Scene::gaussian_blobs(2).render(16, 16, 3);
    let frame = im.capture(&scene);
    let mut ws = SolverWorkspace::new();
    let decode = |iters: usize, ws: &mut SolverWorkspace| {
        let mut dec = Decoder::for_frame(&frame).unwrap();
        dec.params(RecoveryParams {
            solver: SolverKind::Fista {
                lambda_ratio: 0.02,
                max_iter: iters,
                debias: false,
            },
            dictionary: DictionaryKind::Dct2d,
        });
        dec.reconstruct_with(&frame, ws).unwrap()
    };
    // Warm at the larger budget so every buffer reaches full size.
    decode(100, &mut ws);
    let (short, rec_short) = count_allocs(|| decode(50, &mut ws));
    let (long, rec_long) = count_allocs(|| decode(100, &mut ws));
    assert_eq!(
        rec_short.stats().iterations,
        50,
        "short run must exhaust its budget"
    );
    assert_eq!(
        rec_long.stats().iterations,
        100,
        "long run must exhaust its budget"
    );
    assert_eq!(
        short, long,
        "fused decode loop allocates: 50 iters cost {short}, 100 iters cost {long}"
    );
}

/// The warm serial decode path reaches an allocation steady state:
/// once the session's operator cache and workspaces are warm,
/// consecutive decodes of the same stream cost the identical number of
/// allocations (the per-frame outputs — reconstruction image, stats —
/// and nothing that grows with session age). It holds for a tiled
/// stream and, in delta mode, for an untiled and a tiled one whose
/// delta frames recover one moved pixel each.
#[test]
fn warm_serial_tiled_decode_reaches_allocation_steady_state() {
    for (tiled, delta) in [(true, false), (false, true), (true, true)] {
        let label = format!("tiled={tiled} delta={delta}");
        let mut builder = CompressiveImager::builder_for(FrameGeometry::new(40, 28));
        if tiled {
            builder.tiling(TileConfig::new(16).overlap(4));
        }
        let imager = builder
            .ratio(0.35)
            .seed(0x71D3)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        // One stream of eight frames, snapshotted after each capture so
        // the byte ranges of individual frames are known — the decode
        // session can then be fed frame-aligned chunks, the way a
        // receiver drains a live stream.
        let mut scene = Scene::gaussian_blobs(3).render(40, 28, 7);
        let mut enc = EncodeSession::new(imager).unwrap();
        let mut cuts = vec![0usize];
        for i in 0..8 {
            if delta {
                scene.set(4 + 3 * i, 10, 0.9);
            }
            enc.capture(&scene).unwrap();
            cuts.push(enc.to_bytes().len());
        }
        let bytes = enc.into_bytes();
        let chunk = |i: usize| &bytes[cuts[i]..cuts[i + 1]];

        let mut session = DecodeSession::new();
        // Serial: the whole decode runs on this thread, under this
        // thread's counter.
        session.threads(1);
        if delta {
            session.delta_mode(20, 0);
        }
        // Six priming frames: the first populates the operator cache and
        // solver workspaces; the rest settle the stream parser's buffer,
        // whose capacity grows amortized until its compaction threshold.
        for i in 0..6 {
            assert_eq!(session.push_bytes(chunk(i)).unwrap().len(), 1, "{label}");
        }
        let (seventh, out_a) = count_allocs(|| session.push_bytes(chunk(6)).unwrap());
        let (eighth, out_b) = count_allocs(|| session.push_bytes(chunk(7)).unwrap());
        if delta {
            assert!(
                !out_a[0].is_key && !out_b[0].is_key,
                "{label}: delta frames"
            );
        } else {
            assert_eq!(
                out_a[0].reconstruction, out_b[0].reconstruction,
                "warm decodes of the same frame must stay bit-identical"
            );
        }
        assert_eq!(
            seventh, eighth,
            "{label}: warm serial decode drifts: {seventh} then {eighth} allocations"
        );
    }
}

/// A warm capture's allocations do not grow with the sample count: an
/// imager measuring 4K samples costs exactly as many allocations per
/// scene as one measuring K. The per-column-sum readout allocates its
/// per-scene buffers and the sample vector once; the per-sample loop,
/// over patterns the imager replayed at build time, touches no heap.
#[test]
fn warm_capture_allocations_do_not_grow_with_sample_count() {
    let scene = Scene::natural_like().render(32, 32, 5);
    let capture_allocs = |ratio: f64| {
        let imager = CompressiveImager::builder(32, 32)
            .ratio(ratio)
            .seed(0xCA97)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let warm = imager.capture_with_stats(&scene);
        let (allocs, again) = count_allocs(|| imager.capture_with_stats(&scene));
        assert_eq!(again, warm, "a warm capture must repeat the first");
        (allocs, imager.sample_count())
    };
    let (short, k) = capture_allocs(0.125);
    let (long, four_k) = capture_allocs(0.5);
    assert_eq!((k, four_k), (128, 512));
    assert_eq!(
        short, long,
        "capture allocates per sample: K = {k} costs {short}, 4K = {four_k} costs {long}"
    );
}
