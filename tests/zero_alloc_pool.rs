//! Threaded companion to `zero_alloc.rs`: a *process-wide* counting
//! allocator proves that the warm **pooled** tiled-decode path — tiles
//! fanned across the persistent worker pool — reaches an allocation
//! steady state, extending the serial zero-alloc guarantee to the
//! threaded path. The same warm pushes must spawn no thread, and so
//! must a warm batch run: batches fan out on the same pool.
//!
//! Differences from `zero_alloc.rs` are deliberate:
//!
//! * The counter is a global `AtomicU64`, not a thread-local: pool
//!   workers allocate on *their* threads, and a thread-local counter on
//!   the test thread would be blind to them.
//! * The tests are serialized by one lock. The harness runs sibling
//!   tests on other threads concurrently, and their allocations and
//!   spawns would land in the process-wide counters; holding the lock
//!   for a whole test keeps the process quiet during its measured
//!   window.
//!
//! The method is the same differential one: after priming (operator
//! cache, parser buffer, executor workspaces via
//! [`DecodeSession::prewarm`]), two consecutive warm pushes of the same
//! frame must cost the *identical* number of allocations — anything
//! that grows with session age or re-warms per frame would break the
//! equality.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use tepics::prelude::*;
use tepics::util::parallel::thread_spawn_count;

struct CountingAllocator;

/// Allocations (alloc + alloc_zeroed + realloc) observed process-wide,
/// including on pool worker threads.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Held for the whole of each test: both read process-wide counters.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns (process-wide allocations during `f`, result).
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// The warm *pooled* tiled-decode path reaches an allocation steady
/// state: with the operator cache, the parser buffer, and every
/// executor's sticky per-geometry workspace warm, consecutive
/// frame-aligned pushes of the same frame cost the identical number of
/// allocations, spawn no thread, and stay bit-identical.
#[test]
fn warm_pooled_tiled_decode_reaches_allocation_steady_state() {
    let _serial = serial();
    let imager = CompressiveImager::builder_for(FrameGeometry::new(40, 28))
        .tiling(TileConfig::new(16).overlap(4))
        .ratio(0.35)
        .seed(0x71D3)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    // One stream, eight frames of the same scene, snapshotted after
    // each capture so frame-aligned chunks can be replayed like a live
    // receiver draining the wire.
    let scene = Scene::gaussian_blobs(3).render(40, 28, 7);
    let mut enc = EncodeSession::new(imager).unwrap();
    let mut warm_record = None;
    let mut cuts = vec![0usize];
    for _ in 0..8 {
        let records = enc.capture(&scene).unwrap();
        if warm_record.is_none() {
            warm_record = Some(records[0].clone());
        }
        cuts.push(enc.to_bytes().len());
    }
    let bytes = enc.into_bytes();
    let chunk = |i: usize| &bytes[cuts[i]..cuts[i + 1]];

    let mut session = DecodeSession::new();
    // Two executors (this thread + one pool worker): the smallest
    // configuration that exercises the cross-thread path.
    session.threads(2);
    // Deterministic executor warm-up: the broadcast pins one solve to
    // every executor, so each holds its per-geometry workspace before
    // anything is measured (no luck-of-the-scheduler cold slots).
    session.prewarm(warm_record.as_ref().unwrap()).unwrap();
    // Priming pushes: populate the operator cache and settle the stream
    // parser's buffer, whose capacity grows amortized until its
    // compaction threshold.
    for i in 0..6 {
        assert_eq!(session.push_bytes(chunk(i)).unwrap().len(), 1);
    }
    let spawns = thread_spawn_count();
    let (seventh, out_a) = count_allocs(|| session.push_bytes(chunk(6)).unwrap());
    let (eighth, out_b) = count_allocs(|| session.push_bytes(chunk(7)).unwrap());
    assert_eq!(
        thread_spawn_count() - spawns,
        0,
        "warm pooled decodes must not spawn threads"
    );
    assert_eq!(
        out_a[0].reconstruction, out_b[0].reconstruction,
        "warm pooled decodes of the same frame must stay bit-identical"
    );
    assert_eq!(
        seventh, eighth,
        "warm pooled tiled decode drifts: {seventh} then {eighth} allocations"
    );
}

/// A warm batch spawns no thread: `BatchRunner` runs its jobs on the
/// persistent pool, so a second two-thread batch on the same geometry
/// reuses the workers the first one left parked — and reports the
/// same results.
#[test]
fn warm_batch_run_spawns_no_thread() {
    let _serial = serial();
    let imager = CompressiveImager::builder(16, 16)
        .ratio(0.35)
        .seed(42)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    let scenes: Vec<ImageF64> = (0..4)
        .map(|i| Scene::gaussian_blobs(3).render(16, 16, i))
        .collect();
    let first = BatchRunner::with_threads(2)
        .run(&imager, &scenes, RecoveryParams::default())
        .unwrap();
    let spawns = thread_spawn_count();
    let second = BatchRunner::with_threads(2)
        .run(&imager, &scenes, RecoveryParams::default())
        .unwrap();
    assert_eq!(
        thread_spawn_count() - spawns,
        0,
        "a warm batch run must not spawn threads"
    );
    assert_eq!(first.reports, second.reports);
}
