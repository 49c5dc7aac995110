//! Thread-count defaults and the process-wide spawn counter.
//!
//! The parallel work itself runs on the persistent
//! [`WorkerPool`](crate::pool::WorkerPool), the workspace's one
//! executor. This module keeps what callers size and audit it with: the
//! machine's default thread count and the count of worker threads
//! spawned so far.
//!
//! # Examples
//!
//! ```
//! use tepics_util::parallel::{default_threads, thread_spawn_count};
//! use tepics_util::pool::WorkerPool;
//!
//! let threads = default_threads();
//! let squares = WorkerPool::global().map(threads, vec![1u64, 2, 3, 4], |_, x, _| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! // The pool now holds the workers this size of map asks for.
//! let spawned = thread_spawn_count();
//! WorkerPool::global().map(threads, vec![5u64, 6, 7, 8], |_, x, _| x + 1);
//! assert_eq!(thread_spawn_count(), spawned);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// Returns the number of worker threads to use by default: the
/// machine's available parallelism, floored at 1.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Worker threads spawned by the [`pool`](crate::pool) so far,
/// process-wide and monotone.
static THREAD_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Total worker threads the [`pool`](crate::pool) has spawned since
/// process start. Benchmarks and tests diff this around a workload to
/// prove the steady state spawns nothing: once the pool holds the
/// workers a decode or batch asks for, the delta of every further call
/// is 0.
#[must_use]
pub fn thread_spawn_count() -> u64 {
    THREAD_SPAWNS.load(Ordering::Relaxed)
}

/// Records `n` worker spawns.
pub(crate) fn record_spawns(n: u64) {
    THREAD_SPAWNS.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
