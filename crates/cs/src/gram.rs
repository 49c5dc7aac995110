//! A capped, shared store of Gram columns.
//!
//! Batch-OMP (`Omp` in `tepics-recovery`) never forms a residual: it
//! runs on the correlations `α = Aᵀy − G_I·γ_I`, which need the Gram
//! columns `G[:, j] = Aᵀ a_j` of the selected atoms. A column depends
//! only on the operator and `j`, so every solve against one operator
//! — all the shifted tiles of a frame and every later frame of the same
//! key — can share it. [`GramStore`] is that sharing point. It plugs
//! into the operator stack like a column view: a
//! [`ComposedOperator`](crate::ComposedOperator) with an attached store
//! answers [`LinearOperator::gram_store`] with it.
//!
//! # The cap
//!
//! A full Gram is `N` columns of `N` values (8 MiB in `f64` at 32×32),
//! more than a decoder can afford per key. The store therefore holds at
//! most `min(K, N)` columns for a `K × N` operator: exactly the bytes of
//! the `K × N` column view the greedy solvers used to materialize, and
//! a cap derived from the operator alone. Admission is first-come and
//! single-flight per column: the first request for a column reserves a
//! ticket and computes it while racers on the same column wait, and
//! racers on other columns proceed in parallel. Nothing is ever evicted
//! from a store, so a column admitted once is served for the store's
//! whole life, and a column turned away by a full store is turned away
//! for good — its requester computes it into its own scratch.
//!
//! A column is a pure function of `(operator, j)` whoever computes it,
//! so what a store holds can change which thread pays for a column,
//! never a solve's result.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::op::LinearOperator;

/// One column slot: `Some` once admitted, `None` once turned away by a
/// full store, uninitialized before its first request.
type Slot = OnceLock<Option<Box<[f64]>>>;

/// Up to `min(rows, cols)` memoized Gram columns `G[:, j] = Aᵀ a_j` of
/// one `rows × cols` operator (see the [module docs](self)).
///
/// Shared via `Arc` across the solves and threads decoding one
/// operator; the core crate's `OperatorCache` keeps one per operator
/// and dictionary.
///
/// # Examples
///
/// ```
/// use tepics_cs::gram::{gram_column_into, GramStore};
/// use tepics_cs::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 0.0], vec![0.0, 1.0, 1.0]]);
/// let store = GramStore::new(2, 3);
/// assert_eq!(store.capacity(), 2);
/// let mut atom = vec![0.0; 2];
/// let g1 = store
///     .column_or_admit(1, |out| gram_column_into(&a, 1, &mut atom, out))
///     .unwrap();
/// assert_eq!(g1, &[2.0, 5.0, 1.0]);
/// assert_eq!(store.column(1), Some(&[2.0, 5.0, 1.0][..]));
/// assert_eq!(store.admitted(), 1);
/// ```
#[derive(Debug)]
pub struct GramStore {
    rows: usize,
    cols: usize,
    cap: usize,
    admitted: AtomicUsize,
    slots: Box<[Slot]>,
}

impl GramStore {
    /// An empty store for a `rows × cols` operator, capped at
    /// `min(rows, cols)` columns.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        GramStore {
            rows,
            cols,
            cap: rows.min(cols),
            admitted: AtomicUsize::new(0),
            slots: (0..cols).map(|_| Slot::new()).collect(),
        }
    }

    /// Rows of the operator the store serves.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the operator, and the length of every Gram column.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The most columns the store will ever hold, `min(rows, cols)`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Columns admitted so far (at most [`capacity`](GramStore::capacity)).
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.admitted.load(Ordering::Relaxed)
    }

    /// The capped footprint in bytes, for cache accounting: a full
    /// store's columns plus the per-column slots. A cache books it in
    /// full when the store is created, so admissions never move the
    /// accounted total.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.cap * self.cols * std::mem::size_of::<f64>() + self.cols * std::mem::size_of::<Slot>()
    }

    /// Column `j` if it is admitted: the hit path, one atomic load.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols()`.
    // tidy:alloc-free
    #[inline]
    pub fn column(&self, j: usize) -> Option<&[f64]> {
        self.slots[j].get()?.as_deref()
    }

    /// Column `j`, admitting it on its first request while the store
    /// has room: `fill` then writes `G[:, j]` into the new column. Other
    /// requesters of the same column wait for that one computation.
    /// Returns `None` when the column was turned away because the store
    /// was full at its first request; the caller computes it itself.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols()`.
    // tidy:alloc-free
    pub fn column_or_admit(&self, j: usize, fill: impl FnOnce(&mut [f64])) -> Option<&[f64]> {
        self.slots[j]
            .get_or_init(|| {
                // The count publishes no data — each column is published
                // by its slot's OnceLock — so Relaxed suffices: the
                // read-modify-writes of one atomic are totally ordered,
                // which is all the cap needs.
                let ticket =
                    self.admitted
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                            (n < self.cap).then_some(n + 1)
                        });
                ticket.ok().map(|_| {
                    // tidy:allow(alloc: admission, at most `capacity` columns over the store's life)
                    let mut column = vec![0.0; self.cols].into_boxed_slice();
                    fill(&mut column);
                    column
                })
            })
            .as_deref()
    }
}

/// Writes the Gram column `G[:, j] = Aᵀ a_j` into `out`, with `atom`
/// (length `a.rows()`) as scratch for `a_j`. The one definition of a
/// Gram column: the store's admissions and the solver's own misses
/// both call it, so a column is bit-identical wherever it was computed.
///
/// # Panics
///
/// Panics if `j >= a.cols()` or a buffer length does not match `a`.
// tidy:alloc-free
pub fn gram_column_into<A: LinearOperator + ?Sized>(
    a: &A,
    j: usize,
    atom: &mut [f64],
    out: &mut [f64],
) {
    a.column_into(j, atom);
    a.apply_adjoint(atom, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::DenseMatrix;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};

    fn problem() -> DenseMatrix {
        DenseMatrix::from_fn(6, 10, |r, c| ((r * 7 + c * 3) % 5) as f64 - 2.0)
    }

    fn reference(a: &DenseMatrix, j: usize) -> Vec<f64> {
        a.apply_adjoint_vec(&a.column(j))
    }

    #[test]
    fn admitted_columns_equal_the_gram_definition() {
        let a = problem();
        let store = GramStore::new(a.rows(), a.cols());
        let mut atom = vec![0.0; a.rows()];
        for j in [3, 0, 9] {
            let got = store
                .column_or_admit(j, |out| gram_column_into(&a, j, &mut atom, out))
                .unwrap();
            assert_eq!(got, reference(&a, j).as_slice(), "column {j}");
        }
        assert_eq!(store.admitted(), 3);
        assert!(store.column(1).is_none(), "never requested");
    }

    #[test]
    fn a_full_store_turns_columns_away_for_good() {
        let a = problem();
        let store = GramStore::new(a.rows(), a.cols());
        assert_eq!(store.capacity(), 6);
        let mut atom = vec![0.0; a.rows()];
        for j in 0..a.cols() {
            let got = store.column_or_admit(j, |out| gram_column_into(&a, j, &mut atom, out));
            assert_eq!(got.is_some(), j < 6, "column {j}");
        }
        assert_eq!(store.admitted(), 6);
        // A turned-away column stays out even when asked again.
        assert!(store
            .column_or_admit(7, |_| panic!("no admission"))
            .is_none());
        assert!(store.column(7).is_none());
        assert_eq!(store.bytes(), 6 * 10 * 8 + 10 * std::mem::size_of::<Slot>());
    }

    #[test]
    fn barrier_released_racers_build_a_column_once() {
        let a = Arc::new(problem());
        let store = Arc::new(GramStore::new(a.rows(), a.cols()));
        let builds = Arc::new(AtomicUsize::new(0));
        let racers = 8;
        let barrier = Arc::new(Barrier::new(racers));
        let handles: Vec<_> = (0..racers)
            .map(|_| {
                let (a, store, builds, barrier) =
                    (a.clone(), store.clone(), builds.clone(), barrier.clone());
                std::thread::spawn(move || {
                    let mut atom = vec![0.0; a.rows()];
                    barrier.wait();
                    store
                        .column_or_admit(4, |out| {
                            builds.fetch_add(1, Ordering::SeqCst);
                            gram_column_into(a.as_ref(), 4, &mut atom, out);
                        })
                        .map(<[f64]>::to_vec)
                })
            })
            .collect();
        let want = reference(&a, 4);
        for h in handles {
            assert_eq!(h.join().unwrap().as_deref(), Some(want.as_slice()));
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one build per column");
        assert_eq!(store.admitted(), 1);
    }

    #[test]
    fn racing_threads_never_admit_more_than_the_cap() {
        let a = Arc::new(DenseMatrix::from_fn(5, 40, |r, c| (r + 2 * c) as f64));
        for round in 0..20 {
            let store = Arc::new(GramStore::new(a.rows(), a.cols()));
            let threads = 8;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (a, store, barrier) = (a.clone(), store.clone(), barrier.clone());
                    std::thread::spawn(move || {
                        let mut atom = vec![0.0; a.rows()];
                        barrier.wait();
                        // Each thread walks the columns from its own
                        // offset, so admissions interleave.
                        (0..a.cols())
                            .map(|i| (i + t * 5 + round) % a.cols())
                            .filter(|&j| {
                                store
                                    .column_or_admit(j, |out| {
                                        gram_column_into(a.as_ref(), j, &mut atom, out);
                                    })
                                    .is_some()
                            })
                            .count()
                    })
                })
                .collect();
            for h in handles {
                assert!(h.join().unwrap() <= store.capacity());
            }
            assert_eq!(store.admitted(), store.capacity(), "round {round}");
            let held = (0..a.cols()).filter(|&j| store.column(j).is_some()).count();
            assert_eq!(held, store.capacity(), "round {round}: stored columns");
            for j in (0..a.cols()).filter(|&j| store.column(j).is_some()) {
                assert_eq!(store.column(j).unwrap(), reference(&a, j).as_slice());
            }
        }
    }
}
