//! A capped, shared store of Gram columns.
//!
//! Batch-OMP (`Omp` in `tepics-recovery`) never forms a residual: it
//! runs on the correlations `α = Aᵀy − G_I·γ_I`, which need the Gram
//! columns `G[:, j] = Aᵀ a_j` of the selected atoms. CoSaMP builds its
//! least squares on each merged support from the same columns. A column
//! depends only on the operator and `j`, so every solve against one
//! operator — all the shifted tiles of a frame and every later frame of
//! the same key, whichever of the two solvers runs — can share it.
//! [`GramStore`] is that sharing point. A
//! [`ComposedOperator`](crate::ComposedOperator) with an attached store
//! answers [`LinearOperator::gram_store`] with it.
//!
//! # Held-out rows and the slot layout
//!
//! OMP stops each solve where the residual on a few held-out
//! measurements is least (see `tepics_recovery::omp`). The held-out
//! rows are [`held_out_rows`]: every tenth row (`r % 10 == 9`) of an
//! operator with at least 40 rows, none below. The subset depends on
//! the row count `K` alone, so every tile of a key and every frame see
//! the same split and keep sharing one store. Rule-30 rows are already
//! pseudo-random, so a stride is a fair sample.
//!
//! A slot therefore holds [`GramStore::column_len`] `= N + m_cv` values
//! for a `K × N` operator with `m_cv` held-out rows:
//!
//! * the head, `N` values: the training Gram column `Aᵀ(mask ⊙ a_j)`,
//!   where `mask` zeroes the held-out rows;
//! * the tail, `m_cv` values: the held-out entries `a_j[cv]` of the
//!   atom itself.
//!
//! [`gram_column_into`] computes both from one `a_j = A e_j`, so the
//! solve needs no extra operator call. Without held-out rows the slot
//! is the plain Gram column. Head and tail together give the normal
//! equations on any support over all `K` rows, which is how OMP's
//! final re-fit and every CoSaMP least squares are built.
//!
//! # The cap
//!
//! A full Gram is `N` columns of `N` values (8 MiB in `f64` at 32×32).
//! The store holds at most `min(N, max(K, N/2))` columns for a `K × N`
//! operator: half the full Gram, or `K` columns (about the bytes of the
//! operator itself as a dense `K × N` matrix) if that is more. The rule
//! depends on the geometry alone. It is sized by measured reuse: every
//! tile of a 256×256 frame of 32×32 tiles (`K = 359`) solves against one
//! key's store, which fills within the first frame. Replaying one
//! stream's recorded requests through first-come stores gives 4.73
//! misses per tile at 359 columns, 2.72 at 512, 1.47 at 640 and none at
//! 1024, and every miss recomputes its column once per solve. Each
//! further column also costs heap, twice over when a process keeps a
//! second cache of the same key alive. Half the Gram gains about 18%
//! frames/s on that stream over `K` columns for about 8% more peak
//! heap; a full Gram gains 50% for 30%.
//!
//! Admission is first-come and single-flight per column: the first
//! request for a column reserves a ticket and computes it while racers
//! on the same column wait, and racers on other columns proceed in
//! parallel. Nothing is ever evicted
//! from a store, so a column admitted once is served for the store's
//! whole life, and a column turned away by a full store is turned away
//! for good — its requester computes it into its own scratch, once per
//! solve.
//!
//! A column is a pure function of `(operator, j)` whoever computes it,
//! so what a store holds can change which thread pays for a column,
//! never a solve's result.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::op::LinearOperator;

/// Operators with fewer rows than this hold no row out.
const HOLD_OUT_MIN_ROWS: usize = 40;

/// One row in this many is held out.
const HOLD_OUT_STRIDE: usize = 10;

/// The held-out rows of a `rows`-row operator, ascending: every tenth
/// row (`r % 10 == 9`) once `rows ≥ 40`, none below (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// use tepics_cs::gram::held_out_rows;
///
/// assert_eq!(held_out_rows(39).count(), 0);
/// assert_eq!(held_out_rows(45).collect::<Vec<_>>(), [9, 19, 29, 39]);
/// assert_eq!(held_out_rows(359).count(), 35);
/// ```
pub fn held_out_rows(rows: usize) -> std::iter::StepBy<std::ops::Range<usize>> {
    let end = if rows >= HOLD_OUT_MIN_ROWS { rows } else { 0 };
    (HOLD_OUT_STRIDE - 1..end).step_by(HOLD_OUT_STRIDE)
}

/// How many rows [`held_out_rows`] holds out of a `rows`-row operator.
#[must_use]
pub fn held_out_count(rows: usize) -> usize {
    if rows >= HOLD_OUT_MIN_ROWS {
        rows / HOLD_OUT_STRIDE
    } else {
        0
    }
}

/// Moves the held-out entries of the measurement-length `v` into `held`
/// (length [`held_out_count`]`(v.len())`) and zeroes them in `v`, which
/// then holds `mask ⊙ v`. The one definition of the split: Gram slots
/// and the greedy solvers' right-hand side both go through it.
///
/// # Panics
///
/// Panics if `held.len()` is not the held-out count of `v.len()`.
// tidy:alloc-free
pub fn hold_out_in_place(v: &mut [f64], held: &mut [f64]) {
    assert_eq!(
        held.len(),
        held_out_count(v.len()),
        "held-out length mismatch"
    );
    for (h, r) in held.iter_mut().zip(held_out_rows(v.len())) {
        *h = v[r];
        v[r] = 0.0;
    }
}

/// One column slot: `Some` once admitted, `None` once turned away by a
/// full store, uninitialized before its first request.
type Slot = OnceLock<Option<Box<[f64]>>>;

/// Up to [`capacity`](GramStore::capacity) memoized Gram slots of one
/// `rows × cols` operator: the training Gram column `Aᵀ(mask ⊙ a_j)`
/// followed by the held-out entries `a_j[cv]` (see the
/// [module docs](self)).
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
/// assert_eq!(store.column_len(), 3, "two rows hold nothing out");
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
    len: usize,
    cap: usize,
    admitted: AtomicUsize,
    slots: Box<[Slot]>,
}

impl GramStore {
    /// An empty store for a `rows × cols` operator, capped at
    /// `min(cols, max(rows, cols / 2))` columns (see the
    /// [module docs](self)).
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        GramStore {
            rows,
            cols,
            len: cols + held_out_count(rows),
            cap: cols.min(rows.max(cols / 2)),
            admitted: AtomicUsize::new(0),
            slots: (0..cols).map(|_| Slot::new()).collect(),
        }
    }

    /// Rows of the operator the store serves.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the operator.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The length of every slot: `cols()` training Gram entries plus
    /// [`held_out_count`]`(rows())` held-out atom entries.
    #[must_use]
    pub fn column_len(&self) -> usize {
        self.len
    }

    /// The most columns the store will ever hold,
    /// `min(cols, max(rows, cols / 2))`: half the full Gram, or `rows`
    /// columns if that is more.
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
    /// store's [`capacity`](GramStore::capacity) columns of
    /// `column_len()` values plus the per-column slots. A cache books it
    /// in full when the store is created, so admissions never move the
    /// accounted total.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.cap * self.len * std::mem::size_of::<f64>() + self.cols * std::mem::size_of::<Slot>()
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
    /// has room: `fill` then writes the slot (as [`gram_column_into`]
    /// does) into the new column. Other
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
                    let mut column = vec![0.0; self.len].into_boxed_slice();
                    fill(&mut column);
                    column
                })
            })
            .as_deref()
    }
}

/// Writes the Gram slot of atom `j` into `out` (length `a.cols()` plus
/// [`held_out_count`]`(a.rows())`): the training Gram column
/// `Aᵀ(mask ⊙ a_j)` followed by the held-out entries `a_j[cv]`, with
/// `atom` (length `a.rows()`) as scratch for `a_j`. Without held-out
/// rows that is the plain Gram column `G[:, j] = Aᵀ a_j`. The one
/// definition of a slot: the store's admissions and the solver's own
/// misses both call it, so a slot is bit-identical wherever it was
/// computed.
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
    let (gram, held) = out.split_at_mut(a.cols());
    a.column_into(j, atom);
    hold_out_in_place(atom, held);
    a.apply_adjoint(atom, gram);
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

    /// The cap is half the Gram or `rows` columns, whichever is more,
    /// and never more than the Gram: pinned at the geometries decoders
    /// use (16×16, 32×32 and 64×64 tiles at ratio 0.35, 32×32 at 0.7)
    /// and at this module's small test operators.
    #[test]
    fn the_cap_is_half_the_gram_or_the_row_count() {
        for ((rows, cols), cap) in [
            ((89, 256), 128),
            ((359, 1024), 512),
            ((717, 1024), 717),
            ((1434, 4096), 2048),
            ((6, 10), 6),
            ((2, 3), 2),
        ] {
            assert_eq!(GramStore::new(rows, cols).capacity(), cap, "{rows}×{cols}");
        }
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
    fn slots_hold_the_training_gram_then_the_held_out_entries() {
        // 45 rows hold out rows 9, 19, 29 and 39.
        let a = DenseMatrix::from_fn(45, 12, |r, c| ((r * 5 + c * 11) % 7) as f64 - 3.0);
        let held: Vec<usize> = held_out_rows(45).collect();
        assert_eq!(held, [9, 19, 29, 39]);
        assert_eq!(held_out_count(45), held.len());
        let store = GramStore::new(a.rows(), a.cols());
        assert_eq!(store.column_len(), 12 + 4);
        assert_eq!(store.capacity(), 12);
        let mut atom = vec![0.0; a.rows()];
        for j in [0, 7, 11] {
            let got = store
                .column_or_admit(j, |out| gram_column_into(&a, j, &mut atom, out))
                .unwrap();
            let mut masked = a.column(j);
            let tail: Vec<f64> = held.iter().map(|&r| masked[r]).collect();
            for &r in &held {
                masked[r] = 0.0;
            }
            assert_eq!(
                &got[..12],
                a.apply_adjoint_vec(&masked).as_slice(),
                "head {j}"
            );
            assert_eq!(&got[12..], tail.as_slice(), "tail {j}");
        }
        // Booked in full: every slot at its held-out length.
        assert_eq!(
            store.bytes(),
            12 * (12 + 4) * 8 + 12 * std::mem::size_of::<Slot>()
        );
        // Below 40 rows nothing is held out and a slot is G[:, j].
        assert_eq!(held_out_rows(39).count(), 0);
        assert_eq!(GramStore::new(39, 12).column_len(), 12);
    }

    #[test]
    fn hold_out_in_place_moves_exactly_the_held_rows() {
        let mut v: Vec<f64> = (0..40).map(f64::from).collect();
        let mut held = vec![0.0; 4];
        hold_out_in_place(&mut v, &mut held);
        assert_eq!(held, [9.0, 19.0, 29.0, 39.0]);
        for (r, &x) in v.iter().enumerate() {
            let want = if r % 10 == 9 { 0.0 } else { r as f64 };
            assert_eq!(x, want, "row {r}");
        }
        let mut short: Vec<f64> = (0..39).map(f64::from).collect();
        let before = short.clone();
        hold_out_in_place(&mut short, &mut []);
        assert_eq!(short, before);
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
