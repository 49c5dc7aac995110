//! Shared operator/dictionary cache for the decode hot path.
//!
//! Rebuilding the measurement operator is pure function of the frame
//! header: `(rows, cols, strategy, seed, k)` fully determines the CA
//! replay, the selection patterns, and therefore Φ. The same goes for
//! the sparsifying dictionary (`(kind, rows, cols)`), for the Gram
//! columns `(Φ·Ψ)ᵀ(Φ·Ψ)e_j` the greedy solvers (Batch-OMP, CoSaMP)
//! consume, and for every solver's
//! operator-norm estimate `‖ΦΨ‖` (a *seeded* power iteration, so it
//! too is deterministic). A decoder that processes a stream of
//! same-seed frames — the paper's video deployment — or a batch of
//! same-seed items therefore rebuilds identical state over and over.
//!
//! [`OperatorCache`] memoizes all four families. It is `Sync`: one
//! cache can be shared across the worker threads of a [`BatchRunner`]
//! run, and because every cached value is bit-identical to what a cold
//! build would produce, warm and cold decodes yield *exactly* the same
//! reconstructions — the batch engine's determinism guarantee survives
//! caching.
//!
//! # One map, one memo path
//!
//! All four families live in one ordered map from a tagged key to a
//! slot, and every lookup takes the same path: touch the slot (stamping
//! it with a fresh LRU tick), build the value inside the slot's
//! [`OnceLock`] outside the cache lock, and let the one caller whose
//! build ran commit its bytes and enforce the budget. The typed lookups
//! only say what to build for their family. The map is a `BTreeMap`, so
//! nothing in the cache iterates a hash map: eviction scans in key
//! order and picks the minimum `(tick, key)`.
//!
//! # Size bounding
//!
//! Every entry is byte-accounted (via [`XorMeasurement::bytes`],
//! [`GramStore::bytes`], and a dictionary size estimate) against a byte
//! budget ([`OperatorCache::with_budget`], default
//! [`DEFAULT_CACHE_BYTES`]). When a newly built entry would push the
//! resident total past the budget, least-recently-used entries are
//! evicted until it fits; an entry larger than the whole budget is
//! returned to the caller but never retained, so **the resident total
//! never exceeds the budget**. Tiled decodes make this matter: every
//! tile geometry of every stream is a distinct key, so a long-lived
//! shared cache would otherwise grow without bound. Eviction only
//! discards memoized values — a later lookup rebuilds the same bytes —
//! so warm, cold, and evicted-then-rebuilt decodes all stay
//! bit-identical.
//!
//! # Key disciplines
//!
//! Every entry family carries the full set of inputs its value depends
//! on — nothing less, or two configurations could silently share state:
//!
//! * operators: [`OperatorKey`] `(rows, cols, strategy, seed, k)`;
//! * dictionaries: `(DictionaryKind, rows, cols)`;
//! * Gram stores: `(OperatorKey, DictionaryKind)` — a Gram column is a
//!   column of `(Φ·Ψ)ᵀ(Φ·Ψ)`, so both factors key it;
//! * norm estimates: `(OperatorKey, DictionaryKind, norm_seed)` — the
//!   **per-solver** power-iteration seed is part of the key because
//!   every solver runs its estimate with its own seed
//!   ([`norm_seeds`](tepics_recovery::solver::norm_seeds)); collapsing
//!   the seed out of the key would hand one solver another's step size
//!   and silently change reconstructions (pinned by a test below).
//!
//! # Gram stores and their cap
//!
//! A Gram store is created empty and fills column by column as OMP and
//! CoSaMP solves select atoms (see [`tepics_cs::gram`]). It is capped at
//! `min(N, max(K, N/2))` columns for a `K`-sample, `N`-atom key: half
//! the full Gram, or about the bytes of a dense `K × N` `Φ·Ψ` if that is
//! more. The cap is sized by measured reuse (at 32×32 tiles, `K = 359`,
//! it cuts the columns a tile recomputes from 4.7 to 2.7). That capped
//! size is booked against the budget when the store is created, so the
//! resident total never moves as columns are admitted. Inside a store
//! nothing is evicted; the cache evicts a store only as a whole, like
//! any other entry, and a later lookup starts a fresh one. Results never
//! depend on what a store holds.
//!
//! The cached Φ is stored in its precompiled fast-path form:
//! [`XorMeasurement`] compiles its selected-row/column index lists and
//! group masks at construction, so every warm lookup hands decoders an
//! operator whose `apply`/`apply_adjoint` are pure gather-sums — the
//! per-frame cost of a warm streaming decode is the solver loop alone.
//!
//! [`BatchRunner`]: crate::batch::BatchRunner

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::decoder::{build_dictionary, DictionaryKind, SharedDictionary};
use crate::error::CoreError;
use crate::strategy::StrategyKind;
use tepics_cs::gram::GramStore;
use tepics_cs::measurement::SelectionMeasurement;
use tepics_cs::XorMeasurement;

/// Default byte budget of a bounded cache (512 MiB).
pub const DEFAULT_CACHE_BYTES: usize = 512 << 20;

/// Fixed per-entry accounting overhead (key, slot bookkeeping, map
/// slack) added to every entry's payload bytes.
const ENTRY_OVERHEAD: usize = 64;

/// Everything that determines a measurement operator — the cache key.
///
/// The `Ord` derive gives cache keys a stable total order, used as the
/// deterministic eviction tie-break (field order: geometry, strategy,
/// seed, measurement count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatorKey {
    /// Array rows (M).
    pub rows: u16,
    /// Array columns (N).
    pub cols: u16,
    /// Strategy family and parameters.
    pub strategy: StrategyKind,
    /// Strategy seed.
    pub seed: u64,
    /// Number of measurements (rows of Φ).
    pub k: usize,
}

/// Counters of an [`OperatorCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Operator lookups that did not build Φ: warm lookups, and
    /// first-touch racers that waited for another caller's build.
    pub hits: u64,
    /// Operator builds: lookups that ran the CA replay themselves. A
    /// key is built once however many callers race on its first touch.
    pub misses: u64,
    /// Entries discarded to respect the byte budget (all families).
    pub evictions: u64,
    /// Bytes currently retained across all entry families.
    pub resident_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served warm (`0.0` for an unused cache).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The key of one entry: its family and that family's inputs. The
/// derived total order is the deterministic tie-break of
/// [`Inner::lru_victim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AnyKey {
    Op(OperatorKey),
    Dict(DictionaryKind, u16, u16),
    Norm(OperatorKey, DictionaryKind, u64),
    Gram(OperatorKey, DictionaryKind),
}

/// One memoized value, of the family its [`AnyKey`] names: Φ with its
/// selection counts, a dictionary, a norm estimate, or a Gram store.
#[derive(Debug, Clone)]
enum Entry {
    Op(Arc<XorMeasurement>, Arc<Vec<f64>>),
    Dict(SharedDictionary),
    Norm(f64),
    Gram(Arc<GramStore>),
}

/// A lazily initialized entry: the value builds behind its own
/// [`OnceLock`] (outside the cache lock); `bytes` stays `0` until the
/// builder commits the entry's accounted size, and uncommitted entries
/// are never evicted.
#[derive(Debug)]
struct Slot {
    cell: Arc<OnceLock<Entry>>,
    bytes: usize,
    tick: u64,
}

/// Everything behind the cache lock: the slot map, the LRU clock, and
/// the byte accounting.
#[derive(Debug, Default)]
struct Inner {
    slots: BTreeMap<AnyKey, Slot>,
    tick: u64,
    resident: usize,
    evictions: u64,
}

impl Inner {
    /// Bumps the LRU clock, touches (or creates) `key`'s slot, and
    /// returns its build cell. Ticks are unique: every touch increments
    /// the clock and stamps the slot with the fresh value, so no two
    /// slots ever carry the same tick (the key tie-break in
    /// [`Inner::lru_victim`] is pure belt-and-suspenders).
    fn touch(&mut self, key: AnyKey) -> Arc<OnceLock<Entry>> {
        self.tick += 1;
        let slot = self.slots.entry(key).or_insert_with(|| Slot {
            cell: Arc::new(OnceLock::new()),
            bytes: 0,
            tick: 0,
        });
        slot.tick = self.tick;
        slot.cell.clone()
    }

    /// Records `bytes` for the entry whose build just ran, provided its
    /// slot still holds the same cell and nothing committed it first,
    /// then evicts to fit `budget`.
    fn commit(&mut self, key: AnyKey, cell: &Arc<OnceLock<Entry>>, bytes: usize, budget: usize) {
        match self.slots.get_mut(&key) {
            Some(slot) if Arc::ptr_eq(&slot.cell, cell) && slot.bytes == 0 => {
                slot.bytes = bytes;
                self.resident += bytes;
            }
            _ => return,
        }
        self.enforce(budget, key);
    }

    /// Removes a committed entry, releasing its bytes.
    fn remove(&mut self, key: AnyKey) {
        if let Some(slot) = self.slots.remove(&key) {
            self.resident -= slot.bytes;
            self.evictions += 1;
        }
    }

    /// The least-recently-touched committed entry other than `protect`:
    /// the minimum by `(tick, key)`. Ticks are unique by construction
    /// (see [`Inner::touch`]); the key tie-break would keep the
    /// eviction sequence deterministic even if they were not.
    fn lru_victim(&self, protect: AnyKey) -> Option<AnyKey> {
        self.slots
            .iter()
            .filter(|&(&key, slot)| slot.bytes > 0 && key != protect)
            .map(|(&key, slot)| (slot.tick, key))
            .min()
            .map(|(_, key)| key)
    }

    /// Evicts LRU entries until the resident total fits `budget`,
    /// protecting the just-committed entry — unless that entry alone
    /// exceeds the budget, in which case it is dropped immediately (its
    /// value was already handed to the caller; it is just not
    /// retained).
    fn enforce(&mut self, budget: usize, protect: AnyKey) {
        if self.slots.get(&protect).is_some_and(|s| s.bytes > budget) {
            self.remove(protect);
            return;
        }
        while self.resident > budget {
            match self.lru_victim(protect) {
                Some(victim) => self.remove(victim),
                // Only the protected entry remains; it fits (checked
                // above), so the accounting says we are done.
                None => break,
            }
        }
    }
}

/// Memoizes measurement operators, dictionaries, Gram stores, and
/// per-solver operator-norm estimates across
/// frames, streams, and batch items — within a byte budget
/// ([`OperatorCache::with_budget`], LRU eviction; see the module docs).
///
/// Cheap to share: wrap in an [`Arc`] (or use [`OperatorCache::shared`])
/// and clone the handle into every decoder/session that should reuse
/// the same state.
/// The inner `Mutex` guards only entry lookup and byte accounting; the
/// expensive builds (CA replay, power iteration) run outside it behind per-key [`OnceLock`]s, so
/// distinct-key work in a parallel batch stays parallel while same-key
/// racers still converge on one value.
///
/// # Examples
///
/// ```
/// use tepics_core::cache::{OperatorCache, DEFAULT_CACHE_BYTES};
///
/// let small = OperatorCache::with_budget(1 << 20);
/// assert_eq!(small.byte_budget(), 1 << 20);
/// assert_eq!(OperatorCache::new().byte_budget(), DEFAULT_CACHE_BYTES);
/// ```
#[derive(Debug)]
pub struct OperatorCache {
    inner: Mutex<Inner>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for OperatorCache {
    fn default() -> Self {
        Self::new()
    }
}

impl OperatorCache {
    /// An empty cache bounded at [`DEFAULT_CACHE_BYTES`] (LRU eviction).
    #[must_use]
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_CACHE_BYTES)
    }

    /// An empty cache bounded at `bytes` (LRU eviction).
    #[must_use]
    pub fn with_budget(bytes: usize) -> Self {
        OperatorCache {
            inner: Mutex::new(Inner::default()),
            budget: bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An empty default-budget cache behind an [`Arc`], ready to share.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The byte budget this cache enforces.
    #[must_use]
    pub fn byte_budget(&self) -> usize {
        self.budget
    }

    /// Acquires the cache lock, recovering from poisoning. A poisoned
    /// lock means another thread panicked while holding the guard; every
    /// mutation under this lock is a single-field write or a complete
    /// map operation, so the inner state stays structurally sound (at
    /// worst the byte accounting is conservative) and the cache keeps
    /// serving rather than cascading the panic.
    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bytes currently retained across all entry families (always at
    /// most the budget).
    pub fn resident_bytes(&self) -> usize {
        self.locked().resident
    }

    /// Counters so far: operator hit/miss counts, evictions across all
    /// families, and the resident byte total.
    pub fn stats(&self) -> CacheStats {
        let inner = self.locked();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: inner.evictions,
            resident_bytes: inner.resident,
        }
    }

    /// The memoized entry for `key`, and whether this call built it.
    ///
    /// The slot is touched under the lock; `build` (returning the entry
    /// and its payload bytes) runs inside the slot's [`OnceLock`]
    /// outside it, so same-key racers wait for one build while distinct
    /// keys build in parallel. The caller whose build ran commits the
    /// bytes and enforces the budget.
    fn memo(&self, key: AnyKey, build: impl FnOnce() -> (Entry, usize)) -> (Entry, bool) {
        let cell = self.locked().touch(key);
        let mut built = None;
        let entry = cell
            .get_or_init(|| {
                let (entry, bytes) = build();
                built = Some(bytes);
                entry
            })
            .clone();
        if let Some(bytes) = built {
            self.locked()
                .commit(key, &cell, ENTRY_OVERHEAD + bytes, self.budget);
        }
        (entry, built.is_some())
    }

    /// The measurement operator and selection counts for `key`,
    /// building and memoizing them on first use.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the strategy parameters
    /// in `key` are invalid; such a key caches nothing.
    pub(crate) fn operator(
        &self,
        key: &OperatorKey,
    ) -> Result<(Arc<XorMeasurement>, Arc<Vec<f64>>), CoreError> {
        key.strategy.validate()?;
        // The CA replay, warm-up included, runs only inside the memo.
        let build = || {
            let (rows, cols) = (usize::from(key.rows), usize::from(key.cols));
            let mut source = key.strategy.source(rows + cols, key.seed);
            let phi = XorMeasurement::from_source(rows, cols, source.as_mut(), key.k);
            let counts = phi.selection_counts();
            (Arc::new(phi), Arc::new(counts))
        };
        let (entry, built) = self.memo(AnyKey::Op(*key), || {
            let (phi, counts) = build();
            let bytes = phi.bytes() + counts.len() * std::mem::size_of::<f64>();
            (Entry::Op(phi, counts), bytes)
        });
        let counter = if built { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(match entry {
            Entry::Op(phi, counts) => (phi, counts),
            _ => build(),
        })
    }

    /// The dictionary for `(kind, rows, cols)`, built on first use.
    pub(crate) fn dictionary(
        &self,
        kind: DictionaryKind,
        rows: u16,
        cols: u16,
    ) -> SharedDictionary {
        let (r, c) = (usize::from(rows), usize::from(cols));
        let build = || build_dictionary(kind, r, c);
        let (entry, _) = self.memo(AnyKey::Dict(kind, rows, cols), || {
            (Entry::Dict(build()), dict_bytes_estimate(kind, r, c))
        });
        match entry {
            Entry::Dict(dict) => dict,
            _ => build(),
        }
    }

    /// The memoized operator-norm estimate `‖ΦΨ‖` for
    /// `(key, kind, norm_seed)`, computing it with `compute` on first
    /// use. `norm_seed` must be the requesting solver's own
    /// power-iteration seed — it is part of the key precisely so two
    /// solvers can never be served each other's estimate. Returns `None`
    /// when the composed operator is (numerically) zero, in which case
    /// the caller must let the solver take its own zero-operator path.
    pub(crate) fn operator_norm(
        &self,
        key: &OperatorKey,
        kind: DictionaryKind,
        norm_seed: u64,
        compute: impl Fn() -> f64,
    ) -> Option<f64> {
        let (entry, _) = self.memo(AnyKey::Norm(*key, kind, norm_seed), || {
            (Entry::Norm(compute()), std::mem::size_of::<f64>())
        });
        let norm = match entry {
            Entry::Norm(norm) => norm,
            _ => compute(),
        };
        (norm > 0.0).then_some(norm)
    }

    /// The shared Gram store for `(key, kind)`: created empty for the
    /// key's `K × rows·cols` composed operator on first use. OMP and
    /// CoSaMP decodes attach it to their composed operator and fill it
    /// as they select atoms. The store's capped bytes are booked when it
    /// is created (see the module docs).
    pub(crate) fn gram_store(&self, key: &OperatorKey, kind: DictionaryKind) -> Arc<GramStore> {
        let build = || {
            let atoms = usize::from(key.rows) * usize::from(key.cols);
            Arc::new(GramStore::new(key.k, atoms))
        };
        let (entry, _) = self.memo(AnyKey::Gram(*key, kind), || {
            let store = build();
            (Entry::Gram(store.clone()), store.bytes())
        });
        match entry {
            Entry::Gram(store) => store,
            _ => build(),
        }
    }
}

/// Approximate heap footprint of a built dictionary (cache
/// accounting): the DCT's 1-D transforms fall back to an `n × n` basis
/// matrix per axis for non-power-of-two lengths, Haar keeps O(pixels)
/// of level scratch, identity stores nothing.
fn dict_bytes_estimate(kind: DictionaryKind, rows: usize, cols: usize) -> usize {
    // The transform itself plus the dictionary's separable atom table
    // (n² atom entries and n sums).
    let dct1d = |n: usize| {
        let transform = if n.is_power_of_two() {
            32 * n
        } else {
            8 * n * n
        };
        transform + 8 * (n * n + n)
    };
    match kind {
        DictionaryKind::Dct2d => dct1d(rows) + dct1d(cols),
        DictionaryKind::Haar2d => 8 * rows * cols,
        DictionaryKind::Identity => std::mem::size_of::<usize>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64, k: usize) -> OperatorKey {
        OperatorKey {
            rows: 16,
            cols: 16,
            strategy: StrategyKind::rule30(64),
            seed,
            k,
        }
    }

    #[test]
    fn operator_is_built_once_per_key() {
        let cache = OperatorCache::new();
        let (phi1, counts1) = cache.operator(&key(7, 40)).unwrap();
        let (phi2, counts2) = cache.operator(&key(7, 40)).unwrap();
        assert!(Arc::ptr_eq(&phi1, &phi2), "second lookup must be warm");
        assert!(Arc::ptr_eq(&counts1, &counts2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn distinct_keys_miss_independently() {
        let cache = OperatorCache::new();
        cache.operator(&key(1, 40)).unwrap();
        cache.operator(&key(2, 40)).unwrap(); // different seed
        cache.operator(&key(1, 50)).unwrap(); // different k
        cache.operator(&key(1, 40)).unwrap(); // warm
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cached_operator_equals_cold_rebuild() {
        let cache = OperatorCache::new();
        let k = key(0xFEED, 32);
        let (phi, counts) = cache.operator(&k).unwrap();
        let mut source = k.strategy.build_source(32, k.seed).unwrap();
        let cold = XorMeasurement::from_source(16, 16, source.as_mut(), 32);
        assert_eq!(*phi, cold);
        assert_eq!(*counts, cold.selection_counts());
    }

    #[test]
    fn invalid_strategy_surfaces_config_error() {
        let cache = OperatorCache::new();
        let bad = OperatorKey {
            rows: 8,
            cols: 8,
            strategy: StrategyKind::Lfsr { width: 64 },
            seed: 1,
            k: 4,
        };
        for _ in 0..2 {
            assert!(matches!(
                cache.operator(&bad),
                Err(CoreError::InvalidConfig(_))
            ));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.resident_bytes), (0, 0, 0));
    }

    /// First-touch racers on one key share a single build, on any core
    /// count: a barrier releases every thread at once, and only the
    /// thread whose closure runs inside the `OnceLock` counts a miss.
    #[test]
    fn first_touch_racers_build_once() {
        use std::sync::Barrier;
        const RACERS: usize = 8;
        let cache = OperatorCache::new();
        let barrier = Barrier::new(RACERS);
        let phis: Vec<Arc<XorMeasurement>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..RACERS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.operator(&key(0x5EED, 60)).unwrap().0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(phis.iter().all(|phi| Arc::ptr_eq(phi, &phis[0])));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one build for {RACERS} racers");
        assert_eq!(stats.hits, RACERS as u64 - 1);
    }

    #[test]
    fn operator_norm_is_computed_once_per_solver_seed() {
        use tepics_recovery::solver::norm_seeds;
        let cache = OperatorCache::new();
        let k = key(3, 10);
        let seed = norm_seeds::FISTA;
        let first = cache.operator_norm(&k, DictionaryKind::Dct2d, seed, || 0.25);
        let second = cache.operator_norm(&k, DictionaryKind::Dct2d, seed, || {
            panic!("must be memoized")
        });
        assert_eq!(first, Some(0.25));
        assert_eq!(second, Some(0.25));
        // A zero norm is remembered as "no override".
        let zero = cache.operator_norm(&k, DictionaryKind::Haar2d, seed, || 0.0);
        assert_eq!(zero, None);
    }

    /// The regression this key shape exists to prevent: two solvers
    /// asking for the norm of the *same* operator/dictionary must get
    /// independent entries (their power iterations run with different
    /// seeds, so their estimates legitimately differ). A key collision
    /// here would silently hand one solver the other's step size.
    #[test]
    fn norm_entries_never_cross_solver_seeds() {
        use tepics_recovery::solver::norm_seeds;
        let cache = OperatorCache::new();
        let k = key(7, 12);
        let fista = cache.operator_norm(&k, DictionaryKind::Dct2d, norm_seeds::FISTA, || 1.25);
        let seed_157a = cache.operator_norm(&k, DictionaryKind::Dct2d, 0x157A, || 1.50);
        let iht = cache.operator_norm(&k, DictionaryKind::Dct2d, norm_seeds::IHT, || 1.75);
        let seed_a3b = cache.operator_norm(&k, DictionaryKind::Dct2d, 0xA3B, || 2.00);
        assert_eq!(fista, Some(1.25));
        assert_eq!(seed_157a, Some(1.50));
        assert_eq!(iht, Some(1.75));
        assert_eq!(seed_a3b, Some(2.00));
        // And each stays what its own solver computed.
        let again = cache.operator_norm(&k, DictionaryKind::Dct2d, norm_seeds::FISTA, || {
            panic!("must be memoized")
        });
        assert_eq!(again, Some(1.25));
    }

    #[test]
    fn gram_stores_are_memoized_per_operator_and_dictionary() {
        let cache = OperatorCache::new();
        let k1 = key(1, 6);
        let a = cache.gram_store(&k1, DictionaryKind::Dct2d);
        let b = cache.gram_store(&k1, DictionaryKind::Dct2d);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be warm");
        let c = cache.gram_store(&k1, DictionaryKind::Identity);
        assert!(!Arc::ptr_eq(&a, &c));
        // The capped bytes are booked at creation, before any admission.
        assert_eq!(a.admitted(), 0);
        assert_eq!(cache.resident_bytes(), 2 * (ENTRY_OVERHEAD + a.bytes()));
        assert_eq!(a.bytes(), c.bytes());
        assert!(
            a.bytes() >= 6 * 256 * 8,
            "a full store's columns are booked"
        );
    }

    /// A Gram store counts against the byte budget like any entry: it
    /// evicts older entries to fit, and is itself evicted whole. At 40
    /// rows OMP holds four measurements out, so each of the 128 slots
    /// (half the 256-column Gram) is booked at 256 training Gram values
    /// plus 4 held-out ones.
    #[test]
    fn gram_stores_count_against_the_byte_budget() {
        let slot = std::mem::size_of::<std::sync::OnceLock<Option<Box<[f64]>>>>();
        assert_eq!(GramStore::new(40, 256).column_len(), 256 + 4);
        assert_eq!(
            GramStore::new(40, 256).bytes(),
            128 * (256 + 4) * 8 + 256 * slot
        );
        let store_bytes = ENTRY_OVERHEAD + GramStore::new(40, 256).bytes();
        let cache = OperatorCache::with_budget(store_bytes * 2);
        let first = cache.gram_store(&key(1, 40), DictionaryKind::Dct2d);
        cache.gram_store(&key(2, 40), DictionaryKind::Dct2d);
        assert_eq!(cache.resident_bytes(), 2 * store_bytes);
        cache.gram_store(&key(3, 40), DictionaryKind::Dct2d);
        assert_eq!(cache.resident_bytes(), 2 * store_bytes);
        assert_eq!(cache.stats().evictions, 1);
        // The oldest store went; a later lookup starts a fresh one.
        let again = cache.gram_store(&key(1, 40), DictionaryKind::Dct2d);
        assert!(!Arc::ptr_eq(&first, &again));
        // A budget too small for one store serves it but keeps nothing.
        let tiny = OperatorCache::with_budget(store_bytes - 1);
        tiny.gram_store(&key(1, 40), DictionaryKind::Dct2d);
        assert_eq!(tiny.resident_bytes(), 0);
    }

    #[test]
    fn dictionaries_are_shared_per_geometry() {
        let cache = OperatorCache::new();
        let a = cache.dictionary(DictionaryKind::Dct2d, 16, 16);
        let b = cache.dictionary(DictionaryKind::Dct2d, 16, 16);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.dictionary(DictionaryKind::Dct2d, 8, 8);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    /// The headline bound: a many-geometry workload (every key
    /// distinct) never pushes the resident total past the budget, and
    /// eviction actually fires.
    #[test]
    fn byte_budget_is_never_exceeded_under_many_geometries() {
        let probe = OperatorCache::new();
        probe.operator(&key(0, 40)).unwrap();
        let one = probe.resident_bytes();
        assert!(one > 0);

        let budget = one * 3 + one / 2; // room for ~3 operators
        let cache = OperatorCache::with_budget(budget);
        for seed in 0..12 {
            cache.operator(&key(seed, 40)).unwrap();
            assert!(
                cache.resident_bytes() <= budget,
                "resident {} exceeds budget {budget} after seed {seed}",
                cache.resident_bytes()
            );
        }
        let stats = cache.stats();
        assert!(
            stats.evictions >= 8,
            "evictions {} too few",
            stats.evictions
        );
        assert_eq!(stats.misses, 12);
    }

    /// Eviction follows recency: touching an entry protects it while
    /// the oldest other entry is discarded.
    #[test]
    fn eviction_is_least_recently_used() {
        let probe = OperatorCache::new();
        probe.operator(&key(0, 40)).unwrap();
        let one = probe.resident_bytes();

        let cache = OperatorCache::with_budget(one * 2 + one / 2);
        cache.operator(&key(1, 40)).unwrap(); // A
        cache.operator(&key(2, 40)).unwrap(); // B
        cache.operator(&key(1, 40)).unwrap(); // touch A → B is LRU
        cache.operator(&key(3, 40)).unwrap(); // C evicts B
        let warm_before = cache.stats().hits;
        cache.operator(&key(1, 40)).unwrap(); // A survived
        assert_eq!(cache.stats().hits, warm_before + 1, "A must still be warm");
        cache.operator(&key(2, 40)).unwrap(); // B was evicted → rebuild
        assert_eq!(cache.stats().misses, 4, "B must have been evicted");
    }

    /// Pins the full eviction *sequence*: victims fall strictly in
    /// touch order, run after run, machine after machine. Ticks are
    /// unique (every touch stamps a fresh clock value), and the
    /// `(tick, key)` tie-break keeps the choice independent of the
    /// scan order even in principle.
    #[test]
    fn eviction_sequence_is_deterministic() {
        let probe = OperatorCache::new();
        probe.operator(&key(0, 40)).unwrap();
        let one = probe.resident_bytes();

        // Room for exactly three same-size entries.
        let cache = OperatorCache::with_budget(3 * one + one / 2);
        cache.operator(&key(1, 40)).unwrap(); // A
        cache.operator(&key(2, 40)).unwrap(); // B
        cache.operator(&key(3, 40)).unwrap(); // C
        cache.operator(&key(2, 40)).unwrap(); // touch B
        cache.operator(&key(1, 40)).unwrap(); // touch A → LRU order: C, B, A
        cache.operator(&key(4, 40)).unwrap(); // D must evict C
        cache.operator(&key(5, 40)).unwrap(); // E must evict B
        assert_eq!(cache.stats().evictions, 2);

        // Survivors (A, D, E) are warm; victims (B, C) rebuild, in
        // exactly that order and no other.
        let misses_before = cache.stats().misses;
        for seed in [1, 4, 5] {
            cache.operator(&key(seed, 40)).unwrap();
        }
        assert_eq!(cache.stats().misses, misses_before, "A/D/E must be warm");
        cache.operator(&key(2, 40)).unwrap();
        cache.operator(&key(3, 40)).unwrap();
        assert_eq!(
            cache.stats().misses,
            misses_before + 2,
            "B and C must have been the victims"
        );
    }

    /// Exercises the tie-break directly: with ticks forced equal, the
    /// victim is the smallest key in the derived total order — a choice
    /// no insertion or scan order can influence.
    #[test]
    fn lru_tie_break_is_key_ordered() {
        let mut inner = Inner::default();
        for seed in [9u64, 3, 7, 1, 5] {
            inner.slots.insert(
                AnyKey::Op(key(seed, 8)),
                Slot {
                    cell: Arc::new(OnceLock::new()),
                    bytes: 1,
                    tick: 42,
                },
            );
        }
        assert_eq!(
            inner.lru_victim(AnyKey::Op(key(1, 8))),
            Some(AnyKey::Op(key(3, 8)))
        );
        assert_eq!(
            inner.lru_victim(AnyKey::Op(key(3, 8))),
            Some(AnyKey::Op(key(1, 8)))
        );
    }

    /// Recency alone picks victims across families: an operator, a
    /// dictionary, a norm and a Gram store, touched in an order that is
    /// neither their creation order nor their key order, are evicted in
    /// exactly that touch order as newer entries arrive.
    #[test]
    fn eviction_crosses_families_in_touch_order() {
        let k = key(1, 40);
        let op = AnyKey::Op(k);
        let dict = AnyKey::Dict(DictionaryKind::Dct2d, 16, 16);
        let norm = AnyKey::Norm(k, DictionaryKind::Dct2d, 7);
        let gram = AnyKey::Gram(k, DictionaryKind::Dct2d);
        let lookup = |cache: &OperatorCache, which: AnyKey| match which {
            AnyKey::Op(_) => drop(cache.operator(&k).unwrap()),
            AnyKey::Dict(..) => drop(cache.dictionary(DictionaryKind::Dct2d, 16, 16)),
            AnyKey::Norm(..) => drop(cache.operator_norm(&k, DictionaryKind::Dct2d, 7, || 1.0)),
            AnyKey::Gram(..) => drop(cache.gram_store(&k, DictionaryKind::Dct2d)),
        };
        let probe = OperatorCache::new();
        for which in [op, dict, norm, gram] {
            lookup(&probe, which);
        }
        // The four fill the budget exactly; any newer entry evicts.
        let cache = OperatorCache::with_budget(probe.resident_bytes());
        for which in [op, dict, norm, gram] {
            lookup(&cache, which);
        }
        assert_eq!(cache.stats().evictions, 0);
        let touch_order = [gram, op, norm, dict];
        for which in touch_order {
            lookup(&cache, which);
        }
        // Newer norm entries push the four out one at a time; once the
        // fillers alone would fill the budget, none of the four is left.
        let filler = ENTRY_OVERHEAD + std::mem::size_of::<f64>();
        let mut victims = Vec::new();
        for seed in 0..=(cache.byte_budget() / filler) as u64 {
            cache.operator_norm(&key(2, 40), DictionaryKind::Dct2d, seed, || 1.0);
            let inner = cache.locked();
            let before = victims.len();
            for which in touch_order {
                if !victims.contains(&which) && !inner.slots.contains_key(&which) {
                    victims.push(which);
                }
            }
            assert!(victims.len() <= before + 1, "one victim per filler");
            assert!(inner.resident <= cache.byte_budget());
            if victims.len() == touch_order.len() {
                break;
            }
        }
        assert_eq!(victims, touch_order);
        assert_eq!(cache.stats().evictions, 4);
    }

    /// An entry larger than the whole budget is served but not
    /// retained — the bound holds even then.
    #[test]
    fn oversized_entries_are_served_but_not_retained() {
        let cache = OperatorCache::with_budget(64);
        let (phi, _) = cache.operator(&key(5, 40)).unwrap();
        assert_eq!(phi.array_rows(), 16);
        assert_eq!(cache.resident_bytes(), 0, "oversized entry must not stay");
        // Every repeat is a rebuild, never a budget violation.
        cache.operator(&key(5, 40)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert!(stats.resident_bytes <= 64);
    }

    /// Every cache is bounded; the default budget holds a small
    /// workload whole, so nothing is evicted.
    #[test]
    fn default_cache_is_bounded_and_keeps_small_workloads() {
        let cache = OperatorCache::new();
        assert_eq!(cache.byte_budget(), DEFAULT_CACHE_BYTES);
        for seed in 0..10 {
            cache.operator(&key(seed, 40)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.misses, 10);
        assert!(stats.resident_bytes > 0);
    }

    /// Rebuilt-after-eviction values equal the originals bit for bit
    /// (eviction only discards memoization, never changes results).
    #[test]
    fn evicted_entries_rebuild_identically() {
        let probe = OperatorCache::new();
        let k = key(9, 40);
        let (cold_phi, cold_counts) = probe.operator(&k).unwrap();
        let one = probe.resident_bytes();

        let cache = OperatorCache::with_budget(one + one / 2);
        cache.operator(&k).unwrap();
        cache.operator(&key(10, 40)).unwrap(); // evicts k
        let (again_phi, again_counts) = cache.operator(&k).unwrap();
        assert!(cache.stats().evictions >= 1);
        assert_eq!(*again_phi, *cold_phi);
        assert_eq!(*again_counts, *cold_counts);
    }
}
