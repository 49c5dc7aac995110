//! What the two greedy pursuits share: Gram slots and their least
//! squares.
//!
//! [`Omp`](crate::Omp) and [`CoSaMp`](crate::CoSaMp) both run on the
//! slots of the operator's [`GramStore`] (see [`tepics_cs::gram`]): an
//! atom's training Gram column `Aᵀ(mask ⊙ a_j)` followed by its
//! held-out entries `a_j[cv]`. Together with
//! `α⁰ = [Aᵀ(mask ⊙ y); y_cv]` ([`correlations_into`]) those slots give
//! the least squares on any support over all `K` rows without touching
//! the operator again ([`fit_all_rows`]). [`GramSlots`] is the one slot
//! lookup both solvers read through.

use tepics_cs::chol::GrowingCholesky;
use tepics_cs::gram::{gram_column_into, held_out_count, hold_out_in_place, GramStore};
use tepics_cs::op::{self, LinearOperator};

/// An atom without a per-solve slot.
const NO_SLOT: usize = usize::MAX;

/// The Gram slots one solve reads. A slot is a store hit, else an
/// admission into the store, else a per-solve miss memoized by atom, so
/// an atom a full store turned away is computed at most once per solve.
/// A slot is a pure function of the operator and the atom, so which of
/// the three served it never changes a result.
#[derive(Debug)]
pub(crate) struct GramSlots<'w> {
    store: Option<&'w GramStore>,
    /// Slot length: `cols` training entries plus the held-out entries.
    len: usize,
    /// The per-solve misses, one slot after another.
    misses: &'w mut Vec<f64>,
    /// Per atom: the start of its slot in `misses`, or [`NO_SLOT`].
    starts: &'w mut Vec<usize>,
}

impl<'w> GramSlots<'w> {
    /// The slots of `a` for one solve, over workspace buffers that are
    /// reset here.
    // tidy:alloc-free
    pub(crate) fn new(
        a: &'w dyn LinearOperator,
        misses: &'w mut Vec<f64>,
        starts: &'w mut Vec<usize>,
    ) -> Self {
        misses.clear();
        starts.clear();
        starts.resize(a.cols(), NO_SLOT);
        GramSlots {
            store: a.gram_store(),
            len: a.cols() + held_out_count(a.rows()),
            misses,
            starts,
        }
    }

    /// The slot of atom `j`, computed with `atom` (length `a.rows()`) as
    /// scratch unless the store or this solve already holds it.
    // tidy:alloc-free
    pub(crate) fn fetch(&mut self, a: &dyn LinearOperator, j: usize, atom: &mut [f64]) -> &[f64] {
        let store = self.store;
        if let Some(g) =
            store.and_then(|s| s.column_or_admit(j, |g| gram_column_into(a, j, atom, g)))
        {
            return g;
        }
        if self.starts[j] == NO_SLOT {
            let start = self.misses.len();
            // Capacity tracks the most misses a solve on this workspace
            // has needed, not the atom budget.
            self.misses.reserve_exact(self.len);
            self.misses.resize(start + self.len, 0.0);
            gram_column_into(a, j, atom, &mut self.misses[start..]);
            self.starts[j] = start;
        }
        let start = self.starts[j];
        &self.misses[start..start + self.len]
    }

    /// The slot of atom `j`, which [`fetch`](GramSlots::fetch) produced
    /// earlier in this solve.
    // tidy:alloc-free
    pub(crate) fn get(&self, j: usize) -> &[f64] {
        if let Some(g) = self.store.and_then(|s| s.column(j)) {
            return g;
        }
        let start = self.starts[j];
        debug_assert_ne!(start, NO_SLOT, "atom {j} was never fetched");
        &self.misses[start..start + self.len]
    }

    /// Columns of the operator (the training part of a slot).
    fn cols(&self) -> usize {
        self.starts.len()
    }
}

/// The small dense buffers of a greedy solve's normal equations: the
/// growing Cholesky factor, a new atom's cross terms, the right-hand
/// side, the coefficients `gamma` on the support, the forward
/// substitution carried between solves, and the gathered held-out rows
/// of the support.
#[derive(Debug, Clone, Default)]
pub(crate) struct NormalEquations {
    pub(crate) chol: Option<GrowingCholesky>,
    pub(crate) cross: Vec<f64>,
    pub(crate) rhs: Vec<f64>,
    pub(crate) gamma: Vec<f64>,
    pub(crate) forward: Vec<f64>,
    tails: Vec<f64>,
}

/// The workspace's Cholesky factor, emptied and re-targeted at `cap`
/// atoms.
// tidy:alloc-free
pub(crate) fn factor(chol: &mut Option<GrowingCholesky>, cap: usize) -> &mut GrowingCholesky {
    let chol = chol
        // tidy:allow(alloc: cold-path Cholesky factor; warm workspaces reuse it)
        .get_or_insert_with(|| GrowingCholesky::with_capacity(cap));
    chol.reset(cap);
    chol
}

/// Writes `α⁰ = [Aᵀ(mask ⊙ y); y_cv]` into `alpha0` (length `a.cols()`
/// plus the held-out count) and `mask ⊙ y` into `masked`: the
/// correlations every Gram-slot least squares starts from.
// tidy:alloc-free
pub(crate) fn correlations_into(
    a: &dyn LinearOperator,
    y: &[f64],
    masked: &mut Vec<f64>,
    alpha0: &mut Vec<f64>,
) {
    masked.clear();
    masked.extend_from_slice(y);
    alpha0.clear();
    alpha0.resize(a.cols() + held_out_count(a.rows()), 0.0);
    let (train, held_y) = alpha0.split_at_mut(a.cols());
    hold_out_in_place(masked, held_y);
    a.apply_adjoint(masked, train);
}

/// Least squares on `support` over all `K` rows, from Gram slots alone:
/// `(G_train,SS + A_cv,Sᵀ A_cv,S) γ = α⁰_S + A_cv,Sᵀ y_cv`, one Cholesky
/// grown atom by atom in support order, with `tails` gathering
/// `A_cv,S`. Every atom's slot must have been fetched. An atom whose
/// pivot fails (a zero column, or one dependent on the atoms before it)
/// is left out of `support`; `ne.gamma` gets the coefficients of the
/// atoms kept, in order.
// tidy:alloc-free
pub(crate) fn fit_all_rows(
    slots: &GramSlots<'_>,
    alpha0: &[f64],
    support: &mut Vec<usize>,
    ne: &mut NormalEquations,
) {
    let n = slots.cols();
    let held = alpha0.len() - n;
    let (train, held_y) = alpha0.split_at(n);
    let NormalEquations {
        chol,
        cross,
        rhs,
        gamma,
        forward,
        tails,
    } = ne;
    let chol = factor(chol, support.len().max(1));
    rhs.clear();
    tails.clear();
    let mut kept = 0;
    for t in 0..support.len() {
        let i = support[t];
        let g = slots.get(i);
        let tail = &g[n..];
        cross.clear();
        cross.extend(
            support[..kept]
                .iter()
                .enumerate()
                .map(|(s, &j)| g[j] + op::dot(tail, &tails[s * held..(s + 1) * held])),
        );
        if chol.push(cross, g[i] + op::dot(tail, tail)).is_err() {
            continue;
        }
        rhs.push(train[i] + op::dot(tail, held_y));
        tails.extend_from_slice(tail);
        support[kept] = i;
        kept += 1;
    }
    support.truncate(kept);
    gamma.clear();
    forward.clear();
    if kept > 0 {
        chol.solve_into(rhs, gamma, forward);
    }
}

/// `residual = y − A x`, by one explicit forward application.
// tidy:alloc-free
pub(crate) fn residual_into(a: &dyn LinearOperator, x: &[f64], y: &[f64], residual: &mut [f64]) {
    a.apply(x, residual);
    for (r, &yk) in residual.iter_mut().zip(y) {
        *r = yk - *r;
    }
}
