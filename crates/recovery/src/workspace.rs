//! Reusable solver buffers.
//!
//! Every solver in this crate works on a handful of dense vectors
//! (iterates, gradients, residuals, gathered columns, least-squares
//! scratch). A cold [`solve`](crate::Solver::solve) call allocates them
//! afresh; a decoder that runs one solve per frame — the streaming
//! deployment — would pay that allocation and page-touch cost on every
//! frame. [`SolverWorkspace`] owns those buffers so repeated solves
//! reuse the same memory: every `solve_with` path in this crate —
//! including the greedy pursuits and the nested CGLS of the debias pass
//! — takes one and resizes it (a no-op once warm, since
//! shrinking-then-growing a `Vec` within its capacity never
//! reallocates).
//!
//! Reuse is value-transparent: every buffer is reset to the exact state
//! a fresh allocation would have, so a warm solve is bit-identical to a
//! cold one.
//!
//! The buffers fall into three groups, sized independently so nesting
//! works (the debias pass keeps its support in the greedy buffers while
//! its CGLS runs on the `lsq_*` set):
//!
//! * **iterate buffers** (`alpha`…`rows_tmp`) — the proximal and
//!   thresholding loops, and the iterate, correlations and residual of
//!   the greedy pursuits;
//! * **greedy buffers** (`selected`…`normal`) — atom bookkeeping, the
//!   Gram slots OMP and CoSaMP compute for a single solve, and their
//!   normal equations: the growing Cholesky, its right-hand side and
//!   the held-out rows of the all-rows least squares;
//! * **least-squares buffers** (`lsq_*`, `restrict_*`) — the CGLS
//!   vectors and the restricted operator's scatter scratch, used by
//!   [`Cgls`](crate::cg::Cgls) and [`debias`](crate::debias).

use crate::greedy::NormalEquations;
use tepics_cs::ComposedScratch;

/// Reusable buffers shared by every solver in the crate (see the module
/// docs for the three buffer groups).
///
/// # Examples
///
/// ```
/// use tepics_cs::{DenseMatrix, LinearOperator};
/// use tepics_recovery::{Fista, Solver, SolverWorkspace};
/// use tepics_util::SplitMix64;
///
/// let mut rng = SplitMix64::new(1);
/// let a = DenseMatrix::from_fn(12, 24, |_, _| rng.next_gaussian() / 12f64.sqrt());
/// let mut x = vec![0.0; 24];
/// x[7] = 2.0;
/// let y = a.apply_vec(&x);
/// let mut ws = SolverWorkspace::new();
/// // Both solves share the same buffers; results match a cold solve.
/// let warm = Fista::new().solve_with(&a, &y, &mut ws).unwrap();
/// let again = Fista::new().solve_with(&a, &y, &mut ws).unwrap();
/// assert_eq!(warm, again);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    // Iterate buffers (coefficient dimension).
    pub(crate) alpha: Vec<f64>,
    pub(crate) alpha_prev: Vec<f64>,
    pub(crate) z: Vec<f64>,
    pub(crate) grad: Vec<f64>,
    // Iterate buffers (measurement dimension).
    pub(crate) resid: Vec<f64>,
    pub(crate) rows_tmp: Vec<f64>,
    // Greedy buffers.
    pub(crate) selected: Vec<bool>,
    pub(crate) support: Vec<usize>,
    pub(crate) candidate: Vec<usize>,
    pub(crate) keep: Vec<usize>,
    pub(crate) gram_misses: Vec<f64>,
    pub(crate) gram_starts: Vec<usize>,
    pub(crate) normal: NormalEquations,
    // Least-squares buffers (nested CGLS + restricted-operator scratch).
    pub(crate) lsq_x: Vec<f64>,
    pub(crate) lsq_r: Vec<f64>,
    pub(crate) lsq_s: Vec<f64>,
    pub(crate) lsq_p: Vec<f64>,
    pub(crate) lsq_q: Vec<f64>,
    pub(crate) restrict_in: Vec<f64>,
    pub(crate) restrict_out: Vec<f64>,
    // Composed-operator donation (see `take_composed`).
    pub(crate) composed: ComposedScratch,
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow to the problem size on first
    /// use and are reused afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes the iterate buffers for a `rows`×`cols` problem and
    /// zeroes them, restoring the exact state of freshly allocated
    /// buffers. (The greedy and least-squares buffers are prepared by
    /// their consumers, which likewise clear before every read.)
    pub(crate) fn prepare(&mut self, rows: usize, cols: usize) {
        for buf in [
            &mut self.alpha,
            &mut self.alpha_prev,
            &mut self.z,
            &mut self.grad,
        ] {
            buf.clear();
            buf.resize(cols, 0.0);
        }
        for buf in [&mut self.resid, &mut self.rows_tmp] {
            buf.clear();
            buf.resize(rows, 0.0);
        }
    }

    /// Takes the composed-operator scratch held by this workspace, for
    /// donation to a freshly built
    /// [`ComposedOperator`](tepics_cs::ComposedOperator) via
    /// `with_scratch`. The decoder's per-frame pattern is
    /// take → solve → [`store_composed`](SolverWorkspace::store_composed),
    /// so the composition's pixel/dictionary/fused-kernel buffers stay
    /// warm across frames even though the operator itself is rebuilt.
    #[must_use]
    pub fn take_composed(&mut self) -> ComposedScratch {
        std::mem::take(&mut self.composed)
    }

    /// Returns a donation taken with
    /// [`take_composed`](SolverWorkspace::take_composed) after the
    /// solve, keeping the buffers for the next frame.
    pub fn store_composed(&mut self, scratch: ComposedScratch) {
        self.composed = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_cs::chol::GrowingCholesky;

    #[test]
    fn prepare_resets_to_fresh_state() {
        let mut ws = SolverWorkspace::new();
        ws.prepare(3, 5);
        ws.alpha.iter_mut().for_each(|v| *v = 7.0);
        ws.resid.iter_mut().for_each(|v| *v = -1.0);
        ws.prepare(4, 6);
        assert_eq!(ws.alpha, vec![0.0; 6]);
        assert_eq!(ws.alpha_prev, vec![0.0; 6]);
        assert_eq!(ws.z, vec![0.0; 6]);
        assert_eq!(ws.grad, vec![0.0; 6]);
        assert_eq!(ws.resid, vec![0.0; 4]);
        assert_eq!(ws.rows_tmp, vec![0.0; 4]);
    }

    #[test]
    fn shrinking_reuse_keeps_capacity() {
        let mut ws = SolverWorkspace::new();
        ws.prepare(100, 200);
        let cap = ws.alpha.capacity();
        ws.prepare(10, 20);
        ws.prepare(100, 200);
        assert_eq!(ws.alpha.capacity(), cap, "reuse must not reallocate");
    }

    #[test]
    fn chol_is_reused_across_resets() {
        let mut ws = SolverWorkspace::new();
        let chol = ws
            .normal
            .chol
            .get_or_insert_with(|| GrowingCholesky::with_capacity(8));
        chol.push(&[], 4.0).unwrap();
        assert_eq!(chol.dim(), 1);
        chol.reset(4);
        assert_eq!(chol.dim(), 0, "reset empties the factorization");
        chol.push(&[], 9.0).unwrap();
        assert_eq!(chol.solve(&[9.0]), vec![1.0]);
    }
}
