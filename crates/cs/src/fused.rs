//! Fused `ΦᵀΨᵀ` / `ΨΦ` streaming kernels.
//!
//! The composed operator `A = Φ ∘ Ψ` is applied hundreds of times per
//! decode, and the classic two-pass evaluation round-trips an n-pixel
//! intermediate through memory on every call: Φᵀ scatters the whole
//! image, then Ψᵀ reads it all back. This module fuses the two passes
//! *by row blocks*: the measurement operator exposes a streaming
//! protocol that produces (adjoint) or consumes (forward) the pixel
//! image a block of rows at a time, and the dictionary exposes its
//! separable row pass so each block is transformed while it is still
//! L1-resident. Only the final column pass touches the full buffer.
//!
//! Three pieces cooperate:
//!
//! * [`RowStreamedOperator`] — a measurement Φ whose adjoint can emit
//!   the image row-block by row-block after a one-time `begin` pass
//!   (and whose forward application can consume row blocks the same
//!   way). [`crate::XorMeasurement`] implements it with its subset-sum
//!   tables hoisted into the `begin` stage.
//! * [`RowStagedDictionary`] — a dictionary Ψ whose analysis/synthesis
//!   splits into an independent per-row pass plus a whole-buffer
//!   finish/begin pass (separable transforms: DCT, Haar, identity).
//!   [`StagedDictionary`] wraps one with an optional pinned atom so
//!   [`crate::dictionary::ZeroMeanDictionary`] composes transparently.
//! * [`fused_adjoint`] / [`fused_apply`] — the drivers that tile the
//!   two protocols together over [`fused_block_rows`]-sized blocks.
//!
//! # Numeric contract
//!
//! The fused adjoint performs *the same floating-point operations in
//! the same order* as the two-pass reference for the dictionaries in
//! this crate (the row/column passes are shared code), so its results
//! are bit-identical to the unfused path. The fused forward pass
//! reorders the separable synthesis (columns before rows — required so
//! rows finalize blockwise); separability makes that exact in real
//! arithmetic and equal to ≤1e-10 relative in floats, which the
//! property tests pin down across geometries, dictionaries, and
//! solvers. Every kernel is deterministic — no thread-count, warmth, or
//! call-site dependence — so warm≡cold and batch bit-identity are
//! preserved.
//!
//! The kernels inside the blocks may change layout but not arithmetic:
//! the DCT row pass transposes each block so one Lee recursion runs
//! over all its rows, and the XOR adjoint reads packed gang-of-four
//! masks. Each keeps every per-element operation and its order (their
//! tests compare with the per-row and byte-mask oracles bit for bit),
//! so results stay independent of the block split and this contract is
//! unchanged.

use crate::dictionary::Dictionary;
use crate::op::LinearOperator;

/// Reusable buffers for the streaming measurement kernels: the adjoint's
/// per-group subset-sum tables and broadcast vectors, and the forward
/// pass's column sums and per-row tables. Grows on first use; reused
/// (and donated across solves via
/// [`ComposedScratch`](crate::operator::ComposedScratch)) afterwards.
#[derive(Debug, Clone, Default)]
pub struct FusedScratch {
    /// Adjoint: one 256-entry `−2·subset-sum` table per *active*
    /// measurement group, stored densely in activation order.
    pub(crate) tables: Vec<f64>,
    /// Adjoint: indices of the measurement groups with any nonzero `y`.
    pub(crate) active: Vec<u32>,
    /// Adjoint: per gang of four active groups, each array row's four
    /// row-selection mask bytes packed into one `u32` (byte `b` from
    /// the gang's `b`-th group); gang `q` owns `q·M..(q+1)·M`.
    pub(crate) quad_rows: Vec<u32>,
    /// Adjoint: the column-selection masks packed like `quad_rows`;
    /// gang `q` owns `q·N..(q+1)·N`.
    pub(crate) quad_cols: Vec<u32>,
    /// Adjoint: per-array-row broadcast sums `P_i`.
    pub(crate) p: Vec<f64>,
    /// Adjoint: per-array-column broadcast sums `Q_j`.
    pub(crate) q: Vec<f64>,
    /// Forward: image column sums, accumulated across row blocks.
    pub(crate) colsums: Vec<f64>,
    /// Forward: subset-sum tables of the current image row.
    pub(crate) row_tables: Vec<f64>,
}

impl FusedScratch {
    /// An empty scratch; buffers grow to the operator's size on first
    /// use. `const` so it can seed a `thread_local!`.
    #[must_use]
    pub const fn new() -> Self {
        FusedScratch {
            tables: Vec::new(),
            active: Vec::new(),
            quad_rows: Vec::new(),
            quad_cols: Vec::new(),
            p: Vec::new(),
            q: Vec::new(),
            colsums: Vec::new(),
            row_tables: Vec::new(),
        }
    }
}

/// A measurement operator over a 2-D pixel grid whose forward and
/// adjoint applications stream the image by blocks of whole rows.
///
/// The protocol is `begin → block* (→ finish)`: `adjoint_begin` hoists
/// everything that depends only on `y` (subset-sum tables, broadcast
/// vectors), after which `adjoint_block` emits any row range of the
/// adjoint image independently; `apply_begin`/`apply_block`/
/// `apply_finish` mirror it for the forward direction, accumulating
/// into `y` as pixel rows arrive. Calling the blocks in ascending,
/// non-overlapping order over the full row range must reproduce
/// [`LinearOperator::apply_adjoint`] / [`LinearOperator::apply`]
/// bit-for-bit — implementations route both entry points through the
/// same kernels.
pub trait RowStreamedOperator: LinearOperator {
    /// Pixel-grid height M (`rows of the image`, not measurements).
    fn image_rows(&self) -> usize;

    /// Pixel-grid width N.
    fn image_cols(&self) -> usize;

    /// Precomputes the `y`-dependent state for [`RowStreamedOperator::adjoint_block`].
    fn adjoint_begin(&self, y: &[f64], scratch: &mut FusedScratch);

    /// Writes adjoint-image rows `i0..i1` (row-major, `(i1−i0)×N`) into
    /// `block`. Requires a prior [`RowStreamedOperator::adjoint_begin`]
    /// with the same `y`.
    fn adjoint_block(&self, i0: usize, i1: usize, block: &mut [f64], scratch: &FusedScratch);

    /// Zeroes `y` and resets the forward accumulators.
    fn apply_begin(&self, y: &mut [f64], scratch: &mut FusedScratch);

    /// Consumes pixel rows `i0..i1`, accumulating their contribution
    /// into `y`.
    fn apply_block(
        &self,
        i0: usize,
        i1: usize,
        block: &[f64],
        y: &mut [f64],
        scratch: &mut FusedScratch,
    );

    /// Adds the deferred (whole-image) terms after the last block.
    fn apply_finish(&self, y: &mut [f64], scratch: &mut FusedScratch);
}

/// A dictionary whose separable transform splits into an independent
/// per-row pass and a whole-buffer pass, so the row pass can run on
/// cache-hot blocks inside the fused drivers.
///
/// Analysis runs `analyze_rows` on each block then `analyze_finish` on
/// the full buffer; synthesis runs `synthesize_begin` on the full
/// coefficient buffer then `synthesize_rows` on each block. Composing
/// the staged calls over the full buffer must reproduce
/// [`Dictionary::analyze`] bit-for-bit and [`Dictionary::synthesize`]
/// to ≤1e-10 relative (synthesis swaps the separable pass order).
pub trait RowStagedDictionary: Dictionary {
    /// `true` if this dictionary's coefficient/pixel buffers are laid
    /// out on a `width`×`height` row-major grid compatible with the
    /// streaming operator's.
    fn accepts_grid(&self, width: usize, height: usize) -> bool;

    /// In-place analysis row pass over a block of whole rows.
    fn analyze_rows(&self, rows: &mut [f64], scratch: &mut Vec<f64>);

    /// In-place analysis finish (column pass and deeper levels) over
    /// the full buffer.
    fn analyze_finish(&self, buf: &mut [f64], scratch: &mut Vec<f64>);

    /// In-place synthesis begin (column pass and deeper levels) over
    /// the full coefficient buffer.
    fn synthesize_begin(&self, coeffs: &mut [f64], scratch: &mut Vec<f64>);

    /// In-place synthesis row pass over a block of whole rows.
    fn synthesize_rows(&self, rows: &mut [f64], scratch: &mut Vec<f64>);
}

/// A [`RowStagedDictionary`] together with an optional pinned atom,
/// letting [`crate::dictionary::ZeroMeanDictionary`] expose its inner
/// transform's staging while keeping the pin semantics (zero the pinned
/// coefficient before synthesis, after analysis).
#[derive(Clone, Copy)]
pub struct StagedDictionary<'a> {
    inner: &'a dyn RowStagedDictionary,
    pinned: Option<usize>,
}

impl std::fmt::Debug for StagedDictionary<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagedDictionary")
            .field("pinned", &self.pinned)
            .finish_non_exhaustive()
    }
}

impl<'a> StagedDictionary<'a> {
    /// Wraps a staged dictionary with no pinned atom.
    pub fn new(inner: &'a dyn RowStagedDictionary) -> Self {
        StagedDictionary {
            inner,
            pinned: None,
        }
    }

    /// Adds a pinned atom. Returns `None` if one is already pinned
    /// (nested zero-mean wrappers fall back to the two-pass path).
    #[must_use]
    pub fn with_pin(mut self, atom: usize) -> Option<Self> {
        if self.pinned.is_some() {
            return None;
        }
        self.pinned = Some(atom);
        Some(self)
    }

    /// See [`RowStagedDictionary::accepts_grid`].
    pub fn accepts_grid(&self, width: usize, height: usize) -> bool {
        self.inner.accepts_grid(width, height)
    }

    /// See [`RowStagedDictionary::analyze_rows`].
    // tidy:alloc-free
    pub fn analyze_rows(&self, rows: &mut [f64], scratch: &mut Vec<f64>) {
        self.inner.analyze_rows(rows, scratch);
    }

    /// [`RowStagedDictionary::analyze_finish`], then the pin.
    // tidy:alloc-free
    pub fn analyze_finish(&self, buf: &mut [f64], scratch: &mut Vec<f64>) {
        self.inner.analyze_finish(buf, scratch);
        if let Some(pin) = self.pinned {
            buf[pin] = 0.0;
        }
    }

    /// The pin, then [`RowStagedDictionary::synthesize_begin`].
    // tidy:alloc-free
    pub fn synthesize_begin(&self, coeffs: &mut [f64], scratch: &mut Vec<f64>) {
        if let Some(pin) = self.pinned {
            coeffs[pin] = 0.0;
        }
        self.inner.synthesize_begin(coeffs, scratch);
    }

    /// See [`RowStagedDictionary::synthesize_rows`].
    // tidy:alloc-free
    pub fn synthesize_rows(&self, rows: &mut [f64], scratch: &mut Vec<f64>) {
        self.inner.synthesize_rows(rows, scratch);
    }
}

/// Rows per streaming block: targets ~16 KiB of f64 so the scatter
/// target plus the dictionary row pass stay L1-resident. Pure function
/// of the geometry (never of load or thread count), so block boundaries
/// — and therefore results — are deterministic.
pub fn fused_block_rows(rows: usize, cols: usize) -> usize {
    (2048 / cols.max(1)).clamp(1, rows.max(1))
}

/// Fused composed adjoint `α = Ψᵀ Φᵀ y`: Φᵀ emits each row block
/// directly into the coefficient buffer, the dictionary row pass
/// transforms it while cache-hot, and a single column pass finishes —
/// the intermediate pixel image never exists as a separate buffer.
///
/// # Panics
///
/// Panics if `alpha.len()` differs from the pixel count or `y.len()`
/// from the measurement count.
// tidy:alloc-free
pub fn fused_adjoint(
    phi: &dyn RowStreamedOperator,
    psi: &StagedDictionary<'_>,
    y: &[f64],
    alpha: &mut [f64],
    fs: &mut FusedScratch,
    dict_scratch: &mut Vec<f64>,
) {
    let (m, n) = (phi.image_rows(), phi.image_cols());
    assert_eq!(alpha.len(), m * n, "coefficient length mismatch");
    phi.adjoint_begin(y, fs);
    let step = fused_block_rows(m, n);
    let mut i0 = 0;
    while i0 < m {
        let i1 = (i0 + step).min(m);
        let block = &mut alpha[i0 * n..i1 * n];
        phi.adjoint_block(i0, i1, block, fs);
        psi.analyze_rows(block, dict_scratch);
        i0 = i1;
    }
    psi.analyze_finish(alpha, dict_scratch);
}

/// Fused composed forward `y = Φ Ψ α`: synthesis runs its whole-buffer
/// pass first (columns), then each row block is finalized and
/// immediately consumed by Φ's streaming accumulation while still
/// cache-hot.
///
/// `pixels` is the working buffer for the in-place synthesis (donated
/// scratch; resized on first use).
///
/// # Panics
///
/// Panics if `alpha.len()` differs from the pixel count or `y.len()`
/// from the measurement count.
// tidy:alloc-free
pub fn fused_apply(
    phi: &dyn RowStreamedOperator,
    psi: &StagedDictionary<'_>,
    alpha: &[f64],
    y: &mut [f64],
    pixels: &mut Vec<f64>,
    fs: &mut FusedScratch,
    dict_scratch: &mut Vec<f64>,
) {
    let (m, n) = (phi.image_rows(), phi.image_cols());
    assert_eq!(alpha.len(), m * n, "coefficient length mismatch");
    pixels.resize(m * n, 0.0);
    pixels.copy_from_slice(alpha);
    psi.synthesize_begin(pixels, dict_scratch);
    phi.apply_begin(y, fs);
    let step = fused_block_rows(m, n);
    let mut i0 = 0;
    while i0 < m {
        let i1 = (i0 + step).min(m);
        let block = &mut pixels[i0 * n..i1 * n];
        psi.synthesize_rows(block, dict_scratch);
        phi.apply_block(i0, i1, block, y, fs);
        i0 = i1;
    }
    phi.apply_finish(y, fs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rows_is_deterministic_and_bounded() {
        for &(m, n) in &[(1usize, 1usize), (8, 8), (64, 64), (128, 128), (7, 9)] {
            let b = fused_block_rows(m, n);
            assert!(b >= 1 && b <= m, "{m}×{n} gave block {b}");
            assert_eq!(b, fused_block_rows(m, n));
        }
        // ~16 KiB target: 64-wide images stream 32 rows at a time.
        assert_eq!(fused_block_rows(64, 64), 32);
        assert_eq!(fused_block_rows(128, 128), 16);
    }

    #[test]
    fn staged_wrapper_rejects_double_pin() {
        let dict = crate::dictionary::Dct2dDictionary::new(8, 8);
        let staged = StagedDictionary::new(&dict);
        let pinned = staged.with_pin(0).expect("first pin accepted");
        assert!(pinned.with_pin(1).is_none(), "second pin must refuse");
    }
}
