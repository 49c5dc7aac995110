//! Sparsifying dictionaries Ψ.
//!
//! The decoder models the image as `x = Ψ α` with sparse `α`. All
//! dictionaries here are orthonormal (`analyze` is the exact adjoint and
//! inverse of `synthesize`), which both the recovery theory and the
//! mean-split decoder rely on. [`ZeroMeanDictionary`] removes the DC
//! atom: the 0/1 measurement gives the DC direction a gain ~`M·N/2`
//! larger than any zero-sum atom, so the pipeline estimates the mean
//! separately (from the known per-row selection counts) and recovers
//! only the zero-mean component through Ψ — see `tepics-core`'s decoder.

use crate::fused::{RowStagedDictionary, StagedDictionary};
use tepics_imaging::{Dct1d, Dct2d, Haar2d};

/// An orthonormal synthesis/analysis pair.
pub trait Dictionary {
    /// Signal dimension (pixel count).
    fn dim(&self) -> usize;

    /// Number of atoms (equals `dim` for the orthonormal bases here).
    fn atoms(&self) -> usize;

    /// Computes `x = Ψ α`.
    ///
    /// # Panics
    ///
    /// Implementations panic on length mismatches.
    fn synthesize(&self, alpha: &[f64], x: &mut [f64]);

    /// Computes `α = Ψᵀ x`.
    ///
    /// # Panics
    ///
    /// Implementations panic on length mismatches.
    fn analyze(&self, x: &[f64], alpha: &mut [f64]);

    /// Like [`synthesize`](Dictionary::synthesize), reusing `scratch`
    /// across calls so hot loops run allocation-free. The default
    /// forwards to `synthesize`; transform-backed dictionaries override
    /// it to route their internal buffers through `scratch`. Results
    /// are identical to `synthesize` either way.
    fn synthesize_with(&self, alpha: &[f64], x: &mut [f64], scratch: &mut Vec<f64>) {
        let _ = scratch;
        self.synthesize(alpha, x);
    }

    /// Like [`analyze`](Dictionary::analyze), reusing `scratch`; see
    /// [`synthesize_with`](Dictionary::synthesize_with).
    fn analyze_with(&self, x: &[f64], alpha: &mut [f64], scratch: &mut Vec<f64>) {
        let _ = scratch;
        self.analyze(x, alpha);
    }

    /// Allocating convenience for [`synthesize`](Dictionary::synthesize).
    fn synthesize_vec(&self, alpha: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.dim()];
        self.synthesize(alpha, &mut x);
        x
    }

    /// Allocating convenience for [`analyze`](Dictionary::analyze).
    fn analyze_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut a = vec![0.0; self.atoms()];
        self.analyze(x, &mut a);
        a
    }

    /// The row-staged view of this dictionary, when its separable
    /// transform exposes an independent per-row pass (see
    /// [`crate::fused`]). The composed operator uses it to fuse the
    /// transform with a row-streamed measurement; the default is
    /// `None`. [`ZeroMeanDictionary`] forwards its inner view with the
    /// pinned atom attached.
    fn row_staged(&self) -> Option<StagedDictionary<'_>> {
        None
    }

    /// The 1-D atom factors of this dictionary on a `width`×`height`
    /// pixel grid, when its atoms are separable: atom `a·width + b` is
    /// the image `h_a ⊗ w_b`, with `h_a` the vertical factor and `w_b`
    /// the horizontal one (see [`SeparableFactors`]). The composed
    /// operator uses it with an XOR measurement to build `Φ·Ψ` columns
    /// in closed form. The default is `None`; [`ZeroMeanDictionary`]
    /// forwards its inner factors with the pinned atom attached.
    fn separable(&self, width: usize, height: usize) -> Option<SeparableFactors<'_>> {
        let _ = (width, height);
        None
    }
}

impl std::fmt::Debug for dyn Dictionary + Send + Sync + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dyn Dictionary({} atoms)", self.atoms())
    }
}

/// The atoms of one axis of a separable dictionary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AtomFactors<'a> {
    /// The `n` unit vectors `e_a` (the identity dictionary).
    Unit(usize),
    /// Dense atoms: atom `a` is `basis[a·n..(a+1)·n]` and `sums[a]` the
    /// sum of its entries.
    Dense {
        /// Row-major `n×n` table, one atom per row.
        basis: &'a [f64],
        /// Per-atom entry sums.
        sums: &'a [f64],
    },
}

impl AtomFactors<'_> {
    /// Atom length (and count) `n`.
    pub(crate) fn len(&self) -> usize {
        match self {
            AtomFactors::Unit(n) => *n,
            AtomFactors::Dense { sums, .. } => sums.len(),
        }
    }

    /// `Σ_i f_a[i]`, the entry sum of atom `a`.
    pub(crate) fn sum(&self, a: usize) -> f64 {
        match self {
            AtomFactors::Unit(_) => 1.0,
            AtomFactors::Dense { sums, .. } => sums[a],
        }
    }

    /// `Σ_{i∈sel} f_a[i]` over an ascending index set, in one fixed
    /// summation order, so every caller gets the same bits.
    // tidy:alloc-free
    #[inline]
    pub(crate) fn selected_sum(&self, a: usize, sel: &[u32]) -> f64 {
        match self {
            AtomFactors::Unit(_) => {
                if sel.binary_search(&(a as u32)).is_ok() {
                    1.0
                } else {
                    0.0
                }
            }
            AtomFactors::Dense { basis, sums } => {
                let n = sums.len();
                crate::op::gather_sum(&basis[a * n..(a + 1) * n], sel)
            }
        }
    }
}

/// The 1-D factors of a separable dictionary on a pixel grid, returned
/// by [`Dictionary::separable`].
///
/// Atom `a·width + b` is the image with pixel `(i, j)` equal to
/// `vertical[a][i] · horizontal[b][j]` (the 2-D DCT's coefficient
/// layout), except that the `pinned` atom, when set, synthesizes the
/// zero image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeparableFactors<'a> {
    /// Factors along the image's height (indexed by pixel row).
    pub(crate) vertical: AtomFactors<'a>,
    /// Factors along the image's width (indexed by pixel column).
    pub(crate) horizontal: AtomFactors<'a>,
    /// An atom pinned to the zero image ([`ZeroMeanDictionary`]).
    pub(crate) pinned: Option<usize>,
}

/// One axis of a DCT dictionary's separable atoms, precomputed from its
/// own 1-D transform.
#[derive(Debug, Clone)]
struct AtomTable {
    basis: Vec<f64>,
    sums: Vec<f64>,
}

impl AtomTable {
    fn new(dct: &Dct1d) -> Self {
        let basis = dct.basis();
        let sums = basis
            .chunks_exact(dct.len())
            .map(|atom| atom.iter().sum())
            .collect();
        AtomTable { basis, sums }
    }

    fn factors(&self) -> AtomFactors<'_> {
        AtomFactors::Dense {
            basis: &self.basis,
            sums: &self.sums,
        }
    }
}

/// 2-D DCT dictionary: atoms are the separable cosine basis images.
///
/// # Examples
///
/// ```
/// use tepics_cs::{Dct2dDictionary, Dictionary};
///
/// let psi = Dct2dDictionary::new(8, 8);
/// let alpha = psi.analyze_vec(&vec![1.0; 64]);
/// // Constant image = pure DC atom.
/// assert!((alpha[0] - 8.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Dct2dDictionary {
    dct: Dct2d,
    /// Atoms of the row transform (length `width`).
    horizontal: AtomTable,
    /// Atoms of the column transform (length `height`).
    vertical: AtomTable,
}

impl Dct2dDictionary {
    /// Creates a DCT dictionary for `width`×`height` images.
    pub fn new(width: usize, height: usize) -> Self {
        let dct = Dct2d::new(width, height);
        let horizontal = AtomTable::new(dct.row_transform());
        let vertical = AtomTable::new(dct.col_transform());
        Dct2dDictionary {
            dct,
            horizontal,
            vertical,
        }
    }

    /// Index of the DC atom (always 0 for the DCT).
    pub fn dc_index(&self) -> usize {
        0
    }
}

impl Dictionary for Dct2dDictionary {
    fn dim(&self) -> usize {
        self.dct.len()
    }

    fn atoms(&self) -> usize {
        self.dct.len()
    }

    fn synthesize(&self, alpha: &[f64], x: &mut [f64]) {
        self.dct.inverse_with(alpha, x, &mut Vec::new());
    }

    fn analyze(&self, x: &[f64], alpha: &mut [f64]) {
        self.dct.forward_with(x, alpha, &mut Vec::new());
    }

    fn synthesize_with(&self, alpha: &[f64], x: &mut [f64], scratch: &mut Vec<f64>) {
        self.dct.inverse_with(alpha, x, scratch);
    }

    fn analyze_with(&self, x: &[f64], alpha: &mut [f64], scratch: &mut Vec<f64>) {
        self.dct.forward_with(x, alpha, scratch);
    }

    fn row_staged(&self) -> Option<StagedDictionary<'_>> {
        Some(StagedDictionary::new(self))
    }

    fn separable(&self, width: usize, height: usize) -> Option<SeparableFactors<'_>> {
        (self.dct.width() == width && self.dct.height() == height).then(|| SeparableFactors {
            vertical: self.vertical.factors(),
            horizontal: self.horizontal.factors(),
            pinned: None,
        })
    }
}

impl RowStagedDictionary for Dct2dDictionary {
    fn accepts_grid(&self, width: usize, height: usize) -> bool {
        self.dct.width() == width && self.dct.height() == height
    }

    // tidy:alloc-free
    fn analyze_rows(&self, rows: &mut [f64], scratch: &mut Vec<f64>) {
        self.dct.ensure_scratch(scratch);
        self.dct.rows_pass(rows, scratch, true);
    }

    // tidy:alloc-free
    fn analyze_finish(&self, buf: &mut [f64], scratch: &mut Vec<f64>) {
        self.dct.ensure_scratch(scratch);
        self.dct.cols_pass(buf, scratch, true);
    }

    // tidy:alloc-free
    fn synthesize_begin(&self, coeffs: &mut [f64], scratch: &mut Vec<f64>) {
        self.dct.ensure_scratch(scratch);
        self.dct.cols_pass(coeffs, scratch, false);
    }

    // tidy:alloc-free
    fn synthesize_rows(&self, rows: &mut [f64], scratch: &mut Vec<f64>) {
        self.dct.ensure_scratch(scratch);
        self.dct.rows_pass(rows, scratch, false);
    }
}

/// 2-D Haar wavelet dictionary.
#[derive(Debug, Clone)]
pub struct Haar2dDictionary {
    haar: Haar2d,
}

impl Haar2dDictionary {
    /// Creates a Haar dictionary with the deepest level count the
    /// dimensions allow.
    pub fn new(width: usize, height: usize) -> Self {
        let levels = Haar2d::max_levels(width, height);
        Haar2dDictionary {
            haar: Haar2d::new(width, height, levels),
        }
    }

    /// Creates a Haar dictionary with an explicit level count.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are not divisible by `2^levels`.
    pub fn with_levels(width: usize, height: usize, levels: usize) -> Self {
        Haar2dDictionary {
            haar: Haar2d::new(width, height, levels),
        }
    }

    /// Index of the scaling (DC) atom (always 0).
    pub fn dc_index(&self) -> usize {
        0
    }
}

impl Dictionary for Haar2dDictionary {
    fn dim(&self) -> usize {
        self.haar.len()
    }

    fn atoms(&self) -> usize {
        self.haar.len()
    }

    fn synthesize(&self, alpha: &[f64], x: &mut [f64]) {
        self.haar.inverse_with(alpha, x, &mut Vec::new());
    }

    fn analyze(&self, x: &[f64], alpha: &mut [f64]) {
        self.haar.forward_with(x, alpha, &mut Vec::new());
    }

    fn synthesize_with(&self, alpha: &[f64], x: &mut [f64], scratch: &mut Vec<f64>) {
        self.haar.inverse_with(alpha, x, scratch);
    }

    fn analyze_with(&self, x: &[f64], alpha: &mut [f64], scratch: &mut Vec<f64>) {
        self.haar.forward_with(x, alpha, scratch);
    }

    fn row_staged(&self) -> Option<StagedDictionary<'_>> {
        Some(StagedDictionary::new(self))
    }
}

impl RowStagedDictionary for Haar2dDictionary {
    fn accepts_grid(&self, width: usize, height: usize) -> bool {
        self.haar.width() == width && self.haar.height() == height
    }

    // tidy:alloc-free
    fn analyze_rows(&self, rows: &mut [f64], scratch: &mut Vec<f64>) {
        self.haar.forward_rows_step(rows, scratch);
    }

    // tidy:alloc-free
    fn analyze_finish(&self, buf: &mut [f64], scratch: &mut Vec<f64>) {
        self.haar.forward_finish(buf, scratch);
    }

    // tidy:alloc-free
    fn synthesize_begin(&self, coeffs: &mut [f64], scratch: &mut Vec<f64>) {
        self.haar.inverse_begin(coeffs, scratch);
    }

    // tidy:alloc-free
    fn synthesize_rows(&self, rows: &mut [f64], scratch: &mut Vec<f64>) {
        self.haar.inverse_rows_step(rows, scratch);
    }
}

/// Identity dictionary: the signal is sparse in the pixel domain itself
/// (star fields, point sources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentityDictionary {
    n: usize,
}

impl IdentityDictionary {
    /// Creates an identity dictionary of dimension `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "dimension must be positive");
        IdentityDictionary { n }
    }
}

impl Dictionary for IdentityDictionary {
    fn dim(&self) -> usize {
        self.n
    }

    fn atoms(&self) -> usize {
        self.n
    }

    fn synthesize(&self, alpha: &[f64], x: &mut [f64]) {
        assert_eq!(alpha.len(), self.n, "length mismatch");
        x.copy_from_slice(alpha);
    }

    fn analyze(&self, x: &[f64], alpha: &mut [f64]) {
        assert_eq!(x.len(), self.n, "length mismatch");
        alpha.copy_from_slice(x);
    }

    fn row_staged(&self) -> Option<StagedDictionary<'_>> {
        Some(StagedDictionary::new(self))
    }

    fn separable(&self, width: usize, height: usize) -> Option<SeparableFactors<'_>> {
        (width * height == self.n).then_some(SeparableFactors {
            vertical: AtomFactors::Unit(height),
            horizontal: AtomFactors::Unit(width),
            pinned: None,
        })
    }
}

/// The identity transform stages trivially: every pass is a no-op, so
/// the fused drivers stream measurement rows straight into (or out of)
/// the coefficient buffer.
impl RowStagedDictionary for IdentityDictionary {
    fn accepts_grid(&self, width: usize, height: usize) -> bool {
        width * height == self.n
    }

    fn analyze_rows(&self, _rows: &mut [f64], _scratch: &mut Vec<f64>) {}

    fn analyze_finish(&self, _buf: &mut [f64], _scratch: &mut Vec<f64>) {}

    fn synthesize_begin(&self, _coeffs: &mut [f64], _scratch: &mut Vec<f64>) {}

    fn synthesize_rows(&self, _rows: &mut [f64], _scratch: &mut Vec<f64>) {}
}

/// Wrapper that pins one atom's coefficient to zero — used to exclude
/// the DC atom when the mean is recovered separately.
///
/// `synthesize` zeroes the pinned coefficient before synthesis;
/// `analyze` zeroes it after analysis. The wrapper stays self-adjoint,
/// so `Φ ∘ ZeroMean(Ψ)` keeps a valid adjoint pair.
#[derive(Debug, Clone)]
pub struct ZeroMeanDictionary<D> {
    inner: D,
    pinned: usize,
}

impl<D: Dictionary> ZeroMeanDictionary<D> {
    /// Wraps a dictionary, pinning atom `pinned` (usually the DC index).
    ///
    /// # Panics
    ///
    /// Panics if `pinned >= inner.atoms()`.
    pub fn new(inner: D, pinned: usize) -> Self {
        assert!(pinned < inner.atoms(), "pinned atom out of range");
        ZeroMeanDictionary { inner, pinned }
    }

    /// The wrapped dictionary.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Index of the pinned atom.
    pub fn pinned(&self) -> usize {
        self.pinned
    }
}

impl<D: Dictionary> Dictionary for ZeroMeanDictionary<D> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn atoms(&self) -> usize {
        self.inner.atoms()
    }

    fn synthesize(&self, alpha: &[f64], x: &mut [f64]) {
        if alpha[self.pinned] == 0.0 {
            self.inner.synthesize(alpha, x);
        } else {
            let mut a = alpha.to_vec();
            a[self.pinned] = 0.0;
            self.inner.synthesize(&a, x);
        }
    }

    fn analyze(&self, x: &[f64], alpha: &mut [f64]) {
        self.inner.analyze(x, alpha);
        alpha[self.pinned] = 0.0;
    }

    fn synthesize_with(&self, alpha: &[f64], x: &mut [f64], scratch: &mut Vec<f64>) {
        // The solver loop keeps the pinned coefficient at exactly zero
        // (analyze pins it, and the iterates are linear combinations of
        // pinned vectors), so the hot path forwards without copying; a
        // nonzero pinned entry falls back to the defensive copy.
        if alpha[self.pinned] == 0.0 {
            self.inner.synthesize_with(alpha, x, scratch);
        } else {
            self.synthesize(alpha, x);
        }
    }

    fn analyze_with(&self, x: &[f64], alpha: &mut [f64], scratch: &mut Vec<f64>) {
        self.inner.analyze_with(x, alpha, scratch);
        alpha[self.pinned] = 0.0;
    }

    fn row_staged(&self) -> Option<StagedDictionary<'_>> {
        // Forward the inner staging with the pin attached; a dictionary
        // that already carries a pin (nested wrappers) refuses, falling
        // back to the two-pass path.
        self.inner
            .row_staged()
            .and_then(|staged| staged.with_pin(self.pinned))
    }

    fn separable(&self, width: usize, height: usize) -> Option<SeparableFactors<'_>> {
        // Like `row_staged`: nested pins fall back to the generic path.
        let factors = self.inner.separable(width, height)?;
        factors.pinned.is_none().then_some(SeparableFactors {
            pinned: Some(self.pinned),
            ..factors
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_util::SplitMix64;

    fn check_orthonormal<D: Dictionary>(d: &D, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let x: Vec<f64> = (0..d.dim()).map(|_| rng.next_gaussian()).collect();
        // Perfect reconstruction.
        let back = d.synthesize_vec(&d.analyze_vec(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10);
        }
        // Adjoint identity ⟨Ψα, x⟩ = ⟨α, Ψᵀx⟩.
        let alpha: Vec<f64> = (0..d.atoms()).map(|_| rng.next_gaussian()).collect();
        let lhs = crate::op::dot(&d.synthesize_vec(&alpha), &x);
        let rhs = crate::op::dot(&alpha, &d.analyze_vec(&x));
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn dct_haar_identity_are_orthonormal() {
        check_orthonormal(&Dct2dDictionary::new(8, 8), 1);
        check_orthonormal(&Dct2dDictionary::new(12, 8), 2);
        check_orthonormal(&Haar2dDictionary::new(16, 16), 3);
        check_orthonormal(&IdentityDictionary::new(37), 4);
    }

    #[test]
    fn dc_atom_of_dct_is_constant_image() {
        let d = Dct2dDictionary::new(8, 8);
        let mut alpha = vec![0.0; 64];
        alpha[d.dc_index()] = 1.0;
        let x = d.synthesize_vec(&alpha);
        let expected = 1.0 / 8.0; // 1/sqrt(64)
        for v in x {
            assert!((v - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn haar_dc_atom_is_constant_image() {
        let d = Haar2dDictionary::new(16, 16);
        let mut alpha = vec![0.0; 256];
        alpha[d.dc_index()] = 1.0;
        let x = d.synthesize_vec(&alpha);
        for v in &x {
            assert!((v - 1.0 / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_mean_wrapper_produces_zero_sum_images() {
        let mut rng = SplitMix64::new(9);
        let d = ZeroMeanDictionary::new(Dct2dDictionary::new(8, 8), 0);
        let alpha: Vec<f64> = (0..64).map(|_| rng.next_gaussian()).collect();
        let x = d.synthesize_vec(&alpha);
        let sum: f64 = x.iter().sum();
        assert!(sum.abs() < 1e-9, "synthesized image has mean {sum}");
        // Analysis pins the DC coefficient.
        let a = d.analyze_vec(&vec![1.0; 64]);
        assert_eq!(a[0], 0.0);
    }

    #[test]
    fn zero_mean_wrapper_is_self_adjoint_consistent() {
        let mut rng = SplitMix64::new(10);
        let d = ZeroMeanDictionary::new(Haar2dDictionary::new(8, 8), 0);
        let x: Vec<f64> = (0..64).map(|_| rng.next_gaussian()).collect();
        let alpha: Vec<f64> = (0..64).map(|_| rng.next_gaussian()).collect();
        let lhs = crate::op::dot(&d.synthesize_vec(&alpha), &x);
        let rhs = crate::op::dot(&alpha, &d.analyze_vec(&x));
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "pinned atom out of range")]
    fn pinning_invalid_atom_panics() {
        ZeroMeanDictionary::new(IdentityDictionary::new(4), 4);
    }
}
