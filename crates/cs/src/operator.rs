//! Operator composition and views.
//!
//! Recovery solves `min ‖α‖₁ s.t. Φ Ψ α ≈ y`. [`ComposedOperator`] is
//! that product without materialization; [`SignedMeasurementOp`] is the
//! ±1 (`B = 2Φ − 1`) view of a binary measurement, used by the matrix
//! quality experiments where RIP analysis conventionally assumes
//! zero-mean entries.

use std::cell::RefCell;
use std::sync::Arc;

use crate::colview::XorColumns;
use crate::dictionary::Dictionary;
use crate::fused::{self, FusedScratch};
use crate::gram::GramStore;
use crate::op::LinearOperator;

/// Reusable intermediate buffers of a [`ComposedOperator`]: the pixel
/// vector between Ψ and Φ, the dictionary's own transform scratch, a
/// unit coefficient vector for column extraction, and the streaming
/// measurement kernels' [`FusedScratch`].
///
/// Public so callers that build one composed operator per solve (the
/// decoder) can donate the buffers across solves via
/// [`ComposedOperator::with_scratch`]/[`ComposedOperator::into_scratch`]
/// — warm decodes then perform no per-solve allocation at all.
#[derive(Debug, Clone, Default)]
pub struct ComposedScratch {
    pixels: Vec<f64>,
    dict: Vec<f64>,
    unit: Vec<f64>,
    fused: FusedScratch,
}

impl ComposedScratch {
    /// Empty buffers; they grow to the operator's sizes on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The pixel-domain buffer and the dictionary transform scratch —
    /// for callers that reuse the donation between solves (e.g. the
    /// decoder's final synthesis).
    pub fn pixels_and_dict(&mut self) -> (&mut Vec<f64>, &mut Vec<f64>) {
        (&mut self.pixels, &mut self.dict)
    }
}

/// The product `A = Φ ∘ Ψ` of a measurement operator and a dictionary.
///
/// Applications run through internal scratch buffers that grow on first
/// use and are reused afterwards, so the solver loop performs no
/// per-iteration allocation. The buffers make this type `!Sync`; it is
/// built per solve (each batch worker composes its own view over the
/// shared cached operator), never shared across threads.
///
/// # Examples
///
/// ```
/// use tepics_cs::measurement::DenseBinaryMeasurement;
/// use tepics_cs::{ComposedOperator, Dct2dDictionary, LinearOperator};
///
/// let phi = DenseBinaryMeasurement::bernoulli(10, 64, 1, 0.5);
/// let psi = Dct2dDictionary::new(8, 8);
/// let a = ComposedOperator::new(&phi, &psi);
/// assert_eq!(a.rows(), 10);
/// assert_eq!(a.cols(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct ComposedOperator<'a, M: ?Sized, D: ?Sized> {
    phi: &'a M,
    psi: &'a D,
    scratch: RefCell<ComposedScratch>,
    /// Optional shared Gram columns (see [`GramStore`]).
    gram: Option<Arc<GramStore>>,
}

impl<'a, M, D> ComposedOperator<'a, M, D>
where
    M: LinearOperator + ?Sized,
    D: Dictionary + ?Sized,
{
    /// Composes a measurement with a dictionary.
    ///
    /// # Panics
    ///
    /// Panics if `phi.cols() != psi.dim()`.
    pub fn new(phi: &'a M, psi: &'a D) -> Self {
        assert_eq!(
            phi.cols(),
            psi.dim(),
            "measurement expects {} pixels, dictionary synthesizes {}",
            phi.cols(),
            psi.dim()
        );
        ComposedOperator {
            phi,
            psi,
            scratch: RefCell::new(ComposedScratch::default()),
            gram: None,
        }
    }

    /// Attaches a shared Gram-column store (typically memoized per
    /// operator and dictionary by a cache). Afterwards
    /// [`LinearOperator::gram_store`] returns it, and the greedy solvers
    /// (Batch-OMP, CoSaMP) read and admit their Gram slots there. Every
    /// other application is unaffected, and so are the solvers'
    /// results: a stored slot equals the one a solver would compute
    /// itself, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the store's shape does not match this operator.
    #[must_use]
    pub fn with_gram_store(mut self, store: Arc<GramStore>) -> Self {
        assert_eq!(store.rows(), self.phi.rows(), "store row mismatch");
        assert_eq!(store.cols(), self.psi.atoms(), "store column mismatch");
        self.gram = Some(store);
        self
    }

    /// Seeds this operator with donated scratch buffers (typically taken
    /// from a solver workspace), so a freshly built composition starts
    /// warm instead of growing its buffers again.
    #[must_use]
    pub fn with_scratch(self, scratch: ComposedScratch) -> Self {
        *self.scratch.borrow_mut() = scratch;
        self
    }

    /// Returns the scratch buffers for donation to the next solve.
    pub fn into_scratch(self) -> ComposedScratch {
        self.scratch.into_inner()
    }

    /// The fused streaming pair for this composition, when the
    /// measurement streams rows, the dictionary stages rows, and the
    /// two agree on the pixel grid (see [`crate::fused`]).
    fn fused_pair(&self) -> Option<(&dyn fused::RowStreamedOperator, fused::StagedDictionary<'_>)> {
        if self.psi.dim() != self.psi.atoms() {
            return None;
        }
        let stream = self.phi.row_streamed()?;
        let staged = self.psi.row_staged()?;
        if !staged.accepts_grid(stream.image_cols(), stream.image_rows()) {
            return None;
        }
        Some((stream, staged))
    }

    /// The closed-form column kernel for this composition, when the
    /// measurement is the XOR measurement and the dictionary is
    /// separable on its pixel grid (see [`crate::colview`]).
    fn closed_form(&self) -> Option<XorColumns<'_>> {
        let phi = self.phi.xor_structure()?;
        let factors = self.psi.separable(phi.array_cols(), phi.array_rows())?;
        Some(XorColumns::new(phi, factors))
    }
}

impl<'a, M, D> LinearOperator for ComposedOperator<'a, M, D>
where
    M: LinearOperator + ?Sized,
    D: Dictionary + ?Sized,
{
    fn rows(&self) -> usize {
        self.phi.rows()
    }

    fn cols(&self) -> usize {
        self.psi.atoms()
    }

    // tidy:alloc-free
    fn apply(&self, alpha: &[f64], y: &mut [f64]) {
        let mut scratch = self.scratch.borrow_mut();
        let ComposedScratch {
            pixels,
            dict,
            fused: fs,
            ..
        } = &mut *scratch;
        if let Some((stream, staged)) = self.fused_pair() {
            fused::fused_apply(stream, &staged, alpha, y, pixels, fs, dict);
            return;
        }
        pixels.resize(self.psi.dim(), 0.0);
        self.psi.synthesize_with(alpha, pixels, dict);
        self.phi.apply(pixels, y);
    }

    // tidy:alloc-free
    fn apply_adjoint(&self, y: &[f64], alpha: &mut [f64]) {
        let mut scratch = self.scratch.borrow_mut();
        let ComposedScratch {
            pixels,
            dict,
            fused: fs,
            ..
        } = &mut *scratch;
        if let Some((stream, staged)) = self.fused_pair() {
            fused::fused_adjoint(stream, &staged, y, alpha, fs, dict);
            return;
        }
        pixels.resize(self.psi.dim(), 0.0);
        self.phi.apply_adjoint(y, pixels);
        self.psi.analyze_with(pixels, alpha, dict);
    }

    // tidy:alloc-free
    fn column_into(&self, j: usize, out: &mut [f64]) {
        assert!(j < self.cols(), "column {j} out of range");
        assert_eq!(out.len(), self.rows(), "output length mismatch");
        if let Some(xor) = self.closed_form() {
            xor.column_into(j, out);
            return;
        }
        let mut scratch = self.scratch.borrow_mut();
        let ComposedScratch {
            pixels, dict, unit, ..
        } = &mut *scratch;
        unit.clear();
        unit.resize(self.psi.atoms(), 0.0);
        unit[j] = 1.0;
        pixels.resize(self.psi.dim(), 0.0);
        self.psi.synthesize_with(unit, pixels, dict);
        self.phi.apply(pixels, out);
    }

    fn gram_store(&self) -> Option<&GramStore> {
        self.gram.as_deref()
    }
}

/// The signed view `B = 2Φ − 1` of a binary measurement:
/// `B x = 2 Φ x − (Σ x) · 1`.
///
/// Computed matrix-free from the underlying 0/1 operator; the adjoint is
/// `Bᵀ y = 2 Φᵀ y − (Σ y) · 1`.
#[derive(Debug, Clone)]
pub struct SignedMeasurementOp<'a, M: ?Sized> {
    phi: &'a M,
}

impl<'a, M: LinearOperator + ?Sized> SignedMeasurementOp<'a, M> {
    /// Wraps a 0/1 measurement operator.
    pub fn new(phi: &'a M) -> Self {
        SignedMeasurementOp { phi }
    }
}

impl<'a, M: LinearOperator + ?Sized> LinearOperator for SignedMeasurementOp<'a, M> {
    fn rows(&self) -> usize {
        self.phi.rows()
    }

    fn cols(&self) -> usize {
        self.phi.cols()
    }

    // tidy:alloc-free
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.phi.apply(x, y);
        let sum: f64 = x.iter().sum();
        for v in y.iter_mut() {
            *v = 2.0 * *v - sum;
        }
    }

    // tidy:alloc-free
    fn apply_adjoint(&self, y: &[f64], x: &mut [f64]) {
        self.phi.apply_adjoint(y, x);
        let sum: f64 = y.iter().sum();
        for v in x.iter_mut() {
            *v = 2.0 * *v - sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::{Dct2dDictionary, IdentityDictionary, ZeroMeanDictionary};
    use crate::measurement::{DenseBinaryMeasurement, SelectionMeasurement};
    use crate::op::{adjoint_mismatch, operator_norm_est};

    #[test]
    fn composed_equals_sequential_application() {
        let phi = DenseBinaryMeasurement::bernoulli(12, 64, 3, 0.5);
        let psi = Dct2dDictionary::new(8, 8);
        let a = ComposedOperator::new(&phi, &psi);
        let mut rng = tepics_util::SplitMix64::new(1);
        let alpha: Vec<f64> = (0..64).map(|_| rng.next_gaussian()).collect();
        let manual = phi.apply_vec(&psi.synthesize_vec(&alpha));
        assert_eq!(a.apply_vec(&alpha), manual);
        assert!(adjoint_mismatch(&a, 10, 2) < 1e-12);
    }

    #[test]
    fn signed_view_matches_explicit_pm1_matrix() {
        let phi = DenseBinaryMeasurement::bernoulli(6, 20, 9, 0.5);
        let signed = SignedMeasurementOp::new(&phi);
        let mut rng = tepics_util::SplitMix64::new(5);
        let x: Vec<f64> = (0..20).map(|_| rng.next_gaussian()).collect();
        let y = signed.apply_vec(&x);
        for (k, &yk) in y.iter().enumerate() {
            let mask = phi.mask(k);
            let expected: f64 = (0..20)
                .map(|i| if mask.get(i) { x[i] } else { -x[i] })
                .sum();
            assert!((yk - expected).abs() < 1e-10, "row {k}");
        }
        assert!(adjoint_mismatch(&signed, 10, 6) < 1e-12);
    }

    #[test]
    fn dc_exclusion_tames_operator_norm() {
        // The 0/1 measurement composed with a full dictionary has a huge
        // gain along DC; pinning DC brings the norm down to the ±1 scale.
        let phi = DenseBinaryMeasurement::bernoulli(64, 256, 4, 0.5);
        let psi_full = Dct2dDictionary::new(16, 16);
        let psi_zm = ZeroMeanDictionary::new(Dct2dDictionary::new(16, 16), 0);
        let full = operator_norm_est(&ComposedOperator::new(&phi, &psi_full), 60, 1);
        let zm = operator_norm_est(&ComposedOperator::new(&phi, &psi_zm), 60, 1);
        assert!(
            zm * 4.0 < full,
            "expected ≥4× norm reduction, got full={full:.1} zm={zm:.1}"
        );
    }

    #[test]
    fn identity_dictionary_composition_is_transparent() {
        let phi = DenseBinaryMeasurement::bernoulli(5, 30, 7, 0.5);
        let psi = IdentityDictionary::new(30);
        let a = ComposedOperator::new(&phi, &psi);
        let x = vec![1.0; 30];
        assert_eq!(a.apply_vec(&x), phi.apply_vec(&x));
    }

    #[test]
    #[should_panic(expected = "dictionary synthesizes")]
    fn dimension_mismatch_panics() {
        let phi = DenseBinaryMeasurement::bernoulli(5, 30, 7, 0.5);
        let psi = IdentityDictionary::new(31);
        ComposedOperator::new(&phi, &psi);
    }
}
