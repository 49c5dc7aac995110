//! Column-materialized operator views, and the closed-form XOR columns.
//!
//! CoSaMP and the restricted least-squares passes behind it touch an
//! operator *column-wise*: they apply the operator restricted to a
//! support, over and over as the support changes. For matrix-free
//! operators every one of those touches costs a full `apply`.
//! [`ColumnMatrix`] materializes all columns once (column-major, so
//! each column is a contiguous slice) and serves every later touch as a
//! gather. The decoder builds the view for CoSaMP only: OMP reads one
//! column per selected atom, to build that atom's Gram column (see
//! [`crate::gram`]), and takes it from the closed form below instead.
//!
//! The view plugs into the operator stack through
//! [`LinearOperator::column_view`]: a [`ComposedOperator`] with an
//! attached view answers `column_view()` with it, and downstream
//! consumers (column extraction, the restricted operator in
//! `tepics-recovery`) switch to the materialized path when one is
//! present.
//!
//! # Closed-form XOR columns
//!
//! The build goes through [`LinearOperator::columns_into`]. For the
//! paper's XOR measurement composed with a separable dictionary
//! (2-D DCT, identity, either DC-pinned) no synthesis or `apply` runs
//! at all. Pixel `(i, j)` enters sample `k` iff `r_ki ⊕ c_kj`, and
//! `r ⊕ c = r + c − 2rc`, so for the atom `h_a ⊗ w_b`:
//!
//! ```text
//! A[k, (a,b)] = P_ka·W_b + H_a·Q_kb − 2·P_ka·Q_kb
//! P_ka = Σ_{i∈R_k} h_a[i],   Q_kb = Σ_{j∈C_k} w_b[j]
//! ```
//!
//! with `H_a`, `W_b` the factor sums (see [`SeparableFactors`]). The
//! bulk build tabulates `P` and `Q` once, O(K·(rows² + cols²)), then
//! fills every entry with the formula, O(K·N), instead of N syntheses
//! plus N forward applications. Without a view, [`ComposedOperator`]'s
//! `column_into` computes one column through the *same* helpers in the
//! same summation order, so column extraction with a view is
//! bit-identical to extraction without one. Every other
//! composition (Haar, dense or block measurements) keeps the generic
//! path: one synthesis plus one `apply` per column, and extraction
//! without a view runs that same computation. Either way restricted
//! `apply`/`apply_adjoint` through a view reassociate floating-point
//! sums and may differ from the scatter path in the last bits (≤1e-10
//! relative — the same contract as the factorized XOR paths).
//!
//! [`ComposedOperator`]: crate::ComposedOperator

use crate::dictionary::{AtomFactors, SeparableFactors};
use crate::measurement::XorMeasurement;
use crate::op::LinearOperator;

/// A dense, column-major materialization of a linear operator.
///
/// `data[j·rows .. (j+1)·rows]` is column `j` (`A e_j`), so
/// [`ColumnMatrix::column`] is a contiguous borrow. Built once per
/// operator (typically memoized by the caller — the core crate's
/// `OperatorCache` keys the views of CoSaMP decodes by operator and
/// dictionary), shared via `Arc` across sessions and batch workers.
///
/// # Examples
///
/// ```
/// use tepics_cs::colview::ColumnMatrix;
/// use tepics_cs::{DenseMatrix, LinearOperator};
///
/// let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let view = ColumnMatrix::from_operator(&a);
/// assert_eq!(view.column(1), &[2.0, 4.0]);
/// assert_eq!(view.apply_vec(&[1.0, 1.0]), a.apply_vec(&[1.0, 1.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMatrix {
    rows: usize,
    cols: usize,
    /// Column-major storage: column `j` at `data[j*rows..(j+1)*rows]`.
    data: Vec<f64>,
}

impl ColumnMatrix {
    /// Materializes every column of `a` through
    /// [`LinearOperator::columns_into`].
    ///
    /// For an XOR measurement composed with a separable dictionary the
    /// build is the closed form of the [module docs](self), a few
    /// flops per entry; any other operator pays one
    /// [`column_into`](LinearOperator::column_into) per column (a
    /// synthesis plus a forward application for a composed operator).
    /// Either way it is a one-time build meant to be memoized and
    /// amortized over many solves, and its columns equal `a`'s own
    /// `column_into` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `a` has zero rows or columns.
    pub fn from_operator<A: LinearOperator + ?Sized>(a: &A) -> Self {
        let (rows, cols) = (a.rows(), a.cols());
        assert!(rows > 0 && cols > 0, "degenerate operator");
        let mut data = vec![0.0; rows * cols];
        a.columns_into(&mut data);
        ColumnMatrix { rows, cols, data }
    }

    /// Column `j` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn column(&self, j: usize) -> &[f64] {
        assert!(j < self.cols, "column {j} out of range");
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Approximate heap footprint in bytes (for cache accounting).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl LinearOperator for ColumnMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    /// Sums each output row exactly as [`op::dot`](crate::op::dot) sums
    /// a contiguous row — four interleaved lanes, then the tail — so a
    /// view rounds like the row-major [`DenseMatrix`](crate::DenseMatrix)
    /// it may materialize, and a solver gets the same bits from either.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "input length mismatch");
        assert_eq!(y.len(), self.rows, "output length mismatch");
        let rows = self.rows;
        let lanes = self.cols - self.cols % 4;
        for (r, yr) in y.iter_mut().enumerate() {
            let term = |j: usize| self.data[j * rows + r] * x[j];
            let mut s = [0.0f64; 4];
            for j in (0..lanes).step_by(4) {
                s[0] += term(j);
                s[1] += term(j + 1);
                s[2] += term(j + 2);
                s[3] += term(j + 3);
            }
            let mut acc = (s[0] + s[1]) + (s[2] + s[3]);
            for j in lanes..self.cols {
                acc += term(j);
            }
            *yr = acc;
        }
    }

    /// Sums each column's products in row order, as
    /// [`DenseMatrix`](crate::DenseMatrix) accumulates its adjoint row by
    /// row, so the two round identically.
    fn apply_adjoint(&self, y: &[f64], x: &mut [f64]) {
        assert_eq!(y.len(), self.rows, "input length mismatch");
        assert_eq!(x.len(), self.cols, "output length mismatch");
        for (xj, col) in x.iter_mut().zip(self.data.chunks_exact(self.rows)) {
            *xj = col.iter().zip(y).fold(0.0, |acc, (&c, &yr)| acc + c * yr);
        }
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        out.copy_from_slice(self.column(j));
    }

    fn column_view(&self) -> Option<&ColumnMatrix> {
        Some(self)
    }
}

/// The closed-form columns of `Φ·Ψ` for an XOR measurement and a
/// separable dictionary on the measurement's pixel grid (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct XorColumns<'a> {
    phi: &'a XorMeasurement,
    factors: SeparableFactors<'a>,
}

impl<'a> XorColumns<'a> {
    /// Pairs a measurement with factors whose grid is the measurement's
    /// `array_rows()`×`array_cols()`.
    ///
    /// # Panics
    ///
    /// Panics if the factor lengths do not match that grid.
    pub(crate) fn new(phi: &'a XorMeasurement, factors: SeparableFactors<'a>) -> Self {
        assert_eq!(
            factors.vertical.len(),
            phi.array_rows(),
            "vertical factor length"
        );
        assert_eq!(
            factors.horizontal.len(),
            phi.array_cols(),
            "horizontal factor length"
        );
        XorColumns { phi, factors }
    }

    /// Vertical and horizontal factor indices of atom `j`.
    fn split(&self, j: usize) -> (usize, usize) {
        let width = self.factors.horizontal.len();
        (j / width, j % width)
    }

    /// Column `j` of `Φ·Ψ`, one sample at a time.
    // tidy:alloc-free
    pub(crate) fn column_into(&self, j: usize, out: &mut [f64]) {
        if self.factors.pinned == Some(j) {
            out.fill(0.0);
            return;
        }
        let (a, b) = self.split(j);
        let SeparableFactors {
            vertical,
            horizontal,
            ..
        } = self.factors;
        let (h, w) = (vertical.sum(a), horizontal.sum(b));
        for (k, o) in out.iter_mut().enumerate() {
            let p = vertical.selected_sum(a, self.phi.selected_rows(k));
            let q = horizontal.selected_sum(b, self.phi.selected_cols(k));
            *o = xor_entry(p, q, h, w);
        }
    }

    /// Every column into the column-major `out`: the `P`/`Q` tables
    /// first (transposed, so each atom's run over samples is
    /// contiguous), then one [`xor_entry`] per element.
    pub(crate) fn columns_into(&self, out: &mut [f64]) {
        let k_count = self.phi.rows();
        let SeparableFactors {
            vertical,
            horizontal,
            pinned,
        } = self.factors;
        assert_eq!(
            out.len(),
            k_count * vertical.len() * horizontal.len(),
            "output length mismatch"
        );
        let table = |f: AtomFactors<'_>, selection: fn(&XorMeasurement, usize) -> &[u32]| {
            let mut t = vec![0.0; f.len() * k_count];
            for (a, run) in t.chunks_exact_mut(k_count).enumerate() {
                for (k, v) in run.iter_mut().enumerate() {
                    *v = f.selected_sum(a, selection(self.phi, k));
                }
            }
            t
        };
        let p = table(vertical, XorMeasurement::selected_rows);
        let q = table(horizontal, XorMeasurement::selected_cols);
        for (j, col) in out.chunks_exact_mut(k_count).enumerate() {
            if pinned == Some(j) {
                col.fill(0.0);
                continue;
            }
            let (a, b) = self.split(j);
            let (h, w) = (vertical.sum(a), horizontal.sum(b));
            let p = &p[a * k_count..(a + 1) * k_count];
            let q = &q[b * k_count..(b + 1) * k_count];
            for ((o, &p), &q) in col.iter_mut().zip(p).zip(q) {
                *o = xor_entry(p, q, h, w);
            }
        }
    }
}

/// One entry of an XOR column: `P·W + H·Q − 2·P·Q`, the `r ⊕ c =
/// r + c − 2rc` identity summed over the atom. Shared by the bulk and
/// the per-column paths so both round identically.
#[inline(always)]
fn xor_entry(p: f64, q: f64, h: f64, w: f64) -> f64 {
    p * w + h * q - 2.0 * p * q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::DenseMatrix;
    use crate::op::adjoint_mismatch;

    #[test]
    fn columns_match_operator_columns() {
        let a = DenseMatrix::from_fn(5, 7, |r, c| (r * 7 + c) as f64 - 10.0);
        let view = ColumnMatrix::from_operator(&a);
        for j in 0..7 {
            assert_eq!(view.column(j), a.column(j).as_slice(), "column {j}");
        }
    }

    #[test]
    fn apply_and_adjoint_match_source_operator() {
        let a = DenseMatrix::from_fn(6, 9, |r, c| ((r * 3 + c * 5) % 7) as f64 - 3.0);
        let view = ColumnMatrix::from_operator(&a);
        let x: Vec<f64> = (0..9).map(|i| i as f64 * 0.25 - 1.0).collect();
        let y: Vec<f64> = (0..6).map(|i| 1.0 - i as f64 * 0.5).collect();
        let ax = view.apply_vec(&x);
        let want = a.apply_vec(&x);
        for (got, want) in ax.iter().zip(&want) {
            assert!((got - want).abs() < 1e-12);
        }
        let aty = view.apply_adjoint_vec(&y);
        let want = a.apply_adjoint_vec(&y);
        for (got, want) in aty.iter().zip(&want) {
            assert!((got - want).abs() < 1e-12);
        }
        assert!(adjoint_mismatch(&view, 5, 3) < 1e-12);
    }

    #[test]
    fn applications_round_like_the_dense_source() {
        // Irrational-ish entries and widths that leave a lane tail, so
        // any reassociation would show in the last bits.
        for cols in [7, 8, 13] {
            let a = DenseMatrix::from_fn(5, cols, |r, c| ((r * 7 + c * 3) as f64).sin() * 1e3);
            let view = ColumnMatrix::from_operator(&a);
            let x: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.37).cos()).collect();
            let y: Vec<f64> = (0..5).map(|i| (i as f64 * 1.3).tan()).collect();
            assert_eq!(view.apply_vec(&x), a.apply_vec(&x), "{cols} columns");
            assert_eq!(
                view.apply_adjoint_vec(&y),
                a.apply_adjoint_vec(&y),
                "{cols} columns"
            );
        }
    }

    #[test]
    fn exposes_itself_as_column_view() {
        let a = DenseMatrix::identity(4);
        let view = ColumnMatrix::from_operator(&a);
        assert!(view.column_view().is_some());
        assert_eq!(view.bytes(), 16 * 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        let view = ColumnMatrix::from_operator(&DenseMatrix::identity(2));
        view.column(2);
    }
}
