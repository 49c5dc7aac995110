//! The closed-form XOR columns, and a plain column-major matrix.
//!
//! The greedy solvers read one operator column per atom they select, to
//! build that atom's Gram slot (see [`crate::gram`]). For the paper's
//! XOR measurement composed with a separable dictionary (2-D DCT,
//! identity, either DC-pinned) [`ComposedOperator`]'s `column_into`
//! runs no synthesis and no `apply` at all. Pixel `(i, j)` enters
//! sample `k` iff `r_ki ⊕ c_kj`, and `r ⊕ c = r + c − 2rc`, so for the
//! atom `h_a ⊗ w_b`:
//!
//! ```text
//! A[k, (a,b)] = P_ka·W_b + H_a·Q_kb − 2·P_ka·Q_kb
//! P_ka = Σ_{i∈R_k} h_a[i],   Q_kb = Σ_{j∈C_k} w_b[j]
//! ```
//!
//! with `H_a`, `W_b` the factor sums (see [`SeparableFactors`]): one
//! column costs `O(K·(|R_k| + |C_k|))` gathers instead of a synthesis
//! plus a forward application. Every other composition (Haar, dense or
//! block measurements) keeps the generic path, one synthesis plus one
//! `apply` per column.
//!
//! [`ColumnMatrix`] stores every column of an operator, filled through
//! `column_into`. No solver reads it; it is a data type for callers
//! that want all columns at once.
//!
//! [`ComposedOperator`]: crate::ComposedOperator

use crate::dictionary::SeparableFactors;
use crate::measurement::XorMeasurement;
use crate::op::LinearOperator;

/// A dense, column-major copy of every column of a linear operator.
///
/// `data[j·rows .. (j+1)·rows]` is column `j` (`A e_j`), so
/// [`ColumnMatrix::column`] is a contiguous borrow.
///
/// # Examples
///
/// ```
/// use tepics_cs::colview::ColumnMatrix;
/// use tepics_cs::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let view = ColumnMatrix::from_operator(&a);
/// assert_eq!(view.column(1), &[2.0, 4.0]);
/// assert_eq!(view.bytes(), 4 * 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMatrix {
    rows: usize,
    cols: usize,
    /// Column-major storage: column `j` at `data[j*rows..(j+1)*rows]`.
    data: Vec<f64>,
}

impl ColumnMatrix {
    /// Copies every column of `a`, one
    /// [`column_into`](LinearOperator::column_into) per column, so its
    /// columns equal `a`'s own bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `a` has zero rows or columns.
    pub fn from_operator<A: LinearOperator + ?Sized>(a: &A) -> Self {
        let (rows, cols) = (a.rows(), a.cols());
        assert!(rows > 0 && cols > 0, "degenerate operator");
        let mut data = vec![0.0; rows * cols];
        for (j, col) in data.chunks_exact_mut(rows).enumerate() {
            a.column_into(j, col);
        }
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

    /// Heap footprint in bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
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
}

/// One entry of an XOR column: `P·W + H·Q − 2·P·Q`, the `r ⊕ c =
/// r + c − 2rc` identity summed over the atom.
#[inline(always)]
fn xor_entry(p: f64, q: f64, h: f64, w: f64) -> f64 {
    p * w + h * q - 2.0 * p * q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::DenseMatrix;

    #[test]
    fn columns_match_operator_columns() {
        let a = DenseMatrix::from_fn(5, 7, |r, c| (r * 7 + c) as f64 - 10.0);
        let view = ColumnMatrix::from_operator(&a);
        for j in 0..7 {
            assert_eq!(view.column(j), a.column(j).as_slice(), "column {j}");
        }
        assert_eq!(view.bytes(), 35 * 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        let view = ColumnMatrix::from_operator(&DenseMatrix::identity(2));
        view.column(2);
    }
}
