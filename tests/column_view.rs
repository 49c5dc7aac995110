//! Oracle tests for the closed-form `Φ·Ψ` columns.
//!
//! For the XOR measurement composed with a separable dictionary, the
//! composed operator's `column_into` never synthesizes an atom or
//! applies Φ: it evaluates `P·W + H·Q − 2·P·Q` from the measurement's
//! row/column selections and the dictionary's 1-D atom factors. Every
//! Gram slot the greedy solvers read starts from such a column. These
//! tests pin that kernel to the definition:
//!
//! * against a dense Φ built from `XorMeasurement::selected` times the
//!   textbook cosine-formula DCT atoms, within 1e-12 relative per
//!   column, on square and non-square grids (a swapped row/column
//!   factor layout fails the non-square ones);
//! * the DC-pinned atom's column is exactly zero;
//! * with the identity dictionary the columns are the 0/1 selection
//!   masks, bit for bit.
//!
//! Production OMP and CoSaMP themselves are pinned to textbook twins in
//! `tests/omp_oracle.rs`.

use tepics::cs::dictionary::ZeroMeanDictionary;
use tepics::cs::{
    ComposedOperator, Dct2dDictionary, IdentityDictionary, LinearOperator, XorMeasurement,
};
use tepics::util::{BitVec, SplitMix64};

mod dense;
use dense::dense_columns;

/// A random XOR measurement on an `m×n` image (row-major, `m` rows).
fn xor_phi(m: usize, n: usize, k: usize, rng: &mut SplitMix64) -> XorMeasurement {
    let patterns: Vec<BitVec> = (0..k)
        .map(|_| BitVec::from_bools((0..m + n).map(|_| rng.next_bool())))
        .collect();
    XorMeasurement::from_patterns(m, n, patterns)
}

fn rel_dev(got: &[f64], want: &[f64]) -> f64 {
    let diff: f64 = got.iter().zip(want).map(|(g, w)| (g - w).powi(2)).sum();
    let norm: f64 = want.iter().map(|w| w * w).sum();
    (diff / norm).sqrt()
}

/// Closed-form columns match the dense oracle within 1e-12 relative on
/// square and non-square grids; the DC-pinned column is exactly zero.
#[test]
fn closed_form_columns_match_dense_oracle() {
    let mut rng = SplitMix64::new(0xC0_1F0);
    // (rows, cols): square pow2 sizes and both non-square orientations.
    for &(m, n) in &[(16, 16), (32, 32), (16, 24), (24, 16)] {
        let phi = xor_phi(m, n, (m * n * 2) / 5, &mut rng);
        let oracle = dense_columns(&phi);
        let full = Dct2dDictionary::new(n, m);
        let a = ComposedOperator::new(&phi, &full);
        for (j, want) in oracle.iter().enumerate() {
            let dev = rel_dev(&a.column(j), want);
            assert!(
                dev <= 1e-12,
                "{m}x{n} column {j}: relative deviation {dev:e}"
            );
        }
        let pinned = ZeroMeanDictionary::new(Dct2dDictionary::new(n, m), 0);
        let a = ComposedOperator::new(&phi, &pinned);
        assert!(
            a.column(0).iter().all(|&v| v == 0.0),
            "{m}x{n}: pinned DC column is not exactly zero"
        );
        for (j, want) in oracle.iter().enumerate().skip(1) {
            let dev = rel_dev(&a.column(j), want);
            assert!(
                dev <= 1e-12,
                "{m}x{n} pinned, column {j}: deviation {dev:e}"
            );
        }
    }
}

/// With the identity dictionary every column is a pixel's 0/1 selection
/// mask over the samples, bit for bit.
#[test]
fn identity_columns_are_the_selection_masks() {
    let mut rng = SplitMix64::new(0x1D_3A);
    for &(m, n) in &[(16, 16), (12, 20)] {
        let phi = xor_phi(m, n, m * n / 3, &mut rng);
        let dict = IdentityDictionary::new(m * n);
        let a = ComposedOperator::new(&phi, &dict);
        for i in 0..m {
            for j in 0..n {
                let mask: Vec<f64> = (0..phi.rows())
                    .map(|k| if phi.selected(k, i, j) { 1.0 } else { 0.0 })
                    .collect();
                assert_eq!(a.column(i * n + j), mask, "{m}x{n} ({i},{j})");
            }
        }
    }
}
