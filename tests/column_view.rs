//! Oracle tests for the closed-form `Φ·Ψ` column view.
//!
//! For the XOR measurement composed with a separable dictionary,
//! `ColumnMatrix::from_operator` and the composed operator's
//! `column_into` never synthesize an atom or apply Φ: they evaluate
//! `P·W + H·Q − 2·P·Q` from the measurement's row/column selections and
//! the dictionary's 1-D atom factors. These tests pin that kernel to the
//! definition:
//!
//! * against a dense Φ built from `XorMeasurement::selected` times the
//!   textbook cosine-formula DCT atoms, within 1e-12 relative per
//!   column, on square and non-square grids (a swapped row/column
//!   factor layout fails the non-square ones);
//! * the DC-pinned atom's column is exactly zero;
//! * with the identity dictionary the columns are the 0/1 selection
//!   masks, bit for bit;
//! * the bulk view equals per-column extraction without a view bit for
//!   bit, so OMP returns the same bits either way, and CoSaMP (whose
//!   restricted least squares reassociates sums) stays within 1e-6.
//!
//! Production OMP itself is pinned to a textbook twin in
//! `tests/omp_oracle.rs`.

use std::f64::consts::PI;
use std::sync::Arc;

use tepics::cs::colview::ColumnMatrix;
use tepics::cs::dictionary::ZeroMeanDictionary;
use tepics::cs::op::norm2;
use tepics::cs::{
    ComposedOperator, Dct2dDictionary, Dictionary, Haar2dDictionary, IdentityDictionary,
    LinearOperator, XorMeasurement,
};
use tepics::recovery::{CoSaMp, Omp};
use tepics::util::{BitVec, SplitMix64};

/// A random XOR measurement on an `m×n` image (row-major, `m` rows).
fn xor_phi(m: usize, n: usize, k: usize, rng: &mut SplitMix64) -> XorMeasurement {
    let patterns: Vec<BitVec> = (0..k)
        .map(|_| BitVec::from_bools((0..m + n).map(|_| rng.next_bool())))
        .collect();
    XorMeasurement::from_patterns(m, n, patterns)
}

/// The orthonormal DCT-II basis of length `n` from the cosine formula:
/// atom `a` at `[a·n..(a+1)·n]`.
fn cosine_basis(n: usize) -> Vec<f64> {
    let mut basis = vec![0.0; n * n];
    for a in 0..n {
        let c = if a == 0 {
            1.0 / n as f64
        } else {
            2.0 / n as f64
        }
        .sqrt();
        for i in 0..n {
            basis[a * n + i] = c * (PI * (2 * i + 1) as f64 * a as f64 / (2 * n) as f64).cos();
        }
    }
    basis
}

/// The dense oracle: column `(v, u)` (index `v·n + u`) of `Φ·Ψ`, with
/// Φ's rows the explicit 0/1 selection matrices `S_k` and Ψ's atoms
/// `h_v ⊗ w_u`, i.e. entry `k` is `h_vᵀ S_k w_u`.
fn dense_oracle(phi: &XorMeasurement) -> Vec<Vec<f64>> {
    let (m, n) = (phi.array_rows(), phi.array_cols());
    let (h, w) = (cosine_basis(m), cosine_basis(n));
    let rows: Vec<Vec<f64>> = (0..phi.rows())
        .map(|k| {
            // S_k W: row i, horizontal frequency u.
            let mut sw = vec![0.0; m * n];
            for i in 0..m {
                for u in 0..n {
                    sw[i * n + u] = (0..n)
                        .filter(|&j| phi.selected(k, i, j))
                        .map(|j| w[u * n + j])
                        .sum();
                }
            }
            let mut row = vec![0.0; m * n];
            for v in 0..m {
                for u in 0..n {
                    row[v * n + u] = (0..m).map(|i| h[v * m + i] * sw[i * n + u]).sum();
                }
            }
            row
        })
        .collect();
    (0..m * n)
        .map(|j| rows.iter().map(|row| row[j]).collect())
        .collect()
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
        let oracle = dense_oracle(&phi);
        let full = Dct2dDictionary::new(n, m);
        let view = ColumnMatrix::from_operator(&ComposedOperator::new(&phi, &full));
        for (j, want) in oracle.iter().enumerate() {
            let dev = rel_dev(view.column(j), want);
            assert!(
                dev <= 1e-12,
                "{m}x{n} column {j}: relative deviation {dev:e}"
            );
        }
        let pinned = ZeroMeanDictionary::new(Dct2dDictionary::new(n, m), 0);
        let view = ColumnMatrix::from_operator(&ComposedOperator::new(&phi, &pinned));
        assert!(
            view.column(0).iter().all(|&v| v == 0.0),
            "{m}x{n}: pinned DC column is not exactly zero"
        );
        for (j, want) in oracle.iter().enumerate().skip(1) {
            let dev = rel_dev(view.column(j), want);
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
        let view = ColumnMatrix::from_operator(&a);
        for i in 0..m {
            for j in 0..n {
                let mask: Vec<f64> = (0..phi.rows())
                    .map(|k| if phi.selected(k, i, j) { 1.0 } else { 0.0 })
                    .collect();
                assert_eq!(view.column(i * n + j), mask.as_slice(), "{m}x{n} ({i},{j})");
                assert_eq!(a.column(i * n + j), mask, "{m}x{n} ({i},{j}) without view");
            }
        }
    }
}

/// The bulk view and per-column extraction without a view give the same
/// bits for every dictionary the decoder can select (closed form for
/// DCT and identity, the generic path for Haar), so OMP through the
/// view returns the same bits as OMP without it, and CoSaMP through the
/// view stays within 1e-6·max(‖c‖₂, 1) of CoSaMP without it.
#[test]
fn view_equals_extraction_without_view() {
    let mut rng = SplitMix64::new(0x5EED);
    for &(m, n) in &[(16, 16), (8, 12)] {
        let k = m * n * 2 / 5;
        let phi = xor_phi(m, n, k, &mut rng);
        let dicts: Vec<(&str, Box<dyn Dictionary>)> = vec![
            (
                "dct-zeromean",
                Box::new(ZeroMeanDictionary::new(Dct2dDictionary::new(n, m), 0)),
            ),
            ("dct", Box::new(Dct2dDictionary::new(n, m))),
            (
                "haar-zeromean",
                Box::new(ZeroMeanDictionary::new(Haar2dDictionary::new(n, m), 0)),
            ),
            ("identity", Box::new(IdentityDictionary::new(m * n))),
        ];
        let x: Vec<f64> = (0..m * n).map(|_| rng.next_f64() * 255.0).collect();
        let y = phi.apply_vec(&x);
        for (name, dict) in &dicts {
            let plain = ComposedOperator::new(&phi, dict.as_ref());
            let view = Arc::new(ColumnMatrix::from_operator(&plain));
            for j in 0..m * n {
                assert_eq!(view.column(j), plain.column(j), "{m}x{n} {name} column {j}");
            }
            let viewed = ComposedOperator::new(&phi, dict.as_ref()).with_column_view(view);
            let omp = Omp::new(k / 4);
            assert_eq!(
                omp.solve(&plain, &y).unwrap(),
                omp.solve(&viewed, &y).unwrap(),
                "{m}x{n} {name}: OMP through the view diverged"
            );
            let cosamp = CoSaMp::new(k / 4);
            let c = cosamp.solve(&plain, &y).unwrap().coefficients;
            let d = cosamp.solve(&viewed, &y).unwrap().coefficients;
            let worst = c
                .iter()
                .zip(&d)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst <= 1e-6 * norm2(&c).max(1.0),
                "{m}x{n} {name}: CoSaMP through the view drifted {worst:e}"
            );
        }
    }
}
