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
//! The same dense oracle pins production OMP (Batch-OMP over Gram
//! columns): on real 16×16 and 32×32 tile measurements, mean-split and
//! with the DC atom pinned, it must pick the same support as a textbook
//! dense OMP and as the residual-recompute pursuit it replaced, with
//! coefficients within 1e-10 relative.

use std::f64::consts::PI;
use std::sync::Arc;

use tepics::cs::chol::GrowingCholesky;
use tepics::cs::colview::ColumnMatrix;
use tepics::cs::dictionary::ZeroMeanDictionary;
use tepics::cs::measurement::SelectionMeasurement;
use tepics::cs::op::{axpy, dot, norm2};
use tepics::cs::{
    ComposedOperator, Dct2dDictionary, Dictionary, GramStore, Haar2dDictionary, IdentityDictionary,
    LinearOperator, XorMeasurement,
};
use tepics::prelude::*;
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

/// The pursuit's stop threshold, `Omp`'s default `residual_tol`.
const OMP_TOL: f64 = 1e-9;

/// A sparse code and the order its atoms were selected in.
struct Pursuit {
    order: Vec<usize>,
    coefficients: Vec<f64>,
}

/// Textbook OMP over dense columns: correlate `Aᵀr`, take the largest
/// unselected `|c_j|`, solve the normal equations on the support from
/// scratch, recompute `r = y − A_S x`, stop at `budget` atoms or when
/// `‖r‖ ≤ tol·‖y‖`.
fn textbook_omp(columns: &[Vec<f64>], y: &[f64], budget: usize) -> Pursuit {
    let mut residual = y.to_vec();
    let mut order: Vec<usize> = Vec::new();
    let mut x = Vec::new();
    // The support's Gram matrix, grown by one row and column per atom.
    let mut gram: Vec<Vec<f64>> = Vec::new();
    while order.len() < budget && norm2(&residual) > OMP_TOL * norm2(y) {
        let corr: Vec<f64> = columns.iter().map(|c| dot(c, &residual)).collect();
        let mut best = None;
        let mut best_mag = 0.0;
        for (j, c) in corr.iter().enumerate() {
            if c.abs() > best_mag && !order.contains(&j) {
                best_mag = c.abs();
                best = Some(j);
            }
        }
        let Some(j) = best else { break };
        if best_mag < 1e-14 {
            break;
        }
        for (row, &i) in gram.iter_mut().zip(&order) {
            row.push(dot(&columns[i], &columns[j]));
        }
        order.push(j);
        let row: Vec<f64> = order
            .iter()
            .map(|&i| dot(&columns[j], &columns[i]))
            .collect();
        gram.push(row);
        let rhs: Vec<f64> = order.iter().map(|&i| dot(&columns[i], y)).collect();
        x = cholesky_solve(&gram, &rhs);
        residual = y.to_vec();
        for (&i, &c) in order.iter().zip(&x) {
            axpy(-c, &columns[i], &mut residual);
        }
    }
    let mut coefficients = vec![0.0; columns.len()];
    for (&i, &c) in order.iter().zip(&x) {
        coefficients[i] = c;
    }
    Pursuit {
        order,
        coefficients,
    }
}

/// Solves the symmetric positive definite system `G x = b` by a dense
/// Cholesky factorization computed from scratch.
fn cholesky_solve(g: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let mut l = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..=i {
            let sum: f64 = (0..j).map(|k| l[i][k] * l[j][k]).sum();
            l[i][j] = if i == j {
                (g[i][i] - sum).sqrt()
            } else {
                (g[i][j] - sum) / l[j][j]
            };
        }
    }
    let mut z = vec![0.0; n];
    for i in 0..n {
        z[i] = (b[i] - (0..i).map(|k| l[i][k] * z[k]).sum::<f64>()) / l[i][i];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        x[i] = (z[i] - (i + 1..n).map(|k| l[k][i] * x[k]).sum::<f64>()) / l[i][i];
    }
    x
}

/// The residual-recompute pursuit that production OMP replaced: one
/// adjoint per iteration for the correlations, the selected columns
/// gathered through `column_into`, cross terms as column dot products,
/// and the residual recomputed from every selected column.
fn residual_recompute_omp<A: LinearOperator + ?Sized>(a: &A, y: &[f64], budget: usize) -> Pursuit {
    let (m, n) = (a.rows(), a.cols());
    let budget = budget.min(n).min(m);
    let y_norm = norm2(y);
    let mut chol = GrowingCholesky::with_capacity(budget.max(1));
    let mut corr = vec![0.0; n];
    let mut residual = y.to_vec();
    let mut order: Vec<usize> = Vec::new();
    let mut columns = vec![0.0; budget * m];
    let (mut rhs, mut coeffs, mut tmp) = (Vec::new(), Vec::new(), Vec::new());
    let mut converged = y_norm == 0.0;
    while order.len() < budget && !converged {
        a.apply_adjoint(&residual, &mut corr);
        let mut best = None;
        let mut best_mag = 0.0;
        for (j, &c) in corr.iter().enumerate() {
            if c.abs() > best_mag && !order.contains(&j) {
                best_mag = c.abs();
                best = Some(j);
            }
        }
        let Some(j) = best else { break };
        if best_mag < 1e-14 {
            break;
        }
        let picked = order.len();
        a.column_into(j, &mut columns[picked * m..(picked + 1) * m]);
        let (prior, rest) = columns.split_at(picked * m);
        let col = &rest[..m];
        let cross: Vec<f64> = prior.chunks_exact(m).map(|c| dot(c, col)).collect();
        if chol.push(&cross, dot(col, col)).is_err() {
            break;
        }
        order.push(j);
        rhs.push(dot(col, y));
        chol.solve_into(&rhs, &mut coeffs, &mut tmp);
        residual.copy_from_slice(y);
        for (c, col) in coeffs.iter().zip(columns.chunks_exact(m)) {
            axpy(-c, col, &mut residual);
        }
        converged = norm2(&residual) <= OMP_TOL * y_norm.max(1e-300);
    }
    let mut coefficients = vec![0.0; n];
    for (&j, &c) in order.iter().zip(&coeffs) {
        coefficients[j] = c;
    }
    Pursuit {
        order,
        coefficients,
    }
}

/// Asserts `got` has exactly `want`'s support and its coefficients
/// within 1e-10 of `want`'s largest magnitude.
fn assert_same_pursuit(got: &[f64], want: &Pursuit, label: &str) {
    let mut support: Vec<usize> = (0..got.len()).filter(|&j| got[j] != 0.0).collect();
    let mut want_support = want.order.clone();
    want_support.sort_unstable();
    support.sort_unstable();
    assert_eq!(support, want_support, "{label}: supports differ");
    let scale = want
        .coefficients
        .iter()
        .fold(0.0f64, |acc, &c| acc.max(c.abs()));
    let worst = got
        .iter()
        .zip(&want.coefficients)
        .fold(0.0f64, |acc, (g, w)| acc.max((g - w).abs()));
    assert!(
        worst <= 1e-10 * scale,
        "{label}: coefficients deviate by {worst:e} (scale {scale:e})"
    );
}

/// Production OMP — Batch-OMP over Gram columns, with and without a
/// shared Gram store — picks the same support as textbook dense OMP and
/// as the residual-recompute pursuit, with coefficients within 1e-10
/// relative, on real tile measurements: mean split from the selection
/// counts and the DC atom pinned, as the decoder runs it.
#[test]
fn production_omp_matches_dense_and_residual_recompute_oracles() {
    for &(side, scenes, budget) in &[(16usize, 3u64, 30usize), (32, 2, 100)] {
        let imager = CompressiveImager::builder(side, side)
            .seed(0x0_4AC1E + side as u64)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let frames: Vec<CompressedFrame> = (0..scenes)
            .map(|i| imager.capture(&Scene::natural_like().render(side, side, 40 + i)))
            .collect();
        let k = frames[0].samples.len();
        let phi = Decoder::for_frame(&frames[0])
            .unwrap()
            .rebuild_measurement(k)
            .unwrap();
        let counts = phi.selection_counts();
        let mut dense = dense_oracle(&phi);
        dense[0].fill(0.0); // the pinned DC atom
        let pinned = ZeroMeanDictionary::new(Dct2dDictionary::new(side, side), 0);
        let store = Arc::new(GramStore::new(k, side * side));
        for (f, frame) in frames.iter().enumerate() {
            let y: Vec<f64> = frame.samples.iter().map(|&s| f64::from(s)).collect();
            let mean = (dot(&counts, &y) / dot(&counts, &counts)).clamp(0.0, 255.0);
            let resid: Vec<f64> = y.iter().zip(&counts).map(|(v, c)| v - mean * c).collect();
            let plain = ComposedOperator::new(&phi, &pinned);
            let stored = ComposedOperator::new(&phi, &pinned).with_gram_store(store.clone());
            let omp = Omp::new(budget);
            let got = omp.solve(&plain, &resid).unwrap();
            assert_eq!(
                got,
                omp.solve(&stored, &resid).unwrap(),
                "{side}x{side} frame {f}: the Gram store changed the result"
            );
            assert_eq!(got.stats.iterations, budget.min(k));
            let label = format!("{side}x{side} frame {f}");
            let textbook = textbook_omp(&dense, &resid, budget);
            assert_same_pursuit(
                &got.coefficients,
                &textbook,
                &format!("{label} vs textbook"),
            );
            let previous = residual_recompute_omp(&plain, &resid, budget);
            assert_eq!(
                textbook.order, previous.order,
                "{label}: the oracles disagree"
            );
            assert_same_pursuit(
                &got.coefficients,
                &previous,
                &format!("{label} vs recompute"),
            );
        }
    }
}
