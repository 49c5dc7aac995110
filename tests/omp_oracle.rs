//! Textbook twins of production OMP, with its held-out stop rule, and
//! of production CoSaMP.
//!
//! Production OMP is Batch-OMP over Gram slots: it never forms a
//! residual, reads the held-out residual out of its correlation update,
//! and re-fits the chosen support from stored values only. The twin here
//! does every step the naive way, over the dense `A = Φ·Ψ` of
//! `tests/dense`, built from `XorMeasurement::selected` and the
//! cosine-formula DCT basis matrix (DC atom pinned to zero, as the
//! decoder pins it):
//!
//! * hold out every tenth measurement (`r % 10 == 9`) once `K ≥ 40`;
//! * per iteration, correlate the explicit training residual with every
//!   training column, take the largest unselected `|c_j|`, solve the
//!   training normal equations on the support from scratch, recompute
//!   the training residual and the held-out residual explicitly;
//! * remember the support size with the least held-out residual (the
//!   empty support included), stop `PATIENCE` atoms past it, at the cap,
//!   or once `‖y − A x‖ ≤ tol·‖y‖`;
//! * truncate to the best support and re-fit it on all `K` rows by the
//!   full normal equations.
//!
//! On real 16×16 and 32×32 tile measurements, mean-split from the
//! selection counts, production OMP (with a Gram store, as the decoder
//! runs it) must stop at the twin's iteration and pick the twin's
//! support with coefficients within 1e-10 relative, and the production
//! `Decoder` must return the twin's atom count and its code image
//! within 1e-9. A 16×16 capture
//! below the hold-out threshold pins the plain pursuit the same way.
//!
//! Production CoSaMP solves each least squares from the same Gram slots.
//! Its twin does every step the naive way over the same dense `A`: the
//! proxy `Aᵀr` on all rows, the 2k largest `|c_j|` merged with the
//! current support, least squares on the merged support by the dense
//! normal equations on all rows (the all-zero DC column left out),
//! pruning to the k largest coefficients, the explicit residual, and
//! the same stop and stall rules. On 16×16 and 32×32 captures,
//! mean-split with DC pinned, production CoSaMP on a Gram store must
//! pick the twin's support in the twin's iteration count, with
//! coefficients within 1e-10 relative.

use std::sync::Arc;

use tepics::cs::dictionary::ZeroMeanDictionary;
use tepics::cs::gram::held_out_rows;
use tepics::cs::measurement::SelectionMeasurement;
use tepics::cs::op::{dot, norm2};
use tepics::cs::{ComposedOperator, Dct2dDictionary, GramStore};
use tepics::prelude::*;
use tepics::recovery::{CoSaMp, Omp, Solver};

mod dense;
use dense::{atom_images, pinned_columns};

/// The pursuit's stop threshold, `Omp`'s and `CoSaMp`'s default
/// `residual_tol`.
const OMP_TOL: f64 = 1e-9;

/// `CoSaMp`'s default iteration cap.
const COSAMP_ITERATIONS: usize = 50;

/// Atoms past the held-out minimum after which the pursuit stops.
const PATIENCE: usize = 12;

/// The held-out rows of a `k`-row measurement.
fn held_rows(k: usize) -> Vec<usize> {
    if k < 40 {
        return Vec::new();
    }
    (0..k).filter(|r| r % 10 == 9).collect()
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

/// Least squares on `support` over the rows `rows` by the normal
/// equations.
fn least_squares(columns: &[Vec<f64>], y: &[f64], support: &[usize], rows: &[usize]) -> Vec<f64> {
    let restricted = |j: usize| -> Vec<f64> { rows.iter().map(|&r| columns[j][r]).collect() };
    let cols: Vec<Vec<f64>> = support.iter().map(|&j| restricted(j)).collect();
    let yr: Vec<f64> = rows.iter().map(|&r| y[r]).collect();
    let gram: Vec<Vec<f64>> = cols
        .iter()
        .map(|ci| cols.iter().map(|cj| dot(ci, cj)).collect())
        .collect();
    let rhs: Vec<f64> = cols.iter().map(|c| dot(c, &yr)).collect();
    cholesky_solve(&gram, &rhs)
}

/// `y − A_S x` on every row.
fn residual(columns: &[Vec<f64>], y: &[f64], support: &[usize], x: &[f64]) -> Vec<f64> {
    let mut r = y.to_vec();
    for (&j, &c) in support.iter().zip(x) {
        for (ri, aij) in r.iter_mut().zip(&columns[j]) {
            *ri -= c * aij;
        }
    }
    r
}

/// A sparse code: its support in selection order and its coefficients.
struct Pursuit {
    support: Vec<usize>,
    coefficients: Vec<f64>,
    /// Atoms selected before the stop, truncated ones included.
    selected: usize,
}

/// Cross-validated textbook OMP (see the module docs).
fn textbook_cv_omp(columns: &[Vec<f64>], y: &[f64], atoms: usize) -> Pursuit {
    let k = y.len();
    let held = held_rows(k);
    let train: Vec<usize> = (0..k).filter(|r| !held.contains(r)).collect();
    let budget = atoms.min(columns.len()).min(train.len());
    let y_norm = norm2(y);
    let held_norm2 = |r: &[f64]| held.iter().map(|&i| r[i] * r[i]).sum::<f64>();
    let mut support: Vec<usize> = Vec::new();
    let mut x: Vec<f64> = Vec::new();
    let mut r = y.to_vec();
    let mut best = (held_norm2(&r), 0usize, Vec::new());
    let mut converged = y_norm == 0.0;
    while support.len() < budget && !converged {
        let mut pick = None;
        let mut best_mag = 0.0;
        for (j, col) in columns.iter().enumerate() {
            let c: f64 = train.iter().map(|&i| col[i] * r[i]).sum();
            if c.abs() > best_mag && !support.contains(&j) {
                best_mag = c.abs();
                pick = Some(j);
            }
        }
        let Some(j) = pick else { break };
        if best_mag < 1e-14 {
            break;
        }
        support.push(j);
        x = least_squares(columns, y, &support, &train);
        r = residual(columns, y, &support, &x);
        converged = norm2(&r) <= OMP_TOL * y_norm.max(1e-300);
        if held.is_empty() {
            continue;
        }
        let cv = held_norm2(&r);
        if cv < best.0 {
            best = (cv, support.len(), x.clone());
        } else if support.len() - best.1 >= PATIENCE {
            break;
        }
    }
    let selected = support.len();
    if !held.is_empty() && !support.is_empty() {
        if !converged {
            support.truncate(best.1);
            x = best.2;
        }
        if !support.is_empty() {
            let all: Vec<usize> = (0..k).collect();
            x = least_squares(columns, y, &support, &all);
        }
    }
    let mut coefficients = vec![0.0; columns.len()];
    for (&j, &c) in support.iter().zip(&x) {
        coefficients[j] = c;
    }
    Pursuit {
        support,
        coefficients,
        selected,
    }
}

/// Textbook CoSaMP (see the module docs); returns the pursuit and its
/// iteration count.
fn textbook_cosamp(columns: &[Vec<f64>], y: &[f64], sparsity: usize) -> (Pursuit, usize) {
    let all: Vec<usize> = (0..y.len()).collect();
    let y_norm = norm2(y);
    let mut coefficients = vec![0.0; columns.len()];
    let mut r = y.to_vec();
    let mut last = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = y_norm == 0.0;
    while iterations < COSAMP_ITERATIONS && !converged {
        iterations += 1;
        let proxy: Vec<f64> = columns.iter().map(|col| dot(col, &r)).collect();
        let mut order: Vec<usize> = (0..columns.len()).collect();
        order.sort_by(|&i, &j| proxy[j].abs().total_cmp(&proxy[i].abs()));
        let mut merged: Vec<usize> = order[..2 * sparsity].to_vec();
        merged.extend((0..columns.len()).filter(|&j| coefficients[j] != 0.0));
        merged.sort_unstable();
        merged.dedup();
        merged.retain(|&j| columns[j].iter().any(|&v| v != 0.0));
        let fit = least_squares(columns, y, &merged, &all);
        let mut by_size: Vec<usize> = (0..merged.len()).collect();
        by_size.sort_by(|&i, &j| fit[j].abs().total_cmp(&fit[i].abs()));
        coefficients.fill(0.0);
        for &t in by_size.iter().take(sparsity) {
            coefficients[merged[t]] = fit[t];
        }
        let support: Vec<usize> = (0..columns.len())
            .filter(|&j| coefficients[j] != 0.0)
            .collect();
        let x: Vec<f64> = support.iter().map(|&j| coefficients[j]).collect();
        r = residual(columns, y, &support, &x);
        let rn = norm2(&r);
        converged = rn <= OMP_TOL * y_norm.max(1e-300);
        if (last - rn).abs() <= 1e-12 * y_norm.max(1e-300) {
            break;
        }
        last = rn;
    }
    let support = (0..columns.len())
        .filter(|&j| coefficients[j] != 0.0)
        .collect();
    let pursuit = Pursuit {
        support,
        coefficients,
        selected: 0,
    };
    (pursuit, iterations)
}

/// Asserts `got` has exactly `want`'s support and its coefficients
/// within 1e-10 of `want`'s largest magnitude.
fn assert_same_pursuit(got: &[f64], want: &Pursuit, label: &str) {
    let mut support: Vec<usize> = (0..got.len()).filter(|&j| got[j] != 0.0).collect();
    let mut want_support = want.support.clone();
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
        worst <= 1e-10 * scale.max(1e-300),
        "{label}: coefficients deviate by {worst:e} (scale {scale:e})"
    );
}

/// Production OMP and the production `Decoder` equal the textbook twin
/// on real tile measurements (see the module docs): 16×16 and 32×32
/// captures with the hold-out active, and a 16×16 capture with `K < 40`,
/// where nothing is held out.
#[test]
fn production_omp_matches_the_cross_validated_textbook_twin() {
    let mut held_out_cases = 0;
    for &(side, ratio, scenes, atoms) in &[
        (16usize, 0.35, 3u64, 30usize),
        (32, 0.35, 3, 100),
        (16, 0.12, 2, 30),
    ] {
        let imager = CompressiveImager::builder(side, side)
            .ratio(ratio)
            .seed(0x0_4AC1E + side as u64)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let frames: Vec<CompressedFrame> = (0..scenes)
            .map(|i| imager.capture(&Scene::natural_like().render(side, side, 40 + i)))
            .collect();
        let k = frames[0].samples.len();
        assert_eq!(
            held_out_rows(k).collect::<Vec<_>>(),
            held_rows(k),
            "{side}x{side} K={k}: production holds out other rows"
        );
        held_out_cases += usize::from(k >= 40);
        let mut decoder = Decoder::for_frame(&frames[0]).unwrap();
        decoder.params(RecoveryParams::exact_sparse(atoms));
        let phi = decoder.rebuild_measurement(k).unwrap();
        let counts = phi.selection_counts();
        let columns = pinned_columns(&phi);
        let images = atom_images(side, side);
        let pinned = ZeroMeanDictionary::new(Dct2dDictionary::new(side, side), 0);
        for (f, frame) in frames.iter().enumerate() {
            let label = format!("{side}x{side} K={k} frame {f}");
            let y: Vec<f64> = frame.samples.iter().map(|&s| f64::from(s)).collect();
            let mean = (dot(&counts, &y) / dot(&counts, &counts)).clamp(0.0, 255.0);
            let resid: Vec<f64> = y.iter().zip(&counts).map(|(v, c)| v - mean * c).collect();
            let twin = textbook_cv_omp(&columns, &resid, atoms);
            assert!(twin.support.len() <= atoms, "{label}: over the cap");

            // A fresh store admits each atom the pursuit selects, so its
            // count shows where the loop stopped.
            let store = Arc::new(GramStore::new(k, side * side));
            let a = ComposedOperator::new(&phi, &pinned).with_gram_store(store.clone());
            let got = Omp::new(atoms).solve(&a, &resid).unwrap();
            assert_eq!(got.stats.iterations, twin.support.len(), "{label}: atoms");
            assert_eq!(store.admitted(), twin.selected, "{label}: stop iteration");
            assert_same_pursuit(&got.coefficients, &twin, &label);

            let recon = decoder.reconstruct(frame).unwrap();
            assert_eq!(
                recon.stats().iterations,
                twin.support.len(),
                "{label}: decoder atoms"
            );
            let mut pixels = vec![mean; side * side];
            for &j in &twin.support {
                for (p, v) in pixels.iter_mut().zip(&images[j]) {
                    *p += twin.coefficients[j] * v;
                }
            }
            let worst = recon
                .code_image()
                .as_slice()
                .iter()
                .zip(&pixels)
                .map(|(&got, &want)| (got - want.clamp(0.0, 255.0)).abs())
                .fold(0.0f64, f64::max);
            assert!(worst <= 1e-9, "{label}: decoded codes deviate by {worst:e}");
        }
    }
    assert_eq!(held_out_cases, 2, "both hold-out sizes must be exercised");
}

/// Production CoSaMP on a Gram store, as the decoder runs it, equals the
/// textbook twin on 16×16 and 32×32 captures, mean-split with the DC
/// atom pinned (see the module docs).
#[test]
fn production_cosamp_matches_the_textbook_twin() {
    for &(side, scenes) in &[(16usize, 3u64), (32, 2)] {
        let imager = CompressiveImager::builder(side, side)
            .ratio(0.35)
            .seed(0xC05A + side as u64)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let frames: Vec<CompressedFrame> = (0..scenes)
            .map(|i| imager.capture(&Scene::natural_like().render(side, side, 70 + i)))
            .collect();
        let k = frames[0].samples.len();
        let sparsity = k / 8;
        let mut decoder = Decoder::for_frame(&frames[0]).unwrap();
        decoder.params(RecoveryParams {
            solver: SolverKind::CoSamp { sparsity },
            dictionary: DictionaryKind::Dct2d,
        });
        let phi = decoder.rebuild_measurement(k).unwrap();
        let counts = phi.selection_counts();
        let columns = pinned_columns(&phi);
        let pinned = ZeroMeanDictionary::new(Dct2dDictionary::new(side, side), 0);
        let store = Arc::new(GramStore::new(k, side * side));
        for (f, frame) in frames.iter().enumerate() {
            let label = format!("{side}x{side} K={k} frame {f}");
            let y: Vec<f64> = frame.samples.iter().map(|&s| f64::from(s)).collect();
            let mean = (dot(&counts, &y) / dot(&counts, &counts)).clamp(0.0, 255.0);
            let resid: Vec<f64> = y.iter().zip(&counts).map(|(v, c)| v - mean * c).collect();
            let (twin, iterations) = textbook_cosamp(&columns, &resid, sparsity);
            assert!(twin.support.len() <= sparsity, "{label}: over the sparsity");

            let a = ComposedOperator::new(&phi, &pinned).with_gram_store(store.clone());
            let got = CoSaMp::new(sparsity).solve(&a, &resid).unwrap();
            assert_eq!(got.stats.iterations, iterations, "{label}: iterations");
            assert_same_pursuit(&got.coefficients, &twin, &label);
            let recon = decoder.reconstruct(frame).unwrap();
            assert_eq!(
                recon.stats().iterations,
                iterations,
                "{label}: decoder iterations"
            );
        }
    }
}
