//! A textbook twin of production FISTA.
//!
//! Production FISTA runs matrix-free over the fused `Φ·Ψ` kernels. The
//! twin here is the naive proximal-gradient loop over the dense
//! `A = Φ·Ψ` of
//! `tests/dense` (`XorMeasurement::selected` times the cosine-formula
//! DCT atoms, DC atom pinned to zero, as the decoder pins it):
//!
//! * `g = Aᵀ(A z − y)` by two dense passes, `x ← soft(z − s·g, λ·s)`;
//! * `t' = (1 + √(1 + 4t²))/2`, `z ← x + ((t − 1)/t')(x − x_prev)`;
//! * stop once `‖x − x_prev‖ ≤ tol·max(‖x‖, 1e-12)`, or at the cap.
//!
//! On real 16×16 and 32×32 tile measurements, mean-split from the
//! selection counts, twin and production run with equal λ, step `s`
//! and iteration cap: production `Fista` with the twin's λ and the step
//! of its own seeded norm estimate, and the production
//! `Decoder` with non-debiased FISTA, which derives both itself. Each
//! must stop at the twin's iteration with the twin's convergence flag,
//! with coefficients within [`COEFFICIENT_TOL`] of the twin's largest
//! magnitude, and the decoder's code image within [`CODE_TOL`] of the
//! twin's synthesis.
//!
//! The tolerances are measured, not exact: one fused forward or adjoint
//! pass equals the dense one only to about 1e-13 relative, and a solve
//! runs hundreds of them. On these captures the largest deviations were
//! 2.1e-14 of the largest coefficient and 1.6e-12 codes (at 16×16, 300
//! iterations; the 32×32 FISTA run stops by the rule at iteration
//! 1489); the bounds leave a margin of about 50×.

use tepics::cs::dictionary::ZeroMeanDictionary;
use tepics::cs::measurement::SelectionMeasurement;
use tepics::cs::op::{dot, norm2};
use tepics::cs::{ComposedOperator, Dct2dDictionary};
use tepics::prelude::*;
use tepics::recovery::solver::norm_seeds;
use tepics::recovery::{Fista, Recovery, Solver};

mod dense;
use dense::{atom_images, pinned_columns};

/// Largest coefficient deviation from the twin, relative to the twin's
/// largest magnitude.
const COEFFICIENT_TOL: f64 = 1e-12;

/// Largest deviation of a decoded code from the twin's synthesis.
const CODE_TOL: f64 = 1e-10;

/// `Fista`'s default relative-change tolerance.
const TOL: f64 = 1e-6;

/// `SolverKind::Fista`'s default λ ratio.
const LAMBDA_RATIO: f64 = 0.02;

/// A twin solve: coefficients, iterations run, and whether the stop
/// rule ended it.
struct Descent {
    coefficients: Vec<f64>,
    iterations: usize,
    converged: bool,
}

/// `A x` over the dense columns.
fn apply(columns: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; columns[0].len()];
    for (col, &xj) in columns.iter().zip(x) {
        for (o, &a) in out.iter_mut().zip(col) {
            *o += a * xj;
        }
    }
    out
}

/// `Aᵀ r` over the dense columns.
fn adjoint(columns: &[Vec<f64>], r: &[f64]) -> Vec<f64> {
    columns.iter().map(|col| dot(col, r)).collect()
}

/// λ = `ratio·‖Aᵀy‖∞`, as `Fista` resolves a ratio.
fn ratio_lambda(columns: &[Vec<f64>], y: &[f64], ratio: f64) -> f64 {
    ratio
        * adjoint(columns, y)
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
}

/// The textbook proximal-gradient loop (see the module docs).
fn textbook_descent(
    columns: &[Vec<f64>],
    y: &[f64],
    lambda: f64,
    step: f64,
    max_iter: usize,
) -> Descent {
    let n = columns.len();
    let mut x = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut t = 1.0f64;
    for it in 0..max_iter {
        let r: Vec<f64> = apply(columns, &z)
            .iter()
            .zip(y)
            .map(|(a, b)| a - b)
            .collect();
        let g = adjoint(columns, &r);
        let x_prev = x;
        x = z
            .iter()
            .zip(&g)
            .map(|(&zi, &gi)| {
                let v = zi - step * gi;
                let mag = v.abs() - lambda * step;
                if mag > 0.0 {
                    v.signum() * mag
                } else {
                    0.0
                }
            })
            .collect();
        let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        let beta = (t - 1.0) / t_next;
        z = x
            .iter()
            .zip(&x_prev)
            .map(|(&v, &p)| v + beta * (v - p))
            .collect();
        t = t_next;
        let change: Vec<f64> = x.iter().zip(&x_prev).map(|(a, b)| a - b).collect();
        if norm2(&change) <= TOL * norm2(&x).max(1e-12) {
            return Descent {
                coefficients: x,
                iterations: it + 1,
                converged: true,
            };
        }
    }
    Descent {
        coefficients: x,
        iterations: max_iter,
        converged: false,
    }
}

/// Asserts `got` ran as long as `want` and lies within
/// [`COEFFICIENT_TOL`] of it.
fn assert_same_descent(got: &Recovery, want: &Descent, label: &str) {
    assert_eq!(got.stats.iterations, want.iterations, "{label}: iterations");
    assert_eq!(got.stats.converged, want.converged, "{label}: converged");
    let scale = want
        .coefficients
        .iter()
        .fold(0.0f64, |m, &c| m.max(c.abs()));
    assert!(scale > 0.0, "{label}: the twin recovered nothing");
    let worst = got
        .coefficients
        .iter()
        .zip(&want.coefficients)
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
    assert!(
        worst <= COEFFICIENT_TOL * scale,
        "{label}: coefficients deviate by {:e} of the largest",
        worst / scale
    );
}

/// Production `Fista` and the non-debiased FISTA `Decoder` equal the
/// textbook twin on 16×16 and 32×32 captures, mean-split with the DC
/// atom pinned (see the module docs).
#[test]
fn production_fista_matches_the_textbook_twin() {
    let mut stopped_by_rule = 0;
    // (side, scenes, cap): at 16×16 every run ends at its cap; at 32×32
    // FISTA stops by the relative-change rule.
    for &(side, scenes, fista_cap) in &[(16usize, 3u64, 300), (32, 1, 1500)] {
        let imager = CompressiveImager::builder(side, side)
            .ratio(0.35)
            .seed(0xF157A + side as u64)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let frames: Vec<CompressedFrame> = (0..scenes)
            .map(|i| imager.capture(&Scene::natural_like().render(side, side, 90 + i)))
            .collect();
        let k = frames[0].samples.len();
        let mut decoder = Decoder::for_frame(&frames[0]).unwrap();
        decoder.params(RecoveryParams {
            solver: SolverKind::Fista {
                lambda_ratio: LAMBDA_RATIO,
                max_iter: fista_cap,
                debias: false,
            },
            dictionary: DictionaryKind::Dct2d,
        });
        let phi = decoder.rebuild_measurement(k).unwrap();
        let counts = phi.selection_counts();
        let columns = pinned_columns(&phi);
        let atoms = atom_images(side, side);
        let pinned = ZeroMeanDictionary::new(Dct2dDictionary::new(side, side), 0);
        let a = ComposedOperator::new(&phi, &pinned);
        let fista_step = norm_seeds::step(norm_seeds::estimate(&a, norm_seeds::FISTA));
        for (f, frame) in frames.iter().enumerate() {
            let label = format!("{side}x{side} K={k} frame {f}");
            let y: Vec<f64> = frame.samples.iter().map(|&s| f64::from(s)).collect();
            let mean = (dot(&counts, &y) / dot(&counts, &counts)).clamp(0.0, 255.0);
            let resid: Vec<f64> = y.iter().zip(&counts).map(|(v, c)| v - mean * c).collect();
            let lambda = ratio_lambda(&columns, &resid, LAMBDA_RATIO);

            let twin = textbook_descent(&columns, &resid, lambda, fista_step, fista_cap);
            stopped_by_rule += usize::from(twin.converged);
            let got = Fista::new()
                .lambda(lambda)
                .step(fista_step)
                .max_iter(fista_cap)
                .solve(&a, &resid)
                .unwrap();
            assert_same_descent(&got, &twin, &format!("{label} FISTA"));

            let recon = decoder.reconstruct(frame).unwrap();
            assert_eq!(
                recon.stats().iterations,
                twin.iterations,
                "{label}: decoder iterations"
            );
            let mut pixels = vec![mean; side * side];
            for (c, atom) in twin.coefficients.iter().zip(&atoms) {
                for (p, v) in pixels.iter_mut().zip(atom) {
                    *p += c * v;
                }
            }
            let worst = recon
                .code_image()
                .as_slice()
                .iter()
                .zip(&pixels)
                .map(|(&got, &want)| (got - want.clamp(0.0, 255.0)).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst <= CODE_TOL,
                "{label}: decoded codes deviate by {worst:e}"
            );
        }
    }
    assert!(stopped_by_rule > 0, "no FISTA run stopped by the rule");
}
