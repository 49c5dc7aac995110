//! The dense textbook `A = Φ·Ψ` the oracle tests compare production
//! against: Φ's rows are the explicit 0/1 selection matrices `S_k` from
//! `XorMeasurement::selected`, and Ψ's atoms are `h_v ⊗ w_u` from the
//! cosine-formula DCT-II basis.

// Each test crate that includes this module uses a different subset.
#![allow(dead_code)]

use std::f64::consts::PI;

use tepics::cs::{LinearOperator, XorMeasurement};

/// The orthonormal DCT-II basis of length `n` from the cosine formula:
/// atom `a` at `[a·n..(a+1)·n]`.
pub fn cosine_basis(n: usize) -> Vec<f64> {
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

/// Column `(v, u)` (index `v·n + u`) of `Φ·Ψ`: entry `k` is
/// `h_vᵀ S_k w_u`.
pub fn dense_columns(phi: &XorMeasurement) -> Vec<Vec<f64>> {
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

/// [`dense_columns`] with the DC column zeroed, as the decoder pins the
/// DC atom.
pub fn pinned_columns(phi: &XorMeasurement) -> Vec<Vec<f64>> {
    let mut columns = dense_columns(phi);
    columns[0].fill(0.0);
    columns
}

/// The `m×n` DCT atoms as images, in column order, for synthesis.
pub fn atom_images(m: usize, n: usize) -> Vec<Vec<f64>> {
    let (h, w) = (cosine_basis(m), cosine_basis(n));
    let mut atoms = Vec::with_capacity(m * n);
    for v in 0..m {
        for u in 0..n {
            let mut img = vec![0.0; m * n];
            for i in 0..m {
                for j in 0..n {
                    img[i * n + j] = h[v * m + i] * w[u * n + j];
                }
            }
            atoms.push(img);
        }
    }
    atoms
}
