//! Explicit-width chunked f64 kernels shared by every hot loop.
//!
//! Rust with `forbid(unsafe_code)` and no external crates cannot name
//! `f64x4` directly, but LLVM reliably vectorizes a loop whose body is
//! four *independent* lane accumulators over `chunks_exact(4)` — the
//! dependence chains are explicit, the trip count is known, and no lane
//! reads another lane's partial. Every kernel here is written in that
//! style so the whole workspace shares one audited implementation (and
//! one reassociation order) for dot products, AXPY updates and
//! horizontal sums.
//!
//! # Determinism contract
//!
//! Each kernel fixes one summation order that does not depend on thread
//! count, warm/cold state, or call site: lane partials are accumulated
//! in slice order and reduced in the fixed order `(s0 + s1) + (s2 + s3)`.
//! Results are therefore bit-identical run to run, although they may
//! differ from a naive sequential sum in the last bits (bounded well
//! below 1e-10 relative for the workspace's problem sizes; see the
//! property tests in `tepics-cs`).

/// Sum of a slice using four independent lane accumulators.
///
/// Deterministic: lanes are reduced as `(s0 + s1) + (s2 + s3)`, then the
/// up-to-three tail elements are added in slice order.
///
/// # Examples
///
/// ```
/// use tepics_util::simd::sum4;
///
/// let v: Vec<f64> = (0..10).map(|i| i as f64).collect();
/// assert_eq!(sum4(&v), 45.0);
/// ```
// tidy:alloc-free
#[inline]
pub fn sum4(v: &[f64]) -> f64 {
    let mut s = [0.0f64; 4];
    let mut chunks = v.chunks_exact(4);
    for c in &mut chunks {
        s[0] += c[0];
        s[1] += c[1];
        s[2] += c[2];
        s[3] += c[3];
    }
    let mut acc = (s[0] + s[1]) + (s[2] + s[3]);
    for &x in chunks.remainder() {
        acc += x;
    }
    acc
}

/// Dot product `Σ a[i]·b[i]` using four independent lane accumulators.
///
/// Deterministic: same reduction order as [`sum4`]. Only the first
/// `min(a.len(), b.len())` elements participate, matching
/// `zip`-semantics at the call sites.
///
/// # Examples
///
/// ```
/// use tepics_util::simd::dot4;
///
/// assert_eq!(dot4(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
/// ```
// tidy:alloc-free
#[inline]
pub fn dot4(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut s = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        s[0] += x[0] * y[0];
        s[1] += x[1] * y[1];
        s[2] += x[2] * y[2];
        s[3] += x[3] * y[3];
    }
    let mut acc = (s[0] + s[1]) + (s[2] + s[3]);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += x * y;
    }
    acc
}

/// AXPY update `y[i] += alpha · x[i]`, four lanes per iteration.
///
/// Element-wise (no cross-lane reduction), so the result is exactly the
/// same as the scalar loop — only the instruction schedule changes.
///
/// # Panics
///
/// Panics if `y.len() != x.len()`.
///
/// # Examples
///
/// ```
/// use tepics_util::simd::axpy4;
///
/// let mut y = vec![1.0; 5];
/// axpy4(2.0, &[1.0, 2.0, 3.0, 4.0, 5.0], &mut y);
/// assert_eq!(y, vec![3.0, 5.0, 7.0, 9.0, 11.0]);
/// ```
// tidy:alloc-free
#[inline]
pub fn axpy4(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(y.len(), x.len(), "axpy4 length mismatch");
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    for (yd, xs) in (&mut cy).zip(&mut cx) {
        yd[0] += alpha * xs[0];
        yd[1] += alpha * xs[1];
        yd[2] += alpha * xs[2];
        yd[3] += alpha * xs[3];
    }
    for (yd, xs) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yd += alpha * xs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = crate::SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
    }

    #[test]
    fn sum4_matches_sequential_to_tolerance() {
        for n in [0usize, 1, 3, 4, 5, 8, 17, 64, 1000] {
            let v = pseudo(n, n as u64 + 1);
            let seq: f64 = v.iter().sum();
            assert!(
                (sum4(&v) - seq).abs() <= 1e-12 * seq.abs().max(1.0),
                "n={n}"
            );
        }
    }

    #[test]
    fn sum4_is_deterministic() {
        let v = pseudo(123, 9);
        let a = sum4(&v);
        for _ in 0..10 {
            assert_eq!(sum4(&v).to_bits(), a.to_bits());
        }
    }

    #[test]
    fn dot4_matches_sequential_to_tolerance() {
        for n in [0usize, 1, 2, 4, 7, 16, 63, 500] {
            let a = pseudo(n, 2 * n as u64 + 1);
            let b = pseudo(n, 3 * n as u64 + 5);
            let seq: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                (dot4(&a, &b) - seq).abs() <= 1e-12 * seq.abs().max(1.0),
                "n={n}"
            );
        }
    }

    #[test]
    fn dot4_truncates_to_shorter_slice() {
        assert_eq!(dot4(&[1.0, 2.0, 3.0], &[10.0, 10.0]), 30.0);
        assert_eq!(dot4(&[2.0], &[1.0, 99.0, 99.0]), 2.0);
    }

    #[test]
    fn axpy4_is_exactly_the_scalar_loop() {
        for n in [0usize, 1, 4, 6, 33] {
            let x = pseudo(n, 11 + n as u64);
            let y0 = pseudo(n, 17 + n as u64);
            let mut fast = y0.clone();
            axpy4(0.37, &x, &mut fast);
            let mut slow = y0;
            for (yd, xs) in slow.iter_mut().zip(&x) {
                *yd += 0.37 * xs;
            }
            assert_eq!(fast, slow, "n={n}");
        }
    }
}
