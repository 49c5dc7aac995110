//! Orthonormal discrete cosine transform (DCT-II / DCT-III pair).
//!
//! Two evaluation paths share one public API:
//!
//! * **Fast path** — for power-of-two lengths, a recursive even/odd
//!   (Lee 1984) factorization evaluates the transform in O(n log n)
//!   with precomputed half-secant twiddle factors. This is the path the
//!   recovery inner loop hits: the sensor geometries are powers of two,
//!   and every solver iteration runs a 2-D synthesis + analysis pair.
//! * **Matrix fallback** — for all other lengths, the precomputed
//!   orthonormal basis-matrix multiply (O(n²) per application, exact).
//!
//! The selection happens once, in [`Dct1d::new`]; both paths implement
//! the same orthonormal DCT-II (forward) / DCT-III (inverse) pair. The
//! fast path reassociates floating-point sums, so its outputs may
//! differ from the matrix path in the last bits — the difference is
//! bounded well below 1e-10 (relative) at every supported length and is
//! covered by equivalence tests against the matrix path. Both paths are
//! fully deterministic, so batch results remain bit-identical at any
//! thread count.
//!
//! # One Lee implementation
//!
//! The Lee recursion is written once, over *row-vector elements*
//! (`lee_forward_rows` / `lee_inverse_rows`): each of its `n`
//! elements is a contiguous run of `w` lanes, and every butterfly is a
//! `w`-wide vector operation that performs, lane by lane, the scalar
//! recursion's operations in the same order. Every fast-path caller
//! goes through it:
//!
//! * [`Dct1d`] runs it with one-lane elements (the scalar transform);
//! * the 2-D column pass ([`Dct2d::cols_pass`]) runs it on the image
//!   itself, whose rows are already the elements;
//! * the 2-D row pass ([`Dct2d::rows_pass`]) transposes its row block
//!   into scratch, runs it with the block's transposed columns as
//!   elements (one lane per image row), and transposes back.
//!
//! So a coefficient is bit-identical whichever pass or block split
//! computed it: the tests hold the old per-row scalar recursion as the
//! oracle and compare bit for bit.
//!
//! The 2-D transform is the separable product (rows, then columns),
//! applied through scratch buffers so repeated transforms (the solver
//! hot loop) do no per-row allocation — see [`Dct2d::forward_with`].

/// Twiddle factors for the Lee factorization of a power-of-two length:
/// for each level size `s` (n, n/2, …, 2), the `s/2` half-secants
/// `1 / (2·cos((i + ½)·π / s))`, stored level-major (largest first).
fn lee_twiddles(n: usize) -> Vec<f64> {
    let mut tw = Vec::with_capacity(n.saturating_sub(1));
    let mut s = n;
    while s >= 2 {
        let half = s / 2;
        for i in 0..half {
            let angle = (i as f64 + 0.5) * std::f64::consts::PI / s as f64;
            tw.push(0.5 / angle.cos());
        }
        s = half;
    }
    tw
}

/// Unnormalized Lee DCT-II, `x_k ← Σ_i x_i cos(π(2i+1)k/2n)`, in place
/// along the `h = x.len() / w` elements of a row-major `h × w` block,
/// each element a whole `w`-length row: every butterfly is a contiguous
/// `w`-lane vector operation, and lane `j` performs exactly the scalar
/// recursion's operations on column `j`, in the same order. `w = 1` is
/// the scalar transform of one signal; the 2-D passes use whole image
/// rows (column pass) or transposed image columns (row pass). Uses the
/// twiddles of [`lee_twiddles`]; `scratch.len() >= x.len()`.
// tidy:alloc-free
fn lee_forward_rows(x: &mut [f64], scratch: &mut [f64], w: usize, tw: &[f64]) {
    let h = x.len() / w;
    if h == 1 {
        return;
    }
    let half = h / 2;
    let (t, rest) = tw.split_at(half);
    {
        let (a, b) = scratch.split_at_mut(half * w);
        for i in 0..half {
            let ti = t[i];
            let (top_part, bottom_part) = x.split_at(half * w);
            let top = &top_part[i * w..(i + 1) * w];
            let bot = &bottom_part[(half - 1 - i) * w..(half - i) * w];
            let ar = &mut a[i * w..(i + 1) * w];
            let br = &mut b[i * w..(i + 1) * w];
            for j in 0..w {
                let (p, q) = (top[j], bot[j]);
                ar[j] = p + q;
                br[j] = (p - q) * ti;
            }
        }
        let (xa, xb) = x.split_at_mut(half * w);
        lee_forward_rows(a, xa, w, rest);
        lee_forward_rows(b, xb, w, rest);
    }
    let (a, b) = scratch.split_at(half * w);
    for i in 0..half - 1 {
        x[2 * i * w..(2 * i + 1) * w].copy_from_slice(&a[i * w..(i + 1) * w]);
        let dst = &mut x[(2 * i + 1) * w..(2 * i + 2) * w];
        let b0 = &b[i * w..(i + 1) * w];
        let b1 = &b[(i + 1) * w..(i + 2) * w];
        for j in 0..w {
            dst[j] = b0[j] + b1[j];
        }
    }
    x[(h - 2) * w..(h - 1) * w].copy_from_slice(&a[(half - 1) * w..half * w]);
    x[(h - 1) * w..h * w].copy_from_slice(&b[(half - 1) * w..half * w]);
}

/// Unnormalized Lee DCT-III, the inverse of [`lee_forward_rows`]:
/// `x_i ← v_0 + Σ_{k≥1} v_k cos(π(2i+1)k/2n)`, in place, with the same
/// element layout and lane-by-lane contract.
// tidy:alloc-free
fn lee_inverse_rows(v: &mut [f64], scratch: &mut [f64], w: usize, tw: &[f64]) {
    let h = v.len() / w;
    if h == 1 {
        return;
    }
    let half = h / 2;
    let (t, rest) = tw.split_at(half);
    {
        let (a, b) = scratch.split_at_mut(half * w);
        a[..w].copy_from_slice(&v[..w]);
        b[..w].copy_from_slice(&v[w..2 * w]);
        for i in 1..half {
            a[i * w..(i + 1) * w].copy_from_slice(&v[2 * i * w..(2 * i + 1) * w]);
            let dst = &mut b[i * w..(i + 1) * w];
            let lo = &v[(2 * i - 1) * w..2 * i * w];
            let hi = &v[(2 * i + 1) * w..(2 * i + 2) * w];
            for j in 0..w {
                dst[j] = lo[j] + hi[j];
            }
        }
        let (va, vb) = v.split_at_mut(half * w);
        lee_inverse_rows(a, va, w, rest);
        lee_inverse_rows(b, vb, w, rest);
    }
    let (a, b) = scratch.split_at(half * w);
    let (vf, vk) = v.split_at_mut(half * w);
    for i in 0..half {
        let ti = t[i];
        let ar = &a[i * w..(i + 1) * w];
        let br = &b[i * w..(i + 1) * w];
        let fr = &mut vf[i * w..(i + 1) * w];
        let bk = &mut vk[(half - 1 - i) * w..(half - i) * w];
        for j in 0..w {
            let y = br[j] * ti;
            fr[j] = ar[j] + y;
            bk[j] = ar[j] - y;
        }
    }
}

/// Writes the transpose of the row-major `rows × cols` matrix `src`
/// into `dst` (row-major `cols × rows`).
// tidy:alloc-free
fn transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    for (c, out) in dst[..rows * cols].chunks_exact_mut(rows).enumerate() {
        for (o, row) in out.iter_mut().zip(src.chunks_exact(cols)) {
            *o = row[c];
        }
    }
}

/// The evaluation strategy behind a [`Dct1d`].
#[derive(Debug, Clone, PartialEq)]
enum Kind {
    /// Row-major orthonormal basis: `basis[k*n + i] = c_k cos(π(2i+1)k/2n)`.
    Matrix { basis: Vec<f64> },
    /// Lee even/odd factorization twiddles (power-of-two lengths).
    Fast { twiddles: Vec<f64> },
}

/// Orthonormal 1-D DCT of a fixed length.
///
/// Forward is DCT-II with orthonormal scaling; inverse is its transpose
/// (DCT-III), so `inverse(forward(x)) == x` to machine precision.
/// Power-of-two lengths use the O(n log n) Lee factorization; other
/// lengths fall back to the exact basis-matrix product (see the module
/// docs for the path-selection and tolerance contract).
///
/// # Examples
///
/// ```
/// use tepics_imaging::Dct1d;
///
/// let dct = Dct1d::new(8);
/// let x = vec![1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0];
/// let back = dct.inverse(&dct.forward(&x));
/// for (a, b) in x.iter().zip(&back) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dct1d {
    n: usize,
    /// Orthonormal weight of the DC row, `√(1/n)`.
    norm0: f64,
    /// Orthonormal weight of every other row, `√(2/n)`.
    norm: f64,
    kind: Kind,
}

impl Dct1d {
    /// Creates a transform of length `n`, selecting the fast path for
    /// powers of two and the basis-matrix fallback otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "transform length must be positive");
        let norm0 = (1.0 / n as f64).sqrt();
        let norm = (2.0 / n as f64).sqrt();
        let kind = if n.is_power_of_two() {
            Kind::Fast {
                twiddles: lee_twiddles(n),
            }
        } else {
            let mut basis = vec![0.0; n * n];
            for k in 0..n {
                let c = if k == 0 { norm0 } else { norm };
                for (i, b) in basis[k * n..(k + 1) * n].iter_mut().enumerate() {
                    *b = c
                        * (std::f64::consts::PI * (2 * i + 1) as f64 * k as f64 / (2 * n) as f64)
                            .cos();
                }
            }
            Kind::Matrix { basis }
        };
        Dct1d {
            n,
            norm0,
            norm,
            kind,
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`; kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` if this instance uses the O(n log n) Lee factorization
    /// (power-of-two lengths), `false` for the basis-matrix fallback.
    pub fn is_fast(&self) -> bool {
        matches!(self.kind, Kind::Fast { .. })
    }

    /// Applies the orthonormal weights to an unnormalized fast-path
    /// signal whose elements are `w`-lane rows: `√(1/n)` to element 0,
    /// `√(2/n)` to the rest.
    // tidy:alloc-free
    fn normalize(&self, x: &mut [f64], w: usize) {
        let (dc, ac) = x.split_at_mut(w);
        for v in dc {
            *v *= self.norm0;
        }
        for v in ac {
            *v *= self.norm;
        }
    }

    /// Forward transform (analysis): `X_k = c_k Σ_i cos(π(2i+1)k/2n)·x_i`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != len()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut out = x.to_vec();
        let mut scratch = vec![0.0; self.n];
        self.forward_in_place(&mut out, &mut scratch);
        out
    }

    /// Inverse transform (synthesis): `x_i = Σ_k c_k cos(π(2i+1)k/2n)·X_k`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != len()`.
    pub fn inverse(&self, coeffs: &[f64]) -> Vec<f64> {
        let mut out = coeffs.to_vec();
        let mut scratch = vec![0.0; self.n];
        self.inverse_in_place(&mut out, &mut scratch);
        out
    }

    /// The `n` synthesis atoms, row-major: row `k` is `inverse(e_k)`,
    /// computed through this transform's own inverse path, so each atom
    /// carries the rounding of the evaluation path the transform uses.
    pub fn basis(&self) -> Vec<f64> {
        let n = self.n;
        let mut basis = vec![0.0; n * n];
        let mut scratch = vec![0.0; n];
        for (k, atom) in basis.chunks_exact_mut(n).enumerate() {
            atom[k] = 1.0;
            self.inverse_in_place(atom, &mut scratch);
        }
        basis
    }

    /// In-place forward transform using caller-provided scratch, so hot
    /// loops can run allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != len()` or `scratch.len() < len()`.
    // tidy:alloc-free
    pub fn forward_in_place(&self, data: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(data.len(), self.n, "input length mismatch");
        assert!(scratch.len() >= self.n, "scratch too small");
        match &self.kind {
            Kind::Fast { twiddles } => {
                lee_forward_rows(data, &mut scratch[..self.n], 1, twiddles);
                self.normalize(data, 1);
            }
            Kind::Matrix { basis } => {
                for (k, o) in scratch[..self.n].iter_mut().enumerate() {
                    let row = &basis[k * self.n..(k + 1) * self.n];
                    *o = tepics_util::simd::dot4(row, data);
                }
                data.copy_from_slice(&scratch[..self.n]);
            }
        }
    }

    /// In-place inverse transform using caller-provided scratch.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != len()` or `scratch.len() < len()`.
    // tidy:alloc-free
    pub fn inverse_in_place(&self, data: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(data.len(), self.n, "input length mismatch");
        assert!(scratch.len() >= self.n, "scratch too small");
        match &self.kind {
            Kind::Fast { twiddles } => {
                self.normalize(data, 1);
                lee_inverse_rows(data, &mut scratch[..self.n], 1, twiddles);
            }
            Kind::Matrix { basis } => {
                let out = &mut scratch[..self.n];
                out.fill(0.0);
                for (k, &ck) in data.iter().enumerate() {
                    if ck == 0.0 {
                        continue;
                    }
                    let row = &basis[k * self.n..(k + 1) * self.n];
                    tepics_util::simd::axpy4(ck, row, out);
                }
                data.copy_from_slice(&scratch[..self.n]);
            }
        }
    }
}

/// Separable orthonormal 2-D DCT on row-major `width`×`height` buffers.
///
/// Coefficient layout matches the image layout: coefficient `(u, v)`
/// (horizontal frequency `u`, vertical `v`) lives at `v * width + u`,
/// so the DC coefficient is index 0.
///
/// # Examples
///
/// ```
/// use tepics_imaging::Dct2d;
///
/// let dct = Dct2d::new(8, 8);
/// let flat = vec![0.5; 64];
/// let coeffs = dct.forward(&flat);
/// // A constant image has all energy in DC.
/// assert!((coeffs[0] - 0.5 * 8.0).abs() < 1e-12);
/// assert!(coeffs[1..].iter().all(|c| c.abs() < 1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dct2d {
    width: usize,
    height: usize,
    row: Dct1d,
    col: Dct1d,
}

impl Dct2d {
    /// Creates a transform for `width`×`height` buffers.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Dct2d {
            width,
            height,
            row: Dct1d::new(width),
            col: Dct1d::new(height),
        }
    }

    /// Buffer width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Buffer height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total coefficient count (`width × height`).
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// The 1-D transform applied along each row (length `width`).
    pub fn row_transform(&self) -> &Dct1d {
        &self.row
    }

    /// The 1-D transform applied along each column (length `height`).
    pub fn col_transform(&self) -> &Dct1d {
        &self.col
    }

    /// Always `false`; kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Applies both separable passes into `out` through one scratch
    /// buffer: rows transform in place on `out`, then columns gather
    /// through a transpose-scratch region instead of allocating per row
    /// or per column.
    // tidy:alloc-free
    fn apply_with(&self, data: &[f64], out: &mut [f64], scratch: &mut Vec<f64>, forward: bool) {
        assert_eq!(data.len(), self.len(), "buffer length mismatch");
        assert_eq!(out.len(), self.len(), "output length mismatch");
        out.copy_from_slice(data);
        self.ensure_scratch(scratch);
        self.rows_pass(out, scratch, forward);
        self.cols_pass(out, scratch, forward);
    }

    /// Grows `scratch` to the layout the staged passes expect. The
    /// matrix paths use `[col_buf: height][1-D scratch: max(width,
    /// height)]`. A fast-path row transform needs `2·len()`: the
    /// transposed row block plus the recursion's scratch, for a block of
    /// up to every row. A fast-path column transform needs `len()` for
    /// its recursion's scratch. Never shrinks, so one scratch vector can
    /// serve several transform sizes.
    // tidy:alloc-free
    pub fn ensure_scratch(&self, scratch: &mut Vec<f64>) {
        let mut need = self.height + self.width.max(self.height);
        if self.row.is_fast() {
            need = need.max(2 * self.len());
        }
        if self.col.is_fast() {
            need = need.max(self.len());
        }
        if scratch.len() < need {
            scratch.resize(need, 0.0);
        }
    }

    /// One separable pass over whole rows, in place: each contiguous
    /// `width`-length row in `rows` is transformed independently.
    ///
    /// `rows` may be any prefix of whole rows (a row *block*), which is
    /// what lets the fused Φᵀ/Ψᵀ engine transform a block while it is
    /// still cache-hot. `scratch` must have been sized by
    /// [`Dct2d::ensure_scratch`].
    ///
    /// On the fast path the block is transposed into `scratch`, so the
    /// Lee recursion runs once over the whole block with its columns as
    /// vector lanes, then transposed back. Each row sees exactly the
    /// operations of its own 1-D transform, in the same order, so the
    /// result does not depend on how the rows are split into blocks.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `width()` or
    /// `scratch` is too small.
    // tidy:alloc-free
    pub fn rows_pass(&self, rows: &mut [f64], scratch: &mut [f64], forward: bool) {
        let w = self.width;
        assert_eq!(rows.len() % w, 0, "row block must hold whole rows");
        if let Kind::Fast { twiddles } = &self.row.kind {
            let h = rows.len() / w;
            if h == 0 {
                return;
            }
            let (t, s) = scratch.split_at_mut(rows.len());
            let s = &mut s[..rows.len()];
            transpose(rows, t, h, w);
            if forward {
                lee_forward_rows(t, s, h, twiddles);
                self.row.normalize(t, h);
            } else {
                self.row.normalize(t, h);
                lee_inverse_rows(t, s, h, twiddles);
            }
            transpose(t, rows, w, h);
            return;
        }
        let s = &mut scratch[self.height..];
        for row in rows.chunks_exact_mut(w) {
            if forward {
                self.row.forward_in_place(row, s);
            } else {
                self.row.inverse_in_place(row, s);
            }
        }
    }

    /// One separable pass over all columns of a full `width`×`height`
    /// buffer, in place, gathering each column through the transpose
    /// region of `scratch` (sized by [`Dct2d::ensure_scratch`]).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != len()` or `scratch` is too small.
    // tidy:alloc-free
    pub fn cols_pass(&self, buf: &mut [f64], scratch: &mut [f64], forward: bool) {
        assert_eq!(buf.len(), self.len(), "buffer length mismatch");
        let (w, h) = (self.width, self.height);
        // Fast-path columns run the Lee recursion with whole rows as
        // elements: every butterfly is a contiguous vector op, no
        // strided per-column gather. Bit-identical to the gather path
        // (same per-column operations in the same order).
        if let Kind::Fast { twiddles } = &self.col.kind {
            if scratch.len() >= w * h {
                let s = &mut scratch[..w * h];
                if forward {
                    lee_forward_rows(buf, s, w, twiddles);
                    self.col.normalize(buf, w);
                } else {
                    self.col.normalize(buf, w);
                    lee_inverse_rows(buf, s, w, twiddles);
                }
                return;
            }
        }
        let (col_buf, s) = scratch.split_at_mut(h);
        for x in 0..w {
            for (c, row) in col_buf.iter_mut().zip(buf.chunks_exact(w)) {
                *c = row[x];
            }
            if forward {
                self.col.forward_in_place(col_buf, s);
            } else {
                self.col.inverse_in_place(col_buf, s);
            }
            for (c, row) in col_buf.iter().zip(buf.chunks_exact_mut(w)) {
                row[x] = *c;
            }
        }
    }

    /// Forward 2-D transform of a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width*height`.
    pub fn forward(&self, data: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        let mut scratch = Vec::new();
        self.apply_with(data, &mut out, &mut scratch, true);
        out
    }

    /// Inverse 2-D transform of a row-major coefficient buffer.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != width*height`.
    pub fn inverse(&self, coeffs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        let mut scratch = Vec::new();
        self.apply_with(coeffs, &mut out, &mut scratch, false);
        out
    }

    /// Forward transform into a caller-provided buffer, reusing
    /// `scratch` across calls (it is resized on first use and never
    /// reallocated after) — the allocation-free path the solver loop
    /// uses.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` or `out.len()` differ from `len()`.
    pub fn forward_with(&self, data: &[f64], out: &mut [f64], scratch: &mut Vec<f64>) {
        self.apply_with(data, out, scratch, true);
    }

    /// Inverse transform into a caller-provided buffer; see
    /// [`Dct2d::forward_with`].
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` or `out.len()` differ from `len()`.
    pub fn inverse_with(&self, coeffs: &[f64], out: &mut [f64], scratch: &mut Vec<f64>) {
        self.apply_with(coeffs, out, scratch, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenes::Scene;

    fn energy(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x).sum()
    }

    /// A length-n reference DCT built directly from the basis matrix,
    /// bypassing the fast-path selection in `Dct1d::new`.
    fn matrix_reference(n: usize) -> (Vec<f64>, f64, f64) {
        let norm0 = (1.0 / n as f64).sqrt();
        let norm = (2.0 / n as f64).sqrt();
        let mut basis = vec![0.0; n * n];
        for k in 0..n {
            let c = if k == 0 { norm0 } else { norm };
            for i in 0..n {
                basis[k * n + i] = c
                    * (std::f64::consts::PI * (2 * i + 1) as f64 * k as f64 / (2 * n) as f64).cos();
            }
        }
        (basis, norm0, norm)
    }

    fn matrix_forward(basis: &[f64], x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                basis[k * n..(k + 1) * n]
                    .iter()
                    .zip(x)
                    .map(|(b, v)| b * v)
                    .sum()
            })
            .collect()
    }

    fn matrix_inverse(basis: &[f64], coeffs: &[f64]) -> Vec<f64> {
        let n = coeffs.len();
        let mut out = vec![0.0; n];
        for (k, &ck) in coeffs.iter().enumerate() {
            for (o, b) in out.iter_mut().zip(&basis[k * n..(k + 1) * n]) {
                *o += ck * b;
            }
        }
        out
    }

    fn pseudo_signal(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = tepics_util::SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
    }

    /// The scalar Lee DCT-II the row-vector recursion replaced, kept as
    /// the bit-for-bit oracle of every fast path: one signal, a forward
    /// butterfly split into scratch, two half-length recursions, then
    /// the even/odd interleave.
    fn oracle_lee_forward(x: &mut [f64], scratch: &mut [f64], tw: &[f64]) {
        let n = x.len();
        if n == 1 {
            return;
        }
        let half = n / 2;
        let (t, rest) = tw.split_at(half);
        {
            let (a, b) = scratch.split_at_mut(half);
            for i in 0..half {
                let (p, q) = (x[i], x[n - 1 - i]);
                a[i] = p + q;
                b[i] = (p - q) * t[i];
            }
            let (xa, xb) = x.split_at_mut(half);
            oracle_lee_forward(a, xa, rest);
            oracle_lee_forward(b, xb, rest);
        }
        let (a, b) = scratch.split_at(half);
        for i in 0..half - 1 {
            x[2 * i] = a[i];
            x[2 * i + 1] = b[i] + b[i + 1];
        }
        x[n - 2] = a[half - 1];
        x[n - 1] = b[half - 1];
    }

    /// The scalar Lee DCT-III oracle (inverse of [`oracle_lee_forward`]).
    fn oracle_lee_inverse(v: &mut [f64], scratch: &mut [f64], tw: &[f64]) {
        let n = v.len();
        if n == 1 {
            return;
        }
        let half = n / 2;
        let (t, rest) = tw.split_at(half);
        {
            let (a, b) = scratch.split_at_mut(half);
            a[0] = v[0];
            b[0] = v[1];
            for i in 1..half {
                a[i] = v[2 * i];
                b[i] = v[2 * i - 1] + v[2 * i + 1];
            }
            let (va, vb) = v.split_at_mut(half);
            oracle_lee_inverse(a, va, rest);
            oracle_lee_inverse(b, vb, rest);
        }
        let (a, b) = scratch.split_at(half);
        for i in 0..half {
            let y = b[i] * t[i];
            v[i] = a[i] + y;
            v[n - 1 - i] = a[i] - y;
        }
    }

    /// The orthonormal 1-D transform of one power-of-two-length signal
    /// through the scalar oracle.
    fn oracle_1d(x: &[f64], forward: bool) -> Vec<f64> {
        let n = x.len();
        let tw = lee_twiddles(n);
        let (norm0, norm) = ((1.0 / n as f64).sqrt(), (2.0 / n as f64).sqrt());
        let mut v = x.to_vec();
        let mut scratch = vec![0.0; n];
        let weigh = |v: &mut [f64]| {
            v[0] *= norm0;
            for c in &mut v[1..] {
                *c *= norm;
            }
        };
        if forward {
            oracle_lee_forward(&mut v, &mut scratch, &tw);
            weigh(&mut v);
        } else {
            weigh(&mut v);
            oracle_lee_inverse(&mut v, &mut scratch, &tw);
        }
        v
    }

    /// The oracle row pass: every `w`-length row on its own.
    fn oracle_rows(buf: &[f64], w: usize, forward: bool) -> Vec<f64> {
        buf.chunks_exact(w)
            .flat_map(|row| oracle_1d(row, forward))
            .collect()
    }

    /// The oracle 2-D transform: rows, then columns gathered one by one.
    fn oracle_2d(buf: &[f64], w: usize, h: usize, forward: bool) -> Vec<f64> {
        let mut out = oracle_rows(buf, w, forward);
        for x in 0..w {
            let col: Vec<f64> = (0..h).map(|y| out[y * w + x]).collect();
            for (y, v) in oracle_1d(&col, forward).into_iter().enumerate() {
                out[y * w + x] = v;
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn one_d_fast_path_matches_scalar_oracle_bitwise() {
        for n in (0..=8).map(|e| 1usize << e) {
            let dct = Dct1d::new(n);
            for seed in 0..4 {
                let x = pseudo_signal(n, seed * 131 + n as u64);
                for forward in [true, false] {
                    let mut got = x.clone();
                    let mut scratch = vec![0.0; n];
                    if forward {
                        dct.forward_in_place(&mut got, &mut scratch);
                    } else {
                        dct.inverse_in_place(&mut got, &mut scratch);
                    }
                    assert_eq!(
                        bits(&got),
                        bits(&oracle_1d(&x, forward)),
                        "n={n} seed={seed} forward={forward}"
                    );
                }
            }
        }
    }

    /// Fast-path geometries: square, rectangular both ways, and the
    /// 64- and 128-wide images the fused engine splits into blocks.
    const FAST_GEOMETRIES: [(usize, usize); 6] =
        [(8, 8), (32, 8), (8, 64), (32, 32), (64, 64), (128, 16)];

    #[test]
    fn two_d_fast_path_matches_scalar_oracle_bitwise() {
        for (w, h) in FAST_GEOMETRIES {
            let dct = Dct2d::new(w, h);
            let img = pseudo_signal(w * h, (w * 7 + h) as u64);
            for forward in [true, false] {
                let got = if forward {
                    dct.forward(&img)
                } else {
                    dct.inverse(&img)
                };
                assert_eq!(
                    bits(&got),
                    bits(&oracle_2d(&img, w, h, forward)),
                    "{w}×{h} forward={forward}"
                );
            }
        }
    }

    #[test]
    fn row_blocks_of_every_height_match_scalar_oracle_bitwise() {
        // The fused engine hands `rows_pass` blocks of
        // `fused_block_rows(h, w)` rows and a shorter last block; every
        // block height from one row to the whole image covers them all.
        for (w, h) in FAST_GEOMETRIES {
            let dct = Dct2d::new(w, h);
            let img = pseudo_signal(w * h, (w + 3 * h) as u64);
            let mut scratch = Vec::new();
            dct.ensure_scratch(&mut scratch);
            for forward in [true, false] {
                let want = bits(&oracle_rows(&img, w, forward));
                for step in 1..=h {
                    let mut got = img.clone();
                    for block in got.chunks_mut(step * w) {
                        dct.rows_pass(block, &mut scratch, forward);
                    }
                    assert_eq!(bits(&got), want, "{w}×{h} step={step} forward={forward}");
                }
            }
        }
    }

    #[test]
    fn fast_path_is_selected_exactly_for_powers_of_two() {
        for n in [1usize, 2, 4, 8, 64, 128] {
            assert!(Dct1d::new(n).is_fast(), "n={n} should use the fast path");
        }
        for n in [3usize, 5, 6, 9, 12, 100] {
            assert!(!Dct1d::new(n).is_fast(), "n={n} should use the matrix path");
        }
    }

    #[test]
    fn fast_forward_matches_matrix_reference() {
        // Property over power-of-two lengths and many signals: the Lee
        // factorization equals the dense basis product to ≤1e-10.
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
            let (basis, _, _) = matrix_reference(n);
            let dct = Dct1d::new(n);
            for seed in 0..8 {
                let x = pseudo_signal(n, seed * 31 + n as u64);
                let fast = dct.forward(&x);
                let exact = matrix_forward(&basis, &x);
                for (k, (a, b)) in fast.iter().zip(&exact).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-10 * b.abs().max(1.0),
                        "n={n} seed={seed} k={k}: fast {a} vs matrix {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_inverse_matches_matrix_reference() {
        for n in [2usize, 4, 16, 64, 256] {
            let (basis, _, _) = matrix_reference(n);
            let dct = Dct1d::new(n);
            for seed in 0..8 {
                let coeffs = pseudo_signal(n, seed * 17 + n as u64);
                let fast = dct.inverse(&coeffs);
                let exact = matrix_inverse(&basis, &coeffs);
                for (i, (a, b)) in fast.iter().zip(&exact).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-10 * b.abs().max(1.0),
                        "n={n} seed={seed} i={i}: fast {a} vs matrix {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn odd_lengths_use_matrix_path_and_round_trip() {
        for n in [3usize, 5, 7, 9, 11, 13, 24, 100] {
            let dct = Dct1d::new(n);
            let x = pseudo_signal(n, n as u64);
            let back = dct.inverse(&dct.forward(&x));
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-10, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn one_d_perfect_reconstruction() {
        for n in [1usize, 2, 3, 8, 64] {
            let dct = Dct1d::new(n);
            let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 19) as f64 / 19.0).collect();
            let back = dct.inverse(&dct.forward(&x));
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-10, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn one_d_is_orthonormal() {
        // Parseval: energy is preserved, on both paths.
        for n in [16usize, 12] {
            let dct = Dct1d::new(n);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let coeffs = dct.forward(&x);
            assert!((energy(&x) - energy(&coeffs)).abs() < 1e-10, "n={n}");
        }
    }

    #[test]
    fn basis_rows_are_the_synthesis_atoms() {
        for n in [16usize, 12] {
            let dct = Dct1d::new(n);
            let (reference, _, _) = matrix_reference(n);
            let basis = dct.basis();
            for k in 0..n {
                let mut unit = vec![0.0; n];
                unit[k] = 1.0;
                assert_eq!(
                    &basis[k * n..(k + 1) * n],
                    dct.inverse(&unit),
                    "n={n} k={k}"
                );
                for (b, r) in basis[k * n..(k + 1) * n].iter().zip(&reference[k * n..]) {
                    assert!((b - r).abs() < 1e-12, "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn dc_basis_vector_is_constant() {
        for n in [9usize, 8] {
            let dct = Dct1d::new(n);
            let dc = dct.inverse(&{
                let mut e = vec![0.0; n];
                e[0] = 1.0;
                e
            });
            let expected = (1.0f64 / n as f64).sqrt();
            for v in dc {
                assert!((v - expected).abs() < 1e-12, "n={n}");
            }
        }
    }

    #[test]
    fn in_place_matches_allocating_api() {
        for n in [8usize, 12] {
            let dct = Dct1d::new(n);
            let x = pseudo_signal(n, 5);
            let mut buf = x.clone();
            let mut scratch = vec![0.0; n];
            dct.forward_in_place(&mut buf, &mut scratch);
            assert_eq!(buf, dct.forward(&x), "forward n={n}");
            let mut inv = buf.clone();
            dct.inverse_in_place(&mut inv, &mut scratch);
            assert_eq!(inv, dct.inverse(&buf), "inverse n={n}");
        }
    }

    #[test]
    fn two_d_perfect_reconstruction_rectangular() {
        let dct = Dct2d::new(12, 8);
        let img = Scene::natural_like().render(12, 8, 4);
        let back = dct.inverse(&dct.forward(img.as_slice()));
        for (a, b) in img.as_slice().iter().zip(&back) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn two_d_matches_matrix_reference() {
        // The separable fast 2-D transform equals the all-matrix one.
        let (w, h) = (16usize, 16usize);
        let (basis, _, _) = matrix_reference(w);
        let img = Scene::gaussian_blobs(3).render(w, h, 8);
        let fast = Dct2d::new(w, h).forward(img.as_slice());
        // Reference: rows then columns with the dense basis.
        let mut tmp = vec![0.0; w * h];
        for y in 0..h {
            let row = matrix_forward(&basis, &img.as_slice()[y * w..(y + 1) * w]);
            tmp[y * w..(y + 1) * w].copy_from_slice(&row);
        }
        let mut exact = vec![0.0; w * h];
        for x in 0..w {
            let col: Vec<f64> = (0..h).map(|y| tmp[y * w + x]).collect();
            let t = matrix_forward(&basis, &col);
            for y in 0..h {
                exact[y * w + x] = t[y];
            }
        }
        for (i, (a, b)) in fast.iter().zip(&exact).enumerate() {
            assert!(
                (a - b).abs() <= 1e-10 * b.abs().max(1.0),
                "coeff {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn two_d_with_buffers_matches_allocating_api() {
        let dct = Dct2d::new(8, 8);
        let img = Scene::gaussian_blobs(2).render(8, 8, 3);
        let mut out = vec![0.0; 64];
        let mut scratch = Vec::new();
        dct.forward_with(img.as_slice(), &mut out, &mut scratch);
        assert_eq!(out, dct.forward(img.as_slice()));
        let mut back = vec![0.0; 64];
        dct.inverse_with(&out, &mut back, &mut scratch);
        assert_eq!(back, dct.inverse(&out));
    }

    #[test]
    fn row_vector_column_pass_matches_gather_path_bitwise() {
        // The row-vector Lee recursion must perform, per column, exactly
        // the scalar recursion's operations: giving cols_pass a scratch
        // too small for the row-vector path forces the per-column gather
        // fallback, and both must agree to the bit.
        let dct = Dct2d::new(16, 16);
        let img = Scene::natural_like().render(16, 16, 2);
        for forward in [true, false] {
            let mut fast = img.as_slice().to_vec();
            let mut big = Vec::new();
            dct.ensure_scratch(&mut big);
            dct.cols_pass(&mut fast, &mut big, forward);

            let mut gather = img.as_slice().to_vec();
            let mut small = vec![0.0; 16 + 16];
            dct.cols_pass(&mut gather, &mut small, forward);
            assert_eq!(fast, gather, "forward={forward}");
        }
    }

    #[test]
    fn two_d_parseval() {
        let dct = Dct2d::new(16, 16);
        let img = Scene::gaussian_blobs(3).render(16, 16, 8);
        let coeffs = dct.forward(img.as_slice());
        assert!((energy(img.as_slice()) - energy(&coeffs)).abs() < 1e-9);
    }

    #[test]
    fn smooth_images_concentrate_energy_in_low_frequencies() {
        let dct = Dct2d::new(32, 32);
        let img = Scene::gaussian_blobs(3).render(32, 32, 5);
        let coeffs = dct.forward(img.as_slice());
        // Energy in the 8×8 low-frequency corner vs total.
        let mut low = 0.0;
        for v in 0..8 {
            for u in 0..8 {
                low += coeffs[v * 32 + u] * coeffs[v * 32 + u];
            }
        }
        let ratio = low / energy(&coeffs);
        assert!(ratio > 0.95, "low-frequency energy ratio {ratio} too small");
    }

    #[test]
    fn cosine_input_hits_single_coefficient() {
        let n = 32;
        let dct = Dct1d::new(n);
        let k = 5;
        // The k-th basis vector itself.
        let mut e = vec![0.0; n];
        e[k] = 1.0;
        let x = dct.inverse(&e);
        let coeffs = dct.forward(&x);
        for (i, &c) in coeffs.iter().enumerate() {
            if i == k {
                assert!((c - 1.0).abs() < 1e-10);
            } else {
                assert!(c.abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        Dct1d::new(8).forward(&[0.0; 7]);
    }
}
