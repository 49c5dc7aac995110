//! The paper's XOR-structured full-frame measurement.
//!
//! Pixel `(i, j)` contributes to compressed sample `k` iff
//! `S_i(k) ⊕ S_j(k) = 1`, where the `M + N` selection bits come from the
//! CA ring around the array (Fig. 1 pixel XOR gate + Fig. 2 floorplan).
//! A row of Φ is therefore fully described by `M + N` bits instead of
//! `M·N` — the compression that makes on-chip generation feasible — and
//! this type keeps exactly that representation.
//!
//! # Fast application
//!
//! Because `r ⊕ c = r + c − 2rc`, a compressed sample factorizes into
//! row-sum/column-sum inner products plus one masked block sum:
//!
//! ```text
//! y_k = Σ_{i∈R_k} R_i + Σ_{j∈C_k} C_j − 2·Σ_{i∈R_k} Σ_{j∈C_k} x_ij
//! ```
//!
//! with `R_i`/`C_j` the image row/column sums and `R_k`/`C_k` the
//! selected row/column index sets of pattern `k`. The constructor
//! precompiles those index sets (plus per-group bit masks) once, so
//! `apply`/`apply_adjoint` are pure gather-sums over precomputed
//! indices — no per-call bit extraction. On top of that, the block sums
//! are evaluated through eight-element subset-sum tables (the method of
//! four Russians): one 256-entry table per group of eight columns turns
//! the inner gather into one lookup per group. The adjoint uses the
//! same factorization transposed, with measurements grouped by eight.
//!
//! The adjoint sweeps the groups with nonzero `y` in gangs of four
//! ("quads"), four table lookups per pixel. Its `begin` stage packs each
//! quad's four row-mask bytes and four column-mask bytes into one `u32`
//! per array row and per array column, so a pixel reads one packed
//! column word instead of four mask bytes. The packing is per call, over
//! the active groups only, so it needs no precompiled buffer; the quads
//! and each pixel's accumulation order are the same as with byte masks,
//! and the tests keep the byte-mask sweep as a bit-for-bit oracle.
//!
//! The factorized paths reassociate floating-point additions, so
//! results may differ from the naive selected-pixel sum in the last
//! bits; the difference stays below 1e-10 (relative) and is pinned down
//! by equivalence tests against the brute-force reference. Both paths
//! are deterministic, so batch results stay bit-identical at any thread
//! count.

use std::cell::RefCell;

use super::SelectionMeasurement;
use crate::fused::{FusedScratch, RowStreamedOperator};
use crate::op::{gather_sum, LinearOperator};
use tepics_ca::BitPatternSource;
use tepics_util::{simd, BitVec};

thread_local! {
    /// Per-thread scratch for the direct (non-composed) apply paths,
    /// which route through the same streaming kernels as the fused
    /// engine. Reused across calls (resize on a warm vector never
    /// reallocates), so the solver loop does no per-iteration heap
    /// allocation; thread-local keeps a cached operator shareable
    /// across batch workers.
    static SCRATCH: RefCell<FusedScratch> = const { RefCell::new(FusedScratch::new()) };
}

/// Subset sums of up to eight values: `table[mask] = Σ_{t∈mask} vals[t]`
/// (missing values count as zero). `table.len() == 256`.
///
/// Built by doubling: each value extends the table by one vectorizable
/// `dst = src + v` sweep over the prefix (9 contiguous passes instead of
/// 255 data-dependent lookups). Sums therefore accumulate in ascending
/// bit order, a reassociation of the old low-bit recurrence — covered by
/// the ≤1e-10 equivalence bounds, and deterministic like everything
/// else here.
// tidy:alloc-free
fn subset_sums(vals: &[f64], table: &mut [f64]) {
    table[0] = 0.0;
    let mut len = 1usize;
    for &v in vals {
        let (lo, hi) = table.split_at_mut(len);
        for (dst, &src) in hi[..len].iter_mut().zip(lo.iter()) {
            *dst = src + v;
        }
        len *= 2;
    }
    // Short groups: masks with bits ≥ vals.len() sum the same subset
    // (missing values are zero), so replicate the built prefix.
    while len < table.len() {
        let (lo, hi) = table.split_at_mut(len);
        hi[..len].copy_from_slice(lo);
        len *= 2;
    }
}

/// Four-accumulator gather over per-group 256-entry subset tables:
/// `Σ_g tables[g·256 + masks[g]]`.
// tidy:alloc-free
#[inline]
fn table_gather4(tables: &[f64], masks: &[u8]) -> f64 {
    let mut s = [0.0f64; 4];
    let mut chunks = masks.chunks_exact(4);
    let mut g = 0usize;
    for c in &mut chunks {
        s[0] += tables[g * 256 + c[0] as usize];
        s[1] += tables[(g + 1) * 256 + c[1] as usize];
        s[2] += tables[(g + 2) * 256 + c[2] as usize];
        s[3] += tables[(g + 3) * 256 + c[3] as usize];
        g += 4;
    }
    let mut acc = (s[0] + s[1]) + (s[2] + s[3]);
    for &mask in chunks.remainder() {
        acc += tables[g * 256 + mask as usize];
        g += 1;
    }
    acc
}

/// XOR-structured binary measurement over an `rows_m × cols_n` pixel
/// array (row-major pixel vectorization, `pixel = i · N + j`).
///
/// # Examples
///
/// ```
/// use tepics_ca::{CaSource, ElementaryRule};
/// use tepics_cs::{LinearOperator, XorMeasurement};
///
/// let mut src = CaSource::new(16 + 16, 9, ElementaryRule::RULE_30, 64, 1);
/// let phi = XorMeasurement::from_source(16, 16, &mut src, 40);
/// assert_eq!(phi.rows(), 40);
/// assert_eq!(phi.cols(), 256);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorMeasurement {
    rows_m: usize,
    cols_n: usize,
    /// One `(M + N)`-bit pattern per measurement: bits `0..M` are row
    /// selections, bits `M..M+N` column selections.
    patterns: Vec<BitVec>,
    /// Selected row indices of every measurement, flattened;
    /// measurement `k` owns `sel_rows[sel_rows_off[k]..sel_rows_off[k+1]]`.
    sel_rows: Vec<u32>,
    /// Offsets into [`XorMeasurement::sel_rows`], length `K + 1`.
    sel_rows_off: Vec<u32>,
    /// Selected column indices, flattened like `sel_rows`.
    sel_cols: Vec<u32>,
    /// Offsets into [`XorMeasurement::sel_cols`], length `K + 1`.
    sel_cols_off: Vec<u32>,
    /// Measurements selecting array row `i`, flattened; row `i` owns
    /// `meas_by_row[meas_by_row_off[i]..meas_by_row_off[i+1]]`.
    meas_by_row: Vec<u32>,
    /// Offsets into [`XorMeasurement::meas_by_row`], length `M + 1`.
    meas_by_row_off: Vec<u32>,
    /// Per-measurement selected-column masks over groups of eight
    /// columns: byte `k·⌈N/8⌉ + g` covers columns `8g..8g+8`.
    col_group_masks: Vec<u8>,
    /// Row-selection bits transposed into measurement-groups of eight:
    /// byte `g·M + i` holds bit `t` iff measurement `8g + t` selects
    /// row `i`.
    row_meas_masks: Vec<u8>,
    /// Column-selection bits transposed like `row_meas_masks`
    /// (byte `g·N + j`).
    col_meas_masks: Vec<u8>,
    /// Whether `apply` should amortize block sums through subset-sum
    /// tables (worth it once each array row feeds enough measurements).
    apply_tables: bool,
}

impl XorMeasurement {
    /// Builds a measurement by drawing `k` patterns from a source whose
    /// `pattern_len` is `rows_m + cols_n`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero, `k == 0`, or the source pattern
    /// length does not equal `rows_m + cols_n`.
    pub fn from_source<S: BitPatternSource + ?Sized>(
        rows_m: usize,
        cols_n: usize,
        source: &mut S,
        k: usize,
    ) -> Self {
        assert!(
            rows_m > 0 && cols_n > 0,
            "array dimensions must be positive"
        );
        assert!(k > 0, "need at least one measurement");
        assert_eq!(
            source.pattern_len(),
            rows_m + cols_n,
            "source pattern length {} != M+N = {}",
            source.pattern_len(),
            rows_m + cols_n
        );
        let patterns = (0..k).map(|_| source.next_pattern()).collect();
        Self::build(rows_m, cols_n, patterns)
    }

    /// Builds a measurement from explicit `(M+N)`-bit patterns.
    ///
    /// # Panics
    ///
    /// Panics on empty or wrong-length patterns.
    pub fn from_patterns(rows_m: usize, cols_n: usize, patterns: Vec<BitVec>) -> Self {
        assert!(
            rows_m > 0 && cols_n > 0,
            "array dimensions must be positive"
        );
        assert!(!patterns.is_empty(), "need at least one pattern");
        for (k, p) in patterns.iter().enumerate() {
            assert_eq!(p.len(), rows_m + cols_n, "pattern {k} has wrong length");
        }
        Self::build(rows_m, cols_n, patterns)
    }

    /// Precompiles the gather structures from the raw patterns (see the
    /// module docs); everything below is a pure function of `patterns`.
    fn build(rows_m: usize, cols_n: usize, patterns: Vec<BitVec>) -> Self {
        let (m, n) = (rows_m, cols_n);
        let k_count = patterns.len();
        let col_groups = n.div_ceil(8);
        let meas_groups = k_count.div_ceil(8);

        let mut sel_rows = Vec::new();
        let mut sel_rows_off = Vec::with_capacity(k_count + 1);
        let mut sel_cols = Vec::new();
        let mut sel_cols_off = Vec::with_capacity(k_count + 1);
        let mut col_group_masks = vec![0u8; k_count * col_groups];
        let mut row_meas_masks = vec![0u8; meas_groups * m];
        let mut col_meas_masks = vec![0u8; meas_groups * n];
        sel_rows_off.push(0);
        sel_cols_off.push(0);
        for (k, p) in patterns.iter().enumerate() {
            let (g, t) = (k / 8, (k % 8) as u8);
            for i in 0..m {
                if p.get(i) {
                    sel_rows.push(i as u32);
                    row_meas_masks[g * m + i] |= 1 << t;
                }
            }
            for j in 0..n {
                if p.get(m + j) {
                    sel_cols.push(j as u32);
                    col_group_masks[k * col_groups + j / 8] |= 1 << (j % 8);
                    col_meas_masks[g * n + j] |= 1 << t;
                }
            }
            sel_rows_off.push(sel_rows.len() as u32);
            sel_cols_off.push(sel_cols.len() as u32);
        }

        let mut meas_by_row_off = vec![0u32; m + 1];
        for &i in &sel_rows {
            meas_by_row_off[i as usize + 1] += 1;
        }
        for i in 0..m {
            meas_by_row_off[i + 1] += meas_by_row_off[i];
        }
        let mut meas_by_row = vec![0u32; sel_rows.len()];
        let mut cursor: Vec<u32> = meas_by_row_off[..m].to_vec();
        for k in 0..k_count {
            let (lo, hi) = (sel_rows_off[k] as usize, sel_rows_off[k + 1] as usize);
            for &i in &sel_rows[lo..hi] {
                let c = &mut cursor[i as usize];
                meas_by_row[*c as usize] = k as u32;
                *c += 1;
            }
        }

        // Table amortization break-even: per array row, the table build
        // costs 256·⌈N/8⌉ adds; each measurement gathered through it
        // saves ~(b − ⌈N/8⌉) adds over the direct index gather.
        let direct_cost: usize = (0..k_count)
            .map(|k| {
                let a = (sel_rows_off[k + 1] - sel_rows_off[k]) as usize;
                let b = (sel_cols_off[k + 1] - sel_cols_off[k]) as usize;
                a * b
            })
            .sum();
        let table_cost = m * 256 * col_groups + sel_rows.len() * (col_groups + 1);
        let apply_tables = table_cost < direct_cost;

        XorMeasurement {
            rows_m,
            cols_n,
            patterns,
            sel_rows,
            sel_rows_off,
            sel_cols,
            sel_cols_off,
            meas_by_row,
            meas_by_row_off,
            col_group_masks,
            row_meas_masks,
            col_meas_masks,
            apply_tables,
        }
    }

    /// Array height M.
    pub fn array_rows(&self) -> usize {
        self.rows_m
    }

    /// Approximate heap footprint in bytes (for cache accounting):
    /// the bit patterns plus every precompiled index list and mask
    /// table.
    #[must_use]
    pub fn bytes(&self) -> usize {
        let pattern_words = (self.rows_m + self.cols_n).div_ceil(64);
        self.patterns.len() * pattern_words * std::mem::size_of::<u64>()
            + (self.sel_rows.len()
                + self.sel_rows_off.len()
                + self.sel_cols.len()
                + self.sel_cols_off.len()
                + self.meas_by_row.len()
                + self.meas_by_row_off.len())
                * std::mem::size_of::<u32>()
            + self.col_group_masks.len()
            + self.row_meas_masks.len()
            + self.col_meas_masks.len()
    }

    /// Array width N.
    pub fn array_cols(&self) -> usize {
        self.cols_n
    }

    /// Row-selection bit `S_i` of measurement `k`.
    #[inline]
    pub fn row_bit(&self, k: usize, i: usize) -> bool {
        assert!(i < self.rows_m, "row index out of range");
        self.patterns[k].get(i)
    }

    /// Column-selection bit `S_j` of measurement `k`.
    #[inline]
    pub fn col_bit(&self, k: usize, j: usize) -> bool {
        assert!(j < self.cols_n, "column index out of range");
        self.patterns[k].get(self.rows_m + j)
    }

    /// `true` iff pixel `(i, j)` contributes to measurement `k`.
    #[inline]
    pub fn selected(&self, k: usize, i: usize, j: usize) -> bool {
        self.row_bit(k, i) ^ self.col_bit(k, j)
    }

    /// The raw `(M+N)`-bit pattern of measurement `k`.
    pub fn pattern(&self, k: usize) -> &BitVec {
        &self.patterns[k]
    }

    /// The precompiled selected row indices of measurement `k`.
    pub fn selected_rows(&self, k: usize) -> &[u32] {
        &self.sel_rows[self.sel_rows_off[k] as usize..self.sel_rows_off[k + 1] as usize]
    }

    /// The precompiled selected column indices of measurement `k`.
    pub fn selected_cols(&self, k: usize) -> &[u32] {
        &self.sel_cols[self.sel_cols_off[k] as usize..self.sel_cols_off[k + 1] as usize]
    }

    /// Number of selected row bits / column bits in measurement `k`
    /// (O(1) from the precompiled offsets).
    pub fn pattern_weights(&self, k: usize) -> (usize, usize) {
        (self.selected_rows(k).len(), self.selected_cols(k).len())
    }
}

/// One image row of the gang-of-four adjoint scatter:
/// `x_j += (t_0[r_0 & c_0j] + t_1[r_1 & c_1j]) + (t_2[…] + t_3[…])`, with
/// the four groups' row masks packed into `r` and their column masks
/// into `cols[j]` (byte `b` from group `b`), and `tables` the gang's
/// four consecutive 256-entry tables.
// tidy:alloc-free
#[inline]
fn quad_row_sweep(row: &mut [f64], r: u32, tables: &[f64], cols: &[u32]) {
    let (t0, rest) = tables.split_at(256);
    let (t1, rest) = rest.split_at(256);
    let (t2, t3) = rest.split_at(256);
    for (xv, &c) in row.iter_mut().zip(cols) {
        let s = r & c;
        let a = t0[(s & 0xff) as usize] + t1[((s >> 8) & 0xff) as usize];
        let b = t2[((s >> 16) & 0xff) as usize] + t3[(s >> 24) as usize];
        *xv += a + b;
    }
}

/// Appends a gang's packed masks to `out`: for each of `len` entries,
/// the mask bytes of the four groups in `quad` as one `u32`, byte `b`
/// from group `quad[b]`, whose masks are `masks[g·len..(g+1)·len]`.
// tidy:alloc-free
fn pack_quad(masks: &[u8], len: usize, quad: &[u32], out: &mut Vec<u32>) {
    let [m0, m1, m2, m3] = [0, 1, 2, 3].map(|b| &masks[quad[b] as usize * len..][..len]);
    let bytes = m0.iter().zip(m1).zip(m2).zip(m3);
    out.extend(bytes.map(|(((&a, &b), &c), &d)| u32::from_le_bytes([a, b, c, d])));
}

/// Streaming kernels (see [`crate::fused`]): `adjoint_begin` hoists the
/// per-group subset-sum tables and broadcast vectors out of the row
/// loop, after which any row block of the adjoint image
/// `x_ij = P_i + Q_j − 2·Σ_k y_k r_ki c_kj` can be emitted
/// independently; the forward direction mirrors it, accumulating the
/// factorized contributions as pixel rows arrive and deferring the
/// column-sum term to `apply_finish`. The direct
/// [`LinearOperator::apply`]/[`LinearOperator::apply_adjoint`] entry
/// points run these same kernels over a single full-height block, so
/// fused and direct paths share one audited implementation.
impl RowStreamedOperator for XorMeasurement {
    fn image_rows(&self) -> usize {
        self.rows_m
    }

    fn image_cols(&self) -> usize {
        self.cols_n
    }

    // tidy:alloc-free
    fn adjoint_begin(&self, y: &[f64], fs: &mut FusedScratch) {
        assert_eq!(y.len(), self.rows(), "input length mismatch");
        let (m, n) = (self.rows_m, self.cols_n);
        let meas_groups = self.patterns.len().div_ceil(8);
        fs.tables.resize(meas_groups * 256, 0.0);
        fs.p.clear();
        fs.p.resize(m, 0.0);
        fs.q.clear();
        fs.q.resize(n, 0.0);
        fs.active.clear();
        for (g, ys) in y.chunks(8).enumerate() {
            if ys.iter().all(|&v| v == 0.0) {
                continue;
            }
            // Built in its slot, read unscaled for the broadcast sums,
            // then scaled by −2 in place (exact), so the block scatter
            // is a pure lookup-add.
            let slot = fs.active.len() * 256;
            let table = &mut fs.tables[slot..slot + 256];
            subset_sums(ys, table);
            let gammas = &self.col_meas_masks[g * n..(g + 1) * n];
            for (qj, &gm) in fs.q.iter_mut().zip(gammas) {
                *qj += table[gm as usize];
            }
            let rhos = &self.row_meas_masks[g * m..(g + 1) * m];
            for (pi, &rho) in fs.p.iter_mut().zip(rhos) {
                if rho != 0 {
                    *pi += table[rho as usize];
                }
            }
            for v in table.iter_mut() {
                *v *= -2.0;
            }
            fs.active.push(g as u32);
        }
        // Each gang of four active groups reads its row and column masks
        // as one packed word per row and per column.
        fs.quad_rows.clear();
        fs.quad_cols.clear();
        for quad in fs.active.chunks_exact(4) {
            pack_quad(&self.row_meas_masks, m, quad, &mut fs.quad_rows);
            pack_quad(&self.col_meas_masks, n, quad, &mut fs.quad_cols);
        }
    }

    // tidy:alloc-free
    fn adjoint_block(&self, i0: usize, i1: usize, block: &mut [f64], fs: &FusedScratch) {
        let (m, n) = (self.rows_m, self.cols_n);
        assert!(i0 <= i1 && i1 <= m, "row range out of bounds");
        assert_eq!(block.len(), (i1 - i0) * n, "block length mismatch");
        // Broadcast part first: x_ij starts at P_i + Q_j.
        for (di, row) in block.chunks_exact_mut(n).enumerate() {
            let pi = fs.p[i0 + di];
            for (xv, &qj) in row.iter_mut().zip(fs.q.iter()) {
                *xv = pi + qj;
            }
        }
        // Gang of four active measurement groups in the outer loop: the
        // four 256-entry tables (8 KiB) and their packed column masks
        // stay L1-resident across the entire row block, one packed load
        // per pixel serves all four groups, and the four independent
        // lookups give the out-of-order core parallel loads. (Group-major
        // order also makes the per-pixel accumulation order independent
        // of the block split, so streamed decodes stay bit-identical to
        // one-shot ones.)
        let quads = fs.active.len() / 4;
        let gangs = fs.tables[..quads * 1024].chunks_exact(1024);
        for (q, tables) in gangs.enumerate() {
            let cols = &fs.quad_cols[q * n..(q + 1) * n];
            let rows = &fs.quad_rows[q * m + i0..q * m + i1];
            for (row, &r) in block.chunks_exact_mut(n).zip(rows) {
                if r != 0 {
                    quad_row_sweep(row, r, tables, cols);
                }
            }
        }
        for (slot, &g) in fs.active.iter().enumerate().skip(quads * 4) {
            let g = g as usize;
            let t = &fs.tables[slot * 256..slot * 256 + 256];
            let gammas = &self.col_meas_masks[g * n..(g + 1) * n];
            for (di, row) in block.chunks_exact_mut(n).enumerate() {
                let rho = self.row_meas_masks[g * m + i0 + di];
                if rho != 0 {
                    for (xv, &gm) in row.iter_mut().zip(gammas) {
                        *xv += t[(rho & gm) as usize];
                    }
                }
            }
        }
    }

    // tidy:alloc-free
    fn apply_begin(&self, y: &mut [f64], fs: &mut FusedScratch) {
        assert_eq!(y.len(), self.rows(), "output length mismatch");
        y.fill(0.0);
        fs.colsums.clear();
        fs.colsums.resize(self.cols_n, 0.0);
        if self.apply_tables {
            fs.row_tables.resize(256 * self.cols_n.div_ceil(8), 0.0);
        }
    }

    // tidy:alloc-free
    fn apply_block(
        &self,
        i0: usize,
        i1: usize,
        block: &[f64],
        y: &mut [f64],
        fs: &mut FusedScratch,
    ) {
        let (m, n) = (self.rows_m, self.cols_n);
        assert!(i0 <= i1 && i1 <= m, "row range out of bounds");
        assert_eq!(block.len(), (i1 - i0) * n, "block length mismatch");
        let col_groups = n.div_ceil(8);
        for (di, row) in block.chunks_exact(n).enumerate() {
            let i = i0 + di;
            for (c, &v) in fs.colsums.iter_mut().zip(row) {
                *c += v;
            }
            let meas = &self.meas_by_row
                [self.meas_by_row_off[i] as usize..self.meas_by_row_off[i + 1] as usize];
            if meas.is_empty() {
                continue;
            }
            let ri = simd::sum4(row);
            if self.apply_tables {
                // Build row i's subset tables once, then serve every
                // measurement that selects row i with one lookup per
                // column group.
                for (g, vals) in row.chunks(8).enumerate() {
                    subset_sums(vals, &mut fs.row_tables[g * 256..(g + 1) * 256]);
                }
                for &k in meas {
                    let masks = &self.col_group_masks
                        [k as usize * col_groups..(k as usize + 1) * col_groups];
                    let t = table_gather4(&fs.row_tables, masks);
                    y[k as usize] += ri - 2.0 * t;
                }
            } else {
                // Direct gather over the precompiled index lists.
                for &k in meas {
                    let t = gather_sum(row, self.selected_cols(k as usize));
                    y[k as usize] += ri - 2.0 * t;
                }
            }
        }
    }

    // tidy:alloc-free
    fn apply_finish(&self, y: &mut [f64], fs: &mut FusedScratch) {
        assert_eq!(y.len(), self.rows(), "output length mismatch");
        // Column-sum part: y_k += Σ_{j∈C_k} C_j.
        for (k, yk) in y.iter_mut().enumerate() {
            *yk += gather_sum(&fs.colsums, self.selected_cols(k));
        }
    }
}

impl LinearOperator for XorMeasurement {
    fn rows(&self) -> usize {
        self.patterns.len()
    }

    fn cols(&self) -> usize {
        self.rows_m * self.cols_n
    }

    // tidy:alloc-free
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "input length mismatch");
        assert_eq!(y.len(), self.rows(), "output length mismatch");
        SCRATCH.with_borrow_mut(|fs| {
            self.apply_begin(y, fs);
            self.apply_block(0, self.rows_m, x, y, fs);
            self.apply_finish(y, fs);
        });
    }

    // tidy:alloc-free
    fn apply_adjoint(&self, y: &[f64], x: &mut [f64]) {
        assert_eq!(y.len(), self.rows(), "input length mismatch");
        assert_eq!(x.len(), self.cols(), "output length mismatch");
        SCRATCH.with_borrow_mut(|fs| {
            self.adjoint_begin(y, fs);
            self.adjoint_block(0, self.rows_m, x, fs);
        });
    }

    fn row_streamed(&self) -> Option<&dyn RowStreamedOperator> {
        Some(self)
    }

    fn xor_structure(&self) -> Option<&XorMeasurement> {
        Some(self)
    }

    fn column_into(&self, p: usize, out: &mut [f64]) {
        assert!(p < self.cols(), "column {p} out of range");
        assert_eq!(out.len(), self.rows(), "output length mismatch");
        let (i, j) = (p / self.cols_n, p % self.cols_n);
        for (k, o) in out.iter_mut().enumerate() {
            *o = if self.selected(k, i, j) { 1.0 } else { 0.0 };
        }
    }
}

impl SelectionMeasurement for XorMeasurement {
    fn mask(&self, k: usize) -> BitVec {
        assert!(k < self.patterns.len(), "row {k} out of range");
        let (m, n) = (self.rows_m, self.cols_n);
        let p = &self.patterns[k];
        BitVec::from_bools((0..m * n).map(|px| {
            let (i, j) = (px / n, px % n);
            p.get(i) ^ p.get(m + j)
        }))
    }

    fn ones_in_row(&self, k: usize) -> usize {
        // |{(i,j): r_i ⊕ c_j}| = a(N−b) + (M−a)b with a row-ones, b col-ones.
        let (a, b) = self.pattern_weights(k);
        a * (self.cols_n - b) + (self.rows_m - a) * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::adjoint_mismatch;
    use tepics_ca::{CaSource, ElementaryRule, LfsrSource};
    use tepics_util::SplitMix64;

    fn sample(k: usize) -> XorMeasurement {
        let mut src = CaSource::new(12 + 10, 5, ElementaryRule::RULE_30, 40, 1);
        XorMeasurement::from_source(12, 10, &mut src, k)
    }

    /// Brute-force reference: the defining selected-pixel sums.
    fn bruteforce_apply(m: &XorMeasurement, x: &[f64]) -> Vec<f64> {
        let (rows, cols) = (m.array_rows(), m.array_cols());
        (0..m.rows())
            .map(|k| {
                let mut acc = 0.0;
                for i in 0..rows {
                    for j in 0..cols {
                        if m.selected(k, i, j) {
                            acc += x[i * cols + j];
                        }
                    }
                }
                acc
            })
            .collect()
    }

    #[test]
    fn selected_matches_mask_and_counts() {
        let m = sample(15);
        for k in 0..15 {
            let mask = m.mask(k);
            for i in 0..12 {
                for j in 0..10 {
                    assert_eq!(mask.get(i * 10 + j), m.selected(k, i, j));
                }
            }
            assert_eq!(m.ones_in_row(k), mask.count_ones());
        }
    }

    #[test]
    fn precompiled_index_lists_match_pattern_bits() {
        let m = sample(17);
        for k in 0..17 {
            let rows: Vec<u32> = (0..12u32).filter(|&i| m.row_bit(k, i as usize)).collect();
            let cols: Vec<u32> = (0..10u32).filter(|&j| m.col_bit(k, j as usize)).collect();
            assert_eq!(m.selected_rows(k), rows.as_slice(), "rows of {k}");
            assert_eq!(m.selected_cols(k), cols.as_slice(), "cols of {k}");
            assert_eq!(m.pattern_weights(k), (rows.len(), cols.len()));
        }
    }

    #[test]
    fn xor_guarantees_half_selection_on_balanced_patterns() {
        // With a=M/2 row bits and b=N/2 col bits set, exactly half the
        // pixels are selected: a(N−b)+(M−a)b = MN/2.
        let mut p = BitVec::zeros(8 + 8);
        for i in 0..4 {
            p.set(i, true); // 4 of 8 row bits
            p.set(8 + i, true); // 4 of 8 col bits
        }
        let m = XorMeasurement::from_patterns(8, 8, vec![p]);
        assert_eq!(m.ones_in_row(0), 32);
    }

    #[test]
    fn all_zero_pattern_selects_nothing() {
        let m = XorMeasurement::from_patterns(4, 4, vec![BitVec::zeros(8)]);
        assert_eq!(m.ones_in_row(0), 0);
        let y = m.apply_vec(&[1.0; 16]);
        assert_eq!(y[0], 0.0);
    }

    #[test]
    fn all_one_pattern_also_selects_nothing() {
        // r_i ⊕ c_j = 0 when both are 1: the XOR strategy's blind spot.
        let m = XorMeasurement::from_patterns(4, 4, vec![BitVec::ones(8)]);
        assert_eq!(m.ones_in_row(0), 0);
        let y = m.apply_vec(&[1.0; 16]);
        assert!(y[0].abs() < 1e-12);
    }

    #[test]
    fn apply_matches_bruteforce() {
        let m = sample(10);
        let mut rng = SplitMix64::new(2);
        let x: Vec<f64> = (0..120).map(|_| rng.next_f64()).collect();
        let y = m.apply_vec(&x);
        let expected = bruteforce_apply(&m, &x);
        for (k, (&yk, &ek)) in y.iter().zip(&expected).enumerate() {
            assert!((yk - ek).abs() < 1e-9, "row {k}");
        }
    }

    #[test]
    fn apply_matches_bruteforce_across_geometries() {
        // Property: the factorized fast paths equal the brute-force
        // selected() sums to ≤1e-10 (relative) at several geometries —
        // odd sizes, single row/column, column counts beyond one mask
        // word, and measurement counts off the group-of-eight grid.
        for &(rows, cols, k, seed) in &[
            (1usize, 1usize, 1usize, 1u64),
            (1, 13, 5, 2),
            (13, 1, 7, 3),
            (7, 9, 12, 4),
            (8, 8, 64, 5),
            (12, 10, 9, 6),
            (5, 70, 11, 7),   // columns span >8 groups
            (16, 16, 130, 8), // measurements span >16 groups
        ] {
            let mut src = CaSource::new(rows + cols, 3, ElementaryRule::RULE_30, 16, 1);
            let mut rng = SplitMix64::new(seed);
            let m = XorMeasurement::from_source(rows, cols, &mut src, k);
            let x: Vec<f64> = (0..rows * cols).map(|_| rng.next_f64() * 255.0).collect();
            let y = m.apply_vec(&x);
            let expected = bruteforce_apply(&m, &x);
            for (row, (&yk, &ek)) in y.iter().zip(&expected).enumerate() {
                assert!(
                    (yk - ek).abs() <= 1e-10 * ek.abs().max(1.0),
                    "{rows}×{cols} k={k} row {row}: {yk} vs {ek}"
                );
            }
            assert!(
                adjoint_mismatch(&m, 5, seed) < 1e-12,
                "{rows}×{cols} k={k} adjoint"
            );
        }
    }

    #[test]
    fn adjoint_matches_bruteforce_scatter() {
        let m = sample(21);
        let mut rng = SplitMix64::new(9);
        let y: Vec<f64> = (0..21).map(|_| rng.next_gaussian()).collect();
        let x = m.apply_adjoint_vec(&y);
        for i in 0..12 {
            for j in 0..10 {
                let expected: f64 = (0..21).filter(|&k| m.selected(k, i, j)).map(|k| y[k]).sum();
                let got = x[i * 10 + j];
                assert!(
                    (got - expected).abs() <= 1e-10 * expected.abs().max(1.0),
                    "pixel ({i},{j}): {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn adjoint_identity_holds() {
        let m = sample(25);
        assert!(adjoint_mismatch(&m, 10, 3) < 1e-12);
    }

    #[test]
    fn streamed_blocks_match_full_application_bitwise() {
        // The fused engine's contract: feeding the kernels any ascending
        // block partition reproduces the one-shot entry points exactly.
        let m = sample(21);
        let mut rng = SplitMix64::new(12);
        let y: Vec<f64> = (0..21).map(|_| rng.next_gaussian()).collect();
        let x: Vec<f64> = (0..120).map(|_| rng.next_f64() * 255.0).collect();
        let full_adj = m.apply_adjoint_vec(&y);
        let full_fwd = m.apply_vec(&x);
        let mut fs = FusedScratch::new();
        for step in [1usize, 3, 5, 12] {
            let mut adj = vec![0.0; 120];
            m.adjoint_begin(&y, &mut fs);
            let mut i0 = 0;
            while i0 < 12 {
                let i1 = (i0 + step).min(12);
                m.adjoint_block(i0, i1, &mut adj[i0 * 10..i1 * 10], &fs);
                i0 = i1;
            }
            assert_eq!(full_adj, adj, "adjoint step {step}");

            let mut fwd = vec![0.0; 21];
            m.apply_begin(&mut fwd, &mut fs);
            let mut i0 = 0;
            while i0 < 12 {
                let i1 = (i0 + step).min(12);
                m.apply_block(i0, i1, &x[i0 * 10..i1 * 10], &mut fwd, &mut fs);
                i0 = i1;
            }
            m.apply_finish(&mut fwd, &mut fs);
            assert_eq!(full_fwd, fwd, "forward step {step}");
        }
    }

    /// The byte-mask gang-of-four adjoint the packed sweep replaced,
    /// kept as its bit-for-bit oracle: each `−2·subset-sum` table is
    /// built in a temporary and copied scaled into its slot, and every
    /// pixel loads its gang's four row and four column mask bytes one
    /// by one. Runs `begin`, then the blocks of `step` rows.
    fn oracle_adjoint(m: &XorMeasurement, y: &[f64], step: usize) -> Vec<f64> {
        let (rows, cols) = (m.rows_m, m.cols_n);
        let mut tables = Vec::new();
        let mut active = Vec::new();
        let mut p = vec![0.0; rows];
        let mut q = vec![0.0; cols];
        let mut tmp = [0.0f64; 256];
        for (g, ys) in y.chunks(8).enumerate() {
            if ys.iter().all(|&v| v == 0.0) {
                continue;
            }
            subset_sums(ys, &mut tmp);
            for (qj, &gm) in q
                .iter_mut()
                .zip(&m.col_meas_masks[g * cols..(g + 1) * cols])
            {
                *qj += tmp[gm as usize];
            }
            for (pi, &rho) in p
                .iter_mut()
                .zip(&m.row_meas_masks[g * rows..(g + 1) * rows])
            {
                if rho != 0 {
                    *pi += tmp[rho as usize];
                }
            }
            tables.extend(tmp.iter().map(|&v| -2.0 * v));
            active.push(g);
        }
        let row_mask = |g: usize, i: usize| m.row_meas_masks[g * rows + i];
        let col_mask = |g: usize, j: usize| m.col_meas_masks[g * cols + j];
        let mut x = vec![0.0; rows * cols];
        for i0 in (0..rows).step_by(step) {
            let i1 = (i0 + step).min(rows);
            for i in i0..i1 {
                for j in 0..cols {
                    x[i * cols + j] = p[i] + q[j];
                }
            }
            let mut quads = active.chunks_exact(4);
            let mut slot = 0;
            for quad in &mut quads {
                let t = |b: usize, mask: u8| tables[(slot + b) * 256 + mask as usize];
                for i in i0..i1 {
                    let r = [0, 1, 2, 3].map(|b| row_mask(quad[b], i));
                    if r == [0u8; 4] {
                        continue;
                    }
                    for j in 0..cols {
                        let c = [0, 1, 2, 3].map(|b| col_mask(quad[b], j));
                        let a = t(0, r[0] & c[0]) + t(1, r[1] & c[1]);
                        let b = t(2, r[2] & c[2]) + t(3, r[3] & c[3]);
                        x[i * cols + j] += a + b;
                    }
                }
                slot += 4;
            }
            for &g in quads.remainder() {
                for i in i0..i1 {
                    let rho = row_mask(g, i);
                    if rho != 0 {
                        for j in 0..cols {
                            x[i * cols + j] += tables[slot * 256 + (rho & col_mask(g, j)) as usize];
                        }
                    }
                }
                slot += 1;
            }
        }
        x
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Streams the production adjoint in blocks of `step` rows.
    fn streamed_adjoint(m: &XorMeasurement, y: &[f64], step: usize) -> Vec<f64> {
        let (rows, cols) = (m.rows_m, m.cols_n);
        let mut fs = FusedScratch::new();
        let mut x = vec![0.0; rows * cols];
        m.adjoint_begin(y, &mut fs);
        for (b, block) in x.chunks_mut(step * cols).enumerate() {
            let i0 = b * step;
            m.adjoint_block(i0, i0 + block.len() / cols, block, &fs);
        }
        x
    }

    #[test]
    fn packed_adjoint_matches_byte_mask_oracle_bitwise() {
        // Measurement counts around the group-of-eight and gang-of-four
        // boundaries up to a 1434-sample decoder key; every y shape
        // that changes which groups are active; every block split.
        let mut rng = SplitMix64::new(0x9AC4);
        for (rows, cols, all_splits) in [(12usize, 20usize, true), (32, 32, false)] {
            for k in [1usize, 7, 8, 31, 32, 33, 359, 1434] {
                let mut src = CaSource::new(rows + cols, 7, ElementaryRule::RULE_30, 32, 1);
                let m = XorMeasurement::from_source(rows, cols, &mut src, k);
                let dense: Vec<f64> = (0..k).map(|_| rng.next_gaussian()).collect();
                // All-zero groups inside the first gang (groups 1 and 2,
                // one of them negative zeros) and further on (group 6).
                let mut holes = dense.clone();
                for (t, v) in holes.iter_mut().enumerate() {
                    match t / 8 {
                        1 | 6 => *v = 0.0,
                        2 => *v = -0.0,
                        _ => {}
                    }
                }
                let zero = vec![0.0; k];
                let steps: Vec<usize> = if all_splits {
                    (1..=rows).collect()
                } else {
                    vec![1, 5, rows]
                };
                for (label, y) in [("dense", &dense), ("holes", &holes), ("zero", &zero)] {
                    for &step in &steps {
                        let got = streamed_adjoint(&m, y, step);
                        assert_eq!(
                            bits(&got),
                            bits(&oracle_adjoint(&m, y, step)),
                            "{rows}×{cols} k={k} y={label} step={step}"
                        );
                    }
                }
                // A zero y gives positive zeros, never negative ones.
                assert!(m.apply_adjoint_vec(&zero).iter().all(|v| v.to_bits() == 0));
            }
        }
    }

    #[test]
    fn bytes_is_the_sum_of_every_buffer() {
        // The exhaustive destructuring fails to compile when a field is
        // added, so a new precompiled buffer cannot silently fall out of
        // the cache budget: it must be named here and summed.
        let m = sample(21);
        let XorMeasurement {
            rows_m: _,
            cols_n: _,
            patterns,
            sel_rows,
            sel_rows_off,
            sel_cols,
            sel_cols_off,
            meas_by_row,
            meas_by_row_off,
            col_group_masks,
            row_meas_masks,
            col_meas_masks,
            apply_tables: _,
        } = &m;
        let words: usize = patterns
            .iter()
            .map(|p| std::mem::size_of_val(p.as_words()))
            .sum();
        let indices: usize = [
            sel_rows,
            sel_rows_off,
            sel_cols,
            sel_cols_off,
            meas_by_row,
            meas_by_row_off,
        ]
        .iter()
        .map(|v| std::mem::size_of_val(v.as_slice()))
        .sum();
        let masks: usize = [col_group_masks, row_meas_masks, col_meas_masks]
            .iter()
            .map(|v| std::mem::size_of_val(v.as_slice()))
            .sum();
        assert_eq!(m.bytes(), words + indices + masks);
    }

    #[test]
    fn works_with_lfsr_source_too() {
        let mut src = LfsrSource::new(6 + 6, 16, 0xACE1);
        let m = XorMeasurement::from_source(6, 6, &mut src, 8);
        assert_eq!(m.rows(), 8);
        assert!(adjoint_mismatch(&m, 5, 4) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pattern length")]
    fn wrong_source_length_panics() {
        let mut src = LfsrSource::new(10, 16, 1);
        XorMeasurement::from_source(6, 6, &mut src, 2);
    }
}
