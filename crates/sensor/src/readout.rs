//! Whole-frame capture orchestration.
//!
//! One compressed sample = one 20 µs slot: the array is reset, the CA
//! advances, selected pixels integrate and fire, column buses arbitrate,
//! the TDC samples the global counter, Sample & Add accumulates, and a
//! 20-bit word leaves the chip. [`FrameReadout::capture_patterns`] runs
//! one such slot per selection pattern and returns the samples plus
//! event-level statistics; [`FrameReadout::capture`] first draws `K`
//! patterns from a source.
//!
//! Two fidelities:
//!
//! * [`Fidelity::Functional`] — pulses are converted at their ideal flip
//!   times (no bus contention). This is the linear model `y = Φ x`.
//! * [`Fidelity::EventAccurate`] — pulses go through the column token
//!   protocol; queued pulses are delayed (possibly crossing clock edges
//!   → the paper's 1 LSB error), pulses past the window are lost.
//!
//! # Per-column sums
//!
//! A jitter-free functional capture computes what the hardware
//! computes: each sample is one concurrent event, not a sequence of
//! pulses. Every pixel's flip time is converted once per scene, by the
//! same helper [`FrameReadout::code_image`] uses; a missed pixel reads
//! code 0. A sample with selected rows `R` and columns `C` fires pixel
//! `(r, c)` when its row bit differs from its column bit, so column
//! `c`'s Sample & Add word is `S_c = Σ_{r∈R} code[r,c]` when `c ∉ C`
//! and `colsum_c − S_c` when `c ∈ C`, and the sample is
//! `ΣS + Σ_{c∈C} colsum_c − 2·Σ_{c∈C} S_c` — the `r + c − 2rc` identity
//! of the XOR pattern. Nothing of it is summed row by row per sample:
//!
//! * **Row tables, once per scene.** The code rows are grouped six at
//!   a time. For each group, a table holds the per-column sums (one
//!   `u32` lane per column) and the scalar total of every subset of its
//!   rows, built by doubling: the subsets that hold row `b` are those
//!   without it plus row `b`. Tables hold about `2^6/6 ≈ 11` times the
//!   `u32` code image (more when a short last group or the padding of
//!   columns to sixteen lanes adds to it), so they stay `O(m·n)` at
//!   every size.
//! * **Column tables, once per scene.** Subset sums of the column totals
//!   `colsum_c`, eight columns per 256-entry table.
//! * **Each sample** reads each row group's six pattern bits (from one
//!   or two `u64` words) and adds the selected table entries into
//!   sixteen lanes at a time, which gives `S`; `ΣS` and `Σ_C colsum`
//!   are table lookups. `Σ_C S` masks each lane with its column bit,
//!   without a branch.
//!
//! Codes have at most 16 bits and the path takes at most `2^16` rows,
//! so every lane (and `colsum_c`) stays below `2^32`: the sums are
//! exact. The hardware's column and sample adders cannot clip on this
//! path. Every code is at most `code_max`, so a column word is at most
//! `colsum_c ≤ rows·code_max` and a sample at most
//! `Σ colsum ≤ rows·cols·code_max`, and the Eq. (1) widths
//! (`sum_bits(bits, rows, 1)` and `sum_bits(bits, rows, cols)`) hold
//! both. One check per capture, that the largest `colsum_c` fits the
//! column width and their sum the sample width, fails loudly instead
//! of clipping. Misses are counted only where a row holds one, by a
//! popcount of its miss mask against the column word (or its
//! complement, when the row bit is set). `total_pulses` follows from
//! `|R|` and `|C|`.
//!
//! The per-pulse loop still runs where it is needed: with temporal
//! jitter (every sample redraws every flip time) and at
//! [`Fidelity::EventAccurate`] (arbitration needs each column's pulse
//! times).

use crate::column::ColumnArbiter;
use crate::comparator::Comparator;
use crate::config::{CodeTransfer, SensorConfig};
use crate::noise::NoiseModel;
use crate::tdc::{Conversion, GlobalCounter, SampleAdd, SampleWord};
use tepics_ca::BitPatternSource;
use tepics_imaging::{ImageF64, ImageU8};
use tepics_util::fixed::max_value;
use tepics_util::BitVec;

/// Most rows the column-sum path sums: a column of codes (at most 16
/// bits each) then sums to less than `2^16 · 2^16`, inside a `u32` lane.
const MAX_LANE_ROWS: usize = 1 << 16;

/// Simulation fidelity of the readout path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Ideal linear measurement (no arbitration effects).
    Functional,
    /// Full column-bus token protocol with serialization delays.
    EventAccurate,
}

/// Aggregate event statistics for one captured frame.
#[derive(Debug, Clone, PartialEq)]
pub struct EventStats {
    /// Pulses emitted by selected pixels across all samples.
    pub total_pulses: u64,
    /// Pulses that had to wait for their column bus.
    pub queued_pulses: u64,
    /// Pulses lost because they arrived after the conversion window.
    pub missed_pulses: u64,
    /// Histogram of per-pulse code error `|code(grant) − code(flip)|`;
    /// index = error in LSB, last bin aggregates larger errors.
    pub code_error_lsb: Vec<u64>,
    /// Largest serialization delay observed (s).
    pub max_delay: f64,
    /// Number of samples whose column accumulator clipped.
    pub column_overflows: u64,
    /// Number of samples whose 20-bit adder clipped.
    pub sample_overflows: u64,
}

impl Default for EventStats {
    fn default() -> Self {
        EventStats::new()
    }
}

impl EventStats {
    fn new() -> Self {
        EventStats {
            total_pulses: 0,
            queued_pulses: 0,
            missed_pulses: 0,
            code_error_lsb: vec![0; 9],
            max_delay: 0.0,
            column_overflows: 0,
            sample_overflows: 0,
        }
    }

    /// Fraction of pulses with nonzero code error.
    pub fn error_fraction(&self) -> f64 {
        if self.total_pulses == 0 {
            return 0.0;
        }
        let errored: u64 = self.code_error_lsb.iter().skip(1).sum();
        errored as f64 / self.total_pulses as f64
    }

    /// Mean absolute code error in LSB (larger-than-8 errors counted as 8).
    pub fn mean_error_lsb(&self) -> f64 {
        if self.total_pulses == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .code_error_lsb
            .iter()
            .enumerate()
            .map(|(e, &c)| e as u64 * c)
            .sum();
        sum as f64 / self.total_pulses as f64
    }

    /// Folds another capture's statistics into this one: counters add,
    /// the error histograms add bin-wise (growing to the longer one),
    /// and `max_delay` keeps the maximum. Used to aggregate per-tile
    /// captures into whole-frame statistics.
    pub fn merge(&mut self, other: &EventStats) {
        self.total_pulses += other.total_pulses;
        self.queued_pulses += other.queued_pulses;
        self.missed_pulses += other.missed_pulses;
        self.column_overflows += other.column_overflows;
        self.sample_overflows += other.sample_overflows;
        self.max_delay = self.max_delay.max(other.max_delay);
        if self.code_error_lsb.len() < other.code_error_lsb.len() {
            self.code_error_lsb.resize(other.code_error_lsb.len(), 0);
        }
        for (bin, &count) in other.code_error_lsb.iter().enumerate() {
            self.code_error_lsb[bin] += count;
        }
    }
}

/// The output of one frame capture.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedFrame {
    /// Compressed samples, one per selection pattern.
    pub samples: Vec<u32>,
    /// Event statistics. Functional captures count pulses, missed
    /// pulses and both overflow kinds; queueing, code errors and delays
    /// stay zero because only arbitration produces them.
    pub stats: EventStats,
}

/// Frame-capture engine.
#[derive(Debug, Clone)]
pub struct FrameReadout {
    config: SensorConfig,
    fidelity: Fidelity,
    noise: NoiseModel,
}

impl FrameReadout {
    /// Creates a readout engine (and the configuration's noise model,
    /// which every capture then shares).
    pub fn new(config: SensorConfig, fidelity: Fidelity) -> Self {
        let noise = NoiseModel::new(&config);
        FrameReadout {
            config,
            fidelity,
            noise,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SensorConfig {
        &self.config
    }

    /// The fidelity in use.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Base flip time (s since reset) of pixel `(row, col)` for the
    /// scene, including fixed-pattern noise but not per-sample jitter.
    fn base_flip_time(&self, scene: &ImageF64, row: usize, col: usize) -> f64 {
        let e = scene.get(col, row);
        match self.config.transfer() {
            CodeTransfer::Reciprocal => {
                let comparator = Comparator::new(self.noise.offset(row, col));
                comparator.flip_time(&self.config, e * self.noise.gain(row, col), 0.0)
            }
            CodeTransfer::Linearized => {
                // Place the flip mid-tick of the linear code.
                let code = (e.clamp(0.0, 1.0) * self.config.code_max() as f64).round();
                self.config.initial_delay() + (code + 0.5) * self.config.t_clk()
            }
        }
    }

    /// The jitter-free conversion of pixel `(row, col)`: its base flip
    /// time sampled by the counter. [`FrameReadout::code_image`] and the
    /// column-sum capture both read pixels through this one helper.
    fn ideal_conversion(
        &self,
        counter: &GlobalCounter,
        scene: &ImageF64,
        row: usize,
        col: usize,
    ) -> Conversion {
        counter.convert(self.base_flip_time(scene, row, col))
    }

    /// The ideal (functional, jitter-free) code image for a scene — the
    /// ground truth the decoder tries to reconstruct. Pixels whose pulse
    /// falls outside the window read 0 (they contribute nothing).
    ///
    /// # Panics
    ///
    /// Panics if the scene size does not match the configuration.
    pub fn code_image(&self, scene: &ImageF64) -> ImageU8 {
        self.check_scene(scene);
        let counter = GlobalCounter::new(&self.config);
        ImageU8::from_fn(
            self.config.cols(),
            self.config.rows(),
            |col, row| match self.ideal_conversion(&counter, scene, row, col) {
                Conversion::Code(c) => c as u8,
                Conversion::Missed => 0,
            },
        )
    }

    /// Captures `k` compressed samples of `scene` using selection
    /// patterns drawn from `source`
    /// (see [`FrameReadout::capture_patterns`]).
    ///
    /// # Panics
    ///
    /// Panics if the scene size or the source pattern length do not
    /// match the configuration, or `k == 0`.
    pub fn capture(
        &self,
        scene: &ImageF64,
        source: &mut dyn BitPatternSource,
        k: usize,
    ) -> CapturedFrame {
        let patterns: Vec<BitVec> = (0..k).map(|_| source.next_pattern()).collect();
        self.capture_patterns(scene, &patterns)
    }

    /// Captures one compressed sample of `scene` per selection pattern
    /// (`M+N` bits each: rows, then columns).
    ///
    /// # Panics
    ///
    /// Panics if the scene size or a pattern length do not match the
    /// configuration, or `patterns` is empty.
    pub fn capture_patterns(&self, scene: &ImageF64, patterns: &[BitVec]) -> CapturedFrame {
        self.check_scene(scene);
        assert!(!patterns.is_empty(), "need at least one compressed sample");
        let (m, n) = (self.config.rows(), self.config.cols());
        assert!(
            patterns.iter().all(|p| p.len() == m + n),
            "pattern length != M+N = {}",
            m + n
        );
        let column_sums = self.fidelity == Fidelity::Functional
            && self.config.jitter_sigma() == 0.0
            && m <= MAX_LANE_ROWS;
        if column_sums {
            self.capture_column_sums(scene, patterns)
        } else {
            self.capture_pulses(scene, patterns)
        }
    }

    /// The jitter-free functional capture through per-column sums (see
    /// the module docs).
    fn capture_column_sums(&self, scene: &ImageF64, patterns: &[BitVec]) -> CapturedFrame {
        let (m, n) = (self.config.rows(), self.config.cols());
        let counter = GlobalCounter::new(&self.config);
        // Row-major codes (a missed pixel reads 0), and one
        // `(row, column word, mask)` entry per column word of a row that
        // holds a missed pixel.
        let mut codes = vec![0u32; m * n];
        let mut misses: Vec<(usize, usize, u64)> = Vec::new();
        for (px, code) in codes.iter_mut().enumerate() {
            let (row, col) = (px / n, px % n);
            match self.ideal_conversion(&counter, scene, row, col) {
                Conversion::Code(c) => *code = c,
                Conversion::Missed => match misses.last_mut() {
                    Some((r, w, mask)) if (*r, *w) == (row, col / 64) => *mask |= 1 << (col % 64),
                    _ => misses.push((row, col / 64, 1 << (col % 64))),
                },
            }
        }
        let mut column_totals = vec![0u32; n];
        for row in codes.chunks_exact(n) {
            add_row(&mut column_totals, row);
        }
        let (column_bits, sample_bits) = SampleAdd::widths(&self.config);
        let largest = column_totals.iter().copied().max().map_or(0, u64::from);
        let grand: u64 = column_totals.iter().map(|&t| u64::from(t)).sum();
        // tidy:allow(panic: codes are at most code_max, and the Eq. (1) widths hold rows·code_max per column and rows·cols·code_max per sample)
        assert!(
            largest <= max_value(column_bits) && grand <= max_value(sample_bits),
            "codes overrun the Eq. (1) widths"
        );
        let (row_lanes, row_totals) = row_tables(&codes, n);
        let column_table = column_tables(&column_totals);
        let stride = lane_stride(n);
        let mut entries = vec![0usize; m.div_ceil(ROW_GROUP)];
        let mut column_words = vec![0u64; n.div_ceil(64)];
        let mut stats = EventStats::new();
        let mut samples = Vec::with_capacity(patterns.len());
        // tidy:alloc-free
        for pattern in patterns {
            let words = pattern.as_words();
            // One table entry per row group: S = Σ_g T_g[rowmask_g], and
            // ΣS from the same entries.
            let (mut row_sum, mut rows_set) = (0u64, 0);
            for (g, entry) in entries.iter_mut().enumerate() {
                let first = g * ROW_GROUP;
                let width = ROW_GROUP.min(m - first);
                let pair = u128::from(words[first / 64])
                    | u128::from(words.get(first / 64 + 1).copied().unwrap_or(0)) << 64;
                let mask = (pair >> (first % 64)) as usize & ((1 << width) - 1);
                row_sum += row_totals[g * ROW_TABLE + mask];
                rows_set += mask.count_ones() as usize;
                *entry = (g * ROW_TABLE + mask) * stride;
            }
            column_bits_into(words, m, &mut column_words);
            let cols_set: usize = column_words.iter().map(|w| w.count_ones() as usize).sum();
            // Column c's word is S_c when its bit is 0 and colsum_c − S_c
            // when it is 1: total = ΣS + Σ_C colsum − 2·Σ_C S.
            let column_sum: u64 = column_words
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .zip(column_table.chunks_exact(256))
                .map(|(byte, table)| table[usize::from(byte)])
                .sum();
            let mut selected = 0u64;
            for c0 in (0..stride).step_by(LANES) {
                let mut lanes = [0u32; LANES];
                for &entry in &entries {
                    let at = entry + c0;
                    for (lane, &code_sum) in lanes.iter_mut().zip(&row_lanes[at..at + LANES]) {
                        *lane += code_sum;
                    }
                }
                let bits = (column_words[c0 / 64] >> (c0 % 64)) as u32;
                selected += masked_sum(&lanes, bits);
            }
            for &(row, w, mask) in &misses {
                let flip = u64::from(pattern.get(row)).wrapping_neg();
                stats.missed_pulses += u64::from((mask & (column_words[w] ^ flip)).count_ones());
            }
            stats.total_pulses += (rows_set * (n - cols_set) + (m - rows_set) * cols_set) as u64;
            samples.push((row_sum + column_sum - 2 * selected) as u32);
        }
        CapturedFrame { samples, stats }
    }

    /// The pulse-by-pulse capture: jittered flip times and the
    /// event-accurate column protocol.
    fn capture_pulses(&self, scene: &ImageF64, patterns: &[BitVec]) -> CapturedFrame {
        let (m, n) = (self.config.rows(), self.config.cols());
        let counter = GlobalCounter::new(&self.config);
        let arbiter = ColumnArbiter::new(&self.config);
        let mut sample_add = SampleAdd::for_config(&self.config);
        let mut stats = EventStats::new();
        let mut samples = Vec::with_capacity(patterns.len());
        // Base flip times are scene-dependent only; jitter is per sample.
        let base: Vec<f64> = (0..m * n)
            .map(|px| self.base_flip_time(scene, px / n, px % n))
            .collect();
        let jitter_free = self.config.jitter_sigma() == 0.0;
        let mut column_pulses: Vec<(usize, f64)> = Vec::with_capacity(m);
        for (sample_idx, pattern) in patterns.iter().enumerate() {
            for col in 0..n {
                let col_selected = pattern.get(m + col);
                column_pulses.clear();
                for row in 0..m {
                    if pattern.get(row) != col_selected {
                        let mut t = base[row * n + col];
                        if !jitter_free {
                            t = (t + self.noise.jitter(row, col, sample_idx)).max(0.0);
                        }
                        column_pulses.push((row, t));
                    }
                }
                stats.total_pulses += column_pulses.len() as u64;
                match self.fidelity {
                    Fidelity::Functional => {
                        for &(_, t) in &column_pulses {
                            let conv = counter.convert(t);
                            if conv == Conversion::Missed {
                                stats.missed_pulses += 1;
                            }
                            sample_add.add(col, conv);
                        }
                    }
                    Fidelity::EventAccurate => {
                        let outcome = arbiter.arbitrate(&column_pulses);
                        for e in &outcome.events {
                            if e.queued {
                                stats.queued_pulses += 1;
                                stats.max_delay = stats.max_delay.max(e.delay());
                            }
                            let conv = counter.convert(e.t_grant);
                            match (counter.ideal_code(e.t_flip), conv) {
                                (Conversion::Code(a), Conversion::Code(b)) => {
                                    let err = (b as i64 - a as i64).unsigned_abs() as usize;
                                    let bin = err.min(stats.code_error_lsb.len() - 1);
                                    stats.code_error_lsb[bin] += 1;
                                }
                                (_, Conversion::Missed) => stats.missed_pulses += 1,
                                (Conversion::Missed, Conversion::Code(_)) => {
                                    // Ideal was already lost; arbitration
                                    // cannot resurrect it earlier, so this
                                    // cannot occur (delay ≥ 0).
                                    // tidy:allow(panic: delay ≥ 0 — a grant can only move later than its flip)
                                    unreachable!("grant precedes flip");
                                }
                            }
                            sample_add.add(col, conv);
                        }
                    }
                }
            }
            record_sample(sample_add.finish(), &mut stats, &mut samples);
        }
        CapturedFrame { samples, stats }
    }

    fn check_scene(&self, scene: &ImageF64) {
        assert_eq!(
            (scene.width(), scene.height()),
            (self.config.cols(), self.config.rows()),
            "scene {}×{} does not match sensor {}×{}",
            scene.width(),
            scene.height(),
            self.config.cols(),
            self.config.rows()
        );
    }
}

/// Rows per row table of the column-sum capture. Chosen by timing
/// captures of 32×32 (`K = 359`) and 64×64 (`K = 1434`) arrays: four,
/// six and eight rows tie at 32×32; at 64×64 four rows take about 20%
/// longer than six, and eight save about 10% but need three times the
/// table memory.
const ROW_GROUP: usize = 6;

/// Entries per row table: every subset of a group's rows.
const ROW_TABLE: usize = 1 << ROW_GROUP;

/// Columns summed per pass of the column-sum capture.
const LANES: usize = 16;

/// Lanes per row-table entry: `n` padded with zero lanes to whole
/// passes.
fn lane_stride(n: usize) -> usize {
    n.next_multiple_of(LANES)
}

/// The row tables of a row-major `codes` image `n` columns wide: for
/// row group `g` (rows `g·ROW_GROUP..`) and each subset `mask` of its
/// rows, entry `g·ROW_TABLE + mask` holds the subset's per-column sums
/// (`lane_stride(n)` lanes) and their total. Each table is built by
/// doubling: the subsets holding row `b` are those without it plus row
/// `b`. The last group may hold fewer rows; its entries past its
/// subsets stay zero.
fn row_tables(codes: &[u32], n: usize) -> (Vec<u32>, Vec<u64>) {
    let (groups, stride) = ((codes.len() / n).div_ceil(ROW_GROUP), lane_stride(n));
    let mut lanes = vec![0u32; groups * ROW_TABLE * stride];
    let mut totals = vec![0u64; groups * ROW_TABLE];
    let tables = lanes
        .chunks_exact_mut(ROW_TABLE * stride)
        .zip(totals.chunks_exact_mut(ROW_TABLE));
    for ((table, total), rows) in tables.zip(codes.chunks(ROW_GROUP * n)) {
        for (b, row) in rows.chunks_exact(n).enumerate() {
            let (lo, hi) = table.split_at_mut((1 << b) * stride);
            for (dst, src) in hi.chunks_exact_mut(stride).zip(lo.chunks_exact(stride)) {
                for ((d, &s), &code) in dst.iter_mut().zip(src).zip(row) {
                    *d = s + code;
                }
            }
            let row_total: u64 = row.iter().map(|&c| u64::from(c)).sum();
            let (lo, hi) = total.split_at_mut(1 << b);
            for (d, &s) in hi.iter_mut().zip(lo.iter()) {
                *d = s + row_total;
            }
        }
    }
    (lanes, totals)
}

/// Subset sums of the column totals, eight columns per 256-entry
/// table: entry `g·256 + byte` sums the totals of columns `8g + i` for
/// each set bit `i` of `byte`.
fn column_tables(column_totals: &[u32]) -> Vec<u64> {
    let mut tables = vec![0u64; column_totals.len().div_ceil(8) * 256];
    for (table, totals) in tables.chunks_exact_mut(256).zip(column_totals.chunks(8)) {
        for (b, &t) in totals.iter().enumerate() {
            let (lo, hi) = table.split_at_mut(1 << b);
            for (d, &s) in hi.iter_mut().zip(lo.iter()) {
                *d = s + u64::from(t);
            }
        }
    }
    tables
}

/// The sum of the lanes whose bit is set in the low `LANES` bits of
/// `bits`, without a branch.
fn masked_sum(lanes: &[u32; LANES], bits: u32) -> u64 {
    let mut sum = 0u64;
    for (i, &lane) in lanes.iter().enumerate() {
        let keep = u32::from(bits & (1 << i) != 0).wrapping_neg();
        sum += u64::from(lane & keep);
    }
    sum
}

/// Adds one row of codes into per-column `u32` lanes.
fn add_row(acc: &mut [u32], row: &[u32]) {
    for (a, &code) in acc.iter_mut().zip(row) {
        *a += code;
    }
}

/// Copies the column bits of a selection pattern, which start at bit
/// `m` of its words, into `out` as whole words. A `BitVec` keeps its
/// bits past `len` (here `M+N`) zero, so the last word needs no mask.
fn column_bits_into(pattern: &[u64], m: usize, out: &mut [u64]) {
    let (first, shift) = (m / 64, m % 64);
    for (i, word) in out.iter_mut().enumerate() {
        let low = pattern[first + i] >> shift;
        let high = match pattern.get(first + i + 1) {
            Some(&next) if shift > 0 => next << (64 - shift),
            _ => 0,
        };
        *word = low | high;
    }
}

/// Appends a finished sample word and counts its overflows.
fn record_sample(word: SampleWord, stats: &mut EventStats, samples: &mut Vec<u32>) {
    stats.column_overflows += u64::from(word.column_overflow);
    stats.sample_overflows += u64::from(word.sample_overflow);
    samples.push(word.value as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_ca::{CaSource, ElementaryRule};
    use tepics_imaging::Scene;

    fn small_config() -> SensorConfig {
        SensorConfig::builder(16, 16).build().unwrap()
    }

    fn source(config: &SensorConfig, seed: u64) -> CaSource {
        CaSource::new(
            config.rows() + config.cols(),
            seed,
            ElementaryRule::RULE_30,
            64,
            1,
        )
    }

    #[test]
    fn functional_capture_matches_manual_sum_of_codes() {
        let config = small_config();
        let scene = Scene::gaussian_blobs(2).render(16, 16, 3);
        let readout = FrameReadout::new(config.clone(), Fidelity::Functional);
        let codes = readout.code_image(&scene);
        let mut src = source(&config, 11);
        let patterns: Vec<BitVec> = (0..25).map(|_| src.next_pattern()).collect();
        let frame = readout.capture_patterns(&scene, &patterns);
        // Recompute each sample from the pattern and the code image.
        for (k, pattern) in patterns.iter().enumerate() {
            let mut expected = 0u32;
            for row in 0..16 {
                for col in 0..16 {
                    if pattern.get(row) != pattern.get(16 + col) {
                        expected += codes.get(col, row) as u32;
                    }
                }
            }
            assert_eq!(frame.samples[k], expected, "sample {k}");
        }
    }

    #[test]
    fn full_scale_codes_never_clip_on_the_column_sum_path() {
        // Every code at code_max, and patterns that fire every pixel of
        // the array: the largest column and sample sums there are.
        for (rows, cols) in [(1, 1), (5, 3), (16, 16), (70, 17), (64, 64)] {
            let config = SensorConfig::builder(rows, cols)
                .transfer(CodeTransfer::Linearized)
                .build()
                .unwrap();
            let readout = FrameReadout::new(config.clone(), Fidelity::Functional);
            let scene = Scene::Uniform(1.0).render(cols, rows, 0);
            let codes = readout.code_image(&scene);
            assert!(codes
                .as_slice()
                .iter()
                .all(|&c| u32::from(c) == config.code_max()));
            let mut all_rows = BitVec::zeros(rows + cols);
            (0..rows).for_each(|r| all_rows.set(r, true));
            let mut all_cols = BitVec::ones(rows + cols);
            (0..rows).for_each(|r| all_cols.set(r, false));
            let mut src = source(&config, 13);
            let mut patterns: Vec<BitVec> = (0..30).map(|_| src.next_pattern()).collect();
            patterns.extend([all_rows, all_cols]);
            let frame = readout.capture_patterns(&scene, &patterns);
            let full = (rows * cols) as u32 * config.code_max();
            assert_eq!(frame.samples[30..], [full, full], "{rows}×{cols}");
            assert_eq!(frame.stats.column_overflows, 0, "{rows}×{cols}");
            assert_eq!(frame.stats.sample_overflows, 0, "{rows}×{cols}");
            assert_eq!(
                frame,
                readout.capture_pulses(&scene, &patterns),
                "{rows}×{cols}"
            );
        }
    }

    #[test]
    fn event_accurate_matches_functional_when_events_cannot_collide() {
        // With an event duration far below the minimum pulse spacing,
        // arbitration never delays anything.
        let config = SensorConfig::builder(8, 8)
            .event_duration(1e-12)
            .release_delay(0.0)
            .build()
            .unwrap();
        let scene = Scene::LinearGradient { angle: 0.3 }.render(8, 8, 1);
        let f = FrameReadout::new(config.clone(), Fidelity::Functional);
        let e = FrameReadout::new(config.clone(), Fidelity::EventAccurate);
        let mut s1 = source(&config, 5);
        let mut s2 = source(&config, 5);
        let ff = f.capture(&scene, &mut s1, 30);
        let ee = e.capture(&scene, &mut s2, 30);
        assert_eq!(ff.samples, ee.samples);
        assert_eq!(ee.stats.error_fraction(), 0.0);
    }

    #[test]
    fn event_accurate_reports_queueing_on_flat_scenes() {
        // A uniform scene makes all pixels in a column flip at the same
        // instant: maximal contention.
        let config = small_config();
        let scene = Scene::Uniform(0.5).render(16, 16, 0);
        let readout = FrameReadout::new(config.clone(), Fidelity::EventAccurate);
        let mut src = source(&config, 9);
        let frame = readout.capture(&scene, &mut src, 10);
        assert!(
            frame.stats.queued_pulses > 0,
            "uniform scene must serialize pulses"
        );
        assert!(frame.stats.max_delay > 0.0);
    }

    #[test]
    fn missed_pulses_counted_when_window_is_too_short() {
        // Shrink the counter so dark pixels (long flip times) miss.
        let config = SensorConfig::builder(8, 8)
            .counter_bits(6) // window = 64 ticks ≈ 2.67 µs at 24 MHz
            .build()
            .unwrap();
        let scene = Scene::Uniform(0.02).render(8, 8, 0); // dark: ~10 µs flips
        let readout = FrameReadout::new(config.clone(), Fidelity::Functional);
        let mut src = source(&config, 1);
        let frame = readout.capture(&scene, &mut src, 5);
        assert!(frame.stats.missed_pulses > 0);
        // All pulses missed ⇒ all-zero samples.
        assert!(frame.samples.iter().all(|&s| s == 0));
    }

    #[test]
    fn capture_is_deterministic() {
        let config = small_config();
        let scene = Scene::natural_like().render(16, 16, 8);
        let readout = FrameReadout::new(config.clone(), Fidelity::EventAccurate);
        let mut s1 = source(&config, 3);
        let mut s2 = source(&config, 3);
        let a = readout.capture(&scene, &mut s1, 20);
        let b = readout.capture(&scene, &mut s2, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn linearized_transfer_maps_intensity_linearly() {
        let config = SensorConfig::builder(8, 8)
            .transfer(CodeTransfer::Linearized)
            .build()
            .unwrap();
        let readout = FrameReadout::new(config, Fidelity::Functional);
        let scene = ImageF64::from_fn(8, 8, |x, _| x as f64 / 7.0);
        let codes = readout.code_image(&scene);
        // Linear: code = round(E * 255).
        assert_eq!(codes.get(0, 0), 0);
        assert_eq!(codes.get(7, 0), 255);
        let mid = codes.get(4, 0) as f64;
        assert!((mid - (4.0f64 / 7.0 * 255.0).round()).abs() < 1.0);
    }

    #[test]
    fn reciprocal_transfer_is_monotone_decreasing() {
        let config = small_config();
        let readout = FrameReadout::new(config, Fidelity::Functional);
        let scene = ImageF64::from_fn(16, 16, |x, _| x as f64 / 15.0);
        let codes = readout.code_image(&scene);
        for x in 1..16 {
            assert!(
                codes.get(x, 0) <= codes.get(x - 1, 0),
                "brighter pixels must get smaller codes"
            );
        }
    }

    #[test]
    fn jitter_changes_samples_but_stays_reproducible() {
        let config = SensorConfig::builder(16, 16)
            .jitter_sigma(20e-9)
            .build()
            .unwrap();
        let clean_cfg = small_config();
        let scene = Scene::gaussian_blobs(2).render(16, 16, 4);
        let noisy = FrameReadout::new(config.clone(), Fidelity::Functional);
        let clean = FrameReadout::new(clean_cfg.clone(), Fidelity::Functional);
        let mut s1 = source(&config, 2);
        let mut s2 = source(&clean_cfg, 2);
        let mut s3 = source(&config, 2);
        let a = noisy.capture(&scene, &mut s1, 15);
        let b = clean.capture(&scene, &mut s2, 15);
        let c = noisy.capture(&scene, &mut s3, 15);
        assert_ne!(a.samples, b.samples, "jitter must perturb samples");
        assert_eq!(a.samples, c.samples, "jittered capture must replay");
    }

    #[test]
    #[should_panic(expected = "does not match sensor")]
    fn wrong_scene_size_panics() {
        let config = small_config();
        let scene = Scene::Uniform(0.5).render(8, 8, 0);
        let mut src = source(&config, 1);
        FrameReadout::new(config, Fidelity::Functional).capture(&scene, &mut src, 1);
    }
}
