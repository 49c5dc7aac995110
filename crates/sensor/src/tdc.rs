//! Time-to-digital conversion and the Sample & Add accumulators.
//!
//! Sect. III.B: a global counter clocked at `f_clk` starts after the
//! initial delay; each arriving pulse samples the counter and the
//! per-column Sample & Add accumulates the sampled codes into a 14-bit
//! word (≤ 64 pixels × 8 bits); the 64 column sums add into a 20-bit
//! compressed sample — Eq. (1) widths, enforced with saturating
//! accumulators so any configuration that would clip is detected.

use crate::config::SensorConfig;
use tepics_util::fixed::SaturatingAccumulator;

/// Fate of one pulse at the TDC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conversion {
    /// Pulse arrived inside the window; carries the sampled code.
    Code(u32),
    /// Pulse arrived after the conversion window closed — the value is
    /// lost (contributes nothing to the sample).
    Missed,
}

/// The global TDC counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalCounter {
    t_clk: f64,
    t_start: f64,
    code_max: u32,
}

impl GlobalCounter {
    /// Creates the counter from the sensor configuration.
    pub fn new(config: &SensorConfig) -> Self {
        GlobalCounter {
            t_clk: config.t_clk(),
            t_start: config.initial_delay(),
            code_max: config.code_max(),
        }
    }

    /// Samples the counter for a pulse arriving at `t` (s since reset).
    ///
    /// Arrivals before the counter starts read code 0; arrivals after
    /// `2^bits` ticks are [`Conversion::Missed`].
    pub fn convert(&self, t: f64) -> Conversion {
        if t < self.t_start {
            return Conversion::Code(0);
        }
        let ticks = ((t - self.t_start) / self.t_clk).floor() as u64;
        if ticks > self.code_max as u64 {
            Conversion::Missed
        } else {
            Conversion::Code(ticks.min(self.code_max as u64) as u32)
        }
    }

    /// The ideal code for a flip time, ignoring arbitration (used as the
    /// ground truth in LSB-error analyses).
    pub fn ideal_code(&self, t_flip: f64) -> Conversion {
        self.convert(t_flip)
    }
}

/// Per-column Sample & Add plus the final sample adder, with hardware
/// widths.
#[derive(Debug, Clone)]
pub struct SampleAdd {
    columns: Vec<SaturatingAccumulator>,
    column_bits: u32,
    sample_bits: u32,
}

/// A finished compressed sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleWord {
    /// The accumulated compressed sample value.
    pub value: u64,
    /// Width of the sample word in bits.
    pub bits: u32,
    /// `true` if any column accumulator clipped.
    pub column_overflow: bool,
    /// `true` if the final adder clipped.
    pub sample_overflow: bool,
}

impl SampleAdd {
    /// Creates accumulators for `cols` columns with widths derived from
    /// Eq. (1): column width = `pixel_bits + ⌈log2 rows⌉`, sample width
    /// = `pixel_bits + ⌈log2 (rows·cols)⌉`.
    pub fn for_config(config: &SensorConfig) -> Self {
        let (column_bits, sample_bits) = Self::widths(config);
        SampleAdd {
            columns: (0..config.cols())
                .map(|_| SaturatingAccumulator::new(column_bits))
                .collect(),
            column_bits,
            sample_bits,
        }
    }

    /// The Eq. (1) `(column, sample)` widths of a configuration.
    pub(crate) fn widths(config: &SensorConfig) -> (u32, u32) {
        let bits = config.counter_bits();
        let rows = config.rows() as u32;
        (
            tepics_util::fixed::sum_bits(bits, rows, 1),
            tepics_util::fixed::sum_bits(bits, rows, config.cols() as u32),
        )
    }

    /// Column accumulator width (14 bits for the prototype).
    pub fn column_bits(&self) -> u32 {
        self.column_bits
    }

    /// Final sample width (20 bits for the prototype).
    pub fn sample_bits(&self) -> u32 {
        self.sample_bits
    }

    /// Accumulates a converted code into its column. Missed conversions
    /// are counted by the caller; they add nothing here.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn add(&mut self, col: usize, conversion: Conversion) {
        let code = match conversion {
            Conversion::Code(code) => u64::from(code),
            Conversion::Missed => 0,
        };
        assert!(col < self.columns.len(), "column {col} out of range");
        self.columns[col].add(code);
    }

    /// Sums the column words into the final sample and resets for the
    /// next one.
    pub fn finish(&mut self) -> SampleWord {
        let mut total = SaturatingAccumulator::new(self.sample_bits);
        let mut column_overflow = false;
        for c in &mut self.columns {
            column_overflow |= c.overflowed();
            total.add(c.value());
            c.reset();
        }
        SampleWord {
            value: total.value(),
            bits: self.sample_bits,
            column_overflow,
            sample_overflow: total.overflowed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SensorConfig {
        SensorConfig::paper_prototype()
    }

    #[test]
    fn paper_widths_are_14_and_20_bits() {
        let sa = SampleAdd::for_config(&config());
        assert_eq!(sa.column_bits(), 14);
        assert_eq!(sa.sample_bits(), 20);
    }

    #[test]
    fn counter_codes_are_monotone_in_time() {
        let c = config();
        let counter = GlobalCounter::new(&c);
        let mut last = 0;
        let mut t = c.initial_delay();
        while t < c.window_end() - c.t_clk() {
            match counter.convert(t) {
                Conversion::Code(code) => {
                    assert!(code >= last);
                    last = code;
                }
                Conversion::Missed => panic!("unexpected miss inside window"),
            }
            t += c.t_clk() * 3.7;
        }
        assert!(last > 200, "codes should span most of the range");
    }

    #[test]
    fn counter_boundaries() {
        let c = config();
        let counter = GlobalCounter::new(&c);
        // Before start: code 0.
        assert_eq!(counter.convert(0.0), Conversion::Code(0));
        // Exactly at start: code 0.
        assert_eq!(counter.convert(c.initial_delay()), Conversion::Code(0));
        // One tick in: code 1.
        assert_eq!(
            counter.convert(c.initial_delay() + 1.5 * c.t_clk()),
            Conversion::Code(1)
        );
        // Last valid tick: code 255.
        assert_eq!(
            counter.convert(c.initial_delay() + 255.5 * c.t_clk()),
            Conversion::Code(255)
        );
        // After the window: missed.
        assert_eq!(
            counter.convert(c.initial_delay() + 256.5 * c.t_clk()),
            Conversion::Missed
        );
    }

    #[test]
    fn one_clock_late_arrival_is_one_lsb() {
        // The paper's 1 LSB observation: a pulse delayed into the next
        // clock period reads one code higher.
        let c = config();
        let counter = GlobalCounter::new(&c);
        let t = c.initial_delay() + 100.0 * c.t_clk() + 0.9 * c.t_clk();
        let on_time = counter.convert(t);
        let late = counter.convert(t + 0.2 * c.t_clk());
        match (on_time, late) {
            (Conversion::Code(a), Conversion::Code(b)) => assert_eq!(b, a + 1),
            other => panic!("unexpected conversions {other:?}"),
        }
    }

    #[test]
    fn full_column_of_max_codes_fits_exactly() {
        let c = config();
        let mut sa = SampleAdd::for_config(&c);
        for _ in 0..64 {
            sa.add(0, Conversion::Code(255));
        }
        let word = sa.finish();
        assert_eq!(word.value, 64 * 255);
        assert!(!word.column_overflow);
        assert!(!word.sample_overflow);
    }

    #[test]
    fn worst_case_frame_never_overflows_eq1_widths() {
        // All 4096 pixels selected at code 255: exactly the Eq. (1) case.
        let c = config();
        let mut sa = SampleAdd::for_config(&c);
        for col in 0..64 {
            for _ in 0..64 {
                sa.add(col, Conversion::Code(255));
            }
        }
        let word = sa.finish();
        assert_eq!(word.value, 4096 * 255);
        assert!(!word.column_overflow && !word.sample_overflow);
        assert_eq!(word.bits, 20);
    }

    #[test]
    fn undersized_widths_do_clip_and_report() {
        // A 6-bit counter with a 64-pixel column would need 12 bits; feed
        // codes beyond that through a deliberately tiny config.
        let tiny = SensorConfig::builder(4, 2)
            .counter_bits(2)
            .clk_hz(24e6)
            .build()
            .unwrap();
        let mut sa = SampleAdd::for_config(&tiny);
        // column bits = 2 + log2(4) = 4; max 15. Add 4 codes of 3 -> 12 ok.
        for _ in 0..4 {
            sa.add(0, Conversion::Code(3));
        }
        let w = sa.finish();
        assert!(!w.column_overflow);
        assert_eq!(w.value, 12);
        // Overfill: 6 codes of 3 = 18 > 15 clips.
        for _ in 0..6 {
            sa.add(0, Conversion::Code(3));
        }
        let w = sa.finish();
        assert!(w.column_overflow);
    }

    #[test]
    fn missed_conversions_add_nothing() {
        let c = config();
        let mut sa = SampleAdd::for_config(&c);
        sa.add(0, Conversion::Missed);
        sa.add(1, Conversion::Code(7));
        let w = sa.finish();
        assert_eq!(w.value, 7);
    }
}
