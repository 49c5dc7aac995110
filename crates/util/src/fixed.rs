//! Fixed-width integer helpers modeling hardware accumulators.
//!
//! The sensor's readout path is built from width-limited registers: an
//! 8-bit time counter, 14-bit per-column Sample & Add words, and a 20-bit
//! compressed-sample accumulator (Eq. (1) of the paper:
//! `N_B = N_b + log2(M·N)`). [`SaturatingAccumulator`] reproduces that
//! arithmetic including sticky overflow detection, so a configuration
//! that would clip in silicon is caught rather than silently wrapped.

/// Number of bits needed to represent values `0..=n`.
///
/// This is `ceil(log2(n+1))`; `bits_for(0) == 0`.
///
/// # Examples
///
/// ```
/// use tepics_util::fixed::bits_for;
/// assert_eq!(bits_for(255), 8);
/// assert_eq!(bits_for(256), 9);
/// assert_eq!(bits_for(0), 0);
/// ```
pub fn bits_for(n: u64) -> u32 {
    64 - n.leading_zeros()
}

/// Paper Eq. (1): bits needed for a sum of `m * n` pixel values of
/// `pixel_bits` bits each, `N_B = N_b + log2(M·N)`.
///
/// `m * n` must be a power of two for the equation to be exact (as in the
/// paper's 64×64 array); otherwise the ceiling is used.
///
/// # Examples
///
/// ```
/// use tepics_util::fixed::sum_bits;
/// assert_eq!(sum_bits(8, 64, 64), 20); // the paper's 20-bit samples
/// assert_eq!(sum_bits(8, 8, 8), 14);   // 8×8 block-based CS
/// ```
pub fn sum_bits(pixel_bits: u32, m: u32, n: u32) -> u32 {
    let cells = (m as u64) * (n as u64);
    assert!(cells > 0, "array must be non-empty");
    pixel_bits + (cells as f64).log2().ceil() as u32
}

/// Maximum value representable in `bits` bits.
///
/// # Panics
///
/// Panics if `bits > 63`.
pub fn max_value(bits: u32) -> u64 {
    assert!(bits <= 63, "width {bits} exceeds supported range");
    (1u64 << bits) - 1
}

/// A width-limited accumulator with sticky saturation, mirroring the
/// behavior of a hardware adder that clips at full scale.
///
/// # Examples
///
/// ```
/// use tepics_util::fixed::SaturatingAccumulator;
///
/// let mut acc = SaturatingAccumulator::new(4); // 4-bit: max 15
/// acc.add(9);
/// acc.add(9);
/// assert_eq!(acc.value(), 15);
/// assert!(acc.overflowed());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SaturatingAccumulator {
    bits: u32,
    value: u64,
    overflowed: bool,
}

impl SaturatingAccumulator {
    /// Creates an accumulator of the given bit width, starting at zero.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 63`.
    pub fn new(bits: u32) -> Self {
        assert!(
            bits > 0 && bits <= 63,
            "unsupported accumulator width {bits}"
        );
        SaturatingAccumulator {
            bits,
            value: 0,
            overflowed: false,
        }
    }

    /// Adds `x`, clipping at full scale and latching the overflow flag.
    pub fn add(&mut self, x: u64) {
        let max = max_value(self.bits);
        let sum = self.value.saturating_add(x);
        if sum > max {
            self.value = max;
            self.overflowed = true;
        } else {
            self.value = sum;
        }
    }

    /// Current accumulated value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Configured width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// `true` if any addition has ever clipped (sticky).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Resets value and overflow flag, keeping the width.
    pub fn reset(&mut self) {
        self.value = 0;
        self.overflowed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_powers_of_two() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn eq1_reproduces_paper_values() {
        // Sect. II: 8b pixels, 64×64 full frame -> 20b samples.
        assert_eq!(sum_bits(8, 64, 64), 20);
        // Sect. II: 8×8 blocks -> 14b. Also the per-column width:
        // 64 pixels × 8b = 14b column sums (Sect. III.B).
        assert_eq!(sum_bits(8, 8, 8), 14);
        assert_eq!(sum_bits(8, 64, 1), 14);
    }

    #[test]
    fn saturating_accumulator_clips_and_latches() {
        let mut acc = SaturatingAccumulator::new(14);
        for _ in 0..64 {
            acc.add(255);
        }
        assert_eq!(acc.value(), 64 * 255);
        assert!(!acc.overflowed(), "64×255 must fit in 14 bits");
        acc.add(200);
        assert!(acc.overflowed());
        assert_eq!(acc.value(), max_value(14));
        acc.reset();
        assert!(!acc.overflowed());
        assert_eq!(acc.value(), 0);
    }

    #[test]
    fn twenty_bit_sample_fits_full_frame_worst_case() {
        // Worst case compressed sample: all 4096 pixels selected at code 255.
        let mut acc = SaturatingAccumulator::new(20);
        for _ in 0..4096 {
            acc.add(255);
        }
        assert!(
            !acc.overflowed(),
            "Eq. (1) guarantees no clipping at 20 bits"
        );
        assert_eq!(acc.value(), 4096 * 255);
    }

    #[test]
    #[should_panic(expected = "unsupported accumulator width")]
    fn zero_width_accumulator_panics() {
        SaturatingAccumulator::new(0);
    }
}
