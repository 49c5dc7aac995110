//! Deterministic noise generation: fixed-pattern and temporal.
//!
//! Every noise draw derives from the configuration seed, so a noisy
//! simulation is exactly reproducible. Fixed-pattern terms (comparator
//! offset after auto-zeroing, photoresponse gain) are frozen per pixel;
//! temporal jitter is redrawn per pixel *per compressed sample*, because
//! the array is reset before every sample.

use crate::config::SensorConfig;
use tepics_util::SplitMix64;

/// Frozen per-pixel deviations plus a temporal-jitter stream.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    rows: usize,
    cols: usize,
    /// Residual comparator offset per pixel (V); empty when the offset
    /// σ is zero (every offset is then 0).
    offsets: Vec<f64>,
    /// Multiplicative photoresponse gain per pixel (≈1); empty when the
    /// gain σ is zero (every gain is then 1).
    gains: Vec<f64>,
    jitter_sigma: f64,
    jitter_seed: u64,
}

impl NoiseModel {
    /// Builds the noise model for a configuration.
    pub fn new(config: &SensorConfig) -> Self {
        let n = config.pixel_count();
        let mut rng = SplitMix64::new(config.noise_seed());
        let mut offset_rng = rng.split();
        let mut gain_rng = rng.split();
        let jitter_seed = rng.next_u64();
        let offset_sigma = config.offset_sigma_volts();
        let gain_sigma = config.fpn_gain_sigma();
        // A zero σ freezes nothing: the accessors fall back to 0 and 1.
        let frozen = |sigma: f64| if sigma == 0.0 { 0 } else { n };
        let offsets = (0..frozen(offset_sigma))
            .map(|_| offset_rng.next_gaussian() * offset_sigma)
            .collect();
        let gains = (0..frozen(gain_sigma))
            .map(|_| (1.0 + gain_rng.next_gaussian() * gain_sigma).max(0.05))
            .collect();
        NoiseModel {
            rows: config.rows(),
            cols: config.cols(),
            offsets,
            gains,
            jitter_sigma: config.jitter_sigma(),
            jitter_seed,
        }
    }

    /// Comparator offset of pixel `(row, col)` (V).
    pub fn offset(&self, row: usize, col: usize) -> f64 {
        let i = self.index(row, col);
        self.offsets.get(i).copied().unwrap_or(0.0)
    }

    /// Photoresponse gain of pixel `(row, col)`.
    pub fn gain(&self, row: usize, col: usize) -> f64 {
        let i = self.index(row, col);
        self.gains.get(i).copied().unwrap_or(1.0)
    }

    /// Temporal jitter (s) for pixel `(row, col)` during compressed
    /// sample `k` — deterministic in `(seed, k, row, col)`.
    pub fn jitter(&self, row: usize, col: usize, sample: usize) -> f64 {
        if self.jitter_sigma == 0.0 {
            return 0.0;
        }
        let stream = self
            .jitter_seed
            .wrapping_add((sample as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((self.index(row, col) as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        SplitMix64::new(stream).next_gaussian() * self.jitter_sigma
    }

    fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "pixel ({row},{col}) out of range"
        );
        row * self.cols + col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_config_generates_identity_model() {
        let c = SensorConfig::paper_prototype();
        let m = NoiseModel::new(&c);
        assert_eq!(m.offset(0, 0), 0.0);
        assert_eq!(m.gain(10, 20), 1.0);
        assert_eq!(m.jitter(5, 5, 3), 0.0);
    }

    #[test]
    fn fixed_pattern_is_frozen_and_deterministic() {
        let c = SensorConfig::builder(16, 16)
            .offset_sigma_volts(5e-3)
            .fpn_gain_sigma(0.02)
            .noise_seed(42)
            .build()
            .unwrap();
        let a = NoiseModel::new(&c);
        let b = NoiseModel::new(&c);
        for row in 0..16 {
            for col in 0..16 {
                assert_eq!(a.offset(row, col), b.offset(row, col));
                assert_eq!(a.gain(row, col), b.gain(row, col));
            }
        }
        // Different pixels get different offsets (w.h.p.).
        assert_ne!(a.offset(0, 0), a.offset(0, 1));
    }

    #[test]
    fn offset_statistics_match_sigma() {
        let sigma = 3e-3;
        let c = SensorConfig::builder(64, 64)
            .offset_sigma_volts(sigma)
            .build()
            .unwrap();
        let m = NoiseModel::new(&c);
        let mut stats = tepics_util::RunningStats::new();
        for row in 0..64 {
            for col in 0..64 {
                stats.push(m.offset(row, col));
            }
        }
        assert!(stats.mean().abs() < sigma * 0.1);
        assert!((stats.std_dev() - sigma).abs() < sigma * 0.1);
    }

    #[test]
    fn jitter_varies_per_sample_but_replays() {
        let c = SensorConfig::builder(8, 8)
            .jitter_sigma(1e-9)
            .build()
            .unwrap();
        let m = NoiseModel::new(&c);
        let j1 = m.jitter(3, 4, 0);
        let j2 = m.jitter(3, 4, 1);
        assert_ne!(j1, j2, "jitter must differ between samples");
        assert_eq!(j1, m.jitter(3, 4, 0), "jitter must replay");
    }

    #[test]
    fn gains_stay_physical() {
        let c = SensorConfig::builder(32, 32)
            .fpn_gain_sigma(0.5) // absurdly large on purpose
            .build()
            .unwrap();
        let m = NoiseModel::new(&c);
        for row in 0..32 {
            for col in 0..32 {
                assert!(m.gain(row, col) > 0.0, "gain must stay positive");
            }
        }
    }
}
