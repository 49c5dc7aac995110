//! Sensor configuration.
//!
//! Defaults reproduce the prototype of Sect. IV (Table II): 64×64
//! pixels, 24 MHz clock, 8-bit time codes, 20 µs per compressed sample
//! (50 kHz at R = 0.4 and 30 fps), 5 ns events. Electrical values are
//! chosen so the full intensity range maps inside the conversion window
//! (the paper's `V_rst`/`V_ref` tuning knobs exist here as plain fields,
//! exercised by the adaptive-exposure example).

use std::fmt;

/// How scene intensity maps to the digital pixel code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeTransfer {
    /// The physical pulse-modulation map: crossing time `t = Q/I_ph` is
    /// reciprocal in intensity, then quantized by the TDC. Bright pixels
    /// get small codes.
    Reciprocal,
    /// Idealized control for algorithm-only experiments: code is linear
    /// in intensity (`code = round(E · code_max)`), bypassing the
    /// reciprocal compression of the time axis. Clearly non-physical;
    /// used by ablations to separate CS behavior from transfer-curve
    /// effects.
    Linearized,
}

/// Error returned by [`SensorConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid sensor configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Complete parameter set of the simulated sensor.
///
/// Construct through [`SensorConfig::builder`]; all getters are simple
/// field reads plus a few derived quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorConfig {
    rows: usize,
    cols: usize,
    // Electrical (photodiode + comparator).
    v_rst: f64,
    v_ref: f64,
    cap_farads: f64,
    i_dark: f64,
    i_scale: f64,
    comparator_delay: f64,
    // Timing.
    sample_period: f64,
    clk_hz: f64,
    counter_bits: u32,
    initial_delay: f64,
    // Event protocol.
    event_duration: f64,
    release_delay: f64,
    // Noise (0 disables each term).
    offset_sigma_volts: f64,
    jitter_sigma: f64,
    fpn_gain_sigma: f64,
    noise_seed: u64,
    transfer: CodeTransfer,
}

impl SensorConfig {
    /// Starts a builder for an array of the given size.
    pub fn builder(rows: usize, cols: usize) -> SensorConfigBuilder {
        SensorConfigBuilder::new(rows, cols)
    }

    /// The paper's 64×64 prototype configuration.
    pub fn paper_prototype() -> SensorConfig {
        SensorConfig::builder(64, 64)
            .build()
            // tidy:allow(panic: constant builder input; validity pinned by the config tests)
            .expect("paper defaults are valid")
    }

    /// Array height (M).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array width (N).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Pixel count (M·N).
    pub fn pixel_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Reset voltage `V_rst` (V).
    pub fn v_rst(&self) -> f64 {
        self.v_rst
    }

    /// Comparator reference `V_ref` (V).
    pub fn v_ref(&self) -> f64 {
        self.v_ref
    }

    /// Integration capacitance (F).
    pub fn cap_farads(&self) -> f64 {
        self.cap_farads
    }

    /// Dark/background current (A).
    pub fn i_dark(&self) -> f64 {
        self.i_dark
    }

    /// Photocurrent at full-scale intensity (A).
    pub fn i_scale(&self) -> f64 {
        self.i_scale
    }

    /// Comparator propagation delay (s).
    pub fn comparator_delay(&self) -> f64 {
        self.comparator_delay
    }

    /// Charge swept between reset and threshold: `C · (V_rst − V_ref)`.
    pub fn integration_charge(&self) -> f64 {
        self.cap_farads * (self.v_rst - self.v_ref)
    }

    /// Compressed-sample period (s): reset → integrate → convert.
    pub fn sample_period(&self) -> f64 {
        self.sample_period
    }

    /// TDC clock (Hz).
    pub fn clk_hz(&self) -> f64 {
        self.clk_hz
    }

    /// TDC clock period (s).
    pub fn t_clk(&self) -> f64 {
        1.0 / self.clk_hz
    }

    /// Counter width (bits).
    pub fn counter_bits(&self) -> u32 {
        self.counter_bits
    }

    /// Largest code value (`2^bits − 1`).
    pub fn code_max(&self) -> u32 {
        (1u32 << self.counter_bits) - 1
    }

    /// Delay between pixel reset and counter start (s) — the paper's
    /// allowance for pulses to reach the bottom of the array.
    pub fn initial_delay(&self) -> f64 {
        self.initial_delay
    }

    /// Duration of the conversion window (s): `2^bits` clock periods.
    pub fn conversion_window(&self) -> f64 {
        (1u64 << self.counter_bits) as f64 * self.t_clk()
    }

    /// Latest pulse arrival that still converts (s, relative to reset).
    pub fn window_end(&self) -> f64 {
        self.initial_delay + self.conversion_window()
    }

    /// Bus-busy time per event (s) — the paper's example uses 5 ns.
    pub fn event_duration(&self) -> f64 {
        self.event_duration
    }

    /// Token-chain release propagation delay (s).
    pub fn release_delay(&self) -> f64 {
        self.release_delay
    }

    /// Comparator offset σ after auto-zeroing (V).
    pub fn offset_sigma_volts(&self) -> f64 {
        self.offset_sigma_volts
    }

    /// Temporal jitter σ on the flip time (s).
    pub fn jitter_sigma(&self) -> f64 {
        self.jitter_sigma
    }

    /// Photoresponse non-uniformity σ (relative gain).
    pub fn fpn_gain_sigma(&self) -> f64 {
        self.fpn_gain_sigma
    }

    /// Seed for all noise generation.
    pub fn noise_seed(&self) -> u64 {
        self.noise_seed
    }

    /// Intensity → code transfer mode.
    pub fn transfer(&self) -> CodeTransfer {
        self.transfer
    }

    /// `true` when every noise term is disabled.
    pub fn is_noiseless(&self) -> bool {
        self.offset_sigma_volts == 0.0 && self.jitter_sigma == 0.0 && self.fpn_gain_sigma == 0.0
    }
}

/// Non-consuming builder for [`SensorConfig`].
///
/// # Examples
///
/// ```
/// use tepics_sensor::SensorConfig;
///
/// // A 12.8 MHz clock makes 256 ticks span the full 20 µs slot, so the
/// // counter must start immediately at reset.
/// let config = SensorConfig::builder(32, 32)
///     .clk_hz(12.8e6)
///     .initial_delay(0.0)
///     .event_duration(5e-9)
///     .build()
///     .unwrap();
/// assert_eq!(config.code_max(), 255);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SensorConfigBuilder {
    config: SensorConfig,
}

impl SensorConfigBuilder {
    /// Creates a builder pre-loaded with the paper-prototype defaults
    /// scaled to the requested array size.
    pub fn new(rows: usize, cols: usize) -> Self {
        SensorConfigBuilder {
            config: SensorConfig {
                rows,
                cols,
                v_rst: 2.8,
                v_ref: 1.3,
                cap_farads: 15e-15,
                // Chosen so E∈[0,1] spans the 24 MHz / 8-bit window:
                // t(1) ≈ 0.5 µs (code ≈ 9), t(0) ≈ 10.5 µs (code ≈ 249).
                i_dark: 2.14e-9,
                i_scale: 42.9e-9,
                comparator_delay: 20e-9,
                sample_period: 20e-6,
                clk_hz: 24e6,
                counter_bits: 8,
                initial_delay: 100e-9,
                event_duration: 5e-9,
                release_delay: 1e-9,
                offset_sigma_volts: 0.0,
                jitter_sigma: 0.0,
                fpn_gain_sigma: 0.0,
                noise_seed: 0x7EFC5,
                transfer: CodeTransfer::Reciprocal,
            },
        }
    }

    /// Sets `V_rst` (V).
    pub fn v_rst(&mut self, v: f64) -> &mut Self {
        self.config.v_rst = v;
        self
    }

    /// Sets `V_ref` (V).
    pub fn v_ref(&mut self, v: f64) -> &mut Self {
        self.config.v_ref = v;
        self
    }

    /// Sets the integration capacitance (F).
    pub fn cap_farads(&mut self, c: f64) -> &mut Self {
        self.config.cap_farads = c;
        self
    }

    /// Sets the dark/background current (A).
    pub fn i_dark(&mut self, i: f64) -> &mut Self {
        self.config.i_dark = i;
        self
    }

    /// Sets the full-scale photocurrent (A).
    pub fn i_scale(&mut self, i: f64) -> &mut Self {
        self.config.i_scale = i;
        self
    }

    /// Sets the comparator delay (s).
    pub fn comparator_delay(&mut self, d: f64) -> &mut Self {
        self.config.comparator_delay = d;
        self
    }

    /// Sets the compressed-sample period (s).
    pub fn sample_period(&mut self, t: f64) -> &mut Self {
        self.config.sample_period = t;
        self
    }

    /// Sets the TDC clock (Hz).
    pub fn clk_hz(&mut self, f: f64) -> &mut Self {
        self.config.clk_hz = f;
        self
    }

    /// Sets the counter width (bits).
    pub fn counter_bits(&mut self, b: u32) -> &mut Self {
        self.config.counter_bits = b;
        self
    }

    /// Sets the delay before the counter starts (s).
    pub fn initial_delay(&mut self, t: f64) -> &mut Self {
        self.config.initial_delay = t;
        self
    }

    /// Sets the per-event bus-busy duration (s).
    pub fn event_duration(&mut self, t: f64) -> &mut Self {
        self.config.event_duration = t;
        self
    }

    /// Sets the token-chain release delay (s).
    pub fn release_delay(&mut self, t: f64) -> &mut Self {
        self.config.release_delay = t;
        self
    }

    /// Sets the residual comparator offset σ (V).
    pub fn offset_sigma_volts(&mut self, s: f64) -> &mut Self {
        self.config.offset_sigma_volts = s;
        self
    }

    /// Sets the flip-time jitter σ (s).
    pub fn jitter_sigma(&mut self, s: f64) -> &mut Self {
        self.config.jitter_sigma = s;
        self
    }

    /// Sets the photoresponse non-uniformity σ.
    pub fn fpn_gain_sigma(&mut self, s: f64) -> &mut Self {
        self.config.fpn_gain_sigma = s;
        self
    }

    /// Sets the noise seed.
    pub fn noise_seed(&mut self, seed: u64) -> &mut Self {
        self.config.noise_seed = seed;
        self
    }

    /// Sets the intensity → code transfer mode.
    pub fn transfer(&mut self, t: CodeTransfer) -> &mut Self {
        self.config.transfer = t;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any physical constraint is violated
    /// (empty array, non-positive currents or clock, `V_rst ≤ V_ref`,
    /// conversion window longer than the sample period, oversized
    /// counter, negative noise σ).
    pub fn build(&self) -> Result<SensorConfig, ConfigError> {
        let c = &self.config;
        if c.rows == 0 || c.cols == 0 {
            return Err(ConfigError("array dimensions must be positive".into()));
        }
        if c.v_rst <= c.v_ref {
            return Err(ConfigError(format!(
                "V_rst {} must exceed V_ref {}",
                c.v_rst, c.v_ref
            )));
        }
        if c.cap_farads <= 0.0 || c.i_dark <= 0.0 || c.i_scale <= 0.0 {
            return Err(ConfigError(
                "capacitance and currents must be positive".into(),
            ));
        }
        if c.clk_hz <= 0.0 || c.sample_period <= 0.0 {
            return Err(ConfigError(
                "clock and sample period must be positive".into(),
            ));
        }
        if c.counter_bits == 0 || c.counter_bits > 16 {
            return Err(ConfigError(format!(
                "counter width {} outside 1..=16",
                c.counter_bits
            )));
        }
        if c.initial_delay < 0.0 {
            return Err(ConfigError("initial delay must be non-negative".into()));
        }
        if c.window_end() > c.sample_period {
            return Err(ConfigError(format!(
                "conversion window end {:.3e}s exceeds sample period {:.3e}s",
                c.window_end(),
                c.sample_period
            )));
        }
        if c.event_duration <= 0.0 || c.release_delay < 0.0 {
            return Err(ConfigError("event timing must be positive".into()));
        }
        if c.offset_sigma_volts < 0.0 || c.jitter_sigma < 0.0 || c.fpn_gain_sigma < 0.0 {
            return Err(ConfigError("noise sigmas must be non-negative".into()));
        }
        Ok(c.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prototype_matches_table_ii_values() {
        let c = SensorConfig::paper_prototype();
        assert_eq!(c.rows(), 64);
        assert_eq!(c.cols(), 64);
        assert_eq!(c.counter_bits(), 8);
        assert_eq!(c.code_max(), 255);
        assert!((c.clk_hz() - 24e6).abs() < 1.0);
        assert!((c.sample_period() - 20e-6).abs() < 1e-12); // 50 kHz
        assert!((c.event_duration() - 5e-9).abs() < 1e-15);
    }

    #[test]
    fn derived_quantities_are_consistent() {
        let c = SensorConfig::paper_prototype();
        // 256 ticks at 24 MHz ≈ 10.67 µs, inside the 20 µs slot.
        assert!((c.conversion_window() - 256.0 / 24e6).abs() < 1e-12);
        assert!(c.window_end() < c.sample_period());
        assert!((c.integration_charge() - 22.5e-15).abs() < 1e-18);
    }

    #[test]
    fn full_intensity_range_fits_in_window() {
        let c = SensorConfig::paper_prototype();
        let t_bright = c.integration_charge() / (c.i_dark() + c.i_scale());
        let t_dark = c.integration_charge() / c.i_dark();
        assert!(
            t_bright > c.initial_delay(),
            "bright pixels must not hit code 0 region"
        );
        assert!(
            t_dark < c.window_end(),
            "dark pixels must convert before the window ends"
        );
    }

    #[test]
    fn builder_overrides_apply() {
        let c = SensorConfig::builder(8, 16)
            .clk_hz(12.8e6)
            .counter_bits(8)
            .initial_delay(0.0)
            .build()
            .unwrap();
        // 256 ticks at 12.8 MHz = exactly 20 µs.
        assert!((c.conversion_window() - 20e-6).abs() < 1e-12);
        assert_eq!(c.rows(), 8);
        assert_eq!(c.cols(), 16);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SensorConfig::builder(0, 8).build().is_err());
        assert!(SensorConfig::builder(8, 8)
            .v_ref(3.0)
            .v_rst(2.0)
            .build()
            .is_err());
        assert!(SensorConfig::builder(8, 8).clk_hz(-1.0).build().is_err());
        assert!(SensorConfig::builder(8, 8)
            .counter_bits(17)
            .build()
            .is_err());
        // Window longer than the sample slot.
        assert!(SensorConfig::builder(8, 8).clk_hz(1e6).build().is_err());
        assert!(SensorConfig::builder(8, 8)
            .jitter_sigma(-1e-9)
            .build()
            .is_err());
    }

    #[test]
    fn noiseless_detection() {
        assert!(SensorConfig::paper_prototype().is_noiseless());
        let noisy = SensorConfig::builder(8, 8)
            .jitter_sigma(1e-9)
            .build()
            .unwrap();
        assert!(!noisy.is_noiseless());
    }
}
