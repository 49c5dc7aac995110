//! Event-accurate behavioral simulator of the DATE 2018 compressive
//! image sensor.
//!
//! No silicon ships with this repository; what the paper validated with
//! post-layout simulation, TEPICS validates with a behavioral model that
//! reproduces every named circuit of the chip:
//!
//! * [`SensorConfig`] — electrical, timing and noise parameters with the
//!   paper's Table II values as defaults.
//! * [`photodiode`] / [`comparator`] — light → time encoding
//!   (`t = C·ΔV / I_ph`), auto-zeroed comparator offset, jitter.
//! * [`pixel`] — the Fig. 1 digital logic (XOR select, activation latch,
//!   event termination, `C_in`/`C_out` token gates) as pure functions.
//! * [`column`](mod@crate::column) — the asynchronous column bus: parallel blocking,
//!   sequential top-down release, bounded event duration.
//! * [`tdc`] — global counter + per-column Sample & Add with the 14-bit
//!   and 20-bit widths of Eq. (1) enforced.
//! * [`readout`] — whole-frame capture in `Functional` (ideal codes) or
//!   `EventAccurate` (arbitration, serialization delays, missed pulses)
//!   fidelity.
//! * [`chip`] — the geometry/area/power accounting model behind
//!   Figs. 2/4/5 and Table II.
//!
//! # Examples
//!
//! ```
//! use tepics_sensor::{Fidelity, FrameReadout, SensorConfig};
//! use tepics_imaging::Scene;
//! use tepics_ca::{CaSource, ElementaryRule};
//!
//! let config = SensorConfig::builder(16, 16).build().unwrap();
//! let scene = Scene::gaussian_blobs(2).render(16, 16, 1);
//! let mut source = CaSource::new(32, 7, ElementaryRule::RULE_30, 64, 1);
//! let readout = FrameReadout::new(config, Fidelity::EventAccurate);
//! let frame = readout.capture(&scene, &mut source, 40);
//! assert_eq!(frame.samples.len(), 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chip;
pub mod column;
pub mod comparator;
pub mod config;
pub mod noise;
pub mod photodiode;
pub mod pixel;
pub mod readout;
pub mod tdc;
pub mod vcd;

pub use chip::ChipModel;
pub use column::{ColumnArbiter, PixelEvent};
pub use config::{CodeTransfer, SensorConfig, SensorConfigBuilder};
pub use readout::{CapturedFrame, EventStats, Fidelity, FrameReadout};
