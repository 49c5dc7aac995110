//! Column-bus arbitration: the token protocol of Sect. II.E.
//!
//! All pixels of a column share one bus. The protocol the paper
//! implements with the `C_in`/`C_out` chain and the event-termination
//! unit has three rules, and the arbiter reproduces them exactly:
//!
//! 1. **Parallel blocking** — the moment any pixel pulls the bus down,
//!    every other pixel is blocked (the bus level feeds every token
//!    gate).
//! 2. **Bounded events** — the column control unit raises `Q` after a
//!    controllable delay, terminating the active pulse; the bus is busy
//!    for `event_duration` per pulse.
//! 3. **Sequential top-down release** — when the bus frees, the
//!    `C_out` chain releases waiting pixels from the top; the *topmost*
//!    waiting pixel fires next regardless of who flipped first.
//!
//! [`ColumnArbiter::arbitrate`] applies them in one walk over the
//! pulses sorted by `(flip time, row)`, so simultaneous flips resolve
//! top-down as the token chain does. Each grant is either the topmost
//! waiting pixel, at `bus_free + release_delay` (rule 3), or, when
//! nobody waits, the next flip at its own flip time. The grant holds
//! the bus for `event_duration` (rule 2), and every flip earlier than
//! the new `bus_free` joins the waiting set (rule 1).

use crate::config::SensorConfig;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The lifecycle of one pixel pulse through the column bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelEvent {
    /// Row index of the emitting pixel (0 = top).
    pub row: usize,
    /// Comparator flip time (s since reset) — the *ideal* value.
    pub t_flip: f64,
    /// Time the bus was actually granted (s) — what the TDC samples.
    pub t_grant: f64,
    /// `true` if the pixel had to wait for the bus.
    pub queued: bool,
}

impl PixelEvent {
    /// Serialization delay suffered by this pulse (s).
    pub fn delay(&self) -> f64 {
        self.t_grant - self.t_flip
    }
}

/// Outcome of arbitrating one column for one compressed sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnOutcome {
    /// All granted pulses, in grant order.
    pub events: Vec<PixelEvent>,
    /// Largest number of simultaneously waiting pixels observed.
    pub max_queue_depth: usize,
}

impl ColumnOutcome {
    /// Number of pulses that were delayed by arbitration.
    pub fn queued_count(&self) -> usize {
        self.events.iter().filter(|e| e.queued).count()
    }

    /// Largest serialization delay (s), 0 when nothing queued.
    pub fn max_delay(&self) -> f64 {
        self.events
            .iter()
            .map(PixelEvent::delay)
            .fold(0.0, f64::max)
    }
}

/// Arbiter for one column bus.
#[derive(Debug, Clone)]
pub struct ColumnArbiter {
    event_duration: f64,
    release_delay: f64,
}

impl ColumnArbiter {
    /// Creates an arbiter with the configuration's event timing.
    pub fn new(config: &SensorConfig) -> Self {
        ColumnArbiter {
            event_duration: config.event_duration(),
            release_delay: config.release_delay(),
        }
    }

    /// Creates an arbiter with explicit timing (used by the overlap
    /// Monte-Carlo experiment).
    ///
    /// # Panics
    ///
    /// Panics if `event_duration <= 0` or `release_delay < 0`.
    pub fn with_timing(event_duration: f64, release_delay: f64) -> Self {
        assert!(event_duration > 0.0, "event duration must be positive");
        assert!(release_delay >= 0.0, "release delay must be non-negative");
        ColumnArbiter {
            event_duration,
            release_delay,
        }
    }

    /// Arbitrates a set of `(row, t_flip)` pulses. Rows must be unique
    /// (one pulse per pixel per sample — the activation latch guarantees
    /// this in hardware).
    ///
    /// Returns the granted events in grant order.
    ///
    /// # Panics
    ///
    /// Panics if two pulses share a row or any flip time is negative/NaN.
    pub fn arbitrate(&self, pulses: &[(usize, f64)]) -> ColumnOutcome {
        for &(_, t) in pulses {
            // NaN fails the comparison too.
            assert!(t >= 0.0, "flip time must be a non-negative number");
        }
        let mut flips = pulses.to_vec();
        flips.sort_unstable_by_key(|&(row, _)| row);
        for pair in flips.windows(2) {
            assert!(
                pair[0].0 != pair[1].0,
                "duplicate pulse for row {}",
                pair[0].0
            );
        }
        flips.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut events = Vec::with_capacity(flips.len());
        // Waiting pixels as `(row, index into flips)`, topmost first.
        let mut waiting = BinaryHeap::new();
        let mut next = 0;
        let mut bus_free = 0.0f64;
        let mut max_queue_depth = 0usize;
        while next < flips.len() || !waiting.is_empty() {
            let (i, queued, t_grant) = match waiting.pop() {
                Some(Reverse((_, i))) => (i, true, bus_free + self.release_delay),
                None => {
                    next += 1;
                    (next - 1, false, flips[next - 1].1)
                }
            };
            let (row, t_flip) = flips[i];
            events.push(PixelEvent {
                row,
                t_flip,
                t_grant,
                queued,
            });
            bus_free = t_grant + self.event_duration;
            while next < flips.len() && flips[next].1 < bus_free {
                waiting.push(Reverse((flips[next].0, next)));
                next += 1;
            }
            max_queue_depth = max_queue_depth.max(waiting.len());
        }
        ColumnOutcome {
            events,
            max_queue_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arbiter() -> ColumnArbiter {
        ColumnArbiter::with_timing(5e-9, 1e-9)
    }

    #[test]
    fn lone_pulse_is_granted_at_flip_time() {
        let out = arbiter().arbitrate(&[(3, 1e-6)]);
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].t_grant, 1e-6);
        assert!(!out.events[0].queued);
        assert_eq!(out.max_queue_depth, 0);
    }

    #[test]
    fn well_separated_pulses_never_queue() {
        let pulses: Vec<(usize, f64)> = (0..10).map(|r| (r, r as f64 * 1e-6)).collect();
        let out = arbiter().arbitrate(&pulses);
        assert_eq!(out.queued_count(), 0);
        for (e, p) in out.events.iter().zip(&pulses) {
            assert_eq!(e.t_grant, p.1);
        }
    }

    #[test]
    fn overlapping_pulse_waits_for_bus() {
        // Second pixel flips 2 ns into the first pixel's 5 ns pulse.
        let out = arbiter().arbitrate(&[(0, 100e-9), (1, 102e-9)]);
        assert_eq!(out.events.len(), 2);
        let second = &out.events[1];
        assert!(second.queued);
        // Granted at 100ns + 5ns + 1ns release.
        assert!((second.t_grant - 106e-9).abs() < 1e-15);
        assert_eq!(out.max_queue_depth, 1);
    }

    #[test]
    fn release_is_top_down_not_fifo() {
        // Row 5 flips first and takes the bus; rows 2 and 4 flip during
        // the pulse (2 after 4 in time). Release order must be 2 then 4
        // (topmost first), not 4 then 2 (arrival order).
        let out = arbiter().arbitrate(&[(5, 100e-9), (4, 101e-9), (2, 103e-9)]);
        let order: Vec<usize> = out.events.iter().map(|e| e.row).collect();
        assert_eq!(order, vec![5, 2, 4]);
        assert_eq!(out.max_queue_depth, 2);
    }

    #[test]
    fn simultaneous_flips_resolve_top_down() {
        let out = arbiter().arbitrate(&[(7, 50e-9), (1, 50e-9), (3, 50e-9)]);
        let order: Vec<usize> = out.events.iter().map(|e| e.row).collect();
        assert_eq!(order, vec![1, 3, 7]);
        // Only the first is unqueued.
        assert!(!out.events[0].queued);
        assert!(out.events[1].queued && out.events[2].queued);
    }

    #[test]
    fn no_two_events_overlap_ever() {
        // Dense random-ish pulses; verify the serialization invariant.
        let mut pulses = Vec::new();
        let mut rng = tepics_util::SplitMix64::new(77);
        for row in 0..64 {
            pulses.push((row, rng.next_f64() * 300e-9));
        }
        let arb = arbiter();
        let out = arb.arbitrate(&pulses);
        assert_eq!(out.events.len(), 64, "no pulse may be dropped");
        let mut sorted = out.events.clone();
        sorted.sort_by(|a, b| a.t_grant.partial_cmp(&b.t_grant).unwrap());
        for pair in sorted.windows(2) {
            assert!(
                pair[1].t_grant >= pair[0].t_grant + 5e-9 - 1e-18,
                "events overlap: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn grant_never_precedes_flip() {
        let mut rng = tepics_util::SplitMix64::new(123);
        let pulses: Vec<(usize, f64)> = (0..32).map(|r| (r, rng.next_f64() * 1e-6)).collect();
        let out = arbiter().arbitrate(&pulses);
        for e in &out.events {
            assert!(e.t_grant >= e.t_flip - 1e-18, "{e:?}");
            assert!(e.delay() >= 0.0);
        }
    }

    #[test]
    fn empty_column_yields_no_events() {
        let out = arbiter().arbitrate(&[]);
        assert!(out.events.is_empty());
        assert_eq!(out.max_queue_depth, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate pulse")]
    fn duplicate_rows_panic() {
        arbiter().arbitrate(&[(1, 1e-9), (1, 2e-9)]);
    }

    #[test]
    #[should_panic(expected = "non-negative number")]
    fn nan_flip_time_panics() {
        arbiter().arbitrate(&[(0, 1e-9), (1, f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "non-negative number")]
    fn negative_flip_time_panics() {
        arbiter().arbitrate(&[(0, -1e-9)]);
    }
}
