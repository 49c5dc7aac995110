//! Integration: event-level behavior of the asynchronous readout.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use tepics::ca::{CaSource, ElementaryRule};
use tepics::imaging::Scene;
use tepics::sensor::column::ColumnOutcome;
use tepics::sensor::{ColumnArbiter, Fidelity, FrameReadout, PixelEvent, SensorConfig};
use tepics::util::SplitMix64;

fn ca_source(config: &SensorConfig, seed: u64) -> CaSource {
    CaSource::new(
        config.rows() + config.cols(),
        seed,
        ElementaryRule::RULE_30,
        128,
        1,
    )
}

/// When events are too short to ever collide, the event-accurate
/// simulation must equal the functional model exactly — the strongest
/// cross-validation between the two readout paths.
#[test]
fn event_accurate_equals_functional_without_contention() {
    let config = SensorConfig::builder(24, 24)
        .event_duration(1e-13)
        .release_delay(0.0)
        .build()
        .unwrap();
    for scene_seed in [1u64, 2, 3] {
        let scene = Scene::natural_like().render(24, 24, scene_seed);
        let functional = FrameReadout::new(config.clone(), Fidelity::Functional).capture(
            &scene,
            &mut ca_source(&config, 9),
            60,
        );
        let event = FrameReadout::new(config.clone(), Fidelity::EventAccurate).capture(
            &scene,
            &mut ca_source(&config, 9),
            60,
        );
        assert_eq!(functional.samples, event.samples, "seed {scene_seed}");
        assert_eq!(event.stats.missed_pulses, 0);
        assert_eq!(event.stats.error_fraction(), 0.0);
    }
}

/// Longer events mean more queueing and more LSB errors — the
/// serialization error must grow monotonically with event duration.
#[test]
fn code_errors_grow_with_event_duration() {
    let scene = Scene::Uniform(0.45).render(24, 24, 0); // max contention
    let mut last_err = -1.0;
    for duration in [1e-9, 20e-9, 80e-9] {
        let config = SensorConfig::builder(24, 24)
            .event_duration(duration)
            .build()
            .unwrap();
        let frame = FrameReadout::new(config.clone(), Fidelity::EventAccurate).capture(
            &scene,
            &mut ca_source(&config, 3),
            40,
        );
        let err = frame.stats.mean_error_lsb();
        assert!(
            err >= last_err,
            "mean LSB error fell from {last_err} to {err} at duration {duration}"
        );
        last_err = err;
    }
    assert!(
        last_err > 0.0,
        "80 ns events on a flat scene must show errors"
    );
}

/// The paper's design guarantee: the token protocol never loses a pulse
/// to contention — every selected, in-window pixel is counted exactly
/// once per sample.
#[test]
fn no_pulse_is_ever_dropped_by_arbitration() {
    let config = SensorConfig::builder(16, 16)
        .event_duration(100e-9) // brutal contention on purpose
        .build()
        .unwrap();
    let scene = Scene::Uniform(0.6).render(16, 16, 0);
    let functional = FrameReadout::new(config.clone(), Fidelity::Functional).capture(
        &scene,
        &mut ca_source(&config, 5),
        30,
    );
    let event = FrameReadout::new(config.clone(), Fidelity::EventAccurate).capture(
        &scene,
        &mut ca_source(&config, 5),
        30,
    );
    // Same number of pulses observed...
    assert_eq!(functional.stats.total_pulses, event.stats.total_pulses);
    // ...and any sample difference is from delays, not lost pulses: with
    // a bright flat scene nothing leaves the window even delayed, so
    // per-sample pulse accounting must match. Verify via missed counts.
    assert_eq!(event.stats.missed_pulses, 0);
    // Sample values may only *grow* under delay (counter is monotone).
    for (f, e) in functional.samples.iter().zip(&event.samples) {
        assert!(e >= f, "event sample {e} below functional {f}");
    }
}

/// Overflow detection: a deliberately undersized accumulator
/// configuration must be caught by the sticky flags, not silently wrap.
#[test]
fn undersized_widths_are_reported_not_wrapped() {
    // 4-bit counter on a 16-row column: column width = 4 + 4 = 8 bits,
    // worst case sum = 16 × 15 = 240 < 255 — fits. To force overflow we
    // need the sample accumulator: build a custom SampleAdd through the
    // tdc API instead.
    use tepics::sensor::tdc::{Conversion, SampleAdd};
    let tiny = SensorConfig::builder(4, 2).counter_bits(2).build().unwrap();
    let mut sa = SampleAdd::for_config(&tiny);
    for _ in 0..6 {
        sa.add(0, Conversion::Code(3)); // 18 > 4-bit column max 15
    }
    let word = sa.finish();
    assert!(word.column_overflow, "overflow must latch");
    // After reset the flag clears.
    sa.add(0, Conversion::Code(1));
    let word = sa.finish();
    assert!(!word.column_overflow);
}

/// Determinism across the whole stack: identical inputs give identical
/// frames, including under noise.
#[test]
fn noisy_event_capture_is_bit_reproducible() {
    let config = SensorConfig::builder(16, 16)
        .jitter_sigma(10e-9)
        .offset_sigma_volts(3e-3)
        .fpn_gain_sigma(0.01)
        .noise_seed(1234)
        .build()
        .unwrap();
    let scene = Scene::gaussian_blobs(2).render(16, 16, 6);
    let capture = |seed| {
        FrameReadout::new(config.clone(), Fidelity::EventAccurate).capture(
            &scene,
            &mut ca_source(&config, seed),
            25,
        )
    };
    assert_eq!(capture(8), capture(8));
    assert_ne!(capture(8).samples, capture(9).samples);
}

/// The column arbiter as a discrete-event simulation on std
/// collections: flips pop from a min-heap in `(time, row)` order, a
/// flip landing while the bus is busy joins a row-keyed waiting map,
/// and at each release the topmost waiter takes the bus.
fn event_queue_oracle(duration: f64, release: f64, pulses: &[(usize, f64)]) -> ColumnOutcome {
    // Flip times are non-negative, so their bits order like the times.
    let mut flips: BinaryHeap<Reverse<(u64, usize)>> = pulses
        .iter()
        .map(|&(row, t)| Reverse((t.to_bits(), row)))
        .collect();
    let mut waiting: BTreeMap<usize, f64> = BTreeMap::new();
    let mut events = Vec::new();
    let mut max_queue_depth = 0;
    let mut bus_free_at = 0.0f64;
    let mut bus_ever_used = false;
    while !flips.is_empty() || !waiting.is_empty() {
        let (row, t_flip, queued, t_grant);
        if let Some((w_row, w_flip)) = waiting.pop_first() {
            row = w_row;
            t_flip = w_flip;
            queued = true;
            t_grant = bus_free_at + release;
        } else {
            let Reverse((bits, f_row)) = flips.pop().unwrap();
            row = f_row;
            t_flip = f64::from_bits(bits);
            queued = bus_ever_used && t_flip < bus_free_at;
            t_grant = if queued {
                bus_free_at + release
            } else {
                t_flip
            };
        }
        events.push(PixelEvent {
            row,
            t_flip,
            t_grant,
            queued,
        });
        bus_free_at = t_grant + duration;
        bus_ever_used = true;
        // Parallel blocking: every flip during this pulse waits.
        while let Some(&Reverse((bits, f_row))) = flips.peek() {
            if f64::from_bits(bits) >= bus_free_at {
                break;
            }
            flips.pop();
            waiting.insert(f_row, f64::from_bits(bits));
        }
        max_queue_depth = max_queue_depth.max(waiting.len());
    }
    ColumnOutcome {
        events,
        max_queue_depth,
    }
}

/// The arbiter equals the event-queue oracle field for field, times by
/// their bits, on seeded columns: random row subsets in shuffled order,
/// flip times on a 1 ns grid (so flips tie) over spans from a tenth of
/// an event to a thousand events, and varied event and release timing.
#[test]
fn arbiter_matches_the_event_queue_oracle() {
    let mut rng = SplitMix64::new(0xA7B1);
    let (mut contended, mut tied) = (0, 0);
    for case in 0..12_000 {
        let height = 1 + rng.next_below(96) as usize;
        let keep = 0.1 + 0.9 * rng.next_f64();
        let mut pulses: Vec<(usize, f64)> = Vec::new();
        for row in 0..height {
            if rng.next_f64() < keep {
                pulses.push((row, 0.0));
            }
        }
        for i in (1..pulses.len()).rev() {
            pulses.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let duration_ns = [0.5, 1.0, 5.0, 20.0, 80.0][rng.next_below(5) as usize];
        let release_ns = [0.0, 0.5, 1.0, 3.0][rng.next_below(4) as usize];
        let span_ns = (duration_ns * 10f64.powf(4.0 * rng.next_f64() - 1.0)).ceil() as u64;
        for pulse in &mut pulses {
            pulse.1 = rng.next_below(span_ns) as f64 * 1e-9;
        }
        let (duration, release) = (duration_ns * 1e-9, release_ns * 1e-9);
        let got = ColumnArbiter::with_timing(duration, release).arbitrate(&pulses);
        let want = event_queue_oracle(duration, release, &pulses);
        let bits = |o: &ColumnOutcome| -> Vec<(usize, u64, u64, bool)> {
            o.events
                .iter()
                .map(|e| (e.row, e.t_flip.to_bits(), e.t_grant.to_bits(), e.queued))
                .collect()
        };
        assert_eq!(
            (bits(&got), got.max_queue_depth),
            (bits(&want), want.max_queue_depth),
            "case {case}: {duration_ns} ns events, {release_ns} ns release, pulses {pulses:?}"
        );
        contended += usize::from(want.max_queue_depth > 0);
        let mut times: Vec<u64> = pulses.iter().map(|p| p.1.to_bits()).collect();
        times.sort_unstable();
        tied += usize::from(times.windows(2).any(|w| w[0] == w[1]));
    }
    assert!(
        contended > 6_000 && tied > 6_000,
        "{contended} contended, {tied} tied"
    );
}
