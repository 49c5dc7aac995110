//! A gauge of the host's speed at the moment, and times scaled by it.
//!
//! The reference host is shared, and its cores switch between speeds
//! about 1.4× apart for seconds at a time, so a wall-clock median moves
//! with the share of a run that fell into the slow spells. The benchmark
//! therefore brackets every timed call with runs of a fixed kernel of
//! its own, which no codec change touches, and scales the call's wall
//! time by the kernel's nominal time over its time around the call.
//! A codec change moves a scaled time as it moves the wall time; a
//! change of host speed moves both the call and the kernel, and cancels.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference host's usual speed, in
/// milliseconds: a scaled time reads as the wall time at that speed.
pub const NOMINAL_MS: f64 = 1.0;

/// Side of the kernel's matrix: 32 KiB of `f64`, cache-resident.
const N: usize = 64;
/// Matrix-vector products per kernel run.
const REPS: usize = 400;

/// Runs the kernel once on each of `threads` threads at once (inline for
/// one) and returns the mean of their times in milliseconds. A call that
/// keeps `threads` cores busy is gauged on as many.
#[must_use]
pub fn gauge(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel_ms();
    }
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(kernel_ms)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the gauge kernel does not panic"))
            .sum()
    });
    total / threads as f64
}

/// `wall` (any unit) scaled to the nominal speed, given the gauge
/// readings taken just before and just after it.
#[must_use]
pub fn scale(wall: f64, before_ms: f64, after_ms: f64) -> f64 {
    wall * NOMINAL_MS * 2.0 / (before_ms + after_ms)
}

fn kernel_ms() -> f64 {
    let start = Instant::now();
    black_box(kernel(black_box(0.5)));
    start.elapsed().as_secs_f64() * 1e3
}

/// Power iteration on a fixed dense matrix: `f64` multiply-adds over
/// cache-resident data, the shape of the codec's own kernels.
fn kernel(shift: f64) -> f64 {
    let mut a = [[0.0f64; N]; N];
    for (i, row) in a.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = (((i * 31 + j * 17) % 97) as f64 / 97.0) - shift;
        }
    }
    let mut x = [1.0f64; N];
    let mut y = [0.0f64; N];
    for _ in 0..REPS {
        for (yi, row) in y.iter_mut().zip(&a) {
            *yi = row.iter().zip(&x).map(|(a, x)| a * x).sum();
        }
        let norm = y
            .iter()
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt()
            .max(f64::MIN_POSITIVE);
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }
    x.iter().sum()
}
