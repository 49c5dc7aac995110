//! Order statistics of latency samples.

/// Samples a tail percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count); 0
/// for no samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean of `values`; 0 for no samples.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `pct` of `values`; 0 for no samples.
#[must_use]
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        0.0
    } else {
        v[rank(v.len(), pct) - 1]
    }
}

/// A tail latency: the highest integer percentile that leaves at least
/// [`MIN_BEYOND`] samples above it, with the sample count behind it. A
/// tail never lies below the median: with fewer than `2 × MIN_BEYOND`
/// samples no tail can be resolved, and the median itself is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: u32,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
    /// Samples above it. Below [`MIN_BEYOND`] only when no percentile
    /// from the median up qualifies; the median is reported then.
    pub beyond: usize,
}

/// The tail of `values` (see [`Tail`]).
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            pct: 50,
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let pct = (50..=99)
        .rev()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(50);
    Tail {
        pct,
        value: if pct == 50 {
            median(values)
        } else {
            percentile(values, pct)
        },
        samples: n,
        beyond: n - rank(n, pct),
    }
}

/// 1-based nearest rank of percentile `pct` among `n > 0` samples.
fn rank(n: usize, pct: u32) -> usize {
    (pct as usize * n).div_ceil(100).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.beyond), (80, 10));
        assert_eq!(t.value, 40.0);
        let few = tail(&[1.0, 2.0, 3.0]);
        assert_eq!((few.pct, few.beyond), (50, 1));
        // 15 samples could leave 10 above p33, but a tail stays at or
        // above the median.
        let short: Vec<f64> = (1..=15).map(f64::from).collect();
        let t = tail(&short);
        assert_eq!((t.pct, t.beyond, t.value), (50, 7, 8.0));
    }
}
