//! Latency samples and the percentiles the benchmark reports.

use std::time::Duration;

/// Percentiles tried for a tail, highest first.
const TAILS: [u32; 4] = [99, 95, 90, 75];

/// A tail percentile is reported only with this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// Latency samples of one request kind, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// Record one latency.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    /// Add another set's samples.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Every sample multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Samples {
        Samples(self.0.iter().map(|&ns| (ns as f64 * factor).round() as u64).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `pct` in microseconds (0 when empty).
    pub fn pct_us(&self, pct: u32) -> f64 {
        let mut v = self.0.clone();
        v.sort_unstable();
        rank_index(v.len(), pct).map_or(0.0, |i| v[i] as f64 / 1e3)
    }

    /// Median in microseconds.
    pub fn median_us(&self) -> f64 {
        self.pct_us(50)
    }

    /// The highest of p99/p95/p90/p75 with at least ten samples beyond
    /// it, in microseconds, and which percentile that is (the median
    /// when even p75 is unsupported).
    pub fn tail_us(&self) -> (f64, u32) {
        let n = self.0.len();
        let pct = TAILS
            .into_iter()
            .find(|&p| rank_index(n, p).is_some_and(|i| n - 1 - i >= MIN_BEYOND))
            .unwrap_or(50);
        (self.pct_us(pct), pct)
    }
}

/// Index of the nearest-rank `pct` percentile among `n` sorted samples.
fn rank_index(n: usize, pct: u32) -> Option<usize> {
    (n > 0).then(|| ((n * pct as usize).div_ceil(100)).clamp(1, n) - 1)
}

/// Median of plain values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    rank_index(v.len(), 50).map_or(0.0, |i| v[i])
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: u64) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(Duration::from_micros(i));
        }
        s
    }

    #[test]
    fn nearest_rank() {
        let s = samples(100);
        assert_eq!(s.median_us(), 50.0);
        assert_eq!(s.pct_us(99), 99.0);
        assert_eq!(s.pct_us(100), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples(2000).tail_us(), (1980.0, 99));
        // p99 of 1000 has 10 beyond it; of 999 only 9, so p95.
        assert_eq!(samples(1000).tail_us().1, 99);
        assert_eq!(samples(999).tail_us().1, 95);
        assert_eq!(samples(20).tail_us().1, 50);
        assert_eq!(Samples::default().tail_us(), (0.0, 50));
    }
}
