//! [`Summary`]: an exact-percentile distribution summary for bounded
//! experiment outputs. Counters, gauges and fixed-bucket histograms for
//! everything on a hot path live in `vc_obs::metrics`.

use std::fmt;

/// An online distribution summary over `f64` samples.
///
/// Keeps every sample, so percentiles are exact — **and memory grows
/// without bound**: one `f64` per [`Summary::record`] call, forever. That
/// is the right trade for bounded experiment outputs (thousands of
/// samples), and the wrong one for per-message telemetry on hot paths; for
/// high-volume streams use `vc_obs::Histogram`, which stores 64 fixed
/// buckets regardless of sample count at the price of approximate
/// percentiles. When the expected volume is known, [`Summary::with_capacity`]
/// pre-allocates and [`Summary::len`] lets callers watch growth.
///
/// ```
/// use vc_sim::metrics::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.record(x); }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Creates an empty summary with room for `cap` samples before the
    /// first reallocation. Use when the sample volume is known up front;
    /// this does not cap growth — see the type docs for the memory trade.
    pub fn with_capacity(cap: usize) -> Self {
        Summary { samples: Vec::with_capacity(cap), sorted: false }
    }

    /// Number of samples held in memory (same as [`Summary::count`];
    /// provided so call sites auditing memory growth read naturally).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Records one sample. Non-finite samples are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or infinite.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "summary sample must be finite, got {x}");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Population standard deviation, or 0 when fewer than 2 samples.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / self.samples.len() as f64)
            .sqrt()
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Exact percentile by nearest-rank (`q` in `[0, 1]`), or 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "percentile must be in [0,1], got {q}");
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        self.samples[rank.min(self.samples.len() - 1)]
    }

    /// Median (p50).
    pub fn p50(&mut self) -> f64 {
        self.percentile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&mut self) -> f64 {
        self.percentile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.percentile(0.99)
    }

    /// Sum of all samples.
    pub fn total(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Merges another summary's samples into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = self.clone();
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p95={:.3} max={:.3}",
            s.count(),
            s.mean(),
            s.p50(),
            s.p95(),
            s.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.total(), 40.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Summary::new();
        for x in 1..=100 {
            s.record(x as f64);
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p95(), 95.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 100.0);
    }

    #[test]
    fn with_capacity_preallocates_without_capping() {
        let mut s = Summary::with_capacity(4);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        for x in 0..10 {
            s.record(x as f64);
        }
        // Capacity is a hint, not a cap: all samples are retained.
        assert_eq!(s.len(), 10);
        assert_eq!(s.count(), s.len());
    }

    #[test]
    fn empty_summary_is_calm() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p95(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic]
    fn nan_sample_rejected() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn summary_merge_combines_samples() {
        let mut a = Summary::new();
        a.record(1.0);
        let mut b = Summary::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn display_formats() {
        let mut s = Summary::new();
        s.record(1.0);
        assert!(s.to_string().contains("n=1"));
    }
}
