//! Sample collection and summary statistics.

/// A growing collection of numeric samples with summary statistics.
///
/// It keeps every sample and sorts them for percentiles. A run's own
/// measurement records into exact [`ocin_core::QuantileHistogram`]s
/// instead, which report the same values in any feed order; this type
/// is the sort-based reference they are held against, and a tool for
/// ad-hoc statistics.
///
/// ```
/// use ocin_sim::Samples;
/// let mut s = Samples::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.percentile(50.0), 2.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty collection.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation (0 when fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>()
            / (self.values.len() - 1) as f64;
        var.sqrt()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (nearest-rank; 0 when empty).
    ///
    /// Sorts the samples in place on first use; repeated percentile
    /// queries between pushes reuse the sorted order (`sorted` flag).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let rank =
            ((p / 100.0 * self.values.len() as f64).ceil() as usize).clamp(1, self.values.len());
        self.values[rank - 1]
    }

    /// Minimum (0 when empty).
    pub fn min(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .pipe_zero()
    }

    /// Maximum (0 when empty).
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_zero()
    }

    /// Max − min: the spread, used as a jitter measure.
    pub fn spread(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.max() - self.min()
        }
    }

    /// Summarizes into a [`LatencyReport`].
    pub fn report(&mut self) -> LatencyReport {
        LatencyReport {
            count: self.len(),
            mean: self.mean(),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            min: self.min(),
            max: self.max(),
        }
    }
}

trait PipeZero {
    fn pipe_zero(self) -> f64;
}

impl PipeZero for f64 {
    /// Maps the fold identities (±∞) of empty collections to 0.
    fn pipe_zero(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        let mut s = Samples::new();
        s.extend(iter);
        s
    }
}

/// Summary of a latency distribution, in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyReport {
    /// Samples observed.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencyReport {
    /// Summarizes a latency histogram.
    ///
    /// The count, mean, min and max are exact. Percentiles carry the
    /// log-linear resolution of [`ocin_core::QuantileHistogram`]: exact
    /// whenever [`ocin_core::QuantileHistogram::is_exact`] holds (all
    /// samples below `2^(precision+1)`), and within a relative error of
    /// `2^-precision` otherwise. An exact histogram reports what
    /// [`Samples::report`] reports for the same samples.
    pub fn from_quantiles(h: &ocin_core::QuantileHistogram) -> LatencyReport {
        if h.count == 0 {
            return LatencyReport::default();
        }
        LatencyReport {
            count: h.count as usize,
            mean: h.mean(),
            p50: h.percentile(50.0) as f64,
            p95: h.percentile(95.0) as f64,
            p99: h.percentile(99.0) as f64,
            p999: h.percentile(99.9) as f64,
            min: h.min as f64,
            max: h.max as f64,
        }
    }
}

impl std::fmt::Display for LatencyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:.1} p50 {:.0} p95 {:.0} p99 {:.0} p99.9 {:.0} max {:.0} (n={})",
            self.mean, self.p50, self.p95, self.p99, self.p999, self.max, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_safe() {
        let mut s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(99.0), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.spread(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn summary_statistics() {
        let mut s: Samples = (1..=100).map(|v| v as f64).collect();
        assert_eq!(s.len(), 100);
        assert!((s.mean() - 50.5).abs() < 1e-12);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(95.0), 95.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.spread(), 99.0);
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        let s: Samples = std::iter::repeat_n(5.0, 10).collect();
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn report_matches_fields() {
        let mut s: Samples = [2.0, 4.0, 6.0].into_iter().collect();
        let r = s.report();
        assert_eq!(r.count, 3);
        assert_eq!(r.mean, 4.0);
        assert_eq!(r.p50, 4.0);
        assert_eq!(r.min, 2.0);
        assert_eq!(r.max, 6.0);
        assert!(r.to_string().contains("mean 4.0"));
    }

    #[test]
    fn from_quantiles_matches_exact_samples() {
        let mut h = ocin_core::QuantileHistogram::new(16);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!(h.is_exact());
        let r = LatencyReport::from_quantiles(&h);
        assert_eq!(r.count, 1000);
        assert_eq!(r.p50, 500.0);
        assert_eq!(r.p99, 990.0);
        // ceil(0.999 * 1000) lands on rank 1000 in floating point, so
        // nearest-rank p99.9 of 1..=1000 is the maximum sample.
        assert_eq!(r.p999, 1000.0);
        assert_eq!(r.min, 1.0);
        assert_eq!(r.max, 1000.0);
        assert!(r.to_string().contains("p99.9 1000"));

        let empty = LatencyReport::from_quantiles(&ocin_core::QuantileHistogram::new(16));
        assert_eq!(empty, LatencyReport::default());
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn bad_percentile_panics() {
        Samples::new().percentile(101.0);
    }

    #[test]
    fn percentile_sorts_unsorted_input() {
        let mut s: Samples = [9.0, 1.0, 5.0, 3.0, 7.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(100.0), 9.0);
        // A push after sorting must invalidate the cached order.
        s.push(0.5);
        assert_eq!(s.percentile(0.0), 0.5);
        assert_eq!(s.min(), 0.5);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn percentile_handles_duplicates_and_singletons() {
        let mut dup: Samples = [4.0, 4.0, 4.0, 2.0, 4.0].into_iter().collect();
        assert_eq!(dup.percentile(50.0), 4.0);
        assert_eq!(dup.percentile(10.0), 2.0);

        let mut one: Samples = [3.5].into_iter().collect();
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(one.percentile(p), 3.5);
        }
    }
}
