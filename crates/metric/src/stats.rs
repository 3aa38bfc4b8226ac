//! Distance-distribution statistics (paper Figs 5(a)–5(e)).

/// Summary of a sample of pairwise distances.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceDistribution {
    values: Vec<f64>,
}

impl DistanceDistribution {
    /// Builds a distribution from raw samples (sorted internally).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean (`0` for an empty sample).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64)
            .sqrt()
    }

    /// Largest sample (the metric-space "diameter" estimate).
    pub fn max(&self) -> f64 {
        self.values.last().copied().unwrap_or(0.0)
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.values.first().copied().unwrap_or(0.0)
    }

    /// Empirical CDF at `x`: fraction of samples ≤ `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let idx = self.values.partition_point(|&v| v <= x);
        idx as f64 / self.values.len() as f64
    }

    /// `q`-quantile for `q ∈ [0, 1]` (nearest-rank).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.values.len() as f64 - 1.0) * q).round() as usize;
        self.values[idx]
    }

    /// Histogram with `bins` equal-width buckets over `[min, max]`.
    ///
    /// Returns `(bucket_upper_edge, count)` pairs.
    pub fn histogram(&self, bins: usize) -> Vec<(f64, usize)> {
        assert!(bins > 0);
        if self.values.is_empty() {
            return vec![];
        }
        let lo = self.min();
        let hi = self.max();
        let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
        let mut counts = vec![0usize; bins];
        for &v in &self.values {
            let b = (((v - lo) / width) as usize).min(bins - 1);
            counts[b] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (lo + width * (i as f64 + 1.0), c))
            .collect()
    }

    /// Empirical CDF evaluated on an even grid of `points` x-values,
    /// the series plotted in Fig 5(a)–(b).
    pub fn cdf_series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.values.is_empty() || points == 0 {
            return vec![];
        }
        let lo = self.min();
        let hi = self.max();
        (0..=points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / points as f64;
                (x, self.cdf(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> DistanceDistribution {
        DistanceDistribution::new(vec![4.0, 1.0, 3.0, 2.0, 5.0])
    }

    #[test]
    fn mean_and_std() {
        let d = dist();
        assert!((d.mean() - 3.0).abs() < 1e-12);
        assert!((d.std_dev() - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 5.0);
    }

    #[test]
    fn cdf_steps() {
        let d = dist();
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(1.0), 0.2);
        assert_eq!(d.cdf(3.5), 0.6);
        assert_eq!(d.cdf(5.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let d = dist();
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(0.5), 3.0);
        assert_eq!(d.quantile(1.0), 5.0);
        assert_eq!(d.quantile(2.0), 5.0); // clamped
    }

    #[test]
    fn histogram_covers_everything() {
        let d = dist();
        let h = d.histogram(4);
        assert_eq!(h.len(), 4);
        assert_eq!(h.iter().map(|(_, c)| c).sum::<usize>(), 5);
    }

    #[test]
    fn empty_distribution_is_safe() {
        let d = DistanceDistribution::new(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.std_dev(), 0.0);
        assert_eq!(d.cdf(1.0), 0.0);
        assert!(d.histogram(3).is_empty());
        assert!(d.cdf_series(5).is_empty());
    }

    #[test]
    fn cdf_series_monotone() {
        let d = dist();
        let s = d.cdf_series(10);
        assert_eq!(s.len(), 11);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(s.last().unwrap().1, 1.0);
    }
}
