//! Online summary statistics.
//!
//! Table 4 of the paper reports mean, maximum, and standard deviation of
//! read/write response times; Table 3 reports the same moments for trace
//! interarrival times. [`OnlineStats`] computes all of these in one streaming
//! pass using Welford's numerically stable algorithm.

use core::fmt;

/// Streaming mean / max / min / standard deviation.
///
/// # Examples
///
/// ```
/// use mobistore_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.max(), 9.0);
/// assert!((s.population_std() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    #[inline]
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// combination).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Returns the number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Returns the sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Returns the largest observation, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Returns the smallest observation, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Returns the population standard deviation (σ, dividing by *n*), or 0
    /// if fewer than two observations were recorded.
    pub fn population_std(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Returns the sample standard deviation (dividing by *n − 1*), or 0 if
    /// fewer than two observations were recorded.
    pub fn sample_std(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Returns a frozen [`Summary`] of the current state.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            max: self.max(),
            min: self.min(),
            std: self.population_std(),
            sum: self.sum,
        }
    }
}

/// A frozen snapshot of [`OnlineStats`], convenient for result tables.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest observation.
    pub max: f64,
    /// Smallest observation.
    pub min: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Sum of observations.
    pub sum: f64,
}

impl Summary {
    /// Merges another frozen summary into this one, as if the two sample
    /// streams had been concatenated: counts and sums add, min/max
    /// combine, the mean comes from the combined sum, and σ from the
    /// Chan et al. parallel combination of the reconstructed second
    /// moments. Every operation is written symmetrically (IEEE addition
    /// and multiplication commute), so `a.merge(b)` and `b.merge(a)`
    /// produce bit-identical results; merging an empty summary is an
    /// identity.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let total = n1 + n2;
        let delta = self.mean - other.mean;
        let m2 = (self.std * self.std * n1 + other.std * other.std * n2)
            + delta * delta * (n1 * n2 / total);
        self.count += other.count;
        self.sum += other.sum;
        self.mean = self.sum / total;
        self.std = (m2 / total).sqrt();
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.2}, max {:.1}, sigma {:.1} (n={})",
            self.mean, self.max, self.std, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.population_std(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.record(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.max(), 3.5);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.population_std(), 0.0);
        assert_eq!(s.sum(), 3.5);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.population_std() - var.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i % 17) as f64 * 0.25).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..200] {
            left.record(x);
        }
        for &x in &xs[200..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.population_std() - whole.population_std()).abs() < 1e-9);
        assert_eq!(left.max(), whole.max());
        assert_eq!(left.min(), whole.min());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(1.0);
        a.record(2.0);
        let before = a.summary();
        a.merge(&OnlineStats::new());
        assert_eq!(a.summary(), before);

        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.summary(), before);
    }

    #[test]
    fn summary_merge_matches_online_merge() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * 13) % 47) as f64 * 0.5).collect();
        let mut whole = OnlineStats::new();
        let (mut left, mut right) = (OnlineStats::new(), OnlineStats::new());
        for &x in &xs {
            whole.record(x);
        }
        for &x in &xs[..120] {
            left.record(x);
        }
        for &x in &xs[120..] {
            right.record(x);
        }
        let mut merged = left.summary();
        merged.merge(&right.summary());
        let expect = whole.summary();
        assert_eq!(merged.count, expect.count);
        assert_eq!(merged.max, expect.max);
        assert_eq!(merged.min, expect.min);
        assert!((merged.mean - expect.mean).abs() < 1e-9);
        assert!((merged.std - expect.std).abs() < 1e-9);
        // Bit-exact commutativity: the formula is written symmetrically.
        let mut ab = left.summary();
        ab.merge(&right.summary());
        let mut ba = right.summary();
        ba.merge(&left.summary());
        assert_eq!(ab, ba);
        // Empty merges are identities on both sides.
        let mut id = expect;
        id.merge(&Summary::default());
        assert_eq!(id, expect);
        let mut from_empty = Summary::default();
        from_empty.merge(&expect);
        assert_eq!(from_empty, expect);
    }

    #[test]
    fn sample_std_uses_n_minus_one() {
        let mut s = OnlineStats::new();
        s.record(1.0);
        s.record(3.0);
        assert_eq!(s.population_std(), 1.0);
        assert!((s.sample_std() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_observation_panics() {
        let mut s = OnlineStats::new();
        s.record(f64::NAN);
    }
}
