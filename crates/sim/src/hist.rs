//! Log-bucketed latency histograms.
//!
//! Table 4 reports only moments (mean/max/σ), which hide the latency
//! *tail* — exactly where spin-ups and cleaning stalls live. [`Histogram`]
//! records integer-nanosecond observations into log-linear buckets (32
//! sub-buckets per power of two, HDR-histogram style), so percentile
//! queries are exact to within one bucket width — a relative error of at
//! most 1/32 ≈ 3.1% — while the whole structure stays a few kilobytes and
//! every operation is integer-only and therefore deterministic.

use std::fmt;

use crate::stats::{OnlineStats, Summary};
use crate::time::SimDuration;

/// log2 of the number of sub-buckets per octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (values below this index map one-to-one).
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram over `u64` nanosecond values.
///
/// Values below 32 ns get exact unit-width buckets; every octave above is
/// split into 32 sub-buckets, bounding the relative width of any bucket by
/// 1/32. Percentiles use the nearest-rank definition and return the lower
/// bound of the bucket containing that rank, so the reported quantile is
/// never more than one bucket width below the exact sorted-vector
/// quantile.
///
/// # Examples
///
/// ```
/// use mobistore_sim::hist::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100u64 {
///     h.record(v * 1_000_000); // 1..=100 ms in nanoseconds
/// }
/// let p50 = h.percentile_nanos(0.50) as f64;
/// assert!((p50 - 50e6).abs() / 50e6 <= 1.0 / 32.0);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts, indexed by [`bucket_index`]; grown on demand.
    counts: Vec<u64>,
    /// Total observations.
    count: u64,
}

/// Sixty-four empty buckets as a list's `Debug` renders them after its
/// first entry.
const EMPTY_BUCKETS: &str = concat!(
    ", 0, 0, 0, 0, 0, 0, 0, 0",
    ", 0, 0, 0, 0, 0, 0, 0, 0",
    ", 0, 0, 0, 0, 0, 0, 0, 0",
    ", 0, 0, 0, 0, 0, 0, 0, 0",
    ", 0, 0, 0, 0, 0, 0, 0, 0",
    ", 0, 0, 0, 0, 0, 0, 0, 0",
    ", 0, 0, 0, 0, 0, 0, 0, 0",
    ", 0, 0, 0, 0, 0, 0, 0, 0",
);

/// Writes the bytes `#[derive(Debug)]` would, `Histogram { counts: [..],
/// count: n }`, but a run of empty buckets goes out as slices of one
/// string rather than one formatter call per bucket: a fleet shard's
/// metrics hold about 2,200 empty buckets, and `metrics_digest` hashes
/// this text. A zero renders as `0` in decimal and in both hex forms;
/// every other count goes through its own `Debug`. Any flag that changes
/// how a zero renders (`{:#?}`, a width, a precision, `+`, `0`) takes the
/// derived rendering through `debug_struct`.
impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flagged = f.alternate()
            || f.width().is_some()
            || f.precision().is_some()
            || f.sign_plus()
            || f.sign_aware_zero_pad();
        if flagged {
            return f
                .debug_struct("Histogram")
                .field("counts", &self.counts)
                .field("count", &self.count)
                .finish();
        }
        f.write_str("Histogram { counts: [")?;
        let mut rest = &self.counts[..];
        let mut first = true;
        while let Some((&count, tail)) = rest.split_first() {
            if count != 0 {
                if !first {
                    f.write_str(", ")?;
                }
                fmt::Debug::fmt(&count, f)?;
                rest = tail;
            } else {
                let mut zeros = rest.iter().take_while(|&&c| c == 0).count();
                rest = &rest[zeros..];
                if first {
                    f.write_str("0")?;
                    zeros -= 1;
                }
                while zeros > 0 {
                    let n = zeros.min(EMPTY_BUCKETS.len() / 3);
                    f.write_str(&EMPTY_BUCKETS[..3 * n])?;
                    zeros -= n;
                }
            }
            first = false;
        }
        f.write_str("], count: ")?;
        fmt::Debug::fmt(&self.count, f)?;
        f.write_str(" }")
    }
}

/// Maps a value to its bucket index.
#[inline]
fn bucket_index(nanos: u64) -> usize {
    if nanos < SUB {
        return nanos as usize;
    }
    let msb = 63 - u64::from(nanos.leading_zeros()); // >= SUB_BITS
    let octave = msb - u64::from(SUB_BITS);
    let sub = (nanos >> octave) - SUB;
    ((octave + 1) * SUB + sub) as usize
}

/// The `[low, high)` value range of bucket `index`. The topmost bucket's
/// upper bound saturates at `u64::MAX` (its true bound, 2^64, does not
/// fit), so it is one value narrower than nominal.
fn bucket_range(index: usize) -> (u64, u64) {
    let i = index as u64;
    if i < SUB {
        return (i, i + 1);
    }
    let octave = i / SUB - 1;
    let sub = i % SUB;
    let low = (SUB + sub) << octave;
    (low, low.saturating_add(1 << octave))
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `nanos`.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        let i = bucket_index(nanos);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.count += 1;
    }

    /// Records `n` observations of `nanos` in one step. With `nanos` a
    /// bucket's lower bound (as yielded by [`Histogram::iter_nonzero`])
    /// this rebuilds that bucket exactly, which is what lets a
    /// checkpointed histogram round-trip bit-identically.
    pub fn record_n(&mut self, nanos: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = bucket_index(nanos);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += n;
        self.count += n;
    }

    /// Returns the number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns true if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
    }

    /// The `[low, high)` bounds of the bucket that would hold `nanos`; the
    /// bucket width `high - low` bounds the percentile error for values in
    /// that range.
    pub fn bucket_bounds(nanos: u64) -> (u64, u64) {
        bucket_range(bucket_index(nanos))
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`), reported as the
    /// lower bound of the bucket containing that rank; 0 if empty.
    pub fn percentile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_range(i).0;
            }
        }
        // Unreachable while counts and count agree; be defensive.
        bucket_range(self.counts.len().saturating_sub(1)).0
    }

    /// The `q`-quantile in milliseconds.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        self.percentile_nanos(q) as f64 / 1e6
    }

    /// The standard percentile set (p50/p90/p99/p99.9) in milliseconds.
    pub fn percentiles_ms(&self) -> Percentiles {
        Percentiles {
            p50: self.percentile_ms(0.50),
            p90: self.percentile_ms(0.90),
            p99: self.percentile_ms(0.99),
            p999: self.percentile_ms(0.999),
        }
    }

    /// Iterates the non-empty buckets as `(low_nanos, high_nanos, count)`.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_range(i);
                (lo, hi, c)
            })
    }
}

/// The latency percentiles the observability report and the metrics export
/// carry, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Percentiles {
    /// The median.
    pub p50: f64,
    /// The 90th percentile.
    pub p90: f64,
    /// The 99th percentile.
    pub p99: f64,
    /// The 99.9th percentile.
    pub p999: f64,
}

/// A latency recorder combining exact Welford moments (what Table 4
/// prints, byte-identical to the pre-histogram implementation) with a
/// [`Histogram`] for percentiles.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    stats: OnlineStats,
    hist: Histogram,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder::new()
    }
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            stats: OnlineStats::new(),
            hist: Histogram::new(),
        }
    }

    /// Records one response time; returns it in milliseconds, the value
    /// the moments took, so a caller can fold it elsewhere without
    /// converting it again.
    #[inline]
    pub fn record(&mut self, response: SimDuration) -> f64 {
        let ms = response.as_millis_f64();
        self.stats.record(ms);
        self.hist.record(response.as_nanos());
        ms
    }

    /// The frozen moment summary (Table 4's mean/max/σ columns).
    pub fn summary(&self) -> Summary {
        self.stats.summary()
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Consumes the recorder, returning the histogram.
    pub fn into_histogram(self) -> Histogram {
        self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Histogram` with the derived `Debug` its hand-written one replaces.
    /// The mirrors' fields are read only by their derived `Debug`.
    #[allow(dead_code)]
    mod derived {
        #[derive(Debug)]
        pub struct Histogram {
            pub counts: Vec<u64>,
            pub count: u64,
        }

        /// A derived parent, as `Metrics` holds its histograms.
        #[derive(Debug)]
        pub struct Outer {
            pub name: &'static str,
            pub hist: Histogram,
            pub after: u64,
        }
    }

    /// The hand-written side of [`derived::Outer`].
    #[allow(dead_code)]
    mod written {
        #[derive(Debug)]
        pub struct Outer {
            pub name: &'static str,
            pub hist: super::Histogram,
            pub after: u64,
        }
    }

    #[test]
    fn debug_matches_the_derived_rendering() {
        let mut rng = crate::rng::SimRng::seed_from_u64(17);
        let mut cases = vec![Histogram::new()];
        for case in 0..60 {
            let mut h = Histogram::new();
            // Sparse, clustered and dense bucket patterns, runs of empty
            // buckets longer and shorter than one slice, and a leading
            // empty bucket or a leading count.
            for _ in 0..rng.below(40) {
                let v = match case % 3 {
                    0 => rng.below(40),
                    1 => rng.next_u64() >> rng.below(64),
                    _ => 1_000 + rng.below(200_000),
                };
                h.record_n(v, 1 + rng.below(3) * rng.below(1 << 20));
            }
            cases.push(h);
        }
        let mut only_zero_bucket = Histogram::new();
        only_zero_bucket.record(0);
        cases.push(only_zero_bucket);
        for h in &cases {
            let mirror = derived::Histogram {
                counts: h.counts.clone(),
                count: h.count,
            };
            assert_eq!(format!("{h:?}"), format!("{mirror:?}"));
            assert_eq!(format!("{h:#?}"), format!("{mirror:#?}"));
            assert_eq!(format!("{h:x?}"), format!("{mirror:x?}"));
            assert_eq!(format!("{h:X?}"), format!("{mirror:X?}"));
            assert_eq!(format!("{h:5?}"), format!("{mirror:5?}"));
            assert_eq!(format!("{h:+?}"), format!("{mirror:+?}"));
            assert_eq!(format!("{h:03?}"), format!("{mirror:03?}"));
            assert_eq!(format!("{h:.1?}"), format!("{mirror:.1?}"));
            let outer = written::Outer {
                name: "x",
                hist: h.clone(),
                after: 7,
            };
            let mirror = derived::Outer {
                name: "x",
                hist: mirror,
                after: 7,
            };
            assert_eq!(format!("{outer:?}"), format!("{mirror:?}"));
            assert_eq!(format!("{outer:#?}"), format!("{mirror:#?}"));
        }
    }

    #[test]
    fn record_n_round_trips_nonzero_buckets() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 999, 1_000_000, 77_000_000_000] {
            for k in 0..=(v % 5 + 1) {
                h.record(v.wrapping_add(k));
            }
        }
        let mut rebuilt = Histogram::new();
        for (lo, _hi, count) in h.iter_nonzero() {
            rebuilt.record_n(lo, count);
        }
        assert_eq!(rebuilt, h, "lower-bound replay must rebuild exactly");
        rebuilt.record_n(5, 0);
        assert_eq!(rebuilt, h, "recording zero observations is a no-op");
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        // Unit-width buckets below 32: nearest-rank quantiles are exact.
        assert_eq!(h.percentile_nanos(0.5), 15); // rank 16 -> value 15
        assert_eq!(h.percentile_nanos(1.0), 31);
        assert_eq!(h.percentile_nanos(0.0), 0);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn known_exact_quantiles() {
        // 1..=1000 distinct values: nearest-rank pXX of the sorted vector
        // is value ceil(q*1000).
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1_000_000); // ms-scale nanos
        }
        for (q, exact) in [(0.50, 500u64), (0.90, 900), (0.99, 990), (0.999, 999)] {
            let exact_ns = exact * 1_000_000;
            let got = h.percentile_nanos(q);
            let (lo, hi) = Histogram::bucket_bounds(exact_ns);
            assert!(
                got >= lo && got < hi,
                "p{q}: got {got}, exact {exact_ns} in [{lo}, {hi})"
            );
            assert!(hi - lo <= exact_ns / 16, "bucket too wide at {exact_ns}");
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile_nanos(0.5), 0);
        assert_eq!(h.percentile_ms(0.99), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn bucket_bounds_contain_value_and_tile_the_line() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 1_000, 1_000_000, u64::MAX / 2] {
            let (lo, hi) = Histogram::bucket_bounds(v);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
            // Relative width bound: 1/32 of the lower bound (log region).
            if v >= 32 {
                assert!(hi - lo <= lo / 32 + 1, "bucket [{lo},{hi}) too wide");
            }
            // Adjacent buckets tile: hi is the low bound of the next bucket.
            let (lo2, _) = Histogram::bucket_bounds(hi);
            assert_eq!(lo2, hi, "gap after bucket [{lo},{hi})");
        }
    }

    #[test]
    fn topmost_bucket_saturates_instead_of_overflowing() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        let (lo, hi) = Histogram::bucket_bounds(u64::MAX);
        assert_eq!(hi, u64::MAX, "top bucket's bound must saturate");
        assert!(lo < hi);
        assert_eq!(h.percentile_nanos(1.0), lo);
    }

    #[test]
    fn zero_duration_samples_land_in_the_first_bucket() {
        let mut h = Histogram::new();
        let zero = SimDuration::from_nanos(0);
        for _ in 0..10 {
            h.record(zero.as_nanos());
        }
        assert_eq!(h.count(), 10);
        assert_eq!(Histogram::bucket_bounds(0), (0, 1));
        // Every quantile of an all-zero sample is zero.
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(h.percentile_nanos(q), 0, "p{q} of all-zero sample");
        }
        assert_eq!(h.percentile_ms(0.5), 0.0);
        // Mixing in one real value keeps ranks consistent.
        h.record(SimDuration::from_millis(5).as_nanos());
        assert_eq!(h.percentile_nanos(0.5), 0);
        assert!(h.percentile_nanos(1.0) > 0);
    }

    #[test]
    fn max_adjacent_samples_stay_in_bounds() {
        // The top octave is where PR 3's bucket_range overflow lived:
        // exercise MAX itself and its nearest neighbours on both sides of
        // the topmost bucket boundary.
        let mut h = Histogram::new();
        let (top_lo, top_hi) = Histogram::bucket_bounds(u64::MAX);
        for v in [u64::MAX, u64::MAX - 1, top_lo, top_lo - 1, top_hi - 1] {
            h.record(v);
            let (lo, hi) = Histogram::bucket_bounds(v);
            assert!(lo <= v && v < hi || (v == u64::MAX && hi == u64::MAX && lo <= v));
        }
        assert_eq!(h.count(), 5);
        // All five land at or above the bucket just below the top one.
        let p_max = h.percentile_nanos(1.0);
        assert!(p_max >= Histogram::bucket_bounds(top_lo - 1).0);
        // The top bucket's bounds never wrap.
        assert!(top_lo < top_hi);
        assert_eq!(top_hi, u64::MAX);
        // Merging histograms holding MAX-adjacent samples is loss-free.
        let mut other = Histogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 6);
        assert_eq!(h.percentile_nanos(1.0), top_lo);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..200u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) % 1_000_000_000;
            h.record(x);
        }
        let mut last = 0;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let p = h.percentile_nanos(q);
            assert!(p >= last, "p{q} = {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 100_000).collect();
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for &x in &xs {
            whole.record(x);
        }
        for &x in &xs[..123] {
            left.record(x);
        }
        for &x in &xs[123..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn recorder_moments_match_online_stats() {
        let mut r = LatencyRecorder::new();
        let mut s = OnlineStats::new();
        for ms in [1u64, 5, 20, 3, 400] {
            let d = SimDuration::from_millis(ms);
            r.record(d);
            s.record(d.as_millis_f64());
        }
        assert_eq!(r.summary(), s.summary());
        assert_eq!(r.histogram().count(), 5);
        let p = r.histogram().percentiles_ms();
        assert!(p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.p999);
    }
}
