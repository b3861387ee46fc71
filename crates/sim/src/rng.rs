//! Deterministic random-number generation and distribution sampling.
//!
//! Every stochastic component of the reproduction (workload generators, file
//! placement, synthetic data) draws from [`SimRng`], a small PCG32 generator.
//! A fixed seed therefore reproduces every experiment bit-for-bit, on any
//! platform. Distribution samplers beyond uniform (exponential, log-normal,
//! Zipf, bounded Pareto) are implemented here so the simulator needs no
//! external randomness crates.

/// A deterministic PCG32 (XSH-RR) pseudo-random generator.
///
/// # Examples
///
/// ```
/// use mobistore_sim::rng::SimRng;
///
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u32(), b.next_u32());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl SimRng {
    /// Creates a generator from a 64-bit seed with the default stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng::seed_with_stream(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// Creates a generator from a seed and a stream selector; different
    /// streams with the same seed are statistically independent.
    pub fn seed_with_stream(seed: u64, stream: u64) -> Self {
        let inc = (stream << 1) | 1;
        let mut rng = SimRng { state: 0, inc };
        rng.step();
        rng.state = rng.state.wrapping_add(seed);
        rng.step();
        rng
    }

    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
    }

    /// Returns the next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.step();
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits give a uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.f64()
    }

    /// Returns a uniform integer in `[0, n)` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is empty");
        // Lemire's nearly-divisionless rejection on the widening multiply:
        // a draw is rejected iff its low word is below 2^64 mod n. That
        // threshold is itself below n, so the division that computes it
        // runs only for a low word below n, and every draw is accepted or
        // rejected exactly as with an up-front threshold.
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "bad range [{lo}, {hi}]");
        lo + self.below(hi - lo + 1)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.f64() < p
    }

    /// Samples an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "mean must be positive: {mean}"
        );
        // Inverse-CDF; (1 - f64()) avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Samples a standard normal via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.f64(); // (0, 1]: safe for ln
        let u2: f64 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Samples a log-normal distribution parameterised by the *target*
    /// arithmetic mean and standard deviation of the resulting values:
    /// one draw of [`LogNormal::new`]`(mean, std)`. Samplers that draw
    /// many values from one distribution build the [`LogNormal`] once.
    ///
    /// # Panics
    ///
    /// Panics if `mean` or `std` is not finite and positive.
    pub fn lognormal_mean_std(&mut self, mean: f64, std: f64) -> f64 {
        LogNormal::new(mean, std).sample(self)
    }
}

/// A log-normal distribution parameterised by the *target* arithmetic
/// mean and standard deviation of the values it draws.
///
/// This is the heavy-tailed interarrival model used to match the paper's
/// Table 3 statistics (mean ≪ σ ≪ max). [`LogNormal::new`] derives the
/// underlying normal's μ and σ once; each draw is then one standard normal
/// and one `exp`.
///
/// # Examples
///
/// ```
/// use mobistore_sim::rng::{LogNormal, SimRng};
///
/// let gaps = LogNormal::new(0.078, 0.57);
/// let (mut a, mut b) = (SimRng::seed_from_u64(1), SimRng::seed_from_u64(1));
/// assert_eq!(gaps.sample(&mut a), b.lognormal_mean_std(0.078, 0.57));
/// assert_eq!(gaps.mean(), 0.078);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    /// The target arithmetic mean.
    mean: f64,
    /// Mean of the underlying normal.
    mu: f64,
    /// Standard deviation of the underlying normal.
    sigma: f64,
}

impl LogNormal {
    /// Builds the log-normal whose values have arithmetic mean `mean` and
    /// standard deviation `std`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` or `std` is not finite and positive.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "mean must be positive: {mean}"
        );
        assert!(std.is_finite() && std > 0.0, "std must be positive: {std}");
        let variance_ratio = (std / mean).powi(2);
        let sigma2 = (1.0 + variance_ratio).ln();
        LogNormal {
            mean,
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// The target arithmetic mean the distribution was built with.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
}

/// A Zipf-like discrete distribution over `0..n`, used for file popularity.
///
/// Rank `k` (0-based) is drawn with probability proportional to
/// `1 / (k + 1)^s`.
///
/// A draw inverts the CDF through a guide table: `2^b` equal-probability
/// buckets with `b = ⌈log2 n⌉ + 1`, where bucket `j` records the first rank
/// whose CDF exceeds `j / 2^b`. A uniform `u` starts at its bucket's rank
/// and scans forward to the first rank whose CDF exceeds `u`. Because
/// [`SimRng::f64`] returns `m · 2^-53` for an integer `m`, `⌊u · 2^b⌋` and
/// `j / 2^b` are exact, so no rank the scan skips can be the answer, and
/// the draw equals a binary search of the CDF (which is strictly
/// increasing) for every `u`.
///
/// # Examples
///
/// ```
/// use mobistore_sim::rng::{SimRng, Zipf};
///
/// let mut rng = SimRng::seed_from_u64(7);
/// let zipf = Zipf::new(100, 1.0);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF exceeds `j / 2^b` (or the
    /// last rank, if none does); `guide.len()` is `2^b`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds the distribution over `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above 2^32, or `s` is negative or
    /// non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(
            u32::try_from(n - 1).is_ok(),
            "Zipf over more than 2^32 items: {n}"
        );
        assert!(s.is_finite() && s >= 0.0, "bad Zipf exponent: {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let buckets = 2 * n.next_power_of_two();
        let last = n - 1;
        let mut rank = 0;
        let guide = (0..buckets)
            .map(|j| {
                let floor = j as f64 / buckets as f64;
                while rank < last && cdf[rank] <= floor {
                    rank += 1;
                }
                rank as u32
            })
            .collect();
        Zipf { cdf, guide }
    }

    /// Returns the number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always returns false: [`Zipf::new`] refuses zero items.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.rank_of(rng.f64())
    }

    /// The first rank whose CDF exceeds `u` (the last rank if none does),
    /// for a `u` in `[0, 1)` that is a multiple of 2^-53.
    fn rank_of(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let mut rank = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while rank < last && self.cdf[rank] <= u {
            rank += 1;
        }
        rank
    }

    /// [`Zipf::rank_of`] by binary search, the form the guide table
    /// replaces.
    #[cfg(test)]
    fn rank_by_search(&self, u: f64) -> usize {
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("NaN in CDF"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcg_is_deterministic_per_seed() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(1);
        let mut c = SimRng::seed_from_u64(2);
        let xs: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        let zs: Vec<u32> = (0..8).map(|_| c.next_u32()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn streams_differ() {
        let mut a = SimRng::seed_with_stream(1, 10);
        let mut b = SimRng::seed_with_stream(1, 11);
        assert_ne!(
            (0..4).map(|_| a.next_u32()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u32()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[rng.below(5) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket should get 10k ± a generous tolerance.
            assert!((8_000..12_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    /// [`SimRng::below`] with the threshold division on every call, the
    /// form the nearly-divisionless one replaces.
    fn below_always_dividing(rng: &mut SimRng, n: u64) -> u64 {
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(n);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn below_matches_the_always_dividing_form() {
        // 2^63 + 1 rejects almost half its draws and 2^63 - 1 only a low
        // word of 0 or 1, so both the rejection loop and the skipped
        // division run.
        let ns = [1, 3, 64, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, u64::MAX];
        for (case, &n) in ns.iter().enumerate() {
            let mut fast = SimRng::seed_with_stream(case as u64, 41);
            let mut reference = fast.clone();
            for draw in 0..20_000 {
                assert_eq!(
                    fast.below(n),
                    below_always_dividing(&mut reference, n),
                    "n {n} draw {draw}"
                );
            }
            assert_eq!(fast.state, reference.state, "n {n}: draws consumed");
        }
    }

    /// [`SimRng::lognormal_mean_std`] as it was before [`LogNormal`]
    /// precomputed μ and σ: every parameter derived on every draw.
    fn lognormal_per_draw(rng: &mut SimRng, mean: f64, std: f64) -> f64 {
        let variance_ratio = (std / mean).powi(2);
        let sigma2 = (1.0 + variance_ratio).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * rng.standard_normal()).exp()
    }

    #[test]
    fn lognormal_precomputed_matches_per_draw_bit_for_bit() {
        // The Table 3 interarrival models, the fleet's per-user demand and
        // a few extreme ratios.
        let params = [
            (0.078, 0.57),
            (16.5, 55.0),
            (545.0, 450.0),
            (1.0, 1.0),
            (0.5, 2.0),
            (1e-6, 1e3),
            (1e3, 1e-6),
        ];
        for (case, &(mean, std)) in params.iter().enumerate() {
            let dist = LogNormal::new(mean, std);
            let mut fast = SimRng::seed_with_stream(case as u64, 43);
            let mut reference = fast.clone();
            let mut via_rng = fast.clone();
            for draw in 0..5_000 {
                let want = lognormal_per_draw(&mut reference, mean, std).to_bits();
                assert_eq!(
                    dist.sample(&mut fast).to_bits(),
                    want,
                    "{mean}/{std} #{draw}"
                );
                assert_eq!(
                    via_rng.lognormal_mean_std(mean, std).to_bits(),
                    want,
                    "{mean}/{std} #{draw}"
                );
            }
        }
    }

    #[test]
    fn zipf_guide_table_matches_binary_search() {
        for n in [1, 2, 916, 4_096] {
            for s in [0.0, 0.8, 3.0] {
                let zipf = Zipf::new(n, s);
                assert_eq!(zipf.guide.len(), 2 * n.next_power_of_two());
                let mut rng = SimRng::seed_with_stream(n as u64, s.to_bits());
                for draw in 0..20_000 {
                    let u = rng.f64();
                    assert_eq!(
                        zipf.rank_of(u),
                        zipf.rank_by_search(u),
                        "n {n} s {s} draw {draw} u {u}"
                    );
                }
                // The values where a scan could stop one rank early or
                // late: every bucket floor, and every CDF value that
                // `f64()` can return (the ones at or above 1/2, whose ulp
                // is 2^-53), with their neighbours.
                let buckets = zipf.guide.len();
                let floors = (0..buckets).map(|j| j as f64 / buckets as f64);
                let steps = zipf.cdf.iter().filter(|c| (0.5..1.0).contains(*c)).copied();
                for u in floors.chain(steps) {
                    for u in [u - f64::EPSILON / 2.0, u, u + f64::EPSILON / 2.0] {
                        if (0.0..1.0).contains(&u) {
                            assert_eq!(
                                zipf.rank_of(u),
                                zipf.rank_by_search(u),
                                "n {n} s {s} u {u}"
                            );
                        }
                    }
                }
            }
        }
        // `sample` draws exactly one `f64` and inverts it.
        let zipf = Zipf::new(916, 0.8);
        let mut a = SimRng::seed_from_u64(12);
        let mut b = a.clone();
        for _ in 0..1_000 {
            assert_eq!(zipf.sample(&mut a), zipf.rank_by_search(b.f64()));
        }
    }

    #[test]
    fn range_inclusive_hits_bounds() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1_000 {
            match rng.range_inclusive(3, 6) {
                3 => saw_lo = true,
                6 => saw_hi = true,
                x => assert!((3..=6).contains(&x)),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from_u64(6);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn lognormal_matches_target_moments() {
        let mut rng = SimRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.lognormal_mean_std(0.5, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        // Heavy tail: variance estimate is noisy, allow wide tolerance.
        assert!((var.sqrt() - 2.0).abs() < 0.5, "std {}", var.sqrt());
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let mut rng = SimRng::seed_from_u64(8);
        let zipf = Zipf::new(10, 1.0);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 must dominate rank 9 by roughly the 10:1 Zipf ratio.
        assert!(counts[0] > counts[9] * 5, "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let mut rng = SimRng::seed_from_u64(9);
        let zipf = Zipf::new(4, 0.0);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(10);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
