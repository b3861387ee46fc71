//! Fleet-scale sharding: hash-range mapping of a user population onto
//! simulated device shards.
//!
//! The paper evaluates one device against one trace; the fleet layer
//! turns that single-device simulator into a population study. A
//! [`FleetConfig`] describes a user population and a shard count; the
//! [`FleetPlan`] it produces hash-range-maps every user onto exactly one
//! shard (the `xx-yy=store` shard-map shape used by content-addressed
//! stores), assigns each shard a device class and a workload from
//! weighted [`Mix`]es, and derives one dedicated [`SimRng`] stream per
//! shard.
//!
//! Determinism contract: everything a shard draws is a pure function of
//! `(fleet seed, shard index)`. Shard `k`'s bytes are therefore
//! independent of the worker count driving the fleet *and* of which other
//! shards run — simulating shard `k` alone reproduces its in-fleet
//! results exactly. That is what makes a 10k-device fleet byte-identical
//! at any `--jobs` and lets the aggregation layer merge per-shard metrics
//! in any grouping.
//!
//! The hash-range map uses the monotone multiply-shift reduction
//! `shard = (h · N) >> 64`: it is exactly the classic `[k·2⁶⁴/N,
//! (k+1)·2⁶⁴/N)` range partition of the 64-bit hash space, so each shard
//! owns one contiguous hash range and the map can be printed as
//! `lo-hi=shard` entries.

use std::fmt;

use crate::rng::SimRng;

/// Stream-selector base for per-shard RNG streams, chosen to collide with
/// none of the fault/integrity/workload stream constants.
const SHARD_STREAM_BASE: u64 = 0x5eed_f1ee_7000_0000;

/// Salt mixed into per-shard workload-assignment hashes.
const WORKLOAD_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt mixed into per-shard device-assignment hashes.
const DEVICE_SALT: u64 = 0xd1b5_4a32_d192_ed03;

/// Salt mixed into per-shard trace seeds.
const TRACE_SALT: u64 = 0x2545_f491_4f6c_dd1d;

/// Salt mixed into chaos-injection draws (the `--chaos-panic-rate`
/// self-test knob), distinct from every data-bearing stream.
const CHAOS_SALT: u64 = 0xc4a0_5bad_0bad_c0de;

/// SplitMix64: the finalizer used for user and assignment hashing. Full
/// 64-bit avalanche, so consecutive user ids scatter uniformly over the
/// hash space (and therefore over shards).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a (64-bit): the byte-string hash behind checkpoint
/// fingerprints, fleet metrics digests and per-trace RNG stream ids.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// A running FNV-1a (64-bit) hash, and a [`fmt::Write`] sink: `write!`
/// into it hashes formatted text as it is produced, with no `String` in
/// between. Feeding it the bytes of [`fnv1a`]'s input, in any split,
/// finishes on the same hash.
///
/// # Examples
///
/// ```
/// use std::fmt::Write;
/// use mobistore_sim::fleet::{fnv1a, Fnv1a};
///
/// let mut h = Fnv1a::new();
/// write!(h, "shard{:05}/{}", 7, "mac").unwrap();
/// assert_eq!(h.finish(), fnv1a(b"shard00007/mac"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hash of no bytes yet.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes `bytes` onto what came before.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// A weighted mix of labelled classes (device models, workloads), picked
/// per shard by hash so the assignment is deterministic and
/// order-independent.
#[derive(Debug, Clone)]
pub struct Mix {
    entries: Vec<(&'static str, u32)>,
    total: u64,
}

impl Mix {
    /// Builds a mix from `(label, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or all weights are zero.
    pub fn new(entries: &[(&'static str, u32)]) -> Self {
        let total: u64 = entries.iter().map(|&(_, w)| u64::from(w)).sum();
        assert!(
            !entries.is_empty() && total > 0,
            "mix needs at least one positive weight"
        );
        Mix {
            entries: entries.to_vec(),
            total,
        }
    }

    /// The `(label, weight)` entries, in declaration order.
    pub fn entries(&self) -> &[(&'static str, u32)] {
        &self.entries
    }

    /// Picks a label by hash, proportionally to the weights: the hash is
    /// scaled into `[0, total)` by the same monotone multiply-shift used
    /// for sharding, then walked through the cumulative weights.
    pub fn pick(&self, hash: u64) -> &'static str {
        let point = ((u128::from(hash) * u128::from(self.total)) >> 64) as u64;
        let mut acc = 0u64;
        for &(label, w) in &self.entries {
            acc += u64::from(w);
            if point < acc {
                return label;
            }
        }
        // Unreachable: point < total == sum of weights.
        self.entries.last().expect("non-empty mix").0
    }
}

/// A fleet description: how many shards, how many users, which device and
/// workload classes, and the seed every per-shard stream derives from.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (simulated devices).
    pub shards: u32,
    /// Number of users hashed onto the shards.
    pub population: u64,
    /// Weighted workload classes, assigned per shard by hash.
    pub workload_mix: Mix,
    /// Weighted device classes, assigned per shard by hash.
    pub device_mix: Mix,
    /// The fleet seed; every per-shard stream is derived from
    /// `(seed, shard index)` and nothing else.
    pub seed: u64,
}

impl FleetConfig {
    /// The 64-bit placement hash of one user id.
    pub fn user_hash(&self, user: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(user))
    }

    /// The shard owning hash `h`: the monotone range reduction
    /// `(h · shards) >> 64`.
    pub fn shard_of_hash(&self, h: u64) -> u32 {
        ((u128::from(h) * u128::from(self.shards)) >> 64) as u32
    }

    /// The shard user `user` lands on.
    pub fn shard_of(&self, user: u64) -> u32 {
        self.shard_of_hash(self.user_hash(user))
    }

    /// The inclusive `[lo, hi]` hash range shard `k` owns.
    ///
    /// # Panics
    ///
    /// Panics if `k >= shards`.
    pub fn shard_range(&self, k: u32) -> (u64, u64) {
        assert!(k < self.shards, "shard {k} out of range");
        let n = u64::from(self.shards);
        // Shard k starts at ⌈k·2^64 / n⌉. With 2^64 = q·n + r, that is
        // k·q + ⌈k·r / n⌉, and k < n ≤ 2^32, r ≤ n keep k·r below 2^64.
        let (q, r) = (u64::MAX / n, u64::MAX % n + 1);
        let lo = |k: u64| k * q + (k * r).div_ceil(n);
        let hi = if k + 1 == self.shards {
            u64::MAX
        } else {
            lo(u64::from(k) + 1) - 1
        };
        (lo(u64::from(k)), hi)
    }

    /// Builds the full shard plan: user counts per shard (one pass over
    /// the population), per-shard workload/device assignments, and hash
    /// ranges.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `population` is zero.
    pub fn plan(&self) -> FleetPlan {
        assert!(self.shards > 0, "fleet needs at least one shard");
        assert!(self.population > 0, "fleet needs at least one user");
        let mut users = vec![0u64; self.shards as usize];
        for user in 0..self.population {
            users[self.shard_of(user) as usize] += 1;
        }
        let shards = users
            .into_iter()
            .enumerate()
            .map(|(i, users)| {
                let index = i as u32;
                let (hash_lo, hash_hi) = self.shard_range(index);
                FleetShard {
                    index,
                    users,
                    hash_lo,
                    hash_hi,
                    workload: self
                        .workload_mix
                        .pick(splitmix64(self.seed ^ WORKLOAD_SALT ^ u64::from(index))),
                    device: self
                        .device_mix
                        .pick(splitmix64(self.seed ^ DEVICE_SALT ^ u64::from(index))),
                    seed: self.seed,
                }
            })
            .collect();
        FleetPlan { shards }
    }
}

/// One shard of the fleet: its hash range, user count, class assignments,
/// and the derivation point for its RNG streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetShard {
    /// Shard index in `0..shards`.
    pub index: u32,
    /// Users whose placement hash falls in this shard's range.
    pub users: u64,
    /// Inclusive lower bound of the owned hash range.
    pub hash_lo: u64,
    /// Inclusive upper bound of the owned hash range.
    pub hash_hi: u64,
    /// The workload-class label drawn from the workload mix.
    pub workload: &'static str,
    /// The device-class label drawn from the device mix.
    pub device: &'static str,
    /// The fleet seed this shard derives every stream from.
    pub seed: u64,
}

impl FleetShard {
    /// A dedicated RNG stream for this shard, salted so different
    /// purposes (demand sampling, future fault plans) draw from disjoint
    /// sequences. Depends on `(fleet seed, shard index, salt)` only.
    pub fn rng(&self, salt: u64) -> SimRng {
        SimRng::seed_with_stream(
            splitmix64(self.seed ^ salt),
            SHARD_STREAM_BASE ^ u64::from(self.index),
        )
    }

    /// The seed for this shard's trace generation, independent of every
    /// other shard's.
    pub fn trace_seed(&self) -> u64 {
        splitmix64(self.seed ^ TRACE_SALT ^ u64::from(self.index))
    }

    /// The `lo-hi=shard` hash-range map entry for this shard.
    pub fn range_entry(&self) -> String {
        format!(
            "{:016x}-{:016x}=shard{:05}",
            self.hash_lo, self.hash_hi, self.index
        )
    }
}

/// Chaos-engineering knobs for the fleet supervisor's self-tests: inject
/// deterministic shard panics and mid-run aborts so fault isolation,
/// quarantine accounting, and checkpoint/resume can be proven end-to-end.
///
/// Production runs use [`ChaosConfig::default`] (no injection); the
/// injection draw is a pure function of `(fleet seed, shard index,
/// attempt)`, so a chaos run is as deterministic as a quiet one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosConfig {
    /// Probability in `[0, 1]` that any given `(shard, attempt)` panics.
    pub panic_rate: f64,
    /// Abort the process (exit) after this many completed chunks, to
    /// emulate a kill -9 mid-run. `None` disables.
    pub fail_point: Option<u64>,
}

impl ChaosConfig {
    /// True when no injection is configured (the production path).
    pub fn is_quiet(&self) -> bool {
        self.panic_rate <= 0.0 && self.fail_point.is_none()
    }

    /// Whether attempt number `attempt` of shard `shard` must panic: a
    /// pure function of `(fleet seed, shard, attempt)`, independent of
    /// worker count and scheduling, so quarantine sets are byte-identical
    /// at any `--jobs`.
    pub fn should_panic(&self, fleet_seed: u64, shard: u32, attempt: u32) -> bool {
        if self.panic_rate <= 0.0 {
            return false;
        }
        if self.panic_rate >= 1.0 {
            return true;
        }
        let draw =
            splitmix64(splitmix64(fleet_seed ^ CHAOS_SALT ^ u64::from(shard)) ^ u64::from(attempt));
        // Compare in the 64-bit hash space: P(draw < rate·2⁶⁴) = rate.
        (draw as f64) < self.panic_rate * 1.844_674_407_370_955_2e19
    }
}

/// A shard that panicked past its retry budget: the typed form the fleet
/// supervisor quarantines instead of tearing down the worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Index of the failed shard.
    pub shard: u32,
    /// Attempts made (first run + retries) before quarantine.
    pub attempts: u32,
    /// Rendered panic payload of the last attempt.
    pub cause: String,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard{:05}: quarantined after {} attempts: {}",
            self.shard, self.attempts, self.cause
        )
    }
}

/// The computed shard map of one fleet.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// All shards, in index order; hash ranges tile the 64-bit space.
    pub shards: Vec<FleetShard>,
}

impl FleetPlan {
    /// Total users across all shards (the population).
    pub fn users(&self) -> u64 {
        self.shards.iter().map(|s| s.users).sum()
    }

    /// Renders the hash-range shard map, eliding the middle when there
    /// are more than `max_entries` shards: the first entries, an elision
    /// marker, and the last entry.
    pub fn range_map(&self, max_entries: usize) -> String {
        let max_entries = max_entries.max(2);
        if self.shards.len() <= max_entries {
            let entries: Vec<String> = self.shards.iter().map(FleetShard::range_entry).collect();
            return entries.join(" ");
        }
        let head: Vec<String> = self.shards[..max_entries - 1]
            .iter()
            .map(FleetShard::range_entry)
            .collect();
        let last = self.shards.last().expect("non-empty plan");
        format!(
            "{} ... +{} more ... {}",
            head.join(" "),
            self.shards.len() - max_entries,
            last.range_entry()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(shards: u32, population: u64, seed: u64) -> FleetConfig {
        FleetConfig {
            shards,
            population,
            workload_mix: Mix::new(&[("mac", 2), ("dos", 1)]),
            device_mix: Mix::new(&[("disk", 1), ("card", 1)]),
            seed,
        }
    }

    #[test]
    fn fnv1a_matches_published_vectors_in_any_split() {
        // The FNV reference test vectors for "", "a" and "foobar".
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let text = "Histogram { counts: [0, 0, 3], count: 3 }";
        for split in 0..=text.len() {
            let mut h = Fnv1a::new();
            fmt::Write::write_str(&mut h, &text[..split]).unwrap();
            h.update(&text.as_bytes()[split..]);
            assert_eq!(h.finish(), fnv1a(text.as_bytes()), "split at {split}");
        }
    }

    #[test]
    fn shard_ranges_tile_the_hash_space() {
        for shards in [1u32, 2, 3, 7, 64, 1000] {
            let cfg = config(shards, 1, 9);
            let mut expect_lo = 0u64;
            for k in 0..shards {
                let (lo, hi) = cfg.shard_range(k);
                assert_eq!(lo, expect_lo, "gap before shard {k} of {shards}");
                assert!(hi >= lo, "inverted range at shard {k} of {shards}");
                // The reduction agrees with the range bounds.
                assert_eq!(cfg.shard_of_hash(lo), k);
                assert_eq!(cfg.shard_of_hash(hi), k);
                expect_lo = hi.wrapping_add(1);
            }
            assert_eq!(expect_lo, 0, "last shard must end at u64::MAX");
        }
    }

    /// [`FleetConfig::shard_range`] as `u128` division, the form its
    /// `u64` arithmetic replaces.
    fn shard_range_u128(shards: u32, k: u32) -> (u64, u64) {
        let n = u128::from(shards);
        let lo = (u128::from(k) << 64).div_ceil(n);
        let hi = if k + 1 == shards {
            u128::from(u64::MAX)
        } else {
            (u128::from(k + 1) << 64).div_ceil(n) - 1
        };
        (lo as u64, hi as u64)
    }

    #[test]
    fn shard_ranges_match_u128_division() {
        for shards in [1u32, 2, 3, 7, 4096, 10_007] {
            let cfg = config(shards, 1, 9);
            for k in 0..shards {
                assert_eq!(
                    cfg.shard_range(k),
                    shard_range_u128(shards, k),
                    "shard {k} of {shards}"
                );
            }
        }
        // The largest shard count: its ends, the middle, and a SimRng
        // sample between them.
        let shards = u32::MAX;
        let cfg = config(shards, 1, 9);
        let mut rng = crate::rng::SimRng::seed_from_u64(4099);
        let sampled = (0..2_000).map(|_| rng.below(u64::from(shards)) as u32);
        for k in [0, 1, 2, shards / 2, shards - 2, shards - 1]
            .into_iter()
            .chain(sampled)
        {
            assert_eq!(
                cfg.shard_range(k),
                shard_range_u128(shards, k),
                "shard {k} of {shards}"
            );
        }
    }

    #[test]
    fn every_user_lands_on_exactly_the_shard_owning_its_hash() {
        let cfg = config(13, 500, 42);
        for user in 0..cfg.population {
            let h = cfg.user_hash(user);
            let k = cfg.shard_of(user);
            let (lo, hi) = cfg.shard_range(k);
            assert!(lo <= h && h <= hi, "user {user} hash outside its range");
        }
    }

    #[test]
    fn plan_counts_the_whole_population_and_spreads_it() {
        let cfg = config(16, 4096, 1994);
        let plan = cfg.plan();
        assert_eq!(plan.shards.len(), 16);
        assert_eq!(plan.users(), 4096);
        // A good hash spreads 256 users/shard expected; no shard should be
        // empty or grotesquely overloaded.
        for s in &plan.shards {
            assert!(
                s.users > 64 && s.users < 1024,
                "shard {}: {}",
                s.index,
                s.users
            );
        }
    }

    #[test]
    fn assignments_and_streams_depend_only_on_seed_and_index() {
        let a = config(8, 100, 7).plan();
        // Different population, same seed: identical class assignments and
        // RNG streams (only user counts change).
        let b = config(8, 5000, 7).plan();
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.device, y.device);
            assert_eq!(x.trace_seed(), y.trace_seed());
            let mut rx = x.rng(3);
            let mut ry = y.rng(3);
            assert_eq!(rx.next_u64(), ry.next_u64());
        }
        // A different seed changes the streams.
        let c = config(8, 100, 8).plan();
        assert_ne!(a.shards[0].trace_seed(), c.shards[0].trace_seed());
    }

    #[test]
    fn mix_respects_weights() {
        let mix = Mix::new(&[("a", 3), ("b", 1)]);
        let mut counts = [0u32; 2];
        for i in 0..40_000u64 {
            match mix.pick(splitmix64(i)) {
                "a" => counts[0] += 1,
                _ => counts[1] += 1,
            }
        }
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn range_map_elides_large_fleets() {
        let plan = config(64, 64, 1).plan();
        let map = plan.range_map(4);
        assert!(map.contains("=shard00000"));
        assert!(map.contains("+60 more"));
        assert!(map.contains("=shard00063"));
        assert!(map.ends_with(&format!("{:016x}=shard00063", u64::MAX)));
        let small = config(2, 2, 1).plan().range_map(8);
        assert!(!small.contains("more"));
        assert!(small.contains("=shard00001"));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = config(0, 1, 1).plan();
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_population_panics() {
        let _ = config(1, 0, 1).plan();
    }

    #[test]
    #[should_panic(expected = "at least one positive weight")]
    fn empty_mix_panics() {
        let _ = Mix::new(&[]);
    }

    #[test]
    #[should_panic(expected = "at least one positive weight")]
    fn all_zero_weight_mix_panics() {
        let _ = Mix::new(&[("a", 0), ("b", 0)]);
    }

    #[test]
    fn chaos_draw_is_deterministic_and_rate_shaped() {
        let quiet = ChaosConfig::default();
        assert!(quiet.is_quiet());
        assert!(!quiet.should_panic(1994, 0, 0));

        let always = ChaosConfig {
            panic_rate: 1.0,
            fail_point: None,
        };
        assert!(always.should_panic(1994, 7, 2));

        let half = ChaosConfig {
            panic_rate: 0.5,
            fail_point: None,
        };
        assert!(!half.is_quiet());
        let mut hits = 0u32;
        for shard in 0..4096u32 {
            // Pure function of (seed, shard, attempt): stable across calls.
            let a = half.should_panic(1994, shard, 0);
            assert_eq!(a, half.should_panic(1994, shard, 0));
            if a {
                hits += 1;
            }
            // Attempts draw independently; a different seed reshuffles.
            let _ = half.should_panic(1994, shard, 1);
        }
        assert!(
            (1700..2400).contains(&hits),
            "rate 0.5 should hit about half of 4096 shards, got {hits}"
        );
    }

    #[test]
    fn shard_error_displays_with_context() {
        let e = ShardError {
            shard: 12,
            attempts: 3,
            cause: "boom".into(),
        };
        assert_eq!(
            e.to_string(),
            "shard00012: quarantined after 3 attempts: boom"
        );
    }
}
