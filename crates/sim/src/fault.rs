//! Deterministic fault injection.
//!
//! Real mobile storage fails: Intel Series 2 cards shipped with factory
//! bad-block maps and grew new bad segments as erasure cycles accumulated,
//! SunDisk parts retried transiently-failed program operations, and MFFS
//! had to replay its log after a power loss mid-compaction. A simulator
//! that never fails devices reproduces only the sunny half of the paper's
//! trade-off space.
//!
//! [`FaultPlan`] is a seeded source of fault decisions, driven by
//! [`SimRng`] so that a `(seed, stream)` pair fully
//! determines every injected fault. Device models own their plan, which
//! makes runs reproducible and parallel-safe by construction: two
//! simulations built from the same [`FaultConfig`] inject identical fault
//! schedules regardless of worker count, and a zero-rate plan draws no
//! random numbers at all, so it is bit-for-bit indistinguishable from a
//! fault-free build.
//!
//! Three fault classes are modeled:
//!
//! * **transient write failures** — a program operation fails verify and is
//!   retried after a backoff (service time and energy grow accordingly);
//! * **erase failures** — transient ones retry the erase pulse; a fraction
//!   escalate to *permanent* failures that retire the segment into a
//!   bad-block map, shrinking effective capacity;
//! * **power failures** — exponentially-distributed whole-system power
//!   losses that truncate in-flight cleaning and force a recovery scan
//!   (FAT replay on the magnetic disk, log scan plus orphaned-segment
//!   reclaim on the flash card).

use crate::rng::SimRng;
use crate::rule::{KnobError, Rule};
use crate::time::{SimDuration, SimTime};

/// RNG stream selector for device-level (write/erase) fault draws.
const DEVICE_FAULT_STREAM: u64 = 0x000f_a017_0001;
/// RNG stream selector for the power-failure schedule.
const POWER_FAULT_STREAM: u64 = 0x000f_a017_0002;
/// RNG stream selector for whole-device permanent-death instants.
const DEVICE_DEATH_STREAM: u64 = 0x000f_a017_0003;

/// The delay a controller waits before each retry: of a card's write
/// after a transient program failure, and of a card's or flash disk's
/// read after an ECC failure.
pub const RETRY_BACKOFF: SimDuration = SimDuration::from_micros(250);

/// Rates and costs of injected faults. All rates default to zero, which
/// injects nothing and reproduces the fault-free simulator byte for byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a write request experiences a transient failure
    /// and must be retried (drawn once per retry attempt, so failures are
    /// geometrically distributed up to [`max_retries`](Self::max_retries)).
    pub write_fail_rate: f64,
    /// Probability that a segment erasure fails on the first pulse.
    pub erase_fail_rate: f64,
    /// Probability that a failed erasure is *permanent*: the segment is
    /// retired into the bad-block map instead of being retried.
    pub permanent_rate: f64,
    /// Upper bound on transient retries per operation; a real controller
    /// gives up and remaps, we simply stop charging extra time.
    pub max_retries: u32,
    /// Mean interval between power failures (exponentially distributed);
    /// `None` disables power-fail injection.
    pub power_fail_mean: Option<SimDuration>,
    /// Bytes of file-allocation-table metadata the magnetic disk rescans
    /// on recovery (synchronous-FAT replay after an unclean shutdown).
    pub fat_scan_bytes: u64,
    /// Whole-device permanent deaths per device-hour (exponentially
    /// distributed first-arrival per array child). Zero disables death
    /// injection and draws nothing. Only erasure-coded arrays consult
    /// this; lone devices have no redundancy to recover with.
    pub death_rate: f64,
    /// Seed for the fault streams. Independent from the workload seed so
    /// the same trace can be replayed under different fault schedules.
    pub seed: u64,
}

impl FaultConfig {
    /// A configuration that injects nothing.
    pub fn none() -> Self {
        FaultConfig {
            write_fail_rate: 0.0,
            erase_fail_rate: 0.0,
            permanent_rate: 0.0,
            max_retries: 3,
            power_fail_mean: None,
            fat_scan_bytes: 128 * 1024,
            death_rate: 0.0,
            seed: 0,
        }
    }

    /// A symmetric transient-fault configuration: write and erase failures
    /// at `rate`, 10% of erase failures permanent.
    pub fn with_rate(rate: f64, seed: u64) -> Self {
        FaultConfig {
            write_fail_rate: rate,
            erase_fail_rate: rate,
            permanent_rate: 0.1,
            seed,
            ..FaultConfig::none()
        }
    }

    /// Adds a power-failure schedule with the given mean interval.
    pub fn with_power_failures(mut self, mean: SimDuration) -> Self {
        self.power_fail_mean = Some(mean);
        self
    }

    /// Adds a whole-device death rate (deaths per device-hour).
    pub fn with_death_rate(mut self, rate: f64) -> Self {
        self.death_rate = rate;
        self
    }

    /// True if this configuration can never inject anything.
    pub fn is_quiet(&self) -> bool {
        self.write_fail_rate == 0.0
            && self.erase_fail_rate == 0.0
            && self.power_fail_mean.is_none()
            && self.death_rate == 0.0
    }

    /// Checks every fault knob's rule: the fault rates are probabilities,
    /// the death rate a rate, the power-fail mean a period, and the retries
    /// (each costs time) and FAT bytes (read on recovery) are capped.
    pub fn validate(&self) -> Result<(), KnobError> {
        Rule::Probability.check("write_fail_rate", self.write_fail_rate)?;
        Rule::Probability.check("erase_fail_rate", self.erase_fail_rate)?;
        Rule::Probability.check("permanent_rate", self.permanent_rate)?;
        Rule::AtMost("64 retries", 64).check("max_retries", self.max_retries)?;
        Rule::AtMost("1 GiB", 1 << 30).check("fat_scan_bytes", self.fat_scan_bytes as f64)?;
        Rule::Rate.check("death_rate", self.death_rate)?;
        match self.power_fail_mean {
            Some(mean) => Rule::Period.check("power_fail_mean", mean.as_secs_f64()),
            None => Ok(()),
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// The outcome of one segment-erase attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EraseOutcome {
    /// The erasure succeeded first try.
    Clean,
    /// The erasure succeeded after this many retried pulses.
    Retried(u32),
    /// The segment failed permanently and must be retired.
    Permanent,
}

/// A deterministic stream of device-fault decisions.
///
/// # Examples
///
/// ```
/// use mobistore_sim::fault::{FaultConfig, FaultPlan};
///
/// let mut a = FaultPlan::new(FaultConfig::with_rate(0.5, 42));
/// let mut b = FaultPlan::new(FaultConfig::with_rate(0.5, 42));
/// let xs: Vec<u32> = (0..32).map(|_| a.write_retries()).collect();
/// let ys: Vec<u32> = (0..32).map(|_| b.write_retries()).collect();
/// assert_eq!(xs, ys, "same seed, same fault schedule");
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: SimRng,
}

impl FaultPlan {
    /// Creates a plan over the device-fault stream of `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics where [`FaultConfig::validate`] refuses `config`.
    pub fn new(config: FaultConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        FaultPlan {
            rng: SimRng::seed_with_stream(config.seed, DEVICE_FAULT_STREAM),
            config,
        }
    }

    /// A plan that injects nothing (and draws nothing).
    pub fn quiet() -> Self {
        FaultPlan::new(FaultConfig::none())
    }

    /// Returns the configuration the plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Draws the number of transient failures a write suffers before
    /// succeeding, in `0..=max_retries`. Zero-rate plans return 0 without
    /// consuming randomness.
    pub fn write_retries(&mut self) -> u32 {
        let rate = self.config.write_fail_rate;
        if rate == 0.0 {
            return 0;
        }
        let mut n = 0;
        while n < self.config.max_retries && self.rng.chance(rate) {
            n += 1;
        }
        n
    }

    /// Draws the outcome of a segment erasure. Zero-rate plans return
    /// [`EraseOutcome::Clean`] without consuming randomness.
    pub fn erase_outcome(&mut self) -> EraseOutcome {
        let rate = self.config.erase_fail_rate;
        if rate == 0.0 || !self.rng.chance(rate) {
            return EraseOutcome::Clean;
        }
        if self.config.permanent_rate > 0.0 && self.rng.chance(self.config.permanent_rate) {
            return EraseOutcome::Permanent;
        }
        // First pulse failed; each further pulse fails with the same rate.
        let mut n = 1;
        while n < self.config.max_retries && self.rng.chance(rate) {
            n += 1;
        }
        EraseOutcome::Retried(n)
    }
}

/// A deterministic schedule of power-failure instants.
///
/// Separate from [`FaultPlan`] (and on its own RNG stream) so that the
/// power-failure timeline does not shift when device-level fault rates
/// change, and vice versa.
#[derive(Debug, Clone)]
pub struct PowerFailSchedule {
    mean: SimDuration,
    rng: SimRng,
    next_at: f64,
}

impl PowerFailSchedule {
    /// Builds the schedule from `config`, or `None` if power failures are
    /// disabled.
    ///
    /// # Panics
    ///
    /// Panics where [`FaultConfig::validate`] refuses `config`.
    pub fn from_config(config: &FaultConfig) -> Option<Self> {
        let mean = config.power_fail_mean?;
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut sched = PowerFailSchedule {
            mean,
            rng: SimRng::seed_with_stream(config.seed, POWER_FAULT_STREAM),
            next_at: 0.0,
        };
        sched.advance();
        Some(sched)
    }

    /// The instant of the next power failure, in seconds of simulated time.
    pub fn next_at_secs(&self) -> f64 {
        self.next_at
    }

    /// Consumes the pending failure and schedules the one after it.
    pub fn advance(&mut self) {
        self.next_at += self.rng.exponential(self.mean.as_secs_f64());
    }
}

/// A deterministic schedule of whole-device permanent deaths for an
/// erasure-coded array's children.
///
/// Each child's death instant is an independent exponential first-arrival
/// at [`FaultConfig::death_rate`] deaths per device-hour, drawn in child
/// order from a dedicated RNG stream so the schedule is a pure function
/// of `(seed, child index)` — independent of worker count, op order, and
/// the write/erase/power fault streams. A zero rate draws nothing, so a
/// death-free array is bit-for-bit identical to one built without the
/// schedule.
#[derive(Debug, Clone)]
pub struct DeathSchedule {
    deaths: Vec<Option<SimTime>>,
}

impl DeathSchedule {
    /// Draws a death instant for each of `devices` children; one past the
    /// simulated clock's end never comes.
    ///
    /// # Panics
    ///
    /// Panics where [`FaultConfig::validate`] refuses `config`.
    pub fn new(config: &FaultConfig, devices: usize) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let deaths = if config.death_rate == 0.0 {
            vec![None; devices]
        } else {
            let mut rng = SimRng::seed_with_stream(config.seed, DEVICE_DEATH_STREAM);
            let mean_secs = 3600.0 / config.death_rate;
            (0..devices)
                .map(|_| {
                    SimDuration::try_from_secs_f64(rng.exponential(mean_secs))
                        .map(|d| SimTime::ZERO + d)
                })
                .collect()
        };
        DeathSchedule { deaths }
    }

    /// A schedule in which nothing ever dies.
    pub fn quiet(devices: usize) -> Self {
        DeathSchedule {
            deaths: vec![None; devices],
        }
    }

    /// Builds a schedule from explicit per-device death instants. Test
    /// and torture harnesses inject exact loss patterns (e.g. precisely
    /// `m` deaths) this way instead of hunting for a seed.
    pub fn explicit(deaths: Vec<Option<SimTime>>) -> Self {
        DeathSchedule { deaths }
    }

    /// The death instant of `device`, or `None` if it never dies.
    pub fn death_of(&self, device: usize) -> Option<SimTime> {
        self.deaths.get(device).copied().flatten()
    }

    /// True if `device` has died at or before `at`.
    pub fn dead_by(&self, device: usize, at: SimTime) -> bool {
        matches!(self.death_of(device), Some(d) if d <= at)
    }

    /// Number of children covered by the schedule.
    pub fn len(&self) -> usize {
        self.deaths.len()
    }

    /// True if the schedule covers no children.
    pub fn is_empty(&self) -> bool {
        self.deaths.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_fires() {
        let mut plan = FaultPlan::quiet();
        for _ in 0..1_000 {
            assert_eq!(plan.write_retries(), 0);
            assert_eq!(plan.erase_outcome(), EraseOutcome::Clean);
        }
        assert!(plan.config().is_quiet());
        assert!(PowerFailSchedule::from_config(&FaultConfig::none()).is_none());
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::with_rate(0.3, 7).with_power_failures(SimDuration::from_secs(100));
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        for _ in 0..256 {
            assert_eq!(a.write_retries(), b.write_retries());
            assert_eq!(a.erase_outcome(), b.erase_outcome());
        }
        let mut pa = PowerFailSchedule::from_config(&cfg).unwrap();
        let mut pb = PowerFailSchedule::from_config(&cfg).unwrap();
        for _ in 0..64 {
            assert_eq!(pa.next_at_secs(), pb.next_at_secs());
            pa.advance();
            pb.advance();
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::new(FaultConfig::with_rate(0.3, 1));
        let mut b = FaultPlan::new(FaultConfig::with_rate(0.3, 2));
        let xs: Vec<u32> = (0..64).map(|_| a.write_retries()).collect();
        let ys: Vec<u32> = (0..64).map(|_| b.write_retries()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn retry_rate_tracks_configuration() {
        let mut plan = FaultPlan::new(FaultConfig::with_rate(0.01, 3));
        let fails: u32 = (0..100_000).map(|_| plan.write_retries()).sum();
        // Expected ~1000 transient failures at a 1% rate.
        assert!((600..1500).contains(&fails), "fails {fails}");
    }

    #[test]
    fn erase_outcomes_cover_all_classes() {
        let mut plan = FaultPlan::new(FaultConfig {
            erase_fail_rate: 0.5,
            permanent_rate: 0.2,
            ..FaultConfig::none()
        });
        let mut clean = 0;
        let mut retried = 0;
        let mut permanent = 0;
        for _ in 0..10_000 {
            match plan.erase_outcome() {
                EraseOutcome::Clean => clean += 1,
                EraseOutcome::Retried(n) => {
                    assert!(n >= 1 && n <= plan.config().max_retries);
                    retried += 1;
                }
                EraseOutcome::Permanent => permanent += 1,
            }
        }
        assert!(clean > 4_000, "clean {clean}");
        assert!(retried > 3_000, "retried {retried}");
        // ~50% fail x ~20% of those permanent = ~10%.
        assert!((500..1_500).contains(&permanent), "permanent {permanent}");
    }

    #[test]
    fn power_failures_are_exponential_with_mean() {
        let cfg =
            FaultConfig::with_rate(0.0, 11).with_power_failures(SimDuration::from_secs(1_000));
        let mut sched = PowerFailSchedule::from_config(&cfg).unwrap();
        let mut last = 0.0;
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += sched.next_at_secs() - last;
            last = sched.next_at_secs();
            sched.advance();
        }
        let mean = sum / n as f64;
        assert!((mean - 1_000.0).abs() < 50.0, "mean interval {mean}");
    }

    #[test]
    fn quiet_death_schedule_draws_nothing() {
        let sched = DeathSchedule::new(&FaultConfig::none(), 6);
        assert_eq!(sched.len(), 6);
        for i in 0..6 {
            assert_eq!(sched.death_of(i), None);
            assert!(!sched.dead_by(i, SimTime::from_secs_f64(1e9)));
        }
    }

    #[test]
    fn death_schedule_is_deterministic_and_seed_sensitive() {
        let cfg = FaultConfig::none().with_death_rate(2.0);
        let a = DeathSchedule::new(&FaultConfig { seed: 9, ..cfg }, 8);
        let b = DeathSchedule::new(&FaultConfig { seed: 9, ..cfg }, 8);
        let c = DeathSchedule::new(&FaultConfig { seed: 10, ..cfg }, 8);
        let at: Vec<_> = (0..8).map(|i| a.death_of(i)).collect();
        let bt: Vec<_> = (0..8).map(|i| b.death_of(i)).collect();
        let ct: Vec<_> = (0..8).map(|i| c.death_of(i)).collect();
        assert_eq!(at, bt);
        assert_ne!(at, ct);
        assert!(at.iter().all(|t| t.is_some()));
    }

    #[test]
    fn death_rate_sets_the_mean() {
        // 1 death per device-hour => mean first-arrival of 3600 s.
        let cfg = FaultConfig {
            death_rate: 1.0,
            seed: 5,
            ..FaultConfig::none()
        };
        let sched = DeathSchedule::new(&cfg, 10_000);
        let mean = (0..10_000)
            .map(|i| sched.death_of(i).unwrap().as_secs_f64())
            .sum::<f64>()
            / 10_000.0;
        assert!((mean - 3600.0).abs() < 150.0, "mean death time {mean}");
        assert!(!cfg.is_quiet());
    }

    #[test]
    fn dead_by_respects_the_instant() {
        let cfg = FaultConfig {
            death_rate: 4.0,
            seed: 3,
            ..FaultConfig::none()
        };
        let sched = DeathSchedule::new(&cfg, 4);
        for i in 0..4 {
            let t = sched.death_of(i).unwrap();
            assert!(sched.dead_by(i, t));
            assert!(!sched.dead_by(i, t - SimDuration::from_nanos(1)));
        }
    }

    #[test]
    #[should_panic(expected = "death_rate out of range")]
    fn death_rate_is_validated() {
        let _ = DeathSchedule::new(
            &FaultConfig {
                death_rate: -1.0,
                ..FaultConfig::none()
            },
            2,
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rates_are_validated() {
        let _ = FaultPlan::new(FaultConfig {
            write_fail_rate: 1.5,
            ..FaultConfig::none()
        });
    }
}
