//! Deterministic bit-error injection and ECC classification.
//!
//! The paper's endurance story counts erase cycles (§2.3, §5.2); real
//! flash also degrades *silently* between erasures: raw bit errors
//! accumulate with program/erase wear and with retention time, and the
//! host survives them only through ECC, bounded read-retry, scrubbing and
//! remapping. [`IntegrityPlan`] is the seeded source of those raw-error
//! draws, and the pure [`IntegrityConfig::classify`] step turns a raw
//! error count into the controller's verdict.
//!
//! Like [`fault`](crate::fault), the plan is deterministic and
//! parallel-safe by construction: it draws from its own RNG stream, a
//! `(seed, stream)` pair fully determines every error, and a quiet
//! (zero-rate) plan draws no random numbers at all — so a zero-BER
//! configuration is bit-for-bit indistinguishable from a build without
//! the integrity model.
//!
//! The error model: a read of a block in a segment with erase count `e`,
//! last written `r` hours ago, sees a Poisson-distributed number of raw
//! bit errors with mean
//!
//! ```text
//! λ = base_errors + errors_per_erase × e + retention_per_hour × r
//! ```
//!
//! sampled by single-uniform CDF inversion (one draw per classified
//! read). The verdict is then a pure function of the raw count against
//! the ECC budget and retry threshold.

use crate::rng::SimRng;
use crate::rule::{KnobError, Rule};
use crate::time::SimDuration;

/// RNG stream selector for bit-error draws; distinct from the fault
/// streams so error schedules and fault schedules never perturb each
/// other.
const INTEGRITY_STREAM: u64 = 0x000f_a017_0003;

/// Upper bound on raw errors a single draw can report; far beyond any
/// retry threshold, so the cap only stops the inversion loop when λ is
/// enormous.
const MAX_RAW_ERRORS: u32 = 64;

/// Rates and budgets of the bit-error/ECC model. All growth rates
/// default to zero, which injects nothing and reproduces the
/// integrity-free simulator byte for byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrityConfig {
    /// Expected raw bit errors per block read on a fresh (never-erased,
    /// just-written) block.
    pub base_errors: f64,
    /// Additional expected errors per erase cycle the block's segment
    /// has accumulated (wear coupling).
    pub errors_per_erase: f64,
    /// Additional expected errors per hour since the block's segment was
    /// last written (retention loss).
    pub retention_per_hour: f64,
    /// Raw errors the ECC corrects transparently per block read.
    pub ecc_correctable: u32,
    /// Raw errors recoverable by bounded read-retry; a count in
    /// `(ecc_correctable, retry_threshold]` costs retries, beyond it the
    /// read is uncorrectable.
    pub retry_threshold: u32,
    /// Correctable reads with at least this many raw errors trigger
    /// relocate-and-remap of the block to the write frontier.
    pub relocate_threshold: u32,
    /// Interval between background scrub passes over one segment;
    /// `None` disables scrubbing.
    pub scrub_interval: Option<SimDuration>,
    /// Latency added to a read per block the ECC had to correct.
    pub correction_penalty: SimDuration,
    /// Seed for the bit-error stream. Independent of the workload and
    /// fault seeds so the same trace can be replayed under different
    /// error schedules.
    pub seed: u64,
}

impl IntegrityConfig {
    /// A configuration that injects nothing.
    pub fn none() -> Self {
        IntegrityConfig {
            base_errors: 0.0,
            errors_per_erase: 0.0,
            retention_per_hour: 0.0,
            ecc_correctable: 8,
            retry_threshold: 12,
            relocate_threshold: 6,
            scrub_interval: None,
            correction_penalty: SimDuration::from_micros(20),
            seed: 0,
        }
    }

    /// A wear-coupled configuration: `rate` expected base errors per
    /// read, a quarter of that per erase cycle, an eighth per retention
    /// hour.
    pub fn with_growth(rate: f64, seed: u64) -> Self {
        IntegrityConfig {
            base_errors: rate,
            errors_per_erase: rate / 4.0,
            retention_per_hour: rate / 8.0,
            seed,
            ..IntegrityConfig::none()
        }
    }

    /// Enables background scrubbing with the given pass interval.
    pub fn with_scrub(mut self, interval: SimDuration) -> Self {
        self.scrub_interval = Some(interval);
        self
    }

    /// True if this configuration can never produce a raw bit error.
    /// (Scrubbing may still be enabled: scrub passes over an error-free
    /// card cost idle time and energy but find nothing.)
    pub fn is_quiet(&self) -> bool {
        self.base_errors == 0.0 && self.errors_per_erase == 0.0 && self.retention_per_hour == 0.0
    }

    /// The expected raw error count for a block whose segment has
    /// `erase_count` erasures and was last written `since_write` ago.
    pub fn expected_errors(&self, erase_count: u64, since_write: SimDuration) -> f64 {
        self.base_errors
            + self.errors_per_erase * erase_count as f64
            + self.retention_per_hour * (since_write.as_secs_f64() / 3600.0)
    }

    /// Classifies a raw error count against the ECC budget — a pure
    /// function, so replays and shadow checks agree with the device.
    pub fn classify(&self, errors: u32) -> ReadVerdict {
        if errors == 0 {
            ReadVerdict::Clean
        } else if errors <= self.ecc_correctable {
            ReadVerdict::Corrected { errors }
        } else if errors <= self.retry_threshold {
            ReadVerdict::Retried {
                errors,
                attempts: errors - self.ecc_correctable,
            }
        } else {
            ReadVerdict::Uncorrectable { errors }
        }
    }

    /// True if a block that read back with `errors` raw errors (and was
    /// recoverable) should be relocated to fresh cells.
    pub fn wants_relocation(&self, errors: u32) -> bool {
        errors >= self.relocate_threshold && errors <= self.retry_threshold
    }

    /// Checks every integrity knob's rule: the three growth rates are
    /// rates, the thresholds ordered `1 ≤ ecc ≤ retry` and `1 ≤ relocate`,
    /// the scrub interval a period, and the correction penalty capped.
    pub fn validate(&self) -> Result<(), KnobError> {
        Rule::Rate.check("base_errors", self.base_errors)?;
        Rule::Rate.check("errors_per_erase", self.errors_per_erase)?;
        Rule::Rate.check("retention_per_hour", self.retention_per_hour)?;
        Rule::Count.check("ecc_correctable", self.ecc_correctable)?;
        let ecc = u64::from(self.ecc_correctable);
        Rule::AtLeast("ecc_correctable", ecc).check("retry_threshold", self.retry_threshold)?;
        Rule::Count.check("relocate_threshold", self.relocate_threshold)?;
        let penalty = self.correction_penalty.as_secs_f64();
        Rule::AtMost("one second", 1).check("correction_penalty", penalty)?;
        match self.scrub_interval {
            Some(interval) => Rule::Period.check("scrub_interval", interval.as_secs_f64()),
            None => Ok(()),
        }
    }
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig::none()
    }
}

/// The controller's verdict on one block read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadVerdict {
    /// No raw errors.
    Clean,
    /// Raw errors within the ECC budget; corrected transparently at a
    /// fixed latency penalty.
    Corrected {
        /// Raw bit errors corrected.
        errors: u32,
    },
    /// Marginal: beyond the per-read ECC budget but recovered by bounded
    /// read-retry.
    Retried {
        /// Raw bit errors seen.
        errors: u32,
        /// Retry attempts the recovery cost.
        attempts: u32,
    },
    /// Beyond what ECC and retry can recover; the block's data is lost.
    Uncorrectable {
        /// Raw bit errors seen.
        errors: u32,
    },
}

/// A deterministic stream of raw-bit-error draws.
///
/// # Examples
///
/// ```
/// use mobistore_sim::integrity::{IntegrityConfig, IntegrityPlan};
/// use mobistore_sim::time::SimDuration;
///
/// let mut a = IntegrityPlan::new(IntegrityConfig::with_growth(2.0, 42));
/// let mut b = IntegrityPlan::new(IntegrityConfig::with_growth(2.0, 42));
/// let xs: Vec<u32> = (0..32).map(|_| a.raw_errors(5, SimDuration::ZERO)).collect();
/// let ys: Vec<u32> = (0..32).map(|_| b.raw_errors(5, SimDuration::ZERO)).collect();
/// assert_eq!(xs, ys, "same seed, same error schedule");
/// ```
#[derive(Debug, Clone)]
pub struct IntegrityPlan {
    config: IntegrityConfig,
    rng: SimRng,
}

impl IntegrityPlan {
    /// Creates a plan over the integrity stream of `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics where [`IntegrityConfig::validate`] refuses `config`.
    pub fn new(config: IntegrityConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        IntegrityPlan {
            rng: SimRng::seed_with_stream(config.seed, INTEGRITY_STREAM),
            config,
        }
    }

    /// A plan that injects nothing (and draws nothing).
    pub fn quiet() -> Self {
        IntegrityPlan::new(IntegrityConfig::none())
    }

    /// Returns the configuration the plan was built from.
    pub fn config(&self) -> &IntegrityConfig {
        &self.config
    }

    /// Draws the raw bit errors one block read sees, given the block's
    /// segment erase count and time since last write. Quiet plans return
    /// 0 without consuming randomness.
    pub fn raw_errors(&mut self, erase_count: u64, since_write: SimDuration) -> u32 {
        if self.config.is_quiet() {
            return 0;
        }
        let lambda = self.config.expected_errors(erase_count, since_write);
        poisson(lambda, self.rng.f64())
    }

    /// [`raw_errors`](Self::raw_errors) followed by
    /// [`classify`](IntegrityConfig::classify).
    pub fn classify_read(&mut self, erase_count: u64, since_write: SimDuration) -> ReadVerdict {
        let errors = self.raw_errors(erase_count, since_write);
        self.config.classify(errors)
    }
}

/// Poisson sample by CDF inversion from a single uniform in `[0, 1)`,
/// capped at [`MAX_RAW_ERRORS`]. When λ is so large that `e^(-λ)`
/// underflows to zero, the cap is returned — far past any retry
/// threshold, so the read is uncorrectable either way.
fn poisson(lambda: f64, u: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let mut p = (-lambda).exp();
    let mut cdf = p;
    let mut k = 0u32;
    while u >= cdf && k < MAX_RAW_ERRORS {
        k += 1;
        p *= lambda / f64::from(k);
        cdf += p;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_errs_and_draws_nothing() {
        let mut plan = IntegrityPlan::quiet();
        let before = plan.rng.clone().next_u32();
        for _ in 0..1_000 {
            assert_eq!(plan.raw_errors(1_000, SimDuration::from_days(365)), 0);
            assert_eq!(
                plan.classify_read(1_000, SimDuration::from_days(365)),
                ReadVerdict::Clean
            );
        }
        assert_eq!(
            plan.rng.next_u32(),
            before,
            "quiet plan consumed randomness"
        );
        assert!(plan.config().is_quiet());
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = IntegrityConfig::with_growth(1.5, 7);
        let mut a = IntegrityPlan::new(cfg);
        let mut b = IntegrityPlan::new(cfg);
        for e in 0..256u64 {
            assert_eq!(
                a.raw_errors(e, SimDuration::from_hours(e)),
                b.raw_errors(e, SimDuration::from_hours(e))
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = IntegrityPlan::new(IntegrityConfig::with_growth(2.0, 1));
        let mut b = IntegrityPlan::new(IntegrityConfig::with_growth(2.0, 2));
        let xs: Vec<u32> = (0..64)
            .map(|_| a.raw_errors(3, SimDuration::ZERO))
            .collect();
        let ys: Vec<u32> = (0..64)
            .map(|_| b.raw_errors(3, SimDuration::ZERO))
            .collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn error_rate_grows_with_wear_and_retention() {
        let cfg = IntegrityConfig::with_growth(0.5, 3);
        let mut plan = IntegrityPlan::new(cfg);
        let n = 20_000;
        let fresh: u64 = (0..n)
            .map(|_| u64::from(plan.raw_errors(0, SimDuration::ZERO)))
            .sum();
        let worn: u64 = (0..n)
            .map(|_| u64::from(plan.raw_errors(40, SimDuration::from_hours(80))))
            .sum();
        let fresh_mean = fresh as f64 / n as f64;
        let worn_mean = worn as f64 / n as f64;
        assert!((fresh_mean - 0.5).abs() < 0.05, "fresh {fresh_mean}");
        // λ = 0.5 + 0.125·40 + 0.0625·80 = 10.5.
        assert!((worn_mean - 10.5).abs() < 0.5, "worn {worn_mean}");
    }

    #[test]
    fn classification_covers_all_bands() {
        let cfg = IntegrityConfig::none();
        assert_eq!(cfg.classify(0), ReadVerdict::Clean);
        assert_eq!(cfg.classify(8), ReadVerdict::Corrected { errors: 8 });
        assert_eq!(
            cfg.classify(11),
            ReadVerdict::Retried {
                errors: 11,
                attempts: 3
            }
        );
        assert_eq!(cfg.classify(13), ReadVerdict::Uncorrectable { errors: 13 });
        assert!(!cfg.wants_relocation(5));
        assert!(cfg.wants_relocation(6));
        assert!(cfg.wants_relocation(12));
        assert!(!cfg.wants_relocation(13), "lost data cannot be relocated");
    }

    #[test]
    fn poisson_inversion_is_monotone_in_u() {
        let mut last = 0;
        for i in 0..100 {
            let u = i as f64 / 100.0;
            let k = poisson(3.0, u);
            assert!(k >= last, "CDF inversion must be monotone");
            last = k;
        }
        assert_eq!(poisson(0.0, 0.999), 0);
        // Huge λ underflows e^-λ; the cap applies.
        assert_eq!(poisson(1e6, 0.5), MAX_RAW_ERRORS);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rates_are_validated() {
        let _ = IntegrityPlan::new(IntegrityConfig {
            base_errors: f64::NAN,
            ..IntegrityConfig::none()
        });
    }

    #[test]
    #[should_panic(expected = "retry_threshold")]
    fn thresholds_are_ordered() {
        let _ = IntegrityPlan::new(IntegrityConfig {
            retry_threshold: 2,
            ecc_correctable: 8,
            ..IntegrityConfig::none()
        });
    }
}
