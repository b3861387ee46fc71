//! Related-work cross-checks (§6).
//!
//! §6 summarises Wu & Zwaenepoel's eNVy result: *"at a utilization of
//! 80%, 45% of the time is spent erasing or copying data within flash,
//! while performance was severely degraded at higher utilizations."*
//! Our flash-card store tracks time per state, so the same quantity is
//! directly measurable: this runner drives the card with an eNVy-style
//! transaction workload (small uniform random overwrites, no locality —
//! TPC-A touches accounts uniformly) and reports the cleaning duty cycle
//! across utilizations.

use std::fmt;

use mobistore_device::params::intel_datasheet;
use mobistore_device::{Device, QueueDiscipline, Request};
use mobistore_flash::store::{
    CardState, CleanerMode, FlashCardConfig, FlashCardStore, VictimPolicy,
};
use mobistore_sim::obs::NoopObserver;
use mobistore_sim::rng::SimRng;
use mobistore_sim::time::{SimDuration, SimTime};
use mobistore_sim::units::MIB;

use crate::Scale;

/// One utilization point of the eNVy-style experiment.
#[derive(Debug, Clone)]
pub struct EnvyPoint {
    /// Storage utilization.
    pub utilization: f64,
    /// Fraction of busy time spent cleaning (copying + erasing).
    pub cleaning_fraction: f64,
    /// Mean write response in milliseconds.
    pub write_mean_ms: f64,
    /// Writes that stalled on the cleaner.
    pub cleaning_waits: u64,
}

/// The §6 eNVy cross-check.
#[derive(Debug, Clone)]
pub struct EnvyCheck {
    /// Points across utilizations.
    pub points: Vec<EnvyPoint>,
}

/// Utilizations swept (eNVy quotes 80%; it degrades "severely" above).
pub const UTILIZATIONS: [f64; 4] = [0.60, 0.80, 0.90, 0.95];

/// Runs the uniform-overwrite transaction workload at each utilization.
pub fn run(scale: Scale) -> EnvyCheck {
    let writes = ((200_000.0 * scale.fraction) as u64).max(2_000);
    let points = UTILIZATIONS
        .iter()
        .map(|&utilization| {
            // A 16-MB card of 1-KB blocks (128 segments): big enough for
            // stable statistics, small enough to stay fast.
            let mut card = FlashCardStore::new(FlashCardConfig {
                params: intel_datasheet(),
                block_size: 1024,
                capacity_bytes: 16 * MIB,
                mode: CleanerMode::Background,
                victim_policy: VictimPolicy::GreedyMinLive,
                queueing: QueueDiscipline::Fifo,
            });
            let live = (card.capacity_blocks() as f64 * utilization) as u64;
            card.preload_aged(0..live);

            // Uniform random overwrites, back-to-back with small think
            // time — a transaction-processing shape with no locality for
            // the cleaner to exploit (eNVy's TPC-A).
            let mut rng = SimRng::seed_with_stream(scale.seed, 0xe11);
            let mut now = SimTime::ZERO;
            let mut response = mobistore_sim::stats::OnlineStats::new();
            for _ in 0..writes {
                now += SimDuration::from_micros(500);
                let req = Request::blocks(rng.below(live), 1, 1024);
                let written = card.write(now, req, &mut NoopObserver);
                let svc = written.unwrap_or_else(|e| panic!("{e}"));
                response.record((svc.end - now).as_millis_f64());
                now = svc.end;
            }
            card.finish(now, &mut NoopObserver);

            let meter = card.meter();
            let clean = meter.category_time(CardState::Clean).as_secs_f64();
            let active = meter.category_time(CardState::Active).as_secs_f64();
            let busy = clean + active;
            EnvyPoint {
                utilization,
                cleaning_fraction: if busy > 0.0 { clean / busy } else { 0.0 },
                write_mean_ms: response.mean(),
                cleaning_waits: card.counters().cleaning_waits,
            }
        })
        .collect();
    EnvyCheck { points }
}

impl fmt::Display for EnvyCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Section 6 cross-check (eNVy): uniform-overwrite transactions on the flash card"
        )?;
        writeln!(
            f,
            "(eNVy: at 80% utilization, 45% of time erasing/copying; worse above)"
        )?;
        writeln!(
            f,
            "{:>6} {:>18} {:>14} {:>12}",
            "util%", "cleaning time %", "wr mean (ms)", "stalls"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>6.0} {:>18.1} {:>14.3} {:>12}",
                p.utilization * 100.0,
                p.cleaning_fraction * 100.0,
                p.write_mean_ms,
                p.cleaning_waits,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleaning_dominates_busy_time_at_high_utilization() {
        let check = run(Scale::quick());
        let at = |u: f64| {
            check
                .points
                .iter()
                .find(|p| (p.utilization - u).abs() < 1e-9)
                .expect("utilization point")
        };
        // The eNVy shape: substantial cleaning share at 80%, far more at
        // 95%, with severe write degradation.
        assert!(
            at(0.80).cleaning_fraction > 0.3,
            "{}",
            at(0.80).cleaning_fraction
        );
        assert!(at(0.95).cleaning_fraction > at(0.80).cleaning_fraction);
        assert!(at(0.95).write_mean_ms > 2.0 * at(0.60).write_mean_ms);
        // Cleaning share is a fraction.
        for p in &check.points {
            assert!((0.0..=1.0).contains(&p.cleaning_fraction));
        }
    }

    #[test]
    fn renders() {
        assert!(run(Scale::quick()).to_string().contains("cleaning time %"));
    }
}
