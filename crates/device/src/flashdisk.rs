//! The flash disk emulator model (SunDisk SDP series).
//!
//! A flash disk presents a conventional block interface and erases a single
//! 512-byte sector at a time (§2), so — unlike the flash card — it never
//! copies live data and is immune to storage utilization (§5.2). Two erase
//! policies are modeled (§5.3):
//!
//! * **on-demand** (SDP5/SDP10): each write erases its sectors inline; the
//!   quoted write bandwidth already includes the erasure;
//! * **asynchronous** (SDP5A): the device pre-erases dirty sectors during
//!   idle periods, so writes that find pre-erased sectors proceed at the
//!   fast write rate (400 Kbytes/s) instead of the combined
//!   erase-plus-write rate (≈ 109 Kbytes/s). Background erasure is
//!   suspended while the device serves requests.

use mobistore_sim::energy::{EnergyMeter, Joules};
use mobistore_sim::fault::RETRY_BACKOFF;
use mobistore_sim::integrity::{IntegrityConfig, IntegrityPlan, ReadVerdict};
use mobistore_sim::obs::{Event, Observer};
use mobistore_sim::price::{Cost, PriceTable};
use mobistore_sim::span::{Span, SpanKind};
use mobistore_sim::time::SimTime;

use crate::params::{ErasePolicy, FlashDiskParams};
use crate::{Device, DeviceError, ReadOutcome, Request, Service, WriteOutcome};

mobistore_sim::counter_set! {
    /// Counters the flash disk maintains alongside energy.
    pub struct FlashDiskCounters {
        /// Completed accesses.
        pub ops: u64 => "flashdisk.ops",
        /// Bytes read.
        pub bytes_read: u64 => "flashdisk.bytes_read",
        /// Bytes written.
        pub bytes_written: u64 => "flashdisk.bytes_written",
        /// Bytes written into sectors the background cleaner had pre-erased.
        pub bytes_pre_erased: u64 => "flashdisk.bytes_pre_erased",
        /// Bytes whose erasure had to happen inline with the write.
        pub bytes_erased_on_demand: u64 => "flashdisk.bytes_erased_on_demand",
        /// Power failures survived.
        pub power_failures: u64 => "flashdisk.power_failures",
        /// Total sim time spent re-scanning remap metadata after power loss.
        pub recovery_time: mobistore_sim::time::SimDuration => "flashdisk.recovery_ns",
        /// Read accesses whose raw bit errors the ECC corrected transparently.
        pub ecc_corrected: u64 => "flashdisk.ecc_corrected",
        /// Read-retry attempts spent recovering marginal reads.
        pub read_retries: u64 => "flashdisk.read_retries",
        /// Read accesses lost to uncorrectable bit errors.
        pub uncorrectable_reads: u64 => "flashdisk.uncorrectable_reads",
    }
}

/// A simulated flash disk emulator.
///
/// # Examples
///
/// ```
/// use mobistore_device::flashdisk::FlashDisk;
/// use mobistore_device::params::sdp5_datasheet;
/// use mobistore_device::{Device, Request};
/// use mobistore_sim::obs::NoopObserver;
/// use mobistore_sim::time::SimTime;
///
/// let mut fd = FlashDisk::new(sdp5_datasheet());
/// let (svc, _) = fd.read(SimTime::ZERO, Request::blocks(0, 1, 1024), &mut NoopObserver);
/// // 1.5 ms latency + 1 Kbyte at 600 Kbytes/s.
/// assert!((svc.end.as_secs_f64() - (0.0015 + 1.0 / 600.0)).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct FlashDisk {
    params: FlashDiskParams,
    queueing: crate::QueueDiscipline,
    /// A read's time and energy (the recovery scan's too).
    read: PriceTable,
    /// An on-demand write's time and energy.
    write: PriceTable,
    /// The transfer terms of an asynchronous write: the pre-erased rate,
    /// and the erase the deficit pays before it.
    pre_erased: PriceTable,
    erase: PriceTable,
    meter: EnergyMeter<FlashDiskState>,
    counters: FlashDiskCounters,
    free_at: SimTime,
    /// Bytes of pre-erased sectors available for fast writes.
    erased_pool: u64,
    /// Bytes of dirty sectors awaiting background erasure.
    garbage: u64,
    /// Bit-error/ECC plan for reads; quiet by default.
    integrity: IntegrityPlan,
    /// Sim time of the last completed write; the retention term of the
    /// bit-error model is measured from here (the flash disk remaps
    /// internally, so per-block placement is not modeled).
    last_write: SimTime,
}

/// Per-sector metadata the emulation layer re-reads after power loss (the
/// SDP controller's remap/erase-state headers).
const REMAP_HEADER_BYTES: u64 = 32;
/// The emulated sector size (§2: the SDP erases one 512-byte sector at a
/// time).
const SECTOR_BYTES: u64 = 512;

mobistore_sim::energy_states! {
    /// The flash disk's energy states, in report order.
    pub enum FlashDiskState {
        /// Reading and writing sectors, foreground erasures included.
        Active => "active",
        /// Pre-erasing sectors in the background (SDP5A).
        Erase => "erase",
        /// Powered with no request.
        Idle => "idle",
        /// Re-reading sector headers after a power failure.
        Recover => "recover",
    }
}

impl FlashDisk {
    /// Creates a flash disk; under [`ErasePolicy::Asynchronous`] the spare
    /// pool starts fully erased.
    pub fn new(params: FlashDiskParams) -> Self {
        let erased_pool = match params.erase_policy {
            ErasePolicy::OnDemand => 0,
            ErasePolicy::Asynchronous => params.spare_pool_bytes,
        };
        FlashDisk {
            read: PriceTable::new(
                params.access_latency,
                params.read_bandwidth,
                params.active_power,
            ),
            write: PriceTable::new(
                params.access_latency,
                params.write_bandwidth,
                params.active_power,
            ),
            pre_erased: PriceTable::transfer(params.pre_erased_write_bandwidth),
            erase: PriceTable::transfer(params.erase_bandwidth),
            params,
            queueing: crate::QueueDiscipline::Fifo,
            meter: EnergyMeter::new(),
            counters: FlashDiskCounters::default(),
            free_at: SimTime::ZERO,
            erased_pool,
            garbage: 0,
            integrity: IntegrityPlan::quiet(),
            last_write: SimTime::ZERO,
        }
    }

    /// Installs a bit-error/ECC plan built from `integrity`. A zero-rate
    /// configuration (the default) draws nothing and leaves behaviour
    /// bit-identical to a device without a plan. The flash disk ignores
    /// `scrub_interval`: its controller hides sector management, so there
    /// is no segment walk to schedule.
    ///
    /// # Panics
    ///
    /// Panics where [`IntegrityConfig::validate`] refuses `integrity`.
    pub fn with_integrity(mut self, integrity: IntegrityConfig) -> Self {
        self.integrity = IntegrityPlan::new(integrity);
        self
    }

    /// Sets the queue discipline (see [`crate::QueueDiscipline`]).
    pub fn with_queueing(mut self, discipline: crate::QueueDiscipline) -> Self {
        self.queueing = discipline;
        self
    }

    /// Returns the parameter set this device was built with.
    pub fn params(&self) -> &FlashDiskParams {
        &self.params
    }

    /// Returns the operation counters.
    pub fn counters(&self) -> FlashDiskCounters {
        self.counters
    }

    /// Returns total energy consumed so far.
    pub fn energy(&self) -> Joules {
        self.meter.total()
    }

    /// Returns the energy meter for per-state breakdowns.
    pub fn meter(&self) -> &EnergyMeter<FlashDiskState> {
        &self.meter
    }

    /// Returns the bytes currently pre-erased and ready for fast writes.
    pub fn erased_pool(&self) -> u64 {
        self.erased_pool
    }

    /// Zeroes energy and counters while keeping device state; used at the
    /// warm-up boundary (§4.2).
    pub fn reset_metrics(&mut self) {
        self.meter = EnergyMeter::new();
        self.counters = FlashDiskCounters::default();
    }

    /// The time and energy of a write of `bytes`. An asynchronous write
    /// takes what it can from the erased pool and erases the deficit
    /// inline.
    fn write_cost(&mut self, bytes: u64) -> Cost {
        match self.params.erase_policy {
            ErasePolicy::OnDemand => self.write.price(bytes),
            ErasePolicy::Asynchronous => {
                let from_pool = bytes.min(self.erased_pool);
                let deficit = bytes - from_pool;
                self.erased_pool -= from_pool;
                // Overwritten sectors become garbage for the background
                // cleaner.
                self.garbage += bytes;
                self.counters.bytes_pre_erased += from_pool;
                self.counters.bytes_erased_on_demand += deficit;
                let time = self.params.access_latency
                    + self.pre_erased.price(from_pool).time
                    + self.erase.price(deficit).time
                    + self.pre_erased.price(deficit).time;
                Cost {
                    time,
                    energy: self.params.active_power * time,
                }
            }
        }
    }

    /// Settles the gap `[free_at, now]`: background erasure first (if the
    /// policy is asynchronous and there is garbage), idle power for the
    /// remainder. Returns when the device can start a new request.
    fn settle<O: Observer>(&mut self, now: SimTime, obs: &mut O) -> SimTime {
        if now <= self.free_at {
            // No idle gap to account; FIFO queues, open-loop serves at
            // arrival (the paper's independent-operation model).
            return match self.queueing {
                crate::QueueDiscipline::Fifo => self.free_at,
                crate::QueueDiscipline::OpenLoop => now,
            };
        }
        let gap = now - self.free_at;
        let mut idle = gap;
        if self.params.erase_policy == ErasePolicy::Asynchronous && self.garbage > 0 {
            let needed = self.params.erase_bandwidth.transfer_time(self.garbage);
            let spent = needed.min(gap);
            let erased = if spent == needed {
                self.garbage
            } else {
                self.params
                    .erase_bandwidth
                    .bytes_in(spent)
                    .min(self.garbage)
            };
            self.garbage -= erased;
            self.erased_pool += erased;
            if erased > 0 {
                obs.record(&Event::FlashPreErase {
                    t: self.free_at,
                    bytes: erased,
                });
                obs.span(&Span::new(
                    SpanKind::FlashErase { bytes: erased },
                    self.free_at,
                    self.free_at + spent,
                ));
            }
            self.meter
                .charge_for(FlashDiskState::Erase, self.params.active_power, spent);
            idle = gap - spent;
        }
        self.meter
            .charge_for(FlashDiskState::Idle, self.params.idle_power, idle);
        self.free_at = now;
        now
    }
}

impl Device for FlashDisk {
    /// One bit-error classification per access (the controller remaps
    /// sectors internally, so errors are modeled per request, with the
    /// retention clock reset by any write); the request's `lbn` only labels
    /// the events. Corrections ([`Event::EccCorrected`]) and bounded
    /// retries ([`Event::ReadRetry`]) cost time; an error count past the
    /// ECC budget and the read-retry bound yields
    /// [`DeviceError::Uncorrectable`] ([`Event::UncorrectableRead`]) —
    /// reported, never silent.
    fn read<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O) -> ReadOutcome {
        let (lbn, bytes) = (req.lbn, req.bytes);
        let start = self.settle(now, obs);
        let cost = self.read.price(bytes);
        let mut total = cost.time;
        let mut retry = None;
        let mut result = Ok(());
        let verdict = self
            .integrity
            .classify_read(0, start.saturating_since(self.last_write));
        match verdict {
            ReadVerdict::Clean => {}
            ReadVerdict::Corrected { errors } => {
                self.counters.ecc_corrected += 1;
                total += self.integrity.config().correction_penalty;
                obs.record(&Event::EccCorrected {
                    t: start,
                    lbn,
                    errors,
                });
            }
            ReadVerdict::Retried {
                errors: _,
                attempts,
            } => {
                self.counters.read_retries += u64::from(attempts);
                // Each retry backs off and re-runs the transfer.
                let transfer = cost.time - self.params.access_latency;
                let extra = (RETRY_BACKOFF + transfer) * u64::from(attempts);
                total += extra;
                retry = Some((attempts, extra));
                obs.record(&Event::ReadRetry {
                    t: start,
                    lbn,
                    attempts,
                });
            }
            ReadVerdict::Uncorrectable { errors } => {
                self.counters.uncorrectable_reads += 1;
                obs.record(&Event::UncorrectableRead {
                    t: start,
                    lbn,
                    errors,
                });
                result = Err(DeviceError::Uncorrectable { lbn, errors });
            }
        }
        let end = start + total;
        let energy = self.read.energy(cost, total);
        self.meter
            .charge_timed(FlashDiskState::Active, energy, total);
        obs.span(&Span::new(SpanKind::FlashRead { bytes }, start, end));
        if let Some((attempts, extra)) = retry {
            obs.span(&Span::new(
                SpanKind::EccRetry { lbn, attempts },
                end - extra,
                end,
            ));
        }
        self.counters.ops += 1;
        self.counters.bytes_read += bytes;
        self.free_at = self.free_at.max(end);
        (Service { start, end }, result)
    }

    /// Writes never fail: the emulation layer always has sectors to erase.
    /// Background pre-erasure in the idle gap before the write is reported
    /// as [`Event::FlashPreErase`].
    fn write<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O) -> WriteOutcome {
        let bytes = req.bytes;
        let start = self.settle(now, obs);
        let cost = self.write_cost(bytes);
        let end = start + cost.time;
        self.meter
            .charge_timed(FlashDiskState::Active, cost.energy, cost.time);

        self.counters.ops += 1;
        self.counters.bytes_written += bytes;
        self.last_write = self.last_write.max(end);
        obs.span(&Span::new(SpanKind::FlashProgram { bytes }, start, end));
        // Open-loop accesses may overlap; keep the marker monotone.
        self.free_at = self.free_at.max(end);
        Ok(Service { start, end })
    }

    /// The emulation layer keeps no block map the host can trim.
    fn trim<O: Observer>(&mut self, _now: SimTime, _req: Request, _obs: &mut O) {}

    /// Loses power at `now` and recovers.
    ///
    /// Flash is non-volatile, so the pre-erased pool and pending garbage
    /// survive; an in-flight access is abandoned. The emulation layer hides
    /// recovery inside the controller: on power-up it re-reads the remap
    /// and erase-state headers of its spare pool (one
    /// `REMAP_HEADER_BYTES` header per `SECTOR_BYTES` sector) before
    /// serving requests. Returns the recovery interval.
    fn power_fail<O: Observer>(&mut self, now: SimTime, obs: &mut O) -> Service {
        if now < self.free_at {
            // The in-flight access dies with the power; the controller is
            // free the instant power returns.
            self.free_at = now;
        } else {
            let _ = self.settle(now, obs);
        }
        let sectors = self.params.spare_pool_bytes.div_ceil(SECTOR_BYTES);
        let scan = self.read.price(sectors * REMAP_HEADER_BYTES);
        let end = now + scan.time;
        self.meter
            .charge_timed(FlashDiskState::Recover, scan.energy, scan.time);
        self.counters.power_failures += 1;
        self.counters.recovery_time += scan.time;
        self.free_at = end;
        Service { start: now, end }
    }

    /// Settles the trailing idle period, reporting any final background
    /// erasure.
    fn finish<O: Observer>(&mut self, end: SimTime, obs: &mut O) {
        let _ = self.settle(end, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{sdp10_measured, sdp5_datasheet, sdp5a_datasheet};
    use crate::testing::{assert_prices_match, drive_twins};
    use mobistore_sim::energy::Watts;
    use mobistore_sim::obs::NoopObserver;
    use mobistore_sim::time::SimDuration;
    use mobistore_sim::units::KIB;

    impl FlashDisk {
        /// Replaces the price tables with fresh ones, which know no size.
        fn forget_prices(&mut self) {
            let p = &self.params;
            self.read = PriceTable::new(p.access_latency, p.read_bandwidth, p.active_power);
            self.write = PriceTable::new(p.access_latency, p.write_bandwidth, p.active_power);
            self.pre_erased = PriceTable::transfer(p.pre_erased_write_bandwidth);
            self.erase = PriceTable::transfer(p.erase_bandwidth);
        }
    }

    #[test]
    fn price_tables_price_every_size_as_the_formula() {
        let mut fd = FlashDisk::new(sdp5a_datasheet());
        let p = fd.params.clone();
        let (latency, power) = (p.access_latency, p.active_power);
        for (table, latency, bandwidth, power) in [
            (&mut fd.read, latency, p.read_bandwidth, power),
            (&mut fd.write, latency, p.write_bandwidth, power),
            (
                &mut fd.pre_erased,
                SimDuration::ZERO,
                p.pre_erased_write_bandwidth,
                Watts::ZERO,
            ),
            (
                &mut fd.erase,
                SimDuration::ZERO,
                p.erase_bandwidth,
                Watts::ZERO,
            ),
        ] {
            assert_prices_match(table, latency, bandwidth, power, 512);
        }
    }

    #[test]
    fn memoized_prices_match_a_twin_that_prices_every_op_afresh() {
        // Errors around the ECC budget, so that reads are corrected,
        // retried and lost, and corrections and retries lengthen them.
        let integrity = IntegrityConfig {
            base_errors: 6.0,
            seed: 24,
            ..IntegrityConfig::none()
        };
        for params in [sdp5_datasheet(), sdp5a_datasheet()] {
            let mut memo = FlashDisk::new(params).with_integrity(integrity);
            let mut twin = memo.clone();
            drive_twins(&mut memo, &mut twin, 512, 40_000, FlashDisk::forget_prices);
            assert_eq!(memo.meter, twin.meter);
            assert_eq!(memo.counters, twin.counters);
            let c = memo.counters;
            assert!(c.ecc_corrected > 0 && c.read_retries > 0 && c.uncorrectable_reads > 0);
        }
    }

    fn write(fd: &mut FlashDisk, now: SimTime, bytes: u64) -> Service {
        let written = fd.write(now, Request::new(0, bytes), &mut NoopObserver);
        written.expect("flash disk writes never fail")
    }

    fn read(fd: &mut FlashDisk, now: SimTime, lbn: u64, bytes: u64) -> ReadOutcome {
        fd.read(now, Request::new(lbn, bytes), &mut NoopObserver)
    }

    #[test]
    fn on_demand_write_uses_combined_rate() {
        let mut fd = FlashDisk::new(sdp5_datasheet());
        let svc = write(&mut fd, SimTime::ZERO, 109 * KIB);
        // ~1 s transfer at the combined 109.09 Kbytes/s rate + 1.5 ms.
        let secs = (svc.end - svc.start).as_secs_f64();
        assert!((secs - (0.0015 + 109.0 / 109.0909)).abs() < 1e-3, "{secs}");
    }

    #[test]
    fn sdp10_write_is_slow() {
        let mut fd = FlashDisk::new(sdp10_measured());
        let svc = write(&mut fd, SimTime::ZERO, 40 * KIB);
        assert!(((svc.end - svc.start).as_secs_f64() - 1.0015).abs() < 1e-6);
    }

    #[test]
    fn async_write_from_pool_is_fast() {
        let mut fd = FlashDisk::new(sdp5a_datasheet());
        let svc = write(&mut fd, SimTime::ZERO, 400 * KIB);
        // Entirely from the 512-Kbyte pre-erased pool: 1 s at 400 Kbytes/s.
        let secs = (svc.end - svc.start).as_secs_f64();
        assert!((secs - 1.0015).abs() < 1e-6, "{secs}");
        assert_eq!(fd.counters().bytes_pre_erased, 400 * KIB);
        assert_eq!(fd.erased_pool(), 112 * KIB);
    }

    #[test]
    fn async_write_beyond_pool_pays_inline_erase() {
        let mut fd = FlashDisk::new(sdp5a_datasheet());
        // Exhaust the 512-Kbyte pool, then write more with no idle time to
        // replenish it.
        let first = write(&mut fd, SimTime::ZERO, 512 * KIB);
        let svc = write(&mut fd, first.end, 150 * KIB);
        // Deficit of 150 Kbytes: erase 1 s at 150 + write at 400.
        let secs = (svc.end - svc.start).as_secs_f64();
        let expect = 0.0015 + 1.0 + 150.0 / 400.0;
        assert!((secs - expect).abs() < 1e-6, "{secs} vs {expect}");
        assert_eq!(fd.counters().bytes_erased_on_demand, 150 * KIB);
    }

    #[test]
    fn idle_gap_replenishes_pool() {
        let mut fd = FlashDisk::new(sdp5a_datasheet());
        let first = write(&mut fd, SimTime::ZERO, 512 * KIB);
        // 1 s of idle erases 150 Kbytes of the garbage.
        let later = first.end + SimDuration::from_secs(1);
        let svc = write(&mut fd, later, 150 * KIB);
        let secs = (svc.end - svc.start).as_secs_f64();
        let expect = 0.0015 + 150.0 / 400.0;
        assert!((secs - expect).abs() < 1e-4, "{secs} vs {expect}");
    }

    #[test]
    fn async_speedup_matches_section_5_3() {
        // The paper: decoupling erasure from writes improves write response
        // by ~2.5x. Compare transfer-dominated writes.
        let mut sync = FlashDisk::new(sdp5_datasheet());
        let mut asy = FlashDisk::new(sdp5a_datasheet());
        let t_sync = write(&mut sync, SimTime::ZERO, 32 * KIB);
        let t_asy = write(&mut asy, SimTime::ZERO, 32 * KIB);
        let ratio =
            (t_sync.end - t_sync.start).as_secs_f64() / (t_asy.end - t_asy.start).as_secs_f64();
        assert!((2.0..4.0).contains(&ratio), "speedup {ratio}");
    }

    #[test]
    fn breakdown_names_its_states_in_report_order() {
        let fd = FlashDisk::new(sdp5_datasheet());
        let names: Vec<_> = fd.meter().breakdown_timed().map(|(n, ..)| n).collect();
        assert_eq!(names, ["active", "erase", "idle", "recover"]);
    }

    #[test]
    fn energy_covers_idle_and_erase() {
        let mut fd = FlashDisk::new(sdp5a_datasheet());
        let first = write(&mut fd, SimTime::ZERO, 512 * KIB);
        fd.finish(first.end + SimDuration::from_secs(10), &mut NoopObserver);
        let m = fd.meter();
        assert!(m.category(FlashDiskState::Active).get() > 0.0);
        assert!(
            m.category(FlashDiskState::Erase).get() > 0.0,
            "background erase consumed energy"
        );
        assert!(m.category(FlashDiskState::Idle).get() > 0.0);
        // 512 Kbytes of garbage erase in 512/150 = 3.41 s of the 10 s gap.
        let erase_j = m.category(FlashDiskState::Erase).get();
        assert!((erase_j - 0.36 * (512.0 / 150.0)).abs() < 0.01, "{erase_j}");
    }

    #[test]
    fn energy_async_vs_sync_is_comparable() {
        // §5.3: asynchronous cleaning has minimal impact on energy.
        let mut sync = FlashDisk::new(sdp5_datasheet());
        let mut asy = FlashDisk::new(sdp5a_datasheet());
        let mut t1 = SimTime::ZERO;
        let mut t2 = SimTime::ZERO;
        for _ in 0..50 {
            t1 = write(&mut sync, t1 + SimDuration::from_secs(1), 16 * KIB).end;
            t2 = write(&mut asy, t2 + SimDuration::from_secs(1), 16 * KIB).end;
        }
        let end = t1.max(t2) + SimDuration::from_secs(1);
        sync.finish(end, &mut NoopObserver);
        asy.finish(end, &mut NoopObserver);
        let (e1, e2) = (sync.energy().get(), asy.energy().get());
        assert!((e1 - e2).abs() / e1 < 0.1, "sync {e1} vs async {e2}");
    }

    #[test]
    fn reads_queue_behind_busy_device() {
        let mut fd = FlashDisk::new(sdp5_datasheet());
        let w = write(&mut fd, SimTime::ZERO, 109 * KIB); // ~1 s
        let r = read(&mut fd, SimTime::from_nanos(1_000_000), 0, KIB).0;
        assert_eq!(r.start, w.end);
    }

    #[test]
    fn power_fail_preserves_pool_and_charges_recovery() {
        let mut fd = FlashDisk::new(sdp5a_datasheet());
        let first = write(&mut fd, SimTime::ZERO, 100 * KIB);
        let pool = fd.erased_pool();
        let svc = fd.power_fail(first.end, &mut NoopObserver);
        assert!(svc.end > svc.start, "remap scan takes time");
        assert_eq!(fd.erased_pool(), pool, "flash state is non-volatile");
        assert_eq!(fd.counters().power_failures, 1);
        assert_eq!(fd.counters().recovery_time, svc.end - svc.start);
        assert!(fd.meter().category(FlashDiskState::Recover).get() > 0.0);

        // A crash mid-access abandons the in-flight request: the device is
        // free for recovery at the crash instant, not at the access's
        // would-be completion.
        let w = write(&mut fd, svc.end, 100 * KIB);
        let mid = w.start + SimDuration::from_nanos((w.end - w.start).as_nanos() / 2);
        let svc2 = fd.power_fail(mid, &mut NoopObserver);
        assert_eq!(svc2.start, mid);
        let after = read(&mut fd, svc2.end, 0, KIB).0;
        assert_eq!(after.start, svc2.end, "device serves as soon as recovered");
    }

    #[test]
    fn quiet_integrity_reads_are_byte_identical() {
        let mut plain = FlashDisk::new(sdp5_datasheet());
        let mut quiet = FlashDisk::new(sdp5_datasheet()).with_integrity(IntegrityConfig::none());
        for i in 0..20u64 {
            let t = SimTime::from_secs_f64(i as f64);
            let (a, _) = read(&mut plain, t, i, 4 * KIB);
            let (b, res) = read(&mut quiet, t, i, 4 * KIB);
            assert_eq!(a, b);
            assert!(res.is_ok());
        }
        assert_eq!(plain.counters(), quiet.counters());
        assert_eq!(plain.energy().get(), quiet.energy().get());
    }

    #[test]
    fn retention_decay_makes_reads_uncorrectable() {
        let cfg = IntegrityConfig {
            retention_per_hour: 40.0,
            seed: 17,
            ..IntegrityConfig::none()
        };
        let mut fd = FlashDisk::new(sdp5_datasheet()).with_integrity(cfg);
        let w = write(&mut fd, SimTime::ZERO, 4 * KIB);
        // Immediately after the write λ ≈ 0: the read is clean.
        let (_, fresh) = read(&mut fd, w.end, 0, 4 * KIB);
        assert!(fresh.is_ok());
        // An hour later λ = 40: far past the retry threshold.
        let (svc, stale) = read(&mut fd, w.end + SimDuration::from_hours(1), 0, 4 * KIB);
        assert!(svc.end > svc.start, "time accounted even on failure");
        let err = stale.expect_err("an hour at 40 errors/hour is fatal");
        assert!(matches!(err, DeviceError::Uncorrectable { lbn: 0, .. }));
        assert_eq!(fd.counters().uncorrectable_reads, 1);
        // A fresh write resets the retention clock.
        let w2 = write(&mut fd, svc.end, 4 * KIB);
        let (_, res) = read(&mut fd, w2.end, 0, 4 * KIB);
        assert!(res.is_ok());
    }

    #[test]
    fn corrections_cost_the_configured_penalty() {
        let cfg = IntegrityConfig {
            base_errors: 3.0,
            seed: 2,
            ..IntegrityConfig::none()
        };
        let mut clean = FlashDisk::new(sdp5_datasheet());
        let mut noisy = FlashDisk::new(sdp5_datasheet()).with_integrity(cfg);
        let ok = read(&mut clean, SimTime::ZERO, 0, 4 * KIB).0;
        let (slow, res) = read(&mut noisy, SimTime::ZERO, 0, 4 * KIB);
        assert!(res.is_ok());
        assert_eq!(noisy.counters().ecc_corrected, 1);
        assert_eq!(
            (slow.end - slow.start).saturating_sub(ok.end - ok.start),
            cfg.correction_penalty
        );
    }

    #[test]
    fn reset_metrics_preserves_pool_state() {
        let mut fd = FlashDisk::new(sdp5a_datasheet());
        let _ = write(&mut fd, SimTime::ZERO, 100 * KIB);
        let pool = fd.erased_pool();
        fd.reset_metrics();
        assert_eq!(fd.energy().get(), 0.0);
        assert_eq!(fd.erased_pool(), pool);
    }
}
