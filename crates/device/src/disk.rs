//! The magnetic hard disk model.
//!
//! Implements the disk architecture of §2 and the simulator assumptions of
//! §4.2:
//!
//! * a spin-down policy turns the spindle off after a configurable idle
//!   threshold (Table 4 uses 5 s); a spun-down disk pays the spin-up delay
//!   (and spin-up power) on the next access;
//! * spin-down itself takes time — a request arriving while the platters
//!   are still winding down must wait out the spin-down *and* the spin-up
//!   (§1: disks "take seconds to spin up and down"), which is what produces
//!   the multi-second maximum response times of Table 4;
//! * repeated accesses to the same file never seek; any other access pays
//!   the average seek, and every transfer pays the average rotational
//!   latency;
//! * energy is integrated over five states: active (seek + transfer),
//!   spinning idle, spinning up, spinning down, and standby.
//!
//! The battery-backed SRAM write buffer that fronts the disk lives in
//! `mobistore-cache`; this model only serves raw accesses.

use mobistore_sim::energy::{EnergyMeter, Joules};
use mobistore_sim::obs::{Event, Observer};
use mobistore_sim::price::PriceTable;
use mobistore_sim::span::{Span, SpanKind};
use mobistore_sim::time::{SimDuration, SimTime};

use crate::params::DiskParams;
use crate::{Device, Dir, FileTag, ReadOutcome, Request, Service, WriteOutcome};

/// When the disk spins down.
///
/// The paper uses a fixed 5 s threshold, "a good compromise between
/// energy consumption and response time" citing Douglis/Krishnan/Marsh
/// and Li et al. (its refs \[5, 13\]). Those same papers propose
/// *adaptive* thresholds; [`SpinDownPolicy::Adaptive`] implements the
/// classic multiplicative scheme: after a spin-down that turned out too
/// eager (the idle period ended before the spin cycle paid for itself),
/// raise the threshold; after keeping the disk spinning through an idle
/// period long enough that spinning down would have saved energy, lower
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpinDownPolicy {
    /// Never spin down.
    Never,
    /// Spin down after a fixed idle threshold (the paper's model).
    Fixed(SimDuration),
    /// Multiplicative adaptive threshold within `[min, max]`, starting at
    /// `initial`.
    Adaptive {
        /// Lower bound on the threshold.
        min: SimDuration,
        /// Upper bound on the threshold.
        max: SimDuration,
        /// Starting threshold.
        initial: SimDuration,
    },
}

impl SpinDownPolicy {
    /// The threshold the policy starts with (`None` for `Never`).
    fn initial_threshold(&self) -> Option<SimDuration> {
        match *self {
            SpinDownPolicy::Never => None,
            SpinDownPolicy::Fixed(t) => Some(t),
            SpinDownPolicy::Adaptive { initial, .. } => Some(initial),
        }
    }
}

/// How the disk charges seek time.
///
/// The paper's simulator uses [`SeekModel::SameFileAverage`]: "repeated
/// accesses to the same file are assumed never to require a seek …
/// otherwise, an access incurs an average seek" (§4.2) — and §5.1 finds
/// measured cu140 writes about twice as slow as simulated "due to our
/// optimistic assumption about avoiding seeks".
/// [`SeekModel::DistanceBased`] is the pessimistic alternative: seek time
/// scales with the square root of the head's travel distance in blocks
/// (the classic short-seek approximation), normalised so that a
/// half-capacity travel costs the datasheet average seek. Comparing the
/// two quantifies how much of the paper's §5.1 divergence the seek
/// assumption explains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeekModel {
    /// The paper's assumption: no seek within a file, average seek across
    /// files.
    #[default]
    SameFileAverage,
    /// Every access pays the average seek — the pessimistic model of a
    /// fragmented DOS volume where even same-file accesses travel (data
    /// blocks interleave with FAT and directory clusters).
    AlwaysAverage,
    /// Square-root-of-distance seek from the current head position, with
    /// the given total capacity in blocks.
    DistanceBased {
        /// Device capacity in blocks; half this distance costs the average
        /// seek.
        capacity_blocks: u64,
    },
}

mobistore_sim::counter_set! {
    /// Counters the disk maintains alongside energy.
    pub struct DiskCounters {
        /// Completed accesses.
        pub ops: u64 => "disk.ops",
        /// Number of spin-ups paid by requests.
        pub spin_ups: u64 => "disk.spin_ups",
        /// Number of completed spin-downs (including those a request interrupted
        /// by waiting for completion).
        pub spin_downs: u64 => "disk.spin_downs",
        /// Bytes read from the media.
        pub bytes_read: u64 => "disk.bytes_read",
        /// Bytes written to the media.
        pub bytes_written: u64 => "disk.bytes_written",
        /// Power failures survived (each forcing a FAT replay scan).
        pub power_failures: u64 => "disk.power_failures",
        /// Total time spent in post-power-fail recovery scans.
        pub recovery_time: SimDuration => "disk.recovery_ns",
    }
}

/// A simulated magnetic hard disk with spin-down power management.
///
/// # Examples
///
/// ```
/// use mobistore_device::disk::MagneticDisk;
/// use mobistore_device::params::cu140_datasheet;
/// use mobistore_device::{Device, Request};
/// use mobistore_sim::obs::NoopObserver;
/// use mobistore_sim::time::{SimDuration, SimTime};
///
/// let mut disk = MagneticDisk::new(cu140_datasheet(), Some(SimDuration::from_secs(5)));
/// let req = Request::blocks(0, 4, 1024).of_file(1);
/// let (svc, _) = disk.read(SimTime::ZERO, req, &mut NoopObserver);
/// // 25.7 ms seek+rotation plus the 4-Kbyte transfer.
/// assert!(svc.end.as_secs_f64() > 0.0257);
/// ```
#[derive(Debug, Clone)]
pub struct MagneticDisk {
    params: DiskParams,
    policy: SpinDownPolicy,
    /// Current effective threshold (`None` = never); adapted over time
    /// under `SpinDownPolicy::Adaptive`.
    spin_down_timeout: Option<SimDuration>,
    queueing: crate::QueueDiscipline,
    seek_model: SeekModel,
    /// The transfer terms of reads and writes; seeks and rotation join
    /// them per access.
    read_transfer: PriceTable,
    write_transfer: PriceTable,
    meter: EnergyMeter<DiskState>,
    counters: DiskCounters,
    /// End of the latest activity; the platters are spinning at this
    /// instant (every access and spin-up leaves the disk spinning).
    free_at: SimTime,
    last_file: Option<FileTag>,
    /// Head position (logical block) for the distance-based seek model.
    head_lbn: u64,
    /// FAT and root-directory bytes the recovery scan re-reads after a
    /// power failure.
    fat_scan_bytes: u64,
}

mobistore_sim::energy_states! {
    /// The disk's energy states, in report order.
    pub enum DiskState {
        /// Seeking, rotating and transferring.
        Active => "active",
        /// Spinning with no request.
        Idle => "idle",
        /// Spinning up from standby.
        SpinUp => "spinup",
        /// Winding down after the spin-down timeout.
        SpinDown => "spindown",
        /// Stopped.
        Standby => "standby",
        /// The post-power-failure recovery scan.
        Recover => "recover",
    }
}

impl MagneticDisk {
    /// Creates a disk that spins down after `spin_down_timeout` of
    /// inactivity (`None` keeps it spinning forever).
    pub fn new(params: DiskParams, spin_down_timeout: Option<SimDuration>) -> Self {
        let policy = match spin_down_timeout {
            Some(t) => SpinDownPolicy::Fixed(t),
            None => SpinDownPolicy::Never,
        };
        Self::with_policy(params, policy)
    }

    /// Creates a disk with an explicit [`SpinDownPolicy`].
    pub fn with_policy(params: DiskParams, policy: SpinDownPolicy) -> Self {
        MagneticDisk {
            read_transfer: PriceTable::transfer(params.read_bandwidth),
            write_transfer: PriceTable::transfer(params.write_bandwidth),
            params,
            spin_down_timeout: policy.initial_threshold(),
            policy,
            queueing: crate::QueueDiscipline::Fifo,
            seek_model: SeekModel::SameFileAverage,
            meter: EnergyMeter::new(),
            counters: DiskCounters::default(),
            free_at: SimTime::ZERO,
            last_file: None,
            head_lbn: 0,
            fat_scan_bytes: 0,
        }
    }

    /// Sets the queue discipline (see [`crate::QueueDiscipline`]).
    pub fn with_queueing(mut self, discipline: crate::QueueDiscipline) -> Self {
        self.queueing = discipline;
        self
    }

    /// Sets the seek model (see [`SeekModel`]).
    pub fn with_seek_model(mut self, model: SeekModel) -> Self {
        self.seek_model = model;
        self
    }

    /// Sets the FAT and root-directory bytes the post-power-failure
    /// recovery scan re-reads (none by default).
    pub fn with_fat_scan_bytes(mut self, bytes: u64) -> Self {
        self.fat_scan_bytes = bytes;
        self
    }

    /// Returns the parameter set this disk was built with.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Returns the operation counters.
    pub fn counters(&self) -> DiskCounters {
        self.counters
    }

    /// Returns total energy consumed so far, including idle/standby time
    /// already settled.
    pub fn energy(&self) -> Joules {
        self.meter.total()
    }

    /// Returns the energy meter for per-state breakdowns.
    pub fn meter(&self) -> &EnergyMeter<DiskState> {
        &self.meter
    }

    /// Zeroes energy and counters while keeping mechanical state; used at
    /// the warm-up boundary (§4.2).
    pub fn reset_metrics(&mut self) {
        self.meter = EnergyMeter::new();
        self.counters = DiskCounters::default();
    }

    /// The current effective spin-down threshold, if any (adapts over
    /// time under the adaptive policy).
    pub fn current_threshold(&self) -> Option<SimDuration> {
        self.spin_down_timeout
    }

    /// The idle duration at which a spin cycle becomes energy-neutral:
    /// shorter idles waste energy by spinning down, longer ones save it.
    pub fn breakeven_idle(&self) -> SimDuration {
        // Extra energy of a spin cycle vs staying spinning-idle for the
        // same wall time, ignoring the standby saving:
        //   cycle = down_t x down_p + up_t x up_p
        //   saved per second of standby = idle_p - standby_p
        let cycle = self.params.spin_down_power * self.params.spin_down_time
            + self.params.spin_up_power * self.params.spin_up_time;
        let idle_equiv =
            self.params.idle_power * (self.params.spin_down_time + self.params.spin_up_time);
        let extra = cycle.get() - idle_equiv.get();
        let save_rate = (self.params.idle_power.get() - self.params.standby_power.get()).max(1e-9);
        (self.params.spin_down_time + self.params.spin_up_time)
            + SimDuration::from_secs_f64(extra.max(0.0) / save_rate)
    }

    /// Adjusts the adaptive threshold after observing a completed idle
    /// gap of length `gap` in which `spun_down` says whether a spin-down
    /// happened.
    fn adapt(&mut self, gap: SimDuration, spun_down: bool) {
        let SpinDownPolicy::Adaptive { min, max, .. } = self.policy else {
            return;
        };
        let Some(current) = self.spin_down_timeout else {
            return;
        };
        let breakeven = self.breakeven_idle();
        let updated = if spun_down {
            if gap < current + breakeven {
                // Too eager: the pause ended before the cycle paid off.
                (current * 2).min(max)
            } else if gap > current + breakeven * 2 {
                // The pause was huge: spinning down sooner would have
                // harvested more standby time.
                (current / 2).max(min)
            } else {
                current
            }
        } else if gap > breakeven {
            // Kept spinning through a pause long enough to have paid for a
            // spin cycle: lower the threshold.
            (current / 2).max(min)
        } else {
            current
        };
        self.spin_down_timeout = Some(updated);
    }

    /// True if at `now` the disk is spun down or winding down (useful to a
    /// deferred spin-up policy).
    pub fn is_spun_down(&self, now: SimTime) -> bool {
        match self.spin_down_timeout {
            None => false,
            Some(timeout) => now > self.free_at && now.saturating_since(self.free_at) > timeout,
        }
    }

    /// Serves one access issued at `now`, returning its [`Service`]
    /// interval. Under the default seek model the request's file drives
    /// the heuristic: the same tag as the previous access skips the seek,
    /// and `None` (an SRAM flush interleaving many files) always seeks.
    /// The distance-based model travels to the request's `lbn`.
    fn serve<O: Observer>(&mut self, now: SimTime, dir: Dir, req: Request, obs: &mut O) -> Service {
        let ready = self.settle(now, obs);
        let bytes = req.bytes;

        let seek = match self.seek_model {
            SeekModel::SameFileAverage => match (req.file, self.last_file) {
                (Some(f), Some(prev)) if f == prev => SimDuration::ZERO,
                _ => self.params.avg_seek,
            },
            SeekModel::AlwaysAverage => self.params.avg_seek,
            SeekModel::DistanceBased { capacity_blocks } => {
                // A burst of many files has no single target: the head
                // stays where it is.
                let target = if req.file.is_some() {
                    req.lbn
                } else {
                    self.head_lbn
                };
                let distance = target.abs_diff(self.head_lbn);
                self.head_lbn = target + bytes.div_ceil(512).max(1);
                // sqrt(distance / (capacity/2)) x avg_seek: the classic
                // short-seek curve, anchored so half-capacity travel costs
                // the datasheet average.
                let half = (capacity_blocks / 2).max(1);
                let frac = (distance as f64 / half as f64).sqrt().min(2.0);
                self.params.avg_seek.mul_f64(frac)
            }
        };
        let transfer = match dir {
            Dir::Read => self.read_transfer.price(bytes).time,
            Dir::Write => self.write_transfer.price(bytes).time,
        };
        let active = seek + self.params.avg_rotation + transfer;
        let end = ready + active;
        self.meter
            .charge_for(DiskState::Active, self.params.active_power, active);
        let transfer_start = ready + seek + self.params.avg_rotation;
        obs.span(&Span::new(SpanKind::DiskSeek, ready, transfer_start));
        obs.span(&Span::new(
            SpanKind::DiskTransfer { bytes },
            transfer_start,
            end,
        ));

        self.counters.ops += 1;
        match dir {
            Dir::Read => self.counters.bytes_read += bytes,
            Dir::Write => self.counters.bytes_written += bytes,
        }
        self.last_file = req.file;
        // Open-loop accesses may overlap; keep the last-activity marker
        // monotone so spin-down timing stays well defined.
        self.free_at = self.free_at.max(end);
        Service { start: ready, end }
    }

    /// Settles the idle gap before a request arriving at `now` and returns
    /// the time at which the platters are ready to serve it.
    fn settle<O: Observer>(&mut self, now: SimTime, obs: &mut O) -> SimTime {
        if now <= self.free_at {
            // The disk never went idle, so no state change and no idle
            // energy to account. Under FIFO the request queues; open-loop
            // serves it at arrival (the paper's independent-operation
            // model).
            return match self.queueing {
                crate::QueueDiscipline::Fifo => self.free_at,
                crate::QueueDiscipline::OpenLoop => now,
            };
        }
        let gap = now - self.free_at;
        let Some(timeout) = self.spin_down_timeout else {
            self.meter
                .charge_for(DiskState::Idle, self.params.idle_power, gap);
            return now;
        };
        if gap <= timeout {
            self.meter
                .charge_for(DiskState::Idle, self.params.idle_power, gap);
            self.adapt(gap, false);
            return now;
        }
        self.adapt(gap, true);

        // The disk began spinning down `timeout` after it went idle.
        self.meter
            .charge_for(DiskState::Idle, self.params.idle_power, timeout);
        obs.record(&Event::DiskSpinDown {
            t: self.free_at + timeout,
        });
        let down_complete = self.free_at + timeout + self.params.spin_down_time;
        self.counters.spin_downs += 1;
        let spin_up_start = if now < down_complete {
            // Mid-spin-down: wait out the remaining wind-down.
            self.meter.charge_for(
                DiskState::SpinDown,
                self.params.spin_down_power,
                self.params.spin_down_time,
            );
            down_complete
        } else {
            self.meter.charge_for(
                DiskState::SpinDown,
                self.params.spin_down_power,
                self.params.spin_down_time,
            );
            self.meter.charge_for(
                DiskState::Standby,
                self.params.standby_power,
                now - down_complete,
            );
            now
        };
        obs.record(&Event::DiskSpinUp { t: spin_up_start });
        self.meter.charge_for(
            DiskState::SpinUp,
            self.params.spin_up_power,
            self.params.spin_up_time,
        );
        self.counters.spin_ups += 1;
        spin_up_start + self.params.spin_up_time
    }

    /// Settles idle time up to `end` without serving a request (end of
    /// simulation).
    fn settle_idle_only<O: Observer>(&mut self, end: SimTime, obs: &mut O) {
        if end <= self.free_at {
            return;
        }
        let gap = end - self.free_at;
        match self.spin_down_timeout {
            None => self
                .meter
                .charge_for(DiskState::Idle, self.params.idle_power, gap),
            Some(timeout) if gap <= timeout => {
                self.meter
                    .charge(DiskState::Idle, self.params.idle_power * gap);
            }
            Some(timeout) => {
                self.meter
                    .charge_for(DiskState::Idle, self.params.idle_power, timeout);
                let after = gap - timeout;
                let down = after.min(self.params.spin_down_time);
                self.meter
                    .charge_for(DiskState::SpinDown, self.params.spin_down_power, down);
                if after > self.params.spin_down_time {
                    self.counters.spin_downs += 1;
                    obs.record(&Event::DiskSpinDown {
                        t: self.free_at + timeout,
                    });
                    self.meter.charge_for(
                        DiskState::Standby,
                        self.params.standby_power,
                        after - self.params.spin_down_time,
                    );
                }
            }
        }
        self.free_at = end;
    }
}

impl Device for MagneticDisk {
    fn read<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O) -> ReadOutcome {
        (self.serve(now, Dir::Read, req, obs), Ok(()))
    }

    fn write<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O) -> WriteOutcome {
        Ok(self.serve(now, Dir::Write, req, obs))
    }

    /// The disk keeps no block map: trims are file-system bookkeeping.
    fn trim<O: Observer>(&mut self, _now: SimTime, _req: Request, _obs: &mut O) {}

    /// Simulates a power failure at `now` followed by the recovery scan the
    /// paper's DOS model implies: with the FAT written synchronously the
    /// on-disk metadata is consistent, but the reboot still re-reads the
    /// FAT and root directory (see
    /// [`with_fat_scan_bytes`](MagneticDisk::with_fat_scan_bytes)) before
    /// the volume is usable.
    ///
    /// The disk loses spindle state, so recovery always pays a spin-up
    /// (an [`Event::DiskSpinUp`]), then one average seek + rotation and the
    /// FAT transfer. The scan is charged to [`DiskState::Recover`] at
    /// active power.
    fn power_fail<O: Observer>(&mut self, now: SimTime, obs: &mut O) -> Service {
        // Settle history up to the failure instant; whatever state the
        // platters were in, the outage leaves them stopped.
        let ready = self.settle(now, obs).max(now);
        obs.record(&Event::DiskSpinUp { t: ready });
        let spun_up = ready + self.params.spin_up_time;
        self.meter.charge_for(
            DiskState::SpinUp,
            self.params.spin_up_power,
            self.params.spin_up_time,
        );
        self.counters.spin_ups += 1;

        let fat_bytes = self.fat_scan_bytes;
        let scan = self.params.avg_seek
            + self.params.avg_rotation
            + self.read_transfer.price(fat_bytes).time;
        let end = spun_up + scan;
        self.meter
            .charge_for(DiskState::Recover, self.params.active_power, scan);

        self.counters.power_failures += 1;
        self.counters.recovery_time += end - ready;
        self.counters.bytes_read += fat_bytes;
        // The scan moved the head; the same-file heuristic must re-seek.
        self.last_file = None;
        self.head_lbn = 0;
        self.free_at = self.free_at.max(end);
        Service { start: ready, end }
    }

    /// Settles the trailing idle period, reporting a trailing spin-down,
    /// if any.
    fn finish<O: Observer>(&mut self, end: SimTime, obs: &mut O) {
        self.settle_idle_only(end, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::cu140_datasheet;
    use crate::testing::{assert_prices_match, drive_twins};
    use mobistore_sim::energy::Watts;
    use mobistore_sim::obs::NoopObserver;
    use mobistore_sim::units::KIB;

    impl MagneticDisk {
        /// Replaces the price tables with fresh ones, which know no size.
        fn forget_prices(&mut self) {
            self.read_transfer = PriceTable::transfer(self.params.read_bandwidth);
            self.write_transfer = PriceTable::transfer(self.params.write_bandwidth);
        }
    }

    #[test]
    fn transfer_tables_price_every_size_as_the_formula() {
        let mut d = disk();
        let p = d.params.clone();
        for (table, bandwidth) in [
            (&mut d.read_transfer, p.read_bandwidth),
            (&mut d.write_transfer, p.write_bandwidth),
        ] {
            assert_prices_match(table, SimDuration::ZERO, bandwidth, Watts::ZERO, 512);
        }
    }

    #[test]
    fn memoized_prices_match_a_twin_that_prices_every_op_afresh() {
        for model in [
            SeekModel::SameFileAverage,
            SeekModel::DistanceBased {
                capacity_blocks: 40_000,
            },
        ] {
            let mut memo = disk().with_seek_model(model).with_fat_scan_bytes(24 * KIB);
            let mut twin = memo.clone();
            drive_twins(
                &mut memo,
                &mut twin,
                512,
                40_000,
                MagneticDisk::forget_prices,
            );
            assert_eq!(memo.meter, twin.meter);
            assert_eq!(memo.counters, twin.counters);
            assert!(memo.counters.spin_ups > 1 && memo.counters.power_failures == 1);
        }
    }

    fn disk() -> MagneticDisk {
        MagneticDisk::new(cu140_datasheet(), Some(SimDuration::from_secs(5)))
    }

    /// A request of `bytes` for `file` at block `lbn`.
    fn req(lbn: u64, bytes: u64, file: Option<FileTag>) -> Request {
        Request { lbn, bytes, file }
    }

    /// Unobserved requests of `bytes` for `file` at block 0.
    fn read(d: &mut MagneticDisk, now: SimTime, bytes: u64, file: Option<FileTag>) -> Service {
        d.read(now, req(0, bytes, file), &mut NoopObserver).0
    }

    fn write(d: &mut MagneticDisk, now: SimTime, bytes: u64, file: Option<FileTag>) -> Service {
        let written = d.write(now, req(0, bytes, file), &mut NoopObserver);
        written.expect("disk writes never fail")
    }

    /// An unobserved zero-byte read for `file` that seeks to block `lbn`.
    fn read_at(d: &mut MagneticDisk, now: SimTime, file: Option<FileTag>, lbn: u64) -> Service {
        d.read(now, req(lbn, 0, file), &mut NoopObserver).0
    }

    /// A zero-byte read of file 1 at `t`; returns when it ends.
    fn poke(d: &mut MagneticDisk, t: SimTime) -> SimTime {
        read(d, t, 0, Some(1)).end
    }

    #[test]
    fn first_access_pays_seek_and_rotation() {
        let mut d = disk();
        let svc = read(&mut d, SimTime::ZERO, 0, Some(1));
        assert_eq!(svc.start, SimTime::ZERO);
        // 17.4 ms seek + 8.3 ms rotation, no transfer.
        assert_eq!((svc.end - svc.start).as_millis_f64(), 25.7);
    }

    #[test]
    fn same_file_skips_seek() {
        let mut d = disk();
        let first = read(&mut d, SimTime::ZERO, 0, Some(1));
        let second = read(&mut d, first.end, 0, Some(1));
        assert_eq!((second.end - second.start).as_millis_f64(), 8.3);
        // A different file seeks again.
        let third = read(&mut d, second.end, 0, Some(2));
        assert_eq!((third.end - third.start).as_millis_f64(), 25.7);
    }

    #[test]
    fn none_tag_always_seeks() {
        let mut d = disk();
        let first = write(&mut d, SimTime::ZERO, 0, None);
        let second = write(&mut d, first.end, 0, None);
        assert_eq!((second.end - second.start).as_millis_f64(), 25.7);
    }

    #[test]
    fn transfer_time_uses_bandwidth() {
        let mut d = disk();
        let svc = read(&mut d, SimTime::ZERO, 2125 * KIB, Some(1));
        let expect = 25.7e-3 + 1.0;
        assert!(((svc.end - svc.start).as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn requests_queue_behind_busy_disk() {
        let mut d = disk();
        let first = read(&mut d, SimTime::ZERO, 2125 * KIB, Some(1));
        // Issued while the first is still transferring.
        let second = read(&mut d, SimTime::from_secs_f64(0.1), 0, Some(1));
        assert_eq!(second.start, first.end);
    }

    #[test]
    fn idle_within_timeout_keeps_spinning() {
        let mut d = disk();
        let first = read(&mut d, SimTime::ZERO, 0, Some(1));
        let later = first.end + SimDuration::from_secs(4);
        assert!(!d.is_spun_down(later));
        let svc = read(&mut d, later, 0, Some(1));
        assert_eq!(svc.start, later, "no spin-up penalty");
        assert_eq!(d.counters().spin_ups, 0);
    }

    #[test]
    fn long_idle_spins_down_and_next_access_spins_up() {
        let mut d = disk();
        let first = read(&mut d, SimTime::ZERO, 0, Some(1));
        let later = first.end + SimDuration::from_secs(60);
        assert!(d.is_spun_down(later));
        let svc = read(&mut d, later, 0, Some(1));
        // Full spin-up delay precedes service.
        assert_eq!(svc.start, later + SimDuration::from_secs(1));
        assert_eq!(d.counters().spin_ups, 1);
        assert_eq!(d.counters().spin_downs, 1);
    }

    #[test]
    fn access_during_spin_down_waits_for_wind_down() {
        let p = cu140_datasheet();
        let (timeout, down, up) = (SimDuration::from_secs(5), p.spin_down_time, p.spin_up_time);
        let mut d = disk();
        let first = read(&mut d, SimTime::ZERO, 0, Some(1));
        // Arrive 1 s into the 2.5 s spin-down window.
        let arrival = first.end + timeout + SimDuration::from_secs(1);
        let svc = read(&mut d, arrival, 0, Some(1));
        let expected_start = first.end + timeout + down + up;
        assert_eq!(svc.start, expected_start);
        // This is the worst case: response exceeds spin-up alone.
        assert!(svc.start - arrival > up);
    }

    #[test]
    fn never_spin_down_policy() {
        let mut d = MagneticDisk::new(cu140_datasheet(), None);
        let first = read(&mut d, SimTime::ZERO, 0, Some(1));
        let later = first.end + SimDuration::from_hours(1);
        assert!(!d.is_spun_down(later));
        let svc = read(&mut d, later, 0, Some(1));
        assert_eq!(svc.start, later);
        // The whole hour was spinning idle at 0.7 W.
        let idle = d.meter().category(DiskState::Idle);
        assert!((idle.get() - 0.7 * 3600.0).abs() < 1.0);
    }

    #[test]
    fn energy_accounts_every_state() {
        let mut d = disk();
        let first = write(&mut d, SimTime::ZERO, 4 * KIB, Some(1));
        let later = first.end + SimDuration::from_secs(100);
        let _ = read(&mut d, later, 4 * KIB, Some(1));
        let m = d.meter();
        for state in [
            DiskState::Active,
            DiskState::Idle,
            DiskState::SpinUp,
            DiskState::SpinDown,
            DiskState::Standby,
        ] {
            assert!(m.category(state).get() > 0.0, "missing energy in {state:?}");
        }
        // Idle capped at the 5 s threshold: 0.7 W x 5 s.
        assert!((m.category(DiskState::Idle).get() - 3.5).abs() < 1e-6);
        // Standby covers 100 - 5 - 2.5 = 92.5 s at 0.015 W.
        assert!((m.category(DiskState::Standby).get() - 92.5 * 0.015).abs() < 1e-6);
        // Spin-up: 3 W x 1 s.
        assert!((m.category(DiskState::SpinUp).get() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_names_its_states_in_report_order() {
        let names: Vec<_> = disk().meter().breakdown_timed().map(|(n, ..)| n).collect();
        assert_eq!(
            names,
            ["active", "idle", "spinup", "spindown", "standby", "recover"]
        );
    }

    #[test]
    fn finish_settles_trailing_idle() {
        let mut d = disk();
        let first = read(&mut d, SimTime::ZERO, 0, Some(1));
        d.finish(first.end + SimDuration::from_secs(2), &mut NoopObserver);
        assert!((d.meter().category(DiskState::Idle).get() - 1.4).abs() < 1e-9);

        // And a trailing gap long enough to spin down reaches standby.
        let mut d2 = disk();
        let first = read(&mut d2, SimTime::ZERO, 0, Some(1));
        d2.finish(first.end + SimDuration::from_secs(100), &mut NoopObserver);
        assert!(d2.meter().category(DiskState::Standby).get() > 0.0);
        assert_eq!(d2.counters().spin_downs, 1);
    }

    #[test]
    fn reset_metrics_keeps_state() {
        let mut d = disk();
        let first = read(&mut d, SimTime::ZERO, 0, Some(7));
        d.reset_metrics();
        assert_eq!(d.energy().get(), 0.0);
        assert_eq!(d.counters().ops, 0);
        // Mechanical state survives: same-file access still skips the seek.
        let svc = read(&mut d, first.end, 0, Some(7));
        assert_eq!((svc.end - svc.start).as_millis_f64(), 8.3);
    }

    #[test]
    fn breakeven_is_seconds_for_the_cu140() {
        let d = disk();
        let be = d.breakeven_idle().as_secs_f64();
        // Spin cycle: 2.5 s x 0.7 W + 1 s x 3 W = 4.75 J; idle-equivalent
        // 3.5 s x 0.7 = 2.45 J; extra 2.3 J / 0.685 W/s saving = 3.36 s;
        // plus the 3.5 s cycle time: ~6.9 s.
        assert!((6.0..8.0).contains(&be), "breakeven {be}");
    }

    #[test]
    fn adaptive_threshold_rises_after_eager_spin_down() {
        let policy = SpinDownPolicy::Adaptive {
            min: SimDuration::from_secs(1),
            max: SimDuration::from_secs(60),
            initial: SimDuration::from_secs(2),
        };
        let mut d = MagneticDisk::with_policy(cu140_datasheet(), policy);
        assert_eq!(d.current_threshold(), Some(SimDuration::from_secs(2)));
        let end = poke(&mut d, SimTime::ZERO);
        // A 3 s pause: spin-down fired (threshold 2 s) but the pause ended
        // far before breakeven -> threshold doubles.
        poke(&mut d, end + SimDuration::from_secs(3));
        assert_eq!(d.current_threshold(), Some(SimDuration::from_secs(4)));
    }

    #[test]
    fn adaptive_threshold_falls_after_long_kept_spinning_gaps() {
        let policy = SpinDownPolicy::Adaptive {
            min: SimDuration::from_secs(1),
            max: SimDuration::from_secs(60),
            initial: SimDuration::from_secs(40),
        };
        let mut d = MagneticDisk::with_policy(cu140_datasheet(), policy);
        let mut t = poke(&mut d, SimTime::ZERO);
        // 30 s pauses never trigger the 40 s threshold, but exceed
        // breakeven: the policy should lower the threshold toward them.
        for _ in 0..4 {
            t = poke(&mut d, t + SimDuration::from_secs(30));
        }
        let threshold = d.current_threshold().unwrap();
        assert!(
            threshold < SimDuration::from_secs(40),
            "threshold {threshold}"
        );
        assert!(threshold >= SimDuration::from_secs(1));
    }

    #[test]
    fn adaptive_threshold_respects_bounds() {
        let policy = SpinDownPolicy::Adaptive {
            min: SimDuration::from_secs(2),
            max: SimDuration::from_secs(8),
            initial: SimDuration::from_secs(8),
        };
        let mut d = MagneticDisk::with_policy(cu140_datasheet(), policy);
        let mut t = poke(&mut d, SimTime::ZERO);
        for _ in 0..10 {
            t = poke(&mut d, t + SimDuration::from_secs(3600));
        }
        // Long pauses push the threshold down, but never below min.
        assert_eq!(d.current_threshold(), Some(SimDuration::from_secs(2)));
        for _ in 0..10 {
            t = poke(&mut d, t + SimDuration::from_secs(6));
        }
        // Eager spin-downs push it up, but never above max.
        assert_eq!(d.current_threshold(), Some(SimDuration::from_secs(8)));
    }

    #[test]
    fn fixed_policy_never_adapts() {
        let mut d = disk();
        let mut t = poke(&mut d, SimTime::ZERO);
        for _ in 0..5 {
            t = poke(&mut d, t + SimDuration::from_secs(6));
        }
        assert_eq!(d.current_threshold(), Some(SimDuration::from_secs(5)));
    }

    #[test]
    fn always_average_model_seeks_every_time() {
        let mut d = MagneticDisk::new(cu140_datasheet(), Some(SimDuration::from_secs(5)))
            .with_seek_model(SeekModel::AlwaysAverage);
        let first = read(&mut d, SimTime::ZERO, 0, Some(1));
        let second = read(&mut d, first.end, 0, Some(1));
        // Same file, but the fragmented model still pays the full seek.
        assert_eq!((second.end - second.start).as_millis_f64(), 25.7);
    }

    #[test]
    fn distance_model_scales_with_travel() {
        let mut d =
            MagneticDisk::new(cu140_datasheet(), None).with_seek_model(SeekModel::DistanceBased {
                capacity_blocks: 80_000,
            });
        // Head starts at 0; a far target costs more than a near one.
        let far = read_at(&mut d, SimTime::ZERO, Some(1), 40_000);
        let far_time = far.end - far.start;
        // Now a short hop from ~40_000.
        let near = read_at(&mut d, far.end, Some(2), 40_100);
        let near_time = near.end - near.start;
        assert!(far_time > near_time, "far {far_time} vs near {near_time}");
        // Half-capacity travel costs exactly seek + rotation.
        assert!((far_time.as_millis_f64() - 25.7).abs() < 0.1, "{far_time}");
        // A burst with no file tag leaves the head in place: rotation only.
        let stay = read_at(&mut d, near.end, None, 0);
        assert!(((stay.end - stay.start).as_millis_f64() - 8.3).abs() < 0.1);
    }

    #[test]
    fn distance_model_caps_long_seeks() {
        let mut d =
            MagneticDisk::new(cu140_datasheet(), None).with_seek_model(SeekModel::DistanceBased {
                capacity_blocks: 100,
            });
        // Travel far beyond capacity: the sqrt curve is clamped at 2x.
        let svc = read_at(&mut d, SimTime::ZERO, Some(1), 1_000_000);
        let ms = (svc.end - svc.start).as_millis_f64();
        assert!((ms - (2.0 * 17.4 + 8.3)).abs() < 0.1, "{ms}");
    }

    #[test]
    fn power_fail_replays_fat_after_spin_up() {
        let mut d = disk().with_fat_scan_bytes(128 * KIB);
        let first = read(&mut d, SimTime::ZERO, 0, Some(1));
        let svc = d.power_fail(first.end, &mut NoopObserver);
        let c = d.counters();
        assert_eq!(c.power_failures, 1);
        assert_eq!(c.spin_ups, 1);
        assert_eq!(c.recovery_time, svc.end - svc.start);
        assert!(d.meter().category(DiskState::Recover).get() > 0.0);
        // Recovery pays the 1 s spin-up before the 25.7 ms scan starts.
        assert!((svc.end - svc.start).as_secs_f64() > 1.0257);
        // The scan moved the head: the same-file heuristic seeks again.
        let next = read(&mut d, svc.end, 0, Some(1));
        assert_eq!((next.end - next.start).as_millis_f64(), 25.7);
    }

    #[test]
    fn observer_sees_spin_transitions() {
        use mobistore_sim::obs::CountingObserver;
        let mut d = disk();
        let mut obs = CountingObserver::default();
        let req = Request::blocks(0, 0, 1024).of_file(1);
        let (first, _) = d.read(SimTime::ZERO, req, &mut obs);
        let later = first.end + SimDuration::from_secs(60);
        let _ = d.read(later, req, &mut obs);
        assert_eq!(obs.counts.get("disk_spin_down"), 1);
        assert_eq!(obs.counts.get("disk_spin_up"), 1);
        // The observed run's counters match the unobserved model's.
        assert_eq!(d.counters().spin_downs, 1);
        assert_eq!(d.counters().spin_ups, 1);
    }

    #[test]
    fn counters_track_bytes() {
        let mut d = disk();
        let s = read(&mut d, SimTime::ZERO, 1000, Some(1));
        let _ = write(&mut d, s.end, 500, Some(1));
        let c = d.counters();
        assert_eq!(c.ops, 2);
        assert_eq!(c.bytes_read, 1000);
        assert_eq!(c.bytes_written, 500);
    }
}
