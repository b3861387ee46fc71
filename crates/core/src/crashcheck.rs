//! The crash-consistency torture driver.
//!
//! [`torture`] replays a trace prefix against a backend, injects a power
//! failure at every selected operation boundary, runs the device's
//! recovery and checks the recovered state. One replay loop drives every
//! device; what differs is what a recovery must satisfy:
//!
//! * the **flash card** and the **erasure-coded array** keep per-block
//!   contents, so they are checked differentially. Each crash point
//!   replays on a copy of the preloaded device, odd boundaries tear the
//!   write in flight (only a prefix of its blocks reaches media), and a
//!   [`ShadowModel`] mirrors every write and trim: after each crash — and
//!   again once the trace is drained — the recovered `(lbn, generation)`
//!   mapping must be a legal post-crash state (acknowledged writes
//!   survive, the in-flight write is old/new/absent, nothing is
//!   resurrected). On top of that, the card's block census must still
//!   partition capacity, retired segments must stay retired, and an
//!   interrupted cleaning pass must leave no block mapped into its victim
//!   segment (copy-before-erase makes cleaning atomic); the array must not
//!   fail under its tolerated deaths, and every block it can no longer
//!   decode must have been reported;
//! * the **magnetic disk** and **flash disk** recover behind their
//!   controllers, so one device replays the prefix once, crashing at every
//!   point, and the accounting story is checked: every crash is counted,
//!   recovery time accrues, and the device serves requests again after
//!   the scan.
//!
//! Crash instants are drawn deterministically from the torture seed, one
//! RNG stream per crash point, so a boundary crash lands anywhere in the
//! inter-op gap — including mid-cleaning and mid-erase, because the
//! card's `settle` truncates the background job at the crash instant.
//! The whole sweep is pure simulation: same seed, same report.

use std::collections::BTreeSet;

use mobistore_device::array::ArrayDevice;
use mobistore_device::disk::{DiskCounters, MagneticDisk};
use mobistore_device::flashdisk::{FlashDisk, FlashDiskCounters};
use mobistore_device::{Request, Service};
use mobistore_flash::store::FlashCardStore;
use mobistore_sim::crashcheck::{ShadowModel, Violation};
use mobistore_sim::obs::{Event, Observer};
use mobistore_sim::rng::SimRng;
use mobistore_sim::time::{SimDuration, SimTime};
use mobistore_trace::record::{working_set_runs, DiskOp, DiskOpKind, Trace};

use crate::backend::{build, Backend, Purpose, WithDevice};
use crate::config::{BackendConfig, SystemConfig};

/// How many operation boundaries receive an injected crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoints {
    /// Crash at every op boundary in the (capped) trace prefix.
    Exhaustive,
    /// Crash at this many boundaries, spread evenly across the prefix.
    Sampled(usize),
}

/// Options controlling a torture sweep.
#[derive(Debug, Clone, Copy)]
pub struct TortureOptions {
    /// Cap on trace operations replayed per crash point (the flash-card
    /// sweep replays a copy of the device for every crash point, so the
    /// sweep is O(crash points × ops)). Truncation is reported, never
    /// silent.
    pub max_ops: usize,
    /// Crash-point sweep density.
    pub crash_points: CrashPoints,
    /// Seed for the crash-instant jitter streams.
    pub seed: u64,
    /// Test-only: silently damage this logical block after every recovery
    /// — the flash card drops it from its map, the array corrupts its
    /// surviving shards — a deliberately broken recovery that the device's
    /// own invariants cannot see. Exists to prove the shadow model has
    /// teeth; leave `None` for real checking.
    pub sabotage_lbn: Option<u64>,
}

impl Default for TortureOptions {
    fn default() -> Self {
        TortureOptions {
            max_ops: 192,
            crash_points: CrashPoints::Sampled(24),
            seed: 0x1994,
            sabotage_lbn: None,
        }
    }
}

/// The outcome of one torture sweep on one configuration.
#[derive(Debug, Clone, Default)]
pub struct TortureReport {
    /// The configuration's label.
    pub name: String,
    /// Which backend kind was tortured.
    pub device: &'static str,
    /// Crash points actually injected.
    pub crashes: u64,
    /// Crashes injected mid-write (the op was torn, never acknowledged).
    pub mid_op_crashes: u64,
    /// Crashes that struck while a cleaning job was in flight.
    pub mid_cleaning_crashes: u64,
    /// Recovery scans that completed.
    pub recoveries: u64,
    /// Total operations replayed across all crash points.
    pub ops_replayed: u64,
    /// Trace operations dropped by the `max_ops` cap.
    pub truncated_ops: u64,
    /// Blocks the device reported uncorrectable during the sweep (the
    /// integrity model's one permitted loss: typed, never silent). The
    /// shadow excuses exactly these blocks and no others.
    pub uncorrectable_blocks: u64,
    /// Every check failure, rendered with its crash-point context. Empty
    /// means the device survived the sweep.
    pub violations: Vec<String>,
}

impl TortureReport {
    /// True if no check failed anywhere in the sweep.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the torture sweep on `config`'s backend.
///
/// The device comes from the crate's one device builder,
/// `backend::build`, as `simulate`'s does. It is built once over the
/// replayed prefix, and a block-mapped device is cloned for each crash
/// point: a card holds the prefix's working set with no filler, and
/// exactly `m` array children die. A configuration the builder refuses is
/// refused as `simulate` refuses it: the report carries the one violation
/// `cannot replay: {e}` and nothing is replayed.
pub fn torture(config: &SystemConfig, trace: &Trace, opts: &TortureOptions) -> TortureReport {
    let n = trace.ops.len().min(opts.max_ops);
    let ops = &trace.ops[..n];
    let mut sweep = Sweep {
        ops,
        block_size: trace.block_size,
        opts,
        report: TortureReport {
            name: config.name.clone(),
            device: device_name(&config.backend),
            truncated_ops: (trace.ops.len() - n) as u64,
            ..TortureReport::default()
        },
    };
    if let Err(e) = build(config, ops, trace.block_size, Purpose::Torture, &mut sweep) {
        sweep.report.violations.push(format!("cannot replay: {e}"));
    }
    sweep.report
}

/// The backend's name in a [`TortureReport`], known before anything is
/// built, so a refused configuration is named too.
fn device_name(backend: &BackendConfig) -> &'static str {
    match backend {
        BackendConfig::Disk { .. } => "magnetic disk",
        BackendConfig::FlashDisk { .. } => "flash disk",
        BackendConfig::FlashCard { .. } => "flash card",
        BackendConfig::Array { .. } => "ec-array",
    }
}

/// The op-boundary indices to crash at, in ascending order.
fn select_points(n: usize, density: CrashPoints) -> Vec<usize> {
    match density {
        CrashPoints::Exhaustive => (0..n).collect(),
        CrashPoints::Sampled(c) if c >= n => (0..n).collect(),
        CrashPoints::Sampled(0) => Vec::new(),
        CrashPoints::Sampled(c) => {
            // Alternate the parity of consecutive samples: odd boundaries
            // are where the driver tears writes mid-op, and an even stride
            // (e.g. 24 samples of 192 ops) would otherwise never pick one.
            let points: BTreeSet<usize> = (0..c)
                .map(|i| {
                    let p = i * n / c;
                    if i % 2 == 1 && p.is_multiple_of(2) {
                        (p + 1).min(n - 1)
                    } else {
                        p
                    }
                })
                .collect();
            points.into_iter().collect()
        }
    }
}

/// A crash instant strictly before op `k` issues, jittered uniformly into
/// the gap after the previous op's issue time.
fn boundary_crash_instant(ops: &[DiskOp], k: usize, rng: &mut SimRng) -> SimTime {
    let prev = if k == 0 {
        SimTime::ZERO
    } else {
        ops[k - 1].time
    };
    let gap = ops[k].time.saturating_since(prev).as_nanos();
    if gap == 0 {
        prev
    } else {
        prev + SimDuration::from_nanos(rng.below(gap))
    }
}

/// Collects every block the device reports uncorrectable (via the typed
/// [`Event::UncorrectableRead`] stream), so the driver can mirror the
/// *reported* loss into the shadow model. Reported loss is a legal
/// outcome of the integrity model; silent loss never is.
#[derive(Default)]
struct UncorrectableCollector {
    fresh: Vec<u64>,
}

impl Observer for UncorrectableCollector {
    fn record(&mut self, event: &Event) {
        if let Event::UncorrectableRead { lbn, .. } = event {
            self.fresh.push(*lbn);
        }
    }
}

/// The differential oracle: the shadow of legal block contents, and the
/// losses the device reported along the way.
pub(crate) struct Oracle {
    shadow: ShadowModel,
    /// Every block reported uncorrectable: the verifier excuses exactly
    /// these.
    reported: BTreeSet<u64>,
    /// The observer every device operation reports to.
    obs: UncorrectableCollector,
}

impl Oracle {
    /// An oracle for a device preloaded with the blocks of the runs
    /// `preloaded`: the device stamps generations in block order, and so
    /// does the shadow.
    fn new(preloaded: &[(u64, u64)]) -> Self {
        let mut shadow = ShadowModel::new();
        for lbn in preloaded.iter().flat_map(|&(start, end)| start..end) {
            shadow.write(lbn, 1);
        }
        Oracle {
            shadow,
            reported: BTreeSet::new(),
            obs: UncorrectableCollector::default(),
        }
    }

    /// Applies every freshly-reported uncorrectable block to the shadow
    /// (the host was told the data is gone, so its absence is now
    /// expected) and the excused set.
    fn drain(&mut self, report: &mut TortureReport) {
        for lbn in self.obs.fresh.drain(..) {
            if self.reported.insert(lbn) {
                report.uncorrectable_blocks += 1;
            }
            self.shadow.trim(lbn, 1);
        }
    }

    /// Checks a recovered `(lbn, generation)` mapping against the shadow.
    fn verify(&self, snap: &[(u64, u64)], ctx: &str, violations: &mut Vec<String>) {
        for v in self.shadow.verify_with_uncorrectable(snap, &self.reported) {
            violations.push(format!("{ctx}: {v}"));
        }
    }
}

/// One injected crash, as a device's recovery checks see it.
pub(crate) struct Crash<B> {
    /// The violation prefix naming the crash point and instant.
    ctx: String,
    /// When the power failed.
    at: SimTime,
    /// Whether the crash tore a write in flight.
    torn: bool,
    /// The recovery interval.
    recovery: Service,
    /// The device state captured just before the crash.
    before: B,
}

/// What the sweep needs from a device beyond its [`Device`] operations.
/// A block-mapped device ([`Backend::BLOCK_MAPPED`]) is checked
/// differentially and implements the mapping hooks; the others only check
/// their recovery accounting.
///
/// [`Device`]: mobistore_device::Device
pub(crate) trait Subject: Backend {
    /// Device state the recovery checks compare against.
    type Before;

    /// Captures that state just before a crash, with whether background
    /// work (a cleaning pass, a rebuild after a child loss) is in flight.
    fn before_crash(&self) -> (Self::Before, bool);

    /// The device-specific checks of a recovery.
    fn check_recovery(
        &self,
        crash: &Crash<Self::Before>,
        oracle: &Oracle,
        violations: &mut Vec<String>,
    );

    /// The `(lbn, generation)` mapping the device can still deliver.
    fn mapping(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }

    /// The generation the device stamps on its next write.
    fn next_write_generation(&self) -> u64 {
        0
    }

    /// Test-only: silently damages `lbn` (see
    /// [`TortureOptions::sabotage_lbn`]).
    fn sabotage(&mut self, _lbn: u64) {}

    /// Structural self-check once the trace is drained (panics on
    /// corruption).
    fn check_drained(&self) {}
}

impl Subject for MagneticDisk {
    type Before = DiskCounters;

    fn before_crash(&self) -> (DiskCounters, bool) {
        (self.counters(), false)
    }

    /// Spin-up plus synchronous-FAT replay: counted, never shrinking the
    /// recovery time, charging time for the FAT it re-reads.
    fn check_recovery(&self, crash: &Crash<DiskCounters>, _: &Oracle, out: &mut Vec<String>) {
        let (before, after) = (crash.before, self.counters());
        let mut fail = |what: &str| out.push(format!("{}: {what}", crash.ctx));
        if after.power_failures != before.power_failures + 1 {
            fail("power failure not counted");
        }
        if after.recovery_time < before.recovery_time {
            fail("recovery time went backwards");
        }
        if after.bytes_read > before.bytes_read && after.recovery_time == before.recovery_time {
            fail("FAT replay charged no recovery time");
        }
        if crash.recovery.end < crash.at {
            fail("recovery ended before the crash");
        }
    }
}

impl Subject for FlashDisk {
    type Before = FlashDiskCounters;

    fn before_crash(&self) -> (FlashDiskCounters, bool) {
        (self.counters(), false)
    }

    /// The spare-pool remap-header rescan: counted, and always charged.
    fn check_recovery(&self, crash: &Crash<FlashDiskCounters>, _: &Oracle, out: &mut Vec<String>) {
        let (before, after) = (crash.before, self.counters());
        let mut fail = |what: &str| out.push(format!("{}: {what}", crash.ctx));
        if after.power_failures != before.power_failures + 1 {
            fail("power failure not counted");
        }
        if after.recovery_time <= before.recovery_time {
            fail("remap rescan charged no recovery time");
        }
        if crash.recovery.end <= crash.at {
            fail("recovery ended before the crash");
        }
    }
}

impl Subject for FlashCardStore {
    /// The retired segments and the in-flight cleaning victim.
    type Before = (Vec<u32>, Option<u32>);

    fn before_crash(&self) -> (Self::Before, bool) {
        let victim = self.cleaning_victim();
        ((self.bad_segments(), victim), victim.is_some())
    }

    /// Structural checks beyond per-block contents.
    fn check_recovery(&self, crash: &Crash<Self::Before>, oracle: &Oracle, out: &mut Vec<String>) {
        let mut fail = |v: Violation| out.push(format!("{}: {v}", crash.ctx));
        let census = self.census();
        if census.total() != self.capacity_blocks() {
            fail(Violation::CensusImbalance {
                total: census.total(),
                capacity: self.capacity_blocks(),
            });
        }
        // With a write in flight the recovered live count is legitimately
        // ambiguous (never-acked blocks may or may not have reached
        // media), so the exact comparison applies only to boundary
        // crashes.
        if !crash.torn && census.live != oracle.shadow.live_blocks() {
            fail(Violation::LiveCountMismatch {
                device: census.live,
                shadow: oracle.shadow.live_blocks(),
            });
        }
        let (bad_before, victim) = &crash.before;
        let bad_after = self.bad_segments();
        for &segment in bad_before {
            if !bad_after.contains(&segment) {
                fail(Violation::RetirementRegressed { segment });
            }
        }
        // Copy-before-erase: recovery completes an interrupted cleaning
        // pass, so no block may still map into the victim segment.
        if let Some(victim) = *victim {
            let still = self
                .snapshot()
                .iter()
                .filter(|e| e.segment == victim)
                .count() as u64;
            if still > 0 {
                fail(Violation::CleaningNotAtomic {
                    victim,
                    still_in_victim: still,
                });
            }
        }
    }

    fn mapping(&self) -> Vec<(u64, u64)> {
        self.snapshot()
            .iter()
            .map(|e| (e.lbn, e.generation))
            .collect()
    }

    fn next_write_generation(&self) -> u64 {
        self.next_generation()
    }

    fn sabotage(&mut self, lbn: u64) {
        self.sabotage_lose_block(lbn);
    }

    fn check_drained(&self) {
        self.check_invariants();
    }
}

impl Subject for ArrayDevice {
    type Before = ();

    fn before_crash(&self) -> ((), bool) {
        ((), self.lost_children() > 0)
    }

    /// With at most `m` losses every acked block must decode, so a failed
    /// array — or an unreadable block that was never reported — is silent
    /// loss.
    fn check_recovery(&self, crash: &Crash<()>, oracle: &Oracle, out: &mut Vec<String>) {
        if self.is_failed() {
            out.push(format!(
                "{}: array failed under {} tolerated deaths",
                crash.ctx,
                self.parity_shards()
            ));
        }
        for lbn in self.unreadable_blocks() {
            if !oracle.reported.contains(&lbn) {
                out.push(format!(
                    "{}: block {lbn} unreadable but never reported",
                    crash.ctx
                ));
            }
        }
    }

    fn mapping(&self) -> Vec<(u64, u64)> {
        self.snapshot()
    }

    fn next_write_generation(&self) -> u64 {
        self.next_generation()
    }

    fn sabotage(&mut self, lbn: u64) {
        self.sabotage_corrupt(lbn);
    }
}

/// One sweep in progress: the capped trace prefix and the report it fills.
struct Sweep<'a> {
    ops: &'a [DiskOp],
    block_size: u64,
    opts: &'a TortureOptions,
    report: TortureReport,
}

impl WithDevice for &mut Sweep<'_> {
    type Out = ();

    /// Sweeps the crash points over `device`. A block-mapped device
    /// replays the prefix once per crash point, each time on a copy of the
    /// preloaded device; any other replays it once, crashing at every
    /// point.
    fn run<D: Subject + Clone>(self, device: D) {
        let points = select_points(self.ops.len(), self.opts.crash_points);
        if D::BLOCK_MAPPED {
            // The builder preloaded the prefix's working set.
            let preloaded = working_set_runs(self.ops);
            for k in points {
                self.replay(device.clone(), &[k], &mut Oracle::new(&preloaded));
            }
        } else {
            self.replay(device, &points, &mut Oracle::new(&[]));
        }
    }
}

impl Sweep<'_> {
    /// Replays the whole prefix on `dev`, crashing before each op in
    /// `crashes`, then verifies the drained contents of a block-mapped
    /// device. A refused write abandons the replay.
    fn replay<D: Subject>(&mut self, mut dev: D, crashes: &[usize], oracle: &mut Oracle) {
        for i in 0..self.ops.len() {
            if crashes.binary_search(&i).is_ok() {
                match self.crash(&mut dev, i, oracle) {
                    // Recovery resolved the torn op; it is not replayed.
                    Ok(true) => continue,
                    Ok(false) => {}
                    Err(e) => {
                        self.report.violations.push(e);
                        return;
                    }
                }
            }
            if let Err(e) = self.step(&mut dev, i, oracle) {
                self.report.violations.push(e);
                return;
            }
            self.report.ops_replayed += 1;
        }
        if D::BLOCK_MAPPED {
            let ctx = format!("crash point {}, after draining the trace", crashes[0]);
            oracle.verify(&dev.mapping(), &ctx, &mut self.report.violations);
            dev.check_drained();
        }
    }

    /// Crashes `dev` at boundary `k`, recovers and checks it; returns
    /// whether the crash tore op `k`.
    ///
    /// On a block-mapped device an odd boundary tears the write issued
    /// there (only a prefix of its blocks reaches media); otherwise the
    /// crash is jittered into the preceding inter-op gap — which lands
    /// some crashes mid-cleaning, mid-erase and mid-rebuild, since settle
    /// truncates background work at the crash instant.
    fn crash<D: Subject>(
        &mut self,
        dev: &mut D,
        k: usize,
        oracle: &mut Oracle,
    ) -> Result<bool, String> {
        let op = &self.ops[k];
        let mut rng = SimRng::seed_with_stream(self.opts.seed, k as u64);
        let torn = D::BLOCK_MAPPED && k % 2 == 1 && op.kind == DiskOpKind::Write;
        let at = if torn {
            oracle.shadow.begin_write(op.lbn, op.blocks);
            let prefix = op.blocks / 2;
            if prefix > 0 {
                let req = Request::blocks(op.lbn, prefix, self.block_size).of_file(op.file.0);
                let written = dev.write(op.time, req, &mut oracle.obs);
                oracle.drain(&mut self.report);
                if let Err(e) = written {
                    return Err(format!("crash point {k}: unexpected write failure: {e}"));
                }
            }
            self.report.mid_op_crashes += 1;
            op.time + SimDuration::from_nanos(1 + rng.below(1_000_000))
        } else {
            boundary_crash_instant(self.ops, k, &mut rng)
        };

        let (before, busy) = dev.before_crash();
        if busy {
            self.report.mid_cleaning_crashes += 1;
        }
        self.report.crashes += 1;
        let recovery = dev.power_fail(at, &mut oracle.obs);
        oracle.drain(&mut self.report);
        self.report.recoveries += 1;
        if let Some(lbn) = self.opts.sabotage_lbn {
            dev.sabotage(lbn);
        }

        let crash = Crash {
            ctx: format!(
                "crash point {k}{} at t={:.6}s",
                if torn { " (mid-op)" } else { "" },
                at.as_secs_f64()
            ),
            at,
            torn,
            recovery,
            before,
        };
        let violations = &mut self.report.violations;
        if D::BLOCK_MAPPED {
            let snap = dev.mapping();
            oracle.verify(&snap, &crash.ctx, violations);
            dev.check_recovery(&crash, oracle, violations);
            // Resolve the torn write from what actually survived and
            // re-align the generation counters.
            oracle.shadow.observe_recovery(&snap);
            oracle
                .shadow
                .resync_generations(dev.next_write_generation());
        } else {
            dev.check_recovery(&crash, oracle, violations);
        }
        Ok(torn)
    }

    /// Replays op `i`, fully acknowledged, mirroring it into the shadow
    /// along with any losses the device reports on the way (scrub passes
    /// and read-path drops surface through the collector). Returns an
    /// error if the device refused a write.
    fn step<D: Subject>(
        &mut self,
        dev: &mut D,
        i: usize,
        oracle: &mut Oracle,
    ) -> Result<(), String> {
        let op = &self.ops[i];
        let req = Request::blocks(op.lbn, op.blocks, self.block_size).of_file(op.file.0);
        let served = match op.kind {
            DiskOpKind::Read => {
                // An uncorrectable result is a *reported* loss: legal, and
                // mirrored into the shadow by the drain.
                let (svc, _) = dev.read(op.time, req, &mut oracle.obs);
                oracle.drain(&mut self.report);
                Some(svc)
            }
            DiskOpKind::Write => {
                oracle.shadow.begin_write(op.lbn, op.blocks);
                let written = dev.write(op.time, req, &mut oracle.obs);
                // Scrubbing during the write's settle may have dropped old
                // copies; apply those before acknowledging the new write.
                oracle.drain(&mut self.report);
                let svc = written.map_err(|e| format!("op {i}: write failed: {e}"))?;
                oracle.shadow.ack_write();
                Some(svc)
            }
            DiskOpKind::Trim => {
                dev.trim(op.time, req, &mut oracle.obs);
                oracle.drain(&mut self.report);
                oracle.shadow.trim(op.lbn, op.blocks);
                None
            }
        };
        if served.is_some_and(|svc| svc.end < op.time) {
            self.report
                .violations
                .push(format!("op {i}: service ended before issue"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackendConfig;
    use mobistore_device::params::{cu140_datasheet, intel_datasheet, sdp5_datasheet};
    use mobistore_trace::record::FileId;

    const KIB: u64 = 1024;

    /// A write-heavy toy trace over a 36-block working set: enough write
    /// traffic to fill the frontier of a small aged card and force
    /// cleaning during the sweep.
    fn toy_trace(n: u64) -> Trace {
        let mut trace = Trace::new(1024);
        for i in 0..n {
            let (kind, lbn, blocks) = match i % 7 {
                0 | 3 | 5 => (DiskOpKind::Write, (i * 5) % 32, 1 + (i % 4) as u32),
                6 => (DiskOpKind::Trim, (i * 3) % 32, 1),
                _ => (DiskOpKind::Read, (i * 11) % 32, 1),
            };
            trace.push(DiskOp {
                time: SimTime::from_secs_f64(i as f64),
                kind,
                lbn,
                blocks,
                file: FileId(0),
            });
        }
        trace
    }

    fn card_config() -> SystemConfig {
        // 4 segments of 128 KiB: frontier + 2 aged-full + 1 erased
        // reserve, so cleaning starts as soon as the frontier fills.
        SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(4 * 128 * KIB)
    }

    #[test]
    fn exhaustive_card_sweep_finds_no_violations() {
        let trace = toy_trace(160);
        let opts = TortureOptions {
            max_ops: 160,
            crash_points: CrashPoints::Exhaustive,
            ..TortureOptions::default()
        };
        let report = torture(&card_config(), &trace, &opts);
        assert!(
            report.passed(),
            "violations: {:#?}",
            &report.violations[..report.violations.len().min(10)]
        );
        assert_eq!(report.crashes, 160);
        assert_eq!(report.recoveries, 160);
        assert!(report.mid_op_crashes > 0, "no torn writes exercised");
        assert!(
            report.mid_cleaning_crashes > 0,
            "no crash struck mid-cleaning; grow the trace"
        );
        assert_eq!(report.truncated_ops, 0);
    }

    #[test]
    fn a_trace_past_the_lbn_domain_is_refused_not_replayed() {
        let mut trace = toy_trace(8);
        trace.push(DiskOp {
            time: SimTime::from_secs_f64(9.0),
            kind: DiskOpKind::Write,
            lbn: (1 << 32) - 1,
            blocks: 2,
            file: FileId(0),
        });
        let opts = TortureOptions::default();
        for config in [card_config(), SystemConfig::disk(cu140_datasheet())] {
            let report = torture(&config, &trace, &opts);
            assert_eq!(
                report.violations,
                [
                    "cannot replay: blocks would reach lbn 4294967297 (exclusive), past the \
                     lbn domain's end at 4294967296 (2^32)"
                ],
                "{}",
                config.name
            );
            assert_eq!((report.crashes, report.ops_replayed), (0, 0));
        }
        // Ending exactly at 2^32 is inside the domain.
        trace.ops.last_mut().expect("pushed above").blocks = 1;
        assert!(torture(&card_config(), &trace, &opts).passed());
    }

    #[test]
    fn an_invalid_array_geometry_is_a_violation_not_a_panic() {
        use mobistore_device::array::ChildClass;
        let wide = SystemConfig::array(200, 100, vec![ChildClass::FlashDisk; 300]);
        // The backend's fields are public: an emptied child list must be
        // refused too, before any death is placed on a child.
        let mut childless = SystemConfig::array(2, 1, vec![ChildClass::FlashDisk; 3]);
        if let BackendConfig::Array { children, .. } = &mut childless.backend {
            children.clear();
        }
        for (config, violation) in [
            (
                wide,
                "cannot replay: array geometry is invalid: bad erasure-code geometry \
                 200+100: need k >= 1, m >= 1, k+m <= 255",
            ),
            (
                childless,
                "cannot replay: array geometry is invalid: a 2+1 array needs exactly 3 \
                 children, got 0",
            ),
        ] {
            let report = torture(&config, &toy_trace(8), &TortureOptions::default());
            assert_eq!(report.violations, [violation]);
            assert_eq!((report.crashes, report.ops_replayed), (0, 0));
        }
    }

    #[test]
    fn an_unusable_rebuild_rate_is_a_violation_not_a_panic() {
        use mobistore_device::array::ChildClass;
        for (rate, shown) in [
            (0.0, "0.0"),
            (-1.0, "-1.0"),
            (f64::NAN, "NaN"),
            (1e-300, "1e-300"),
        ] {
            let mut config = SystemConfig::array(2, 1, vec![ChildClass::FlashDisk; 3]);
            if let BackendConfig::Array { rebuild_rate, .. } = &mut config.backend {
                *rebuild_rate = rate;
            }
            let report = torture(&config, &toy_trace(8), &TortureOptions::default());
            assert_eq!(
                report.violations,
                [format!(
                    "cannot replay: array geometry is invalid: a rebuild rate of {shown} \
                     stripes/s gives no per-stripe period of at least 1 ns that fits the \
                     simulated clock"
                )]
            );
            assert_eq!((report.crashes, report.ops_replayed), (0, 0));
        }
    }

    #[test]
    fn the_builder_takes_any_rebuild_rate_and_the_run_refuses_unusable_ones() {
        use crate::simulator::{try_simulate, ConfigError, RunOptions, SimError};
        use mobistore_device::array::{ArrayGeometryError, ChildClass};
        use mobistore_device::DeviceError;
        let trace = toy_trace(8);
        for (rate, shown) in [
            (0.0, "0.0"),
            (-1.0, "-1.0"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (1e-300, "1e-300"),
        ] {
            let config =
                SystemConfig::array(2, 1, vec![ChildClass::FlashDisk; 3]).with_rebuild_rate(rate);
            assert_eq!(
                try_simulate(&config, &trace, RunOptions::default()).err(),
                Some(SimError::Config(ConfigError::DeviceGeometry(
                    DeviceError::ArrayGeometry(ArrayGeometryError::RebuildRate {
                        bits: rate.to_bits()
                    })
                ))),
                "{rate:?}"
            );
            let report = torture(&config, &trace, &TortureOptions::default());
            assert_eq!(
                report.violations,
                [format!(
                    "cannot replay: array geometry is invalid: a rebuild rate of {shown} \
                     stripes/s gives no per-stripe period of at least 1 ns that fits the \
                     simulated clock"
                )]
            );
        }
    }

    #[test]
    fn an_aged_card_is_checked_against_the_blocks_it_can_fill() {
        // card_config()'s four segments of 128 blocks leave two to fill.
        let reads = |blocks: u64| {
            let mut trace = Trace::new(1024);
            for (i, lbn) in (0..blocks).step_by(8).enumerate() {
                trace.push(DiskOp {
                    time: SimTime::from_secs_f64(i as f64),
                    kind: DiskOpKind::Read,
                    lbn,
                    blocks: (blocks - lbn).min(8) as u32,
                    file: FileId(0),
                });
            }
            trace
        };
        let opts = TortureOptions {
            crash_points: CrashPoints::Sampled(4),
            ..TortureOptions::default()
        };
        let report = torture(&card_config(), &reads(256), &opts);
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.crashes, 4);
        for blocks in [257, 512] {
            let report =
                std::panic::catch_unwind(|| torture(&card_config(), &reads(blocks), &opts))
                    .expect("a working set past the fillable blocks is a violation, not a panic");
            assert_eq!(report.device, "flash card", "a refused card is named");
            assert_eq!(
                report.violations,
                [format!(
                    "cannot replay: trace working set ({blocks} blocks) exceeds the flash \
                     preallocation bound (256 blocks); increase the flash capacity or the \
                     utilization"
                )]
            );
        }
    }

    #[test]
    fn sabotaged_recovery_is_caught_by_the_shadow() {
        // Silently losing one mapped block after recovery is invisible to
        // the card's own invariants but not to the differential check.
        let trace = toy_trace(40);
        let opts = TortureOptions {
            max_ops: 40,
            crash_points: CrashPoints::Sampled(4),
            sabotage_lbn: Some(2),
            ..TortureOptions::default()
        };
        let report = torture(&card_config(), &trace, &opts);
        assert!(!report.passed(), "sabotage went undetected");
        assert!(
            report.violations.iter().any(|v| v.contains("lost write")),
            "wrong violation kind: {:?}",
            report.violations.first()
        );
    }

    #[test]
    fn integrity_enabled_sweep_reports_loss_never_silence() {
        use mobistore_sim::integrity::IntegrityConfig;
        // Wear-coupled bit errors, retention decay, and a fast scrubber,
        // all on top of the crash sweep: blocks get dropped, but every
        // drop is reported, so the shadow finds nothing silent.
        let trace = toy_trace(160);
        let config = card_config().with_integrity(IntegrityConfig {
            base_errors: 7.0,
            retention_per_hour: 4.0,
            scrub_interval: Some(SimDuration::from_secs(20)),
            seed: 7,
            ..IntegrityConfig::none()
        });
        let opts = TortureOptions {
            max_ops: 160,
            crash_points: CrashPoints::Sampled(12),
            ..TortureOptions::default()
        };
        let report = torture(&config, &trace, &opts);
        assert!(
            report.passed(),
            "violations: {:#?}",
            &report.violations[..report.violations.len().min(10)]
        );
        assert!(
            report.uncorrectable_blocks > 0,
            "integrity model never dropped a block; raise the rates"
        );
    }

    #[test]
    fn sabotage_is_still_caught_with_integrity_enabled() {
        use mobistore_sim::integrity::IntegrityConfig;
        // The excused set covers exactly the *reported* losses: a block
        // silently dropped by the sabotage hook stays a violation even
        // when the integrity model is live.
        let trace = toy_trace(40);
        let config = card_config().with_integrity(IntegrityConfig {
            base_errors: 2.0,
            seed: 7,
            ..IntegrityConfig::none()
        });
        let opts = TortureOptions {
            max_ops: 40,
            crash_points: CrashPoints::Sampled(4),
            sabotage_lbn: Some(2),
            ..TortureOptions::default()
        };
        let report = torture(&config, &trace, &opts);
        assert!(
            !report.passed(),
            "sabotage went undetected with integrity enabled"
        );
    }

    fn array_config() -> SystemConfig {
        use mobistore_device::array::ChildClass;
        SystemConfig::array(
            4,
            2,
            vec![
                ChildClass::FlashCard,
                ChildClass::FlashDisk,
                ChildClass::FlashDisk,
                ChildClass::HardDisk,
                ChildClass::FlashDisk,
                ChildClass::FlashCard,
            ],
        )
    }

    #[test]
    fn array_sweep_survives_crashes_and_tolerated_deaths() {
        // Two of six children die mid-sweep (the full parity budget) and
        // a crash strikes at every sampled boundary; acked writes must
        // still decode everywhere.
        let trace = toy_trace(120);
        let opts = TortureOptions {
            max_ops: 120,
            crash_points: CrashPoints::Sampled(12),
            ..TortureOptions::default()
        };
        let report = torture(&array_config(), &trace, &opts);
        assert_eq!(report.device, "ec-array");
        assert!(
            report.passed(),
            "violations: {:#?}",
            &report.violations[..report.violations.len().min(10)]
        );
        assert_eq!(report.crashes, 12);
        assert_eq!(report.recoveries, 12);
        assert!(report.mid_op_crashes > 0, "no torn writes exercised");
        assert!(
            report.mid_cleaning_crashes > 0,
            "no crash struck while a child was lost; move the deaths"
        );
    }

    #[test]
    fn array_sabotaged_survivor_is_caught_by_the_shadow() {
        // Silently corrupting a surviving shard (or, if the block's own
        // shard is gone, every surviving parity shard) is invisible to
        // the array's bookkeeping but not to the differential check.
        let trace = toy_trace(40);
        let opts = TortureOptions {
            max_ops: 40,
            crash_points: CrashPoints::Sampled(4),
            sabotage_lbn: Some(2),
            ..TortureOptions::default()
        };
        let report = torture(&array_config(), &trace, &opts);
        assert!(!report.passed(), "sabotage went undetected");
    }

    #[test]
    fn array_sweep_is_deterministic() {
        let trace = toy_trace(60);
        let opts = TortureOptions {
            max_ops: 60,
            crash_points: CrashPoints::Sampled(6),
            ..TortureOptions::default()
        };
        let a = torture(&array_config(), &trace, &opts);
        let b = torture(&array_config(), &trace, &opts);
        assert_eq!(a.ops_replayed, b.ops_replayed);
        assert_eq!(a.mid_op_crashes, b.mid_op_crashes);
        assert_eq!(a.uncorrectable_blocks, b.uncorrectable_blocks);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn disk_sweep_accounts_every_crash() {
        let trace = toy_trace(60);
        let mut config = SystemConfig::disk(cu140_datasheet());
        config.fault.fat_scan_bytes = 64 * KIB;
        let opts = TortureOptions {
            max_ops: 60,
            crash_points: CrashPoints::Sampled(8),
            ..TortureOptions::default()
        };
        let report = torture(&config, &trace, &opts);
        assert_eq!(report.device, "magnetic disk");
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 8);
        assert_eq!(report.recoveries, 8);
    }

    #[test]
    fn flash_disk_sweep_accounts_every_crash() {
        let trace = toy_trace(60);
        let config = SystemConfig::flash_disk(sdp5_datasheet());
        let opts = TortureOptions {
            max_ops: 60,
            crash_points: CrashPoints::Sampled(8),
            ..TortureOptions::default()
        };
        let report = torture(&config, &trace, &opts);
        assert_eq!(report.device, "flash disk");
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 8);
    }

    #[test]
    fn the_flash_disk_is_tortured_with_the_bit_errors_it_is_simulated_with() {
        use mobistore_sim::integrity::IntegrityConfig;
        let trace = toy_trace(60);
        let config = SystemConfig::flash_disk(sdp5_datasheet()).with_integrity(IntegrityConfig {
            base_errors: 20.0,
            seed: 3,
            ..IntegrityConfig::none()
        });
        let opts = TortureOptions {
            max_ops: 60,
            crash_points: CrashPoints::Sampled(8),
            ..TortureOptions::default()
        };
        let report = torture(&config, &trace, &opts);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(
            report.uncorrectable_blocks > 0,
            "the flash disk lost no block: built without its integrity plan"
        );
    }

    #[test]
    fn sampled_points_are_spread_and_deduplicated() {
        assert_eq!(select_points(4, CrashPoints::Exhaustive), vec![0, 1, 2, 3]);
        assert_eq!(select_points(4, CrashPoints::Sampled(9)), vec![0, 1, 2, 3]);
        assert_eq!(
            select_points(100, CrashPoints::Sampled(4)),
            vec![0, 25, 50, 75]
        );
        // Even strides still cover odd (mid-op) boundaries.
        assert!(select_points(192, CrashPoints::Sampled(24))
            .iter()
            .any(|p| p % 2 == 1));
        assert!(select_points(10, CrashPoints::Sampled(0)).is_empty());
        assert!(select_points(0, CrashPoints::Exhaustive).is_empty());
    }
}
