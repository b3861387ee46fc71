//! An erasure-coded array over `k + m` child devices.
//!
//! The paper's single-device storage alternatives (magnetic disk, flash
//! disk, flash card) trade energy against latency, but a lost device loses
//! its data. [`ArrayDevice`] composes `k + m` children into one logical
//! block device that survives any `m` concurrent device losses:
//!
//! * each logical block belongs to a **stripe** of `k` data shards plus
//!   `m` Reed-Solomon parity shards ([`mobistore_sim::ec::ReedSolomon`]),
//!   one shard per child, with RAID-5-style parity rotation so parity
//!   traffic spreads across the array;
//! * a read whose shard is unavailable becomes a **degraded read**: the
//!   array fetches any `k` surviving shards in parallel, pays a bounded
//!   retry/backoff penalty, and decodes the block — typed
//!   [`DeviceError::ArrayDegraded`] only when fewer than `k` shards
//!   survive, never silent loss;
//! * a dead child with a hot spare available enters **rebuild**: a
//!   background reconstructor walks the stripes in order during idle
//!   gaps (paced like the scrubber), checkpointing its watermark so a
//!   power failure resumes rather than restarts the walk;
//! * once concurrent losses exceed `m` the array degrades to
//!   **read-only** ([`DeviceError::ArrayFailed`]): writes are rejected,
//!   reads of still-decodable stripes keep working.
//!
//! Children are modeled as bandwidth/latency/power **profiles** derived
//! from the paper's Table 2 devices rather than full device models: the
//! array charges realistic time and energy per shard transfer while the
//! per-device wear/cleaning machinery stays in the single-device models.
//! Shard *contents* are 16-byte `[lbn, generation]` payloads so the
//! crash-consistency shadow oracle can verify that acknowledged writes
//! survive any `≤ m` losses and that a sabotaged survivor is caught.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mobistore_sim::ec::ReedSolomon;
use mobistore_sim::energy::{EnergyMeter, Joules, Watts};
use mobistore_sim::fault::DeathSchedule;
use mobistore_sim::hist::LatencyRecorder;
use mobistore_sim::obs::{Event, Observer};
use mobistore_sim::span::{Span, SpanKind};
use mobistore_sim::time::{SimDuration, SimTime};
use mobistore_sim::units::Bandwidth;

use crate::{Device, DeviceError, QueueDiscipline, ReadOutcome, Request, Service, WriteOutcome};

/// The class of device serving as one array child.
///
/// The array charges each shard transfer at the class's datasheet rates
/// (Table 2 / §3 of the paper); mixes are allowed, in which case every
/// stripe operation completes when its *slowest* involved child does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildClass {
    /// Intel Series 2 flash card: fast reads, slow programs, tiny idle
    /// draw.
    FlashCard,
    /// SunDisk SDP-series flash disk: block interface, millisecond
    /// latency.
    FlashDisk,
    /// Caviar Ultralite-class hard disk: high bandwidth, heavy idle
    /// draw.
    HardDisk,
}

/// The timing/energy profile the array charges for one child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildProfile {
    /// Shard read bandwidth.
    pub read_bandwidth: Bandwidth,
    /// Shard write bandwidth.
    pub write_bandwidth: Bandwidth,
    /// Fixed per-access latency.
    pub access_latency: SimDuration,
    /// Power while transferring.
    pub active_power: Watts,
    /// Power while idle.
    pub idle_power: Watts,
}

impl ChildClass {
    /// Stable lowercase name (used by config labels and CLI parsing).
    pub fn name(self) -> &'static str {
        match self {
            ChildClass::FlashCard => "card",
            ChildClass::FlashDisk => "flashdisk",
            ChildClass::HardDisk => "disk",
        }
    }

    /// Parses a CLI/config spelling of a child class.
    pub fn parse(s: &str) -> Option<ChildClass> {
        match s {
            "card" | "flashcard" | "flash-card" => Some(ChildClass::FlashCard),
            "flashdisk" | "flash-disk" | "fd" => Some(ChildClass::FlashDisk),
            "disk" | "hdd" | "harddisk" | "hard-disk" => Some(ChildClass::HardDisk),
            _ => None,
        }
    }

    /// The datasheet profile for this class (Table 2 numbers; the flash
    /// card's write rate is the measured program rate, the hard disk's
    /// latency is the paper's average access time).
    pub fn profile(self) -> ChildProfile {
        match self {
            ChildClass::FlashCard => ChildProfile {
                read_bandwidth: Bandwidth::from_kib_per_s(9765.0),
                write_bandwidth: Bandwidth::from_kib_per_s(214.0),
                access_latency: SimDuration::ZERO,
                active_power: Watts(0.47),
                idle_power: Watts(0.0005),
            },
            ChildClass::FlashDisk => ChildProfile {
                read_bandwidth: Bandwidth::from_kib_per_s(600.0),
                write_bandwidth: Bandwidth::from_kib_per_s(109.0),
                access_latency: SimDuration::from_millis_f64(1.5),
                active_power: Watts(0.36),
                idle_power: Watts(0.0005),
            },
            ChildClass::HardDisk => ChildProfile {
                read_bandwidth: Bandwidth::from_kib_per_s(2125.0),
                write_bandwidth: Bandwidth::from_kib_per_s(2125.0),
                access_latency: SimDuration::from_millis_f64(25.7),
                active_power: Watts(1.75),
                idle_power: Watts(0.7),
            },
        }
    }
}

/// Counters the array maintains alongside energy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrayCounters {
    /// Completed host operations (reads + writes).
    pub ops: u64,
    /// Logical bytes read.
    pub bytes_read: u64,
    /// Logical bytes written.
    pub bytes_written: u64,
    /// Block reads served by decoding survivors instead of the direct
    /// shard.
    pub degraded_reads: u64,
    /// Stripes whose parity was recomputed by a write.
    pub parity_updates: u64,
    /// Stripes reconstructed onto a hot spare.
    pub rebuild_stripes: u64,
    /// Rebuilds that completed (child returned to full redundancy).
    pub rebuilds_completed: u64,
    /// Sim time spent reconstructing stripes.
    pub rebuild_time: SimDuration,
    /// Children that died permanently.
    pub device_deaths: u64,
    /// Block reads that could not be reconstructed (typed
    /// [`DeviceError::ArrayDegraded`], mirrored as
    /// [`Event::UncorrectableRead`]).
    pub data_loss_events: u64,
    /// Total window of vulnerability: sim time during which at least one
    /// child's shards were missing (death to rebuild completion, or to
    /// the end of the run).
    pub vulnerability: SimDuration,
    /// Power failures survived.
    pub power_failures: u64,
    /// Sim time spent re-reading array metadata after power loss.
    pub recovery_time: SimDuration,
    /// Writes rejected because the array is failed read-only.
    pub read_only_rejections: u64,
}

impl ArrayCounters {
    /// Adds another array's counters into this one (fleet aggregation:
    /// counts and durations are all additive).
    pub fn merge(&mut self, other: &ArrayCounters) {
        self.ops += other.ops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.degraded_reads += other.degraded_reads;
        self.parity_updates += other.parity_updates;
        self.rebuild_stripes += other.rebuild_stripes;
        self.rebuilds_completed += other.rebuilds_completed;
        self.rebuild_time += other.rebuild_time;
        self.device_deaths += other.device_deaths;
        self.data_loss_events += other.data_loss_events;
        self.vulnerability += other.vulnerability;
        self.power_failures += other.power_failures;
        self.recovery_time += other.recovery_time;
        self.read_only_rejections += other.read_only_rejections;
    }
}

/// One stripe's `k + m` shard payloads in logical order (`0..k` data,
/// `k..k+m` parity). `None` means the shard is missing: its child died
/// and the stripe has not been rebuilt yet.
#[derive(Clone)]
struct Stripe {
    shards: Vec<Option<Vec<u8>>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildState {
    /// Serving reads and writes, holds every shard it should.
    Alive,
    /// Died and was replaced by a hot spare that the background rebuild
    /// is filling; rebuilt (and freshly written) stripes are readable.
    Rebuilding,
    /// Died with no spare left; its shards are gone.
    Dead,
}

#[derive(Clone)]
struct Child {
    profile: ChildProfile,
    state: ChildState,
    /// When the child died; cleared when the open vulnerability window is
    /// accounted (rebuild completion or end of run).
    died_at: Option<SimTime>,
    /// Whether the death schedule already fired for this child.
    death_fired: bool,
}

/// The active rebuild: reconstructing `child`'s shards stripe by stripe.
#[derive(Clone)]
struct RebuildJob {
    child: usize,
    /// Stripes below this number are done.
    watermark: u64,
    /// Durable watermark: power failure resumes from here.
    checkpoint: u64,
    /// Stripes reconstructed since the last checkpoint.
    since_checkpoint: u64,
}

/// Bytes of shard payload: `[lbn: u64 LE][generation: u64 LE]`. Timing
/// and energy are charged at `block_bytes` per shard; the payload only
/// carries the identity the crash oracle verifies.
const PAYLOAD_BYTES: usize = 16;

/// Stripes between rebuild checkpoints.
const REBUILD_CHECKPOINT_STRIPES: u64 = 64;

/// Per-child metadata re-read after power loss (stripe map + rebuild
/// watermark headers).
const RECOVERY_SCAN_BYTES: u64 = 64 * 1024;

const CATEGORIES: &[&str] = &[
    "read", "write", "parity", "degraded", "rebuild", "idle", "recover",
];

/// An erasure-coded array of `k + m` child devices.
///
/// # Examples
///
/// ```
/// use mobistore_device::array::{ArrayDevice, ChildClass};
/// use mobistore_device::{Device, Request};
/// use mobistore_sim::obs::NoopObserver;
/// use mobistore_sim::time::SimTime;
///
/// let children = vec![ChildClass::FlashDisk; 6];
/// let mut array = ArrayDevice::new(4, 2, &children, 1024);
/// let req = Request::blocks(0, 4, 1024);
/// let svc = array.write(SimTime::ZERO, req, &mut NoopObserver).unwrap();
/// let (_, res) = array.read(svc.end, req, &mut NoopObserver);
/// assert!(res.is_ok());
/// ```
#[derive(Clone)]
pub struct ArrayDevice {
    rs: ReedSolomon,
    children: Vec<Child>,
    block_bytes: u64,
    queueing: QueueDiscipline,
    deaths: DeathSchedule,
    spares: u32,
    /// Stripes per second the background rebuild reconstructs.
    rebuild_rate: f64,
    retry_backoff: SimDuration,
    max_retries: u32,
    stripes: BTreeMap<u64, Stripe>,
    /// Acknowledged logical blocks (the shadow oracle's domain).
    mapped: BTreeSet<u64>,
    next_gen: u64,
    rebuild_queue: VecDeque<usize>,
    rebuild: Option<RebuildJob>,
    failed: bool,
    free_at: SimTime,
    meter: EnergyMeter,
    counters: ArrayCounters,
    degraded: LatencyRecorder,
}

impl ArrayDevice {
    /// Builds a `k + m` array over `children` (one shard of every stripe
    /// per child), with one hot spare and default rebuild pacing.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (`k == 0`, `m == 0`,
    /// `k + m > 255`), if `children.len() != k + m`, or if `block_bytes`
    /// is zero.
    pub fn new(k: usize, m: usize, children: &[ChildClass], block_bytes: u64) -> Self {
        let rs = match ReedSolomon::new(k, m) {
            Ok(rs) => rs,
            Err(e) => panic!("array geometry {k}+{m} is invalid: {e}"),
        };
        assert_eq!(
            children.len(),
            k + m,
            "a {k}+{m} array needs exactly {} children, got {}",
            k + m,
            children.len()
        );
        assert!(block_bytes > 0, "array block size must be nonzero");
        let children = children
            .iter()
            .map(|&class| Child {
                profile: class.profile(),
                state: ChildState::Alive,
                died_at: None,
                death_fired: false,
            })
            .collect::<Vec<_>>();
        let n = children.len();
        ArrayDevice {
            rs,
            children,
            block_bytes,
            queueing: QueueDiscipline::Fifo,
            deaths: DeathSchedule::quiet(n),
            spares: 1,
            rebuild_rate: 128.0,
            retry_backoff: SimDuration::from_millis_f64(1.0),
            max_retries: 3,
            stripes: BTreeMap::new(),
            mapped: BTreeSet::new(),
            next_gen: 1,
            rebuild_queue: VecDeque::new(),
            rebuild: None,
            failed: false,
            free_at: SimTime::ZERO,
            meter: EnergyMeter::new(CATEGORIES),
            counters: ArrayCounters::default(),
            degraded: LatencyRecorder::new(),
        }
    }

    /// Sets the queue discipline (see [`QueueDiscipline`]).
    pub fn with_queueing(mut self, discipline: QueueDiscipline) -> Self {
        self.queueing = discipline;
        self
    }

    /// Installs a per-child permanent-death schedule. The quiet schedule
    /// (the default) leaves behaviour bit-identical to an array built
    /// without one.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover exactly `k + m` children.
    pub fn with_deaths(mut self, deaths: DeathSchedule) -> Self {
        assert_eq!(
            deaths.len(),
            self.children.len(),
            "death schedule covers {} children, array has {}",
            deaths.len(),
            self.children.len()
        );
        self.deaths = deaths;
        self
    }

    /// Sets how many hot spares are available for rebuilds (default 1).
    pub fn with_spares(mut self, spares: u32) -> Self {
        self.spares = spares;
        self
    }

    /// Sets the background rebuild pace in stripes per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite and positive.
    pub fn with_rebuild_rate(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "rebuild rate must be finite and positive, got {rate}"
        );
        self.rebuild_rate = rate;
        self
    }

    /// Data-shard count `k`.
    pub fn data_shards(&self) -> usize {
        self.rs.data_shards()
    }

    /// Parity-shard count `m` (the losses the array tolerates).
    pub fn parity_shards(&self) -> usize {
        self.rs.parity_shards()
    }

    /// True once concurrent losses exceeded `m`: the array is read-only.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Children currently not at full redundancy (dead or rebuilding).
    pub fn lost_children(&self) -> u32 {
        self.children
            .iter()
            .filter(|c| c.state != ChildState::Alive)
            .count() as u32
    }

    /// Returns the operation counters.
    pub fn counters(&self) -> ArrayCounters {
        self.counters
    }

    /// Returns total energy consumed so far.
    pub fn energy(&self) -> Joules {
        self.meter.total()
    }

    /// Returns the energy meter for per-state breakdowns.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Per-operation degraded-read response times (only operations that
    /// decoded at least one block from survivors are recorded).
    pub fn degraded_recorder(&self) -> &LatencyRecorder {
        &self.degraded
    }

    /// The generation the next acknowledged write will receive.
    pub fn next_generation(&self) -> u64 {
        self.next_gen
    }

    /// Zeroes energy and counters while keeping array state; used at the
    /// warm-up boundary (§4.2).
    pub fn reset_metrics(&mut self) {
        self.meter = EnergyMeter::new(CATEGORIES);
        self.counters = ArrayCounters::default();
        self.degraded = LatencyRecorder::new();
    }

    fn k(&self) -> usize {
        self.rs.data_shards()
    }

    fn n(&self) -> usize {
        self.rs.total_shards()
    }

    /// The physical child holding logical slot `slot` of stripe `s`
    /// (RAID-5-style rotation: every child carries its share of parity).
    fn child_of(&self, slot: usize, s: u64) -> usize {
        let n = self.n() as u64;
        ((slot as u64 + s) % n) as usize
    }

    /// The logical slot child `c` holds in stripe `s`.
    fn slot_of(&self, c: usize, s: u64) -> usize {
        let n = self.n() as u64;
        ((c as u64 + n - (s % n)) % n) as usize
    }

    fn payload(lbn: u64, generation: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(PAYLOAD_BYTES);
        v.extend_from_slice(&lbn.to_le_bytes());
        v.extend_from_slice(&generation.to_le_bytes());
        v
    }

    fn parse_generation(payload: &[u8]) -> u64 {
        let mut gen = [0u8; 8];
        gen.copy_from_slice(&payload[8..16]);
        u64::from_le_bytes(gen)
    }

    /// True if the child can accept a shard write (its media is present).
    fn writable(&self, child: usize) -> bool {
        self.children[child].state != ChildState::Dead
    }

    /// Fires scheduled deaths up to `now`, in child order.
    fn process_deaths(&mut self, now: SimTime) {
        for c in 0..self.children.len() {
            if self.children[c].death_fired {
                continue;
            }
            let Some(d) = self.deaths.death_of(c) else {
                continue;
            };
            if d > now {
                continue;
            }
            self.children[c].death_fired = true;
            self.children[c].died_at = Some(d);
            self.counters.device_deaths += 1;
            // The dead medium takes its shards with it.
            let slots: Vec<(u64, usize)> = self
                .stripes
                .keys()
                .map(|&s| (s, self.slot_of(c, s)))
                .collect();
            for (s, slot) in slots {
                if let Some(stripe) = self.stripes.get_mut(&s) {
                    stripe.shards[slot] = None;
                }
            }
            if self.spares > 0 {
                self.spares -= 1;
                self.children[c].state = ChildState::Rebuilding;
                self.rebuild_queue.push_back(c);
            } else {
                self.children[c].state = ChildState::Dead;
            }
            if self.lost_children() as usize > self.rs.parity_shards() {
                self.failed = true;
            }
        }
    }

    /// Settles the gap `[free_at, now]`: deaths fire first, then the
    /// background rebuild consumes idle time at its configured pace, and
    /// the remainder is charged as idle. Returns when the array can start
    /// a new request.
    fn settle<O: Observer>(&mut self, now: SimTime, obs: &mut O) -> SimTime {
        self.process_deaths(now);
        if now <= self.free_at {
            return match self.queueing {
                QueueDiscipline::Fifo => self.free_at,
                QueueDiscipline::OpenLoop => now,
            };
        }
        let gap = now - self.free_at;
        let busy = self.run_rebuild(self.free_at, now, obs);
        let idle = gap.saturating_sub(busy);
        let idle_power: f64 = self
            .children
            .iter()
            .filter(|c| c.state != ChildState::Dead)
            .map(|c| c.profile.idle_power.get())
            .sum();
        self.meter.charge_for("idle", Watts(idle_power), idle);
        self.free_at = now;
        now
    }

    /// Runs the background rebuild inside the idle gap `[from, until]`;
    /// a job cannot start before its child died. Returns the busy time
    /// consumed (the rest of the gap is idle).
    fn run_rebuild<O: Observer>(
        &mut self,
        from: SimTime,
        until: SimTime,
        obs: &mut O,
    ) -> SimDuration {
        let per_stripe = SimDuration::from_secs_f64(1.0 / self.rebuild_rate);
        let mut busy = SimDuration::ZERO;
        let mut cursor = from;
        loop {
            if self.rebuild.is_none() {
                let Some(child) = self.rebuild_queue.pop_front() else {
                    break;
                };
                self.rebuild = Some(RebuildJob {
                    child,
                    watermark: 0,
                    checkpoint: 0,
                    since_checkpoint: 0,
                });
            }
            let mut job = self.rebuild.clone().expect("active rebuild");
            // The walk cannot have started before the child died.
            let died = self.children[job.child].died_at.unwrap_or(cursor);
            let start_at = cursor.max(died);
            if start_at >= until {
                break;
            }
            let remaining = until - start_at;
            let affordable = remaining.as_nanos() / per_stripe.as_nanos().max(1);
            if affordable == 0 {
                break;
            }
            let todo: Vec<u64> = self
                .stripes
                .range(job.watermark..)
                .map(|(&s, _)| s)
                .take(affordable.min(u64::from(u32::MAX)) as usize)
                .collect();
            let mut done = 0u64;
            for s in &todo {
                let slot = self.slot_of(job.child, *s);
                self.reconstruct_slot(*s, slot);
                job.watermark = s + 1;
                job.since_checkpoint += 1;
                if job.since_checkpoint >= REBUILD_CHECKPOINT_STRIPES {
                    job.checkpoint = job.watermark;
                    job.since_checkpoint = 0;
                }
                done += 1;
            }
            let batch_time = per_stripe * done;
            if done > 0 {
                busy += batch_time;
                self.counters.rebuild_stripes += done;
                self.counters.rebuild_time += batch_time;
                let power = self.children[job.child].profile.active_power;
                self.meter.charge_for("rebuild", power, batch_time);
                obs.span(&Span::new(
                    SpanKind::Rebuild {
                        stripe: todo[0],
                        stripes: done.min(u64::from(u32::MAX)) as u32,
                    },
                    start_at,
                    start_at + batch_time,
                ));
            }
            cursor = start_at + batch_time;
            let finished = self.stripes.range(job.watermark..).next().is_none();
            if finished {
                let child = job.child;
                self.rebuild = None;
                self.children[child].state = ChildState::Alive;
                self.counters.rebuilds_completed += 1;
                if let Some(died) = self.children[child].died_at.take() {
                    self.counters.vulnerability += cursor.saturating_since(died);
                }
            } else {
                self.rebuild = Some(job);
                // Gap exhausted mid-walk.
                break;
            }
        }
        busy
    }

    /// Reconstructs stripe `s`'s shard at logical `slot` from survivors,
    /// if at least `k` shards are available. Unrecoverable stripes stay
    /// missing and surface later as typed degraded-read errors.
    fn reconstruct_slot(&mut self, s: u64, slot: usize) {
        let Some(stripe) = self.stripes.get(&s) else {
            return;
        };
        if stripe.shards[slot].is_some() {
            // A write-through already refreshed this shard.
            return;
        }
        let available = stripe.shards.iter().filter(|x| x.is_some()).count();
        if available < self.k() {
            return;
        }
        let mut shards = stripe.shards.clone();
        if self.rs.reconstruct(&mut shards).is_ok() {
            let value = shards[slot].take();
            if let Some(st) = self.stripes.get_mut(&s) {
                st.shards[slot] = value;
            }
        }
    }

    /// Gathers the full data vector of stripe `s` (decoding from
    /// survivors if needed). `None` if fewer than `k` shards survive.
    fn stripe_data(&self, stripe: &Stripe) -> Option<Vec<Vec<u8>>> {
        let k = self.k();
        if stripe.shards[..k].iter().all(|x| x.is_some()) {
            return Some(
                stripe.shards[..k]
                    .iter()
                    .map(|x| x.clone().expect("present data shard"))
                    .collect(),
            );
        }
        let available = stripe.shards.iter().filter(|x| x.is_some()).count();
        if available < k {
            return None;
        }
        let mut shards = stripe.shards.clone();
        self.rs.reconstruct(&mut shards).ok()?;
        Some(
            shards[..k]
                .iter()
                .map(|x| x.clone().expect("reconstructed data shard"))
                .collect(),
        )
    }

    /// Writes one block's payload into its stripe and recomputes parity,
    /// without charging time or energy (preload, trim). Returns false if
    /// the stripe has too few survivors to update.
    fn store_instant(&mut self, lbn: u64, payload: Vec<u8>) -> bool {
        let k = self.k();
        let s = lbn / k as u64;
        let slot = (lbn % k as u64) as usize;
        self.ensure_stripe(s);
        let stripe = self.stripes.get(&s).expect("stripe just ensured");
        let Some(mut data) = self.stripe_data(stripe) else {
            return false;
        };
        data[slot] = payload;
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = self.rs.encode(&refs);
        let n = self.n();
        let writable: Vec<bool> = (0..n).map(|i| self.writable(self.child_of(i, s))).collect();
        let stripe = self.stripes.get_mut(&s).expect("stripe just ensured");
        for (i, d) in data.into_iter().enumerate() {
            if (i == slot || stripe.shards[i].is_some()) && writable[i] {
                stripe.shards[i] = Some(d);
            }
        }
        for (j, p) in parity.into_iter().enumerate() {
            if writable[k + j] {
                stripe.shards[k + j] = Some(p);
            } else {
                stripe.shards[k + j] = None;
            }
        }
        true
    }

    /// Materializes stripe `s` if absent: all-zero data payloads with
    /// freshly encoded parity, shards present only on children whose
    /// media is present.
    fn ensure_stripe(&mut self, s: u64) {
        if self.stripes.contains_key(&s) {
            return;
        }
        let k = self.k();
        let n = self.n();
        let zero = vec![0u8; PAYLOAD_BYTES];
        let data: Vec<&[u8]> = (0..k).map(|_| zero.as_slice()).collect();
        let parity = self.rs.encode(&data);
        let mut shards: Vec<Option<Vec<u8>>> = Vec::with_capacity(n);
        for i in 0..n {
            let c = self.child_of(i, s);
            let value = if i < k {
                zero.clone()
            } else {
                parity[i - k].clone()
            };
            shards.push(if self.writable(c) { Some(value) } else { None });
        }
        self.stripes.insert(s, Stripe { shards });
    }

    /// Marks `lbn..lbn+blocks` acknowledged-and-stamped without timing;
    /// mirrors the flash card's aged preload so the torture driver can
    /// stamp the shadow in the same order.
    pub fn preload(&mut self, lbns: impl Iterator<Item = u64>) {
        for lbn in lbns {
            let gen = self.next_gen;
            self.next_gen += 1;
            if self.store_instant(lbn, Self::payload(lbn, gen)) {
                self.mapped.insert(lbn);
            }
        }
    }

    /// The acknowledged `(lbn, generation)` mapping as far as the array
    /// can still decode it, sorted by block. Blocks whose stripes have
    /// too few survivors are omitted — [`unreadable_blocks`]
    /// (Self::unreadable_blocks) lists exactly those, and the read path
    /// reports them as typed errors, so the loss is never silent.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let k = self.k();
        let mut out = Vec::with_capacity(self.mapped.len());
        let mut decoded: BTreeMap<u64, Option<Vec<Vec<u8>>>> = BTreeMap::new();
        for &lbn in &self.mapped {
            let s = lbn / k as u64;
            let slot = (lbn % k as u64) as usize;
            let Some(stripe) = self.stripes.get(&s) else {
                continue;
            };
            if let Some(shard) = &stripe.shards[slot] {
                out.push((lbn, Self::parse_generation(shard)));
                continue;
            }
            let data = decoded.entry(s).or_insert_with(|| self.stripe_data(stripe));
            if let Some(data) = data {
                out.push((lbn, Self::parse_generation(&data[slot])));
            }
        }
        out
    }

    /// Acknowledged blocks the array can no longer decode (their stripes
    /// lost more than `m` shards). The crash oracle excuses exactly
    /// these: they surface as typed errors on read.
    pub fn unreadable_blocks(&self) -> Vec<u64> {
        let k = self.k();
        self.mapped
            .iter()
            .copied()
            .filter(|&lbn| {
                let s = lbn / k as u64;
                let slot = (lbn % k as u64) as usize;
                match self.stripes.get(&s) {
                    Some(stripe) => {
                        stripe.shards[slot].is_none()
                            && stripe.shards.iter().filter(|x| x.is_some()).count() < k
                    }
                    None => true,
                }
            })
            .collect()
    }

    /// Test-only sabotage: silently corrupts stored shard bytes so the
    /// differential crash check can prove it has teeth. If `lbn`'s own
    /// data shard is present its payload is zeroed; otherwise every
    /// surviving parity shard of the stripe is zeroed, so a degraded
    /// decode of `lbn` reconstructs garbage. The corruption is invisible
    /// to the array itself — only the shadow oracle can see it.
    pub fn sabotage_corrupt(&mut self, lbn: u64) {
        let k = self.k();
        let s = lbn / k as u64;
        let slot = (lbn % k as u64) as usize;
        let Some(stripe) = self.stripes.get_mut(&s) else {
            return;
        };
        if let Some(shard) = &mut stripe.shards[slot] {
            shard.fill(0);
            return;
        }
        for shard in stripe.shards[k..].iter_mut().flatten() {
            shard.fill(0);
        }
    }
}

impl Device for ArrayDevice {
    /// Serves a read of `req.bytes / block_bytes` blocks from `req.lbn`.
    /// Blocks whose direct shard is unavailable are decoded from any `k`
    /// survivors (a degraded read, charged a bounded retry/backoff
    /// penalty); a block with fewer than `k` surviving shards yields
    /// [`DeviceError::ArrayDegraded`] — the loss is typed and mirrored as
    /// [`Event::UncorrectableRead`], never silent. Time and energy are
    /// accounted either way.
    fn read<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O) -> ReadOutcome {
        let (lbn, blocks) = (req.lbn, req.block_count(self.block_bytes));
        let start = self.settle(now, obs);
        let k = self.k();
        let n = self.n();
        let mut read_bytes = vec![0u64; n];
        let mut degraded_bytes = vec![0u64; n];
        let mut extra = SimDuration::ZERO;
        let mut result: Result<(), DeviceError> = Ok(());
        let mut degraded_blocks: Vec<(u64, u32)> = Vec::new();
        for b in lbn..lbn + u64::from(blocks) {
            let s = b / k as u64;
            let slot = (b % k as u64) as usize;
            let child = self.child_of(slot, s);
            let direct = match self.stripes.get(&s) {
                Some(stripe) => stripe.shards[slot].is_some(),
                // Never-written stripes read as zeros straight off the
                // owning child, as long as its media is present.
                None => self.children[child].state == ChildState::Alive,
            };
            if direct {
                read_bytes[child] += self.block_bytes;
                continue;
            }
            // Degraded: fetch any k surviving shards and decode.
            let available: Vec<usize> = match self.stripes.get(&s) {
                Some(stripe) => (0..n).filter(|&i| stripe.shards[i].is_some()).collect(),
                None => (0..n)
                    .filter(|&i| self.children[self.child_of(i, s)].state == ChildState::Alive)
                    .collect(),
            };
            let lost = (n - available.len()) as u32;
            if available.len() >= k {
                for &i in available.iter().take(k) {
                    degraded_bytes[self.child_of(i, s)] += self.block_bytes;
                }
                let attempts = lost.min(self.max_retries);
                extra += self.retry_backoff * u64::from(attempts);
                self.counters.degraded_reads += 1;
                degraded_blocks.push((b, lost));
            } else {
                // Too few survivors: attempt them all, burn the full
                // retry budget, and report the loss.
                for &i in &available {
                    degraded_bytes[self.child_of(i, s)] += self.block_bytes;
                }
                extra += self.retry_backoff * u64::from(self.max_retries);
                self.counters.data_loss_events += 1;
                obs.record(&Event::UncorrectableRead {
                    t: start,
                    lbn: b,
                    errors: lost,
                });
                if result.is_ok() {
                    result = Err(DeviceError::ArrayDegraded { lbn: b, lost });
                }
            }
        }
        // Shards transfer in parallel: the op takes as long as its
        // slowest involved child, plus the serialized retry backoff.
        let mut transfer = SimDuration::ZERO;
        let mut active_power = 0.0;
        for c in 0..n {
            let bytes = read_bytes[c] + degraded_bytes[c];
            if bytes == 0 {
                continue;
            }
            let p = &self.children[c].profile;
            let t = p.access_latency + p.read_bandwidth.transfer_time(bytes);
            transfer = transfer.max(t);
            active_power += p.active_power.get();
            let direct_t = if read_bytes[c] > 0 {
                p.access_latency + p.read_bandwidth.transfer_time(read_bytes[c])
            } else {
                SimDuration::ZERO
            };
            self.meter
                .charge_for("read", p.active_power, direct_t.min(t));
            self.meter
                .charge_for("degraded", p.active_power, t.saturating_sub(direct_t));
        }
        self.meter
            .charge_for("degraded", Watts(active_power), extra);
        let end = start + transfer + extra;
        for (b, lost) in &degraded_blocks {
            obs.span(&Span::new(
                SpanKind::DegradedRead {
                    lbn: *b,
                    lost: *lost,
                },
                start,
                end,
            ));
        }
        if !degraded_blocks.is_empty() || result.is_err() {
            self.degraded.record(end.saturating_since(now));
        }
        self.counters.ops += 1;
        self.counters.bytes_read += u64::from(blocks) * self.block_bytes;
        self.free_at = self.free_at.max(end);
        (Service { start, end }, result)
    }

    /// Serves a write as read-modify-write parity updates on the affected
    /// stripes. Fails with [`DeviceError::ArrayFailed`] once the array is
    /// read-only, or [`DeviceError::ArrayDegraded`] if a stripe has too
    /// few survivors to recompute parity.
    fn write<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O) -> WriteOutcome {
        let (lbn, blocks) = (req.lbn, req.block_count(self.block_bytes));
        let start = self.settle(now, obs);
        if self.failed {
            self.counters.read_only_rejections += 1;
            return Err(DeviceError::ArrayFailed {
                lost: self.lost_children(),
                tolerated: self.rs.parity_shards() as u32,
            });
        }
        let k = self.k();
        let n = self.n();
        // Group the written blocks by stripe: blocks sharing a stripe
        // share one parity read-modify-write.
        let mut by_stripe: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for b in lbn..lbn + u64::from(blocks) {
            by_stripe.entry(b / k as u64).or_default().push(b);
        }
        // Per-child traffic, split by whether the child served a data or
        // a parity shard (rotation means one child can do both in a
        // multi-stripe write): (data_read, data_write, parity_read,
        // parity_write) bytes.
        let mut load = vec![(0u64, 0u64, 0u64, 0u64); n];
        let mut parity_stripes: Vec<u64> = Vec::new();
        let mut error: Option<DeviceError> = None;
        for (&s, lbns) in &by_stripe {
            self.ensure_stripe(s);
            let children: Vec<usize> = (0..n).map(|i| self.child_of(i, s)).collect();
            let stripe = self.stripes.get(&s).expect("stripe just ensured");
            let available = stripe.shards.iter().filter(|x| x.is_some()).count();
            let Some(mut data) = self.stripe_data(stripe) else {
                // Too few survivors to recompute parity: attempted reads
                // are charged, the write is refused for this stripe.
                for (i, shard) in stripe.shards.iter().enumerate() {
                    if shard.is_some() {
                        load[children[i]].0 += self.block_bytes;
                    }
                }
                if error.is_none() {
                    error = Some(DeviceError::ArrayDegraded {
                        lbn: lbns[0],
                        lost: (n - available) as u32,
                    });
                }
                continue;
            };
            // Read-modify-write: old data + parity shards come in, new
            // ones go out.
            for &b in lbns {
                let slot = (b % k as u64) as usize;
                let gen = self.next_gen;
                self.next_gen += 1;
                data[slot] = Self::payload(b, gen);
                let c = children[slot];
                load[c].0 += self.block_bytes;
                if self.writable(c) {
                    load[c].1 += self.block_bytes;
                }
            }
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = self.rs.encode(&refs);
            for j in 0..self.rs.parity_shards() {
                let c = children[k + j];
                load[c].2 += self.block_bytes;
                if self.writable(c) {
                    load[c].3 += self.block_bytes;
                }
            }
            let alive: Vec<bool> = children
                .iter()
                .map(|&c| self.children[c].state != ChildState::Dead)
                .collect();
            let stripe = self.stripes.get_mut(&s).expect("stripe just ensured");
            for &b in lbns {
                let slot = (b % k as u64) as usize;
                stripe.shards[slot] = alive[slot].then(|| data[slot].clone());
            }
            for (j, p) in parity.into_iter().enumerate() {
                stripe.shards[k + j] = alive[k + j].then_some(p);
            }
            self.counters.parity_updates += 1;
            parity_stripes.push(s);
            for &b in lbns {
                self.mapped.insert(b);
            }
        }
        // Children work in parallel; the stripe commits when the slowest
        // involved child finishes its read-modify-write. Energy is split
        // so the parity overhead is visible in the report.
        let mut total = SimDuration::ZERO;
        for (c, &(dr, dw, pr, pw)) in load.iter().enumerate() {
            if dr + dw + pr + pw == 0 {
                continue;
            }
            let p = &self.children[c].profile;
            let data_t = p.read_bandwidth.transfer_time(dr) + p.write_bandwidth.transfer_time(dw);
            let parity_t = p.read_bandwidth.transfer_time(pr) + p.write_bandwidth.transfer_time(pw);
            total = total.max(p.access_latency + data_t + parity_t);
            self.meter
                .charge_for("write", p.active_power, p.access_latency + data_t);
            self.meter.charge_for("parity", p.active_power, parity_t);
        }
        let end = start + total;
        for s in parity_stripes {
            obs.span(&Span::new(SpanKind::ParityUpdate { stripe: s }, start, end));
        }
        self.counters.ops += 1;
        self.counters.bytes_written += u64::from(blocks) * self.block_bytes;
        self.free_at = self.free_at.max(end);
        match error {
            Some(e) => Err(e),
            None => Ok(Service { start, end }),
        }
    }

    /// Discards the request's blocks: they leave the acknowledged set and
    /// their payloads are zeroed (with parity recomputed) without timing —
    /// the array has no cleaner to inform, so trim is pure bookkeeping.
    fn trim<O: Observer>(&mut self, _now: SimTime, req: Request, _obs: &mut O) {
        let (lbn, blocks) = (req.lbn, req.block_count(self.block_bytes));
        for b in lbn..lbn + u64::from(blocks) {
            self.mapped.remove(&b);
            let _ = self.store_instant(b, vec![0u8; PAYLOAD_BYTES]);
        }
    }

    /// Loses power at `now` and recovers.
    ///
    /// Children are non-volatile, so shard contents survive; an in-flight
    /// operation dies with the power. Recovery re-reads each present
    /// child's stripe-map and rebuild-watermark headers in parallel, and
    /// an interrupted rebuild resumes from its last durable checkpoint
    /// (re-reconstructing a shard is idempotent, so replaying the tail of
    /// the walk is safe). Returns the recovery interval.
    fn power_fail<O: Observer>(&mut self, now: SimTime, obs: &mut O) -> Service {
        if now < self.free_at {
            // The in-flight operation dies with the power.
            self.free_at = now;
        } else {
            let _ = self.settle(now, obs);
        }
        if let Some(job) = &mut self.rebuild {
            // The in-memory watermark is lost; resume from the durable
            // checkpoint.
            job.watermark = job.checkpoint;
            job.since_checkpoint = 0;
        }
        let mut scan = SimDuration::ZERO;
        for c in self.children.iter().filter(|c| c.state != ChildState::Dead) {
            let t = c.profile.access_latency
                + c.profile.read_bandwidth.transfer_time(RECOVERY_SCAN_BYTES);
            scan = scan.max(t);
            self.meter.charge_for("recover", c.profile.active_power, t);
        }
        let end = now + scan;
        self.counters.power_failures += 1;
        self.counters.recovery_time += scan;
        self.free_at = end;
        Service { start: now, end }
    }

    /// Settles the trailing idle period (letting the rebuild finish what
    /// the remaining time allows) and closes any still-open vulnerability
    /// windows.
    fn finish<O: Observer>(&mut self, end: SimTime, obs: &mut O) {
        let _ = self.settle(end, obs);
        for c in &mut self.children {
            if let Some(died) = c.died_at {
                self.counters.vulnerability += end.saturating_since(died);
                // Re-anchor rather than close: the warm-up boundary calls
                // finish + reset_metrics, and a child still missing then
                // must keep accruing vulnerability into the measured
                // window. Accrual stays incremental, so a second finish
                // at the same time adds nothing.
                c.died_at = Some(end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_sim::obs::NoopObserver;

    const BLOCK: u64 = 1024;

    fn write(a: &mut ArrayDevice, t: SimTime, lbn: u64, n: u32) -> Result<Service, DeviceError> {
        a.write(t, Request::blocks(lbn, n, BLOCK), &mut NoopObserver)
    }

    fn read(a: &mut ArrayDevice, t: SimTime, lbn: u64, n: u32) -> ReadOutcome {
        a.read(t, Request::blocks(lbn, n, BLOCK), &mut NoopObserver)
    }

    fn array(k: usize, m: usize) -> ArrayDevice {
        ArrayDevice::new(k, m, &vec![ChildClass::FlashDisk; k + m], BLOCK)
    }

    fn death_at(n: usize, child: usize, at: SimTime) -> DeathSchedule {
        let mut deaths = vec![None; n];
        deaths[child] = Some(at);
        DeathSchedule::explicit(deaths)
    }

    #[test]
    fn round_trip_reads_are_clean() {
        let mut a = array(4, 2);
        let svc = write(&mut a, SimTime::ZERO, 0, 8).unwrap();
        let (r, res) = read(&mut a, svc.end, 0, 8);
        assert!(res.is_ok());
        assert!(r.end > r.start);
        assert_eq!(a.counters().degraded_reads, 0);
        assert_eq!(a.counters().parity_updates, 2, "8 blocks span 2 stripes");
        let snap = a.snapshot();
        assert_eq!(snap.len(), 8);
        // Generations are stamped in block order starting at 1.
        assert_eq!(snap[0], (0, 1));
        assert_eq!(snap[7], (7, 8));
    }

    #[test]
    fn writes_charge_parity_traffic_and_spread_rotation() {
        let mut a = array(2, 1);
        let svc = write(&mut a, SimTime::ZERO, 0, 2).unwrap();
        // One stripe: 2 data + 1 parity shards, read-modify-write.
        assert_eq!(a.counters().parity_updates, 1);
        assert!(svc.end > svc.start);
        assert!(a.meter().category("write").get() > 0.0);
        // Rotation: stripe 0 parity on child 2, stripe 1 parity on child 0.
        assert_eq!(a.child_of(2, 0), 2);
        assert_eq!(a.child_of(2, 1), 0);
    }

    #[test]
    fn degraded_read_decodes_from_survivors() {
        // No spare: the dead child is never rebuilt, so its shards stay
        // missing and every read of them decodes from survivors.
        let mut a = array(4, 2)
            .with_deaths(death_at(6, 0, SimTime::from_secs_f64(5.0)))
            .with_spares(0);
        let w = write(&mut a, SimTime::ZERO, 0, 8).unwrap();
        assert!(
            w.end < SimTime::from_secs_f64(5.0),
            "setup writes precede death"
        );
        // After the death, blocks whose shard lived on child 0 decode
        // from survivors; everything stays readable and correctly
        // stamped.
        let (r, res) = read(&mut a, SimTime::from_secs_f64(10.0), 0, 8);
        assert!(res.is_ok());
        assert!(a.counters().degraded_reads > 0);
        assert_eq!(a.counters().device_deaths, 1);
        assert_eq!(a.snapshot().len(), 8, "no block was lost");
        assert!(r.end > r.start);
        assert!(a.degraded_recorder().summary().count > 0);
        assert!(a.meter().category("degraded").get() > 0.0);
    }

    #[test]
    fn losses_beyond_m_fail_the_array_read_only() {
        let n = 4;
        let mut deaths = vec![None; n];
        for (c, d) in deaths.iter_mut().enumerate().take(3) {
            *d = Some(SimTime::from_secs_f64(5.0 + c as f64));
        }
        // One spare: the first death rebuilds, but the rebuild never
        // finishes before two more deaths exceed m = 1.
        let mut a = ArrayDevice::new(3, 1, &[ChildClass::FlashDisk; 4], BLOCK)
            .with_deaths(DeathSchedule::explicit(deaths))
            .with_rebuild_rate(1e-6);
        write(&mut a, SimTime::ZERO, 0, 6).unwrap();
        let err = write(&mut a, SimTime::from_secs_f64(60.0), 100, 1)
            .expect_err("array with 3 concurrent losses is read-only");
        assert!(matches!(
            err,
            DeviceError::ArrayFailed {
                lost: 3,
                tolerated: 1
            }
        ));
        assert!(a.is_failed());
        assert_eq!(a.counters().read_only_rejections, 1);
        // Reads of wholly-lost stripes report the loss, typed.
        let (_, res) = read(&mut a, SimTime::from_secs_f64(61.0), 0, 1);
        assert!(matches!(res, Err(DeviceError::ArrayDegraded { .. })));
        assert!(a.counters().data_loss_events > 0);
        assert!(!a.unreadable_blocks().is_empty());
    }

    #[test]
    fn rebuild_restores_full_redundancy() {
        let mut a = array(4, 2)
            .with_deaths(death_at(6, 1, SimTime::from_secs_f64(5.0)))
            .with_rebuild_rate(1000.0);
        write(&mut a, SimTime::ZERO, 0, 16).unwrap();
        // A long idle gap gives the paced rebuild time to finish.
        a.finish(SimTime::from_secs_f64(30.0), &mut NoopObserver);
        let c = a.counters();
        assert_eq!(c.rebuilds_completed, 1);
        assert!(c.rebuild_stripes >= 4, "4 stripes were written");
        assert!(c.rebuild_time > SimDuration::ZERO);
        assert!(c.vulnerability > SimDuration::ZERO);
        assert_eq!(a.lost_children(), 0);
        // Post-rebuild reads are direct again.
        let before = a.counters().degraded_reads;
        let (_, res) = read(&mut a, SimTime::from_secs_f64(40.0), 0, 16);
        assert!(res.is_ok());
        assert_eq!(a.counters().degraded_reads, before);
        assert!(a.meter().category("rebuild").get() > 0.0);
    }

    #[test]
    fn rebuild_resumes_from_checkpoint_after_power_failure() {
        let mut slow = array(4, 2)
            .with_deaths(death_at(6, 0, SimTime::from_secs_f64(5.0)))
            .with_rebuild_rate(10.0);
        // 520 blocks => 130 stripes: more than one 64-stripe checkpoint.
        write(&mut slow, SimTime::ZERO, 0, 520).unwrap();
        let (_, res) = read(&mut slow, SimTime::from_secs_f64(6.0), 0, 1);
        assert!(res.is_ok());
        // By 14 s the walk is ~90 stripes in, past the 64-stripe
        // checkpoint but far from done; the crash rolls it back to 64.
        slow.power_fail(SimTime::from_secs_f64(14.0), &mut NoopObserver);
        assert_eq!(slow.counters().power_failures, 1);
        // The walk resumes from the checkpoint and still completes; the
        // replayed tail is idempotent.
        slow.finish(SimTime::from_secs_f64(60.0), &mut NoopObserver);
        assert_eq!(slow.counters().rebuilds_completed, 1);
        assert!(
            slow.counters().rebuild_stripes > 130,
            "some stripes were re-walked after the crash ({} rebuilt)",
            slow.counters().rebuild_stripes
        );
        assert_eq!(slow.snapshot().len(), 520, "every block survived");
        assert_eq!(slow.lost_children(), 0);
    }

    #[test]
    fn sabotaged_shard_changes_the_decoded_generation() {
        let mut a = array(4, 2);
        write(&mut a, SimTime::ZERO, 0, 4).unwrap();
        let honest = a.snapshot();
        a.sabotage_corrupt(2);
        let tampered = a.snapshot();
        assert_ne!(honest, tampered, "corruption must change the mapping");
        // The array itself has no idea: reads still "succeed".
        let (_, res) = read(&mut a, SimTime::from_secs_f64(1.0), 2, 1);
        assert!(res.is_ok(), "silent corruption is invisible to the array");
    }

    #[test]
    fn sabotaged_parity_corrupts_degraded_decode() {
        let mut a = array(4, 2)
            .with_deaths(death_at(6, 0, SimTime::from_secs_f64(5.0)))
            .with_spares(0);
        write(&mut a, SimTime::ZERO, 0, 4).unwrap();
        let honest = a.snapshot();
        // Kill block 0's child, then silently zero the surviving parity:
        // the degraded decode now reconstructs garbage.
        let (_, res) = read(&mut a, SimTime::from_secs_f64(6.0), 0, 1);
        assert!(res.is_ok());
        a.sabotage_corrupt(0);
        let tampered = a.snapshot();
        assert_ne!(honest, tampered);
    }

    #[test]
    fn quiet_death_schedule_is_bit_identical_to_none() {
        let mut plain = array(4, 2);
        let mut quiet = array(4, 2).with_deaths(DeathSchedule::quiet(6));
        for i in 0..10u64 {
            let t = SimTime::from_secs_f64(i as f64);
            let a = write(&mut plain, t, i * 4, 4).unwrap();
            let b = write(&mut quiet, t, i * 4, 4).unwrap();
            assert_eq!(a, b);
        }
        plain.finish(SimTime::from_secs_f64(20.0), &mut NoopObserver);
        quiet.finish(SimTime::from_secs_f64(20.0), &mut NoopObserver);
        assert_eq!(plain.counters(), quiet.counters());
        assert_eq!(plain.energy().get(), quiet.energy().get());
        assert_eq!(plain.snapshot(), quiet.snapshot());
    }

    #[test]
    fn trim_unmaps_and_preload_stamps_in_order() {
        let mut a = array(2, 1);
        a.preload([3u64, 7, 5].into_iter());
        let snap = a.snapshot();
        assert_eq!(snap, vec![(3, 1), (5, 3), (7, 2)]);
        assert_eq!(a.next_generation(), 4);
        a.trim(
            SimTime::ZERO,
            Request::blocks(5, 1, BLOCK),
            &mut NoopObserver,
        );
        assert_eq!(a.snapshot().len(), 2);
        assert!(a.unreadable_blocks().is_empty());
    }

    #[test]
    fn power_fail_mid_op_frees_the_array_at_the_crash() {
        let mut a = array(4, 2);
        let w = write(&mut a, SimTime::ZERO, 0, 64).unwrap();
        let mid = w.start + (w.end - w.start) / 2;
        let svc = a.power_fail(mid, &mut NoopObserver);
        assert_eq!(svc.start, mid);
        assert!(svc.end > mid, "recovery scan takes time");
        assert!(a.counters().recovery_time > SimDuration::ZERO);
        assert!(a.meter().category("recover").get() > 0.0);
        let (r, res) = read(&mut a, svc.end, 0, 1);
        assert!(res.is_ok());
        assert_eq!(r.start, svc.end, "array serves as soon as recovered");
    }

    #[test]
    fn reads_queue_fifo_behind_a_busy_array() {
        let mut a = array(4, 2);
        let w = write(&mut a, SimTime::ZERO, 0, 64).unwrap();
        let (r, _) = read(&mut a, SimTime::from_nanos(10), 0, 1);
        assert_eq!(r.start, w.end);
        let mut open = array(4, 2).with_queueing(QueueDiscipline::OpenLoop);
        let _ = write(&mut open, SimTime::ZERO, 0, 64).unwrap();
        let (r, _) = read(&mut open, SimTime::from_nanos(10), 0, 1);
        assert_eq!(r.start, SimTime::from_nanos(10));
    }

    #[test]
    fn reset_metrics_preserves_array_state() {
        let mut a = array(4, 2);
        write(&mut a, SimTime::ZERO, 0, 8).unwrap();
        a.reset_metrics();
        assert_eq!(a.energy().get(), 0.0);
        assert_eq!(a.counters(), ArrayCounters::default());
        assert_eq!(a.snapshot().len(), 8, "contents survive the reset");
    }

    #[test]
    fn mixed_child_classes_pace_at_the_slowest() {
        let children = [
            ChildClass::HardDisk,
            ChildClass::FlashCard,
            ChildClass::FlashDisk,
        ];
        let mut a = ArrayDevice::new(2, 1, &children, BLOCK);
        let svc = write(&mut a, SimTime::ZERO, 0, 2).unwrap();
        // The hard disk's 25.7 ms access dominates the stripe commit.
        assert!((svc.end - svc.start).as_secs_f64() > 0.0257);
    }

    #[test]
    #[should_panic(expected = "array geometry")]
    fn zero_data_shards_panic() {
        let _ = ArrayDevice::new(0, 2, &[], BLOCK);
    }

    #[test]
    #[should_panic(expected = "needs exactly")]
    fn child_count_must_match_geometry() {
        let _ = ArrayDevice::new(2, 1, &[ChildClass::FlashDisk; 5], BLOCK);
    }

    #[test]
    fn child_class_parse_round_trips() {
        for class in [
            ChildClass::FlashCard,
            ChildClass::FlashDisk,
            ChildClass::HardDisk,
        ] {
            assert_eq!(ChildClass::parse(class.name()), Some(class));
        }
        assert_eq!(ChildClass::parse("floppy"), None);
    }
}
