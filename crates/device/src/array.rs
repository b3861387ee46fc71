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

use std::collections::VecDeque;
use std::ops::Range;

use mobistore_sim::ec::{bit, set_bit, DecodeScratch, EcError, ReedSolomon};
use mobistore_sim::energy::{EnergyMeter, Joules, Watts};
use mobistore_sim::fault::DeathSchedule;
use mobistore_sim::hist::LatencyRecorder;
use mobistore_sim::lbn::LbnTable;
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

/// Why [`ArrayDevice::try_new`] refused a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayGeometryError {
    /// The codec cannot build the `k + m` code.
    Code(EcError),
    /// The child list does not hold one device per shard.
    Children {
        /// Requested data shards.
        k: usize,
        /// Requested parity shards.
        m: usize,
        /// Children supplied.
        children: usize,
    },
    /// The block size is zero.
    ZeroBlockSize,
    /// The rebuild rate gives no per-stripe period (see
    /// [`rebuild_period`]). Carries the rate as [`f64::to_bits`], which
    /// keeps the error `Eq`.
    RebuildRate {
        /// The refused stripes-per-second rate's bit pattern.
        bits: u64,
    },
}

impl std::fmt::Display for ArrayGeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ArrayGeometryError::Code(e) => write!(f, "{e}"),
            ArrayGeometryError::Children { k, m, children } => write!(
                f,
                "a {k}+{m} array needs exactly {} children, got {children}",
                k + m
            ),
            ArrayGeometryError::ZeroBlockSize => write!(f, "block size must be nonzero"),
            ArrayGeometryError::RebuildRate { bits } => write!(
                f,
                "a rebuild rate of {:?} stripes/s gives no per-stripe period of at least 1 ns \
                 that fits the simulated clock",
                f64::from_bits(bits)
            ),
        }
    }
}

/// The per-stripe period `1/rate` of a rebuild paced at `rate` stripes
/// per second, if it rounds to at least 1 ns and fits the simulated
/// clock: `None` for a zero, negative, NaN or infinite rate, and for one
/// so small (1e-300) or so large (1e12) that the period cannot be
/// simulated.
pub fn rebuild_period(rate: f64) -> Option<SimDuration> {
    SimDuration::try_from_secs_f64(1.0 / rate).filter(|d| !d.is_zero())
}

mobistore_sim::counter_set! {
    /// Counters the array maintains alongside energy.
    pub struct ArrayCounters {
        /// Completed host operations (reads + writes).
        pub ops: u64 => "array.ops",
        /// Logical bytes read.
        pub bytes_read: u64 => "array.bytes_read",
        /// Logical bytes written.
        pub bytes_written: u64 => "array.bytes_written",
        /// Block reads served by decoding survivors instead of the direct
        /// shard.
        pub degraded_reads: u64 => "array.degraded_reads",
        /// Stripes whose parity was recomputed by a write.
        pub parity_updates: u64 => "array.parity_updates",
        /// Stripes reconstructed onto a hot spare.
        pub rebuild_stripes: u64 => "array.rebuild_stripes",
        /// Rebuilds that completed (child returned to full redundancy).
        pub rebuilds_completed: u64 => "array.rebuilds_completed",
        /// Sim time spent reconstructing stripes.
        pub rebuild_time: SimDuration => "array.rebuild_ns",
        /// Children that died permanently.
        pub device_deaths: u64 => "array.device_deaths",
        /// Block reads that could not be reconstructed (typed
        /// [`DeviceError::ArrayDegraded`], mirrored as
        /// [`Event::UncorrectableRead`]).
        pub data_loss_events: u64 => "array.data_loss_events",
        /// Total window of vulnerability: sim time during which at least one
        /// child's shards were missing (death to rebuild completion, or to
        /// the end of the run).
        pub vulnerability: SimDuration => "array.vulnerability_ns",
        /// Power failures survived.
        pub power_failures: u64 => "array.power_failures",
        /// Sim time spent re-reading array metadata after power loss.
        pub recovery_time: SimDuration => "array.recovery_ns",
        /// Writes rejected because the array is failed read-only.
        pub read_only_rejections: u64 => "array.read_only_rejections",
    }
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

impl Child {
    /// The time this child takes to read `bytes`, or to write them if
    /// `write`. A transfer of zero bytes takes exactly zero time, without
    /// computing it.
    fn transfer_time(&self, write: bool, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let bandwidth = if write {
            self.profile.write_bandwidth
        } else {
            self.profile.read_bandwidth
        };
        bandwidth.transfer_time(bytes)
    }
}

/// The active rebuild: reconstructing `child`'s shards stripe by stripe.
#[derive(Clone, Copy)]
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

/// One shard's payload.
type Shard = [u8; PAYLOAD_BYTES];

/// Stripes between rebuild checkpoints.
const REBUILD_CHECKPOINT_STRIPES: u64 = 64;

/// Per-child metadata re-read after power loss (stripe map + rebuild
/// watermark headers).
const RECOVERY_SCAN_BYTES: u64 = 64 * 1024;

/// Buffers one op fills and the next reuses, so that once they have grown
/// the op path allocates nothing.
#[derive(Clone, Default)]
struct Scratch {
    /// Bytes each child moves in the current op, indexed by child. A read
    /// fills `[direct, degraded, 0, 0]`; a write fills `[data read, data
    /// write, parity read, parity write]` (rotation means one child can
    /// serve a data shard of one stripe and a parity shard of the next).
    load: Vec<[u64; 4]>,
    /// The current read's degraded blocks and the shards each stripe
    /// lost, for its spans.
    degraded: Vec<(u64, u32)>,
    /// The stripes whose parity the current write updated, for its spans.
    parity: Vec<u64>,
    /// The codec's decode matrix.
    decode: DecodeScratch,
}

impl Scratch {
    /// Zeroes the per-child load of an `n`-child array and empties the
    /// span lists.
    fn start_op(&mut self, n: usize) {
        self.load.clear();
        self.load.resize(n, [0; 4]);
        self.degraded.clear();
        self.parity.clear();
    }
}

/// Set bits in `bits`.
fn count(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

/// Where slot `slot`'s shards sit in the arena of an `n`-shard code.
fn shard_range(slot: usize, n: usize) -> Range<usize> {
    slot * n..(slot + 1) * n
}

/// Where slot `slot`'s presence bits sit in the bit arena, at `words`
/// words per bit set; its acknowledged bits follow them.
fn presence_range(slot: usize, words: usize) -> Range<usize> {
    2 * words * slot..(2 * slot + 1) * words
}

/// Where slot `slot`'s acknowledged bits sit in the bit arena.
fn acked_range(slot: usize, words: usize) -> Range<usize> {
    (2 * slot + 1) * words..2 * words * (slot + 1)
}

/// The stripes that blocks `lbn..lbn + blocks` cover, ascending, each
/// with the range of its data slots they cover.
fn stripe_runs(lbn: u64, blocks: u32, k: usize) -> impl Iterator<Item = (u64, Range<usize>)> {
    let k = k as u64;
    let end = lbn + u64::from(blocks);
    let stripes = if blocks == 0 {
        0..0
    } else {
        lbn / k..(end - 1) / k + 1
    };
    stripes.map(move |s| {
        let base = s * k;
        let lo = lbn.max(base) - base;
        let hi = end.min(base + k) - base;
        (s, lo as usize..hi as usize)
    })
}

/// The physical child holding logical slot `i` of a stripe whose
/// rotation is `rot` (`s mod n`) in an `n`-child array: RAID-5-style
/// rotation, so every child carries its share of parity. The inverse,
/// the slot child `c` holds, is `rotated(c, n - rot, n)`.
#[inline]
fn rotated(i: usize, rot: usize, n: usize) -> usize {
    let c = i + rot;
    if c >= n {
        c - n
    } else {
        c
    }
}

/// The `[lbn, generation]` payload of an acknowledged block.
fn payload(lbn: u64, generation: u64) -> Shard {
    let mut shard = [0u8; PAYLOAD_BYTES];
    shard[..8].copy_from_slice(&lbn.to_le_bytes());
    shard[8..].copy_from_slice(&generation.to_le_bytes());
    shard
}

/// The generation a payload carries.
fn generation(shard: &Shard) -> u64 {
    let mut gen = [0u8; 8];
    gen.copy_from_slice(&shard[8..]);
    u64::from_le_bytes(gen)
}

/// An erasure-coded array of `k + m` child devices.
///
/// Stripe `s` holds blocks `s·k .. s·k + k`. Stripe numbers must stay
/// below [`MAX_LBN_END`](mobistore_sim::lbn::MAX_LBN_END) (2^32), so
/// blocks lie below `k · 2^32`: a
/// write, trim or preload of a block past that panics in the stripe
/// table, and a read there sees a never-written stripe. `simulate` only
/// admits traces that end by 2^32, whose stripes are all in range.
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
    /// Time the background rebuild takes per stripe: the inverse of its
    /// stripes-per-second rate.
    rebuild_period: SimDuration,
    retry_backoff: SimDuration,
    max_retries: u32,
    /// The stripe table: stripe number → the stripe's slot in `shards`
    /// and `bits`. A stripe is materialized by its first write, trim or
    /// preload and never dropped.
    stripes: LbnTable<u32>,
    /// The shard arena: slot `i`'s `k + m` payloads in logical order
    /// (`0..k` data, `k..k+m` parity) at `i * (k + m)`. A shard's bytes
    /// mean something only while its presence bit is set.
    shards: Vec<Shard>,
    /// Per slot, `2 * words` words: the presence bits of its `k + m`
    /// shards (clear: the shard's child died and the stripe has not been
    /// rebuilt), then the acknowledged bits of its `k` data blocks (the
    /// crash oracle's domain).
    bits: Vec<u64>,
    /// Words per bit set: `(k + m).div_ceil(64)`.
    words: usize,
    next_gen: u64,
    rebuild_queue: VecDeque<usize>,
    rebuild: Option<RebuildJob>,
    failed: bool,
    free_at: SimTime,
    meter: EnergyMeter<ArrayState>,
    counters: ArrayCounters,
    degraded: LatencyRecorder,
    scratch: Scratch,
}

mobistore_sim::energy_states! {
    /// The array's energy states, in report order.
    pub enum ArrayState {
        /// Direct shard reads.
        Read => "read",
        /// Data-shard writes.
        Write => "write",
        /// Parity-shard writes.
        Parity => "parity",
        /// Survivor reads that decode a missing shard.
        Degraded => "degraded",
        /// Reconstructing stripes onto a hot spare.
        Rebuild => "rebuild",
        /// Children powered with no request.
        Idle => "idle",
        /// Re-reading stripe metadata after a power failure.
        Recover => "recover",
    }
}

impl ArrayDevice {
    /// Builds a `k + m` array over `children` (one shard of every stripe
    /// per child), with one hot spare and default rebuild pacing.
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) returns an error.
    pub fn new(k: usize, m: usize, children: &[ChildClass], block_bytes: u64) -> Self {
        match Self::try_new(k, m, children, block_bytes) {
            Ok(array) => array,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`new`](Self::new): returns
    /// [`DeviceError::ArrayGeometry`] instead of panicking if the codec
    /// cannot build a `k + m` code, `children` does not hold `k + m`
    /// devices, or `block_bytes` is zero.
    pub fn try_new(
        k: usize,
        m: usize,
        children: &[ChildClass],
        block_bytes: u64,
    ) -> Result<Self, DeviceError> {
        let refuse = |reason| Err(DeviceError::ArrayGeometry(reason));
        let rs = match ReedSolomon::new(k, m) {
            Ok(rs) => rs,
            Err(e) => return refuse(ArrayGeometryError::Code(e)),
        };
        if children.len() != k + m {
            return refuse(ArrayGeometryError::Children {
                k,
                m,
                children: children.len(),
            });
        }
        if block_bytes == 0 {
            return refuse(ArrayGeometryError::ZeroBlockSize);
        }
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
        Ok(ArrayDevice {
            rs,
            children,
            block_bytes,
            queueing: QueueDiscipline::Fifo,
            deaths: DeathSchedule::quiet(n),
            spares: 1,
            rebuild_period: SimDuration::from_secs_f64(1.0 / 128.0),
            retry_backoff: SimDuration::from_millis_f64(1.0),
            max_retries: 3,
            stripes: LbnTable::new(),
            shards: Vec::new(),
            bits: Vec::new(),
            words: n.div_ceil(64),
            next_gen: 1,
            rebuild_queue: VecDeque::new(),
            rebuild: None,
            failed: false,
            free_at: SimTime::ZERO,
            meter: EnergyMeter::new(),
            counters: ArrayCounters::default(),
            degraded: LatencyRecorder::new(),
            scratch: Scratch::default(),
        })
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
    /// Panics if `rate` gives no per-stripe period (see
    /// [`rebuild_period`]).
    pub fn with_rebuild_rate(self, rate: f64) -> Self {
        match self.try_with_rebuild_rate(rate) {
            Ok(array) => array,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`with_rebuild_rate`](Self::with_rebuild_rate): returns
    /// [`DeviceError::ArrayGeometry`] instead of panicking when `rate`
    /// gives no per-stripe period.
    pub fn try_with_rebuild_rate(mut self, rate: f64) -> Result<Self, DeviceError> {
        let Some(period) = rebuild_period(rate) else {
            return Err(DeviceError::ArrayGeometry(
                ArrayGeometryError::RebuildRate {
                    bits: rate.to_bits(),
                },
            ));
        };
        self.rebuild_period = period;
        Ok(self)
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
    pub fn meter(&self) -> &EnergyMeter<ArrayState> {
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
        self.meter = EnergyMeter::new();
        self.counters = ArrayCounters::default();
        self.degraded = LatencyRecorder::new();
    }

    fn k(&self) -> usize {
        self.rs.data_shards()
    }

    fn n(&self) -> usize {
        self.rs.total_shards()
    }

    /// Slot `slot`'s `k + m` shards.
    fn stripe(&self, slot: usize) -> &[Shard] {
        &self.shards[shard_range(slot, self.n())]
    }

    /// Slot `slot`'s presence bits.
    fn present(&self, slot: usize) -> &[u64] {
        &self.bits[presence_range(slot, self.words)]
    }

    /// Slot `slot`'s acknowledged bits.
    fn acked(&self, slot: usize) -> &[u64] {
        &self.bits[acked_range(slot, self.words)]
    }

    /// Slot `slot`'s acknowledged bits, for update.
    fn acked_mut(&mut self, slot: usize) -> &mut [u64] {
        &mut self.bits[acked_range(slot, self.words)]
    }

    /// True if the child can accept a shard write (its media is present).
    fn writable(&self, child: usize) -> bool {
        self.children[child].state != ChildState::Dead
    }

    /// Fires scheduled deaths up to `now`, in child order.
    fn process_deaths(&mut self, now: SimTime) {
        let (n, w) = (self.n(), self.words);
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
            // The dead medium takes its shards with it: the logical slot
            // child `c` holds in stripe `s` is `c - s mod n`.
            for (s, &slot) in self.stripes.iter() {
                let rot = (s % n as u64) as usize;
                let i = rotated(c, n - rot, n);
                set_bit(&mut self.bits[presence_range(slot as usize, w)], i, false);
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
        self.meter
            .charge_for(ArrayState::Idle, Watts(idle_power), idle);
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
        if self.rebuild.is_none() && self.rebuild_queue.is_empty() {
            return SimDuration::ZERO;
        }
        let per_stripe = self.rebuild_period;
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
            let mut job = self.rebuild.expect("active rebuild");
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
            let budget = affordable.min(u64::from(u32::MAX));
            let mut first = None;
            let mut done = 0u64;
            while done < budget {
                let Some((s, &slot)) = self.stripes.iter_from(job.watermark).next() else {
                    break;
                };
                first.get_or_insert(s);
                self.reconstruct_slot(s, slot as usize, job.child);
                job.watermark = s + 1;
                job.since_checkpoint += 1;
                if job.since_checkpoint >= REBUILD_CHECKPOINT_STRIPES {
                    job.checkpoint = job.watermark;
                    job.since_checkpoint = 0;
                }
                done += 1;
            }
            let batch_time = per_stripe * done;
            if let Some(first) = first {
                busy += batch_time;
                self.counters.rebuild_stripes += done;
                self.counters.rebuild_time += batch_time;
                let power = self.children[job.child].profile.active_power;
                self.meter
                    .charge_for(ArrayState::Rebuild, power, batch_time);
                obs.span(&Span::new(
                    SpanKind::Rebuild {
                        stripe: first,
                        stripes: done.min(u64::from(u32::MAX)) as u32,
                    },
                    start_at,
                    start_at + batch_time,
                ));
            }
            cursor = start_at + batch_time;
            let finished = self.stripes.iter_from(job.watermark).next().is_none();
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

    /// Reconstructs `child`'s shard of stripe `s` (arena slot `slot`)
    /// from survivors, if at least `k` shards are available. Unrecoverable
    /// stripes stay missing and surface later as typed degraded-read
    /// errors.
    fn reconstruct_slot(&mut self, s: u64, slot: usize, child: usize) {
        let (n, w) = (self.n(), self.words);
        let i = rotated(child, n - (s % n as u64) as usize, n);
        let present = &mut self.bits[presence_range(slot, w)];
        if bit(present, i) {
            // A write-through already refreshed this shard.
            return;
        }
        let stripe = &mut self.shards[shard_range(slot, n)];
        if self
            .rs
            .reconstruct(stripe, present, &mut self.scratch.decode)
            .is_ok()
        {
            set_bit(present, i, true);
        }
    }

    /// The arena slot of stripe `s`, materializing the stripe if absent:
    /// all-zero data payloads and hence all-zero parity, shards present
    /// only on children whose media is present.
    ///
    /// # Panics
    ///
    /// Panics if `s` is at or past
    /// [`MAX_LBN_END`](mobistore_sim::lbn::MAX_LBN_END).
    fn slot(&mut self, s: u64) -> usize {
        if let Some(&slot) = self.stripes.get(s) {
            return slot as usize;
        }
        let (n, w) = (self.n(), self.words);
        let slot = self.shards.len() / n;
        let index = u32::try_from(slot).expect("one slot per stripe below 2^32");
        self.stripes.insert(s, index);
        self.shards
            .resize(self.shards.len() + n, [0; PAYLOAD_BYTES]);
        self.bits.resize(self.bits.len() + 2 * w, 0);
        let rot = (s % n as u64) as usize;
        let present = &mut self.bits[presence_range(slot, w)];
        for i in 0..n {
            let alive = self.children[rotated(i, rot, n)].state != ChildState::Dead;
            set_bit(present, i, alive);
        }
        slot
    }

    /// Read-modify-write of data slots `slots` of stripe `s` (arena slot
    /// `slot`) without charging time or energy. The stripe's missing data
    /// shards are decoded in place (they stay missing), each slot in
    /// `slots` gets its payload — `[lbn, gen + j]` for the `j`-th slot
    /// with `Some(gen)`, zeros with `None` — and parity is re-encoded.
    /// Only the written data shards and the parity shards are stored:
    /// present where their child's media is, missing where it is not.
    ///
    /// Returns the stripe's present shard count if fewer than `k` shards
    /// survive to decode it; nothing changes then.
    fn store(
        &mut self,
        s: u64,
        slot: usize,
        slots: Range<usize>,
        stamp: Option<u64>,
    ) -> Result<(), usize> {
        let (k, n, w) = (self.k(), self.n(), self.words);
        let present = &mut self.bits[presence_range(slot, w)];
        let stripe = &mut self.shards[shard_range(slot, n)];
        if (0..k).any(|i| !bit(present, i)) {
            self.rs
                .reconstruct(stripe, present, &mut self.scratch.decode)
                .map_err(|_| count(present))?;
        }
        for (i, j) in slots.clone().zip(0..) {
            stripe[i] = match stamp {
                Some(gen) => payload(s * k as u64 + i as u64, gen + j),
                None => [0; PAYLOAD_BYTES],
            };
        }
        self.rs.encode(stripe);
        let rot = (s % n as u64) as usize;
        for i in slots.chain(k..n) {
            let alive = self.children[rotated(i, rot, n)].state != ChildState::Dead;
            set_bit(present, i, alive);
        }
        Ok(())
    }

    /// Marks `lbn..lbn+blocks` acknowledged-and-stamped without timing;
    /// mirrors the flash card's aged preload so the torture driver can
    /// stamp the shadow in the same order.
    ///
    /// # Panics
    ///
    /// Panics on a block at or past `k · 2^32` (see [`ArrayDevice`]).
    pub fn preload(&mut self, lbns: impl Iterator<Item = u64>) {
        let k = self.k() as u64;
        for lbn in lbns {
            let gen = self.next_gen;
            self.next_gen += 1;
            let (s, i) = (lbn / k, (lbn % k) as usize);
            let slot = self.slot(s);
            if self.store(s, slot, i..i + 1, Some(gen)).is_ok() {
                set_bit(self.acked_mut(slot), i, true);
            }
        }
    }

    /// Decodes a copy of slot `slot`'s stripe into `out`, leaving the
    /// arena as it is; false if fewer than `k` of its shards survive.
    fn decode_copy(&self, slot: usize, out: &mut [Shard], scratch: &mut DecodeScratch) -> bool {
        out.copy_from_slice(self.stripe(slot));
        self.rs
            .reconstruct(out, self.present(slot), scratch)
            .is_ok()
    }

    /// The acknowledged `(lbn, generation)` mapping as far as the array
    /// can still decode it, sorted by block. Blocks whose stripes have
    /// too few survivors are omitted —
    /// [`unreadable_blocks`](Self::unreadable_blocks) lists exactly those,
    /// and the read path reports them as typed errors, so the loss is
    /// never silent.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let k = self.k();
        let mut out = Vec::new();
        let mut copy = vec![[0; PAYLOAD_BYTES]; self.n()];
        let mut scratch = DecodeScratch::default();
        for (s, &slot) in self.stripes.iter() {
            let slot = slot as usize;
            let (present, acked) = (self.present(slot), self.acked(slot));
            // Decoded into `copy` on the stripe's first missing
            // acknowledged block.
            let mut decoded = None;
            for i in (0..k).filter(|&i| bit(acked, i)) {
                let lbn = s * k as u64 + i as u64;
                if bit(present, i) {
                    out.push((lbn, generation(&self.stripe(slot)[i])));
                    continue;
                }
                if *decoded.get_or_insert_with(|| self.decode_copy(slot, &mut copy, &mut scratch)) {
                    out.push((lbn, generation(&copy[i])));
                }
            }
        }
        out
    }

    /// Acknowledged blocks the array can no longer decode (their stripes
    /// lost more than `m` shards). The crash oracle excuses exactly
    /// these: they surface as typed errors on read.
    pub fn unreadable_blocks(&self) -> Vec<u64> {
        let k = self.k();
        let mut out = Vec::new();
        for (s, &slot) in self.stripes.iter() {
            let (present, acked) = (self.present(slot as usize), self.acked(slot as usize));
            if count(present) >= k {
                continue;
            }
            out.extend(
                (0..k)
                    .filter(|&i| bit(acked, i) && !bit(present, i))
                    .map(|i| s * k as u64 + i as u64),
            );
        }
        out
    }

    /// Test-only sabotage: silently corrupts stored shard bytes so the
    /// differential crash check can prove it has teeth. If `lbn`'s own
    /// data shard is present its payload is zeroed; otherwise every
    /// surviving parity shard of the stripe is zeroed, so a degraded
    /// decode of `lbn` reconstructs garbage. The corruption is invisible
    /// to the array itself — only the shadow oracle can see it.
    pub fn sabotage_corrupt(&mut self, lbn: u64) {
        let (k, n) = (self.k(), self.n());
        let Some(&slot) = self.stripes.get(lbn / k as u64) else {
            return;
        };
        let (slot, w) = (slot as usize, self.words);
        let i = (lbn % k as u64) as usize;
        let present = &self.bits[presence_range(slot, w)];
        let stripe = &mut self.shards[shard_range(slot, n)];
        if bit(present, i) {
            stripe[i] = [0; PAYLOAD_BYTES];
            return;
        }
        for (j, shard) in stripe.iter_mut().enumerate().skip(k) {
            if bit(present, j) {
                *shard = [0; PAYLOAD_BYTES];
            }
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
        let (k, n, w) = (self.k(), self.n(), self.words);
        let bb = self.block_bytes;
        self.scratch.start_op(n);
        let mut extra = SimDuration::ZERO;
        let mut result: Result<(), DeviceError> = Ok(());
        for (s, slots) in stripe_runs(lbn, blocks, k) {
            let rot = (s % n as u64) as usize;
            let present = self
                .stripes
                .get(s)
                .map(|&slot| &self.bits[presence_range(slot as usize, w)]);
            let children = &self.children;
            // Never-written stripes read as zeros straight off the owning
            // child, as long as its media is present.
            let available = |i: usize| match present {
                Some(bits) => bit(bits, i),
                None => children[rotated(i, rot, n)].state == ChildState::Alive,
            };
            for i in slots {
                if available(i) {
                    self.scratch.load[rotated(i, rot, n)][0] += bb;
                    continue;
                }
                // Degraded: fetch any k surviving shards and decode.
                let b = s * k as u64 + i as u64;
                let survivors = (0..n).filter(|&j| available(j)).count();
                let lost = (n - survivors) as u32;
                if survivors >= k {
                    for j in (0..n).filter(|&j| available(j)).take(k) {
                        self.scratch.load[rotated(j, rot, n)][1] += bb;
                    }
                    let attempts = lost.min(self.max_retries);
                    extra += self.retry_backoff * u64::from(attempts);
                    self.counters.degraded_reads += 1;
                    self.scratch.degraded.push((b, lost));
                } else {
                    // Too few survivors: attempt them all, burn the full
                    // retry budget, and report the loss.
                    for j in (0..n).filter(|&j| available(j)) {
                        self.scratch.load[rotated(j, rot, n)][1] += bb;
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
        }
        // Shards transfer in parallel: the op takes as long as its
        // slowest involved child, plus the serialized retry backoff.
        let mut transfer = SimDuration::ZERO;
        let mut active_power = 0.0;
        for (child, &[direct, degraded, ..]) in self.children.iter().zip(&self.scratch.load) {
            let bytes = direct + degraded;
            if bytes == 0 {
                continue;
            }
            let p = &child.profile;
            let t = p.access_latency + child.transfer_time(false, bytes);
            transfer = transfer.max(t);
            active_power += p.active_power.get();
            let direct_t = if degraded == 0 {
                t
            } else if direct > 0 {
                p.access_latency + child.transfer_time(false, direct)
            } else {
                SimDuration::ZERO
            };
            self.meter
                .charge_for(ArrayState::Read, p.active_power, direct_t.min(t));
            self.meter.charge_for(
                ArrayState::Degraded,
                p.active_power,
                t.saturating_sub(direct_t),
            );
        }
        self.meter
            .charge_for(ArrayState::Degraded, Watts(active_power), extra);
        let end = start + transfer + extra;
        for &(lbn, lost) in &self.scratch.degraded {
            obs.span(&Span::new(SpanKind::DegradedRead { lbn, lost }, start, end));
        }
        if !self.scratch.degraded.is_empty() || result.is_err() {
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
        let (k, n) = (self.k(), self.n());
        let bb = self.block_bytes;
        self.scratch.start_op(n);
        let mut error: Option<DeviceError> = None;
        // Blocks sharing a stripe share one parity read-modify-write.
        for (s, slots) in stripe_runs(lbn, blocks, k) {
            let rot = (s % n as u64) as usize;
            let slot = self.slot(s);
            let gen = self.next_gen;
            if let Err(available) = self.store(s, slot, slots.clone(), Some(gen)) {
                // Too few survivors to recompute parity: attempted reads
                // are charged, the write is refused for this stripe.
                for i in 0..n {
                    if bit(self.present(slot), i) {
                        self.scratch.load[rotated(i, rot, n)][0] += bb;
                    }
                }
                error.get_or_insert(DeviceError::ArrayDegraded {
                    lbn: s * k as u64 + slots.start as u64,
                    lost: (n - available) as u32,
                });
                continue;
            }
            // Read-modify-write: old data + parity shards come in, new
            // ones go out.
            self.next_gen += slots.len() as u64;
            for i in slots.clone() {
                let c = rotated(i, rot, n);
                let writes = u64::from(self.writable(c));
                self.scratch.load[c][0] += bb;
                self.scratch.load[c][1] += bb * writes;
            }
            for i in k..n {
                let c = rotated(i, rot, n);
                let writes = u64::from(self.writable(c));
                self.scratch.load[c][2] += bb;
                self.scratch.load[c][3] += bb * writes;
            }
            let acked = self.acked_mut(slot);
            for i in slots {
                set_bit(acked, i, true);
            }
            self.counters.parity_updates += 1;
            self.scratch.parity.push(s);
        }
        // Children work in parallel; the stripe commits when the slowest
        // involved child finishes its read-modify-write. Energy is split
        // so the parity overhead is visible in the report.
        let mut total = SimDuration::ZERO;
        for (child, &[dr, dw, pr, pw]) in self.children.iter().zip(&self.scratch.load) {
            if dr + dw + pr + pw == 0 {
                continue;
            }
            let p = &child.profile;
            let data_t = child.transfer_time(false, dr) + child.transfer_time(true, dw);
            let parity_t = child.transfer_time(false, pr) + child.transfer_time(true, pw);
            total = total.max(p.access_latency + data_t + parity_t);
            self.meter
                .charge_for(ArrayState::Write, p.active_power, p.access_latency + data_t);
            self.meter
                .charge_for(ArrayState::Parity, p.active_power, parity_t);
        }
        let end = start + total;
        for &stripe in &self.scratch.parity {
            obs.span(&Span::new(SpanKind::ParityUpdate { stripe }, start, end));
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
        let (n, w) = (self.n(), self.words);
        for (s, slots) in stripe_runs(lbn, blocks, self.k()) {
            let slot = self.slot(s);
            let acked = self.acked_mut(slot);
            for i in slots.clone() {
                set_bit(acked, i, false);
            }
            if self.store(s, slot, slots.clone(), None).is_err() {
                // Too few survivors to re-encode parity. Nothing adds a
                // shard to such a stripe, so it never decodes again, and
                // zeroing the surviving trimmed shards changes no decode.
                let present = &self.bits[presence_range(slot, w)];
                let stripe = &mut self.shards[shard_range(slot, n)];
                for i in slots.filter(|&i| bit(present, i)) {
                    stripe[i] = [0; PAYLOAD_BYTES];
                }
            }
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
            self.meter
                .charge_for(ArrayState::Recover, c.profile.active_power, t);
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

    #[test]
    fn rebuild_period_refuses_what_the_clock_cannot_pace() {
        for bad in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, 1e-300, 1e12] {
            assert_eq!(rebuild_period(bad), None, "{bad:?}");
            let err = array(2, 1).try_with_rebuild_rate(bad).err();
            assert_eq!(
                err,
                Some(DeviceError::ArrayGeometry(
                    ArrayGeometryError::RebuildRate {
                        bits: bad.to_bits()
                    }
                )),
                "{bad:?}"
            );
        }
        assert_eq!(
            rebuild_period(128.0),
            Some(SimDuration::from_nanos(7_812_500))
        );
        assert_eq!(rebuild_period(1e9), Some(SimDuration::from_nanos(1)));
        assert!(array(2, 1).try_with_rebuild_rate(1e-6).is_ok());
        assert_eq!(
            ArrayGeometryError::RebuildRate {
                bits: 1e-300f64.to_bits()
            }
            .to_string(),
            "a rebuild rate of 1e-300 stripes/s gives no per-stripe period of at least 1 ns \
             that fits the simulated clock"
        );
    }

    #[test]
    fn breakdown_names_its_states_in_report_order() {
        let names: Vec<_> = array(2, 1)
            .meter()
            .breakdown_timed()
            .map(|(n, ..)| n)
            .collect();
        assert_eq!(
            names,
            ["read", "write", "parity", "degraded", "rebuild", "idle", "recover"]
        );
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
        assert!(a.meter().category(ArrayState::Write).get() > 0.0);
        // Rotation: stripe 0 parity on child 2, stripe 1 parity on child 0.
        assert_eq!(rotated(2, 0, 3), 2);
        assert_eq!(rotated(2, 1, 3), 0);
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
        assert!(a.meter().category(ArrayState::Degraded).get() > 0.0);
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
        assert!(a.meter().category(ArrayState::Rebuild).get() > 0.0);
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
        assert!(a.meter().category(ArrayState::Recover).get() > 0.0);
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
    fn try_new_carries_the_reason_it_refused() {
        let fd = [ChildClass::FlashDisk; 300];
        let refused = |reason| Some(DeviceError::ArrayGeometry(reason));
        assert_eq!(
            ArrayDevice::try_new(200, 100, &fd, BLOCK).err(),
            refused(ArrayGeometryError::Code(EcError::BadGeometry {
                k: 200,
                m: 100
            }))
        );
        assert_eq!(
            ArrayDevice::try_new(2, 1, &fd[..5], BLOCK).err(),
            refused(ArrayGeometryError::Children {
                k: 2,
                m: 1,
                children: 5
            })
        );
        assert_eq!(
            ArrayDevice::try_new(2, 1, &fd[..3], 0).err(),
            refused(ArrayGeometryError::ZeroBlockSize)
        );
        assert!(ArrayDevice::try_new(2, 1, &fd[..3], BLOCK).is_ok());
    }

    /// Checks what every op must leave behind: no present shard on a dead
    /// child; every present data shard holding `[lbn, generation]` with a
    /// generation already handed out if its block is acknowledged, and
    /// zeros if it is not; parity equal to the schoolbook encode of the
    /// data wherever every shard is present; and the snapshot and the
    /// unreadable blocks splitting the acknowledged blocks between them.
    fn check_invariants(a: &ArrayDevice, ctx: std::fmt::Arguments<'_>) {
        let (k, n) = (a.k(), a.n());
        let mut acked_blocks = Vec::new();
        let mut column = Vec::with_capacity(k);
        for (s, &slot) in a.stripes.iter() {
            let slot = slot as usize;
            let (stripe, present, acked) = (a.stripe(slot), a.present(slot), a.acked(slot));
            let rot = (s % n as u64) as usize;
            for i in (0..n).filter(|&i| bit(present, i)) {
                let child = rotated(i, rot, n);
                assert_ne!(
                    a.children[child].state,
                    ChildState::Dead,
                    "{ctx}: stripe {s} keeps shard {i} on dead child {child}"
                );
            }
            for (i, shard) in stripe[..k].iter().enumerate() {
                let lbn = s * k as u64 + i as u64;
                if bit(acked, i) {
                    acked_blocks.push(lbn);
                }
                if !bit(present, i) {
                    continue;
                }
                if bit(acked, i) {
                    let gen = generation(shard);
                    assert_eq!(shard[..8], lbn.to_le_bytes(), "{ctx}: block {lbn}'s lbn");
                    assert!(
                        (1..a.next_generation()).contains(&gen),
                        "{ctx}: block {lbn} at generation {gen}, next is {}",
                        a.next_generation()
                    );
                } else {
                    assert_eq!(*shard, [0; PAYLOAD_BYTES], "{ctx}: unacknowledged {lbn}");
                }
            }
            if count(present) == n {
                for p in k..n {
                    for t in 0..PAYLOAD_BYTES {
                        column.clear();
                        column.extend(stripe[..k].iter().map(|d| d[t]));
                        assert_eq!(
                            stripe[p][t],
                            a.rs.codeword_symbol(&column, p),
                            "{ctx}: stripe {s} parity shard {p} byte {t}"
                        );
                    }
                }
            }
        }
        let readable: Vec<u64> = a.snapshot().into_iter().map(|(lbn, _)| lbn).collect();
        let unreadable = a.unreadable_blocks();
        let mut split: Vec<u64> = readable.iter().chain(&unreadable).copied().collect();
        split.sort_unstable();
        assert_eq!(
            split, acked_blocks,
            "{ctx}: snapshot {readable:?} and unreadable {unreadable:?} must split the \
             acknowledged blocks"
        );
    }

    /// A random stream of writes (multi-stripe among them), reads, trims,
    /// idle gaps and power failures against arrays whose children die on
    /// a random schedule, with no spare and with one: degraded reads,
    /// rebuilds and read-only mode all occur. The invariants hold after
    /// every op.
    #[test]
    fn invariants_hold_after_every_op() {
        use mobistore_sim::counters::CounterSet;
        use mobistore_sim::rng::SimRng;
        let mut seen = ArrayCounters::default();
        let mut failed_arrays = 0;
        let mut trims = 0;
        for case in 0..24u64 {
            let mut rng = SimRng::seed_with_stream(case, 19);
            let (k, m) = [(2, 1), (4, 2), (3, 2)][case as usize % 3];
            let n = k + m;
            let spares = (case / 3 % 2) as u32;
            // One to m + 1 deaths inside the first 30 s of a run of about
            // 50 s.
            let mut deaths = vec![None; n];
            for _ in 0..rng.range_inclusive(1, m as u64 + 1) {
                let child = rng.below(n as u64) as usize;
                deaths[child] = Some(SimTime::from_nanos(rng.below(30_000_000_000)));
            }
            let mut a = array(k, m)
                .with_deaths(DeathSchedule::explicit(deaths))
                .with_spares(spares)
                .with_rebuild_rate(20.0);
            a.preload((0..48).filter(|_| rng.chance(0.5)));
            check_invariants(&a, format_args!("case {case} preload"));
            let mut now = SimTime::ZERO;
            for op in 0..200 {
                // Mostly short gaps; now and then an idle one long enough
                // for the rebuild to walk a few stripes.
                let gap_ms = if rng.chance(0.1) {
                    rng.range_inclusive(500, 4_000)
                } else {
                    rng.below(40)
                };
                now += SimDuration::from_nanos(gap_ms * 1_000_000);
                let lbn = rng.below(64);
                let blocks = rng.range_inclusive(1, 3 * k as u64) as u32;
                let req = Request::blocks(lbn, blocks, BLOCK);
                match rng.below(10) {
                    0..=3 => {
                        let _ = a.write(now, req, &mut NoopObserver);
                    }
                    4..=6 => {
                        let _ = a.read(now, req, &mut NoopObserver);
                    }
                    7 | 8 => {
                        a.trim(now, req, &mut NoopObserver);
                        trims += 1;
                    }
                    _ => now = a.power_fail(now, &mut NoopObserver).end,
                }
                check_invariants(
                    &a,
                    format_args!("case {case} ({k}+{m}, {spares} spares) op {op}"),
                );
            }
            failed_arrays += u32::from(a.is_failed());
            seen.merge(&a.counters());
        }
        assert!(seen.degraded_reads > 0, "no degraded reads: {seen:?}");
        assert!(
            seen.rebuilds_completed > 0,
            "no rebuild completed: {seen:?}"
        );
        assert!(seen.data_loss_events > 0, "no stripe lost past m: {seen:?}");
        assert!(
            seen.read_only_rejections > 0,
            "no read-only rejections: {seen:?}"
        );
        assert!(seen.power_failures > 0 && trims > 0);
        assert!(
            failed_arrays > 0 && failed_arrays < 24,
            "{failed_arrays} arrays failed"
        );
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
