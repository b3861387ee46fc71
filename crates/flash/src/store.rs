//! The flash memory card store: segments, cleaning, and wear.
//!
//! Implements the flash card architecture of §2 and the simulator rules of
//! §4.2:
//!
//! * the card is divided into fixed-size *segments* (64/128 Kbytes on the
//!   Intel Series 2); a segment must be erased — a fixed 1.6 s operation —
//!   before any of its bytes can be rewritten;
//! * logical blocks are remapped on every write (out-of-place update);
//!   overwriting a block leaves its old copy dead until its segment is
//!   cleaned;
//! * one segment (the *frontier*) is filled completely before data blocks
//!   are written to a new segment;
//! * the cleaner keeps at least one segment erased at all times (unless
//!   configured for on-demand cleaning), selecting the segment with the
//!   lowest utilization, copying its live data to the frontier, and erasing
//!   it;
//! * cleaning and erasure run in the background during idle periods and are
//!   suspended during reads and writes; a write that finds no erased space
//!   waits for the cleaner, which is what degrades write response at high
//!   storage utilization (§5.2, Figure 2);
//! * every segment counts its erasures, driving the endurance analysis
//!   (§5.2: 100,000-cycle guarantee).

use std::collections::HashMap;

use mobistore_device::params::FlashCardParams;
use mobistore_device::{Device, DeviceError, ReadOutcome, Request, Service, WriteOutcome};
use mobistore_sim::crashcheck::FIRST_GENERATION;
use mobistore_sim::energy::{EnergyMeter, Joules};
use mobistore_sim::fault::{EraseOutcome, FaultConfig, FaultPlan};
use mobistore_sim::hist::LatencyRecorder;
use mobistore_sim::integrity::{IntegrityConfig, IntegrityPlan, ReadVerdict};
use mobistore_sim::obs::{Event, FaultKind, Observer};
use mobistore_sim::span::{Span, SpanKind};
use mobistore_sim::time::{SimDuration, SimTime};

/// Bytes of per-block metadata (logical block number, state bits) the
/// recovery scan reads back per occupied slot when rebuilding the block
/// map after a power failure — the MFFS log-scan cost, not a full data
/// read.
const RECOVERY_HEADER_BYTES: u64 = 32;

/// When the cleaner runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanerMode {
    /// Clean in the background during idle time, keeping at least one
    /// segment erased (the Flash File System behaviour, §4.2).
    Background,
    /// Clean only when a write finds no erased space (§4.2's "erasures are
    /// done on an as-needed basis").
    OnDemand,
}

/// How the cleaner picks its victim segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Lowest utilization first — the MFFS policy the paper describes (§2).
    GreedyMinLive,
    /// Oldest full segment first; an ablation baseline with no utilization
    /// awareness.
    Fifo,
    /// Cost-benefit: maximise freed-space per copy cost weighted by segment
    /// age, à la Sprite LFS / eNVy (§2 mentions eNVy's hybrid metric); an
    /// ablation extension.
    CostBenefit,
    /// Greedy with a wear-leveling bias: a segment's erase count above the
    /// card's minimum is charged against it, so hot segments stop being
    /// recycled exclusively. §2: "it is possible to spread the load over
    /// the flash memory to avoid 'burning out' particular areas"; an
    /// ablation extension quantifying that trade.
    WearAware,
}

/// Configuration for a [`FlashCardStore`].
#[derive(Debug, Clone)]
pub struct FlashCardConfig {
    /// Device timing/power parameters.
    pub params: FlashCardParams,
    /// Logical block size in bytes (the trace's block size).
    pub block_size: u64,
    /// Card capacity in bytes; rounded down to whole segments.
    pub capacity_bytes: u64,
    /// Cleaner scheduling.
    pub mode: CleanerMode,
    /// Victim selection policy.
    pub victim_policy: VictimPolicy,
    /// Queue discipline (see [`mobistore_device::QueueDiscipline`]).
    pub queueing: mobistore_device::QueueDiscipline,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegState {
    Erased,
    Frontier,
    Full,
    /// Permanently failed; retired into the bad-block map and never
    /// written again (the Series 2 cards shipped with exactly such maps).
    Bad,
}

#[derive(Debug, Clone)]
struct Segment {
    state: SegState,
    /// Live blocks currently mapped into this segment.
    live: u32,
    /// Slots consumed (live + dead); only meaningful for the frontier.
    used: u32,
    /// Times this segment has been erased.
    erase_count: u32,
    /// Monotone sequence number of when this segment was last opened as
    /// frontier; drives the FIFO and cost-benefit policies.
    opened_at_seq: u64,
    /// Sim time data last landed in this segment; the bit-error model
    /// measures retention loss from here. Preloaded data keeps
    /// `SimTime::ZERO`, so it ages from the start of the simulation.
    written_at: SimTime,
}

#[derive(Debug, Clone)]
struct CleanJob {
    victim: u32,
    /// Work remaining before the victim is erased and usable.
    remaining: SimDuration,
    /// Drawn at job start from the fault plan: if true, the final erase
    /// pulse fails permanently and the victim is retired instead of
    /// rejoining the erased pool.
    retire: bool,
    /// Sim time the job began; the whole cleaning pass is reported as one
    /// [`SpanKind::Cleaning`] span from here to its completion.
    started: SimTime,
}

/// Counters the store maintains alongside energy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashCardCounters {
    /// Completed accesses.
    pub ops: u64,
    /// Bytes read by requests.
    pub bytes_read: u64,
    /// Bytes written by requests.
    pub bytes_written: u64,
    /// Segment erasures performed.
    pub erasures: u64,
    /// Live blocks copied by the cleaner.
    pub blocks_copied: u64,
    /// Writes that had to wait for the cleaner.
    pub cleaning_waits: u64,
    /// Transient write failures that were retried.
    pub write_retries: u64,
    /// Transient erase failures that were retried.
    pub erase_retries: u64,
    /// Segments permanently retired into the bad-block map.
    pub segments_retired: u64,
    /// Power failures survived.
    pub power_failures: u64,
    /// Total time spent in post-power-failure recovery scans.
    pub recovery_time: SimDuration,
    /// Writes rejected because the card is in read-only end-of-life mode.
    pub eol_write_rejections: u64,
    /// Block reads whose raw bit errors the ECC corrected transparently.
    pub ecc_corrected: u64,
    /// Read-retry attempts spent recovering marginal blocks.
    pub read_retries: u64,
    /// Block reads lost to uncorrectable bit errors (the block is
    /// unmapped; its data is gone).
    pub uncorrectable_reads: u64,
    /// Blocks relocated to fresh cells after a high-error but still
    /// correctable read.
    pub blocks_relocated: u64,
    /// Background scrub passes completed (one segment walked per pass).
    pub scrub_passes: u64,
    /// Block reads performed by the background scrubber.
    pub scrub_reads: u64,
    /// Total extra service time transient write failures cost (backoff
    /// plus transfer re-runs); already folded into write response times.
    pub write_retry_backoff: SimDuration,
    /// Total extra erase time transient erase failures cost; already
    /// folded into cleaning durations.
    pub erase_retry_backoff: SimDuration,
}

impl FlashCardCounters {
    /// Adds another card's counters into this one (fleet aggregation:
    /// counts and durations are all additive).
    pub fn merge(&mut self, other: &FlashCardCounters) {
        self.ops += other.ops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.erasures += other.erasures;
        self.blocks_copied += other.blocks_copied;
        self.cleaning_waits += other.cleaning_waits;
        self.write_retries += other.write_retries;
        self.erase_retries += other.erase_retries;
        self.segments_retired += other.segments_retired;
        self.power_failures += other.power_failures;
        self.recovery_time += other.recovery_time;
        self.eol_write_rejections += other.eol_write_rejections;
        self.ecc_corrected += other.ecc_corrected;
        self.read_retries += other.read_retries;
        self.uncorrectable_reads += other.uncorrectable_reads;
        self.blocks_relocated += other.blocks_relocated;
        self.scrub_passes += other.scrub_passes;
        self.scrub_reads += other.scrub_reads;
        self.write_retry_backoff += other.write_retry_backoff;
        self.erase_retry_backoff += other.erase_retry_backoff;
    }
}

/// A full accounting of every block slot on the card. The four classes
/// partition capacity: `live + free + dead + retired == capacity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCensus {
    /// Mapped, live data blocks.
    pub live: u64,
    /// Erased, writable slots (frontier remainder + erased pool).
    pub free: u64,
    /// Written slots whose data has been superseded or trimmed.
    pub dead: u64,
    /// Slots lost to permanently-failed (retired) segments.
    pub retired: u64,
}

impl BlockCensus {
    /// Sum of all four classes; always equals the card capacity.
    pub fn total(&self) -> u64 {
        self.live + self.free + self.dead + self.retired
    }
}

/// Where one logical block lives on the card.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockLoc {
    /// Segment holding the block's current copy.
    seg: u32,
    /// Monotone write generation stamped when the block's *data* was
    /// written (cleaning relocates a block without changing its
    /// generation). This is what the differential crash checker compares
    /// against its shadow model.
    gen: u64,
}

/// One row of [`FlashCardStore::snapshot`]: the recovered location and
/// write generation of a live logical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Logical block number.
    pub lbn: u64,
    /// Segment holding the current copy.
    pub segment: u32,
    /// Write generation of the data (see the crash checker's shadow model).
    pub generation: u64,
}

/// Endurance statistics (§5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WearStats {
    /// Highest per-segment erase count.
    pub max_erase: u32,
    /// Mean per-segment erase count.
    pub mean_erase: f64,
    /// Total erasures.
    pub total: u64,
}

impl WearStats {
    /// Combines wear from another card (fleet aggregation): totals add,
    /// the maximum erase count is the max across cards, and the mean is
    /// re-weighted by each card's inferred segment count.
    pub fn merge(&mut self, other: &WearStats) {
        let segs = |w: &WearStats| {
            if w.mean_erase > 0.0 {
                w.total as f64 / w.mean_erase
            } else {
                0.0
            }
        };
        let (n1, n2) = (segs(self), segs(other));
        self.max_erase = self.max_erase.max(other.max_erase);
        self.total += other.total;
        self.mean_erase = if n1 + n2 > 0.0 {
            self.total as f64 / (n1 + n2)
        } else {
            0.0
        };
    }
}

/// A simulated byte-accessible flash memory card with segment cleaning.
///
/// # Examples
///
/// ```
/// use mobistore_device::params::intel_datasheet;
/// use mobistore_device::{Device, Request};
/// use mobistore_flash::store::{CleanerMode, FlashCardConfig, FlashCardStore, VictimPolicy};
/// use mobistore_sim::obs::NoopObserver;
/// use mobistore_sim::time::SimTime;
///
/// let mut card = FlashCardStore::new(FlashCardConfig {
///     params: intel_datasheet(),
///     block_size: 1024,
///     capacity_bytes: 4 * 1024 * 1024,
///     mode: CleanerMode::Background,
///     victim_policy: VictimPolicy::GreedyMinLive,
///     queueing: mobistore_device::QueueDiscipline::Fifo,
/// });
/// let req = Request::blocks(0, 4, 1024);
/// let svc = card.write(SimTime::ZERO, req, &mut NoopObserver).unwrap();
/// assert!(svc.end > svc.start);
/// assert_eq!(card.live_blocks(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FlashCardStore {
    config: FlashCardConfig,
    blocks_per_segment: u32,
    segments: Vec<Segment>,
    /// Logical block number → location and write generation.
    map: HashMap<u64, BlockLoc>,
    /// Segment currently accepting writes.
    frontier: u32,
    /// Fully-erased segments ready to become the frontier.
    erased: Vec<u32>,
    /// Permanently-failed segments (the bad-block map). Their slots are
    /// gone: effective capacity shrinks and cleaner pressure rises.
    bad: Vec<u32>,
    job: Option<CleanJob>,
    plan: FaultPlan,
    integrity: IntegrityPlan,
    /// Next sim time a background scrub pass is due; meaningful only when
    /// the integrity plan has a `scrub_interval`.
    next_scrub: SimTime,
    /// Round-robin position of the scrubber's segment walk.
    scrub_cursor: u32,
    /// Per-episode distribution of injected retry delays (write-retry
    /// backoff, erase-retry pulses, read-retry backoff).
    backoff: LatencyRecorder,
    meter: EnergyMeter,
    counters: FlashCardCounters,
    free_at: SimTime,
    live_blocks: u64,
    open_seq: u64,
    /// Next write generation to stamp (see [`BlockLoc::gen`]).
    write_gen: u64,
    /// Sticky end-of-life flag: once the card finds nothing cleanable with
    /// space exhausted it serves reads but rejects all further writes.
    read_only: bool,
}

const CATEGORIES: &[&str] = &["active", "clean", "scrub", "idle", "recover"];

impl FlashCardStore {
    /// Creates an empty card.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields fewer than two segments or a
    /// segment smaller than one block.
    pub fn new(config: FlashCardConfig) -> Self {
        match Self::try_new(config) {
            Ok(card) => card,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`new`](Self::new): returns a typed
    /// [`DeviceError`] instead of panicking on bad geometry.
    pub fn try_new(config: FlashCardConfig) -> Result<Self, DeviceError> {
        let seg_size = config.params.segment_size;
        if seg_size < config.block_size {
            return Err(DeviceError::SegmentTooSmall {
                segment_bytes: seg_size,
                block_bytes: config.block_size,
            });
        }
        let num_segments = (config.capacity_bytes / seg_size) as u32;
        if num_segments < 2 {
            return Err(DeviceError::TooFewSegments {
                segments: u64::from(num_segments),
            });
        }
        let blocks_per_segment = (seg_size / config.block_size) as u32;

        let mut segments = vec![
            Segment {
                state: SegState::Erased,
                live: 0,
                used: 0,
                erase_count: 0,
                opened_at_seq: 0,
                written_at: SimTime::ZERO,
            };
            num_segments as usize
        ];
        segments[0].state = SegState::Frontier;
        let erased = (1..num_segments).rev().collect();

        Ok(FlashCardStore {
            config,
            blocks_per_segment,
            segments,
            map: HashMap::new(),
            frontier: 0,
            erased,
            bad: Vec::new(),
            job: None,
            plan: FaultPlan::quiet(),
            integrity: IntegrityPlan::quiet(),
            next_scrub: SimTime::ZERO,
            scrub_cursor: 0,
            backoff: LatencyRecorder::new(),
            meter: EnergyMeter::new(CATEGORIES),
            counters: FlashCardCounters::default(),
            free_at: SimTime::ZERO,
            live_blocks: 0,
            open_seq: 1,
            write_gen: FIRST_GENERATION,
            read_only: false,
        })
    }

    /// Installs a fault-injection plan built from `fault`. A zero-rate
    /// configuration (the default) injects nothing and leaves behaviour
    /// bit-identical to a card without a plan.
    ///
    /// # Panics
    ///
    /// Panics if any rate in `fault` is outside `[0, 1]`.
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.plan = FaultPlan::new(fault);
        self
    }

    /// Installs a bit-error/ECC plan built from `integrity`. A zero-rate
    /// configuration (the default) draws nothing and leaves behaviour
    /// bit-identical to a card without a plan; scrubbing runs whenever
    /// `scrub_interval` is set, even at zero rates.
    ///
    /// # Panics
    ///
    /// Panics if `integrity` has a negative or non-finite rate, disordered
    /// thresholds, or a zero scrub interval.
    pub fn with_integrity(mut self, integrity: IntegrityConfig) -> Self {
        self.next_scrub = match integrity.scrub_interval {
            Some(interval) => SimTime::ZERO + interval,
            None => SimTime::ZERO,
        };
        self.integrity = IntegrityPlan::new(integrity);
        self
    }

    /// Returns the bit-error/ECC configuration in effect.
    pub fn integrity_config(&self) -> &IntegrityConfig {
        self.integrity.config()
    }

    /// The distribution of injected retry delays — write-retry backoff,
    /// extra erase pulses, read-retry backoff — one entry per episode.
    pub fn backoff_recorder(&self) -> &LatencyRecorder {
        &self.backoff
    }

    /// Returns the configuration.
    pub fn config(&self) -> &FlashCardConfig {
        &self.config
    }

    /// Returns the card capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        u64::from(self.blocks_per_segment) * self.segments.len() as u64
    }

    /// Returns the number of live (mapped) blocks.
    pub fn live_blocks(&self) -> u64 {
        self.live_blocks
    }

    /// Returns the blocks lost to the bad-block map.
    pub fn retired_blocks(&self) -> u64 {
        self.bad.len() as u64 * u64::from(self.blocks_per_segment)
    }

    /// Returns the usable (non-retired) capacity in blocks.
    pub fn usable_blocks(&self) -> u64 {
        self.capacity_blocks() - self.retired_blocks()
    }

    /// Returns current storage utilization in `[0, 1]`, relative to the
    /// usable (non-retired) capacity — retiring segments raises effective
    /// utilization and with it cleaner pressure.
    pub fn utilization(&self) -> f64 {
        self.live_blocks as f64 / self.usable_blocks() as f64
    }

    /// Returns the four-way block census; its classes always partition
    /// [`capacity_blocks`](Self::capacity_blocks).
    pub fn census(&self) -> BlockCensus {
        let dead: u64 = self
            .segments
            .iter()
            .filter(|s| matches!(s.state, SegState::Frontier | SegState::Full))
            .map(|s| u64::from(s.used - s.live))
            .sum();
        BlockCensus {
            live: self.live_blocks,
            free: self.free_blocks(),
            dead,
            retired: self.retired_blocks(),
        }
    }

    /// Returns free (erased, writable) blocks across the frontier and the
    /// erased-segment pool.
    pub fn free_blocks(&self) -> u64 {
        let frontier_free =
            u64::from(self.blocks_per_segment - self.segments[self.frontier as usize].used);
        frontier_free + self.erased.len() as u64 * u64::from(self.blocks_per_segment)
    }

    /// Returns the operation counters.
    pub fn counters(&self) -> FlashCardCounters {
        self.counters
    }

    /// True once the card has entered read-only end-of-life mode (see
    /// [`Device::write`]). Sticky: reads and trims are still
    /// served, writes fail with [`DeviceError::ReadOnly`].
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// The victim segment of the in-flight background cleaning job, if any
    /// (the crash checker uses this to verify cleaning atomicity).
    pub fn cleaning_victim(&self) -> Option<u32> {
        self.job.as_ref().map(|j| j.victim)
    }

    /// The retired (bad) segments, sorted; retirement must be monotone
    /// across crashes.
    pub fn bad_segments(&self) -> Vec<u32> {
        let mut bad = self.bad.clone();
        bad.sort_unstable();
        bad
    }

    /// The next write generation the card will stamp; mirrors
    /// `ShadowModel::next_generation` in the differential checker.
    pub fn next_generation(&self) -> u64 {
        self.write_gen
    }

    /// The full live-block mapping — `(lbn, segment, generation)` sorted by
    /// lbn — for differential comparison against a shadow model after
    /// crash recovery.
    pub fn snapshot(&self) -> Vec<BlockEntry> {
        let mut rows: Vec<BlockEntry> = self
            .map
            .iter()
            .map(|(&lbn, loc)| BlockEntry {
                lbn,
                segment: loc.seg,
                generation: loc.gen,
            })
            .collect();
        rows.sort_unstable_by_key(|r| r.lbn);
        rows
    }

    /// Test-only sabotage hook: silently drops one live block while keeping
    /// every internal count consistent, simulating a recovery bug that
    /// loses data without tripping [`check_invariants`](Self::check_invariants).
    /// Exists to prove the differential crash checker has teeth; never
    /// called outside tests. Returns false if the block was not mapped.
    #[doc(hidden)]
    pub fn sabotage_lose_block(&mut self, lbn: u64) -> bool {
        let Some(loc) = self.map.remove(&lbn) else {
            return false;
        };
        // Internally consistent data loss: the slot becomes "dead", the
        // census still partitions, live counts still agree — only the
        // shadow model can tell the block should exist.
        self.segments[loc.seg as usize].live -= 1;
        self.live_blocks -= 1;
        true
    }

    /// Returns total energy consumed so far.
    pub fn energy(&self) -> Joules {
        self.meter.total()
    }

    /// Returns the energy meter for per-state breakdowns.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Returns per-segment endurance statistics.
    pub fn wear(&self) -> WearStats {
        let max = self
            .segments
            .iter()
            .map(|s| s.erase_count)
            .max()
            .unwrap_or(0);
        let sum: u64 = self.segments.iter().map(|s| u64::from(s.erase_count)).sum();
        WearStats {
            max_erase: max,
            mean_erase: sum as f64 / self.segments.len() as f64,
            total: sum,
        }
    }

    /// Zeroes energy and counters (but not wear) while keeping card state;
    /// used at the warm-up boundary (§4.2). Pass `reset_wear` to also zero
    /// per-segment erase counts, as the endurance experiment does.
    pub fn reset_metrics(&mut self, reset_wear: bool) {
        self.meter = EnergyMeter::new(CATEGORIES);
        self.counters = FlashCardCounters::default();
        self.backoff = LatencyRecorder::new();
        if reset_wear {
            for seg in &mut self.segments {
                seg.erase_count = 0;
            }
        }
    }

    /// Instantly installs `lbns` as live data, consuming space but no time
    /// or energy. Models §5.2's preallocation: *"The data are preallocated
    /// in flash at the start of the simulation."*
    ///
    /// # Panics
    ///
    /// Panics if preloading would leave less than one segment of free
    /// space (the cleaner could deadlock).
    pub fn preload(&mut self, lbns: impl IntoIterator<Item = u64>) {
        for lbn in lbns {
            assert!(
                self.free_blocks() > u64::from(self.blocks_per_segment),
                "preload would exceed safe capacity ({} blocks)",
                self.capacity_blocks()
            );
            if self.map.contains_key(&lbn) {
                continue;
            }
            self.place_block(lbn);
        }
        self.debug_check();
    }

    /// Instantly installs `lbns` as live data on an *aged* card: every
    /// segment except the frontier and one erased reserve is completely
    /// full, with the live blocks spread evenly and the remaining slots
    /// dead.
    ///
    /// This is the §5.2 steady state — free space exists as garbage
    /// scattered through the segments, not as pristine erased segments —
    /// so the cleaner must work from the first writes onward and its cost
    /// is proportional to storage utilization, which is the effect
    /// Figure 2 measures.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-empty card or if the blocks do not fit in
    /// the fillable segments.
    pub fn preload_aged(&mut self, lbns: impl IntoIterator<Item = u64>) {
        assert_eq!(self.live_blocks, 0, "preload_aged requires an empty card");
        let lbns: Vec<u64> = lbns.into_iter().collect();
        let fillable = self.segments.len() - 2;
        let capacity = fillable as u64 * u64::from(self.blocks_per_segment);
        assert!(
            lbns.len() as u64 <= capacity,
            "aged preload of {} blocks exceeds the {} fillable blocks \
             (need more segments for this utilization)",
            lbns.len(),
            capacity
        );

        // Fill segments 1..N-1 (0 stays the frontier, N-1 stays erased).
        // Blocks are interleaved round-robin so that consecutive logical
        // blocks land in different segments — an aged card's placement has
        // no correlation between logical adjacency and segment locality.
        let reserve = self.segments.len() as u32 - 1;
        let mut seg_live = vec![0u32; self.segments.len()];
        for (i, lbn) in lbns.into_iter().enumerate() {
            let seg = 1 + (i % fillable) as u32;
            let gen = self.write_gen;
            self.write_gen += 1;
            let old = self.map.insert(lbn, BlockLoc { seg, gen });
            assert!(old.is_none(), "duplicate lbn in aged preload");
            self.live_blocks += 1;
            seg_live[seg as usize] += 1;
        }
        for seg in 1..reserve {
            let s = &mut self.segments[seg as usize];
            s.state = SegState::Full;
            s.live = seg_live[seg as usize];
            s.used = self.blocks_per_segment;
        }
        self.erased = vec![reserve];
        self.debug_check();
    }

    /// When the card is next free: the end of its latest request, or of
    /// the idle time it last settled. Untimed callers stamp trims with it.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Unmaps one live block (its slot becomes dead); shared by the
    /// uncorrectable-read paths of reads and scrubbing.
    fn drop_block(&mut self, lbn: u64) {
        let loc = self.map.remove(&lbn).expect("dropping a mapped block");
        self.segments[loc.seg as usize].live -= 1;
        self.live_blocks -= 1;
    }

    /// Moves `lbn` (keeping its write generation — relocation copies data,
    /// it does not rewrite it) off a high-error segment when a frontier
    /// slot is available without invoking the cleaner; returns whether the
    /// block moved.
    fn try_relocate<O: Observer>(
        &mut self,
        at: SimTime,
        lbn: u64,
        from_segment: u32,
        errors: u32,
        obs: &mut O,
    ) -> bool {
        if self.read_only || (self.frontier_full() && self.erased.is_empty()) {
            return false;
        }
        let gen = self.map[&lbn].gen;
        self.place_block_at(lbn, gen);
        self.stamp_frontier(at);
        self.counters.blocks_relocated += 1;
        obs.record(&Event::BlockRelocated {
            t: at,
            lbn,
            from_segment,
            errors,
        });
        true
    }

    /// The [`DeviceError::ReadOnly`] describing the card's current census.
    fn read_only_error(&self) -> DeviceError {
        DeviceError::ReadOnly {
            live: self.live_blocks,
            usable: self.usable_blocks(),
            retired: self.retired_blocks(),
        }
    }

    fn frontier_full(&self) -> bool {
        self.segments[self.frontier as usize].used == self.blocks_per_segment
    }

    /// Moves the frontier to an erased segment; returns false if none.
    fn advance_frontier(&mut self) -> bool {
        let Some(next) = self.erased.pop() else {
            return false;
        };
        self.segments[self.frontier as usize].state = SegState::Full;
        self.segments[next as usize].state = SegState::Frontier;
        self.segments[next as usize].opened_at_seq = self.open_seq;
        self.open_seq += 1;
        self.frontier = next;
        true
    }

    /// Writes one logical block at the frontier with a fresh write
    /// generation, retiring any old copy.
    ///
    /// The caller must ensure the frontier has a free slot.
    fn place_block(&mut self, lbn: u64) {
        let gen = self.write_gen;
        self.write_gen += 1;
        self.place_block_at(lbn, gen);
    }

    /// Places one logical block at the frontier carrying generation `gen`
    /// (the cleaner relocates data without re-stamping it).
    fn place_block_at(&mut self, lbn: u64, gen: u64) {
        if self.frontier_full() {
            assert!(self.advance_frontier(), "place_block with no space");
        }
        if let Some(old) = self.map.insert(
            lbn,
            BlockLoc {
                seg: self.frontier,
                gen,
            },
        ) {
            self.segments[old.seg as usize].live -= 1;
        } else {
            self.live_blocks += 1;
        }
        let f = &mut self.segments[self.frontier as usize];
        f.live += 1;
        f.used += 1;
    }

    /// Stamps the frontier's last-write time after a block lands there
    /// (callers that know the sim time invoke this right after placing).
    fn stamp_frontier(&mut self, at: SimTime) {
        let f = &mut self.segments[self.frontier as usize];
        f.written_at = f.written_at.max(at);
    }

    /// Picks a cleaning victim per the configured policy; `None` if nothing
    /// is cleanable or relocating its live data would not fit in free space.
    fn select_victim(&self) -> Option<u32> {
        let free = self.free_blocks();
        let candidates = self
            .segments
            .iter()
            .enumerate()
            .filter(|(i, s)| s.state == SegState::Full && *i as u32 != self.frontier)
            .filter(|(_, s)| u64::from(s.live) <= free)
            // Cleaning a fully-live segment frees nothing.
            .filter(|(_, s)| s.live < self.blocks_per_segment);
        match self.config.victim_policy {
            VictimPolicy::GreedyMinLive => candidates
                .min_by_key(|(i, s)| (s.live, *i))
                .map(|(i, _)| i as u32),
            VictimPolicy::Fifo => candidates
                .min_by_key(|(i, s)| (s.opened_at_seq, *i))
                .map(|(i, _)| i as u32),
            VictimPolicy::WearAware => {
                let min_wear = self
                    .segments
                    .iter()
                    .map(|s| s.erase_count)
                    .min()
                    .unwrap_or(0);
                // Each erase above the card minimum costs as much as 1/32
                // of a segment of extra live data — enough to bound the
                // wear spread without constantly recycling cold segments.
                let penalty = (self.blocks_per_segment / 32).max(1);
                candidates
                    .min_by_key(|(i, s)| {
                        (
                            u64::from(s.live)
                                + u64::from(s.erase_count - min_wear) * u64::from(penalty),
                            *i,
                        )
                    })
                    .map(|(i, _)| i as u32)
            }
            VictimPolicy::CostBenefit => candidates
                .min_by(|(ia, a), (ib, b)| {
                    // Benefit/cost = (free space gained x age) / (copy cost).
                    // We minimise the negation via partial_cmp on the score.
                    let score = |s: &Segment| {
                        let u = f64::from(s.live) / f64::from(self.blocks_per_segment);
                        let age = (self.open_seq - s.opened_at_seq) as f64;
                        -((1.0 - u) * age / (1.0 + u))
                    };
                    score(a)
                        .partial_cmp(&score(b))
                        .expect("scores are finite")
                        .then(ia.cmp(ib))
                })
                .map(|(i, _)| i as u32),
        }
    }

    /// Starts a background job if the erased pool is empty and cleaning is
    /// possible. `at` stamps the observer event.
    fn maybe_start_job<O: Observer>(&mut self, at: SimTime, obs: &mut O) {
        if self.config.mode != CleanerMode::Background
            || self.job.is_some()
            || !self.erased.is_empty()
        {
            return;
        }
        self.start_job(at, obs);
    }

    /// Starts a cleaning job regardless of mode; returns false if no victim.
    /// `at` stamps the observer events.
    fn start_job<O: Observer>(&mut self, at: SimTime, obs: &mut O) -> bool {
        let Some(victim) = self.select_victim() else {
            return false;
        };
        // Logically relocate live data now (map + space bookkeeping); the
        // *time* of copying plus erasure is paid by the job as it runs.
        // Relocation preserves each block's write generation: the cleaner
        // moves data, it does not rewrite it.
        let live: Vec<(u64, u64)> = self
            .map
            .iter()
            .filter(|(_, loc)| loc.seg == victim)
            .map(|(&lbn, loc)| (lbn, loc.gen))
            .collect();
        let copy_blocks = live.len() as u64;
        let mut lbns = live;
        lbns.sort_unstable(); // Determinism: HashMap iteration order varies.
        for (lbn, gen) in lbns {
            self.place_block_at(lbn, gen);
            self.stamp_frontier(at);
        }
        self.counters.blocks_copied += copy_blocks;
        debug_assert_eq!(self.segments[victim as usize].live, 0);

        let copy_bytes = copy_blocks * self.config.block_size;
        // Copies are internal to the card: they run at raw speeds even
        // when the foreground path carries file-system software costs.
        let copy_time = self
            .config
            .params
            .copy_read_bandwidth
            .transfer_time(copy_bytes)
            + self
                .config
                .params
                .copy_write_bandwidth
                .transfer_time(copy_bytes);
        // Draw the erase outcome now so the job's total duration is fixed
        // at start (transient retries re-run the 1.6 s pulse; a permanent
        // failure pays one failed pulse, then retires the segment). The
        // draw order is the card's op order, so it is deterministic.
        let mut erase_time = self.config.params.erase_time;
        let mut retire = false;
        match self.plan.erase_outcome() {
            EraseOutcome::Clean => {}
            EraseOutcome::Retried(n) => {
                self.counters.erase_retries += u64::from(n);
                obs.record(&Event::FaultInjected {
                    t: at,
                    kind: FaultKind::EraseRetry { retries: n },
                });
                let extra = self.config.params.erase_time * u64::from(n);
                self.counters.erase_retry_backoff += extra;
                self.backoff.record(extra);
                erase_time += extra;
            }
            EraseOutcome::Permanent => {
                // Never retire below frontier + erased reserve + one
                // cleanable segment: a controller out of spares fails the
                // erase transiently instead (and a real card would go
                // read-only).
                if self.segments.len() - self.bad.len() > 3 {
                    retire = true;
                } else {
                    self.counters.erase_retries += 1;
                    obs.record(&Event::FaultInjected {
                        t: at,
                        kind: FaultKind::EraseRetry { retries: 1 },
                    });
                    let extra = self.config.params.erase_time;
                    self.counters.erase_retry_backoff += extra;
                    self.backoff.record(extra);
                    erase_time += extra;
                }
            }
        }
        obs.record(&Event::FlashCleanStart {
            t: at,
            victim,
            live_copied: copy_blocks as u32,
        });
        self.job = Some(CleanJob {
            victim,
            remaining: copy_time + erase_time,
            retire,
            started: at,
        });
        true
    }

    /// Completes the current job's remaining work in the foreground (a
    /// write is waiting at sim time `at`); returns the time spent, or
    /// `None` if there is no job and nothing is cleanable. Starts a job
    /// first if none is running.
    fn run_cleaning_foreground<O: Observer>(
        &mut self,
        at: SimTime,
        obs: &mut O,
    ) -> Option<SimDuration> {
        if self.job.is_none() && !self.start_job(at, obs) {
            return None;
        }
        let job = self.job.take().expect("job exists");
        self.meter
            .charge_for("clean", self.config.params.active_power, job.remaining);
        let spent = job.remaining;
        self.finish_job(at + spent, job.victim, job.retire, job.started, obs);
        Some(spent)
    }

    /// Applies job completion at sim time `at`: the victim becomes erased,
    /// or — when its final erase pulse failed permanently — is retired into
    /// the bad-block map, shrinking usable capacity. The pass is reported
    /// as one [`SpanKind::Cleaning`] span covering `[started, at]`.
    fn finish_job<O: Observer>(
        &mut self,
        at: SimTime,
        victim: u32,
        retire: bool,
        started: SimTime,
        obs: &mut O,
    ) {
        let seg = &mut self.segments[victim as usize];
        seg.live = 0;
        seg.used = 0;
        seg.erase_count += 1;
        if retire {
            seg.state = SegState::Bad;
            self.bad.push(victim);
            self.counters.segments_retired += 1;
            obs.record(&Event::FaultInjected {
                t: at,
                kind: FaultKind::SegmentRetired { segment: victim },
            });
        } else {
            seg.state = SegState::Erased;
            self.erased.push(victim);
        }
        obs.record(&Event::FlashCleanEnd {
            t: at,
            victim,
            retired: retire,
        });
        obs.span(&Span::new(
            SpanKind::Cleaning { victim },
            started.min(at),
            at,
        ));
        self.counters.erasures += 1;
    }

    /// Settles the gap `[free_at, now]`: background cleaning progresses
    /// during idle time (suspended during I/O, which is modeled by only
    /// advancing it here), idle power covers the remainder.
    fn settle<O: Observer>(&mut self, now: SimTime, obs: &mut O) -> SimTime {
        if now <= self.free_at {
            // No idle gap: FIFO queues, open-loop serves at arrival (the
            // paper's independent-operation model). Background cleaning
            // gets no time either way (it is suspended during I/O).
            return match self.config.queueing {
                mobistore_device::QueueDiscipline::Fifo => self.free_at,
                mobistore_device::QueueDiscipline::OpenLoop => now,
            };
        }
        let mut t = self.free_at;
        while t < now {
            if self.job.is_none() {
                self.maybe_start_job(t, obs);
            }
            let Some(job) = self.job.as_mut() else { break };
            let slice = job.remaining.min(now - t);
            job.remaining -= slice;
            self.meter
                .charge_for("clean", self.config.params.active_power, slice);
            t += slice;
            if self.job.as_ref().expect("job exists").remaining.is_zero() {
                let job = self.job.take().expect("job exists");
                self.finish_job(t, job.victim, job.retire, job.started, obs);
            }
        }
        t = self.run_scrub(t, now, obs);
        if t < now {
            self.meter
                .charge_for("idle", self.config.params.idle_power, now - t);
        }
        self.free_at = now;
        now
    }

    /// Runs due background scrub passes inside the idle gap `[t, now)`;
    /// returns the settled time. One pass walks one segment round-robin,
    /// reading every live block at internal copy speeds: corrections and
    /// relocations follow the integrity plan, uncorrectable blocks are
    /// unmapped (scrubbing *finds* retention loss early; it cannot undo
    /// it). A pass that does not fit in the gap is deferred to the next
    /// idle period; scrubbing, like cleaning, is suspended during I/O.
    fn run_scrub<O: Observer>(&mut self, mut t: SimTime, now: SimTime, obs: &mut O) -> SimTime {
        let Some(interval) = self.integrity.config().scrub_interval else {
            return t;
        };
        while self.next_scrub < now {
            let Some(seg) = self.next_scrub_target() else {
                // Nothing holds live data; the pass is a no-op that stays
                // on schedule.
                self.next_scrub += interval;
                continue;
            };
            let mut lbns: Vec<u64> = self
                .map
                .iter()
                .filter(|(_, loc)| loc.seg == seg)
                .map(|(&lbn, _)| lbn)
                .collect();
            lbns.sort_unstable(); // Determinism: HashMap iteration order varies.
            let blocks = lbns.len() as u32;
            let begin = t.max(self.next_scrub);
            let pass = self.config.params.access_latency
                + self
                    .config
                    .params
                    .copy_read_bandwidth
                    .transfer_time(u64::from(blocks) * self.config.block_size);
            if begin + pass > now {
                break; // Defer: the pass does not fit in this idle gap.
            }
            if begin > t {
                self.meter
                    .charge_for("idle", self.config.params.idle_power, begin - t);
            }
            let s = &self.segments[seg as usize];
            let erase_count = u64::from(s.erase_count);
            let since = begin.saturating_since(s.written_at);
            let mut corrected = 0u32;
            let mut relocated = 0u32;
            for lbn in lbns {
                match self.integrity.classify_read(erase_count, since) {
                    ReadVerdict::Clean => {}
                    ReadVerdict::Corrected { errors } => {
                        corrected += 1;
                        self.counters.ecc_corrected += 1;
                        if self.integrity.config().wants_relocation(errors)
                            && self.try_relocate(begin, lbn, seg, errors, obs)
                        {
                            relocated += 1;
                        }
                    }
                    ReadVerdict::Retried { errors, attempts } => {
                        corrected += 1;
                        self.counters.read_retries += u64::from(attempts);
                        if self.integrity.config().wants_relocation(errors)
                            && self.try_relocate(begin, lbn, seg, errors, obs)
                        {
                            relocated += 1;
                        }
                    }
                    ReadVerdict::Uncorrectable { errors } => {
                        self.counters.uncorrectable_reads += 1;
                        obs.record(&Event::UncorrectableRead {
                            t: begin,
                            lbn,
                            errors,
                        });
                        self.drop_block(lbn);
                    }
                }
            }
            self.counters.scrub_passes += 1;
            self.counters.scrub_reads += u64::from(blocks);
            self.meter
                .charge_for("scrub", self.config.params.active_power, pass);
            t = begin + pass;
            obs.record(&Event::ScrubPass {
                t,
                segment: seg,
                blocks,
                corrected,
                relocated,
            });
            obs.span(&Span::new(SpanKind::Scrub { segment: seg }, begin, t));
            self.next_scrub += interval;
        }
        t
    }

    /// Picks the next segment the scrubber should walk: round-robin over
    /// segments holding live data, resuming after the last pick.
    fn next_scrub_target(&mut self) -> Option<u32> {
        let n = self.segments.len() as u32;
        for off in 0..n {
            let s = (self.scrub_cursor + off) % n;
            let seg = &self.segments[s as usize];
            if matches!(seg.state, SegState::Full | SegState::Frontier) && seg.live > 0 {
                self.scrub_cursor = (s + 1) % n;
                return Some(s);
            }
        }
        None
    }

    /// Validates internal bookkeeping; used by tests and the property
    /// suite.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&self) {
        let live_sum: u64 = self.segments.iter().map(|s| u64::from(s.live)).sum();
        assert_eq!(live_sum, self.live_blocks, "segment live counts vs total");
        assert_eq!(
            self.map.len() as u64,
            self.live_blocks,
            "map size vs live blocks"
        );
        assert!(self.live_blocks <= self.usable_blocks());
        let frontier = &self.segments[self.frontier as usize];
        assert_eq!(frontier.state, SegState::Frontier);
        assert!(frontier.used <= self.blocks_per_segment);
        assert!(frontier.live <= frontier.used);
        for (i, s) in self.segments.iter().enumerate() {
            if s.state == SegState::Erased {
                assert_eq!(s.live, 0, "erased segment {i} has live data");
                assert!(
                    self.erased.contains(&(i as u32))
                        || self.job.as_ref().is_some_and(|j| j.victim == i as u32),
                    "erased segment {i} missing from pool"
                );
            }
            if s.state == SegState::Bad {
                assert_eq!(s.live, 0, "retired segment {i} has live data");
                assert!(
                    self.bad.contains(&(i as u32)),
                    "retired segment {i} missing from bad-block map"
                );
            }
            assert!(s.live <= self.blocks_per_segment);
        }
        for &e in &self.erased {
            assert_eq!(self.segments[e as usize].state, SegState::Erased);
        }
        for &b in &self.bad {
            assert_eq!(self.segments[b as usize].state, SegState::Bad);
        }
        let census = self.census();
        assert_eq!(
            census.total(),
            self.capacity_blocks(),
            "census {census:?} does not partition capacity"
        );
    }

    /// Runs [`check_invariants`](Self::check_invariants) after every
    /// mutating operation in debug builds (tests); compiled out of release
    /// binaries.
    fn debug_check(&self) {
        if cfg!(debug_assertions) {
            self.check_invariants();
        }
    }
}

impl Device for FlashCardStore {
    /// Serves a read of `req.bytes / block_size` blocks from `req.lbn`.
    ///
    /// Reads never wait for cleaning (erasure is suspended during I/O), but
    /// do queue behind earlier requests. Every mapped block is classified
    /// through the bit-error/ECC model: corrections
    /// ([`Event::EccCorrected`]) and bounded retries ([`Event::ReadRetry`])
    /// cost time, high-error blocks are relocated
    /// ([`Event::BlockRelocated`]), and the first block that exceeds both
    /// the ECC budget and the read-retry bound yields
    /// [`DeviceError::Uncorrectable`] ([`Event::UncorrectableRead`]) and is
    /// unmapped — its data is gone, and the loss is *reported*, never
    /// silent. Time and energy are accounted either way.
    fn read<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O) -> ReadOutcome {
        let (lbn, blocks) = (req.lbn, req.block_count(self.config.block_size));
        let start = self.settle(now, obs);
        let bytes = u64::from(blocks) * self.config.block_size;
        let mut dur = self.config.params.access_latency
            + self.config.params.read_bandwidth.transfer_time(bytes);
        let block_read = self
            .config
            .params
            .read_bandwidth
            .transfer_time(self.config.block_size);
        let mut result = Ok(());
        let mut retry_extra = SimDuration::ZERO;
        let mut retry_attempts = 0u32;
        let mut retry_lbn = 0u64;
        for i in 0..u64::from(blocks) {
            let b = lbn + i;
            let Some(loc) = self.map.get(&b) else {
                // Unmapped blocks have no stored charge to decay; they are
                // served (as before) without consuming a bit-error draw.
                continue;
            };
            let seg = loc.seg;
            let s = &self.segments[seg as usize];
            let verdict = self.integrity.classify_read(
                u64::from(s.erase_count),
                start.saturating_since(s.written_at),
            );
            match verdict {
                ReadVerdict::Clean => {}
                ReadVerdict::Corrected { errors } => {
                    self.counters.ecc_corrected += 1;
                    dur += self.integrity.config().correction_penalty;
                    obs.record(&Event::EccCorrected {
                        t: start,
                        lbn: b,
                        errors,
                    });
                    if self.integrity.config().wants_relocation(errors) {
                        self.try_relocate(start, b, seg, errors, obs);
                    }
                }
                ReadVerdict::Retried { errors, attempts } => {
                    self.counters.read_retries += u64::from(attempts);
                    // Each retry backs off and re-reads the block.
                    let extra =
                        (self.plan.config().retry_backoff + block_read) * u64::from(attempts);
                    self.backoff.record(extra);
                    dur += extra;
                    retry_extra += extra;
                    if retry_attempts == 0 {
                        retry_lbn = b;
                    }
                    retry_attempts += attempts;
                    obs.record(&Event::ReadRetry {
                        t: start,
                        lbn: b,
                        attempts,
                    });
                    if self.integrity.config().wants_relocation(errors) {
                        self.try_relocate(start, b, seg, errors, obs);
                    }
                }
                ReadVerdict::Uncorrectable { errors } => {
                    self.counters.uncorrectable_reads += 1;
                    obs.record(&Event::UncorrectableRead {
                        t: start,
                        lbn: b,
                        errors,
                    });
                    self.drop_block(b);
                    if result.is_ok() {
                        result = Err(DeviceError::Uncorrectable { lbn: b, errors });
                    }
                }
            }
        }
        let end = start + dur;
        self.meter
            .charge_for("active", self.config.params.active_power, dur);
        obs.span(&Span::new(SpanKind::FlashRead { bytes }, start, end));
        if retry_attempts > 0 {
            obs.span(&Span::new(
                SpanKind::EccRetry {
                    lbn: retry_lbn,
                    attempts: retry_attempts,
                },
                end - retry_extra,
                end,
            ));
        }
        self.counters.ops += 1;
        self.counters.bytes_read += bytes;
        self.free_at = self.free_at.max(end);
        self.debug_check();
        (Service { start, end }, result)
    }

    /// Serves a write of `req.bytes / block_size` blocks from `req.lbn`.
    ///
    /// Cleaning is needed whenever the erased-segment pool drains. Under
    /// [`CleanerMode::Background`] a job is launched to run during idle
    /// gaps; a write that fills the frontier before the job finishes must
    /// wait out its remaining work, which is what degrades write response
    /// at high utilization (§5.2). Under [`CleanerMode::OnDemand`] the
    /// triggering write performs the whole cleaning synchronously. Cleaning
    /// ([`Event::FlashCleanStart`]/[`Event::FlashCleanEnd`]) and injected
    /// faults ([`Event::FaultInjected`]) are reported to the observer.
    ///
    /// When a write finds the frontier full, the erased pool empty, and
    /// nothing cleanable (the live working set has outgrown the usable
    /// capacity — typically because permanent erase failures retired too
    /// many segments), the card enters *read-only end-of-life mode*
    /// ([`Event::FlashEndOfLife`]): this and every later write fails fast
    /// with [`DeviceError::ReadOnly`], while reads and trims continue to be
    /// served. A multi-block write that hits end of life mid-transfer keeps
    /// the blocks already placed (the transfer failed partway, as on a real
    /// device) and reports the error for the whole operation.
    fn write<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O) -> WriteOutcome {
        let (lbn, blocks) = (req.lbn, req.block_count(self.config.block_size));
        if self.read_only {
            self.counters.eol_write_rejections += 1;
            return Err(self.read_only_error());
        }
        let start = self.settle(now, obs);
        let mut wait = SimDuration::ZERO;
        let mut waited = false;
        for i in 0..u64::from(blocks) {
            // The background job may not have produced an erased segment
            // in time: the write stalls for its remaining work. Looping
            // covers a cleaning whose victim was retired (no erased
            // segment produced) — the next victim is cleaned immediately.
            while self.frontier_full() && !self.advance_frontier() {
                match self.run_cleaning_foreground(start + wait, obs) {
                    Some(spent) => {
                        wait += spent;
                        waited = true;
                    }
                    None => {
                        self.read_only = true;
                        self.counters.eol_write_rejections += 1;
                        obs.record(&Event::FlashEndOfLife {
                            t: start + wait,
                            live: self.live_blocks,
                            usable: self.usable_blocks(),
                            retired: self.retired_blocks(),
                        });
                        self.debug_check();
                        return Err(self.read_only_error());
                    }
                }
            }
            self.place_block(lbn + i);
            self.stamp_frontier(start + wait);
            if self.erased.is_empty() && self.job.is_none() {
                // The pool just drained: the frontier was freshly opened, so
                // a full segment of free slots guarantees any victim's live
                // data can be relocated.
                match self.config.mode {
                    CleanerMode::Background => {
                        self.start_job(start + wait, obs);
                    }
                    CleanerMode::OnDemand => {
                        if let Some(spent) = self.run_cleaning_foreground(start + wait, obs) {
                            wait += spent;
                            waited = true;
                        }
                    }
                }
            }
        }
        if waited {
            self.counters.cleaning_waits += 1;
        }
        let bytes = u64::from(blocks) * self.config.block_size;
        let mut dur = self.config.params.access_latency
            + self.config.params.write_bandwidth.transfer_time(bytes);
        // Transient program failures: the controller backs off and re-runs
        // the whole transfer, charging active power for the extra passes.
        let retries = self.plan.write_retries();
        if retries > 0 {
            self.counters.write_retries += u64::from(retries);
            obs.record(&Event::FaultInjected {
                t: start + wait,
                kind: FaultKind::WriteRetry { retries },
            });
            let extra = (self.plan.config().retry_backoff + dur) * u64::from(retries);
            self.counters.write_retry_backoff += extra;
            self.backoff.record(extra);
            dur += extra;
        }
        let end = start + wait + dur;
        self.meter
            .charge_for("active", self.config.params.active_power, dur);
        obs.span(&Span::new(
            SpanKind::FlashProgram { bytes },
            start + wait,
            end,
        ));
        self.counters.ops += 1;
        self.counters.bytes_written += bytes;
        self.free_at = self.free_at.max(end);
        self.debug_check();
        Ok(Service { start, end })
    }

    /// Marks the request's blocks dead (file deletion). Takes no device
    /// time; `now` stamps any cleaning job the trim starts.
    fn trim<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O) {
        let (lbn, blocks) = (req.lbn, req.block_count(self.config.block_size));
        for i in 0..u64::from(blocks) {
            if let Some(loc) = self.map.remove(&(lbn + i)) {
                self.segments[loc.seg as usize].live -= 1;
                self.live_blocks -= 1;
            }
        }
        self.maybe_start_job(now, obs);
        self.debug_check();
    }

    /// Simulates a power failure at `at` followed by crash recovery.
    ///
    /// The power loss truncates any in-flight cleaning: the victim's live
    /// data was already relocated (copy-before-erase, as MFFS compaction
    /// does), so no data is lost, but the victim is left un-erased — an
    /// *orphaned* fully-dead segment. Recovery then runs the MFFS log
    /// scan: every occupied slot's block header is read back to rebuild
    /// the logical-to-physical map, and the orphaned segment (detected by
    /// the scan) is reclaimed with a fresh erase, reported as an
    /// [`Event::FlashCleanEnd`]. The card is busy for the whole recovery;
    /// time and energy are charged to the `"recover"` state and
    /// [`FlashCardCounters::recovery_time`].
    fn power_fail<O: Observer>(&mut self, at: SimTime, obs: &mut O) -> Service {
        // Background cleaning progressed until the lights went out.
        let start = self.settle(at, obs);
        let orphan = self.job.take();

        // Log scan: header read per occupied (live or dead) slot.
        let census = self.census();
        let scan_bytes = (census.live + census.dead) * RECOVERY_HEADER_BYTES;
        let mut dur = self.config.params.access_latency
            + self
                .config
                .params
                .copy_read_bandwidth
                .transfer_time(scan_bytes);
        // Orphaned-segment reclaim: the interrupted victim is re-erased.
        if let Some(job) = orphan {
            dur += self.config.params.erase_time;
            self.finish_job(start + dur, job.victim, false, job.started, obs);
        }
        let end = start + dur;
        self.meter
            .charge_for("recover", self.config.params.active_power, dur);
        self.counters.power_failures += 1;
        self.counters.recovery_time += dur;
        self.free_at = self.free_at.max(end);
        // Recovered-state invariants: the map, segment states, and census
        // must all be consistent after replay.
        self.check_invariants();
        Service { start, end }
    }

    /// Settles the trailing idle period (and any final background
    /// cleaning), reporting cleaning completions.
    fn finish<O: Observer>(&mut self, end: SimTime, obs: &mut O) {
        let _ = self.settle(end, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_device::params::intel_datasheet;
    use mobistore_sim::obs::NoopObserver;
    use mobistore_sim::units::KIB;

    /// A request for `blocks` 1-KB blocks from `lbn`.
    fn req(lbn: u64, blocks: u32) -> Request {
        Request::blocks(lbn, blocks, KIB)
    }

    fn write(card: &mut FlashCardStore, now: SimTime, lbn: u64, blocks: u32) -> Service {
        let written = card.write(now, req(lbn, blocks), &mut NoopObserver);
        written.expect("write on a healthy card")
    }

    fn read(card: &mut FlashCardStore, now: SimTime, lbn: u64, blocks: u32) -> Service {
        card.read(now, req(lbn, blocks), &mut NoopObserver).0
    }

    /// An untimed trim, stamped when the card is next free.
    fn trim(card: &mut FlashCardStore, lbn: u64, blocks: u32) {
        card.trim(card.free_at(), req(lbn, blocks), &mut NoopObserver);
    }

    /// A small card: 4 segments x 128 KB = 512 KB, 1-KB blocks,
    /// 128 blocks/segment.
    fn small_card(mode: CleanerMode) -> FlashCardStore {
        FlashCardStore::new(FlashCardConfig {
            params: intel_datasheet(),
            block_size: KIB,
            capacity_bytes: 512 * KIB,
            mode,
            victim_policy: VictimPolicy::GreedyMinLive,
            queueing: mobistore_device::QueueDiscipline::Fifo,
        })
    }

    #[test]
    fn geometry() {
        let card = small_card(CleanerMode::Background);
        assert_eq!(card.capacity_blocks(), 512);
        assert_eq!(card.free_blocks(), 512);
        assert_eq!(card.live_blocks(), 0);
        card.check_invariants();
    }

    #[test]
    fn write_maps_blocks_and_consumes_space() {
        let mut card = small_card(CleanerMode::Background);
        let svc = write(&mut card, SimTime::ZERO, 0, 8);
        assert_eq!(card.live_blocks(), 8);
        assert_eq!(card.free_blocks(), 504);
        // 8 KB at 214 KB/s.
        let secs = (svc.end - svc.start).as_secs_f64();
        assert!((secs - 8.0 / 214.0).abs() < 1e-6, "{secs}");
        card.check_invariants();
    }

    #[test]
    fn overwrite_creates_dead_blocks_not_live() {
        let mut card = small_card(CleanerMode::Background);
        write(&mut card, SimTime::ZERO, 0, 8);
        let t = SimTime::from_secs_f64(10.0);
        write(&mut card, t, 0, 8);
        assert_eq!(card.live_blocks(), 8, "overwrite does not grow live data");
        assert_eq!(card.free_blocks(), 512 - 16, "but consumes new slots");
        card.check_invariants();
    }

    #[test]
    fn read_costs_time_but_no_space() {
        let mut card = small_card(CleanerMode::Background);
        write(&mut card, SimTime::ZERO, 0, 4);
        let free = card.free_blocks();
        let svc = read(&mut card, SimTime::from_secs_f64(5.0), 0, 4);
        assert_eq!(card.free_blocks(), free);
        let secs = (svc.end - svc.start).as_secs_f64();
        assert!((secs - 4.0 / 9765.0).abs() < 1e-6, "{secs}");
    }

    #[test]
    fn trim_reduces_live() {
        let mut card = small_card(CleanerMode::Background);
        write(&mut card, SimTime::ZERO, 0, 8);
        trim(&mut card, 0, 4);
        assert_eq!(card.live_blocks(), 4);
        // Trimming unmapped blocks is a no-op.
        trim(&mut card, 100, 4);
        assert_eq!(card.live_blocks(), 4);
        card.check_invariants();
    }

    #[test]
    fn preload_is_instant() {
        let mut card = small_card(CleanerMode::Background);
        card.preload(0..300);
        assert_eq!(card.live_blocks(), 300);
        assert!((card.utilization() - 300.0 / 512.0).abs() < 1e-9);
        assert_eq!(card.energy().get(), 0.0);
        card.check_invariants();
    }

    #[test]
    #[should_panic(expected = "safe capacity")]
    fn preload_cannot_fill_past_slack() {
        let mut card = small_card(CleanerMode::Background);
        card.preload(0..512);
    }

    #[test]
    fn preload_aged_spreads_live_data() {
        let mut card = small_card(CleanerMode::Background);
        card.preload_aged(0..192); // 37.5% of 512 blocks
        card.check_invariants();
        assert_eq!(card.live_blocks(), 192);
        // Only the frontier (128 slots) and one reserve segment are free.
        assert_eq!(card.free_blocks(), 256);
        // The first cleaning after the pool drains copies roughly an even
        // share of the live data (192 / 2 fillable segments = 96).
        let mut t = SimTime::ZERO;
        let mut lbn = 1000;
        while card.counters().erasures == 0 {
            t = write(&mut card, t, lbn, 1).end;
            lbn += 1;
            assert!(lbn < 2000, "cleaning never triggered");
        }
        // The triggering write may immediately start (and logically copy
        // for) the *next* job after the first erase, so either one or two
        // 96-block shares are copied by now.
        let copied = card.counters().blocks_copied;
        assert!(copied == 96 || copied == 192, "copied {copied}");
        card.check_invariants();
    }

    #[test]
    fn aged_cleaning_cost_scales_with_utilization() {
        // The Figure 2 mechanism in miniature: on an aged card the same
        // write workload costs more cleaning time at higher utilization.
        // 16 segments x 128 KB = 2048 blocks.
        let run = |live: u64| {
            let mut card = FlashCardStore::new(FlashCardConfig {
                params: intel_datasheet(),
                block_size: KIB,
                capacity_bytes: 2 * 1024 * KIB,
                mode: CleanerMode::Background,
                victim_policy: VictimPolicy::GreedyMinLive,
                queueing: mobistore_device::QueueDiscipline::Fifo,
            });
            card.preload_aged(0..live);
            let mut t = SimTime::ZERO;
            for lbn in 0..600 {
                t = write(&mut card, t, lbn % live, 1).end;
            }
            card.check_invariants();
            card.meter().category("clean").get()
        };
        let low = run(820); // 40%
        let high = run(1434); // 70%
        assert!(high > low, "clean energy {low} -> {high}");
    }

    #[test]
    #[should_panic(expected = "fillable")]
    fn aged_preload_rejects_overfill() {
        let mut card = small_card(CleanerMode::Background);
        card.preload_aged(0..300); // > 2 x 128 fillable
    }

    #[test]
    fn background_cleaning_runs_in_idle_gaps() {
        let mut card = small_card(CleanerMode::Background);
        // Fill three segments; the advance into segment 3 drains the erased
        // pool and launches a background job.
        let mut t = write(&mut card, SimTime::ZERO, 0, 128).end;
        t = write(&mut card, t, 128, 128).end;
        trim(&mut card, 0, 128); // segment 0 fully dead: the obvious victim
        t = write(&mut card, t, 256, 129).end; // fills seg 2, opens seg 3
        assert_eq!(card.counters().erasures, 0, "job not finished yet");
        // A long idle gap lets the job copy (nothing) and erase.
        let later = t + SimDuration::from_secs(60);
        let svc = read(&mut card, later, 128, 1);
        assert_eq!(svc.start, later, "reads never wait for cleaning");
        assert_eq!(card.counters().erasures, 1, "idle gap erased the victim");
        assert!(card.meter().category("clean").get() > 0.0);
        card.check_invariants();
    }

    #[test]
    fn write_waits_when_cleaner_cannot_keep_up() {
        let mut card = small_card(CleanerMode::Background);
        card.preload(0..300);
        // Overwrite continuously with zero idle time: the background job
        // gets no gaps, so some write must stall for it.
        let mut t = SimTime::ZERO;
        for round in 0u64..3 {
            for lbn in 0..300 {
                t = write(&mut card, t, lbn, 1).end;
                let _ = round;
            }
        }
        assert!(card.counters().cleaning_waits >= 1, "no write ever waited");
        assert!(card.counters().erasures >= 1);
        card.check_invariants();
    }

    #[test]
    fn on_demand_write_pays_whole_cleaning() {
        let mut card = small_card(CleanerMode::OnDemand);
        card.preload(0..300);
        let mut t = SimTime::ZERO;
        let mut max_response = SimDuration::ZERO;
        for lbn in 0..300 {
            let svc = write(&mut card, t, lbn, 1);
            max_response = max_response.max(svc.end - t);
            t = svc.end;
        }
        assert!(card.counters().cleaning_waits >= 1);
        // Some write absorbed a full erase (1.6 s) plus copying.
        assert!(max_response.as_secs_f64() > 1.6, "{max_response}");
        card.check_invariants();
    }

    #[test]
    fn greedy_picks_lowest_utilization_victim() {
        let mut card = small_card(CleanerMode::OnDemand);
        // Segment 0: 128 blocks, then kill 100 (28 live).
        let mut t = write(&mut card, SimTime::ZERO, 0, 128).end;
        // Segment 1: 128 blocks, kill 10 (118 live).
        t = write(&mut card, t, 128, 128).end;
        trim(&mut card, 0, 100);
        trim(&mut card, 128, 10);
        // Fill until the pool drains and the first cleaning fires.
        let mut lbn = 300;
        while card.counters().erasures == 0 {
            t = write(&mut card, t, lbn, 1).end;
            lbn += 1;
            assert!(lbn < 900, "cleaning never triggered");
        }
        // The victim must have been segment 0 (28 live copied, not 118).
        assert_eq!(card.counters().blocks_copied, 28);
        card.check_invariants();
    }

    #[test]
    fn cleaning_copies_preserve_data_mapping() {
        let mut card = small_card(CleanerMode::OnDemand);
        card.preload(0..300);
        let mut t = SimTime::ZERO;
        for round in 0..3 {
            for lbn in 0..200 {
                t = write(&mut card, t, lbn, 1).end;
            }
            // All 300 lbns must stay live through arbitrary cleaning.
            assert_eq!(card.live_blocks(), 300, "round {round}");
            card.check_invariants();
        }
    }

    #[test]
    fn wear_tracks_erasures() {
        let mut card = small_card(CleanerMode::OnDemand);
        card.preload(0..300);
        let mut t = SimTime::ZERO;
        for lbn in 0..200 {
            t = write(&mut card, t, lbn, 1).end;
        }
        for lbn in 0..200 {
            t = write(&mut card, t, lbn, 1).end;
        }
        let wear = card.wear();
        assert!(wear.total >= 1);
        assert!(wear.max_erase >= 1);
        assert!((wear.mean_erase - wear.total as f64 / 4.0).abs() < 1e-9);
        assert_eq!(wear.total, card.counters().erasures);
    }

    #[test]
    fn higher_utilization_copies_more() {
        // The §5.2 effect in miniature: the same overwrite workload at 40%
        // vs 90% utilization copies more live data and erases more often.
        // 16 segments x 128 KB = 2 MB = 2048 blocks.
        let run = |preload: u64| {
            let mut card = FlashCardStore::new(FlashCardConfig {
                params: intel_datasheet(),
                block_size: KIB,
                capacity_bytes: 2 * 1024 * KIB,
                mode: CleanerMode::Background,
                victim_policy: VictimPolicy::GreedyMinLive,
                queueing: mobistore_device::QueueDiscipline::Fifo,
            });
            card.preload(0..preload);
            let mut t = SimTime::ZERO;
            let mut lbn = 0u64;
            for _ in 0..4000 {
                // Tight interarrival so cleaning mostly cannot hide in idle
                // gaps.
                let at = t + SimDuration::from_micros(100);
                t = write(&mut card, at, lbn % preload, 1).end;
                lbn += 7; // Stride spreads overwrites across segments.
            }
            card.check_invariants();
            (
                card.counters().blocks_copied,
                card.counters().erasures,
                card.energy().get(),
            )
        };
        let (copied_low, erase_low, energy_low) = run(820); // 40%
        let (copied_high, erase_high, energy_high) = run(1845); // 90%
        assert!(
            copied_high > copied_low,
            "copies: {copied_high} vs {copied_low}"
        );
        assert!(
            erase_high >= erase_low,
            "erasures: {erase_high} vs {erase_low}"
        );
        assert!(
            energy_high > energy_low,
            "energy: {energy_high} vs {energy_low}"
        );
    }

    #[test]
    fn fifo_policy_picks_oldest() {
        let mut card = FlashCardStore::new(FlashCardConfig {
            params: intel_datasheet(),
            block_size: KIB,
            capacity_bytes: 512 * KIB,
            mode: CleanerMode::OnDemand,
            victim_policy: VictimPolicy::Fifo,
            queueing: mobistore_device::QueueDiscipline::Fifo,
        });
        // Fill segments 0 and 1; segment 0 is oldest.
        let mut t = write(&mut card, SimTime::ZERO, 0, 128).end;
        t = write(&mut card, t, 128, 128).end;
        trim(&mut card, 0, 20); // seg 0: 108 live
        trim(&mut card, 128, 100); // seg 1: 28 live (greedy would pick this)
        let mut lbn = 300;
        while card.counters().erasures == 0 {
            t = write(&mut card, t, lbn, 1).end;
            lbn += 1;
            assert!(lbn < 900, "cleaning never triggered");
        }
        // FIFO copied the 108 live blocks of the *older* segment 0.
        assert_eq!(card.counters().blocks_copied, 108);
        card.check_invariants();
    }

    #[test]
    fn wear_aware_policy_narrows_the_wear_spread() {
        // A skewed overwrite workload: greedy recycles the same hot
        // segments forever; the wear-aware policy spreads erasures, so the
        // worst segment's count drops even if total work rises a little.
        let run = |policy: VictimPolicy| {
            let mut card = FlashCardStore::new(FlashCardConfig {
                params: intel_datasheet(),
                block_size: KIB,
                capacity_bytes: 2 * 1024 * KIB,
                mode: CleanerMode::Background,
                victim_policy: policy,
                queueing: mobistore_device::QueueDiscipline::Fifo,
            });
            card.preload_aged(0..1600); // 78% full, mostly cold
            let mut t = SimTime::ZERO;
            for i in 0..20_000u64 {
                // Overwrite a tiny hot set (32 blocks) relentlessly.
                t = write(&mut card, t, i % 32, 1).end;
            }
            card.check_invariants();
            card.wear()
        };
        let greedy = run(VictimPolicy::GreedyMinLive);
        let aware = run(VictimPolicy::WearAware);
        assert!(
            f64::from(aware.max_erase) < f64::from(greedy.max_erase) * 0.7,
            "aware max {} vs greedy max {}",
            aware.max_erase,
            greedy.max_erase
        );
        // Leveling is not free: spreading a 1.5%-of-card hot spot costs
        // extra copies and erasures (the §2 trade-off made quantitative);
        // the tax stays within a small factor.
        assert!(
            (aware.total as f64) < greedy.total as f64 * 4.0,
            "aware total {} vs greedy {}",
            aware.total,
            greedy.total
        );
    }

    #[test]
    fn reset_metrics_can_keep_or_clear_wear() {
        let mut card = small_card(CleanerMode::OnDemand);
        card.preload(0..300);
        let mut t = SimTime::ZERO;
        for lbn in 0..250 {
            t = write(&mut card, t, lbn, 1).end;
        }
        assert!(card.wear().total > 0);
        card.reset_metrics(false);
        assert_eq!(card.energy().get(), 0.0);
        assert!(card.wear().total > 0, "wear preserved");
        card.reset_metrics(true);
        assert_eq!(card.wear().total, 0);
    }

    #[test]
    fn trim_past_eof_and_double_trim_are_noops() {
        let mut card = small_card(CleanerMode::Background);
        write(&mut card, SimTime::ZERO, 0, 8);
        // The range extends far past the last mapped block: only the
        // mapped tail is dropped, the rest is silently ignored.
        trim(&mut card, 4, 1000);
        assert_eq!(card.live_blocks(), 4);
        let census = card.census();
        assert_eq!(census.dead, 4);
        // Trimming the same (now dead) range again changes nothing — no
        // double-decrement of live counts.
        trim(&mut card, 4, 1000);
        assert_eq!(card.live_blocks(), 4);
        assert_eq!(card.census(), census);
        // A trim entirely past EOF is a pure no-op.
        trim(&mut card, 1 << 40, 16);
        assert_eq!(card.census(), census);
        assert_eq!(census.total(), card.capacity_blocks());
        card.check_invariants();
    }

    #[test]
    fn aged_preload_fills_every_fillable_slot() {
        let mut card = small_card(CleanerMode::Background);
        // 2 fillable segments x 128 blocks: utilization 1.0 of the
        // fillable region — the documented ceiling (one more panics, see
        // aged_preload_rejects_overfill).
        card.preload_aged(0..256);
        assert_eq!(card.live_blocks(), 256);
        let census = card.census();
        assert_eq!(census.dead, 0, "an aged-but-full card has no dead blocks");
        assert_eq!(census.free, 256, "frontier + reserve stay free");
        card.check_invariants();
        // Overwrites at this utilization still make progress: dead blocks
        // accumulate in the preloaded segments and cleaning reclaims them.
        let mut t = SimTime::ZERO;
        let mut lbn = 0u64;
        while card.counters().erasures == 0 {
            t = write(&mut card, t, lbn % 256, 1).end;
            lbn += 1;
            assert!(lbn < 2000, "cleaning never triggered");
            assert_eq!(card.live_blocks(), 256, "overwrites keep live constant");
            card.check_invariants();
        }
    }

    #[test]
    fn transient_write_faults_add_retries_and_latency() {
        let fault = FaultConfig {
            write_fail_rate: 1.0,
            ..FaultConfig::none()
        };
        let mut clean = small_card(CleanerMode::Background);
        let mut faulty = small_card(CleanerMode::Background).with_faults(fault);
        let ok = write(&mut clean, SimTime::ZERO, 0, 8);
        let slow = write(&mut faulty, SimTime::ZERO, 0, 8);
        // At rate 1.0 every attempt fails until the controller gives up,
        // so each write pays exactly max_retries retries.
        assert_eq!(
            faulty.counters().write_retries,
            u64::from(fault.max_retries)
        );
        assert_eq!(clean.counters().write_retries, 0);
        // Each retry re-runs the transfer plus a fixed backoff, so the
        // faulty write is strictly slower than the clean one.
        assert!(slow.end - slow.start > ok.end - ok.start);
        faulty.check_invariants();
    }

    #[test]
    fn permanent_erase_failure_retires_one_segment_until_spares_run_low() {
        let fault = FaultConfig {
            erase_fail_rate: 1.0,
            permanent_rate: 1.0,
            ..FaultConfig::none()
        };
        let mut card = small_card(CleanerMode::OnDemand).with_faults(fault);
        card.preload(0..100);
        let mut t = SimTime::ZERO;
        let mut n = 0u64;
        while card.counters().segments_retired == 0 {
            t = write(&mut card, t, n % 100, 1).end;
            n += 1;
            assert!(n < 4000, "no segment was ever retired");
        }
        // The first erase failure retires its victim; capacity shrinks by
        // one segment and the census still partitions raw capacity.
        assert_eq!(card.counters().segments_retired, 1);
        assert_eq!(card.retired_blocks(), 128);
        assert_eq!(card.usable_blocks(), 512 - 128);
        let census = card.census();
        assert_eq!(census.retired, 128);
        assert_eq!(census.total(), card.capacity_blocks());
        card.check_invariants();
        // Down to 3 usable segments the spare guard refuses further
        // retirements: permanent failures degrade to transient retries and
        // the card keeps serving writes.
        let before = card.counters().erase_retries;
        for _ in 0..600 {
            t = write(&mut card, t, n % 100, 1).end;
            n += 1;
        }
        assert_eq!(card.counters().segments_retired, 1, "spare guard held");
        assert!(card.counters().erase_retries > before);
        assert_eq!(card.live_blocks(), 100, "no data lost to retirement");
        card.check_invariants();
    }

    #[test]
    fn capacity_exhaustion_enters_read_only_end_of_life() {
        use mobistore_sim::obs::CountingObserver;
        let mut card = small_card(CleanerMode::Background);
        let mut obs = CountingObserver::default();
        let mut t = SimTime::ZERO;
        let mut lbn = 0u64;
        // Ever-growing working set: once every full segment is fully live
        // nothing is cleanable and the card must go read-only, not panic.
        let err = loop {
            match card.write(t, req(lbn, 1), &mut obs) {
                Ok(svc) => {
                    t = svc.end;
                    lbn += 1;
                }
                Err(e) => break e,
            }
            assert!(lbn < 1000, "card never filled");
        };
        assert!(matches!(err, DeviceError::ReadOnly { .. }));
        assert!(card.is_read_only());
        assert_eq!(obs.counts.get("flash_end_of_life"), 1);
        assert_eq!(card.counters().eol_write_rejections, 1);

        // Later writes fail fast with the same typed error and count.
        let e2 = card
            .write(t, req(0, 1), &mut NoopObserver)
            .expect_err("still read-only");
        assert!(matches!(e2, DeviceError::ReadOnly { .. }));
        assert_eq!(card.counters().eol_write_rejections, 2);

        // Reads and trims are still served; state stays consistent.
        let svc = read(&mut card, t, 0, 1);
        assert!(svc.end > svc.start);
        let live = card.live_blocks();
        trim(&mut card, 0, 1);
        assert_eq!(card.live_blocks(), live - 1);
        card.check_invariants();

        // End of life is sticky: freed space does not resurrect the card.
        assert!(card.write(t, req(0, 1), &mut NoopObserver).is_err());

        // The panicking wrapper reports the same condition.
        let msg = e2.to_string();
        assert!(msg.contains("read-only at end of life"), "{msg}");
    }

    #[test]
    fn cleaning_preserves_write_generations() {
        let mut card = small_card(CleanerMode::OnDemand);
        card.preload(0..300); // generations 1..=300 in lbn order
        let before: Vec<_> = card
            .snapshot()
            .into_iter()
            .filter(|e| e.lbn >= 200)
            .collect();
        assert_eq!(before.len(), 100);
        // Overwrite the low lbns until cleaning has run several times; the
        // untouched blocks 200..300 get relocated but never re-stamped.
        let mut t = SimTime::ZERO;
        for round in 0..3 {
            for lbn in 0..200 {
                t = write(&mut card, t, lbn, 1).end;
            }
            let _ = round;
        }
        assert!(card.counters().erasures > 0, "cleaning never ran");
        let after: Vec<_> = card
            .snapshot()
            .into_iter()
            .filter(|e| e.lbn >= 200)
            .collect();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.lbn, a.lbn);
            assert_eq!(
                b.generation, a.generation,
                "lbn {} was re-stamped by the cleaner",
                b.lbn
            );
        }
        // Overwritten blocks carry fresh, monotonically larger generations.
        let low = card.snapshot();
        assert!(low
            .iter()
            .filter(|e| e.lbn < 200)
            .all(|e| e.generation > 300));
        assert_eq!(card.next_generation(), 1 + 300 + 600);
    }

    #[test]
    fn sabotage_is_invisible_to_invariants_but_not_the_shadow() {
        use mobistore_sim::crashcheck::ShadowModel;
        let mut card = small_card(CleanerMode::Background);
        let mut shadow = ShadowModel::new();
        let mut t = SimTime::ZERO;
        for lbn in 0..64 {
            t = write(&mut card, t, lbn, 1).end;
            shadow.write(lbn, 1);
        }
        let observed: Vec<(u64, u64)> = card
            .snapshot()
            .into_iter()
            .map(|e| (e.lbn, e.generation))
            .collect();
        assert!(shadow.verify(&observed).is_empty());

        assert!(card.sabotage_lose_block(17));
        card.check_invariants(); // the bug is internally consistent...
        let observed: Vec<(u64, u64)> = card
            .snapshot()
            .into_iter()
            .map(|e| (e.lbn, e.generation))
            .collect();
        let violations = shadow.verify(&observed);
        assert_eq!(violations.len(), 1, "...but the shadow catches it");
        assert!(matches!(
            violations[0],
            mobistore_sim::crashcheck::Violation::LostWrite { lbn: 17, .. }
        ));
    }

    #[test]
    fn power_fail_reclaims_an_orphaned_cleaning_job() {
        let mut card = small_card(CleanerMode::Background);
        // Same setup as background_cleaning_runs_in_idle_gaps: draining
        // the erased pool launches a job whose victim is fully dead.
        let mut t = write(&mut card, SimTime::ZERO, 0, 128).end;
        t = write(&mut card, t, 128, 128).end;
        trim(&mut card, 0, 128);
        t = write(&mut card, t, 256, 129).end;
        assert_eq!(card.counters().erasures, 0, "erase still in flight");
        // The failure lands 10 ms into a ~1.6 s erase, orphaning the
        // victim; recovery's log scan detects the un-erased fully-dead
        // segment and reclaims it with a fresh erase.
        let svc = card.power_fail(t + SimDuration::from_millis(10), &mut NoopObserver);
        assert_eq!(card.counters().power_failures, 1);
        assert_eq!(card.counters().erasures, 1, "orphan re-erased by recovery");
        assert!(card.counters().recovery_time > SimDuration::ZERO);
        assert!(card.meter().category("recover").get() > 0.0);
        assert!(svc.end > svc.start);
        card.check_invariants();
        // The reclaimed segment is writable again.
        let free = card.free_blocks();
        write(&mut card, svc.end, 600, 8);
        assert_eq!(card.free_blocks(), free - 8);
    }

    #[test]
    fn zero_rate_integrity_is_byte_identical() {
        let mut plain = small_card(CleanerMode::Background);
        let mut quiet = small_card(CleanerMode::Background).with_integrity(IntegrityConfig::none());
        let mut tp = SimTime::ZERO;
        let mut tq = SimTime::ZERO;
        for lbn in 0..200u64 {
            tp = write(&mut plain, tp, lbn % 80, 1).end;
            tq = write(&mut quiet, tq, lbn % 80, 1).end;
            let rp = read(&mut plain, tp, lbn % 80, 1);
            let rq = read(&mut quiet, tq, lbn % 80, 1);
            assert_eq!(rp, rq);
            tp = rp.end;
            tq = rq.end;
        }
        assert_eq!(plain.counters(), quiet.counters());
        assert_eq!(plain.energy().get(), quiet.energy().get());
        assert_eq!(plain.snapshot(), quiet.snapshot());
    }

    #[test]
    fn ecc_corrections_add_latency_and_count() {
        // λ = 3: essentially every read sees a few correctable errors.
        let cfg = IntegrityConfig {
            base_errors: 3.0,
            seed: 11,
            ..IntegrityConfig::none()
        };
        let mut clean = small_card(CleanerMode::Background);
        let mut noisy = small_card(CleanerMode::Background).with_integrity(cfg);
        write(&mut clean, SimTime::ZERO, 0, 8);
        write(&mut noisy, SimTime::ZERO, 0, 8);
        let t = SimTime::from_secs_f64(1.0);
        let ok = read(&mut clean, t, 0, 8);
        let slow = read(&mut noisy, t, 0, 8);
        assert!(noisy.counters().ecc_corrected > 0);
        let extra = (slow.end - slow.start).saturating_sub(ok.end - ok.start);
        assert_eq!(
            extra,
            cfg.correction_penalty * noisy.counters().ecc_corrected
        );
        noisy.check_invariants();
    }

    #[test]
    fn uncorrectable_read_unmaps_the_block_and_reports() {
        use mobistore_sim::obs::CountingObserver;
        // λ = 50: far past the retry threshold on every draw.
        let cfg = IntegrityConfig {
            base_errors: 50.0,
            seed: 5,
            ..IntegrityConfig::none()
        };
        let mut card = small_card(CleanerMode::Background).with_integrity(cfg);
        let mut obs = CountingObserver::default();
        write(&mut card, SimTime::ZERO, 0, 4);
        let t = SimTime::from_secs_f64(1.0);
        let (svc, res) = card.read(t, req(0, 4), &mut obs);
        assert!(svc.end > svc.start, "time is accounted even on failure");
        let err = res.expect_err("λ=50 must exceed the retry threshold");
        assert!(matches!(err, DeviceError::Uncorrectable { lbn: 0, .. }));
        assert_eq!(card.counters().uncorrectable_reads, 4);
        assert_eq!(card.live_blocks(), 0, "lost blocks are unmapped");
        assert_eq!(obs.counts.get("uncorrectable_read"), 4);
        card.check_invariants();
        // The data is gone: a later read of the same range finds nothing
        // mapped and succeeds vacuously without drawing errors.
        let (_, res2) = card.read(svc.end, req(0, 4), &mut NoopObserver);
        assert!(res2.is_ok());
        let msg = err.to_string();
        assert!(msg.contains("uncorrectable read of block 0"), "{msg}");
    }

    #[test]
    fn high_error_blocks_are_relocated_with_generations_preserved() {
        use mobistore_sim::obs::CountingObserver;
        // λ = 7 with ECC budget 8: most reads are corrected, and counts
        // ≥ 6 (about half) trip the relocation threshold.
        let cfg = IntegrityConfig {
            base_errors: 7.0,
            seed: 23,
            ..IntegrityConfig::none()
        };
        let mut card = small_card(CleanerMode::Background).with_integrity(cfg);
        let mut obs = CountingObserver::default();
        write(&mut card, SimTime::ZERO, 0, 8);
        let before = card.snapshot();
        let mut t = SimTime::from_secs_f64(1.0);
        for _ in 0..8 {
            t = card.read(t, req(0, 8), &mut obs).0.end;
        }
        assert!(card.counters().blocks_relocated > 0);
        assert_eq!(
            obs.counts.get("block_relocated"),
            card.counters().blocks_relocated
        );
        // Every surviving block keeps its original generation (a rare draw
        // past the retry threshold may have unmapped a block — that loss
        // is reported via uncorrectable_reads, not silent).
        let after = card.snapshot();
        assert_eq!(
            before.len(),
            after.len() + card.counters().uncorrectable_reads as usize
        );
        for a in &after {
            let b = before.iter().find(|b| b.lbn == a.lbn).expect("was live");
            assert_eq!(
                b.generation, a.generation,
                "relocation re-stamped lbn {}",
                a.lbn
            );
        }
        card.check_invariants();
    }

    #[test]
    fn scrubbing_clean_segments_is_invisible_to_reads() {
        // Zero error rates with scrubbing on: passes run in idle gaps,
        // draw nothing, and leave reads bit-identical to an unscrubbed
        // card — the scrub-then-read = read-then-scrub property.
        let scrub = IntegrityConfig::none().with_scrub(SimDuration::from_secs(60));
        let mut plain = small_card(CleanerMode::Background);
        let mut scrubbed = small_card(CleanerMode::Background).with_integrity(scrub);
        write(&mut plain, SimTime::ZERO, 0, 64);
        write(&mut scrubbed, SimTime::ZERO, 0, 64);
        let t = SimTime::from_secs_f64(600.0); // ~9 scrub passes fit
        let rp = read(&mut plain, t, 0, 64);
        let rs = read(&mut scrubbed, t, 0, 64);
        assert_eq!(rp, rs, "scrubbing clean data never delays reads");
        assert_eq!(plain.snapshot(), scrubbed.snapshot());
        assert!(scrubbed.counters().scrub_passes > 0);
        assert_eq!(
            scrubbed.counters().scrub_reads,
            64 * scrubbed.counters().scrub_passes
        );
        assert!(scrubbed.meter().category("scrub").get() > 0.0);
        assert_eq!(plain.meter().category("scrub").get(), 0.0);
        scrubbed.check_invariants();
    }

    #[test]
    fn scrubber_finds_retention_loss_during_idle() {
        use mobistore_sim::obs::CountingObserver;
        // Strong retention coupling: blocks decay while the card idles,
        // and the scrubber is what discovers (and reports) the damage.
        let cfg = IntegrityConfig {
            retention_per_hour: 30.0,
            seed: 9,
            ..IntegrityConfig::none()
        }
        .with_scrub(SimDuration::from_secs(3600));
        let mut card = small_card(CleanerMode::Background).with_integrity(cfg);
        let mut obs = CountingObserver::default();
        write(&mut card, SimTime::ZERO, 0, 32);
        // A day of idle: scrub passes sweep the data as λ climbs.
        card.finish(SimTime::ZERO + SimDuration::from_days(1), &mut obs);
        assert!(card.counters().scrub_passes > 0);
        assert!(
            card.counters().uncorrectable_reads > 0,
            "a day at 30 errors/hour must kill some blocks"
        );
        assert_eq!(obs.counts.get("scrub_pass"), card.counters().scrub_passes);
        assert!(obs.counts.get("uncorrectable_read") > 0);
        card.check_invariants();
    }

    #[test]
    fn retry_backoff_totals_match_the_injected_delay() {
        let fault = FaultConfig {
            write_fail_rate: 1.0,
            ..FaultConfig::none()
        };
        let mut clean = small_card(CleanerMode::Background);
        let mut faulty = small_card(CleanerMode::Background).with_faults(fault);
        let ok = write(&mut clean, SimTime::ZERO, 0, 8);
        let slow = write(&mut faulty, SimTime::ZERO, 0, 8);
        // The backoff counter accounts for exactly the extra service time.
        assert_eq!(
            faulty.counters().write_retry_backoff,
            (slow.end - slow.start).saturating_sub(ok.end - ok.start)
        );
        assert_eq!(clean.counters().write_retry_backoff, SimDuration::ZERO);
        // One episode, recorded for the percentile histogram.
        assert_eq!(faulty.backoff_recorder().histogram().count(), 1);
        assert!(!SimDuration::from_nanos(
            faulty.backoff_recorder().histogram().percentile_nanos(0.5)
        )
        .is_zero());
    }
}
