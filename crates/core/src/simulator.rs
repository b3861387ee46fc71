//! The trace-driven storage simulator (§4.2).
//!
//! [`simulate`] replays a disk-level trace against a [`SystemConfig`]:
//!
//! * reads probe the DRAM buffer cache first; misses go to the SRAM write
//!   buffer (recently-written blocks, §5.5 footnote 3) and then to the
//!   non-volatile backend;
//! * writes go through the write-through cache to the backend — absorbed
//!   by SRAM in front of a disk, remapped and possibly waiting for
//!   cleaning on a flash card;
//! * the first `warm_percent` of operations warm the cache; energy and
//!   response statistics cover only the remainder (§4.2);
//! * response-time means include cache hits, exactly as the paper's
//!   Table 4 means do.

use mobistore_cache::dram::{BufferCache, WritePolicy};
use mobistore_cache::sram::SramWriteBuffer;
use mobistore_device::{QueueDiscipline, Request, Service};
use mobistore_sim::fault::PowerFailSchedule;
use mobistore_sim::hist::LatencyRecorder;
use mobistore_sim::lbn::MAX_LBN_END;
use mobistore_sim::obs::{Event, NoopObserver, Observer, OpKind};
use mobistore_sim::rule::KnobError;
use mobistore_sim::span::{Span, SpanKind};
use mobistore_sim::stats::OnlineStats;
use mobistore_sim::time::{SimDuration, SimTime};
use mobistore_trace::record::{DiskOp, DiskOpKind, Trace};

use crate::backend::{build, Backend, Purpose, WithDevice};
use crate::config::SystemConfig;
use crate::crashcheck::Subject;
use crate::metrics::{component, Metrics};

/// Options controlling a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Percentage of operations used to warm the cache (§4.2 uses 10).
    pub warm_percent: u32,
    /// Reset per-segment wear counters at the warm-up boundary, so
    /// endurance statistics cover the measured portion only.
    pub reset_wear_at_warm: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            warm_percent: 10,
            reset_wear_at_warm: true,
        }
    }
}

/// Runs `trace` against `config` with default options (10% warm-up).
///
/// # Examples
///
/// ```
/// use mobistore_core::config::SystemConfig;
/// use mobistore_core::simulator::simulate;
/// use mobistore_device::params::sdp5_datasheet;
/// use mobistore_sim::time::SimTime;
/// use mobistore_trace::record::{DiskOp, DiskOpKind, FileId, Trace};
///
/// let mut trace = Trace::new(1024);
/// for i in 0..20 {
///     trace.push(DiskOp {
///         time: SimTime::from_secs_f64(i as f64),
///         kind: if i % 2 == 0 { DiskOpKind::Write } else { DiskOpKind::Read },
///         lbn: i % 4,
///         blocks: 1,
///         file: FileId(0),
///     });
/// }
/// let metrics = simulate(&SystemConfig::flash_disk(sdp5_datasheet()), &trace);
/// assert!(metrics.energy.get() > 0.0);
/// ```
pub fn simulate(config: &SystemConfig, trace: &Trace) -> Metrics {
    simulate_with(config, trace, RunOptions::default())
}

/// Runs `trace` against `config` with explicit options.
///
/// # Panics
///
/// Panics where [`try_simulate`] returns an error: a configuration that
/// breaks a rule, a flash card that cannot hold the trace's working set
/// (§5.2 requires the accessed data to fit the preallocated bound), or a
/// warm-up that consumes the whole trace.
pub fn simulate_with(config: &SystemConfig, trace: &Trace, options: RunOptions) -> Metrics {
    simulate_observed(config, trace, options, &mut NoopObserver)
}

/// [`simulate_with`], streaming structured [`Event`]s to `obs` as the
/// simulation progresses.
///
/// The observer is monomorphised into the run: with [`NoopObserver`] this
/// is exactly [`simulate_with`] at zero cost.
///
/// # Panics
///
/// Panics like [`simulate_with`], naming the offending configuration. Use
/// [`try_simulate_observed`] for a fallible variant.
pub fn simulate_observed<O: Observer>(
    config: &SystemConfig,
    trace: &Trace,
    options: RunOptions,
    obs: &mut O,
) -> Metrics {
    match try_simulate_observed(config, trace, options, obs) {
        Ok(metrics) => metrics,
        Err(e) => panic!("cannot simulate configuration '{}': {e}", config.name),
    }
}

/// An invalid simulation configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The trace's working set does not fit the flash card at the
    /// configured utilization.
    FlashOverfull {
        /// Blocks the trace touches.
        working_set_blocks: u64,
        /// The preallocation bound implied by capacity × utilization.
        target_blocks: u64,
    },
    /// `warm_percent` was 100 or more: nothing would be measured.
    NothingToMeasure,
    /// The blocks the run would map end past [`MAX_LBN_END`] (2^32), the
    /// domain of the block-mapped layers' lbn tables: the trace's own
    /// ranges, or on a flash card the filler placed after them.
    LbnDomain {
        /// Exclusive end of the highest block the run would map.
        end: u64,
    },
    /// A fleet checkpoint could not be used for this run: unreadable,
    /// malformed, or fingerprint-mismatched against the configuration.
    Checkpoint(String),
    /// The backend device refused the configured geometry (an
    /// erasure-coded array's `k`, `m`, child list, block size or rebuild
    /// rate, or a flash card's segments).
    DeviceGeometry(mobistore_device::DeviceError),
    /// A knob breaks its rule (see
    /// [`SystemConfig::validate`](crate::config::SystemConfig::validate)).
    Knob(KnobError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::FlashOverfull {
                working_set_blocks,
                target_blocks,
            } => write!(
                f,
                "trace working set ({working_set_blocks} blocks) exceeds the flash \
                 preallocation bound ({target_blocks} blocks); increase the flash \
                 capacity or the utilization"
            ),
            ConfigError::NothingToMeasure => {
                write!(
                    f,
                    "warm-up must leave something to measure (warm_percent < 100)"
                )
            }
            ConfigError::LbnDomain { end } => write!(
                f,
                "blocks would reach lbn {end} (exclusive), past the lbn domain's end at \
                 {MAX_LBN_END} (2^32)"
            ),
            ConfigError::Checkpoint(reason) => write!(f, "checkpoint: {reason}"),
            ConfigError::DeviceGeometry(e) => write!(f, "{e}"),
            ConfigError::Knob(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Any typed failure a simulation can report, spanning every layer: the
/// configuration itself, the backing device, or the memory hierarchy.
///
/// The `repro` binary maps each variant to a distinct process exit code,
/// so scripted sweeps can tell "bad flags" from "device went read-only"
/// without parsing stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration cannot run the trace at all.
    Config(ConfigError),
    /// A backing device refused an operation (e.g. a flash card at
    /// end of life).
    Device(mobistore_device::DeviceError),
    /// A cache-layer invariant was violated.
    Cache(mobistore_cache::CacheError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "configuration error: {e}"),
            SimError::Device(e) => write!(f, "device error: {e}"),
            SimError::Cache(e) => write!(f, "cache error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Device(e) => Some(e),
            SimError::Cache(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<mobistore_device::DeviceError> for SimError {
    fn from(e: mobistore_device::DeviceError) -> Self {
        SimError::Device(e)
    }
}

impl From<mobistore_cache::CacheError> for SimError {
    fn from(e: mobistore_cache::CacheError) -> Self {
        SimError::Cache(e)
    }
}

/// Runs `trace` against `config`, returning a typed [`SimError`] instead
/// of panicking when the configuration cannot hold the trace.
///
/// A flash card that exhausts its capacity mid-run does *not* abort the
/// simulation: it degrades to read-only, the remaining operations drain
/// with per-op error accounting, and the rejections appear in
/// [`Metrics::rejected_writes`]/[`Metrics::rejected_blocks`].
///
/// # Examples
///
/// ```
/// use mobistore_core::config::SystemConfig;
/// use mobistore_core::simulator::{try_simulate, ConfigError, RunOptions, SimError};
/// use mobistore_device::params::intel_datasheet;
/// use mobistore_sim::time::SimTime;
/// use mobistore_trace::record::{DiskOp, DiskOpKind, FileId, Trace};
///
/// let mut trace = Trace::new(1024);
/// trace.push(DiskOp {
///     time: SimTime::ZERO,
///     kind: DiskOpKind::Write,
///     lbn: 0,
///     blocks: 60_000, // ~59 MB: cannot fit a 40-MB card
///     file: FileId(0),
/// });
/// let cfg = SystemConfig::flash_card(intel_datasheet());
/// assert!(matches!(
///     try_simulate(&cfg, &trace, RunOptions::default()),
///     Err(SimError::Config(ConfigError::FlashOverfull { .. }))
/// ));
///
/// // A trace whose last block is lbn 2^32 - 1, the top of the lbn domain,
/// // runs on a disk. On a card the filler placed after it would pass the
/// // domain's end, so the card is refused before it is built.
/// let mut top = Trace::new(1024);
/// top.push(DiskOp {
///     time: SimTime::ZERO,
///     kind: DiskOpKind::Write,
///     lbn: (1 << 32) - 2,
///     blocks: 2,
///     file: FileId(0),
/// });
/// let disk = SystemConfig::disk(mobistore_device::params::cu140_datasheet());
/// assert!(try_simulate(&disk, &top, RunOptions::default()).is_ok());
/// assert!(matches!(
///     try_simulate(&cfg, &top, RunOptions::default()),
///     Err(SimError::Config(ConfigError::LbnDomain { .. }))
/// ));
/// ```
pub fn try_simulate(
    config: &SystemConfig,
    trace: &Trace,
    options: RunOptions,
) -> Result<Metrics, SimError> {
    try_simulate_observed(config, trace, options, &mut NoopObserver)
}

/// [`try_simulate`], streaming structured [`Event`]s to `obs` as the
/// simulation progresses.
///
/// The device comes from the crate's one device builder,
/// `backend::build`, which `torture` shares. Before building anything it
/// refuses a broken rule, a run whose blocks would pass [`MAX_LBN_END`]
/// and a card that cannot hold the trace. It preloads a card with the
/// trace's working set plus §5.2's aged filler, and hands the device to a
/// simulator monomorphised for it.
pub fn try_simulate_observed<O: Observer>(
    config: &SystemConfig,
    trace: &Trace,
    options: RunOptions,
    obs: &mut O,
) -> Result<Metrics, SimError> {
    let replay = Replay {
        config,
        trace,
        options,
        obs,
    };
    Ok(build(
        config,
        &trace.ops,
        trace.block_size,
        Purpose::Simulate,
        replay,
    )??)
}

/// One run of [`try_simulate_observed`], waiting for its device.
struct Replay<'a, O> {
    config: &'a SystemConfig,
    trace: &'a Trace,
    options: RunOptions,
    obs: &'a mut O,
}

impl<O: Observer> WithDevice for Replay<'_, O> {
    type Out = Result<Metrics, ConfigError>;

    fn run<D: Subject + Clone>(self, device: D) -> Self::Out {
        if self.options.warm_percent >= 100 {
            return Err(ConfigError::NothingToMeasure);
        }
        let sim = Simulator::new(self.config, self.trace, device, self.obs);
        Ok(sim.run(self.trace, self.options))
    }
}

/// Block lists one op fills and the next op reuses, so that once they
/// have grown the op path allocates nothing.
#[derive(Default)]
struct OpBuffers {
    /// The op's blocks, ascending.
    lbns: Vec<u64>,
    /// The blocks a read missed in DRAM.
    misses: Vec<u64>,
    /// Dirty write-back evictions to flush.
    flushes: Vec<u64>,
    /// The blocks an SRAM flush drains.
    drained: Vec<u64>,
}

impl OpBuffers {
    /// Replaces `lbns` with the blocks of `op`.
    #[inline]
    fn fill_lbns(&mut self, op: &DiskOp) {
        self.lbns.clear();
        self.lbns.extend(op.lbn..op.lbn + u64::from(op.blocks));
    }
}

/// One replay of a trace through DRAM, the SRAM buffer and device `D`.
struct Simulator<'o, D, O: Observer> {
    dram: Option<BufferCache>,
    sram: Option<SramWriteBuffer>,
    write_policy: WritePolicy,
    queueing: QueueDiscipline,
    device: D,
    block_size: u64,
    read_ms: LatencyRecorder,
    write_ms: LatencyRecorder,
    /// The moments of every measured response. Its histogram is the read
    /// and write histograms merged, built once at the end.
    all_ms: OnlineStats,
    last_completion: SimTime,
    /// Pending power-failure instants (fault injection); `None` when the
    /// configuration disables them.
    power_fails: Option<PowerFailSchedule>,
    /// Dirty write-back blocks lost to power failures (volatile DRAM).
    lost_dirty_blocks: u64,
    /// Write requests the device refused in read-only mode (a worn-out
    /// card, a failed array); the run drains instead of aborting.
    rejected_writes: u64,
    /// Blocks those refused writes covered.
    rejected_blocks: u64,
    /// Device read accesses that came back uncorrectable (data-integrity
    /// study): the access still pays its time/energy, but the result is
    /// reported lost and never fills the cache.
    uncorrectable_reads: u64,
    /// Critical-path queueing delay accumulated by the current operation.
    op_queue: SimDuration,
    /// Critical-path device service time accumulated by the current
    /// operation.
    op_service: SimDuration,
    obs: &'o mut O,
}

impl<'o, D: Backend, O: Observer> Simulator<'o, D, O> {
    fn new(config: &SystemConfig, trace: &Trace, device: D, obs: &'o mut O) -> Self {
        let block_size = trace.block_size;
        let dram = (config.dram_bytes >= block_size).then(|| {
            BufferCache::new(
                config.dram_params.clone(),
                config.dram_bytes,
                block_size,
                config.write_policy,
            )
        });
        let sram = (config.sram_bytes >= block_size).then(|| {
            SramWriteBuffer::new(config.sram_params.clone(), config.sram_bytes, block_size)
        });
        Simulator {
            dram,
            sram,
            write_policy: config.write_policy,
            queueing: config.queueing,
            device,
            block_size,
            read_ms: LatencyRecorder::new(),
            write_ms: LatencyRecorder::new(),
            all_ms: OnlineStats::new(),
            last_completion: SimTime::ZERO,
            power_fails: PowerFailSchedule::from_config(&config.fault),
            lost_dirty_blocks: 0,
            rejected_writes: 0,
            rejected_blocks: 0,
            uncorrectable_reads: 0,
            op_queue: SimDuration::ZERO,
            op_service: SimDuration::ZERO,
            obs,
        }
    }

    fn run(mut self, trace: &Trace, options: RunOptions) -> Metrics {
        // One relaxed atomic add per run keeps the ops/sec denominators
        // (perfbench, --timings-json) honest without touching the per-op
        // path.
        mobistore_sim::prof::add_ops(trace.ops.len() as u64);
        let warm_count = trace.ops.len() * options.warm_percent as usize / 100;

        let mut buffers = OpBuffers::default();
        let mut measure_start = SimTime::ZERO;
        for (i, op) in trace.ops.iter().enumerate() {
            // Failures due before this operation strike first, so the op
            // sees the post-recovery device (and a cold DRAM cache).
            self.inject_power_failures(op.time);
            if i == warm_count {
                measure_start = op.time;
                self.reset_at_boundary(op.time, options.reset_wear_at_warm);
            }
            let record = i >= warm_count;
            self.step(op, record, &mut buffers);
        }

        let end = self
            .last_completion
            .max(trace.ops.last().map_or(SimTime::ZERO, |op| op.time));
        self.finalize(measure_start, end)
    }

    fn step(&mut self, op: &DiskOp, record: bool, s: &mut OpBuffers) {
        let kind = match op.kind {
            DiskOpKind::Read => OpKind::Read,
            DiskOpKind::Write => OpKind::Write,
            DiskOpKind::Trim => OpKind::Trim,
        };
        self.op_queue = SimDuration::ZERO;
        self.op_service = SimDuration::ZERO;
        self.obs.record(&Event::OpIssued {
            t: op.time,
            kind,
            lbn: op.lbn,
            blocks: op.blocks,
        });
        let response = match op.kind {
            DiskOpKind::Read => {
                let response = self.do_read(op, s);
                if record {
                    let ms = self.read_ms.record(response);
                    self.all_ms.record(ms);
                }
                response
            }
            DiskOpKind::Write => {
                let response = self.do_write(op, s);
                if record {
                    let ms = self.write_ms.record(response);
                    self.all_ms.record(ms);
                }
                response
            }
            DiskOpKind::Trim => {
                self.do_trim(op);
                SimDuration::ZERO
            }
        };
        self.obs.record(&Event::OpCompleted {
            t: op.time + response,
            kind,
            lbn: op.lbn,
            blocks: op.blocks,
            queue: self.op_queue,
            service: self.op_service,
            response,
        });
        self.obs.span(&Span::new(
            SpanKind::Op {
                kind,
                lbn: op.lbn,
                blocks: op.blocks,
            },
            op.time,
            op.time + response,
        ));
    }

    fn do_read(&mut self, op: &DiskOp, s: &mut OpBuffers) -> SimDuration {
        let now = op.time;
        s.fill_lbns(op);

        // Without DRAM every block misses.
        let mut response = SimDuration::ZERO;
        let misses = match self.dram.as_mut() {
            Some(cache) => {
                response = cache.read_probe(now, &s.lbns, &mut s.misses, self.obs);
                &s.misses
            }
            None => &s.lbns,
        };
        if !misses.is_empty() {
            let (fetch, fill_ok) = self.fetch_from_backend(now, op, misses);
            response += fetch;
            if let Some(cache) = self.dram.as_mut() {
                if fill_ok {
                    // Fill the cache with what was fetched.
                    s.flushes.clear();
                    for &lbn in misses {
                        if let Some(evicted) = cache.insert(lbn, false) {
                            if evicted.dirty {
                                s.flushes.push(evicted.lbn);
                            }
                        }
                    }
                    self.flush_writeback(now, &s.flushes);
                } else {
                    // The device reported the access uncorrectable: never
                    // cache data it could not deliver intact.
                    cache.note_fill_rejects(misses.len() as u64);
                }
            }
        }
        response
    }

    /// Fetches missed blocks, consulting the SRAM write buffer first
    /// (recently-written blocks are served from it, §5.5 footnote 3);
    /// returns the elapsed response contribution and whether the fetched
    /// data is safe to cache (`false` when the device reported the access
    /// uncorrectable).
    fn fetch_from_backend(
        &mut self,
        now: SimTime,
        op: &DiskOp,
        misses: &[u64],
    ) -> (SimDuration, bool) {
        let block_size = self.block_size;
        let mut device_blocks = 0u64;
        let mut sram_blocks = 0u64;
        for &lbn in misses {
            match self.sram.as_mut() {
                Some(buf) if buf.contains(lbn) => {
                    buf.note_read_hit(now, self.obs);
                    sram_blocks += 1;
                }
                _ => device_blocks += 1,
            }
        }
        let mut resp = SimDuration::ZERO;
        if sram_blocks > 0 {
            let buf = self.sram.as_mut().expect("counted hits imply a buffer");
            resp += buf.charge_access(sram_blocks * block_size);
        }
        if device_blocks == 0 {
            return (resp, true);
        }
        let lbn = if D::BLOCK_MAPPED { misses[0] } else { op.lbn };
        let req = Request::new(lbn, device_blocks * block_size).of_file(op.file.0);
        let (svc, read) = self.device.read(now, req, self.obs);
        if read.is_err() {
            self.uncorrectable_reads += 1;
        }
        self.note_critical_service(now, &svc);
        self.last_completion = self.last_completion.max(svc.end);
        (resp + svc.response(now), read.is_ok())
    }

    /// Folds a critical-path device service interval into the current
    /// operation's queue/service breakdown (reported on
    /// [`Event::OpCompleted`]).
    fn note_critical_service(&mut self, issued: SimTime, svc: &Service) {
        self.op_queue += svc.start.saturating_since(issued);
        self.op_service += svc.end.saturating_since(svc.start);
    }

    fn do_write(&mut self, op: &DiskOp, s: &mut OpBuffers) -> SimDuration {
        let now = op.time;
        s.fill_lbns(op);

        let mut dram_time = SimDuration::ZERO;
        if let Some(cache) = self.dram.as_mut() {
            dram_time = cache.write(now, &s.lbns, &mut s.flushes, self.obs);
        }

        match self.write_policy {
            WritePolicy::WriteBack if self.dram.is_some() => {
                // Dirty data stays in DRAM; only evictions reach storage,
                // off the critical path of this write.
                self.flush_writeback(now, &s.flushes);
                dram_time
            }
            _ => dram_time + self.write_to_backend(now, op, &s.lbns, &mut s.drained),
        }
    }

    /// Sends a write through the non-volatile path; returns its response
    /// contribution.
    ///
    /// Writes that fit in the SRAM buffer are absorbed there; the write
    /// that overflows it triggers a flush to the backend. §2/§5.5:
    /// "synchronous writes that fit in SRAM are made asynchronous with
    /// respect to the disk", so under the paper's open-loop model the
    /// flush happens in the background (the device still pays the time
    /// and energy); under FIFO it delays the triggering write. A flush
    /// drains the buffer into `drained`.
    fn write_to_backend(
        &mut self,
        now: SimTime,
        op: &DiskOp,
        lbns: &[u64],
        drained: &mut Vec<u64>,
    ) -> SimDuration {
        let bytes = lbns.len() as u64 * self.block_size;
        // The buffer stays where it is: it carries its price table, so
        // moving it out and back would copy that twice per write.
        let fits = self
            .sram
            .as_ref()
            .filter(|buf| lbns.len() <= buf.capacity_blocks())
            .map(|buf| buf.fits(lbns));
        match fits {
            Some(fits) => {
                let mut resp = SimDuration::ZERO;
                if !fits {
                    let buf = self.sram.as_mut().expect("the buffer checked above");
                    buf.drain_blocks(now, drained, self.obs);
                    let svc = self.flush(now, drained, true);
                    self.last_completion = self.last_completion.max(svc.end);
                    if self.queueing == QueueDiscipline::Fifo {
                        resp += svc.response(now);
                        self.note_critical_service(now, &svc);
                    }
                }
                let buf = self.sram.as_mut().expect("the buffer checked above");
                buf.absorb(now, lbns, self.obs)
                    .expect("a drained buffer holds any write no larger than itself");
                resp + buf.charge_access(bytes)
            }
            None => {
                // No buffer, or the write is bigger than the buffer:
                // straight to the device.
                let req = Request::new(op.lbn, bytes).of_file(op.file.0);
                match self.device.write(now, req, self.obs) {
                    Ok(svc) => {
                        self.note_critical_service(now, &svc);
                        self.last_completion = self.last_completion.max(svc.end);
                        svc.response(now)
                    }
                    Err(_) => {
                        // A read-only device (a worn-out card, a failed
                        // array): account for the refused write and keep
                        // draining the trace instead of aborting.
                        self.rejected_writes += 1;
                        self.rejected_blocks += lbns.len() as u64;
                        SimDuration::ZERO
                    }
                }
            }
        }
    }

    /// Writes flushed blocks to the device from `now`, returning the
    /// interval they kept it busy. A device without a block map takes
    /// them as one burst with no file tag. A block-mapped device takes one
    /// request per contiguous run (`coalesce`: an SRAM drain, sorted) or
    /// per block (write-back evictions), each issued when the previous one
    /// ends; a refused request is counted and dropped.
    fn flush(&mut self, now: SimTime, blocks: &[u64], coalesce: bool) -> Service {
        let mut start = None;
        let mut end = now;
        let mut rest = blocks;
        while let Some(&lbn) = rest.first() {
            let len = if !D::BLOCK_MAPPED {
                rest.len()
            } else if coalesce {
                1 + rest.windows(2).take_while(|w| w[1] == w[0] + 1).count()
            } else {
                1
            };
            let req = Request::blocks(lbn, len as u32, self.block_size);
            match self.device.write(end, req, self.obs) {
                Ok(svc) => {
                    start.get_or_insert(svc.start);
                    end = svc.end;
                }
                Err(_) => {
                    self.rejected_writes += 1;
                    self.rejected_blocks += len as u64;
                }
            }
            rest = &rest[len..];
        }
        Service {
            start: start.unwrap_or(now),
            end,
        }
    }

    /// Flushes dirty write-back evictions to storage, off the critical
    /// path (the device still becomes busy, delaying later requests).
    fn flush_writeback(&mut self, now: SimTime, lbns: &[u64]) {
        if !lbns.is_empty() {
            let svc = self.flush(now, lbns, false);
            self.last_completion = self.last_completion.max(svc.end);
        }
    }

    /// Fires every scheduled power failure due at or before `until`.
    fn inject_power_failures(&mut self, until: SimTime) {
        loop {
            let Some(sched) = self.power_fails.as_mut() else {
                return;
            };
            // An instant past the clock's end never comes.
            let at = match SimDuration::try_from_secs_f64(sched.next_at_secs()) {
                Some(d) if SimTime::ZERO + d <= until => SimTime::ZERO + d,
                _ => return,
            };
            sched.advance();
            self.power_fail(at);
        }
    }

    /// Applies one whole-system power failure at `at`: volatile DRAM
    /// contents are lost (the battery-backed SRAM buffer survives, §5.5),
    /// and the device runs its own recovery.
    fn power_fail(&mut self, at: SimTime) {
        let mut lost = 0;
        if let Some(cache) = self.dram.as_mut() {
            lost = cache.power_fail_clear();
            self.lost_dirty_blocks += lost;
        }
        self.obs.record(&Event::PowerFail {
            t: at,
            lost_dirty_blocks: lost,
        });
        let svc = self.device.power_fail(at, self.obs);
        self.obs.record(&Event::RecoveryEnd {
            t: svc.end,
            duration: svc.end.saturating_since(at),
        });
        self.obs
            .span(&Span::new(SpanKind::Recovery, at, svc.end.max(at)));
        self.last_completion = self.last_completion.max(svc.end);
    }

    /// Trims one block at a time: the caches drop it, and a block-mapped
    /// device unmaps it.
    fn do_trim(&mut self, op: &DiskOp) {
        for lbn in op.lbn..op.lbn + u64::from(op.blocks) {
            if let Some(cache) = self.dram.as_mut() {
                cache.invalidate(lbn);
            }
            if let Some(buf) = self.sram.as_mut() {
                buf.invalidate(lbn);
            }
            let req = Request::blocks(lbn, 1, self.block_size);
            self.device.trim(op.time, req, self.obs);
        }
    }

    fn reset_at_boundary(&mut self, at: SimTime, reset_wear: bool) {
        self.device.finish(at, self.obs);
        self.device.warm_up_reset(reset_wear);
        if let Some(buf) = self.sram.as_mut() {
            buf.reset_metrics();
        }
        if let Some(cache) = self.dram.as_mut() {
            cache.reset_metrics();
        }
        self.read_ms = LatencyRecorder::new();
        self.write_ms = LatencyRecorder::new();
        self.all_ms = OnlineStats::new();
    }

    fn finalize(mut self, measure_start: SimTime, end: SimTime) -> Metrics {
        // Flush any residual write-back dirt so its energy is accounted.
        if self.write_policy == WritePolicy::WriteBack {
            let dirty = self
                .dram
                .as_mut()
                .map(|c| c.drain_dirty())
                .unwrap_or_default();
            self.flush_writeback(end, &dirty);
        }
        let end = end.max(self.last_completion);
        let span = end.saturating_since(measure_start);
        self.device.finish(end, self.obs);

        let mut m = Metrics::empty("");
        self.device.report(&mut m);
        if let Some(buf) = self.sram.as_mut() {
            buf.charge_idle_span(span);
            m.energy_by_component.push((component::SRAM, buf.energy()));
            m.sram = Some(buf.stats());
        }
        if let Some(cache) = self.dram.as_mut() {
            cache.charge_idle_span(span);
            m.energy_by_component
                .push((component::DRAM, cache.energy()));
            m.cache = Some(cache.stats());
        }
        m.energy = m.energy_by_component.iter().map(|(_, j)| *j).sum();
        m.read_response_ms = self.read_ms.summary();
        m.write_response_ms = self.write_ms.summary();
        m.overall_response_ms = self.all_ms.summary();
        m.read_latency = self.read_ms.into_histogram();
        m.write_latency = self.write_ms.into_histogram();
        // Bucket counts are integers, so the merge is exactly the
        // histogram of every measured response, its length the longer of
        // the two.
        m.overall_latency = m.read_latency.clone();
        m.overall_latency.merge(&m.write_latency);
        m.duration = span;
        m.lost_dirty_blocks = self.lost_dirty_blocks;
        m.rejected_writes = self.rejected_writes;
        m.rejected_blocks = self.rejected_blocks;
        m.uncorrectable_reads = self.uncorrectable_reads;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use mobistore_device::params::{cu140_datasheet, intel_datasheet, sdp5_datasheet};
    use mobistore_sim::units::MIB;
    use mobistore_trace::record::FileId;

    /// A trace alternating writes and re-reads of a small working set.
    fn small_trace(ops: usize, gap_ms: u64) -> Trace {
        let mut t = Trace::new(1024);
        for i in 0..ops {
            t.push(DiskOp {
                time: SimTime::from_nanos(i as u64 * gap_ms * 1_000_000),
                kind: if i % 2 == 0 {
                    DiskOpKind::Write
                } else {
                    DiskOpKind::Read
                },
                lbn: (i as u64 / 2) % 16,
                blocks: 2,
                file: FileId((i as u64 / 8) % 3),
            });
        }
        t
    }

    #[test]
    fn runs_all_three_backends() {
        let trace = small_trace(200, 50);
        for cfg in [
            SystemConfig::disk(cu140_datasheet()),
            SystemConfig::flash_disk(sdp5_datasheet()),
            SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(4 * MIB),
        ] {
            let m = simulate(&cfg, &trace);
            assert!(m.energy.get() > 0.0, "{}", cfg.name);
            assert!(m.read_response_ms.count > 0);
            assert!(m.write_response_ms.count > 0);
        }
    }

    #[test]
    fn array_backend_runs_and_reports_counters() {
        use mobistore_device::array::ChildClass;
        let trace = small_trace(200, 50);
        let cfg = SystemConfig::array(2, 1, vec![ChildClass::FlashDisk; 3]);
        let m = simulate(&cfg, &trace);
        assert!(m.energy.get() > 0.0);
        assert!(m.read_response_ms.count > 0);
        assert!(m.write_response_ms.count > 0);
        let a = m.array.expect("array counters");
        assert!(a.ops > 0);
        assert!(a.parity_updates > 0, "writes must update parity");
        assert_eq!(a.device_deaths, 0);
        assert!(m
            .energy_by_component
            .iter()
            .any(|(name, j)| *name == "array" && j.get() > 0.0));
        // Deterministic: same config, same trace, same joules.
        let again = simulate(&cfg, &trace);
        assert_eq!(m.energy.get(), again.energy.get());
        assert_eq!(m.write_response_ms, again.write_response_ms);
    }

    #[test]
    fn an_invalid_array_geometry_is_a_typed_config_error() {
        use crate::config::BackendConfig;
        use mobistore_device::array::{ArrayGeometryError, ChildClass};
        use mobistore_device::DeviceError;
        use mobistore_sim::ec::EcError;
        let trace = small_trace(20, 50);
        let refused = |reason| {
            Some(SimError::Config(ConfigError::DeviceGeometry(
                DeviceError::ArrayGeometry(reason),
            )))
        };
        let opts = RunOptions::default();
        // Past the codec's 255 shards: `SystemConfig::array` builds it,
        // the run refuses it.
        let wide = SystemConfig::array(200, 100, vec![ChildClass::FlashDisk; 300]);
        let err = try_simulate(&wide, &trace, opts).err();
        assert_eq!(
            err,
            refused(ArrayGeometryError::Code(EcError::BadGeometry {
                k: 200,
                m: 100
            }))
        );
        assert_eq!(
            err.expect("refused").to_string(),
            "configuration error: array geometry is invalid: bad erasure-code geometry \
             200+100: need k >= 1, m >= 1, k+m <= 255"
        );
        // The backend's fields are public, so the builder's checks can be
        // bypassed; the run refuses what the array cannot build.
        let mut zero_k = SystemConfig::array(2, 1, vec![ChildClass::FlashDisk; 3]);
        let mut short = zero_k.clone();
        if let BackendConfig::Array { k, .. } = &mut zero_k.backend {
            *k = 0;
        }
        if let BackendConfig::Array { children, .. } = &mut short.backend {
            children.pop();
        }
        assert_eq!(
            try_simulate(&zero_k, &trace, opts).err(),
            refused(ArrayGeometryError::Code(EcError::BadGeometry {
                k: 0,
                m: 1
            }))
        );
        assert_eq!(
            try_simulate(&short, &trace, opts).err(),
            refused(ArrayGeometryError::Children {
                k: 2,
                m: 1,
                children: 2
            })
        );
    }

    #[test]
    fn an_unusable_rebuild_rate_is_a_typed_config_error() {
        use crate::config::BackendConfig;
        use mobistore_device::array::{ArrayGeometryError, ChildClass};
        use mobistore_device::DeviceError;
        use mobistore_sim::fault::FaultConfig;
        let trace = miss_trace(400, 1000);
        // A child dies mid-run and the spare starts a rebuild, which is
        // where a rate that is finite and positive but gives no
        // per-stripe period (1e-300) used to panic.
        let base = SystemConfig::array(2, 1, vec![ChildClass::FlashDisk; 3])
            .with_spares(1)
            .with_dram(0)
            .with_faults(FaultConfig::with_rate(0.0, 9).with_death_rate(20.0));
        let rebuilt = simulate(&base, &trace).array.expect("array counters");
        assert!(
            rebuilt.rebuild_stripes > 0,
            "no rebuild ran; raise the rate"
        );
        for rate in [0.0, -1.0, f64::NAN, 1e-300] {
            // The field is public, so the builder's check can be bypassed.
            let mut cfg = base.clone();
            if let BackendConfig::Array { rebuild_rate, .. } = &mut cfg.backend {
                *rebuild_rate = rate;
            }
            assert_eq!(
                try_simulate(&cfg, &trace, RunOptions::default()).err(),
                Some(SimError::Config(ConfigError::DeviceGeometry(
                    DeviceError::ArrayGeometry(ArrayGeometryError::RebuildRate {
                        bits: rate.to_bits()
                    })
                ))),
                "{rate:?}"
            );
        }
    }

    #[test]
    fn array_deaths_degrade_reads_but_lose_nothing_reported() {
        use mobistore_device::array::ChildClass;
        use mobistore_sim::fault::FaultConfig;
        let trace = miss_trace(400, 1000);
        // No spares and a death rate high enough that a child dies
        // mid-run: later reads of its shards decode from survivors.
        let cfg = SystemConfig::array(2, 1, vec![ChildClass::FlashDisk; 3])
            .with_spares(0)
            .with_dram(0)
            .with_faults(FaultConfig::with_rate(0.0, 9).with_death_rate(20.0));
        let m = simulate(&cfg, &trace);
        let a = m.array.expect("array counters");
        let t = m.fault_totals();
        assert!(t.device_deaths >= 1, "no child died; raise the rate");
        assert!(a.degraded_reads > 0, "no degraded reads observed");
        assert!(m.degraded_read_ms.count > 0, "degraded summary empty");
        // Same seed, same deaths: the run is fully reproducible.
        let again = simulate(&cfg, &trace);
        assert_eq!(m.energy.get(), again.energy.get());
        assert_eq!(m.fault_totals(), again.fault_totals());
    }

    /// A trace whose working set (6 MB) exceeds the 2-MB DRAM cache, so
    /// reads keep hitting the device and the disk never idles long enough
    /// to spin down.
    fn miss_trace(ops: usize, gap_ms: u64) -> Trace {
        let mut t = Trace::new(1024);
        for i in 0..ops {
            t.push(DiskOp {
                time: SimTime::from_nanos(i as u64 * gap_ms * 1_000_000),
                kind: if i % 4 == 0 {
                    DiskOpKind::Write
                } else {
                    DiskOpKind::Read
                },
                lbn: (i as u64 * 97) % 6144,
                blocks: 2,
                file: FileId(i as u64 % 29),
            });
        }
        t
    }

    #[test]
    fn flash_uses_less_energy_than_disk() {
        // The paper's headline: flash reduces energy by about an order of
        // magnitude versus disk, even with spin-down.
        let trace = miss_trace(400, 1000);
        let disk = simulate(&SystemConfig::disk(cu140_datasheet()), &trace);
        let card = simulate(
            &SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(16 * MIB),
            &trace,
        );
        assert!(
            card.energy.get() * 3.0 < disk.energy.get(),
            "card {:?} vs disk {:?}",
            card.energy,
            disk.energy
        );
    }

    #[test]
    fn cache_hits_make_reads_fast() {
        // Re-reads of a tiny working set should mostly hit the 2-MB cache,
        // so mean read response is far below the device's access latency.
        let trace = small_trace(400, 50);
        let m = simulate(&SystemConfig::disk(cu140_datasheet()), &trace);
        assert!(m.read_hit_ratio().expect("cache present") > 0.8);
        assert!(
            m.read_response_ms.mean < 5.0,
            "mean {}",
            m.read_response_ms.mean
        );
    }

    #[test]
    fn no_dram_sends_all_reads_to_device() {
        let trace = small_trace(200, 50);
        let m = simulate(
            &SystemConfig::flash_disk(sdp5_datasheet()).with_dram(0),
            &trace,
        );
        assert!(m.cache.is_none());
        // Every read pays at least the 1.5 ms access latency.
        assert!(
            m.read_response_ms.mean >= 1.5,
            "mean {}",
            m.read_response_ms.mean
        );
    }

    #[test]
    fn sram_absorbs_small_writes() {
        let trace = small_trace(300, 1000);
        let with = simulate(&SystemConfig::disk(cu140_datasheet()), &trace);
        let without = simulate(&SystemConfig::disk(cu140_datasheet()).with_sram(0), &trace);
        assert!(
            with.write_response_ms.mean * 5.0 < without.write_response_ms.mean,
            "with {} vs without {}",
            with.write_response_ms.mean,
            without.write_response_ms.mean
        );
        assert!(with.sram.expect("sram stats").absorbed > 0);
    }

    #[test]
    fn warm_up_excludes_early_ops() {
        let trace = small_trace(100, 50);
        let m = simulate_with(
            &SystemConfig::flash_disk(sdp5_datasheet()),
            &trace,
            RunOptions {
                warm_percent: 50,
                ..RunOptions::default()
            },
        );
        assert_eq!(m.read_response_ms.count + m.write_response_ms.count, 50);
    }

    #[test]
    fn write_back_defers_writes() {
        let trace = small_trace(300, 50);
        let wt = simulate(&SystemConfig::flash_disk(sdp5_datasheet()), &trace);
        let wb = simulate(
            &SystemConfig::flash_disk(sdp5_datasheet()).with_write_policy(WritePolicy::WriteBack),
            &trace,
        );
        assert!(
            wb.write_response_ms.mean < wt.write_response_ms.mean,
            "wb {} vs wt {}",
            wb.write_response_ms.mean,
            wt.write_response_ms.mean
        );
    }

    #[test]
    fn trims_invalidate_cache() {
        let mut trace = Trace::new(1024);
        trace.push(DiskOp {
            time: SimTime::ZERO,
            kind: DiskOpKind::Write,
            lbn: 0,
            blocks: 4,
            file: FileId(1),
        });
        trace.push(DiskOp {
            time: SimTime::from_secs_f64(1.0),
            kind: DiskOpKind::Trim,
            lbn: 0,
            blocks: 4,
            file: FileId(1),
        });
        trace.push(DiskOp {
            time: SimTime::from_secs_f64(2.0),
            kind: DiskOpKind::Read,
            lbn: 0,
            blocks: 4,
            file: FileId(1),
        });
        let m = simulate_with(
            &SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(4 * MIB),
            &trace,
            RunOptions {
                warm_percent: 0,
                ..RunOptions::default()
            },
        );
        let c = m.cache.expect("cache");
        assert_eq!(c.read_misses, 4, "trimmed blocks must miss");
    }

    #[test]
    #[should_panic(expected = "working set")]
    fn overfull_card_is_rejected() {
        let trace = small_trace(100, 10);
        // 16-block working set x 2 blocks... at 1% utilization of a tiny
        // card the target is below the working set.
        let cfg = SystemConfig::flash_card(intel_datasheet())
            .with_flash_capacity(MIB)
            .with_utilization(0.01);
        let _ = simulate(&cfg, &trace);
    }

    #[test]
    #[should_panic(expected = "cannot simulate configuration 'tiny-card'")]
    fn rejection_names_the_configuration() {
        let trace = small_trace(100, 10);
        let cfg = SystemConfig::flash_card(intel_datasheet())
            .named("tiny-card")
            .with_flash_capacity(MIB)
            .with_utilization(0.01);
        let _ = simulate(&cfg, &trace);
    }

    #[test]
    fn observer_sees_ops_and_matches_unobserved_run() {
        use mobistore_device::array::ChildClass;
        use mobistore_sim::fault::FaultConfig;
        use mobistore_sim::integrity::IntegrityConfig;
        use mobistore_sim::obs::RecordingObserver;
        let trace = small_trace(300, 1000);
        let fault = FaultConfig::with_rate(0.05, 9)
            .with_power_failures(SimDuration::from_secs(30))
            .with_death_rate(20.0);
        let integrity = IntegrityConfig {
            base_errors: 2.0,
            seed: 3,
            ..IntegrityConfig::none()
        };
        for cfg in [
            SystemConfig::disk(cu140_datasheet()),
            SystemConfig::flash_disk(sdp5_datasheet()),
            SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(4 * MIB),
            SystemConfig::array(2, 1, vec![ChildClass::FlashDisk; 3]),
        ] {
            let cfg = cfg.with_faults(fault).with_integrity(integrity);
            let name = &cfg.name;
            let plain = simulate(&cfg, &trace);
            let mut obs = RecordingObserver::default();
            let observed = simulate_observed(&cfg, &trace, RunOptions::default(), &mut obs);
            // The observer is passive: energy, summaries, histograms and
            // counters are bit-identical with and without it (`Debug`
            // renders every field, floats in round-trip form).
            assert_eq!(format!("{plain:?}"), format!("{observed:?}"), "{name}");
            // Every trace op produces an issue and a completion, and the
            // fault plan fired.
            let count = |name| obs.events.iter().filter(|e| e.name() == name).count();
            assert_eq!(count("op_issued"), trace.ops.len(), "{name}");
            assert_eq!(count("op_completed"), trace.ops.len(), "{name}");
            assert!(count("power_fail") > 0, "{name}");
            assert!(count("cache_read") > 0 && count("cache_write") > 0);
            assert_eq!(count("sram_absorb") > 0, plain.sram.is_some(), "{name}");
        }
    }

    #[test]
    fn observed_latency_breakdown_is_consistent() {
        use mobistore_sim::obs::RecordingObserver;
        let trace = miss_trace(200, 100);
        let cfg = SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(16 * MIB);
        let mut obs = RecordingObserver::default();
        let m = simulate_observed(&cfg, &trace, RunOptions::default(), &mut obs);
        let mut completions = 0u64;
        for e in &obs.events {
            if let Event::OpCompleted {
                queue,
                service,
                response,
                ..
            } = e
            {
                completions += 1;
                assert!(
                    *queue + *service <= *response || *response == SimDuration::ZERO,
                    "queue {queue:?} + service {service:?} exceeds response {response:?}"
                );
            }
        }
        assert_eq!(completions, trace.ops.len() as u64);
        // The histograms cover the measured (post-warm-up) ops.
        let measured = m.read_response_ms.count + m.write_response_ms.count;
        assert_eq!(m.overall_latency.count(), measured);
        assert_eq!(m.read_latency.count() + m.write_latency.count(), measured);
    }

    #[test]
    fn response_recorders_match_a_per_op_fold_of_the_completions() {
        use mobistore_sim::fault::FaultConfig;
        use mobistore_sim::obs::RecordingObserver;
        use mobistore_sim::stats::Summary;
        let card = || SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(16 * MIB);
        let mut runs = Vec::new();
        for trace in [small_trace(300, 50), miss_trace(400, 100)] {
            for cfg in [
                SystemConfig::disk(cu140_datasheet()),
                SystemConfig::flash_disk(sdp5_datasheet()),
                card(),
            ] {
                runs.push((cfg, trace.clone()));
            }
        }
        let power = FaultConfig::with_rate(0.0, 9).with_power_failures(SimDuration::from_secs(30));
        runs.push((card().with_faults(power), small_trace(300, 1000)));
        let bits = |s: Summary| {
            [s.count, s.mean.to_bits(), s.max.to_bits()]
                .into_iter()
                .chain([s.min, s.std, s.sum].map(f64::to_bits))
                .collect::<Vec<u64>>()
        };
        for (cfg, trace) in &runs {
            let mut obs = RecordingObserver::default();
            let m = simulate_observed(cfg, trace, RunOptions::default(), &mut obs);
            // The pre-derivation fold: three recorders, each fed every
            // measured response in op order.
            let warm_count = trace.ops.len() / 10;
            let mut read = LatencyRecorder::new();
            let mut write = LatencyRecorder::new();
            let mut all = LatencyRecorder::new();
            let completions = obs.events.iter().filter_map(|e| match e {
                Event::OpCompleted { kind, response, .. } => Some((*kind, *response)),
                _ => None,
            });
            for (kind, response) in completions.skip(warm_count) {
                let split = match kind {
                    OpKind::Read => &mut read,
                    OpKind::Write => &mut write,
                    OpKind::Trim => continue,
                };
                split.record(response);
                all.record(response);
            }
            let name = format!("{} on {} ops", cfg.name, trace.ops.len());
            assert!(
                read.summary().count > 0 && write.summary().count > 0,
                "{name}"
            );
            for (what, got, want) in [
                ("read", m.read_response_ms, &read),
                ("write", m.write_response_ms, &write),
                ("overall", m.overall_response_ms, &all),
            ] {
                assert_eq!(bits(got), bits(want.summary()), "{name}: {what} moments");
            }
            for (what, got, want) in [
                ("read", &m.read_latency, &read),
                ("write", &m.write_latency, &write),
                ("overall", &m.overall_latency, &all),
            ] {
                assert_eq!(got, want.histogram(), "{name}: {what} histogram");
                assert_eq!(
                    format!("{got:?}"),
                    format!("{:?}", want.histogram()),
                    "{name}"
                );
            }
            if cfg.fault.power_fail_mean.is_some() {
                assert!(m.fault_totals().power_failures > 0, "{name}");
            }
        }
    }

    #[test]
    fn deterministic_results() {
        let trace = small_trace(300, 50);
        let cfg = SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(4 * MIB);
        let a = simulate(&cfg, &trace);
        let b = simulate(&cfg, &trace);
        assert_eq!(a.energy.get(), b.energy.get());
        assert_eq!(a.write_response_ms, b.write_response_ms);
    }

    #[test]
    fn power_failures_force_recovery_on_card_and_disk() {
        use mobistore_sim::fault::FaultConfig;
        let trace = small_trace(300, 1000);
        let fault = FaultConfig::with_rate(0.0, 9).with_power_failures(SimDuration::from_secs(30));
        for cfg in [
            SystemConfig::disk(cu140_datasheet()).with_faults(fault),
            SystemConfig::flash_card(intel_datasheet())
                .with_flash_capacity(4 * MIB)
                .with_faults(fault),
        ] {
            let a = simulate(&cfg, &trace);
            let t = a.fault_totals();
            assert!(t.power_failures > 0, "{}: no failures fired", cfg.name);
            assert!(t.recovery_time > SimDuration::ZERO, "{}", cfg.name);
            // Same seed, same schedule: the run is fully reproducible.
            let b = simulate(&cfg, &trace);
            assert_eq!(a.energy.get(), b.energy.get(), "{}", cfg.name);
            assert_eq!(a.fault_totals(), b.fault_totals(), "{}", cfg.name);
        }
    }

    #[test]
    fn instants_past_the_clock_never_come() {
        use mobistore_device::array::ChildClass;
        use mobistore_sim::fault::FaultConfig;
        let trace = small_trace(100, 1000);
        // Means this long draw power failures and deaths past the clock's
        // end for some seeds; those never come, and the runs complete.
        for seed in 0..8 {
            let never = FaultConfig::with_rate(0.0, seed)
                .with_power_failures(SimDuration::MAX)
                .with_death_rate(1e-300);
            for cfg in [
                SystemConfig::disk(cu140_datasheet()),
                SystemConfig::array(2, 1, vec![ChildClass::FlashDisk; 3]),
            ] {
                let m = try_simulate(&cfg.with_faults(never), &trace, RunOptions::default());
                let t = m.expect("runs").fault_totals();
                assert_eq!((t.power_failures, t.device_deaths), (0, 0), "seed {seed}");
            }
        }
    }

    #[test]
    fn zero_rate_faults_change_nothing() {
        use mobistore_sim::fault::FaultConfig;
        let trace = small_trace(300, 50);
        let base = SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(4 * MIB);
        // A quiet plan with a non-zero seed draws nothing, so the run is
        // bit-identical to the fault-free default.
        let quiet = base.clone().with_faults(FaultConfig::with_rate(0.0, 77));
        let a = simulate(&base, &trace);
        let b = simulate(&quiet, &trace);
        assert_eq!(a.energy.get(), b.energy.get());
        assert_eq!(a.write_response_ms, b.write_response_ms);
        assert_eq!(a.fault_totals(), b.fault_totals());
    }

    #[test]
    fn zero_rate_integrity_changes_nothing() {
        use mobistore_sim::integrity::IntegrityConfig;
        let trace = small_trace(300, 50);
        for base in [
            SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(4 * MIB),
            SystemConfig::flash_disk(sdp5_datasheet()),
        ] {
            // A zero-rate plan draws nothing, so the run is bit-identical
            // to the integrity-free default.
            let quiet = base.clone().with_integrity(IntegrityConfig::none());
            let a = simulate(&base, &trace);
            let b = simulate(&quiet, &trace);
            assert_eq!(a.energy.get(), b.energy.get(), "{}", base.name);
            assert_eq!(a.read_response_ms, b.read_response_ms, "{}", base.name);
            assert_eq!(b.uncorrectable_reads, 0, "{}", base.name);
            assert_eq!(b.backoff_ms.count, a.backoff_ms.count, "{}", base.name);
        }
    }

    #[test]
    fn bit_errors_surface_as_reported_loss_not_silent_corruption() {
        use mobistore_sim::integrity::IntegrityConfig;
        let trace = miss_trace(400, 100);
        let cfg = SystemConfig::flash_card(intel_datasheet())
            .with_flash_capacity(16 * MIB)
            .with_dram(0)
            .with_integrity(IntegrityConfig {
                base_errors: 20.0,
                seed: 3,
                ..IntegrityConfig::none()
            });
        let m = simulate(&cfg, &trace);
        let c = m.flash_card.expect("card counters");
        assert!(m.uncorrectable_reads > 0, "no uncorrectable accesses");
        assert!(c.uncorrectable_reads > 0, "no uncorrectable blocks");
        // Every uncorrectable block is reported through the typed path;
        // corrected blocks never surface as errors.
        assert!(
            m.uncorrectable_reads <= c.uncorrectable_reads,
            "sim {} vs card {}",
            m.uncorrectable_reads,
            c.uncorrectable_reads
        );
        // Determinism: same seed, same losses.
        let again = simulate(&cfg, &trace);
        assert_eq!(m.uncorrectable_reads, again.uncorrectable_reads);
        assert_eq!(m.energy.get(), again.energy.get());
    }

    #[test]
    fn uncorrectable_fills_are_rejected_by_the_cache() {
        use mobistore_sim::integrity::IntegrityConfig;
        let trace = miss_trace(400, 100);
        let cfg = SystemConfig::flash_card(intel_datasheet())
            .with_flash_capacity(16 * MIB)
            .with_integrity(IntegrityConfig {
                base_errors: 20.0,
                seed: 3,
                ..IntegrityConfig::none()
            });
        let m = simulate(&cfg, &trace);
        let cache = m.cache.expect("cache stats");
        assert!(m.uncorrectable_reads > 0);
        assert!(
            cache.fill_rejects > 0,
            "uncorrectable reads must refuse the cache fill"
        );
    }

    #[test]
    fn transient_faults_slow_writes_and_count() {
        use mobistore_sim::fault::FaultConfig;
        let trace = miss_trace(400, 100);
        let base = SystemConfig::flash_card(intel_datasheet())
            .with_flash_capacity(16 * MIB)
            .with_dram(0);
        let faulty = base.clone().with_faults(FaultConfig::with_rate(0.2, 5));
        let clean = simulate(&base, &trace);
        let hit = simulate(&faulty, &trace);
        let t = hit.fault_totals();
        assert!(t.write_retries > 0, "retries {t:?}");
        assert!(
            hit.write_response_ms.mean > clean.write_response_ms.mean,
            "faulty {} vs clean {}",
            hit.write_response_ms.mean,
            clean.write_response_ms.mean
        );
    }
}
