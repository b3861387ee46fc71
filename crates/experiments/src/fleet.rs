//! The `repro fleet` target — fleet-scale sharded simulation with
//! mergeable metrics, supervised for fault isolation and resumability.
//!
//! The paper evaluates one device against one trace; this target scales
//! that to a device *population*: a user population is hash-range-mapped
//! onto shards by [`mobistore_sim::fleet`], each shard gets a device
//! class and workload class from weighted mixes plus a per-user demand
//! level drawn from its own RNG stream, every shard simulates
//! independently through the parallel executor, and the per-shard
//! [`Metrics`] merge into per-device-class rollups and one fleet-wide
//! row.
//!
//! The **supervisor** makes long runs survive hostile conditions, the
//! same way the simulated devices do:
//!
//! - *Fault isolation*: each shard runs under `catch_unwind`. A panic is
//!   retried up to [`FleetOptions::retry_budget`] more times and then the
//!   shard is **quarantined** as a typed [`ShardError`] — the run
//!   completes over the survivors (with an explicit coverage fraction)
//!   instead of tearing down the pool.
//! - *Checkpoint/resume*: with [`FleetOptions::checkpoint_out`] the fold
//!   state is persisted as a versioned `mobistore-fleet-ckpt/1` file at a
//!   chunk-watermark cadence; [`FleetOptions::resume_from`] validates a
//!   config fingerprint, skips the completed chunks, and produces output
//!   byte-identical to an uninterrupted run — a kill -9 costs at most one
//!   chunk of work.
//! - *Chaos self-test*: [`ChaosConfig`] injects deterministic panics and
//!   mid-run aborts so tests can prove all of the above end-to-end.
//!
//! Determinism contract: a shard's bytes are a pure function of
//! `(fleet seed, shard index)` — its trace seed, demand draw, fault seed,
//! and chaos draws all derive from that pair. Shards are simulated in
//! fixed chunks dispatched through [`ordered_stream_map`] and folded in
//! shard-index order with a fixed chunk size, so the report,
//! the merged percentiles, and the `--metrics-out` document are
//! byte-identical at any `--jobs` count, and simulating shard `k` alone
//! reproduces exactly the bytes it contributed in-fleet.

use std::fmt::{self, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use mobistore_core::config::SystemConfig;
use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::{simulate, ConfigError, SimError};
use mobistore_device::disk::DiskState;
use mobistore_device::flashdisk::FlashDiskState;
use mobistore_device::params::{cu140_datasheet, intel_datasheet, sdp5_datasheet};
use mobistore_flash::store::CardState;
use mobistore_sim::energy::EnergyState;
use mobistore_sim::exec::{ordered_stream_map, panic_cause};
use mobistore_sim::fault::FaultConfig;
use mobistore_sim::fleet::{
    splitmix64, ChaosConfig, FleetConfig, FleetPlan, FleetShard, Fnv1a, Mix, ShardError,
};
use mobistore_sim::time::SimDuration;
use mobistore_sim::units::MIB;
use mobistore_workload::Workload;

use crate::{ckpt, working_set_blocks, Scale};

/// Salt for the per-shard demand-sampling RNG stream.
const DEMAND_SALT: u64 = 0x7fee_7000_dead_beef;

/// Salt for the per-shard fault-injection seed.
const FAULT_SALT: u64 = 0xfau64 << 56 | 0x0017_5eed;

/// Trace fraction one unit of user demand contributes: a shard with `u`
/// users replays roughly `u × this` of its workload's full trace (before
/// the lognormal per-user spread). Sized so the default eight users per
/// shard produce a small but non-degenerate trace even in 10k-shard
/// fleets.
const PER_USER_DEMAND: f64 = 0.002;

/// Transient fault rate injected into every shard (so fleet fault totals
/// are non-trivial even at quick scales).
const FLEET_FAULT_RATE: f64 = 0.01;

/// Mean interval between injected power failures per shard.
const POWER_FAIL_INTERVAL: SimDuration = SimDuration::from_secs(600);

/// Shards simulated per executor task (and the checkpoint watermark
/// granularity). Fixed — never derived from the worker count — so the
/// merge grouping, and therefore every floating point fold, is identical
/// at any `--jobs`.
pub const CHUNK: usize = 32;

/// Exit code of a `--chaos-fail-point` abort: the supervisor's simulated
/// kill -9, distinct from every real error code so tests and CI can tell
/// "chaos abort as scheduled" from a genuine failure.
pub const CHAOS_ABORT_EXIT: u8 = 9;

/// The fleet's workload mix: mostly interactive file-level traces, some
/// disk-level and synthetic stress shards.
pub fn workload_mix() -> Mix {
    Mix::new(&[("mac", 4), ("dos", 3), ("hp", 2), ("synth", 1)])
}

/// The fleet's device mix: the paper's three storage alternatives.
pub fn device_mix() -> Mix {
    Mix::new(&[("cu140-disk", 3), ("sdp5-flashdisk", 2), ("intel-card", 3)])
}

/// The energy states the backend of a [`device_mix`] class reports (see
/// [`shard_config`]), in report order.
pub(crate) fn device_states(device: &str) -> &'static [&'static str] {
    match device {
        "cu140-disk" => DiskState::NAMES,
        "sdp5-flashdisk" => FlashDiskState::NAMES,
        "intel-card" => CardState::NAMES,
        other => panic!("unknown device class {other}"),
    }
}

/// `repro fleet` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOptions {
    /// Number of simulated device shards.
    pub shards: u32,
    /// User population hashed onto the shards.
    pub population: u64,
    /// Fleet seed; every per-shard stream derives from it.
    pub seed: u64,
    /// Retries granted to a panicking shard past its first attempt
    /// before it is quarantined. Retry outcomes are deterministic: a
    /// chaos draw is a pure function of `(fleet seed, shard, attempt)`,
    /// and a genuinely deterministic shard panic exhausts the budget.
    pub retry_budget: u32,
    /// Chaos-injection knobs (`--chaos-panic-rate`/`--chaos-fail-point`),
    /// quiet by default.
    pub chaos: ChaosConfig,
    /// Persist a `mobistore-fleet-ckpt/1` file here as chunks complete.
    pub checkpoint_out: Option<PathBuf>,
    /// Checkpoint cadence, in completed chunks (`--checkpoint-every`).
    pub checkpoint_every: u64,
    /// Resume from this checkpoint file, skipping its completed chunks.
    pub resume_from: Option<PathBuf>,
}

impl FleetOptions {
    /// The default population for a shard count: eight users per shard.
    pub fn default_population(shards: u32) -> u64 {
        u64::from(shards) * 8
    }
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            shards: 64,
            population: Self::default_population(64),
            seed: 1994,
            retry_budget: 2,
            chaos: ChaosConfig::default(),
            checkpoint_out: None,
            checkpoint_every: 1,
            resume_from: None,
        }
    }
}

/// Builds the sharding config for these options.
pub fn fleet_config(opts: &FleetOptions) -> FleetConfig {
    FleetConfig {
        shards: opts.shards,
        population: opts.population,
        workload_mix: workload_mix(),
        device_mix: device_mix(),
        seed: opts.seed,
    }
}

/// Resolves a workload-mix label to the workload it names.
fn workload_by_name(name: &str) -> Workload {
    match name {
        "mac" => Workload::Mac,
        "dos" => Workload::Dos,
        "hp" => Workload::Hp,
        "synth" => Workload::Synth,
        other => panic!("unknown workload class {other}"),
    }
}

/// Like [`crate::flash_card_config`], but with a 4-MiB floor instead of
/// the paper's 40-MiB card: fleet shards replay tiny per-device traces,
/// and preloading 10k full-size cards would dominate the run.
fn fleet_card_config(trace: &mobistore_trace::record::Trace, utilization: f64) -> SystemConfig {
    let params = intel_datasheet();
    let seg = params.segment_size;
    let w_bytes = working_set_blocks(trace) * trace.block_size;
    let needed = (w_bytes as f64 / utilization) as u64 + 2 * seg;
    let capacity = (4 * MIB).max(needed.div_ceil(seg) * seg);
    SystemConfig::flash_card(params)
        .with_flash_capacity(capacity)
        .with_utilization(utilization)
}

/// Builds one shard's system configuration.
fn shard_config(
    shard: &FleetShard,
    workload: Workload,
    trace: &mobistore_trace::record::Trace,
) -> SystemConfig {
    let fault_seed = splitmix64(shard.seed ^ FAULT_SALT ^ u64::from(shard.index));
    let fault = FaultConfig::with_rate(FLEET_FAULT_RATE, fault_seed)
        .with_power_failures(POWER_FAIL_INTERVAL);
    let dram = if workload.below_buffer_cache() {
        0
    } else {
        2 * 1024 * 1024
    };
    let cfg = match shard.device {
        "cu140-disk" => SystemConfig::disk(cu140_datasheet()),
        "sdp5-flashdisk" => SystemConfig::flash_disk(sdp5_datasheet()),
        "intel-card" => fleet_card_config(trace, 0.80),
        other => panic!("unknown device class {other}"),
    };
    cfg.with_dram(dram).with_faults(fault)
}

/// The shard's total trace demand: the sum of its users' lognormal
/// per-user demands (drawn from the shard's dedicated RNG stream), scaled
/// by [`PER_USER_DEMAND`] and the run's [`Scale`].
fn shard_demand(shard: &FleetShard, scale: Scale) -> f64 {
    let mut rng = shard.rng(DEMAND_SALT);
    let mut units = 0.0;
    for _ in 0..shard.users {
        units += rng.lognormal_mean_std(1.0, 1.0);
    }
    units * PER_USER_DEMAND * scale.fraction
}

/// Simulates one shard: generates its demand-scaled trace and replays it
/// against its assigned device class. Pure function of the shard (which
/// is itself a pure function of `(fleet seed, shard index)`) and the
/// scale — calling this on a shard alone reproduces exactly its in-fleet
/// result.
pub fn simulate_shard(shard: &FleetShard, scale: Scale) -> Metrics {
    let workload = workload_by_name(shard.workload);
    let trace = workload.generate_demand(shard_demand(shard, scale), shard.trace_seed());
    let cfg = shard_config(shard, workload, &trace);
    let mut metrics = simulate(&cfg, &trace);
    metrics.name = format!(
        "shard{:05}/{}/{}",
        shard.index, shard.workload, shard.device
    );
    metrics
}

/// Runs one shard under the supervisor: chaos injection, `catch_unwind`
/// isolation, bounded deterministic retries, quarantine past the budget.
///
/// Because everything a shard does is a pure function of
/// `(fleet seed, shard index)` — including the chaos draw, which also
/// mixes in the attempt number — the outcome (which attempt succeeds, or
/// that none does) is identical at any `--jobs` and on every rerun.
pub fn supervised_simulate_shard(
    shard: &FleetShard,
    scale: Scale,
    chaos: ChaosConfig,
    retry_budget: u32,
) -> Result<Metrics, ShardError> {
    let attempts = retry_budget + 1;
    let mut last_cause = String::new();
    for attempt in 0..attempts {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if chaos.should_panic(shard.seed, shard.index, attempt) {
                panic!(
                    "chaos: injected panic (shard {} attempt {attempt})",
                    shard.index
                );
            }
            simulate_shard(shard, scale)
        }));
        match result {
            Ok(m) => return Ok(m),
            Err(payload) => last_cause = panic_cause(&*payload),
        }
    }
    Err(ShardError {
        shard: shard.index,
        attempts,
        cause: last_cause,
    })
}

/// FNV-1a over a metrics row's debug rendering: a cheap but sensitive
/// fingerprint used to prove shard-alone equals in-fleet without
/// retaining 10k full metric sets. The rendering is hashed as it is
/// written, never collected into a `String`.
pub fn metrics_digest(m: &Metrics) -> u64 {
    let mut h = Fnv1a::new();
    write!(h, "{m:?}").expect("hashing formatted text cannot fail");
    h.finish()
}

/// One shard's lightweight summary row (the full [`Metrics`] is merged
/// into the rollups, not retained per shard).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRow {
    /// Shard index.
    pub index: u32,
    /// Users hashed onto the shard.
    pub users: u64,
    /// Workload-class label.
    pub workload: &'static str,
    /// Device-class label.
    pub device: &'static str,
    /// Operations the shard replayed.
    pub ops: u64,
    /// Energy the shard consumed, joules.
    pub energy_j: f64,
    /// [`metrics_digest`] of the shard's full metrics.
    pub digest: u64,
}

/// What one chunk task returns: survivor rows plus pre-merged partials,
/// and the shards that exhausted their retry budget.
struct ChunkResult {
    rows: Vec<ShardRow>,
    per_class: Vec<(&'static str, Metrics)>,
    total: Metrics,
    quarantined: Vec<ShardError>,
}

/// The supervisor's incremental fold state: everything accumulated after
/// `chunks_done` chunks, in shard-index order. This is exactly what a
/// `mobistore-fleet-ckpt/1` checkpoint persists ([`crate::ckpt`]), so a
/// resumed run folds forward from bit-identical state.
#[derive(Debug, Clone)]
pub struct FoldState {
    /// Survivor rows, in shard-index order.
    pub rows: Vec<ShardRow>,
    /// Per-device-class partial merges, in device-mix order (classes no
    /// shard drew yet stay empty; the final report prunes them).
    pub per_class: Vec<(&'static str, Metrics)>,
    /// All survivors merged.
    pub total: Metrics,
    /// Shards quarantined so far, in shard-index order.
    pub quarantined: Vec<ShardError>,
    /// Completed-chunk watermark.
    pub chunks_done: u64,
}

impl FoldState {
    /// The fold seed: nothing done yet, one empty accumulator per device
    /// class.
    pub fn fresh() -> FoldState {
        FoldState {
            rows: Vec::new(),
            per_class: device_mix()
                .entries()
                .iter()
                .map(|&(name, _)| (name, Metrics::empty(name)))
                .collect(),
            total: Metrics::empty("fleet/all"),
            quarantined: Vec::new(),
            chunks_done: 0,
        }
    }

    /// Folds one completed chunk in (called in chunk order).
    fn fold(&mut self, chunk: ChunkResult) {
        self.rows.extend(chunk.rows);
        for (class, m) in &chunk.per_class {
            let (_, acc) = self
                .per_class
                .iter_mut()
                .find(|(n, _)| n == class)
                .expect("chunk class comes from the device mix");
            acc.merge(m);
        }
        self.total.merge(&chunk.total);
        self.quarantined.extend(chunk.quarantined);
        self.chunks_done += 1;
    }
}

/// The fleet run: shard map, per-shard rows, per-device-class rollups,
/// the fleet-wide merged metrics, and the quarantine ledger.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The options that produced this fleet.
    pub options: FleetOptions,
    /// The shard plan (hash ranges, assignments, user counts).
    pub plan: FleetPlan,
    /// One lightweight row per *surviving* shard, in index order.
    pub rows: Vec<ShardRow>,
    /// Per-device-class merged metrics over survivors, in device-mix
    /// order; classes no shard drew are omitted.
    pub per_class: Vec<(&'static str, Metrics)>,
    /// Every surviving shard merged: the fleet-wide row (`fleet/all`).
    pub total: Metrics,
    /// Shards that panicked past the retry budget, in index order. All
    /// rollups above cover survivors only.
    pub quarantined: Vec<ShardError>,
}

impl Fleet {
    /// Shards that completed (the rollup population).
    pub fn survivors(&self) -> u32 {
        self.options.shards - self.quarantined.len() as u32
    }

    /// Fraction of the fleet the rollups cover: survivors / shards.
    pub fn coverage(&self) -> f64 {
        f64::from(self.survivors()) / f64::from(self.options.shards)
    }

    /// The metrics rows exported via `--metrics-out`: the fleet-wide row
    /// first, then the per-device-class rollups.
    pub fn metrics_rows(&self) -> Vec<Metrics> {
        let mut rows = vec![self.total.clone()];
        for (class, m) in &self.per_class {
            let mut m = m.clone();
            m.name = format!("fleet/{class}");
            rows.push(m);
        }
        rows
    }

    /// Shards per workload class, in workload-mix order.
    fn workload_counts(&self) -> Vec<(&'static str, u32)> {
        let mut counts: Vec<(&'static str, u32)> = workload_mix()
            .entries()
            .iter()
            .map(|&(name, _)| (name, 0))
            .collect();
        for shard in &self.plan.shards {
            if let Some((_, c)) = counts.iter_mut().find(|(n, _)| *n == shard.workload) {
                *c += 1;
            }
        }
        counts
    }

    /// Shards per device class, in device-mix order.
    fn device_counts(&self) -> Vec<(&'static str, u32)> {
        let mut counts: Vec<(&'static str, u32)> = device_mix()
            .entries()
            .iter()
            .map(|&(name, _)| (name, 0))
            .collect();
        for shard in &self.plan.shards {
            if let Some((_, c)) = counts.iter_mut().find(|(n, _)| *n == shard.device) {
                *c += 1;
            }
        }
        counts
    }
}

/// Wraps a checkpoint failure as the typed config error the CLI maps to
/// its exit code.
fn checkpoint_err(reason: String) -> SimError {
    SimError::Config(ConfigError::Checkpoint(reason))
}

/// Runs the fleet under the supervisor: plans the shards, simulates them
/// in fixed chunks, folds in shard-index order, quarantines poisoned
/// shards, and honours the checkpoint/resume options.
///
/// # Errors
///
/// Returns [`ConfigError::Checkpoint`] (as a [`SimError`]) when
/// `resume_from` is unreadable, malformed, or fingerprint-mismatched, or
/// when `checkpoint_out` cannot be written at run start.
pub fn run(scale: Scale, opts: &FleetOptions) -> Result<Fleet, SimError> {
    run_with_progress(scale, opts, false)
}

/// Like [`run`], with optional `--progress` heartbeats: each folded
/// chunk prints completed shards, throughput, and an ETA to stderr.
/// Stdout (and every exported artifact) is untouched, so a progress run
/// stays byte-identical to a silent one.
///
/// # Errors
///
/// As [`run`].
pub fn run_with_progress(
    scale: Scale,
    opts: &FleetOptions,
    progress: bool,
) -> Result<Fleet, SimError> {
    let plan = fleet_config(opts).plan();
    let total_shards = plan.shards.len();
    let chunks: Vec<&[FleetShard]> = plan.shards.chunks(CHUNK).collect();
    let total_chunks = chunks.len() as u64;
    let fingerprint = ckpt::fingerprint(opts, scale);

    let mut state = match &opts.resume_from {
        Some(path) => ckpt::load(path, fingerprint, total_chunks, total_shards as u64)
            .map_err(checkpoint_err)?,
        None => FoldState::fresh(),
    };
    // Validate the checkpoint path up front (and republish the resumed
    // watermark) so a typo fails the run before hours of simulation, not
    // after.
    if let Some(path) = &opts.checkpoint_out {
        ckpt::store(path, &state, fingerprint, total_chunks, total_shards as u64)
            .map_err(|e| checkpoint_err(format!("cannot write {}: {e}", path.display())))?;
    }

    let start_chunk = state.chunks_done as usize;
    let pending = &chunks[start_chunk..];
    let shards_at_start: usize = chunks[..start_chunk].iter().map(|c| c.len()).sum();
    let started = Instant::now();
    let cadence = opts.checkpoint_every.max(1);
    let mut shards_this_run = 0usize;
    let mut ckpt_error: Option<String> = None;
    {
        let state = &mut state;
        ordered_stream_map(
            pending,
            |chunk| simulate_chunk(chunk, scale, opts),
            |i, result| {
                state.fold(result);
                shards_this_run += pending[i].len();
                if progress {
                    let finished = shards_at_start + shards_this_run;
                    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
                    let rate = shards_this_run as f64 / elapsed;
                    let eta = (total_shards.saturating_sub(finished)) as f64 / rate.max(1e-9);
                    eprintln!(
                        "# fleet progress: {finished}/{total_shards} shards \
                         ({rate:.1} shards/s, eta {eta:.0} s)"
                    );
                }
                let done_this_run = state.chunks_done - start_chunk as u64;
                if opts.chaos.fail_point == Some(done_this_run) {
                    // Simulated kill -9: abort *before* persisting this
                    // chunk, so resume proves the at-most-one-chunk bound.
                    eprintln!(
                        "# chaos: aborting after {done_this_run} chunks (--chaos-fail-point)"
                    );
                    std::process::exit(i32::from(CHAOS_ABORT_EXIT));
                }
                if let Some(path) = &opts.checkpoint_out {
                    let due = state.chunks_done % cadence == 0 || state.chunks_done == total_chunks;
                    if due && ckpt_error.is_none() {
                        if let Err(e) =
                            ckpt::store(path, state, fingerprint, total_chunks, total_shards as u64)
                        {
                            ckpt_error = Some(format!("{}: {e}", path.display()));
                        }
                    }
                }
            },
        );
    }
    if let Some(e) = ckpt_error {
        // A mid-run checkpoint failure must not kill a long run that is
        // otherwise healthy; the start-of-run write already validated the
        // path, so this is a transient (disk-full-style) condition.
        eprintln!("# warning: checkpoint write failed mid-run, resume data is stale: {e}");
    }

    let FoldState {
        rows,
        mut per_class,
        total,
        quarantined,
        ..
    } = state;
    per_class.retain(|(_, m)| m.overall_response_ms.count > 0 || m.duration > SimDuration::ZERO);
    Ok(Fleet {
        options: opts.clone(),
        plan,
        rows,
        per_class,
        total,
        quarantined,
    })
}

/// Simulates one chunk of shards under the supervisor.
fn simulate_chunk(chunk: &[FleetShard], scale: Scale, opts: &FleetOptions) -> ChunkResult {
    let mut rows = Vec::with_capacity(chunk.len());
    let mut per_class: Vec<(&'static str, Metrics)> = Vec::new();
    let mut total = Metrics::empty("fleet/all");
    let mut quarantined = Vec::new();
    for shard in chunk {
        let m = match supervised_simulate_shard(shard, scale, opts.chaos, opts.retry_budget) {
            Ok(m) => m,
            Err(e) => {
                quarantined.push(e);
                continue;
            }
        };
        rows.push(ShardRow {
            index: shard.index,
            users: shard.users,
            workload: shard.workload,
            device: shard.device,
            ops: m.overall_response_ms.count,
            energy_j: m.energy.get(),
            digest: metrics_digest(&m),
        });
        match per_class.iter_mut().find(|(n, _)| *n == shard.device) {
            Some((_, acc)) => acc.merge(&m),
            None => {
                let mut acc = Metrics::empty(shard.device);
                acc.merge(&m);
                per_class.push((shard.device, acc));
            }
        }
        total.merge(&m);
    }
    ChunkResult {
        rows,
        per_class,
        total,
        quarantined,
    }
}

/// Formats one merged latency row: class label, shard count, op count,
/// mean, p50/p90/p99/p99.9, max.
fn latency_row(f: &mut fmt::Formatter<'_>, label: &str, shards: usize, m: &Metrics) -> fmt::Result {
    let p = m.overall_percentiles();
    writeln!(
        f,
        "  {label:<16} {shards:>6} {:>9} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.1}",
        m.overall_response_ms.count,
        m.overall_response_ms.mean,
        p.p50,
        p.p90,
        p.p99,
        p.p999,
        m.overall_response_ms.max,
    )
}

impl fmt::Display for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet simulation: {} shards, {} users, seed {}",
            self.options.shards, self.options.population, self.options.seed
        )?;
        writeln!(f, "  shard map: {}", self.plan.range_map(3))?;
        write!(f, "  workloads:")?;
        for (name, count) in self.workload_counts() {
            write!(f, " {name}={count}")?;
        }
        writeln!(f)?;
        write!(f, "  devices:")?;
        for (name, count) in self.device_counts() {
            write!(f, " {name}={count}")?;
        }
        writeln!(f)?;
        if !self.quarantined.is_empty() {
            writeln!(
                f,
                "  quarantined: {}/{} shards (coverage {:.2}%), rollups cover survivors only",
                self.quarantined.len(),
                self.options.shards,
                self.coverage() * 100.0,
            )?;
            for e in &self.quarantined {
                writeln!(f, "    {e}")?;
            }
        }
        writeln!(
            f,
            "  energy {:.1} J, span {:.1} s (max shard), mean shard power {:.3} W",
            self.total.energy.get(),
            self.total.duration.as_secs_f64(),
            self.total.mean_power_w(),
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "  {:<16} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "class", "shards", "n", "mean", "p50", "p90", "p99", "p99.9", "max"
        )?;
        for (class, m) in &self.per_class {
            let shards = self.rows.iter().filter(|r| r.device == *class).count();
            latency_row(f, class, shards, m)?;
        }
        latency_row(f, "fleet/all", self.rows.len(), &self.total)?;
        let t = self.total.fault_totals();
        writeln!(
            f,
            "  faults: write_retries={} erase_retries={} segments_retired={} \
             power_failures={} lost_dirty_blocks={} rejected_writes={}",
            t.write_retries,
            t.erase_retries,
            t.segments_retired,
            t.power_failures,
            t.lost_dirty_blocks,
            t.rejected_writes,
        )?;
        writeln!(
            f,
            "  integrity: uncorrectable_reads={} recovery {:.3} s",
            self.total.uncorrectable_reads,
            t.recovery_time.as_secs_f64(),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetOptions {
        FleetOptions {
            shards: 6,
            population: 48,
            ..FleetOptions::default()
        }
    }

    #[test]
    fn fleet_runs_and_merges() {
        let fleet = run(Scale::quick(), &tiny()).expect("quiet fleet");
        assert_eq!(fleet.rows.len(), 6);
        assert_eq!(fleet.plan.users(), 48);
        assert!(fleet.quarantined.is_empty());
        assert_eq!(fleet.survivors(), 6);
        assert_eq!(fleet.coverage(), 1.0);
        assert!(fleet.total.overall_response_ms.count > 0);
        assert!(fleet.total.energy.get() > 0.0);
        // The per-class rollups partition the fleet's operations.
        let class_ops: u64 = fleet
            .per_class
            .iter()
            .map(|(_, m)| m.overall_response_ms.count)
            .sum();
        assert_eq!(class_ops, fleet.total.overall_response_ms.count);
        let row_ops: u64 = fleet.rows.iter().map(|r| r.ops).sum();
        assert_eq!(row_ops, fleet.total.overall_response_ms.count);
        let rendered = format!("{fleet}");
        assert!(rendered.contains("fleet/all"));
        assert!(rendered.contains("p99.9"));
        assert!(rendered.contains("shard map:"));
        assert!(
            !rendered.contains("quarantined:"),
            "a clean run must not print a quarantine section"
        );
    }

    #[test]
    fn shard_alone_matches_in_fleet_digest() {
        let opts = tiny();
        let fleet = run(Scale::quick(), &opts).expect("quiet fleet");
        let plan = fleet_config(&opts).plan();
        for (shard, row) in plan.shards.iter().zip(&fleet.rows) {
            let alone = simulate_shard(shard, Scale::quick());
            assert_eq!(metrics_digest(&alone), row.digest, "shard {}", shard.index);
        }
    }

    #[test]
    fn export_rows_lead_with_fleet_wide() {
        let fleet = run(Scale::quick(), &tiny()).expect("quiet fleet");
        let rows = fleet.metrics_rows();
        assert_eq!(rows[0].name, "fleet/all");
        assert!(rows.len() > 1);
        for row in &rows[1..] {
            assert!(row.name.starts_with("fleet/"), "{}", row.name);
        }
    }

    #[test]
    fn chaos_panics_quarantine_instead_of_aborting() {
        let opts = FleetOptions {
            shards: 24,
            population: 192,
            chaos: ChaosConfig {
                panic_rate: 0.6,
                fail_point: None,
            },
            ..FleetOptions::default()
        };
        let fleet = run(Scale::quick(), &opts).expect("chaos fleet completes");
        assert!(
            !fleet.quarantined.is_empty(),
            "rate 0.6 with 3 attempts should quarantine some of 24 shards"
        );
        assert!(
            (fleet.rows.len() as u32) == fleet.survivors(),
            "one row per survivor"
        );
        assert_eq!(
            fleet.rows.len() + fleet.quarantined.len(),
            24,
            "every shard is either a survivor or quarantined"
        );
        // Quarantined shards stay out of the rollups.
        let row_ops: u64 = fleet.rows.iter().map(|r| r.ops).sum();
        assert_eq!(row_ops, fleet.total.overall_response_ms.count);
        // The report carries the quarantine ledger.
        let rendered = format!("{fleet}");
        assert!(rendered.contains("quarantined:"));
        assert!(rendered.contains("chaos: injected panic"));
        // Survivors are byte-identical to a chaos-free run of the same
        // seed: isolation must not perturb neighbouring shards.
        let quiet = run(
            Scale::quick(),
            &FleetOptions {
                chaos: ChaosConfig::default(),
                ..opts.clone()
            },
        )
        .expect("quiet fleet");
        let quarantined: Vec<u32> = fleet.quarantined.iter().map(|e| e.shard).collect();
        let quiet_survivor_rows: Vec<&ShardRow> = quiet
            .rows
            .iter()
            .filter(|r| !quarantined.contains(&r.index))
            .collect();
        assert_eq!(quiet_survivor_rows.len(), fleet.rows.len());
        for (a, b) in fleet.rows.iter().zip(quiet_survivor_rows) {
            assert_eq!(a, b, "survivor shard {} must be unperturbed", a.index);
        }
    }

    #[test]
    fn retry_budget_rescues_transient_panics() {
        // Rate 0.3: P(all 3 attempts panic) ≈ 2.7%, so most shards that
        // draw a first-attempt panic are rescued by a retry.
        let opts = FleetOptions {
            shards: 48,
            population: 384,
            chaos: ChaosConfig {
                panic_rate: 0.3,
                fail_point: None,
            },
            ..FleetOptions::default()
        };
        let fleet = run(Scale::quick(), &opts).expect("chaos fleet completes");
        assert!(
            fleet.survivors() > 40,
            "retries should rescue most shards, survivors = {}",
            fleet.survivors()
        );
        // With the budget removed the same rate quarantines far more.
        let no_retries = run(
            Scale::quick(),
            &FleetOptions {
                retry_budget: 0,
                ..opts.clone()
            },
        )
        .expect("chaos fleet completes");
        assert!(
            no_retries.quarantined.len() > fleet.quarantined.len(),
            "retry budget must reduce quarantines ({} vs {})",
            no_retries.quarantined.len(),
            fleet.quarantined.len()
        );
        for e in &fleet.quarantined {
            assert_eq!(e.attempts, 3, "default budget is first try + 2 retries");
        }
    }
}
