//! The three workloads: their inputs, built from a seed, and the parts of
//! the simulator's own set-up the traced run rebuilds to time them.

use std::time::{Duration, Instant};

use mobistore_core::config::{BackendConfig, SystemConfig};
use mobistore_device::array::ChildClass;
use mobistore_device::params::{cu140_datasheet, intel_datasheet, sdp5_datasheet};
use mobistore_experiments::fleet::FleetOptions;
use mobistore_experiments::{flash_card_config, working_set_blocks, Scale};
use mobistore_flash::store::{FlashCardConfig, FlashCardStore};
use mobistore_sim::fault::FaultConfig;
use mobistore_sim::fleet::{splitmix64, FleetShard};
use mobistore_sim::time::SimDuration;
use mobistore_sim::units::{KIB, MIB};
use mobistore_trace::record::{DiskOpKind, Trace};
use mobistore_workload::Workload as TraceKind;

/// The seed a run uses when none is given: the repository's default.
pub const DEFAULT_SEED: u64 = 1994;

/// Shards of the `fleet` workload: enough that every device class gets
/// about a thousand, so each class's p99 has ten samples beyond it.
pub const FLEET_SHARDS: u32 = 4096;

/// Card utilization of the `card-clean` cells: the high end of Figure 2,
/// where the cleaner runs from the first writes onward.
pub const CARD_UTILIZATION: f64 = 0.90;

/// DRAM sizes `cache-sweep` runs each trace at. They straddle the traces'
/// 12–15k-block working sets, so the hit ratio moves as in Figures 4–5.
pub const DRAM_SWEEP: [u64; 5] = [512 * KIB, MIB, 2 * MIB, 4 * MIB, 8 * MIB];

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-length `mac` and `hp` on the Intel card at 90% utilization.
    CardClean,
    /// Full-length `mac` and `dos` across DRAM sizes on the disk, the
    /// flash disk and a 4+2 array.
    CacheSweep,
    /// `fleet::run` over [`FLEET_SHARDS`] supervised shards.
    Fleet,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::CardClean, Workload::CacheSweep, Workload::Fleet];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CardClean => "card-clean",
            Workload::CacheSweep => "cache-sweep",
            Workload::Fleet => "fleet",
        }
    }

    /// The workload `name` names, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The traces a grid workload replays; empty for the fleet, whose
    /// shards generate their own.
    fn traces(self) -> &'static [TraceKind] {
        match self {
            Workload::CardClean => &[TraceKind::Mac, TraceKind::Hp],
            Workload::CacheSweep => &[TraceKind::Mac, TraceKind::Dos],
            Workload::Fleet => &[],
        }
    }
}

/// Everything one run's inputs derive from.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated trace (and of the fleet plan).
    pub seed: u64,
    /// Flash-card utilization of the `card-clean` cells.
    pub card_utilization: f64,
    /// Fault plan of the `card-clean` cells (quiet in measured runs).
    pub card_faults: FaultConfig,
}

impl Spec {
    /// The measured configuration of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        Spec {
            workload,
            seed,
            card_utilization: CARD_UTILIZATION,
            card_faults: FaultConfig::none(),
        }
    }

    /// The fleet's options: [`FLEET_SHARDS`] shards, default supervisor,
    /// eight users per shard.
    pub fn fleet_options(&self) -> FleetOptions {
        FleetOptions {
            shards: FLEET_SHARDS,
            population: FleetOptions::default_population(FLEET_SHARDS),
            seed: self.seed,
            ..FleetOptions::default()
        }
    }

    /// The fleet's scale: full per-shard demand.
    pub fn fleet_scale(&self) -> Scale {
        Scale {
            fraction: 1.0,
            seed: self.seed,
        }
    }
}

/// One simulated configuration and the trace it replays.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Label, also the name in the cell's `Metrics` (and so its digest).
    pub name: String,
    /// Index into [`Grid::traces`].
    pub trace: usize,
    /// The configuration `simulate` runs.
    pub config: SystemConfig,
}

/// A grid workload's inputs.
#[derive(Debug, Clone)]
pub struct Grid {
    /// The generated traces.
    pub traces: Vec<Trace>,
    /// The cells, run serially in this order.
    pub cells: Vec<Cell>,
}

/// A grid built by [`setup_grid`], with its host time.
#[derive(Debug, Clone)]
pub struct GridSetup {
    /// The inputs.
    pub grid: Grid,
    /// Time spent generating the full-length traces.
    pub gen: Duration,
    /// Time of the whole set-up: generation plus configuration.
    pub total: Duration,
}

/// Generates a grid workload's full-length traces and builds its
/// configurations.
///
/// # Panics
///
/// Panics if `spec` names the fleet, which is not a grid.
pub fn setup_grid(spec: &Spec) -> GridSetup {
    assert!(spec.workload != Workload::Fleet, "the fleet is not a grid");
    let start = Instant::now();
    let kinds = spec.workload.traces();
    let traces: Vec<Trace> = kinds.iter().map(|k| k.generate(spec.seed)).collect();
    let gen = start.elapsed();
    let mut cells = Vec::new();
    for (i, (&kind, trace)) in kinds.iter().zip(&traces).enumerate() {
        match spec.workload {
            Workload::CardClean => cells.push(card_cell(spec, kind, i, trace)),
            Workload::CacheSweep => cells.extend(sweep_cells(kind, i)),
            Workload::Fleet => unreachable!("checked above"),
        }
    }
    GridSetup {
        grid: Grid { traces, cells },
        gen,
        total: start.elapsed(),
    }
}

/// A `card-clean` cell: the Figure 2 configuration at the spec's
/// utilization, with DRAM unless the trace sits below the buffer cache.
fn card_cell(spec: &Spec, kind: TraceKind, trace_index: usize, trace: &Trace) -> Cell {
    let dram = if kind.below_buffer_cache() {
        0
    } else {
        2 * MIB
    };
    let config = flash_card_config(intel_datasheet(), trace, spec.card_utilization)
        .with_dram(dram)
        .with_faults(spec.card_faults);
    Cell {
        name: format!("{}/intel-card", kind.name()),
        trace: trace_index,
        config,
    }
}

/// One trace's `cache-sweep` cells: every DRAM size on the cu140 with and
/// without its SRAM buffer and on the sdp5, then a 4+2 flash-disk array
/// at 2 MB of DRAM.
fn sweep_cells(kind: TraceKind, trace: usize) -> Vec<Cell> {
    let cell = |device: &str, dram: u64, config: SystemConfig| Cell {
        name: format!("{}/{device}/{}K", kind.name(), dram / KIB),
        trace,
        config: config.with_dram(dram),
    };
    let mut cells = Vec::new();
    for dram in DRAM_SWEEP {
        cells.push(cell(
            "cu140+sram",
            dram,
            SystemConfig::disk(cu140_datasheet()),
        ));
        cells.push(cell(
            "cu140",
            dram,
            SystemConfig::disk(cu140_datasheet()).with_sram(0),
        ));
        cells.push(cell(
            "sdp5",
            dram,
            SystemConfig::flash_disk(sdp5_datasheet()),
        ));
    }
    cells.push(cell(
        "array-4+2",
        2 * MIB,
        SystemConfig::array(4, 2, vec![ChildClass::FlashDisk; 6]),
    ));
    cells
}

/// A card built and preloaded by [`preload_card`].
#[derive(Debug)]
pub struct Preloaded {
    /// The preloaded card.
    pub card: FlashCardStore,
    /// Blocks preloaded: the working set plus filler.
    pub blocks: u64,
    /// Time spent in `FlashCardStore::new` and `preload_aged` alone.
    pub time: Duration,
}

/// Builds and preloads the card `simulate` builds for `config` and
/// `trace`, the way the simulator does: the trace's working set plus
/// filler up to the target utilization, in the aged layout of §5.2.
/// Returns `None` for a backend that is not a flash card.
///
/// The working set is gathered before the clock starts, so the time is
/// the flash store's own.
pub fn preload_card(config: &SystemConfig, trace: &Trace) -> Option<Preloaded> {
    let BackendConfig::FlashCard {
        params,
        capacity_bytes,
        utilization,
        mode,
        victim_policy,
    } = &config.backend
    else {
        return None;
    };
    let card_config = FlashCardConfig {
        params: params.clone(),
        block_size: trace.block_size,
        capacity_bytes: *capacity_bytes,
        mode: *mode,
        victim_policy: *victim_policy,
        queueing: config.queueing,
    };
    let mut working: Vec<u64> = trace
        .ops
        .iter()
        .filter(|op| op.kind != DiskOpKind::Trim)
        .flat_map(|op| op.lbn..op.lbn + u64::from(op.blocks))
        .collect();
    working.sort_unstable();
    working.dedup();
    let w = working.len() as u64;
    let filler_base = trace
        .blocks_spanned()
        .max(working.last().map_or(0, |l| l + 1));

    let start = Instant::now();
    let mut card = FlashCardStore::new(card_config)
        .with_faults(config.fault)
        .with_integrity(config.integrity);
    let target = match utilization {
        Some(frac) => (card.capacity_blocks() as f64 * frac).round() as u64,
        None => w,
    };
    let filler = target.saturating_sub(w);
    card.preload_aged(working.into_iter().chain(filler_base..filler_base + filler));
    Some(Preloaded {
        card,
        blocks: w + filler,
        time: start.elapsed(),
    })
}

// The fleet's private shard recipe (`crates/experiments/src/fleet.rs`),
// rebuilt from public APIs so the traced run can time a shard's trace
// generation, card preload and layers apart. The traced run checks every
// rebuilt shard's digest against the fleet's own row, so a drift from
// the recipe fails the run instead of timing something else.
const DEMAND_SALT: u64 = 0x7fee_7000_dead_beef;
const FAULT_SALT: u64 = 0xfau64 << 56 | 0x0017_5eed;
const PER_USER_DEMAND: f64 = 0.002;
const FLEET_FAULT_RATE: f64 = 0.01;
const POWER_FAIL_INTERVAL: SimDuration = SimDuration::from_secs(600);
const FLEET_CARD_FLOOR: u64 = 4 * MIB;
const FLEET_CARD_UTILIZATION: f64 = 0.80;

/// A fleet shard's trace and configuration, as `fleet::simulate_shard`
/// builds them, with the time trace generation took.
#[derive(Debug, Clone)]
pub struct ShardInputs {
    /// The shard's demand-scaled trace.
    pub trace: Trace,
    /// The shard's configuration, with the fleet's fault plan.
    pub config: SystemConfig,
    /// Time spent in `Workload::generate_demand`.
    pub gen: Duration,
}

/// Rebuilds the inputs `fleet::simulate_shard` builds for `shard`.
///
/// # Panics
///
/// Panics on a workload or device label outside the fleet's mixes.
pub fn shard_inputs(shard: &FleetShard) -> ShardInputs {
    let kind = match shard.workload {
        "mac" => TraceKind::Mac,
        "dos" => TraceKind::Dos,
        "hp" => TraceKind::Hp,
        "synth" => TraceKind::Synth,
        other => panic!("unknown fleet workload class {other}"),
    };
    let mut rng = shard.rng(DEMAND_SALT);
    let mut units = 0.0;
    for _ in 0..shard.users {
        units += rng.lognormal_mean_std(1.0, 1.0);
    }
    let start = Instant::now();
    let trace = kind.generate_demand(units * PER_USER_DEMAND, shard.trace_seed());
    let gen = start.elapsed();

    let fault_seed = splitmix64(shard.seed ^ FAULT_SALT ^ u64::from(shard.index));
    let fault = FaultConfig::with_rate(FLEET_FAULT_RATE, fault_seed)
        .with_power_failures(POWER_FAIL_INTERVAL);
    let dram = if kind.below_buffer_cache() {
        0
    } else {
        2 * MIB
    };
    let config = match shard.device {
        "cu140-disk" => SystemConfig::disk(cu140_datasheet()),
        "sdp5-flashdisk" => SystemConfig::flash_disk(sdp5_datasheet()),
        "intel-card" => {
            let params = intel_datasheet();
            let seg = params.segment_size;
            let w_bytes = working_set_blocks(&trace) * trace.block_size;
            let needed = (w_bytes as f64 / FLEET_CARD_UTILIZATION) as u64 + 2 * seg;
            SystemConfig::flash_card(params)
                .with_flash_capacity(FLEET_CARD_FLOOR.max(needed.div_ceil(seg) * seg))
                .with_utilization(FLEET_CARD_UTILIZATION)
        }
        other => panic!("unknown fleet device class {other}"),
    };
    ShardInputs {
        trace,
        config: config.with_dram(dram).with_faults(fault),
        gen,
    }
}

/// The name `fleet::simulate_shard` gives a shard's metrics.
pub fn shard_name(shard: &FleetShard) -> String {
    format!(
        "shard{:05}/{}/{}",
        shard.index, shard.workload, shard.device
    )
}
