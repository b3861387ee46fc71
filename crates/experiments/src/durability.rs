//! Erasure-coded array durability — the `repro durability` target.
//!
//! The paper's devices are lone points of failure: a dead device is data
//! loss, full stop. This experiment replays the four workloads against
//! Reed-Solomon `k+m` [`ArrayDevice`](mobistore_device::ArrayDevice)
//! arrays under a sweep of permanent whole-device death rates, reporting
//! per cell the storage overhead the geometry costs, the degraded reads
//! it served from survivors (with their p99), rebuild counts and time,
//! the window of vulnerability (sim time spent below full redundancy),
//! and data-loss events (deaths past `m` with no spare left). A final
//! fleet-mix cell draws its child devices from the fleet target's device
//! mix, so "a population of users on arrays" composes with the fleet
//! machinery.
//!
//! Everything is seeded: every cell's death schedule is a pure function
//! of `(durability seed, cell coordinates)`, cells run through
//! [`parallel_map`] in a fixed order, and a zero-death-rate array loses
//! nothing — so the report is byte-identical at any `--jobs` count.

use std::fmt;

use mobistore_core::config::SystemConfig;
use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::simulate;
use mobistore_device::array::ChildClass;
use mobistore_sim::exec::parallel_map;
use mobistore_sim::fault::FaultConfig;
use mobistore_sim::fleet::splitmix64;
use mobistore_workload::Workload;

use crate::fleet::device_mix;
use crate::{shared_trace, Scale};

/// Salt mixed into every per-cell death-schedule seed.
const DEATH_SALT: u64 = 0x00d0_0dea_d5ee_d000;

/// Salt for the fleet-mix cell's child-class draws.
const MIX_SALT: u64 = 0x5afe_a88a_0000_00ec;

/// Parameters of the durability sweep (the `--ec`, `--death-rates`,
/// `--rebuild-rate`, and `--durability-seed` flags).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// `k+m` array geometries to sweep, one grid slice each.
    pub geometries: Vec<(usize, usize)>,
    /// Expected permanent whole-device deaths per device-hour, one sweep
    /// point each (0 injects nothing).
    pub death_rates: Vec<f64>,
    /// Background rebuild pacing, stripes per second.
    pub rebuild_rate: f64,
    /// Seed for the death schedules (independent of the workload seed).
    pub seed: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            geometries: vec![(2, 1), (4, 2), (8, 2)],
            death_rates: vec![0.0, 4.0],
            rebuild_rate: 128.0,
            seed: 1994,
        }
    }
}

/// One sweep cell: a workload on one `k+m` geometry at one death rate.
#[derive(Debug, Clone)]
pub struct DurabilityCell {
    /// Which trace.
    pub workload: Workload,
    /// Data shards per stripe.
    pub k: usize,
    /// Parity shards per stripe.
    pub m: usize,
    /// Device deaths per device-hour.
    pub rate: f64,
    /// True for the fleet-mix cell (children drawn from the fleet device
    /// mix instead of a homogeneous flash-disk array).
    pub fleet_mix: bool,
    /// The full simulation metrics (exported via `--metrics-out`).
    pub metrics: Metrics,
}

impl DurabilityCell {
    /// The geometry's storage overhead: raw capacity per usable byte.
    pub fn overhead(&self) -> f64 {
        (self.k + self.m) as f64 / self.k as f64
    }
}

/// The durability experiment: the homogeneous sweep grid plus the
/// fleet-mix cell.
#[derive(Debug, Clone)]
pub struct Durability {
    /// The options the sweep ran with.
    pub options: DurabilityOptions,
    /// Workload-major, geometry-mid, rate-minor cells.
    pub cells: Vec<DurabilityCell>,
    /// The fleet-mix composition cell.
    pub mix: DurabilityCell,
}

impl Durability {
    /// All metrics rows, grid first, for the `--metrics-out` export.
    pub fn metrics_rows(&self) -> Vec<Metrics> {
        self.cells
            .iter()
            .chain(std::iter::once(&self.mix))
            .map(|c| c.metrics.clone())
            .collect()
    }
}

/// A cell's death-schedule seed: a pure function of the durability seed
/// and the cell's coordinates, so the schedule survives any re-ordering
/// of the sweep grid.
fn cell_seed(seed: u64, k: usize, m: usize, rate: f64, workload_idx: usize, mix: bool) -> u64 {
    let mut h = splitmix64(seed ^ DEATH_SALT);
    h = splitmix64(h ^ ((k as u64) << 32) ^ m as u64);
    h = splitmix64(h ^ rate.to_bits());
    splitmix64(h ^ workload_idx as u64 ^ (u64::from(mix) << 63))
}

/// Children for the fleet-mix cell: `n` classes drawn from the fleet
/// target's weighted device mix, mapped onto array child classes.
fn mix_children(n: usize, seed: u64) -> Vec<ChildClass> {
    let mix = device_mix();
    (0..n as u64)
        .map(|slot| match mix.pick(splitmix64(seed ^ MIX_SALT ^ slot)) {
            "cu140-disk" => ChildClass::HardDisk,
            "sdp5-flashdisk" => ChildClass::FlashDisk,
            "intel-card" => ChildClass::FlashCard,
            other => panic!("unknown device class {other}"),
        })
        .collect()
}

/// Builds one cell's system configuration.
fn cell_config(
    k: usize,
    m: usize,
    children: Vec<ChildClass>,
    rate: f64,
    options: &DurabilityOptions,
    fault_seed: u64,
    workload: Workload,
) -> SystemConfig {
    let dram = if workload.below_buffer_cache() {
        0
    } else {
        2 * 1024 * 1024
    };
    SystemConfig::array(k, m, children)
        .with_rebuild_rate(options.rebuild_rate)
        .with_dram(dram)
        .with_faults(FaultConfig::with_rate(0.0, fault_seed).with_death_rate(rate))
}

/// Runs the sweep: every workload × every geometry × every death rate on
/// homogeneous flash-disk arrays, plus the fleet-mix cell.
pub fn run(scale: Scale, options: &DurabilityOptions) -> Durability {
    let mut grid: Vec<(usize, Workload, usize, usize, f64)> = Vec::new();
    for (wi, &w) in Workload::ALL.iter().enumerate() {
        for &(k, m) in &options.geometries {
            for &rate in &options.death_rates {
                grid.push((wi, w, k, m, rate));
            }
        }
    }
    let cells = parallel_map(&grid, |&(wi, workload, k, m, rate)| {
        let trace = shared_trace(workload, scale);
        let children = vec![ChildClass::FlashDisk; k + m];
        let seed = cell_seed(options.seed, k, m, rate, wi, false);
        let cfg = cell_config(k, m, children, rate, options, seed, workload);
        let mut metrics = simulate(&cfg, &trace);
        metrics.name = format!("{}/array-{k}+{m} rate={}", workload.name(), fmt_rate(rate));
        DurabilityCell {
            workload,
            k,
            m,
            rate,
            fleet_mix: false,
            metrics,
        }
    });
    // The fleet-mix composition cell: the widest geometry, the hottest
    // death rate, children drawn from the fleet device mix.
    let &(k, m) = options
        .geometries
        .last()
        .expect("durability sweep needs at least one geometry");
    let rate = options.death_rates.iter().copied().fold(0.0f64, f64::max);
    let workload = Workload::Mac;
    let wi = Workload::ALL
        .iter()
        .position(|w| *w == workload)
        .expect("mac is a workload");
    let trace = shared_trace(workload, scale);
    let seed = cell_seed(options.seed, k, m, rate, wi, true);
    let children = mix_children(k + m, options.seed);
    let cfg = cell_config(k, m, children, rate, options, seed, workload);
    let mut metrics = simulate(&cfg, &trace);
    metrics.name = format!(
        "{}/fleetmix-{k}+{m} rate={}",
        workload.name(),
        fmt_rate(rate)
    );
    let mix = DurabilityCell {
        workload,
        k,
        m,
        rate,
        fleet_mix: true,
        metrics,
    };
    Durability {
        options: options.clone(),
        cells,
        mix,
    }
}

/// Formats a death rate compactly (`0`, `4`, `0.5`, ...).
fn fmt_rate(rate: f64) -> String {
    if rate == rate.trunc() {
        format!("{rate:.0}")
    } else {
        format!("{rate}")
    }
}

/// Formats one cell's report row.
fn cell_row(f: &mut fmt::Formatter<'_>, label: &str, c: &DurabilityCell) -> fmt::Result {
    let a = c.metrics.array.expect("array backend counters");
    writeln!(
        f,
        "{label:<9} {:>5} {:>5} {:>8.2} {:>10.1} {:>6} {:>7} {:>8.2} {:>8} {:>8.1} {:>8.1} {:>5} {:>6}",
        format!("{}+{}", c.k, c.m),
        fmt_rate(c.rate),
        c.overhead(),
        c.metrics.energy.get(),
        a.device_deaths,
        a.degraded_reads,
        c.metrics.degraded_read_latency.percentiles_ms().p99,
        a.rebuilds_completed,
        a.rebuild_time.as_secs_f64(),
        a.vulnerability.as_secs_f64(),
        a.data_loss_events,
        a.read_only_rejections,
    )
}

impl fmt::Display for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Durability: Reed-Solomon k+m arrays under permanent device-death \
             injection, one hot spare, rebuild {} stripes/s, death seed {}",
            fmt_rate(self.options.rebuild_rate),
            self.options.seed
        )?;
        writeln!(
            f,
            "Rates are expected whole-device deaths per device-hour; overhead is \
             raw capacity per usable byte; vulnerability is sim time spent below \
             full redundancy."
        )?;
        writeln!(
            f,
            "{:<9} {:>5} {:>5} {:>8} {:>10} {:>6} {:>7} {:>8} {:>8} {:>8} {:>8} {:>5} {:>6}",
            "trace",
            "geom",
            "rate",
            "overhd",
            "energy(J)",
            "deaths",
            "degrd",
            "p99(ms)",
            "rebuilds",
            "rbld(s)",
            "vuln(s)",
            "loss",
            "ro_rej"
        )?;
        for c in &self.cells {
            cell_row(f, c.workload.name(), c)?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "Fleet mix: one array whose children are drawn from the fleet \
             target's device mix (disk/flash-disk/flash-card), composing \
             arrays with the fleet population model:"
        )?;
        cell_row(f, &format!("{}*", self.mix.workload.name()), &self.mix)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> DurabilityOptions {
        DurabilityOptions {
            geometries: vec![(2, 1), (3, 2)],
            death_rates: vec![0.0, 60.0],
            rebuild_rate: 64.0,
            seed: 7,
        }
    }

    #[test]
    fn sweep_covers_workloads_geometries_and_rates() {
        let r = run(Scale::quick(), &opts());
        assert_eq!(r.cells.len(), Workload::ALL.len() * 2 * 2);
        assert!(r.mix.fleet_mix);
        // Zero-rate cells lose nothing and never degrade.
        for c in r.cells.iter().filter(|c| c.rate == 0.0) {
            let a = c.metrics.array.expect("array counters");
            assert_eq!(a.device_deaths, 0, "{}", c.metrics.name);
            assert_eq!(a.degraded_reads, 0, "{}", c.metrics.name);
            assert_eq!(a.data_loss_events, 0, "{}", c.metrics.name);
        }
        // The hot rate kills something somewhere across the grid.
        let deaths: u64 = r
            .cells
            .iter()
            .filter(|c| c.rate > 0.0)
            .map(|c| c.metrics.array.expect("array counters").device_deaths)
            .sum();
        assert!(deaths > 0, "no device deaths at rate 60");
        let rendered = format!("{r}");
        assert!(rendered.contains("Durability"));
        assert!(rendered.contains("Fleet mix"));
        assert!(rendered.contains("vuln(s)"));
        assert_eq!(r.metrics_rows().len(), r.cells.len() + 1);
    }

    #[test]
    fn sweep_is_deterministic() {
        let o = opts();
        let a = format!("{}", run(Scale::quick(), &o));
        let b = format!("{}", run(Scale::quick(), &o));
        assert_eq!(a, b);
    }

    #[test]
    fn overhead_is_the_geometry_ratio() {
        let r = run(
            Scale::quick(),
            &DurabilityOptions {
                geometries: vec![(4, 2)],
                death_rates: vec![0.0],
                rebuild_rate: 128.0,
                seed: 1,
            },
        );
        assert!(r.cells.iter().all(|c| (c.overhead() - 1.5).abs() < 1e-12));
    }

    #[test]
    fn mix_children_follow_the_fleet_mix() {
        let children = mix_children(16, 1994);
        assert_eq!(children.len(), 16);
        // All three fleet device classes should appear in a 16-wide draw.
        for class in [
            ChildClass::HardDisk,
            ChildClass::FlashDisk,
            ChildClass::FlashCard,
        ] {
            assert!(children.contains(&class), "missing {}", class.name());
        }
    }
}
