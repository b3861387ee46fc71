//! One benchmark run: repetitions until the time is up, each checked by
//! the gate, and the metrics they give.
//!
//! An untraced run (`--trace 0`) repeats the workload and reports the
//! end-to-end metrics. A traced run (`--trace 1`) alternates traced and
//! untraced repetitions of the same inputs and reports the per-layer
//! metrics; it never reports end-to-end numbers, because the observer
//! slows the cheap per-op paths it watches.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::{Duration, Instant};

use mobistore_core::config::BackendConfig;
use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::{try_simulate, try_simulate_observed, RunOptions, SimError};
use mobistore_experiments::fleet::{self, fleet_config, metrics_digest, ShardRow};
use mobistore_sim::exec::{self, panic_cause};
use mobistore_sim::prof;

use crate::gate::{self, combine, Gate};
use crate::layers::{Layer, LayerClock, LayerTimes};
use crate::workloads::{
    preload_card, setup_grid, shard_inputs, shard_name, Preloaded, Spec, Workload,
};

/// The end-to-end metrics, with their units, in the order they print.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("shards_per_s", "shards/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, with their units, in the order they print.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("flash.clean_s", "s"),
    ("flash.clean_us_per_pass", "us"),
    ("flash.write_s", "s"),
    ("flash.read_s", "s"),
    ("flash.passes", "count"),
    ("flash.copied_per_pass", "blocks"),
    ("flash.cleaning_waits", "count"),
    ("flash.preload_ms", "ms"),
    ("flash.preload_ms_fleet", "ms"),
    ("cache.dram_s", "s"),
    ("cache.sram_s", "s"),
    ("cache.read_hit_ratio", "ratio"),
    ("device.disk_s", "s"),
    ("device.flashdisk_s", "s"),
    ("device.array_s", "s"),
    ("device.parity_updates", "count"),
    ("core.op_s", "s"),
    ("core.setup_s", "s"),
    ("core.merge_ms", "ms"),
    ("workload.gen_s", "s"),
    ("workload.gen_ns_per_op", "ns"),
    ("fleet.plan_ms", "ms"),
    ("fleet.shard_ms_p50.cu140-disk", "ms"),
    ("fleet.shard_ms_p99.cu140-disk", "ms"),
    ("fleet.shard_samples.cu140-disk", "count"),
    ("fleet.shard_ms_p50.sdp5-flashdisk", "ms"),
    ("fleet.shard_ms_p99.sdp5-flashdisk", "ms"),
    ("fleet.shard_samples.sdp5-flashdisk", "count"),
    ("fleet.shard_ms_p50.intel-card", "ms"),
    ("fleet.shard_ms_p99.intel-card", "ms"),
    ("fleet.shard_samples.intel-card", "count"),
    ("exec.busy_frac", "fraction"),
    ("fleet.quarantined", "count"),
    ("traced.overhead_frac", "fraction"),
];

/// The fleet's device classes, as its device mix names them.
const FLEET_CLASSES: [&str; 3] = ["cu140-disk", "sdp5-flashdisk", "intel-card"];

/// Fleet plans timed per repetition for `setup_s`: a plan takes well
/// under a millisecond.
const PLAN_SAMPLES: usize = 25;

/// Grid set-ups timed per measured repetition for `setup_s`.
const SETUP_SAMPLES: usize = 5;

/// A metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value, as measured.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug)]
pub struct Report {
    /// Cells (grid workloads) or shards (fleet) attempted, over every
    /// repetition.
    pub attempted: u64,
    /// Those that failed: panicked, returned an error, were quarantined,
    /// or failed the gate.
    pub failed: u64,
    /// Why, one line per failure.
    pub failures: Vec<String>,
    /// The end-to-end metrics (untraced run) or the per-layer ones
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// Digest of the simulated output.
    pub digest: u64,
    /// The stored reference for this workload and seed, if any.
    pub reference: Option<u64>,
}

impl Report {
    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Failed units over attempted units.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One untraced repetition.
#[derive(Debug, Default)]
struct Rep {
    /// Set-up samples. Grid: trace generation plus configuration, once
    /// in the warm-up, whose peak RSS is the one reported, and
    /// [`SETUP_SAMPLES`] times in a measured repetition. Fleet:
    /// [`PLAN_SAMPLES`] timed `fleet_config(..).plan()` calls, the part
    /// of `fleet::run` before its first shard.
    setup: Vec<Duration>,
    /// Each timed unit: every cell's `simulate` call (grid), or the whole
    /// `fleet::run` (fleet).
    work: Vec<Duration>,
    /// The whole repetition.
    wall: Duration,
    /// Trace ops replayed.
    ops: u64,
    units: u64,
    failed: u64,
    /// Shards the fleet quarantined (fleet only).
    quarantined: u64,
    /// Each cell's digest, in order (grid only).
    digests: Vec<u64>,
    digest: u64,
    /// The fleet's shard rows (fleet only).
    rows: Vec<ShardRow>,
}

impl Rep {
    fn total_work(&self) -> Duration {
        self.work.iter().sum()
    }
}

/// One traced repetition.
#[derive(Debug)]
struct TracedRep {
    layers: LayerTimes,
    /// Grid: time inside `simulate_observed`. Fleet: that plus the rebuilt
    /// shards' trace generation, to set against `plain`.
    traced: Duration,
    /// Fleet: time inside `fleet::simulate_shard`, the same work
    /// untraced. Grid: none (the untraced repetitions give it).
    plain: Option<Duration>,
    preload_ms: Vec<f64>,
    preload_fleet_ms: Vec<f64>,
    merge: Duration,
    gen: Duration,
    gen_ops: u64,
    plan: Duration,
    shard_ms: Vec<(&'static str, f64)>,
    /// Every cell or shard merged, for the simulated counts.
    merged: Metrics,
    units: u64,
    failed: u64,
}

impl TracedRep {
    fn new() -> TracedRep {
        TracedRep {
            layers: LayerTimes::default(),
            traced: Duration::ZERO,
            plain: None,
            preload_ms: Vec::new(),
            preload_fleet_ms: Vec::new(),
            merge: Duration::ZERO,
            gen: Duration::ZERO,
            gen_ops: 0,
            plan: Duration::ZERO,
            shard_ms: Vec::new(),
            merged: Metrics::empty("all"),
            units: 0,
            failed: 0,
        }
    }
}

/// Runs `spec` for `seconds` of measured repetitions (at least one,
/// after one unmeasured warm-up), traced or not.
pub fn run(spec: &Spec, seconds: f64, traced: bool) -> Report {
    exec::set_jobs(jobs());
    let mut gate = Gate::default();
    let warm = repetition(spec, &mut gate);
    // Read once, after one pass over the workload, so the figure does not
    // depend on how many repetitions fit in the run.
    let peak_rss = peak_rss_mib();
    let mut attempted = warm.units;
    let mut failed = warm.failed;
    let mut reps = Vec::new();
    let mut traces = Vec::new();
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        if traced {
            let t = match spec.workload {
                Workload::Fleet => fleet_traced(spec, &warm.rows, &mut gate),
                _ => grid_traced(spec, &warm.digests, &mut gate),
            };
            attempted += t.units;
            failed += t.failed;
            traces.push(t);
        }
        let mut rep = repetition(spec, &mut gate);
        if spec.workload != Workload::Fleet {
            // Each extra set-up is made while the one before it is still
            // alive. Made one at a time, a grid's set-up time depended
            // on the seed.
            let mut previous = setup_grid(spec);
            for _ in 2..SETUP_SAMPLES {
                let done = std::mem::replace(&mut previous, setup_grid(spec));
                rep.setup.push(done.total);
            }
            rep.setup.push(previous.total);
        }
        attempted += rep.units;
        failed += rep.failed;
        if !gate.check(rep.digest == warm.digest, || {
            format!(
                "repetition digest {:016x} differs from the first, {:016x}: the output is not deterministic",
                rep.digest, warm.digest
            )
        }) {
            failed += rep.units;
        }
        reps.push(rep);
    }
    let reference = gate::reference(spec.workload.name(), spec.seed);
    if let Some(r) = reference {
        if !gate.check(r == warm.digest, || {
            format!(
                "digest {:016x} differs from the stored reference {r:016x} for {} seed {}",
                warm.digest,
                spec.workload.name(),
                spec.seed
            )
        }) {
            // One combined digest cannot say which cell moved.
            failed = attempted;
        }
    }
    let metrics = if traced {
        per_layer(spec, &traces, &reps)
    } else {
        end_to_end(&reps, peak_rss)
    };
    Report {
        attempted,
        failed: failed.min(attempted),
        failures: gate.failures().to_vec(),
        metrics,
        digest: warm.digest,
        reference,
    }
}

/// One untraced repetition's digest and failures: what `references.txt`
/// stores.
pub fn digest_once(spec: &Spec) -> (u64, Vec<String>) {
    exec::set_jobs(jobs());
    let mut gate = Gate::default();
    let rep = repetition(spec, &mut gate);
    (rep.digest, gate.failures().to_vec())
}

/// The worker count the fleet runs with: every available core.
fn jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

fn repetition(spec: &Spec, gate: &mut Gate) -> Rep {
    match spec.workload {
        Workload::Fleet => fleet_rep(spec, gate),
        _ => grid_rep(spec, gate),
    }
}

fn grid_rep(spec: &Spec, gate: &mut Gate) -> Rep {
    let start = Instant::now();
    let setup = setup_grid(spec);
    let mut rep = Rep {
        setup: vec![setup.total],
        ..Rep::default()
    };
    for cell in &setup.grid.cells {
        let trace = &setup.grid.traces[cell.trace];
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            try_simulate(&cell.config, trace, RunOptions::default())
        }));
        rep.work.push(t.elapsed());
        rep.ops += trace.len() as u64;
        rep.units += 1;
        let (metrics, ok) = check_cell(&cell.name, result, gate);
        if !ok {
            rep.failed += 1;
        }
        rep.digests.push(metrics.as_ref().map_or(0, metrics_digest));
    }
    rep.digest = combine(rep.digests.iter().copied());
    rep.wall = start.elapsed();
    rep
}

/// Checks one grid cell's result: it must not panic or fail, must reject
/// no write and must lose no read. Returns the metrics, named after the
/// cell, and whether the cell passed.
fn check_cell(
    name: &str,
    result: thread::Result<Result<Metrics, SimError>>,
    gate: &mut Gate,
) -> (Option<Metrics>, bool) {
    let mut m = match result {
        Ok(Ok(m)) => m,
        Ok(Err(e)) => {
            gate.fail(format!("{name}: {e}"));
            return (None, false);
        }
        Err(payload) => {
            gate.fail(format!("{name}: panicked: {}", panic_cause(&*payload)));
            return (None, false);
        }
    };
    m.name = name.to_owned();
    let writes_ok = gate.check(m.rejected_writes == 0, || {
        format!(
            "{name}: {} writes rejected (the card went read-only)",
            m.rejected_writes
        )
    });
    let reads_ok = gate.check(m.uncorrectable_reads == 0, || {
        format!("{name}: {} uncorrectable reads", m.uncorrectable_reads)
    });
    (Some(m), writes_ok && reads_ok)
}

fn fleet_rep(spec: &Spec, gate: &mut Gate) -> Rep {
    let start = Instant::now();
    let opts = spec.fleet_options();
    let plans: Vec<Duration> = (0..PLAN_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(fleet_config(&opts).plan());
            t.elapsed()
        })
        .collect();
    let ops_before = prof::ops_total();
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| fleet::run(spec.fleet_scale(), &opts)));
    let work = t.elapsed();
    let mut rep = Rep {
        setup: plans,
        work: vec![work],
        ops: prof::ops_total() - ops_before,
        units: u64::from(opts.shards),
        ..Rep::default()
    };
    match result {
        Ok(Ok(fleet)) => {
            for e in &fleet.quarantined {
                gate.fail(format!("{e}"));
            }
            rep.quarantined = fleet.quarantined.len() as u64;
            rep.failed = rep.quarantined;
            gate.check(fleet.rows.len() as u64 + rep.failed == rep.units, || {
                format!(
                    "fleet returned {} rows and {} quarantined for {} shards",
                    fleet.rows.len(),
                    rep.failed,
                    rep.units
                )
            });
            let rows = fleet
                .rows
                .iter()
                .flat_map(|r| [u64::from(r.index), r.ops, r.digest]);
            let rollups = fleet
                .metrics_rows()
                .iter()
                .map(metrics_digest)
                .collect::<Vec<_>>();
            rep.digest = combine(rows.chain(rollups));
            rep.rows = fleet.rows;
        }
        Ok(Err(e)) => {
            gate.fail(format!("fleet: {e}"));
            rep.failed = rep.units;
        }
        Err(payload) => {
            gate.fail(format!("fleet panicked: {}", panic_cause(&*payload)));
            rep.failed = rep.units;
        }
    }
    rep.wall = start.elapsed();
    rep
}

/// A traced grid repetition: every card cell's preload timed on its own,
/// every cell replayed under a [`LayerClock`], and the digests checked
/// against the untraced ones.
fn grid_traced(spec: &Spec, untraced: &[u64], gate: &mut Gate) -> TracedRep {
    let setup = setup_grid(spec);
    let mut t = TracedRep::new();
    t.gen = setup.gen;
    t.gen_ops = setup.grid.traces.iter().map(|tr| tr.len() as u64).sum();
    for (i, cell) in setup.grid.cells.iter().enumerate() {
        let trace = &setup.grid.traces[cell.trace];
        t.units += 1;
        let ok = match preload_card(&cell.config, trace) {
            Some(p) => {
                t.preload_ms.push(ms(p.time));
                check_census(&cell.name, &p, gate)
            }
            None => true,
        };
        let (result, times, elapsed) = observed(&cell.config.backend, |clock| {
            try_simulate_observed(&cell.config, trace, RunOptions::default(), clock)
        });
        t.traced += elapsed;
        t.layers.add(&times);
        let (metrics, cell_ok) = check_cell(&cell.name, result, gate);
        let digest = metrics.as_ref().map_or(0, metrics_digest);
        let passive = gate.check(Some(&digest) == untraced.get(i), || {
            format!(
                "{}: traced digest {digest:016x} differs from the untraced run's",
                cell.name
            )
        });
        if !(ok && cell_ok && passive) {
            t.failed += 1;
        }
        if let Some(m) = metrics {
            let start = Instant::now();
            t.merged.merge(&m);
            t.merge += start.elapsed();
        }
    }
    t
}

/// A traced fleet repetition. The plan is timed; every planned shard is
/// run through `fleet::simulate_shard` and timed whole; then, in a second
/// pass, every shard is rebuilt from its inputs and replayed under a
/// [`LayerClock`]. Both digests must equal the shard's in-fleet row.
fn fleet_traced(spec: &Spec, rows: &[ShardRow], gate: &mut Gate) -> TracedRep {
    let opts = spec.fleet_options();
    let scale = spec.fleet_scale();
    let mut t = TracedRep::new();
    let start = Instant::now();
    let plan = fleet_config(&opts).plan();
    t.plan = start.elapsed();
    t.units = plan.shards.len() as u64;
    let mut in_fleet: Vec<Option<u64>> = vec![None; plan.shards.len()];
    for row in rows {
        if let Some(slot) = in_fleet.get_mut(row.index as usize) {
            *slot = Some(row.digest);
        }
    }
    let mut ok: Vec<bool> = plan
        .shards
        .iter()
        .map(|shard| {
            gate.check(FLEET_CLASSES.contains(&shard.device), || {
                format!(
                    "shard {}: unknown device class {}",
                    shard.index, shard.device
                )
            })
        })
        .collect();

    let mut plain = Duration::ZERO;
    for (i, shard) in plan.shards.iter().enumerate() {
        let start = Instant::now();
        let alone = catch_unwind(AssertUnwindSafe(|| fleet::simulate_shard(shard, scale)));
        let elapsed = start.elapsed();
        plain += elapsed;
        t.shard_ms.push((shard.device, ms(elapsed)));
        let alone = alone
            .map(|m| metrics_digest(&m))
            .map_err(|p| panic_cause(&*p));
        ok[i] &= gate.check(alone.as_ref().ok() == in_fleet[i].as_ref(), || {
            format!(
                "shard {}: simulate_shard gave {alone:x?}, its in-fleet row {:x?}",
                shard.index, in_fleet[i]
            )
        });
    }
    t.plain = Some(plain);

    let mut per_class: Vec<(&'static str, Metrics)> = Vec::new();
    for (i, shard) in plan.shards.iter().enumerate() {
        let name = shard_name(shard);
        let inputs = shard_inputs(shard);
        t.gen += inputs.gen;
        t.gen_ops += inputs.trace.len() as u64;
        if let Some(p) = preload_card(&inputs.config, &inputs.trace) {
            t.preload_fleet_ms.push(ms(p.time));
            ok[i] &= check_census(&name, &p, gate);
        }
        let (result, times, elapsed) = observed(&inputs.config.backend, |clock| {
            try_simulate_observed(&inputs.config, &inputs.trace, RunOptions::default(), clock)
        });
        t.traced += inputs.gen + elapsed;
        t.layers.add(&times);
        let mut m = match result {
            Ok(Ok(m)) => m,
            Ok(Err(e)) => {
                ok[i] = gate.check(false, || format!("{name}: {e}"));
                continue;
            }
            Err(p) => {
                ok[i] = gate.check(false, || format!("{name}: panicked: {}", panic_cause(&*p)));
                continue;
            }
        };
        m.name = name;
        let digest = metrics_digest(&m);
        ok[i] &= gate.check(Some(digest) == in_fleet[i], || {
            format!(
                "shard {}: rebuilt inputs gave digest {digest:016x}, its in-fleet row {:x?}; \
                 the fleet's shard recipe changed",
                shard.index, in_fleet[i]
            )
        });
        // Merged as the fleet merges: per device class and overall.
        let start = Instant::now();
        match per_class.iter_mut().find(|(n, _)| *n == shard.device) {
            Some((_, acc)) => acc.merge(&m),
            None => {
                let mut acc = Metrics::empty(shard.device);
                acc.merge(&m);
                per_class.push((shard.device, acc));
            }
        }
        t.merged.merge(&m);
        t.merge += start.elapsed();
    }
    t.failed = ok.iter().filter(|&&ok| !ok).count() as u64;
    t
}

/// Runs `call` under a fresh [`LayerClock`]; returns its result, the
/// layer charges and the call's duration as the clock measured it, which
/// the charges sum to exactly.
fn observed<R>(
    backend: &BackendConfig,
    call: impl FnOnce(&mut LayerClock) -> R,
) -> (thread::Result<R>, LayerTimes, Duration) {
    let mut clock = LayerClock::new(backend);
    let result = catch_unwind(AssertUnwindSafe(|| call(&mut clock)));
    let (times, elapsed) = clock.finish();
    (result, times, elapsed)
}

/// A preloaded card's census must partition its capacity and hold
/// exactly the preloaded blocks live.
fn check_census(name: &str, p: &Preloaded, gate: &mut Gate) -> bool {
    let census = p.card.census();
    let capacity = p.card.capacity_blocks();
    gate.check(
        census.total() == capacity && census.live == p.blocks,
        || {
            format!(
                "{name}: preloaded census {census:?} does not balance {capacity} blocks with {} live",
                p.blocks
            )
        },
    )
}

/// The end-to-end metrics, each from the fastest sample of what it times:
/// every timed unit's fastest repetition for throughput, the fastest
/// set-up for `setup_s`. Other tenants of a shared host only ever add
/// time to a deterministic computation, and on a shared 2-vCPU host they
/// did so for seconds at a time, so the minimum is the steadiest estimate of
/// the cost.
fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let work: f64 = (0..reps[0].work.len())
        .map(|i| fastest(reps.iter().map(|r| r.work[i])))
        .sum();
    ordered(
        &END_TO_END,
        &[
            ("sim_ops_per_s", reps[0].ops as f64 / work),
            (
                "setup_s",
                fastest(reps.iter().flat_map(|r| r.setup.iter().copied())),
            ),
            ("shards_per_s", reps[0].units as f64 / work),
            ("peak_rss_mb", peak_rss_mb),
        ],
    )
}

fn per_layer(spec: &Spec, traces: &[TracedRep], reps: &[Rep]) -> Vec<Metric> {
    let per_rep: Vec<Vec<(&'static str, f64)>> = traces.iter().map(layer_values).collect();
    let mut values: Vec<(&'static str, f64)> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| (name, median(per_rep.iter().map(|v| v[i].1).collect())))
        .collect();

    let traced = median(traces.iter().map(|t| secs(t.traced)).collect());
    let (plain, busy) = match spec.workload {
        Workload::Fleet => {
            let shards = median(traces.iter().filter_map(|t| t.plain).map(secs).collect());
            let wall = median(reps.iter().map(|r| secs(r.total_work())).collect());
            (shards, shards / (wall * jobs() as f64))
        }
        _ => (
            median(reps.iter().map(|r| secs(r.total_work())).collect()),
            median(
                reps.iter()
                    .map(|r| secs(r.total_work()) / secs(r.wall))
                    .collect(),
            ),
        ),
    };
    values.push(("exec.busy_frac", busy));
    values.push((
        "fleet.quarantined",
        median(reps.iter().map(|r| r.quarantined as f64).collect()),
    ));
    values.push(("traced.overhead_frac", traced / plain - 1.0));
    ordered(&PER_LAYER, &values)
}

/// One traced repetition's per-layer values: all but those that need
/// the untraced repetitions too.
fn layer_values(t: &TracedRep) -> Vec<(&'static str, f64)> {
    let l = &t.layers;
    let m = &t.merged;
    let card = m.flash_card.unwrap_or_default();
    let cache = m.cache.unwrap_or_default();
    let reads = cache.read_hits + cache.read_misses;
    let mut v = vec![
        ("flash.clean_s", l.secs(Layer::Cleaner)),
        (
            "flash.clean_us_per_pass",
            ratio(l.secs(Layer::Cleaner) * 1e6, l.passes as f64),
        ),
        ("flash.write_s", l.secs(Layer::CardWrite)),
        ("flash.read_s", l.secs(Layer::CardRead)),
        ("flash.passes", l.passes as f64),
        (
            "flash.copied_per_pass",
            ratio(l.copied as f64, l.starts as f64),
        ),
        ("flash.cleaning_waits", card.cleaning_waits as f64),
        ("flash.preload_ms", median(t.preload_ms.clone())),
        ("flash.preload_ms_fleet", median(t.preload_fleet_ms.clone())),
        ("cache.dram_s", l.secs(Layer::Dram)),
        ("cache.sram_s", l.secs(Layer::Sram)),
        (
            "cache.read_hit_ratio",
            ratio(cache.read_hits as f64, reads as f64),
        ),
        ("device.disk_s", l.secs(Layer::Disk)),
        ("device.flashdisk_s", l.secs(Layer::FlashDisk)),
        ("device.array_s", l.secs(Layer::Array)),
        (
            "device.parity_updates",
            m.array.map_or(0.0, |a| a.parity_updates as f64),
        ),
        ("core.op_s", l.secs(Layer::Core)),
        ("core.setup_s", l.secs(Layer::Setup)),
        ("core.merge_ms", ms(t.merge)),
        ("workload.gen_s", secs(t.gen)),
        (
            "workload.gen_ns_per_op",
            ratio(secs(t.gen) * 1e9, t.gen_ops as f64),
        ),
        ("fleet.plan_ms", ms(t.plan)),
    ];
    for class in FLEET_CLASSES {
        let mut samples: Vec<f64> = t
            .shard_ms
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|&(_, ms)| ms)
            .collect();
        samples.sort_by(f64::total_cmp);
        v.push((
            metric_name("fleet.shard_ms_p50.", class),
            percentile(&samples, 0.50),
        ));
        v.push((
            metric_name("fleet.shard_ms_p99.", class),
            percentile(&samples, 0.99),
        ));
        v.push((
            metric_name("fleet.shard_samples.", class),
            samples.len() as f64,
        ));
    }
    v
}

/// The `PER_LAYER` name `prefix` + `class`.
fn metric_name(prefix: &str, class: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_prefix(prefix) == Some(class))
        .expect("every fleet class has its metrics in PER_LAYER")
}

/// `values` in the order and with the units of `table`.
///
/// # Panics
///
/// Panics if `values` misses a name in `table`: a bug in this file.
fn ordered(table: &[(&'static str, &'static str)], values: &[(&'static str, f64)]) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no value for metric {name}"))
                .1;
            Metric { name, value, unit }
        })
        .collect()
}

/// The process's peak resident set (VmHWM), in MiB; 0 where the kernel
/// does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The median of `values`; 0 for none.
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The shortest of `durations`, in seconds.
fn fastest(durations: impl Iterator<Item = Duration>) -> f64 {
    durations.map(secs).fold(f64::INFINITY, f64::min)
}

/// The nearest-rank `p` percentile of sorted `values`; 0 for none.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
