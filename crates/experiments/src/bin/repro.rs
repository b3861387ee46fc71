//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale <fraction>] [--seed <n>] [--jobs <n>] [--timings] [targets...]
//! ```
//!
//! Targets: `table1 table2 table3 table4 figure1 figure2 figure3 figure4
//! figure5 async endurance verify battery ablations nextgen sensitivity
//! related reliability observe crashcheck integrity fleet profile
//! durability` (default: all).
//!
//! The `reliability` target takes extra flags: `--fault-rates <a,b,c>`
//! (transient write/erase fault rates to sweep), `--fault-power-interval
//! <secs>` (mean seconds between power failures; 0 disables them, any
//! other value must round to 1 ns to 584 years), and `--fault-seed <n>`
//! (the fault streams' seed, independent of the workload seed).
//!
//! The `crashcheck` target takes `--crash-points <all|n>` (crash at every
//! op boundary, or at `n` sampled boundaries per grid cell) and
//! `--crash-seed <n>` (the crash-instant jitter seed).
//!
//! The `integrity` target takes `--ber-rates <a,b,c>` (expected raw bit
//! errors per fresh block read, swept one run per rate; must be finite
//! and non-negative), `--scrub-interval <secs>` (background scrub pass
//! period; 0 disables scrubbing, other values as for
//! `--fault-power-interval`), and `--ber-seed <n>` (the bit-error
//! streams' seed, independent of the workload seed).
//!
//! The `fleet` target takes `--fleet-shards <n>` (simulated device
//! shards, positive), `--fleet-population <n>` (users hash-range-mapped
//! onto the shards, positive; default eight per shard), and
//! `--fleet-seed <n>` (the fleet seed every per-shard stream derives
//! from). Its merged metrics are byte-identical at any `--jobs` count.
//!
//! The fleet runs under a **supervisor**: each shard simulates inside
//! `catch_unwind`, a panicking shard is retried up to `--fleet-retries
//! <n>` more times (default 2, deterministically) and then quarantined —
//! the run completes over the survivors, reports the quarantined shards
//! (stdout, and a `quarantined` section in the `mobistore-fleet/1`
//! export block), and the process exits `8` instead of `0`. Long runs
//! are resumable: `--checkpoint-out <file>` persists a versioned
//! `mobistore-fleet-ckpt/1` snapshot of the merged state every
//! `--checkpoint-every <n>` completed chunks (default 1; written
//! atomically via rename), and `--resume-from <file>` validates the
//! checkpoint's configuration fingerprint, skips its completed chunks,
//! and produces stdout and exports **byte-identical** to an
//! uninterrupted run at any `--jobs` count. A mismatched or unreadable
//! checkpoint is a configuration error (exit 3). The hidden chaos knobs
//! `--chaos-panic-rate <p>` (deterministic injected shard panics) and
//! `--chaos-fail-point <n>` (abort the process with exit code `9` after
//! `n` chunks, before that chunk checkpoints — a simulated kill -9)
//! exist to prove those paths end-to-end in tests and CI.
//!
//! The `durability` target takes `--ec <k+m,...>` (comma-separated
//! Reed-Solomon array geometries, each with `k >= 1` data and `m >= 1`
//! parity shards within the 255-shard stripe limit), `--death-rates
//! <a,b,c>` (expected permanent whole-device deaths per device-hour,
//! finite and non-negative), `--rebuild-rate <stripes/s>` (hot-spare
//! rebuild pacing, positive, with a per-stripe period `1/rate` of 1 ns
//! to 584 years), and `--durability-seed <n>` (the
//! death-schedule seed, independent of the workload seed). Its metrics
//! export carries a versioned `mobistore-durability/1` block.
//!
//! Exit codes are typed: `0` success, `1` I/O failure, `2` usage error,
//! `3` configuration error ([`SimError::Config`], including unusable
//! checkpoints), `4` device error, `5` cache error, `6` degraded array
//! ([`DeviceError::ArrayDegraded`]), `7` failed array
//! ([`DeviceError::ArrayFailed`]), `8` completed with quarantined fleet
//! shards (all artifacts written; rollups cover survivors only), `9`
//! chaos fail-point abort (the supervisor's simulated kill -9).
//!
//! Observability exports: `--events-out <path>` writes the JSONL event
//! stream produced by observing targets (`observe`), `--trace-out
//! <path>` writes those targets' sim-time spans as a Chrome trace-event
//! JSON document (schema `mobistore-trace/1`, loadable in Perfetto or
//! `chrome://tracing`), and `--metrics-out <path>` writes a versioned
//! JSON document with every rendered target's full metrics rows (latency
//! percentiles included). All three artifacts carry sim time only, so
//! they are byte-identical at any `--jobs` count. `--timings-json
//! <path>` writes the per-target wall-clock profile as JSON
//! (`mobistore-timings/1.1`, recorded in `BENCH_repro.json` by
//! `scripts/bench_repro.sh`), with per-target simulated op counts and
//! ops/sec; unlike the sim-time exports it measures the host and is
//! *not* deterministic. `--progress` prints fleet shard heartbeats to
//! stderr, leaving stdout untouched. Host-time benchmarking proper,
//! split by layer, is perfbench's job (`perfbench/`).
//!
//! Targets run **concurrently** on a worker pool (`--jobs N`, the
//! `MOBISTORE_JOBS` environment variable, or all available cores), with
//! each target's stdout buffered and flushed in request order — so the
//! output is byte-identical to a `--jobs 1` serial run. Workload traces
//! are generated once per process and shared between targets through the
//! `mobistore_workload::cache` trace cache; `--timings` reports per-target
//! wall-clock and the cache's hit/miss summary on stderr.

use std::env;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mobistore_core::crashcheck::CrashPoints;
use mobistore_core::simulator::SimError;
use mobistore_device::array::rebuild_period;
use mobistore_device::DeviceError;
use mobistore_experiments::fleet::FleetOptions;
use mobistore_experiments::render::{try_render_target, RenderOptions, RenderedTarget, TARGETS};
use mobistore_experiments::{export, Scale};
use mobistore_sim::ec::{check_geometry, MAX_SHARDS};
use mobistore_sim::exec;
use mobistore_sim::prof;
use mobistore_sim::rule::Rule;
use mobistore_sim::span::{chrome_trace_json, Span};
use mobistore_sim::time::SimDuration;

/// One finished target: rendered output plus its wall-clock time.
struct TargetOutput {
    rendered: RenderedTarget,
    elapsed: Duration,
    /// Simulated operations this target's simulations replayed.
    ops: u64,
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut scale = Scale::full();
    let mut targets: Vec<String> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut timings = false;
    let mut events_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut timings_json: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut render = RenderOptions::default();
    let mut fleet_population_set = false;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v <= 1.0 => scale.fraction = v,
                _ => return usage("--scale needs a fraction in (0, 1]"),
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => scale.seed = v,
                None => return usage("--seed needs an integer"),
            },
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v > 0 => exec::set_jobs(v),
                _ => return usage("--jobs needs a positive integer"),
            },
            "--timings" => timings = true,
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => return usage("--csv needs a directory"),
            },
            "--events-out" => match args.next() {
                Some(path) => {
                    events_out = Some(PathBuf::from(path));
                    render.collect_events = true;
                }
                None => return usage("--events-out needs a file path"),
            },
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(PathBuf::from(path)),
                None => return usage("--metrics-out needs a file path"),
            },
            "--timings-json" => match args.next() {
                Some(path) => timings_json = Some(PathBuf::from(path)),
                None => return usage("--timings-json needs a file path"),
            },
            "--trace-out" => match args.next() {
                Some(path) => {
                    trace_out = Some(PathBuf::from(path));
                    render.collect_spans = true;
                }
                None => return usage("--trace-out needs a file path"),
            },
            "--progress" => render.progress = true,
            "--fault-rates" => match args.next().map(|v| parse_list(&v, Rule::Probability)) {
                Some(Some(rates)) => render.reliability.rates = rates,
                _ => {
                    return usage("--fault-rates needs comma-separated rates in [0, 1]");
                }
            },
            "--fault-power-interval" => match args.next().and_then(|v| parse_interval(&v)) {
                Some(interval) => render.reliability.power_interval = interval,
                None => {
                    return usage(
                        "--fault-power-interval needs seconds \
                         (0 disables; else 1 ns to 584 years)",
                    );
                }
            },
            "--fault-seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => render.reliability.fault_seed = v,
                None => return usage("--fault-seed needs an integer"),
            },
            "--crash-points" => match args.next().map(|v| parse_crash_points(&v)) {
                Some(Some(points)) => render.crashcheck.points = points,
                _ => return usage("--crash-points needs 'all' or a positive integer"),
            },
            "--crash-seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => render.crashcheck.seed = v,
                None => return usage("--crash-seed needs an integer"),
            },
            "--ber-rates" => match args.next().map(|v| parse_list(&v, Rule::Rate)) {
                Some(Some(rates)) => render.integrity.rates = rates,
                _ => {
                    return usage("--ber-rates needs comma-separated non-negative error counts");
                }
            },
            "--scrub-interval" => match args.next().and_then(|v| parse_interval(&v)) {
                Some(interval) => render.integrity.scrub_interval = interval,
                None => {
                    return usage(
                        "--scrub-interval needs seconds \
                         (0 disables; else 1 ns to 584 years)",
                    );
                }
            },
            "--ber-seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => render.integrity.ber_seed = v,
                None => return usage("--ber-seed needs an integer"),
            },
            "--fleet-shards" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(v) if v > 0 => render.fleet.shards = v,
                _ => return usage("--fleet-shards needs a positive integer"),
            },
            "--fleet-population" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) if v > 0 => {
                    render.fleet.population = v;
                    fleet_population_set = true;
                }
                _ => return usage("--fleet-population needs a positive integer"),
            },
            "--fleet-seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => render.fleet.seed = v,
                None => return usage("--fleet-seed needs an integer"),
            },
            "--fleet-retries" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(v) => render.fleet.retry_budget = v,
                None => return usage("--fleet-retries needs a non-negative integer"),
            },
            "--checkpoint-out" => match args.next() {
                Some(path) => render.fleet.checkpoint_out = Some(PathBuf::from(path)),
                None => return usage("--checkpoint-out needs a file path"),
            },
            "--checkpoint-every" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) if v > 0 => render.fleet.checkpoint_every = v,
                _ => return usage("--checkpoint-every needs a positive chunk count"),
            },
            "--resume-from" => match args.next() {
                Some(path) => render.fleet.resume_from = Some(PathBuf::from(path)),
                None => return usage("--resume-from needs a file path"),
            },
            // Hidden chaos knobs (absent from the usage string): they
            // exist so tests and CI can prove the supervisor end-to-end.
            "--chaos-panic-rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if Rule::Probability.admits(v) => render.fleet.chaos.panic_rate = v,
                _ => return usage("--chaos-panic-rate needs a probability in [0, 1]"),
            },
            "--chaos-fail-point" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) if v > 0 => render.fleet.chaos.fail_point = Some(v),
                _ => return usage("--chaos-fail-point needs a positive chunk count"),
            },
            "--ec" => match args.next().map(|v| parse_geometries(&v)) {
                Some(Some(geometries)) => render.durability.geometries = geometries,
                _ => {
                    return usage(&format!(
                        "--ec needs comma-separated k+m geometries with k >= 1, \
                         m >= 1, and k+m <= the {MAX_SHARDS}-device stripe limit"
                    ));
                }
            },
            "--death-rates" => match args.next().map(|v| parse_list(&v, Rule::Rate)) {
                Some(Some(rates)) => render.durability.death_rates = rates,
                _ => {
                    return usage("--death-rates needs comma-separated non-negative rates");
                }
            },
            "--rebuild-rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if rebuild_period(v).is_some() => render.durability.rebuild_rate = v,
                _ => {
                    return usage(
                        "--rebuild-rate needs a positive stripes/sec rate \
                         whose period 1/rate is 1 ns to 584 years",
                    );
                }
            },
            "--durability-seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => render.durability.seed = v,
                None => return usage("--durability-seed needs an integer"),
            },
            "--help" | "-h" => return usage(""),
            t if !t.starts_with('-') => targets.push(t.to_owned()),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    if !fleet_population_set {
        render.fleet.population = FleetOptions::default_population(render.fleet.shards);
    }
    if targets.is_empty() {
        targets = TARGETS.iter().map(|s| (*s).to_owned()).collect();
    }
    if let Some(bad) = targets.iter().find(|t| !TARGETS.contains(&t.as_str())) {
        return usage(&format!("unknown target {bad}"));
    }

    eprintln!(
        "# mobistore repro: scale {:.2}, seed {}, jobs {}",
        scale.fraction,
        scale.seed,
        exec::jobs()
    );

    // Run all requested targets concurrently, buffering each target's
    // stdout; flushing in request order keeps the combined output
    // byte-identical to a serial run.
    let rendered: Vec<Result<TargetOutput, SimError>> = exec::parallel_map(&targets, |target| {
        eprintln!("# running {target}...");
        let t0 = Instant::now();
        // A per-target op counter: the simulator credits every run to the
        // thread's context, which parallel_map propagates into nested
        // worker pools, so fan-out targets still attribute correctly.
        let ops = Arc::new(AtomicU64::new(0));
        let rendered =
            prof::with_context(ops.clone(), || try_render_target(target, scale, &render))?;
        Ok(TargetOutput {
            rendered,
            elapsed: t0.elapsed(),
            ops: ops.load(Ordering::Relaxed),
        })
    });
    let mut results: Vec<TargetOutput> = Vec::with_capacity(rendered.len());
    for (target, r) in targets.iter().zip(rendered) {
        match r {
            Ok(out) => results.push(out),
            Err(e) => {
                eprintln!("error: target {target}: {e}");
                return sim_error_exit(&e);
            }
        }
    }

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    for r in &results {
        if lock.write_all(r.rendered.text.as_bytes()).is_err() {
            return ExitCode::from(1);
        }
        for (name, contents) in &r.rendered.csvs {
            write_csv(&csv_dir, name, contents);
        }
    }
    drop(lock);

    if let Some(path) = &trace_out {
        let mut processes: Vec<(String, Vec<Span>)> = Vec::new();
        for r in &results {
            processes.extend(r.rendered.span_processes.iter().cloned());
        }
        if processes.is_empty() {
            eprintln!(
                "# --trace-out: no spans collected \
                 (no observing target in the requested set?)"
            );
        }
        write_artifact(path, &chrome_trace_json(&processes), "trace");
    }
    if let Some(path) = &events_out {
        let mut stream = String::new();
        for r in &results {
            if let Some(events) = &r.rendered.events_jsonl {
                stream.push_str(events);
            }
        }
        write_artifact(path, &stream, "events");
    }
    if let Some(path) = &metrics_out {
        let per_target: Vec<export::TargetExport<'_>> = targets
            .iter()
            .zip(&results)
            .map(|(t, r)| export::TargetExport {
                target: t.as_str(),
                rows: r.rendered.metrics.as_slice(),
                fleet: r.rendered.fleet_info.as_ref(),
                durability: r.rendered.durability_info.as_ref(),
            })
            .collect();
        write_artifact(path, &export::metrics_json(scale, &per_target), "metrics");
    }
    if let Some(path) = &timings_json {
        write_artifact(
            path,
            &timings_json_doc(&targets, &results, started.elapsed()),
            "timings",
        );
    }

    if timings {
        eprintln!("# timings (jobs={}):", exec::jobs());
        for (target, r) in targets.iter().zip(&results) {
            eprintln!("#   {target:<12} {:>9.3}s", r.elapsed.as_secs_f64());
        }
        let c = mobistore_workload::cache::summary();
        eprintln!(
            "# trace cache: {} generated, {} hits, {} entries ({} lookups)",
            c.misses,
            c.hits,
            c.entries,
            c.lookups()
        );
        eprintln!(
            "# total wall-clock: {:.3}s",
            started.elapsed().as_secs_f64()
        );
    }

    // Every artifact is written by now; a run that quarantined fleet
    // shards completed, but its rollups cover survivors only — exit 8 so
    // scripted callers notice the reduced coverage.
    let quarantined: usize = results
        .iter()
        .filter_map(|r| r.rendered.fleet_info.as_ref())
        .map(|f| f.quarantined.len())
        .sum();
    if quarantined > 0 {
        eprintln!(
            "# warning: fleet completed with {quarantined} quarantined shard(s); \
             rollups cover survivors only (exit 8)"
        );
        return ExitCode::from(8);
    }
    ExitCode::SUCCESS
}

/// Renders the `--timings-json` document: wall-clock, simulated op
/// count, and ops/sec per target, plus the trace-cache summary (host
/// profiling — not deterministic). Schema 1.1 adds the `ops` and
/// `ops_per_sec` row fields.
fn timings_json_doc(targets: &[String], results: &[TargetOutput], total: Duration) -> String {
    let mut s = String::from("{\"schema\":\"mobistore-timings/1.1\"");
    let _ = write!(s, ",\"jobs\":{}", exec::jobs());
    s.push_str(",\"targets\":[");
    for (i, (target, r)) in targets.iter().zip(results).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let secs = r.elapsed.as_secs_f64();
        let ops_per_sec = if secs > 0.0 { r.ops as f64 / secs } else { 0.0 };
        let _ = write!(
            s,
            "{{\"target\":\"{target}\",\"seconds\":{secs:.6},\"ops\":{},\
             \"ops_per_sec\":{ops_per_sec:.1}}}",
            r.ops
        );
    }
    let c = mobistore_workload::cache::summary();
    let _ = write!(
        s,
        "],\"trace_cache\":{{\"generated\":{},\"hits\":{},\"entries\":{}}},\
         \"total_seconds\":{:.6}}}",
        c.misses,
        c.hits,
        c.entries,
        total.as_secs_f64()
    );
    s
}

/// Maps a [`SimError`] to its documented exit code: configuration errors
/// exit 3, device errors 4, cache errors 5 — except the typed array
/// failures, which get their own codes: a degraded array (data still
/// reconstructible) exits 6, a failed array (losses past `m`) exits 7.
fn sim_error_exit(e: &SimError) -> ExitCode {
    ExitCode::from(match e {
        SimError::Config(_) => 3,
        SimError::Device(DeviceError::ArrayDegraded { .. }) => 6,
        SimError::Device(DeviceError::ArrayFailed { .. }) => 7,
        SimError::Device(_) => 4,
        SimError::Cache(_) => 5,
    })
}

/// Parses `--crash-points`: `all` for the exhaustive boundary sweep, or a
/// positive sample count.
fn parse_crash_points(s: &str) -> Option<CrashPoints> {
    if s.trim() == "all" {
        return Some(CrashPoints::Exhaustive);
    }
    match s.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(CrashPoints::Sampled(n)),
        _ => None,
    }
}

/// Parses `--ec`: comma-separated `k+m` geometries, each two integers
/// joined by `+` that the codec's [`check_geometry`] admits — `0+2`,
/// `4+0`, `200+100`, and anything unparsable are usage errors.
fn parse_geometries(s: &str) -> Option<Vec<(usize, usize)>> {
    let geometries: Option<Vec<(usize, usize)>> = s
        .split(',')
        .map(|part| {
            let (k, m) = part.trim().split_once('+')?;
            let (k, m) = (k.trim().parse().ok()?, m.trim().parse().ok()?);
            check_geometry(k, m).ok().map(|()| (k, m))
        })
        .collect();
    geometries.filter(|g| !g.is_empty())
}

/// Parses `--fault-power-interval` and `--scrub-interval`: `0` disables
/// the feature (`Some(None)`); any other value must be a
/// [`SimDuration::period`].
fn parse_interval(s: &str) -> Option<Option<SimDuration>> {
    let secs = s.parse::<f64>().ok()?;
    if secs == 0.0 {
        return Some(None);
    }
    SimDuration::period(secs).map(Some)
}

/// Parses a comma-separated list of numbers that each keep `rule`:
/// `--fault-rates` are [`Rule::Probability`]s; `--ber-rates` and
/// `--death-rates` are [`Rule::Rate`]s. An empty list fails.
fn parse_list(s: &str, rule: Rule) -> Option<Vec<f64>> {
    let values: Option<Vec<f64>> = s
        .split(',')
        .map(|part| match part.trim().parse::<f64>() {
            Ok(v) if rule.admits(v) => Some(v),
            _ => None,
        })
        .collect();
    values.filter(|v| !v.is_empty())
}

/// Writes one CSV file into the `--csv` directory, if one was given.
fn write_csv(dir: &Option<PathBuf>, name: &str, contents: &str) {
    let Some(dir) = dir else { return };
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match fs::write(&path, contents) {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Writes one export artifact, logging like `write_csv`.
fn write_artifact(path: &PathBuf, contents: &str, what: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                return;
            }
        }
    }
    match fs::write(path, contents) {
        Ok(()) => eprintln!("# wrote {what} to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--scale <0..1]] [--seed <n>] [--jobs <n>] [--timings] [--csv <dir>] \
         [--events-out <file>] [--trace-out <file>] [--metrics-out <file>] \
         [--timings-json <file>] [--progress] \
         [--fault-rates <a,b,c>] [--fault-power-interval <secs>] [--fault-seed <n>] \
         [--crash-points <all|n>] [--crash-seed <n>] \
         [--ber-rates <a,b,c>] [--scrub-interval <secs>] [--ber-seed <n>] \
         [--fleet-shards <n>] [--fleet-population <n>] [--fleet-seed <n>] \
         [--fleet-retries <n>] [--checkpoint-out <file>] [--checkpoint-every <n>] \
         [--resume-from <file>] \
         [--ec <k+m,...>] [--death-rates <a,b,c>] [--rebuild-rate <stripes/s>] \
         [--durability-seed <n>] \
         [table1|table2|table3|table4|figure1|figure2|figure3|figure4|figure5|async|endurance|\
         verify|battery|ablations|nextgen|sensitivity|related|reliability|observe|crashcheck|\
         integrity|fleet|profile|durability ...]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
