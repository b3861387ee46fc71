//! Shared target renderer.
//!
//! [`render_target`] produces, for one named target, exactly the bytes
//! the `repro` binary prints to stdout for it (plus any CSV side files).
//! Living in the library rather than the binary lets the golden snapshot
//! tests compare the rendered output against committed fixtures — any
//! refactor that silently shifts a paper number fails the suite.

use std::fmt::Display;

use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::SimError;
use mobistore_sim::span::Span;

use crate::crashcheck::CrashCheckOptions;
use crate::durability::DurabilityOptions;
use crate::fleet::FleetOptions;
use crate::integrity::IntegrityOptions;
use crate::reliability::ReliabilityOptions;
use crate::{crashcheck, durability, fleet, integrity, reliability, Scale};

/// Every default target, in the default (paper) order. Each target's
/// stdout is deterministic (byte-identical at any `--jobs` count), so
/// the whole list is golden-pinnable.
pub const TARGETS: [&str; 24] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "async",
    "endurance",
    "verify",
    "battery",
    "ablations",
    "nextgen",
    "sensitivity",
    "related",
    "reliability",
    "observe",
    "crashcheck",
    "integrity",
    "fleet",
    "profile",
    "durability",
];

/// Options a target may consume beyond the [`Scale`].
#[derive(Debug, Clone, Default)]
pub struct RenderOptions {
    /// The `reliability` target's fault sweep parameters.
    pub reliability: ReliabilityOptions,
    /// The `crashcheck` target's sweep density and jitter seed.
    pub crashcheck: CrashCheckOptions,
    /// The `integrity` target's bit-error sweep parameters.
    pub integrity: IntegrityOptions,
    /// The `fleet` target's shard count, population, and seed.
    pub fleet: FleetOptions,
    /// The `durability` target's geometry/death-rate sweep parameters.
    pub durability: DurabilityOptions,
    /// Collect per-event JSONL streams (the `--events-out` payload) from
    /// targets that observe their simulations. Off by default: rendering
    /// with the default options is exactly the pre-observability output.
    pub collect_events: bool,
    /// Collect sim-time spans (the `--trace-out` payload) from targets
    /// that observe their simulations. Off by default.
    pub collect_spans: bool,
    /// Print fleet progress heartbeats to stderr. Stdout is unaffected.
    pub progress: bool,
}

/// One rendered target: its stdout bytes and any side artifacts.
#[derive(Debug, Clone)]
pub struct RenderedTarget {
    /// Exactly what the serial `repro` binary prints to stdout.
    pub text: String,
    /// `(file name, contents)` pairs for the `--csv` directory.
    pub csvs: Vec<(&'static str, String)>,
    /// Full metrics rows for the `--metrics-out` export (empty for targets
    /// that report derived values only).
    pub metrics: Vec<Metrics>,
    /// The target's JSONL event stream, when
    /// [`RenderOptions::collect_events`] was set and the target observes.
    pub events_jsonl: Option<String>,
    /// Fleet sharding parameters, set only by the `fleet` target; carried
    /// into the `--metrics-out` document as its `mobistore-fleet/1` block.
    pub fleet_info: Option<crate::export::FleetInfo>,
    /// Durability sweep parameters, set only by the `durability` target;
    /// carried into the `--metrics-out` document as its
    /// `mobistore-durability/1` block.
    pub durability_info: Option<crate::export::DurabilityInfo>,
    /// `(process name, spans)` pairs for the `--trace-out` export, when
    /// [`RenderOptions::collect_spans`] was set and the target observes.
    pub span_processes: Vec<(String, Vec<Span>)>,
}

/// Renders one target, panicking on any [`SimError`].
///
/// # Panics
///
/// Panics on a target name not in [`TARGETS`], or on a simulation that
/// cannot be set up. The `repro` binary goes through
/// [`try_render_target`] instead, mapping errors to exit codes.
pub fn render_target(target: &str, scale: Scale, options: &RenderOptions) -> RenderedTarget {
    match try_render_target(target, scale, options) {
        Ok(r) => r,
        Err(e) => panic!("target {target}: {e}"),
    }
}

/// Renders one target, reporting simulation setup failures as typed
/// errors.
///
/// # Errors
///
/// Returns the [`SimError`] a target's simulation setup reported.
///
/// # Panics
///
/// Panics on a target name not in [`TARGETS`].
pub fn try_render_target(
    target: &str,
    scale: Scale,
    options: &RenderOptions,
) -> Result<RenderedTarget, SimError> {
    let mut out = String::new();
    let mut csvs: Vec<(&'static str, String)> = Vec::new();
    let mut metrics: Vec<Metrics> = Vec::new();
    let mut events_jsonl: Option<String> = None;
    let mut fleet_info: Option<crate::export::FleetInfo> = None;
    let mut durability_info: Option<crate::export::DurabilityInfo> = None;
    let mut span_processes: Vec<(String, Vec<Span>)> = Vec::new();
    // Mirrors the old `println!("{}\n", x)`: the value, then a blank line.
    fn p(out: &mut String, x: impl Display) {
        out.push_str(&format!("{x}\n\n"));
    }
    match target {
        "table1" => p(&mut out, crate::table1::run()),
        "table2" => p(&mut out, crate::table2::run()),
        "table3" => p(&mut out, crate::table3::run(scale)),
        "table4" => {
            let t = crate::table4::run(scale);
            p(&mut out, &t);
            csvs.push(("table4.csv", crate::csv::table4_csv(&t)));
            for part in &t.parts {
                for row in &part.rows {
                    let mut m = row.clone();
                    m.name = format!("{}/{}", part.workload.name(), row.name);
                    metrics.push(m);
                }
            }
        }
        "figure1" => {
            let fig = crate::figure1::run();
            p(&mut out, format_args!("{fig}\n{}", fig.plot()));
        }
        "figure2" => {
            let fig = crate::figure2::run(scale);
            p(&mut out, format_args!("{fig}\n{}", fig.plot()));
            csvs.push(("figure2.csv", crate::csv::figure2_csv(&fig)));
        }
        "figure3" => {
            let fig = crate::figure3::run();
            p(&mut out, format_args!("{fig}\n{}", fig.plot()));
        }
        "figure4" => {
            let fig = crate::figure4::run(scale);
            p(&mut out, &fig);
            csvs.push(("figure4.csv", crate::csv::figure4_csv(&fig)));
        }
        "figure5" => {
            let fig = crate::figure5::run(scale);
            p(&mut out, &fig);
            csvs.push(("figure5.csv", crate::csv::figure5_csv(&fig)));
        }
        "async" => p(&mut out, crate::async_cleaning::run(scale)),
        "endurance" => p(&mut out, crate::endurance::run(scale)),
        "verify" => p(&mut out, crate::verification::run(scale)),
        "battery" => p(&mut out, crate::battery::run(scale)),
        "ablations" => {
            p(&mut out, crate::ablations::cleaning_policies(scale));
            p(&mut out, crate::ablations::write_back_cache(scale));
            p(&mut out, crate::ablations::spin_down_sweep(scale));
            p(&mut out, crate::ablations::flash_with_sram(scale));
            p(&mut out, crate::ablations::seek_models(scale));
        }
        "nextgen" => {
            p(
                &mut out,
                crate::next_gen::series2plus(mobistore_workload::Workload::Dos, scale),
            );
            p(&mut out, crate::next_gen::wear_leveling(scale));
            p(
                &mut out,
                crate::next_gen::render_lifetime(&crate::next_gen::lifetime(scale)),
            );
        }
        "sensitivity" => p(&mut out, crate::sensitivity::run(scale)),
        "related" => p(&mut out, crate::related::run(scale)),
        "reliability" => p(&mut out, reliability::run(scale, &options.reliability)),
        "crashcheck" => p(&mut out, crashcheck::run(scale, &options.crashcheck)?),
        "integrity" => {
            let r = integrity::run(scale, &options.integrity);
            p(&mut out, &r);
            metrics.extend(r.metrics_rows());
        }
        "observe" => {
            let o = crate::observe::run(scale, options.collect_events, options.collect_spans);
            p(&mut out, &o);
            events_jsonl = o.events_jsonl();
            span_processes = o.span_processes().unwrap_or_default();
            metrics.extend(o.cells.into_iter().map(|c| c.metrics));
        }
        "profile" => p(&mut out, crate::profile::run(scale)),
        "fleet" => {
            let fl = fleet::run_with_progress(scale, &options.fleet, options.progress)?;
            p(&mut out, &fl);
            metrics.extend(fl.metrics_rows());
            fleet_info = Some(crate::export::FleetInfo {
                shards: fl.options.shards,
                population: fl.options.population,
                seed: fl.options.seed,
                survivors: fl.survivors(),
                quarantined: fl
                    .quarantined
                    .iter()
                    .map(|e| (e.shard, e.attempts, e.cause.clone()))
                    .collect(),
            });
        }
        "durability" => {
            let d = durability::run(scale, &options.durability);
            p(&mut out, &d);
            metrics.extend(d.metrics_rows());
            durability_info = Some(crate::export::DurabilityInfo {
                geometries: d.options.geometries.clone(),
                death_rates: d.options.death_rates.clone(),
                rebuild_rate: d.options.rebuild_rate,
                seed: d.options.seed,
            });
        }
        other => panic!("unknown target {other}"),
    }
    Ok(RenderedTarget {
        text: out,
        csvs,
        metrics,
        events_jsonl,
        fleet_info,
        durability_info,
        span_processes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_targets_render_nonempty() {
        for target in ["table1", "table2"] {
            let r = render_target(target, Scale::quick(), &RenderOptions::default());
            assert!(r.text.ends_with("\n\n"), "{target} missing separator");
            assert!(r.text.len() > 40, "{target} suspiciously short");
        }
    }

    #[test]
    #[should_panic(expected = "unknown target")]
    fn unknown_target_panics() {
        let _ = render_target("warp", Scale::quick(), &RenderOptions::default());
    }
}
