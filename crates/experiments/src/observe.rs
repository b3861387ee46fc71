//! The `repro observe` target — per-device state residency and latency
//! percentiles over a workload × device grid.
//!
//! This is the observability subsystem's showcase: each cell replays one
//! workload against one device with a live [`Observer`] attached,
//! collecting event counts (and, when requested, the full JSONL event
//! stream) alongside the usual [`Metrics`]. A small injected-fault load
//! plus a power-failure schedule is enabled so the fault and recovery
//! events appear in the stream even at quick scales.
//!
//! Determinism: every cell's event stream is produced by a
//! single-threaded simulation and stamped with sim time only; cells are
//! dispatched through [`parallel_map`], which returns results in request
//! order, so the rendered report and the concatenated JSONL stream are
//! byte-identical at any `--jobs` count.

use std::fmt;

use mobistore_core::config::SystemConfig;
use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::{simulate_observed, RunOptions};
use mobistore_device::params::{cu140_datasheet, intel_datasheet, sdp5_datasheet};
use mobistore_sim::exec::parallel_map;
use mobistore_sim::fault::FaultConfig;
use mobistore_sim::hist::{Histogram, Percentiles};
use mobistore_sim::obs::{CounterRegistry, Event, Observer};
use mobistore_sim::span::Span;
use mobistore_sim::stats::Summary;
use mobistore_sim::time::SimDuration;
use mobistore_workload::Workload;

use crate::{flash_card_config, shared_trace, Scale};

/// Transient write/erase fault rate injected into the flash-card cells.
const FAULT_RATE: f64 = 0.02;
/// Mean interval between injected power failures.
const POWER_FAIL_INTERVAL: SimDuration = SimDuration::from_secs(120);
/// Seed for the fault streams (independent of the workload seed).
const FAULT_SEED: u64 = 1994;

/// The devices in the grid, in report order (shared with the `profile`
/// target so both walk the same cells).
pub(crate) const DEVICES: [ObserveDevice; 3] = [
    ObserveDevice::Cu140Disk,
    ObserveDevice::Sdp5FlashDisk,
    ObserveDevice::IntelCard,
];

/// The workloads in the grid, in report order.
pub(crate) const WORKLOADS: [Workload; 2] = [Workload::Mac, Workload::Dos];

/// One device column of the observe grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveDevice {
    /// The cu140 magnetic disk (spin-down, SRAM write buffer).
    Cu140Disk,
    /// The SDP5 flash disk emulator.
    Sdp5FlashDisk,
    /// The Intel flash card (cleaning, 80% utilized).
    IntelCard,
}

impl ObserveDevice {
    /// Stable lowercase label used in reports and JSONL context fields.
    pub fn name(self) -> &'static str {
        match self {
            ObserveDevice::Cu140Disk => "cu140-disk",
            ObserveDevice::Sdp5FlashDisk => "sdp5-flashdisk",
            ObserveDevice::IntelCard => "intel-card",
        }
    }
}

/// An observer that counts events and optionally serializes each one as a
/// JSONL line prefixed with the cell's workload/device context, and
/// optionally keeps every sim-time span (the `--trace-out` payload).
struct Collector {
    counts: CounterRegistry,
    jsonl: Option<String>,
    prefix: String,
    spans: Option<Vec<Span>>,
}

impl Observer for Collector {
    fn record(&mut self, event: &Event) {
        self.counts.add(event.name(), 1);
        if let Some(buf) = &mut self.jsonl {
            buf.push('{');
            buf.push_str(&self.prefix);
            buf.push_str(&event.json_fields());
            buf.push_str("}\n");
        }
    }

    fn span(&mut self, span: &Span) {
        if let Some(spans) = &mut self.spans {
            spans.push(*span);
        }
    }
}

/// One workload × device cell.
#[derive(Debug, Clone)]
pub struct ObserveCell {
    /// Which trace.
    pub workload: Workload,
    /// Which device.
    pub device: ObserveDevice,
    /// The cell's simulation results (histograms included).
    pub metrics: Metrics,
    /// Event counts keyed by [`Event::name`].
    pub event_counts: CounterRegistry,
    /// The cell's JSONL event stream, when collection was requested.
    pub events_jsonl: Option<String>,
    /// The cell's sim-time spans, when span collection was requested.
    pub spans: Option<Vec<Span>>,
}

/// The observe grid.
#[derive(Debug, Clone)]
pub struct Observe {
    /// Workload-major, device-minor cells.
    pub cells: Vec<ObserveCell>,
}

impl Observe {
    /// Concatenates every cell's JSONL stream in grid order, or `None`
    /// when event collection was off.
    pub fn events_jsonl(&self) -> Option<String> {
        let mut out = String::new();
        let mut any = false;
        for cell in &self.cells {
            if let Some(s) = &cell.events_jsonl {
                out.push_str(s);
                any = true;
            }
        }
        any.then_some(out)
    }

    /// One `(process name, spans)` pair per cell for
    /// [`mobistore_sim::span::chrome_trace_json`], or `None` when span
    /// collection was off.
    pub fn span_processes(&self) -> Option<Vec<(String, Vec<Span>)>> {
        let procs: Vec<(String, Vec<Span>)> = self
            .cells
            .iter()
            .filter_map(|cell| {
                cell.spans.as_ref().map(|spans| {
                    (
                        format!("{} x {}", cell.workload.name(), cell.device.name()),
                        spans.clone(),
                    )
                })
            })
            .collect();
        (!procs.is_empty()).then_some(procs)
    }
}

/// Builds the system configuration for one cell.
pub(crate) fn cell_config(
    workload: Workload,
    device: ObserveDevice,
    trace: &mobistore_trace::record::Trace,
) -> SystemConfig {
    let fault =
        FaultConfig::with_rate(FAULT_RATE, FAULT_SEED).with_power_failures(POWER_FAIL_INTERVAL);
    let dram = if workload.below_buffer_cache() {
        0
    } else {
        2 * 1024 * 1024
    };
    let cfg = match device {
        ObserveDevice::Cu140Disk => SystemConfig::disk(cu140_datasheet()),
        ObserveDevice::Sdp5FlashDisk => SystemConfig::flash_disk(sdp5_datasheet()),
        ObserveDevice::IntelCard => flash_card_config(intel_datasheet(), trace, 0.80),
    };
    cfg.with_dram(dram).with_faults(fault)
}

/// Runs the grid; `collect_events` additionally captures every cell's
/// JSONL event stream (the `--events-out` payload) and `collect_spans`
/// captures every cell's sim-time spans (the `--trace-out` payload).
pub fn run(scale: Scale, collect_events: bool, collect_spans: bool) -> Observe {
    let mut grid: Vec<(Workload, ObserveDevice)> = Vec::new();
    for w in WORKLOADS {
        for d in DEVICES {
            grid.push((w, d));
        }
    }
    let cells = parallel_map(&grid, |&(workload, device)| {
        let trace = shared_trace(workload, scale);
        let cfg = cell_config(workload, device, &trace);
        let mut obs = Collector {
            counts: CounterRegistry::new(),
            jsonl: collect_events.then(String::new),
            prefix: format!(
                "\"workload\":\"{}\",\"device\":\"{}\",",
                workload.name(),
                device.name()
            ),
            spans: collect_spans.then(Vec::new),
        };
        let mut metrics = simulate_observed(&cfg, &trace, RunOptions::default(), &mut obs);
        metrics.name = format!("{}/{}", workload.name(), device.name());
        ObserveCell {
            workload,
            device,
            metrics,
            event_counts: obs.counts,
            events_jsonl: obs.jsonl,
            spans: obs.spans,
        }
    });
    Observe { cells }
}

/// Formats one latency row: count, mean, percentiles, max.
fn latency_row(
    f: &mut fmt::Formatter<'_>,
    label: &str,
    summary: &Summary,
    hist: &Histogram,
) -> fmt::Result {
    let Percentiles {
        p50,
        p90,
        p99,
        p999,
    } = hist.percentiles_ms();
    writeln!(
        f,
        "  {label:<8} {:>8} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.1}",
        summary.count, summary.mean, p50, p90, p99, p999, summary.max
    )
}

impl fmt::Display for Observe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Observability report: state residency and latency percentiles \
             (fault rate {FAULT_RATE}, power failures every {:.0} s mean, \
             fault seed {FAULT_SEED})",
            POWER_FAIL_INTERVAL.as_secs_f64()
        )?;
        for cell in &self.cells {
            writeln!(f)?;
            writeln!(f, "== {} x {} ==", cell.workload.name(), cell.device.name())?;
            let m = &cell.metrics;
            writeln!(
                f,
                "  energy {:.1} J over {:.1} s ({:.3} W mean)",
                m.energy.get(),
                m.duration.as_secs_f64(),
                m.mean_power_w()
            )?;
            let span = m.duration.as_secs_f64();
            if span > 0.0 && !m.backend_states.is_empty() {
                write!(f, "  state residency:")?;
                for (state, _, dur) in &m.backend_states {
                    write!(f, " {state} {:.1}%", 100.0 * dur.as_secs_f64() / span)?;
                }
                writeln!(f)?;
            }
            writeln!(
                f,
                "  {:<8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "latency", "n", "mean", "p50", "p90", "p99", "p99.9", "max"
            )?;
            latency_row(f, "read", &m.read_response_ms, &m.read_latency)?;
            latency_row(f, "write", &m.write_response_ms, &m.write_latency)?;
            latency_row(f, "all", &m.overall_response_ms, &m.overall_latency)?;
            write!(f, "  events:")?;
            for (name, count) in cell.event_counts.iter() {
                write!(f, " {name}={count}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_workloads_and_devices() {
        let o = run(Scale::quick(), false, false);
        assert_eq!(o.cells.len(), WORKLOADS.len() * DEVICES.len());
        assert!(o.events_jsonl().is_none());
        assert!(o.span_processes().is_none());
        for cell in &o.cells {
            assert!(cell.metrics.energy.get() > 0.0, "{}", cell.metrics.name);
            assert!(cell.event_counts.get("op_issued") > 0);
            assert_eq!(
                cell.event_counts.get("op_issued"),
                cell.event_counts.get("op_completed")
            );
        }
        let rendered = format!("{o}");
        assert!(rendered.contains("p99.9"));
        assert!(rendered.contains("state residency"));
        assert!(rendered.contains("mac x cu140-disk"));
    }

    #[test]
    fn event_stream_covers_required_event_families() {
        let o = run(Scale::quick(), true, false);
        let events = o.events_jsonl().expect("collection was on");
        for needle in [
            "\"event\":\"op_issued\"",
            "\"event\":\"op_completed\"",
            "\"event\":\"cache_read\"",
            "\"event\":\"disk_spin_up\"",
            "\"event\":\"disk_spin_down\"",
            "\"event\":\"flash_clean_start\"",
            "\"event\":\"flash_clean_end\"",
            "\"event\":\"fault_injected\"",
            "\"event\":\"power_fail\"",
            "\"event\":\"recovery_end\"",
        ] {
            assert!(events.contains(needle), "missing {needle}");
        }
        // Every line is context-prefixed and sim-time-stamped.
        for line in events.lines().take(50) {
            assert!(line.starts_with("{\"workload\":\""), "{line}");
            assert!(line.contains("\"t_ns\":"), "{line}");
        }
    }

    #[test]
    fn report_is_deterministic() {
        let a = format!("{}", run(Scale::quick(), false, false));
        let b = format!("{}", run(Scale::quick(), false, true));
        assert_eq!(a, b, "span collection must not perturb the report");
    }

    #[test]
    fn span_collection_covers_op_and_device_phases() {
        let o = run(Scale::quick(), false, true);
        let procs = o.span_processes().expect("span collection was on");
        assert_eq!(procs.len(), WORKLOADS.len() * DEVICES.len());
        let names: Vec<&str> = procs
            .iter()
            .flat_map(|(_, spans)| spans.iter().map(|s| s.kind.name()))
            .collect();
        for needle in [
            "op/read",
            "op/write",
            "cache_lookup",
            "disk_seek",
            "cleaning",
        ] {
            assert!(names.contains(&needle), "missing span {needle}");
        }
    }
}
