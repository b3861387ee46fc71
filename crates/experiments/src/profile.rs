//! The `repro profile` target: per-cell op, event and span counts for
//! the simulator's hot paths.
//!
//! Walks the observe grid once per cell through four stages
//! ([`PHASES`]): fetch the trace, replay it unobserved (the
//! `NoopObserver` fast path the default targets run), replay it again
//! with a counting + span-counting observer, and fold the unobserved
//! metrics into a running total. The two replays must agree on every
//! op, which pins that observing a run never changes its results.
//!
//! Everything on stdout is a simulated count, pinned by a golden
//! fixture. Host time is measured by perfbench (`perfbench/`), whose
//! traced run splits it by layer.

use std::fmt;

use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::{simulate, simulate_observed, RunOptions};
use mobistore_sim::obs::{Event, Observer};
use mobistore_sim::span::Span;
use mobistore_workload::Workload;

use crate::observe::{cell_config, ObserveDevice, DEVICES, WORKLOADS};
use crate::{shared_trace, Scale};

/// Counts events and spans without retaining them.
#[derive(Default)]
struct CountingCollector {
    events: u64,
    spans: u64,
}

impl Observer for CountingCollector {
    fn record(&mut self, _event: &Event) {
        self.events += 1;
    }

    fn span(&mut self, _span: &Span) {
        self.spans += 1;
    }
}

/// One profiled cell: deterministic simulation counts only.
#[derive(Debug, Clone)]
pub struct ProfileCell {
    /// Which trace.
    pub workload: Workload,
    /// Which device.
    pub device: ObserveDevice,
    /// Operations the cell replayed.
    pub ops: u64,
    /// Events the observed run recorded.
    pub events: u64,
    /// Sim-time spans the observed run emitted.
    pub spans: u64,
}

/// The profile run: per-cell counts.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Workload-major, device-minor cells.
    pub cells: Vec<ProfileCell>,
    /// Operations across all cells, recomputed through the fold stage.
    pub total_ops: u64,
}

/// The stages each cell runs, in order.
pub const PHASES: [&str; 4] = [
    "trace_decode",
    "device_dispatch",
    "observed_dispatch",
    "metrics_fold",
];

/// Runs the profile grid serially.
pub fn run(scale: Scale) -> Profile {
    let mut cells = Vec::new();
    let mut fold = Metrics::empty("profile/all");
    for workload in WORKLOADS {
        for device in DEVICES {
            let trace = shared_trace(workload, scale);
            let cfg = cell_config(workload, device, &trace);
            let noop = simulate(&cfg, &trace);
            let mut obs = CountingCollector::default();
            let observed = simulate_observed(&cfg, &trace, RunOptions::default(), &mut obs);
            assert_eq!(
                noop.overall_response_ms.count, observed.overall_response_ms.count,
                "observer must not change simulation results"
            );
            fold.merge(&noop);
            cells.push(ProfileCell {
                workload,
                device,
                ops: observed.overall_response_ms.count,
                events: obs.events,
                spans: obs.spans,
            });
        }
    }
    Profile {
        cells,
        total_ops: fold.overall_response_ms.count,
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `tests/golden/profile.txt` pins this header byte for byte,
        // parenthetical included, though no stderr table is printed.
        writeln!(
            f,
            "Host profile: per-cell simulation counts \
             (wall-clock phase table goes to stderr)"
        )?;
        writeln!(
            f,
            "  {:<24} {:>9} {:>9} {:>9}",
            "cell", "ops", "events", "spans"
        )?;
        for cell in &self.cells {
            writeln!(
                f,
                "  {:<24} {:>9} {:>9} {:>9}",
                format!("{} x {}", cell.workload.name(), cell.device.name()),
                cell.ops,
                cell.events,
                cell.spans
            )?;
        }
        writeln!(
            f,
            "  total {} ops across {} cells; phases: {}",
            self.total_ops,
            self.cells.len(),
            PHASES.join(", ")
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_counts_are_deterministic_and_nonzero() {
        let a = run(Scale::quick());
        let b = run(Scale::quick());
        assert_eq!(a.cells.len(), WORKLOADS.len() * DEVICES.len());
        assert_eq!(format!("{a}"), format!("{b}"));
        for cell in &a.cells {
            assert!(cell.ops > 0);
            assert!(cell.events > cell.ops, "every op records >= 2 events");
            assert!(cell.spans > 0, "observed run must emit spans");
        }
        assert_eq!(a.total_ops, a.cells.iter().map(|c| c.ops).sum::<u64>());
    }
}
