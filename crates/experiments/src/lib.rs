//! Experiment runners that regenerate every table and figure of *Storage
//! Alternatives for Mobile Computers* (Douglis et al., OSDI '94).
//!
//! Each module reproduces one paper artefact and documents the paper's
//! published values next to the regenerated ones:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`table1`] | Table 1 — measured micro-benchmark throughput |
//! | [`table2`] | Table 2 — device specifications |
//! | [`table3`] | Table 3 — trace characteristics |
//! | [`table4`] | Table 4(a–c) — energy and response per device per trace |
//! | [`figure1`] | Figure 1 — write latency/throughput vs cumulative KB |
//! | [`figure2`] | Figure 2 — energy & write response vs flash utilization |
//! | [`figure3`] | Figure 3 — OmniBook throughput vs cumulative MB |
//! | [`figure4`] | Figure 4 — energy & response vs DRAM and flash size |
//! | [`figure5`] | Figure 5 — normalized energy & response vs SRAM size |
//! | [`async_cleaning`] | §5.3 — SDP5A asynchronous cleaning |
//! | [`endurance`] | §5.2 — erasures per segment vs utilization |
//! | [`verification`] | §5.1 — testbed-vs-simulator cross-check on `synth` |
//! | [`battery`] | §1/§7 — battery-life extension |
//! | [`ablations`] | cleaning policy, write-back cache, spin-down sweep, flash+SRAM |
//! | [`next_gen`] | Series 2+ projection, wear leveling, card lifetime |
//! | [`sensitivity`] | undocumented-constant perturbations |
//! | [`related`] | §6 eNVy cleaning-duty-cycle cross-check |
//! | [`reliability`] | fault-rate sweep with crash recovery (beyond the paper) |
//! | [`observe`] | state residency + latency percentiles per workload × device |
//! | [`crashcheck`] | crash-consistency torture sweep + end-of-life degradation |
//! | [`integrity`] | wear-coupled bit errors, ECC + read-retry, scrubbing |
//! | [`fleet`] | fleet-scale sharded simulation with merged metrics |
//! | [`durability`] | Reed-Solomon k+m arrays under device deaths (beyond the paper) |
//! | [`profile`] | per-cell op, event and span counts, observed vs unobserved |
//!
//! [`render`] turns any named target into its exact stdout bytes, shared
//! by the `repro` binary and the golden snapshot tests.
//!
//! Every runner takes a [`Scale`], so tests can run abbreviated versions
//! while the `repro` binary regenerates the full-length experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod async_cleaning;
pub mod battery;
pub mod ckpt;
pub mod crashcheck;
pub mod csv;
pub mod durability;
pub mod endurance;
pub mod export;
pub mod figure1;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod fleet;
pub mod integrity;
pub mod next_gen;
pub mod observe;
pub mod plot;
pub mod profile;
pub mod related;
pub mod reliability;
pub mod render;
pub mod sensitivity;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod verification;

use std::sync::Arc;

use mobistore_core::config::SystemConfig;
use mobistore_device::params::FlashCardParams;
use mobistore_sim::units::MIB;
use mobistore_trace::record::{DiskOpKind, Trace};
use mobistore_workload::Workload;

/// How much of each workload to run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fraction of the full trace duration/operation count.
    pub fraction: f64,
    /// RNG seed for workload generation.
    pub seed: u64,
}

impl Scale {
    /// The paper-length experiments (the `repro` binary's default).
    pub fn full() -> Self {
        Scale {
            fraction: 1.0,
            seed: 1994,
        }
    }

    /// An abbreviated scale for unit tests and debug builds.
    pub fn quick() -> Self {
        Scale {
            fraction: 0.02,
            seed: 1994,
        }
    }
}

/// Fetches `workload` at this scale through the process-wide
/// [`mobistore_workload::cache`], so every runner shares one generation
/// of each trace per `repro` invocation.
pub fn shared_trace(workload: Workload, scale: Scale) -> Arc<Trace> {
    mobistore_workload::cache::trace(workload, scale.fraction, scale.seed)
}

/// Counts the distinct blocks a trace touches (its flash working set).
///
/// Works on merged `(start, end)` block ranges rather than materializing
/// one entry per block, so a multi-megabyte op costs O(1) here and the
/// whole computation is O(ops log ops) — not O(blocks).
pub fn working_set_blocks(trace: &Trace) -> u64 {
    let mut ranges: Vec<(u64, u64)> = trace
        .ops
        .iter()
        .filter(|op| op.kind != DiskOpKind::Trim)
        .map(|op| (op.lbn, op.lbn + u64::from(op.blocks)))
        .collect();
    ranges.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in ranges {
        match &mut current {
            Some((_, cur_end)) if start <= *cur_end => *cur_end = (*cur_end).max(end),
            _ => {
                if let Some((s, e)) = current.replace((start, end)) {
                    total += e - s;
                }
            }
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Builds a flash-card configuration whose capacity can hold `trace`'s
/// working set at the requested utilization: the paper's 40-Mbyte default
/// when it fits, otherwise the smallest sufficient whole-segment capacity
/// ("we set the size of the flash to be large relative to the size of the
/// trace", §5.2).
pub fn flash_card_config(params: FlashCardParams, trace: &Trace, utilization: f64) -> SystemConfig {
    let seg = params.segment_size;
    let w_bytes = working_set_blocks(trace) * trace.block_size;
    let needed = (w_bytes as f64 / utilization) as u64 + 2 * seg;
    let capacity = (40 * MIB).max(needed.div_ceil(seg) * seg);
    SystemConfig::flash_card(params)
        .with_flash_capacity(capacity)
        .with_utilization(utilization)
}

/// Right-pads or truncates to form fixed-width table cells.
pub fn pad(s: &str, width: usize) -> String {
    let mut out = String::with_capacity(width);
    for (i, c) in s.chars().enumerate() {
        if i == width {
            break;
        }
        out.push(c);
    }
    while out.chars().count() < width {
        out.push(' ');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_device::params::intel_datasheet;
    use mobistore_sim::time::SimTime;
    use mobistore_trace::record::{DiskOp, FileId};

    #[test]
    fn working_set_ignores_trims_and_dedups() {
        let mut t = Trace::new(1024);
        t.push(DiskOp {
            time: SimTime::ZERO,
            kind: DiskOpKind::Write,
            lbn: 0,
            blocks: 4,
            file: FileId(0),
        });
        t.push(DiskOp {
            time: SimTime::ZERO,
            kind: DiskOpKind::Read,
            lbn: 2,
            blocks: 4,
            file: FileId(0),
        });
        t.push(DiskOp {
            time: SimTime::ZERO,
            kind: DiskOpKind::Trim,
            lbn: 100,
            blocks: 4,
            file: FileId(0),
        });
        assert_eq!(working_set_blocks(&t), 6);
    }

    #[test]
    fn flash_config_grows_capacity_when_needed() {
        let mut t = Trace::new(1024);
        // A 50-MB working set cannot fit in 40 MB at 90%.
        t.push(DiskOp {
            time: SimTime::ZERO,
            kind: DiskOpKind::Write,
            lbn: 0,
            blocks: 50 * 1024,
            file: FileId(0),
        });
        let cfg = flash_card_config(intel_datasheet(), &t, 0.9);
        match cfg.backend {
            mobistore_core::config::BackendConfig::FlashCard { capacity_bytes, .. } => {
                assert!(capacity_bytes > 40 * MIB);
                assert_eq!(capacity_bytes % intel_datasheet().segment_size, 0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn pad_fixes_width() {
        assert_eq!(pad("abc", 5), "abc  ");
        assert_eq!(pad("abcdef", 4), "abcd");
    }
}
