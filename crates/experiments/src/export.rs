//! Machine-readable metrics export (`repro --metrics-out`).
//!
//! Serializes the [`Metrics`] rows collected by the rendered targets into
//! one versioned JSON document (schema tag [`METRICS_SCHEMA`]). The JSON
//! is hand-rolled — the workspace is std-only — and deterministic: keys
//! are emitted in a fixed order, counters come from a sorted
//! [`CounterRegistry`](mobistore_sim::obs::CounterRegistry), every
//! duration is integer sim-time nanoseconds, and floats go through one
//! finite-guarded formatter. Targets run through
//! [`parallel_map`](mobistore_sim::exec::parallel_map) in request order,
//! so the document is byte-identical at any `--jobs` count.

use std::fmt::Write as _;

use mobistore_core::metrics::Metrics;
use mobistore_sim::hist::{Histogram, Percentiles};
use mobistore_sim::obs::json_string as jstr;
use mobistore_sim::stats::Summary;

use crate::Scale;

/// Version tag carried in the document's `schema` field. Bump on any
/// incompatible layout change.
pub const METRICS_SCHEMA: &str = "mobistore-metrics/1";

/// Version tag of the per-target `fleet` block the `fleet` target emits.
pub const FLEET_SCHEMA: &str = "mobistore-fleet/1";

/// Version tag of the per-target `durability` block the `durability`
/// target emits.
pub const DURABILITY_SCHEMA: &str = "mobistore-durability/1";

/// Durability sweep parameters, embedded in the `durability` target's
/// entry as a versioned `durability` object so consumers can re-derive
/// the sweep grid.
#[derive(Debug, Clone)]
pub struct DurabilityInfo {
    /// The `k+m` geometries the sweep ran.
    pub geometries: Vec<(usize, usize)>,
    /// The device-death rates the sweep ran.
    pub death_rates: Vec<f64>,
    /// Background rebuild pacing, stripes per second.
    pub rebuild_rate: f64,
    /// The death-schedule seed.
    pub seed: u64,
}

/// Fleet sharding parameters plus the supervisor's quarantine ledger,
/// embedded in the `fleet` target's entry as a versioned `fleet` object
/// so consumers can re-derive the shard map and know exactly which
/// shards the rollups cover.
#[derive(Debug, Clone)]
pub struct FleetInfo {
    /// Number of shards the fleet ran.
    pub shards: u32,
    /// User population hashed onto the shards.
    pub population: u64,
    /// The fleet seed.
    pub seed: u64,
    /// Shards that completed; every rollup covers exactly these.
    pub survivors: u32,
    /// `(shard, attempts, cause)` for each quarantined shard, in index
    /// order.
    pub quarantined: Vec<(u32, u32, String)>,
}

/// One target's contribution to the export document.
#[derive(Debug, Clone, Copy)]
pub struct TargetExport<'a> {
    /// Target name.
    pub target: &'a str,
    /// The metrics rows the target produced.
    pub rows: &'a [Metrics],
    /// Fleet block, set only by the `fleet` target.
    pub fleet: Option<&'a FleetInfo>,
    /// Durability block, set only by the `durability` target.
    pub durability: Option<&'a DurabilityInfo>,
}

/// Formats a float for JSON: plain shortest-roundtrip decimal, with
/// non-finite values clamped to 0 (JSON has no NaN/Infinity).
pub(crate) fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// One latency block: moments from the `Summary`, percentiles from the
/// log-bucketed histogram.
fn latency_json(summary: &Summary, hist: &Histogram) -> String {
    let Percentiles {
        p50,
        p90,
        p99,
        p999,
    } = hist.percentiles_ms();
    let min = if summary.count == 0 { 0.0 } else { summary.min };
    let max = if summary.count == 0 { 0.0 } else { summary.max };
    format!(
        "{{\"count\":{},\"mean_ms\":{},\"min_ms\":{},\"max_ms\":{},\"std_ms\":{},\
         \"p50_ms\":{},\"p90_ms\":{},\"p99_ms\":{},\"p999_ms\":{}}}",
        summary.count,
        jnum(summary.mean),
        jnum(min),
        jnum(max),
        jnum(summary.std),
        jnum(p50),
        jnum(p90),
        jnum(p99),
        jnum(p999),
    )
}

/// Serializes one metrics row.
fn row_json(m: &Metrics) -> String {
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"name\":{},\"energy_j\":{},\"duration_ns\":{},\"mean_power_w\":{}",
        jstr(&m.name),
        jnum(m.energy.get()),
        m.duration.as_nanos(),
        jnum(m.mean_power_w()),
    );
    let _ = write!(
        s,
        ",\"read\":{},\"write\":{},\"overall\":{}",
        latency_json(&m.read_response_ms, &m.read_latency),
        latency_json(&m.write_response_ms, &m.write_latency),
        latency_json(&m.overall_response_ms, &m.overall_latency),
    );
    s.push_str(",\"states\":[");
    for (i, (state, energy, dur)) in m.backend_states.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"state\":{},\"energy_j\":{},\"time_ns\":{}}}",
            jstr(state),
            jnum(energy.get()),
            dur.as_nanos()
        );
    }
    s.push(']');
    let _ = write!(s, ",\"counters\":{}", m.counters().to_json());
    s.push('}');
    s
}

/// Serializes the whole document: one entry per rendered target, in
/// request order, each carrying the metrics rows that target produced
/// (empty for targets that report derived values only) plus, for the
/// `fleet` target, its versioned [`FleetInfo`] block.
pub fn metrics_json(scale: Scale, targets: &[TargetExport<'_>]) -> String {
    let mut s = String::with_capacity(4096);
    let _ = write!(
        s,
        "{{\"schema\":{},\"scale\":{},\"seed\":{},\"targets\":[",
        jstr(METRICS_SCHEMA),
        jnum(scale.fraction),
        scale.seed
    );
    for (i, entry) in targets.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"target\":{}", jstr(entry.target));
        if let Some(fleet) = entry.fleet {
            let _ = write!(
                s,
                ",\"fleet\":{{\"schema\":{},\"shards\":{},\"population\":{},\"seed\":{}",
                jstr(FLEET_SCHEMA),
                fleet.shards,
                fleet.population,
                fleet.seed
            );
            let coverage = f64::from(fleet.survivors) / f64::from(fleet.shards.max(1));
            let _ = write!(
                s,
                ",\"survivors\":{},\"coverage\":{}",
                fleet.survivors,
                jnum(coverage)
            );
            let _ = write!(
                s,
                ",\"quarantined\":{{\"count\":{},\"shards\":[",
                fleet.quarantined.len()
            );
            for (j, (shard, _, _)) in fleet.quarantined.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{shard}");
            }
            s.push_str("],\"causes\":[");
            for (j, (shard, attempts, cause)) in fleet.quarantined.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"shard\":{shard},\"attempts\":{attempts},\"cause\":{}}}",
                    jstr(cause)
                );
            }
            s.push_str("]}}");
        }
        if let Some(d) = entry.durability {
            let _ = write!(
                s,
                ",\"durability\":{{\"schema\":{}",
                jstr(DURABILITY_SCHEMA)
            );
            s.push_str(",\"geometries\":[");
            for (j, (k, m)) in d.geometries.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&jstr(&format!("{k}+{m}")));
            }
            s.push_str("],\"death_rates\":[");
            for (j, rate) in d.death_rates.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&jnum(*rate));
            }
            let _ = write!(
                s,
                "],\"rebuild_rate\":{},\"seed\":{}}}",
                jnum(d.rebuild_rate),
                d.seed
            );
        }
        s.push_str(",\"rows\":[");
        for (j, row) in entry.rows.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&row_json(row));
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_core::simulator::simulate;
    use mobistore_device::params::sdp5_datasheet;
    use mobistore_sim::time::SimTime;
    use mobistore_trace::record::{DiskOp, DiskOpKind, FileId, Trace};

    fn metrics() -> Metrics {
        let mut trace = Trace::new(1024);
        for i in 0..40 {
            trace.push(DiskOp {
                time: SimTime::from_secs_f64(i as f64 * 0.05),
                kind: if i % 2 == 0 {
                    DiskOpKind::Write
                } else {
                    DiskOpKind::Read
                },
                lbn: i % 8,
                blocks: 1,
                file: FileId(0),
            });
        }
        let mut m = simulate(
            &mobistore_core::config::SystemConfig::flash_disk(sdp5_datasheet()),
            &trace,
        );
        m.name = "test/flash".into();
        m
    }

    #[test]
    fn document_carries_schema_rows_and_percentiles() {
        let m = metrics();
        let doc = metrics_json(
            Scale::quick(),
            &[TargetExport {
                target: "observe",
                rows: std::slice::from_ref(&m),
                fleet: None,
                durability: None,
            }],
        );
        assert!(doc.starts_with("{\"schema\":\"mobistore-metrics/1\""));
        assert!(doc.contains("\"target\":\"observe\""));
        assert!(doc.contains("\"name\":\"test/flash\""));
        for field in [
            "p50_ms", "p90_ms", "p99_ms", "p999_ms", "counters", "states",
        ] {
            assert!(doc.contains(field), "missing {field}");
        }
        // Balanced braces/brackets (cheap well-formedness check; the CI jq
        // script does the real validation).
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn strings_and_nonfinite_floats_are_sanitized() {
        assert_eq!(jstr("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(jnum(f64::INFINITY), "0");
        assert_eq!(jnum(f64::NAN), "0");
        assert_eq!(jnum(1.5), "1.5");
    }

    #[test]
    fn empty_target_list_is_valid() {
        let doc = metrics_json(
            Scale::quick(),
            &[TargetExport {
                target: "table1",
                rows: &[],
                fleet: None,
                durability: None,
            }],
        );
        assert!(doc.contains("\"target\":\"table1\",\"rows\":[]"));
    }

    #[test]
    fn fleet_block_is_versioned_and_placed_in_its_target() {
        let info = FleetInfo {
            shards: 64,
            population: 512,
            seed: 1994,
            survivors: 64,
            quarantined: Vec::new(),
        };
        let doc = metrics_json(
            Scale::quick(),
            &[TargetExport {
                target: "fleet",
                rows: &[],
                fleet: Some(&info),
                durability: None,
            }],
        );
        assert!(doc.contains(
            "\"target\":\"fleet\",\"fleet\":{\"schema\":\"mobistore-fleet/1\",\
             \"shards\":64,\"population\":512,\"seed\":1994,\
             \"survivors\":64,\"coverage\":1,\
             \"quarantined\":{\"count\":0,\"shards\":[],\"causes\":[]}}"
        ));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn fleet_block_carries_the_quarantine_ledger() {
        let info = FleetInfo {
            shards: 64,
            population: 512,
            seed: 1994,
            survivors: 62,
            quarantined: vec![
                (7, 3, "chaos: injected panic (shard 7 attempt 2)".into()),
                (40, 3, "index out of bounds".into()),
            ],
        };
        let doc = metrics_json(
            Scale::quick(),
            &[TargetExport {
                target: "fleet",
                rows: &[],
                fleet: Some(&info),
                durability: None,
            }],
        );
        assert!(doc.contains("\"survivors\":62,\"coverage\":0.96875"));
        assert!(doc.contains("\"quarantined\":{\"count\":2,\"shards\":[7,40]"));
        assert!(doc.contains(
            "{\"shard\":7,\"attempts\":3,\
             \"cause\":\"chaos: injected panic (shard 7 attempt 2)\"}"
        ));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn durability_block_is_versioned_and_placed_in_its_target() {
        let info = DurabilityInfo {
            geometries: vec![(2, 1), (4, 2)],
            death_rates: vec![0.0, 4.0],
            rebuild_rate: 128.0,
            seed: 1994,
        };
        let doc = metrics_json(
            Scale::quick(),
            &[TargetExport {
                target: "durability",
                rows: &[],
                fleet: None,
                durability: Some(&info),
            }],
        );
        assert!(doc.contains(
            "\"target\":\"durability\",\"durability\":{\
             \"schema\":\"mobistore-durability/1\",\
             \"geometries\":[\"2+1\",\"4+2\"],\"death_rates\":[0,4],\
             \"rebuild_rate\":128,\"seed\":1994}"
        ));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }
}
