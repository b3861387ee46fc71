//! Sim-time span tracing and Chrome trace-event export.
//!
//! Where [`crate::obs::Event`] reports instants, a [`Span`] reports an
//! *interval* of simulated time: an op from issue to completion, a disk
//! seek, a flash program, a cleaning pass. Spans ride the same
//! [`Observer`](crate::obs::Observer) channel as events — the trait's
//! `span` method defaults to nothing, so the `NoopObserver` path still
//! monomorphises away and no golden snapshot can change.
//!
//! Spans are emitted as **completed intervals** (start + end in one
//! record, never enter/exit pairs), stamped with sim time only, in the
//! simulator's single-threaded processing order. That makes any
//! serialized span stream byte-identical at every `--jobs` count.
//!
//! [`chrome_trace_json`] renders a set of span streams as a Chrome
//! trace-event JSON document (schema [`TRACE_SCHEMA`]) that loads
//! directly in Perfetto or `chrome://tracing`: one process per
//! simulation cell, one thread group per track (`ops`, `cache`,
//! `device`), with overlapping spans deterministically packed onto
//! extra lanes so every rendered lane is well-nested.

use std::fmt::Write as _;

use crate::obs::{json_string, OpKind};
use crate::time::{SimDuration, SimTime};

/// Schema tag written at the top of every trace document.
pub const TRACE_SCHEMA: &str = "mobistore-trace/1";

/// What a span measured.
///
/// Payloads are integers only (plus [`OpKind`]), like [`crate::obs::Event`],
/// so serialization is trivially deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A trace operation, issue to completion (queue + service).
    Op {
        /// Operation class.
        kind: OpKind,
        /// First logical block touched.
        lbn: u64,
        /// Number of blocks touched.
        blocks: u32,
    },
    /// The DRAM buffer cache probed and served (part of) a read.
    CacheLookup {
        /// Blocks found in the cache.
        hits: u32,
        /// Blocks that must go to the backend.
        misses: u32,
    },
    /// The magnetic disk moved the arm and waited out rotation.
    DiskSeek,
    /// The magnetic disk transferred data.
    DiskTransfer {
        /// Bytes transferred.
        bytes: u64,
    },
    /// A flash device served a read (including ECC decode time).
    FlashRead {
        /// Bytes read.
        bytes: u64,
    },
    /// A flash device programmed pages.
    FlashProgram {
        /// Bytes programmed.
        bytes: u64,
    },
    /// A flash device erased garbage (the flash disk's background
    /// pre-erase).
    FlashErase {
        /// Bytes erased.
        bytes: u64,
    },
    /// The flash card cleaned a victim segment (copy live + erase).
    Cleaning {
        /// Victim segment index.
        victim: u32,
    },
    /// The background scrubber read one segment.
    Scrub {
        /// Segment scrubbed.
        segment: u32,
    },
    /// Post-power-failure recovery (log scan / FAT replay / spin-up).
    Recovery,
    /// A marginal block read was recovered by bounded read-retry.
    EccRetry {
        /// The block that needed retries.
        lbn: u64,
        /// Retry attempts the recovery cost.
        attempts: u32,
    },
    /// An erasure-coded array decoded a read from survivors after shard
    /// loss (dead child or uncorrectable shard).
    DegradedRead {
        /// The logical block served degraded.
        lbn: u64,
        /// Shards missing from the block's stripe.
        lost: u32,
    },
    /// The array's background reconstructor rebuilt stripes onto a hot
    /// spare.
    Rebuild {
        /// First stripe rebuilt in this batch.
        stripe: u64,
        /// Stripes rebuilt in this batch.
        stripes: u32,
    },
    /// An array write derived and stored parity shards.
    ParityUpdate {
        /// The stripe whose parity was rewritten.
        stripe: u64,
    },
}

impl SpanKind {
    /// Stable snake_case span name (the Chrome event `name`).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Op { kind, .. } => match kind {
                OpKind::Read => "op/read",
                OpKind::Write => "op/write",
                OpKind::Trim => "op/trim",
            },
            SpanKind::CacheLookup { .. } => "cache_lookup",
            SpanKind::DiskSeek => "disk_seek",
            SpanKind::DiskTransfer { .. } => "disk_transfer",
            SpanKind::FlashRead { .. } => "flash_read",
            SpanKind::FlashProgram { .. } => "flash_program",
            SpanKind::FlashErase { .. } => "flash_erase",
            SpanKind::Cleaning { .. } => "cleaning",
            SpanKind::Scrub { .. } => "scrub",
            SpanKind::Recovery => "recovery",
            SpanKind::EccRetry { .. } => "ecc_retry",
            SpanKind::DegradedRead { .. } => "degraded_read",
            SpanKind::Rebuild { .. } => "rebuild",
            SpanKind::ParityUpdate { .. } => "parity_update",
        }
    }

    /// The track (rendered thread group) this span belongs to: `"ops"`
    /// for whole operations, `"cache"` for buffer-cache work, `"device"`
    /// for everything the backing device does.
    pub fn track(&self) -> &'static str {
        match self {
            SpanKind::Op { .. } => "ops",
            SpanKind::CacheLookup { .. } => "cache",
            _ => "device",
        }
    }

    /// The span's Chrome `args` object fields (no enclosing braces;
    /// empty for payload-free spans).
    pub fn args_json(&self) -> String {
        let mut s = String::new();
        match *self {
            SpanKind::Op { kind, lbn, blocks } => {
                let _ = write!(
                    s,
                    "\"op\":\"{}\",\"lbn\":{lbn},\"blocks\":{blocks}",
                    kind.name()
                );
            }
            SpanKind::CacheLookup { hits, misses } => {
                let _ = write!(s, "\"hits\":{hits},\"misses\":{misses}");
            }
            SpanKind::DiskSeek | SpanKind::Recovery => {}
            SpanKind::DiskTransfer { bytes }
            | SpanKind::FlashRead { bytes }
            | SpanKind::FlashProgram { bytes }
            | SpanKind::FlashErase { bytes } => {
                let _ = write!(s, "\"bytes\":{bytes}");
            }
            SpanKind::Cleaning { victim } => {
                let _ = write!(s, "\"victim\":{victim}");
            }
            SpanKind::Scrub { segment } => {
                let _ = write!(s, "\"segment\":{segment}");
            }
            SpanKind::EccRetry { lbn, attempts } => {
                let _ = write!(s, "\"lbn\":{lbn},\"attempts\":{attempts}");
            }
            SpanKind::DegradedRead { lbn, lost } => {
                let _ = write!(s, "\"lbn\":{lbn},\"lost\":{lost}");
            }
            SpanKind::Rebuild { stripe, stripes } => {
                let _ = write!(s, "\"stripe\":{stripe},\"stripes\":{stripes}");
            }
            SpanKind::ParityUpdate { stripe } => {
                let _ = write!(s, "\"stripe\":{stripe}");
            }
        }
        s
    }
}

/// One completed interval of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the interval measured.
    pub kind: SpanKind,
    /// Interval start (sim time).
    pub start: SimTime,
    /// Interval end (sim time, `>= start`).
    pub end: SimTime,
}

impl Span {
    /// Creates a span.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `end < start`.
    pub fn new(kind: SpanKind, start: SimTime, end: SimTime) -> Self {
        debug_assert!(end >= start, "span ends before it starts: {kind:?}");
        Span { kind, start, end }
    }

    /// The interval's length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// An observer that keeps every span and ignores events (tests, the
/// `profile` target, and `--trace-out` collection).
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    /// Every span, in emission order.
    pub spans: Vec<Span>,
}

impl crate::obs::Observer for SpanRecorder {
    #[inline(always)]
    fn record(&mut self, _event: &crate::obs::Event) {}

    fn span(&mut self, span: &Span) {
        self.spans.push(*span);
    }
}

/// Formats a nanosecond count as Chrome's microsecond `ts`/`dur` value
/// with exactly three decimals — deterministic, no float formatting.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// The fixed rendering order of tracks within a process.
const TRACKS: [&str; 3] = ["ops", "cache", "device"];

/// Renders span streams as a Chrome trace-event JSON document.
///
/// Each `(name, spans)` pair becomes one trace *process* (a simulation
/// cell such as `"mac x cu140-disk"`); within a process, spans are
/// grouped by [`SpanKind::track`] and packed onto lanes (threads): each
/// span goes to the first lane whose previous span ended at or before
/// its start, so every lane's spans are disjoint-or-nested and the
/// packing is a pure function of the span set. Overlap across lanes is
/// real — the simulator's open-loop ops do queue behind each other.
///
/// The document is deterministic byte-for-byte: spans are sorted by
/// `(start, end, name)`, timestamps are integers formatted as fixed
/// 3-decimal microseconds, and the only strings are stable names.
/// Perfetto ignores the extra top-level `schema` key.
pub fn chrome_trace_json(processes: &[(String, Vec<Span>)]) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"schema\":\"{TRACE_SCHEMA}\",\"displayTimeUnit\":\"ns\",\"traceEvents\":["
    );
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&ev);
    };

    for (pi, (name, spans)) in processes.iter().enumerate() {
        let pid = pi + 1;
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{}}}}}",
                json_string(name)
            ),
        );

        // Deterministic order regardless of emission order: background
        // work (cleaning, pre-erase) is reported at settle time, later
        // than its sim-time start.
        let mut sorted: Vec<&Span> = spans.iter().collect();
        sorted.sort_by_key(|s| (s.start, s.end, s.kind.name()));

        let mut tid = 0usize;
        let mut metadata = Vec::new();
        let mut events = Vec::new();
        for track in TRACKS {
            // Greedy lane packing: first lane whose last span ended by
            // this span's start.
            let mut lane_ends: Vec<SimTime> = Vec::new();
            let mut lane_tids: Vec<usize> = Vec::new();
            for span in sorted.iter().filter(|s| s.kind.track() == track) {
                let lane = match lane_ends.iter().position(|&end| end <= span.start) {
                    Some(lane) => lane,
                    None => {
                        tid += 1;
                        lane_ends.push(SimTime::ZERO);
                        lane_tids.push(tid);
                        let label = if lane_ends.len() == 1 {
                            track.to_owned()
                        } else {
                            format!("{track}/{}", lane_ends.len() - 1)
                        };
                        metadata.push(format!(
                            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{label}\"}}}}"
                        ));
                        lane_ends.len() - 1
                    }
                };
                lane_ends[lane] = span.end.max(lane_ends[lane]);
                let args = span.kind.args_json();
                let mut ev = format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{}",
                    span.kind.name(),
                    ts_us(span.start.as_nanos()),
                    ts_us(span.duration().as_nanos()),
                    lane_tids[lane]
                );
                if args.is_empty() {
                    ev.push('}');
                } else {
                    let _ = write!(ev, ",\"args\":{{{args}}}}}");
                }
                events.push(ev);
            }
        }
        for m in metadata {
            push(&mut out, m);
        }
        for e in events {
            push(&mut out, e);
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Observer;

    fn s(kind: SpanKind, start: u64, end: u64) -> Span {
        Span::new(kind, SimTime::from_nanos(start), SimTime::from_nanos(end))
    }

    #[test]
    fn names_and_tracks_are_stable() {
        let op = SpanKind::Op {
            kind: OpKind::Read,
            lbn: 1,
            blocks: 2,
        };
        assert_eq!(op.name(), "op/read");
        assert_eq!(op.track(), "ops");
        assert_eq!(
            SpanKind::CacheLookup { hits: 1, misses: 0 }.track(),
            "cache"
        );
        assert_eq!(SpanKind::DiskSeek.track(), "device");
        assert_eq!(SpanKind::Recovery.args_json(), "");
        assert_eq!(
            SpanKind::EccRetry {
                lbn: 9,
                attempts: 2
            }
            .args_json(),
            "\"lbn\":9,\"attempts\":2"
        );
        let degraded = SpanKind::DegradedRead { lbn: 7, lost: 2 };
        assert_eq!(degraded.name(), "degraded_read");
        assert_eq!(degraded.track(), "device");
        assert_eq!(degraded.args_json(), "\"lbn\":7,\"lost\":2");
        let rebuild = SpanKind::Rebuild {
            stripe: 64,
            stripes: 8,
        };
        assert_eq!(rebuild.name(), "rebuild");
        assert_eq!(rebuild.track(), "device");
        assert_eq!(rebuild.args_json(), "\"stripe\":64,\"stripes\":8");
        let parity = SpanKind::ParityUpdate { stripe: 3 };
        assert_eq!(parity.name(), "parity_update");
        assert_eq!(parity.track(), "device");
        assert_eq!(parity.args_json(), "\"stripe\":3");
    }

    #[test]
    fn ts_is_fixed_three_decimal_microseconds() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(1), "0.001");
        assert_eq!(ts_us(1_500), "1.500");
        assert_eq!(ts_us(2_000_042), "2000.042");
    }

    #[test]
    fn recorder_keeps_spans_in_order() {
        let mut rec = SpanRecorder::default();
        rec.span(&s(SpanKind::DiskSeek, 10, 20));
        rec.span(&s(SpanKind::DiskTransfer { bytes: 512 }, 20, 30));
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[0].duration(), SimDuration::from_nanos(10));
    }

    #[test]
    fn overlapping_spans_pack_onto_separate_lanes() {
        let op = |lbn| SpanKind::Op {
            kind: OpKind::Write,
            lbn,
            blocks: 1,
        };
        // Two overlapping ops need two lanes; the third reuses lane 0.
        let doc = chrome_trace_json(&[(
            "cell".to_owned(),
            vec![s(op(1), 0, 100), s(op(2), 50, 150), s(op(3), 100, 200)],
        )]);
        assert!(doc.starts_with("{\"schema\":\"mobistore-trace/1\""));
        assert!(doc.contains("\"name\":\"ops\""));
        assert!(doc.contains("\"name\":\"ops/1\""));
        assert!(!doc.contains("\"name\":\"ops/2\""));
        // Emission order must not matter.
        let shuffled = chrome_trace_json(&[(
            "cell".to_owned(),
            vec![s(op(3), 100, 200), s(op(1), 0, 100), s(op(2), 50, 150)],
        )]);
        assert_eq!(doc, shuffled);
    }

    #[test]
    fn document_shape_is_chrome_compatible() {
        let doc = chrome_trace_json(&[(
            "mac x disk".to_owned(),
            vec![s(SpanKind::DiskSeek, 1_000, 2_500)],
        )]);
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"mac x disk\"}}"
        ));
        assert!(doc.contains(
            "{\"name\":\"disk_seek\",\"ph\":\"X\",\"ts\":1.000,\"dur\":1.500,\"pid\":1,\"tid\":1}"
        ));
        assert!(doc.ends_with("]}"));
    }

    #[test]
    fn process_names_are_escaped() {
        let doc = chrome_trace_json(&[("a\"b\\c".to_owned(), Vec::new())]);
        assert!(doc.contains("\"name\":\"a\\\"b\\\\c\""));
    }
}
