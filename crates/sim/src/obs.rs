//! Structured sim-time event tracing.
//!
//! Every interesting transition in the simulated storage stack — op
//! issue/completion, cache hits and misses, disk spin state changes, flash
//! cleaning passes, injected faults, power failures — can be reported to
//! an [`Observer`] as a sim-time-stamped [`Event`]. The device and
//! simulator layers take the observer as a *generic* parameter, so the
//! default [`NoopObserver`] monomorphises to nothing: no allocation, no
//! branch, no change to any golden snapshot.
//!
//! Determinism rules: events carry **sim time only** (integer
//! nanoseconds), never wall-clock, and are emitted in the order the
//! simulator processes them — a single-threaded order per simulation run —
//! so any serialized event stream is byte-identical at any `--jobs` count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};

/// The class of a trace operation, as seen by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A block read.
    Read,
    /// A block write.
    Write,
    /// A trim/delete hint.
    Trim,
}

impl OpKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Trim => "trim",
        }
    }
}

/// An injected-fault classification carried by [`Event::FaultInjected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A flash write needed `retries` extra program attempts.
    WriteRetry {
        /// Number of extra attempts drawn from the fault plan.
        retries: u32,
    },
    /// A segment erase needed `retries` extra attempts.
    EraseRetry {
        /// Number of extra attempts drawn from the fault plan.
        retries: u32,
    },
    /// A segment failed permanently and was retired.
    SegmentRetired {
        /// Index of the retired segment.
        segment: u32,
    },
}

/// One structured, sim-time-stamped event.
///
/// All payload fields are integers (times in nanoseconds via
/// [`SimTime`]/[`SimDuration`]), so serialization is trivially
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A trace operation entered the simulator.
    OpIssued {
        /// Issue time.
        t: SimTime,
        /// Operation class.
        kind: OpKind,
        /// First logical block touched.
        lbn: u64,
        /// Number of blocks touched.
        blocks: u32,
    },
    /// A trace operation finished, with its latency breakdown.
    OpCompleted {
        /// Completion time (issue time + response).
        t: SimTime,
        /// Operation class.
        kind: OpKind,
        /// First logical block touched.
        lbn: u64,
        /// Number of blocks touched.
        blocks: u32,
        /// Time spent waiting before the device started serving
        /// (queueing, spin-up, cleaning stalls).
        queue: SimDuration,
        /// Time the device spent actively serving.
        service: SimDuration,
        /// End-to-end response time as recorded in Table 4.
        response: SimDuration,
    },
    /// The DRAM buffer cache served a read probe.
    CacheRead {
        /// Probe time.
        t: SimTime,
        /// Blocks found in the cache.
        hits: u32,
        /// Blocks that must go to the backend.
        misses: u32,
    },
    /// The DRAM buffer cache absorbed a write.
    CacheWrite {
        /// Write time.
        t: SimTime,
        /// Blocks written into the cache.
        blocks: u32,
        /// Dirty blocks evicted to make room.
        dirty_evictions: u32,
    },
    /// A read hit the SRAM write buffer before reaching the device.
    SramReadHit {
        /// Hit time.
        t: SimTime,
        /// Blocks served.
        blocks: u32,
    },
    /// The SRAM write buffer absorbed dirty blocks.
    SramAbsorb {
        /// Absorb time.
        t: SimTime,
        /// Blocks absorbed.
        blocks: u32,
    },
    /// The SRAM write buffer drained to the backend.
    SramFlush {
        /// Flush time.
        t: SimTime,
        /// Blocks flushed.
        blocks: u32,
    },
    /// The magnetic disk began spinning up.
    DiskSpinUp {
        /// Spin-up start time.
        t: SimTime,
    },
    /// The magnetic disk began spinning down after its idle timeout.
    DiskSpinDown {
        /// Spin-down start time.
        t: SimTime,
    },
    /// The flash card started cleaning a victim segment.
    FlashCleanStart {
        /// Cleaning start time.
        t: SimTime,
        /// Victim segment index.
        victim: u32,
        /// Live blocks copied out of the victim.
        live_copied: u32,
    },
    /// The flash card finished (or abandoned) a cleaning pass.
    FlashCleanEnd {
        /// Completion time.
        t: SimTime,
        /// Victim segment index.
        victim: u32,
        /// Whether the segment was retired instead of erased.
        retired: bool,
    },
    /// The flash disk pre-erased garbage in the background.
    FlashPreErase {
        /// Erase start time.
        t: SimTime,
        /// Bytes erased.
        bytes: u64,
    },
    /// The fault plan injected a fault.
    FaultInjected {
        /// Injection time.
        t: SimTime,
        /// What kind of fault.
        kind: FaultKind,
    },
    /// Power was lost; volatile state is gone.
    PowerFail {
        /// Failure time.
        t: SimTime,
        /// Dirty blocks lost from volatile caches.
        lost_dirty_blocks: u64,
    },
    /// Post-power-failure recovery completed.
    RecoveryEnd {
        /// Time recovery finished.
        t: SimTime,
        /// How long recovery took.
        duration: SimDuration,
    },
    /// The flash card exhausted its cleanable capacity and entered
    /// read-only end-of-life mode; further writes fail with a typed error.
    FlashEndOfLife {
        /// Transition time.
        t: SimTime,
        /// Live blocks at the transition.
        live: u64,
        /// Usable (non-retired) block capacity at the transition.
        usable: u64,
        /// Retired (bad-segment) blocks at the transition.
        retired: u64,
    },
    /// The ECC transparently corrected raw bit errors on a block read.
    EccCorrected {
        /// Read time.
        t: SimTime,
        /// The block whose data was corrected.
        lbn: u64,
        /// Raw bit errors corrected.
        errors: u32,
    },
    /// A marginal block read was recovered by bounded read-retry.
    ReadRetry {
        /// Read time.
        t: SimTime,
        /// The block that needed retries.
        lbn: u64,
        /// Retry attempts the recovery cost.
        attempts: u32,
    },
    /// A block read exceeded what ECC and read-retry can recover; its
    /// data is lost and the failure surfaces as a typed device error.
    UncorrectableRead {
        /// Read time.
        t: SimTime,
        /// The block whose data was lost.
        lbn: u64,
        /// Raw bit errors seen.
        errors: u32,
    },
    /// A degraded-but-correctable block was rewritten to fresh cells at
    /// the write frontier (relocate-and-remap).
    BlockRelocated {
        /// Relocation time.
        t: SimTime,
        /// The relocated block.
        lbn: u64,
        /// Segment the block was relocated out of.
        from_segment: u32,
        /// Raw bit errors that triggered the relocation.
        errors: u32,
    },
    /// The background scrubber finished a pass over one segment.
    ScrubPass {
        /// Pass completion time.
        t: SimTime,
        /// The segment scrubbed.
        segment: u32,
        /// Live blocks read by the pass.
        blocks: u32,
        /// Blocks whose errors the ECC corrected during the pass.
        corrected: u32,
        /// Blocks the pass relocated to fresh cells.
        relocated: u32,
    },
}

impl Event {
    /// Stable snake_case event name (used as the JSONL `event` field and
    /// as the counter key in a [`CounterRegistry`]).
    pub fn name(&self) -> &'static str {
        match self {
            Event::OpIssued { .. } => "op_issued",
            Event::OpCompleted { .. } => "op_completed",
            Event::CacheRead { .. } => "cache_read",
            Event::CacheWrite { .. } => "cache_write",
            Event::SramReadHit { .. } => "sram_read_hit",
            Event::SramAbsorb { .. } => "sram_absorb",
            Event::SramFlush { .. } => "sram_flush",
            Event::DiskSpinUp { .. } => "disk_spin_up",
            Event::DiskSpinDown { .. } => "disk_spin_down",
            Event::FlashCleanStart { .. } => "flash_clean_start",
            Event::FlashCleanEnd { .. } => "flash_clean_end",
            Event::FlashPreErase { .. } => "flash_pre_erase",
            Event::FaultInjected { .. } => "fault_injected",
            Event::PowerFail { .. } => "power_fail",
            Event::RecoveryEnd { .. } => "recovery_end",
            Event::FlashEndOfLife { .. } => "flash_end_of_life",
            Event::EccCorrected { .. } => "ecc_corrected",
            Event::ReadRetry { .. } => "read_retry",
            Event::UncorrectableRead { .. } => "uncorrectable_read",
            Event::BlockRelocated { .. } => "block_relocated",
            Event::ScrubPass { .. } => "scrub_pass",
        }
    }

    /// The event's sim-time stamp.
    pub fn time(&self) -> SimTime {
        match *self {
            Event::OpIssued { t, .. }
            | Event::OpCompleted { t, .. }
            | Event::CacheRead { t, .. }
            | Event::CacheWrite { t, .. }
            | Event::SramReadHit { t, .. }
            | Event::SramAbsorb { t, .. }
            | Event::SramFlush { t, .. }
            | Event::DiskSpinUp { t }
            | Event::DiskSpinDown { t }
            | Event::FlashCleanStart { t, .. }
            | Event::FlashCleanEnd { t, .. }
            | Event::FlashPreErase { t, .. }
            | Event::FaultInjected { t, .. }
            | Event::PowerFail { t, .. }
            | Event::RecoveryEnd { t, .. }
            | Event::FlashEndOfLife { t, .. }
            | Event::EccCorrected { t, .. }
            | Event::ReadRetry { t, .. }
            | Event::UncorrectableRead { t, .. }
            | Event::BlockRelocated { t, .. }
            | Event::ScrubPass { t, .. } => t,
        }
    }

    /// The event's JSON fields — `"t_ns":…,"event":"…"` plus the payload —
    /// without the enclosing braces, so callers can prepend context
    /// (workload, device) before wrapping. Integer and string values only.
    pub fn json_fields(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "\"t_ns\":{},\"event\":\"{}\"",
            self.time().as_nanos(),
            self.name()
        );
        match *self {
            Event::OpIssued {
                kind, lbn, blocks, ..
            } => {
                let _ = write!(
                    s,
                    ",\"op\":\"{}\",\"lbn\":{lbn},\"blocks\":{blocks}",
                    kind.name()
                );
            }
            Event::OpCompleted {
                kind,
                lbn,
                blocks,
                queue,
                service,
                response,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"op\":\"{}\",\"lbn\":{lbn},\"blocks\":{blocks},\"queue_ns\":{},\"service_ns\":{},\"response_ns\":{}",
                    kind.name(),
                    queue.as_nanos(),
                    service.as_nanos(),
                    response.as_nanos()
                );
            }
            Event::CacheRead { hits, misses, .. } => {
                let _ = write!(s, ",\"hits\":{hits},\"misses\":{misses}");
            }
            Event::CacheWrite {
                blocks,
                dirty_evictions,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"blocks\":{blocks},\"dirty_evictions\":{dirty_evictions}"
                );
            }
            Event::SramReadHit { blocks, .. }
            | Event::SramAbsorb { blocks, .. }
            | Event::SramFlush { blocks, .. } => {
                let _ = write!(s, ",\"blocks\":{blocks}");
            }
            Event::DiskSpinUp { .. } | Event::DiskSpinDown { .. } => {}
            Event::FlashCleanStart {
                victim,
                live_copied,
                ..
            } => {
                let _ = write!(s, ",\"victim\":{victim},\"live_copied\":{live_copied}");
            }
            Event::FlashCleanEnd {
                victim, retired, ..
            } => {
                let _ = write!(s, ",\"victim\":{victim},\"retired\":{retired}");
            }
            Event::FlashPreErase { bytes, .. } => {
                let _ = write!(s, ",\"bytes\":{bytes}");
            }
            Event::FaultInjected { kind, .. } => match kind {
                FaultKind::WriteRetry { retries } => {
                    let _ = write!(s, ",\"fault\":\"write_retry\",\"retries\":{retries}");
                }
                FaultKind::EraseRetry { retries } => {
                    let _ = write!(s, ",\"fault\":\"erase_retry\",\"retries\":{retries}");
                }
                FaultKind::SegmentRetired { segment } => {
                    let _ = write!(s, ",\"fault\":\"segment_retired\",\"segment\":{segment}");
                }
            },
            Event::PowerFail {
                lost_dirty_blocks, ..
            } => {
                let _ = write!(s, ",\"lost_dirty_blocks\":{lost_dirty_blocks}");
            }
            Event::RecoveryEnd { duration, .. } => {
                let _ = write!(s, ",\"duration_ns\":{}", duration.as_nanos());
            }
            Event::FlashEndOfLife {
                live,
                usable,
                retired,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"live\":{live},\"usable\":{usable},\"retired\":{retired}"
                );
            }
            Event::EccCorrected { lbn, errors, .. }
            | Event::UncorrectableRead { lbn, errors, .. } => {
                let _ = write!(s, ",\"lbn\":{lbn},\"errors\":{errors}");
            }
            Event::ReadRetry { lbn, attempts, .. } => {
                let _ = write!(s, ",\"lbn\":{lbn},\"attempts\":{attempts}");
            }
            Event::BlockRelocated {
                lbn,
                from_segment,
                errors,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"lbn\":{lbn},\"from_segment\":{from_segment},\"errors\":{errors}"
                );
            }
            Event::ScrubPass {
                segment,
                blocks,
                corrected,
                relocated,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"segment\":{segment},\"blocks\":{blocks},\"corrected\":{corrected},\"relocated\":{relocated}"
                );
            }
        }
        s
    }

    /// One complete JSON object for this event (no trailing newline).
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }
}

/// Renders `s` as a JSON string literal, quotes included: `"` and `\`
/// are backslash-escaped, newline, tab and carriage return take their
/// short forms (`\n`, `\t`, `\r`), and other control characters
/// become `\u00XX`. The metrics export and the Chrome trace export
/// both write their strings through it.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Receives structured simulation events.
///
/// Implementations must not assume events arrive in global sim-time order:
/// device-internal events (spin-downs, background cleaning) are emitted
/// when the simulator *settles* the device at its next access, which can
/// be after later-issued op events. Each event's own `t` is authoritative.
pub trait Observer {
    /// Called once per emitted event.
    fn record(&mut self, event: &Event);

    /// Called once per completed sim-time interval (see [`crate::span`]).
    /// Defaults to nothing, so event-only observers are unaffected and
    /// the [`NoopObserver`] path still monomorphises away.
    #[inline(always)]
    fn span(&mut self, _span: &crate::span::Span) {}
}

/// The default observer: does nothing, monomorphises to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    #[inline(always)]
    fn record(&mut self, _event: &Event) {}

    #[inline(always)]
    fn span(&mut self, _span: &crate::span::Span) {}
}

impl<O: Observer> Observer for &mut O {
    #[inline]
    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }

    #[inline]
    fn span(&mut self, span: &crate::span::Span) {
        (**self).span(span);
    }
}

/// A deterministic name → count map (BTreeMap, so iteration order is
/// sorted and stable across runs and job counts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterRegistry {
    counts: BTreeMap<&'static str, u64>,
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        CounterRegistry::default()
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Returns counter `name`, or 0 if never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// True if no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates `(name, count)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Renders the registry as a JSON object (sorted keys).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":{v}");
        }
        s.push('}');
        s
    }
}

/// An observer that counts events by name in a [`CounterRegistry`].
#[derive(Debug, Clone, Default)]
pub struct CountingObserver {
    /// Event counts keyed by [`Event::name`].
    pub counts: CounterRegistry,
}

impl Observer for CountingObserver {
    fn record(&mut self, event: &Event) {
        self.counts.add(event.name(), 1);
    }
}

/// An observer that keeps every event (tests and small traces only — a
/// full-scale run emits millions of events).
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    /// Every event, in emission order.
    pub events: Vec<Event>,
}

impl Observer for RecordingObserver {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_is_integer_only() {
        let e = Event::OpCompleted {
            t: SimTime::from_nanos(1_500),
            kind: OpKind::Write,
            lbn: 42,
            blocks: 3,
            queue: SimDuration::from_nanos(100),
            service: SimDuration::from_nanos(400),
            response: SimDuration::from_nanos(500),
        };
        assert_eq!(
            e.to_json(),
            "{\"t_ns\":1500,\"event\":\"op_completed\",\"op\":\"write\",\"lbn\":42,\
             \"blocks\":3,\"queue_ns\":100,\"service_ns\":400,\"response_ns\":500}"
        );
    }

    #[test]
    fn counting_observer_counts_by_name() {
        let mut obs = CountingObserver::default();
        let t = SimTime::from_nanos(0);
        obs.record(&Event::DiskSpinUp { t });
        obs.record(&Event::DiskSpinUp { t });
        obs.record(&Event::PowerFail {
            t,
            lost_dirty_blocks: 2,
        });
        assert_eq!(obs.counts.get("disk_spin_up"), 2);
        assert_eq!(obs.counts.get("power_fail"), 1);
        assert_eq!(obs.counts.get("never"), 0);
        assert_eq!(
            obs.counts.to_json(),
            "{\"disk_spin_up\":2,\"power_fail\":1}"
        );
    }

    #[test]
    fn fault_event_names_payloads() {
        let t = SimTime::from_nanos(7);
        let e = Event::FaultInjected {
            t,
            kind: FaultKind::SegmentRetired { segment: 9 },
        };
        assert_eq!(e.name(), "fault_injected");
        assert!(e
            .to_json()
            .contains("\"fault\":\"segment_retired\",\"segment\":9"));
        assert_eq!(e.time(), t);
    }
}
