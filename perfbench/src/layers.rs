//! Per-layer host-time attribution from inside one `simulate_observed`
//! call.
//!
//! [`LayerClock`] is an [`Observer`] that reads the host clock at every
//! event and span callback the simulator's layers already make, and
//! charges the time since the previous callback to the layer that made
//! the current one. The first interval of a call — configuration checks,
//! device construction, card preload — is charged to [`Layer::Setup`],
//! and [`LayerClock::finish`] charges the interval after the last
//! callback to [`Layer::Core`]. The clock's own first and last reads
//! bound the call, and the charged intervals tile that span with no gap,
//! so they sum to the call's duration exactly.

use std::time::{Duration, Instant};

use mobistore_core::config::BackendConfig;
use mobistore_sim::obs::{Event, Observer};
use mobistore_sim::span::{Span, SpanKind};

/// A layer of the simulated storage stack, as the host clock sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// From the call's entry to its first callback.
    Setup,
    /// The simulator's per-op path (`OpIssued`, `OpCompleted`, op spans,
    /// power failures) and the tail after the last callback.
    Core,
    /// The DRAM buffer cache.
    Dram,
    /// The SRAM write buffer.
    Sram,
    /// The magnetic disk.
    Disk,
    /// The flash disk.
    FlashDisk,
    /// The erasure-coded array: writes (they end in parity-update spans),
    /// degraded reads and rebuild. A plain array read makes no callback,
    /// so its time goes to the next callback's layer, usually the core's
    /// `OpCompleted`.
    Array,
    /// The flash card's segment cleaner.
    Cleaner,
    /// Flash-card programs (writes), including the fault plan's retries.
    CardWrite,
    /// Flash-card reads, including ECC and scrubbing.
    CardRead,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 10;

/// Host time and simulated cleaning counts one or more calls charged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Nanoseconds charged per layer, indexed by `Layer as usize`.
    pub ns: [u64; LAYERS],
    /// Cleaning passes that ended (`FlashCleanEnd` events).
    pub passes: u64,
    /// Cleaning passes that started (`FlashCleanStart` events).
    pub starts: u64,
    /// Live blocks the started passes copied.
    pub copied: u64,
}

impl LayerTimes {
    /// Seconds charged to `layer`.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.ns[layer as usize] as f64 * 1e-9
    }

    /// Adds another call's charges into these.
    pub fn add(&mut self, other: &LayerTimes) {
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
        self.passes += other.passes;
        self.starts += other.starts;
        self.copied += other.copied;
    }
}

/// The observer that charges host time to layers; see the module docs.
#[derive(Debug)]
pub struct LayerClock {
    /// Where a `FlashRead` callback is charged: the card or the flash disk.
    flash_read: Layer,
    /// Where a `FlashProgram` callback is charged.
    flash_write: Layer,
    start: Instant,
    last: Instant,
    started: bool,
    times: LayerTimes,
}

impl LayerClock {
    /// Starts the clock for one call on a cell with this backend.
    pub fn new(backend: &BackendConfig) -> LayerClock {
        let (flash_read, flash_write) = match backend {
            BackendConfig::FlashCard { .. } => (Layer::CardRead, Layer::CardWrite),
            BackendConfig::FlashDisk { .. } => (Layer::FlashDisk, Layer::FlashDisk),
            BackendConfig::Disk { .. } => (Layer::Disk, Layer::Disk),
            BackendConfig::Array { .. } => (Layer::Array, Layer::Array),
        };
        let now = Instant::now();
        LayerClock {
            flash_read,
            flash_write,
            start: now,
            last: now,
            started: false,
            times: LayerTimes::default(),
        }
    }

    fn charge(&mut self, layer: Layer) {
        let now = Instant::now();
        let layer = if self.started {
            layer
        } else {
            self.started = true;
            Layer::Setup
        };
        self.times.ns[layer as usize] += nanos(now - self.last);
        self.last = now;
    }

    /// Charges the time since the last callback to [`Layer::Core`] and
    /// returns the call's charges and its duration, from [`new`] to now.
    /// The charges sum to the duration exactly.
    ///
    /// [`new`]: LayerClock::new
    pub fn finish(mut self) -> (LayerTimes, Duration) {
        self.charge(Layer::Core);
        (self.times, self.last - self.start)
    }
}

impl Observer for LayerClock {
    fn record(&mut self, event: &Event) {
        let layer = match *event {
            Event::OpIssued { .. }
            | Event::OpCompleted { .. }
            | Event::PowerFail { .. }
            | Event::RecoveryEnd { .. } => Layer::Core,
            Event::CacheRead { .. } | Event::CacheWrite { .. } => Layer::Dram,
            Event::SramReadHit { .. } | Event::SramAbsorb { .. } | Event::SramFlush { .. } => {
                Layer::Sram
            }
            Event::DiskSpinUp { .. } | Event::DiskSpinDown { .. } => Layer::Disk,
            Event::FlashCleanStart { live_copied, .. } => {
                self.times.starts += 1;
                self.times.copied += u64::from(live_copied);
                Layer::Cleaner
            }
            Event::FlashCleanEnd { .. } => {
                self.times.passes += 1;
                Layer::Cleaner
            }
            Event::FlashPreErase { .. } => Layer::FlashDisk,
            Event::FaultInjected { .. } | Event::FlashEndOfLife { .. } => self.flash_write,
            Event::EccCorrected { .. }
            | Event::ReadRetry { .. }
            | Event::UncorrectableRead { .. }
            | Event::BlockRelocated { .. }
            | Event::ScrubPass { .. } => self.flash_read,
        };
        self.charge(layer);
    }

    fn span(&mut self, span: &Span) {
        let layer = match span.kind {
            SpanKind::Op { .. } | SpanKind::Recovery => Layer::Core,
            SpanKind::CacheLookup { .. } => Layer::Dram,
            SpanKind::DiskSeek | SpanKind::DiskTransfer { .. } => Layer::Disk,
            SpanKind::FlashRead { .. } | SpanKind::EccRetry { .. } | SpanKind::Scrub { .. } => {
                self.flash_read
            }
            SpanKind::FlashProgram { .. } => self.flash_write,
            SpanKind::FlashErase { .. } => Layer::FlashDisk,
            SpanKind::Cleaning { .. } => Layer::Cleaner,
            SpanKind::DegradedRead { .. }
            | SpanKind::Rebuild { .. }
            | SpanKind::ParityUpdate { .. } => Layer::Array,
        };
        self.charge(layer);
    }
}

/// A duration in whole nanoseconds (saturating; no run lasts 584 years).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
