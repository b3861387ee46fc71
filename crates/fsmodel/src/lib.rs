//! The OmniBook testbed model for the `mobistore` reproduction of *Storage
//! Alternatives for Mobile Computers* (Douglis et al., OSDI '94).
//!
//! §3 of the paper measures the three storage devices on an HP OmniBook
//! 300 under MS-DOS — numbers that embed file-system and compression
//! software costs the raw devices do not have. Since the 1994 testbed is
//! unavailable, this crate models it:
//!
//! * [`compress`] — DoubleSpace/Stacker/MFFS software compression with the
//!   paper's ~50% Moby-Dick ratio and the random-data fast path;
//! * [`dosfs`] — the DOS file-system testbeds over the magnetic disk and
//!   the flash disk, including the compressed-write batching §3 observes;
//! * [`mffs`] — the Microsoft Flash File System 2.00 testbed over the
//!   Intel card, with the linear re-write anomaly of Figure 1 and the
//!   cumulative/cleaning decay of Figure 3.
//!
//! These testbeds regenerate Table 1 and Figures 1 and 3; the calibration
//! constants are documented at their definitions and audited in
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod dosfs;
pub mod mffs;

pub use compress::{Compressor, DataClass};
pub use dosfs::{DiskTestbed, DosFsParams, FlashDiskTestbed};
pub use mffs::{FlashCardTestbed, MffsParams};

use mobistore_sim::time::SimDuration;
use mobistore_sim::units::Bandwidth;

/// The DoubleSpace compressor on the OmniBook's 386SXLV (calibrated to
/// Table 1's cu140 compressed columns).
pub fn doublespace() -> Compressor {
    Compressor::new(
        0.5,
        Bandwidth::from_kib_per_s(290.0),
        Bandwidth::from_kib_per_s(400.0),
    )
}

/// The Stacker compressor (calibrated to Table 1's sdp10 compressed
/// columns).
pub fn stacker() -> Compressor {
    Compressor::new(
        0.5,
        Bandwidth::from_kib_per_s(225.0),
        Bandwidth::from_kib_per_s(400.0),
    )
}

/// MFFS 2.00's built-in compressor (calibrated to Table 1's Intel
/// columns; its decompressor is quick, giving the 2x random-vs-compressed
/// read gap).
pub fn mffs_compressor() -> Compressor {
    Compressor::new(
        0.5,
        Bandwidth::from_kib_per_s(225.0),
        Bandwidth::from_kib_per_s(750.0),
    )
}

/// One micro-benchmark run: per-request latencies plus totals.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Latency of each request, in milliseconds (Figure 1's y-axis).
    pub chunk_latencies_ms: Vec<f64>,
    /// Total elapsed time.
    pub total: SimDuration,
    /// Total bytes moved.
    pub bytes: u64,
}

impl BenchRun {
    /// Creates an empty run expecting `bytes` in total.
    pub fn new(bytes: u64) -> Self {
        BenchRun {
            chunk_latencies_ms: Vec::new(),
            total: SimDuration::ZERO,
            bytes,
        }
    }

    /// Records one request.
    pub fn push(&mut self, latency: SimDuration, _bytes: u64) {
        self.chunk_latencies_ms.push(latency.as_millis_f64());
        self.total += latency;
    }

    /// Average throughput in Kbytes/s (Table 1's unit).
    pub fn throughput_kib_s(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.bytes as f64 / 1024.0 / self.total.as_secs_f64()
        }
    }
}
