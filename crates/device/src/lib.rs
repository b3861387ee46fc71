//! Storage device models for the `mobistore` reproduction of *Storage
//! Alternatives for Mobile Computers* (Douglis et al., OSDI '94).
//!
//! The paper compares three storage architectures (§2):
//!
//! * [`disk::MagneticDisk`] — a spinning hard disk with spin-down power
//!   management (Western Digital Caviar Ultralite CU140, HP Kittyhawk);
//! * [`flashdisk::FlashDisk`] — a flash memory card behind a disk block
//!   interface with per-sector erasure (SunDisk SDP5/SDP5A/SDP10);
//! * the byte-accessible flash memory card (Intel Series 2) — its raw
//!   parameters are here ([`params::FlashCardParams`]), while the segment
//!   management and cleaning machinery lives in `mobistore-flash`.
//!
//! [`params`] is the parameter database: every scalar from the paper's
//! Table 2 plus the measured rates of §3, keyed by the same
//! *(device, source)* labels as the rows of Table 4.
//!
//! All devices account energy with per-state [`mobistore_sim::EnergyMeter`]s
//! and model request queueing internally (a request issued while the device
//! is busy waits), which is what produces the paper's maximum-response
//! columns. Every storage alternative — the disk and flash disk here, the
//! flash card store in `mobistore-flash`, and the erasure-coded
//! [`ArrayDevice`] — serves the same five operations through the
//! [`Device`] trait, each reporting its internal events to an observer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mobistore_sim::obs::Observer;
use mobistore_sim::time::{SimDuration, SimTime};

pub mod array;
pub mod disk;
pub mod flashdisk;
pub mod params;

pub use array::ArrayDevice;
pub use disk::MagneticDisk;
pub use flashdisk::FlashDisk;

/// Identifier of the file a request belongs to, for the disk's seek
/// heuristic; mirrors `mobistore_trace::record::FileId` without depending
/// on that crate.
pub type FileTag = u64;

/// One request to a [`Device`]: `bytes` starting at logical block `lbn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// First logical block. The flash card and the array address their
    /// block maps with it, the disk's distance-based seek travels to it,
    /// and the flash disk only labels its events with it.
    pub lbn: u64,
    /// Bytes the request covers. Block-mapped devices (flash card, array)
    /// serve `bytes / block_size` whole blocks of their configured size.
    pub bytes: u64,
    /// The file the request belongs to, for the disk's seek model: a
    /// request to the previous request's file skips the seek (§4.2).
    /// `None` marks a burst spanning many files (an SRAM or write-back
    /// flush): it always seeks under the paper's model and leaves the head
    /// where it is under the distance model.
    pub file: Option<FileTag>,
}

impl Request {
    /// `bytes` from `lbn`, with no file.
    pub fn new(lbn: u64, bytes: u64) -> Self {
        Request {
            lbn,
            bytes,
            file: None,
        }
    }

    /// `blocks` blocks of `block_size` bytes from `lbn`, with no file.
    pub fn blocks(lbn: u64, blocks: u32, block_size: u64) -> Self {
        Request::new(lbn, u64::from(blocks) * block_size)
    }

    /// The whole blocks of `block_size` bytes the request covers.
    pub fn block_count(&self, block_size: u64) -> u32 {
        (self.bytes / block_size) as u32
    }

    /// The same request, tagged with the file it belongs to.
    pub fn of_file(self, file: FileTag) -> Self {
        Request {
            file: Some(file),
            ..self
        }
    }
}

/// What a read returns: the service interval — the device works either
/// way — and whether the data came back intact.
pub type ReadOutcome = (Service, Result<(), DeviceError>);

/// What a write returns: its service interval, or why it was refused.
pub type WriteOutcome = Result<Service, DeviceError>;

/// The operations every storage alternative serves (§4.2: one trace, one
/// memory hierarchy, interchangeable devices behind it).
///
/// Each operation takes an [`Observer`] that sees the device's internal
/// events and spans; pass [`mobistore_sim::obs::NoopObserver`] for none —
/// it compiles away. Time and energy are accounted inside the device.
pub trait Device {
    /// Serves a read issued at `now`. An error reports data the device
    /// could not deliver intact (an uncorrectable block, a stripe with too
    /// few surviving shards) — never silently.
    fn read<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O) -> ReadOutcome;

    /// Serves a write issued at `now`, or refuses it with a typed error (a
    /// flash card at end of life, a failed array). The disk and the flash
    /// disk never refuse.
    fn write<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O) -> WriteOutcome;

    /// Discards the request's blocks (file deletion) at `now`, taking no
    /// device time. Devices without a block map ignore it.
    fn trim<O: Observer>(&mut self, now: SimTime, req: Request, obs: &mut O);

    /// Loses power at `now` and runs the device's recovery; returns the
    /// recovery interval.
    fn power_fail<O: Observer>(&mut self, now: SimTime, obs: &mut O) -> Service;

    /// Settles the idle time (and any background work it allows) up to
    /// `end`, so the energy integral covers the whole run.
    fn finish<O: Observer>(&mut self, end: SimTime, obs: &mut O);
}

/// A typed, recoverable device failure.
///
/// Callers that can degrade gracefully (the simulator's drain mode, the
/// `repro` binary's exit-code mapping) match on the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// The flash card has exhausted its cleanable capacity (spare guard
    /// spent, nothing reclaimable) and is in read-only end-of-life mode.
    /// Reads and trims still succeed; writes fail with this error.
    ReadOnly {
        /// Live blocks at the end-of-life transition.
        live: u64,
        /// Usable (non-retired) block capacity.
        usable: u64,
        /// Retired (bad-segment) blocks.
        retired: u64,
    },
    /// A flash card was configured with too few segments to hold a
    /// frontier plus an erased reserve.
    TooFewSegments {
        /// Segments the configuration would create.
        segments: u64,
    },
    /// A flash card segment cannot hold even one logical block.
    SegmentTooSmall {
        /// Configured segment size in bytes.
        segment_bytes: u64,
        /// Configured block size in bytes.
        block_bytes: u64,
    },
    /// A read saw more raw bit errors than the ECC budget and the
    /// bounded read-retry could recover; the block's data is lost. The
    /// device stays usable — callers degrade per-block, not per-run.
    Uncorrectable {
        /// The logical block whose data could not be recovered.
        lbn: u64,
        /// Raw bit errors the read saw.
        errors: u32,
    },
    /// An erasure-coded array could not reconstruct one stripe: more
    /// shards are missing than the survivors can decode around (extra
    /// uncorrectable shards on top of dead children). The array stays
    /// usable — other stripes still decode; callers degrade per-block.
    ArrayDegraded {
        /// The logical block whose stripe could not be reconstructed.
        lbn: u64,
        /// Shards missing from the stripe.
        lost: u32,
    },
    /// An erasure-coded array has lost more children than its parity can
    /// tolerate and has degraded to read-only: writes are rejected, and
    /// reads whose stripes span the dead children fail.
    ArrayFailed {
        /// Children currently dead (not yet rebuilt).
        lost: u32,
        /// Concurrent losses the geometry tolerates (`m`).
        tolerated: u32,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DeviceError::ReadOnly {
                live,
                usable,
                retired,
            } => write!(
                f,
                "flash card is read-only at end of life: {live} live of {usable} usable \
                 blocks ({retired} retired) and nothing cleanable"
            ),
            DeviceError::TooFewSegments { segments } => {
                write!(f, "flash card needs at least 2 segments, got {segments}")
            }
            DeviceError::SegmentTooSmall {
                segment_bytes,
                block_bytes,
            } => write!(
                f,
                "flash segment of {segment_bytes} bytes cannot hold one {block_bytes}-byte block"
            ),
            DeviceError::Uncorrectable { lbn, errors } => write!(
                f,
                "uncorrectable read of block {lbn}: {errors} raw bit errors exceed the ECC \
                 budget and read-retry"
            ),
            DeviceError::ArrayDegraded { lbn, lost } => write!(
                f,
                "array cannot reconstruct block {lbn}: {lost} shards of its stripe are \
                 missing, more than the parity can decode around"
            ),
            DeviceError::ArrayFailed { lost, tolerated } => write!(
                f,
                "array failed: {lost} children dead, geometry tolerates {tolerated}; \
                 degraded to read-only"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// How a device treats a request that arrives while it is busy.
///
/// The paper's simulator evaluates each operation independently ("all
/// operations and state transitions are assumed to take the average or
/// 'typical' time", §4.2) — its reported maxima are single-operation worst
/// cases such as wind-down + spin-up. [`QueueDiscipline::OpenLoop`]
/// reproduces that: a request starts at its arrival time regardless of
/// earlier requests, while device *state* (spin status, erased-pool level,
/// cleaning progress) still evolves in time. [`QueueDiscipline::Fifo`]
/// models a real single-server queue and is used by the micro-benchmark
/// testbeds (which issue requests back-to-back) and by the queueing
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// Requests wait for earlier requests to finish.
    #[default]
    Fifo,
    /// Requests are served at arrival; busy periods may overlap (the
    /// paper's model).
    OpenLoop,
}

/// The direction of a storage access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Data flows from the device.
    Read,
    /// Data flows to the device.
    Write,
}

/// The interval during which a device served a request.
///
/// A request issued at `t` with `Service { start, end }` waited
/// `start - t` (queueing, spin-up, on-demand cleaning) and experienced a
/// response time of `end - t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Service {
    /// When the device began working on the request.
    pub start: SimTime,
    /// When the request completed.
    pub end: SimTime,
}

impl Service {
    /// The time spent servicing (excluding queueing).
    pub fn service_time(&self) -> SimDuration {
        self.end - self.start
    }

    /// The response time experienced by a request issued at `issued`.
    ///
    /// # Panics
    ///
    /// Panics if `issued` is after `end`.
    pub fn response(&self, issued: SimTime) -> SimDuration {
        self.end - issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_and_response() {
        let svc = Service {
            start: SimTime::from_nanos(100),
            end: SimTime::from_nanos(250),
        };
        assert_eq!(svc.service_time(), SimDuration::from_nanos(150));
        assert_eq!(
            svc.response(SimTime::from_nanos(50)),
            SimDuration::from_nanos(200)
        );
    }
}
