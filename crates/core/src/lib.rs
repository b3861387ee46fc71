//! The storage-alternatives simulator — the primary contribution of
//! *Storage Alternatives for Mobile Computers* (Douglis, Cáceres, Kaashoek,
//! Li, Marsh, Tauber; OSDI '94), reimplemented in Rust.
//!
//! The paper evaluates three storage organisations for mobile computers —
//! magnetic disk, flash disk emulator, and flash memory card, each behind a
//! DRAM buffer cache — by replaying file-system traces through a storage
//! simulator that accounts response time and energy. This crate wires the
//! substrates together:
//!
//! * [`config::SystemConfig`] — one value per Table 4 row: device
//!   parameters, DRAM size, SRAM write buffer, spin-down policy, flash
//!   utilization, cleaning policy;
//! * [`simulator::simulate`] — replays a disk-level trace and returns
//!   [`metrics::Metrics`] (energy, read/write response mean/max/σ,
//!   cleaning and endurance counters);
//! * [`battery`] — the battery-life extension model behind the paper's
//!   "22%" headline.
//!
//! # Example
//!
//! ```
//! use mobistore_core::config::SystemConfig;
//! use mobistore_core::simulator::simulate;
//! use mobistore_device::params::{cu140_datasheet, intel_datasheet};
//! use mobistore_sim::time::SimTime;
//! use mobistore_trace::record::{DiskOp, DiskOpKind, FileId, Trace};
//!
//! // A toy trace: write then re-read a few blocks once a second.
//! let mut trace = Trace::new(1024);
//! for i in 0..100u64 {
//!     trace.push(DiskOp {
//!         time: SimTime::from_secs_f64(i as f64),
//!         kind: if i % 2 == 0 { DiskOpKind::Write } else { DiskOpKind::Read },
//!         lbn: i % 8,
//!         blocks: 1,
//!         file: FileId(0),
//!     });
//! }
//!
//! let disk = simulate(&SystemConfig::disk(cu140_datasheet()), &trace);
//! let card = simulate(
//!     &SystemConfig::flash_card(intel_datasheet())
//!         .with_flash_capacity(4 * 1024 * 1024),
//!     &trace,
//! );
//! // The paper's headline: flash saves energy by around an order of
//! // magnitude relative to a spinning disk.
//! assert!(card.energy.get() < disk.energy.get());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
pub mod battery;
pub mod config;
pub mod crashcheck;
pub mod metrics;
pub mod simulator;

pub use config::{BackendConfig, SystemConfig};
pub use metrics::Metrics;
pub use simulator::{simulate, simulate_with, try_simulate, ConfigError, RunOptions, SimError};
