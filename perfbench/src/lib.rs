//! Host-time benchmark of the mobistore simulator.
//!
//! Three workloads drive the workspace crates through their public APIs
//! only: `card-clean` (the flash-card cleaner at 90% utilization),
//! `cache-sweep` (DRAM sizes on the disk, flash-disk and array models,
//! no card) and `fleet` (thousands of supervised shards). Every metric is
//! host time or host memory; the simulated output is a correctness
//! digest, checked against stored references. `README.md` beside this
//! crate explains the workloads, the metrics and the layer map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod layers;
pub mod runner;
pub mod workloads;
