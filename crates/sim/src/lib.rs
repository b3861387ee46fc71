//! Discrete-event simulation substrate for the `mobistore` reproduction of
//! *Storage Alternatives for Mobile Computers* (Douglis et al., OSDI '94).
//!
//! This crate holds the domain-independent pieces every other crate builds
//! on:
//!
//! * [`time`] — an integer-nanosecond simulated clock ([`time::SimTime`],
//!   [`time::SimDuration`]);
//! * [`energy`] — joule/watt units, typed energy states
//!   ([`energy_states!`]) and the per-state [`energy::EnergyMeter`];
//! * [`units`] — byte sizes and [`units::Bandwidth`] (Kbytes/s, as in the
//!   paper);
//! * [`price`] — [`price::PriceTable`], the time and energy of an access
//!   of a given size at a fixed latency, bandwidth and power, computed once
//!   per size;
//! * [`stats`] — streaming mean/max/σ ([`stats::OnlineStats`]) matching the
//!   columns of the paper's Table 4;
//! * [`rng`] — a deterministic PCG32 generator and the distribution samplers
//!   (exponential, log-normal, Zipf) used by the workload generators;
//! * [`counters`] — [`counter_set!`], which declares a struct of counts
//!   and duration totals once, each field with its export key, and
//!   derives its fleet merge and raw checkpoint form;
//! * [`ec`] — GF(2^8) Reed-Solomon erasure coding ([`ec::ReedSolomon`]):
//!   systematic Vandermonde `k+m` codes over fixed-size shards, the math
//!   behind the erasure-coded device arrays;
//! * [`exec`] — a scoped-thread worker pool ([`exec::parallel_map`]) that
//!   fans independent simulation points out across cores while preserving
//!   input order, so parallel results are bit-identical to serial ones;
//! * [`fault`] — seeded, deterministic fault injection ([`fault::FaultPlan`])
//!   for transient write/erase failures, permanent bad blocks, and
//!   power-failure schedules;
//! * [`fleet`] — hash-range sharding of a user population onto simulated
//!   devices ([`fleet::FleetConfig`], [`fleet::FleetPlan`]), with one
//!   dedicated RNG stream per shard so fleet results are independent of
//!   worker count and of which other shards run;
//! * [`hist`] — log-bucketed latency histograms ([`hist::Histogram`]) with
//!   deterministic p50/p90/p99/p99.9 queries;
//! * [`integrity`] — seeded, wear-coupled bit-error injection and ECC
//!   classification ([`integrity::IntegrityPlan`]): raw errors grow with
//!   erase count and retention time, verdicts split into corrected /
//!   retried / uncorrectable;
//! * [`lbn`] — the lbn domain bound ([`lbn::MAX_LBN_END`], 2^32) and
//!   [`lbn::LbnTable`], the paged lbn-indexed table behind the flash
//!   card's block map and the DRAM cache's LRU index;
//! * [`obs`] — structured sim-time event tracing ([`obs::Event`],
//!   [`obs::Observer`]); the default [`obs::NoopObserver`] monomorphises
//!   away entirely;
//! * [`span`] — sim-time interval tracing ([`span::Span`]) on the same
//!   observer channel, exported as Chrome trace-event JSON
//!   ([`span::chrome_trace_json`]) viewable in Perfetto;
//! * [`prof`] — the process-wide simulated-op counter behind every
//!   `ops/sec` figure, attributable per target;
//! * [`rule`] — each configuration knob's rule ([`rule::Rule`]) and the
//!   typed refusal that names the knob ([`rule::KnobError`]);
//! * [`crashcheck`] — the differential crash-consistency shadow model
//!   ([`crashcheck::ShadowModel`]): a device-independent oracle of legal
//!   post-crash block contents, with typed [`crashcheck::Violation`]s.
//!
//! Everything is deterministic: integer time plus a seeded RNG make each
//! experiment reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod crashcheck;
pub mod ec;
pub mod energy;
pub mod exec;
pub mod fault;
pub mod fleet;
pub mod hist;
pub mod integrity;
pub mod lbn;
pub mod obs;
pub mod price;
pub mod prof;
pub mod rng;
pub mod rule;
pub mod span;
pub mod stats;
pub mod time;
pub mod units;

pub use crashcheck::{ShadowModel, Violation};
pub use ec::ReedSolomon;
pub use energy::{EnergyMeter, Joules, Watts};
pub use fault::{FaultConfig, FaultPlan};
pub use fleet::{FleetConfig, FleetPlan, FleetShard, Mix};
pub use hist::{Histogram, LatencyRecorder, Percentiles};
pub use integrity::{IntegrityConfig, IntegrityPlan, ReadVerdict};
pub use obs::{CounterRegistry, Event, NoopObserver, Observer};
pub use price::{Cost, PriceTable};
pub use rng::SimRng;
pub use span::{Span, SpanKind};
pub use stats::{OnlineStats, Summary};
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, KIB, MIB};
