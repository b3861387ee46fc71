//! Simulation results.
//!
//! [`Metrics`] carries everything the paper reports per configuration:
//! total energy (with a per-component breakdown), the Table 4 response-time
//! moments for reads and writes, cache/SRAM behaviour, and the flash-card
//! cleaning/endurance counters behind §5.2.

use mobistore_cache::dram::CacheStats;
use mobistore_cache::sram::SramStats;
use mobistore_device::array::{ArrayCounters, ArrayState};
use mobistore_device::disk::{DiskCounters, DiskState};
use mobistore_device::flashdisk::{FlashDiskCounters, FlashDiskState};
use mobistore_flash::store::{CardState, FlashCardCounters, WearStats};
use mobistore_sim::counters::CounterSet;
use mobistore_sim::energy::{EnergyState, Joules};
use mobistore_sim::hist::{Histogram, Percentiles};
use mobistore_sim::obs::CounterRegistry;
use mobistore_sim::stats::Summary;
use mobistore_sim::time::SimDuration;

/// The names a [`Metrics::energy_by_component`] entry carries.
pub mod component {
    /// The magnetic disk.
    pub const DISK: &str = "disk";
    /// Either flash backend: the flash disk or the flash card.
    pub const FLASH: &str = "flash";
    /// The erasure-coded array.
    pub const ARRAY: &str = "array";
    /// The SRAM write buffer.
    pub const SRAM: &str = "sram";
    /// The DRAM buffer cache.
    pub const DRAM: &str = "dram";
    /// Every component name.
    pub const ALL: [&str; 5] = [DISK, FLASH, ARRAY, SRAM, DRAM];
}

/// The state names a [`Metrics::backend_states`] entry can carry: every
/// backend's energy states, each backend's in its report order. Names
/// two backends share appear once per backend.
pub fn backend_state_names() -> impl Iterator<Item = &'static str> {
    [
        DiskState::NAMES,
        FlashDiskState::NAMES,
        CardState::NAMES,
        ArrayState::NAMES,
    ]
    .into_iter()
    .flatten()
    .copied()
}

/// Results of one simulation run (the measured, post-warm-up portion).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// The configuration label (Table 4 row).
    pub name: String,
    /// Total energy over the measured portion, all components.
    pub energy: Joules,
    /// Energy per component, named from [`component`]: the backend's
    /// first, then `sram` and `dram` where present.
    pub energy_by_component: Vec<(&'static str, Joules)>,
    /// The backend device's per-state breakdown: `(state, energy, time in
    /// state)` — e.g. how long the disk spent spun down, or the card spent
    /// cleaning. Time covers only states charged as power × duration.
    pub backend_states: Vec<(&'static str, Joules, SimDuration)>,
    /// Read response times in milliseconds (mean/max/σ as in Table 4).
    pub read_response_ms: Summary,
    /// Write response times in milliseconds.
    pub write_response_ms: Summary,
    /// All operations' response times in milliseconds (Figure 4 reports
    /// "average over-all response time").
    pub overall_response_ms: Summary,
    /// Log-bucketed read response-time distribution (for percentiles).
    pub read_latency: Histogram,
    /// Log-bucketed write response-time distribution.
    pub write_latency: Histogram,
    /// Log-bucketed response-time distribution over all operations.
    pub overall_latency: Histogram,
    /// Retry-backoff episodes (write retries, erase-pulse retries, and
    /// ECC read retries on the flash card), in milliseconds per episode.
    pub backoff_ms: Summary,
    /// Log-bucketed distribution of those backoff episodes (for
    /// percentiles).
    pub backoff_latency: Histogram,
    /// Degraded-read episodes on an erasure-coded array (reads that had
    /// to decode around missing shards), in milliseconds per episode.
    pub degraded_read_ms: Summary,
    /// Log-bucketed distribution of those degraded reads (the durability
    /// sweep's p99 column).
    pub degraded_read_latency: Histogram,
    /// Wall-clock span of the measured portion.
    pub duration: SimDuration,
    /// DRAM cache behaviour, if a cache was configured.
    pub cache: Option<CacheStats>,
    /// SRAM write-buffer behaviour, if one was configured.
    pub sram: Option<SramStats>,
    /// Magnetic-disk counters, for disk backends.
    pub disk: Option<DiskCounters>,
    /// Flash-disk counters, for flash-disk backends.
    pub flash_disk: Option<FlashDiskCounters>,
    /// Flash-card counters, for flash-card backends.
    pub flash_card: Option<FlashCardCounters>,
    /// Erasure-coded array counters, for ec-array backends.
    pub array: Option<ArrayCounters>,
    /// Flash-card endurance statistics (§5.2), for flash-card backends.
    pub wear: Option<WearStats>,
    /// Dirty write-back blocks lost to injected power failures (volatile
    /// DRAM contents do not survive an outage).
    pub lost_dirty_blocks: u64,
    /// Write operations refused by a backend in read-only end-of-life
    /// mode (graceful degradation: the run drains instead of aborting).
    pub rejected_writes: u64,
    /// Blocks those refused writes covered.
    pub rejected_blocks: u64,
    /// Backend read accesses that came back uncorrectable (the integrity
    /// study's one permitted data-loss outcome: reported, never silent).
    pub uncorrectable_reads: u64,
}

/// Fault-injection and recovery totals, combined across backends so a
/// reliability report reads one shape whether the run was on the disk or
/// the flash card.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Transient write failures retried.
    pub write_retries: u64,
    /// Transient erase-pulse failures retried (flash card only).
    pub erase_retries: u64,
    /// Segments permanently retired into the bad-block map (flash card
    /// only).
    pub segments_retired: u64,
    /// Power failures survived.
    pub power_failures: u64,
    /// Total simulated time spent in recovery scans.
    pub recovery_time: SimDuration,
    /// Dirty write-back blocks lost to power failures.
    pub lost_dirty_blocks: u64,
    /// Writes refused after a flash card degraded to read-only at end of
    /// life.
    pub rejected_writes: u64,
    /// Permanent child-device deaths on an erasure-coded array.
    pub device_deaths: u64,
    /// Stripes an array reported unreconstructable (losses beyond `m`).
    pub data_loss_events: u64,
}

/// Merges a named accumulator list (`energy_by_component`-style): values
/// for names already present add in place, new names append in `other`'s
/// order.
fn merge_named<T: Copy, F: Fn(&mut T, T)>(
    into: &mut Vec<(&'static str, T)>,
    other: &[(&'static str, T)],
    add: F,
) {
    for &(name, value) in other {
        match into.iter_mut().find(|(n, _)| *n == name) {
            Some((_, existing)) => add(existing, value),
            None => into.push((name, value)),
        }
    }
}

/// Merges optional component counters: `Some + Some` merges field-wise,
/// `None + Some` adopts the other side's counters.
fn merge_opt<T: Copy, F: Fn(&mut T, &T)>(into: &mut Option<T>, other: &Option<T>, merge: F) {
    if let Some(o) = other {
        match into {
            Some(existing) => merge(existing, o),
            None => *into = Some(*o),
        }
    }
}

impl Metrics {
    /// An all-zero result carrying only a label: the identity for
    /// [`merge`](Self::merge), and the fold seed for fleet aggregation.
    pub fn empty(name: &str) -> Metrics {
        Metrics {
            name: name.to_string(),
            ..Metrics::default()
        }
    }

    /// Folds another run's results into this one, as if both populations
    /// of operations had been observed by a single (fleet-wide) meter.
    ///
    /// Energy, histograms, response-time moments, and every component
    /// counter add; `duration` takes the maximum because merged runs
    /// model shards executing concurrently, not back to back. The `name`
    /// keeps `self`'s label. Merging [`Metrics::empty`] in either
    /// direction is an identity (up to the label).
    pub fn merge(&mut self, other: &Metrics) {
        self.energy += other.energy;
        merge_named(
            &mut self.energy_by_component,
            &other.energy_by_component,
            |a, b| *a += b,
        );
        for &(name, e, d) in &other.backend_states {
            match self.backend_states.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, se, sd)) => {
                    *se += e;
                    *sd += d;
                }
                None => self.backend_states.push((name, e, d)),
            }
        }
        for ((_, sum, hist), (_, other_sum, other_hist)) in
            self.channels_mut().into_iter().zip(other.channels())
        {
            sum.merge(other_sum);
            hist.merge(other_hist);
        }
        self.duration = self.duration.max(other.duration);
        merge_opt(&mut self.cache, &other.cache, CacheStats::merge);
        merge_opt(&mut self.sram, &other.sram, SramStats::merge);
        merge_opt(&mut self.disk, &other.disk, DiskCounters::merge);
        merge_opt(
            &mut self.flash_disk,
            &other.flash_disk,
            FlashDiskCounters::merge,
        );
        merge_opt(
            &mut self.flash_card,
            &other.flash_card,
            FlashCardCounters::merge,
        );
        merge_opt(&mut self.array, &other.array, ArrayCounters::merge);
        merge_opt(&mut self.wear, &other.wear, WearStats::merge);
        self.lost_dirty_blocks += other.lost_dirty_blocks;
        self.rejected_writes += other.rejected_writes;
        self.rejected_blocks += other.rejected_blocks;
        self.uncorrectable_reads += other.uncorrectable_reads;
    }

    /// Mean power draw over the measured portion, in watts.
    pub fn mean_power_w(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.energy.get() / secs
        }
    }

    /// Fraction of the measured span the backend spent in `state`
    /// (e.g. `"standby"` for the disk, `"clean"` for the card), or `None`
    /// if the state is unknown or the span is empty.
    pub fn state_fraction(&self, state: &str) -> Option<f64> {
        let span = self.duration.as_secs_f64();
        if span == 0.0 {
            return None;
        }
        self.backend_states
            .iter()
            .find(|(name, _, _)| *name == state)
            .map(|(_, _, d)| d.as_secs_f64() / span)
    }

    /// DRAM read hit ratio, if a cache was configured and saw reads.
    pub fn read_hit_ratio(&self) -> Option<f64> {
        let c = self.cache?;
        let total = c.read_hits + c.read_misses;
        if total == 0 {
            None
        } else {
            Some(c.read_hits as f64 / total as f64)
        }
    }

    /// Collects the fault/recovery counters from whichever backend ran.
    pub fn fault_totals(&self) -> FaultTotals {
        let mut t = FaultTotals {
            lost_dirty_blocks: self.lost_dirty_blocks,
            rejected_writes: self.rejected_writes,
            ..FaultTotals::default()
        };
        if let Some(d) = self.disk {
            t.power_failures += d.power_failures;
            t.recovery_time += d.recovery_time;
        }
        if let Some(f) = self.flash_disk {
            t.power_failures += f.power_failures;
            t.recovery_time += f.recovery_time;
        }
        if let Some(c) = self.flash_card {
            t.write_retries += c.write_retries;
            t.erase_retries += c.erase_retries;
            t.segments_retired += c.segments_retired;
            t.power_failures += c.power_failures;
            t.recovery_time += c.recovery_time;
        }
        if let Some(a) = self.array {
            t.power_failures += a.power_failures;
            t.recovery_time += a.recovery_time;
            t.device_deaths += a.device_deaths;
            t.data_loss_events += a.data_loss_events;
        }
        t
    }

    /// Percentiles over all operations' response times (p50/p90/p99/p99.9,
    /// milliseconds) from the log-bucketed histogram.
    pub fn overall_percentiles(&self) -> Percentiles {
        self.overall_latency.percentiles_ms()
    }

    /// Flattens every component counter into one sorted name→value
    /// registry (`"dram.read_hits"`, `"card.erasures"`, …) for
    /// machine-readable export. Only the components that ran appear.
    pub fn counters(&self) -> CounterRegistry {
        let mut reg = CounterRegistry::new();
        for (keys, values) in self.counter_sets() {
            for (key, value) in keys.iter().zip(values.unwrap_or_default()) {
                reg.add(key, value);
            }
        }
        reg.add("lost_dirty_blocks", self.lost_dirty_blocks);
        reg.add("rejected_writes", self.rejected_writes);
        reg.add("rejected_blocks", self.rejected_blocks);
        reg.add("uncorrectable_reads", self.uncorrectable_reads);
        reg
    }

    /// The six component counter sets (cache, SRAM, disk, flash disk,
    /// flash card, array), each as its export keys and its raw values,
    /// the values `None` when the component did not run. The export and
    /// the fleet checkpoint both walk this list.
    pub fn counter_sets(&self) -> [(&'static [&'static str], Option<Vec<u64>>); 6] {
        fn raw<S: CounterSet>(set: Option<S>) -> (&'static [&'static str], Option<Vec<u64>>) {
            (S::KEYS, set.map(|s| s.values()))
        }
        [
            raw(self.cache),
            raw(self.sram),
            raw(self.disk),
            raw(self.flash_disk),
            raw(self.flash_card),
            raw(self.array),
        ]
    }

    /// The five latency channels as `(name, moments, histogram)`: read,
    /// write, overall, retry backoff, and degraded array reads.
    pub fn channels(&self) -> [(&'static str, &Summary, &Histogram); 5] {
        [
            ("read", &self.read_response_ms, &self.read_latency),
            ("write", &self.write_response_ms, &self.write_latency),
            ("overall", &self.overall_response_ms, &self.overall_latency),
            ("backoff", &self.backoff_ms, &self.backoff_latency),
            (
                "degraded",
                &self.degraded_read_ms,
                &self.degraded_read_latency,
            ),
        ]
    }

    /// [`channels`](Self::channels), mutably, in the same order.
    pub fn channels_mut(&mut self) -> [(&'static str, &mut Summary, &mut Histogram); 5] {
        [
            ("read", &mut self.read_response_ms, &mut self.read_latency),
            (
                "write",
                &mut self.write_response_ms,
                &mut self.write_latency,
            ),
            (
                "overall",
                &mut self.overall_response_ms,
                &mut self.overall_latency,
            ),
            ("backoff", &mut self.backoff_ms, &mut self.backoff_latency),
            (
                "degraded",
                &mut self.degraded_read_ms,
                &mut self.degraded_read_latency,
            ),
        ]
    }

    /// Renders the Table 4 row: energy, read mean/max/σ, write mean/max/σ.
    pub fn table4_row(&self) -> String {
        format!(
            "{:<34} {:>10.0} {:>9.2} {:>9.1} {:>7.1} {:>9.2} {:>9.1} {:>7.1}",
            self.name,
            self.energy.get(),
            self.read_response_ms.mean,
            self.read_response_ms.max,
            self.read_response_ms.std,
            self.write_response_ms.mean,
            self.write_response_ms.max,
            self.write_response_ms.std,
        )
    }

    /// The header matching [`table4_row`](Self::table4_row).
    pub fn table4_header() -> String {
        format!(
            "{:<34} {:>10} {:>9} {:>9} {:>7} {:>9} {:>9} {:>7}",
            "Device / parameters",
            "Energy(J)",
            "Rd mean",
            "Rd max",
            "Rd sd",
            "Wr mean",
            "Wr max",
            "Wr sd"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> Metrics {
        Metrics {
            name: "test".into(),
            energy: Joules(100.0),
            energy_by_component: vec![("disk", Joules(90.0)), ("dram", Joules(10.0))],
            backend_states: vec![("standby", Joules(5.0), SimDuration::from_secs(25))],
            read_response_ms: Summary {
                count: 10,
                mean: 2.0,
                max: 50.0,
                min: 0.1,
                std: 5.0,
                sum: 20.0,
            },
            write_response_ms: Summary {
                count: 5,
                mean: 1.0,
                max: 10.0,
                min: 0.1,
                std: 2.0,
                sum: 5.0,
            },
            overall_response_ms: Summary {
                count: 15,
                mean: 1.7,
                max: 50.0,
                min: 0.1,
                std: 4.0,
                sum: 25.0,
            },
            duration: SimDuration::from_secs(50),
            cache: Some(CacheStats {
                read_hits: 80,
                read_misses: 20,
                writes: 10,
                writebacks: 0,
                fill_rejects: 0,
            }),
            ..Metrics::default()
        }
    }

    #[test]
    fn merge_adds_counters_and_keeps_max_duration() {
        let mut a = dummy();
        let mut b = dummy();
        b.duration = SimDuration::from_secs(20);
        b.energy_by_component = vec![("dram", Joules(1.0)), ("sram", Joules(2.0))];
        b.backend_states = vec![
            ("standby", Joules(5.0), SimDuration::from_secs(25)),
            ("active", Joules(1.0), SimDuration::from_secs(1)),
        ];
        b.lost_dirty_blocks = 7;
        a.merge(&b);
        assert_eq!(a.energy, Joules(200.0));
        assert_eq!(a.duration, SimDuration::from_secs(50));
        assert_eq!(a.read_response_ms.count, 20);
        assert_eq!(a.lost_dirty_blocks, 7);
        assert_eq!(
            a.energy_by_component,
            vec![
                ("disk", Joules(90.0)),
                ("dram", Joules(11.0)),
                ("sram", Joules(2.0))
            ]
        );
        assert_eq!(a.backend_states.len(), 2);
        assert_eq!(a.backend_states[0].2, SimDuration::from_secs(50));
        let c = a.cache.unwrap();
        assert_eq!(c.read_hits, 160);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = dummy();
        a.merge(&Metrics::empty("zero"));
        let dbg_a = format!("{a:?}").replace("name: \"test\"", "");
        let mut e = Metrics::empty("zero");
        e.merge(&dummy());
        let dbg_e = format!("{e:?}").replace("name: \"zero\"", "");
        assert_eq!(dbg_a, dbg_e);
        assert_eq!(a.energy, dummy().energy);
        assert_eq!(a.read_response_ms, dummy().read_response_ms);
    }

    #[test]
    fn fault_totals_combine_backends() {
        let mut m = dummy();
        assert_eq!(m.fault_totals(), FaultTotals::default());
        m.lost_dirty_blocks = 3;
        m.disk = Some(DiskCounters {
            power_failures: 2,
            recovery_time: SimDuration::from_secs(1),
            ..DiskCounters::default()
        });
        let t = m.fault_totals();
        assert_eq!(t.power_failures, 2);
        assert_eq!(t.lost_dirty_blocks, 3);
        assert_eq!(t.recovery_time, SimDuration::from_secs(1));
    }

    #[test]
    fn fault_totals_include_array_losses() {
        let mut m = dummy();
        m.array = Some(ArrayCounters {
            device_deaths: 2,
            data_loss_events: 1,
            power_failures: 3,
            recovery_time: SimDuration::from_secs(2),
            ..ArrayCounters::default()
        });
        let t = m.fault_totals();
        assert_eq!(t.device_deaths, 2);
        assert_eq!(t.data_loss_events, 1);
        assert_eq!(t.power_failures, 3);
        assert_eq!(t.recovery_time, SimDuration::from_secs(2));
        let reg = m.counters();
        assert_eq!(reg.get("array.device_deaths"), 2);
    }

    #[test]
    fn counters_export_every_key_of_all_six_sets() {
        // Each set's raw values count up from 1 in declaration order, so
        // the pin also fixes every key's position: its checkpoint column.
        fn set<S: CounterSet>() -> Option<S> {
            S::from_values(&(1..=S::KEYS.len() as u64).collect::<Vec<_>>())
        }
        let mut m = Metrics {
            cache: set(),
            sram: set(),
            disk: set(),
            flash_disk: set(),
            flash_card: set(),
            array: set(),
            ..dummy()
        };
        let got: Vec<(&str, u64)> = m.counters().iter().collect();
        assert_eq!(
            got,
            [
                ("array.bytes_read", 2),
                ("array.bytes_written", 3),
                ("array.data_loss_events", 10),
                ("array.degraded_reads", 4),
                ("array.device_deaths", 9),
                ("array.ops", 1),
                ("array.parity_updates", 5),
                ("array.power_failures", 12),
                ("array.read_only_rejections", 14),
                ("array.rebuild_ns", 8),
                ("array.rebuild_stripes", 6),
                ("array.rebuilds_completed", 7),
                ("array.recovery_ns", 13),
                ("array.vulnerability_ns", 11),
                ("card.blocks_copied", 5),
                ("card.blocks_relocated", 16),
                ("card.bytes_read", 2),
                ("card.bytes_written", 3),
                ("card.cleaning_waits", 6),
                ("card.ecc_corrected", 13),
                ("card.eol_write_rejections", 12),
                ("card.erase_retries", 8),
                ("card.erase_retry_backoff_ns", 20),
                ("card.erasures", 4),
                ("card.ops", 1),
                ("card.power_failures", 10),
                ("card.read_retries", 14),
                ("card.recovery_ns", 11),
                ("card.scrub_passes", 17),
                ("card.scrub_reads", 18),
                ("card.segments_retired", 9),
                ("card.uncorrectable_reads", 15),
                ("card.write_retries", 7),
                ("card.write_retry_backoff_ns", 19),
                ("disk.bytes_read", 4),
                ("disk.bytes_written", 5),
                ("disk.ops", 1),
                ("disk.power_failures", 6),
                ("disk.recovery_ns", 7),
                ("disk.spin_downs", 3),
                ("disk.spin_ups", 2),
                ("dram.fill_rejects", 5),
                ("dram.read_hits", 1),
                ("dram.read_misses", 2),
                ("dram.writebacks", 4),
                ("dram.writes", 3),
                ("flashdisk.bytes_erased_on_demand", 5),
                ("flashdisk.bytes_pre_erased", 4),
                ("flashdisk.bytes_read", 2),
                ("flashdisk.bytes_written", 3),
                ("flashdisk.ecc_corrected", 8),
                ("flashdisk.ops", 1),
                ("flashdisk.power_failures", 6),
                ("flashdisk.read_retries", 9),
                ("flashdisk.recovery_ns", 7),
                ("flashdisk.uncorrectable_reads", 10),
                ("lost_dirty_blocks", 0),
                ("rejected_blocks", 0),
                ("rejected_writes", 0),
                ("sram.absorbed", 1),
                ("sram.flushes", 2),
                ("sram.read_hits", 3),
                ("uncorrectable_reads", 0),
            ]
        );
        let card = m.flash_card.as_mut().expect("card set");
        card.recovery_time = SimDuration::from_micros(3);
        assert_eq!(m.counters().get("card.recovery_ns"), 3_000);
    }

    #[test]
    fn mean_power() {
        assert_eq!(dummy().mean_power_w(), 2.0);
        let mut m = dummy();
        m.duration = SimDuration::ZERO;
        assert_eq!(m.mean_power_w(), 0.0);
    }

    #[test]
    fn hit_ratio() {
        assert_eq!(dummy().read_hit_ratio(), Some(0.8));
        let mut m = dummy();
        m.cache = None;
        assert_eq!(m.read_hit_ratio(), None);
    }

    #[test]
    fn state_fraction() {
        let m = dummy();
        assert_eq!(m.state_fraction("standby"), Some(0.5));
        assert_eq!(m.state_fraction("warp"), None);
        let mut empty = dummy();
        empty.duration = SimDuration::ZERO;
        assert_eq!(empty.state_fraction("standby"), None);
    }

    #[test]
    fn row_renders_all_columns() {
        let row = dummy().table4_row();
        for needle in ["test", "100", "2.00", "50.0", "1.00", "10.0"] {
            assert!(row.contains(needle), "missing {needle} in {row}");
        }
        assert!(!Metrics::table4_header().is_empty());
    }
}
