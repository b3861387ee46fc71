//! The DRAM buffer cache.
//!
//! Every storage organisation in the paper includes a DRAM buffer cache
//! (§2). It is searched first on reads and is the target of all writes;
//! the paper's configurations use *write-through* caching (the Macintosh /
//! DOS behaviour, §4.2), with write-back available as the ablation the
//! §4.2 footnote alludes to ("a write-back cache might avoid some erasures
//! at the cost of occasional data loss").
//!
//! DRAM is the one component that draws significant power even when idle
//! (refresh), which is why §5.4 finds that adding DRAM to a flash-card
//! system can *cost* energy without improving performance.

use std::collections::HashSet;

use mobistore_device::params::DramParams;
use mobistore_sim::energy::{EnergyMeter, Joules, Watts};
use mobistore_sim::obs::{Event, Observer};
use mobistore_sim::span::{Span, SpanKind};
use mobistore_sim::time::{SimDuration, SimTime};
use mobistore_sim::units::MIB;

use crate::lru::LruSet;

/// Whether writes propagate immediately or on eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Every write also goes to non-volatile storage (the paper's default).
    WriteThrough,
    /// Writes dirty the cache; dirty blocks reach storage on eviction.
    WriteBack,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Blocks found in cache on reads.
    pub read_hits: u64,
    /// Blocks missed on reads.
    pub read_misses: u64,
    /// Blocks written.
    pub writes: u64,
    /// Dirty blocks pushed out by eviction (write-back only).
    pub writebacks: u64,
    /// Backend fills refused because the device reported the data
    /// uncorrectable: the cache must never hold blocks the device could
    /// not deliver intact.
    pub fill_rejects: u64,
}

impl CacheStats {
    /// Adds another cache's counters into this one (fleet aggregation:
    /// every field is a plain count, so merging is field-wise addition).
    pub fn merge(&mut self, other: &CacheStats) {
        self.read_hits += other.read_hits;
        self.read_misses += other.read_misses;
        self.writes += other.writes;
        self.writebacks += other.writebacks;
        self.fill_rejects += other.fill_rejects;
    }
}

/// A block was evicted and, if dirty, must be flushed by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted logical block.
    pub lbn: u64,
    /// True if the block held unwritten data (write-back only).
    pub dirty: bool,
}

/// A fixed-capacity block cache with LRU replacement and energy accounting.
///
/// # Examples
///
/// ```
/// use mobistore_cache::dram::{BufferCache, WritePolicy};
/// use mobistore_device::params::dram_nec;
/// use mobistore_sim::obs::NoopObserver;
/// use mobistore_sim::time::SimTime;
///
/// let mut cache = BufferCache::new(dram_nec(), 8 * 1024, 1024, WritePolicy::WriteThrough);
/// let t = SimTime::ZERO;
/// assert_eq!(cache.read_probe(t, &[1, 2], &mut NoopObserver).len(), 2, "both blocks miss");
/// cache.insert(1, false);
/// assert!(cache.read_probe(t, &[1], &mut NoopObserver).is_empty(), "now a hit");
/// ```
#[derive(Debug, Clone)]
pub struct BufferCache {
    params: DramParams,
    capacity_mib: f64,
    block_size: u64,
    lru: LruSet,
    dirty: HashSet<u64>,
    policy: WritePolicy,
    meter: EnergyMeter,
    stats: CacheStats,
}

const CATEGORIES: &[&str] = &["active", "idle"];

impl BufferCache {
    /// Creates a cache of `capacity_bytes` over blocks of `block_size`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no complete block.
    pub fn new(
        params: DramParams,
        capacity_bytes: u64,
        block_size: u64,
        policy: WritePolicy,
    ) -> Self {
        match Self::try_new(params, capacity_bytes, block_size, policy) {
            Ok(cache) => cache,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`new`](Self::new): returns a typed [`crate::CacheError`]
    /// instead of panicking on bad geometry.
    pub fn try_new(
        params: DramParams,
        capacity_bytes: u64,
        block_size: u64,
        policy: WritePolicy,
    ) -> Result<Self, crate::CacheError> {
        if block_size == 0 {
            return Err(crate::CacheError::ZeroBlockSize);
        }
        let blocks = (capacity_bytes / block_size) as usize;
        if blocks == 0 {
            return Err(crate::CacheError::Undersized {
                capacity_bytes,
                block_size,
            });
        }
        Ok(BufferCache {
            params,
            capacity_mib: capacity_bytes as f64 / MIB as f64,
            block_size,
            lru: LruSet::new(blocks),
            dirty: HashSet::new(),
            policy,
            meter: EnergyMeter::new(CATEGORIES),
            stats: CacheStats::default(),
        })
    }

    /// Returns the capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.lru.capacity()
    }

    /// Returns the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Notes `n` missed blocks whose backend fill was refused because the
    /// read came back uncorrectable; the cache stays unfilled for them.
    pub fn note_fill_rejects(&mut self, n: u64) {
        self.stats.fill_rejects += n;
    }

    /// Returns total energy consumed so far.
    pub fn energy(&self) -> Joules {
        self.meter.total()
    }

    /// Returns the energy meter for breakdowns.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Zeroes energy and counters while keeping contents (warm-up boundary).
    pub fn reset_metrics(&mut self) {
        self.meter = EnergyMeter::new(CATEGORIES);
        self.stats = CacheStats::default();
    }

    /// Probes a read issued at `now`: touches the blocks that hit and
    /// returns the blocks that miss, updating hit/miss counters. The split
    /// is reported to `obs` as an [`Event::CacheRead`] plus a
    /// [`SpanKind::CacheLookup`] span covering the cache's access time for
    /// the probed blocks.
    pub fn read_probe<O: Observer>(&mut self, now: SimTime, lbns: &[u64], obs: &mut O) -> Vec<u64> {
        let mut misses = Vec::new();
        for &lbn in lbns {
            if self.lru.touch(lbn) {
                self.stats.read_hits += 1;
            } else {
                self.stats.read_misses += 1;
                misses.push(lbn);
            }
        }
        let hits = (lbns.len() - misses.len()) as u32;
        obs.record(&Event::CacheRead {
            t: now,
            hits,
            misses: misses.len() as u32,
        });
        obs.span(&Span::new(
            SpanKind::CacheLookup {
                hits,
                misses: misses.len() as u32,
            },
            now,
            now + self.access_time(lbns.len() as u64 * self.block_size),
        ));
        misses
    }

    /// Inserts a block (`dirty` marks unwritten data under write-back);
    /// returns an eviction the caller may need to flush.
    pub fn insert(&mut self, lbn: u64, dirty: bool) -> Option<Evicted> {
        let mark_dirty = dirty && self.policy == WritePolicy::WriteBack;
        let evicted = self.lru.insert(lbn).map(|old| {
            let was_dirty = self.dirty.remove(&old);
            if was_dirty {
                self.stats.writebacks += 1;
            }
            Evicted {
                lbn: old,
                dirty: was_dirty,
            }
        });
        if mark_dirty {
            self.dirty.insert(lbn);
        } else if evicted.is_none_or(|e| e.lbn != lbn) {
            // A clean (write-through) insert of a block that may have been
            // dirty before.
            self.dirty.remove(&lbn);
        }
        evicted
    }

    /// Records a write of the given blocks issued at `now`, inserting them;
    /// returns the dirty evictions the caller must flush (write-back only).
    /// The absorbed blocks and dirty evictions are reported to `obs` as an
    /// [`Event::CacheWrite`].
    pub fn write<O: Observer>(&mut self, now: SimTime, lbns: &[u64], obs: &mut O) -> Vec<Evicted> {
        let mut out = Vec::new();
        for &lbn in lbns {
            self.stats.writes += 1;
            if let Some(e) = self.insert(lbn, true) {
                if e.dirty {
                    out.push(e);
                }
            }
        }
        obs.record(&Event::CacheWrite {
            t: now,
            blocks: lbns.len() as u32,
            dirty_evictions: out.len() as u32,
        });
        out
    }

    /// Drops a block (file deletion); returns true if it was present.
    pub fn invalidate(&mut self, lbn: u64) -> bool {
        self.dirty.remove(&lbn);
        self.lru.remove(lbn)
    }

    /// Drops every cached block, as a power failure does to volatile DRAM;
    /// returns the number of dirty (write-back) blocks that were lost.
    pub fn power_fail_clear(&mut self) -> u64 {
        let lost = self.dirty.len() as u64;
        self.dirty.clear();
        while self.lru.pop_lru().is_some() {}
        lost
    }

    /// Removes and returns every dirty block (used to flush a write-back
    /// cache at the end of a run).
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self.dirty.drain().collect();
        dirty.sort_unstable();
        dirty
    }

    /// Time to move `bytes` between the CPU and the cache.
    pub fn access_time(&self, bytes: u64) -> SimDuration {
        self.params.access_latency + self.params.bandwidth.transfer_time(bytes)
    }

    /// Charges the energy of one access of `bytes` (the array draws its
    /// active power for the transfer duration, on top of refresh).
    pub fn charge_access(&mut self, bytes: u64) {
        let dur = self.access_time(bytes);
        let delta = Watts(
            (self.params.active_power_per_mib.get() - self.params.idle_power_per_mib.get())
                * self.capacity_mib,
        );
        self.meter.charge_for("active", delta, dur);
    }

    /// Charges refresh power for a span of simulated time; call once with
    /// the measured portion's duration.
    pub fn charge_idle_span(&mut self, span: SimDuration) {
        let refresh = Watts(self.params.idle_power_per_mib.get() * self.capacity_mib);
        self.meter.charge_for("idle", refresh, span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_device::params::dram_nec;
    use mobistore_sim::obs::NoopObserver;

    const T0: SimTime = SimTime::ZERO;

    fn cache(blocks: u64, policy: WritePolicy) -> BufferCache {
        BufferCache::new(dram_nec(), blocks * 1024, 1024, policy)
    }

    #[test]
    fn read_probe_counts_hits_and_misses() {
        let mut c = cache(4, WritePolicy::WriteThrough);
        c.insert(1, false);
        c.insert(2, false);
        let misses = c.read_probe(T0, &[1, 2, 3], &mut NoopObserver);
        assert_eq!(misses, vec![3]);
        let s = c.stats();
        assert_eq!(s.read_hits, 2);
        assert_eq!(s.read_misses, 1);
    }

    #[test]
    fn lru_eviction_on_overflow() {
        let mut c = cache(2, WritePolicy::WriteThrough);
        c.insert(1, false);
        c.insert(2, false);
        let e = c.insert(3, false).expect("evicts");
        assert_eq!(e.lbn, 1);
        assert!(!e.dirty, "write-through evictions are clean");
    }

    #[test]
    fn write_through_never_reports_dirty_evictions() {
        let mut c = cache(2, WritePolicy::WriteThrough);
        let flushes = c.write(T0, &[1, 2, 3, 4], &mut NoopObserver);
        assert!(flushes.is_empty());
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn power_fail_clear_empties_and_counts_lost_dirt() {
        let mut c = cache(4, WritePolicy::WriteBack);
        c.write(T0, &[1, 2], &mut NoopObserver);
        c.insert(3, false);
        assert_eq!(c.power_fail_clear(), 2, "two dirty blocks lost");
        // Everything is gone: all three blocks now miss.
        assert_eq!(
            c.read_probe(T0, &[1, 2, 3], &mut NoopObserver),
            vec![1, 2, 3]
        );
        assert!(c.drain_dirty().is_empty());
    }

    #[test]
    fn write_back_reports_dirty_evictions() {
        let mut c = cache(2, WritePolicy::WriteBack);
        let flushes = c.write(T0, &[1, 2, 3], &mut NoopObserver);
        assert_eq!(flushes.len(), 1);
        assert_eq!(flushes[0].lbn, 1);
        assert!(flushes[0].dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn drain_dirty_returns_sorted_blocks() {
        let mut c = cache(8, WritePolicy::WriteBack);
        c.write(T0, &[5, 1, 3], &mut NoopObserver);
        assert_eq!(c.drain_dirty(), vec![1, 3, 5]);
        assert!(c.drain_dirty().is_empty(), "drained");
    }

    #[test]
    fn invalidate_drops_block() {
        let mut c = cache(4, WritePolicy::WriteBack);
        c.write(T0, &[7], &mut NoopObserver);
        assert!(c.invalidate(7));
        assert!(!c.invalidate(7));
        assert_eq!(c.read_probe(T0, &[7], &mut NoopObserver), vec![7]);
        assert!(c.drain_dirty().is_empty(), "invalidate clears dirty state");
    }

    #[test]
    fn clean_reinsert_clears_dirty_bit() {
        let mut c = cache(4, WritePolicy::WriteBack);
        c.write(T0, &[1], &mut NoopObserver);
        // E.g. the block was flushed by the caller and refilled clean.
        c.insert(1, false);
        assert!(c.drain_dirty().is_empty());
    }

    #[test]
    fn energy_accumulates() {
        let mut c = cache(2048, WritePolicy::WriteThrough);
        c.charge_access(4096);
        c.charge_idle_span(SimDuration::from_secs(100));
        assert!(c.meter().category("active").get() > 0.0);
        // 2 MiB at 0.025 W/MiB for 100 s = 5 J.
        assert!((c.meter().category("idle").get() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn access_time_scales_with_bytes() {
        let c = cache(4, WritePolicy::WriteThrough);
        assert!(c.access_time(64 * 1024) > c.access_time(1024));
    }

    #[test]
    #[should_panic(expected = "smaller than one block")]
    fn undersized_cache_panics() {
        let _ = BufferCache::new(dram_nec(), 512, 1024, WritePolicy::WriteThrough);
    }

    #[test]
    fn try_new_returns_typed_geometry_errors() {
        use crate::CacheError;
        let e = BufferCache::try_new(dram_nec(), 512, 1024, WritePolicy::WriteThrough)
            .expect_err("undersized");
        assert_eq!(
            e,
            CacheError::Undersized {
                capacity_bytes: 512,
                block_size: 1024
            }
        );
        let e = BufferCache::try_new(dram_nec(), 512, 0, WritePolicy::WriteThrough)
            .expect_err("zero block size");
        assert_eq!(e, CacheError::ZeroBlockSize);
        assert!(BufferCache::try_new(dram_nec(), 8192, 1024, WritePolicy::WriteBack).is_ok());
    }
}
