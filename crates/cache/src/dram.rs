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

use mobistore_device::params::DramParams;
use mobistore_sim::energy::{EnergyMeter, Joules, Watts};
use mobistore_sim::obs::{Event, Observer};
use mobistore_sim::price::PriceTable;
use mobistore_sim::span::{Span, SpanKind};
use mobistore_sim::time::{SimDuration, SimTime};
use mobistore_sim::units::MIB;

use crate::lru::LruSet;
use crate::MemoryState;

/// Whether writes propagate immediately or on eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Every write also goes to non-volatile storage (the paper's default).
    WriteThrough,
    /// Writes dirty the cache; dirty blocks reach storage on eviction.
    WriteBack,
}

mobistore_sim::counter_set! {
    /// Hit/miss counters.
    pub struct CacheStats {
        /// Blocks found in cache on reads.
        pub read_hits: u64 => "dram.read_hits",
        /// Blocks missed on reads.
        pub read_misses: u64 => "dram.read_misses",
        /// Blocks written.
        pub writes: u64 => "dram.writes",
        /// Dirty blocks pushed out by eviction (write-back only).
        pub writebacks: u64 => "dram.writebacks",
        /// Backend fills refused because the device reported the data
        /// uncorrectable: the cache must never hold blocks the device could
        /// not deliver intact.
        pub fill_rejects: u64 => "dram.fill_rejects",
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
/// use mobistore_sim::time::{SimDuration, SimTime};
///
/// let mut cache = BufferCache::new(dram_nec(), 8 * 1024, 1024, WritePolicy::WriteThrough);
/// let t = SimTime::ZERO;
/// let mut misses = Vec::new();
/// let access = cache.read_probe(t, &[1, 2], &mut misses, &mut NoopObserver);
/// assert_eq!(misses, [1, 2], "both blocks miss");
/// assert!(access > SimDuration::ZERO, "a probe costs its access time");
/// cache.insert(1, false);
/// cache.read_probe(t, &[1], &mut misses, &mut NoopObserver);
/// assert!(misses.is_empty(), "now a hit");
/// ```
#[derive(Debug, Clone)]
pub struct BufferCache {
    params: DramParams,
    capacity_mib: f64,
    block_size: u64,
    /// The cached blocks; a block's dirty bit (write-back only) lives in
    /// its LRU slot.
    lru: LruSet,
    policy: WritePolicy,
    /// One access's time, and its energy above refresh.
    access: PriceTable,
    meter: EnergyMeter<MemoryState>,
    stats: CacheStats,
}

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
        let capacity_mib = capacity_bytes as f64 / MIB as f64;
        // An access draws its active power on top of refresh.
        let access = PriceTable::new(
            params.access_latency,
            params.bandwidth,
            Watts(
                (params.active_power_per_mib.get() - params.idle_power_per_mib.get())
                    * capacity_mib,
            ),
        );
        Ok(BufferCache {
            params,
            capacity_mib,
            block_size,
            lru: LruSet::new(blocks),
            policy,
            access,
            meter: EnergyMeter::new(),
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
    pub fn meter(&self) -> &EnergyMeter<MemoryState> {
        &self.meter
    }

    /// Zeroes energy and counters while keeping contents (warm-up boundary).
    pub fn reset_metrics(&mut self) {
        self.meter = EnergyMeter::new();
        self.stats = CacheStats::default();
    }

    /// Probes a read issued at `now`: touches the blocks that hit and
    /// replaces the contents of `misses` with the blocks that miss,
    /// updating hit/miss counters, and charges the access of every probed
    /// block. Returns that access time. The split is reported to `obs` as
    /// an [`Event::CacheRead`] plus a [`SpanKind::CacheLookup`] span
    /// covering the access time.
    pub fn read_probe<O: Observer>(
        &mut self,
        now: SimTime,
        lbns: &[u64],
        misses: &mut Vec<u64>,
        obs: &mut O,
    ) -> SimDuration {
        misses.clear();
        for &lbn in lbns {
            if self.lru.touch(lbn) {
                self.stats.read_hits += 1;
            } else {
                self.stats.read_misses += 1;
                misses.push(lbn);
            }
        }
        let access = self.charge_access(lbns.len() as u64 * self.block_size);
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
            now + access,
        ));
        access
    }

    /// Inserts a block (`dirty` marks unwritten data under write-back);
    /// returns an eviction the caller may need to flush. A clean insert
    /// (write-through, or a fill after a read miss) clears the block's
    /// dirty bit.
    #[inline]
    pub fn insert(&mut self, lbn: u64, dirty: bool) -> Option<Evicted> {
        let mark_dirty = dirty && self.policy == WritePolicy::WriteBack;
        let (old, was_dirty) = self.lru.insert_dirty(lbn, mark_dirty)?;
        if was_dirty {
            self.stats.writebacks += 1;
        }
        Some(Evicted {
            lbn: old,
            dirty: was_dirty,
        })
    }

    /// Records a write of the given blocks issued at `now`, inserting them,
    /// replaces the contents of `flushes` with the dirty evictions the
    /// caller must flush (write-back only), and charges the access of the
    /// written blocks. Returns that access time. The absorbed blocks and
    /// dirty evictions are reported to `obs` as an [`Event::CacheWrite`].
    pub fn write<O: Observer>(
        &mut self,
        now: SimTime,
        lbns: &[u64],
        flushes: &mut Vec<u64>,
        obs: &mut O,
    ) -> SimDuration {
        flushes.clear();
        for &lbn in lbns {
            self.stats.writes += 1;
            if let Some(e) = self.insert(lbn, true) {
                if e.dirty {
                    flushes.push(e.lbn);
                }
            }
        }
        obs.record(&Event::CacheWrite {
            t: now,
            blocks: lbns.len() as u32,
            dirty_evictions: flushes.len() as u32,
        });
        self.charge_access(lbns.len() as u64 * self.block_size)
    }

    /// Drops a block (file deletion) and its dirty data; returns true if
    /// it was present.
    pub fn invalidate(&mut self, lbn: u64) -> bool {
        self.lru.remove(lbn)
    }

    /// Drops every cached block, as a power failure does to volatile DRAM;
    /// returns the number of dirty (write-back) blocks that were lost.
    pub fn power_fail_clear(&mut self) -> u64 {
        let lost = self.lru.dirty_len() as u64;
        while self.lru.pop_lru().is_some() {}
        lost
    }

    /// Marks every dirty block clean and returns them in ascending order
    /// (used to flush a write-back cache at the end of a run).
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut dirty = Vec::with_capacity(self.lru.dirty_len());
        self.lru.take_dirty(&mut dirty);
        dirty.sort_unstable();
        dirty
    }

    /// Charges the energy of one access of `bytes` and returns its time:
    /// the latency plus the transfer, during which the array draws its
    /// active power on top of refresh.
    #[inline]
    fn charge_access(&mut self, bytes: u64) -> SimDuration {
        let cost = self.access.price(bytes);
        self.meter
            .charge_timed(MemoryState::Active, cost.energy, cost.time);
        cost.time
    }

    /// Charges refresh power for a span of simulated time; call once with
    /// the measured portion's duration.
    pub fn charge_idle_span(&mut self, span: SimDuration) {
        let refresh = Watts(self.params.idle_power_per_mib.get() * self.capacity_mib);
        self.meter.charge_for(MemoryState::Idle, refresh, span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruSet;
    use crate::testing::assert_prices_match;
    use mobistore_device::params::dram_nec;
    use mobistore_sim::obs::NoopObserver;
    use mobistore_sim::rng::SimRng;

    impl BufferCache {
        /// The power an access draws above refresh.
        fn access_power(&self) -> Watts {
            let p = &self.params;
            Watts((p.active_power_per_mib.get() - p.idle_power_per_mib.get()) * self.capacity_mib)
        }

        /// Replaces the price table with a fresh one, which knows no size.
        fn forget_prices(&mut self) {
            let p = &self.params;
            self.access = PriceTable::new(p.access_latency, p.bandwidth, self.access_power());
        }
    }

    #[test]
    fn the_access_table_prices_every_size_as_the_formula() {
        let mut c = cache(512, WritePolicy::WriteThrough);
        let (p, power) = (c.params.clone(), c.access_power());
        assert_prices_match(&mut c.access, p.access_latency, p.bandwidth, power, 1024);
    }

    #[test]
    fn memoized_prices_match_a_twin_that_prices_every_access_afresh() {
        // Reads and writes of 1 to 64 blocks (one in twenty up to 512),
        // refresh spans, evictions and one power failure. Before every
        // access the twin's table is replaced, so every price it charges
        // is computed by the formula at that access.
        let mut rng = SimRng::seed_from_u64(1994);
        let mut memo = cache(2_048, WritePolicy::WriteBack);
        let mut twin = memo.clone();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..20_000 {
            let most = if rng.chance(0.05) { 512 } else { 64 };
            let n = rng.range_inclusive(1, most);
            let start = rng.below(8_000);
            let lbns: Vec<u64> = (start..start + n).collect();
            let now = SimTime::from_nanos(i * 1_000);
            twin.forget_prices();
            match rng.below(10) {
                0..=4 => assert_eq!(
                    memo.read_probe(now, &lbns, &mut a, &mut NoopObserver),
                    twin.read_probe(now, &lbns, &mut b, &mut NoopObserver)
                ),
                5..=8 => assert_eq!(
                    memo.write(now, &lbns, &mut a, &mut NoopObserver),
                    twin.write(now, &lbns, &mut b, &mut NoopObserver)
                ),
                _ => {
                    let span = SimDuration::from_micros(rng.below(5_000_000));
                    memo.charge_idle_span(span);
                    twin.charge_idle_span(span);
                }
            }
            assert_eq!(a, b, "access {i}");
            if i == 10_000 {
                assert_eq!(memo.power_fail_clear(), twin.power_fail_clear());
            }
        }
        assert_eq!(memo.meter, twin.meter);
        assert_eq!(memo.stats, twin.stats);
        assert!(memo.stats.read_hits > 0 && memo.stats.writebacks > 0);
    }

    const T0: SimTime = SimTime::ZERO;

    fn cache(blocks: u64, policy: WritePolicy) -> BufferCache {
        BufferCache::new(dram_nec(), blocks * 1024, 1024, policy)
    }

    /// Probes a read of `lbns`, returning the misses.
    fn probe(c: &mut BufferCache, lbns: &[u64]) -> Vec<u64> {
        let mut misses = vec![99]; // Stale contents are replaced.
        c.read_probe(T0, lbns, &mut misses, &mut NoopObserver);
        misses
    }

    /// Writes `lbns`, returning the dirty evictions to flush.
    fn write(c: &mut BufferCache, lbns: &[u64]) -> Vec<u64> {
        let mut flushes = vec![99]; // Stale contents are replaced.
        c.write(T0, lbns, &mut flushes, &mut NoopObserver);
        flushes
    }

    #[test]
    fn read_probe_counts_hits_and_misses() {
        let mut c = cache(4, WritePolicy::WriteThrough);
        c.insert(1, false);
        c.insert(2, false);
        let misses = probe(&mut c, &[1, 2, 3]);
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
        let flushes = write(&mut c, &[1, 2, 3, 4]);
        assert!(flushes.is_empty());
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn power_fail_clear_empties_and_counts_lost_dirt() {
        let mut c = cache(4, WritePolicy::WriteBack);
        write(&mut c, &[1, 2]);
        c.insert(3, false);
        assert_eq!(c.power_fail_clear(), 2, "two dirty blocks lost");
        // Everything is gone: all three blocks now miss.
        assert_eq!(probe(&mut c, &[1, 2, 3]), vec![1, 2, 3]);
        assert!(c.drain_dirty().is_empty());
        // An eviction (5 pushes out 1), an invalidation and a clean
        // reinsert each take one block's dirt with them.
        let mut c = cache(4, WritePolicy::WriteBack);
        write(&mut c, &[1, 2, 3, 4, 5]);
        c.invalidate(2);
        c.insert(3, false);
        assert_eq!(c.power_fail_clear(), 2, "blocks 4 and 5 lost");
    }

    #[test]
    fn write_back_reports_dirty_evictions() {
        let mut c = cache(2, WritePolicy::WriteBack);
        let flushes = write(&mut c, &[1, 2, 3]);
        assert_eq!(flushes, vec![1], "only the dirty eviction of block 1");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn drain_dirty_returns_sorted_blocks() {
        let mut c = cache(8, WritePolicy::WriteBack);
        write(&mut c, &[5, 1, 3]);
        assert_eq!(c.drain_dirty(), vec![1, 3, 5]);
        assert!(c.drain_dirty().is_empty(), "drained");
    }

    #[test]
    fn invalidate_drops_block() {
        let mut c = cache(4, WritePolicy::WriteBack);
        write(&mut c, &[7]);
        assert!(c.invalidate(7));
        assert!(!c.invalidate(7));
        assert_eq!(probe(&mut c, &[7]), vec![7]);
        assert!(c.drain_dirty().is_empty(), "invalidate clears dirty state");
    }

    #[test]
    fn clean_reinsert_clears_dirty_bit() {
        let mut c = cache(4, WritePolicy::WriteBack);
        write(&mut c, &[1]);
        // E.g. the block was flushed by the caller and refilled clean.
        c.insert(1, false);
        assert!(c.drain_dirty().is_empty());
    }

    #[test]
    fn energy_accumulates() {
        let mut c = cache(2048, WritePolicy::WriteThrough);
        c.charge_access(4096);
        c.charge_idle_span(SimDuration::from_secs(100));
        assert!(c.meter().category(MemoryState::Active).get() > 0.0);
        // 2 MiB at 0.025 W/MiB for 100 s = 5 J.
        assert!((c.meter().category(MemoryState::Idle).get() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn access_time_scales_with_bytes() {
        let mut c = cache(4, WritePolicy::WriteThrough);
        assert!(c.charge_access(64 * 1024) > c.charge_access(1024));
    }

    #[test]
    fn read_probe_and_write_return_the_time_they_charge() {
        let p = dram_nec();
        let mut c = cache(64, WritePolicy::WriteThrough);
        let capacity_mib = (64 * 1024) as f64 / MIB as f64;
        let delta =
            Watts((p.active_power_per_mib.get() - p.idle_power_per_mib.get()) * capacity_mib);
        let active = |c: &BufferCache| {
            let m = c.meter();
            (
                m.category(MemoryState::Active).get().to_bits(),
                m.category_time(MemoryState::Active),
            )
        };

        let mut misses = Vec::new();
        let read = c.read_probe(T0, &[1, 2, 3], &mut misses, &mut NoopObserver);
        assert_eq!(read, p.access_latency + p.bandwidth.transfer_time(3 * 1024));
        assert_eq!(active(&c), ((delta * read).get().to_bits(), read));

        let mut flushes = Vec::new();
        let wrote = c.write(T0, &[4, 5], &mut flushes, &mut NoopObserver);
        assert_eq!(
            wrote,
            p.access_latency + p.bandwidth.transfer_time(2 * 1024)
        );
        let energy = delta * read + delta * wrote;
        assert_eq!(active(&c), (energy.get().to_bits(), read + wrote));
        assert_eq!(
            c.meter().category_time(MemoryState::Idle),
            SimDuration::ZERO
        );
    }

    #[test]
    fn breakdown_names_its_states_in_report_order() {
        let c = cache(4, WritePolicy::WriteThrough);
        let names: Vec<_> = c.meter().breakdown_timed().map(|(n, ..)| n).collect();
        assert_eq!(names, ["active", "idle"]);
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

    /// The reference for the dirty bit: an LRU of `(key, dirty)` pairs in
    /// a list, most recent first.
    struct NaiveDirtyLru {
        cap: usize,
        items: Vec<(u64, bool)>,
    }

    impl NaiveDirtyLru {
        fn new(cap: usize) -> Self {
            NaiveDirtyLru {
                cap,
                items: Vec::new(),
            }
        }

        /// Touches `key`, or inserts it clean, evicting the LRU pair when
        /// full; `dirty` then sets its flag (`None` keeps it). Returns
        /// the evicted pair.
        fn insert(&mut self, key: u64, dirty: Option<bool>) -> Option<(u64, bool)> {
            let (old, evicted) = match self.items.iter().position(|p| p.0 == key) {
                Some(i) => (self.items.remove(i).1, None),
                None if self.items.len() == self.cap => (false, self.items.pop()),
                None => (false, None),
            };
            self.items.insert(0, (key, dirty.unwrap_or(old)));
            evicted
        }

        fn touch(&mut self, key: u64) -> bool {
            let present = self.items.iter().any(|p| p.0 == key);
            if present {
                self.insert(key, None);
            }
            present
        }

        fn remove(&mut self, key: u64) -> bool {
            let before = self.items.len();
            self.items.retain(|p| p.0 != key);
            self.items.len() < before
        }

        fn dirty_len(&self) -> usize {
            self.items.iter().filter(|p| p.1).count()
        }

        /// Clears every flag, returning the flagged keys ascending.
        fn take_dirty(&mut self) -> Vec<u64> {
            let mut keys: Vec<u64> = self.items.iter().filter(|p| p.1).map(|p| p.0).collect();
            keys.sort_unstable();
            self.items.iter_mut().for_each(|p| p.1 = false);
            keys
        }

        fn keys(&self) -> Vec<u64> {
            self.items.iter().map(|p| p.0).collect()
        }
    }

    /// A key among the 20 that straddle the LRU index's page boundary at
    /// 4,096.
    fn straddling_key(rng: &mut SimRng) -> u64 {
        4_086 + rng.below(20)
    }

    #[test]
    fn lru_dirty_bits_match_a_reference_op_by_op() {
        let mut dirty_evictions = 0;
        for case in 0..64u64 {
            let mut rng = SimRng::seed_with_stream(case, 41);
            let cap = rng.range_inclusive(1, 11) as usize;
            let mut lru = LruSet::new(cap);
            let mut model = NaiveDirtyLru::new(cap);
            for op in 0..400 {
                let key = straddling_key(&mut rng);
                match rng.below(7) {
                    0 | 1 => {
                        let dirty = rng.chance(0.5);
                        let evicted = lru.insert_dirty(key, dirty);
                        assert_eq!(
                            evicted,
                            model.insert(key, Some(dirty)),
                            "case {case} op {op}"
                        );
                        dirty_evictions += u32::from(evicted.is_some_and(|e| e.1));
                    }
                    2 => assert_eq!(
                        lru.insert(key),
                        model.insert(key, None).map(|e| e.0),
                        "case {case} op {op}"
                    ),
                    3 => assert_eq!(lru.touch(key), model.touch(key), "case {case} op {op}"),
                    4 => assert_eq!(lru.remove(key), model.remove(key), "case {case} op {op}"),
                    5 => {
                        let mut taken = vec![];
                        lru.take_dirty(&mut taken);
                        taken.sort_unstable();
                        assert_eq!(taken, model.take_dirty(), "case {case} op {op}");
                    }
                    _ => {
                        let popped = model.items.pop().map(|p| p.0);
                        assert_eq!(lru.pop_lru(), popped, "case {case} op {op}");
                    }
                }
                assert_eq!(lru.dirty_len(), model.dirty_len(), "case {case} op {op}");
                let order: Vec<u64> = lru.iter_mru().collect();
                assert_eq!(order, model.keys(), "case {case} op {op}");
            }
        }
        assert!(dirty_evictions > 0, "no dirty key was ever evicted");
    }

    #[test]
    fn cache_dirt_and_power_fail_losses_match_a_reference_op_by_op() {
        let mut lost_total = 0;
        for policy in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
            let write_dirties = policy == WritePolicy::WriteBack;
            for case in 0..32u64 {
                let mut rng = SimRng::seed_with_stream(case, 43);
                let cap = rng.range_inclusive(1, 11);
                let mut c = cache(cap, policy);
                let mut model = NaiveDirtyLru::new(cap as usize);
                let (mut flushes, mut misses) = (Vec::new(), Vec::new());
                for op in 0..300 {
                    let lbn = straddling_key(&mut rng);
                    let lbns: Vec<u64> = (lbn..lbn + rng.range_inclusive(1, 3)).collect();
                    match rng.below(6) {
                        0 | 1 => {
                            c.write(T0, &lbns, &mut flushes, &mut NoopObserver);
                            let want: Vec<u64> = lbns
                                .iter()
                                .filter_map(|&l| model.insert(l, Some(write_dirties)))
                                .filter_map(|(l, dirty)| dirty.then_some(l))
                                .collect();
                            assert_eq!(flushes, want, "case {case} op {op}");
                        }
                        2 => {
                            // A read: hits touch, misses fill clean.
                            c.read_probe(T0, &lbns, &mut misses, &mut NoopObserver);
                            let want: Vec<u64> =
                                lbns.iter().copied().filter(|&l| !model.touch(l)).collect();
                            assert_eq!(misses, want, "case {case} op {op}");
                            for &l in &misses {
                                let evicted = c.insert(l, false).map(|e| (e.lbn, e.dirty));
                                assert_eq!(evicted, model.insert(l, Some(false)), "case {case}");
                            }
                        }
                        3 => {
                            assert_eq!(c.invalidate(lbn), model.remove(lbn), "case {case} op {op}")
                        }
                        4 => assert_eq!(c.drain_dirty(), model.take_dirty(), "case {case} op {op}"),
                        _ => {
                            let lost = c.power_fail_clear();
                            assert_eq!(lost, model.dirty_len() as u64, "case {case} op {op}");
                            model.items.clear();
                            lost_total += lost;
                        }
                    }
                }
            }
        }
        assert!(lost_total > 0, "no power failure lost dirty data");
    }
}
