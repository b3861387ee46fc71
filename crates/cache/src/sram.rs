//! The battery-backed SRAM write buffer.
//!
//! §2/§5.5: writes to the disk can be buffered in battery-backed SRAM,
//! "not only improving performance, but also allowing small writes to a
//! spun-down disk to proceed without spinning it up" (the Quantum Daytona's
//! deferred spin-up policy). Writes to SRAM are assumed recoverable after a
//! crash, so synchronous writes that fit become asynchronous with respect
//! to the disk.
//!
//! The buffer absorbs writes until it is full; the write that overflows it
//! must wait while the whole buffer flushes to the backing store — which is
//! §5.5's observation that clustered writes "will be delayed as they wait
//! for the disk". Reads of recently-written blocks are served from the
//! buffer (§5.5, footnote 3).

use mobistore_device::params::SramParams;
use mobistore_sim::energy::{EnergyMeter, Joules, Watts};
use mobistore_sim::lbn::LbnTable;
use mobistore_sim::obs::{Event, Observer};
use mobistore_sim::price::PriceTable;
use mobistore_sim::time::{SimDuration, SimTime};

use crate::MemoryState;

mobistore_sim::counter_set! {
    /// Counters the buffer maintains alongside energy.
    pub struct SramStats {
        /// Writes fully absorbed without touching the disk.
        pub absorbed: u64 => "sram.absorbed",
        /// Flushes forced by overflow.
        pub flushes: u64 => "sram.flushes",
        /// Reads served from the buffer.
        pub read_hits: u64 => "sram.read_hits",
    }
}

/// A fixed-capacity write buffer holding whole blocks.
///
/// # Examples
///
/// ```
/// use mobistore_cache::sram::SramWriteBuffer;
/// use mobistore_device::params::sram_nec;
/// use mobistore_sim::obs::NoopObserver;
/// use mobistore_sim::time::SimTime;
///
/// let mut buf = SramWriteBuffer::new(sram_nec(), 4 * 1024, 1024);
/// assert!(buf.fits(&[1, 2, 3]));
/// buf.absorb(SimTime::ZERO, &[1, 2, 3], &mut NoopObserver).unwrap();
/// assert!(buf.contains(2));
/// assert!(!buf.fits(&[4, 5]), "only one slot left");
/// ```
#[derive(Debug, Clone)]
pub struct SramWriteBuffer {
    params: SramParams,
    capacity_blocks: usize,
    block_size: u64,
    /// The buffered blocks, distinct, in arrival order; a drain sorts
    /// them. Figure 5's 512-KB and 1-MB buffers hold 512 to 2,048 trace
    /// blocks, so every per-block step is O(1).
    blocks: Vec<u64>,
    /// Each buffered block's position in `blocks`.
    index: LbnTable<u32>,
    /// One access's time and energy.
    access: PriceTable,
    meter: EnergyMeter<MemoryState>,
    stats: SramStats,
}

impl SramWriteBuffer {
    /// Creates a buffer of `capacity_bytes` over blocks of `block_size`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no complete block.
    pub fn new(params: SramParams, capacity_bytes: u64, block_size: u64) -> Self {
        match Self::try_new(params, capacity_bytes, block_size) {
            Ok(buf) => buf,
            Err(e) => panic!("SRAM buffer {e}"),
        }
    }

    /// Fallible [`new`](Self::new): returns a typed [`crate::CacheError`]
    /// instead of panicking on bad geometry.
    pub fn try_new(
        params: SramParams,
        capacity_bytes: u64,
        block_size: u64,
    ) -> Result<Self, crate::CacheError> {
        if block_size == 0 {
            return Err(crate::CacheError::ZeroBlockSize);
        }
        let capacity_blocks = (capacity_bytes / block_size) as usize;
        if capacity_blocks == 0 {
            return Err(crate::CacheError::Undersized {
                capacity_bytes,
                block_size,
            });
        }
        Ok(SramWriteBuffer {
            access: PriceTable::new(params.access_latency, params.bandwidth, params.active_power),
            params,
            capacity_blocks,
            block_size,
            blocks: Vec::new(),
            index: LbnTable::new(),
            meter: EnergyMeter::new(),
            stats: SramStats::default(),
        })
    }

    /// Returns the capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Returns the capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_blocks as u64 * self.block_size
    }

    /// Returns the number of buffered blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns true if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Returns the counters.
    pub fn stats(&self) -> SramStats {
        self.stats
    }

    /// Returns total energy consumed so far.
    pub fn energy(&self) -> Joules {
        self.meter.total()
    }

    /// Returns the energy meter for breakdowns.
    pub fn meter(&self) -> &EnergyMeter<MemoryState> {
        &self.meter
    }

    /// Zeroes energy and counters while keeping contents (warm-up
    /// boundary).
    pub fn reset_metrics(&mut self) {
        self.meter = EnergyMeter::new();
        self.stats = SramStats::default();
    }

    /// True if a write of `nblocks` would fit (blocks already buffered
    /// overwrite in place and consume no new space).
    #[inline]
    pub fn fits(&self, lbns: &[u64]) -> bool {
        self.blocks.len() + self.incoming(lbns) <= self.capacity_blocks
    }

    /// How many of `lbns` are not buffered yet.
    #[inline]
    fn incoming(&self, lbns: &[u64]) -> usize {
        lbns.iter().filter(|&&lbn| !self.contains(lbn)).count()
    }

    /// Buffers the given blocks, written at `now`, and reports a
    /// [`Event::SramAbsorb`] to `obs`. Returns
    /// [`crate::CacheError::Overflow`] (buffering nothing) when they do not
    /// fit; callers check [`fits`](Self::fits) and flush first.
    ///
    /// # Panics
    ///
    /// Panics on an lbn at or past
    /// [`MAX_LBN_END`](mobistore_sim::lbn::MAX_LBN_END) (2^32).
    pub fn absorb<O: Observer>(
        &mut self,
        now: SimTime,
        lbns: &[u64],
        obs: &mut O,
    ) -> Result<(), crate::CacheError> {
        if !self.fits(lbns) {
            return Err(crate::CacheError::Overflow {
                buffered: self.blocks.len(),
                incoming: self.incoming(lbns),
                capacity: self.capacity_blocks,
            });
        }
        for &lbn in lbns {
            if !self.contains(lbn) {
                let i = u32::try_from(self.blocks.len()).expect("SRAM buffer outgrew u32 indices");
                self.index.insert(lbn, i);
                self.blocks.push(lbn);
            }
        }
        self.stats.absorbed += 1;
        obs.record(&Event::SramAbsorb {
            t: now,
            blocks: lbns.len() as u32,
        });
        Ok(())
    }

    /// True if the block is buffered (a read of it needs no disk access).
    #[inline]
    pub fn contains(&self, lbn: u64) -> bool {
        self.index.get(lbn).is_some()
    }

    /// Records a read served from the buffer at `now`, reporting a
    /// [`Event::SramReadHit`] to `obs`.
    pub fn note_read_hit<O: Observer>(&mut self, now: SimTime, obs: &mut O) {
        self.stats.read_hits += 1;
        obs.record(&Event::SramReadHit { t: now, blocks: 1 });
    }

    /// Empties the buffer for a flush at `now`, replacing the contents of
    /// `out` with the buffered blocks in ascending order (block-mapped
    /// backends need the addresses); a non-empty drain counts as a flush
    /// and is reported to `obs` as an [`Event::SramFlush`]. A caller that
    /// reuses `out` allocates nothing once it has grown to the buffer's
    /// size.
    pub fn drain_blocks<O: Observer>(&mut self, now: SimTime, out: &mut Vec<u64>, obs: &mut O) {
        for &lbn in &self.blocks {
            self.index.remove(lbn);
        }
        out.clear();
        out.append(&mut self.blocks);
        out.sort_unstable();
        if !out.is_empty() {
            self.stats.flushes += 1;
            obs.record(&Event::SramFlush {
                t: now,
                blocks: out.len() as u32,
            });
        }
    }

    /// Drops a block (file deletion); returns true if it was buffered.
    pub fn invalidate(&mut self, lbn: u64) -> bool {
        let Some(i) = self.index.remove(lbn) else {
            return false;
        };
        self.blocks.swap_remove(i as usize);
        if let Some(&moved) = self.blocks.get(i as usize) {
            self.index.insert(moved, i);
        }
        true
    }

    /// Charges the energy of one access of `bytes`, moved in or out of
    /// the buffer, and returns its time: the latency plus the transfer.
    #[inline]
    pub fn charge_access(&mut self, bytes: u64) -> SimDuration {
        let cost = self.access.price(bytes);
        self.meter
            .charge_timed(MemoryState::Active, cost.energy, cost.time);
        cost.time
    }

    /// Charges retention power for a span of simulated time.
    pub fn charge_idle_span(&mut self, span: SimDuration) {
        let kib = self.capacity_bytes() as f64 / 1024.0;
        let retention = Watts(self.params.idle_power_per_kib.get() * kib);
        self.meter.charge_for(MemoryState::Idle, retention, span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::assert_prices_match;
    use crate::CacheError;
    use mobistore_device::params::sram_nec;
    use mobistore_sim::obs::NoopObserver;
    use mobistore_sim::rng::SimRng;

    impl SramWriteBuffer {
        /// Replaces the price table with a fresh one, which knows no size.
        fn forget_prices(&mut self) {
            let p = &self.params;
            self.access = PriceTable::new(p.access_latency, p.bandwidth, p.active_power);
        }
    }

    #[test]
    fn the_access_table_prices_every_size_as_the_formula() {
        let mut b = buf(64);
        let p = b.params.clone();
        assert_prices_match(
            &mut b.access,
            p.access_latency,
            p.bandwidth,
            p.active_power,
            512,
        );
    }

    #[test]
    fn memoized_prices_match_a_twin_that_prices_every_access_afresh() {
        // Writes of 1 to 16 blocks absorbed until one overflows and the
        // buffer drains, reads served from it, and retention spans, as the
        // simulator drives them. Battery-backed SRAM keeps its contents
        // through a power failure, so there is none to replay. Before every
        // access the twin's table is replaced, so every price it charges is
        // computed by the formula at that access.
        let mut rng = SimRng::seed_from_u64(1994);
        let mut memo = buf(64);
        let mut twin = memo.clone();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..20_000 {
            let n = rng.range_inclusive(1, 16);
            let start = rng.below(4_000);
            let lbns: Vec<u64> = (start..start + n).collect();
            let now = SimTime::from_nanos(i * 1_000);
            twin.forget_prices();
            match rng.below(10) {
                0..=5 => {
                    if !memo.fits(&lbns) {
                        memo.drain_blocks(now, &mut a, &mut NoopObserver);
                        twin.drain_blocks(now, &mut b, &mut NoopObserver);
                        assert_eq!(a, b);
                        let bytes = a.len() as u64 * 512;
                        assert_eq!(memo.charge_access(bytes), twin.charge_access(bytes));
                    }
                    absorb(&mut memo, &lbns).unwrap();
                    absorb(&mut twin, &lbns).unwrap();
                    let bytes = n * 512;
                    assert_eq!(memo.charge_access(bytes), twin.charge_access(bytes));
                }
                6..=8 => {
                    if memo.contains(start) {
                        assert!(twin.contains(start));
                        memo.note_read_hit(now, &mut NoopObserver);
                        twin.note_read_hit(now, &mut NoopObserver);
                        assert_eq!(memo.charge_access(512), twin.charge_access(512));
                    }
                }
                _ => {
                    let span = SimDuration::from_micros(rng.below(5_000_000));
                    memo.charge_idle_span(span);
                    twin.charge_idle_span(span);
                }
            }
        }
        assert_eq!(memo.meter, twin.meter);
        assert_eq!(memo.stats, twin.stats);
        assert!(memo.stats.flushes > 0 && memo.stats.read_hits > 0);
    }

    fn buf(blocks: u64) -> SramWriteBuffer {
        SramWriteBuffer::new(sram_nec(), blocks * 512, 512)
    }

    fn absorb(b: &mut SramWriteBuffer, lbns: &[u64]) -> Result<(), CacheError> {
        b.absorb(SimTime::ZERO, lbns, &mut NoopObserver)
    }

    /// Drains `b` into a new buffer and returns it.
    fn drain(b: &mut SramWriteBuffer) -> Vec<u64> {
        let mut out = Vec::new();
        b.drain_blocks(SimTime::ZERO, &mut out, &mut NoopObserver);
        out
    }

    #[test]
    fn absorb_until_full() {
        let mut b = buf(4);
        assert!(b.fits(&[1, 2, 3, 4]));
        absorb(&mut b, &[1, 2, 3, 4]).unwrap();
        assert!(!b.fits(&[5]));
        assert_eq!(b.len(), 4);
        assert_eq!(b.stats().absorbed, 1);
    }

    #[test]
    fn overwrite_in_place_consumes_no_space() {
        let mut b = buf(2);
        absorb(&mut b, &[1, 2]).unwrap();
        assert!(b.fits(&[1]), "overwrite of a buffered block fits");
        absorb(&mut b, &[1]).unwrap();
        assert_eq!(b.len(), 2);
        // A write mixing a buffered block with a new one takes one slot.
        let mut b = buf(3);
        absorb(&mut b, &[7, 9]).unwrap();
        assert!(b.fits(&[9, 8]) && !b.fits(&[9, 8, 6]));
        absorb(&mut b, &[9, 8]).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(drain(&mut b), vec![7, 8, 9]);
    }

    #[test]
    fn absorb_rejects_overflow_without_buffering() {
        let mut b = buf(1);
        let e = absorb(&mut b, &[1, 2]).expect_err("two blocks into one slot");
        assert_eq!(
            e,
            CacheError::Overflow {
                buffered: 0,
                incoming: 2,
                capacity: 1
            }
        );
        assert!(b.is_empty(), "a rejected absorb buffers nothing");
        assert!(absorb(&mut b, &[1]).is_ok());
        assert!(b.contains(1));
    }

    #[test]
    fn drain_returns_sorted_blocks_and_clears() {
        // One reused buffer: each drain replaces what it held.
        let mut out = vec![99];
        let mut b = buf(4);
        absorb(&mut b, &[3, 1, 2]).unwrap();
        b.drain_blocks(SimTime::ZERO, &mut out, &mut NoopObserver);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(b.is_empty());
        assert_eq!(b.stats().flushes, 1);
        // Draining an empty buffer is free and not a flush.
        b.drain_blocks(SimTime::ZERO, &mut out, &mut NoopObserver);
        assert!(out.is_empty());
        assert_eq!(b.stats().flushes, 1);
        // Absorbs arriving out of order, across calls, drain ascending.
        absorb(&mut b, &[40, 12]).unwrap();
        absorb(&mut b, &[30, 5]).unwrap();
        b.drain_blocks(SimTime::ZERO, &mut out, &mut NoopObserver);
        assert_eq!(out, vec![5, 12, 30, 40]);
        assert_eq!(b.stats().flushes, 2);
    }

    #[test]
    fn contains_and_invalidate() {
        let mut b = buf(4);
        absorb(&mut b, &[9]).unwrap();
        assert!(b.contains(9));
        assert!(b.invalidate(9));
        assert!(!b.contains(9));
        assert!(!b.invalidate(9));
        // Dropping the first-arrived block moves the last one into its
        // place; both stay findable.
        absorb(&mut b, &[1, 2, 3, 4]).unwrap();
        assert!(b.invalidate(1));
        assert!(b.invalidate(4), "the moved block is still indexed");
        assert!(!b.contains(1) && !b.contains(4) && b.contains(3));
        assert_eq!(drain(&mut b), vec![2, 3]);
        assert!(!b.contains(2), "a drain forgets every block");
    }

    #[test]
    fn matches_a_set_model_op_by_op() {
        use mobistore_sim::rng::SimRng;
        use std::collections::BTreeSet;
        for case in 0..8u64 {
            let mut rng = SimRng::seed_with_stream(case, 31);
            let mut b = buf(64);
            let mut model = BTreeSet::new();
            for op in 0..2_000 {
                // Keys straddle the table's 4,096-entry page boundary.
                let lbn = 4_060 + rng.below(72);
                match rng.below(8) {
                    0..=4 => {
                        let lbns: Vec<u64> = (0..1 + rng.below(4)).map(|i| lbn + i).collect();
                        if b.fits(&lbns) {
                            absorb(&mut b, &lbns).unwrap();
                            model.extend(lbns);
                        } else {
                            let want: Vec<u64> = std::mem::take(&mut model).into_iter().collect();
                            assert_eq!(drain(&mut b), want, "case {case} op {op}");
                        }
                    }
                    _ => assert_eq!(b.invalidate(lbn), model.remove(&lbn), "case {case} op {op}"),
                }
                assert_eq!(b.len(), model.len(), "case {case} op {op}");
                assert_eq!(b.contains(lbn), model.contains(&lbn), "case {case} op {op}");
            }
        }
    }

    #[test]
    fn access_time_is_55ns_per_byte_plus_latency() {
        let mut b = buf(4);
        let t = b.charge_access(1000);
        // 500 ns latency + 55 us transfer.
        assert_eq!(t.as_nanos(), 500 + 55_000);
    }

    #[test]
    fn energy_charges() {
        let mut b = buf(64); // 32 KB
        b.charge_access(512);
        b.charge_idle_span(SimDuration::from_secs(1000));
        assert!(b.meter().category(MemoryState::Active).get() > 0.0);
        // 32 KiB x 2e-6 W/KiB x 1000 s = 0.064 J.
        assert!((b.meter().category(MemoryState::Idle).get() - 0.064).abs() < 1e-9);
    }

    #[test]
    fn charge_access_returns_the_time_it_charges() {
        let p = sram_nec();
        let mut b = buf(8);
        let first = b.charge_access(3 * 512);
        assert_eq!(first, p.access_latency + p.bandwidth.transfer_time(3 * 512));
        let second = b.charge_access(512);
        assert_eq!(second, p.access_latency + p.bandwidth.transfer_time(512));
        let m = b.meter();
        assert_eq!(m.category_time(MemoryState::Active), first + second);
        let energy = p.active_power * first + p.active_power * second;
        assert_eq!(
            m.category(MemoryState::Active).get().to_bits(),
            energy.get().to_bits()
        );
    }

    #[test]
    fn breakdown_names_its_states_in_report_order() {
        let names: Vec<_> = buf(4).meter().breakdown_timed().map(|(n, ..)| n).collect();
        assert_eq!(names, ["active", "idle"]);
    }
}
