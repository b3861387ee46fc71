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

use std::collections::HashSet;

use mobistore_device::params::SramParams;
use mobistore_sim::energy::{EnergyMeter, Joules, Watts};
use mobistore_sim::obs::{Event, Observer};
use mobistore_sim::time::{SimDuration, SimTime};

/// Counters the buffer maintains alongside energy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SramStats {
    /// Writes fully absorbed without touching the disk.
    pub absorbed: u64,
    /// Flushes forced by overflow.
    pub flushes: u64,
    /// Reads served from the buffer.
    pub read_hits: u64,
}

impl SramStats {
    /// Adds another buffer's counters into this one (fleet aggregation).
    pub fn merge(&mut self, other: &SramStats) {
        self.absorbed += other.absorbed;
        self.flushes += other.flushes;
        self.read_hits += other.read_hits;
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
    blocks: HashSet<u64>,
    meter: EnergyMeter,
    stats: SramStats,
}

const CATEGORIES: &[&str] = &["active", "idle"];

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
            params,
            capacity_blocks,
            block_size,
            blocks: HashSet::new(),
            meter: EnergyMeter::new(CATEGORIES),
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
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Zeroes energy and counters while keeping contents (warm-up
    /// boundary).
    pub fn reset_metrics(&mut self) {
        self.meter = EnergyMeter::new(CATEGORIES);
        self.stats = SramStats::default();
    }

    /// True if a write of `nblocks` would fit (blocks already buffered
    /// overwrite in place and consume no new space).
    pub fn fits(&self, lbns: &[u64]) -> bool {
        let new = lbns.iter().filter(|lbn| !self.blocks.contains(lbn)).count();
        self.blocks.len() + new <= self.capacity_blocks
    }

    /// Buffers the given blocks, written at `now`, and reports a
    /// [`Event::SramAbsorb`] to `obs`. Returns
    /// [`crate::CacheError::Overflow`] (buffering nothing) when they do not
    /// fit; callers check [`fits`](Self::fits) and flush first.
    pub fn absorb<O: Observer>(
        &mut self,
        now: SimTime,
        lbns: &[u64],
        obs: &mut O,
    ) -> Result<(), crate::CacheError> {
        if !self.fits(lbns) {
            let incoming = lbns.iter().filter(|lbn| !self.blocks.contains(lbn)).count();
            return Err(crate::CacheError::Overflow {
                buffered: self.blocks.len(),
                incoming,
                capacity: self.capacity_blocks,
            });
        }
        for &lbn in lbns {
            self.blocks.insert(lbn);
        }
        self.stats.absorbed += 1;
        obs.record(&Event::SramAbsorb {
            t: now,
            blocks: lbns.len() as u32,
        });
        Ok(())
    }

    /// True if the block is buffered (a read of it needs no disk access).
    pub fn contains(&self, lbn: u64) -> bool {
        self.blocks.contains(&lbn)
    }

    /// Records a read served from the buffer at `now`, reporting a
    /// [`Event::SramReadHit`] to `obs`.
    pub fn note_read_hit<O: Observer>(&mut self, now: SimTime, obs: &mut O) {
        self.stats.read_hits += 1;
        obs.record(&Event::SramReadHit { t: now, blocks: 1 });
    }

    /// Empties the buffer for a flush at `now`, returning the buffered
    /// blocks in ascending order (block-mapped backends need the
    /// addresses); a non-empty drain counts as a flush and is reported to
    /// `obs` as an [`Event::SramFlush`].
    pub fn drain_blocks<O: Observer>(&mut self, now: SimTime, obs: &mut O) -> Vec<u64> {
        let mut blocks: Vec<u64> = self.blocks.drain().collect();
        blocks.sort_unstable();
        if !blocks.is_empty() {
            self.stats.flushes += 1;
            obs.record(&Event::SramFlush {
                t: now,
                blocks: blocks.len() as u32,
            });
        }
        blocks
    }

    /// Drops a block (file deletion); returns true if it was buffered.
    pub fn invalidate(&mut self, lbn: u64) -> bool {
        self.blocks.remove(&lbn)
    }

    /// Time to move `bytes` in or out of the buffer.
    pub fn access_time(&self, bytes: u64) -> SimDuration {
        self.params.access_latency + self.params.bandwidth.transfer_time(bytes)
    }

    /// Charges the energy of one access of `bytes`.
    pub fn charge_access(&mut self, bytes: u64) {
        let dur = self.access_time(bytes);
        self.meter
            .charge_for("active", self.params.active_power, dur);
    }

    /// Charges retention power for a span of simulated time.
    pub fn charge_idle_span(&mut self, span: SimDuration) {
        let kib = self.capacity_bytes() as f64 / 1024.0;
        let retention = Watts(self.params.idle_power_per_kib.get() * kib);
        self.meter.charge_for("idle", retention, span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheError;
    use mobistore_device::params::sram_nec;
    use mobistore_sim::obs::NoopObserver;

    fn buf(blocks: u64) -> SramWriteBuffer {
        SramWriteBuffer::new(sram_nec(), blocks * 512, 512)
    }

    fn absorb(b: &mut SramWriteBuffer, lbns: &[u64]) -> Result<(), CacheError> {
        b.absorb(SimTime::ZERO, lbns, &mut NoopObserver)
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
        let mut b = buf(4);
        absorb(&mut b, &[3, 1, 2]).unwrap();
        assert_eq!(
            b.drain_blocks(SimTime::ZERO, &mut NoopObserver),
            vec![1, 2, 3]
        );
        assert!(b.is_empty());
        assert_eq!(b.stats().flushes, 1);
        // Draining an empty buffer is free and not a flush.
        assert!(b.drain_blocks(SimTime::ZERO, &mut NoopObserver).is_empty());
        assert_eq!(b.stats().flushes, 1);
    }

    #[test]
    fn contains_and_invalidate() {
        let mut b = buf(4);
        absorb(&mut b, &[9]).unwrap();
        assert!(b.contains(9));
        assert!(b.invalidate(9));
        assert!(!b.contains(9));
        assert!(!b.invalidate(9));
    }

    #[test]
    fn access_time_is_55ns_per_byte_plus_latency() {
        let b = buf(4);
        let t = b.access_time(1000);
        // 500 ns latency + 55 us transfer.
        assert_eq!(t.as_nanos(), 500 + 55_000);
    }

    #[test]
    fn energy_charges() {
        let mut b = buf(64); // 32 KB
        b.charge_access(512);
        b.charge_idle_span(SimDuration::from_secs(1000));
        assert!(b.meter().category("active").get() > 0.0);
        // 32 KiB x 2e-6 W/KiB x 1000 s = 0.064 J.
        assert!((b.meter().category("idle").get() - 0.064).abs() < 1e-9);
    }
}
