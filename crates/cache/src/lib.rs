//! Memory-hierarchy components for the `mobistore` reproduction of
//! *Storage Alternatives for Mobile Computers* (Douglis et al., OSDI '94).
//!
//! * [`dram::BufferCache`] — the DRAM buffer cache every configuration
//!   includes (§2), write-through by default per §4.2, with the write-back
//!   ablation;
//! * [`sram::SramWriteBuffer`] — the battery-backed SRAM write buffer that
//!   lets small writes proceed without spinning up the disk (§2, §5.5);
//! * [`lru::LruSet`] — the O(1) LRU machinery under the cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dram;
pub mod lru;
pub mod sram;

pub use dram::{BufferCache, CacheStats, Evicted, WritePolicy};
pub use sram::{SramStats, SramWriteBuffer};

mobistore_sim::energy_states! {
    /// The energy states of a memory chip, DRAM or SRAM.
    pub enum MemoryState {
        /// Moving data: the access draws active power above the
        /// idle floor.
        Active => "active",
        /// Holding data: DRAM refresh, SRAM retention.
        Idle => "idle",
    }
}

/// A typed cache-layer failure.
///
/// [`SramWriteBuffer::absorb`] returns it on overflow; the constructors come
/// in fallible `try_new` form and as panicking [`BufferCache::new`] /
/// [`SramWriteBuffer::new`] for configurations known to be valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// A cache was configured with a zero block size.
    ZeroBlockSize,
    /// The configured capacity cannot hold one complete block.
    Undersized {
        /// Configured capacity in bytes.
        capacity_bytes: u64,
        /// Configured block size in bytes.
        block_size: u64,
    },
    /// An absorb would overflow the SRAM write buffer; callers must check
    /// [`SramWriteBuffer::fits`] and flush first.
    Overflow {
        /// Blocks already buffered.
        buffered: usize,
        /// New blocks the absorb would add.
        incoming: usize,
        /// The buffer's capacity in blocks.
        capacity: usize,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CacheError::ZeroBlockSize => write!(f, "block size must be positive"),
            CacheError::Undersized {
                capacity_bytes,
                block_size,
            } => write!(
                f,
                "cache smaller than one block ({capacity_bytes} bytes, {block_size}-byte blocks)"
            ),
            CacheError::Overflow {
                buffered,
                incoming,
                capacity,
            } => write!(
                f,
                "SRAM overflow: flush before absorbing ({buffered} buffered + {incoming} \
                 incoming > {capacity} capacity)"
            ),
        }
    }
}

impl std::error::Error for CacheError {}

/// Checks the cache components' tests share.
#[cfg(test)]
pub(crate) mod testing {
    use mobistore_sim::energy::Watts;
    use mobistore_sim::price::PriceTable;
    use mobistore_sim::rng::SimRng;
    use mobistore_sim::time::SimDuration;
    use mobistore_sim::units::Bandwidth;

    /// Prices sizes of 0 to 4,096 blocks of `block` bytes, then 4,096
    /// drawn sizes of up to 65,536 blocks, which collide in the table's
    /// entries, and checks each bit for bit against the direct formula:
    /// `latency + bandwidth.transfer_time(bytes)` at `power`.
    pub fn assert_prices_match(
        table: &mut PriceTable,
        latency: SimDuration,
        bandwidth: Bandwidth,
        power: Watts,
        block: u64,
    ) {
        let mut rng = SimRng::seed_from_u64(block);
        let drawn: Vec<u64> = (0..4_096).map(|_| rng.below(65_537) * block).collect();
        for bytes in (0..=4_096).map(|n| n * block).chain(drawn) {
            let time = latency + bandwidth.transfer_time(bytes);
            let cost = table.price(bytes);
            assert_eq!(cost.time, time, "{bytes} bytes at {bandwidth:?}");
            let energy = (power * time).get().to_bits();
            assert_eq!(cost.energy.get().to_bits(), energy, "{bytes} bytes");
        }
    }
}
