//! Memoized access pricing.
//!
//! The paper's simulator (§4) prices every access from Table 2's scalars:
//! a fixed latency plus the bytes over a bandwidth, drawing a constant
//! power over that time. The cost of such an access depends on nothing
//! but its size, so a [`PriceTable`] computes each size once and reads
//! it back after that.

use crate::energy::{Joules, Watts};
use crate::time::SimDuration;
use crate::units::Bandwidth;

/// The time one access takes and the energy it draws over that time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// `latency + bandwidth.transfer_time(bytes)`.
    pub time: SimDuration,
    /// `power × time`.
    pub energy: Joules,
}

/// log2 of the sizes a [`PriceTable`] remembers at once.
const SLOT_BITS: u32 = 6;

/// The sizes a [`PriceTable`] remembers at once.
const SLOTS: usize = 1 << SLOT_BITS;

/// The cost of an access of `bytes` at a fixed latency, bandwidth and
/// power, each size computed on its first request and read back after.
///
/// The table is direct-mapped: a multiplicative hash of `bytes` picks one
/// of 64 entries, and the entry's stored size is its tag. A lookup whose
/// tag differs recomputes the cost with the direct formula and takes the
/// entry over, so every size, however rare, gets exactly the value the
/// formula gives. Every entry starts out holding size 0's cost, which a
/// lookup of another size never matches.
///
/// # Examples
///
/// ```
/// use mobistore_sim::energy::Watts;
/// use mobistore_sim::price::PriceTable;
/// use mobistore_sim::time::SimDuration;
/// use mobistore_sim::units::Bandwidth;
///
/// let bw = Bandwidth::from_kib_per_s(1024.0);
/// let mut table = PriceTable::new(SimDuration::from_millis(1), bw, Watts(2.0));
/// let cost = table.price(1024 * 1024);
/// assert_eq!(cost.time, SimDuration::from_millis(1_001));
/// assert_eq!(cost.energy, Watts(2.0) * cost.time);
/// assert_eq!(table.price(1024 * 1024), cost, "read back, not recomputed");
/// ```
#[derive(Clone)]
pub struct PriceTable {
    latency: SimDuration,
    bandwidth: Bandwidth,
    power: Watts,
    /// `(bytes, cost of bytes)`, at the slot [`slot_of`] gives `bytes`.
    entries: [(u64, Cost); SLOTS],
}

/// The entry `bytes` lives in: the top bits of a Fibonacci hash, which
/// spread the multiples of any block size over the whole table.
#[inline]
fn slot_of(bytes: u64) -> usize {
    (bytes.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOT_BITS)) as usize
}

impl PriceTable {
    /// Prices accesses of `latency + bandwidth.transfer_time(bytes)`
    /// drawing `power` throughout.
    pub fn new(latency: SimDuration, bandwidth: Bandwidth, power: Watts) -> Self {
        let mut table = PriceTable {
            latency,
            bandwidth,
            power,
            entries: [(0, Cost::default()); SLOTS],
        };
        table.entries = [(0, table.compute(0)); SLOTS];
        table
    }

    /// Prices the bare transfer term `bandwidth.transfer_time(bytes)`, for
    /// a caller that adds other terms (a seek, an erase) to the duration
    /// and charges the sum's energy itself.
    pub fn transfer(bandwidth: Bandwidth) -> Self {
        PriceTable::new(SimDuration::ZERO, bandwidth, Watts::ZERO)
    }

    /// Returns the cost of an access of `bytes`.
    #[inline]
    pub fn price(&mut self, bytes: u64) -> Cost {
        let (tag, cost) = self.entries[slot_of(bytes)];
        if tag == bytes {
            cost
        } else {
            self.fill(bytes)
        }
    }

    /// Returns the energy of an access priced at `cost` that took `time`
    /// once other terms (an ECC penalty, a retry) joined it: the
    /// table's energy when nothing did, else `power × time` computed
    /// afresh, as the sum's energy must be.
    #[inline]
    pub fn energy(&self, cost: Cost, time: SimDuration) -> Joules {
        if time == cost.time {
            cost.energy
        } else {
            self.power * time
        }
    }

    /// Computes the cost of `bytes` and stores it in its entry.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, bytes: u64) -> Cost {
        let cost = self.compute(bytes);
        self.entries[slot_of(bytes)] = (bytes, cost);
        cost
    }

    /// The direct formula.
    fn compute(&self, bytes: u64) -> Cost {
        let time = self.latency + self.bandwidth.transfer_time(bytes);
        Cost {
            time,
            energy: self.power * time,
        }
    }
}

impl core::fmt::Debug for PriceTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PriceTable")
            .field("latency", &self.latency)
            .field("bandwidth", &self.bandwidth)
            .field("power", &self.power)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Sizes of 0 to 4,096 blocks, then 4,096 drawn sizes of up to
    /// 65,536 blocks, which collide in the table's 64 entries.
    fn sizes(block: u64) -> impl Iterator<Item = u64> {
        let mut rng = SimRng::seed_from_u64(24);
        let drawn = (0..4_096).map(move |_| (rng.next_u64() % 65_537) * block);
        (0..=4_096).map(move |n| n * block).chain(drawn)
    }

    #[test]
    fn every_size_prices_bit_for_bit_as_the_formula() {
        let cases = [
            (SimDuration::ZERO, 1.0, 0.0),
            (SimDuration::from_nanos(250), 18_000.0, 0.6),
            (SimDuration::from_micros(120), 1_229.0, 0.36),
            (SimDuration::from_millis(25), 75.0, 1.75),
            (SimDuration::from_nanos(1), 3.3e-3, 1e-9),
        ];
        for (latency, kib_per_s, watts) in cases {
            let bw = Bandwidth::from_kib_per_s(kib_per_s);
            let mut table = PriceTable::new(latency, bw, Watts(watts));
            for block in [1, 512, 1024, 4096] {
                for bytes in sizes(block) {
                    let time = latency + bw.transfer_time(bytes);
                    let energy = Watts(watts) * time;
                    let cost = table.price(bytes);
                    assert_eq!(cost.time, time, "{bytes} bytes at {bw:?}");
                    assert_eq!(cost.energy.get().to_bits(), energy.get().to_bits());
                }
            }
        }
    }

    #[test]
    fn sizes_collide_and_are_recomputed() {
        let mut rng = SimRng::seed_from_u64(7);
        let collisions = (0..10_000)
            .map(|_| rng.next_u64() % (1 << 26))
            .filter(|&b| slot_of(b) == slot_of(512))
            .take(2)
            .collect::<Vec<_>>();
        assert_eq!(collisions.len(), 2);
        let bw = Bandwidth::from_kib_per_s(100.0);
        let mut table = PriceTable::new(SimDuration::from_micros(3), bw, Watts(1.0));
        for &bytes in [512, collisions[0], 512, collisions[1], collisions[0]].iter() {
            let want = SimDuration::from_micros(3) + bw.transfer_time(bytes);
            assert_eq!(table.price(bytes).time, want, "{bytes}");
        }
    }

    #[test]
    fn energy_of_a_longer_access_is_power_times_the_sum() {
        let mut table = PriceTable::new(
            SimDuration::from_micros(5),
            Bandwidth::from_kib_per_s(7.0),
            Watts(0.3),
        );
        let cost = table.price(3_000);
        assert_eq!(
            table.energy(cost, cost.time).get().to_bits(),
            cost.energy.get().to_bits()
        );
        let longer = cost.time + SimDuration::from_nanos(17);
        let want = Watts(0.3) * longer;
        assert_eq!(
            table.energy(cost, longer).get().to_bits(),
            want.get().to_bits()
        );
    }

    #[test]
    fn a_transfer_table_prices_the_bare_transfer() {
        let bw = Bandwidth::from_kib_per_s(2_125.0);
        let mut table = PriceTable::transfer(bw);
        assert_eq!(table.price(0).time, SimDuration::ZERO);
        assert_eq!(table.price(4096).time, bw.transfer_time(4096));
    }
}
