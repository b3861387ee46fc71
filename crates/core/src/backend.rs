//! The simulator's view of a backing device: on top of the [`Device`]
//! operations, how the memory hierarchy addresses it, how it resets at the
//! warm-up boundary, and how it reports into [`Metrics`]. One impl per
//! device, so the simulator and the crash checker name a concrete device
//! only where they build it.

use mobistore_device::array::ArrayDevice;
use mobistore_device::disk::MagneticDisk;
use mobistore_device::flashdisk::FlashDisk;
use mobistore_device::Device;
use mobistore_flash::store::FlashCardStore;

use crate::metrics::{component, Metrics};

/// A [`Device`] the simulator can drive and report on.
pub(crate) trait Backend: Device {
    /// Whether the device keeps per-block contents (flash card, array).
    /// Such a device must see every block it stores: a flush reaches it as
    /// one request per contiguous run (an SRAM drain) or per block
    /// (write-back evictions), and a read the DRAM cache partly served is
    /// addressed at the first missed block. Devices without a block map
    /// (disk, flash disk) model timing only: a flush is one burst with no
    /// file tag, and a read carries the operation's own first block — the
    /// disk's seek target, the flash disk's event label.
    const BLOCK_MAPPED: bool;

    /// Zeroes energy and counters at the warm-up boundary while keeping
    /// device state; `reset_wear` also clears the flash card's erase
    /// counts.
    fn warm_up_reset(&mut self, reset_wear: bool);

    /// Adds the device's energy (as the first `energy_by_component`
    /// entry), per-state breakdown, and counters to `m`.
    fn report(&self, m: &mut Metrics);
}

impl Backend for MagneticDisk {
    const BLOCK_MAPPED: bool = false;

    fn warm_up_reset(&mut self, _reset_wear: bool) {
        self.reset_metrics();
    }

    fn report(&self, m: &mut Metrics) {
        m.energy_by_component.push((component::DISK, self.energy()));
        m.backend_states = self.meter().breakdown_timed().collect();
        m.disk = Some(self.counters());
    }
}

impl Backend for FlashDisk {
    const BLOCK_MAPPED: bool = false;

    fn warm_up_reset(&mut self, _reset_wear: bool) {
        self.reset_metrics();
    }

    fn report(&self, m: &mut Metrics) {
        m.energy_by_component
            .push((component::FLASH, self.energy()));
        m.backend_states = self.meter().breakdown_timed().collect();
        m.flash_disk = Some(self.counters());
    }
}

impl Backend for FlashCardStore {
    const BLOCK_MAPPED: bool = true;

    fn warm_up_reset(&mut self, reset_wear: bool) {
        self.reset_metrics(reset_wear);
    }

    fn report(&self, m: &mut Metrics) {
        m.energy_by_component
            .push((component::FLASH, self.energy()));
        m.backend_states = self.meter().breakdown_timed().collect();
        m.flash_card = Some(self.counters());
        m.wear = Some(self.wear());
        let backoff = self.backoff_recorder();
        m.backoff_ms = backoff.summary();
        m.backoff_latency = backoff.histogram().clone();
    }
}

impl Backend for ArrayDevice {
    const BLOCK_MAPPED: bool = true;

    fn warm_up_reset(&mut self, _reset_wear: bool) {
        self.reset_metrics();
    }

    fn report(&self, m: &mut Metrics) {
        m.energy_by_component
            .push((component::ARRAY, self.energy()));
        m.backend_states = self.meter().breakdown_timed().collect();
        m.array = Some(self.counters());
        let degraded = self.degraded_recorder();
        m.degraded_read_ms = degraded.summary();
        m.degraded_read_latency = degraded.histogram().clone();
    }
}
