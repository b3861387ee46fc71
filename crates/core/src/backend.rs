//! The simulator's view of a backing device: on top of the [`Device`]
//! operations, how the memory hierarchy addresses it, how it resets at the
//! warm-up boundary, and how it reports into [`Metrics`]. One impl per
//! device, and one [`build`] that makes every device, so the simulator and
//! the crash checker never name a concrete device.

use mobistore_device::array::ArrayDevice;
use mobistore_device::disk::MagneticDisk;
use mobistore_device::flashdisk::FlashDisk;
use mobistore_device::Device;
use mobistore_flash::store::{FlashCardConfig, FlashCardStore};
use mobistore_sim::fault::DeathSchedule;
use mobistore_sim::lbn::MAX_LBN_END;
use mobistore_sim::rule::{KnobError, Rule};
use mobistore_sim::time::SimTime;
use mobistore_trace::record::{blocks_spanned, working_set_runs_and_end, DiskOp};

use crate::config::{BackendConfig, SystemConfig};
use crate::crashcheck::Subject;
use crate::metrics::{component, Metrics};
use crate::simulator::ConfigError;

/// What a device is built for: the one input in which `simulate` and the
/// crash checker's `torture` build differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Purpose {
    /// A measured run: a card holds the working set plus filler up to its
    /// utilization (§5.2), and array deaths are drawn by
    /// [`DeathSchedule::new`].
    Simulate,
    /// A crash sweep: a card holds the working set alone, and exactly `m`
    /// array children die, spread over the children and the replayed ops.
    Torture,
}

/// A caller's use of the device [`build`] makes, monomorphised for it.
pub(crate) trait WithDevice {
    /// What the caller returns.
    type Out;

    /// Uses `device`, built and preloaded.
    fn run<D: Subject + Clone>(self, device: D) -> Self::Out;
}

/// Builds `config`'s device for replaying `ops`, blocks of `block_size`
/// bytes, preloads it and hands it to `with`: the one place that matches
/// the backend and that refuses a run. Before building anything it refuses
/// what [`SystemConfig::validate`] refuses and ops whose blocks end past
/// [`MAX_LBN_END`]. A card's working set, and for [`Purpose::Simulate`]
/// capacity × utilization, must fit the blocks an aged card can fill. One
/// pass over the ops finds a block-mapped device's working set and where
/// the ops end.
pub(crate) fn build<W: WithDevice>(
    config: &SystemConfig,
    ops: &[DiskOp],
    block_size: u64,
    purpose: Purpose,
    with: W,
) -> Result<W::Out, ConfigError> {
    config.validate()?;
    let in_domain = |end| {
        (end <= MAX_LBN_END)
            .then_some(end)
            .ok_or(ConfigError::LbnDomain { end })
    };
    let queueing = config.queueing;
    Ok(match &config.backend {
        BackendConfig::Disk {
            params,
            spin_down,
            seek_model,
        } => {
            in_domain(blocks_spanned(ops))?;
            with.run(
                MagneticDisk::with_policy(params.clone(), *spin_down)
                    .with_queueing(queueing)
                    .with_seek_model(*seek_model)
                    .with_fat_scan_bytes(config.fault.fat_scan_bytes),
            )
        }
        BackendConfig::FlashDisk { params } => {
            in_domain(blocks_spanned(ops))?;
            with.run(
                FlashDisk::new(params.clone())
                    .with_queueing(queueing)
                    .with_integrity(config.integrity),
            )
        }
        BackendConfig::FlashCard {
            params,
            capacity_bytes,
            utilization,
            mode,
            victim_policy,
        } => {
            let (working, end) = working_set_runs_and_end(ops);
            let end = in_domain(end)?;
            let w: u64 = working.iter().map(|(start, end)| end - start).sum();
            let card = FlashCardStore::try_new(FlashCardConfig {
                params: params.clone(),
                block_size,
                capacity_bytes: *capacity_bytes,
                mode: *mode,
                victim_policy: *victim_policy,
                queueing,
            })
            .map_err(ConfigError::DeviceGeometry)?;
            let capacity = card.capacity_blocks();
            // `torture` preloads no filler: its target is the working set.
            let fill = utilization.filter(|_| purpose == Purpose::Simulate);
            let target = fill.map_or(w, |frac| (capacity as f64 * frac).round() as u64);
            if w > target {
                return Err(ConfigError::FlashOverfull {
                    working_set_blocks: w,
                    target_blocks: target,
                });
            }
            let fillable = card.fillable_blocks();
            if target > fillable {
                return Err(match fill {
                    Some(frac) => ConfigError::Knob(KnobError {
                        knob: "utilization",
                        value: format!("{frac:?} of {capacity} blocks"),
                        rule: Rule::AtMost("the blocks an aged card can fill", fillable),
                    }),
                    None => ConfigError::FlashOverfull {
                        working_set_blocks: w,
                        target_blocks: fillable,
                    },
                });
            }
            // §5.2's aged layout spreads the working set and the filler
            // over all segments, so free space is cleanable garbage, not
            // erased segments. The filler follows the ops' blocks, inside
            // the lbn domain too.
            let filler_end = in_domain(end.saturating_add(target - w))?;
            let mut card = card
                .with_faults(config.fault)
                .with_integrity(config.integrity);
            let blocks = working.into_iter().flat_map(|(start, end)| start..end);
            card.preload_aged(blocks.chain(end..filler_end));
            with.run(card)
        }
        BackendConfig::Array {
            k,
            m,
            children,
            spares,
            rebuild_rate,
        } => {
            let (working, end) = working_set_runs_and_end(ops);
            in_domain(end)?;
            let deaths = match purpose {
                Purpose::Simulate => DeathSchedule::new(&config.fault, children.len()),
                Purpose::Torture => {
                    // The worst loss the geometry claims to tolerate.
                    let span = ops.last().map_or(0, |op| op.time.as_nanos());
                    let mut deaths = vec![None; children.len()];
                    for d in 0..*m {
                        let at = u128::from(span) * (d as u128 + 1) / (*m as u128 + 1);
                        deaths[d * children.len() / *m] = Some(SimTime::from_nanos(at as u64));
                    }
                    DeathSchedule::explicit(deaths)
                }
            };
            let mut arr = ArrayDevice::try_new(*k, *m, children, block_size)
                .and_then(|arr| arr.try_with_rebuild_rate(*rebuild_rate))
                .map_err(ConfigError::DeviceGeometry)?
                .with_queueing(queueing)
                .with_deaths(deaths)
                .with_spares(*spares);
            // Every block the ops read gets a stripe to decode.
            arr.preload(working.into_iter().flat_map(|(start, end)| start..end));
            with.run(arr)
        }
    })
}

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
