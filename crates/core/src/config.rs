//! Storage-system configurations.
//!
//! A [`SystemConfig`] describes one simulated storage organisation: the
//! DRAM buffer cache (§2: every organisation has one, §4.2: write-through
//! by default, possibly zero-sized), and a non-volatile backend — magnetic
//! disk with optional SRAM write buffer and a spin-down policy, flash disk
//! emulator, or flash memory card. The constructors default to the paper's
//! Table 4 configuration (2-Mbyte DRAM, 5 s spin-down, 32-Kbyte SRAM,
//! flash 80% utilized) so each Table 4 row is one builder call.

use mobistore_cache::dram::WritePolicy;
use mobistore_device::array::ChildClass;
use mobistore_device::disk::{SeekModel, SpinDownPolicy};
use mobistore_device::params::{
    dram_nec, sram_nec, DiskParams, DramParams, FlashCardParams, FlashDiskParams, SramParams,
};
use mobistore_device::QueueDiscipline;
use mobistore_flash::store::{CleanerMode, VictimPolicy};
use mobistore_sim::fault::FaultConfig;
use mobistore_sim::integrity::IntegrityConfig;
use mobistore_sim::time::SimDuration;
use mobistore_sim::units::MIB;

/// The non-volatile backend of a storage system.
#[derive(Debug, Clone)]
pub enum BackendConfig {
    /// A magnetic hard disk (§2).
    Disk {
        /// Disk parameters from [`mobistore_device::params`].
        params: DiskParams,
        /// The spin-down policy (fixed threshold, adaptive, or never).
        spin_down: SpinDownPolicy,
        /// Seek model: the paper's same-file-average assumption, or the
        /// pessimistic distance-based alternative (§5.1's divergence).
        seek_model: SeekModel,
    },
    /// A flash disk emulator (§2).
    FlashDisk {
        /// Flash-disk parameters (including its erase policy).
        params: FlashDiskParams,
    },
    /// A byte-accessible flash memory card (§2).
    FlashCard {
        /// Card timing/power parameters.
        params: FlashCardParams,
        /// Card capacity in bytes.
        capacity_bytes: u64,
        /// Initial storage utilization in `[0, 1)`: the card is preloaded
        /// with live data to this fraction of capacity (§5.2). `None`
        /// preloads only the trace's own working set.
        utilization: Option<f64>,
        /// Cleaner scheduling (§4.2).
        mode: CleanerMode,
        /// Victim selection policy.
        victim_policy: VictimPolicy,
    },
    /// An erasure-coded `k + m` array over child device profiles (the
    /// durability study).
    Array {
        /// Data shards per stripe.
        k: usize,
        /// Parity shards per stripe (losses tolerated).
        m: usize,
        /// The `k + m` children, in child order.
        children: Vec<ChildClass>,
        /// Hot spares available for background rebuilds.
        spares: u32,
        /// Rebuild pace in stripes per second.
        rebuild_rate: f64,
    },
}

impl BackendConfig {
    /// Stable lowercase backend name, used in diagnostics and exports.
    pub fn kind(&self) -> &'static str {
        match self {
            BackendConfig::Disk { .. } => "magnetic-disk",
            BackendConfig::FlashDisk { .. } => "flash-disk",
            BackendConfig::FlashCard { .. } => "flash-card",
            BackendConfig::Array { .. } => "ec-array",
        }
    }
}

/// A complete storage-system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Label used in result tables (Table 4 row name).
    pub name: String,
    /// DRAM buffer-cache size in bytes; 0 simulates no cache (the `hp`
    /// trace, §4.1).
    pub dram_bytes: u64,
    /// DRAM chip parameters.
    pub dram_params: DramParams,
    /// Write-through (paper default) or write-back (ablation).
    pub write_policy: WritePolicy,
    /// Request handling at a busy device: open-loop (the paper's
    /// independent-operation model, the default) or FIFO queueing (the
    /// ablation).
    pub queueing: QueueDiscipline,
    /// Battery-backed SRAM write-buffer size in bytes; 0 disables it.
    ///
    /// In front of a disk this is the §5.5 deferred-spin-up buffer
    /// (Table 4's disks default to 32 Kbytes). In front of a flash device
    /// it is the §7 extension ("adding SRAM to flash should dramatically
    /// improve performance"); the flash configurations default to none,
    /// as in the paper.
    pub sram_bytes: u64,
    /// SRAM chip parameters.
    pub sram_params: SramParams,
    /// Fault-injection configuration (the reliability study); defaults to
    /// [`FaultConfig::none`], which injects nothing and reproduces the
    /// fault-free simulator byte for byte.
    pub fault: FaultConfig,
    /// Bit-error/ECC configuration (the data-integrity study); defaults
    /// to [`IntegrityConfig::none`], which draws nothing and reproduces
    /// the integrity-free simulator byte for byte. Applies to the flash
    /// backends (card and disk); the magnetic disk ignores it.
    pub integrity: IntegrityConfig,
    /// The non-volatile backend.
    pub backend: BackendConfig,
}

/// Table 4's spin-down threshold: "a good compromise between energy
/// consumption and response time" (§5.1, citing [5, 13]).
pub const DEFAULT_SPIN_DOWN: SimDuration = SimDuration::from_secs(5);
/// Table 4's DRAM buffer size for the `mac` and `dos` traces.
pub const DEFAULT_DRAM_BYTES: u64 = 2 * MIB;
/// §5.5's baseline SRAM write-buffer size ("a 32-Kbyte SRAM write buffer
/// costs only a few dollars").
pub const DEFAULT_SRAM_BYTES: u64 = 32 * 1024;
/// Table 4's flash storage utilization ("simulations using the flash card
/// were done with the card 80% full").
pub const DEFAULT_FLASH_UTILIZATION: f64 = 0.80;
/// The simulated flash card / flash disk capacity: the paper treats the
/// flash devices as 40-Mbyte parts to match the Caviar Ultralite (§3).
pub const DEFAULT_FLASH_CAPACITY: u64 = 40 * MIB;

impl SystemConfig {
    /// A magnetic-disk system with the Table 4 defaults (2-Mbyte DRAM,
    /// write-through, 5 s spin-down, 32-Kbyte SRAM write buffer).
    pub fn disk(params: DiskParams) -> Self {
        SystemConfig {
            name: params.name.to_owned(),
            dram_bytes: DEFAULT_DRAM_BYTES,
            dram_params: dram_nec(),
            write_policy: WritePolicy::WriteThrough,
            queueing: QueueDiscipline::OpenLoop,
            sram_bytes: DEFAULT_SRAM_BYTES,
            sram_params: sram_nec(),
            fault: FaultConfig::none(),
            integrity: IntegrityConfig::none(),
            backend: BackendConfig::Disk {
                params,
                spin_down: SpinDownPolicy::Fixed(DEFAULT_SPIN_DOWN),
                seek_model: SeekModel::SameFileAverage,
            },
        }
    }

    /// A flash-disk system with the Table 4 defaults.
    pub fn flash_disk(params: FlashDiskParams) -> Self {
        SystemConfig {
            name: params.name.to_owned(),
            dram_bytes: DEFAULT_DRAM_BYTES,
            dram_params: dram_nec(),
            write_policy: WritePolicy::WriteThrough,
            queueing: QueueDiscipline::OpenLoop,
            sram_bytes: 0,
            sram_params: sram_nec(),
            fault: FaultConfig::none(),
            integrity: IntegrityConfig::none(),
            backend: BackendConfig::FlashDisk { params },
        }
    }

    /// A flash-card system with the Table 4 defaults (40-Mbyte card, 80%
    /// utilized, background cleaning, greedy victim selection).
    pub fn flash_card(params: FlashCardParams) -> Self {
        SystemConfig {
            name: params.name.to_owned(),
            dram_bytes: DEFAULT_DRAM_BYTES,
            dram_params: dram_nec(),
            write_policy: WritePolicy::WriteThrough,
            queueing: QueueDiscipline::OpenLoop,
            sram_bytes: 0,
            sram_params: sram_nec(),
            fault: FaultConfig::none(),
            integrity: IntegrityConfig::none(),
            backend: BackendConfig::FlashCard {
                params,
                capacity_bytes: DEFAULT_FLASH_CAPACITY,
                utilization: Some(DEFAULT_FLASH_UTILIZATION),
                mode: CleanerMode::Background,
                victim_policy: VictimPolicy::GreedyMinLive,
            },
        }
    }

    /// An erasure-coded `k + m` array over `children` device profiles,
    /// with the flash-disk-style defaults (2-Mbyte DRAM, write-through,
    /// no SRAM buffer), one hot spare, and a 128-stripe/s rebuild pace.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `m == 0` or `children.len() != k + m`. A
    /// geometry past the codec's 255 shards is built, and
    /// [`try_simulate`](crate::simulator::try_simulate) refuses it with
    /// [`ConfigError::DeviceGeometry`](crate::simulator::ConfigError::DeviceGeometry),
    /// as it refuses any [`BackendConfig::Array`] that
    /// [`mobistore_device::ArrayDevice::try_new`] rejects.
    pub fn array(k: usize, m: usize, children: Vec<ChildClass>) -> Self {
        assert!(k >= 1 && m >= 1, "array geometry {k}+{m} is invalid");
        assert_eq!(
            children.len(),
            k + m,
            "array geometry {k}+{m} needs exactly {} children, got {}",
            k + m,
            children.len()
        );
        SystemConfig {
            name: format!("array-{k}+{m}"),
            dram_bytes: DEFAULT_DRAM_BYTES,
            dram_params: dram_nec(),
            write_policy: WritePolicy::WriteThrough,
            queueing: QueueDiscipline::OpenLoop,
            sram_bytes: 0,
            sram_params: sram_nec(),
            fault: FaultConfig::none(),
            integrity: IntegrityConfig::none(),
            backend: BackendConfig::Array {
                k,
                m,
                children,
                spares: 1,
                rebuild_rate: 128.0,
            },
        }
    }

    /// Overrides the configuration label.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the DRAM buffer-cache size (0 disables the cache, as the `hp`
    /// simulations require).
    pub fn with_dram(mut self, bytes: u64) -> Self {
        self.dram_bytes = bytes;
        self
    }

    /// Sets the cache write policy.
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
        self
    }

    /// Sets the queue discipline (open-loop reproduces the paper; FIFO is
    /// the queueing ablation).
    pub fn with_queueing(mut self, discipline: QueueDiscipline) -> Self {
        self.queueing = discipline;
        self
    }

    /// Sets the SRAM write-buffer size for any backend (0 disables).
    pub fn with_sram(mut self, bytes: u64) -> Self {
        self.sram_bytes = bytes;
        self
    }

    /// Sets the fault-injection configuration (applies to any backend;
    /// write/erase faults only affect the flash card, power failures
    /// affect the flash card and the magnetic disk).
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Sets the bit-error/ECC configuration (applies to the flash card and
    /// the flash disk; the magnetic disk ignores it).
    pub fn with_integrity(mut self, integrity: IntegrityConfig) -> Self {
        self.integrity = integrity;
        self
    }

    /// Sets the disk spin-down threshold (`None` never spins down).
    ///
    /// # Panics
    ///
    /// Panics on non-disk backends.
    pub fn with_spin_down(self, threshold: Option<SimDuration>) -> Self {
        let policy = match threshold {
            Some(t) => SpinDownPolicy::Fixed(t),
            None => SpinDownPolicy::Never,
        };
        self.with_spin_down_policy(policy)
    }

    /// Sets the full disk spin-down policy (fixed, adaptive, or never).
    ///
    /// # Panics
    ///
    /// Panics on non-disk backends.
    pub fn with_spin_down_policy(mut self, policy: SpinDownPolicy) -> Self {
        match &mut self.backend {
            BackendConfig::Disk { spin_down, .. } => *spin_down = policy,
            other => panic!(
                "config '{}': spin-down applies only to magnetic-disk backends, \
                 not the {} backend",
                self.name,
                other.kind()
            ),
        }
        self
    }

    /// Sets the disk seek model (the §5.1 seek-assumption ablation).
    ///
    /// # Panics
    ///
    /// Panics on non-disk backends.
    pub fn with_seek_model(mut self, model: SeekModel) -> Self {
        match &mut self.backend {
            BackendConfig::Disk { seek_model, .. } => *seek_model = model,
            other => panic!(
                "config '{}': seek model applies only to magnetic-disk backends, \
                 not the {} backend",
                self.name,
                other.kind()
            ),
        }
        self
    }

    /// Sets the flash-card storage utilization (§5.2's sweep variable).
    ///
    /// # Panics
    ///
    /// Panics on non-flash-card backends or a fraction outside `[0, 1)`.
    pub fn with_utilization(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "utilization out of range: {fraction}"
        );
        match &mut self.backend {
            BackendConfig::FlashCard { utilization, .. } => *utilization = Some(fraction),
            other => panic!(
                "config '{}': utilization applies only to flash-card backends, \
                 not the {} backend",
                self.name,
                other.kind()
            ),
        }
        self
    }

    /// Sets the flash-card capacity (Figure 4's sweep variable).
    ///
    /// # Panics
    ///
    /// Panics on non-flash-card backends.
    pub fn with_flash_capacity(mut self, bytes: u64) -> Self {
        match &mut self.backend {
            BackendConfig::FlashCard { capacity_bytes, .. } => *capacity_bytes = bytes,
            other => panic!(
                "config '{}': flash capacity applies only to flash-card backends, \
                 not the {} backend",
                self.name,
                other.kind()
            ),
        }
        self
    }

    /// Sets the flash-card cleaner scheduling mode.
    ///
    /// # Panics
    ///
    /// Panics on non-flash-card backends.
    pub fn with_cleaner_mode(mut self, new_mode: CleanerMode) -> Self {
        match &mut self.backend {
            BackendConfig::FlashCard { mode, .. } => *mode = new_mode,
            other => panic!(
                "config '{}': cleaner mode applies only to flash-card backends, \
                 not the {} backend",
                self.name,
                other.kind()
            ),
        }
        self
    }

    /// Sets the flash-card victim-selection policy.
    ///
    /// # Panics
    ///
    /// Panics on non-flash-card backends.
    pub fn with_victim_policy(mut self, policy: VictimPolicy) -> Self {
        match &mut self.backend {
            BackendConfig::FlashCard { victim_policy, .. } => *victim_policy = policy,
            other => panic!(
                "config '{}': victim policy applies only to flash-card backends, \
                 not the {} backend",
                self.name,
                other.kind()
            ),
        }
        self
    }

    /// Sets the number of hot spares available for array rebuilds.
    ///
    /// # Panics
    ///
    /// Panics on non-array backends.
    pub fn with_spares(mut self, count: u32) -> Self {
        match &mut self.backend {
            BackendConfig::Array { spares, .. } => *spares = count,
            other => panic!(
                "config '{}': spares apply only to ec-array backends, \
                 not the {} backend",
                self.name,
                other.kind()
            ),
        }
        self
    }

    /// Sets the array rebuild pace in stripes per second. The rate is
    /// checked where the run builds the array: one whose per-stripe period
    /// [`rebuild_period`](mobistore_device::array::rebuild_period) refuses
    /// comes back from `try_simulate` as
    /// [`ConfigError::DeviceGeometry`](crate::simulator::ConfigError::DeviceGeometry).
    ///
    /// # Panics
    ///
    /// Panics on non-array backends.
    pub fn with_rebuild_rate(mut self, stripes_per_sec: f64) -> Self {
        match &mut self.backend {
            BackendConfig::Array { rebuild_rate, .. } => *rebuild_rate = stripes_per_sec,
            other => panic!(
                "config '{}': rebuild rate applies only to ec-array backends, \
                 not the {} backend",
                self.name,
                other.kind()
            ),
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_device::params::{cu140_datasheet, intel_datasheet, sdp5_datasheet};

    #[test]
    fn disk_defaults_match_table4() {
        let cfg = SystemConfig::disk(cu140_datasheet());
        assert_eq!(cfg.dram_bytes, 2 * MIB);
        assert_eq!(cfg.write_policy, WritePolicy::WriteThrough);
        assert_eq!(cfg.sram_bytes, 32 * 1024);
        match cfg.backend {
            BackendConfig::Disk { spin_down, .. } => {
                assert_eq!(spin_down, SpinDownPolicy::Fixed(SimDuration::from_secs(5)));
            }
            _ => panic!("expected disk backend"),
        }
    }

    #[test]
    fn flash_card_defaults_match_table4() {
        let cfg = SystemConfig::flash_card(intel_datasheet());
        match cfg.backend {
            BackendConfig::FlashCard {
                capacity_bytes,
                utilization,
                mode,
                ..
            } => {
                assert_eq!(capacity_bytes, 40 * MIB);
                assert_eq!(utilization, Some(0.80));
                assert_eq!(mode, CleanerMode::Background);
            }
            _ => panic!("expected flash card backend"),
        }
    }

    #[test]
    fn builders_chain() {
        let cfg = SystemConfig::flash_card(intel_datasheet())
            .named("custom")
            .with_dram(0)
            .with_utilization(0.95)
            .with_flash_capacity(10 * MIB);
        assert_eq!(cfg.name, "custom");
        assert_eq!(cfg.dram_bytes, 0);
        match cfg.backend {
            BackendConfig::FlashCard {
                utilization,
                capacity_bytes,
                ..
            } => {
                assert_eq!(utilization, Some(0.95));
                assert_eq!(capacity_bytes, 10 * MIB);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn sram_applies_to_any_backend() {
        // §7's extension: SRAM can front the flash devices too.
        let cfg = SystemConfig::flash_disk(sdp5_datasheet()).with_sram(1024);
        assert_eq!(cfg.sram_bytes, 1024);
        let cfg = SystemConfig::flash_card(intel_datasheet()).with_sram(64 * 1024);
        assert_eq!(cfg.sram_bytes, 64 * 1024);
        // And the flash defaults have none, as in the paper's Table 4.
        assert_eq!(SystemConfig::flash_disk(sdp5_datasheet()).sram_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn utilization_must_be_fraction() {
        let _ = SystemConfig::flash_card(intel_datasheet()).with_utilization(1.5);
    }

    #[test]
    fn backend_kinds_are_stable() {
        assert_eq!(
            SystemConfig::disk(cu140_datasheet()).backend.kind(),
            "magnetic-disk"
        );
        assert_eq!(
            SystemConfig::flash_disk(sdp5_datasheet()).backend.kind(),
            "flash-disk"
        );
        assert_eq!(
            SystemConfig::flash_card(intel_datasheet()).backend.kind(),
            "flash-card"
        );
        assert_eq!(
            SystemConfig::array(2, 1, vec![ChildClass::FlashDisk; 3])
                .backend
                .kind(),
            "ec-array"
        );
    }

    #[test]
    fn array_defaults() {
        let cfg = SystemConfig::array(
            4,
            2,
            vec![
                ChildClass::FlashCard,
                ChildClass::FlashCard,
                ChildClass::FlashDisk,
                ChildClass::FlashDisk,
                ChildClass::HardDisk,
                ChildClass::HardDisk,
            ],
        )
        .with_spares(2)
        .with_rebuild_rate(64.0);
        assert_eq!(cfg.name, "array-4+2");
        assert_eq!(cfg.sram_bytes, 0);
        match cfg.backend {
            BackendConfig::Array {
                k,
                m,
                ref children,
                spares,
                rebuild_rate,
            } => {
                assert_eq!((k, m), (4, 2));
                assert_eq!(children.len(), 6);
                assert_eq!(spares, 2);
                assert_eq!(rebuild_rate, 64.0);
            }
            _ => panic!("expected array backend"),
        }
    }

    #[test]
    #[should_panic(expected = "array geometry 0+2 is invalid")]
    fn array_zero_data_shards_panics() {
        let _ = SystemConfig::array(0, 2, vec![ChildClass::FlashDisk; 2]);
    }

    #[test]
    #[should_panic(
        expected = "config 'sdp5': rebuild rate applies only to ec-array backends, not the flash-disk backend"
    )]
    fn rebuild_rate_mismatch_names_field_and_backend() {
        let _ = SystemConfig::flash_disk(sdp5_datasheet())
            .named("sdp5")
            .with_rebuild_rate(64.0);
    }

    #[test]
    #[should_panic(
        expected = "config 'cu140': spares apply only to ec-array backends, not the magnetic-disk backend"
    )]
    fn spares_mismatch_names_field_and_backend() {
        let _ = SystemConfig::disk(cu140_datasheet())
            .named("cu140")
            .with_spares(1);
    }

    #[test]
    #[should_panic(
        expected = "config 'sdp5': spin-down applies only to magnetic-disk backends, not the flash-disk backend"
    )]
    fn spin_down_mismatch_names_field_and_backend() {
        let _ = SystemConfig::flash_disk(sdp5_datasheet())
            .named("sdp5")
            .with_spin_down(None);
    }

    #[test]
    #[should_panic(
        expected = "config 'intel': seek model applies only to magnetic-disk backends, not the flash-card backend"
    )]
    fn seek_model_mismatch_names_field_and_backend() {
        let _ = SystemConfig::flash_card(intel_datasheet())
            .named("intel")
            .with_seek_model(SeekModel::AlwaysAverage);
    }

    #[test]
    #[should_panic(
        expected = "config 'cu140': utilization applies only to flash-card backends, not the magnetic-disk backend"
    )]
    fn utilization_mismatch_names_field_and_backend() {
        let _ = SystemConfig::disk(cu140_datasheet())
            .named("cu140")
            .with_utilization(0.5);
    }

    #[test]
    #[should_panic(
        expected = "config 'cu140': flash capacity applies only to flash-card backends, not the magnetic-disk backend"
    )]
    fn capacity_mismatch_names_field_and_backend() {
        let _ = SystemConfig::disk(cu140_datasheet())
            .named("cu140")
            .with_flash_capacity(MIB);
    }

    #[test]
    #[should_panic(
        expected = "config 'sdp5': cleaner mode applies only to flash-card backends, not the flash-disk backend"
    )]
    fn cleaner_mode_mismatch_names_field_and_backend() {
        let _ = SystemConfig::flash_disk(sdp5_datasheet())
            .named("sdp5")
            .with_cleaner_mode(CleanerMode::OnDemand);
    }

    #[test]
    #[should_panic(
        expected = "config 'sdp5': victim policy applies only to flash-card backends, not the flash-disk backend"
    )]
    fn victim_policy_mismatch_names_field_and_backend() {
        let _ = SystemConfig::flash_disk(sdp5_datasheet())
            .named("sdp5")
            .with_victim_policy(VictimPolicy::GreedyMinLive);
    }
}
