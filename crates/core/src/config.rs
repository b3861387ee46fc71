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
use mobistore_device::array::{geometry, ChildClass, DEFAULT_REBUILD_RATE};
use mobistore_device::disk::{SeekModel, SpinDownPolicy};
use mobistore_device::params::{
    dram_nec, sram_nec, DiskParams, DramParams, FlashCardParams, FlashDiskParams, SramParams,
};
use mobistore_device::{DeviceError, QueueDiscipline};
use mobistore_flash::store::{CleanerMode, VictimPolicy};
use mobistore_sim::fault::FaultConfig;
use mobistore_sim::integrity::IntegrityConfig;
use mobistore_sim::rule::Rule;
use mobistore_sim::time::SimDuration;
use mobistore_sim::units::MIB;

use crate::simulator::ConfigError;

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
    /// A system over `backend` with the defaults every backend shares
    /// (2-Mbyte DRAM, write-through, open-loop, no faults) and §5.5's
    /// 32-Kbyte SRAM write buffer in front of a disk only: the paper's
    /// flash configurations have none.
    fn new(name: String, backend: BackendConfig) -> Self {
        let disk = matches!(backend, BackendConfig::Disk { .. });
        SystemConfig {
            name,
            dram_bytes: DEFAULT_DRAM_BYTES,
            dram_params: dram_nec(),
            write_policy: WritePolicy::WriteThrough,
            queueing: QueueDiscipline::OpenLoop,
            sram_bytes: if disk { DEFAULT_SRAM_BYTES } else { 0 },
            sram_params: sram_nec(),
            fault: FaultConfig::none(),
            integrity: IntegrityConfig::none(),
            backend,
        }
    }

    /// A magnetic-disk system with the Table 4 defaults (2-Mbyte DRAM,
    /// write-through, 5 s spin-down, 32-Kbyte SRAM write buffer).
    pub fn disk(params: DiskParams) -> Self {
        Self::new(
            params.name.to_owned(),
            BackendConfig::Disk {
                params,
                spin_down: SpinDownPolicy::Fixed(DEFAULT_SPIN_DOWN),
                seek_model: SeekModel::SameFileAverage,
            },
        )
    }

    /// A flash-disk system with the Table 4 defaults.
    pub fn flash_disk(params: FlashDiskParams) -> Self {
        Self::new(params.name.to_owned(), BackendConfig::FlashDisk { params })
    }

    /// A flash-card system with the Table 4 defaults (40-Mbyte card, 80%
    /// utilized, background cleaning, greedy victim selection).
    pub fn flash_card(params: FlashCardParams) -> Self {
        Self::new(
            params.name.to_owned(),
            BackendConfig::FlashCard {
                params,
                capacity_bytes: DEFAULT_FLASH_CAPACITY,
                utilization: Some(DEFAULT_FLASH_UTILIZATION),
                mode: CleanerMode::Background,
                victim_policy: VictimPolicy::GreedyMinLive,
            },
        )
    }

    /// An erasure-coded `k + m` array over `children` device profiles,
    /// with the flash-disk-style defaults (2-Mbyte DRAM, write-through,
    /// no SRAM buffer), one hot spare, and a 128-stripe/s rebuild pace.
    /// [`validate`](Self::validate) checks the geometry.
    pub fn array(k: usize, m: usize, children: Vec<ChildClass>) -> Self {
        Self::new(
            format!("array-{k}+{m}"),
            BackendConfig::Array {
                k,
                m,
                children,
                spares: 1,
                rebuild_rate: DEFAULT_REBUILD_RATE,
            },
        )
    }

    /// Checks every rule that reads only the configuration, on every
    /// backend: the fault and integrity knobs ([`FaultConfig::validate`],
    /// [`IntegrityConfig::validate`]), a flash card's utilization (a
    /// [`Rule::Fraction`]), and an array's geometry and rebuild rate
    /// ([`geometry`]). A run calls it before it builds anything; the rules
    /// that read the trace are checked where the run builds its card.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.fault.validate().map_err(ConfigError::Knob)?;
        self.integrity.validate().map_err(ConfigError::Knob)?;
        match &self.backend {
            BackendConfig::FlashCard {
                utilization: Some(u),
                ..
            } => Rule::Fraction
                .check("utilization", *u)
                .map_err(ConfigError::Knob)?,
            BackendConfig::Array {
                k,
                m,
                children,
                rebuild_rate,
                ..
            } => {
                geometry(*k, *m, children.len(), *rebuild_rate)
                    .map_err(|e| ConfigError::DeviceGeometry(DeviceError::ArrayGeometry(e)))?;
            }
            _ => {}
        }
        Ok(())
    }

    /// The one builder panic: a setter applied to a backend without its
    /// knob, which is a programming error rather than a bad value.
    /// `knob_applies` names the knob with its verb (`spares apply`).
    fn wrong_backend(&self, knob_applies: &str, backend: &str) -> ! {
        panic!(
            "config '{}': {knob_applies} only to {backend} backends, not the {} backend",
            self.name,
            self.backend.kind()
        )
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
            _ => self.wrong_backend("spin-down applies", "magnetic-disk"),
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
            _ => self.wrong_backend("seek model applies", "magnetic-disk"),
        }
        self
    }

    /// Sets the flash-card storage utilization (§5.2's sweep variable), a
    /// fraction in `[0, 1)` that [`validate`](Self::validate) checks.
    ///
    /// # Panics
    ///
    /// Panics on non-flash-card backends.
    pub fn with_utilization(mut self, fraction: f64) -> Self {
        match &mut self.backend {
            BackendConfig::FlashCard { utilization, .. } => *utilization = Some(fraction),
            _ => self.wrong_backend("utilization applies", "flash-card"),
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
            _ => self.wrong_backend("flash capacity applies", "flash-card"),
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
            _ => self.wrong_backend("cleaner mode applies", "flash-card"),
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
            _ => self.wrong_backend("victim policy applies", "flash-card"),
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
            _ => self.wrong_backend("spares apply", "ec-array"),
        }
        self
    }

    /// Sets the array rebuild pace in stripes per second; one whose
    /// per-stripe period
    /// [`rebuild_period`](mobistore_device::array::rebuild_period) refuses
    /// comes back from [`validate`](Self::validate) as
    /// [`ConfigError::DeviceGeometry`].
    ///
    /// # Panics
    ///
    /// Panics on non-array backends.
    pub fn with_rebuild_rate(mut self, stripes_per_sec: f64) -> Self {
        match &mut self.backend {
            BackendConfig::Array { rebuild_rate, .. } => *rebuild_rate = stripes_per_sec,
            _ => self.wrong_backend("rebuild rate applies", "ec-array"),
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_device::params::{cu140_datasheet, intel_datasheet, sdp5_datasheet};
    use mobistore_sim::rule::KnobError;

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
    fn utilization_must_be_fraction() {
        // The builder takes any value; the check refuses it, typed.
        let cfg = SystemConfig::flash_card(intel_datasheet()).with_utilization(1.5);
        let err = cfg.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::Knob(KnobError {
                knob: "utilization",
                value: "1.5".into(),
                rule: Rule::Fraction,
            })
        );
        assert_eq!(
            err.to_string(),
            "utilization out of range: 1.5; must be finite, in [0, 1)"
        );
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
    fn array_zero_data_shards_is_refused() {
        let cfg = SystemConfig::array(0, 2, vec![ChildClass::FlashDisk; 2]);
        assert_eq!(
            cfg.validate().unwrap_err().to_string(),
            "array geometry is invalid: bad erasure-code geometry 0+2: need k >= 1, m >= 1, \
             k+m <= 255"
        );
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

    use crate::crashcheck::{torture, CrashPoints, TortureOptions};
    use crate::simulator::{try_simulate, RunOptions, SimError};
    use mobistore_sim::rng::SimRng;
    use mobistore_sim::time::SimTime;
    use mobistore_trace::record::{DiskOp, DiskOpKind, FileId, Trace};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Forty mixed ops over 24 blocks, one every 10 ms.
    fn trace40() -> Trace {
        let mut trace = Trace::new(1024);
        for i in 0..40u64 {
            trace.push(DiskOp {
                time: SimTime::from_nanos(i * 10_000_000),
                kind: match i % 8 {
                    0 | 2 | 5 => DiskOpKind::Write,
                    7 => DiskOpKind::Trim,
                    _ => DiskOpKind::Read,
                },
                lbn: (i * 7) % 24,
                blocks: 1 + (i % 3) as u32,
                file: FileId(i % 3),
            });
        }
        trace
    }

    /// `config` through both entry points, failing the test on a panic in
    /// either: `try_simulate`'s outcome and `torture`'s violations.
    fn both(config: &SystemConfig, trace: &Trace) -> (Result<(), SimError>, Vec<String>) {
        let opts = TortureOptions {
            max_ops: 40,
            crash_points: CrashPoints::Sampled(2),
            ..TortureOptions::default()
        };
        let run = catch_unwind(AssertUnwindSafe(|| {
            try_simulate(config, trace, RunOptions::default()).map(drop)
        }));
        let report = catch_unwind(AssertUnwindSafe(|| torture(config, trace, &opts)));
        match (run, report) {
            (Ok(run), Ok(report)) => (run, report.violations),
            _ => panic!("'{}' panicked: {config:?}", config.name),
        }
    }

    #[test]
    fn every_broken_rule_is_refused_typed_by_both_entry_points() {
        let card = || SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(4 * MIB);
        let array = || SystemConfig::array(2, 1, vec![ChildClass::FlashDisk; 3]);
        let disk = || SystemConfig::disk(cu140_datasheet());
        let on_field = move |u: f64| {
            let mut cfg = card();
            if let BackendConfig::FlashCard { utilization, .. } = &mut cfg.backend {
                *utilization = Some(u);
            }
            cfg
        };
        let bits = |errors: f64| IntegrityConfig {
            base_errors: errors,
            ..IntegrityConfig::none()
        };
        let ecc_zero = IntegrityConfig {
            ecc_correctable: 0,
            ..IntegrityConfig::none()
        };
        let rate = |r: f64| FaultConfig::with_rate(r, 1);
        let deaths = |r: f64| FaultConfig::none().with_death_rate(r);
        // Each row names the knob refused; "" is a device geometry.
        type Row = (&'static str, Box<dyn Fn() -> SystemConfig>, &'static str);
        let rows: Vec<Row> = vec![
            (
                "card, rate 2",
                Box::new(move || card().with_faults(rate(2.0))),
                "write_fail_rate",
            ),
            (
                "card, NaN rate",
                Box::new(move || card().with_faults(rate(f64::NAN))),
                "write_fail_rate",
            ),
            (
                "array, rate 2",
                Box::new(move || array().with_faults(rate(2.0))),
                "write_fail_rate",
            ),
            (
                "array, deaths -1",
                Box::new(move || array().with_faults(deaths(-1.0))),
                "death_rate",
            ),
            (
                "array, NaN deaths",
                Box::new(move || array().with_faults(deaths(f64::NAN))),
                "death_rate",
            ),
            (
                "disk, zero power-fail mean",
                Box::new(move || {
                    disk().with_faults(FaultConfig::none().with_power_failures(SimDuration::ZERO))
                }),
                "power_fail_mean",
            ),
            (
                "flash disk, base_errors -1",
                Box::new(move || {
                    SystemConfig::flash_disk(sdp5_datasheet()).with_integrity(bits(-1.0))
                }),
                "base_errors",
            ),
            (
                "card, base_errors -1",
                Box::new(move || card().with_integrity(bits(-1.0))),
                "base_errors",
            ),
            (
                "card, ecc_correctable 0",
                Box::new(move || card().with_integrity(ecc_zero)),
                "ecc_correctable",
            ),
            (
                "card, zero scrub interval",
                Box::new(move || {
                    card().with_integrity(IntegrityConfig::none().with_scrub(SimDuration::ZERO))
                }),
                "scrub_interval",
            ),
            (
                "card, utilization 1.5 on the field",
                Box::new(move || on_field(1.5)),
                "utilization",
            ),
            (
                "card, NaN utilization on the field",
                Box::new(move || on_field(f64::NAN)),
                "utilization",
            ),
            (
                "with_utilization(1.5)",
                Box::new(move || card().with_utilization(1.5)),
                "utilization",
            ),
            (
                "array(0, 2, ..)",
                Box::new(|| SystemConfig::array(0, 2, vec![ChildClass::FlashDisk; 2])),
                "",
            ),
            (
                "card of 0 bytes",
                Box::new(move || card().with_flash_capacity(0)),
                "",
            ),
            (
                "card of 1,000 bytes",
                Box::new(move || card().with_flash_capacity(1_000)),
                "",
            ),
            (
                "disk, rate 2",
                Box::new(move || disk().with_faults(rate(2.0))),
                "write_fail_rate",
            ),
            (
                "disk, base_errors -1",
                Box::new(move || disk().with_integrity(bits(-1.0))),
                "base_errors",
            ),
            (
                "flash disk, correction_penalty MAX",
                Box::new(move || {
                    SystemConfig::flash_disk(sdp5_datasheet()).with_integrity(IntegrityConfig {
                        correction_penalty: SimDuration::MAX,
                        ..bits(4.0)
                    })
                }),
                "correction_penalty",
            ),
            (
                "disk, fat_scan_bytes MAX under power failures",
                Box::new(move || {
                    disk().with_faults(FaultConfig {
                        fat_scan_bytes: u64::MAX,
                        ..FaultConfig::none().with_power_failures(SimDuration::from_millis(50))
                    })
                }),
                "fat_scan_bytes",
            ),
        ];
        let trace = trace40();
        for (row, build, knob) in &rows {
            let config = catch_unwind(AssertUnwindSafe(build))
                .unwrap_or_else(|_| panic!("{row}: the builder panicked"));
            let (run, violations) = both(&config, &trace);
            let Err(SimError::Config(e)) = run else {
                panic!("{row}: not refused typed: {run:?}");
            };
            match &e {
                ConfigError::Knob(k) => assert_eq!(k.knob, *knob, "{row}"),
                ConfigError::DeviceGeometry(_) => assert_eq!(*knob, "", "{row}"),
                other => panic!("{row}: {other:?}"),
            }
            assert_eq!(violations.len(), 1, "{row}: {violations:?}");
            assert!(
                violations[0].ends_with(&format!(": {e}")),
                "{row}: {violations:?} vs {e}"
            );
        }
        // A retry count is linear in time: u32::MAX is refused unrun.
        let stall = card().with_faults(FaultConfig {
            max_retries: u32::MAX,
            ..rate(1.0)
        });
        let Err(ConfigError::Knob(e)) = stall.validate() else {
            panic!("max_retries u32::MAX admitted");
        };
        assert_eq!(e.knob, "max_retries");
        // Refused by the run only: torture preloads no filler.
        let aged = |fraction: &str, capacity: u64, fillable: u64| {
            ConfigError::Knob(KnobError {
                knob: "utilization",
                value: format!("{fraction} of {capacity} blocks"),
                rule: Rule::AtMost("the blocks an aged card can fill", fillable),
            })
        };
        for (config, refusal) in [
            (
                SystemConfig::flash_card(intel_datasheet()).with_utilization(0.995),
                aged("0.995", 40_960, 40_704),
            ),
            (
                SystemConfig::flash_card(intel_datasheet()).with_flash_capacity(MIB),
                aged("0.8", 1_024, 768),
            ),
        ] {
            let (run, violations) = both(&config, &trace);
            assert_eq!(run, Err(SimError::Config(refusal)));
            assert!(violations.is_empty(), "{violations:?}");
        }
        // Without a utilization the working set alone is the preload, and
        // a two-segment card can fill none of it.
        let mut bare = card().with_flash_capacity(256 * 1024);
        if let BackendConfig::FlashCard { utilization, .. } = &mut bare.backend {
            *utilization = None;
        }
        let w = mobistore_trace::record::working_set_len(&trace.ops);
        let (run, violations) = both(&bare, &trace);
        let overfull = ConfigError::FlashOverfull {
            working_set_blocks: w,
            target_blocks: 0,
        };
        assert_eq!(run, Err(SimError::Config(overfull)));
        assert_eq!(
            violations,
            [format!(
                "cannot replay: trace working set ({w} blocks) exceeds the flash \
                 preallocation bound (0 blocks); increase the flash capacity or the \
                 utilization"
            )]
        );
    }

    /// Values every drawn knob can take, beside random ones.
    const SPECIAL: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        0.0,
        1e-300,
        0.5,
        1.0,
        1.5,
        1e300,
    ];

    #[test]
    fn fuzzed_knobs_end_in_a_result_never_a_panic() {
        let trace = trace40();
        let mut rng = SimRng::seed_with_stream(1994, 0xc0f1);
        let (mut ran, mut refused) = (0, 0);
        for i in 0..320u64 {
            // One knob in eight takes a special or random value; the rest
            // keep their defaults, so many draws get past the check.
            let mut draw = |default: f64, random: f64| match rng.below(96) {
                n @ 0..=9 => SPECIAL[n as usize],
                10 | 11 => random * rng.f64(),
                _ => default,
            };
            let interval = |v: f64| match SimDuration::try_from_secs_f64(v) {
                _ if v.is_nan() => None,
                Some(d) => Some(d),
                None if v > 0.0 => Some(SimDuration::MAX),
                None => Some(SimDuration::ZERO),
            };
            let mut config = match i % 4 {
                0 => SystemConfig::disk(cu140_datasheet()),
                1 => SystemConfig::flash_disk(sdp5_datasheet()),
                2 => SystemConfig::flash_card(intel_datasheet())
                    .with_flash_capacity((1 + i % 16 / 4) * MIB)
                    .with_utilization(draw(0.5, 2.0)),
                _ => {
                    let (k, m) = (draw(2.0, 16.0) as usize, draw(1.0, 16.0) as usize);
                    let n = match draw(0.0, 2.0) {
                        0.0 => k.saturating_add(m),
                        v => v as usize,
                    };
                    SystemConfig::array(k, m, vec![ChildClass::FlashDisk; n.min(300)])
                        .with_rebuild_rate(draw(128.0, 2.0))
                }
            };
            config.fault = FaultConfig {
                write_fail_rate: draw(0.0, 2.0),
                erase_fail_rate: draw(0.0, 2.0),
                permanent_rate: draw(0.1, 2.0),
                death_rate: draw(0.0, 2.0),
                power_fail_mean: interval(draw(f64::NAN, 2.0)),
                max_retries: draw(3.0, 128.0) as u32,
                fat_scan_bytes: draw(131_072.0, 2e9) as u64,
                seed: i,
            };
            config.integrity = IntegrityConfig {
                base_errors: draw(0.0, 2.0),
                errors_per_erase: draw(0.0, 2.0),
                retention_per_hour: draw(0.0, 2.0),
                ecc_correctable: draw(8.0, 16.0) as u32,
                retry_threshold: draw(12.0, 16.0) as u32,
                relocate_threshold: draw(6.0, 16.0) as u32,
                scrub_interval: interval(draw(f64::NAN, 2.0)),
                correction_penalty: interval(draw(2e-5, 2.0)).unwrap_or(SimDuration::MAX),
                seed: i,
            };
            let (run, violations) = both(&config, &trace);
            match config.validate() {
                Err(e) => {
                    refused += 1;
                    assert_eq!(run, Err(SimError::Config(e.clone())), "{config:?}");
                    assert_eq!(violations, [format!("cannot replay: {e}")]);
                }
                Ok(()) => ran += u32::from(run.is_ok()),
            }
        }
        assert!(ran > 40 && refused > 40, "ran {ran}, refused {refused}");
    }
}
