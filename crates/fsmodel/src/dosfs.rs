//! The DOS file system model over the disk and flash-disk testbeds.
//!
//! §3's micro-benchmarks ran under MS-DOS 5.0 on the OmniBook: the
//! benchmark repeatedly read and wrote files in 4-Kbyte requests. The
//! measured throughputs embed DOS costs the raw devices do not have:
//! per-file overhead (open, directory and FAT updates) and per-request CPU
//! time. With DoubleSpace/Stacker enabled, *"small writes go quickly,
//! because they are buffered and written to disk in batches. Large writes
//! are compressed and then written synchronously."*
//!
//! The testbeds here reproduce those mechanisms with documented constants;
//! `EXPERIMENTS.md` compares the resulting Table 1 against the paper's.

use mobistore_device::params::{DiskParams, FlashDiskParams};
use mobistore_device::{Device, Dir, FlashDisk, Request, Service};
use mobistore_sim::obs::NoopObserver;
use mobistore_sim::time::{SimDuration, SimTime};

use crate::compress::{Compressor, DataClass};
use crate::BenchRun;

/// DOS file-system cost constants for one device class.
#[derive(Debug, Clone)]
pub struct DosFsParams {
    /// Per-file overhead on reads (open + directory lookups).
    pub per_file_read: SimDuration,
    /// Per-file overhead on writes (create + directory + FAT updates).
    pub per_file_write: SimDuration,
    /// Per-request CPU overhead on reads.
    pub per_chunk_read: SimDuration,
    /// Per-request CPU overhead on writes.
    pub per_chunk_write: SimDuration,
    /// Files at or below this size have their compressed writes buffered
    /// and batched (DoubleSpace/Stacker behaviour); larger files write
    /// synchronously.
    pub batch_threshold: u64,
    /// CPU cost of buffering one batched write (no device or FAT touch —
    /// §3: they "go quickly, because they are buffered").
    pub batch_cpu: SimDuration,
    /// Device bytes written per compressed byte (cluster padding makes
    /// Stacker write more than the compressed size).
    pub write_amplification: f64,
}

impl DosFsParams {
    /// Constants for the Caviar Ultralite / Kittyhawk benchmarks,
    /// calibrated to Table 1's cu140 rows (raw: 116/543 read, 76/231
    /// write Kbytes/s).
    pub fn disk() -> Self {
        DosFsParams {
            per_file_read: SimDuration::from_millis(6),
            per_file_write: SimDuration::from_millis(18),
            per_chunk_read: SimDuration::from_micros(500),
            per_chunk_write: SimDuration::from_millis(9),
            batch_threshold: 32 * 1024,
            batch_cpu: SimDuration::from_millis(1),
            write_amplification: 1.3,
        }
    }

    /// Constants for the SunDisk flash-disk benchmarks, calibrated to
    /// Table 1's sdp10 rows (raw: 280/410 read, 39/40 write Kbytes/s).
    pub fn flash_disk() -> Self {
        DosFsParams {
            per_file_read: SimDuration::from_millis(6),
            per_file_write: SimDuration::from_millis(2),
            per_chunk_read: SimDuration::from_micros(1_500),
            per_chunk_write: SimDuration::from_millis(18),
            batch_threshold: 32 * 1024,
            batch_cpu: SimDuration::from_millis(1),
            write_amplification: 1.8,
        }
    }
}

/// The magnetic-disk micro-benchmark testbed.
///
/// The disk spins throughout (§3: "because the cu140 was continuously
/// accessed, the disk spun throughout the experiment"), so the model
/// charges seek + rotation for the first request of a file and a partial
/// rotation (sequential access with some missed-revolution cost) for the
/// rest.
#[derive(Debug, Clone)]
pub struct DiskTestbed {
    disk: DiskParams,
    fs: DosFsParams,
    compression: Option<Compressor>,
    /// Fraction of a rotation paid per sequential request.
    sequential_rotation_fraction: f64,
}

impl DiskTestbed {
    /// Creates the testbed; `compression` enables DoubleSpace.
    pub fn new(disk: DiskParams, compression: Option<Compressor>) -> Self {
        DiskTestbed {
            disk,
            fs: DosFsParams::disk(),
            compression,
            sequential_rotation_fraction: 0.66,
        }
    }

    /// Runs the §3 write benchmark: a file of `file_bytes`, written in
    /// `chunk_bytes` requests.
    pub fn write_file(&self, file_bytes: u64, chunk_bytes: u64, class: DataClass) -> BenchRun {
        let mut run = BenchRun::new(file_bytes);
        let chunks = file_bytes.div_ceil(chunk_bytes);
        for i in 0..chunks {
            let bytes = chunk_bytes.min(file_bytes - i * chunk_bytes);
            let base = if i == 0 {
                self.fs.per_chunk_write + self.fs.per_file_write
            } else {
                self.fs.per_chunk_write
            };
            let latency = match &self.compression {
                Some(comp) if file_bytes <= self.fs.batch_threshold => {
                    // Buffered and batched: the write returns after the
                    // compressor; neither data nor FAT touches the disk on
                    // the measured path.
                    self.fs.batch_cpu + comp.compress_time(bytes)
                }
                Some(comp) => {
                    let stored = (comp.stored_bytes(bytes, class) as f64
                        * self.fs.write_amplification) as u64;
                    base + comp.compress_time(bytes) + self.device_time(stored, i == 0, Dir::Write)
                }
                None => base + self.device_time(bytes, i == 0, Dir::Write),
            };
            run.push(latency, bytes);
        }
        run
    }

    /// Runs the §3 read benchmark.
    pub fn read_file(&self, file_bytes: u64, chunk_bytes: u64, class: DataClass) -> BenchRun {
        let mut run = BenchRun::new(file_bytes);
        let chunks = file_bytes.div_ceil(chunk_bytes);
        for i in 0..chunks {
            let bytes = chunk_bytes.min(file_bytes - i * chunk_bytes);
            let mut latency = self.fs.per_chunk_read;
            if i == 0 {
                latency += self.fs.per_file_read;
            }
            match &self.compression {
                Some(comp) => {
                    let stored = comp.stored_bytes(bytes, class);
                    latency += self.device_time(stored, i == 0, Dir::Read)
                        + comp.decompress_time(bytes, class);
                }
                None => latency += self.device_time(bytes, i == 0, Dir::Read),
            }
            run.push(latency, bytes);
        }
        run
    }

    /// Raw device time for one request: full seek + rotation on the first
    /// request of a file, partial rotation after (sequential layout).
    fn device_time(&self, bytes: u64, first: bool, dir: Dir) -> SimDuration {
        let bw = match dir {
            Dir::Read => self.disk.read_bandwidth,
            Dir::Write => self.disk.write_bandwidth,
        };
        let positioning = if first {
            self.disk.avg_seek + self.disk.avg_rotation
        } else {
            self.disk
                .avg_rotation
                .mul_f64(self.sequential_rotation_fraction)
        };
        positioning + bw.transfer_time(bytes)
    }
}

/// The flash-disk micro-benchmark testbed (SunDisk SDP10 under DOS, with
/// optional Stacker).
#[derive(Debug)]
pub struct FlashDiskTestbed {
    device: FlashDisk,
    fs: DosFsParams,
    compression: Option<Compressor>,
    clock: SimTime,
}

impl FlashDiskTestbed {
    /// Creates the testbed; `compression` enables Stacker.
    pub fn new(params: FlashDiskParams, compression: Option<Compressor>) -> Self {
        FlashDiskTestbed {
            device: FlashDisk::new(params),
            fs: DosFsParams::flash_disk(),
            compression,
            clock: SimTime::ZERO,
        }
    }

    /// Runs the §3 write benchmark.
    pub fn write_file(&mut self, file_bytes: u64, chunk_bytes: u64, class: DataClass) -> BenchRun {
        let compression = self.compression.clone();
        let mut run = BenchRun::new(file_bytes);
        let chunks = file_bytes.div_ceil(chunk_bytes);
        for i in 0..chunks {
            let bytes = chunk_bytes.min(file_bytes - i * chunk_bytes);
            let base = if i == 0 {
                self.fs.per_chunk_write + self.fs.per_file_write
            } else {
                self.fs.per_chunk_write
            };
            let latency = match &compression {
                Some(comp) if file_bytes <= self.fs.batch_threshold => {
                    self.fs.batch_cpu + comp.compress_time(bytes)
                }
                Some(comp) => {
                    let stored = (comp.stored_bytes(bytes, class) as f64
                        * self.fs.write_amplification) as u64;
                    base + comp.compress_time(bytes) + self.device_write(stored)
                }
                None => base + self.device_write(bytes),
            };
            run.push(latency, bytes);
        }
        run
    }

    /// Runs the §3 read benchmark.
    pub fn read_file(&mut self, file_bytes: u64, chunk_bytes: u64, class: DataClass) -> BenchRun {
        let compression = self.compression.clone();
        let mut run = BenchRun::new(file_bytes);
        let chunks = file_bytes.div_ceil(chunk_bytes);
        for i in 0..chunks {
            let bytes = chunk_bytes.min(file_bytes - i * chunk_bytes);
            let mut latency = self.fs.per_chunk_read;
            if i == 0 {
                latency += self.fs.per_file_read;
            }
            match &compression {
                Some(comp) => {
                    let stored = comp.stored_bytes(bytes, class);
                    latency += self.device_read(stored) + comp.decompress_time(bytes, class);
                }
                None => latency += self.device_read(bytes),
            }
            run.push(latency, bytes);
        }
        run
    }

    /// Writes `bytes` now. The file system works in bytes, and the flash
    /// disk does not look at block addresses.
    fn device_write(&mut self, bytes: u64) -> SimDuration {
        let req = Request::new(0, bytes);
        let written = self.device.write(self.clock, req, &mut NoopObserver);
        self.advance(written.expect("flash-disk writes never fail"))
    }

    fn device_read(&mut self, bytes: u64) -> SimDuration {
        let req = Request::new(0, bytes);
        let (svc, _) = self.device.read(self.clock, req, &mut NoopObserver);
        self.advance(svc)
    }

    /// Moves the clock to the end of a device access; returns its
    /// response time.
    fn advance(&mut self, svc: Service) -> SimDuration {
        let dur = svc.response(self.clock);
        self.clock = svc.end;
        dur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stacker;
    use mobistore_device::params::{cu140_datasheet, sdp10_datasheet};
    use mobistore_sim::units::KIB;

    #[test]
    fn disk_large_reads_beat_small_files() {
        let tb = DiskTestbed::new(cu140_datasheet(), None);
        let small = tb.read_file(4 * KIB, 4 * KIB, DataClass::Random);
        let large = tb.read_file(1024 * KIB, 4 * KIB, DataClass::Random);
        assert!(
            large.throughput_kib_s() > 3.0 * small.throughput_kib_s(),
            "large {} vs small {}",
            large.throughput_kib_s(),
            small.throughput_kib_s()
        );
    }

    #[test]
    fn disk_compression_speeds_small_writes() {
        // Table 1: cu140 4-KB writes: 76 KB/s raw, 289 KB/s with
        // DoubleSpace (buffered batches).
        let raw = DiskTestbed::new(cu140_datasheet(), None);
        let dbl = DiskTestbed::new(cu140_datasheet(), Some(crate::doublespace()));
        let t_raw = raw.write_file(4 * KIB, 4 * KIB, DataClass::Compressible);
        let t_dbl = dbl.write_file(4 * KIB, 4 * KIB, DataClass::Compressible);
        assert!(
            t_dbl.throughput_kib_s() > 2.0 * t_raw.throughput_kib_s(),
            "dbl {} vs raw {}",
            t_dbl.throughput_kib_s(),
            t_raw.throughput_kib_s()
        );
    }

    #[test]
    fn disk_compression_slows_large_writes() {
        // Table 1: 1-MB writes drop from 231 to 146 KB/s under compression
        // (CPU-bound compressor).
        let raw = DiskTestbed::new(cu140_datasheet(), None);
        let dbl = DiskTestbed::new(cu140_datasheet(), Some(crate::doublespace()));
        let t_raw = raw.write_file(1024 * KIB, 4 * KIB, DataClass::Compressible);
        let t_dbl = dbl.write_file(1024 * KIB, 4 * KIB, DataClass::Compressible);
        assert!(t_dbl.throughput_kib_s() < t_raw.throughput_kib_s());
    }

    #[test]
    fn flash_disk_writes_are_slow_and_size_independent() {
        // §5.2: the flash disk is unaffected by utilization; Table 1 shows
        // ~39-40 KB/s for both file sizes.
        let mut tb = FlashDiskTestbed::new(sdp10_datasheet(), None);
        let small = tb.write_file(4 * KIB, 4 * KIB, DataClass::Random);
        let large = tb.write_file(1024 * KIB, 4 * KIB, DataClass::Random);
        let ratio = small.throughput_kib_s() / large.throughput_kib_s();
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
        assert!(large.throughput_kib_s() < 60.0);
    }

    #[test]
    fn stacker_helps_small_flash_writes() {
        // Table 1: sdp10 4-KB writes: 39 KB/s raw vs 225 KB/s compressed.
        let mut raw = FlashDiskTestbed::new(sdp10_datasheet(), None);
        let mut stk = FlashDiskTestbed::new(sdp10_datasheet(), Some(stacker()));
        let t_raw = raw.write_file(4 * KIB, 4 * KIB, DataClass::Compressible);
        let t_stk = stk.write_file(4 * KIB, 4 * KIB, DataClass::Compressible);
        assert!(
            t_stk.throughput_kib_s() > 3.0 * t_raw.throughput_kib_s(),
            "stk {} vs raw {}",
            t_stk.throughput_kib_s(),
            t_raw.throughput_kib_s()
        );
    }

    #[test]
    fn compressed_reads_pay_decompression_only_for_text() {
        // §3: reads of uncompressible data skip the decompression step.
        let tb = DiskTestbed::new(cu140_datasheet(), Some(crate::doublespace()));
        let text = tb.read_file(1024 * KIB, 4 * KIB, DataClass::Compressible);
        let random = tb.read_file(1024 * KIB, 4 * KIB, DataClass::Random);
        assert!(
            random.throughput_kib_s() > text.throughput_kib_s(),
            "random {} vs text {}",
            random.throughput_kib_s(),
            text.throughput_kib_s()
        );
    }

    #[test]
    fn stacker_reads_land_near_table1() {
        // Table 1 sdp10 compressed reads: 218 (4-KB file) / 246 (1-MB).
        let mut tb = FlashDiskTestbed::new(sdp10_datasheet(), Some(stacker()));
        let small = tb.read_file(4 * KIB, 4 * KIB, DataClass::Compressible);
        let large = tb.read_file(1024 * KIB, 4 * KIB, DataClass::Compressible);
        assert!(
            (100.0..350.0).contains(&small.throughput_kib_s()),
            "{}",
            small.throughput_kib_s()
        );
        assert!(
            (150.0..350.0).contains(&large.throughput_kib_s()),
            "{}",
            large.throughput_kib_s()
        );
    }

    #[test]
    fn partial_tail_chunk_is_handled() {
        // A 10-KB file written in 4-KB requests ends with a 2-KB tail.
        let tb = DiskTestbed::new(cu140_datasheet(), None);
        let run = tb.write_file(10 * KIB, 4 * KIB, DataClass::Random);
        assert_eq!(run.chunk_latencies_ms.len(), 3);
        assert_eq!(run.bytes, 10 * KIB);
        // The tail transfers less, so it is the cheapest request.
        let last = run.chunk_latencies_ms[2];
        assert!(last <= run.chunk_latencies_ms[1]);
    }

    #[test]
    fn bench_run_accounting() {
        let tb = DiskTestbed::new(cu140_datasheet(), None);
        let run = tb.write_file(16 * KIB, 4 * KIB, DataClass::Random);
        assert_eq!(run.chunk_latencies_ms.len(), 4);
        assert_eq!(run.bytes, 16 * KIB);
        assert!(run.total > SimDuration::ZERO);
    }
}
