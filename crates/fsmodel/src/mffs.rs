//! The Microsoft Flash File System 2.00 model.
//!
//! §3 found MFFS 2.00 pathological: *"The latency of each write increases
//! linearly as the file grows, apparently because data already written to
//! the flash card are written again, even in the absence of cleaning"*
//! (Figure 1), and throughput also decays with cumulative data written and
//! with storage utilization (Figure 3). Reads degrade with file size too
//! (Table 1: 645 → 37 Kbytes/s from a 4-Kbyte to a 1-Mbyte file).
//!
//! The model layers three documented mechanisms over a real
//! [`FlashCardStore`]:
//!
//! * a per-write penalty proportional to the file's current size (the
//!   re-write anomaly; dominates Figure 1);
//! * a smaller penalty proportional to cumulative bytes written since the
//!   card was formatted (growing linked-list metadata; the gentle decay of
//!   Figure 3's 10%-full curve);
//! * real segment cleaning via the store (the collapse of Figure 3's 95%-
//!   full curve).
//!
//! MFFS compression is always on; random data still pays the compression
//! attempt on writes but skips decompression on reads (§3).

use std::collections::HashMap;

use mobistore_device::params::FlashCardParams;
use mobistore_device::{Device, Request, Service};
use mobistore_flash::store::{CleanerMode, FlashCardConfig, FlashCardStore, VictimPolicy};
use mobistore_sim::obs::NoopObserver;
use mobistore_sim::time::{SimDuration, SimTime};

use crate::compress::{Compressor, DataClass};
use crate::BenchRun;

/// MFFS 2.00 cost constants.
#[derive(Debug, Clone)]
pub struct MffsParams {
    /// Per-request software overhead on reads.
    pub base_read: SimDuration,
    /// Per-request software overhead on writes.
    pub base_write: SimDuration,
    /// Seconds of re-write work per byte of current file size, per write
    /// (Figure 1's slope: ≈ 0.21 ms per Kbyte).
    pub write_file_coeff: f64,
    /// Seconds per byte of current file size, per read (Table 1's
    /// large-file read collapse: ≈ 0.10 ms per Kbyte).
    pub read_file_coeff: f64,
    /// Seconds per byte of cumulative data written since format, per write
    /// (Figure 3's gentle decay: ≈ 0.011 ms per Kbyte).
    pub cumulative_coeff: f64,
    /// The built-in compressor.
    pub compressor: Compressor,
}

impl MffsParams {
    /// Constants calibrated to §3's measurements (see module docs).
    pub fn mffs2() -> Self {
        MffsParams {
            base_read: SimDuration::from_millis_f64(5.5),
            base_write: SimDuration::from_millis(25),
            write_file_coeff: 0.21e-3 / 1024.0,
            read_file_coeff: 0.10e-3 / 1024.0,
            cumulative_coeff: 0.011e-3 / 1024.0,
            compressor: crate::mffs_compressor(),
        }
    }
}

/// A file known to the testbed.
#[derive(Debug, Clone, Copy)]
struct FileEntry {
    base_lbn: u64,
    bytes: u64,
}

/// A handle to a testbed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileHandle(u64);

/// The flash-card micro-benchmark testbed: MFFS 2.00 over an Intel
/// Series 2 card.
///
/// # Examples
///
/// ```
/// use mobistore_device::params::intel_datasheet;
/// use mobistore_fsmodel::compress::DataClass;
/// use mobistore_fsmodel::mffs::{FlashCardTestbed, MffsParams};
///
/// let mut tb = FlashCardTestbed::new(intel_datasheet(), 10 * 1024 * 1024, MffsParams::mffs2());
/// let run = tb.write_file(4 * 1024, 4 * 1024, DataClass::Compressible);
/// assert!(run.throughput_kib_s() > 0.0);
/// ```
#[derive(Debug)]
pub struct FlashCardTestbed {
    params: FlashCardParams,
    capacity_bytes: u64,
    mffs: MffsParams,
    card: FlashCardStore,
    clock: SimTime,
    cumulative_written: u64,
    files: HashMap<FileHandle, FileEntry>,
    next_handle: u64,
    next_lbn: u64,
}

/// Block size MFFS allocates in (DOS sectors).
const BLOCK: u64 = 512;

impl FlashCardTestbed {
    /// Creates the testbed over a freshly erased card (§3: "the Intel
    /// flash card was completely erased prior to each benchmark").
    pub fn new(params: FlashCardParams, capacity_bytes: u64, mffs: MffsParams) -> Self {
        let card = Self::fresh_card(&params, capacity_bytes);
        FlashCardTestbed {
            params,
            capacity_bytes,
            mffs,
            card,
            clock: SimTime::ZERO,
            cumulative_written: 0,
            files: HashMap::new(),
            next_handle: 0,
            next_lbn: 0,
        }
    }

    fn fresh_card(params: &FlashCardParams, capacity_bytes: u64) -> FlashCardStore {
        FlashCardStore::new(FlashCardConfig {
            params: params.clone(),
            block_size: BLOCK,
            capacity_bytes,
            mode: CleanerMode::Background,
            victim_policy: VictimPolicy::GreedyMinLive,
            queueing: mobistore_device::QueueDiscipline::Fifo,
        })
    }

    /// Erases the card and forgets all files (the inter-experiment format
    /// of §3 and §5.2).
    pub fn format(&mut self) {
        self.card = Self::fresh_card(&self.params, self.capacity_bytes);
        self.clock = SimTime::ZERO;
        self.cumulative_written = 0;
        self.files.clear();
        self.next_handle = 0;
        self.next_lbn = 0;
    }

    /// Total bytes written (pre-compression) since the last format.
    pub fn cumulative_written(&self) -> u64 {
        self.cumulative_written
    }

    /// Live bytes currently on the card.
    pub fn live_bytes(&self) -> u64 {
        self.card.live_blocks() * BLOCK
    }

    /// The underlying store, for cleaning/wear inspection.
    pub fn card(&self) -> &FlashCardStore {
        &self.card
    }

    /// Creates an empty file.
    pub fn create_file(&mut self) -> FileHandle {
        let handle = FileHandle(self.next_handle);
        self.next_handle += 1;
        self.files.insert(
            handle,
            FileEntry {
                base_lbn: u64::MAX,
                bytes: 0,
            },
        );
        handle
    }

    /// Appends one benchmark request to a file, returning its latency.
    /// This is Figure 1's inner loop.
    pub fn append_chunk(
        &mut self,
        handle: FileHandle,
        bytes: u64,
        class: DataClass,
    ) -> SimDuration {
        let entry = *self.files.get(&handle).expect("unknown file");
        let stored = self.mffs.compressor.stored_bytes(bytes, class);
        let blocks = stored.div_ceil(BLOCK).max(1) as u32;
        let lbn = self.alloc_blocks(u64::from(blocks));

        // The §3 anomaly: each append re-writes work proportional to the
        // file's *current* size, plus the cumulative-metadata penalty.
        let anomaly = SimDuration::from_secs_f64(
            entry.bytes as f64 * self.mffs.write_file_coeff
                + self.cumulative_written as f64 * self.mffs.cumulative_coeff,
        );
        let svc = self.card_write(lbn, blocks);
        let device = svc.response(self.clock);
        self.clock =
            svc.end + anomaly + self.mffs.base_write + self.mffs.compressor.compress_time(bytes);

        let mut entry = entry;
        if entry.base_lbn == u64::MAX {
            entry.base_lbn = lbn;
        }
        entry.bytes += bytes;
        self.files.insert(handle, entry);
        self.cumulative_written += bytes;

        self.mffs.base_write + self.mffs.compressor.compress_time(bytes) + anomaly + device
    }

    /// Overwrites one request inside an existing file (Figure 3's inner
    /// loop), returning its latency.
    pub fn overwrite_chunk(
        &mut self,
        handle: FileHandle,
        offset: u64,
        bytes: u64,
        class: DataClass,
    ) -> SimDuration {
        let entry = *self.files.get(&handle).expect("unknown file");
        assert!(offset + bytes <= entry.bytes, "overwrite past EOF");
        let stored = self.mffs.compressor.stored_bytes(bytes, class);
        let blocks = stored.div_ceil(BLOCK).max(1) as u32;
        let lbn = entry.base_lbn + offset / BLOCK;

        let anomaly = SimDuration::from_secs_f64(
            entry.bytes as f64 * self.mffs.write_file_coeff
                + self.cumulative_written as f64 * self.mffs.cumulative_coeff,
        );
        let svc = self.card_write(lbn, blocks);
        let device = svc.response(self.clock);
        self.clock =
            svc.end + anomaly + self.mffs.base_write + self.mffs.compressor.compress_time(bytes);
        self.cumulative_written += bytes;

        self.mffs.base_write + self.mffs.compressor.compress_time(bytes) + anomaly + device
    }

    /// Writes a whole file in `chunk_bytes` requests (the Table 1 write
    /// benchmark).
    pub fn write_file(&mut self, file_bytes: u64, chunk_bytes: u64, class: DataClass) -> BenchRun {
        let handle = self.create_file();
        let mut run = BenchRun::new(file_bytes);
        let chunks = file_bytes.div_ceil(chunk_bytes);
        for i in 0..chunks {
            let bytes = chunk_bytes.min(file_bytes - i * chunk_bytes);
            let latency = self.append_chunk(handle, bytes, class);
            run.push(latency, bytes);
        }
        run
    }

    /// Reads a whole file in `chunk_bytes` requests (the Table 1 read
    /// benchmark). The §3 read anomaly charges work proportional to file
    /// size on every request.
    pub fn read_file(
        &mut self,
        handle: FileHandle,
        chunk_bytes: u64,
        class: DataClass,
    ) -> BenchRun {
        let entry = *self.files.get(&handle).expect("unknown file");
        let mut run = BenchRun::new(entry.bytes);
        let chunks = entry.bytes.div_ceil(chunk_bytes);
        for i in 0..chunks {
            let bytes = chunk_bytes.min(entry.bytes - i * chunk_bytes);
            let stored = self.mffs.compressor.stored_bytes(bytes, class);
            let blocks = stored.div_ceil(BLOCK).max(1) as u32;
            let svc = self.card_read(entry.base_lbn + i * chunk_bytes / BLOCK, blocks);
            let device = svc.response(self.clock);
            let anomaly =
                SimDuration::from_secs_f64(entry.bytes as f64 * self.mffs.read_file_coeff);
            let latency = self.mffs.base_read
                + device
                + anomaly
                + self.mffs.compressor.decompress_time(bytes, class);
            self.clock = svc.end + self.mffs.base_read + anomaly;
            run.push(latency, bytes);
        }
        run
    }

    /// Reads one request from within a file, returning its latency (used
    /// by the §5.1 verification replay).
    pub fn read_chunk(
        &mut self,
        handle: FileHandle,
        offset: u64,
        bytes: u64,
        class: DataClass,
    ) -> SimDuration {
        let entry = *self.files.get(&handle).expect("unknown file");
        assert!(offset + bytes <= entry.bytes, "read past EOF");
        let stored = self.mffs.compressor.stored_bytes(bytes, class);
        let blocks = stored.div_ceil(BLOCK).max(1) as u32;
        let svc = self.card_read(entry.base_lbn + offset / BLOCK, blocks);
        let device = svc.response(self.clock);
        let anomaly = SimDuration::from_secs_f64(entry.bytes as f64 * self.mffs.read_file_coeff);
        self.clock = svc.end + self.mffs.base_read + anomaly;
        self.mffs.base_read + device + anomaly + self.mffs.compressor.decompress_time(bytes, class)
    }

    /// Deletes a file, trimming its blocks (untimed, as directory
    /// operations are noise at this granularity).
    pub fn delete_file(&mut self, handle: FileHandle) {
        if let Some(entry) = self.files.remove(&handle) {
            if entry.base_lbn != u64::MAX {
                let blocks = entry.bytes.div_ceil(BLOCK) as u32;
                let req = Request::blocks(entry.base_lbn, blocks, BLOCK);
                self.card.trim(self.card.free_at(), req, &mut NoopObserver);
            }
        }
    }

    /// Installs `bytes` of live data as one file without timing it (the
    /// setup step of Figure 3's experiment).
    pub fn install_live_data(&mut self, bytes: u64) -> FileHandle {
        let blocks = bytes.div_ceil(BLOCK);
        let lbn = self.alloc_blocks(blocks);
        self.card.preload(lbn..lbn + blocks);
        let handle = FileHandle(self.next_handle);
        self.next_handle += 1;
        self.files.insert(
            handle,
            FileEntry {
                base_lbn: lbn,
                bytes,
            },
        );
        handle
    }

    fn alloc_blocks(&mut self, blocks: u64) -> u64 {
        let lbn = self.next_lbn;
        self.next_lbn += blocks;
        lbn
    }

    /// Writes `blocks` blocks at `lbn` now. The benchmarks never fill the
    /// card, so a refusal is a broken experiment.
    fn card_write(&mut self, lbn: u64, blocks: u32) -> Service {
        let req = Request::blocks(lbn, blocks, BLOCK);
        let written = self.card.write(self.clock, req, &mut NoopObserver);
        written.unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reads `blocks` blocks at `lbn` now (the testbed has no bit errors).
    fn card_read(&mut self, lbn: u64, blocks: u32) -> Service {
        let req = Request::blocks(lbn, blocks, BLOCK);
        self.card.read(self.clock, req, &mut NoopObserver).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_device::params::intel_datasheet;
    use mobistore_sim::rng::SimRng;
    use mobistore_sim::units::{KIB, MIB};

    fn testbed() -> FlashCardTestbed {
        FlashCardTestbed::new(intel_datasheet(), 10 * MIB, MffsParams::mffs2())
    }

    #[test]
    fn write_latency_grows_linearly_with_file_size() {
        // Figure 1(a): latency increases linearly as the file grows.
        let mut tb = testbed();
        let run = tb.write_file(MIB, 4 * KIB, DataClass::Compressible);
        let first = run.chunk_latencies_ms[1];
        let mid = run.chunk_latencies_ms[128];
        let last = run.chunk_latencies_ms[255];
        assert!(mid > 2.0 * first, "mid {mid} vs first {first}");
        // Linearity: the increase from mid to last matches first to mid.
        let slope1 = mid - first;
        let slope2 = last - mid;
        assert!((slope1 / slope2 - 1.0).abs() < 0.3, "{slope1} vs {slope2}");
        // Endpoint near the paper's ~230 ms.
        assert!((100.0..400.0).contains(&last), "last {last}");
    }

    #[test]
    fn large_file_write_throughput_collapses() {
        // Table 1: Intel writes 83 KB/s (4-KB file) vs 27 KB/s (1-MB file),
        // compressed.
        let mut tb = testbed();
        let small = tb.write_file(4 * KIB, 4 * KIB, DataClass::Compressible);
        tb.format();
        let large = tb.write_file(MIB, 4 * KIB, DataClass::Compressible);
        assert!(
            small.throughput_kib_s() > 2.0 * large.throughput_kib_s(),
            "small {} vs large {}",
            small.throughput_kib_s(),
            large.throughput_kib_s()
        );
    }

    #[test]
    fn random_reads_twice_as_fast_as_compressed() {
        // §3: reads of uncompressible data get about twice the bandwidth.
        let mut tb = testbed();
        let f = tb.create_file();
        for _ in 0..1 {
            tb.append_chunk(f, 4 * KIB, DataClass::Random);
        }
        let random = tb.read_file(f, 4 * KIB, DataClass::Random);
        let compressed = tb.read_file(f, 4 * KIB, DataClass::Compressible);
        let ratio = random.throughput_kib_s() / compressed.throughput_kib_s();
        assert!((1.4..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn reads_degrade_with_file_size() {
        // Table 1: Intel reads 645 -> 37 KB/s as files grow to 1 MB.
        let mut tb = testbed();
        let small = tb.create_file();
        tb.append_chunk(small, 4 * KIB, DataClass::Random);
        let small_run = tb.read_file(small, 4 * KIB, DataClass::Random);
        tb.format();
        let big = tb.create_file();
        for _ in 0..256 {
            tb.append_chunk(big, 4 * KIB, DataClass::Random);
        }
        let big_run = tb.read_file(big, 4 * KIB, DataClass::Random);
        assert!(
            small_run.throughput_kib_s() > 5.0 * big_run.throughput_kib_s(),
            "small {} vs big {}",
            small_run.throughput_kib_s(),
            big_run.throughput_kib_s()
        );
    }

    #[test]
    fn utilization_collapses_overwrite_throughput() {
        // Figure 3: 9.5 MB live on a 10-MB card hits cleaning almost
        // immediately; 1 MB live stays mild for the first megabytes.
        let run_with_live = |live_mb: u64| {
            let mut tb = testbed();
            let f = tb.install_live_data(live_mb * MIB);
            let mut rng = SimRng::seed_from_u64(live_mb);
            let mut total = SimDuration::ZERO;
            let chunk = 4 * KIB;
            let writes = 512; // 2 MB of overwrites
            for _ in 0..writes {
                let offset = rng.below(live_mb * MIB / chunk) * chunk;
                total += tb.overwrite_chunk(f, offset, chunk, DataClass::Compressible);
            }
            (writes * chunk) as f64 / 1024.0 / total.as_secs_f64()
        };
        let sparse = run_with_live(1);
        let full = run_with_live(9);
        assert!(sparse > 1.5 * full, "sparse {sparse} vs full {full}");
    }

    #[test]
    fn cumulative_penalty_spans_files() {
        // The Figure 3 mechanism: a *second* file's early writes are slower
        // than the first file's were, because MFFS metadata grew with the
        // cumulative bytes written since format.
        let mut tb = testbed();
        let first = tb.write_file(512 * KIB, 4 * KIB, DataClass::Compressible);
        let second = tb.write_file(512 * KIB, 4 * KIB, DataClass::Compressible);
        assert!(
            second.chunk_latencies_ms[0] > first.chunk_latencies_ms[0],
            "second {} vs first {}",
            second.chunk_latencies_ms[0],
            first.chunk_latencies_ms[0]
        );
    }

    #[test]
    fn read_chunk_matches_read_file_costs() {
        let mut tb = testbed();
        let f = tb.create_file();
        for _ in 0..8 {
            tb.append_chunk(f, 4 * KIB, DataClass::Random);
        }
        let via_file = tb.read_file(f, 4 * KIB, DataClass::Random);
        let single = tb.read_chunk(f, 0, 4 * KIB, DataClass::Random);
        let per_chunk = via_file.total.as_millis_f64() / 8.0;
        assert!((single.as_millis_f64() - per_chunk).abs() < per_chunk * 0.2);
    }

    #[test]
    fn delete_file_releases_live_bytes() {
        let mut tb = testbed();
        let f = tb.install_live_data(64 * KIB);
        assert_eq!(tb.live_bytes(), 64 * KIB);
        tb.delete_file(f);
        assert_eq!(tb.live_bytes(), 0);
        // Deleting twice is harmless.
        tb.delete_file(f);
    }

    #[test]
    fn format_resets_everything() {
        let mut tb = testbed();
        tb.write_file(64 * KIB, 4 * KIB, DataClass::Random);
        assert!(tb.cumulative_written() > 0);
        assert!(tb.live_bytes() > 0);
        tb.format();
        assert_eq!(tb.cumulative_written(), 0);
        assert_eq!(tb.live_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "past EOF")]
    fn overwrite_past_eof_rejected() {
        let mut tb = testbed();
        let f = tb.install_live_data(8 * KIB);
        let _ = tb.overwrite_chunk(f, 8 * KIB, 4 * KIB, DataClass::Random);
    }
}
