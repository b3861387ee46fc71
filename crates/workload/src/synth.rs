//! The `synth` workload — an exact reimplementation of §4.1's recipe.
//!
//! *"The trace consists of 6 Mbytes of 32-Kbyte files, where ⅞ of the
//! accesses go to ⅛ of the data. Operations are divided 60% reads, 35%
//! writes, 5% erases. An erase operation deletes an entire file; the next
//! write to the file writes an entire 32-Kbyte unit. Otherwise 40% of
//! accesses are 0.5 Kbytes in size, 40% are between 0.5 Kbytes and
//! 16 Kbytes, and 20% are between 16 Kbytes and 32 Kbytes. The interarrival
//! time between operations was modeled as a bimodal distribution with 90%
//! of accesses having a uniform distribution with a mean of 10 ms and the
//! remaining accesses taking 20 ms plus a value that is exponentially
//! distributed with a mean of 3 s."*
//!
//! The hot-and-cold split follows the Sprite LFS evaluation the paper
//! cites.

use mobistore_sim::rng::SimRng;
use mobistore_sim::time::{SimDuration, SimTime};
use mobistore_sim::units::KIB;
use mobistore_trace::layout::FileLayout;
use mobistore_trace::record::{FileId, FileRecord, Op, Trace};

/// Parameters of the synthetic workload; [`SynthSpec::paper`] gives §4.1's
/// values.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Total dataset size in bytes (paper: 6 Mbytes).
    pub dataset_bytes: u64,
    /// File size in bytes (paper: 32 Kbytes).
    pub file_bytes: u64,
    /// Fraction of accesses that go to the hot set (paper: 7/8).
    pub hot_access_fraction: f64,
    /// Fraction of the data that is hot (paper: 1/8).
    pub hot_data_fraction: f64,
    /// Operation mix: probability of a read (paper: 0.60).
    pub read_fraction: f64,
    /// Probability of an erase (paper: 0.05); writes take the remainder.
    pub erase_fraction: f64,
    /// Number of operations to generate.
    pub operations: usize,
    /// Block size for the resulting disk-level trace (DOS sectors).
    pub block_size: u64,
}

impl SynthSpec {
    /// The paper's configuration with a caller-chosen length.
    pub fn paper(operations: usize) -> Self {
        SynthSpec {
            dataset_bytes: 6 * 1024 * KIB,
            file_bytes: 32 * KIB,
            hot_access_fraction: 7.0 / 8.0,
            hot_data_fraction: 1.0 / 8.0,
            read_fraction: 0.60,
            erase_fraction: 0.05,
            operations: operations.max(1),
            block_size: 512,
        }
    }
}

/// Generates the file-level records of the synthetic workload: the
/// stream [`generate`] lays out, collected.
pub fn generate_records(spec: &SynthSpec, seed: u64) -> Vec<FileRecord> {
    let mut records = Vec::with_capacity(spec.operations);
    for_each_record(spec, seed, |rec| records.push(rec));
    records
}

/// Generates the synthetic workload as a disk-level [`Trace`], laying
/// each record out as it is generated.
///
/// # Examples
///
/// ```
/// use mobistore_workload::synth::{generate, SynthSpec};
///
/// let trace = generate(&SynthSpec::paper(1000), 42);
/// // A few draws (reads of deleted files, duplicate erases) emit nothing.
/// assert!(trace.len() >= 900);
/// ```
pub fn generate(spec: &SynthSpec, seed: u64) -> Trace {
    let files = (spec.dataset_bytes / spec.file_bytes).max(1);
    let mut layout = FileLayout::new(spec.block_size);
    // All files are the same 32-Kbyte size; reserve them up front so
    // partial first accesses do not relocate (deletions still trim).
    for f in 0..files {
        layout.reserve(FileId(f), spec.file_bytes);
    }
    let mut trace = Trace::new(spec.block_size);
    trace.ops.reserve(spec.operations);
    // Records arrive in time order, so the layout appends straight to the
    // trace.
    for_each_record(spec, seed, |rec| layout.apply(&rec, &mut trace.ops));
    debug_assert!(trace.ops.windows(2).all(|w| w[0].time <= w[1].time));
    trace
}

/// Generates the workload's records in time order, handing each to `emit`.
fn for_each_record(spec: &SynthSpec, seed: u64, mut emit: impl FnMut(FileRecord)) {
    let files = (spec.dataset_bytes / spec.file_bytes).max(1);
    let hot_files = ((files as f64 * spec.hot_data_fraction).round() as u64).clamp(1, files);
    let cold_files = files - hot_files;
    let mut rng = SimRng::seed_with_stream(seed, 0x531);
    let mut deleted = vec![false; files as usize];
    let mut now = SimTime::ZERO;

    for _ in 0..spec.operations {
        now += interarrival(&mut rng);
        // Hot-and-cold file choice: 7/8 of accesses to the 1/8 hot files.
        // With no cold files (one file, or an all-hot dataset) every
        // access goes to the hot set.
        let file = if cold_files == 0 || rng.chance(spec.hot_access_fraction) {
            rng.below(hot_files)
        } else {
            hot_files + rng.below(cold_files)
        };

        let op_draw = rng.f64();
        if op_draw < spec.erase_fraction {
            if !deleted[file as usize] {
                deleted[file as usize] = true;
                emit(FileRecord {
                    time: now,
                    op: Op::Delete,
                    file: FileId(file),
                    offset: 0,
                    size: 0,
                });
            }
            continue;
        }
        let is_read = op_draw < spec.erase_fraction + spec.read_fraction;
        if deleted[file as usize] {
            if is_read {
                // Nothing to read; the paper's recipe only recreates files
                // on write. Skip silently (keeps the mix close to 60/35/5).
                continue;
            }
            // The next write to an erased file writes the whole unit.
            deleted[file as usize] = false;
            emit(FileRecord {
                time: now,
                op: Op::Write,
                file: FileId(file),
                offset: 0,
                size: spec.file_bytes,
            });
            continue;
        }

        let size = access_size(spec, &mut rng);
        let max_offset = spec.file_bytes - size;
        // Block-aligned offsets keep the disk-level trace tidy.
        let offset = if max_offset == 0 {
            0
        } else {
            rng.below(max_offset / 512 + 1) * 512
        };
        emit(FileRecord {
            time: now,
            op: if is_read { Op::Read } else { Op::Write },
            file: FileId(file),
            offset,
            size,
        });
    }
}

/// §4.1's access-size distribution.
fn access_size(spec: &SynthSpec, rng: &mut SimRng) -> u64 {
    let draw = rng.f64();
    if draw < 0.4 {
        (KIB / 2).min(spec.file_bytes)
    } else if draw < 0.8 {
        // (0.5, 16] Kbytes, continuous, rounded up to a 512-byte sector.
        let bytes = rng.uniform(0.5 * KIB as f64, 16.0 * KIB as f64);
        round_sector(bytes).min(spec.file_bytes)
    } else {
        let bytes = rng.uniform(16.0 * KIB as f64, 32.0 * KIB as f64);
        round_sector(bytes).min(spec.file_bytes)
    }
}

fn round_sector(bytes: f64) -> u64 {
    ((bytes / 512.0).ceil() as u64).max(1) * 512
}

/// §4.1's bimodal interarrival distribution.
fn interarrival(rng: &mut SimRng) -> SimDuration {
    if rng.chance(0.9) {
        // Uniform with a mean of 10 ms: U[0, 20 ms].
        SimDuration::from_secs_f64(rng.uniform(0.0, 0.020))
    } else {
        SimDuration::from_secs_f64(0.020 + rng.exponential(3.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_trace::stats::TraceStats;

    #[test]
    fn dataset_is_192_files() {
        let spec = SynthSpec::paper(10);
        assert_eq!(spec.dataset_bytes / spec.file_bytes, 192);
        // 1/8 of 192 = 24 hot files.
        assert_eq!((192.0_f64 * spec.hot_data_fraction).round() as u64, 24);
    }

    #[test]
    fn operation_mix_matches_recipe() {
        let records = generate_records(&SynthSpec::paper(50_000), 1);
        let n = records.len() as f64;
        let reads = records.iter().filter(|r| r.op == Op::Read).count() as f64;
        let writes = records.iter().filter(|r| r.op == Op::Write).count() as f64;
        let erases = records.iter().filter(|r| r.op == Op::Delete).count() as f64;
        // Skipped reads-of-deleted and duplicate erases shift the mix a
        // little; keep generous bands around 60/35/5.
        assert!((reads / n - 0.60).abs() < 0.05, "reads {}", reads / n);
        assert!((writes / n - 0.35).abs() < 0.05, "writes {}", writes / n);
        assert!(erases / n < 0.07, "erases {}", erases / n);
    }

    #[test]
    fn hot_files_receive_most_accesses() {
        let records = generate_records(&SynthSpec::paper(50_000), 2);
        let hot = records.iter().filter(|r| r.file.0 < 24).count() as f64;
        let frac = hot / records.len() as f64;
        assert!((frac - 0.875).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn interarrival_mean_is_bimodal() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| interarrival(&mut rng).as_secs_f64()).sum();
        let mean = total / n as f64;
        // 0.9 x 10 ms + 0.1 x (20 ms + 3 s) = 0.311 s.
        assert!((mean - 0.311).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn sizes_respect_band_limits() {
        let spec = SynthSpec::paper(20_000);
        let records = generate_records(&spec, 4);
        let mut small = 0u32;
        for r in &records {
            if r.op == Op::Delete {
                continue;
            }
            assert!(r.size >= 512 && r.size <= 32 * KIB, "size {}", r.size);
            assert!(r.offset + r.size <= spec.file_bytes, "overrun");
            if r.size == 512 {
                small += 1;
            }
        }
        // Roughly 40% of non-delete accesses are 0.5 KB (whole-file
        // rewrites after erases dilute this slightly).
        let frac = f64::from(small) / records.iter().filter(|r| r.op != Op::Delete).count() as f64;
        assert!((0.3..0.5).contains(&frac), "0.5K fraction {frac}");
    }

    #[test]
    fn write_after_erase_is_whole_file() {
        let records = generate_records(&SynthSpec::paper(50_000), 5);
        let mut deleted = std::collections::HashSet::new();
        let mut recreations = 0;
        for r in &records {
            match r.op {
                Op::Delete => {
                    deleted.insert(r.file);
                }
                Op::Write if deleted.remove(&r.file) => {
                    assert_eq!(r.size, 32 * KIB, "recreation must write the whole unit");
                    assert_eq!(r.offset, 0);
                    recreations += 1;
                }
                _ => {}
            }
        }
        assert!(recreations > 10, "recipe exercises recreation");
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = SynthSpec::paper(1000);
        let a = generate(&spec, 9);
        let b = generate(&spec, 9);
        let c = generate(&spec, 10);
        assert_eq!(a.ops, b.ops);
        assert_ne!(a.ops, c.ops);
    }

    /// Every access of `spec`'s trace lies inside its file's extent.
    fn accesses_stay_inside_files(spec: &SynthSpec, seed: u64) -> Vec<FileRecord> {
        let records = generate_records(spec, seed);
        for r in &records {
            assert!(r.offset + r.size <= spec.file_bytes, "overrun: {r:?}");
        }
        let trace = generate(spec, seed);
        let files = (spec.dataset_bytes / spec.file_bytes).max(1);
        let file_blocks = spec.file_bytes.div_ceil(spec.block_size);
        assert!(!trace.is_empty());
        assert!(trace.blocks_spanned() <= files * file_blocks);
        records
    }

    #[test]
    fn a_single_file_dataset_is_all_hot() {
        // One 32-KB file: the hot set rounds up to it and the cold set is
        // empty.
        let spec = SynthSpec {
            dataset_bytes: 32 * KIB,
            ..SynthSpec::paper(2_000)
        };
        let records = accesses_stay_inside_files(&spec, 21);
        assert!(records.iter().all(|r| r.file == FileId(0)));
    }

    #[test]
    fn an_all_hot_dataset_draws_only_hot_files() {
        let spec = SynthSpec {
            hot_data_fraction: 1.0,
            ..SynthSpec::paper(5_000)
        };
        let records = accesses_stay_inside_files(&spec, 22);
        let mut seen = std::collections::BTreeSet::new();
        seen.extend(records.iter().map(|r| r.file.0));
        assert_eq!(seen.len(), 192, "accesses spread over every file");
    }

    #[test]
    fn files_under_half_a_kilobyte_cap_every_access() {
        for file_bytes in [1, 100, 511] {
            let spec = SynthSpec {
                dataset_bytes: 64 * KIB,
                file_bytes,
                ..SynthSpec::paper(2_000)
            };
            let records = accesses_stay_inside_files(&spec, 23);
            assert!(records.iter().any(|r| r.op != Op::Delete));
            for r in records.iter().filter(|r| r.op != Op::Delete) {
                assert_eq!((r.offset, r.size), (0, file_bytes), "{r:?}");
            }
        }
    }

    #[test]
    fn trace_fits_on_a_10mb_device() {
        // §4.1: the synthetic dataset fits the 10-Mbyte flash devices.
        let trace = generate(&SynthSpec::paper(30_000), 6);
        let stats = TraceStats::measure(&trace);
        assert!(
            stats.distinct_kbytes <= 7 * 1024,
            "{} KB",
            stats.distinct_kbytes
        );
        assert!(trace.blocks_spanned() * 512 <= 10 * 1024 * KIB);
    }
}
