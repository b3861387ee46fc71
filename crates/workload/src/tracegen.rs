//! Statistical workload generators for the `mac`, `dos`, and `hp` traces.
//!
//! The original traces are proprietary (PowerBook instrumentation, Kester
//! Li's Berkeley DOS traces, the Ruemmler/Wilkes HP-UX traces). Table 3
//! publishes the moments the simulation results depend on: duration,
//! distinct Kbytes touched, read fraction, block size, mean transfer sizes,
//! and the interarrival mean/σ/max. Each [`TraceSpec`] reproduces those
//! statistics:
//!
//! * interarrival times are log-normal, parameterised by the published
//!   mean and σ and truncated at the published maximum — a log-normal with
//!   those two moments lands remarkably close to each trace's published
//!   maximum, which supports the choice;
//! * transfer sizes are geometric with the published mean;
//! * file popularity is Zipf-like, giving the locality a DRAM cache needs;
//! * `dos` includes deletions, `mac` and `hp` do not (Table 3);
//! * `hp` is a disk-level trace below the buffer cache, so simulations
//!   must use a zero-sized DRAM cache (§4.1) — the spec records that.

use mobistore_sim::fleet::fnv1a;
use mobistore_sim::rng::{LogNormal, SimRng, Zipf};
use mobistore_sim::time::{SimDuration, SimTime};
use mobistore_sim::units::KIB;
use mobistore_trace::layout::FileLayout;
use mobistore_trace::record::{FileId, FileRecord, Op, Trace};

/// The interarrival-time model for a trace.
///
/// The log-normal parts hold a [`LogNormal`], which derives its μ and σ
/// once when the spec is built, not on every gap.
#[derive(Debug, Clone, Copy)]
pub enum Interarrival {
    /// A log-normal with the published arithmetic mean and σ, truncated at
    /// the published maximum.
    Lognormal {
        /// The gap distribution, in seconds.
        gap: LogNormal,
        /// Truncation point in seconds.
        max_s: f64,
    },
    /// A bursty two-phase mixture: most gaps are short exponentials
    /// (activity bursts), a small fraction are long heavy-tailed pauses.
    /// This is the structure of the `hp` trace — its mean (11.1 s) is far
    /// above its median, and Table 4's hp disk responses show spin-ups are
    /// rare relative to operations, which only a bursty process produces.
    Bursty {
        /// Mean of the short (burst) gaps in seconds.
        short_mean_s: f64,
        /// Probability that a gap is a long pause.
        long_prob: f64,
        /// The long pauses' distribution, in seconds.
        long: LogNormal,
        /// Truncation point in seconds.
        max_s: f64,
    },
}

impl Interarrival {
    /// Draws one gap in seconds.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Interarrival::Lognormal { gap, max_s } => gap.sample(rng).min(max_s),
            Interarrival::Bursty {
                short_mean_s,
                long_prob,
                long,
                max_s,
            } => {
                if rng.chance(long_prob) {
                    long.sample(rng).min(max_s)
                } else {
                    rng.exponential(short_mean_s).min(max_s)
                }
            }
        }
    }

    /// The model's arithmetic mean in seconds (before truncation).
    pub fn mean_s(&self) -> f64 {
        match *self {
            Interarrival::Lognormal { gap, .. } => gap.mean(),
            Interarrival::Bursty {
                short_mean_s,
                long_prob,
                long,
                ..
            } => (1.0 - long_prob) * short_mean_s + long_prob * long.mean(),
        }
    }
}

/// A statistical description of one trace, mirroring Table 3.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Trace name (Table 3 column).
    pub name: &'static str,
    /// Wall-clock duration to generate.
    pub duration: SimDuration,
    /// Block size in bytes.
    pub block_size: u64,
    /// Distinct Kbytes the trace should touch.
    pub distinct_kbytes: u64,
    /// Fraction of accesses that are reads.
    pub fraction_reads: f64,
    /// Mean read size in blocks.
    pub mean_read_blocks: f64,
    /// Mean write size in blocks.
    pub mean_write_blocks: f64,
    /// The interarrival-time model.
    pub interarrival: Interarrival,
    /// Fraction of operations that delete a file (0 disables deletions).
    pub delete_fraction: f64,
    /// Mean file size in bytes (controls how distinct bytes accumulate).
    pub mean_file_bytes: u64,
    /// Zipf exponent for file popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Probability that a read revisits a recently-touched file region.
    /// Real file-level traces re-read heavily — this is what gives the
    /// paper's traces their high DRAM hit rates — while the Table 3
    /// moments are unaffected (rerun sizes draw from the same
    /// distributions, and revisits add no distinct bytes).
    pub rerun_read_probability: f64,
    /// Probability that a write overwrites a recently-touched region;
    /// kept low, since Table 3's distinct-byte counts show writes mostly
    /// produce fresh data.
    pub rerun_write_probability: f64,
    /// True if the trace sits below the buffer cache and must be simulated
    /// with no DRAM (§4.1's note about `hp`).
    pub below_buffer_cache: bool,
}

impl TraceSpec {
    /// The `mac` trace: Macintosh PowerBook Duo 230 file-level trace
    /// (Table 3: 3.5 h, 22 000 distinct KB, 50% reads, 1 KB blocks, reads
    /// 1.3 / writes 1.2 blocks, interarrival 0.078 s / σ 0.57 / max 90.8 s,
    /// no deletions).
    pub fn mac() -> Self {
        TraceSpec {
            name: "mac",
            duration: SimDuration::from_secs(12_600),
            block_size: KIB,
            distinct_kbytes: 22_000,
            fraction_reads: 0.50,
            mean_read_blocks: 1.3,
            mean_write_blocks: 1.2,
            interarrival: Interarrival::Lognormal {
                gap: LogNormal::new(0.078, 0.57),
                max_s: 90.8,
            },
            delete_fraction: 0.0,
            mean_file_bytes: 24 * KIB,
            zipf_exponent: 0.80,
            rerun_read_probability: 0.90,
            rerun_write_probability: 0.30,
            below_buffer_cache: false,
        }
    }

    /// The `dos` trace: Kester Li's IBM PC / Windows 3.1 file-level traces
    /// (Table 3: 1.5 h, 16 300 distinct KB, 24% reads, 0.5 KB blocks, reads
    /// 3.8 / writes 3.4 blocks, interarrival 0.528 s / σ 10.8 / max 713 s,
    /// with deletions).
    pub fn dos() -> Self {
        TraceSpec {
            name: "dos",
            duration: SimDuration::from_secs(5_400),
            block_size: 512,
            distinct_kbytes: 16_300,
            fraction_reads: 0.24,
            mean_read_blocks: 3.8,
            mean_write_blocks: 3.4,
            interarrival: Interarrival::Bursty {
                short_mean_s: 0.12,
                long_prob: 0.025,
                long: LogNormal::new(16.5, 55.0),
                max_s: 713.0,
            },
            delete_fraction: 0.02,
            mean_file_bytes: 24 * KIB,
            zipf_exponent: 0.20,
            rerun_read_probability: 0.90,
            rerun_write_probability: 0.10,
            below_buffer_cache: false,
        }
    }

    /// The `hp` trace: Ruemmler & Wilkes' HP-UX disk-level trace (Table 3:
    /// 4.4 days, 32 000 distinct KB, 38% reads, 1 KB blocks, reads 4.3 /
    /// writes 6.2 blocks, interarrival 11.1 s / σ 112.3 / max 30 min, no
    /// deletions; below the buffer cache).
    pub fn hp() -> Self {
        TraceSpec {
            name: "hp",
            duration: SimDuration::from_days(4) + SimDuration::from_hours(10),
            block_size: KIB,
            distinct_kbytes: 32_000,
            fraction_reads: 0.38,
            mean_read_blocks: 4.3,
            mean_write_blocks: 6.2,
            // 98% of gaps are sub-second burst activity; 2% are long
            // pauses averaging ~9 minutes. This reproduces Table 3's
            // mean 11.1 s / σ 112.3 / max 30 min *and* the rarity of
            // spin-ups behind Table 4's hp disk responses.
            interarrival: Interarrival::Bursty {
                short_mean_s: 0.22,
                long_prob: 0.02,
                long: LogNormal::new(545.0, 450.0),
                max_s: 30.0 * 60.0,
            },
            delete_fraction: 0.0,
            mean_file_bytes: 32 * KIB,
            zipf_exponent: 0.60,
            rerun_read_probability: 0.20,
            rerun_write_probability: 0.10,
            below_buffer_cache: true,
        }
    }

    /// Scales the duration (and hence operation count) by `fraction`,
    /// keeping every per-operation statistic; used by tests and benches
    /// that cannot afford the full trace.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn scaled(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "bad scale {fraction}");
        self.duration = self.duration.mul_f64(fraction);
        // Distinct bytes shrink sub-linearly with trace length (coverage
        // saturates); the 3/4 power keeps short traces from being absurdly
        // dense or sparse.
        self.distinct_kbytes = ((self.distinct_kbytes as f64) * fraction.powf(0.75)).round() as u64;
        self
    }

    /// Expected number of operations.
    pub fn expected_ops(&self) -> u64 {
        (self.duration.as_secs_f64() / self.interarrival.mean_s()) as u64
    }
}

/// Rerun-candidate window size.
const HISTORY: usize = 64;

/// Generates a disk-level [`Trace`] for a spec.
///
/// Records are generated as one stream: each file-level record goes
/// straight through the [`FileLayout`] into the trace, with no record
/// list in between. File extents are pre-reserved at each file's full
/// size, so partial first accesses do not trigger growth relocations (the
/// paper's preprocessing had complete file-size information too).
///
/// # Examples
///
/// ```
/// use mobistore_workload::tracegen::{generate, TraceSpec};
///
/// let trace = generate(&TraceSpec::dos().scaled(0.01), 7);
/// assert!(!trace.is_empty());
/// assert_eq!(trace.block_size, 512);
/// ```
pub fn generate(spec: &TraceSpec, seed: u64) -> Trace {
    let files = (spec.distinct_kbytes * KIB / spec.mean_file_bytes).max(4);
    let zipf = Zipf::new(files as usize, spec.zipf_exponent);
    let mut rng = SimRng::seed_with_stream(seed, fnv1a(spec.name.as_bytes()));
    let read_blocks = Geometric::new(spec.mean_read_blocks);
    let write_blocks = Geometric::new(spec.mean_write_blocks);

    // File sizes: exponential-ish around the mean, at least one block.
    let sizes: Vec<u64> = (0..files)
        .map(|_| {
            let bytes = rng
                .exponential(spec.mean_file_bytes as f64)
                .max(spec.block_size as f64);
            (bytes / spec.block_size as f64).ceil() as u64 * spec.block_size
        })
        .collect();
    let mut layout = FileLayout::new(spec.block_size);
    for (f, &bytes) in sizes.iter().enumerate() {
        layout.reserve(FileId(f as u64), bytes);
    }
    let mut trace = Trace::new(spec.block_size);
    trace.ops.reserve(spec.expected_ops() as usize + 16);
    // Records arrive in time order, so the layout appends straight to the
    // trace.
    let mut emit = |rec: FileRecord| {
        layout.apply(&rec, &mut trace.ops);
        // A delete releases the extent; reserve it again at full size so
        // the file's eventual rewrite cannot trigger growth relocations.
        if rec.op == Op::Delete {
            layout.reserve(rec.file, sizes[rec.file.0 as usize]);
        }
    };

    let mut deleted = vec![false; files as usize];
    let mut now = SimTime::ZERO;
    let end = SimTime::ZERO + spec.duration;

    // Re-reference history: recent accesses eligible for rerun.
    let mut history: Vec<(FileId, u64, u64)> = Vec::with_capacity(HISTORY);
    let mut history_at = 0usize;

    while now < end {
        let gap = spec.interarrival.sample(&mut rng);
        now += SimDuration::from_secs_f64(gap);
        if now >= end {
            break;
        }

        let draw = rng.f64();
        if draw < spec.delete_fraction {
            let file = zipf.sample(&mut rng) as u64;
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
        let is_read = draw < spec.delete_fraction + spec.fraction_reads;
        let op = if is_read { Op::Read } else { Op::Write };

        // Rerun locality: revisit a recently-touched file region. Reads
        // re-reference heavily (the source of the traces' DRAM hit rates);
        // writes mostly produce fresh data (the source of Table 3's
        // distinct bytes).
        let rerun_p = if is_read {
            spec.rerun_read_probability
        } else {
            spec.rerun_write_probability
        };
        let mut target: Option<(FileId, u64, u64)> = None;
        if !history.is_empty() && rng.chance(rerun_p) {
            let entry = history[rng.below(history.len() as u64) as usize];
            if !deleted[entry.0 .0 as usize] {
                target = Some(entry);
            }
        }
        let (file, offset, size) = match target {
            // Rerun revisits the region exactly, so a re-read of a recent
            // write hits the cache in full.
            Some(entry) => entry,
            None => {
                let f = zipf.sample(&mut rng) as u64;
                if deleted[f as usize] {
                    if is_read {
                        // Nothing to read from a deleted file.
                        continue;
                    }
                    deleted[f as usize] = false;
                }
                let file_blocks = sizes[f as usize] / spec.block_size;
                let blocks = if is_read { read_blocks } else { write_blocks };
                let size_blocks = blocks.sample(&mut rng).min(file_blocks).max(1);
                let max_off_blocks = file_blocks - size_blocks;
                let offset_blocks = if max_off_blocks == 0 {
                    0
                } else {
                    rng.below(max_off_blocks + 1)
                };
                (
                    FileId(f),
                    offset_blocks * spec.block_size,
                    size_blocks * spec.block_size,
                )
            }
        };
        emit(FileRecord {
            time: now,
            op,
            file,
            offset,
            size,
        });
        // Keep a bounded window of rerun candidates.
        if history.len() < HISTORY {
            history.push((file, offset, size));
        } else {
            history[history_at] = (file, offset, size);
            history_at = (history_at + 1) % HISTORY;
        }
    }
    debug_assert!(trace.ops.windows(2).all(|w| w[0].time <= w[1].time));
    trace
}

/// Transfer sizes in blocks, geometric with a given mean (so size 1 is the
/// mode, as in real file traces). `ln(1 - p)` is derived once per trace,
/// not on every draw.
#[derive(Debug, Clone, Copy)]
struct Geometric {
    /// `ln(1 - p)` for success probability `p = 1 / mean`; `None` for a
    /// mean of at most one block, which always draws one block and
    /// consumes no randomness.
    ln_fail: Option<f64>,
}

impl Geometric {
    fn new(mean: f64) -> Self {
        debug_assert!(mean >= 1.0);
        // Geometric on {1, 2, ...} with success probability p has mean 1/p.
        let ln_fail = (mean > 1.0).then(|| (1.0 - 1.0 / mean).ln());
        Geometric { ln_fail }
    }

    fn sample(self, rng: &mut SimRng) -> u64 {
        let Some(ln_fail) = self.ln_fail else {
            return 1;
        };
        let u = 1.0 - rng.f64(); // (0, 1]
        let k = (u.ln() / ln_fail).floor() as u64 + 1;
        k.min(1 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_trace::stats::TraceStats;

    /// Shared tolerance check: |actual - target| / target < tol.
    fn close(actual: f64, target: f64, tol: f64, what: &str) {
        let rel = (actual - target).abs() / target;
        assert!(
            rel < tol,
            "{what}: actual {actual:.4}, target {target:.4}, rel err {rel:.2}"
        );
    }

    #[test]
    fn geometric_mean_converges() {
        let mut rng = SimRng::seed_from_u64(1);
        let n = 100_000;
        let blocks = Geometric::new(3.8);
        let total: u64 = (0..n).map(|_| blocks.sample(&mut rng)).sum();
        close(total as f64 / n as f64, 3.8, 0.05, "geometric mean");
    }

    /// A geometric draw with `ln(1 - p)` derived on every call, the form
    /// [`Geometric`] replaces.
    fn geometric_per_draw(rng: &mut SimRng, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        let u = 1.0 - rng.f64(); // (0, 1]
        let k = (u.ln() / (1.0 - p).ln()).floor() as u64 + 1;
        k.min(1 << 20)
    }

    #[test]
    fn geometric_precomputed_matches_per_draw() {
        // Every Table 3 mean, the one-block mean (no draw) and a mean so
        // large that the 2^20 cap binds.
        for (case, mean) in [1.0, 1.2, 1.3, 3.4, 3.8, 4.3, 6.2, 1e9]
            .into_iter()
            .enumerate()
        {
            let blocks = Geometric::new(mean);
            let mut fast = SimRng::seed_with_stream(case as u64, 47);
            let mut reference = fast.clone();
            for draw in 0..20_000 {
                assert_eq!(
                    blocks.sample(&mut fast),
                    geometric_per_draw(&mut reference, mean),
                    "mean {mean} draw {draw}"
                );
            }
            assert_eq!(
                fast.next_u64(),
                reference.next_u64(),
                "mean {mean}: draws consumed"
            );
        }
    }

    #[test]
    fn mac_statistics_match_table3() {
        let spec = TraceSpec::mac().scaled(0.10);
        let trace = generate(&spec, 11);
        let s = TraceStats::measure(&trace);
        close(s.fraction_reads, 0.50, 0.10, "mac read fraction");
        close(s.mean_read_blocks, 1.3, 0.15, "mac read size");
        close(s.mean_write_blocks, 1.2, 0.15, "mac write size");
        close(s.interarrival.mean, 0.078, 0.20, "mac interarrival mean");
        assert!(s.interarrival.max <= 90.8 + 1e-9);
        assert_eq!(s.block_size_kbytes, 1.0);
    }

    #[test]
    fn dos_statistics_match_table3() {
        // Half scale: the bursty interarrival mixture (2.5% long pauses)
        // needs a few hundred pause samples before its mean stabilises.
        let spec = TraceSpec::dos().scaled(0.5);
        let trace = generate(&spec, 12);
        let s = TraceStats::measure(&trace);
        close(s.fraction_reads, 0.24, 0.15, "dos read fraction");
        close(s.mean_read_blocks, 3.8, 0.20, "dos read size");
        close(s.mean_write_blocks, 3.4, 0.20, "dos write size");
        close(s.interarrival.mean, 0.528, 0.30, "dos interarrival mean");
        assert_eq!(s.block_size_kbytes, 0.5);
    }

    #[test]
    fn hp_statistics_match_table3() {
        let spec = TraceSpec::hp().scaled(0.10);
        let trace = generate(&spec, 13);
        let s = TraceStats::measure(&trace);
        close(s.fraction_reads, 0.38, 0.15, "hp read fraction");
        close(s.mean_read_blocks, 4.3, 0.20, "hp read size");
        close(s.mean_write_blocks, 6.2, 0.20, "hp write size");
        close(s.interarrival.mean, 11.1, 0.30, "hp interarrival mean");
        assert!(TraceSpec::hp().below_buffer_cache);
    }

    #[test]
    fn distinct_bytes_land_near_target() {
        let spec = TraceSpec::mac().scaled(0.10);
        let trace = generate(&spec, 14);
        let s = TraceStats::measure(&trace);
        close(
            s.distinct_kbytes as f64,
            spec.distinct_kbytes as f64,
            0.5,
            "mac distinct KB",
        );
    }

    #[test]
    fn only_dos_deletes() {
        let dos = generate(&TraceSpec::dos().scaled(0.05), 15);
        let mac = generate(&TraceSpec::mac().scaled(0.02), 15);
        use mobistore_trace::record::DiskOpKind;
        assert!(dos.ops.iter().any(|op| op.kind == DiskOpKind::Trim));
        assert!(!mac.ops.iter().any(|op| op.kind == DiskOpKind::Trim));
    }

    #[test]
    fn deterministic_per_seed_and_name() {
        let spec = TraceSpec::dos().scaled(0.02);
        let a = generate(&spec, 3);
        let b = generate(&spec, 3);
        let c = generate(&spec, 4);
        assert_eq!(a.ops, b.ops);
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn duration_respected() {
        let spec = TraceSpec::mac().scaled(0.05);
        let trace = generate(&spec, 5);
        assert!(trace.duration() <= spec.duration);
        assert!(trace.duration().as_secs_f64() > spec.duration.as_secs_f64() * 0.5);
    }

    #[test]
    #[should_panic(expected = "bad scale")]
    fn zero_scale_rejected() {
        let _ = TraceSpec::mac().scaled(0.0);
    }
}
