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

use std::sync::mpsc;

use mobistore_sim::exec;
use mobistore_sim::fleet::fnv1a;
use mobistore_sim::rng::{LogNormal, SimRng, Zipf};
use mobistore_sim::time::{SimDuration, SimTime};
use mobistore_sim::units::KIB;
use mobistore_trace::layout::FileLayout;
use mobistore_trace::record::{DiskOp, FileId, FileRecord, Op, Trace};

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

/// The uniforms one interarrival gap takes from the generator's stream:
/// what the record pass draws and the clock pass turns into seconds.
#[derive(Debug, Clone, Copy)]
enum GapDraw {
    /// A log-normal gap's two uniforms, in [`LogNormal::transform`]'s
    /// order.
    LogNormal(f64, f64),
    /// A burst gap's `1 - u`, the exponential's argument to `ln`.
    Exponential(f64),
}

impl Interarrival {
    /// Draws one gap in seconds.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.seconds(self.draw(rng))
    }

    /// Takes one gap's uniforms from `rng`, in the order
    /// [`Interarrival::sample`] draws them.
    ///
    /// # Panics
    ///
    /// Panics if a burst gap's mean is not finite and positive, or the
    /// long-pause probability is outside `[0, 1]`.
    #[inline(always)]
    fn draw(&self, rng: &mut SimRng) -> GapDraw {
        if let Interarrival::Bursty {
            short_mean_s,
            long_prob,
            ..
        } = *self
        {
            if !rng.chance(long_prob) {
                assert!(
                    short_mean_s.is_finite() && short_mean_s > 0.0,
                    "mean must be positive: {short_mean_s}"
                );
                return GapDraw::Exponential(1.0 - rng.f64());
            }
        }
        let u1 = 1.0 - rng.f64();
        let u2 = rng.f64();
        GapDraw::LogNormal(u1, u2)
    }

    /// The gap in seconds that `draw`'s uniforms make: the same
    /// floating-point operations, in the same order, as a gap drawn
    /// whole.
    #[inline(always)]
    fn seconds(&self, draw: GapDraw) -> f64 {
        match (*self, draw) {
            (Interarrival::Lognormal { gap, max_s }, GapDraw::LogNormal(u1, u2)) => {
                gap.transform(u1, u2).min(max_s)
            }
            (Interarrival::Bursty { long, max_s, .. }, GapDraw::LogNormal(u1, u2)) => {
                long.transform(u1, u2).min(max_s)
            }
            (
                Interarrival::Bursty {
                    short_mean_s,
                    max_s,
                    ..
                },
                GapDraw::Exponential(u),
            ) => (-short_mean_s * u.ln()).min(max_s),
            (Interarrival::Lognormal { .. }, GapDraw::Exponential(_)) => {
                unreachable!("a log-normal model draws no burst gaps")
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

/// Loop iterations the record pass hands the clock pass at a time when
/// the clock runs on a helper thread.
const CLOCK_CHUNK: usize = 512;

/// Chunks in flight between the two passes: one the record pass fills,
/// one the clock pass stamps and one queued between them, so that
/// neither pass waits on the other's jitter.
const CLOCK_CHUNKS: usize = 3;

/// The shortest trace, in [`TraceSpec::expected_ops`], whose clock pass
/// goes to a helper thread: below it, starting the thread and handing
/// chunks over cost more than the pass.
const CLOCK_THREAD_MIN_OPS: u64 = 16_384;

/// Generates a disk-level [`Trace`] for a spec.
///
/// Each loop iteration draws an interarrival gap and then one file-level
/// record, which goes straight through the [`FileLayout`] into the trace,
/// with no record list in between. File extents are pre-reserved at each
/// file's full size, so partial first accesses do not trigger growth
/// relocations (the paper's preprocessing had complete file-size
/// information too).
///
/// No decision reads the clock: it only stamps the ops and ends the
/// trace. So when [`exec::spare_core`] allows a helper thread and the
/// trace is expected to hold at least 16,384 ops, the work runs as two
/// passes on two cores. The record pass, on the calling thread, takes
/// every random draw (the gap's uniforms included), makes every decision
/// and lays the records out, stamping each op with its iteration number.
/// The clock pass, on the helper, turns the uniforms into gaps, sums
/// them, finds the iteration where the trace ends and appends the ops
/// before it to the trace, stamped with their times. Chunks of 512
/// iterations pass between the two. Otherwise one fused loop runs the
/// same record step. Both give the same bytes.
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
    if clock_on_helper(spec) {
        generate_two_core(spec, seed)
    } else {
        generate_fused(spec, seed)
    }
}

/// True if [`generate`] runs the clock pass on a helper thread.
fn clock_on_helper(spec: &TraceSpec) -> bool {
    spec.expected_ops() >= CLOCK_THREAD_MIN_OPS && exec::spare_core()
}

/// An empty trace pre-sized for `spec`.
fn presized_trace(spec: &TraceSpec) -> Trace {
    let mut trace = Trace::new(spec.block_size);
    trace.ops.reserve(spec.expected_ops() as usize + 16);
    trace
}

/// One thread's generation: the clock sums each gap as it is drawn.
fn generate_fused(spec: &TraceSpec, seed: u64) -> Trace {
    let mut records = Records::new(spec, seed);
    let mut trace = presized_trace(spec);
    let mut now = SimTime::ZERO;
    let end = SimTime::ZERO + spec.duration;
    while now < end {
        let gap = records.gap();
        now += SimDuration::from_secs_f64(spec.interarrival.seconds(gap));
        if now >= end {
            break;
        }
        records.record(now, &mut trace.ops);
    }
    debug_assert!(trace.ops.windows(2).all(|w| w[0].time <= w[1].time));
    trace
}

/// [`CLOCK_CHUNK`] loop iterations on their way from the record pass to
/// the clock pass and back, to be filled again.
struct Chunk {
    /// The first iteration's number.
    first: u64,
    /// Each iteration's gap.
    gaps: Vec<GapDraw>,
    /// The iterations' ops, in order, each stamped with its iteration's
    /// number.
    ops: Vec<DiskOp>,
}

/// Two passes on two threads: the record pass on the calling thread, the
/// clock pass ([`stamp`]) on a helper that appends to the trace.
///
/// # Panics
///
/// Re-raises a panic of the clock pass with its own payload.
fn generate_two_core(spec: &TraceSpec, seed: u64) -> Trace {
    let mut records = Records::new(spec, seed);
    let mut trace = presized_trace(spec);
    let end = SimTime::ZERO + spec.duration;
    if end == SimTime::ZERO {
        return trace;
    }
    // Each channel can hold every chunk, so no send blocks.
    let (to_clock, from_record) = mpsc::sync_channel::<Chunk>(CLOCK_CHUNKS);
    let (to_record, from_clock) = mpsc::sync_channel::<Chunk>(CLOCK_CHUNKS);
    let ops = &mut trace.ops;
    std::thread::scope(|scope| {
        // The clock pass returns, closing both channels, where the trace
        // ends.
        let clock = scope.spawn(move || {
            let mut now = SimTime::ZERO;
            while let Ok(chunk) = from_record.recv() {
                if stamp(&spec.interarrival, end, &mut now, &chunk, ops)
                    || to_record.send(chunk).is_err()
                {
                    return;
                }
            }
        });
        let mut made = 0;
        let mut iteration = 0u64;
        loop {
            let mut chunk = if made < CLOCK_CHUNKS {
                made += 1;
                Chunk {
                    first: 0,
                    gaps: Vec::with_capacity(CLOCK_CHUNK),
                    ops: Vec::with_capacity(CLOCK_CHUNK),
                }
            } else {
                let Ok(mut chunk) = from_clock.recv() else {
                    break;
                };
                chunk.gaps.clear();
                chunk.ops.clear();
                chunk
            };
            chunk.first = iteration;
            for _ in 0..CLOCK_CHUNK {
                chunk.gaps.push(records.gap());
                records.record(SimTime::from_nanos(iteration), &mut chunk.ops);
                iteration += 1;
            }
            if to_clock.send(chunk).is_err() {
                break;
            }
        }
        drop(to_clock);
        if let Err(payload) = clock.join() {
            std::panic::resume_unwind(payload);
        }
    });
    debug_assert!(trace.ops.windows(2).all(|w| w[0].time <= w[1].time));
    trace
}

/// The clock pass over one chunk: sums its gaps onto `now` and appends
/// its ops to `out`, stamped with their iterations' times. Returns true,
/// having appended only the ops before it, at the iteration where the
/// trace ends.
fn stamp(
    interarrival: &Interarrival,
    end: SimTime,
    now: &mut SimTime,
    chunk: &Chunk,
    out: &mut Vec<DiskOp>,
) -> bool {
    let mut ops = chunk.ops.iter().peekable();
    for (iteration, &gap) in (chunk.first..).zip(&chunk.gaps) {
        *now += SimDuration::from_secs_f64(interarrival.seconds(gap));
        if *now >= end {
            return true;
        }
        while let Some(op) = ops.next_if(|op| op.time.as_nanos() == iteration) {
            out.push(DiskOp { time: *now, ..*op });
        }
    }
    false
}

/// The record pass's state: everything a loop iteration reads and
/// writes but the clock.
struct Records<'a> {
    spec: &'a TraceSpec,
    rng: SimRng,
    zipf: Zipf,
    read_blocks: Geometric,
    write_blocks: Geometric,
    /// Each file's size in blocks.
    file_blocks: Vec<u64>,
    deleted: Vec<bool>,
    layout: FileLayout,
    /// Re-reference history: recent accesses eligible for rerun.
    history: Vec<(FileId, u64, u64)>,
    history_at: usize,
}

impl<'a> Records<'a> {
    /// Draws the files' sizes and reserves their extents.
    fn new(spec: &'a TraceSpec, seed: u64) -> Self {
        let files = (spec.distinct_kbytes * KIB / spec.mean_file_bytes).max(4);
        let zipf = Zipf::new(files as usize, spec.zipf_exponent);
        let mut rng = SimRng::seed_with_stream(seed, fnv1a(spec.name.as_bytes()));
        // File sizes: exponential-ish around the mean, at least one block.
        let file_blocks: Vec<u64> = (0..files)
            .map(|_| {
                let bytes = rng
                    .exponential(spec.mean_file_bytes as f64)
                    .max(spec.block_size as f64);
                (bytes / spec.block_size as f64).ceil() as u64
            })
            .collect();
        let mut layout = FileLayout::new(spec.block_size);
        for (f, &blocks) in file_blocks.iter().enumerate() {
            layout.reserve(FileId(f as u64), blocks * spec.block_size);
        }
        Records {
            spec,
            rng,
            zipf,
            read_blocks: Geometric::new(spec.mean_read_blocks),
            write_blocks: Geometric::new(spec.mean_write_blocks),
            file_blocks,
            deleted: vec![false; files as usize],
            layout,
            history: Vec::with_capacity(HISTORY),
            history_at: 0,
        }
    }

    /// Draws the next loop iteration's interarrival gap.
    #[inline(always)]
    fn gap(&mut self) -> GapDraw {
        self.spec.interarrival.draw(&mut self.rng)
    }

    /// The rest of a loop iteration: draws its record, if any, and
    /// appends the record's ops to `out`, stamped `time`.
    #[inline(always)]
    fn record(&mut self, time: SimTime, out: &mut Vec<DiskOp>) {
        let spec = self.spec;
        let draw = self.rng.f64();
        if draw < spec.delete_fraction {
            let file = self.zipf.sample(&mut self.rng);
            if !self.deleted[file] {
                self.deleted[file] = true;
                self.emit(
                    FileRecord {
                        time,
                        op: Op::Delete,
                        file: FileId(file as u64),
                        offset: 0,
                        size: 0,
                    },
                    out,
                );
            }
            return;
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
        if !self.history.is_empty() && self.rng.chance(rerun_p) {
            let entry = self.history[self.rng.below(self.history.len() as u64) as usize];
            if !self.deleted[entry.0 .0 as usize] {
                target = Some(entry);
            }
        }
        let (file, offset, size) = match target {
            // Rerun revisits the region exactly, so a re-read of a recent
            // write hits the cache in full.
            Some(entry) => entry,
            None => {
                let f = self.zipf.sample(&mut self.rng);
                if self.deleted[f] {
                    if is_read {
                        // Nothing to read from a deleted file.
                        return;
                    }
                    self.deleted[f] = false;
                }
                let file_blocks = self.file_blocks[f];
                let blocks = if is_read {
                    self.read_blocks
                } else {
                    self.write_blocks
                };
                let size_blocks = blocks.sample(&mut self.rng).min(file_blocks).max(1);
                let max_off_blocks = file_blocks - size_blocks;
                let offset_blocks = if max_off_blocks == 0 {
                    0
                } else {
                    self.rng.below(max_off_blocks + 1)
                };
                (
                    FileId(f as u64),
                    offset_blocks * spec.block_size,
                    size_blocks * spec.block_size,
                )
            }
        };
        self.emit(
            FileRecord {
                time,
                op,
                file,
                offset,
                size,
            },
            out,
        );
        // Keep a bounded window of rerun candidates.
        if self.history.len() < HISTORY {
            self.history.push((file, offset, size));
        } else {
            self.history[self.history_at] = (file, offset, size);
            self.history_at = (self.history_at + 1) % HISTORY;
        }
    }

    /// Lays `rec` out onto `out`. Records arrive in time order, so the
    /// layout appends straight to the trace.
    #[inline(always)]
    fn emit(&mut self, rec: FileRecord, out: &mut Vec<DiskOp>) {
        self.layout.apply(&rec, out);
        // A delete releases the extent; reserve it again at full size so
        // the file's eventual rewrite cannot trigger growth relocations.
        if rec.op == Op::Delete {
            let blocks = self.file_blocks[rec.file.0 as usize];
            self.layout.reserve(rec.file, blocks * self.spec.block_size);
        }
    }
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

    /// [`Interarrival::sample`] as it was, one gap drawn whole.
    fn interarrival_reference(model: &Interarrival, rng: &mut SimRng) -> f64 {
        match *model {
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

    /// [`generate`] as one fused loop with file sizes in bytes: the
    /// reference both paths must match op for op.
    fn generate_reference(spec: &TraceSpec, seed: u64) -> Trace {
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
            let gap = interarrival_reference(&spec.interarrival, &mut rng);
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

    /// Fails unless `got` holds `want`'s ops in no more capacity: the
    /// two-core path appends ops a chunk at a time, so it may grow an
    /// under-reserved trace less than one push at a time does.
    fn assert_same_trace(what: &str, got: &Trace, want: &Trace) {
        assert_eq!(got.block_size, want.block_size, "{what}");
        if let Some(i) = (0..got.ops.len().min(want.ops.len())).find(|&i| got.ops[i] != want.ops[i])
        {
            panic!("{what}: op {i}: {:?}, want {:?}", got.ops[i], want.ops[i]);
        }
        assert_eq!(got.ops.len(), want.ops.len(), "{what}: op count");
        assert!(
            got.ops.capacity() <= want.ops.capacity(),
            "{what}: capacity {} over {}",
            got.ops.capacity(),
            want.ops.capacity()
        );
    }

    /// Both paths against the reference for one Table 3 spec, at every
    /// scale from the full trace to a fleet shard's smallest.
    fn both_paths_match_the_reference(spec: fn() -> TraceSpec) {
        for scale in [1.0, 0.5, 0.05, 0.016, 1e-4] {
            let spec = spec().scaled(scale);
            for seed in [1994, 1, 7] {
                let what = format!("{} scale {scale} seed {seed}", spec.name);
                let want = generate_reference(&spec, seed);
                assert_same_trace(
                    &format!("{what}, fused"),
                    &generate_fused(&spec, seed),
                    &want,
                );
                assert_same_trace(
                    &format!("{what}, two-core"),
                    &generate_two_core(&spec, seed),
                    &want,
                );
            }
        }
    }

    #[test]
    fn mac_paths_match_the_reference_op_for_op() {
        both_paths_match_the_reference(TraceSpec::mac);
    }

    #[test]
    fn dos_paths_match_the_reference_op_for_op() {
        both_paths_match_the_reference(TraceSpec::dos);
    }

    #[test]
    fn hp_paths_match_the_reference_op_for_op() {
        both_paths_match_the_reference(TraceSpec::hp);
    }

    #[test]
    fn traces_ending_at_and_around_chunk_boundaries_match_the_reference() {
        // The time of each of mac's first iterations, from the record
        // step itself.
        let base = TraceSpec::mac().scaled(0.05);
        let seed = 31;
        let mut records = Records::new(&base, seed);
        let mut ops = Vec::new();
        let mut now = SimTime::ZERO;
        let times: Vec<SimTime> = (0..3 * CLOCK_CHUNK + 1)
            .map(|_| {
                now += SimDuration::from_secs_f64(base.interarrival.seconds(records.gap()));
                records.record(now, &mut ops);
                now
            })
            .collect();
        for ending in [
            0,
            1,
            CLOCK_CHUNK - 1,
            CLOCK_CHUNK,
            CLOCK_CHUNK + 1,
            2 * CLOCK_CHUNK,
            3 * CLOCK_CHUNK,
        ] {
            // The trace ends at the first iteration whose time reaches
            // the end, so setting the end to iteration `ending`'s time
            // ends it there.
            assert!(ending == 0 || times[ending - 1] < times[ending]);
            let mut spec = base.clone();
            spec.duration = times[ending] - SimTime::ZERO;
            let want = generate_reference(&spec, seed);
            let kept = ops.iter().filter(|op| op.time < times[ending]).count();
            assert_eq!(want.ops.len(), kept, "ending at iteration {ending}");
            let what = format!("ending at iteration {ending}");
            assert_same_trace(
                &format!("{what}, fused"),
                &generate_fused(&spec, seed),
                &want,
            );
            assert_same_trace(
                &format!("{what}, two-core"),
                &generate_two_core(&spec, seed),
                &want,
            );
        }
    }

    #[test]
    fn empty_trace_doubling_matches_the_reference_through_both_paths() {
        // `Workload::generate_demand`'s loop, over a given path.
        fn demand(generate: fn(&TraceSpec, u64) -> Trace, seed: u64) -> Trace {
            let mut fraction = 1e-4;
            loop {
                let trace = generate(&TraceSpec::hp().scaled(fraction), seed);
                if !trace.is_empty() || fraction >= 1.0 {
                    return trace;
                }
                fraction = (fraction * 2.0_f64).min(1.0);
            }
        }
        // At 1e-4, hp lasts 38 s; a long pause drawn first leaves it
        // empty for a few seeds in a hundred.
        let doubled: Vec<u64> = (0..400)
            .filter(|&seed| generate_reference(&TraceSpec::hp().scaled(1e-4), seed).is_empty())
            .collect();
        assert!(doubled.len() >= 3, "only {doubled:?} start empty");
        for seed in doubled {
            let want = demand(generate_reference, seed);
            assert!(!want.is_empty(), "seed {seed}");
            let what = format!("hp seed {seed}");
            assert_same_trace(
                &format!("{what}, fused"),
                &demand(generate_fused, seed),
                &want,
            );
            assert_same_trace(
                &format!("{what}, two-core"),
                &demand(generate_two_core, seed),
                &want,
            );
            assert_same_trace(
                &format!("{what}, generate_demand"),
                &crate::Workload::Hp.generate_demand(1e-4, seed),
                &want,
            );
        }
    }

    #[test]
    #[should_panic(expected = "fit the simulated clock")]
    fn a_clock_pass_panic_surfaces_with_its_own_message() {
        // Gaps of about 10^11 s overflow the nanosecond clock on the
        // first iteration, in the helper thread.
        let mut spec = TraceSpec::mac();
        spec.interarrival = Interarrival::Lognormal {
            gap: LogNormal::new(1e11, 1.0),
            max_s: f64::INFINITY,
        };
        generate_two_core(&spec, 1);
    }

    #[test]
    fn the_clock_pass_leaves_the_thread_only_for_long_traces_with_a_spare_core() {
        let full = TraceSpec::mac();
        assert!(full.expected_ops() >= CLOCK_THREAD_MIN_OPS);
        assert_eq!(clock_on_helper(&full), exec::spare_core());
        // Inside a pool's workers no core is spare, so no thread starts.
        let specs = vec![full; 8];
        let on_helper = exec::parallel_map(&specs, clock_on_helper);
        assert!(on_helper.iter().all(|&helper| !helper), "{on_helper:?}");
        // Scale 0.05 and fleet shards stay on the calling thread anyway.
        for spec in [TraceSpec::mac(), TraceSpec::dos(), TraceSpec::hp()] {
            for scale in [0.05, 0.016, 1e-4] {
                assert!(
                    !clock_on_helper(&spec.clone().scaled(scale)),
                    "{} {scale}",
                    spec.name
                );
            }
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
