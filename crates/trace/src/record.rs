//! Trace record types.
//!
//! The paper uses two kinds of traces (§4.1): *file-level* traces (`mac`,
//! `dos`, `synth`) that record which file is accessed, the operation, the
//! offset, the size, and the time; and *disk-level* traces (`hp`) that
//! address blocks directly. File-level traces are preprocessed into
//! disk-level operations by [`crate::layout::FileLayout`].

use core::fmt;
use core::ops::Range;

use mobistore_sim::lbn::MAX_LBN_END;
use mobistore_sim::time::SimTime;

/// Identifies a file within one trace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// The operation performed by a trace record.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Op {
    /// Read bytes from a file.
    Read,
    /// Write bytes to a file.
    Write,
    /// Delete the whole file (only the `dos` and `synth` traces contain
    /// deletions; see Table 3).
    Delete,
}

impl Op {
    /// Short lowercase name used in the on-disk trace format.
    pub fn name(self) -> &'static str {
        match self {
            Op::Read => "read",
            Op::Write => "write",
            Op::Delete => "delete",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One file-level trace record.
///
/// Sizes and offsets are in bytes. A [`Op::Delete`] record ignores `offset`
/// and `size`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FileRecord {
    /// When the operation was issued.
    pub time: SimTime,
    /// What was done.
    pub op: Op,
    /// Which file.
    pub file: FileId,
    /// Byte offset within the file.
    pub offset: u64,
    /// Transfer length in bytes.
    pub size: u64,
}

/// The kind of a disk-level operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DiskOpKind {
    /// Read blocks.
    Read,
    /// Write blocks.
    Write,
    /// Invalidate blocks (produced by file deletion); storage backends use
    /// this to mark blocks dead, like a modern TRIM.
    Trim,
}

/// One disk-level operation, produced by preprocessing a file-level trace
/// (or directly by a disk-level workload generator).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DiskOp {
    /// When the operation was issued.
    pub time: SimTime,
    /// What kind of access.
    pub kind: DiskOpKind,
    /// First logical block number.
    pub lbn: u64,
    /// Number of consecutive blocks.
    pub blocks: u32,
    /// The file this access belongs to; the disk model uses it for its
    /// seek heuristic (§4.2: repeated accesses to the same file never seek).
    /// Disk-level traces with no file information use `FileId(0)`.
    pub file: FileId,
}

impl DiskOp {
    /// Returns the transfer size in bytes given the trace's block size.
    pub fn bytes(&self, block_size: u64) -> u64 {
        u64::from(self.blocks) * block_size
    }
}

/// A complete trace: an ordered sequence of disk-level operations plus the
/// block size they are expressed in.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Block size in bytes (Table 3: 1 Kbyte for `mac`/`hp`, 0.5 Kbyte for
    /// `dos`).
    pub block_size: u64,
    /// Operations in non-decreasing time order.
    pub ops: Vec<DiskOp>,
}

impl Trace {
    /// Creates an empty trace with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Trace {
            block_size,
            ops: Vec::new(),
        }
    }

    /// Appends an operation, checking time monotonicity.
    ///
    /// # Panics
    ///
    /// Panics if `op.time` precedes the last appended operation.
    pub fn push(&mut self, op: DiskOp) {
        if let Some(last) = self.ops.last() {
            assert!(op.time >= last.time, "trace times must be non-decreasing");
        }
        self.ops.push(op);
    }

    /// Returns the number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns true if the trace holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Returns the wall-clock span from first to last operation.
    pub fn duration(&self) -> mobistore_sim::time::SimDuration {
        match (self.ops.first(), self.ops.last()) {
            (Some(first), Some(last)) => last.time - first.time,
            _ => mobistore_sim::time::SimDuration::ZERO,
        }
    }

    /// Returns the largest logical block number touched plus one, i.e. the
    /// minimum device capacity (in blocks) needed to replay this trace.
    ///
    /// Saturates at `u64::MAX` for a hand-built op whose range would
    /// overflow, so callers can compare it against a bound.
    pub fn blocks_spanned(&self) -> u64 {
        blocks_spanned(&self.ops)
    }
}

/// [`Trace::blocks_spanned`] of a list of ops.
pub fn blocks_spanned(ops: &[DiskOp]) -> u64 {
    ops.iter()
        .map(|op| op.lbn.saturating_add(u64::from(op.blocks)))
        .max()
        .unwrap_or(0)
}

/// The distinct blocks `ops` read or write (trims excluded), as
/// ascending, disjoint `(start, end)` block ranges: the data a
/// block-mapped device must hold before a replay (§5.2 preallocates it).
/// They are read back from a paged bitmap of the blocks, so that the
/// memory follows the 4,096-lbn pages the ops touch, not the op count.
pub fn working_set_runs(ops: &[DiskOp]) -> Vec<(u64, u64)> {
    working_set_runs_and_end(ops).0
}

/// [`working_set_runs`], and where the blocks of every op, trims
/// included, end: [`Trace::blocks_spanned`] of the same ops, from the same
/// pass.
pub fn working_set_runs_and_end(ops: &[DiskOp]) -> (Vec<(u64, u64)>, u64) {
    let (set, end) = BlockBitmap::of(ops);
    (set.runs(), end)
}

/// The number of blocks in [`working_set_runs`], counted from the same
/// bitmap without building the runs.
pub fn working_set_len(ops: &[DiskOp]) -> u64 {
    BlockBitmap::of(ops).0.len()
}

/// log2 of the lbns one bitmap page covers.
const PAGE_BITS: u32 = 12;
/// 64-bit words per bitmap page: 4,096 bits, 512 bytes.
const PAGE_WORDS: usize = 1 << (PAGE_BITS - 6);

/// The blocks a list of ops reads or writes, as a bitmap over the lbn
/// domain: 512-byte pages of 4,096 lbns, each allocated when an op first
/// touches it, under an index of 4 bytes per page up to the highest page
/// touched (4 MiB at most, for an lbn just below [`MAX_LBN_END`]). Parts
/// of ranges at or past `MAX_LBN_END`, which every device refuses, are
/// kept as a list and sorted when read.
///
/// A dense trace costs a few bits per block (the generated workloads end
/// below 33,000 lbns: nine pages). A sparse one costs a 512-byte page per
/// 4,096-lbn range it touches, where the card's block map then spends
/// 64 KiB on the same range.
#[derive(Default)]
struct BlockBitmap {
    /// One plus the position in `pages` of page `lbn >> 12`; 0 while no
    /// op has touched it.
    index: Vec<u32>,
    /// The touched pages, in the order ops first touched them.
    pages: Vec<[u64; PAGE_WORDS]>,
    /// The parts of the ops' ranges at or past `MAX_LBN_END`, in op
    /// order.
    beyond: Vec<(u64, u64)>,
}

impl BlockBitmap {
    /// Sets the blocks of every read and write in `ops`, trims skipped,
    /// and returns the set with where the blocks of every op, trims
    /// included, end (saturating at `u64::MAX`).
    fn of(ops: &[DiskOp]) -> (Self, u64) {
        let mut set = BlockBitmap::default();
        let mut spanned = 0;
        for op in ops {
            let end = op.lbn.saturating_add(u64::from(op.blocks));
            spanned = spanned.max(end);
            if op.kind != DiskOpKind::Trim {
                set.insert(op.lbn, end);
            }
        }
        (set, spanned)
    }

    /// Adds blocks `start..end`.
    fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        if end > MAX_LBN_END {
            self.beyond.push((start.max(MAX_LBN_END), end));
        }
        let end = end.min(MAX_LBN_END);
        let mut lbn = start;
        while lbn < end {
            let page = lbn >> PAGE_BITS;
            let page_start = page << PAGE_BITS;
            let stop = end.min(page_start + (1 << PAGE_BITS));
            let bits = (lbn - page_start) as usize..(stop - page_start) as usize;
            set_bits(self.page_mut(page), bits);
            lbn = stop;
        }
    }

    /// Page `page`, allocated zeroed on its first touch.
    fn page_mut(&mut self, page: u64) -> &mut [u64; PAGE_WORDS] {
        // Pages lie below MAX_LBN_END >> PAGE_BITS = 2^20.
        let page = page as usize;
        if page >= self.index.len() {
            self.index.resize(page + 1, 0);
        }
        if self.index[page] == 0 {
            self.pages.push([0; PAGE_WORDS]);
            self.index[page] = self.pages.len() as u32;
        }
        &mut self.pages[self.index[page] as usize - 1]
    }

    /// The number of blocks set.
    fn len(self) -> u64 {
        let in_domain: u64 = self
            .pages
            .iter()
            .flatten()
            .map(|word| u64::from(word.count_ones()))
            .sum();
        let mut beyond = Vec::new();
        merge_sorted(&mut beyond, self.beyond);
        in_domain + beyond.iter().map(|(start, end)| end - start).sum::<u64>()
    }

    /// The blocks set, as ascending, disjoint, non-adjacent ranges.
    fn runs(self) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for (page, &slot) in self.index.iter().enumerate() {
            if slot == 0 {
                continue;
            }
            let words = &self.pages[slot as usize - 1];
            let page_start = (page as u64) << PAGE_BITS;
            for (i, &word) in words.iter().enumerate() {
                let base = page_start + 64 * i as u64;
                let mut bits = word;
                while bits != 0 {
                    // The lowest run of ones: `ones` bits from bit `zeros`.
                    let zeros = bits.trailing_zeros();
                    let ones = (!(bits >> zeros)).trailing_zeros();
                    let start = base + u64::from(zeros);
                    push_run(&mut runs, start, start + u64::from(ones));
                    bits &= u64::MAX.checked_shl(zeros + ones).unwrap_or(0);
                }
            }
        }
        merge_sorted(&mut runs, self.beyond);
        runs
    }
}

/// Sets a non-empty range of a page's 4,096 bits.
fn set_bits(words: &mut [u64; PAGE_WORDS], bits: Range<usize>) {
    let (first, last) = (bits.start / 64, (bits.end - 1) / 64);
    let low = u64::MAX << (bits.start % 64);
    let high = u64::MAX >> (63 - (bits.end - 1) % 64);
    if first == last {
        words[first] |= low & high;
    } else {
        words[first] |= low;
        words[first + 1..last].fill(u64::MAX);
        words[last] |= high;
    }
}

/// Sorts `ranges` by start and appends them to `runs`, ascending runs
/// that all start before every range, merging what overlaps or touches.
fn merge_sorted(runs: &mut Vec<(u64, u64)>, mut ranges: Vec<(u64, u64)>) {
    ranges.sort_unstable();
    for (start, end) in ranges {
        push_run(runs, start, end);
    }
}

/// Appends `start..end` to `runs`, or extends the last run if the range
/// overlaps or touches it; `start` is at or past the last run's start.
fn push_run(runs: &mut Vec<(u64, u64)>, start: u64, end: u64) {
    match runs.last_mut() {
        Some((_, run_end)) if start <= *run_end => *run_end = (*run_end).max(end),
        _ => runs.push((start, end)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_sim::rng::SimRng;

    fn op_at(ns: u64) -> DiskOp {
        DiskOp {
            time: SimTime::from_nanos(ns),
            kind: DiskOpKind::Read,
            lbn: 0,
            blocks: 1,
            file: FileId(1),
        }
    }

    #[test]
    fn push_enforces_time_order() {
        let mut t = Trace::new(1024);
        t.push(op_at(5));
        t.push(op_at(5)); // Equal times are fine.
        t.push(op_at(9));
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn push_rejects_time_travel() {
        let mut t = Trace::new(1024);
        t.push(op_at(9));
        t.push(op_at(5));
    }

    #[test]
    fn duration_and_span() {
        let mut t = Trace::new(512);
        assert_eq!(t.duration().as_nanos(), 0);
        assert_eq!(t.blocks_spanned(), 0);
        t.push(DiskOp {
            time: SimTime::from_nanos(10),
            kind: DiskOpKind::Write,
            lbn: 4,
            blocks: 3,
            file: FileId(0),
        });
        t.push(DiskOp {
            time: SimTime::from_nanos(30),
            kind: DiskOpKind::Read,
            lbn: 0,
            blocks: 2,
            file: FileId(0),
        });
        assert_eq!(t.duration().as_nanos(), 20);
        assert_eq!(t.blocks_spanned(), 7);
    }

    #[test]
    fn working_set_skips_trims_and_dedups() {
        use DiskOpKind::{Read, Trim, Write};
        let op = |kind, lbn, blocks| DiskOp {
            time: SimTime::ZERO,
            kind,
            lbn,
            blocks,
            file: FileId(0),
        };
        let ops = [op(Write, 4, 3), op(Read, 2, 3), op(Trim, 100, 2)];
        assert_eq!(working_set_runs(&ops), [(2, 7)]);
        assert_eq!(working_set_len(&ops), 5);
        assert!(working_set_runs(&[]).is_empty());
        assert_eq!(working_set_len(&[]), 0);
        // Nested (20..30 holds 22..25), adjacent (30..32 after 20..30),
        // overlapping (40..45 and 43..48), duplicate and zero-block ops;
        // a zero-block op inside a gap adds nothing.
        let ops = [
            op(Write, 40, 5),
            op(Read, 22, 3),
            op(Write, 20, 10),
            op(Read, 30, 2),
            op(Read, 43, 5),
            op(Write, 43, 5),
            op(Write, 35, 0),
            op(Read, 20, 0),
            op(Trim, 32, 8),
        ];
        assert_eq!(working_set_runs(&ops), [(20, 32), (40, 48)]);
        check_against_reference(&ops, "nested");

        // Single blocks on either side of a word (63/64) and of a page
        // (4,095/4,096) join into one run each; an op straddling either
        // boundary sets both sides.
        let ops = [
            op(Read, 64, 1),
            op(Read, 63, 1),
            op(Write, 4_096, 1),
            op(Read, 4_095, 1),
        ];
        assert_eq!(working_set_runs(&ops), [(63, 65), (4_095, 4_097)]);
        check_against_reference(&ops, "boundaries");
        let ops = [op(Write, 60, 8), op(Read, 4_090, 12), op(Read, 8_190, 2)];
        assert_eq!(
            working_set_runs(&ops),
            [(60, 68), (4_090, 4_102), (8_190, 8_192)]
        );
        check_against_reference(&ops, "straddling");
        // Whole words and whole pages: an aligned 64-block op, a
        // page-aligned one beside it, and a 65,536-block op from an
        // unaligned start over 17 pages, overlapping the first.
        let ops = [
            op(Write, 128, 64),
            op(Write, 3 * 4_096, 64),
            op(Read, 12_000, 65_536),
        ];
        assert_eq!(working_set_runs(&ops), [(128, 192), (12_000, 77_536)]);
        check_against_reference(&ops, "long");
        // Sparse: one op in each of 1,000 pages, every other page skipped,
        // each at a different offset into its page.
        let ops: Vec<DiskOp> = (0..1_000u64)
            .map(|p| op(Write, 2 * p * 4_096 + (p * 61) % 4_090, 1 + (p % 7) as u32))
            .collect();
        assert_eq!(working_set_runs(&ops).len(), 1_000);
        check_against_reference(&ops, "sparse");
        // The end of the lbn domain: a range ending exactly at 2^32 stays
        // in the bitmap, a range starting there goes to the sorted list,
        // and the two join into one run; a range crossing 2^32 is split
        // between them and read back whole.
        let end = MAX_LBN_END;
        assert_eq!(working_set_runs(&[op(Write, end - 5, 5)]), [(end - 5, end)]);
        let ops = [op(Read, end, 3), op(Write, end - 5, 5)];
        assert_eq!(working_set_runs(&ops), [(end - 5, end + 3)]);
        check_against_reference(&ops, "joined at 2^32");
        let ops = [op(Write, end - 2, 7), op(Read, end + 9, 1), op(Read, 7, 1)];
        assert_eq!(
            working_set_runs(&ops),
            [(7, 8), (end - 2, end + 5), (end + 9, end + 10)]
        );
        check_against_reference(&ops, "crossing 2^32");

        for case in 0..200u64 {
            let mut rng = SimRng::seed_with_stream(case, 31);
            // Short spans over a narrow window force overlaps, nesting and
            // adjacency; a few long ops and distant lbns mix in gaps.
            let window = rng.range_inclusive(1, 300);
            let ops: Vec<DiskOp> = (0..rng.below(60))
                .map(|_| {
                    let kind = match rng.below(3) {
                        0 => Read,
                        1 => Write,
                        _ => Trim,
                    };
                    let lbn = if rng.chance(0.1) {
                        5_000 + rng.below(window)
                    } else {
                        rng.below(window)
                    };
                    let blocks = if rng.chance(0.1) {
                        rng.below(200)
                    } else {
                        rng.below(9)
                    };
                    op(kind, lbn, blocks as u32)
                })
                .collect();
            check_against_reference(&ops, &format!("case {case}"));
        }
        // Lbns at any scale up to `u64::MAX`, mixed with low ones: the
        // parts at or past 2^32 take the sorted list. Every tenth case
        // also draws lbns around 2^32, so that runs cross into the list
        // from the bitmap (its index then spans the whole domain, which
        // a debug build takes tens of milliseconds to walk). Ranges still
        // end by `u64::MAX`.
        for case in 0..200u64 {
            let mut rng = SimRng::seed_with_stream(case, 37);
            let window = rng.range_inclusive(1, 300);
            let arms = if case % 10 == 0 { 5 } else { 4 };
            let ops: Vec<DiskOp> = (0..rng.below(60))
                .map(|_| {
                    let kind = match rng.below(3) {
                        0 => Read,
                        1 => Write,
                        _ => Trim,
                    };
                    let lbn = match rng.below(arms) {
                        0 => rng.below(window),
                        1 => rng.next_u64() >> rng.range_inclusive(1, 63),
                        2 | 3 => u64::MAX - 300 - rng.below(window),
                        _ => MAX_LBN_END - 150 + rng.below(window),
                    };
                    op(kind, lbn, rng.below(12) as u32)
                })
                .collect();
            check_against_reference(&ops, &format!("high case {case}"));
        }
    }

    /// Checks `ops`' working set three ways against
    /// [`expand_sort_dedup`]: the runs (ascending, and separated by a
    /// gap), their blocks, and the count; and the end the same pass
    /// returns against a max over every op, trims included.
    fn check_against_reference(ops: &[DiskOp], label: &str) {
        let want = expand_sort_dedup(ops);
        let runs = working_set_runs(ops);
        let spanned = ops
            .iter()
            .map(|op| op.lbn.saturating_add(u64::from(op.blocks)))
            .max()
            .unwrap_or(0);
        assert_eq!(
            working_set_runs_and_end(ops),
            (runs.clone(), spanned),
            "{label}"
        );
        assert!(
            runs.iter().all(|&(start, end)| start < end)
                && runs.windows(2).all(|pair| pair[0].1 < pair[1].0),
            "{label}: runs not ascending and separated: {runs:?}"
        );
        let blocks: Vec<u64> = runs.iter().flat_map(|&(start, end)| start..end).collect();
        assert_eq!(blocks, want, "{label}");
        assert_eq!(working_set_len(ops), want.len() as u64, "{label}");
    }

    /// The reference the bitmap must match: every block of every op,
    /// sorted and deduplicated.
    fn expand_sort_dedup(ops: &[DiskOp]) -> Vec<u64> {
        let mut blocks: Vec<u64> = ops
            .iter()
            .filter(|op| op.kind != DiskOpKind::Trim)
            .flat_map(|op| op.lbn..op.lbn + u64::from(op.blocks))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    #[test]
    fn disk_op_bytes() {
        let op = DiskOp {
            time: SimTime::ZERO,
            kind: DiskOpKind::Read,
            lbn: 0,
            blocks: 4,
            file: FileId(0),
        };
        assert_eq!(op.bytes(512), 2048);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_rejected() {
        let _ = Trace::new(0);
    }
}
