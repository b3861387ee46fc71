//! Trace record types.
//!
//! The paper uses two kinds of traces (§4.1): *file-level* traces (`mac`,
//! `dos`, `synth`) that record which file is accessed, the operation, the
//! offset, the size, and the time; and *disk-level* traces (`hp`) that
//! address blocks directly. File-level traces are preprocessed into
//! disk-level operations by [`crate::layout::FileLayout`].

use core::fmt;

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
    pub fn blocks_spanned(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| op.lbn + u64::from(op.blocks))
            .max()
            .unwrap_or(0)
    }
}

/// The distinct blocks `ops` read or write (trims excluded), ascending:
/// the data a block-mapped device must hold before a replay (§5.2
/// preallocates it).
pub fn working_set(ops: &[DiskOp]) -> Vec<u64> {
    let mut blocks: Vec<u64> = ops
        .iter()
        .filter(|op| op.kind != DiskOpKind::Trim)
        .flat_map(|op| op.lbn..op.lbn + u64::from(op.blocks))
        .collect();
    blocks.sort_unstable();
    blocks.dedup();
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let op = |kind, lbn, blocks| DiskOp {
            time: SimTime::ZERO,
            kind,
            lbn,
            blocks,
            file: FileId(0),
        };
        let ops = [
            op(DiskOpKind::Write, 4, 3),
            op(DiskOpKind::Read, 2, 3),
            op(DiskOpKind::Trim, 100, 2),
        ];
        assert_eq!(working_set(&ops), vec![2, 3, 4, 5, 6]);
        assert!(working_set(&[]).is_empty());
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
