//! File-to-block preprocessing.
//!
//! §4.1: *"The traces were preprocessed to convert file-level accesses into
//! disk-level operations, by associating a unique disk location with each
//! file."* [`FileLayout`] performs that conversion: the first access to a
//! file allocates it a contiguous block extent; later accesses translate
//! `(offset, size)` into block ranges within the extent; deletions release
//! the extent (emitting a [`DiskOpKind::Trim`]) so the space can be reused,
//! which is how the `dos` trace exercises flash-card cleaning.

use mobistore_sim::lbn::{LbnTable, MAX_LBN_END};

use crate::record::{DiskOp, DiskOpKind, FileId, FileRecord, Op, Trace};

/// Maximum file size accepted by the layout, as a sanity bound (1 GB of
/// blocks would indicate a corrupt trace).
const MAX_FILE_BLOCKS: u64 = 1 << 30;

/// An allocated extent.
#[derive(Clone, Copy, Debug)]
struct Extent {
    start: u64,
    blocks: u64,
}

/// Maps file-level records onto a flat logical block space.
///
/// Allocation is first-fit over a free list of extents released by
/// deletions, falling back to a bump pointer. Files that grow beyond their
/// current extent are relocated (their old extent is freed); this mirrors
/// the simple allocator the paper describes, which makes no attempt at
/// optimal placement (§4.2 notes the simulator compensates with an
/// average-seek assumption).
///
/// Extents are indexed by file id in an [`LbnTable`]: ids are dense from
/// 0 in every generated trace, and a read, write or reservation of a file
/// id at or past 2^32 panics.
///
/// # Examples
///
/// ```
/// use mobistore_sim::time::SimTime;
/// use mobistore_trace::layout::FileLayout;
/// use mobistore_trace::record::{FileId, FileRecord, Op};
///
/// let mut layout = FileLayout::new(1024);
/// let mut ops = Vec::new();
/// layout.apply(
///     &FileRecord {
///         time: SimTime::ZERO,
///         op: Op::Write,
///         file: FileId(1),
///         offset: 0,
///         size: 4096,
///     },
///     &mut ops,
/// );
/// assert_eq!(ops.len(), 1);
/// assert_eq!(ops[0].blocks, 4);
/// ```
#[derive(Debug)]
pub struct FileLayout {
    block_size: u64,
    /// The current extent of each file, by file id.
    extents: LbnTable<Extent>,
    /// Free extents, kept sorted by start block for deterministic first-fit.
    free: Vec<Extent>,
    next_block: u64,
}

impl FileLayout {
    /// Creates an empty layout over blocks of `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        FileLayout {
            block_size,
            extents: LbnTable::new(),
            free: Vec::new(),
            next_block: 0,
        }
    }

    /// Returns the block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Returns the high-water mark of the block space (blocks ever
    /// allocated, including currently free ones).
    pub fn blocks_used(&self) -> u64 {
        self.next_block
    }

    /// Pre-allocates an extent for `file` covering `bytes`, without
    /// emitting any disk operation.
    ///
    /// Workload generators that know each file's final size call this up
    /// front so later partial accesses never trigger a growth relocation
    /// (real preprocessing knew file sizes too). Re-reserving a file that
    /// already has a sufficient extent is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the layout's file-size bound or `file` is
    /// at or past 2^32.
    pub fn reserve(&mut self, file: FileId, bytes: u64) {
        let id = table_key(file);
        let blocks = self.blocks_for(bytes.max(1));
        assert!(blocks <= MAX_FILE_BLOCKS, "file too large: {blocks} blocks");
        match self.extents.get(id) {
            Some(ext) if ext.blocks >= blocks => {}
            Some(&old) => {
                self.release(old);
                let ext = self.allocate(blocks);
                self.extents.insert(id, ext);
            }
            None => {
                let ext = self.allocate(blocks);
                self.extents.insert(id, ext);
            }
        }
    }

    /// Translates one file-level record into disk-level operations,
    /// appending them to `out`.
    ///
    /// Most records produce exactly one [`DiskOp`]; a write that grows a
    /// file produces a trim of the old extent plus the write at the new
    /// location; a delete of an unknown file produces nothing.
    ///
    /// # Panics
    ///
    /// Panics if the record implies an absurd file size (corrupt trace),
    /// or if a read or write names a file id at or past 2^32.
    pub fn apply(&mut self, rec: &FileRecord, out: &mut Vec<DiskOp>) {
        match rec.op {
            Op::Delete => self.delete(rec, out),
            Op::Read | Op::Write => self.access(rec, out),
        }
    }

    /// Converts a whole file-level trace into a disk-level [`Trace`].
    pub fn convert<'a>(
        block_size: u64,
        records: impl IntoIterator<Item = &'a FileRecord>,
    ) -> Trace {
        let mut layout = FileLayout::new(block_size);
        let mut trace = Trace::new(block_size);
        let mut ops = Vec::with_capacity(2);
        for rec in records {
            layout.apply(rec, &mut ops);
            for op in ops.drain(..) {
                trace.push(op);
            }
        }
        trace
    }

    fn blocks_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.block_size).max(1)
    }

    fn access(&mut self, rec: &FileRecord, out: &mut Vec<DiskOp>) {
        let id = table_key(rec.file);
        let needed_end = self.blocks_for(rec.offset + rec.size.max(1));
        assert!(
            needed_end <= MAX_FILE_BLOCKS,
            "file too large: {} blocks",
            needed_end
        );

        let extent = match self.extents.get(id).copied() {
            Some(ext) if ext.blocks >= needed_end => ext,
            Some(old) => {
                // File grew beyond its extent: relocate, freeing the old
                // space. The old blocks become dead (trim) — on flash this
                // is what creates cleanable garbage.
                self.release(old);
                out.push(DiskOp {
                    time: rec.time,
                    kind: DiskOpKind::Trim,
                    lbn: old.start,
                    blocks: clamp_u32(old.blocks),
                    file: rec.file,
                });
                let ext = self.allocate(needed_end);
                self.extents.insert(id, ext);
                ext
            }
            None => {
                let ext = self.allocate(needed_end);
                self.extents.insert(id, ext);
                ext
            }
        };

        let first = rec.offset / self.block_size;
        let kind = if rec.op == Op::Read {
            DiskOpKind::Read
        } else {
            DiskOpKind::Write
        };
        out.push(DiskOp {
            time: rec.time,
            kind,
            lbn: extent.start + first,
            blocks: clamp_u32(needed_end - first),
            file: rec.file,
        });
    }

    fn delete(&mut self, rec: &FileRecord, out: &mut Vec<DiskOp>) {
        if let Some(ext) = self.extents.remove(rec.file.0) {
            self.release(ext);
            out.push(DiskOp {
                time: rec.time,
                kind: DiskOpKind::Trim,
                lbn: ext.start,
                blocks: clamp_u32(ext.blocks),
                file: rec.file,
            });
        }
    }

    fn allocate(&mut self, blocks: u64) -> Extent {
        // First-fit over the free list.
        if let Some(i) = self.free.iter().position(|e| e.blocks >= blocks) {
            let slot = self.free[i];
            if slot.blocks == blocks {
                self.free.remove(i);
            } else {
                self.free[i] = Extent {
                    start: slot.start + blocks,
                    blocks: slot.blocks - blocks,
                };
            }
            return Extent {
                start: slot.start,
                blocks,
            };
        }
        let ext = Extent {
            start: self.next_block,
            blocks,
        };
        self.next_block += blocks;
        ext
    }

    fn release(&mut self, ext: Extent) {
        // Insert keeping the list sorted by start, coalescing neighbours.
        let pos = self.free.partition_point(|e| e.start < ext.start);
        self.free.insert(pos, ext);
        // Coalesce with successor first (indices stay valid), then
        // predecessor.
        if pos + 1 < self.free.len()
            && self.free[pos].start + self.free[pos].blocks == self.free[pos + 1].start
        {
            self.free[pos].blocks += self.free[pos + 1].blocks;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].start + self.free[pos - 1].blocks == self.free[pos].start {
            self.free[pos - 1].blocks += self.free[pos].blocks;
            self.free.remove(pos);
        }
    }
}

/// `file`'s key in the extent table, an [`LbnTable`] indexed by file id
/// (the generators number their files densely from 0).
///
/// # Panics
///
/// Panics if `file` is at or past 2^32, outside the table's domain.
fn table_key(file: FileId) -> u64 {
    assert!(
        file.0 < MAX_LBN_END,
        "file id {} is outside the layout's domain (below 2^32)",
        file.0
    );
    file.0
}

fn clamp_u32(x: u64) -> u32 {
    u32::try_from(x).expect("block count exceeds u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_sim::time::SimTime;

    fn rec(op: Op, file: u64, offset: u64, size: u64) -> FileRecord {
        FileRecord {
            time: SimTime::ZERO,
            op,
            file: FileId(file),
            offset,
            size,
        }
    }

    /// The ops `l` emits for `r`, in a fresh buffer.
    fn apply(l: &mut FileLayout, r: FileRecord) -> Vec<DiskOp> {
        let mut out = Vec::new();
        l.apply(&r, &mut out);
        out
    }

    #[test]
    fn first_access_allocates_contiguously() {
        let mut l = FileLayout::new(1024);
        let a = apply(&mut l, rec(Op::Write, 1, 0, 2048));
        let b = apply(&mut l, rec(Op::Write, 2, 0, 1024));
        assert_eq!(a[0].lbn, 0);
        assert_eq!(a[0].blocks, 2);
        assert_eq!(b[0].lbn, 2);
        assert_eq!(b[0].blocks, 1);
    }

    #[test]
    fn offset_translates_within_extent() {
        let mut l = FileLayout::new(1024);
        apply(&mut l, rec(Op::Write, 1, 0, 8192)); // blocks 0..8
        let ops = apply(&mut l, rec(Op::Read, 1, 3072, 2048)); // blocks 3..5
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].lbn, 3);
        assert_eq!(ops[0].blocks, 2);
        assert_eq!(ops[0].kind, DiskOpKind::Read);
    }

    #[test]
    fn partial_block_rounds_up() {
        let mut l = FileLayout::new(1024);
        let ops = apply(&mut l, rec(Op::Write, 1, 0, 1)); // 1 byte -> 1 block
        assert_eq!(ops[0].blocks, 1);
        // Crosses into block 1, which also grows the 1-block file: the
        // relocation emits a trim first, then the 2-block write.
        let ops = apply(&mut l, rec(Op::Write, 1, 1000, 100));
        let write = ops.last().unwrap();
        assert_eq!(ops[0].kind, DiskOpKind::Trim);
        assert_eq!(write.blocks, 2);
    }

    #[test]
    fn zero_size_read_touches_one_block() {
        let mut l = FileLayout::new(1024);
        let ops = apply(&mut l, rec(Op::Read, 9, 0, 0));
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].blocks, 1);
    }

    #[test]
    fn delete_frees_space_for_reuse() {
        let mut l = FileLayout::new(1024);
        apply(&mut l, rec(Op::Write, 1, 0, 4096)); // blocks 0..4
        apply(&mut l, rec(Op::Write, 2, 0, 1024)); // block 4
        let del = apply(&mut l, rec(Op::Delete, 1, 0, 0));
        assert_eq!(del.len(), 1);
        assert_eq!(del[0].kind, DiskOpKind::Trim);
        assert_eq!(del[0].lbn, 0);
        assert_eq!(del[0].blocks, 4);
        // New file reuses the freed extent (first fit).
        let ops = apply(&mut l, rec(Op::Write, 3, 0, 2048));
        assert_eq!(ops[0].lbn, 0);
        assert_eq!(l.blocks_used(), 5, "no new space consumed");
    }

    #[test]
    fn delete_unknown_file_is_noop() {
        let mut l = FileLayout::new(1024);
        assert!(apply(&mut l, rec(Op::Delete, 42, 0, 0)).is_empty());
    }

    #[test]
    fn growth_relocates_and_trims_old_extent() {
        let mut l = FileLayout::new(1024);
        apply(&mut l, rec(Op::Write, 1, 0, 1024)); // block 0
        apply(&mut l, rec(Op::Write, 2, 0, 1024)); // block 1 pins the bump pointer
        let ops = apply(&mut l, rec(Op::Write, 1, 0, 4096)); // file 1 grows to 4 blocks
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].kind, DiskOpKind::Trim);
        assert_eq!(ops[0].lbn, 0);
        assert_eq!(ops[1].kind, DiskOpKind::Write);
        assert_eq!(ops[1].lbn, 2, "relocated past file 2");
        assert_eq!(ops[1].blocks, 4);
    }

    #[test]
    fn free_list_coalesces() {
        let mut l = FileLayout::new(1024);
        apply(&mut l, rec(Op::Write, 1, 0, 1024)); // block 0
        apply(&mut l, rec(Op::Write, 2, 0, 1024)); // block 1
        apply(&mut l, rec(Op::Write, 3, 0, 1024)); // block 2
        apply(&mut l, rec(Op::Delete, 1, 0, 0));
        apply(&mut l, rec(Op::Delete, 3, 0, 0));
        apply(&mut l, rec(Op::Delete, 2, 0, 0)); // bridges 0 and 2
                                                 // All three blocks are one free extent now; a 3-block file fits at 0.
        let ops = apply(&mut l, rec(Op::Write, 4, 0, 3072));
        assert_eq!(ops[0].lbn, 0);
        assert_eq!(l.blocks_used(), 3);
    }

    #[test]
    fn reserve_prevents_growth_relocation() {
        let mut l = FileLayout::new(1024);
        l.reserve(FileId(1), 8192);
        // A small first access followed by a larger one stays in place.
        let a = apply(&mut l, rec(Op::Write, 1, 0, 1024));
        let b = apply(&mut l, rec(Op::Write, 1, 4096, 4096));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1, "no trim emitted");
        assert_eq!(b[0].lbn, a[0].lbn + 4);
        // Re-reserving smaller or equal is a no-op.
        l.reserve(FileId(1), 1024);
        assert_eq!(l.blocks_used(), 8);
    }

    #[test]
    fn reserve_can_grow_before_access() {
        let mut l = FileLayout::new(1024);
        l.reserve(FileId(1), 1024);
        l.reserve(FileId(2), 1024);
        l.reserve(FileId(1), 4096); // relocates silently
        let ops = apply(&mut l, rec(Op::Read, 1, 3072, 1024));
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].lbn, 2 + 3, "new extent after file 2");
    }

    #[test]
    fn convert_builds_time_ordered_trace() {
        let recs = vec![
            FileRecord {
                time: SimTime::from_nanos(1),
                op: Op::Write,
                file: FileId(1),
                offset: 0,
                size: 2048,
            },
            FileRecord {
                time: SimTime::from_nanos(2),
                op: Op::Read,
                file: FileId(1),
                offset: 0,
                size: 1024,
            },
            FileRecord {
                time: SimTime::from_nanos(3),
                op: Op::Delete,
                file: FileId(1),
                offset: 0,
                size: 0,
            },
        ];
        let trace = FileLayout::convert(1024, &recs);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.ops[2].kind, DiskOpKind::Trim);
    }

    #[test]
    #[should_panic(expected = "outside the layout's domain")]
    fn file_id_past_the_domain_panics() {
        apply(
            &mut FileLayout::new(512),
            rec(Op::Write, MAX_LBN_END, 0, 512),
        );
    }

    #[test]
    fn unknown_ids_past_the_domain_delete_nothing() {
        let mut l = FileLayout::new(512);
        assert!(apply(&mut l, rec(Op::Delete, u64::MAX, 0, 0)).is_empty());
        l.reserve(FileId(MAX_LBN_END - 1), 512);
        assert_eq!(
            apply(&mut l, rec(Op::Read, MAX_LBN_END - 1, 0, 1))[0].lbn,
            0
        );
    }

    /// The layout as it was with a `HashMap` of extents and a fresh `Vec`
    /// per record: the reference the `LbnTable`-indexed layout must match
    /// op by op.
    struct HashLayout {
        block_size: u64,
        extents: std::collections::HashMap<FileId, Extent>,
        free: Vec<Extent>,
        next_block: u64,
    }

    impl HashLayout {
        fn new(block_size: u64) -> Self {
            HashLayout {
                block_size,
                extents: std::collections::HashMap::new(),
                free: Vec::new(),
                next_block: 0,
            }
        }

        fn blocks_for(&self, bytes: u64) -> u64 {
            bytes.div_ceil(self.block_size).max(1)
        }

        fn reserve(&mut self, file: FileId, bytes: u64) {
            let blocks = self.blocks_for(bytes.max(1));
            match self.extents.get(&file) {
                Some(ext) if ext.blocks >= blocks => {}
                Some(&old) => {
                    self.release(old);
                    let ext = self.allocate(blocks);
                    self.extents.insert(file, ext);
                }
                None => {
                    let ext = self.allocate(blocks);
                    self.extents.insert(file, ext);
                }
            }
        }

        fn apply(&mut self, rec: &FileRecord) -> Vec<DiskOp> {
            let op = |kind, ext: Extent, first: u64, last: u64| DiskOp {
                time: rec.time,
                kind,
                lbn: ext.start + first,
                blocks: clamp_u32(last - first),
                file: rec.file,
            };
            if rec.op == Op::Delete {
                return match self.extents.remove(&rec.file) {
                    Some(ext) => {
                        self.release(ext);
                        vec![op(DiskOpKind::Trim, ext, 0, ext.blocks)]
                    }
                    None => Vec::new(),
                };
            }
            let needed_end = self.blocks_for(rec.offset + rec.size.max(1));
            let mut out = Vec::with_capacity(2);
            let extent = match self.extents.get(&rec.file).copied() {
                Some(ext) if ext.blocks >= needed_end => ext,
                Some(old) => {
                    self.release(old);
                    out.push(op(DiskOpKind::Trim, old, 0, old.blocks));
                    let ext = self.allocate(needed_end);
                    self.extents.insert(rec.file, ext);
                    ext
                }
                None => {
                    let ext = self.allocate(needed_end);
                    self.extents.insert(rec.file, ext);
                    ext
                }
            };
            let kind = if rec.op == Op::Read {
                DiskOpKind::Read
            } else {
                DiskOpKind::Write
            };
            out.push(op(kind, extent, rec.offset / self.block_size, needed_end));
            out
        }

        fn allocate(&mut self, blocks: u64) -> Extent {
            if let Some(i) = self.free.iter().position(|e| e.blocks >= blocks) {
                let slot = self.free[i];
                if slot.blocks == blocks {
                    self.free.remove(i);
                } else {
                    self.free[i] = Extent {
                        start: slot.start + blocks,
                        blocks: slot.blocks - blocks,
                    };
                }
                return Extent {
                    start: slot.start,
                    blocks,
                };
            }
            let ext = Extent {
                start: self.next_block,
                blocks,
            };
            self.next_block += blocks;
            ext
        }

        fn release(&mut self, ext: Extent) {
            let pos = self.free.partition_point(|e| e.start < ext.start);
            self.free.insert(pos, ext);
            if pos + 1 < self.free.len()
                && self.free[pos].start + self.free[pos].blocks == self.free[pos + 1].start
            {
                self.free[pos].blocks += self.free[pos + 1].blocks;
                self.free.remove(pos + 1);
            }
            if pos > 0
                && self.free[pos - 1].start + self.free[pos - 1].blocks == self.free[pos].start
            {
                self.free[pos - 1].blocks += self.free[pos].blocks;
                self.free.remove(pos);
            }
        }
    }

    #[test]
    fn matches_a_hashmap_layout_op_by_op() {
        use mobistore_sim::rng::SimRng;
        for case in 0..64u64 {
            let mut rng = SimRng::seed_with_stream(case, 53);
            let block_size = [512, 1024, 4096][rng.below(3) as usize];
            // A few files on a page boundary and one just below the id
            // bound join the dense ids, so the table's pages and its top
            // level both grow.
            let ids = [0, 1, 2, 3, 5, 8, 13, 4_095, 4_096, 70_000, MAX_LBN_END - 1];
            let mut layout = FileLayout::new(block_size);
            let mut reference = HashLayout::new(block_size);
            let mut out = Vec::new();
            for step in 0..400u64 {
                let file = FileId(ids[rng.below(ids.len() as u64) as usize]);
                if rng.chance(0.1) {
                    let bytes = rng.below(40 * block_size);
                    layout.reserve(file, bytes);
                    reference.reserve(file, bytes);
                    continue;
                }
                let op = match rng.below(10) {
                    0 | 1 => Op::Delete,
                    2..=5 => Op::Read,
                    _ => Op::Write,
                };
                let r = FileRecord {
                    time: SimTime::from_nanos(step),
                    op,
                    file,
                    offset: rng.below(32 * block_size),
                    size: rng.below(16 * block_size),
                };
                // An op already in the buffer must survive: apply only
                // appends.
                out.truncate(0);
                out.push(DiskOp {
                    time: SimTime::ZERO,
                    kind: DiskOpKind::Read,
                    lbn: u64::MAX,
                    blocks: 0,
                    file: FileId(u64::MAX),
                });
                layout.apply(&r, &mut out);
                assert_eq!(
                    out[1..],
                    reference.apply(&r)[..],
                    "case {case} step {step}: {r:?}"
                );
                assert_eq!(
                    layout.blocks_used(),
                    reference.next_block,
                    "case {case} step {step}"
                );
            }
        }
    }
}
