//! The logical-block-number domain and a paged table indexed by it.
//!
//! Every block-mapped layer looks up each lbn an op touches: the flash
//! card's block map on every read, write and cleaner copy, the DRAM
//! cache's LRU index on every probe. Lbns are dense, small integers
//! bounded by [`MAX_LBN_END`] (the trace parser and the simulator enforce
//! the bound where traces enter), so [`LbnTable`] indexes them directly
//! instead of hashing: a lookup is two indexed loads.
//!
//! The table is split into pages of 4,096 entries, each allocated on the
//! first insert into it. A key set costs one top-level slot per 4,096
//! lbns below its highest key plus one page per 4,096-lbn range it
//! occupies. A key just below 2^32 thus needs a 2^20-slot top level
//! (8 MB) and one page, where a flat array would need 2^32 entries.
//!
//! The bound caps the top level, not the pages. Pages are never freed,
//! and a page costs 4,096 entries of `Option<T>` (64 KiB for the flash
//! card's 16-byte entries, 32 KiB for a `u32`, 16 KiB for the DRAM
//! cache's `NonZeroU32`) whether it holds one key or all of them. Dense
//! keys cost a few bytes each (the generated workloads end below 33,000:
//! nine pages), but sparse keys cost a page each: a hand-built trace that
//! writes one block every 4,096 lbns costs the card's map and the DRAM
//! cache's index about 80 KiB per op, where a hash-map entry cost tens of
//! bytes.

use std::fmt;

/// Exclusive upper end of the lbn domain: every block range a
/// block-mapped layer stores ends at or before 2^32 (4 TiB at 1-KB
/// blocks; the generated workloads end below 33,000). The trace parser
/// rejects records past it, `simulate` refuses traces and card filler
/// past it, and [`LbnTable::insert`] panics on a key at or past it.
pub const MAX_LBN_END: u64 = 1 << 32;

/// log2 of the entries per page.
const PAGE_BITS: u32 = 12;
/// Entries per page.
const PAGE_ENTRIES: usize = 1 << PAGE_BITS;

type Page<T> = [Option<T>; PAGE_ENTRIES];

/// A map from lbn to `T`, stored as lazily allocated pages of 4,096
/// entries. Iteration runs in ascending lbn order, and [`len`] is O(1).
///
/// Lookups and removals of keys past the highest page ever inserted
/// return `None` without allocating, whatever the key. Pages are never
/// freed: a page emptied by removals stays allocated for reuse, so sparse
/// keys cost a whole page each (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use mobistore_sim::lbn::LbnTable;
///
/// let mut table = LbnTable::new();
/// assert_eq!(table.insert(4_100, 'b'), None);
/// assert_eq!(table.insert(7, 'a'), None);
/// assert_eq!(table.insert(7, 'A'), Some('a'));
/// assert_eq!(table.get(4_100), Some(&'b'));
/// assert_eq!(table.get(1 << 40), None);
/// let keys: Vec<u64> = table.iter().map(|(lbn, _)| lbn).collect();
/// assert_eq!(keys, [7, 4_100]);
/// assert_eq!(table.iter_from(8).next(), Some((4_100, &'b')));
/// assert_eq!(table.remove(7), Some('A'));
/// assert_eq!(table.len(), 1);
/// ```
///
/// [`len`]: LbnTable::len
#[derive(Clone)]
pub struct LbnTable<T> {
    /// Page `i` holds lbns `i * 4096 .. (i + 1) * 4096`; `None` until the
    /// first insert into it.
    pages: Vec<Option<Box<Page<T>>>>,
    /// Occupied entries across all pages.
    len: usize,
}

/// The page index and the slot within the page of `lbn`, or `None` for a
/// key whose page index does not fit `usize`.
fn split(lbn: u64) -> Option<(usize, usize)> {
    let page = usize::try_from(lbn >> PAGE_BITS).ok()?;
    Some((page, lbn as usize & (PAGE_ENTRIES - 1)))
}

/// A page with every entry empty, built directly on the heap rather
/// than staged on the stack (a page of 16-byte entries is 64 KB).
fn empty_page<T: Clone>() -> Box<Page<T>> {
    vec![None; PAGE_ENTRIES]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("the vector holds exactly one page"))
}

impl<T> LbnTable<T> {
    /// Creates an empty table; allocates nothing until the first insert.
    pub const fn new() -> Self {
        LbnTable {
            pages: Vec::new(),
            len: 0,
        }
    }

    /// Returns the number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the value at `lbn`, if any.
    pub fn get(&self, lbn: u64) -> Option<&T> {
        let (page, slot) = split(lbn)?;
        self.pages.get(page)?.as_deref()?[slot].as_ref()
    }

    /// Returns the value at `lbn` for update in place, if any.
    pub fn get_mut(&mut self, lbn: u64) -> Option<&mut T> {
        let (page, slot) = split(lbn)?;
        self.pages.get_mut(page)?.as_deref_mut()?[slot].as_mut()
    }

    /// Stores `value` at `lbn`, returning the value it replaces. Allocates
    /// `lbn`'s page on the first insert into it.
    ///
    /// # Panics
    ///
    /// Panics if `lbn` is at or past [`MAX_LBN_END`].
    pub fn insert(&mut self, lbn: u64, value: T) -> Option<T>
    where
        T: Clone,
    {
        assert!(
            lbn < MAX_LBN_END,
            "lbn {lbn} is outside the table's domain (below 2^32)"
        );
        let (page, slot) = split(lbn).expect("an lbn below 2^32 has a page index");
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let old = self.pages[page].get_or_insert_with(empty_page)[slot].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at `lbn`, if any.
    pub fn remove(&mut self, lbn: u64) -> Option<T> {
        let (page, slot) = split(lbn)?;
        let old = self.pages.get_mut(page)?.as_deref_mut()?[slot].take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Iterates the occupied entries in ascending lbn order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.iter_from(0)
    }

    /// Iterates the occupied entries at or after `lbn` in ascending lbn
    /// order, skipping the pages below `lbn`'s without visiting them.
    pub fn iter_from(&self, lbn: u64) -> impl Iterator<Item = (u64, &T)> + '_ {
        // A key past every page index starts past the last page.
        let (first, skip) = split(lbn).unwrap_or((usize::MAX, 0));
        self.pages
            .iter()
            .enumerate()
            .skip(first)
            .filter_map(|(p, page)| Some(p).zip(page.as_deref()))
            .flat_map(move |(p, page)| {
                let base = (p as u64) << PAGE_BITS;
                let from = if p == first { skip } else { 0 };
                page[from..]
                    .iter()
                    .enumerate()
                    .filter_map(move |(s, v)| Some(base | (from + s) as u64).zip(v.as_ref()))
            })
    }
}

impl<T> Default for LbnTable<T> {
    fn default() -> Self {
        LbnTable::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for LbnTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeMap;

    /// Pages allocated so far.
    fn pages<T>(table: &LbnTable<T>) -> usize {
        table.pages.iter().flatten().count()
    }

    /// Keys drawn around the page boundaries, the top of the domain and
    /// a few scattered pages.
    fn key(rng: &mut SimRng) -> u64 {
        const ANCHORS: [u64; 6] = [0, 4_095, 4_096, 8_191, 70_000, MAX_LBN_END - 1];
        let anchor = ANCHORS[rng.below(ANCHORS.len() as u64) as usize];
        let offset = rng.below(5);
        if anchor == MAX_LBN_END - 1 || rng.chance(0.5) {
            anchor.saturating_sub(offset)
        } else {
            anchor + offset
        }
    }

    #[test]
    fn matches_a_btreemap_op_by_op() {
        for case in 0..16u64 {
            let mut rng = SimRng::seed_with_stream(case, 29);
            let mut table = LbnTable::new();
            let mut model = BTreeMap::new();
            for op in 0..1_000 {
                let k = key(&mut rng);
                match rng.below(4) {
                    0 | 1 => {
                        let v = rng.next_u64();
                        assert_eq!(
                            table.insert(k, v),
                            model.insert(k, v),
                            "case {case} op {op}"
                        );
                    }
                    2 => assert_eq!(table.remove(k), model.remove(&k), "case {case} op {op}"),
                    _ => {
                        if let Some(v) = table.get_mut(k) {
                            *v ^= 1;
                        }
                        if let Some(v) = model.get_mut(&k) {
                            *v ^= 1;
                        }
                    }
                }
                assert_eq!(table.get(k), model.get(&k), "case {case} op {op}");
                assert_eq!(table.len(), model.len(), "case {case} op {op}");
                assert_eq!(table.is_empty(), model.is_empty(), "case {case} op {op}");
                let from = key(&mut rng);
                assert!(
                    table
                        .iter_from(from)
                        .take(3)
                        .eq(model.range(from..).take(3).map(|(&k, v)| (k, v))),
                    "case {case} op {op}: walk from {from}"
                );
            }
            let got: Vec<(u64, u64)> = table.iter().map(|(k, &v)| (k, v)).collect();
            let want: Vec<(u64, u64)> = model.into_iter().collect();
            assert_eq!(got, want, "case {case}: ascending iteration");
        }
    }

    #[test]
    fn keys_past_the_domain_read_as_absent_and_allocate_nothing() {
        let mut table: LbnTable<u32> = LbnTable::new();
        for k in [MAX_LBN_END, 1 << 40, u64::MAX] {
            assert_eq!(table.get(k), None);
            assert_eq!(table.get_mut(k), None);
            assert_eq!(table.remove(k), None);
            assert_eq!(table.iter_from(k).next(), None);
        }
        assert!(table.pages.is_empty(), "no top level for an empty table");
        table.insert(4_095, 1);
        table.insert(4_096, 2);
        assert_eq!(pages(&table), 2, "4,095 and 4,096 sit on adjacent pages");
        for k in [MAX_LBN_END - 1, MAX_LBN_END, 1 << 40, u64::MAX] {
            assert_eq!(table.get(k), None);
            assert_eq!(table.remove(k), None);
            assert_eq!(table.iter_from(k).next(), None);
        }
        assert_eq!(table.iter_from(4_096).next(), Some((4_096, &2)));
        assert_eq!((table.pages.len(), pages(&table)), (2, 2));
        // The top key of the domain costs a 2^20-slot top level and one
        // page.
        table.insert(MAX_LBN_END - 1, 3);
        assert_eq!((table.pages.len(), pages(&table)), (1 << 20, 3));
        assert_eq!(table.get(MAX_LBN_END - 1), Some(&3));
        assert_eq!(table.remove(MAX_LBN_END - 1), Some(3));
        assert_eq!(pages(&table), 3, "an emptied page stays allocated");
    }

    #[test]
    #[should_panic(expected = "outside the table's domain")]
    fn inserting_at_the_domain_end_panics() {
        LbnTable::new().insert(MAX_LBN_END, ());
    }

    #[test]
    fn debug_renders_entries_in_order() {
        let mut table = LbnTable::new();
        table.insert(9_000, "b");
        table.insert(2, "a");
        assert_eq!(format!("{table:?}"), r#"{2: "a", 9000: "b"}"#);
    }
}
