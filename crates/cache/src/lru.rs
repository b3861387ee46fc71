//! An intrusive LRU list over lbn keys.
//!
//! The buffer cache needs O(1) lookup, O(1) touch (move to front), and O(1)
//! eviction of the least-recently-used block. This is a classic
//! doubly-linked list threaded through a slab, with an [`LbnTable`] index
//! from key to slab slot — no unsafe code, no external crates. The slab
//! keeps each slot's links, key and dirty bit in three arrays, so a touch
//! reads and writes 8-byte links alone, and write-back state needs no
//! second lookup.

use std::num::NonZeroU32;

use mobistore_sim::lbn::{LbnTable, MAX_LBN_END};

/// Slab slot of no entry (the list's ends).
const NIL: u32 = u32::MAX;

// Keys are stored as `u32`: every key below the domain's end fits.
const _: () = assert!(MAX_LBN_END <= 1 << 32);

/// A slot's neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// An LRU set of lbn keys with a fixed capacity in entries.
///
/// Keys index an [`LbnTable`], so they must lie below [`MAX_LBN_END`];
/// lookups of larger keys simply miss.
///
/// # Examples
///
/// ```
/// use mobistore_cache::lru::LruSet;
///
/// let mut lru = LruSet::new(2);
/// assert_eq!(lru.insert(1), None);
/// assert_eq!(lru.insert(2), None);
/// lru.touch(1); // 1 is now most recent
/// assert_eq!(lru.insert(3), Some(2), "2 was the LRU entry");
/// ```
#[derive(Debug, Clone)]
pub struct LruSet {
    capacity: usize,
    /// Key → slab slot + 1 (4 bytes an entry, where `Option<u32>` takes 8).
    index: LbnTable<NonZeroU32>,
    /// Each slot's links; a free slot's are stale.
    links: Vec<Link>,
    /// Each slot's key.
    keys: Vec<u32>,
    /// Each slot's dirty bit: the block holds unwritten data (write-back
    /// caching). A free slot's is clear.
    dirt: Vec<bool>,
    /// Slots a removal freed.
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// Slots whose dirty bit is set.
    dirty: usize,
}

impl LruSet {
    /// Creates an empty set holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        let slots = capacity.min(4096);
        LruSet {
            capacity,
            index: LbnTable::new(),
            links: Vec::with_capacity(slots),
            keys: Vec::with_capacity(slots),
            dirt: Vec::with_capacity(slots),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            dirty: 0,
        }
    }

    /// Returns the number of keys currently held.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns true if no keys are held.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Returns the capacity in keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns true if `key` is present (without touching recency).
    pub fn contains(&self, key: u64) -> bool {
        self.index.get(key).is_some()
    }

    /// Marks `key` most-recently-used; returns false if absent.
    #[inline]
    pub fn touch(&mut self, key: u64) -> bool {
        let Some(idx) = self.slot(key) else {
            return false;
        };
        self.move_to_front(idx);
        true
    }

    /// Inserts `key` as most-recently-used; if the set is full, evicts and
    /// returns the least-recently-used key. Re-inserting a present key just
    /// touches it.
    ///
    /// # Panics
    ///
    /// Panics if `key` is at or past [`MAX_LBN_END`], before anything
    /// changes.
    pub fn insert(&mut self, key: u64) -> Option<u64> {
        self.place(key).1.map(|(old, _)| old)
    }

    /// [`insert`](Self::insert) that also sets `key`'s dirty bit to
    /// `dirty`; returns the evicted key with its dirty bit.
    #[inline]
    pub(crate) fn insert_dirty(&mut self, key: u64, dirty: bool) -> Option<(u64, bool)> {
        let (idx, evicted) = self.place(key);
        self.set_dirty(idx, dirty);
        evicted
    }

    /// Returns the number of keys whose dirty bit is set.
    pub(crate) fn dirty_len(&self) -> usize {
        self.dirty
    }

    /// Clears every dirty bit, appending the keys that had one to `out`
    /// in no particular order.
    pub(crate) fn take_dirty(&mut self, out: &mut Vec<u64>) {
        for (dirty, &key) in self.dirt.iter_mut().zip(&self.keys) {
            if std::mem::take(dirty) {
                out.push(u64::from(key));
            }
        }
        self.dirty = 0;
    }

    /// Removes `key`; returns true if it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(idx) = self.index.remove(key) else {
            return false;
        };
        let idx = idx.get() - 1;
        self.set_dirty(idx, false);
        self.unlink(idx);
        self.free.push(idx);
        true
    }

    /// Removes and returns the least-recently-used key.
    pub fn pop_lru(&mut self) -> Option<u64> {
        if self.tail == NIL {
            return None;
        }
        let key = u64::from(self.keys[self.tail as usize]);
        self.remove(key);
        Some(key)
    }

    /// Iterates keys from most to least recently used.
    pub fn iter_mru(&self) -> impl Iterator<Item = u64> + '_ {
        MruIter {
            set: self,
            cursor: self.head,
        }
    }

    /// `key`'s slab slot, if present.
    #[inline]
    fn slot(&self, key: u64) -> Option<u32> {
        self.index.get(key).map(|idx| idx.get() - 1)
    }

    /// Touches `key`, or inserts it clean as most-recently-used. A full
    /// set gives the LRU key's slot to `key` in place and returns the LRU
    /// key with its dirty bit. Returns `key`'s slab slot.
    #[inline]
    fn place(&mut self, key: u64) -> (u32, Option<(u64, bool)>) {
        if let Some(idx) = self.slot(key) {
            self.move_to_front(idx);
            return (idx, None);
        }
        assert!(
            key < MAX_LBN_END,
            "lbn {key} is outside the table's domain (below 2^32)"
        );
        if self.index.len() == self.capacity {
            let idx = self.tail;
            debug_assert_ne!(idx, NIL);
            let slot = idx as usize;
            let old = (u64::from(self.keys[slot]), self.dirt[slot]);
            self.index.remove(old.0);
            self.set_dirty(idx, false);
            self.keys[slot] = key as u32;
            self.index.insert(key, Self::entry(idx));
            self.move_to_front(idx);
            return (idx, Some(old));
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.keys[idx as usize] = key as u32;
                idx
            }
            None => {
                let idx = u32::try_from(self.links.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("LRU slab outgrew u32 indices");
                self.links.push(Link {
                    prev: NIL,
                    next: NIL,
                });
                self.keys.push(key as u32);
                self.dirt.push(false);
                idx
            }
        };
        self.index.insert(key, Self::entry(idx));
        self.push_front(idx);
        (idx, None)
    }

    /// The index entry of slab slot `idx`, which is below `NIL`.
    #[inline]
    fn entry(idx: u32) -> NonZeroU32 {
        NonZeroU32::MIN.saturating_add(idx)
    }

    fn set_dirty(&mut self, idx: u32, dirty: bool) {
        let flag = &mut self.dirt[idx as usize];
        if *flag != dirty {
            *flag = dirty;
            if dirty {
                self.dirty += 1;
            } else {
                self.dirty -= 1;
            }
        }
    }

    /// Makes `idx`, which is linked, the most recent slot.
    #[inline]
    fn move_to_front(&mut self, idx: u32) {
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn unlink(&mut self, idx: u32) {
        let Link { prev, next } = self.links[idx as usize];
        if prev != NIL {
            self.links[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.links[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.links[idx as usize] = Link {
            prev: NIL,
            next: self.head,
        };
        if self.head != NIL {
            self.links[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

struct MruIter<'a> {
    set: &'a LruSet,
    cursor: u32,
}

impl Iterator for MruIter<'_> {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        if self.cursor == NIL {
            return None;
        }
        let idx = self.cursor as usize;
        self.cursor = self.set.links[idx].next;
        Some(u64::from(self.set.keys[idx]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut lru = LruSet::new(3);
        assert!(lru.is_empty());
        lru.insert(10);
        lru.insert(20);
        assert!(lru.contains(10) && lru.contains(20) && !lru.contains(30));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut lru = LruSet::new(3);
        lru.insert(1);
        lru.insert(2);
        lru.insert(3);
        assert_eq!(lru.insert(4), Some(1));
        assert_eq!(lru.insert(5), Some(2));
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn touch_changes_eviction_order() {
        let mut lru = LruSet::new(3);
        lru.insert(1);
        lru.insert(2);
        lru.insert(3);
        assert!(lru.touch(1));
        assert_eq!(lru.insert(4), Some(2));
    }

    #[test]
    fn reinsert_touches() {
        let mut lru = LruSet::new(2);
        lru.insert(1);
        lru.insert(2);
        assert_eq!(lru.insert(1), None);
        assert_eq!(lru.insert(3), Some(2));
    }

    #[test]
    fn remove_frees_slot() {
        let mut lru = LruSet::new(2);
        lru.insert(1);
        lru.insert(2);
        assert!(lru.remove(1));
        assert!(!lru.remove(1));
        assert_eq!(lru.insert(3), None, "no eviction after a removal");
    }

    #[test]
    fn pop_lru_drains_in_order() {
        let mut lru = LruSet::new(3);
        lru.insert(1);
        lru.insert(2);
        lru.insert(3);
        lru.touch(1);
        assert_eq!(lru.pop_lru(), Some(2));
        assert_eq!(lru.pop_lru(), Some(3));
        assert_eq!(lru.pop_lru(), Some(1));
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn iter_mru_order() {
        let mut lru = LruSet::new(4);
        for k in [1, 2, 3, 4] {
            lru.insert(k);
        }
        lru.touch(2);
        let order: Vec<u64> = lru.iter_mru().collect();
        assert_eq!(order, vec![2, 4, 3, 1]);
    }

    #[test]
    fn slot_reuse_after_heavy_churn() {
        let mut lru = LruSet::new(8);
        for k in 0..10_000u64 {
            lru.insert(k);
            if k % 3 == 0 {
                lru.remove(k.saturating_sub(1));
            }
        }
        assert!(lru.len() <= 8);
        // The slab should not grow past capacity + churn slack.
        assert!(lru.links.len() <= 16, "slab leaked: {}", lru.links.len());
    }

    #[test]
    fn a_refused_key_changes_nothing() {
        // 2^32 + 5 would store as 5 if it were truncated to its low 32
        // bits.
        let far = 1 << 32 | 5;
        let mut lru = LruSet::new(2);
        lru.insert(5);
        lru.insert(7);
        let order = |lru: &LruSet| lru.iter_mru().collect::<Vec<u64>>();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lru.insert(far)))
            .expect_err("a key past the domain is refused");
        let message = refused
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.contains("outside the table's domain"), "{message}");
        assert_eq!(order(&lru), [7, 5], "nothing was evicted");
        assert!(!lru.contains(far));
        assert!(!lru.touch(far));
        assert!(!lru.remove(far));
        assert_eq!(order(&lru), [7, 5]);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = LruSet::new(0);
    }
}
