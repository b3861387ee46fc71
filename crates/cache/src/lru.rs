//! An intrusive LRU list over lbn keys.
//!
//! The buffer cache needs O(1) lookup, O(1) touch (move to front), and O(1)
//! eviction of the least-recently-used block. This is a classic
//! doubly-linked list threaded through a slab of nodes, with an
//! [`LbnTable`] index from key to slab slot — no unsafe code, no external
//! crates. Each node also carries the cache's dirty bit, so write-back
//! state needs no second lookup.

use mobistore_sim::lbn::LbnTable;

/// Slab index of no node (the list's ends).
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
    /// The block holds unwritten data (write-back caching).
    dirty: bool,
}

/// An LRU set of lbn keys with a fixed capacity in entries.
///
/// Keys index an [`LbnTable`], so they must lie below
/// [`MAX_LBN_END`](mobistore_sim::lbn::MAX_LBN_END); lookups of larger
/// keys simply miss.
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
    index: LbnTable<u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// Nodes whose dirty bit is set.
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
        LruSet {
            capacity,
            index: LbnTable::new(),
            nodes: Vec::with_capacity(capacity.min(4096)),
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
    pub fn touch(&mut self, key: u64) -> bool {
        let Some(&idx) = self.index.get(key) else {
            return false;
        };
        self.unlink(idx);
        self.push_front(idx);
        true
    }

    /// Inserts `key` as most-recently-used; if the set is full, evicts and
    /// returns the least-recently-used key. Re-inserting a present key just
    /// touches it.
    ///
    /// # Panics
    ///
    /// Panics if `key` is at or past
    /// [`MAX_LBN_END`](mobistore_sim::lbn::MAX_LBN_END).
    pub fn insert(&mut self, key: u64) -> Option<u64> {
        self.place(key).1.map(|(old, _)| old)
    }

    /// [`insert`](Self::insert) that also sets `key`'s dirty bit to
    /// `dirty`; returns the evicted key with its dirty bit.
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
        let mut cursor = self.head;
        while cursor != NIL {
            let node = &mut self.nodes[cursor as usize];
            if node.dirty {
                node.dirty = false;
                out.push(node.key);
            }
            cursor = node.next;
        }
        self.dirty = 0;
    }

    /// Removes `key`; returns true if it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(idx) = self.index.remove(key) else {
            return false;
        };
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
        let key = self.nodes[self.tail as usize].key;
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

    /// Touches `key`, or inserts it clean as most-recently-used, evicting
    /// the LRU key (returned with its dirty bit) if the set is full.
    /// Returns `key`'s slab index.
    fn place(&mut self, key: u64) -> (u32, Option<(u64, bool)>) {
        if let Some(&idx) = self.index.get(key) {
            self.unlink(idx);
            self.push_front(idx);
            return (idx, None);
        }
        let evicted = if self.index.len() == self.capacity {
            let lru_idx = self.tail;
            debug_assert_ne!(lru_idx, NIL);
            let node = &self.nodes[lru_idx as usize];
            let old = (node.key, node.dirty);
            self.remove(old.0);
            Some(old)
        } else {
            None
        };
        let node = Node {
            key,
            prev: NIL,
            next: NIL,
            dirty: false,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                let i = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("LRU slab outgrew u32 indices");
                self.nodes.push(node);
                i
            }
        };
        self.index.insert(key, idx);
        self.push_front(idx);
        (idx, evicted)
    }

    fn set_dirty(&mut self, idx: u32, dirty: bool) {
        let node = &mut self.nodes[idx as usize];
        if node.dirty != dirty {
            node.dirty = dirty;
            if dirty {
                self.dirty += 1;
            } else {
                self.dirty -= 1;
            }
        }
    }

    fn unlink(&mut self, idx: u32) {
        let node = &self.nodes[idx as usize];
        let (prev, next) = (node.prev, node.next);
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let node = &mut self.nodes[idx as usize];
        node.prev = NIL;
        node.next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        node.prev = NIL;
        node.next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
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
        let node = &self.set.nodes[self.cursor as usize];
        self.cursor = node.next;
        Some(node.key)
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
        assert!(lru.nodes.len() <= 16, "slab leaked: {}", lru.nodes.len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = LruSet::new(0);
    }
}
