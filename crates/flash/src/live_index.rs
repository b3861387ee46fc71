//! The greedy cleaner's victim index: the card's `Full` segments bucketed
//! by live-block count.
//!
//! Bucket `b` holds a bit set over segment indices (the `Full` segments
//! with exactly `b` live blocks) and a count of them. An occupancy bit set
//! over the buckets marks the non-empty ones. The lowest occupied bucket's
//! lowest set bit is then the minimum `(live, segment)` pair, found in
//! `buckets / 64 + segments / 64` word reads instead of a scan of every
//! segment. The store updates the index wherever a `Full` segment's live
//! count or state changes.

/// Bits in one bit-set word.
const WORD: usize = 64;

/// The bit of index `i` within its word.
fn bit(i: usize) -> u64 {
    1 << (i % WORD)
}

/// Segments bucketed by live count (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct LiveIndex {
    /// Words in one bucket's segment bit set.
    words: usize,
    /// The buckets' segment bit sets, one after another: bucket `b` is
    /// `sets[b * words..(b + 1) * words]`.
    sets: Vec<u64>,
    /// Segments in each bucket.
    counts: Vec<u32>,
    /// Bit `b` is set exactly when bucket `b` is non-empty.
    occupied: Vec<u64>,
}

impl LiveIndex {
    /// An empty index over `segments` segments whose live counts lie in
    /// `0..=max_live`.
    pub(crate) fn new(segments: u32, max_live: u32) -> Self {
        let words = (segments as usize).div_ceil(WORD);
        let buckets = max_live as usize + 1;
        LiveIndex {
            words,
            sets: vec![0; buckets * words],
            counts: vec![0; buckets],
            occupied: vec![0; buckets.div_ceil(WORD)],
        }
    }

    /// Adds `seg`, which holds `live` live blocks.
    pub(crate) fn insert(&mut self, seg: u32, live: u32) {
        let (b, s) = (live as usize, seg as usize);
        let word = &mut self.sets[b * self.words + s / WORD];
        debug_assert_eq!(*word & bit(s), 0, "segment {seg} already in bucket {live}");
        *word |= bit(s);
        self.counts[b] += 1;
        if self.counts[b] == 1 {
            self.occupied[b / WORD] |= bit(b);
        }
    }

    /// Removes `seg`, which was added with `live` live blocks.
    pub(crate) fn remove(&mut self, seg: u32, live: u32) {
        let (b, s) = (live as usize, seg as usize);
        let word = &mut self.sets[b * self.words + s / WORD];
        debug_assert_ne!(*word & bit(s), 0, "segment {seg} not in bucket {live}");
        *word &= !bit(s);
        self.counts[b] -= 1;
        if self.counts[b] == 0 {
            self.occupied[b / WORD] &= !bit(b);
        }
    }

    /// Moves `seg` from bucket `from` to bucket `to`: its live count
    /// changed.
    pub(crate) fn shift(&mut self, seg: u32, from: u32, to: u32) {
        self.remove(seg, from);
        self.insert(seg, to);
    }

    /// The indexed segment with the fewest live blocks, lowest index
    /// first, as `(live, segment)`; `None` when nothing is indexed.
    pub(crate) fn min(&self) -> Option<(u32, u32)> {
        let (w, occupied) = self.occupied.iter().enumerate().find(|(_, &o)| o != 0)?;
        let b = w * WORD + occupied.trailing_zeros() as usize;
        let set = &self.sets[b * self.words..(b + 1) * self.words];
        let (w, members) = set
            .iter()
            .enumerate()
            .find(|(_, &m)| m != 0)
            .expect("an occupied bucket has a member");
        Some((
            b as u32,
            (w * WORD + members.trailing_zeros() as usize) as u32,
        ))
    }

    /// Checks the index against `live`, which gives, segment by segment,
    /// the live count of each segment that should be indexed and `None`
    /// for the rest: each indexed segment sits in its live count's bucket,
    /// nothing else is indexed, and the counts and the occupancy bits
    /// match the bit sets. Costs O(segments + buckets × words).
    ///
    /// # Panics
    ///
    /// Panics on the first disagreement.
    pub(crate) fn check(&self, live: impl IntoIterator<Item = Option<u32>>) {
        let mut expected = 0u64;
        for (s, live) in live.into_iter().enumerate() {
            let Some(live) = live else { continue };
            assert_ne!(
                self.sets[live as usize * self.words + s / WORD] & bit(s),
                0,
                "segment {s} missing from live bucket {live}"
            );
            expected += 1;
        }
        let mut members = 0u64;
        let mut occupied = 0u32;
        for (b, set) in self.sets.chunks_exact(self.words).enumerate() {
            let n: u32 = set.iter().map(|w| w.count_ones()).sum();
            assert_eq!(n, self.counts[b], "live bucket {b}: count vs members");
            let marked = self.occupied[b / WORD] & bit(b) != 0;
            assert_eq!(marked, n > 0, "live bucket {b}: occupancy bit");
            members += u64::from(n);
            occupied += u32::from(marked);
        }
        assert_eq!(members, expected, "indexed segments vs expected");
        let marked: u32 = self.occupied.iter().map(|w| w.count_ones()).sum();
        assert_eq!(marked, occupied, "occupancy bits past the last bucket");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobistore_sim::rng::SimRng;

    /// The reference: the indexed `(live, segment)` pairs in a list,
    /// whose minimum a scan finds.
    #[derive(Default)]
    struct NaiveIndex {
        pairs: Vec<(u32, u32)>,
    }

    impl NaiveIndex {
        fn live_of(&self, seg: u32) -> Option<u32> {
            self.pairs.iter().find(|p| p.1 == seg).map(|p| p.0)
        }

        fn set(&mut self, seg: u32, live: Option<u32>) {
            self.pairs.retain(|p| p.1 != seg);
            self.pairs.extend(live.map(|l| (l, seg)));
        }

        fn min(&self) -> Option<(u32, u32)> {
            self.pairs.iter().copied().min()
        }
    }

    #[test]
    fn min_matches_a_scan_of_every_pair() {
        // Segment counts on both sides of a 64-bit word, and bucket
        // counts (max_live + 1) of one word exactly and past it.
        let mut case = 0u64;
        for segments in [1u32, 63, 64, 65, 320] {
            for max_live in [63u32, 64, 128, 256] {
                case += 1;
                let mut rng = SimRng::seed_with_stream(case, 21);
                let mut index = LiveIndex::new(segments, max_live);
                let mut naive = NaiveIndex::default();
                // A live count drawn either anywhere or near the top, so
                // that some buckets hold many segments.
                let draw = |rng: &mut SimRng| {
                    if rng.chance(0.5) {
                        rng.below(u64::from(max_live) + 1) as u32
                    } else {
                        max_live - rng.below(4) as u32
                    }
                };
                for op in 0..1_500 {
                    let seg = rng.below(u64::from(segments)) as u32;
                    let next = match naive.live_of(seg) {
                        None => {
                            let live = draw(&mut rng);
                            index.insert(seg, live);
                            Some(live)
                        }
                        Some(live) => match rng.below(8) {
                            // Leaves the index: erased or retired.
                            0 => {
                                index.remove(seg, live);
                                None
                            }
                            // Emptied by a cleaning pass.
                            1 => {
                                index.shift(seg, live, 0);
                                Some(0)
                            }
                            // A new live count from anywhere.
                            2 => {
                                let to = draw(&mut rng);
                                index.shift(seg, live, to);
                                Some(to)
                            }
                            // One block dies.
                            _ if live > 0 => {
                                index.shift(seg, live, live - 1);
                                Some(live - 1)
                            }
                            _ => Some(live),
                        },
                    };
                    naive.set(seg, next);
                    assert_eq!(
                        index.min(),
                        naive.min(),
                        "case {case} ({segments} segments, max live {max_live}) op {op}"
                    );
                    index.check((0..segments).map(|seg| naive.live_of(seg)));
                }
            }
        }
    }
}
