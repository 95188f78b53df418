/// The Fiduccia–Mattheyses *bucket list*: nodes indexed by integer gain.
///
/// An array of intrusive doubly-linked lists, one per possible gain value in
/// `[min_gain, max_gain]`, plus a moving high-water pointer. All of insert,
/// remove, and update are `O(1)`; extracting the max-gain node is `O(1)`
/// amortized (the pointer only rescans buckets that inserts have touched).
///
/// The paper adopts exactly this structure: "an array of linked lists,
/// called a bucket list, which indexes each node according to its potential
/// gain" (§IV-C).
///
/// This structure sits inside every KL sweep on every worker, so its
/// membership preconditions are `debug_assert!`s (release builds must not
/// abort a whole sweep on a recoverable bookkeeping slip; the
/// `debug-invariants` feature and [`assert_consistent`](Self::assert_consistent)
/// carry the release-strength checks). Out-of-range *gains* are still
/// rejected in every profile — filing a node in the wrong bucket would
/// silently corrupt the structure rather than degrade.
///
/// ```
/// use kl::BucketList;
/// let mut b = BucketList::new(3, -10, 10);
/// b.insert(0, 5);
/// b.insert(1, -2);
/// b.insert(2, 5);
/// assert_eq!(b.peek_max_gain(), Some(5));
/// let (node, gain) = b.pop_max().expect("bucket holds entries");
/// assert_eq!(gain, 5);
/// assert!(node == 0 || node == 2);
/// ```
#[derive(Debug, Clone)]
pub struct BucketList {
    pub(crate) min_gain: i64,
    /// `heads[g - min_gain]` = first node in the gain-`g` list, or `NIL`.
    pub(crate) heads: Vec<u32>,
    /// One record per node, indexed by id.
    pub(crate) slots: Vec<Slot>,
    /// Highest bucket index that may be non-empty.
    pub(crate) high: usize,
    pub(crate) len: usize,
}

/// A node's chain links and gain: 16 bytes, so one cache line holds four
/// nodes' records. `prev == ABSENT` marks a node that is not indexed; its
/// `gain` then keeps the last value it was filed under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) prev: u32,
    pub(crate) next: u32,
    pub(crate) gain: i64,
}

/// End of a chain.
pub(crate) const NIL: u32 = u32::MAX;
/// `Slot::prev` of a node that is not indexed.
pub(crate) const ABSENT: u32 = u32::MAX - 1;

/// Node ids are `u32` by construction; every slot array is indexed by id.
#[inline]
fn ix(node: u32) -> usize {
    node as usize // xtask-allow: lossy-cast: u32 → usize widens on every supported target
}

impl BucketList {
    /// Creates an empty bucket list for nodes `0..num_nodes` and gains in
    /// `[min_gain, max_gain]`.
    ///
    /// # Panics
    ///
    /// Panics if `min_gain > max_gain`, or if `num_nodes` reaches the
    /// link sentinels at the top of the `u32` id space.
    pub fn new(num_nodes: usize, min_gain: i64, max_gain: i64) -> Self {
        let span = usize::try_from(max_gain.saturating_sub(min_gain).saturating_add(1))
            .expect("empty gain range: min_gain must be <= max_gain");
        u32::try_from(num_nodes)
            .ok()
            .filter(|&n| n <= ABSENT)
            .expect("node count collides with the bucket list's link sentinels");
        BucketList {
            min_gain,
            heads: vec![NIL; span],
            slots: vec![Slot { prev: ABSENT, next: NIL, gain: 0 }; num_nodes],
            high: 0,
            len: 0,
        }
    }

    /// Number of nodes currently indexed.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no nodes are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `node` is currently indexed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn contains(&self, node: u32) -> bool {
        self.slots[ix(node)].prev != ABSENT
    }

    /// Current gain of an indexed node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range; debug builds additionally assert
    /// that `node` is indexed (release builds return the last recorded
    /// gain).
    #[inline]
    pub fn gain_of(&self, node: u32) -> i64 {
        debug_assert!(self.contains(node), "node {node} not in bucket list");
        self.slots[ix(node)].gain
    }

    /// Maps a gain to its bucket index, rejecting gains outside the
    /// configured `[min_gain, max_gain]` in every build profile: a
    /// mis-filed node would corrupt the chain structure silently.
    #[inline]
    fn bucket_of(&self, gain: i64) -> usize {
        gain.checked_sub(self.min_gain)
            .and_then(|d| usize::try_from(d).ok())
            .filter(|&b| b < self.heads.len())
            .expect("gain outside range configured at construction")
    }

    /// Files the unindexed `node` at the head of the gain-`gain` chain.
    #[inline]
    fn link(&mut self, node: u32, gain: i64) {
        let b = self.bucket_of(gain);
        let head = self.heads[b];
        if head != NIL {
            self.slots[ix(head)].prev = node;
        }
        self.slots[ix(node)] = Slot { prev: NIL, next: head, gain };
        self.heads[b] = node;
        self.high = self.high.max(b);
        self.len += 1;
    }

    /// Takes the indexed `node`, whose record is `slot`, out of its chain.
    #[inline]
    fn unlink(&mut self, node: u32, slot: Slot) {
        let Slot { prev, next, gain } = slot;
        if prev != NIL {
            self.slots[ix(prev)].next = next;
        } else {
            let b = self.bucket_of(gain);
            self.heads[b] = next;
        }
        if next != NIL {
            self.slots[ix(next)].prev = prev;
        }
        self.slots[ix(node)].prev = ABSENT;
        self.len -= 1;
    }

    /// Indexes `node` with `gain`, at the head of its gain's chain.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `gain` is outside the
    /// configured range; debug builds additionally assert that `node` is
    /// not already indexed (a double insert in release corrupts the
    /// chain, which `assert_consistent` detects).
    pub fn insert(&mut self, node: u32, gain: i64) {
        debug_assert!(!self.contains(node), "node {node} already in bucket list");
        self.link(node, gain);
    }

    /// Removes `node` from the index; a node that is not indexed is left
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range; debug builds additionally assert
    /// that `node` is indexed.
    pub fn remove(&mut self, node: u32) {
        debug_assert!(self.contains(node), "node {node} not in bucket list");
        let slot = self.slots[ix(node)];
        if slot.prev != ABSENT {
            self.unlink(node, slot);
        }
    }

    /// Files `node` under `gain`: a node that is not indexed is inserted,
    /// an indexed one moves to the head of the new gain's chain, and an
    /// indexed one already at `gain` stays where it is.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `gain` is outside the
    /// configured range.
    pub fn update(&mut self, node: u32, gain: i64) {
        let slot = self.slots[ix(node)];
        if slot.prev != ABSENT {
            if slot.gain == gain {
                return;
            }
            self.unlink(node, slot);
        }
        self.link(node, gain);
    }

    /// Adds `delta` to the gain of an indexed node.
    ///
    /// # Panics
    ///
    /// Panics as in [`update`](Self::update); debug builds additionally
    /// assert that `node` is indexed (release builds leave an unindexed
    /// node alone).
    pub fn adjust(&mut self, node: u32, delta: i64) {
        let indexed = self.adjust_if_present(node, delta);
        debug_assert!(indexed, "node {node} not in bucket list");
    }

    /// Adds `delta` to the gain of `node` if it is indexed, moving it to
    /// the head of the new gain's chain (a zero `delta` leaves it where it
    /// is). Returns whether `node` was indexed. This is the KL inner loop's
    /// one call per neighbour: one record read decides membership and
    /// yields the old gain.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the new gain is outside the
    /// configured range.
    #[inline]
    pub fn adjust_if_present(&mut self, node: u32, delta: i64) -> bool {
        let slot = self.slots[ix(node)];
        if slot.prev == ABSENT {
            return false;
        }
        if delta != 0 {
            self.unlink(node, slot);
            self.link(node, slot.gain + delta);
        }
        true
    }

    /// Unindexes every node, in `O(len)` plus the buckets at or below the
    /// high-water mark that it walks to find them.
    pub(crate) fn clear(&mut self) {
        let mut b = self.high + 1;
        while self.len > 0 && b > 0 {
            b -= 1;
            let mut cur = std::mem::replace(&mut self.heads[b], NIL);
            while cur != NIL {
                let slot = &mut self.slots[ix(cur)];
                slot.prev = ABSENT;
                cur = slot.next;
                self.len -= 1;
            }
        }
        self.high = 0;
    }

    /// The maximum gain among indexed nodes, if any.
    pub fn peek_max_gain(&mut self) -> Option<i64> {
        self.settle_high();
        if self.len == 0 {
            None
        } else {
            Some(self.min_gain + self.high as i64) // xtask-allow: lossy-cast: bucket index < heads.len() <= i64::MAX
        }
    }

    /// Removes and returns a node with the maximum gain: the one filed
    /// last among those at that gain.
    pub fn pop_max(&mut self) -> Option<(u32, i64)> {
        self.settle_high();
        if self.len == 0 {
            return None;
        }
        let node = self.heads[self.high];
        debug_assert_ne!(node, NIL);
        let slot = self.slots[ix(node)];
        self.unlink(node, slot);
        Some((node, slot.gain))
    }

    /// Walks every gain chain and re-derives the summary state the `O(1)`
    /// operations maintain incrementally; see
    /// [`invariants::assert_bucket_consistent`](crate::invariants) for the
    /// checked properties. Compiled only under the `debug-invariants`
    /// feature.
    ///
    /// # Panics
    ///
    /// Panics on the first structural inconsistency.
    #[cfg(feature = "debug-invariants")]
    pub fn assert_consistent(&self) {
        crate::invariants::assert_bucket_consistent(self);
    }

    fn settle_high(&mut self) {
        while self.high > 0 && self.heads[self.high] == NIL {
            self.high -= 1;
        }
    }

    /// Ids of up to `n` highest-gain nodes in gain order (ties in list
    /// order, last filed first), without removing them: the order
    /// [`pop_max`](Self::pop_max) would return them in. Used by the
    /// distributed runtime to decide which nodes to prefetch (§V: "the
    /// prefetched nodes are those with the highest potential move gains in
    /// the bucket list").
    pub fn peek_top(&self, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n.min(self.len));
        if self.len == 0 || n == 0 {
            return out;
        }
        let mut b = self.high + 1;
        while b > 0 && out.len() < n {
            b -= 1;
            let mut cur = self.heads[b];
            while cur != NIL && out.len() < n {
                out.push(cur);
                cur = self.slots[ix(cur)].next;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_gain_order() {
        let mut b = BucketList::new(4, -5, 5);
        b.insert(0, 1);
        b.insert(1, 5);
        b.insert(2, -3);
        b.insert(3, 2);
        let order: Vec<i64> = std::iter::from_fn(|| b.pop_max()).map(|(_, g)| g).collect();
        assert_eq!(order, vec![5, 2, 1, -3]);
        assert!(b.is_empty());
    }

    #[test]
    fn update_moves_between_buckets() {
        let mut b = BucketList::new(2, -10, 10);
        b.insert(0, 0);
        b.insert(1, 1);
        b.update(0, 7);
        assert_eq!(b.pop_max().expect("bucket holds entries"), (0, 7));
        assert_eq!(b.pop_max().expect("bucket holds entries"), (1, 1));
    }

    #[test]
    fn adjust_is_relative() {
        let mut b = BucketList::new(1, -10, 10);
        b.insert(0, 3);
        b.adjust(0, -5);
        assert_eq!(b.gain_of(0), -2);
    }

    #[test]
    fn remove_from_middle_of_chain() {
        let mut b = BucketList::new(3, 0, 0);
        b.insert(0, 0);
        b.insert(1, 0);
        b.insert(2, 0);
        b.remove(1);
        assert_eq!(b.len(), 2);
        let mut nodes: Vec<u32> = std::iter::from_fn(|| b.pop_max()).map(|(n, _)| n).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 2]);
    }

    #[test]
    fn high_pointer_recovers_after_raise() {
        let mut b = BucketList::new(2, -5, 5);
        b.insert(0, -5);
        assert_eq!(b.peek_max_gain(), Some(-5));
        b.insert(1, 5);
        assert_eq!(b.peek_max_gain(), Some(5));
        b.remove(1);
        assert_eq!(b.peek_max_gain(), Some(-5));
    }

    #[test]
    fn contains_tracks_membership() {
        let mut b = BucketList::new(2, 0, 1);
        b.insert(0, 0);
        assert!(b.contains(0));
        assert!(!b.contains(1));
        b.remove(0);
        assert!(!b.contains(0));
    }

    /// `insert` asserts against a double insert in debug builds only.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already in bucket list")]
    fn double_insert_panics() {
        let mut b = BucketList::new(1, 0, 1);
        b.insert(0, 0);
        b.insert(0, 1);
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn out_of_range_gain_panics() {
        let mut b = BucketList::new(1, -1, 1);
        b.insert(0, 9);
    }

    #[test]
    #[should_panic(expected = "empty gain range")]
    fn inverted_gain_range_panics() {
        let _ = BucketList::new(1, 1, -1);
    }

    #[test]
    fn clear_unindexes_everything() {
        let mut b = BucketList::new(4, -5, 5);
        for (n, g) in [(0u32, 3i64), (1, -2), (2, 3), (3, 5)] {
            b.insert(n, g);
        }
        let _ = b.pop_max();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.peek_max_gain(), None);
        assert!((0..4).all(|n| !b.contains(n)));
        b.insert(1, -4);
        assert_eq!(b.pop_max(), Some((1, -4)));
    }

    #[test]
    fn empty_pops_none() {
        let mut b = BucketList::new(0, 0, 0);
        assert_eq!(b.pop_max(), None);
        assert_eq!(b.peek_max_gain(), None);
    }
}

#[cfg(test)]
mod peek_tests {
    use super::*;

    #[test]
    fn peek_top_returns_gain_order_without_removal() {
        let mut b = BucketList::new(5, -5, 5);
        for (n, g) in [(0u32, 1i64), (1, 5), (2, -3), (3, 5), (4, 0)] {
            b.insert(n, g);
        }
        let top = b.peek_top(3);
        assert_eq!(top.len(), 3);
        assert_eq!(b.gain_of(top[0]), 5);
        assert_eq!(b.gain_of(top[1]), 5);
        assert_eq!(b.gain_of(top[2]), 1);
        assert_eq!(b.len(), 5, "peek must not remove");
    }

    #[test]
    fn peek_top_caps_at_population() {
        let mut b = BucketList::new(2, 0, 1);
        b.insert(0, 0);
        assert_eq!(b.peek_top(10), vec![0]);
        assert!(BucketList::new(1, 0, 0).peek_top(3).is_empty());
    }
}
