/// The Fiduccia–Mattheyses *bucket list*: nodes indexed by integer gain.
///
/// An array of intrusive doubly-linked lists, one per possible gain value in
/// `[min_gain, max_gain]`, plus a moving high-water pointer. Insert and
/// gain adjustment are `O(1)`; extracting the max-gain node is `O(1)`
/// amortized (the pointer only rescans buckets that inserts have touched).
/// These are the three operations extended KL asks of it: file a node,
/// shift a neighbour's gain, pop the max.
///
/// The paper adopts exactly this structure: "an array of linked lists,
/// called a bucket list, which indexes each node according to its potential
/// gain" (§IV-C).
///
/// This structure sits inside every KL sweep on every worker, so its
/// membership preconditions are `debug_assert!`s (release builds must not
/// abort a whole sweep on a recoverable bookkeeping slip; the
/// `debug-invariants` feature and its `assert_consistent` check carry the
/// release-strength checks). Out-of-range *gains* are still
/// rejected in every profile — filing a node in the wrong bucket would
/// silently corrupt the structure rather than degrade.
///
/// ```
/// use kl::BucketList;
/// let mut b = BucketList::new(3, -10, 10);
/// b.insert(0, 5);
/// b.insert(1, -2);
/// b.insert(2, 5);
/// assert!(b.adjust_if_present(1, 9));
/// assert_eq!(b.pop_max(), Some((1, 7)));
/// assert_eq!(b.pop_max(), Some((2, 5)));
/// assert_eq!(b.pop_max(), Some((0, 5)));
/// assert_eq!(b.pop_max(), None);
/// ```
#[derive(Debug, Clone)]
pub struct BucketList {
    pub(crate) min_gain: i64,
    /// The chain links, indexed by id: one record per node (`0..end`),
    /// the end record (`end`), then one head per gain, the gain-`g`
    /// chain's at `end + 1 + (g − min_gain)`. Every chain is circular
    /// through its head, so an empty chain is a head linked to itself.
    pub(crate) links: Vec<Link>,
    /// Each node's gain; a node that is not indexed keeps the last gain
    /// it was filed under.
    pub(crate) gains: Vec<i64>,
    /// Id of the end record, which is also the node count.
    pub(crate) end: u32,
    /// Highest head whose chain may be non-empty, or `end` once the list
    /// is empty. The end record never reads as an empty chain, so the
    /// downward scan stops there.
    pub(crate) top: u32,
    pub(crate) len: usize,
}

/// One chain record: 8 bytes, so one cache line holds eight. A node
/// record with `prev == ABSENT` is not indexed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    pub(crate) prev: u32,
    pub(crate) next: u32,
}

/// The end record's `next`: no record's own id, so the end record never
/// reads as an empty chain.
pub(crate) const NIL: u32 = u32::MAX;
/// `Link::prev` of a node that is not indexed.
pub(crate) const ABSENT: u32 = u32::MAX - 1;

/// Record ids are `u32` by construction; the link array is indexed by id.
#[inline]
fn ix(id: u32) -> usize {
    id as usize
}

impl BucketList {
    /// Creates an empty bucket list for nodes `0..num_nodes` and gains in
    /// `[min_gain, max_gain]`.
    ///
    /// # Panics
    ///
    /// Panics if `min_gain > max_gain`, or if the node records, the end
    /// record and one head per gain reach the link sentinels at the top
    /// of the `u32` id space.
    pub fn new(num_nodes: usize, min_gain: i64, max_gain: i64) -> Self {
        let span = usize::try_from(max_gain.saturating_sub(min_gain).saturating_add(1))
            .expect("empty gain range: min_gain must be <= max_gain");
        let end = num_nodes
            .checked_add(span)
            .and_then(|r| u32::try_from(r).ok())
            .filter(|&r| r < ABSENT)
            .and_then(|_| u32::try_from(num_nodes).ok())
            .expect("bucket list records collide with its link sentinels");
        let mut links = Vec::with_capacity(num_nodes + 1 + span);
        links.resize(num_nodes, Link { prev: ABSENT, next: NIL });
        links.push(Link { prev: NIL, next: NIL });
        links.extend((end + 1..).take(span).map(|head| Link { prev: head, next: head }));
        BucketList { min_gain, links, gains: vec![0; num_nodes], end, top: end, len: 0 }
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

    /// The link record of node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node id (the end and head records are
    /// not nodes).
    #[inline]
    fn node(&self, node: u32) -> Link {
        self.links[..ix(self.end)][ix(node)]
    }

    /// Whether `node` is currently indexed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn contains(&self, node: u32) -> bool {
        self.node(node).prev != ABSENT
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
        self.gains[ix(node)]
    }

    /// The head record of the gain-`gain` chain, rejecting gains outside
    /// the configured `[min_gain, max_gain]` in every build profile: a
    /// mis-filed node would corrupt the chain structure silently.
    #[inline]
    fn head_of(&self, gain: i64) -> u32 {
        gain.checked_sub(self.min_gain)
            .and_then(|d| u32::try_from(d).ok())
            .and_then(|d| d.checked_add(self.end + 1))
            .filter(|&h| ix(h) < self.links.len())
            .expect("gain outside range configured at construction")
    }

    /// Files `node` under `gain` at the front of the chain whose head is
    /// `head`: three link stores, with no end case.
    #[inline]
    fn splice_in(&mut self, node: u32, gain: i64, head: u32) {
        let first = self.links[ix(head)].next;
        self.links[ix(node)] = Link { prev: head, next: first };
        self.links[ix(first)].prev = node;
        self.links[ix(head)].next = node;
        self.gains[ix(node)] = gain;
        self.top = self.top.max(head);
    }

    /// Closes the gap an indexed node whose record is `link` leaves in its
    /// chain: two stores, with no end or head-of-chain case.
    #[inline]
    fn splice_out(&mut self, link: Link) {
        self.links[ix(link.prev)].next = link.next;
        self.links[ix(link.next)].prev = link.prev;
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
        let link = self.node(node);
        debug_assert!(link.prev == ABSENT, "node {node} already in bucket list");
        let head = self.head_of(gain);
        self.splice_in(node, gain, head);
        self.len += 1;
    }

    /// Adds `delta` to the gain of `node` if it is indexed, moving it to
    /// the head of the new gain's chain (a zero `delta` leaves it where it
    /// is). Returns whether `node` was indexed. This is the KL inner loop's
    /// one call per neighbour: one record read decides membership, and
    /// the move is five unconditional link stores.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the new gain is outside the
    /// configured range.
    #[inline]
    pub fn adjust_if_present(&mut self, node: u32, delta: i64) -> bool {
        let link = self.node(node);
        if link.prev == ABSENT {
            return false;
        }
        if delta != 0 {
            let gain = self.gains[ix(node)] + delta;
            let head = self.head_of(gain);
            self.splice_out(link);
            self.splice_in(node, gain, head);
        }
        true
    }

    /// Unindexes every node, in `O(len)` plus the heads at or below the
    /// high-water mark that it walks to find them.
    pub(crate) fn clear(&mut self) {
        while self.len > 0 && self.top > self.end {
            let head = self.top;
            let mut cur = self.links[ix(head)].next;
            while cur != head {
                let link = &mut self.links[ix(cur)];
                link.prev = ABSENT;
                cur = link.next;
                self.len -= 1;
            }
            self.links[ix(head)] = Link { prev: head, next: head };
            self.top -= 1;
        }
        self.top = self.end;
    }

    /// Removes and returns a node with the maximum gain: the one filed
    /// last among those at that gain.
    pub fn pop_max(&mut self) -> Option<(u32, i64)> {
        self.settle_top();
        if self.len == 0 {
            return None;
        }
        let node = self.links[ix(self.top)].next;
        debug_assert!(node < self.end, "the top chain holds a node");
        self.splice_out(self.links[ix(node)]);
        self.links[ix(node)].prev = ABSENT;
        self.len -= 1;
        Some((node, self.gains[ix(node)]))
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

    /// Lowers `top` past empty chains. It stops at the end record at the
    /// latest, whose `next` is never its own id.
    fn settle_top(&mut self) {
        while self.links[ix(self.top)].next == self.top {
            self.top -= 1;
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
        let mut head = self.top;
        while head > self.end && out.len() < n {
            let mut cur = self.links[ix(head)].next;
            while cur != head && out.len() < n {
                out.push(cur);
                cur = self.links[ix(cur)].next;
            }
            head -= 1;
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
    fn adjust_is_relative_and_moves_between_buckets() {
        let mut b = BucketList::new(2, -10, 10);
        b.insert(0, 3);
        b.insert(1, 1);
        assert!(b.adjust_if_present(0, -5));
        assert_eq!(b.gain_of(0), -2);
        assert!(b.adjust_if_present(0, 9));
        assert_eq!(b.pop_max().expect("bucket holds entries"), (0, 7));
        assert_eq!(b.pop_max().expect("bucket holds entries"), (1, 1));
    }

    #[test]
    fn high_pointer_recovers_after_raise() {
        let mut b = BucketList::new(2, -5, 5);
        b.insert(0, -5);
        b.insert(1, -4);
        assert_eq!(b.pop_max(), Some((1, -4)));
        assert!(b.adjust_if_present(0, 10));
        b.insert(1, -5);
        assert_eq!(b.pop_max(), Some((0, 5)));
        assert_eq!(b.pop_max(), Some((1, -5)));
    }

    #[test]
    fn contains_tracks_membership() {
        let mut b = BucketList::new(2, 0, 1);
        b.insert(0, 0);
        assert!(b.contains(0));
        assert!(!b.contains(1));
        assert_eq!(b.pop_max(), Some((0, 0)));
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
        assert!(b.peek_top(4).is_empty());
        assert!((0..4).all(|n| !b.contains(n)));
        b.insert(1, -4);
        assert_eq!(b.pop_max(), Some((1, -4)));
    }

    #[test]
    fn empty_pops_none() {
        let mut b = BucketList::new(0, 0, 0);
        assert_eq!(b.pop_max(), None);
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;

    /// Nodes `0..4` filed at gain 0 in id order, so the chain reads
    /// `3, 2, 1, 0` from its head, and node 4 alone at gain 2.
    fn filed() -> BucketList {
        let mut b = BucketList::new(5, -3, 3);
        for node in 0..4 {
            b.insert(node, 0);
        }
        b.insert(4, 2);
        b
    }

    fn drain(b: &mut BucketList) -> Vec<u32> {
        std::iter::from_fn(|| b.pop_max()).map(|(node, _)| node).collect()
    }

    #[test]
    fn unlinking_the_head_middle_or_tail_keeps_the_rest_in_order() {
        for (gone, rest) in [(3, [4, 2, 1, 0, 3]), (1, [4, 3, 2, 0, 1]), (0, [4, 3, 2, 1, 0])] {
            let mut b = filed();
            assert!(b.adjust_if_present(gone, -1));
            assert_eq!(drain(&mut b), rest, "after moving node {gone} down a gain");
        }
    }

    #[test]
    fn unlinking_the_only_member_empties_its_chain() {
        let mut b = filed();
        assert_eq!(b.pop_max(), Some((4, 2)));
        assert_eq!(b.peek_top(1), [3]);
        b.insert(4, 2);
        assert!(b.adjust_if_present(4, -4));
        assert_eq!(b.peek_top(1), [3]);
        assert_eq!(drain(&mut b), [3, 2, 1, 0, 4]);
    }

    #[test]
    fn a_zero_adjustment_leaves_the_node_in_place() {
        let mut b = filed();
        assert!(b.adjust_if_present(1, 0));
        assert!(b.adjust_if_present(0, 0));
        assert_eq!(drain(&mut b), [4, 3, 2, 1, 0]);
    }

    #[test]
    fn a_round_trip_adjustment_refiles_at_the_head() {
        let mut b = filed();
        assert!(b.adjust_if_present(1, 1));
        assert!(b.adjust_if_present(1, -1));
        assert_eq!(drain(&mut b), [4, 1, 3, 2, 0]);
    }

    #[test]
    fn adjusting_an_unindexed_node_changes_nothing() {
        let mut b = filed();
        let _ = b.pop_max();
        assert!(!b.adjust_if_present(4, 1));
        assert!(!b.contains(4));
        assert_eq!(drain(&mut b), [3, 2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_head_id_is_not_a_node() {
        let b = filed();
        let _ = b.contains(6);
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    #[should_panic(expected = "broken back-link at node 2")]
    fn the_structural_checker_catches_a_broken_back_link() {
        let mut b = filed();
        b.assert_consistent();
        b.links[2].prev = 1;
        b.assert_consistent();
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    #[should_panic(expected = "reads as an empty chain")]
    fn the_structural_checker_catches_a_self_linked_end_record() {
        let mut b = filed();
        b.links[5].next = 5;
        b.assert_consistent();
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
