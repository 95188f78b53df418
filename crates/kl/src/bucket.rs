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
    pub(crate) prev: Vec<u32>,
    pub(crate) next: Vec<u32>,
    pub(crate) gain: Vec<i64>,
    pub(crate) present: Vec<bool>,
    /// Highest bucket index that may be non-empty.
    pub(crate) high: usize,
    pub(crate) len: usize,
}

pub(crate) const NIL: u32 = u32::MAX;

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
    /// Panics if `min_gain > max_gain`.
    pub fn new(num_nodes: usize, min_gain: i64, max_gain: i64) -> Self {
        let span = usize::try_from(max_gain.saturating_sub(min_gain).saturating_add(1))
            .expect("empty gain range: min_gain must be <= max_gain");
        BucketList {
            min_gain,
            heads: vec![NIL; span],
            prev: vec![NIL; num_nodes],
            next: vec![NIL; num_nodes],
            gain: vec![0; num_nodes],
            present: vec![false; num_nodes],
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
        self.present[ix(node)]
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
        debug_assert!(self.present[ix(node)], "node {node} not in bucket list");
        self.gain[ix(node)]
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

    /// Indexes `node` with `gain`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `gain` is outside the
    /// configured range; debug builds additionally assert that `node` is
    /// not already indexed (a double insert in release corrupts the
    /// chain, which `assert_consistent` detects).
    pub fn insert(&mut self, node: u32, gain: i64) {
        debug_assert!(!self.present[ix(node)], "node {node} already in bucket list");
        let b = self.bucket_of(gain);
        let head = self.heads[b];
        self.next[ix(node)] = head;
        self.prev[ix(node)] = NIL;
        if head != NIL {
            self.prev[ix(head)] = node;
        }
        self.heads[b] = node;
        self.gain[ix(node)] = gain;
        self.present[ix(node)] = true;
        self.high = self.high.max(b);
        self.len += 1;
    }

    /// Removes `node` from the index.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range; debug builds additionally assert
    /// that `node` is indexed.
    pub fn remove(&mut self, node: u32) {
        debug_assert!(self.present[ix(node)], "node {node} not in bucket list");
        let b = self.bucket_of(self.gain[ix(node)]);
        let (p, n) = (self.prev[ix(node)], self.next[ix(node)]);
        if p != NIL {
            self.next[ix(p)] = n;
        } else {
            self.heads[b] = n;
        }
        if n != NIL {
            self.prev[ix(n)] = p;
        }
        self.present[ix(node)] = false;
        self.len -= 1;
    }

    /// Changes the gain of an indexed node (no-op if unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `gain` is outside the
    /// configured range.
    pub fn update(&mut self, node: u32, gain: i64) {
        if self.gain[ix(node)] == gain && self.present[ix(node)] {
            return;
        }
        self.remove(node);
        self.insert(node, gain);
    }

    /// Adds `delta` to the gain of an indexed node.
    ///
    /// # Panics
    ///
    /// Panics as in [`update`](Self::update).
    pub fn adjust(&mut self, node: u32, delta: i64) {
        if delta == 0 {
            return;
        }
        let g = self.gain_of(node);
        self.update(node, g + delta);
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

    /// Removes and returns a node with the maximum gain.
    pub fn pop_max(&mut self) -> Option<(u32, i64)> {
        self.settle_high();
        if self.len == 0 {
            return None;
        }
        let node = self.heads[self.high];
        debug_assert_ne!(node, NIL);
        let gain = self.gain[ix(node)];
        self.remove(node);
        Some((node, gain))
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
    /// order), without removing them. Used by the distributed runtime to
    /// decide which nodes to prefetch (§V: "the prefetched nodes are those
    /// with the highest potential move gains in the bucket list").
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
                cur = self.next[ix(cur)];
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
