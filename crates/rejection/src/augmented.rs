use socialgraph::{Graph, NodeId};

/// One user's three adjacency lists: everything a switch of that user
/// reads. [`AugmentedGraph::neighbors`] hands them out by reference; the
/// distributed runtime hands out the same view over adjacency fetched
/// from a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbors<'a> {
    /// Sorted friends.
    pub friends: &'a [NodeId],
    /// Sorted users whose requests this user rejected.
    pub rejected_by: &'a [NodeId],
    /// Sorted users who rejected this user's requests.
    pub rejectors_of: &'a [NodeId],
}

/// The sizes of one user's three adjacency lists: what sizing the gain
/// range and placing the warm start read of the graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeDegrees {
    /// Friendship degree.
    pub friends: u32,
    /// Rejections the user cast.
    pub rejected_by: u32,
    /// Rejections the user received.
    pub rejectors_of: u32,
}

impl NodeDegrees {
    /// The degrees of one adjacency view.
    pub fn of(n: Neighbors<'_>) -> Self {
        let len = |l: &[NodeId]| u32::try_from(l.len()).expect("degree fits the u32 id space");
        NodeDegrees {
            friends: len(n.friends),
            rejected_by: len(n.rejected_by),
            rejectors_of: len(n.rejectors_of),
        }
    }

    /// The degrees of every node of `g`, in id order.
    pub fn of_graph(g: &AugmentedGraph) -> Vec<Self> {
        g.nodes().map(|u| NodeDegrees::of(g.neighbors(u))).collect()
    }

    /// The request *rejection ratio*: rejections received over
    /// (friendships + rejections received), or `None` for a user with
    /// neither.
    pub fn rejection_ratio(&self) -> Option<f64> {
        let f = f64::from(self.friends);
        let r = f64::from(self.rejectors_of);
        if f + r == 0.0 {
            None
        } else {
            Some(r / (f + r))
        }
    }
}

/// The rejection-augmented social graph `G = (V, F, R⃗)`.
///
/// Friendships are undirected and deduplicated. Rejections are directed:
/// `⟨u, v⟩` records that `u` rejected `v`'s friend request (multiple
/// rejections between the same ordered pair collapse to one edge, per
/// §III-A). Both rejection directions are indexed so cut bookkeeping and
/// gain updates are `O(deg)`.
///
/// Storage is compressed sparse rows: one `adj` array holding, node after
/// node, each user's sorted friends, then the users it rejected, then the
/// users who rejected it. `offsets[3u..3u + 4]` bound those three segments,
/// so one switch reads one contiguous run of memory.
///
/// Construct with [`AugmentedGraphBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AugmentedGraph {
    /// `3·n + 1` segment bounds into `adj`: node `u`'s friends are
    /// `adj[offsets[3u]..offsets[3u + 1]]`, the users it rejected follow up
    /// to `offsets[3u + 2]`, and the users who rejected it up to
    /// `offsets[3u + 3]`.
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
    num_friendships: u64,
    num_rejections: u64,
}

/// Segment positions within a node's `offsets` window.
const FRIENDS: usize = 0;
const REJECTED_BY: usize = 1;
const REJECTORS_OF: usize = 2;

impl Default for AugmentedGraph {
    /// The graph with no users.
    fn default() -> Self {
        AugmentedGraph::from_csr(vec![0], Vec::new())
    }
}

impl AugmentedGraph {
    /// Wraps finished segments, counting the edges they hold.
    ///
    /// Edge counting uses checked arithmetic end to end: a hostile input
    /// cannot wrap the degree sums into silently-wrong totals.
    fn from_csr(offsets: Vec<usize>, adj: Vec<NodeId>) -> Self {
        let (mut friend_ends, mut num_rejections) = (0u64, 0u64);
        for o in offsets.chunks_exact(3) {
            let deg = |s: usize| u64::try_from(o[s + 1] - o[s]).expect("degree fits in u64");
            friend_ends =
                friend_ends.checked_add(deg(FRIENDS)).expect("friendship degree sum fits in u64");
            num_rejections = num_rejections
                .checked_add(deg(REJECTED_BY))
                .expect("rejection degree sum fits in u64");
        }
        AugmentedGraph { offsets, adj, num_friendships: friend_ends / 2, num_rejections }
    }

    /// Number of users.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() / 3
    }

    /// Number of undirected friendships `|F|`.
    #[inline]
    pub fn num_friendships(&self) -> u64 {
        self.num_friendships
    }

    /// Number of directed rejection edges `|R⃗|`.
    #[inline]
    pub fn num_rejections(&self) -> u64 {
        self.num_rejections
    }

    /// Sorted friends of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn friends(&self, u: NodeId) -> &[NodeId] {
        self.segment(u, FRIENDS)
    }

    /// Sorted list of users whose requests `u` rejected (out-edges of `u`
    /// in `R⃗`).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn rejected_by(&self, u: NodeId) -> &[NodeId] {
        self.segment(u, REJECTED_BY)
    }

    /// Sorted list of users who rejected `u`'s requests (in-edges of `u`
    /// in `R⃗`).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn rejectors_of(&self, u: NodeId) -> &[NodeId] {
        self.segment(u, REJECTORS_OF)
    }

    /// Segment `s` of `u`'s adjacency.
    #[inline]
    fn segment(&self, u: NodeId, s: usize) -> &[NodeId] {
        let i = 3 * u.index() + s;
        &self.adj[self.offsets[i]..self.offsets[i + 1]]
    }

    /// All three adjacency lists of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> Neighbors<'_> {
        let o = &self.offsets[3 * u.index()..3 * u.index() + 4];
        let all = &self.adj[o[0]..o[3]];
        let (friends, rest) = all.split_at(o[1] - o[0]);
        let (rejected_by, rejectors_of) = rest.split_at(o[2] - o[1]);
        Neighbors { friends, rejected_by, rejectors_of }
    }

    /// Friendship degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn friend_degree(&self, u: NodeId) -> usize {
        self.friends(u).len()
    }

    /// Number of rejections `u` received.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn rejections_received(&self, u: NodeId) -> usize {
        self.rejectors_of(u).len()
    }

    /// Whether `u` and `v` are friends.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn are_friends(&self, u: NodeId, v: NodeId) -> bool {
        self.friends(u).binary_search(&v).is_ok()
    }

    /// Whether the rejection edge `⟨u, v⟩` (u rejected v) exists.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn has_rejection(&self, u: NodeId, v: NodeId) -> bool {
        self.rejected_by(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let n = u32::try_from(self.num_nodes()).expect("node count fits the u32 id space");
        (0..n).map(NodeId)
    }

    /// Per-node request *rejection ratio*: rejections received over
    /// (friendships + rejections received). This is the individual-user
    /// feature that naive spam filters threshold on (and that collusion
    /// defeats — see the `fig13` experiment).
    ///
    /// Returns `None` for a user with no friendships and no rejections.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn rejection_ratio(&self, u: NodeId) -> Option<f64> {
        NodeDegrees::of(self.neighbors(u)).rejection_ratio()
    }

    /// The induced augmented subgraph on the nodes where `keep[u]` is true,
    /// densely relabeled. Returns the subgraph plus `original`, mapping each
    /// new id to its old id. Used when pruning detected spammer groups
    /// "with their links and rejections" (§IV-E).
    ///
    /// One filter pass over the segments: the relabeling preserves id
    /// order, so every kept segment stays sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.num_nodes()`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (AugmentedGraph, Vec<NodeId>) {
        assert_eq!(keep.len(), self.num_nodes(), "keep mask has wrong length");
        let mut new_id = vec![u32::MAX; self.num_nodes()];
        let mut original = Vec::new();
        for u in self.nodes() {
            if keep[u.index()] {
                new_id[u.index()] =
                    u32::try_from(original.len()).expect("kept node count fits the u32 id space");
                original.push(u);
            }
        }
        let mut offsets = Vec::with_capacity(3 * original.len() + 1);
        offsets.push(0);
        // An upper bound: pages the filter never writes are never touched.
        let mut adj = Vec::with_capacity(self.adj.len());
        for &orig in &original {
            for s in [FRIENDS, REJECTED_BY, REJECTORS_OF] {
                let kept = self.segment(orig, s).iter().map(|v| new_id[v.index()]);
                adj.extend(kept.filter(|&nv| nv != u32::MAX).map(NodeId));
                offsets.push(adj.len());
            }
        }
        (AugmentedGraph::from_csr(offsets, adj), original)
    }

    /// The friendship graph alone, as a [`socialgraph::Graph`] (used to hand
    /// the sterilized graph to SybilRank in the defense-in-depth pipeline).
    pub fn friendship_graph(&self) -> Graph {
        let mut b = socialgraph::GraphBuilder::new(self.num_nodes());
        for u in self.nodes() {
            for &v in self.friends(u) {
                if u < v {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }
}

/// Incremental constructor for [`AugmentedGraph`].
///
/// Edges are recorded in one insertion-order log, two endpoints and a
/// kind bit each, and [`build`](Self::build) counting-sorts the log into
/// the CSR segments. Self-loops are never logged; duplicates are dropped
/// at build time.
#[derive(Debug, Clone, Default)]
pub struct AugmentedGraphBuilder {
    num_nodes: usize,
    /// Every recorded edge in insertion order: `[u, v]` of a friendship,
    /// `[rejector, rejectee]` of a rejection.
    edges: Vec<[NodeId; 2]>,
    /// Bit `i` is set when `edges[i]` is a rejection.
    rejection_bits: Vec<u64>,
}

impl AugmentedGraphBuilder {
    /// Creates a builder for `num_nodes` users with no edges.
    pub fn new(num_nodes: usize) -> Self {
        AugmentedGraphBuilder { num_nodes, ..AugmentedGraphBuilder::default() }
    }

    /// Preloads all edges of `g` as friendships.
    pub fn from_graph(g: &Graph) -> Self {
        let mut b = AugmentedGraphBuilder::new(g.num_nodes());
        for (u, v) in g.edges() {
            b.add_friendship(u, v);
        }
        b
    }

    /// Number of users.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Appends `extra` isolated users, returning the first new id.
    pub fn add_nodes(&mut self, extra: usize) -> NodeId {
        let first = self.num_nodes;
        self.num_nodes = first.checked_add(extra).expect("node count fits in usize");
        NodeId::from_index(first)
    }

    /// Records the friendship `(u, v)` (an accepted request). A self-loop
    /// is dropped here, a duplicate at [`build`](Self::build) time.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_friendship(&mut self, u: NodeId, v: NodeId) {
        assert!(
            u.index() < self.num_nodes && v.index() < self.num_nodes,
            "friendship ({u}, {v}) out of range for {} nodes",
            self.num_nodes
        );
        if u != v {
            self.record(false, u, v);
        }
    }

    /// Records the rejection `⟨rejector, rejectee⟩`: `rejector` rejected a
    /// request sent by `rejectee`. A self-rejection is dropped here, a
    /// duplicate of the same ordered pair at [`build`](Self::build) time.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_rejection(&mut self, rejector: NodeId, rejectee: NodeId) {
        assert!(
            rejector.index() < self.num_nodes && rejectee.index() < self.num_nodes,
            "rejection ({rejector}, {rejectee}) out of range for {} nodes",
            self.num_nodes
        );
        if rejector != rejectee {
            self.record(true, rejector, rejectee);
        }
    }

    fn record(&mut self, rejection: bool, u: NodeId, v: NodeId) {
        let i = self.edges.len();
        if i.is_multiple_of(64) {
            self.rejection_bits.push(0);
        }
        self.set_kind(i, rejection);
        self.edges.push([u, v]);
    }

    fn is_rejection(&self, i: usize) -> bool {
        (self.rejection_bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets or clears kind bit `i`: [`retain`](Self::retain) leaves stale
    /// bits past the kept edges.
    fn set_kind(&mut self, i: usize, rejection: bool) {
        let (word, bit) = (&mut self.rejection_bits[i / 64], 1 << (i % 64));
        if rejection {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Number of logged edges, duplicates included.
    pub(crate) fn logged(&self) -> usize {
        self.edges.len()
    }

    /// The logged edges in insertion order, each with its kind (`true`
    /// for a rejection).
    pub(crate) fn log(&self) -> impl Iterator<Item = (bool, [NodeId; 2])> + '_ {
        self.edges.iter().enumerate().map(|(i, &e)| (self.is_rejection(i), e))
    }

    /// Keeps the logged edges whose insertion index `keep` accepts, in
    /// order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut kept = 0;
        for i in 0..self.edges.len() {
            if !keep(i) {
                continue;
            }
            self.set_kind(kept, self.is_rejection(i));
            self.edges[kept] = self.edges[i];
            kept += 1;
        }
        self.edges.truncate(kept);
        self.rejection_bits.truncate(kept.div_ceil(64));
    }

    /// Finalizes into an immutable [`AugmentedGraph`]: counting-sorts the
    /// edge log into the CSR segments, then sorts and deduplicates each
    /// segment in place.
    pub fn build(self) -> AugmentedGraph {
        self.build_flagging(false, |_, _| {})
    }

    /// [`build`](Self::build), calling `flag(u, v)` with `u < v` for every
    /// pair the log holds a repeat of: the same friendship or the same
    /// rejection twice, or, when `conflicts` is set, a friendship and a
    /// rejection in either direction. A pair may be flagged more than
    /// once.
    pub(crate) fn build_flagging(
        &self,
        conflicts: bool,
        mut flag: impl FnMut(NodeId, NodeId),
    ) -> AugmentedGraph {
        let segments = 3 * self.num_nodes;
        // The segment of `u` that holds `v`, and the one of `v` that holds `u`.
        let segments_of = |rejection: bool, [u, v]: [NodeId; 2]| {
            let (su, sv) = if rejection { (REJECTED_BY, REJECTORS_OF) } else { (FRIENDS, FRIENDS) };
            [3 * u.index() + su, 3 * v.index() + sv]
        };
        // Count each segment's entries, then turn the counts into segment
        // ends; scattering walks each end back to its segment's start.
        let mut offsets = vec![0usize; segments + 1];
        for (rejection, e) in self.log() {
            for s in segments_of(rejection, e) {
                offsets[s] += 1;
            }
        }
        let mut end = 0usize;
        for o in &mut offsets[..segments] {
            end = end.checked_add(*o).expect("edge total fits in usize");
            *o = end;
        }
        offsets[segments] = end;
        let mut adj = vec![NodeId(0); end];
        for (rejection, [u, v]) in self.log() {
            for (s, id) in segments_of(rejection, [u, v]).into_iter().zip([v, u]) {
                offsets[s] -= 1;
                adj[offsets[s]] = id;
            }
        }
        // Sort each segment and compact it left past the repeats dropped
        // so far; `offsets[i + 1]` still holds the old start of segment
        // `i + 1` when segment `i` is compacted.
        let mut w = 0;
        for u in 0..self.num_nodes {
            let node = NodeId::from_index(u);
            for s in [FRIENDS, REJECTED_BY, REJECTORS_OF] {
                let (start, stop) = (offsets[3 * u + s], offsets[3 * u + s + 1]);
                adj[start..stop].sort_unstable();
                let first = w;
                offsets[3 * u + s] = first;
                for r in start..stop {
                    let v = adj[r];
                    if w > first && adj[w - 1] == v {
                        // Each pair is flagged from one side only.
                        if s == REJECTED_BY || (s == FRIENDS && node < v) {
                            flag(node.min(v), node.max(v));
                        }
                        continue;
                    }
                    adj[w] = v;
                    w += 1;
                }
            }
            if conflicts {
                let o = &offsets[3 * u..3 * u + 3];
                let (friends, rejections) = adj[o[0]..w].split_at(o[1] - o[0]);
                let (cast, received) = rejections.split_at(o[2] - o[1]);
                for &v in friends.iter().filter(|&&v| node < v) {
                    if cast.binary_search(&v).is_ok() || received.binary_search(&v).is_ok() {
                        flag(node, v);
                    }
                }
            }
        }
        offsets[segments] = w;
        adj.truncate(w);
        AugmentedGraph::from_csr(offsets, adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AugmentedGraph {
        // 0-1 friends, 1-2 friends; 0 rejected 3; 3 rejected 2.
        let mut b = AugmentedGraphBuilder::new(4);
        b.add_friendship(NodeId(0), NodeId(1));
        b.add_friendship(NodeId(1), NodeId(2));
        b.add_rejection(NodeId(0), NodeId(3));
        b.add_rejection(NodeId(3), NodeId(2));
        b.build()
    }

    #[test]
    fn counts_friendships_and_rejections() {
        let g = sample();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_friendships(), 2);
        assert_eq!(g.num_rejections(), 2);
    }

    #[test]
    fn rejection_directions_are_indexed_both_ways() {
        let g = sample();
        assert_eq!(g.rejected_by(NodeId(0)), &[NodeId(3)]);
        assert_eq!(g.rejectors_of(NodeId(3)), &[NodeId(0)]);
        assert!(g.has_rejection(NodeId(0), NodeId(3)));
        assert!(!g.has_rejection(NodeId(3), NodeId(0)));
    }

    #[test]
    fn duplicate_rejections_collapse() {
        let mut b = AugmentedGraphBuilder::new(2);
        b.add_rejection(NodeId(0), NodeId(1));
        b.add_rejection(NodeId(0), NodeId(1));
        let g = b.build();
        assert_eq!(g.num_rejections(), 1);
    }

    #[test]
    fn opposite_direction_is_a_distinct_edge() {
        let mut b = AugmentedGraphBuilder::new(2);
        b.add_rejection(NodeId(0), NodeId(1));
        b.add_rejection(NodeId(1), NodeId(0));
        let g = b.build();
        assert_eq!(g.num_rejections(), 2);
    }

    #[test]
    fn self_edges_are_dropped() {
        let mut b = AugmentedGraphBuilder::new(1);
        b.add_friendship(NodeId(0), NodeId(0));
        b.add_rejection(NodeId(0), NodeId(0));
        let g = b.build();
        assert_eq!(g.num_friendships(), 0);
        assert_eq!(g.num_rejections(), 0);
    }

    #[test]
    fn rejection_ratio_matches_by_hand() {
        let g = sample();
        // Node 2: 1 friend, 1 rejection received → 0.5.
        assert_eq!(g.rejection_ratio(NodeId(2)), Some(0.5));
        // Node 1: friends only → 0.
        assert_eq!(g.rejection_ratio(NodeId(1)), Some(0.0));
    }

    #[test]
    fn rejection_ratio_of_isolate_is_none() {
        let g = AugmentedGraphBuilder::new(1).build();
        assert_eq!(g.rejection_ratio(NodeId(0)), None);
    }

    #[test]
    fn from_graph_preloads_friendships() {
        let host = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let g = AugmentedGraphBuilder::from_graph(&host).build();
        assert_eq!(g.num_friendships(), 2);
        assert!(g.are_friends(NodeId(0), NodeId(1)));
    }

    #[test]
    fn induced_subgraph_drops_pruned_edges() {
        let g = sample();
        // Keep nodes 0, 1, 2 (drop 3): rejections touching 3 vanish.
        let (sub, original) = g.induced_subgraph(&[true, true, true, false]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_friendships(), 2);
        assert_eq!(sub.num_rejections(), 0);
        assert_eq!(original, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_rejections() {
        let g = sample();
        let (sub, original) = g.induced_subgraph(&[true, false, true, true]);
        // 0 rejected 3 and 3 rejected 2 both survive (0, 2, 3 kept).
        assert_eq!(sub.num_rejections(), 2);
        assert_eq!(original, vec![NodeId(0), NodeId(2), NodeId(3)]);
        // Relabeled: old 3 is new 2; old 0 is new 0.
        assert!(sub.has_rejection(NodeId(0), NodeId(2)));
    }

    #[test]
    fn friendship_graph_roundtrip() {
        let g = sample();
        let fg = g.friendship_graph();
        assert_eq!(fg.num_edges(), 2);
        assert!(fg.has_edge(NodeId(0), NodeId(1)));
        assert!(fg.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn add_nodes_extends_all_indices() {
        let mut b = AugmentedGraphBuilder::new(1);
        let first = b.add_nodes(2);
        assert_eq!(first, NodeId(1));
        b.add_rejection(NodeId(2), NodeId(0));
        let g = b.build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.rejectors_of(NodeId(0)), &[NodeId(2)]);
    }
}
