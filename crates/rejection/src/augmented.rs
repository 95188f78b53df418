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
#[derive(Debug, Clone, Default)]
pub struct AugmentedGraphBuilder {
    friends: Vec<Vec<NodeId>>,
    rejected_by_me: Vec<Vec<NodeId>>,
    rejectors_of_me: Vec<Vec<NodeId>>,
}

impl AugmentedGraphBuilder {
    /// Creates a builder for `num_nodes` users with no edges.
    pub fn new(num_nodes: usize) -> Self {
        AugmentedGraphBuilder {
            friends: vec![Vec::new(); num_nodes],
            rejected_by_me: vec![Vec::new(); num_nodes],
            rejectors_of_me: vec![Vec::new(); num_nodes],
        }
    }

    /// Preloads all edges of `g` as friendships.
    pub fn from_graph(g: &Graph) -> Self {
        let mut b = AugmentedGraphBuilder::new(g.num_nodes());
        for (u, v) in g.edges() {
            b.friends[u.index()].push(v);
            b.friends[v.index()].push(u);
        }
        b
    }

    /// Number of users.
    pub fn num_nodes(&self) -> usize {
        self.friends.len()
    }

    /// Appends `extra` isolated users, returning the first new id.
    pub fn add_nodes(&mut self, extra: usize) -> NodeId {
        let first = self.friends.len();
        self.friends.resize(first + extra, Vec::new());
        self.rejected_by_me.resize(first + extra, Vec::new());
        self.rejectors_of_me.resize(first + extra, Vec::new());
        NodeId::from_index(first)
    }

    /// Records the friendship `(u, v)` (an accepted request). Duplicates and
    /// self-loops are dropped at [`build`](Self::build) time.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_friendship(&mut self, u: NodeId, v: NodeId) {
        assert!(
            u.index() < self.friends.len() && v.index() < self.friends.len(),
            "friendship ({u}, {v}) out of range for {} nodes",
            self.friends.len()
        );
        if u == v {
            return;
        }
        self.friends[u.index()].push(v);
        self.friends[v.index()].push(u);
    }

    /// Records the rejection `⟨rejector, rejectee⟩`: `rejector` rejected a
    /// request sent by `rejectee`. Duplicates of the same ordered pair and
    /// self-rejections are dropped at [`build`](Self::build) time.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_rejection(&mut self, rejector: NodeId, rejectee: NodeId) {
        assert!(
            rejector.index() < self.friends.len() && rejectee.index() < self.friends.len(),
            "rejection ({rejector}, {rejectee}) out of range for {} nodes",
            self.friends.len()
        );
        if rejector == rejectee {
            return;
        }
        self.rejected_by_me[rejector.index()].push(rejectee);
        self.rejectors_of_me[rejectee.index()].push(rejector);
    }

    /// Whether the friendship `(u, v)` has already been recorded (either
    /// endpoint order). Loaders use this to give hostile inputs a typed
    /// duplicate-edge rejection instead of silently collapsing at build
    /// time. `O(deg)` probe over the unsorted pending list.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn contains_friendship(&self, u: NodeId, v: NodeId) -> bool {
        self.friends[u.index()].contains(&v)
    }

    /// Whether the directed rejection `⟨rejector, rejectee⟩` has already
    /// been recorded. Loaders use this to reject duplicate rejection lines
    /// and friend+rejection conflicts with a typed error. `O(deg)` probe
    /// over the unsorted pending list.
    ///
    /// # Panics
    ///
    /// Panics if `rejector` is out of range.
    pub fn contains_rejection(&self, rejector: NodeId, rejectee: NodeId) -> bool {
        self.rejected_by_me[rejector.index()].contains(&rejectee)
    }

    /// Finalizes into an immutable [`AugmentedGraph`], sorting and
    /// deduplicating all adjacency lists and flattening them into one
    /// array.
    pub fn build(self) -> AugmentedGraph {
        let total = [&self.friends, &self.rejected_by_me, &self.rejectors_of_me]
            .iter()
            .flat_map(|lists| lists.iter().map(Vec::len))
            .fold(0usize, |acc, len| acc.checked_add(len).expect("edge total fits in usize"));
        let mut offsets = Vec::with_capacity(3 * self.num_nodes() + 1);
        offsets.push(0);
        let mut adj = Vec::with_capacity(total);
        let lists = self.friends.into_iter().zip(self.rejected_by_me).zip(self.rejectors_of_me);
        for ((friends, rejected), rejectors) in lists {
            for mut list in [friends, rejected, rejectors] {
                list.sort_unstable();
                list.dedup();
                adj.extend_from_slice(&list);
                offsets.push(adj.len());
            }
        }
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
