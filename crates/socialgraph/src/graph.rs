use crate::{GraphError, NodeId};

/// An undirected simple graph over dense node ids `0..num_nodes`.
///
/// Storage is an adjacency list with each neighbor list sorted, so
/// [`Graph::has_edge`] is a binary search and neighbor intersection (used by
/// the clustering-coefficient metric) is a linear merge.
///
/// `Graph` is immutable; construct one through [`GraphBuilder`], which
/// deduplicates parallel edges and drops self-loops.
///
/// ```
/// use socialgraph::{Graph, GraphBuilder, NodeId};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2), (1, 2)]);
/// assert_eq!(g.num_edges(), 2);
/// assert!(g.has_edge(NodeId(1), NodeId(2)));
/// assert!(!g.has_edge(NodeId(0), NodeId(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    num_edges: u64,
}

impl Graph {
    /// Builds a graph with `num_nodes` nodes from an iterator of `(u, v)`
    /// pairs given as raw `u32` ids. Convenience wrapper over
    /// [`GraphBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edges<I>(num_nodes: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut b = GraphBuilder::new(num_nodes);
        for (u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build()
    }

    /// Number of nodes (including isolated ones).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// The sorted neighbor list of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u.index()]
    }

    /// Whether the undirected edge `(u, v)` exists.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u.index()].binary_search(&v).is_ok()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let n = u32::try_from(self.adj.len()).expect("node count fits the u32 id space");
        (0..n).map(NodeId)
    }

    /// Iterator over every undirected edge exactly once, as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> EdgesIter<'_> {
        EdgesIter { graph: self, u: 0, pos: 0 }
    }

    /// Validates that `u` names a node of this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if it does not.
    pub fn check_node(&self, u: NodeId) -> Result<(), GraphError> {
        if u.index() < self.adj.len() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange { node: u.0, num_nodes: self.adj.len() })
        }
    }
}

/// Iterator over the edges of a [`Graph`]; see [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct EdgesIter<'a> {
    graph: &'a Graph,
    u: u32,
    pos: usize,
}

impl Iterator for EdgesIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        while NodeId(self.u).index() < self.graph.adj.len() {
            let list = &self.graph.adj[NodeId(self.u).index()];
            while self.pos < list.len() {
                let v = list[self.pos];
                self.pos += 1;
                if self.u < v.0 {
                    return Some((NodeId(self.u), v));
                }
            }
            self.u += 1;
            self.pos = 0;
        }
        None
    }
}

/// Incremental constructor for [`Graph`].
///
/// Deduplicates parallel edges and silently ignores self-loops, matching how
/// the paper treats multiple rejections between the same pair ("we denote
/// them as a single rejection edge") and how SNAP edge lists are cleaned.
///
/// ```
/// use socialgraph::{GraphBuilder, NodeId};
/// let mut b = GraphBuilder::new(2);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(0)); // duplicate, ignored
/// b.add_edge(NodeId(0), NodeId(0)); // self-loop, ignored
/// assert_eq!(b.build().num_edges(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    adj: Vec<Vec<NodeId>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder { adj: vec![Vec::new(); num_nodes] }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Appends `extra` new isolated nodes and returns the id of the first
    /// one. Used by the attack simulator to graft a Sybil region onto a
    /// host graph.
    pub fn add_nodes(&mut self, extra: usize) -> NodeId {
        let first = self.adj.len();
        self.adj.resize(self.adj.len() + extra, Vec::new());
        NodeId::from_index(first)
    }

    /// Adds the undirected edge `(u, v)`. Duplicate edges and self-loops are
    /// ignored. Returns `true` if the edge was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            u.index() < self.adj.len() && v.index() < self.adj.len(),
            "edge ({u}, {v}) out of range for {} nodes",
            self.adj.len()
        );
        if u == v {
            return false;
        }
        // Probe the smaller list to keep duplicate detection cheap during
        // generation (lists are unsorted until `build`).
        let (probe, other) = if self.adj[u.index()].len() <= self.adj[v.index()].len() {
            (u, v)
        } else {
            (v, u)
        };
        if self.adj[probe.index()].contains(&other) {
            return false;
        }
        self.adj[u.index()].push(v);
        self.adj[v.index()].push(u);
        true
    }

    /// Whether the edge `(u, v)` has already been added.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (probe, other) = if self.adj[u.index()].len() <= self.adj[v.index()].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[probe.index()].contains(&other)
    }

    /// Current degree of `u` among edges added so far.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Finalizes into an immutable [`Graph`] with sorted adjacency.
    ///
    /// Edge counting uses checked arithmetic end to end: a hostile input
    /// cannot wrap the degree sum into a silently-wrong `num_edges`.
    pub fn build(mut self) -> Graph {
        let mut num_edges = 0u64;
        for list in &mut self.adj {
            list.sort_unstable();
            list.dedup();
            let deg = u64::try_from(list.len()).expect("degree fits in u64");
            num_edges = num_edges.checked_add(deg).expect("degree sum fits in u64");
        }
        let g = Graph { adj: self.adj, num_edges: num_edges / 2 };
        #[cfg(feature = "debug-invariants")]
        g.assert_invariants();
        g
    }
}

#[cfg(feature = "debug-invariants")]
impl Graph {
    /// Exhaustively re-checks the structural invariants every kernel in the
    /// workspace assumes of adjacency storage: sorted, deduplicated,
    /// self-loop-free neighbor lists; symmetry (`v ∈ adj[u] ⇔ u ∈ adj[v]`);
    /// and the degree-sum identity `Σ deg(u) = 2·|E|`. `O(Σ deg · log deg)`,
    /// so it is compiled only under the `debug-invariants` feature;
    /// [`GraphBuilder::build`] calls it automatically after every graph
    /// construction (the only mutation point — `Graph` itself is immutable).
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn assert_invariants(&self) {
        let n = self.adj.len();
        let mut degree_sum = 0u64;
        for (i, list) in self.adj.iter().enumerate() {
            let u = NodeId::from_index(i);
            let deg = u64::try_from(list.len()).expect("degree fits in u64");
            degree_sum = degree_sum.checked_add(deg).expect("degree sum fits in u64");
            for w in list.windows(2) {
                assert!(
                    w[0] < w[1],
                    "adjacency of {u} unsorted or duplicated: {} before {}",
                    w[0],
                    w[1]
                );
            }
            for &v in list {
                assert!(v.index() < n, "neighbor {v} of {u} out of range ({n} nodes)");
                assert_ne!(v, u, "self-loop on {u}");
                assert!(
                    self.adj[v.index()].binary_search(&u).is_ok(),
                    "asymmetric adjacency: {v} ∈ adj[{u}] but {u} ∉ adj[{v}]"
                );
            }
        }
        assert_eq!(
            degree_sum,
            2 * self.num_edges,
            "degree sum {degree_sum} disagrees with 2·|E| = {}",
            2 * self.num_edges
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_isolate() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn counts_nodes_and_edges() {
        let g = triangle_plus_isolate();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(4, [(2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn self_loops_are_ignored() {
        let g = Graph::from_edges(2, [(0, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle_plus_isolate();
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(3), NodeId(0)));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle_plus_isolate();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn add_nodes_extends_graph() {
        let mut b = GraphBuilder::new(2);
        let first = b.add_nodes(3);
        assert_eq!(first, NodeId(2));
        assert_eq!(b.num_nodes(), 5);
        b.add_edge(NodeId(1), NodeId(4));
        let g = b.build();
        assert_eq!(g.num_nodes(), 5);
        assert!(g.has_edge(NodeId(1), NodeId(4)));
    }

    #[test]
    fn check_node_rejects_out_of_range() {
        let g = triangle_plus_isolate();
        assert!(g.check_node(NodeId(3)).is_ok());
        assert!(g.check_node(NodeId(4)).is_err());
    }

    #[test]
    fn builder_add_edge_reports_insertion() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge(NodeId(0), NodeId(1)));
        assert!(!b.add_edge(NodeId(1), NodeId(0)));
        assert!(!b.add_edge(NodeId(2), NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_panics_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(5));
    }
}
