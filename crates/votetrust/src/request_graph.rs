use socialgraph::NodeId;

/// The directed friend-request graph: who asked whom, and the response.
///
/// Parallel requests between the same ordered pair are kept (each carries
/// its own response), matching VoteTrust's per-request vote aggregation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestGraph {
    /// `out[u]` = requests sent by `u`: `(recipient, accepted)`.
    out: Vec<Vec<(NodeId, bool)>>,
    /// `inc[u]` = requests received by `u`: `(sender, accepted)`.
    inc: Vec<Vec<(NodeId, bool)>>,
    num_requests: u64,
}

impl RequestGraph {
    /// An empty request graph over `num_nodes` users.
    pub fn new(num_nodes: usize) -> Self {
        RequestGraph {
            out: vec![Vec::new(); num_nodes],
            inc: vec![Vec::new(); num_nodes],
            num_requests: 0,
        }
    }

    /// Builds from `(sender, recipient, accepted)` triples.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or a request is a self-loop.
    pub fn from_requests<I>(num_nodes: usize, requests: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId, bool)>,
    {
        let mut g = RequestGraph::new(num_nodes);
        for (from, to, accepted) in requests {
            g.add_request(from, to, accepted);
        }
        g
    }

    /// Records one request and its response.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `from == to`.
    pub fn add_request(&mut self, from: NodeId, to: NodeId, accepted: bool) {
        assert!(
            from.index() < self.out.len() && to.index() < self.out.len(),
            "request ({from}, {to}) out of range for {} users",
            self.out.len()
        );
        assert_ne!(from, to, "self-request");
        self.out[from.index()].push((to, accepted));
        self.inc[to.index()].push((from, accepted));
        self.num_requests += 1;
    }

    /// Number of users.
    pub fn num_nodes(&self) -> usize {
        self.out.len()
    }

    /// Number of requests.
    pub fn num_requests(&self) -> u64 {
        self.num_requests
    }

    /// Requests sent by `u` as `(recipient, accepted)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn sent(&self, u: NodeId) -> &[(NodeId, bool)] {
        &self.out[u.index()]
    }

    /// Requests received by `u` as `(sender, accepted)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn received(&self, u: NodeId) -> &[(NodeId, bool)] {
        &self.inc[u.index()]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let n = u32::try_from(self.out.len()).expect("node ids fit in u32");
        (0..n).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_both_directions() {
        let g = RequestGraph::from_requests(
            3,
            [(NodeId(0), NodeId(1), true), (NodeId(2), NodeId(1), false)],
        );
        assert_eq!(g.sent(NodeId(0)), &[(NodeId(1), true)]);
        assert_eq!(g.received(NodeId(1)), &[(NodeId(0), true), (NodeId(2), false)]);
        assert_eq!(g.num_requests(), 2);
    }

    #[test]
    fn keeps_parallel_requests() {
        let g = RequestGraph::from_requests(
            2,
            [(NodeId(0), NodeId(1), false), (NodeId(0), NodeId(1), true)],
        );
        assert_eq!(g.sent(NodeId(0)), &[(NodeId(1), false), (NodeId(1), true)]);
    }

    #[test]
    #[should_panic(expected = "self-request")]
    fn rejects_self_requests() {
        let mut g = RequestGraph::new(1);
        g.add_request(NodeId(0), NodeId(0), true);
    }
}
