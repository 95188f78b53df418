use rejection::{AugmentedGraph, AugmentedGraphBuilder};
use socialgraph::NodeId;

/// One friend request and its outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Sender.
    pub from: NodeId,
    /// Recipient (who accepts or rejects).
    pub to: NodeId,
    /// Whether the recipient accepted.
    pub accepted: bool,
}

/// The directed friend-request log of a simulated OSN.
///
/// Rejecto consumes its *projection*: accepted requests become undirected
/// friendships, rejected requests become rejection edges `⟨to, from⟩`.
/// VoteTrust consumes the log directly (its vote assignment walks the
/// directed request graph and its rating aggregation weighs each request's
/// response).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestLog {
    requests: Vec<Request>,
    num_nodes: usize,
}

impl RequestLog {
    /// An empty log over `num_nodes` users.
    pub fn new(num_nodes: usize) -> Self {
        RequestLog { requests: Vec::new(), num_nodes }
    }

    /// Number of users the log covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// All requests, in issue order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of logged requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Appends a request.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `from == to`.
    pub fn push(&mut self, from: NodeId, to: NodeId, accepted: bool) {
        assert!(
            from.index() < self.num_nodes && to.index() < self.num_nodes,
            "request ({from}, {to}) out of range for {} users",
            self.num_nodes
        );
        assert_ne!(from, to, "self-request");
        self.requests.push(Request { from, to, accepted });
    }

    /// Grows the user universe (new users start with no requests).
    pub fn grow(&mut self, extra: usize) {
        self.num_nodes += extra;
    }

    /// Projects the log onto a rejection-augmented graph: accepted →
    /// friendship, rejected → rejection `⟨to, from⟩`.
    pub fn to_augmented_graph(&self) -> AugmentedGraph {
        let mut b = AugmentedGraphBuilder::new(self.num_nodes);
        for r in &self.requests {
            if r.accepted {
                b.add_friendship(r.from, r.to);
            } else {
                b.add_rejection(r.to, r.from);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_maps_outcomes_to_edge_types() {
        let mut log = RequestLog::new(3);
        log.push(NodeId(0), NodeId(1), true);
        log.push(NodeId(2), NodeId(1), false);
        let g = log.to_augmented_graph();
        assert!(g.are_friends(NodeId(0), NodeId(1)));
        // 1 rejected 2's request.
        assert!(g.has_rejection(NodeId(1), NodeId(2)));
        assert_eq!(g.num_friendships(), 1);
        assert_eq!(g.num_rejections(), 1);
    }

    #[test]
    fn grow_extends_universe() {
        let mut log = RequestLog::new(1);
        log.grow(2);
        log.push(NodeId(0), NodeId(2), true);
        assert_eq!(log.num_nodes(), 3);
    }

    #[test]
    #[should_panic(expected = "self-request")]
    fn rejects_self_requests() {
        let mut log = RequestLog::new(2);
        log.push(NodeId(1), NodeId(1), true);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut log = RequestLog::new(2);
        log.push(NodeId(0), NodeId(5), true);
    }
}
