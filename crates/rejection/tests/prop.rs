//! Property-based tests for the augmented graph and partition invariants.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeId, Partition, Region};
use socialgraph::Graph;
use std::collections::BTreeSet;

/// Strategy: a random augmented graph with up to `n` nodes plus edge lists.
fn augmented_graph(n: usize) -> impl Strategy<Value = AugmentedGraph> {
    let nodes = 2..n;
    nodes.prop_flat_map(|n| {
        let friend = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 3);
        let reject = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 3);
        (Just(n), friend, reject).prop_map(|(n, friend, reject)| {
            let mut b = AugmentedGraphBuilder::new(n);
            for (u, v) in friend {
                b.add_friendship(NodeId(u), NodeId(v));
            }
            for (u, v) in reject {
                b.add_rejection(NodeId(u), NodeId(v));
            }
            b.build()
        })
    })
}

proptest! {
    /// Incremental cut counters match a from-scratch recount after any
    /// sequence of single-node switches.
    #[test]
    fn switch_counters_match_recount(
        g in augmented_graph(24),
        moves in proptest::collection::vec(0u32..24, 1..64),
    ) {
        let mut p = Partition::all_legit(&g);
        for m in moves {
            let u = NodeId(m % g.num_nodes() as u32);
            p.switch(u, g.neighbors(u));
            let regions: Vec<Region> = g.nodes().map(|x| p.region(x)).collect();
            let fresh = Partition::from_regions(&g, regions);
            prop_assert_eq!(p.cross_friendships(), fresh.cross_friendships());
            prop_assert_eq!(p.cross_rejections(), fresh.cross_rejections());
            prop_assert_eq!(p.suspect_count(), fresh.suspect_count());
        }
    }

    /// switch_delta previews exactly what switch applies.
    #[test]
    fn delta_is_exact_preview(
        g in augmented_graph(20),
        node in 0u32..20,
        presuspect in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let n = g.num_nodes();
        let u = NodeId(node % n as u32);
        let regions: Vec<Region> = (0..n)
            .map(|i| if presuspect[i % presuspect.len()] { Region::Suspect } else { Region::Legit })
            .collect();
        let mut p = Partition::from_regions(&g, regions);
        let (df, dr) = p.switch_delta(u, g.neighbors(u));
        let (f0, r0) = (p.cross_friendships() as i64, p.cross_rejections() as i64);
        p.switch(u, g.neighbors(u));
        prop_assert_eq!(p.cross_friendships() as i64, f0 + df);
        prop_assert_eq!(p.cross_rejections() as i64, r0 + dr);
    }

    /// Double switch is the identity.
    #[test]
    fn double_switch_is_identity(g in augmented_graph(16), node in 0u32..16) {
        let u = NodeId(node % g.num_nodes() as u32);
        let mut p = Partition::all_legit(&g);
        let before = p.clone();
        p.switch(u, g.neighbors(u));
        p.switch(u, g.neighbors(u));
        prop_assert_eq!(p, before);
    }

    /// Acceptance rate, when defined, is a probability; cross counters are
    /// bounded by the graph totals.
    #[test]
    fn cut_counters_are_bounded(
        g in augmented_graph(20),
        presuspect in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let n = g.num_nodes();
        let regions: Vec<Region> = (0..n)
            .map(|i| if presuspect[i % presuspect.len()] { Region::Suspect } else { Region::Legit })
            .collect();
        let p = Partition::from_regions(&g, regions);
        prop_assert!(p.cross_friendships() <= g.num_friendships());
        prop_assert!(p.cross_rejections() <= g.num_rejections());
        if let Some(ac) = p.acceptance_rate() {
            prop_assert!((0.0..=1.0).contains(&ac));
        }
    }

    /// Induced subgraphs never contain edges touching dropped nodes, and
    /// edge counts never grow.
    #[test]
    fn induced_subgraph_is_consistent(
        g in augmented_graph(20),
        keep_bits in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let n = g.num_nodes();
        let keep: Vec<bool> = (0..n).map(|i| keep_bits[i % keep_bits.len()]).collect();
        let (sub, original) = g.induced_subgraph(&keep);
        prop_assert_eq!(sub.num_nodes(), keep.iter().filter(|&&k| k).count());
        prop_assert!(sub.num_friendships() <= g.num_friendships());
        prop_assert!(sub.num_rejections() <= g.num_rejections());
        // Every surviving friendship exists in the original graph.
        for u in sub.nodes() {
            for &v in sub.friends(u) {
                prop_assert!(g.are_friends(original[u.index()], original[v.index()]));
            }
            for &v in sub.rejected_by(u) {
                prop_assert!(g.has_rejection(original[u.index()], original[v.index()]));
            }
        }
    }
}

/// Asserts the storage invariants every [`AugmentedGraph`] holds: each
/// segment strictly ascending (sorted, no duplicates, no self-loop),
/// friendships symmetric, the rejected and rejectors segments mirror
/// images, `neighbors` the three segments, and the edge counts their
/// sizes.
fn assert_well_formed(g: &AugmentedGraph) {
    let (mut friend_ends, mut cast, mut received) = (0u64, 0u64, 0u64);
    for u in g.nodes() {
        let n = g.neighbors(u);
        prop_assert_eq!(n.friends, g.friends(u));
        prop_assert_eq!(n.rejected_by, g.rejected_by(u));
        prop_assert_eq!(n.rejectors_of, g.rejectors_of(u));
        for list in [n.friends, n.rejected_by, n.rejectors_of] {
            let ascending = list.windows(2).all(|w| w[0] < w[1]);
            prop_assert!(ascending, "segment of {} not strictly ascending", u);
            prop_assert!(!list.contains(&u), "self-loop at {}", u);
        }
        for &v in n.friends {
            prop_assert!(g.are_friends(v, u), "friendship {}-{} one-sided", u, v);
        }
        for &v in n.rejected_by {
            let mirrored = g.rejectors_of(v).binary_search(&u).is_ok();
            prop_assert!(mirrored, "rejection {}->{} not mirrored", u, v);
        }
        for &v in n.rejectors_of {
            prop_assert!(g.has_rejection(v, u), "rejection {}->{} not mirrored", v, u);
        }
        friend_ends += n.friends.len() as u64;
        cast += n.rejected_by.len() as u64;
        received += n.rejectors_of.len() as u64;
    }
    prop_assert_eq!(g.num_friendships() * 2, friend_ends);
    prop_assert_eq!(g.num_rejections(), cast);
    prop_assert_eq!(g.num_rejections(), received);
}

/// The oracle for `induced_subgraph`: the kept edges, relabeled densely in
/// id order, fed through the builder.
fn rebuilt_subgraph(g: &AugmentedGraph, keep: &[bool]) -> AugmentedGraph {
    let mut new_id = vec![None; g.num_nodes()];
    let mut kept = 0u32;
    for u in g.nodes() {
        if keep[u.index()] {
            new_id[u.index()] = Some(NodeId(kept));
            kept += 1;
        }
    }
    let mut b = AugmentedGraphBuilder::new(kept as usize);
    for u in g.nodes() {
        let Some(nu) = new_id[u.index()] else { continue };
        for &v in g.friends(u) {
            if let Some(nv) = new_id[v.index()] {
                b.add_friendship(nu, nv);
            }
        }
        for &v in g.rejected_by(u) {
            if let Some(nv) = new_id[v.index()] {
                b.add_rejection(nu, nv);
            }
        }
    }
    b.build()
}

/// One builder call of a generated script: `(op, a, b)`, with `a` and `b`
/// taken modulo the node count at that point.
type BuilderOp = (u8, u32, u32);

/// The node count and the edges a script records, deduplicated:
/// friendships as `(min, max)`, rejections as `(rejector, rejectee)`,
/// self-loops dropped.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct EdgeSets {
    nodes: usize,
    friendships: BTreeSet<(u32, u32)>,
    rejections: BTreeSet<(u32, u32)>,
}

/// Runs a script on a builder preloaded from `host`: friendships in both
/// orientations, rejections, a repeat of the previous call, and
/// `add_nodes` between edges. Returns the graph, every edge call in the
/// order made (`true` for a rejection), and the node count and
/// deduplicated edge sets it should have.
fn run_script(
    host: &Graph,
    ops: &[BuilderOp],
) -> (AugmentedGraph, Vec<(bool, NodeId, NodeId)>, EdgeSets) {
    let mut b = AugmentedGraphBuilder::from_graph(host);
    let mut calls: Vec<(bool, NodeId, NodeId)> = host.edges().map(|(u, v)| (false, u, v)).collect();
    let mut sets = EdgeSets { nodes: host.num_nodes(), ..EdgeSets::default() };
    for &(op, a, c) in ops {
        let n = sets.nodes as u32;
        let (u, v) = (NodeId(a % n), NodeId(c % n));
        let call = match op {
            0..=2 => (false, u, v),
            3 => (false, v, u),
            4..=5 => (true, u, v),
            6 => match calls.last() {
                Some(&last) => last,
                None => continue,
            },
            _ => {
                let first = b.add_nodes(a as usize % 3);
                assert_eq!(first.index(), sets.nodes);
                sets.nodes += a as usize % 3;
                continue;
            }
        };
        calls.push(call);
        match call {
            (false, u, v) => b.add_friendship(u, v),
            (true, u, v) => b.add_rejection(u, v),
        }
    }
    for &(rejection, u, v) in calls.iter().filter(|(_, u, v)| u != v) {
        if rejection {
            sets.rejections.insert((u.0, v.0));
        } else {
            sets.friendships.insert((u.0.min(v.0), u.0.max(v.0)));
        }
    }
    (b.build(), calls, sets)
}

/// The edge sets an [`AugmentedGraph`] holds.
fn edge_sets(g: &AugmentedGraph) -> EdgeSets {
    let mut sets = EdgeSets { nodes: g.num_nodes(), ..EdgeSets::default() };
    for u in g.nodes() {
        sets.friendships.extend(g.friends(u).iter().filter(|&&v| u < v).map(|v| (u.0, v.0)));
        sets.rejections.extend(g.rejected_by(u).iter().map(|v| (u.0, v.0)));
    }
    sets
}

proptest! {
    /// The flattened layout holds every storage invariant, and the
    /// one-pass induced subgraph is exactly the graph the builder makes
    /// from the kept edges.
    ///
    /// The builder itself is checked on scripts full of what it must
    /// drop: repeated friendships in both orientations, repeated
    /// rejections and self-loops, with `add_nodes` between edges and a
    /// `from_graph` start. Each build equals the graph built from the
    /// deduplicated edge set, and so does a build of the same calls in a
    /// shuffled order.
    #[test]
    fn csr_layout_matches_the_builder(
        g in augmented_graph(24),
        keep_bits in proptest::collection::vec(any::<bool>(), 24),
        (host_n, host_edges) in (1usize..10).prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32);
            (Just(n), proptest::collection::vec(edge, 0..n * 2))
        }),
        ops in proptest::collection::vec((0u8..8, 0u32..64, 0u32..64), 0..64),
        shuffle_seed in any::<u32>(),
    ) {
        let host = Graph::from_edges(host_n, host_edges);
        let (scripted, mut calls, sets) = run_script(&host, &ops);
        assert_well_formed(&scripted);
        prop_assert_eq!(&edge_sets(&scripted), &sets);
        let mut dedup = AugmentedGraphBuilder::new(sets.nodes);
        for &(u, v) in &sets.friendships {
            dedup.add_friendship(NodeId(u), NodeId(v));
        }
        for &(u, v) in &sets.rejections {
            dedup.add_rejection(NodeId(u), NodeId(v));
        }
        prop_assert_eq!(&scripted, &dedup.build());
        calls.shuffle(&mut ChaCha8Rng::seed_from_u64(u64::from(shuffle_seed)));
        let mut shuffled = AugmentedGraphBuilder::new(sets.nodes);
        for (rejection, u, v) in calls {
            if rejection {
                shuffled.add_rejection(u, v);
            } else {
                shuffled.add_friendship(u, v);
            }
        }
        prop_assert_eq!(&scripted, &shuffled.build());

        assert_well_formed(&g);
        let keep: Vec<bool> = (0..g.num_nodes()).map(|i| keep_bits[i % keep_bits.len()]).collect();
        let (sub, original) = g.induced_subgraph(&keep);
        assert_well_formed(&sub);
        prop_assert_eq!(&sub, &rebuilt_subgraph(&g, &keep));
        let expect: Vec<NodeId> = g.nodes().filter(|u| keep[u.index()]).collect();
        prop_assert_eq!(original, expect);
    }
}
