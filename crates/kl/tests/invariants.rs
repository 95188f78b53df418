//! Tests for the `debug-invariants` checkers: they must stay silent on a
//! faithful gain index and panic on a corrupted one. Compiled only when
//! the feature is on (`cargo test --features debug-invariants -p kl`).
#![cfg(feature = "debug-invariants")]

use kl::{carry, BucketList, DegreeSummary, ExtendedKl, ExtendedKlConfig, KParam, SwitchDelta};
use rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeDegrees, NodeId, Partition};

/// Three legit users in a path; one spammer rejected by two of them.
fn fixture() -> AugmentedGraph {
    let mut b = AugmentedGraphBuilder::new(4);
    b.add_friendship(NodeId(0), NodeId(1));
    b.add_friendship(NodeId(1), NodeId(2));
    b.add_friendship(NodeId(0), NodeId(3));
    b.add_rejection(NodeId(1), NodeId(3));
    b.add_rejection(NodeId(2), NodeId(3));
    b.build()
}

fn k() -> KParam {
    KParam::new(1, 1)
}

/// The gain `ExtendedKl` indexes, recomputed through the public
/// `switch_delta` primitive: `num·Δrejections − den·Δfriendships`.
fn true_gain(g: &AugmentedGraph, p: &Partition, u: NodeId) -> i64 {
    let (df, dr) = p.switch_delta(u, g.neighbors(u));
    k().num() as i64 * dr - k().den() as i64 * df
}

fn solver(g: &AugmentedGraph) -> ExtendedKl<&AugmentedGraph> {
    ExtendedKl::new(g, ExtendedKlConfig::new(k()), &DegreeSummary::new(NodeDegrees::of_graph(g)))
}

/// A gain index and carried deltas that agree with `p`.
fn faithful_index(g: &AugmentedGraph, p: &Partition) -> (BucketList, Vec<SwitchDelta>) {
    let mut bucket = BucketList::new(g.num_nodes(), -16, 16);
    for u in g.nodes() {
        bucket.insert(u.0, true_gain(g, p, u));
    }
    let deltas = g.nodes().map(|u| carry(p.switch_delta(u, g.neighbors(u)))).collect();
    (bucket, deltas)
}

#[test]
fn gain_checker_accepts_a_faithful_index() {
    let g = fixture();
    let mut kl = solver(&g);
    let p = Partition::all_legit(&g);
    let (bucket, deltas) = faithful_index(&g, &p);
    kl.assert_gain_index(&p, &bucket, &deltas).expect("in-memory source"); // must not panic
}

#[test]
#[should_panic(expected = "gain index corrupt")]
fn gain_checker_catches_a_corrupted_bucket() {
    let g = fixture();
    let mut kl = solver(&g);
    let p = Partition::all_legit(&g);
    let (mut bucket, deltas) = faithful_index(&g, &p);
    // Deliberate corruption: nudge one node's indexed gain off the value
    // switch_delta derives — exactly the drift a wrong incremental
    // neighbor adjustment in one_pass would produce.
    let victim = NodeId(3);
    assert!(bucket.adjust_if_present(victim.0, 3));
    kl.assert_gain_index(&p, &bucket, &deltas).expect("in-memory source");
}

#[test]
#[should_panic(expected = "carried delta corrupt")]
fn gain_checker_catches_a_corrupted_delta() {
    let g = fixture();
    let mut kl = solver(&g);
    let p = Partition::all_legit(&g);
    let (bucket, mut deltas) = faithful_index(&g, &p);
    // A delta off by a friendship and a rejection whose gain is unchanged
    // under k = 1: only the delta check can see it.
    let (df, dr) = deltas[3];
    deltas[3] = (df + 1, dr + 1);
    kl.assert_gain_index(&p, &bucket, &deltas).expect("in-memory source");
}

#[test]
#[should_panic(expected = "gain index corrupt")]
fn gain_checker_catches_a_stale_index_after_partition_moves() {
    let g = fixture();
    let mut kl = solver(&g);
    let mut p = Partition::all_legit(&g);
    let (bucket, deltas) = faithful_index(&g, &p);
    // Move a node without refreshing the index: neighbors' gains go stale.
    p.switch(NodeId(3), g.neighbors(NodeId(3)));
    kl.assert_gain_index(&p, &bucket, &deltas).expect("in-memory source");
}

#[test]
fn structural_checker_accepts_a_live_bucket() {
    let mut b = BucketList::new(6, -5, 5);
    for (n, gain) in [(0u32, 3i64), (1, -2), (2, 3), (3, 0), (4, 5)] {
        b.insert(n, gain);
    }
    b.assert_consistent();
    assert!(b.adjust_if_present(1, 6));
    assert!(b.adjust_if_present(2, 0));
    assert!(b.adjust_if_present(0, -1));
    let _ = b.pop_max();
    b.assert_consistent();
}

#[test]
fn full_kl_run_passes_the_checkers_on_every_pass() {
    // End-to-end: `run` checks every carried delta at each pass start and
    // exercises assert_gain_index and the potential check after the
    // initial fill and after every single move. A wrong incremental update
    // or replay anywhere would panic here rather than silently degrade cut
    // quality.
    let g = fixture();
    let kl = solver(&g);
    let out = kl.run(Partition::all_legit(&g));
    assert_eq!(out.partition.suspects(), vec![NodeId(3)]);
}
