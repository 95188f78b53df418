//! Tests for the pipeline-level `debug-invariants` checkers (compiled only
//! with `cargo test --features debug-invariants -p rejecto-core`): silent
//! on well-formed bookkeeping, panicking on corrupted state.
#![cfg(feature = "debug-invariants")]

use rejecto_core::invariants::{assert_partition_bookkeeping, assert_report_bookkeeping};
use rejecto_core::{DetectedGroup, DetectionReport, KParam};
use rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeId, Partition, Region};

fn fixture() -> AugmentedGraph {
    let mut b = AugmentedGraphBuilder::new(5);
    b.add_friendship(NodeId(0), NodeId(1));
    b.add_friendship(NodeId(1), NodeId(2));
    b.add_friendship(NodeId(2), NodeId(3));
    b.add_rejection(NodeId(0), NodeId(4));
    b.add_rejection(NodeId(1), NodeId(4));
    b.build()
}

#[test]
fn partition_checker_accepts_consistent_counters() {
    let g = fixture();
    let mut p = Partition::all_legit(&g);
    p.switch(NodeId(4), g.neighbors(NodeId(4)));
    p.switch(NodeId(3), g.neighbors(NodeId(3)));
    p.switch(NodeId(3), g.neighbors(NodeId(3))); // and back — counters must round-trip
    assert_partition_bookkeeping(&g, &p);
}

#[test]
#[should_panic(expected = "partition covers")]
fn partition_checker_catches_coverage_mismatch() {
    let g = fixture();
    let smaller = AugmentedGraphBuilder::new(3).build();
    let p = Partition::all_legit(&smaller);
    assert_partition_bookkeeping(&g, &p);
}

#[test]
#[should_panic(expected = "cross_rejections")]
fn partition_checker_catches_drifted_rejection_counter() {
    let g = fixture();
    // Build a partition whose suspect region receives rejections, against
    // the *wrong* graph view: from_fn derives counters over `g`, so to
    // corrupt them we recreate the region assignment on a graph missing
    // the rejection edges, then validate against the full graph.
    let mut b = AugmentedGraphBuilder::new(5);
    b.add_friendship(NodeId(0), NodeId(1));
    b.add_friendship(NodeId(1), NodeId(2));
    b.add_friendship(NodeId(2), NodeId(3));
    let no_rejections = b.build();
    let p = Partition::from_fn(&no_rejections, |u| {
        if u == NodeId(4) {
            Region::Suspect
        } else {
            Region::Legit
        }
    });
    assert_partition_bookkeeping(&g, &p);
}

fn group(round: usize, rate: f64, nodes: &[u32]) -> DetectedGroup {
    DetectedGroup {
        nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
        acceptance_rate: rate,
        k: KParam::new(1, 1),
        round,
    }
}

#[test]
fn report_checker_accepts_disjoint_monotone_groups() {
    let g = fixture();
    let report = DetectionReport {
        groups: vec![group(1, 0.1, &[4]), group(2, 0.4, &[3])],
        rounds: 3,
        ..DetectionReport::default()
    };
    assert_report_bookkeeping(&g, &report);
}

#[test]
#[should_panic(expected = "detected in two groups")]
fn report_checker_catches_resurfacing_nodes() {
    let g = fixture();
    let report = DetectionReport {
        groups: vec![group(1, 0.1, &[4]), group(2, 0.4, &[4, 3])],
        rounds: 2,
        ..DetectionReport::default()
    };
    assert_report_bookkeeping(&g, &report);
}

#[test]
fn report_checker_tolerates_nonmonotone_rates() {
    // Non-decreasing per-round rates are a scenario-level expectation, not
    // an algorithm invariant: the k-sweep is a local search, so a later
    // round can legitimately surface a lower-rate pocket the earlier sweep
    // missed (random small graphs produce counterexamples).
    let g = fixture();
    let report = DetectionReport {
        groups: vec![group(1, 0.5, &[4]), group(2, 0.1, &[3])],
        rounds: 2,
        ..DetectionReport::default()
    };
    assert_report_bookkeeping(&g, &report);
}

#[test]
#[should_panic(expected = "acceptance rate out of range")]
fn report_checker_catches_invalid_rates() {
    let g = fixture();
    let report = DetectionReport {
        groups: vec![group(1, 1.5, &[4])],
        rounds: 1,
        ..DetectionReport::default()
    };
    assert_report_bookkeeping(&g, &report);
}
