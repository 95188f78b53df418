//! Debug-build invariant checkers for the detection pipeline, compiled only
//! under the `debug-invariants` feature.
//!
//! Two bookkeeping schemes in this crate are incremental and therefore
//! corruptible by a wrong delta: [`rejection::Partition`] maintains its
//! cross-edge counters through `switch`, and
//! [`crate::IterativeDetector::detect`] accumulates disjoint spammer groups
//! across pruning rounds. The checkers here re-derive both from scratch and
//! panic on the first disagreement. The partition check runs inside the
//! extended-KL kernel on every cut it returns, in-process or on the
//! cluster; the report check runs in the pruning loop. Both are public so
//! tests (and `cargo xtask check`'s determinism harness) can apply them to
//! arbitrary outputs.

use crate::DetectionReport;
use rejection::{AugmentedGraph, Partition};

/// Re-derives a partition's incremental cut counters from the graph and
/// asserts they match: coverage, the suspect count, `cross_friendships`
/// and `cross_rejections` ([`kl::assert_partition_counts`] over the
/// in-memory graph, the check the extended-KL kernel runs on every
/// partition it returns).
///
/// # Panics
///
/// Panics on the first counter that disagrees with recomputation.
pub fn assert_partition_bookkeeping(g: &AugmentedGraph, p: &Partition) {
    let mut source = g;
    let Ok(()) = kl::assert_partition_counts(&mut source, p);
}

/// Checks the pruning loop's accumulated state on the *original* graph `g`:
/// groups must be pairwise disjoint (a pruned node can never resurface),
/// every member must name a node of `g`, round numbers must be recorded in
/// order, and every group's acceptance rate must be a valid rate in
/// `[0, 1]`.
///
/// Per-round acceptance rates are deliberately NOT asserted monotone.
/// §IV-E's prune-and-repeat intuition (each round removes the currently
/// most-rejected group, so the residual graph looks more legitimate) holds
/// on the paper's spam scenarios and is pinned by scenario-level tests,
/// but it is not an invariant of the algorithm: the k-sweep runs a *local*
/// search, so a later round can surface a low-rate pocket the earlier
/// sweep missed — random small graphs with noise rejections produce
/// counterexamples (found by the checkpoint round-trip proptest).
///
/// # Panics
///
/// Panics on the first violated property.
pub fn assert_report_bookkeeping(g: &AugmentedGraph, report: &DetectionReport) {
    let mut seen = vec![false; g.num_nodes()];
    for group in &report.groups {
        assert!(
            group.round >= 1 && group.round <= report.rounds,
            "group round {} outside 1..={}",
            group.round,
            report.rounds
        );
        for &u in &group.nodes {
            assert!(
                u.index() < g.num_nodes(),
                "detected node {u} out of range ({} nodes)",
                g.num_nodes()
            );
            assert!(!seen[u.index()], "node {u} detected in two groups");
            seen[u.index()] = true;
        }
    }
    for group in &report.groups {
        assert!(
            (0.0..=1.0).contains(&group.acceptance_rate),
            "acceptance rate out of range in round {}: {}",
            group.round,
            group.acceptance_rate
        );
    }
    for w in report.groups.windows(2) {
        assert!(
            w[0].round < w[1].round,
            "group rounds out of order: {} then {}",
            w[0].round,
            w[1].round
        );
    }
}
