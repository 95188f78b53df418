//! Differential tests of the `.rjg` writer: `write_augmented` renders
//! each edge line with its own decimal routine, and must give exactly the
//! bytes of the `writeln!` rendering kept here as the reference.

use proptest::prelude::*;
use rejection::io::{read_augmented, write_augmented};
use rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeId};
use std::io::Write;

/// The format as `writeln!` renders it: the header, then node by node its
/// friendships to higher ids and the rejections it cast.
fn reference_bytes(g: &AugmentedGraph) -> Vec<u8> {
    let mut out = Vec::new();
    writeln!(out, "# rejecto augmented graph v1: nodes={}", g.num_nodes()).expect("Vec write");
    for u in g.nodes() {
        for &v in g.friends(u) {
            if u < v {
                writeln!(out, "F {u} {v}").expect("Vec write");
            }
        }
        for &v in g.rejected_by(u) {
            writeln!(out, "R {u} {v}").expect("Vec write");
        }
    }
    out
}

fn written(g: &AugmentedGraph) -> Vec<u8> {
    let mut out = Vec::new();
    write_augmented(g, &mut out).expect("write to Vec cannot fail");
    out
}

/// Writer and reference agree byte for byte, and the bytes load back to
/// the same graph.
fn assert_matches_reference(g: &AugmentedGraph) {
    let bytes = written(g);
    assert!(
        bytes == reference_bytes(g),
        "writer diverges from writeln!:\n{}",
        String::from_utf8_lossy(&bytes)
    );
    let back = read_augmented(bytes.as_slice()).expect("written file loads");
    assert_eq!(&back, g);
}

/// Node counts just around each power of ten, so ids of every width up
/// to six digits show up, and the widths change inside one graph.
const NODE_COUNTS: &[usize] = &[1, 2, 9, 10, 11, 99, 100, 101, 1_000, 10_001, 100_001];

fn graph_strategy() -> impl Strategy<Value = AugmentedGraph> {
    (0..NODE_COUNTS.len()).prop_flat_map(|i| {
        let n = NODE_COUNTS[i];
        let id = 0..u32::try_from(n).expect("node count fits u32");
        let edges = proptest::collection::vec((any::<bool>(), id.clone(), id), 0..48);
        (Just(n), edges).prop_map(|(n, edges)| {
            let mut b = AugmentedGraphBuilder::new(n);
            for (friend, u, v) in edges {
                if friend {
                    b.add_friendship(NodeId(u), NodeId(v));
                } else {
                    b.add_rejection(NodeId(u), NodeId(v));
                }
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_matches_writeln_and_roundtrips(g in graph_strategy()) {
        assert_matches_reference(&g);
    }
}

#[test]
fn digit_boundary_ids_match_writeln() {
    let ids: Vec<u32> = vec![
        0, 1, 9, 10, 11, 99, 100, 101, 999, 1_000, 9_999, 10_000, 99_999, 100_000, 123_456,
        999_998, 999_999,
    ];
    let mut b = AugmentedGraphBuilder::new(1_000_000);
    for (i, &u) in ids.iter().enumerate() {
        for &v in &ids[i + 1..] {
            b.add_friendship(NodeId(u), NodeId(v));
            b.add_rejection(NodeId(v), NodeId(u));
        }
    }
    let g = b.build();
    let pairs = u64::try_from(ids.len() * (ids.len() - 1) / 2).expect("pair count fits u64");
    assert_eq!(g.num_rejections(), pairs);
    assert_matches_reference(&g);
}

#[test]
fn empty_graphs_match_writeln() {
    assert_matches_reference(&AugmentedGraphBuilder::new(0).build());
    assert_matches_reference(&AugmentedGraphBuilder::new(7).build());
}
