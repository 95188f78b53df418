//! Property-based tests for the bucket list and the extended KL solver.

use kl::{BucketList, ExtendedKl, ExtendedKlConfig, KParam};
use proptest::prelude::*;
use rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeId, Partition};

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, i64),
    Remove(u32),
    Update(u32, i64),
    Adjust(u32, i64),
    PopMax,
    PeekTop(usize),
}

fn op_strategy(nodes: u32, bound: i64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nodes, -bound..=bound).prop_map(|(n, g)| Op::Insert(n, g)),
        (0..nodes).prop_map(Op::Remove),
        (0..nodes, -bound..=bound).prop_map(|(n, g)| Op::Update(n, g)),
        (0..nodes, -3i64..=3).prop_map(|(n, d)| Op::Adjust(n, d)),
        Just(Op::PopMax),
        (0..16usize).prop_map(Op::PeekTop),
    ]
}

/// The reference model: indexed `(node, gain)` pairs in filing order, the
/// most recently filed last. Within one gain, the bucket list pops the
/// most recently filed node first.
#[derive(Default)]
struct Model(Vec<(u32, i64)>);

impl Model {
    fn gain(&self, n: u32) -> Option<i64> {
        self.0.iter().find(|&&(m, _)| m == n).map(|&(_, g)| g)
    }

    fn remove(&mut self, n: u32) {
        self.0.retain(|&(m, _)| m != n);
    }

    /// Files `n` at `g` as the newest entry.
    fn file(&mut self, n: u32, g: i64) {
        self.remove(n);
        self.0.push((n, g));
    }

    /// Every entry in pop order: gain descending, newest first within a
    /// gain.
    fn pop_order(&self) -> Vec<(u32, i64)> {
        let mut order: Vec<(usize, (u32, i64))> = self.0.iter().copied().enumerate().collect();
        order.sort_by(|(i, (_, g)), (j, (_, h))| h.cmp(g).then(j.cmp(i)));
        order.into_iter().map(|(_, e)| e).collect()
    }
}

proptest! {
    /// The bucket list behaves exactly like the filing-order model under
    /// arbitrary operation sequences, down to the node each pop returns
    /// and the order of `peek_top`: the extended-KL kernel's move order,
    /// and with it every report digest, rests on that tie order. `update`
    /// of an unindexed node inserts it; `adjust_if_present` of one changes
    /// nothing. Operations the bucket list treats as caller bugs (double
    /// insert, removing an unindexed node, a gain out of range) are
    /// skipped on both sides.
    ///
    /// Gains are drawn from a narrow range so that ties, and with them
    /// the order within one bucket, come up in most cases.
    #[test]
    fn bucket_list_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(12, 4), 1..200),
    ) {
        let mut bucket = BucketList::new(12, -6, 6);
        let mut model = Model::default();

        for op in ops {
            match op {
                Op::Insert(n, g) => {
                    if model.gain(n).is_none() {
                        bucket.insert(n, g);
                        model.file(n, g);
                    }
                }
                Op::Remove(n) => {
                    if model.gain(n).is_some() {
                        bucket.remove(n);
                        model.remove(n);
                    }
                }
                Op::Update(n, g) => {
                    bucket.update(n, g);
                    // Re-filing at an unchanged gain keeps the position.
                    if model.gain(n) != Some(g) {
                        model.file(n, g);
                    }
                }
                Op::Adjust(n, d) => match model.gain(n) {
                    None => prop_assert!(!bucket.adjust_if_present(n, d)),
                    Some(g) if (-6..=6).contains(&(g + d)) => {
                        prop_assert!(bucket.adjust_if_present(n, d));
                        if d != 0 {
                            model.file(n, g + d);
                        }
                    }
                    Some(_) => {}
                },
                Op::PopMax => {
                    let expect = model.pop_order().first().copied();
                    prop_assert_eq!(bucket.pop_max(), expect, "pop_max broke the tie order");
                    if let Some((n, _)) = expect {
                        model.remove(n);
                    }
                }
                Op::PeekTop(k) => {
                    let expect: Vec<u32> =
                        model.pop_order().into_iter().take(k).map(|(n, _)| n).collect();
                    prop_assert_eq!(bucket.peek_top(k), expect, "peek_top broke the tie order");
                }
            }
            prop_assert_eq!(bucket.len(), model.0.len());
            for n in 0..12 {
                prop_assert_eq!(bucket.contains(n), model.gain(n).is_some());
            }
            prop_assert_eq!(bucket.peek_max_gain(), model.pop_order().first().map(|&(_, g)| g));
        }
    }
}

proptest! {
    /// `geometric_sequence` is strictly increasing under the exact
    /// rational order for any bounds, factor, and denominator resolution —
    /// including coarse denominators where rounding collapses many sweep
    /// points onto few rationals. Also: the sequence is non-empty, starts
    /// no higher than the rationalized `k_min`, and never exceeds the
    /// rationalized `k_max`.
    #[test]
    fn geometric_sequence_is_strictly_monotone(
        k_min in 0.01f64..5.0,
        span in 0.0f64..50.0,
        factor in 1.01f64..4.0,
        den in 1u64..200,
    ) {
        let k_max = k_min + span;
        let seq = KParam::geometric_sequence(k_min, k_max, factor, den);
        prop_assert!(!seq.is_empty());
        for w in seq.windows(2) {
            prop_assert!(
                w[0] < w[1],
                "sequence not strictly increasing: {} then {}", w[0], w[1]
            );
        }
        let lo = KParam::approximate(k_min, den);
        let hi = KParam::approximate(k_max, den);
        prop_assert!(seq[0] <= lo, "first member {} above rationalized k_min {}", seq[0], lo);
        prop_assert!(
            *seq.last().expect("sequence is non-empty") <= hi,
            "last member {} above rationalized k_max {}",
            seq.last().expect("sequence is non-empty"),
            hi
        );
    }
}

fn augmented_graph(n: usize) -> impl Strategy<Value = AugmentedGraph> {
    let nodes = 3..n;
    nodes.prop_flat_map(|n| {
        let friend = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 2);
        let reject = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 2);
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
    /// The committed objective never worsens relative to the initial
    /// partition, for any graph and any k.
    #[test]
    fn extended_kl_never_worsens(
        g in augmented_graph(16),
        num in 1u64..12,
        den in 1u64..12,
    ) {
        let kl = ExtendedKl::new(&g, ExtendedKlConfig::new(KParam::new(num, den)));
        let init = Partition::all_legit(&g);
        let before = kl.objective(&init);
        let out = kl.run(init);
        prop_assert!(out.objective <= before,
            "objective worsened: {} > {}", out.objective, before);
        // And the reported objective matches the partition it returns.
        prop_assert_eq!(out.objective, kl.objective(&out.partition));
    }

    /// Locked nodes never move, regardless of graph or k.
    #[test]
    fn locked_nodes_never_move(
        g in augmented_graph(12),
        locked_bits in proptest::collection::vec(any::<bool>(), 12),
        num in 1u64..8,
    ) {
        let n = g.num_nodes();
        let mut kl = ExtendedKl::new(&g, ExtendedKlConfig::new(KParam::new(num, 2)));
        let locked: Vec<bool> = (0..n).map(|i| locked_bits[i % locked_bits.len()]).collect();
        for (i, &l) in locked.iter().enumerate() {
            if l {
                kl.lock(NodeId(i as u32));
            }
        }
        let init = Partition::all_legit(&g);
        let out = kl.run(init);
        for (i, &l) in locked.iter().enumerate() {
            if l {
                prop_assert_eq!(
                    out.partition.region(NodeId(i as u32)),
                    rejection::Region::Legit
                );
            }
        }
    }
}
