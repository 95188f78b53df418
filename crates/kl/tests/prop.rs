//! Property-based tests for the bucket list and the extended KL solver.

use kl::{
    Adjacency, BucketList, DegreeSummary, ExtendedKl, ExtendedKlConfig, KParam, KlOutcome, KlStart,
};
use proptest::prelude::*;
use rejection::{
    AugmentedGraph, AugmentedGraphBuilder, Neighbors, NodeDegrees, NodeId, Partition, Region,
};
use std::convert::Infallible;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, i64),
    Adjust(u32, i64),
    PopMax,
    PeekTop(usize),
}

fn op_strategy(nodes: u32, bound: i64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nodes, -bound..=bound).prop_map(|(n, g)| Op::Insert(n, g)),
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
    /// and with it every report digest, rests on that tie order.
    /// `adjust_if_present` of an unindexed node changes nothing, and a
    /// zero delta leaves an indexed node where it is. Operations the
    /// bucket list treats as caller bugs (double insert, a gain out of
    /// range) are skipped on both sides.
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
                if let Some(g) = model.gain(n) {
                    prop_assert_eq!(bucket.gain_of(n), g);
                }
            }
            let first: Vec<u32> = model.pop_order().first().map(|&(n, _)| n).into_iter().collect();
            prop_assert_eq!(bucket.peek_top(1), first);
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
        let cfg = ExtendedKlConfig::new(KParam::new(num, den));
        let kl = ExtendedKl::new(&g, cfg, &DegreeSummary::new(NodeDegrees::of_graph(&g)));
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
        let cfg = ExtendedKlConfig::new(KParam::new(num, 2));
        let mut kl = ExtendedKl::new(&g, cfg, &DegreeSummary::new(NodeDegrees::of_graph(&g)));
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
                    Region::Legit
                );
            }
        }
    }
}

/// An in-memory adjacency source whose rejection lists may hold
/// self-rejections: the graph builder drops them, but the kernel must
/// still skip them as `Partition::switch_delta` does, wherever they come
/// from.
#[derive(Debug)]
struct Lists(Vec<[Vec<NodeId>; 3]>);

impl Lists {
    /// `g`'s lists, with `u` rejecting itself for every `u` in `selfish`.
    fn new(g: &AugmentedGraph, selfish: &[u32]) -> Self {
        let mut lists: Vec<[Vec<NodeId>; 3]> = g
            .nodes()
            .map(|u| [g.friends(u).to_vec(), g.rejected_by(u).to_vec(), g.rejectors_of(u).to_vec()])
            .collect();
        for &u in selfish {
            let l = &mut lists[u as usize];
            if !l[1].contains(&NodeId(u)) {
                l[1].push(NodeId(u));
                l[2].push(NodeId(u));
            }
        }
        Lists(lists)
    }

    fn neighbors(&self, u: NodeId) -> Neighbors<'_> {
        let [friends, rejected_by, rejectors_of] = &self.0[u.index()];
        Neighbors { friends, rejected_by, rejectors_of }
    }

    fn degrees(&self) -> DegreeSummary {
        DegreeSummary::new(
            (0..self.0.len()).map(|i| NodeDegrees::of(self.neighbors(NodeId(i as u32)))).collect(),
        )
    }
}

impl Adjacency for &Lists {
    type Error = Infallible;

    fn num_nodes(&self) -> usize {
        self.0.len()
    }

    fn neighbors(&mut self, u: NodeId) -> Result<Neighbors<'_>, Infallible> {
        Ok(Lists::neighbors(self, u))
    }
}

/// What [`reference_kernel`] returns: the final partition, the pass,
/// committed-move and bucket-adjustment counts, and for every pass the
/// `(cum, s2)` it saw before each pop and after its last one: the
/// cumulative gain so far and the switch-gain potential sum recomputed
/// from adjacency.
struct Reference {
    partition: Partition,
    passes: usize,
    moves: u64,
    adjusts: u64,
    steps: Vec<Vec<(i64, i64)>>,
}

/// The switch-gain potential sum of a pass, from scratch: over the nodes
/// still indexed in `bucket`, `Σ max(0, 2·gain_v + c_v)`, where `c_v` is
/// `2·den` per friend on `v`'s side and `num` per rejection partner on
/// the other side, counting only partners still indexed or locked, plus
/// `num` per self-rejection (which only loosens the bound).
fn fresh_potential(
    adj: &Lists,
    k: KParam,
    p: &Partition,
    bucket: &BucketList,
    locked: &[bool],
) -> i64 {
    let (num, den) = (k.num() as i64, k.den() as i64);
    let live = |w: NodeId| bucket.contains(w.0) || locked[w.index()];
    (0..adj.0.len() as u32)
        .map(NodeId)
        .filter(|v| bucket.contains(v.0))
        .map(|v| {
            let nb = adj.neighbors(v);
            let side = p.region(v);
            let friends =
                nb.friends.iter().filter(|&&w| live(w) && p.region(w) == side).count() as i64;
            let partners = nb
                .rejected_by
                .iter()
                .chain(nb.rejectors_of)
                .filter(|&&w| live(w) && p.region(w) != side)
                .count() as i64;
            let selfish = i64::from(nb.rejected_by.contains(&v));
            let credit = 2 * den * friends + num * (partners + selfish);
            (2 * k.gain(p.switch_delta(v, nb)) + credit).max(0)
        })
        .sum()
}

/// The extended-KL kernel with a per-pass fill: every pass files each
/// unlocked node at a gain recomputed from its adjacency, every pop
/// recomputes its delta, and the potential is recomputed from adjacency
/// before every pop. With `bounded` the pass ends once the cumulative
/// gain plus half the potential is at most the best prefix's gain;
/// without it every unlocked node switches once.
fn reference_kernel(
    adj: &Lists,
    k: KParam,
    max_passes: usize,
    locked: &[bool],
    initial: Partition,
    bounded: bool,
) -> Reference {
    let (num, den) = (k.num() as i64, k.den() as i64);
    let n = adj.0.len();
    let bound = (0..n)
        .map(|i| {
            let l = &adj.0[i];
            den * l[0].len() as i64 + num * (l[1].len() + l[2].len()) as i64
        })
        .fold(1, i64::max);
    let mut p = initial;
    let mut bucket = BucketList::new(n, -bound, bound);
    let mut seq: Vec<(NodeId, i64, (i64, i64))> = Vec::new();
    let (mut passes, mut moves, mut adjusts) = (0usize, 0u64, 0u64);
    let mut steps = Vec::new();
    while passes < max_passes {
        passes += 1;
        for (i, _) in locked.iter().enumerate().filter(|(_, &l)| !l) {
            let u = NodeId(i as u32);
            bucket.insert(u.0, k.gain(p.switch_delta(u, adj.neighbors(u))));
        }
        seq.clear();
        let mut pass = Vec::new();
        let (mut cum, mut best) = (0i64, 0i64);
        loop {
            let s2 = fresh_potential(adj, k, &p, &bucket, locked);
            pass.push((cum, s2));
            if bounded && cum + s2 / 2 <= best {
                while bucket.pop_max().is_some() {}
                break;
            }
            let Some((u, gain)) = bucket.pop_max() else { break };
            let u = NodeId(u);
            let nb = adj.neighbors(u);
            let delta = p.switch_delta(u, nb);
            assert_eq!(gain, k.gain(delta), "stale gain for node {u}");
            seq.push((u, gain, delta));
            let from = p.region(u);
            let now_in = p.apply_switch(u, delta);
            for &v in nb.friends {
                let t = if p.region(v) == from { 1 } else { -1 };
                if bucket.adjust_if_present(v.0, 2 * den * t) {
                    adjusts += 1;
                }
            }
            let da = if now_in == Region::Legit { 1 } else { -1 };
            for &v in nb.rejected_by {
                let s_v = if p.region(v) == Region::Legit { 1 } else { -1 };
                if bucket.adjust_if_present(v.0, num * s_v * da) {
                    adjusts += 1;
                }
            }
            let db = if now_in == Region::Suspect { 1 } else { -1 };
            for &v in nb.rejectors_of {
                let s_v = if p.region(v) == Region::Legit { 1 } else { -1 };
                if bucket.adjust_if_present(v.0, -num * s_v * db) {
                    adjusts += 1;
                }
            }
            cum += gain;
            best = best.max(cum);
        }
        steps.push(pass);
        let (mut kept, mut best, mut cum) = (0usize, 0i64, 0i64);
        for (i, &(_, gain, _)) in seq.iter().enumerate() {
            cum += gain;
            if cum > best {
                best = cum;
                kept = i + 1;
            }
        }
        for &(u, _, (df, dr)) in seq[kept..].iter().rev() {
            p.apply_switch(u, (-df, -dr));
        }
        if kept == 0 {
            break;
        }
        moves += kept as u64;
    }
    Reference { partition: p, passes, moves, adjusts, steps }
}

/// A small augmented graph whose edge list mixes plain friendships and
/// rejections with pairs that are both friends and a rejection, plus the
/// nodes that reject themselves (added by [`Lists::new`], since the
/// builder drops them), a starting region and a lock flag per node.
fn kl_case() -> impl Strategy<Value = (AugmentedGraph, Vec<u32>, Vec<Region>, Vec<bool>)> {
    (2usize..14).prop_flat_map(|n| {
        let id = 0..n as u32;
        let pairs = |max| proptest::collection::vec((id.clone(), id.clone()), 0..max);
        (
            Just(n),
            pairs(n * 3),
            pairs(n * 3),
            pairs(n),
            proptest::collection::vec(id.clone(), 0..3),
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(0u8..8, n),
        )
            .prop_map(|(n, friend, reject, both, selfish, suspect, lock)| {
                let mut b = AugmentedGraphBuilder::new(n);
                for (u, v) in friend {
                    b.add_friendship(NodeId(u), NodeId(v));
                }
                for (u, v) in reject {
                    b.add_rejection(NodeId(u), NodeId(v));
                }
                for (u, v) in both {
                    b.add_friendship(NodeId(u), NodeId(v));
                    b.add_rejection(NodeId(v), NodeId(u));
                }
                let region = suspect
                    .into_iter()
                    .map(|s| if s { Region::Suspect } else { Region::Legit })
                    .collect();
                (b.build(), selfish, region, lock.into_iter().map(|l| l == 0).collect())
            })
    })
}

/// The scaled objective `den·|F| − num·|R|` of `p` under `k`.
fn objective(k: KParam, p: &Partition) -> i64 {
    (k.den() * p.cross_friendships()) as i64 - (k.num() * p.cross_rejections()) as i64
}

/// Runs the kernel over `adj` from `region` with `locked` pinned, from a
/// start counted in one scan; returns the outcome and its bucket
/// adjustments.
fn run_kernel(
    adj: &Lists,
    k: KParam,
    max_passes: usize,
    locked: &[bool],
    region: Vec<Region>,
) -> (KlOutcome, u64) {
    let mut kl = ExtendedKl::new(adj, ExtendedKlConfig { k, max_passes }, &adj.degrees());
    for (i, _) in locked.iter().enumerate().filter(|(_, &l)| l) {
        kl.lock(NodeId(i as u32));
    }
    let obs = rejecto_obs::Obs::new();
    kl.set_obs(obs.clone());
    let Ok(start) = KlStart::count(&mut &*adj, region);
    let Ok(out) = kl.try_run(start);
    (out, obs.counter("kl/bucket_adjusts"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_048))]

    /// The bound-pruned kernel takes exactly the full-pass kernel's
    /// moves: same partition, objective, pass count and committed moves,
    /// with no more bucket adjustments, from random starts with locked
    /// nodes on both sides. Under `debug-invariants` the kernel also
    /// checks its potential against one recomputed from adjacency after
    /// every pop.
    #[test]
    fn pass_bound_changes_no_move(
        (g, selfish, region, locked) in kl_case(),
        num in 1u64..12,
        den in 1u64..12,
        max_passes in 1usize..8,
    ) {
        let k = KParam::new(num, den);
        let adj = Lists::new(&g, &selfish);
        let initial = Partition::from_regions(&g, region.clone());
        let want = reference_kernel(&adj, k, max_passes, &locked, initial, false);
        let (out, got_adjusts) = run_kernel(&adj, k, max_passes, &locked, region);

        prop_assert_eq!(out.partition.suspects(), want.partition.suspects());
        prop_assert_eq!(out.partition.cross_friendships(), want.partition.cross_friendships());
        prop_assert_eq!(out.partition.cross_rejections(), want.partition.cross_rejections());
        prop_assert_eq!(out.objective, objective(k, &want.partition));
        prop_assert_eq!(out.passes, want.passes);
        prop_assert_eq!(out.moves_committed, want.moves);
        prop_assert!(
            got_adjusts <= want.adjusts,
            "{} adjusts against the full pass's {}", got_adjusts, want.adjusts
        );
    }

    /// The switch-gain potential bounds every later prefix of a full
    /// pass: before each pop `t`, `cum_t + ⌊s2_t / 2⌋` is at least the
    /// cumulative gain of every prefix at or after `t`, and the potential
    /// is 0 once every unlocked node has switched, with locked nodes on
    /// both sides and self-rejections in the source.
    #[test]
    fn pass_potential_bounds_every_later_prefix(
        (g, selfish, region, locked) in kl_case(),
        num in 1u64..12,
        den in 1u64..12,
        max_passes in 1usize..8,
    ) {
        let k = KParam::new(num, den);
        let adj = Lists::new(&g, &selfish);
        let initial = Partition::from_regions(&g, region);
        let full = reference_kernel(&adj, k, max_passes, &locked, initial, false);
        for (pass, steps) in full.steps.iter().enumerate() {
            prop_assert_eq!(steps.last().map(|&(_, s2)| s2), Some(0), "pass {}", pass);
            let mut later = i64::MIN;
            for (t, &(cum, s2)) in steps.iter().enumerate().rev() {
                later = later.max(cum);
                prop_assert!(
                    cum + s2 / 2 >= later,
                    "pass {}, pop {}: {} + {} / 2 below a later prefix's {}",
                    pass, t, cum, s2, later
                );
            }
        }
    }

    /// Carrying switch deltas and the incremental potential from pop to
    /// pop changes nothing: the kernel and the per-pass-fill reference,
    /// which recomputes the potential from adjacency before every pop,
    /// agree on partition, objective, passes, committed moves and every
    /// bucket adjustment, so both end every pass at the same pop. Self-
    /// rejections are in the source, locked nodes on both sides, and `k`
    /// and the pass cap random. Under `debug-invariants` every pass start
    /// also checks each carried delta against a fresh scan, and every pop
    /// the kernel's incremental potential against a fresh one.
    #[test]
    fn carried_deltas_change_no_move(
        (g, selfish, region, locked) in kl_case(),
        num in 1u64..12,
        den in 1u64..12,
        max_passes in 1usize..8,
    ) {
        let k = KParam::new(num, den);
        let adj = Lists::new(&g, &selfish);
        let initial = Partition::from_regions(&g, region.clone());
        let want = reference_kernel(&adj, k, max_passes, &locked, initial, true);
        let (out, got_adjusts) = run_kernel(&adj, k, max_passes, &locked, region);

        prop_assert_eq!(&out.partition, &want.partition);
        prop_assert_eq!(out.objective, objective(k, &want.partition));
        prop_assert_eq!(out.passes, want.passes);
        prop_assert_eq!(out.moves_committed, want.moves);
        prop_assert_eq!(got_adjusts, want.adjusts);
    }

    /// The bucket range a summary gives is the per-node maximum of
    /// `den·friends + num·(rejections cast + received)`, at least 1.
    #[test]
    fn degree_summary_gain_bound_is_the_per_node_maximum(
        g in augmented_graph(16),
        num in 1u64..12,
        den in 1u64..12,
    ) {
        let k = KParam::new(num, den);
        let want = g
            .nodes()
            .map(|u| {
                (k.den() * g.friends(u).len() as u64
                    + k.num() * (g.rejected_by(u).len() + g.rejectors_of(u).len()) as u64)
                    as i64
            })
            .fold(1, i64::max);
        let summary = DegreeSummary::new(NodeDegrees::of_graph(&g));
        prop_assert_eq!(summary.gain_bound(k), want);
    }
}
