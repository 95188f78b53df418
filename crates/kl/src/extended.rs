use crate::{BucketList, CancelToken, KParam};
use rejection::{AugmentedGraph, Neighbors, NodeDegrees, NodeId, Partition, Region};
use std::convert::Infallible;

/// Exact conversion for the scaled-objective arithmetic. Weights and
/// edge counts all live far below `i64::MAX`; if one ever did not, the
/// gain products would overflow anyway, so this is where the range
/// assumption is enforced rather than silently wrapped.
pub(crate) fn obj_i64<T>(x: T) -> i64
where
    i64: TryFrom<T>,
{
    i64::try_from(x).ok().expect("objective operand exceeds i64 range")
}

/// What an [`ExtendedKl`] run is sized from, read once per sweep from
/// the per-node degrees so that no `k` rescans the graph: the Pareto
/// front of `(friends, rejections cast and received)` over all nodes,
/// and the rejection total.
///
/// ```
/// use kl::{DegreeSummary, KParam};
/// use rejection::NodeDegrees;
///
/// let degrees = [
///     NodeDegrees { friends: 4, rejected_by: 0, rejectors_of: 1 },
///     NodeDegrees { friends: 1, rejected_by: 2, rejectors_of: 3 },
/// ];
/// let summary = DegreeSummary::new(degrees);
/// assert_eq!(summary.rejections(), 2);
/// // max(2·4 + 1·1, 2·1 + 1·5) under k = 1/2.
/// assert_eq!(summary.gain_bound(KParam::new(1, 2)), 9);
/// ```
#[derive(Debug, Clone)]
pub struct DegreeSummary {
    /// `(friends, rejections)` pairs no node dominates, friends
    /// descending: the maximum of any positive weighting lies on them.
    front: Vec<(u32, u64)>,
    rejections: u64,
}

impl DegreeSummary {
    /// Summarises every node's degrees in `O(n + max friend degree)`.
    pub fn new(degrees: impl IntoIterator<Item = NodeDegrees>) -> Self {
        // most[f]: the most rejections of any node with f friends (0 where
        // no node has f friends: the entry for the top degree dominates it).
        let mut most: Vec<u64> = Vec::new();
        let mut rejections = 0u64;
        for d in degrees {
            rejections += u64::from(d.rejected_by);
            let f = usize::try_from(d.friends).expect("degree fits usize");
            if most.len() <= f {
                most.resize(f + 1, 0);
            }
            most[f] = most[f].max(u64::from(d.rejected_by) + u64::from(d.rejectors_of));
        }
        let mut front: Vec<(u32, u64)> = Vec::new();
        for (f, &r) in most.iter().enumerate().rev() {
            if front.last().is_none_or(|&(_, top)| r > top) {
                front.push((u32::try_from(f).expect("degree came from a u32"), r));
            }
        }
        DegreeSummary { front, rejections }
    }

    /// The largest `|gain|` any node can reach under `k`: `den` per friend
    /// plus `num` per rejection, cast or received, maximised over nodes
    /// (at least 1). It sizes the [`BucketList`].
    pub fn gain_bound(&self, k: KParam) -> i64 {
        let (den, num) = (obj_i64(k.den()), obj_i64(k.num()));
        self.front
            .iter()
            .map(|&(f, r)| den * i64::from(f) + num * obj_i64(r))
            .fold(1, i64::max)
    }

    /// Number of rejections in the graph.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }
}

/// Where [`ExtendedKl`] reads adjacency from, one node at a time: an
/// in-memory [`AugmentedGraph`], or a cluster whose lookups may fetch over
/// the network and fail (§V). Every hook defaults to the per-node path.
pub trait Adjacency {
    /// What a failed lookup reports.
    type Error;

    /// Number of nodes; ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// The three adjacency lists of `u`.
    fn neighbors(&mut self, u: NodeId) -> Result<Neighbors<'_>, Self::Error>;

    /// Bulk hook, once per pass: fills `gains[u]` with the switching gain
    /// of every node `u` under `p`.
    fn initial_gains(
        &mut self,
        p: &Partition,
        k: KParam,
        gains: &mut [i64],
    ) -> Result<(), Self::Error> {
        for (i, gain) in gains.iter_mut().enumerate() {
            let u = NodeId::from_index(i);
            *gain = k.gain(p.switch_delta(u, self.neighbors(u)?));
        }
        Ok(())
    }

    /// Prefetch hook, called before the pass pops from `upcoming`; returns
    /// how many pops may follow before the next call.
    fn prefetch(&mut self, upcoming: &BucketList) -> Result<usize, Self::Error> {
        Ok(upcoming.len())
    }
}

impl Adjacency for &AugmentedGraph {
    type Error = Infallible;

    #[inline]
    fn num_nodes(&self) -> usize {
        AugmentedGraph::num_nodes(self)
    }

    #[inline]
    fn neighbors(&mut self, u: NodeId) -> Result<Neighbors<'_>, Infallible> {
        Ok(AugmentedGraph::neighbors(self, u))
    }
}

/// Configuration for one [`ExtendedKl`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtendedKlConfig {
    /// The rejection weight `k` of the objective `|F(Ū,U)| − k·|R⟨Ū,U⟩|`.
    pub k: KParam,
    /// Safety cap on optimization passes. The algorithm terminates on its
    /// own ("until prefix == ∅"); in practice a handful of passes suffice
    /// and this cap only guards pathological inputs.
    pub max_passes: usize,
}

impl ExtendedKlConfig {
    /// A config with the default pass cap (16).
    pub fn new(k: KParam) -> Self {
        ExtendedKlConfig { k, max_passes: 16 }
    }
}

/// Result of an [`ExtendedKl`] run.
#[derive(Debug, Clone)]
pub struct KlOutcome {
    /// The locally optimal partition.
    pub partition: Partition,
    /// Final scaled objective `den·|F(Ū,U)| − num·|R⟨Ū,U⟩|` (the float
    /// objective times `den`; negative means the cut is rejection-heavy).
    pub objective: i64,
    /// Number of optimization passes performed.
    pub passes: usize,
    /// Total node switches committed across all passes.
    pub moves_committed: u64,
    /// `true` when a [`CancelToken`] stopped the run before natural
    /// convergence; the partition is the best committed state so far.
    pub interrupted: bool,
}

/// The paper's Algorithm 1: Kernighan–Lin extended to rejection-augmented
/// social graphs.
///
/// Differences from classic KL, per §IV-D:
///
/// * edges are *weighted*: friendships count `+1`, rejections count `−k`,
///   so the minimized cut weight is `|F(Ū,U)| − k·|R⟨Ū,U⟩|`;
/// * node-pair interchanges are replaced by **single-node switches**, since
///   the sizes of the two regions are not known in advance;
/// * *seeds* (§IV-F) can be [`lock`](ExtendedKl::lock)ed to a region: they
///   contribute to their neighbors' gains but are never switched, which
///   steers the search away from spurious low-ratio cuts inside the
///   legitimate region.
///
/// Each pass tentatively switches the unlocked nodes one at a time in
/// greedy max-gain order, "even if that leads to increment of the cross-part
/// edges", then commits the prefix of switches with the largest positive
/// cumulative gain. Passes repeat until no positive prefix exists. A pass
/// ends before it has switched every unlocked node once a lower bound on
/// the objective of every state it could still reach proves that no later
/// prefix gains more than the best one so far: it commits exactly the
/// prefix the full pass would have committed.
///
/// The kernel is generic over its [`Adjacency`] source, so the in-process
/// and the distributed runtimes take exactly the same moves.
///
/// ```
/// use kl::{DegreeSummary, ExtendedKl, ExtendedKlConfig, KParam};
/// use rejection::{AugmentedGraphBuilder, NodeDegrees, NodeId, Partition};
///
/// // One spammer (node 2) rejected by both legitimate users.
/// let mut b = AugmentedGraphBuilder::new(3);
/// b.add_friendship(NodeId(0), NodeId(1));
/// b.add_rejection(NodeId(0), NodeId(2));
/// b.add_rejection(NodeId(1), NodeId(2));
/// let g = b.build();
///
/// let cfg = ExtendedKlConfig::new(KParam::new(1, 1));
/// let degrees = DegreeSummary::new(NodeDegrees::of_graph(&g));
/// let kl = ExtendedKl::new(&g, cfg, &degrees);
/// let out = kl.run(Partition::all_legit(&g));
/// assert_eq!(out.partition.suspects(), vec![NodeId(2)]);
/// ```
#[derive(Debug, Clone)]
pub struct ExtendedKl<A> {
    adj: A,
    cfg: ExtendedKlConfig,
    /// The bucket list's gain range, `±gain_bound(k)`.
    gain_bound: i64,
    /// The source's rejection total, where every pass's bound starts.
    rejections: i64,
    locked: Vec<bool>,
    cancel: Option<CancelToken>,
    obs: Option<rejecto_obs::Obs>,
}

/// A tentative switch: node, gain, and cut delta (so a commit needs no
/// second adjacency lookup).
type Move = (NodeId, i64, (i64, i64));

impl<A: Adjacency> ExtendedKl<A> {
    /// Creates a solver over `adj` with no locked nodes, sized from the
    /// source's `degrees`. A summary of another graph makes runs panic on
    /// an out-of-range gain or stop passes early on a wrong bound.
    pub fn new(adj: A, cfg: ExtendedKlConfig, degrees: &DegreeSummary) -> Self {
        let locked = vec![false; adj.num_nodes()];
        ExtendedKl {
            adj,
            cfg,
            gain_bound: degrees.gain_bound(cfg.k),
            rejections: obj_i64(degrees.rejections()),
            locked,
            cancel: None,
            obs: None,
        }
    }

    /// Attaches a [`CancelToken`] polled at every pass boundary. Each pass
    /// consumes one unit of the token's global pass budget; a tripped token
    /// stops the run with [`KlOutcome::interrupted`] set, keeping the best
    /// partition committed so far.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Attaches a metrics registry. Each pass records a
    /// `detect/round/sweep/k_index/kl_pass` span, and the run flushes
    /// `kl/passes`, `kl/moves_committed`, and `kl/bucket_adjusts` counters
    /// on return — all deterministic quantities, so they land in the
    /// byte-compared section of the metrics document.
    pub fn set_obs(&mut self, obs: rejecto_obs::Obs) {
        self.obs = Some(obs);
    }

    /// Pins `node` to whatever region the initial partition assigns it;
    /// it will never be switched (seed pre-placement, §IV-F).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn lock(&mut self, node: NodeId) {
        self.locked[node.index()] = true;
    }

    /// Whether `node` is pinned.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_locked(&self, node: NodeId) -> bool {
        self.locked[node.index()]
    }

    /// The scaled objective `den·|F(Ū,U)| − num·|R⟨Ū,U⟩|` of a partition.
    pub fn objective(&self, p: &Partition) -> i64 {
        let den = obj_i64(self.cfg.k.den());
        let num = obj_i64(self.cfg.k.num());
        den * obj_i64(p.cross_friendships()) - num * obj_i64(p.cross_rejections())
    }

    /// Runs the optimization from `initial` and returns the refined
    /// partition, or the first failed adjacency lookup.
    ///
    /// The run allocates its scratch once: the gain buffer, the bucket
    /// list (every pass empties it, so the next pass starts from an empty
    /// index), the per-node bound costs and the move buffer. Each pass
    /// switches nodes in `p` itself and then rolls back the moves after its
    /// best prefix.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not cover exactly the source's nodes.
    pub fn try_run(&mut self, initial: Partition) -> Result<KlOutcome, A::Error> {
        assert_eq!(initial.len(), self.locked.len(), "partition size mismatch");
        let mut p = initial;
        let obs = self.obs.clone();
        let mut passes = 0usize;
        let mut moves_committed = 0u64;
        let mut bucket_adjusts = 0u64;
        let mut interrupted = false;
        let mut scratch = Scratch {
            gains: vec![0; p.len()],
            side: vec![[0; 2]; p.len()],
            bucket: BucketList::new(p.len(), -self.gain_bound, self.gain_bound),
            seq: Vec::with_capacity(p.len()),
        };

        while passes < self.cfg.max_passes {
            if let Some(token) = &self.cancel {
                if token.is_cancelled() || !token.consume_pass() {
                    interrupted = true;
                    break;
                }
            }
            passes += 1;
            let _pass_span = obs.as_ref().map(|o| o.span("detect/round/sweep/k_index/kl_pass"));
            bucket_adjusts += self.one_pass(&mut p, &mut scratch)?;
            let kept = best_prefix_len(&scratch.seq);
            // Undo the tail newest first, so every intermediate state is
            // one the pass went through and no counter dips below zero.
            for &(u, _, (df, dr)) in scratch.seq[kept..].iter().rev() {
                p.apply_switch(u, (-df, -dr));
            }
            if kept == 0 {
                break;
            }
            moves_committed += u64::try_from(kept).expect("move count exceeds u64 range");
        }

        if let Some(obs) = &obs {
            let passes_u64 =
                u64::try_from(passes).expect("pass count exceeds u64 range");
            obs.incr("kl/passes", passes_u64);
            obs.incr("kl/moves_committed", moves_committed);
            obs.incr("kl/bucket_adjusts", bucket_adjusts);
        }
        #[cfg(feature = "debug-invariants")]
        crate::invariants::assert_partition_counts(&mut self.adj, &p)?;
        let objective = self.objective(&p);
        Ok(KlOutcome { partition: p, objective, passes, moves_committed, interrupted })
    }

    /// Verifies the incremental gain index against recomputation from
    /// scratch: every node still indexed in `bucket` must carry exactly the
    /// gain the source's [`Adjacency::initial_gains`] derives under `p`,
    /// and the bucket's own chain structure must be sound
    /// ([`BucketList::assert_consistent`]). This is the full-strength
    /// version of the spot check a pass makes at pop time — `O(n·deg)` per
    /// call, so it is compiled only under the `debug-invariants` feature,
    /// where every pass runs it after the initial fill and after every
    /// move's neighbor adjustments, over whichever source the kernel runs
    /// on. Public so tests can aim it at a deliberately corrupted index.
    ///
    /// # Panics
    ///
    /// Panics on the first indexed node whose gain disagrees with the
    /// recomputed value, or on bucket-chain corruption.
    #[cfg(feature = "debug-invariants")]
    pub fn assert_gain_index(
        &mut self,
        p: &Partition,
        bucket: &BucketList,
    ) -> Result<(), A::Error> {
        bucket.assert_consistent();
        let mut fresh = vec![0i64; p.len()];
        self.adj.initial_gains(p, self.cfg.k, &mut fresh)?;
        for (u, &fresh) in fresh.iter().enumerate() {
            let u = NodeId::from_index(u);
            if !bucket.contains(u.0) {
                continue;
            }
            let indexed = bucket.gain_of(u.0);
            assert_eq!(
                indexed, fresh,
                "gain index corrupt: node {u} indexed at {indexed}, recomputed {fresh}"
            );
        }
        Ok(())
    }

    /// One greedy pass: switches unlocked nodes of `p` in max-gain order,
    /// recording each move in `scratch.seq`, until every one has switched
    /// or the pass bound shows that no later prefix can gain more than the
    /// best one so far. Returns the number of incremental gain-bucket
    /// adjustments performed. The bucket list comes in empty and leaves
    /// empty.
    ///
    /// The bound is a floor `L` on the objective of every state the rest
    /// of the pass can reach: the popped nodes keep their new regions, and
    /// the still-indexed ones may end in either.
    ///
    /// * `fixed` is the cost of the edges between two popped nodes;
    /// * `side[v]` holds, for a still-indexed `v`, the cost of its edges to
    ///   popped nodes if `v` ends Legit and if it ends Suspect, and
    ///   `sum_min` the sum of their minima;
    /// * `open` counts the rejections neither of those covers, each worth
    ///   at least `−num`; an uncovered friendship is worth at least 0.
    ///
    /// An edge is charged to `side` at the first pop of its two ends when
    /// the other end is still indexed, so an edge to a locked node is never
    /// charged: its friendship counts as 0 and its rejection stays open.
    /// Once `obj0 − L` is at most the best cumulative gain, no later prefix
    /// can be strictly better, which is all [`best_prefix_len`] commits.
    fn one_pass(&mut self, p: &mut Partition, scratch: &mut Scratch) -> Result<u64, A::Error> {
        let Scratch { gains, side, bucket, seq } = scratch;
        let k = self.cfg.k;
        let (num, den) = (obj_i64(k.num()), obj_i64(k.den()));
        debug_assert!(bucket.is_empty(), "a pass starts from an empty bucket list");
        self.adj.initial_gains(p, k, gains)?;
        for (u, &gain) in gains.iter().enumerate() {
            if !self.locked[u] {
                bucket.insert(NodeId::from_index(u).0, gain);
            }
        }
        #[cfg(feature = "debug-invariants")]
        self.assert_gain_index(p, bucket)?;

        seq.clear();
        side.fill([0; 2]);
        let obj0 = self.objective(p);
        let (mut fixed, mut sum_min, mut open) = (0i64, 0i64, self.rejections);
        let (mut cum, mut best) = (0i64, 0i64);
        let mut adjusts = 0u64;
        let mut prefetched = 0usize;
        loop {
            if prefetched == 0 && !bucket.is_empty() {
                prefetched = self.adj.prefetch(bucket)?.max(1);
            }
            let Some((u, gain)) = bucket.pop_max() else { break };
            prefetched -= 1;
            let u = NodeId(u);
            let n = self.adj.neighbors(u)?;
            let delta = p.switch_delta(u, n);
            debug_assert_eq!(gain, k.gain(delta), "stale gain for node {u}");
            seq.push((u, gain, delta));
            let from = p.region(u);
            let now_in = p.apply_switch(u, delta);
            let costs = side[u.index()];
            fixed += costs[side_of(now_in)];
            sum_min -= costs[0].min(costs[1]);

            // Incremental gain updates for u's still-indexed neighbors.
            // Friendship edges: the (v, u) term of v's Δfriendship flips.
            // The edge is cut if v ends in the region u left.
            for &v in n.friends {
                let t = if p.region(v) == from { 1 } else { -1 };
                if bucket.adjust_if_present(v.0, 2 * den * t) {
                    adjusts += 1;
                    charge(side, &mut sum_min, v, from, den);
                }
            }
            // u rejected v  ⇒  u is a rejector of v: v's "rejectors in
            // Legit" count changed by ±1. The rejection counts if u stays
            // Legit and v ends Suspect.
            let da = if now_in == Region::Legit { 1 } else { -1 };
            for &v in n.rejected_by {
                let s_v = if p.region(v) == Region::Legit { 1 } else { -1 };
                if bucket.adjust_if_present(v.0, num * s_v * da) {
                    adjusts += 1;
                    open -= 1;
                    if now_in == Region::Legit {
                        charge(side, &mut sum_min, v, Region::Suspect, -num);
                    }
                }
            }
            // v rejected u  ⇒  u is in v's rejected set: v's "rejectees in
            // Suspect" count changed by ±1. The rejection counts if u stays
            // Suspect and v ends Legit.
            let db = if now_in == Region::Suspect { 1 } else { -1 };
            for &v in n.rejectors_of {
                let s_v = if p.region(v) == Region::Legit { 1 } else { -1 };
                if bucket.adjust_if_present(v.0, -num * s_v * db) {
                    adjusts += 1;
                    open -= 1;
                    if now_in == Region::Suspect {
                        charge(side, &mut sum_min, v, Region::Legit, -num);
                    }
                }
            }
            #[cfg(feature = "debug-invariants")]
            self.assert_gain_index(p, bucket)?;

            cum += gain;
            best = best.max(cum);
            let floor = fixed + sum_min - num * open;
            #[cfg(feature = "debug-invariants")]
            crate::invariants::assert_pass_bound(
                floor,
                obj0 - cum,
                self.objective(p),
                bucket.is_empty() && !self.locked.contains(&true),
            );
            if obj0 - floor <= best {
                bucket.clear();
                break;
            }
        }
        Ok(adjusts)
    }
}

/// The per-run scratch every pass reuses.
#[derive(Debug)]
struct Scratch {
    /// Each node's switching gain at the start of a pass.
    gains: Vec<i64>,
    /// Per still-indexed node, the cost of its edges to popped nodes if it
    /// ends Legit (`[0]`) and if it ends Suspect (`[1]`).
    side: Vec<[i64; 2]>,
    bucket: BucketList,
    seq: Vec<Move>,
}

/// The index of `r` in a `side` record.
#[inline]
fn side_of(r: Region) -> usize {
    match r {
        Region::Legit => 0,
        Region::Suspect => 1,
    }
}

/// Adds `cost` to `v`'s cost of ending in `region`, keeping `sum_min` the
/// sum of the records' minima.
#[inline]
fn charge(side: &mut [[i64; 2]], sum_min: &mut i64, v: NodeId, region: Region, cost: i64) {
    let c = &mut side[v.index()];
    let before = c[0].min(c[1]);
    c[side_of(region)] += cost;
    *sum_min += c[0].min(c[1]) - before;
}

/// Length of the switching sequence's best strictly positive
/// cumulative-gain prefix; 0 when no prefix gains.
fn best_prefix_len(seq: &[Move]) -> usize {
    let mut best = 0usize;
    let mut best_gain = 0i64;
    let mut cum = 0i64;
    for (i, &(_, gain, _)) in seq.iter().enumerate() {
        cum += gain;
        if cum > best_gain {
            best_gain = cum;
            best = i + 1;
        }
    }
    best
}

impl<A: Adjacency<Error = Infallible> + Clone> ExtendedKl<A> {
    /// [`ExtendedKl::try_run`] over a source that cannot fail, such as an
    /// in-memory graph.
    pub fn run(&self, initial: Partition) -> KlOutcome {
        let Ok(out) = self.clone().try_run(initial);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rejection::AugmentedGraphBuilder;

    /// 4 legit users in a dense cluster; 3 fakes in a clique; one attack
    /// edge (0–4); legit 1, 2, 3 each rejected fake requests.
    fn spam_scenario() -> AugmentedGraph {
        let mut b = AugmentedGraphBuilder::new(7);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_friendship(NodeId(u), NodeId(v));
        }
        for (u, v) in [(4, 5), (4, 6), (5, 6)] {
            b.add_friendship(NodeId(u), NodeId(v));
        }
        b.add_friendship(NodeId(0), NodeId(4)); // attack edge
        b.add_rejection(NodeId(1), NodeId(4));
        b.add_rejection(NodeId(2), NodeId(5));
        b.add_rejection(NodeId(3), NodeId(6));
        b.add_rejection(NodeId(1), NodeId(5));
        b.build()
    }

    fn solver(g: &AugmentedGraph, num: u64, den: u64) -> ExtendedKl<&AugmentedGraph> {
        let cfg = ExtendedKlConfig::new(KParam::new(num, den));
        ExtendedKl::new(g, cfg, &DegreeSummary::new(NodeDegrees::of_graph(g)))
    }

    #[test]
    fn finds_the_spammer_clique_from_all_legit() {
        let g = spam_scenario();
        let kl = solver(&g, 1, 1);
        let out = kl.run(Partition::all_legit(&g));
        assert_eq!(out.partition.suspects(), vec![NodeId(4), NodeId(5), NodeId(6)]);
        // Cut: 1 attack friendship, 4 rejections → objective 1·1 − 1·4 = −3.
        assert_eq!(out.objective, -3);
    }

    #[test]
    fn recovers_from_inverted_initialization() {
        let g = spam_scenario();
        let kl = solver(&g, 1, 1);
        // Start with the LEGIT side marked suspect.
        let init = Partition::from_fn(&g, |n| {
            if n.0 <= 3 {
                Region::Suspect
            } else {
                Region::Legit
            }
        });
        let out = kl.run(init);
        assert_eq!(out.partition.suspects(), vec![NodeId(4), NodeId(5), NodeId(6)]);
    }

    #[test]
    fn objective_never_worsens_across_commits() {
        let g = spam_scenario();
        let kl = solver(&g, 3, 2);
        let init = Partition::all_legit(&g);
        let before = kl.objective(&init);
        let out = kl.run(init);
        assert!(out.objective <= before, "{} > {before}", out.objective);
    }

    #[test]
    fn small_k_leaves_graph_uncut() {
        // With k tiny, rejections barely count: the empty cut (objective 0)
        // stays optimal and nothing is flagged.
        let g = spam_scenario();
        let kl = solver(&g, 1, 100);
        let out = kl.run(Partition::all_legit(&g));
        assert_eq!(out.partition.suspect_count(), 0);
        assert_eq!(out.objective, 0);
    }

    #[test]
    fn locked_seed_is_never_switched() {
        let g = spam_scenario();
        let mut kl = solver(&g, 1, 1);
        // Pin fake node 4 to the Legit region (a deliberately bad seed):
        kl.lock(NodeId(4));
        let out = kl.run(Partition::all_legit(&g));
        assert_eq!(out.partition.region(NodeId(4)), Region::Legit);
        assert!(kl.is_locked(NodeId(4)));
        // The other two fakes are still separable.
        assert!(out.partition.suspects().contains(&NodeId(5)));
        assert!(out.partition.suspects().contains(&NodeId(6)));
    }

    #[test]
    fn reports_pass_and_move_counts() {
        let g = spam_scenario();
        let kl = solver(&g, 1, 1);
        let out = kl.run(Partition::all_legit(&g));
        assert!(out.passes >= 1);
        assert!(out.moves_committed >= 3);
    }

    #[test]
    fn obs_counters_match_the_reported_outcome() {
        let g = spam_scenario();
        let mut kl = solver(&g, 1, 1);
        let obs = rejecto_obs::Obs::new();
        kl.set_obs(obs.clone());
        let out = kl.run(Partition::all_legit(&g));
        let passes = u64::try_from(out.passes).expect("tiny pass count");
        assert_eq!(obs.counter("kl/passes"), passes);
        assert_eq!(obs.counter("kl/moves_committed"), out.moves_committed);
        assert_eq!(obs.span_count("detect/round/sweep/k_index/kl_pass"), passes);
        assert!(
            obs.counter("kl/bucket_adjusts") > 0,
            "a committing run must have adjusted neighbor gains"
        );
    }

    #[test]
    fn tripped_token_interrupts_before_the_first_pass() {
        let g = spam_scenario();
        let mut kl = solver(&g, 1, 1);
        let token = CancelToken::new();
        token.cancel();
        kl.set_cancel(token);
        let out = kl.run(Partition::all_legit(&g));
        assert!(out.interrupted);
        assert_eq!(out.passes, 0);
        assert_eq!(out.moves_committed, 0);
        // Best-so-far state is the untouched initial partition.
        assert_eq!(out.partition.suspect_count(), 0);
    }

    #[test]
    fn pass_budget_of_one_commits_only_the_first_pass() {
        let g = spam_scenario();

        let mut unlimited = solver(&g, 1, 1);
        let free = CancelToken::new();
        unlimited.set_cancel(free.clone());
        let full = unlimited.run(Partition::all_legit(&g));
        assert!(!full.interrupted, "unlimited budget must not interrupt");
        assert_eq!(full.partition.suspects(), vec![NodeId(4), NodeId(5), NodeId(6)]);

        let mut kl = solver(&g, 1, 1);
        let token = CancelToken::new();
        token.set_pass_budget(1);
        kl.set_cancel(token.clone());
        let out = kl.run(Partition::all_legit(&g));
        assert!(out.passes <= 1);
        // Either the run converged in one pass, or it was interrupted and
        // says so.
        assert!(!out.interrupted || token.is_cancelled());
    }

    #[test]
    fn isolated_nodes_stay_legit() {
        let mut b = AugmentedGraphBuilder::new(3);
        b.add_rejection(NodeId(0), NodeId(1));
        let g = b.build();
        let kl = solver(&g, 2, 1);
        let out = kl.run(Partition::all_legit(&g));
        // Node 1 is rejected → suspect; node 2 is isolated → untouched.
        assert_eq!(out.partition.suspects(), vec![NodeId(1)]);
    }

    #[test]
    fn rejections_inside_suspect_region_do_not_pay() {
        // Two fakes rejecting each other should not form a "cut" worth
        // taking when there are no legit-to-fake rejections.
        let mut b = AugmentedGraphBuilder::new(4);
        b.add_friendship(NodeId(0), NodeId(1));
        b.add_rejection(NodeId(2), NodeId(3));
        b.add_rejection(NodeId(3), NodeId(2));
        b.add_friendship(NodeId(2), NodeId(3));
        let g = b.build();
        let kl = solver(&g, 1, 1);
        let out = kl.run(Partition::all_legit(&g));
        // Splitting {2,3} pays one cross rejection but also cuts their
        // friendship: objective 1 − 1 = 0, not an improvement... but
        // moving BOTH into suspect pays nothing and gains nothing either.
        // Either way nodes 0, 1 must remain legit.
        assert_eq!(out.partition.region(NodeId(0)), Region::Legit);
        assert_eq!(out.partition.region(NodeId(1)), Region::Legit);
    }
}
