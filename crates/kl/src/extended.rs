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

/// A node's switch delta `(Δcross_friendships, Δcross_rejections)`, the
/// kernel's carried per-node state. Each component is bounded by the
/// node's degree, so it fits `i32`; [`carry`] checks the narrowing.
pub type SwitchDelta = (i32, i32);

/// Narrows a delta [`Partition::switch_delta`] computed to the carried
/// form. A delta is bounded by a degree and degrees fit `u32`, but not
/// every `u32` fits `i32`: this is where that range assumption is
/// enforced rather than silently wrapped, as `obj_i64` does for the
/// objective.
#[inline]
pub fn carry((df, dr): (i64, i64)) -> SwitchDelta {
    let narrow = |x: i64| i32::try_from(x).expect("switch delta exceeds i32 range");
    (narrow(df), narrow(dr))
}

#[inline]
fn widen((df, dr): SwitchDelta) -> (i64, i64) {
    (i64::from(df), i64::from(dr))
}

/// Where an [`ExtendedKl`] run starts: a partition and every node's
/// [`SwitchDelta`] under it. A switch delta does not depend on `k`, so a
/// sweep counts one start and hands every `k` a copy; the run then
/// carries the deltas from pass to pass instead of rescanning adjacency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KlStart {
    partition: Partition,
    deltas: Vec<SwitchDelta>,
}

impl KlStart {
    /// Counts the cut of `region` and every node's switch delta in one
    /// scan of `adj`.
    ///
    /// # Panics
    ///
    /// Panics if `region` does not cover exactly the source's nodes.
    pub fn count<A: Adjacency>(adj: &mut A, region: Vec<Region>) -> Result<Self, A::Error> {
        assert_eq!(region.len(), adj.num_nodes(), "region vector has wrong length");
        let (mut cross_f, mut cross_r) = (0u64, 0u64);
        let mut deltas = Vec::with_capacity(region.len());
        for i in 0..region.len() {
            let u = NodeId::from_index(i);
            let n = adj.neighbors(u)?;
            let (f, r) = Partition::cut_edges(&region, u, n);
            cross_f += f;
            cross_r += r;
            deltas.push(carry(Partition::switch_delta_in(&region, u, n)));
        }
        Ok(KlStart { partition: Partition::from_parts(region, cross_f, cross_r), deltas })
    }

    /// A start whose parts were computed elsewhere, e.g. summed over graph
    /// shards with [`Partition::cut_edges`] and
    /// [`Partition::switch_delta_in`]. The parts are trusted: they must be
    /// what [`KlStart::count`] would give.
    ///
    /// # Panics
    ///
    /// Panics if there is not one delta per node of `partition`.
    pub fn from_parts(partition: Partition, deltas: Vec<SwitchDelta>) -> Self {
        assert_eq!(deltas.len(), partition.len(), "one switch delta per node");
        KlStart { partition, deltas }
    }
}

/// The regions of `p`, by id.
fn regions_of(p: &Partition) -> Vec<Region> {
    (0..p.len()).map(|i| p.region(NodeId::from_index(i))).collect()
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
/// the network and fail (§V). The kernel reads a node's adjacency when it
/// pops the node and again when it replays a committed move onto the
/// carried deltas; a run's starting deltas come from one scan
/// ([`KlStart::count`]) or from the source's own bulk computation
/// ([`KlStart::from_parts`]).
pub trait Adjacency {
    /// What a failed lookup reports.
    type Error;

    /// Number of nodes; ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// The three adjacency lists of `u`.
    fn neighbors(&mut self, u: NodeId) -> Result<Neighbors<'_>, Self::Error>;

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
/// Each node's switch delta `(ΔF, ΔR)` is the kernel's carried state
/// ([`KlStart`]): a pass files every unlocked node at `k.gain(Δ)` in
/// `O(n)`, and after the pass only the committed prefix is replayed onto
/// the deltas, reading the committed nodes' adjacency once more. No pass
/// rescans the graph.
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

/// A tentative switch: node, gain, and cut delta (so undoing it needs no
/// adjacency lookup).
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

    /// The scaled objective `den·|F(Ū,U)| − num·|R⟨Ū,U⟩|` of a partition.
    pub fn objective(&self, p: &Partition) -> i64 {
        let den = obj_i64(self.cfg.k.den());
        let num = obj_i64(self.cfg.k.num());
        den * obj_i64(p.cross_friendships()) - num * obj_i64(p.cross_rejections())
    }

    /// Runs the optimization from `start` and returns the refined
    /// partition, or the first failed adjacency lookup.
    ///
    /// The run allocates its scratch once: the per-node pass records (the
    /// in-pass delta next to the bound costs), the bucket list (every pass
    /// empties it, so the next pass starts from an empty index) and the
    /// move buffer. Each pass fills the bucket list from the carried
    /// deltas, switches nodes in `p` itself and rolls back the moves after
    /// its best prefix; the kept prefix is then replayed onto the carried
    /// deltas, so the next pass starts from exact deltas without a scan.
    ///
    /// # Panics
    ///
    /// Panics if `start` does not cover exactly the source's nodes.
    pub fn try_run(&mut self, start: KlStart) -> Result<KlOutcome, A::Error> {
        let KlStart { partition: mut p, deltas: mut carried } = start;
        assert_eq!(p.len(), self.locked.len(), "partition size mismatch");
        let obs = self.obs.clone();
        let mut passes = 0usize;
        let mut moves_committed = 0u64;
        let mut bucket_adjusts = 0u64;
        let mut interrupted = false;
        let mut scratch = Scratch {
            nodes: vec![PassNode::default(); p.len()],
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
            bucket_adjusts += self.one_pass(&mut p, &carried, &mut scratch)?;
            let kept = best_prefix_len(&scratch.seq);
            if kept == 0 {
                undo(&mut p, &scratch.seq);
                break;
            }
            self.replay(&mut p, &mut carried, &scratch.seq, kept)?;
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

    /// Commits the pass's best prefix, `seq[..kept]`, and carries every
    /// node's delta along with it. `p` goes back to the pass's start (the
    /// whole pass undone newest first), then each kept move is applied
    /// again in order: its neighbours' deltas change as they did during
    /// the pass, whether or not they were still indexed, and the mover's
    /// own delta negates. Only the committed nodes' adjacency is read.
    fn replay(
        &mut self,
        p: &mut Partition,
        carried: &mut [SwitchDelta],
        seq: &[Move],
        kept: usize,
    ) -> Result<(), A::Error> {
        undo(p, seq);
        for &(u, _, delta) in &seq[..kept] {
            debug_assert_eq!(widen(carried[u.index()]), delta, "carried delta of node {u} drifted");
            let n = self.adj.neighbors(u)?;
            let from = p.region(u);
            let now_in = p.apply_switch(u, delta);
            // A self-rejection never enters a delta (`switch_delta` skips
            // it), so the mover's own entries are skipped here too.
            for &v in n.friends {
                let t = if p.region(v) == from { 1 } else { -1 };
                carried[v.index()].0 -= 2 * t;
            }
            let da = if now_in == Region::Legit { 1 } else { -1 };
            for &v in n.rejected_by.iter().filter(|&&v| v != u) {
                let s_v = if p.region(v) == Region::Legit { 1 } else { -1 };
                carried[v.index()].1 += s_v * da;
            }
            let db = if now_in == Region::Suspect { 1 } else { -1 };
            for &v in n.rejectors_of.iter().filter(|&&v| v != u) {
                let s_v = if p.region(v) == Region::Legit { 1 } else { -1 };
                carried[v.index()].1 -= s_v * db;
            }
            let (df, dr) = carried[u.index()];
            carried[u.index()] = (-df, -dr);
        }
        Ok(())
    }

    /// Verifies the incremental gain index against recomputation from
    /// scratch: every node still indexed in `bucket` must carry in
    /// `deltas` exactly the switch delta [`Partition::switch_delta`]
    /// derives under `p` and be filed at its gain, and the bucket's own
    /// chain structure must be sound ([`BucketList::assert_consistent`]).
    /// This is the full-strength version of the spot check a pass makes at
    /// pop time — `O(n·deg)` per call, so it is compiled only under the
    /// `debug-invariants` feature, where every pass runs it after the
    /// initial fill and after every move's neighbor adjustments, over
    /// whichever source the kernel runs on. Public so tests can aim it at
    /// a deliberately corrupted index.
    ///
    /// # Panics
    ///
    /// Panics on the first indexed node whose delta or gain disagrees with
    /// the recomputed value, or on bucket-chain corruption.
    #[cfg(feature = "debug-invariants")]
    pub fn assert_gain_index(
        &mut self,
        p: &Partition,
        bucket: &BucketList,
        deltas: &[SwitchDelta],
    ) -> Result<(), A::Error> {
        bucket.assert_consistent();
        let fresh = KlStart::count(&mut self.adj, regions_of(p))?;
        for (u, &fresh) in fresh.deltas.iter().enumerate() {
            if !bucket.contains(NodeId::from_index(u).0) {
                continue;
            }
            let indexed = bucket.gain_of(NodeId::from_index(u).0);
            let want = self.cfg.k.gain(widen(fresh));
            assert_eq!(
                indexed, want,
                "gain index corrupt: node {u} indexed at {indexed}, recomputed {want}"
            );
            crate::invariants::assert_delta(u, deltas[u], fresh);
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
    /// The bucket list is filed from `carried`, each node's delta at the
    /// pass start. While a node is indexed, its in-pass delta changes
    /// wherever its gain does, so a pop reads its delta instead of
    /// rescanning its adjacency.
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
    fn one_pass(
        &mut self,
        p: &mut Partition,
        carried: &[SwitchDelta],
        scratch: &mut Scratch,
    ) -> Result<u64, A::Error> {
        // A self-rejection is never charged, so it keeps the bound below
        // the objective even once every node has popped.
        #[cfg(feature = "debug-invariants")]
        let self_rejections = {
            let fresh = KlStart::count(&mut self.adj, regions_of(p))?;
            for (u, (&have, &want)) in carried.iter().zip(&fresh.deltas).enumerate() {
                crate::invariants::assert_delta(u, have, want);
            }
            let mut any = false;
            for i in 0..p.len() {
                let u = NodeId::from_index(i);
                any |= self.adj.neighbors(u)?.rejected_by.contains(&u);
            }
            any
        };
        let Scratch { nodes, bucket, seq } = scratch;
        let k = self.cfg.k;
        let (num, den) = (obj_i64(k.num()), obj_i64(k.den()));
        debug_assert!(bucket.is_empty(), "a pass starts from an empty bucket list");
        for (u, (node, &delta)) in nodes.iter_mut().zip(carried).enumerate() {
            *node = PassNode { delta, side: [0; 2] };
            if !self.locked[u] {
                bucket.insert(NodeId::from_index(u).0, k.gain(widen(delta)));
            }
        }
        #[cfg(feature = "debug-invariants")]
        self.assert_gain_index(p, bucket, &in_pass(nodes))?;

        seq.clear();
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
            let PassNode { delta, side: costs } = nodes[u.index()];
            let delta = widen(delta);
            debug_assert_eq!(delta, p.switch_delta(u, n), "stale delta for node {u}");
            debug_assert_eq!(gain, k.gain(delta), "stale gain for node {u}");
            seq.push((u, gain, delta));
            let from = p.region(u);
            let now_in = p.apply_switch(u, delta);
            fixed += costs[side_of(now_in)];
            sum_min -= costs[0].min(costs[1]);

            // Incremental gain and delta updates for u's still-indexed
            // neighbors. Friendship edges: the (v, u) term of v's
            // Δfriendship flips. The edge is cut if v ends in the region u
            // left.
            for &v in n.friends {
                let t = if p.region(v) == from { 1 } else { -1 };
                if bucket.adjust_if_present(v.0, 2 * den * i64::from(t)) {
                    adjusts += 1;
                    let node = &mut nodes[v.index()];
                    node.delta.0 -= 2 * t;
                    node.charge(&mut sum_min, from, den);
                }
            }
            // u rejected v  ⇒  u is a rejector of v: v's "rejectors in
            // Legit" count changed by ±1. The rejection counts if u stays
            // Legit and v ends Suspect.
            let da = if now_in == Region::Legit { 1 } else { -1 };
            for &v in n.rejected_by {
                let s_v = if p.region(v) == Region::Legit { 1 } else { -1 };
                if bucket.adjust_if_present(v.0, num * i64::from(s_v * da)) {
                    adjusts += 1;
                    let node = &mut nodes[v.index()];
                    node.delta.1 += s_v * da;
                    open -= 1;
                    if now_in == Region::Legit {
                        node.charge(&mut sum_min, Region::Suspect, -num);
                    }
                }
            }
            // v rejected u  ⇒  u is in v's rejected set: v's "rejectees in
            // Suspect" count changed by ±1. The rejection counts if u stays
            // Suspect and v ends Legit.
            let db = if now_in == Region::Suspect { 1 } else { -1 };
            for &v in n.rejectors_of {
                let s_v = if p.region(v) == Region::Legit { 1 } else { -1 };
                if bucket.adjust_if_present(v.0, -num * i64::from(s_v * db)) {
                    adjusts += 1;
                    let node = &mut nodes[v.index()];
                    node.delta.1 -= s_v * db;
                    open -= 1;
                    if now_in == Region::Suspect {
                        node.charge(&mut sum_min, Region::Legit, -num);
                    }
                }
            }
            #[cfg(feature = "debug-invariants")]
            self.assert_gain_index(p, bucket, &in_pass(nodes))?;

            cum += gain;
            best = best.max(cum);
            let floor = fixed + sum_min - num * open;
            #[cfg(feature = "debug-invariants")]
            crate::invariants::assert_pass_bound(
                floor,
                obj0 - cum,
                self.objective(p),
                bucket.is_empty() && !self.locked.contains(&true) && !self_rejections,
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
    nodes: Vec<PassNode>,
    bucket: BucketList,
    seq: Vec<Move>,
}

/// One node's state during a pass. A neighbour whose gain is adjusted has
/// both fields updated, so they share one record.
#[derive(Debug, Clone, Copy, Default)]
struct PassNode {
    /// The switch delta: the carried delta, kept current while the node
    /// is indexed.
    delta: SwitchDelta,
    /// While the node is indexed, the cost of its edges to popped nodes if
    /// it ends Legit (`[0]`) and if it ends Suspect (`[1]`).
    side: [i64; 2],
}

impl PassNode {
    /// Adds `cost` to the node's cost of ending in `region`, keeping
    /// `sum_min` the sum of the records' minima.
    #[inline]
    fn charge(&mut self, sum_min: &mut i64, region: Region, cost: i64) {
        let c = &mut self.side;
        let before = c[0].min(c[1]);
        c[side_of(region)] += cost;
        *sum_min += c[0].min(c[1]) - before;
    }
}

/// The in-pass deltas, for the `debug-invariants` checker.
#[cfg(feature = "debug-invariants")]
fn in_pass(nodes: &[PassNode]) -> Vec<SwitchDelta> {
    nodes.iter().map(|n| n.delta).collect()
}

/// Undoes every move of `seq`, newest first, so every intermediate state
/// is one the pass went through and no counter dips below zero.
fn undo(p: &mut Partition, seq: &[Move]) {
    for &(u, _, (df, dr)) in seq.iter().rev() {
        p.apply_switch(u, (-df, -dr));
    }
}

/// The index of `r` in a `side` record.
#[inline]
fn side_of(r: Region) -> usize {
    match r {
        Region::Legit => 0,
        Region::Suspect => 1,
    }
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
    /// in-memory graph, from `initial`: the starting deltas come from one
    /// scan of the source ([`KlStart::count`]).
    pub fn run(&self, initial: Partition) -> KlOutcome {
        let mut kl = self.clone();
        let Ok(start) = KlStart::count(&mut kl.adj, regions_of(&initial));
        let Ok(out) = kl.try_run(start);
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
