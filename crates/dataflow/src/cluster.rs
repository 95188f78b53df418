//! The master/worker deployment of Rejecto (§V).
//!
//! Long-lived worker threads serve contiguous shards of the augmented
//! graph's adjacency, each a view of the shared lineage graph; the master
//! holds node status, gains, and the bucket list, and pulls node
//! neighborhoods, one allocation each, through a prefetching LRU buffer.
//! Every master↔worker exchange is counted in [`IoStats`], so the Table-II
//! harness can report both wall time and simulated network traffic.
//!
//! The master runs no algorithm of its own. Its `k` sweep builds the same
//! [`SweepPlan`] as the in-process solver, from per-node degrees the
//! workers report, and runs the one extended-KL kernel
//! ([`kl::ExtendedKl`]) over [`ClusterAdjacency`]: an [`Adjacency`]
//! source that answers a node lookup from the LRU buffer and prefetches
//! the top of the bucket list in batches. A miss fetches the node with a
//! read-ahead: the non-resident ids after it in its shard, into free
//! buffer slots only. A sweep costs two broadcasts: the degrees, and the
//! initial cut with every node's switch delta, which the kernel then
//! carries from pass to pass.
//! The cut is therefore the in-process cut by construction; only the data
//! layout and the traffic differ.
//!
//! # Failure model
//!
//! The cluster keeps the source graph as its **lineage** (the RDD model)
//! and degrades through three tiers before ever failing a request:
//!
//! 1. **Respawn**: a dead worker (broken channel) or a *hung* worker
//!    (no answer within [`ClusterConfig::request_deadline`], detected by
//!    the per-request watchdog) is rebuilt from lineage after a
//!    deterministic exponential backoff, and the in-flight request is
//!    replayed ([`IoStats::worker_restarts`]).
//! 2. **Rebalance**: a worker that keeps dying through the whole
//!    [`ClusterConfig::max_respawns`] budget has its shard merged onto an
//!    adjacent survivor ([`IoStats::shards_rebalanced`]); the algorithm
//!    sees the same data from fewer workers.
//! 3. **Structured failure**: only when no survivor remains does a
//!    [`ClusterError`] surface — never a panic.
//!
//! Because recovery replays requests against byte-identical lineage data,
//! any fault schedule that leaves at least one worker alive yields results
//! byte-identical to the failure-free run.

use crate::error::ClusterError;
use crate::LruCache;
use crossbeam::channel::{unbounded, Receiver, Sender};
use kl::{Adjacency, BucketList, KParam, KlStart, SwitchDelta};
use rejection::{AugmentedGraph, Neighbors, NodeDegrees, NodeId, Partition, Region};
use rejecto_core::{
    sweep_with_fallback, Completion, Faults, KResult, RejectoConfig, RunContext, RuntimeError,
    SweepOutcome, SweepPlan,
};
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Never tighten the per-request watchdog below this, even when the run
/// deadline is about to expire: a healthy worker that needs a few
/// milliseconds must not be misdiagnosed as hung and respawned in a loop.
const WATCHDOG_FLOOR: Duration = Duration::from_millis(250);

/// One node's adjacency as shipped from a worker to the master: its
/// friends, the users whose requests it rejected, and the users who
/// rejected its requests, back to back in one allocation.
#[derive(Debug, Clone)]
struct NodeData {
    adj: Box<[NodeId]>,
    /// Where the friends segment and the rejected segment end; the
    /// rejectors segment runs to the end of `adj`.
    ends: [usize; 2],
}

impl NodeData {
    fn of(n: Neighbors<'_>) -> Self {
        let friends = n.friends.len();
        let rejected = friends + n.rejected_by.len();
        let mut adj = Vec::with_capacity(rejected + n.rejectors_of.len());
        adj.extend_from_slice(n.friends);
        adj.extend_from_slice(n.rejected_by);
        adj.extend_from_slice(n.rejectors_of);
        NodeData { adj: adj.into_boxed_slice(), ends: [friends, rejected] }
    }

    fn neighbors(&self) -> Neighbors<'_> {
        let (friends, rest) = self.adj.split_at(self.ends[0]);
        let (rejected_by, rejectors_of) = rest.split_at(self.ends[1] - self.ends[0]);
        Neighbors { friends, rejected_by, rejectors_of }
    }
}

/// Cluster sizing and failure-handling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Worker threads (graph shards).
    pub num_workers: usize,
    /// Nodes fetched per prefetch batch (top of the bucket list), and the
    /// most a buffer miss fetches: the missed node plus its read-ahead,
    /// the non-resident ids after it in its shard, while the buffer has
    /// free slots for them.
    pub prefetch_batch: usize,
    /// Capacity of the master's LRU prefetch buffer, in nodes.
    pub buffer_capacity: usize,
    /// Watchdog deadline for one master↔worker request: a worker that has
    /// not answered within this window is declared hung and respawned from
    /// lineage. Generous by default — it only has to beat a genuine hang,
    /// not a slow shard.
    pub request_deadline: Duration,
    /// Respawn attempts per request before the worker is declared
    /// persistently failed and its shard is rebalanced onto a survivor.
    pub max_respawns: usize,
    /// Base of the deterministic exponential backoff between respawn
    /// attempts (`backoff_base * 2^attempt`, saturating).
    pub backoff_base: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_workers: 4,
            prefetch_batch: 256,
            buffer_capacity: 1 << 16,
            request_deadline: Duration::from_secs(5),
            max_respawns: 3,
            backoff_base: Duration::from_millis(1),
        }
    }
}

impl ClusterConfig {
    /// Validates the graph-independent knobs.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidConfig`] for zero workers, a zero prefetch
    /// batch, a zero-capacity prefetch buffer, or a zero request deadline
    /// — each would panic or silently hang deeper in the runtime.
    pub fn validate(&self) -> Result<(), ClusterError> {
        let reject = |message: &str| {
            Err(ClusterError::InvalidConfig { message: message.to_string() })
        };
        if self.num_workers == 0 {
            return reject("num_workers must be at least 1");
        }
        if self.prefetch_batch == 0 {
            return reject("prefetch_batch must be at least 1");
        }
        if self.buffer_capacity == 0 {
            return reject("buffer_capacity must be at least 1");
        }
        if self.request_deadline.is_zero() {
            return reject("request_deadline must be non-zero");
        }
        Ok(())
    }
}

/// Simulated master↔worker traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Fetch round trips (one request fan-out counts once).
    pub fetch_batches: u64,
    /// Node neighborhoods shipped to the master.
    pub nodes_fetched: u64,
    /// Adjacency lookups served from the prefetch buffer.
    pub buffer_hits: u64,
    /// Adjacency lookups that found their node not resident, each of
    /// which fetched it with its read-ahead. A prefetch looks nothing up,
    /// so hits plus misses is the kernel's lookups.
    pub buffer_misses: u64,
    /// Per-sweep broadcasts dispatched: the degree stats and the initial
    /// cut with every node's switch delta.
    pub init_jobs: u64,
    /// Workers respawned from lineage after a failure (§V: Spark's
    /// "automated fault tolerance").
    pub worker_restarts: u64,
    /// Shards merged onto a survivor after a worker failed persistently
    /// (graceful degradation past the respawn budget).
    pub shards_rebalanced: u64,
    /// Injected or real hangs the watchdog timed out and recovered from
    /// (each one burned a deadline budget before the respawn ladder ran).
    pub hangs_absorbed: u64,
}

impl IoStats {
    /// Accumulates `other` into `self`, field by field.
    ///
    /// The exhaustive destructuring is deliberate: adding a field to
    /// [`IoStats`] without extending this merge is a compile error, not a
    /// silently dropped counter.
    pub fn merge(&mut self, other: &IoStats) {
        let IoStats {
            fetch_batches,
            nodes_fetched,
            buffer_hits,
            buffer_misses,
            init_jobs,
            worker_restarts,
            shards_rebalanced,
            hangs_absorbed,
        } = *other;
        self.fetch_batches += fetch_batches;
        self.nodes_fetched += nodes_fetched;
        self.buffer_hits += buffer_hits;
        self.buffer_misses += buffer_misses;
        self.init_jobs += init_jobs;
        self.worker_restarts += worker_restarts;
        self.shards_rebalanced += shards_rebalanced;
        self.hangs_absorbed += hangs_absorbed;
    }
}

impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, other: IoStats) {
        self.merge(&other);
    }
}

enum Request {
    /// Ship the adjacency of these owned nodes.
    Fetch(Vec<u32>),
    /// Report the adjacency sizes of the owned range.
    Stats,
    /// Count cross-cut friendships and rejections for the owned range and
    /// derive its nodes' switch deltas.
    CutCounts { regions: Arc<Vec<Region>> },
    Shutdown,
}

/// Worker answers. Range-spanning responses carry the shard base so the
/// master can place results even when a rebalance has merged shards since
/// the request went out.
enum Response {
    Nodes(Vec<(u32, NodeData)>),
    /// Adjacency sizes for the owned range, in id order.
    Stats { base: u32, stats: Vec<NodeDegrees> },
    /// `(cross_friendships_counted_once, cross_rejections)` and the owned
    /// range's switch deltas, in id order.
    CutCounts { base: u32, friends: u64, rejections: u64, deltas: Vec<SwitchDelta> },
}

impl Response {
    /// The contiguous `[base, end)` node span this response covers, when
    /// the variant spans one (broadcast collection walks these spans).
    fn span(&self) -> Option<(u32, u32)> {
        match self {
            Response::Nodes(_) => None,
            Response::Stats { base, stats } => Some((*base, base + stats.len() as u32)),
            Response::CutCounts { base, deltas, .. } => Some((*base, base + deltas.len() as u32)),
        }
    }
}

struct Worker {
    tx: Sender<Request>,
    rx: Receiver<Response>,
    handle: Option<JoinHandle<()>>,
    range: (u32, u32),
    /// A request was sent (by the broadcast fan-out) and its response has
    /// not been collected yet.
    pending: bool,
}

/// A running worker pool holding the sharded augmented graph.
///
/// Failures degrade through three tiers: respawn from lineage, then
/// rebalance onto survivors, then a structured [`ClusterError`] — never a
/// panic.
pub struct Cluster {
    graph: Arc<AugmentedGraph>,
    workers: RefCell<Vec<Worker>>,
    restarts: Cell<u64>,
    rebalances: Cell<u64>,
    num_nodes: usize,
    /// Current per-request watchdog deadline (monotonically tightened).
    watchdog: Cell<Duration>,
    max_respawns: usize,
    backoff_base: Duration,
    /// 1-based fetch batch counter, the clock injected deaths and hangs
    /// key on.
    fetch_seq: Cell<u64>,
    /// Injected deaths left to fire (kill-before-send), armed by a
    /// `worker_death@fetch=<n>[:x<m>]` schedule reaching its fetch.
    pending_deaths: Cell<u32>,
    /// Injected hangs left to fire (the next request is swallowed), armed
    /// by a `worker_hang@fetch=<n>` fault reaching its fetch.
    pending_hangs: Cell<u32>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("num_workers", &self.workers.borrow().len())
            .field("num_nodes", &self.num_nodes)
            .field("restarts", &self.restarts.get())
            .field("rebalances", &self.rebalances.get())
            .finish()
    }
}

/// A worker's shard: the nodes `lo..hi` of the lineage graph, served
/// straight from the shared immutable `Arc` (the shard is a deterministic
/// function of the lineage, so a respawn or rebalance copies nothing).
struct Shard {
    graph: Arc<AugmentedGraph>,
    lo: u32,
    hi: u32,
}

impl Shard {
    /// The owned nodes with their adjacency.
    fn owned(&self) -> impl Iterator<Item = (NodeId, Neighbors<'_>)> + '_ {
        (self.lo..self.hi).map(|id| (NodeId(id), self.graph.neighbors(NodeId(id))))
    }

    fn serve(self, rx: Receiver<Request>, tx: Sender<Response>) {
        while let Ok(req) = rx.recv() { // xtask-allow: channel-discipline: shard serve loop parks until the owner sends a request; shutdown arrives as Request::Shutdown or a hangup, so blocking cannot wedge the cluster
            let base = self.lo;
            let _ = tx.send(match req {
                Request::Shutdown => break,
                Request::Fetch(ids) => Response::Nodes(
                    ids.into_iter()
                        .map(|id| {
                            debug_assert!((self.lo..self.hi).contains(&id), "node {id} not owned");
                            (id, NodeData::of(self.graph.neighbors(NodeId(id))))
                        })
                        .collect(),
                ),
                Request::Stats => Response::Stats {
                    base,
                    stats: self.owned().map(|(_, n)| NodeDegrees::of(n)).collect(),
                },
                Request::CutCounts { regions } => {
                    let (mut friends, mut rejections) = (0u64, 0u64);
                    let mut deltas = Vec::with_capacity((self.hi - self.lo) as usize);
                    for (u, n) in self.owned() {
                        let (f, r) = Partition::cut_edges(&regions, u, n);
                        friends += f;
                        rejections += r;
                        deltas.push(kl::carry(Partition::switch_delta_in(&regions, u, n)));
                    }
                    Response::CutCounts { base, friends, rejections, deltas }
                }
            });
        }
    }
}

fn spawn_worker(
    graph: &Arc<AugmentedGraph>,
    lo: u32,
    hi: u32,
    wi: usize,
) -> Result<Worker, ClusterError> {
    let (req_tx, req_rx) = unbounded::<Request>();
    let (resp_tx, resp_rx) = unbounded::<Response>();
    let shard = Shard { graph: Arc::clone(graph), lo, hi };
    let handle = std::thread::Builder::new()
        .name(format!("rejecto-worker-{wi}"))
        .spawn(move || shard.serve(req_rx, resp_tx))
        .map_err(|e| ClusterError::SpawnFailed { worker: wi, message: e.to_string() })?;
    Ok(Worker { tx: req_tx, rx: resp_rx, handle: Some(handle), range: (lo, hi), pending: false })
}

/// Shuts a worker down and reclaims its thread. Channels are dropped
/// *before* the join so a hung worker (blocked with no shutdown pending)
/// observes its request channel closing and exits instead of deadlocking
/// the master.
fn reap(worker: Worker) {
    let Worker { tx, rx, handle, .. } = worker;
    let _ = tx.send(Request::Shutdown);
    drop(tx);
    drop(rx);
    if let Some(h) = handle {
        let _ = h.join();
    }
}

impl Cluster {
    /// Shards `g` across `config.num_workers` worker threads. The graph is
    /// retained on the master as the recovery lineage.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidConfig`] when the config fails
    /// [`ClusterConfig::validate`] or asks for more workers (shards) than
    /// the graph has nodes; [`ClusterError::SpawnFailed`] when the OS
    /// refuses a worker thread.
    pub fn new(g: &AugmentedGraph, config: &ClusterConfig) -> Result<Self, ClusterError> {
        Cluster::from_arc(Arc::new(g.clone()), config)
    }

    /// Shards an already-shared graph (avoids the clone in
    /// [`Cluster::new`]).
    ///
    /// # Errors
    ///
    /// As [`Cluster::new`].
    pub fn from_arc(
        graph: Arc<AugmentedGraph>,
        config: &ClusterConfig,
    ) -> Result<Self, ClusterError> {
        config.validate()?;
        let n = graph.num_nodes();
        let w = config.num_workers;
        if w > n.max(1) {
            return Err(ClusterError::InvalidConfig {
                message: format!("num_workers ({w}) exceeds the graph's {n} node(s)"),
            });
        }
        // Balanced contiguous shards: every shard non-empty for n > 0.
        let workers = (0..w)
            .map(|wi| {
                let lo = (wi * n / w) as u32;
                let hi = ((wi + 1) * n / w) as u32;
                spawn_worker(&graph, lo, hi, wi)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Cluster {
            graph,
            workers: RefCell::new(workers),
            restarts: Cell::new(0),
            rebalances: Cell::new(0),
            num_nodes: n,
            watchdog: Cell::new(config.request_deadline),
            max_respawns: config.max_respawns,
            backoff_base: config.backoff_base,
            fetch_seq: Cell::new(0),
            pending_deaths: Cell::new(0),
            pending_hangs: Cell::new(0),
        })
    }

    /// Number of users the cluster holds.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of worker shards (shrinks when shards are rebalanced).
    pub fn num_workers(&self) -> usize {
        self.workers.borrow().len()
    }

    /// Total workers respawned from lineage so far.
    pub fn worker_restarts(&self) -> u64 {
        self.restarts.get()
    }

    /// Total shards merged onto a survivor so far.
    pub fn shards_rebalanced(&self) -> u64 {
        self.rebalances.get()
    }

    /// Arms `n` injected hangs: each swallows one request so only the
    /// watchdog can notice that no answer is coming.
    pub(crate) fn arm_hang(&self, n: u32) {
        self.pending_hangs.set(self.pending_hangs.get() + n);
    }

    /// Tightens the per-request watchdog (floored so a near-expired run
    /// deadline cannot misdiagnose healthy workers as hung).
    pub fn tighten_watchdog(&self, limit: Duration) {
        let floored = limit.max(WATCHDOG_FLOOR);
        self.watchdog.set(self.watchdog.get().min(floored));
    }

    /// Kills worker `wi` (test hook simulating a crash). The next request
    /// routed to it triggers a lineage respawn.
    ///
    /// # Panics
    ///
    /// Panics if `wi` is out of range.
    pub fn fail_worker(&self, wi: usize) {
        let mut workers = self.workers.borrow_mut();
        let w = &mut workers[wi];
        let _ = w.tx.send(Request::Shutdown);
        if let Some(h) = w.handle.take() {
            let _ = h.join();
        }
    }

    fn owner(&self, id: u32) -> usize {
        // Shard ranges are sorted, disjoint, and contiguous — and stay so
        // across rebalances (a dead shard merges into an adjacent one) —
        // so binary search stays valid for the cluster's whole life.
        let workers = self.workers.borrow();
        workers
            .partition_point(|w| w.range.1 <= id)
            .min(workers.len() - 1)
    }

    /// The `[lo, hi)` node range of the shard that owns `id`.
    fn shard_of(&self, id: u32) -> (u32, u32) {
        self.workers.borrow()[self.owner(id)].range
    }

    /// Replaces worker `wi` with a fresh spawn of the same shard range.
    fn respawn(&self, wi: usize) -> Result<(), ClusterError> {
        let old = {
            let mut workers = self.workers.borrow_mut();
            let (lo, hi) = workers[wi].range;
            let fresh = spawn_worker(&self.graph, lo, hi, wi)?;
            std::mem::replace(&mut workers[wi], fresh)
        };
        self.restarts.set(self.restarts.get() + 1);
        reap(old);
        Ok(())
    }

    /// Merges the persistently failing worker `wi`'s shard onto an
    /// adjacent survivor and returns the index now owning the merged
    /// range.
    ///
    /// # Errors
    ///
    /// [`ClusterError::WorkerLost`] when `wi` is the last worker.
    fn rebalance(
        &self,
        wi: usize,
        attempts: usize,
        io: &mut IoStats,
    ) -> Result<usize, ClusterError> {
        let (dead, old) = {
            let mut workers = self.workers.borrow_mut();
            if workers.len() <= 1 {
                return Err(ClusterError::WorkerLost { worker: wi, attempts });
            }
            // Merge left, except for the first shard which merges right;
            // either way the union is contiguous and range order holds.
            let neighbor = if wi > 0 { wi - 1 } else { wi + 1 };
            let (lo, hi) = workers[wi].range;
            let (nlo, nhi) = workers[neighbor].range;
            let fresh =
                spawn_worker(&self.graph, lo.min(nlo), hi.max(nhi), neighbor.min(wi))?;
            let dead = workers.remove(wi);
            let target = if wi > 0 { wi - 1 } else { 0 };
            let old = std::mem::replace(&mut workers[target], fresh);
            (dead, old)
        };
        self.rebalances.set(self.rebalances.get() + 1);
        io.shards_rebalanced += 1;
        reap(dead);
        reap(old);
        Ok(if wi > 0 { wi - 1 } else { 0 })
    }

    /// Sends `make_req` to worker `wi` and awaits the response through the
    /// full recovery ladder: watchdog-bounded receive, bounded respawns
    /// with deterministic backoff, then shard rebalancing.
    fn exchange(
        &self,
        mut wi: usize,
        make_req: &dyn Fn() -> Request,
        io: &mut IoStats,
    ) -> Result<Response, ClusterError> {
        let mut attempt: usize = 0;
        loop {
            // Every attempt gets ONE watchdog interval as its total
            // blocking budget. Draining a stale in-flight response and
            // waiting for the fresh one draw from the same budget — the
            // waits used to each burn a full interval, stacking past
            // `ClusterConfig::request_deadline` when recovering a hang.
            let budget = self.watchdog.get();
            let clock = rejecto_obs::Stopwatch::start();
            let left = || budget.saturating_sub(clock.elapsed());
            // Injected death: the target dies before it can see the
            // request (and keeps dying on respawn while the schedule has
            // deaths left).
            if self.pending_deaths.get() > 0 {
                self.pending_deaths.set(self.pending_deaths.get() - 1);
                self.fail_worker(wi);
            }
            let hang = self.pending_hangs.get() > 0;
            if hang {
                self.pending_hangs.set(self.pending_hangs.get() - 1);
                io.hangs_absorbed += 1;
            }
            let outcome = {
                let mut workers = self.workers.borrow_mut();
                let w = &mut workers[wi];
                let sent = if hang {
                    // The request (or the in-flight response) is lost in
                    // the simulated network; nothing will come back and
                    // only the watchdog below can tell.
                    if w.pending {
                        let _ = w.rx.recv_timeout(left());
                        w.pending = false;
                    }
                    true
                } else if w.pending {
                    true
                } else {
                    match w.tx.send(make_req()) {
                        Ok(()) => {
                            w.pending = true;
                            true
                        }
                        Err(_) => false,
                    }
                };
                if sent && !hang {
                    match w.rx.recv_timeout(left()) {
                        Ok(resp) => {
                            w.pending = false;
                            Some(resp)
                        }
                        Err(_) => None,
                    }
                } else if sent {
                    // The swallowed request: wait out whatever is left of
                    // this attempt's watchdog budget.
                    match w.rx.recv_timeout(left()) {
                        Ok(_) | Err(_) => None,
                    }
                } else {
                    None
                }
            };
            if let Some(resp) = outcome {
                return Ok(resp);
            }
            if attempt < self.max_respawns {
                // Deterministic exponential backoff before the respawn,
                // never longer than one watchdog interval.
                let pause =
                    self.backoff_base.saturating_mul(1u32 << attempt.min(16)).min(budget);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                attempt += 1;
                self.respawn(wi)?;
                io.worker_restarts += 1;
            } else {
                wi = self.rebalance(wi, attempt, io)?;
                attempt = 0;
            }
        }
    }

    /// Broadcasts a request to every worker and collects the responses in
    /// shard order, recovering failed workers along the way.
    fn broadcast(
        &self,
        make_req: &dyn Fn() -> Request,
        io: &mut IoStats,
    ) -> Result<Vec<Response>, ClusterError> {
        // Optimistic fan-out: send to every live worker up front so the
        // shards compute in parallel; failures fall back to the
        // recovering exchange below.
        {
            let mut workers = self.workers.borrow_mut();
            for w in workers.iter_mut() {
                if !w.pending && w.range.0 < w.range.1 && w.tx.send(make_req()).is_ok() {
                    w.pending = true;
                }
            }
        }
        // Collect by node-id coverage rather than worker index: if a
        // mid-collection rebalance merges shards, the merged worker's
        // recomputed response covers the union span. When that span starts
        // before `next`, it supersedes already-collected responses (the
        // merge absorbed a survivor's shard); those are discarded — the
        // recomputation is deterministic over immutable lineage, so the
        // superseding response is byte-identical on the overlap.
        let n = self.num_nodes as u32;
        let mut out: Vec<Response> = Vec::with_capacity(self.num_workers());
        let mut next: u32 = 0;
        while next < n {
            let wi = self.owner(next);
            let resp = self.exchange(wi, make_req, io)?;
            match resp.span() {
                Some((base, end)) if base <= next && end > next => {
                    while out
                        .last()
                        .and_then(Response::span)
                        .is_some_and(|(b, _)| b >= base)
                    {
                        out.pop();
                    }
                    out.push(resp);
                    next = end;
                }
                _ => {
                    return Err(ClusterError::ProtocolViolation {
                        message: format!(
                            "broadcast response from worker {wi} does not cover \
                             nodes starting at {next}"
                        ),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Fetches adjacency for `ids` (grouped by owner; one fan-out counts as
    /// one batch in the stats), first probing `faults` for worker deaths
    /// and hangs scheduled at this batch.
    fn fetch(
        &self,
        ids: &[u32],
        faults: &Faults,
        io: &mut IoStats,
    ) -> Result<Vec<(u32, NodeData)>, ClusterError> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        // Injected deaths and hangs are keyed on this 1-based fetch clock.
        self.fetch_seq.set(self.fetch_seq.get() + 1);
        let due = faults.deaths_at(self.fetch_seq.get());
        if due > 0 {
            self.pending_deaths.set(self.pending_deaths.get() + due);
        }
        if faults.hang_at(self.fetch_seq.get()) {
            self.arm_hang(1);
        }
        let mut per_worker: Vec<Vec<u32>> = vec![Vec::new(); self.num_workers()];
        for &id in ids {
            per_worker[self.owner(id)].push(id);
        }
        io.fetch_batches += 1;
        io.nodes_fetched += ids.len() as u64;
        let mut out = Vec::with_capacity(ids.len());
        for batch in per_worker.into_iter().filter(|b| !b.is_empty()) {
            // Re-resolve the owner per batch: a rebalance while serving an
            // earlier batch shifts worker indices.
            let wi = self.owner(batch[0]);
            match self.exchange(wi, &|| Request::Fetch(batch.clone()), io)? {
                Response::Nodes(nodes) => out.extend(nodes),
                _ => {
                    return Err(ClusterError::ProtocolViolation {
                        message: format!("worker {wi} answered a fetch with a non-Nodes response"),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Broadcasts `make` to every shard and hands each response to
    /// `take`, which returns `false` on a response of the wrong kind.
    fn gather(
        &self,
        what: &str,
        make: &dyn Fn() -> Request,
        io: &mut IoStats,
        mut take: impl FnMut(Response) -> bool,
    ) -> Result<(), ClusterError> {
        io.init_jobs += 1;
        for resp in self.broadcast(make, io)? {
            if !take(resp) {
                return Err(ClusterError::ProtocolViolation {
                    message: format!("{what} broadcast yielded a mismatched response"),
                });
            }
        }
        Ok(())
    }

    /// Per-node adjacency sizes, gathered from every shard in parallel.
    fn degrees(&self, io: &mut IoStats) -> Result<Vec<NodeDegrees>, ClusterError> {
        let mut out = vec![NodeDegrees::default(); self.num_nodes];
        self.gather("stats", &|| Request::Stats, io, |resp| match resp {
            Response::Stats { base, stats } => {
                out[base as usize..][..stats.len()].copy_from_slice(&stats);
                true
            }
            _ => false,
        })?;
        Ok(out)
    }

    /// The kernel start at these regions: the cut counted and every
    /// node's switch delta derived on the shards in parallel.
    fn start(&self, regions: Vec<Region>, io: &mut IoStats) -> Result<KlStart, ClusterError> {
        let regions = Arc::new(regions);
        let (mut cf, mut cr) = (0u64, 0u64);
        let mut all = vec![(0, 0); self.num_nodes];
        let make = || Request::CutCounts { regions: Arc::clone(&regions) };
        self.gather("cut-counts", &make, io, |resp| match resp {
            Response::CutCounts { base, friends, rejections, deltas } => {
                cf += friends;
                cr += rejections;
                all[base as usize..][..deltas.len()].copy_from_slice(&deltas);
                true
            }
            _ => false,
        })?;
        let partition = Partition::from_parts(Arc::unwrap_or_clone(regions), cf, cr);
        Ok(KlStart::from_parts(partition, all))
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let mut workers = self.workers.borrow_mut();
        for w in workers.iter() {
            let _ = w.tx.send(Request::Shutdown);
        }
        for w in workers.iter_mut() {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Result of a distributed MAAR solve.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The suspect region of the winning cut, ascending.
    pub suspects: Vec<NodeId>,
    /// Aggregate acceptance rate of the winning cut (`None` if no
    /// non-degenerate cut was found).
    pub acceptance_rate: Option<f64>,
    /// The winning sweep `k` as the exact rational it was solved with.
    pub k_exact: Option<KParam>,
    /// Simulated traffic counters.
    pub io: IoStats,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// Whether the sweep ran every `k` ([`Completion::Complete`]) or a
    /// budget tripped mid-sweep; the half-finished `k` is rolled back and
    /// the completed sweep indices are reported in the `Partial` payload.
    pub completion: Completion,
    /// Degraded-operation diagnostics surfaced through the run. Worker
    /// respawns and shard rebalances are *not* failures (their replays are
    /// byte-identical) — they are counted in [`IoStats`] instead.
    pub failures: Vec<RuntimeError>,
}

/// Distributed MAAR solver: the same geometric-`k` sweep of extended KL as
/// `rejecto_core::MaarSolver`, executed against a [`Cluster`] with the §V
/// data layout (status + bucket list on the master, adjacency on the
/// workers, prefetch through an LRU buffer).
#[derive(Debug, Clone)]
pub struct DistributedMaar {
    cluster_config: ClusterConfig,
    pub(crate) rejecto: RejectoConfig,
    obs: Option<rejecto_obs::Obs>,
}

impl DistributedMaar {
    /// Creates a solver.
    pub fn new(cluster_config: ClusterConfig, rejecto: RejectoConfig) -> Self {
        DistributedMaar { cluster_config, rejecto, obs: None }
    }

    /// Attaches a metrics registry. The distributed sweep records the same
    /// deterministic span/counter vocabulary as the single-process solver
    /// (`detect/round/sweep/...`, `kl/passes`, `kl/moves_committed`,
    /// `kl/bucket_adjusts`), so worker count is invisible outside the
    /// `timings` section.
    pub fn set_obs(&mut self, obs: rejecto_obs::Obs) {
        self.obs = Some(obs);
    }

    /// The cluster sizing this solver spawns with.
    pub fn cluster_config(&self) -> &ClusterConfig {
        &self.cluster_config
    }

    /// Solves MAAR on `g` using a freshly spawned cluster, arming the
    /// configured budgets and fault plan for this one solve.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ClusterFailed`] when the cluster cannot be built or
    /// loses every worker.
    pub fn solve(&self, g: &AugmentedGraph) -> Result<DistributedOutcome, RuntimeError> {
        let cluster = Cluster::new(g, &self.cluster_config)?;
        let start = rejecto_obs::Stopwatch::start();
        let ctx = RunContext::armed(&self.rejecto, self.obs.clone());
        let mut io = IoStats::default();
        let outcome = self.sweep_on(&cluster, &[], &[], &ctx, &mut io)?;
        let completion = if outcome.interrupted {
            Completion::Partial {
                completed_rounds: 0,
                completed_k_indices: outcome.completed_k_indices,
                reason: ctx.interrupt_reason(),
            }
        } else {
            Completion::Complete
        };
        let cut = outcome.cut;
        Ok(DistributedOutcome {
            suspects: cut.as_ref().map(|c| c.suspects()).unwrap_or_default(),
            acceptance_rate: cut.as_ref().map(|c| c.acceptance_rate),
            k_exact: cut.as_ref().map(|c| c.k),
            io,
            elapsed: start.elapsed(),
            completion,
            failures: outcome.failures,
        })
    }

    /// One round's MAAR cut on `cluster`, with the all-legit fallback. Seed
    /// ids are in the cluster's id space; traffic is added to `io`.
    pub(crate) fn sweep_on(
        &self,
        cluster: &Cluster,
        legit: &[NodeId],
        spammer: &[NodeId],
        ctx: &RunContext,
        io: &mut IoStats,
    ) -> Result<SweepOutcome, RuntimeError> {
        sweep_with_fallback(&self.rejecto, |placement| {
            let _sweep_span = ctx.obs.as_ref().map(|o| o.span("detect/round/sweep"));
            let degrees = cluster.degrees(io)?;
            let plan = SweepPlan::new(&self.rejecto, degrees, legit, spammer, placement, |r| {
                cluster.start(r, io)
            })?;
            // The buffer persists across the whole k sweep — the graph
            // data it caches is k-independent ("we cache intermediate data
            // sets and results in memory, reducing the cost of their
            // future reuse").
            let mut buffer =
                LruCache::new(cluster.num_nodes(), self.cluster_config.buffer_capacity);
            let mut results = Vec::with_capacity(plan.num_ks());
            for i in 0..plan.num_ks() {
                if ctx.token.is_cancelled() {
                    results.push(Some(KResult::Interrupted));
                    break;
                }
                // Bound a potential hang by the remaining run budget.
                if let Some(remaining) = ctx.token.time_remaining() {
                    cluster.tighten_watchdog(remaining);
                }
                let adj = ClusterAdjacency {
                    cluster,
                    faults: &ctx.faults,
                    buffer: &mut buffer,
                    io: &mut *io,
                    prefetch_batch: self.cluster_config.prefetch_batch,
                };
                results.push(Some(plan.solve_k(adj, i, ctx)?));
                if matches!(results.last(), Some(Some(KResult::Interrupted))) {
                    break;
                }
            }
            Ok(SweepOutcome::reduce(results, Vec::new()))
        })
    }
}

/// The cluster as an [`Adjacency`] source for the extended-KL kernel: the
/// master's view of the sharded graph through its LRU prefetch buffer.
struct ClusterAdjacency<'a> {
    cluster: &'a Cluster,
    /// The run's fault table, probed for worker deaths at each fetch.
    faults: &'a Faults,
    buffer: &'a mut LruCache<NodeData>,
    io: &'a mut IoStats,
    prefetch_batch: usize,
}

impl ClusterAdjacency<'_> {
    /// What a miss on `u` fetches: `u`, then the non-resident ids that
    /// follow it in its shard (wrapping to the shard's first node), at
    /// most `min(prefetch_batch, free buffer slots)` nodes in all. One
    /// worker serves the whole batch in one round trip. The read-ahead
    /// only fills free slots, so it never evicts, and a miss on a full
    /// buffer fetches `u` alone.
    fn read_ahead(&self, u: u32) -> Vec<u32> {
        let room = self.buffer.capacity() - self.buffer.len();
        let want = self.prefetch_batch.min(room).max(1);
        let (lo, hi) = self.cluster.shard_of(u);
        let after = (u + 1..hi).chain(lo..u);
        let mut ids = Vec::with_capacity(want);
        ids.push(u);
        ids.extend(after.filter(|&id| !self.buffer.contains(id)).take(want - 1));
        ids
    }
}

impl Adjacency for ClusterAdjacency<'_> {
    type Error = RuntimeError;

    fn num_nodes(&self) -> usize {
        self.cluster.num_nodes()
    }

    /// Served from the buffer when resident; otherwise one fetch of the
    /// node and its read-ahead. Gain updates reorder the bucket between
    /// pops, so a popped node can fall outside the prefetched set.
    fn neighbors(&mut self, u: NodeId) -> Result<Neighbors<'_>, RuntimeError> {
        if self.buffer.contains(u.0) {
            self.io.buffer_hits += 1;
        } else {
            self.io.buffer_misses += 1;
            let ids = self.read_ahead(u.0);
            for (id, data) in self.cluster.fetch(&ids, self.faults, self.io)? {
                self.buffer.insert(id, data);
            }
        }
        let missing = || ClusterError::ProtocolViolation {
            message: format!("node {u} missing from the buffer right after its fetch"),
        };
        Ok(self.buffer.get(u.0).ok_or_else(missing)?.neighbors())
    }

    /// Fetches the non-resident ids among the top `prefetch_batch` of the
    /// bucket list in one batch (§V: "the prefetched nodes are those with
    /// the highest potential move gains"). The batch never exceeds the
    /// buffer: a larger one would evict its own highest-gain nodes before
    /// they are popped.
    fn prefetch(&mut self, upcoming: &BucketList) -> Result<usize, RuntimeError> {
        let top = upcoming.peek_top(self.prefetch_batch.min(self.buffer.capacity()));
        let missing: Vec<u32> =
            top.iter().copied().filter(|&id| !self.buffer.contains(id)).collect();
        for (id, data) in self.cluster.fetch(&missing, self.faults, self.io)? {
            self.buffer.insert(id, data);
        }
        Ok(top.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rejecto_core::InitialPlacement;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rejecto_core::MaarSolver;
    use simulator::{Scenario, ScenarioConfig};
    use socialgraph::generators::BarabasiAlbert;

    fn sim_graph() -> AugmentedGraph {
        scenario_graph(300, 40)
    }

    /// A Barabási–Albert host of `users` plus `fakes` spammers.
    fn scenario_graph(users: usize, fakes: usize) -> AugmentedGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let host = BarabasiAlbert::new(users, 4).generate(&mut rng);
        Scenario::new(ScenarioConfig {
            num_fakes: fakes,
            requests_per_spammer: 12,
            ..ScenarioConfig::default()
        })
        .run(&host, 11)
        .graph
    }

    #[test]
    fn cluster_shards_cover_all_nodes() {
        let g = sim_graph();
        let cluster = Cluster::new(&g, &ClusterConfig::default()).expect("valid default config");
        assert_eq!(cluster.num_nodes(), 340);
        assert_eq!(cluster.num_workers(), 4);
        let mut io = IoStats::default();
        let degrees = cluster.degrees(&mut io).expect("healthy cluster serves stats");
        assert_eq!(degrees, NodeDegrees::of_graph(&g));
    }

    /// `sim_graph` plus an isolated node and a node with rejections but no
    /// friends, so fetches cover every empty-segment shape of a record.
    pub(super) fn edge_case_graph() -> AugmentedGraph {
        let g = sim_graph();
        let n = g.num_nodes() as u32;
        let mut b = rejection::AugmentedGraphBuilder::new(g.num_nodes() + 2);
        for u in g.nodes() {
            for &v in g.friends(u).iter().filter(|v| v.0 > u.0) {
                b.add_friendship(u, v);
            }
            for &v in g.rejected_by(u) {
                b.add_rejection(u, v);
            }
        }
        let (isolated, rejection_only) = (NodeId(n), NodeId(n + 1));
        b.add_rejection(rejection_only, NodeId(0));
        b.add_rejection(NodeId(1), rejection_only);
        let g = b.build();
        let shape = |u| {
            let nb = g.neighbors(u);
            [nb.friends.len(), nb.rejected_by.len(), nb.rejectors_of.len()]
        };
        assert_eq!(shape(isolated), [0, 0, 0]);
        assert_eq!(shape(rejection_only), [0, 1, 1]);
        g
    }

    /// [`DistributedMaar::solve`] on a cluster the test already holds (and
    /// may have crashed workers of): the winning suspects and the traffic.
    pub(super) fn solve_on(dist: &DistributedMaar, cluster: &Cluster) -> (Vec<NodeId>, IoStats) {
        let ctx = RunContext::armed(&dist.rejecto, None);
        let mut io = IoStats::default();
        let outcome =
            dist.sweep_on(cluster, &[], &[], &ctx, &mut io).expect("crashes are recovered");
        (outcome.cut.map(|c| c.suspects()).unwrap_or_default(), io)
    }

    /// Fetches every node of `g` and checks that each record splits back
    /// into exactly the lineage's three segments.
    pub(super) fn assert_fetches_every_node(g: &AugmentedGraph, cluster: &Cluster) -> IoStats {
        let mut io = IoStats::default();
        let ids: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut fetched =
            cluster.fetch(&ids, &Faults::default(), &mut io).expect("cluster serves fetches");
        fetched.sort_by_key(|&(id, _)| id);
        assert_eq!(fetched.iter().map(|&(id, _)| id).collect::<Vec<_>>(), ids);
        for (id, data) in &fetched {
            assert_eq!(data.neighbors(), g.neighbors(NodeId(*id)), "node {id}");
        }
        io
    }

    #[test]
    fn fetch_returns_correct_adjacency() {
        let g = edge_case_graph();
        let cluster = Cluster::new(&g, &ClusterConfig::default()).expect("valid default config");
        let io = assert_fetches_every_node(&g, &cluster);
        assert_eq!(io.fetch_batches, 1);
        assert_eq!(io.nodes_fetched, g.num_nodes() as u64);
    }

    /// The pre-fix prefetch fetched `prefetch_batch` nodes into a smaller
    /// buffer, which then evicted its own batch, highest-gain nodes first,
    /// before they were popped (capacity 8, batch 64: 51 hits for 28,457
    /// nodes fetched, against 6,605 hits for 21,931 with batch 8).
    #[test]
    fn prefetch_never_outgrows_the_buffer() {
        let g = sim_graph();
        let solve = |prefetch_batch| {
            DistributedMaar::new(
                ClusterConfig { buffer_capacity: 8, prefetch_batch, ..Default::default() },
                RejectoConfig::default(),
            )
            .solve(&g)
            .expect("distributed solve succeeds")
        };
        let (wide, narrow) = (solve(64), solve(8));
        assert!(
            wide.io.nodes_fetched <= narrow.io.nodes_fetched,
            "batch 64 fetched {} nodes, batch 8 fetched {}",
            wide.io.nodes_fetched,
            narrow.io.nodes_fetched
        );
        assert_eq!(wide.suspects, narrow.suspects, "prefetching must not change the cut");
    }

    /// Looks `u` up through a [`ClusterAdjacency`] over `buffer` and
    /// returns the traffic and the ids the lookup made resident.
    fn miss(
        g: &AugmentedGraph,
        cluster: &Cluster,
        buffer: &mut LruCache<NodeData>,
        prefetch_batch: usize,
        u: u32,
    ) -> (IoStats, Vec<u32>) {
        let before: Vec<bool> = (0..g.num_nodes() as u32).map(|id| buffer.contains(id)).collect();
        let faults = Faults::default();
        let mut io = IoStats::default();
        let mut adj =
            ClusterAdjacency { cluster, faults: &faults, buffer, io: &mut io, prefetch_batch };
        let got = adj.neighbors(NodeId(u)).expect("healthy cluster serves the miss");
        assert_eq!(got, g.neighbors(NodeId(u)), "node {u}");
        let fetched = (0..g.num_nodes() as u32)
            .filter(|&id| buffer.contains(id) && !before[id as usize])
            .collect();
        (io, fetched)
    }

    #[test]
    fn a_miss_on_a_full_buffer_fetches_only_the_missed_node() {
        let g = sim_graph();
        let cluster = Cluster::new(&g, &ClusterConfig::default()).expect("valid default config");
        let mut buffer = LruCache::new(g.num_nodes(), 16);
        for (id, data) in cluster
            .fetch(&(0..16).collect::<Vec<_>>(), &Faults::default(), &mut IoStats::default())
            .expect("cluster serves fetches")
        {
            buffer.insert(id, data);
        }
        let (io, fetched) = miss(&g, &cluster, &mut buffer, 256, 17);
        assert_eq!(fetched, [17]);
        assert_eq!((io.fetch_batches, io.nodes_fetched, io.buffer_misses), (1, 1, 1));
        assert_eq!(buffer.len(), 16, "one node in, one node out");
        assert!(!buffer.contains(0), "the least recently used node was evicted");
    }

    #[test]
    fn a_miss_with_room_reads_ahead_in_its_shard_in_one_round_trip() {
        let g = sim_graph();
        let cluster = Cluster::new(&g, &ClusterConfig::default()).expect("valid default config");
        // Four shards of 85 nodes: 0..85, 85..170, 170..255, 255..340.
        // (capacity, resident ids, batch, missed id, ids the miss fetches)
        let cases = [
            // The batch binds: the node and the 15 after it.
            (64, vec![], 16, 100, (100..116).collect::<Vec<u32>>()),
            // Free room binds: 20 slots left for a batch of 64.
            (64, (0..44).collect(), 64, 50, (50..70).collect()),
            // Near its shard's end the read-ahead skips resident ids and
            // wraps to the shard's first node.
            (340, vec![168, 85, 87], 8, 167, vec![86, 88, 89, 90, 91, 92, 167, 169]),
            // The shard holds fewer non-resident ids than the batch.
            (340, vec![], 256, 300, (255..340).collect()),
        ];
        for (capacity, resident, batch, u, want) in cases {
            let mut buffer = LruCache::new(g.num_nodes(), capacity);
            for (id, data) in cluster
                .fetch(&resident, &Faults::default(), &mut IoStats::default())
                .expect("cluster serves fetches")
            {
                buffer.insert(id, data);
            }
            let (io, fetched) = miss(&g, &cluster, &mut buffer, batch, u);
            let case = format!("capacity {capacity}, batch {batch}, miss {u}");
            assert_eq!(fetched, want, "{case}");
            assert_eq!(io.fetch_batches, 1, "{case}: one round trip");
            assert_eq!(io.nodes_fetched, want.len() as u64, "{case}");
            assert_eq!(io.buffer_misses, 1, "{case}: one lookup missed, whatever it read ahead");
            assert_eq!(buffer.len(), resident.len() + want.len(), "{case}: nothing evicted");
        }
    }

    /// A prefetch fetches the top of the bucket list without a lookup, so
    /// it counts no miss; the lookups of its nodes that follow are hits.
    #[test]
    fn a_prefetch_fetches_without_counting_a_miss() {
        let g = sim_graph();
        let cluster = Cluster::new(&g, &ClusterConfig::default()).expect("valid default config");
        let mut buffer = LruCache::new(g.num_nodes(), 64);
        let mut upcoming = BucketList::new(g.num_nodes(), -8, 8);
        for (id, gain) in [(3u32, 5i64), (200, 4), (90, 1)] {
            upcoming.insert(id, gain);
        }
        let faults = Faults::default();
        let mut io = IoStats::default();
        let mut adj = ClusterAdjacency {
            cluster: &cluster,
            faults: &faults,
            buffer: &mut buffer,
            io: &mut io,
            prefetch_batch: 8,
        };
        assert_eq!(adj.prefetch(&upcoming).expect("healthy cluster serves the prefetch"), 3);
        for id in [3, 200, 90] {
            let got = adj.neighbors(NodeId(id)).expect("prefetched node is resident");
            assert_eq!(got, g.neighbors(NodeId(id)), "node {id}");
        }
        assert_eq!((io.nodes_fetched, io.buffer_hits, io.buffer_misses), (3, 3, 0));
    }

    /// Read-ahead changes what is resident, never what a lookup returns,
    /// so the cut is the local solver's at every buffer size and worker
    /// count: a buffer that fills (8, 64) and one that never does (n).
    /// The graph is small because the `debug-invariants` checkers read
    /// every node through the buffer after each move.
    #[test]
    fn read_ahead_keeps_the_local_cut_at_every_buffer_and_worker_count() {
        let g = scenario_graph(70, 12);
        let config = RejectoConfig::default();
        let local = MaarSolver::new(config.clone()).solve(&g, &[], &[]).expect("local cut");
        assert!(!local.suspects().is_empty(), "the fixture has no spammer region");
        for buffer_capacity in [8, 64, g.num_nodes()] {
            for num_workers in [1, 2, 4] {
                let cluster_config =
                    ClusterConfig { buffer_capacity, num_workers, ..Default::default() };
                let dist = DistributedMaar::new(cluster_config, config.clone())
                    .solve(&g)
                    .expect("distributed solve succeeds");
                let case = format!("capacity {buffer_capacity}, {num_workers} worker(s)");
                assert_eq!(dist.suspects, local.suspects(), "{case}");
                assert_eq!(dist.k_exact, Some(local.k), "{case}");
                assert_eq!(
                    dist.acceptance_rate.map(f64::to_bits),
                    Some(local.acceptance_rate.to_bits()),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn distributed_solve_matches_single_node_solver() {
        let g = sim_graph();
        let config = RejectoConfig::default();
        let local = MaarSolver::new(config.clone()).solve(&g, &[], &[]).expect("local cut");
        let dist = DistributedMaar::new(ClusterConfig::default(), config)
            .solve(&g)
            .expect("distributed solve succeeds");
        assert_eq!(dist.suspects, local.suspects(), "partitions diverged");
        let ac = dist.acceptance_rate.expect("distributed cut");
        assert!((ac - local.acceptance_rate).abs() < 1e-12);
        assert_eq!(dist.completion, Completion::Complete);
        assert!(dist.failures.is_empty());
    }

    #[test]
    fn prefetching_served_most_lookups_from_buffer() {
        let g = sim_graph();
        let dist = DistributedMaar::new(ClusterConfig::default(), RejectoConfig::default());
        let out = dist.solve(&g).expect("distributed solve succeeds");
        assert!(out.io.buffer_hits > 0);
        // With batch prefetch, fetch round trips must be far fewer than
        // node lookups, each of which is a hit or a miss.
        assert!(
            out.io.fetch_batches * 8 < out.io.buffer_hits + out.io.buffer_misses,
            "batches {} vs lookups {}",
            out.io.fetch_batches,
            out.io.buffer_hits + out.io.buffer_misses
        );
    }

    #[test]
    fn tiny_buffer_forces_more_fetches_than_large_buffer() {
        let g = sim_graph();
        let rejecto = RejectoConfig::default();
        let small = DistributedMaar::new(
            ClusterConfig { buffer_capacity: 8, prefetch_batch: 4, ..Default::default() },
            rejecto.clone(),
        )
        .solve(&g)
        .expect("distributed solve succeeds");
        let large = DistributedMaar::new(ClusterConfig::default(), rejecto)
            .solve(&g)
            .expect("distributed solve succeeds");
        assert!(small.io.nodes_fetched > large.io.nodes_fetched);
        assert_eq!(small.suspects, large.suspects, "buffering must not change the cut");
    }

    #[test]
    fn single_worker_cluster_works() {
        let g = sim_graph();
        let dist = DistributedMaar::new(
            ClusterConfig { num_workers: 1, ..Default::default() },
            RejectoConfig::default(),
        )
        .solve(&g)
        .expect("distributed solve succeeds");
        assert!(!dist.suspects.is_empty());
    }

    #[test]
    fn invalid_configs_are_rejected_structurally() {
        let g = sim_graph();
        for (config, needle) in [
            (ClusterConfig { num_workers: 0, ..Default::default() }, "num_workers"),
            (ClusterConfig { prefetch_batch: 0, ..Default::default() }, "prefetch_batch"),
            (ClusterConfig { buffer_capacity: 0, ..Default::default() }, "buffer_capacity"),
            (
                ClusterConfig { request_deadline: Duration::ZERO, ..Default::default() },
                "request_deadline",
            ),
            (ClusterConfig { num_workers: 100_000, ..Default::default() }, "exceeds"),
        ] {
            match Cluster::new(&g, &config) {
                Err(ClusterError::InvalidConfig { message }) => {
                    assert!(message.contains(needle), "{needle} not in: {message}");
                }
                other => panic!("{needle}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn iostats_merge_accumulates_every_field() {
        // All-distinct values so a swapped or dropped field shows up.
        let a = IoStats {
            fetch_batches: 1,
            nodes_fetched: 2,
            buffer_hits: 3,
            buffer_misses: 4,
            init_jobs: 5,
            worker_restarts: 6,
            shards_rebalanced: 7,
            hangs_absorbed: 8,
        };
        let mut b = IoStats {
            fetch_batches: 10,
            nodes_fetched: 20,
            buffer_hits: 30,
            buffer_misses: 40,
            init_jobs: 50,
            worker_restarts: 60,
            shards_rebalanced: 70,
            hangs_absorbed: 80,
        };
        b.merge(&a);
        assert_eq!(
            b,
            IoStats {
                fetch_batches: 11,
                nodes_fetched: 22,
                buffer_hits: 33,
                buffer_misses: 44,
                init_jobs: 55,
                worker_restarts: 66,
                shards_rebalanced: 77,
                hangs_absorbed: 88,
            }
        );
        let mut c = IoStats::default();
        c += a;
        assert_eq!(c, a, "AddAssign must route through the same merge");
    }

    #[test]
    fn all_legit_retry_path_keeps_every_io_counter() {
        // A rejection-free graph has no cut under either placement, so the
        // warm-started primary sweep finds nothing and the solver retries
        // all-legit; the primary sweep's counters must survive the merge.
        let mut b = rejection::AugmentedGraphBuilder::new(12);
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                b.add_friendship(NodeId(u), NodeId(v));
            }
        }
        let g = b.build();
        let single = DistributedMaar::new(
            ClusterConfig::default(),
            RejectoConfig {
                initial_placement: InitialPlacement::AllLegit,
                ..RejectoConfig::default()
            },
        )
        .solve(&g)
        .expect("distributed solve succeeds");

        let cluster = Cluster::new(&g, &ClusterConfig::default()).expect("valid default config");
        // Crash a worker so the *primary* sweep records a restart: a merge
        // that drops a field (the original bug dropped worker_restarts)
        // fails this test.
        cluster.fail_worker(1);
        let dist = DistributedMaar::new(ClusterConfig::default(), RejectoConfig::default());
        let (suspects, io) = solve_on(&dist, &cluster);
        assert!(suspects.is_empty(), "a rejection-free graph has no cut");
        assert!(
            io.worker_restarts >= 1,
            "the restart from the primary sweep must not be dropped by the merge"
        );
        // On this graph the warm start degenerates to all-legit, so the
        // merged counters must be exactly two single sweeps' worth.
        assert_eq!(io.init_jobs, 2 * single.io.init_jobs);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use rejecto_core::InterruptReason;
    use std::time::Instant;

    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rejecto_core::{FaultPlan, MaarSolver, RejectoConfig, RunBudget};
    use simulator::{Scenario, ScenarioConfig};
    use socialgraph::generators::BarabasiAlbert;

    fn sim_graph() -> AugmentedGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let host = BarabasiAlbert::new(300, 4).generate(&mut rng);
        Scenario::new(ScenarioConfig {
            num_fakes: 40,
            requests_per_spammer: 12,
            ..ScenarioConfig::default()
        })
        .run(&host, 11)
        .graph
    }

    /// A config whose watchdog and backoff are tuned for fast tests.
    fn snappy() -> ClusterConfig {
        ClusterConfig {
            request_deadline: Duration::from_millis(50),
            backoff_base: Duration::ZERO,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn killed_worker_is_respawned_transparently() {
        let g = sim_graph();
        let cluster = Cluster::new(&g, &ClusterConfig::default()).expect("valid default config");
        let mut io = IoStats::default();
        let before = cluster.degrees(&mut io).expect("healthy cluster serves stats");
        cluster.fail_worker(2);
        let after = cluster.degrees(&mut io).expect("crash is recovered");
        assert_eq!(before, after, "stats must survive a worker crash");
        assert_eq!(cluster.worker_restarts(), 1);
        assert_eq!(io.worker_restarts, 1);
    }

    #[test]
    fn fetch_recovers_from_mid_run_failure() {
        let g = super::tests::edge_case_graph();
        let cluster = Cluster::new(&g, &ClusterConfig::default()).expect("valid default config");
        cluster.fail_worker(0);
        cluster.fail_worker(3);
        super::tests::assert_fetches_every_node(&g, &cluster);
        assert!(cluster.worker_restarts() >= 1);
    }

    #[test]
    fn solve_result_is_identical_after_worker_crash() {
        let g = sim_graph();
        let config = RejectoConfig::default();
        let local =
            MaarSolver::new(config.clone()).solve(&g, &[], &[]).expect("scenario admits a cut");

        let cluster = Cluster::new(&g, &ClusterConfig::default()).expect("valid default config");
        // Crash two workers before the solve even starts.
        cluster.fail_worker(1);
        cluster.fail_worker(2);
        let dist = DistributedMaar::new(ClusterConfig::default(), config);
        let (suspects, io) = super::tests::solve_on(&dist, &cluster);
        assert_eq!(suspects, local.suspects(), "crash changed the cut");
        assert!(io.worker_restarts >= 2);
    }

    #[test]
    fn repeated_failures_of_same_worker_are_survivable() {
        let g = sim_graph();
        let cluster = Cluster::new(&g, &ClusterConfig::default()).expect("valid default config");
        let mut io = IoStats::default();
        for _ in 0..3 {
            cluster.fail_worker(1);
            let s = cluster.degrees(&mut io).expect("each crash is recovered");
            assert_eq!(s.len(), g.num_nodes());
        }
        assert_eq!(cluster.worker_restarts(), 3);
    }

    #[test]
    fn injected_death_schedule_is_invisible_to_the_result() {
        let g = sim_graph();
        let clean = DistributedMaar::new(snappy(), RejectoConfig::default())
            .solve(&g)
            .expect("clean solve succeeds");
        let faulted_config = RejectoConfig {
            faults: FaultPlan::parse("worker_death@fetch=1,worker_death@fetch=4")
                .expect("plan is well-formed"),
            ..RejectoConfig::default()
        };
        let faulted = DistributedMaar::new(snappy(), faulted_config)
            .solve(&g)
            .expect("deaths are recovered");
        assert_eq!(faulted.suspects, clean.suspects, "injected deaths changed the cut");
        assert_eq!(faulted.acceptance_rate, clean.acceptance_rate);
        assert!(faulted.io.worker_restarts >= 2, "both scheduled deaths must fire");
        assert_eq!(faulted.completion, Completion::Complete);
    }

    #[test]
    fn repeated_death_schedule_forces_a_rebalance() {
        let g = sim_graph();
        let clean = DistributedMaar::new(snappy(), RejectoConfig::default())
            .solve(&g)
            .expect("clean solve succeeds");
        // One respawn allowed per request; five consecutive deaths burn
        // through two whole budgets (2 × (1 try + 1 respawn)) and one more
        // try, forcing two rebalances before the request finally lands.
        let cluster_config = ClusterConfig { max_respawns: 1, ..snappy() };
        let faulted_config = RejectoConfig {
            faults: FaultPlan::parse("worker_death@fetch=2:x5").expect("plan is well-formed"),
            ..RejectoConfig::default()
        };
        let faulted = DistributedMaar::new(cluster_config, faulted_config)
            .solve(&g)
            .expect("persistent deaths degrade to rebalancing, not failure");
        assert_eq!(faulted.suspects, clean.suspects, "rebalancing changed the cut");
        assert_eq!(faulted.acceptance_rate, clean.acceptance_rate);
        assert_eq!(faulted.io.shards_rebalanced, 2, "five deaths at budget 1 = two merges");
        assert!(faulted.io.worker_restarts >= 2);
    }

    #[test]
    fn hung_worker_is_detected_by_the_watchdog() {
        let g = sim_graph();
        let clean = DistributedMaar::new(snappy(), RejectoConfig::default())
            .solve(&g)
            .expect("clean solve succeeds");
        let faulted_config = RejectoConfig {
            faults: FaultPlan::parse("worker_hang@fetch=2").expect("plan is well-formed"),
            ..RejectoConfig::default()
        };
        let faulted = DistributedMaar::new(snappy(), faulted_config)
            .solve(&g)
            .expect("the hang is recovered");
        assert_eq!(faulted.suspects, clean.suspects, "the hang changed the cut");
        assert_eq!(faulted.acceptance_rate, clean.acceptance_rate);
        assert_eq!(faulted.io.hangs_absorbed, 1, "the injected hang must fire");
        assert!(faulted.io.worker_restarts >= 1, "the watchdog must respawn the hung worker");
    }

    /// Regression test: the hang path of `exchange` used to wait out the
    /// watchdog twice in one attempt (a full interval draining the stale
    /// pending response, then another full interval on the swallowed
    /// request), so a single hang could block the master for 2×
    /// `request_deadline`. Both waits must draw from one per-attempt
    /// budget: recovery from one hang may not block much longer than the
    /// deadline itself.
    #[test]
    fn hang_recovery_blocks_at_most_one_request_deadline() {
        let g = sim_graph();
        let config = ClusterConfig {
            request_deadline: Duration::from_millis(200),
            backoff_base: Duration::ZERO,
            ..ClusterConfig::default()
        };
        let cluster = Cluster::new(&g, &config).expect("valid test config");
        // The mid-broadcast shape: the request is already in flight
        // (pending) when the injected hang swallows its response.
        cluster.workers.borrow_mut()[0].pending = true;
        cluster.arm_hang(1);
        let mut io = IoStats::default();
        let start = Instant::now();
        let resp = cluster
            .exchange(0, &|| Request::Stats, &mut io)
            .expect("one hang is recovered by respawn");
        let elapsed = start.elapsed();
        assert!(matches!(resp, Response::Stats { .. }), "recovered request must be served");
        assert!(io.worker_restarts >= 1, "the watchdog must respawn the hung worker");
        assert!(
            elapsed < Duration::from_millis(320),
            "recovering one hang blocked {elapsed:?}; the waits must share the \
             200ms per-attempt deadline instead of stacking it"
        );
    }

    #[test]
    fn losing_every_worker_is_a_structured_error() {
        let g = sim_graph();
        let cluster_config = ClusterConfig { num_workers: 2, max_respawns: 0, ..snappy() };
        // Enough deaths to chew through both workers at respawn budget 0.
        let faulted_config = RejectoConfig {
            faults: FaultPlan::parse("worker_death@fetch=1:x8").expect("plan is well-formed"),
            ..RejectoConfig::default()
        };
        let err = DistributedMaar::new(cluster_config, faulted_config)
            .solve(&g)
            .expect_err("no survivor must be a structured failure");
        match err {
            RuntimeError::ClusterFailed { message } => {
                assert!(message.contains("no survivor"), "unexpected message: {message}");
            }
            other => panic!("expected ClusterFailed, got {other:?}"),
        }
    }

    #[test]
    fn zero_deadline_yields_a_partial_outcome_with_rollback() {
        let g = sim_graph();
        let config = RejectoConfig {
            budget: RunBudget { deadline: Some(Duration::ZERO), ..RunBudget::unlimited() },
            ..RejectoConfig::default()
        };
        let out = DistributedMaar::new(ClusterConfig::default(), config)
            .solve(&g)
            .expect("a tripped budget degrades, not fails");
        assert!(out.suspects.is_empty(), "an interrupted sweep reports no cut");
        match out.completion {
            Completion::Partial { completed_rounds, completed_k_indices, reason } => {
                assert_eq!(completed_rounds, 0);
                assert!(completed_k_indices.is_empty(), "nothing completed under a zero deadline");
                assert_eq!(reason, InterruptReason::Deadline);
            }
            other => panic!("expected Partial, got {other:?}"),
        }
    }

    #[test]
    fn pass_budget_interrupts_the_sweep_midway() {
        let g = sim_graph();
        let config = RejectoConfig {
            budget: RunBudget { max_kl_passes: Some(3), ..RunBudget::unlimited() },
            ..RejectoConfig::default()
        };
        let sweep_len = config.k_sweep().len();
        let out = DistributedMaar::new(ClusterConfig::default(), config)
            .solve(&g)
            .expect("a tripped budget degrades, not fails");
        assert!(out.suspects.is_empty(), "an interrupted sweep reports no cut");
        match out.completion {
            Completion::Partial { completed_k_indices, reason, .. } => {
                assert_eq!(reason, InterruptReason::PassBudget);
                assert!(
                    completed_k_indices.len() < sweep_len,
                    "three global passes cannot complete a {sweep_len}-k sweep"
                );
            }
            other => panic!("expected Partial, got {other:?}"),
        }
    }
}
