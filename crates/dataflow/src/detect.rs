//! Iterative detection on the distributed runtime (§IV-E on §V).
//!
//! [`DistributedDetector`] runs the core crate's one pruning loop
//! (`rejecto_core::LoopState::run`) with a cluster [`CutSolver`]: each
//! round shards the residual graph across a fresh [`Cluster`] and sweeps
//! `k` on its master through [`DistributedMaar`]. Loop, sweep plan and
//! kernel are the in-process detector's own, so reports equal the
//! in-process ones at every worker count and under any fault plan that
//! leaves a survivor, and checkpoints are interchangeable. Every entry
//! point returns a `Result`: losing all workers is a
//! [`RuntimeError::ClusterFailed`], not a panic.

use crate::{Cluster, ClusterConfig, DistributedMaar, IoStats};
use rejection::{AugmentedGraph, NodeId};
use rejecto_core::checkpoint::Checkpoint;
pub use rejecto_core::CheckpointSink;
use rejecto_core::{
    CutSolver, DetectionReport, LoopState, RejectoConfig, RunContext, RuntimeError, Seeds,
    SweepOutcome, Termination,
};
use std::cell::Cell;
use std::sync::Arc;

/// The iterative MAAR-cut detector running on the Spark-substitute
/// cluster.
///
/// Every entry point panics if a seed id is out of range of the graph.
#[derive(Debug, Clone)]
pub struct DistributedDetector {
    solver: DistributedMaar,
    obs: Option<rejecto_obs::Obs>,
}

/// The per-round cut solver of one distributed run. Every round's cluster
/// probes the run's one fault table through the loop's [`RunContext`], so
/// each fault fires once per run.
struct ClusterRounds<'a> {
    solver: &'a DistributedMaar,
    io: Cell<IoStats>,
}

impl CutSolver for ClusterRounds<'_> {
    type Error = RuntimeError;

    fn config(&self) -> &RejectoConfig {
        &self.solver.rejecto
    }

    /// A fresh cluster shards the residual graph each round — the
    /// distributed analogue of re-deriving the RDDs after a prune — and
    /// keeps a handle on it as its lineage. Worker count is capped by the
    /// shrinking graph.
    fn solve_round(
        &self,
        g: &Arc<AugmentedGraph>,
        legit: &[NodeId],
        spammer: &[NodeId],
        ctx: &RunContext,
    ) -> Result<SweepOutcome, RuntimeError> {
        let base = self.solver.cluster_config();
        let config =
            ClusterConfig { num_workers: base.num_workers.min(g.num_nodes().max(1)), ..*base };
        let cluster = Cluster::from_arc(Arc::clone(g), &config)?;
        let mut io = self.io.get();
        let outcome = self.solver.sweep_on(&cluster, legit, spammer, ctx, &mut io);
        self.io.set(io);
        outcome
    }
}

impl DistributedDetector {
    /// Creates a detector; each pruning round spawns a cluster sized by
    /// `cluster_config` (capped at the residual graph's node count as the
    /// graph shrinks).
    pub fn new(cluster_config: ClusterConfig, config: RejectoConfig) -> Self {
        DistributedDetector { solver: DistributedMaar::new(cluster_config, config), obs: None }
    }

    /// Attaches a metrics registry, shared with the underlying
    /// [`DistributedMaar`] sweeps. Deterministic spans and counters match
    /// the single-process detector's vocabulary; the run's aggregate
    /// [`IoStats`] (as the `io/*` counters) and cancellation polls are
    /// absorbed into the volatile `timings` section when the loop returns,
    /// since they vary with worker count and fault schedules.
    pub fn set_obs(&mut self, obs: rejecto_obs::Obs) {
        self.solver.set_obs(obs.clone());
        self.obs = Some(obs);
    }

    /// Runs the full pipeline on `g`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ClusterFailed`] when the cluster configuration is
    /// invalid or every worker is lost beyond recovery.
    pub fn detect(
        &self,
        g: &AugmentedGraph,
        seeds: &Seeds,
        termination: Termination,
    ) -> Result<DetectionReport, RuntimeError> {
        self.run(g, seeds, termination, None, None)
    }

    /// A fresh run, or with `resume` the continuation of a checkpointed
    /// one, calling `sink` (if any) with a [`Checkpoint`] after every
    /// completed pruning round. A resumed run continues exactly as if the
    /// original had never stopped. Checkpoints written by the
    /// single-process detector resume distributed runs and vice versa —
    /// the format records algorithm state, not deployment.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::CheckpointMismatch`] (and friends) when the
    /// checkpoint does not describe `g`;
    /// [`RuntimeError::ClusterFailed`] as in
    /// [`DistributedDetector::detect`].
    pub fn run(
        &self,
        g: &AugmentedGraph,
        seeds: &Seeds,
        termination: Termination,
        resume: Option<&Checkpoint>,
        sink: Option<CheckpointSink<'_>>,
    ) -> Result<DetectionReport, RuntimeError> {
        let state = LoopState::start(g, resume)?;
        let rounds = ClusterRounds { solver: &self.solver, io: Cell::default() };
        let report = state.run(&rounds, self.obs.as_ref(), g, seeds, termination, sink)?;
        if let Some(obs) = &self.obs {
            absorb_io(obs, &rounds.io.get());
        }
        Ok(report)
    }
}

/// Feeds a run's aggregate [`IoStats`] into the **volatile** section of the
/// metrics document — every one of these counters varies with worker count
/// and fault schedules, so none may land next to the byte-compared
/// counters. The exhaustive destructuring mirrors [`IoStats::merge`]:
/// adding a field without deciding its metrics path is a compile error.
fn absorb_io(obs: &rejecto_obs::Obs, io: &IoStats) {
    let IoStats {
        fetch_batches,
        nodes_fetched,
        buffer_hits,
        buffer_misses,
        init_jobs,
        worker_restarts,
        shards_rebalanced,
        hangs_absorbed,
    } = *io;
    obs.volatile_incr("io/fetch_batches", fetch_batches);
    obs.volatile_incr("io/nodes_fetched", nodes_fetched);
    obs.volatile_incr("io/buffer_hits", buffer_hits);
    obs.volatile_incr("io/buffer_misses", buffer_misses);
    obs.volatile_incr("io/init_jobs", init_jobs);
    obs.volatile_incr("io/worker_restarts", worker_restarts);
    obs.volatile_incr("io/shards_rebalanced", shards_rebalanced);
    obs.volatile_incr("io/hangs_absorbed", hangs_absorbed);
}
