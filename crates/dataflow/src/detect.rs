//! Iterative detection on the distributed runtime (§IV-E on §V).
//!
//! [`DistributedDetector`] runs the core crate's one pruning loop
//! (`rejecto_core::LoopState::run`) with a cluster `CutSolver`: each
//! round shards the loop's graph across a fresh cluster whose scoped
//! workers borrow it, and sweeps `k` on its master. Loop, sweep plan and
//! kernel are the in-process detector's own, so reports equal the
//! in-process ones at every worker count and under any fault plan that
//! leaves a survivor, and checkpoints are interchangeable. Every entry
//! point returns a `Result`: losing all workers is a
//! [`RuntimeError::ClusterFailed`], not a panic.

use crate::cluster::{ClusterRounds, IoStats};
use crate::ClusterConfig;
use rejection::AugmentedGraph;
use rejecto_core::checkpoint::Checkpoint;
pub use rejecto_core::CheckpointSink;
use rejecto_core::FaultPlan;
use rejecto_core::{DetectionReport, LoopState, RejectoConfig, RuntimeError, Seeds, Termination};

/// The iterative MAAR-cut detector running on the Spark-substitute
/// cluster.
///
/// Every entry point panics if a seed id is out of range of the graph.
#[derive(Debug, Clone)]
pub struct DistributedDetector {
    cluster_config: ClusterConfig,
    config: RejectoConfig,
    obs: Option<rejecto_obs::Obs>,
    faults: FaultPlan,
}

impl DistributedDetector {
    /// Creates a detector; each pruning round spawns a cluster sized by
    /// `cluster_config` (capped at the residual graph's node count as the
    /// graph shrinks).
    pub fn new(cluster_config: ClusterConfig, config: RejectoConfig) -> Self {
        DistributedDetector { cluster_config, config, obs: None, faults: FaultPlan::none() }
    }

    /// Attaches a metrics registry, shared with every round's cluster
    /// sweep. Deterministic spans and counters match the single-process
    /// detector's vocabulary; the run's aggregate master↔worker traffic
    /// (as the `io/*` counters: `io/fetch_batches`, `io/nodes_fetched`,
    /// `io/buffer_hits`, `io/buffer_misses`, `io/init_jobs`,
    /// `io/worker_restarts`, `io/shards_rebalanced`, `io/hangs_absorbed`)
    /// and cancellation polls (`cancel/polls`) are absorbed into the
    /// volatile `timings` section when the loop returns, also when it
    /// fails, since they vary with worker count and fault schedules.
    pub fn set_obs(&mut self, obs: rejecto_obs::Obs) {
        self.obs = Some(obs);
    }

    /// Attaches synthetic faults that every run arms afresh; the cluster
    /// master probes worker deaths and hangs at each fetch batch.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
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
        let rounds = ClusterRounds {
            cluster_config: &self.cluster_config,
            config: &self.config,
            io: Default::default(),
        };
        let (obs, faults) = (self.obs.as_ref(), &self.faults);
        let report = state.run(&rounds, obs, faults, g, seeds, termination, sink);
        // A failed run's traffic and recovery work count too.
        if let Some(obs) = &self.obs {
            absorb_io(obs, &rounds.io.get());
        }
        report
    }
}

/// Feeds a run's aggregate [`IoStats`] into the **volatile** section of the
/// metrics document — every one of these counters varies with worker count
/// and fault schedules, so none may land next to the byte-compared
/// counters. The exhaustive destructuring is deliberate: adding a field
/// without deciding its metrics path is a compile error.
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
