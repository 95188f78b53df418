//! The structured failure model of the detection runtime.
//!
//! Rejecto's production posture (ROADMAP north star) is *degrade, don't
//! abort*: a worker panic, a failed checkpoint write, or an unreadable
//! checkpoint must surface as data — a [`RuntimeError`] attached to the
//! [`crate::DetectionReport`] or returned from a resume — never as a
//! process abort. Every variant carries enough position context (round,
//! sweep index, versions) to reproduce the failure deterministically.

use crate::{FaultPlan, Faults, RejectoConfig};
use std::error::Error;
use std::fmt;

/// A structured runtime failure of the detection pipeline.
///
/// Failures recorded on a report ([`crate::DetectionReport::failures`])
/// describe *degraded* operation: the run continued and the report is
/// well-formed, but some work was skipped or some side effect (a
/// checkpoint write) was lost. Failures returned as `Err` from
/// [`crate::IterativeDetector::run`] describe inputs the run could not
/// start from at all.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A `k`-sweep worker panicked, its deterministic serial retry panicked
    /// again, and the sweep index was skipped by the reduction.
    WorkerFailed {
        /// 1-based pruning round of the failed sweep.
        round: usize,
        /// Index of the failed `k` in the sweep sequence.
        k_index: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Writing a round checkpoint failed; detection continued without it.
    CheckpointIo {
        /// 1-based round whose checkpoint was lost.
        round: usize,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A checkpoint could not be parsed.
    CheckpointFormat {
        /// What was wrong with the document.
        message: String,
    },
    /// A checkpoint's version is not supported by this build.
    CheckpointVersion {
        /// The version the document declares.
        found: u64,
        /// The version this build writes and reads.
        supported: u64,
    },
    /// A checkpoint is internally consistent but does not describe the
    /// graph passed to resume.
    CheckpointMismatch {
        /// What disagreed.
        message: String,
    },
    /// The distributed cluster could not serve a request even after
    /// bounded respawns and shard rebalancing (e.g. every worker is gone),
    /// or was misconfigured, or could not spawn a worker thread.
    ClusterFailed {
        /// What failed, e.g. `invalid cluster config: ...` or `worker 0
        /// lost after 3 respawn attempt(s) with no survivor to rebalance
        /// onto`.
        message: String,
    },
    /// A durable-store protocol step (temp create, fsync, rename, ...)
    /// failed for a persistent artifact.
    StoreFailed {
        /// Path of the artifact involved.
        path: String,
        /// The protocol step that failed.
        op: String,
        /// The underlying error, rendered.
        message: String,
    },
    /// An input or artifact would grow a resource past an explicit limit
    /// (a loader ingest guard, the checkpoint store's byte ceiling) or a
    /// structural ceiling such as the `u32` dense-id space, so the runtime
    /// refused to keep allocating. Over-budget growth surfaces here
    /// instead of ballooning memory until the allocator aborts.
    ResourceExhausted {
        /// Which resource ran out (`"nodes"`, `"edges"`, `"rejections"`,
        /// `"checkpoint bytes"`, `"suspect fraction"`, ...).
        resource: &'static str,
        /// The configured (or structural) limit.
        limit: u64,
        /// The observed demand that exceeded it.
        observed: u64,
    },
    /// A checkpoint artifact exists but failed its integrity check (bad
    /// frame magic, truncation, checksum mismatch, or an unparsable
    /// payload); resume skipped it and fell back to an older generation
    /// when one survived.
    CheckpointCorrupt {
        /// Path of the corrupt artifact.
        path: String,
        /// Byte offset of the first offending byte.
        offset: usize,
        /// What failed there.
        message: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::WorkerFailed { round, k_index, message } => write!(
                f,
                "sweep worker failed (round {round}, k index {k_index}): {message}"
            ),
            RuntimeError::CheckpointIo { round, message } => {
                write!(f, "checkpoint write failed after round {round}: {message}")
            }
            RuntimeError::CheckpointFormat { message } => {
                write!(f, "malformed checkpoint: {message}")
            }
            RuntimeError::CheckpointVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build supports {supported})"
            ),
            RuntimeError::CheckpointMismatch { message } => {
                write!(f, "checkpoint does not match the graph: {message}")
            }
            RuntimeError::ClusterFailed { message } => {
                write!(f, "distributed cluster failed: {message}")
            }
            RuntimeError::StoreFailed { path, op, message } => {
                write!(f, "durable store {op} failed for {path}: {message}")
            }
            RuntimeError::ResourceExhausted { resource, limit, observed } => write!(
                f,
                "resource budget exhausted: {resource}: observed {observed} exceeds limit {limit}"
            ),
            RuntimeError::CheckpointCorrupt { path, offset, message } => {
                write!(f, "corrupt checkpoint {path} (byte {offset}): {message}")
            }
        }
    }
}

impl Error for RuntimeError {}

/// Per-run plumbing shared by the pruning loop and the cut solvers under
/// it: the cancellation token the budgets arm, the run's one armed fault
/// table, the metrics registry, and the current 1-based round for
/// diagnostics.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Polled at every KL pass and sweep boundary; carries the run's
    /// deadline and global KL pass budget.
    pub token: kl::CancelToken,
    /// The run's armed [`crate::FaultPlan`], probed by the sweep workers,
    /// the loop's checkpoint write and the cluster master; fresh per run.
    pub faults: Faults,
    /// 1-based pruning round being solved (0 outside the loop).
    pub(crate) round: usize,
    /// Metrics registry shared by the pruning loop and every sweep worker;
    /// `None` keeps the unobserved hot path allocation-free.
    pub obs: Option<rejecto_obs::Obs>,
}

impl RunContext {
    /// A context for one run under `config`: its deadline (the tighter of
    /// the budget's and `faults`' injected one) and its global KL pass
    /// budget armed on a fresh token, and `faults` armed on a fresh table.
    pub fn armed(
        config: &RejectoConfig,
        faults: &FaultPlan,
        obs: Option<rejecto_obs::Obs>,
    ) -> Self {
        let deadline = config.budget.deadline.into_iter().chain(faults.deadline()).min();
        let token = kl::CancelToken::new(deadline, config.budget.max_kl_passes);
        RunContext { token, faults: Faults::new(faults), round: 0, obs }
    }

    /// Maps the token's trip cause onto the report vocabulary. Callers ask
    /// only after a poll saw the token trip, which records its cause.
    pub fn interrupt_reason(&self) -> crate::InterruptReason {
        match self.token.reason().expect("a tripped token records its cause") {
            kl::CancelReason::Deadline => crate::InterruptReason::Deadline,
            kl::CancelReason::PassBudget => crate::InterruptReason::PassBudget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_position_context() {
        let e = RuntimeError::WorkerFailed {
            round: 2,
            k_index: 3,
            message: "injected worker panic".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("round 2"), "missing round in: {s}");
        assert!(s.contains("k index 3"), "missing k index in: {s}");

        let v = RuntimeError::CheckpointVersion { found: 9, supported: 1 };
        assert!(v.to_string().contains("version 9"));

        let c = RuntimeError::ClusterFailed { message: "all workers lost".to_string() };
        assert!(c.to_string().contains("all workers lost"));

        let r = RuntimeError::ResourceExhausted { resource: "nodes", limit: 8, observed: 9 };
        let s = r.to_string();
        assert!(s.contains("nodes"), "{s}");
        assert!(s.contains("9 exceeds limit 8"), "{s}");
    }

    /// The token keeps the tighter of the budget's and the injected
    /// deadline, whichever of the two it is.
    #[test]
    fn armed_keeps_the_tighter_deadline() {
        use std::time::Duration;
        for (budget, injected) in
            [(Duration::from_secs(3600), "deadline=0ms"), (Duration::ZERO, "deadline=3600000ms")]
        {
            let mut config = RejectoConfig::default();
            config.budget.deadline = Some(budget);
            let faults = FaultPlan::parse(injected).expect("plan parses");
            let ctx = RunContext::armed(&config, &faults, None);
            assert!(ctx.token.is_cancelled(), "budget {budget:?}, {injected}: first poll trips");
            assert_eq!(ctx.token.reason(), Some(kl::CancelReason::Deadline));
        }
    }
}
