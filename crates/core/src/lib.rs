//! Rejecto: friend-spam detection via minimum aggregate acceptance rate
//! cuts (the paper's core contribution, §IV).
//!
//! The pipeline:
//!
//! 1. **MAAR solving** (one round of [`CutSolver::solve_round`]):
//!    Theorem 1 reduces the ratio objective `min AC⟨U,Ū⟩` to a family of
//!    linear objectives `|F(Ū,U)| − k·|R⟨Ū,U⟩|`; each round sweeps `k`
//!    through a geometric sequence ([`SweepPlan`]), solves each member
//!    with the extended Kernighan–Lin heuristic, and keeps the cut with
//!    the lowest aggregate acceptance rate.
//! 2. **Iterative detection** ([`IterativeDetector`], §IV-E): find a MAAR
//!    cut, declare its suspect region a spammer group, prune the group with
//!    its links and rejections, repeat. This defeats the *self-rejection*
//!    whitewashing strategy — a crafted low-ratio cut inside the fake
//!    region only gets its rejected half detected (and removed) earlier —
//!    and catches multiple independent fake groups.
//! 3. **Seeds** ([`Seeds`], §IV-F): known legitimate users and known
//!    spammers are pre-placed in their regions and never switched, pruning
//!    spurious low-ratio cuts inside the legitimate region.
//!
//! ```
//! use rejecto_core::{IterativeDetector, RejectoConfig, Termination};
//! use rejection::{AugmentedGraphBuilder, NodeId};
//!
//! // Two legit friends; one spammer rejected by both.
//! let mut b = AugmentedGraphBuilder::new(3);
//! b.add_friendship(NodeId(0), NodeId(1));
//! b.add_rejection(NodeId(0), NodeId(2));
//! b.add_rejection(NodeId(1), NodeId(2));
//! let g = b.build();
//!
//! let det = IterativeDetector::new(RejectoConfig::default());
//! let report = det.detect(&g, &Default::default(), Termination::SuspectBudget(1));
//! assert_eq!(report.suspects(), vec![NodeId(2)]);
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod checkpoint;
mod config;
mod detect;
pub mod exact;
pub mod faults;
#[cfg(feature = "debug-invariants")]
pub mod invariants;
mod maar;
mod pool;
mod runtime;
pub mod store;

pub use chaos::{ChaosPlan, ChaosRng};
pub use checkpoint::{Checkpoint, CheckpointGroup, CHECKPOINT_FORMAT, CHECKPOINT_VERSION};
pub use config::{InitialPlacement, RejectoConfig, RunBudget};
pub use detect::{
    CheckpointSink, Completion, CutSolver, DetectedGroup, DetectionReport, InterruptReason,
    IterativeDetector, LoopState, Seeds, Termination,
};
pub use faults::{Fault, FaultPlan, Faults};
/// Re-exported so report consumers can name the exact rational sweep
/// parameter [`DetectedGroup::k`] carries without depending on `kl`.
pub use kl::KParam;
pub use maar::{sweep_with_fallback, KResult, MaarCut, SweepOutcome, SweepPlan};
pub use runtime::{RunContext, RuntimeError};
pub use store::{CheckpointStore, StoreResume, DEFAULT_CHECKPOINT_KEEP};
