//! Kernighan–Lin partitioning, extended for rejections (the paper's §IV-C/D).
//!
//! Two layers:
//!
//! * [`BucketList`] — the Fiduccia–Mattheyses gain structure: an array of
//!   intrusive doubly-linked lists indexed by integer gain, giving `O(1)`
//!   insert and gain adjustment and amortized-`O(1)` max-gain extraction. This is
//!   the optimization the paper cites for making KL effectively linear-time
//!   (§IV-C, \[21\]).
//! * [`ExtendedKl`] — the paper's Algorithm 1: single-node switches on a
//!   rejection-augmented graph, minimizing the weighted objective
//!   `|F(Ū,U)| − k·|R⟨Ū,U⟩|` with friendships at weight 1 and rejections at
//!   weight −k, seed nodes pinned, and the max-gain-prefix commit rule.
//!
//! The parameter `k` is a rational [`KParam`] (`num/den`), which keeps every
//! gain an exact integer `num·ΔR − den·ΔF` — no floating-point tie-break
//! instability in the bucket list.

#![forbid(unsafe_code)]

mod bucket;
mod cancel;
mod extended;
pub(crate) mod invariants;
mod kparam;

pub use bucket::BucketList;
pub use cancel::{CancelReason, CancelToken};
pub use extended::{
    carry, Adjacency, DegreeSummary, ExtendedKl, ExtendedKlConfig, KlOutcome, KlStart, SwitchDelta,
};
#[cfg(feature = "debug-invariants")]
pub use invariants::assert_partition_counts;
pub use kparam::KParam;
