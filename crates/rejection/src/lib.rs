//! Rejection-augmented social graphs (the paper's §III model).
//!
//! Rejecto models an OSN as `G = (V, F, R⃗)`: an undirected friendship set
//! `F` plus *directed* social rejections `R⃗`, where the edge `⟨u, v⟩` means
//! user `u` rejected (or reported) a friend request from user `v`.
//!
//! This crate provides:
//!
//! * [`AugmentedGraph`] / [`AugmentedGraphBuilder`] — storage for `(V, F, R⃗)`
//!   with both rejection directions indexed, each user's three lists one
//!   contiguous run of a compressed-sparse-row array;
//! * [`Partition`] — a two-region node assignment
//!   ([`Region::Legit`] / [`Region::Suspect`]) with **incremental cross-cut
//!   counters** so switching one node is `O(deg)`:
//!   `|F(Ū,U)|` (cross friendships) and `|R⟨Ū,U⟩|` (rejections cast by the
//!   legit region on the suspect region);
//! * the aggregate acceptance rate `AC⟨U,Ū⟩ = |F| / (|F| + |R⃗|)` of a cut.
//!
//! ```
//! use rejection::{AugmentedGraphBuilder, Partition, Region, NodeId};
//!
//! let mut b = AugmentedGraphBuilder::new(3);
//! b.add_friendship(NodeId(0), NodeId(1));
//! b.add_rejection(NodeId(0), NodeId(2)); // 0 rejected 2's request
//! let g = b.build();
//!
//! // Put node 2 in the suspect region:
//! let p = Partition::from_fn(&g, |n| if n == NodeId(2) { Region::Suspect } else { Region::Legit });
//! assert_eq!(p.cross_friendships(), 0);
//! assert_eq!(p.cross_rejections(), 1);
//! assert_eq!(p.acceptance_rate(), Some(0.0));
//! ```

mod augmented;
pub mod io;
mod partition;

pub use augmented::{AugmentedGraph, AugmentedGraphBuilder, Neighbors, NodeDegrees};
pub use partition::{Partition, Region};
pub use socialgraph::NodeId;
