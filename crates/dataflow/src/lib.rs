//! In-memory distributed-dataflow substrate — the Spark substitute for the
//! paper's §V prototype and Table-II scalability experiment.
//!
//! The paper layers Rejecto on Spark with a specific data layout:
//!
//! * the **master** keeps what must be touched on every move — node status
//!   (region), potential switching gains, and the bucket list;
//! * the **workers** hold the sharded social-graph structure (friend and
//!   rejection adjacency) as resilient distributed datasets;
//! * moving a node requires its adjacency, so the master **prefetches**
//!   the top-gain nodes from the bucket list in batches into an LRU buffer,
//!   turning per-move network round trips into one round trip per batch.
//!
//! This crate reproduces that architecture in-process:
//!
//! * [`LruCache`] — the prefetch buffer with LRU eviction, indexed densely
//!   by node id;
//! * [`Cluster`] / [`DistributedMaar`] — long-lived worker threads serving
//!   contiguous shards of one shared graph, a master running the `k`
//!   sweep against them, and [`IoStats`] counting simulated
//!   master↔worker traffic. The master runs
//!   the core crates' one sweep plan and one extended-KL kernel, reading
//!   adjacency through the prefetch buffer; a miss also fetches the
//!   non-resident nodes after it in its shard, into free buffer slots.
//!   The Table-II harness measures wall time against graph size on this
//!   runtime.
//! * [`DistributedDetector`] — the core crate's one pruning loop driven by
//!   a per-round cluster solver, with checkpoint/resume and a
//!   [`ClusterError`]-based failure model (respawn from lineage, watchdog
//!   for hung workers, shard rebalancing onto survivors) instead of
//!   panics.

#![forbid(unsafe_code)]

mod cluster;
mod detect;
mod error;
mod lru;

pub use cluster::{Cluster, ClusterConfig, DistributedMaar, DistributedOutcome, IoStats};
pub use detect::{CheckpointSink, DistributedDetector};
pub use error::ClusterError;
pub use lru::LruCache;
