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
//! * [`DistributedDetector`] — the core crate's one pruning loop driven by
//!   a private per-round cluster solver. Each round's scoped worker
//!   threads serve contiguous shards of the loop's own graph, which they
//!   borrow (no round copies it), and a master runs the `k` sweep against
//!   them: the core crates' one sweep plan and one extended-KL kernel,
//!   reading adjacency through the prefetch buffer; a miss also fetches
//!   the non-resident nodes after it in its shard, into free buffer
//!   slots. Simulated master↔worker traffic is reported as the volatile
//!   `io/*` metrics counters. Checkpoint/resume and a failure model
//!   (respawn from lineage, watchdog for hung workers, shard rebalancing
//!   onto survivors) replace panics; a cluster that cannot serve the run
//!   ends it in [`rejecto_core::RuntimeError::ClusterFailed`], like any
//!   other runtime failure.
//!   The Table-II harness measures detection time against graph size on
//!   this runtime.

mod cluster;
mod detect;
mod lru;

pub use cluster::ClusterConfig;
pub use detect::{CheckpointSink, DistributedDetector};
pub use lru::LruCache;
