//! Ablation (§V): the master's prefetch buffer — batch size and LRU
//! capacity vs simulated master↔worker traffic and wall time.
//!
//! The paper's claim: fetching per-node on demand incurs prohibitive
//! network I/O; prefetching the bucket list's top-gain nodes in batches
//! removes round trips. `batch=1, capacity=1` approximates the naive
//! implementation. Each variant runs the distributed detector to a
//! one-suspect budget, which is met by its first round: one `k` sweep.

use bench::Harness;
use dataflow::{ClusterConfig, DistributedDetector};
use rejecto_core::{RejectoConfig, Seeds, Termination};
use rejecto_obs::{Obs, Stopwatch};
use serde::Serialize;
use simulator::ScenarioConfig;
use socialgraph::surrogates::Surrogate;

#[derive(Debug, Clone, Serialize)]
struct Row {
    batch: usize,
    capacity: usize,
    fetch_batches: u64,
    nodes_fetched: u64,
    buffer_hits: u64,
    seconds: f64,
}

fn main() {
    let h = Harness::from_env("ablation_prefetch");
    let host = h.host(Surrogate::Facebook);
    let sim = h.simulate(&host, ScenarioConfig::default());
    let rejecto = RejectoConfig { k_factor: 2.5, max_kl_passes: 8, ..RejectoConfig::default() };

    let variants: Vec<(usize, usize)> = vec![
        (1, 1),          // naive: on-demand, no reuse
        (1, 1 << 16),    // cache without batching
        (64, 1 << 16),
        (256, 1 << 16),  // default
        (1024, 1 << 16),
        (256, 1 << 10),  // small buffer, eviction pressure
    ];

    let mut rows = Vec::new();
    let mut baseline_suspects: Option<Vec<rejection::NodeId>> = None;
    for (batch, capacity) in variants {
        let cfg = ClusterConfig {
            prefetch_batch: batch,
            buffer_capacity: capacity,
            num_workers: 4,
            ..ClusterConfig::default()
        };
        let mut detector = DistributedDetector::new(cfg, rejecto.clone());
        let obs = Obs::new();
        detector.set_obs(obs.clone());
        let clock = Stopwatch::start();
        let report = detector
            .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(1))
            .expect("healthy cluster must detect");
        let elapsed = clock.elapsed();
        // The buffer is an optimization: every variant must find the same cut.
        let suspects = report.suspects();
        match &baseline_suspects {
            None => baseline_suspects = Some(suspects),
            Some(b) => assert_eq!(b, &suspects, "buffering changed the cut"),
        }
        let io = |path| obs.volatile(path);
        eprintln!(
            "  batch={batch} cap={capacity}: batches {} fetched {} hits {} in {elapsed:.2?}",
            io("io/fetch_batches"),
            io("io/nodes_fetched"),
            io("io/buffer_hits")
        );
        rows.push(Row {
            batch,
            capacity,
            fetch_batches: io("io/fetch_batches"),
            nodes_fetched: io("io/nodes_fetched"),
            buffer_hits: io("io/buffer_hits"),
            seconds: elapsed.as_secs_f64(),
        });
    }

    let mut t = eval::table::Table::new([
        "batch", "capacity", "fetch_batches", "nodes_fetched", "buffer_hits", "time(s)",
    ]);
    for r in &rows {
        t.row([
            r.batch.to_string(),
            r.capacity.to_string(),
            r.fetch_batches.to_string(),
            r.nodes_fetched.to_string(),
            r.buffer_hits.to_string(),
            format!("{:.2}", r.seconds),
        ]);
    }
    h.emit(&t, &rows);
}
