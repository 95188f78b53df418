//! The distributed deployment (§V): run one detection round on the
//! master/worker runtime and compare it with the single-process
//! detector's — identical group, plus simulated network-traffic
//! accounting. A one-suspect budget is met by the first round, so each
//! run is one `k` sweep.
//!
//! ```sh
//! cargo run --release --example distributed_cluster
//! ```

use rejecto::dataflow::{ClusterConfig, DistributedDetector};
use rejecto::rejecto_core::{IterativeDetector, RejectoConfig, Seeds, Termination};
use rejecto::simulator::{Scenario, ScenarioConfig};
use rejecto::socialgraph::surrogates::Surrogate;
use rejecto_obs::Obs;
use std::time::Instant;

fn main() {
    let host = Surrogate::Facebook.generate_scaled(9, 0.5);
    let sim = Scenario::new(ScenarioConfig {
        num_fakes: 5_000,
        ..ScenarioConfig::default()
    })
    .run(&host, 23);
    println!(
        "graph: {} users, {} friendships, {} rejections",
        sim.graph.num_nodes(),
        sim.graph.num_friendships(),
        sim.graph.num_rejections()
    );

    let rejecto = RejectoConfig::default();
    let (seeds, one_round) = (Seeds::default(), Termination::SuspectBudget(1));

    #[expect(clippy::disallowed_methods, reason = "the demo prints its own wall time")]
    let t0 = Instant::now();
    let local = IterativeDetector::new(rejecto.clone()).detect(&sim.graph, &seeds, one_round);
    let group = local.groups.first().expect("a cut exists");
    println!(
        "single-process: {} suspects, acceptance rate {:.4}, {:?}",
        group.nodes.len(),
        group.acceptance_rate,
        t0.elapsed()
    );

    for workers in [1, 2, 4, 8] {
        let cluster = ClusterConfig { num_workers: workers, ..ClusterConfig::default() };
        let mut detector = DistributedDetector::new(cluster, rejecto.clone());
        let obs = Obs::new();
        detector.set_obs(obs.clone());
        #[expect(clippy::disallowed_methods, reason = "the demo prints its own wall time")]
        let t0 = Instant::now();
        let report = detector
            .detect(&sim.graph, &seeds, one_round)
            .expect("healthy cluster must detect");
        assert_eq!(report, local, "distributed report must match");
        println!(
            "{workers} worker(s): same cut in {:?} — {} fetch batches, {} nodes shipped, {} buffer hits",
            t0.elapsed(),
            obs.volatile("io/fetch_batches"),
            obs.volatile("io/nodes_fetched"),
            obs.volatile("io/buffer_hits")
        );
    }
    println!("\nThe prefetching LRU buffer turns per-move fetches into one round trip per batch.");
}
