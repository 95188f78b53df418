//! Resource-budget parity between the local and distributed runtimes.
//!
//! The `max_suspect_frac` ceiling is a deterministic budget: its trip is a
//! pure function of the input graph and the configuration, so the
//! distributed detector must roll back the offending round and stop with
//! the exact same partial report as the in-process detector, at any worker
//! count.

use dataflow::{ClusterConfig, DistributedDetector};
use rejecto_core::{
    Completion, InterruptReason, IterativeDetector, RejectoConfig, RunBudget, Seeds, Termination,
};
use simulator::{Scenario, ScenarioConfig, SimOutput};
use socialgraph::surrogates::Surrogate;
use std::time::Duration;

fn simulated_scenario(seed: u64) -> SimOutput {
    let host = Surrogate::Facebook.generate_scaled(seed, 0.02);
    let config = ScenarioConfig { num_fakes: 50, ..ScenarioConfig::default() };
    Scenario::new(config).run(&host, seed)
}

fn snappy_cluster(workers: usize) -> ClusterConfig {
    ClusterConfig {
        num_workers: workers,
        request_deadline: Duration::from_millis(50),
        ..ClusterConfig::default()
    }
}

fn budgeted_config() -> RejectoConfig {
    RejectoConfig {
        budget: RunBudget {
            // Far below any real spam group, so the very first admissible
            // cut trips the budget and the run rolls it back.
            max_suspect_frac: Some(0.001),
            ..RunBudget::unlimited()
        },
        ..RejectoConfig::default()
    }
}

#[test]
fn suspect_frac_budget_matches_the_local_detector_across_worker_counts() {
    let sim = simulated_scenario(23);
    let local = IterativeDetector::new(budgeted_config()).detect(
        &sim.graph,
        &Seeds::default(),
        Termination::SuspectBudget(50),
    );
    assert!(
        matches!(
            &local.completion,
            Completion::Partial { reason: InterruptReason::ResourceBudget, .. }
        ),
        "fixture must trip the budget locally, got {:?}",
        local.completion
    );

    for workers in [1, 4] {
        let dist = DistributedDetector::new(snappy_cluster(workers), budgeted_config())
            .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(50))
            .expect("budget trips are rollbacks, not runtime errors");
        assert_eq!(
            dist, local,
            "workers={workers}: distributed budget trip diverged from the local run"
        );
    }
}
