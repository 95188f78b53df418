//! Determinism contract of the observability layer on the cluster
//! runtime (DESIGN.md §13).
//!
//! The distributed detector shares the local detector's counter
//! vocabulary (`kl/*`, `detect/*`), and everything outside `timings`
//! must be byte-identical across worker counts, unchanged when injected
//! worker deaths and hangs are absorbed by respawn — and equal to the
//! metrics of the plain in-process run, because the cluster is supposed
//! to be invisible in every observable output.

use dataflow::{ClusterConfig, DistributedDetector};
use rejecto_core::{
    FaultPlan, IterativeDetector, RejectoConfig, Seeds, Termination,
};
use simulator::{Scenario, ScenarioConfig, SimOutput};
use socialgraph::surrogates::Surrogate;
use std::time::Duration;

fn simulated_scenario(seed: u64) -> SimOutput {
    let host = Surrogate::Facebook.generate_scaled(seed, 0.02);
    let config = ScenarioConfig { num_fakes: 50, ..ScenarioConfig::default() };
    Scenario::new(config).run(&host, seed)
}

/// Short watchdog deadline and no backoff so absorbed faults cost
/// milliseconds, not the 5 s production deadline.
fn snappy_cluster(workers: usize) -> ClusterConfig {
    ClusterConfig {
        num_workers: workers,
        request_deadline: Duration::from_millis(50),
        backoff_base: Duration::ZERO,
        ..ClusterConfig::default()
    }
}

fn distributed_metrics(sim: &SimOutput, workers: usize, faults: Option<&str>) -> String {
    distributed_obs(sim, workers, faults).deterministic_json()
}

fn distributed_obs(sim: &SimOutput, workers: usize, faults: Option<&str>) -> rejecto_obs::Obs {
    let mut config = RejectoConfig::default();
    if let Some(spec) = faults {
        config.faults = FaultPlan::parse(spec).expect("valid fault spec");
    }
    let mut det = DistributedDetector::new(snappy_cluster(workers), config);
    let obs = rejecto_obs::Obs::default();
    det.set_obs(obs.clone());
    det.detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(50))
        .expect("distributed detect succeeds on the clean scenario");
    obs
}

#[test]
fn metrics_are_byte_identical_across_worker_counts_and_match_the_local_run() {
    let sim = simulated_scenario(21);
    let one = distributed_metrics(&sim, 1, None);
    let four = distributed_metrics(&sim, 4, None);
    assert!(one.contains("\"kl/moves_committed\""), "{one}");
    assert_eq!(one, four, "metrics must not depend on the worker count");

    let mut local_det = IterativeDetector::new(RejectoConfig::default());
    let obs = rejecto_obs::Obs::default();
    local_det.set_obs(obs.clone());
    local_det.detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(50));
    assert_eq!(
        one,
        obs.deterministic_json(),
        "the cluster must be invisible in the deterministic metrics"
    );
}

#[test]
fn absorbed_worker_faults_leave_no_trace_in_the_metrics() {
    let sim = simulated_scenario(22);
    let clean = distributed_metrics(&sim, 3, None);
    // This fixture's whole sweep fits one prefetch batch, so every fault
    // is scheduled at fetch 1: two deaths and a hang on the same request.
    let faulted = distributed_obs(&sim, 3, Some("worker_death@fetch=1:x2,worker_hang@fetch=1"));
    assert_eq!(faulted.volatile("io/hangs_absorbed"), 1, "the injected hang never fired");
    assert!(faulted.volatile("io/worker_restarts") >= 2, "the injected deaths never fired");
    assert_eq!(clean, faulted.deterministic_json(), "recovered faults must not leak into the metrics");
}
