//! The distributed failure model, end to end: injected worker deaths,
//! repeated-death schedules, hung workers, tripped budgets, and
//! kill-and-resume — all through [`DistributedDetector`], all required to
//! leave the detection report byte-identical to a failure-free run (or to
//! yield a well-formed `Completion::Partial`, never a crash).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rejecto::dataflow::{ClusterConfig, DistributedDetector};
use rejecto::rejecto_core::{
    Checkpoint, Completion, DetectionReport, FaultPlan, InterruptReason, RejectoConfig,
    RuntimeError, Seeds, Termination,
};
use rejecto_obs::Obs;
use rejecto::simulator::{Scenario, ScenarioConfig, SimOutput};
use rejecto::socialgraph::generators::BarabasiAlbert;
use rejecto::socialgraph::surrogates::Surrogate;
use std::time::Duration;

const SEED: u64 = 31;
const FAKES: usize = 300;

fn scenario() -> SimOutput {
    let host = Surrogate::Facebook.generate_scaled(SEED, 0.04);
    Scenario::new(ScenarioConfig { num_fakes: FAKES, ..ScenarioConfig::default() })
        .run(&host, SEED)
}

/// A cluster that recovers fast under injection: a tight watchdog.
/// Correctness must be independent of it.
fn snappy(workers: usize) -> ClusterConfig {
    ClusterConfig {
        num_workers: workers,
        request_deadline: Duration::from_millis(50),
        ..ClusterConfig::default()
    }
}

/// Runs `detector` to the fake budget with a metrics registry attached,
/// returning the report and the registry, whose volatile `io/*` counters
/// hold the run's traffic and recovery totals.
fn detect_observed(
    mut detector: DistributedDetector,
    sim: &SimOutput,
    expect: &str,
) -> (DetectionReport, Obs) {
    let obs = Obs::new();
    detector.set_obs(obs.clone());
    let report = detector
        .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
        .expect(expect);
    (report, obs)
}

/// A detector on a `snappy(workers)` cluster carrying the fault plan
/// `spec`.
fn faulted(workers: usize, spec: &str) -> DistributedDetector {
    let mut detector = DistributedDetector::new(snappy(workers), RejectoConfig::default());
    detector.set_faults(FaultPlan::parse(spec).expect("test fault spec parses"));
    detector
}

#[test]
fn reports_are_worker_count_invariant() {
    let sim = scenario();
    let config = RejectoConfig::default();
    let baseline = DistributedDetector::new(snappy(1), config.clone())
        .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
        .expect("healthy cluster must detect");
    assert!(!baseline.groups.is_empty(), "fixture found no spammers; grow the scenario");
    for workers in [2, 4] {
        let report = DistributedDetector::new(snappy(workers), config.clone())
            .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
            .expect("healthy cluster must detect");
        assert_eq!(report, baseline, "report changed with worker count {workers}");
    }
}

#[test]
fn injected_deaths_are_invisible_in_the_report() {
    let sim = scenario();
    let clean = DistributedDetector::new(snappy(3), RejectoConfig::default())
        .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
        .expect("healthy cluster must detect");

    // At 3 workers this input's longest round makes 4 fetch batches.
    let detector = faulted(3, "worker_death@fetch=2,worker_death@fetch=4");
    let (report, obs) =
        detect_observed(detector, &sim, "faulted cluster with survivors must detect");
    assert_eq!(report, clean, "worker deaths leaked into the report");
    assert!(report.failures.is_empty(), "recovered faults must not be recorded as failures");
    let restarts = obs.volatile("io/worker_restarts");
    assert!(restarts >= 2, "expected ≥2 restarts, saw {restarts}");
}

#[test]
fn repeated_deaths_force_rebalance_without_changing_the_report() {
    let sim = scenario();
    let clean = DistributedDetector::new(snappy(4), RejectoConfig::default())
        .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
        .expect("healthy cluster must detect");

    // The same worker dies on every respawn; past the respawn budget of 3
    // its shard is merged onto a survivor (nine deaths: two merges).
    let detector = faulted(4, "worker_death@fetch=2:x9");
    let (report, obs) = detect_observed(detector, &sim, "rebalanced cluster must detect");
    assert_eq!(report, clean, "shard rebalancing leaked into the report");
    let rebalanced = obs.volatile("io/shards_rebalanced");
    assert!(rebalanced >= 1, "expected a rebalance, saw {rebalanced}");
}

#[test]
fn hung_worker_recovery_is_invisible() {
    let sim = scenario();
    let clean = DistributedDetector::new(snappy(2), RejectoConfig::default())
        .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
        .expect("healthy cluster must detect");

    let detector = faulted(2, "worker_hang@fetch=2");
    let (report, obs) = detect_observed(detector, &sim, "watchdog must recover the hung worker");
    assert_eq!(report, clean, "hung-worker recovery leaked into the report");
    assert_eq!(obs.volatile("io/hangs_absorbed"), 1, "the injected hang never fired");
    assert!(obs.volatile("io/worker_restarts") >= 1, "watchdog never fired");
}

#[test]
fn zero_deadline_budget_yields_a_partial_report() {
    let sim = scenario();
    let mut config = RejectoConfig::default();
    config.budget.deadline = Some(Duration::ZERO);
    let report = DistributedDetector::new(snappy(2), config)
        .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
        .expect("a tripped budget is a partial report, not an error");
    assert!(report.is_partial(), "zero deadline must interrupt the run");
    assert_eq!(report.rounds, 0, "no round can complete under a zero deadline");
    assert!(report.groups.is_empty());
}

/// An injected `deadline=0ms` reaches the cluster through the run's one
/// armed fault table and reads exactly like a zero deadline budget.
#[test]
fn injected_zero_deadline_matches_the_budget_deadline() {
    let sim = scenario();
    let run = |detector: DistributedDetector| {
        detector
            .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
            .expect("a tripped deadline is a partial report, not an error")
    };
    let injected = run(faulted(2, "deadline=0ms"));
    assert!(
        matches!(
            injected.completion,
            Completion::Partial { reason: InterruptReason::Deadline, .. }
        ),
        "injected deadline must interrupt the run, got {:?}",
        injected.completion
    );
    assert!(injected.groups.is_empty());
    let mut budgeted = RejectoConfig::default();
    budgeted.budget.deadline = Some(Duration::ZERO);
    assert_eq!(injected, run(DistributedDetector::new(snappy(2), budgeted)));
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_run() {
    let sim = scenario();
    for workers in [1usize, 4] {
        let full = DistributedDetector::new(snappy(workers), RejectoConfig::default())
            .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
            .expect("healthy cluster must detect");
        assert!(full.rounds >= 2, "fixture needs ≥2 rounds to exercise resume");

        let mut halted_config = RejectoConfig::default();
        halted_config.budget.max_rounds = Some(1);
        let halted = DistributedDetector::new(snappy(workers), halted_config)
            .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
            .expect("budgeted run must yield a partial report");
        assert!(halted.is_partial());

        let json = Checkpoint::capture(&sim.graph, &halted).to_json();
        let restored = Checkpoint::from_json(&json).expect("checkpoint JSON round-trips");
        let resumed = DistributedDetector::new(snappy(workers), RejectoConfig::default())
            .run(
                &sim.graph,
                &Seeds::default(),
                Termination::SuspectBudget(FAKES),
                Some(&restored),
                None,
            )
            .expect("resume accepts its own checkpoint");
        assert_eq!(resumed, full, "kill-and-resume diverged at workers={workers}");
    }
}

#[test]
fn faults_survive_a_resume_boundary() {
    // A death injected into the *resumed* half of a run must still be
    // invisible: recovery replays against the residual graph's lineage.
    // Round 1 alone meets a budget of `FAKES`, so the budget is doubled to
    // make the resumed half solve a round of its own.
    let sim = scenario();
    let termination = Termination::SuspectBudget(2 * FAKES);
    let full = DistributedDetector::new(snappy(2), RejectoConfig::default())
        .detect(&sim.graph, &Seeds::default(), termination)
        .expect("healthy cluster must detect");

    let mut halted_config = RejectoConfig::default();
    halted_config.budget.max_rounds = Some(1);
    let halted = DistributedDetector::new(snappy(2), halted_config)
        .detect(&sim.graph, &Seeds::default(), termination)
        .expect("budgeted run must yield a partial report");
    let ckpt = Checkpoint::capture(&sim.graph, &halted);

    let mut detector = faulted(2, "worker_death@fetch=2");
    let obs = Obs::new();
    detector.set_obs(obs.clone());
    let resumed = detector
        .run(&sim.graph, &Seeds::default(), termination, Some(&ckpt), None)
        .expect("faulted resume with a survivor must detect");
    assert!(resumed.rounds > halted.rounds, "the resumed half solved no round");
    assert_eq!(resumed, full, "post-resume fault recovery leaked into the report");
    assert_eq!(obs.volatile("io/worker_restarts"), 1, "the injected death never fired");
}

#[test]
fn invalid_cluster_config_is_a_structured_error() {
    let sim = scenario();
    let err = DistributedDetector::new(
        ClusterConfig { num_workers: 0, ..ClusterConfig::default() },
        RejectoConfig::default(),
    )
    .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
    .expect_err("zero workers must be rejected");
    match err {
        RuntimeError::ClusterFailed { message } => {
            assert!(message.contains("num_workers"), "unhelpful message: {message}");
        }
        other => panic!("expected ClusterFailed, got {other}"),
    }
}

#[test]
fn losing_every_worker_surfaces_as_cluster_failed() {
    let sim = scenario();
    // Two workers, three respawns each: the first four deaths rebalance
    // onto the lone survivor; four more leave nothing to merge onto.
    let err = faulted(2, "worker_death@fetch=1:x8")
        .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
        .expect_err("losing the whole cluster must be an error, not a panic");
    match err {
        RuntimeError::ClusterFailed { message } => {
            assert!(message.contains("no survivor"), "unhelpful message: {message}");
        }
        other => panic!("expected ClusterFailed, got {other}"),
    }
}

/// The fetch protocol, pinned: each fetch round trip ticks the clock that
/// every `worker_death@fetch=N` and `worker_hang@fetch=N` fault keys on,
/// so a buffer or record layout change that moves any of these counts
/// moves every fault schedule too. `init_jobs` counts the two broadcasts
/// of each sweep (degrees; cut counts with switch deltas). The detector
/// runs to a one-suspect budget, which its first round meets: one sweep.
/// The graph is
/// the `dataflow` unit tests' fixture (a 300-user Barabási–Albert host
/// plus 40 fakes, 4 shards of 85). The `debug-invariants` checkers look
/// nodes up through the same buffer, so these counts hold only without
/// them, which is why the pin lives in this package.
///
/// A miss reads ahead into free buffer slots. With the default 65,536
/// slots every miss has room, so the 340 nodes arrive in 5 batches. The
/// 8-slot buffer fills within its first batches and then misses one node
/// at a time.
///
/// A hit or a miss is one kernel lookup, so each shape's hits and misses
/// add up to the same 7,403 lookups; a prefetch looks nothing up and
/// counts as neither. The default shape's 5 batches are 2 misses and 3
/// prefetches.
#[test]
fn fetch_protocol_counts_are_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let host = BarabasiAlbert::new(300, 4).generate(&mut rng);
    let g = Scenario::new(ScenarioConfig {
        num_fakes: 40,
        requests_per_spammer: 12,
        ..ScenarioConfig::default()
    })
    .run(&host, 11)
    .graph;
    // [fetch_batches, nodes_fetched, buffer_hits, buffer_misses, init_jobs]
    for (config, want) in [
        (ClusterConfig::default(), [5u64, 340, 7_401, 2, 2]),
        (
            ClusterConfig { buffer_capacity: 8, prefetch_batch: 4, ..ClusterConfig::default() },
            [5_177, 8_784, 3_912, 3_491, 2],
        ),
    ] {
        let mut detector = DistributedDetector::new(config, RejectoConfig::default());
        let obs = Obs::new();
        detector.set_obs(obs.clone());
        let report = detector
            .detect(&g, &Seeds::default(), Termination::SuspectBudget(1))
            .expect("healthy cluster must detect");
        assert_eq!(report.groups.len(), 1, "{config:?}: one sweep, one group");
        let got = ["fetch_batches", "nodes_fetched", "buffer_hits", "buffer_misses", "init_jobs"]
            .map(|counter| obs.volatile(&format!("io/{counter}")));
        assert_eq!(got, want, "{config:?}");
    }
}
