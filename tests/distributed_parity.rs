//! Cross-validation of the distributed runtime against the single-process
//! detector: identical reports on varied scenarios, cluster shapes, and
//! buffer configurations.

use rejecto::dataflow::{ClusterConfig, DistributedDetector};
use rejecto::rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeId};
use rejecto::rejecto_core::{FaultPlan, IterativeDetector, RejectoConfig, Seeds, Termination};
use rejecto::simulator::{Scenario, ScenarioConfig, SelfRejectionConfig};
use rejecto::socialgraph::surrogates::Surrogate;

/// One round of detection on the scenario's graph (a one-suspect budget
/// is met by the first group) must report the same on `cluster` as in
/// process.
fn check_parity(cfg: ScenarioConfig, cluster: ClusterConfig, seed: u64) {
    let host = Surrogate::Facebook.generate_scaled(seed, 0.04);
    let sim = Scenario::new(cfg).run(&host, seed);
    let one_round = Termination::SuspectBudget(1);
    let (config, faults) = (RejectoConfig::default(), FaultPlan::none());
    assert_detector_parity(&sim.graph, config, &faults, one_round, &[cluster]);
}

#[test]
fn parity_on_baseline_attack() {
    check_parity(
        ScenarioConfig { num_fakes: 400, ..ScenarioConfig::default() },
        ClusterConfig::default(),
        21,
    );
}

#[test]
fn parity_under_collusion() {
    check_parity(
        ScenarioConfig { num_fakes: 400, fake_intra_edges: 30, ..ScenarioConfig::default() },
        ClusterConfig { num_workers: 3, ..ClusterConfig::default() },
        22,
    );
}

#[test]
fn parity_under_self_rejection() {
    check_parity(
        ScenarioConfig {
            num_fakes: 400,
            self_rejection: Some(SelfRejectionConfig {
                whitewashed: 200,
                requests_per_sender: 20,
                rejection_rate: 0.85,
            }),
            ..ScenarioConfig::default()
        },
        ClusterConfig { num_workers: 7, ..ClusterConfig::default() },
        23,
    );
}

#[test]
fn parity_with_pathological_buffer() {
    // A one-entry buffer with single-node batches must still be correct.
    check_parity(
        ScenarioConfig { num_fakes: 300, ..ScenarioConfig::default() },
        ClusterConfig {
            num_workers: 2,
            prefetch_batch: 1,
            buffer_capacity: 1,
            ..ClusterConfig::default()
        },
        24,
    );
}

#[test]
fn parity_with_more_workers_than_meaningful_shards() {
    check_parity(
        ScenarioConfig { num_fakes: 100, ..ScenarioConfig::default() },
        ClusterConfig { num_workers: 64, ..ClusterConfig::default() },
        25,
    );
}

/// Detector-level parity: `DistributedDetector` on every cluster shape
/// must return `Ok` with a report equal to `IterativeDetector`'s. Both run
/// with a checkpoint sink that discards every checkpoint, so an injected
/// checkpoint fault shows up in the report's failures on both runtimes.
fn assert_detector_parity(
    g: &AugmentedGraph,
    config: RejectoConfig,
    faults: &FaultPlan,
    termination: Termination,
    clusters: &[ClusterConfig],
) {
    let seeds = Seeds::default();
    let mut local = IterativeDetector::new(config.clone());
    local.set_faults(faults.clone());
    let local = local.detect_with_checkpoints(g, &seeds, termination, &mut |_| Ok(()));
    for cluster in clusters {
        let mut dist = DistributedDetector::new(*cluster, config.clone());
        dist.set_faults(faults.clone());
        let dist = dist
            .run(g, &seeds, termination, None, Some(&mut |_| Ok(())))
            .expect("healthy cluster must detect");
        assert_eq!(dist, local, "{cluster:?}");
    }
}

/// One and three workers of the default shape.
fn small_clusters() -> [ClusterConfig; 2] {
    [1, 3].map(|num_workers| ClusterConfig { num_workers, ..ClusterConfig::default() })
}

/// Node 0 rejected ten accounts and befriended one more: its rejections
/// *cast* dominate its gain, so a gain bound that counts only rejections
/// received is too small for it.
#[test]
fn detector_parity_when_one_user_casts_many_rejections() {
    let mut b = AugmentedGraphBuilder::new(12);
    for v in 1..=10u32 {
        b.add_rejection(NodeId(0), NodeId(v));
    }
    b.add_friendship(NodeId(0), NodeId(11));
    let budget = Termination::SuspectBudget(10);
    let (config, faults) = (RejectoConfig::default(), FaultPlan::none());
    assert_detector_parity(&b.build(), config, &faults, budget, &small_clusters());
}

/// Three legit friends reject one spammer. With `max_suspect_fraction`
/// 0.2 the unclamped cap floors to 0 on 4 nodes; the clamped cap is 1.
fn single_spammer_graph() -> AugmentedGraph {
    let mut b = AugmentedGraphBuilder::new(4);
    b.add_friendship(NodeId(0), NodeId(1));
    b.add_friendship(NodeId(1), NodeId(2));
    b.add_friendship(NodeId(0), NodeId(2));
    for r in 0..3u32 {
        b.add_rejection(NodeId(r), NodeId(3));
    }
    b.build()
}

#[test]
fn detector_parity_on_a_graph_whose_suspect_cap_clamps_to_one() {
    let config = RejectoConfig { max_suspect_fraction: 0.2, ..RejectoConfig::default() };
    let (faults, one_round) = (FaultPlan::none(), Termination::SuspectBudget(1));
    assert_detector_parity(&single_spammer_graph(), config, &faults, one_round, &small_clusters());
}

#[test]
fn detector_parity_under_an_injected_checkpoint_fault() {
    let faults = FaultPlan::parse("io_error@round=1").expect("plan is well-formed");
    let (config, one_round) = (RejectoConfig::default(), Termination::SuspectBudget(1));
    assert_detector_parity(&single_spammer_graph(), config, &faults, one_round, &small_clusters());
}
