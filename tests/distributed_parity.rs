//! Cross-validation of the distributed runtime against the single-process
//! solver: identical cuts on varied scenarios, cluster shapes, and buffer
//! configurations.

use rejecto::dataflow::{ClusterConfig, DistributedDetector, DistributedMaar};
use rejecto::rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeId};
use rejecto::rejecto_core::{
    FaultPlan, IterativeDetector, MaarSolver, RejectoConfig, Seeds, Termination,
};
use rejecto::simulator::{Scenario, ScenarioConfig, SelfRejectionConfig};
use rejecto::socialgraph::surrogates::Surrogate;

fn check_parity(cfg: ScenarioConfig, cluster: ClusterConfig, seed: u64) {
    let host = Surrogate::Facebook.generate_scaled(seed, 0.04);
    let sim = Scenario::new(cfg).run(&host, seed);
    let rejecto = RejectoConfig::default();
    let local = MaarSolver::new(rejecto.clone()).solve(&sim.graph, &[], &[]);
    let dist = DistributedMaar::new(cluster, rejecto)
        .solve(&sim.graph)
        .expect("healthy cluster must solve");
    match local {
        Some(cut) => {
            assert_eq!(dist.suspects, cut.suspects(), "cut mismatch (seed {seed})");
            let ac = dist.acceptance_rate.expect("distributed found no cut");
            assert!((ac - cut.acceptance_rate).abs() < 1e-12);
        }
        None => assert!(dist.suspects.is_empty(), "distributed found a phantom cut"),
    }
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

/// Detector-level parity: `DistributedDetector` at 1 and 3 workers must
/// return `Ok` with a report equal to `IterativeDetector`'s. Both run with
/// a checkpoint sink that discards every checkpoint, so an injected
/// checkpoint fault shows up in the report's failures on both runtimes.
fn assert_detector_parity(g: &AugmentedGraph, config: RejectoConfig, termination: Termination) {
    let seeds = Seeds::default();
    let local = IterativeDetector::new(config.clone()).detect_with_checkpoints(
        g,
        &seeds,
        termination,
        &mut |_| Ok(()),
    );
    for workers in [1, 3] {
        let cluster = ClusterConfig { num_workers: workers, ..ClusterConfig::default() };
        let dist = DistributedDetector::new(cluster, config.clone())
            .detect_with_checkpoints(g, &seeds, termination, &mut |_| Ok(()))
            .expect("healthy cluster must detect");
        assert_eq!(dist, local, "workers={workers}");
    }
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
    assert_detector_parity(&b.build(), RejectoConfig::default(), Termination::SuspectBudget(10));
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
    assert_detector_parity(&single_spammer_graph(), config, Termination::SuspectBudget(1));
}

#[test]
fn detector_parity_under_an_injected_checkpoint_fault() {
    let config = RejectoConfig {
        faults: FaultPlan::parse("io_error@round=1").expect("plan is well-formed"),
        ..RejectoConfig::default()
    };
    assert_detector_parity(&single_spammer_graph(), config, Termination::SuspectBudget(1));
}
