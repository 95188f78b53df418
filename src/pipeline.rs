//! End-to-end detection pipelines implementing the paper's evaluation
//! protocol (§VI-A): both schemes declare exactly as many suspects as the
//! estimated fake population, so precision equals recall.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rejecto_core::{IterativeDetector, RejectoConfig, Seeds, Termination};
use simulator::{sample_seeds, SimOutput};
use socialgraph::NodeId;
use sybilrank::{SybilRank, SybilRankConfig};
use votetrust::{RequestGraph, VoteTrust, VoteTrustConfig};

/// Shared protocol parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Rejecto algorithm configuration.
    pub rejecto: RejectoConfig,
    /// VoteTrust baseline configuration.
    pub votetrust: VoteTrustConfig,
    /// Known-legitimate seeds sampled from ground truth (§III-B); also the
    /// trusted seeds of VoteTrust's vote assignment and SybilRank's trust
    /// propagation.
    pub num_legit_seeds: usize,
    /// Known-spammer seeds sampled from ground truth.
    pub num_spammer_seeds: usize,
    /// RNG seed for the seed sampling.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            rejecto: RejectoConfig::default(),
            votetrust: VoteTrustConfig::default(),
            num_legit_seeds: 20,
            num_spammer_seeds: 20,
            seed: 0xC0FFEE,
        }
    }
}

/// Runs the full Rejecto pipeline on a simulated OSN and returns exactly
/// (up to) `budget` suspects: iterative MAAR detection terminated at the
/// suspect budget, final group trimmed by individual rejection ratio.
pub fn rejecto_suspects(sim: &SimOutput, cfg: &PipelineConfig, budget: usize) -> Vec<NodeId> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let (legit, spammer) =
        sample_seeds(sim, cfg.num_legit_seeds, cfg.num_spammer_seeds, &mut rng);
    let seeds = Seeds { legit, spammer };
    let detector = IterativeDetector::new(cfg.rejecto.clone());
    let report = detector.detect(&sim.graph, &seeds, Termination::SuspectBudget(budget));
    report.suspects_top(budget, &sim.graph)
}

/// Runs the VoteTrust baseline on the same simulated OSN and returns the
/// `budget` lowest-rated users.
pub fn votetrust_suspects(sim: &SimOutput, cfg: &PipelineConfig, budget: usize) -> Vec<NodeId> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let (legit, _) = sample_seeds(sim, cfg.num_legit_seeds, 0, &mut rng);
    let g = RequestGraph::from_requests(
        sim.graph.num_nodes(),
        sim.log.requests().iter().map(|r| (r.from, r.to, r.accepted)),
    );
    VoteTrust::new(cfg.votetrust).rank(&g, &legit).bottom(budget)
}

/// The evaluation protocol's accuracy score: true positives over
/// `max(declared, actual)`. When the detector fills the budget exactly
/// (the paper's setup) this is both precision and recall; when it declares
/// fewer — e.g. no rejection-heavy cut exists at very low spam-rejection
/// rates — the undetected fakes count against it (a vacuous
/// "precision 1.0 on zero declarations" would misread those points).
pub fn precision(suspects: &[NodeId], is_fake: &[bool]) -> f64 {
    let idx: Vec<usize> = suspects.iter().map(|s| s.index()).collect();
    let pr = eval::precision_recall(&idx, is_fake);
    let denom = pr.declared.max(pr.actual);
    if denom == 0 {
        1.0
    } else {
        pr.true_positives as f64 / denom as f64
    }
}

/// The §VI-D defense-in-depth pipeline: remove the top `removed` Rejecto
/// suspects (with their links) from the social graph, run SybilRank from
/// legitimate seeds on the sterilized graph, and return the AUC of its
/// ranking over the remaining users.
///
/// With `removed = 0` this measures plain SybilRank under friend spam —
/// the Fig 16 baseline point.
pub fn defense_in_depth(sim: &SimOutput, cfg: &PipelineConfig, removed: usize) -> f64 {
    let pruned: Vec<NodeId> = if removed == 0 {
        Vec::new()
    } else {
        rejecto_suspects(sim, cfg, removed)
    };
    let mut keep = vec![true; sim.graph.num_nodes()];
    for s in &pruned {
        keep[s.index()] = false;
    }

    // Induce the sterilized friendship graph on the kept nodes.
    let (kept_graph, kept) = sim.graph.induced_subgraph(&keep);
    let graph = kept_graph.friendship_graph();

    // Trust seeds: the sampled legitimate seeds that survived pruning.
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let (legit, _) = sample_seeds(sim, cfg.num_legit_seeds.max(1), 0, &mut rng);
    let seeds: Vec<NodeId> = legit
        .iter()
        .filter_map(|s| kept.binary_search(s).ok().map(NodeId::from_index))
        .collect();
    if seeds.is_empty() {
        return 0.5;
    }

    let result = SybilRank::new(SybilRankConfig::default()).rank(&graph, &seeds);
    let is_sybil: Vec<bool> = kept.iter().map(|u| sim.is_fake[u.index()]).collect();
    result.auc(&is_sybil)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simulator::{Scenario, ScenarioConfig};
    use socialgraph::generators::BarabasiAlbert;

    fn sim() -> SimOutput {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let host = BarabasiAlbert::new(400, 4).generate(&mut rng);
        Scenario::new(ScenarioConfig { num_fakes: 60, ..ScenarioConfig::default() })
            .run(&host, 5)
    }

    #[test]
    fn rejecto_pipeline_finds_most_fakes() {
        let sim = sim();
        let cfg = PipelineConfig::default();
        let suspects = rejecto_suspects(&sim, &cfg, 60);
        let p = precision(&suspects, &sim.is_fake);
        assert!(p > 0.85, "precision {p}");
    }

    #[test]
    fn votetrust_pipeline_beats_chance() {
        let sim = sim();
        let cfg = PipelineConfig::default();
        let suspects = votetrust_suspects(&sim, &cfg, 60);
        let p = precision(&suspects, &sim.is_fake);
        assert!(p > 0.5, "precision {p}");
    }

    #[test]
    fn removing_spammers_improves_sybilrank() {
        // The paper's Fig 16 setup: only half of the Sybils spam; Rejecto
        // removes the spammers (and thus most attack edges), leaving the
        // silent Sybil community exposed to SybilRank.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let host = BarabasiAlbert::new(400, 4).generate(&mut rng);
        let sim = Scenario::new(ScenarioConfig {
            num_fakes: 60,
            spammer_fraction: 0.5,
            ..ScenarioConfig::default()
        })
        .run(&host, 5);
        let cfg = PipelineConfig::default();
        let before = defense_in_depth(&sim, &cfg, 0);
        let after = defense_in_depth(&sim, &cfg, 30);
        assert!(
            after > before - 0.02,
            "AUC degraded after pruning: {before} -> {after}"
        );
        assert!(after > 0.9, "sterilized AUC {after}");
    }

    #[test]
    fn budget_caps_suspect_count() {
        let sim = sim();
        let cfg = PipelineConfig::default();
        let suspects = rejecto_suspects(&sim, &cfg, 10);
        assert!(suspects.len() <= 10);
    }
}
