//! SybilFence (Cao & Yang, 2012 technical report) — the paper's other
//! rejection-aware point of comparison (§VIII): "leverage user negative
//! feedback to improve social-graph-based Sybil defenses".
//!
//! SybilFence runs SybilRank's own trust propagation (its weighted case),
//! **discounting the edges of users who received negative feedback**: a
//! user who accumulated rejections passes (and receives) less trust
//! across each of their links, so attack edges obtained by friend
//! spammers carry less trust into the Sybil region. Unlike Rejecto it
//! scores individual users, not aggregate cuts — the paper's critique is
//! that per-user discounting "does not seek the aggregate acceptance
//! ratio and is susceptible to attack strategies" (collusion dilutes
//! per-user rejection counts; see the `ext_baselines` harness).

use crate::{propagate, SybilRank, SybilRankConfig, SybilRankResult};
use rejection::AugmentedGraph;
use socialgraph::NodeId;

/// Tunables of SybilFence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SybilFenceConfig {
    /// The underlying propagation parameters.
    pub rank: SybilRankConfig,
    /// Discount strength `γ`: a node with `r` received rejections has its
    /// incident edge weights multiplied by `1 / (1 + γ·r)`.
    pub gamma: f64,
}

impl Default for SybilFenceConfig {
    fn default() -> Self {
        SybilFenceConfig { rank: SybilRankConfig::default(), gamma: 0.5 }
    }
}

/// The SybilFence algorithm over a rejection-augmented graph.
#[derive(Debug, Clone)]
pub struct SybilFence {
    config: SybilFenceConfig,
}

impl SybilFence {
    /// Creates a ranker.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is negative or `total_trust` is not positive.
    pub fn new(config: SybilFenceConfig) -> Self {
        assert!(config.gamma >= 0.0, "gamma must be non-negative");
        SybilRank::new(config.rank); // checks `total_trust`
        SybilFence { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SybilFenceConfig {
        &self.config
    }

    /// Propagates discounted trust from `seeds` over the friendship edges
    /// of `g`, weighting each edge `(u, v)` by the *receiving* endpoint's
    /// rejection discount. Returns the SybilRank-shaped result (trust +
    /// weighted-degree-normalized scores).
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or contains an out-of-range id.
    pub fn rank(&self, g: &AugmentedGraph, seeds: &[NodeId]) -> SybilRankResult {
        let discount: Vec<f64> = g
            .nodes()
            .map(|u| 1.0 / (1.0 + self.config.gamma * g.rejections_received(u) as f64)) // xtask-allow: lossy-cast: rejection count < 2^53 converts exactly
            .collect();
        let weight = |v: NodeId| discount[v.index()];
        propagate(&self.config.rank, g.num_nodes(), |u| g.friends(u), weight, seeds)
    }
}

impl Default for SybilFence {
    fn default() -> Self {
        SybilFence::new(SybilFenceConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rejection::AugmentedGraphBuilder;

    /// Two 4-cliques bridged by TWO attack edges; the Sybil side carries
    /// heavy rejections.
    fn polluted() -> AugmentedGraph {
        let mut b = AugmentedGraphBuilder::new(8);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_friendship(NodeId(u), NodeId(v));
                b.add_friendship(NodeId(u + 4), NodeId(v + 4));
            }
        }
        b.add_friendship(NodeId(0), NodeId(4));
        b.add_friendship(NodeId(1), NodeId(5));
        for (r, s) in [(0, 5), (1, 4), (2, 4), (2, 5), (3, 6), (3, 7)] {
            b.add_rejection(NodeId(r), NodeId(s));
        }
        b.build()
    }

    #[test]
    fn sybils_rank_at_the_bottom() {
        let g = polluted();
        let r = SybilFence::default().rank(&g, &[NodeId(0), NodeId(2)]);
        for legit in 0..4u32 {
            for sybil in 4..8u32 {
                assert!(
                    r.score(NodeId(legit)) > r.score(NodeId(sybil)),
                    "legit {legit} <= sybil {sybil}"
                );
            }
        }
    }

    #[test]
    fn trust_is_conserved() {
        let g = polluted();
        let r = SybilFence::default().rank(&g, &[NodeId(1)]);
        let sum: f64 = r.trust().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "trust sum {sum}");
    }

    #[test]
    fn discounting_beats_plain_sybilrank_under_spam() {
        let g = polluted();
        let is_sybil: Vec<bool> = (0..8).map(|i| i >= 4).collect();
        let seeds = [NodeId(0)];
        let fence = SybilFence::default().rank(&g, &seeds).auc(&is_sybil);
        let plain = SybilRank::default().rank(&g.friendship_graph(), &seeds).auc(&is_sybil);
        assert!(
            fence >= plain - 1e-9,
            "discounting should not hurt: fence {fence} vs plain {plain}"
        );
    }

    #[test]
    fn gamma_zero_degenerates_to_sybilrank() {
        let g = polluted();
        let seeds = [NodeId(0)];
        let cfg = SybilFenceConfig { gamma: 0.0, ..Default::default() };
        let fence = SybilFence::new(cfg).rank(&g, &seeds);
        let plain = SybilRank::default().rank(&g.friendship_graph(), &seeds);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fence.trust()), bits(plain.trust()));
        assert_eq!(bits(fence.scores()), bits(plain.scores()));
    }

    #[test]
    fn collusion_dilutes_the_per_user_discount() {
        // The paper's critique: intra-fake friendships lower each fake's
        // *relative* rejection load... but since the discount only counts
        // rejections, adding accepted intra-fake edges increases the trust
        // the Sybil region can circulate internally, raising scores.
        let base = polluted();
        let mut b = AugmentedGraphBuilder::new(12);
        for u in base.nodes() {
            for &v in base.friends(u) {
                if u < v {
                    b.add_friendship(u, v);
                }
            }
            for &v in base.rejected_by(u) {
                b.add_rejection(u, v);
            }
        }
        // Four extra colluders befriending the original Sybils.
        for extra in 8..12u32 {
            for sybil in 4..8u32 {
                b.add_friendship(NodeId(extra), NodeId(sybil));
            }
        }
        let colluded = b.build();
        let seeds = [NodeId(0)];
        let score_base = SybilFence::default().rank(&base, &seeds);
        let score_coll = SybilFence::default().rank(&colluded, &seeds);
        // The rejected Sybil 4's normalized score cannot improve... but
        // the fresh colluders (no rejections at all) sit above it,
        // diluting the ranking: they are Sybils scoring like mid-pack.
        let colluder_score = score_coll.score(NodeId(8));
        assert!(
            colluder_score > score_coll.score(NodeId(4)),
            "clean colluder should outrank the rejected spammer"
        );
        let _ = score_base;
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_negative_gamma() {
        let _ = SybilFence::new(SybilFenceConfig { gamma: -1.0, ..Default::default() });
    }
}
