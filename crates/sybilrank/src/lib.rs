//! SybilRank (Cao et al., NSDI 2012) — the social-graph-based Sybil
//! detector used in the paper's defense-in-depth experiment (§VI-D).
//!
//! SybilRank propagates trust from known-legitimate seeds through the
//! undirected social graph with an **early-terminated power iteration**
//! (`O(log n)` steps — long enough to mix inside the legitimate region,
//! short enough that little trust leaks across the sparse attack-edge cut
//! into the Sybil region), then ranks users by **degree-normalized trust**.
//! Sybils sink to the bottom of the ranking; the evaluation statistic is
//! the area under the ROC curve of that ranking.
//!
//! Rejecto strengthens SybilRank by detecting friend spammers first and
//! pruning them with their attack edges; Fig 16 measures the AUC as a
//! function of how many accounts Rejecto removed.
//!
//! ```
//! use sybilrank::{SybilRank, SybilRankConfig};
//! use socialgraph::{Graph, NodeId};
//!
//! // Two triangles bridged by one attack edge; seed in the left triangle.
//! let g = Graph::from_edges(6, [(0,1),(1,2),(0,2),(3,4),(4,5),(3,5),(2,3)]);
//! let ranking = SybilRank::new(SybilRankConfig::default())
//!     .rank(&g, &[NodeId(0)]);
//! // Left-triangle users outrank right-triangle (Sybil) users.
//! assert!(ranking.score(NodeId(1)) > ranking.score(NodeId(4)));
//! ```

// lossy-cast (DESIGN.md §8.1): this crate's arithmetic feeds the
// objective or a compared score; tests cast freely.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss,
        clippy::cast_lossless
    )
)]

mod fence;

pub use fence::{SybilFence, SybilFenceConfig};

use socialgraph::det::ordered_sum;
use socialgraph::{Graph, NodeId};

/// Tunables of the SybilRank power iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SybilRankConfig {
    /// Power-iteration steps; `None` uses `ceil(log2(n))`, the paper's
    /// early-termination rule.
    pub iterations: Option<usize>,
    /// Total trust injected at the seeds.
    pub total_trust: f64,
}

impl Default for SybilRankConfig {
    fn default() -> Self {
        SybilRankConfig { iterations: None, total_trust: 1.0 }
    }
}

/// Result of [`SybilRank::rank`].
#[derive(Debug, Clone, PartialEq)]
pub struct SybilRankResult {
    trust: Vec<f64>,
    score: Vec<f64>,
    iterations: usize,
}

impl SybilRankResult {
    /// Raw trust of each node after the final iteration.
    pub fn trust(&self) -> &[f64] {
        &self.trust
    }

    /// Degree-normalized trust (the ranking score; higher = more
    /// trustworthy, Sybils rank low).
    pub fn scores(&self) -> &[f64] {
        &self.score
    }

    /// Score of one node.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn score(&self, u: NodeId) -> f64 {
        self.score[u.index()]
    }

    /// Number of iterations actually run.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Area under the ROC curve of the ranking against a Sybil mask
    /// (probability a random Sybil scores below a random non-Sybil).
    ///
    /// # Panics
    ///
    /// Panics if `is_sybil.len()` differs from the node count.
    pub fn auc(&self, is_sybil: &[bool]) -> f64 {
        eval::auc(&self.score, is_sybil)
    }
}

/// The SybilRank algorithm.
#[derive(Debug, Clone)]
pub struct SybilRank {
    config: SybilRankConfig,
}

impl SybilRank {
    /// Creates a ranker.
    ///
    /// # Panics
    ///
    /// Panics if `total_trust` is not positive and finite.
    pub fn new(config: SybilRankConfig) -> Self {
        assert!(
            config.total_trust > 0.0 && config.total_trust.is_finite(),
            "total_trust must be positive and finite"
        );
        SybilRank { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SybilRankConfig {
        &self.config
    }

    /// Propagates trust from `seeds` through `g` and returns the ranking.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or contains an out-of-range id.
    pub fn rank(&self, g: &Graph, seeds: &[NodeId]) -> SybilRankResult {
        propagate(&self.config, g.num_nodes(), |u| g.neighbors(u), |_| 1.0, seeds)
    }
}

impl Default for SybilRank {
    fn default() -> Self {
        SybilRank::new(SybilRankConfig::default())
    }
}

/// The early-terminated power iteration both rankers share: `n` nodes,
/// each edge `(u, v)` from `neighbors(u)` carrying the receiving
/// endpoint's `weight(v)`. Each step a node splits its trust over its
/// weighted degree `Σ weight(v)` and hands `v` the share times
/// `weight(v)`; a node of zero weighted degree keeps its trust and
/// scores 0. The score is trust over weighted degree.
///
/// Unit weights are plain SybilRank, bit for bit: the weighted degree of
/// `deg` ones is exactly `deg`, and `x * 1.0 == x`. Panics if `seeds` is
/// empty or contains an out-of-range id.
fn propagate<'g>(
    config: &SybilRankConfig,
    n: usize,
    neighbors: impl Fn(NodeId) -> &'g [NodeId],
    weight: impl Fn(NodeId) -> f64,
    seeds: &[NodeId],
) -> SybilRankResult {
    assert!(!seeds.is_empty(), "trust propagation requires at least one trust seed");
    for s in seeds {
        assert!(s.index() < n, "seed {s} out of range");
    }
    #[expect(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "n < 2^53 converts exactly; ceil(log2 n) is a small non-negative integer"
    )]
    let iterations = config
        .iterations
        .unwrap_or_else(|| (n.max(2) as f64).log2().ceil() as usize);
    let weighted_degree: Vec<f64> = (0..n)
        .map(|i| ordered_sum(neighbors(NodeId::from_index(i)).iter().map(|&v| weight(v))))
        .collect();
    let mut trust = vec![0.0f64; n];
    #[expect(clippy::cast_precision_loss, reason = "seed count < 2^53 converts exactly")]
    for s in seeds {
        trust[s.index()] += config.total_trust / seeds.len() as f64;
    }
    for _ in 0..iterations {
        let mut next = vec![0.0f64; n];
        for (i, &wd) in weighted_degree.iter().enumerate() {
            if wd <= 0.0 {
                // Isolated nodes keep their trust (nothing to spread).
                next[i] += trust[i];
                continue;
            }
            let per_unit = trust[i] / wd;
            for &v in neighbors(NodeId::from_index(i)) {
                next[v.index()] += per_unit * weight(v);
            }
        }
        trust = next;
    }
    let score = trust
        .iter()
        .zip(&weighted_degree)
        .map(|(&t, &wd)| if wd <= 0.0 { 0.0 } else { t / wd })
        .collect();
    SybilRankResult { trust, score, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques joined by a single attack edge (0–4 legit, 4–8 Sybil).
    fn two_communities() -> Graph {
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        edges.push((0, 4));
        Graph::from_edges(8, edges)
    }

    /// The plain unit-weight SybilRank loop, kept as the reference the
    /// shared [`propagate`] must match bit for bit.
    fn reference_rank(
        g: &Graph,
        seeds: &[NodeId],
        iterations: Option<usize>,
    ) -> (Vec<f64>, Vec<f64>) {
        let n = g.num_nodes();
        let iterations = iterations.unwrap_or_else(|| (n.max(2) as f64).log2().ceil() as usize);
        let mut trust = vec![0.0f64; n];
        for s in seeds {
            trust[s.index()] += 1.0 / seeds.len() as f64;
        }
        for _ in 0..iterations {
            let mut next = vec![0.0f64; n];
            for u in g.nodes() {
                let deg = g.degree(u);
                if deg == 0 {
                    next[u.index()] += trust[u.index()];
                    continue;
                }
                let share = trust[u.index()] / deg as f64;
                for &v in g.neighbors(u) {
                    next[v.index()] += share;
                }
            }
            trust = next;
        }
        let score = g
            .nodes()
            .map(|u| if g.degree(u) == 0 { 0.0 } else { trust[u.index()] / g.degree(u) as f64 })
            .collect();
        (trust, score)
    }

    fn assert_matches_reference(g: &Graph, seeds: &[NodeId], iterations: Option<usize>) {
        let cfg = SybilRankConfig { iterations, ..Default::default() };
        let r = SybilRank::new(cfg).rank(g, seeds);
        let (trust, score) = reference_rank(g, seeds, iterations);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(r.trust()), bits(&trust), "trust, iterations {iterations:?}");
        assert_eq!(bits(r.scores()), bits(&score), "score, iterations {iterations:?}");
    }

    #[test]
    fn unit_weights_match_the_plain_loop_bitwise() {
        use rand::SeedableRng;
        assert_matches_reference(&two_communities(), &[NodeId(1), NodeId(2)], None);
        let isolated = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)]);
        assert_matches_reference(&isolated, &[NodeId(0), NodeId(5)], None);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let ba = socialgraph::generators::BarabasiAlbert::new(500, 3).generate(&mut rng);
        // Three isolated nodes past the BA core.
        let g = Graph::from_edges(503, ba.edges().map(|(u, v)| (u.0, v.0)));
        for iterations in [None, Some(1), Some(7)] {
            assert_matches_reference(&g, &[NodeId(0), NodeId(17), NodeId(501)], iterations);
        }
    }

    #[test]
    fn trust_is_conserved() {
        let g = two_communities();
        let r = SybilRank::default().rank(&g, &[NodeId(1)]);
        let sum: f64 = r.trust().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "trust sum {sum}");
    }

    #[test]
    fn sybil_region_ranks_below_legit_region() {
        let g = two_communities();
        let r = SybilRank::default().rank(&g, &[NodeId(1), NodeId(2)]);
        for legit in 0..4u32 {
            for sybil in 4..8u32 {
                assert!(
                    r.score(NodeId(legit)) > r.score(NodeId(sybil)),
                    "legit {legit} ({}) <= sybil {sybil} ({})",
                    r.score(NodeId(legit)),
                    r.score(NodeId(sybil))
                );
            }
        }
    }

    #[test]
    fn auc_is_high_with_sparse_attack_edges() {
        let g = two_communities();
        let r = SybilRank::default().rank(&g, &[NodeId(1)]);
        let is_sybil: Vec<bool> = (0..8).map(|i| i >= 4).collect();
        assert_eq!(r.auc(&is_sybil), 1.0);
    }

    #[test]
    fn more_attack_edges_leak_more_trust() {
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        edges.push((0, 4));
        edges.push((1, 5));
        edges.push((2, 6));
        edges.push((3, 7));
        let dense = Graph::from_edges(8, edges);
        let sparse = two_communities();
        let is_sybil: Vec<bool> = (0..8).map(|i| i >= 4).collect();
        let cfg = SybilRankConfig { iterations: Some(3), ..Default::default() };
        let auc_sparse = SybilRank::new(cfg).rank(&sparse, &[NodeId(1)]).auc(&is_sybil);
        let auc_dense = SybilRank::new(cfg).rank(&dense, &[NodeId(1)]).auc(&is_sybil);
        assert!(auc_dense < auc_sparse, "{auc_dense} >= {auc_sparse}");
    }

    #[test]
    fn default_iterations_scale_logarithmically() {
        let g = two_communities();
        let r = SybilRank::default().rank(&g, &[NodeId(0)]);
        assert_eq!(r.iterations(), 3); // ceil(log2(8))
    }

    #[test]
    fn isolated_nodes_score_zero() {
        let g = Graph::from_edges(3, [(0, 1)]);
        let r = SybilRank::default().rank(&g, &[NodeId(0)]);
        assert_eq!(r.score(NodeId(2)), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one trust seed")]
    fn requires_seeds() {
        let g = Graph::from_edges(2, [(0, 1)]);
        let _ = SybilRank::default().rank(&g, &[]);
    }
}
