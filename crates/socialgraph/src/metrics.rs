//! Graph metrics used to characterize the Table-I host graphs.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Average local clustering coefficient (the statistic SNAP reports and the
/// paper's Table I lists).
///
/// The local coefficient of a node with degree `d >= 2` is
/// `2 * triangles(u) / (d * (d - 1))`; nodes with degree `< 2` contribute 0,
/// and the average is over all nodes.
///
/// ```
/// use socialgraph::{Graph, metrics};
/// // A triangle: every node has coefficient 1.
/// let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
/// assert!((metrics::average_clustering(&g) - 1.0).abs() < 1e-12);
/// ```
pub fn average_clustering(g: &Graph) -> f64 {
    if g.num_nodes() == 0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    for u in g.nodes() {
        let d = g.degree(u);
        if d < 2 {
            continue;
        }
        let tri = triangles_at(g, u);
        total += 2.0 * tri as f64 / (d as f64 * (d as f64 - 1.0));
    }
    total / g.num_nodes() as f64
}

/// Number of triangles incident to `u` (pairs of adjacent neighbors).
///
/// # Panics
///
/// Panics if `u` is out of range.
pub fn triangles_at(g: &Graph, u: NodeId) -> u64 {
    let nbrs = g.neighbors(u);
    let mut count = 0u64;
    for (i, &a) in nbrs.iter().enumerate() {
        let a_nbrs = g.neighbors(a);
        // Sorted-merge intersection of a's neighbors with u's neighbors
        // after position i (each pair counted once).
        let rest = &nbrs[i + 1..];
        let (mut x, mut y) = (0usize, 0usize);
        while x < a_nbrs.len() && y < rest.len() {
            match a_nbrs[x].cmp(&rest[y]) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    x += 1;
                    y += 1;
                }
            }
        }
    }
    count
}

/// Breadth-first distances from `src`; unreachable nodes get `u32::MAX`.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_nodes()];
    dist[src.index()] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.neighbors(u) {
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Connected components, each a sorted list of node ids; components are
/// ordered by their smallest node id.
pub fn connected_components(g: &Graph) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; g.num_nodes()];
    let mut comps = Vec::new();
    for s in g.nodes() {
        if seen[s.index()] {
            continue;
        }
        let mut comp = Vec::new();
        let mut queue = VecDeque::from([s]);
        seen[s.index()] = true;
        while let Some(u) = queue.pop_front() {
            comp.push(u);
            for &v in g.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        comp.sort_unstable();
        comps.push(comp);
    }
    comps
}

/// Node set of the largest connected component (ties broken by smallest id).
pub fn largest_component(g: &Graph) -> Vec<NodeId> {
    connected_components(g)
        .into_iter()
        .max_by_key(|c| c.len())
        .unwrap_or_default()
}

/// Lower bound on the diameter of the component containing `start`, via the
/// iterated double-sweep heuristic (`rounds` sweeps).
///
/// On the small-world graphs used here the bound is usually tight; the
/// Table-I harness labels it as a lower bound regardless.
///
/// # Panics
///
/// Panics if `start` is out of range.
pub fn pseudo_diameter(g: &Graph, start: NodeId, rounds: usize) -> u32 {
    let mut best = 0u32;
    let mut from = start;
    for _ in 0..rounds.max(1) {
        let dist = bfs_distances(g, from);
        let (far, d) = dist
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != u32::MAX)
            .max_by_key(|(_, &d)| d)
            .map(|(i, &d)| (NodeId::from_index(i), d))
            .unwrap_or((from, 0));
        if d <= best {
            break;
        }
        best = d;
        from = far;
    }
    best
}

/// Basic degree statistics of a graph.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
}

/// Computes [`DegreeStats`] over all nodes.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    if g.num_nodes() == 0 {
        return DegreeStats::default();
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0u64;
    for u in g.nodes() {
        let d = g.degree(u);
        min = min.min(d);
        max = max.max(d);
        sum += d as u64;
    }
    DegreeStats { min, max, mean: sum as f64 / g.num_nodes() as f64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path5() -> Graph {
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_path_is_zero() {
        assert_eq!(average_clustering(&path5()), 0.0);
    }

    #[test]
    fn clustering_of_square_with_diagonal() {
        // 0-1-2-3-0 plus diagonal 0-2: nodes 1 and 3 have cc 1,
        // nodes 0 and 2 have cc 2/3 (2 triangles over C(3,2)=3 pairs).
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let expected = (1.0 + 1.0 + 2.0 / 3.0 + 2.0 / 3.0) / 4.0;
        assert!((average_clustering(&g) - expected).abs() < 1e-12);
    }

    #[test]
    fn triangle_counting_matches_by_hand() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        assert_eq!(triangles_at(&g, crate::NodeId(0)), 2);
        assert_eq!(triangles_at(&g, crate::NodeId(1)), 1);
    }

    #[test]
    fn bfs_distances_on_path() {
        let d = bfs_distances(&path5(), crate::NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let g = Graph::from_edges(3, [(0, 1)]);
        let d = bfs_distances(&g, crate::NodeId(0));
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn components_split_correctly() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]);
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].len(), 2);
        assert_eq!(comps[2], vec![crate::NodeId(4)]);
    }

    #[test]
    fn largest_component_of_two() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]);
        assert_eq!(largest_component(&g).len(), 3);
    }

    #[test]
    fn pseudo_diameter_is_exact_on_path() {
        assert_eq!(pseudo_diameter(&path5(), crate::NodeId(2), 4), 4);
    }

    #[test]
    fn degree_stats_on_star() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_metrics_are_defined() {
        let g = Graph::from_edges(0, []);
        assert_eq!(average_clustering(&g), 0.0);
        assert_eq!(degree_stats(&g), DegreeStats::default());
        assert!(connected_components(&g).is_empty());
    }
}

/// Conductance of a node set `S`: cut edges over the smaller side's edge
/// volume, `|∂S| / min(vol(S), vol(V∖S))`. This is the quantity social-
/// graph Sybil defenses reason about — a Sybil region attached by few
/// attack edges is exactly a low-conductance set, and SybilRank's
/// early-terminated walk relies on the legitimate region's conductance
/// being much higher.
///
/// Returns `None` when either side has zero volume (no edges to compare).
///
/// # Panics
///
/// Panics if `in_set.len() != g.num_nodes()`.
pub fn conductance(g: &Graph, in_set: &[bool]) -> Option<f64> {
    assert_eq!(in_set.len(), g.num_nodes(), "set mask has wrong length");
    let mut cut = 0u64;
    let mut vol_s = 0u64;
    let mut vol_rest = 0u64;
    for u in g.nodes() {
        let du = g.degree(u) as u64;
        if in_set[u.index()] {
            vol_s += du;
            for &v in g.neighbors(u) {
                if !in_set[v.index()] {
                    cut += 1;
                }
            }
        } else {
            vol_rest += du;
        }
    }
    let denom = vol_s.min(vol_rest);
    if denom == 0 {
        None
    } else {
        Some(cut as f64 / denom as f64)
    }
}

#[cfg(test)]
mod conductance_tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn two_cliques_with_bridge_have_low_conductance() {
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        edges.push((0, 4));
        let g = Graph::from_edges(8, edges);
        let in_set: Vec<bool> = (0..8).map(|i| i < 4).collect();
        // One cut edge; each side's volume is 2·6 + 1 = 13.
        let phi = conductance(&g, &in_set).expect("cut has volume");
        assert!((phi - 1.0 / 13.0).abs() < 1e-12, "{phi}");
    }

    #[test]
    fn split_of_complete_graph_has_high_conductance() {
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(6, edges);
        let in_set: Vec<bool> = (0..6).map(|i| i < 3).collect();
        // Cut = 9, vol each side = 15.
        assert!((conductance(&g, &in_set).expect("cut has volume") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_side_is_undefined() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        assert!(conductance(&g, &[false, false, false]).is_none());
        assert!(conductance(&g, &[true, true, true]).is_none());
    }
}
