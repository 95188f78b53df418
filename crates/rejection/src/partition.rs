// lossy-cast (DESIGN.md §8.1): a silently wrapping counter on the
// hostile-input ingest and cut bookkeeping paths is an attack.
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

use crate::{AugmentedGraph, Neighbors, NodeId};

/// Which side of the cut a node is on.
///
/// `Suspect` is the region `U` whose *incoming* requests define the
/// aggregate acceptance rate `AC⟨U, Ū⟩`; `Legit` is its complement `Ū`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// The non-suspect region `Ū`.
    Legit,
    /// The suspect region `U` (the side receiving the counted rejections).
    Suspect,
}

impl Region {
    /// The other region.
    #[inline]
    pub fn other(self) -> Region {
        match self {
            Region::Legit => Region::Suspect,
            Region::Suspect => Region::Legit,
        }
    }
}

/// A two-region partition of an [`AugmentedGraph`] with incremental cut
/// counters.
///
/// Maintains, under `O(deg)` single-node switches:
///
/// * `cross_friendships = |F(Ū, U)|` — friendships straddling the cut
///   (these are the paper's *attack edges* when `U` is the fake region);
/// * `cross_rejections = |R⟨Ū, U⟩|` — rejections cast by `Legit` nodes on
///   `Suspect` nodes. Rejections in the other direction, and rejections
///   internal to either region, deliberately do **not** count: that is what
///   makes the aggregate rate collusion-resistant (§IV-A).
///
/// The aggregate acceptance rate of the cut is
/// `cross_friendships / (cross_friendships + cross_rejections)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    region: Vec<Region>,
    suspect_count: usize,
    cross_friendships: u64,
    cross_rejections: u64,
}

impl Partition {
    /// Builds a partition by evaluating `f` on every node of `g`.
    pub fn from_fn<F>(g: &AugmentedGraph, mut f: F) -> Self
    where
        F: FnMut(NodeId) -> Region,
    {
        let region: Vec<Region> = g.nodes().map(&mut f).collect();
        Self::from_regions(g, region)
    }

    /// Builds a partition from an explicit region vector.
    ///
    /// # Panics
    ///
    /// Panics if `region.len() != g.num_nodes()`.
    pub fn from_regions(g: &AugmentedGraph, region: Vec<Region>) -> Self {
        assert_eq!(region.len(), g.num_nodes(), "region vector has wrong length");
        let mut cross_friendships = 0u64;
        let mut cross_rejections = 0u64;
        for u in g.nodes() {
            let (f, r) = Self::cut_edges(&region, u, g.neighbors(u));
            cross_friendships = cross_friendships
                .checked_add(f)
                .expect("cross friendship counter fits in u64");
            cross_rejections = cross_rejections
                .checked_add(r)
                .expect("cross rejection counter fits in u64");
        }
        Self::from_parts(region, cross_friendships, cross_rejections)
    }

    /// Builds a partition whose cut counters were tallied elsewhere, e.g.
    /// summed over graph shards with [`Partition::cut_edges`]. The counters
    /// are trusted: they must be what [`Partition::from_regions`] would
    /// count.
    pub fn from_parts(region: Vec<Region>, cross_friendships: u64, cross_rejections: u64) -> Self {
        let suspect_count = region.iter().filter(|&&r| r == Region::Suspect).count();
        Partition { region, suspect_count, cross_friendships, cross_rejections }
    }

    /// The cut edges node `u` accounts for under `region`: friendships to
    /// higher-id neighbors across the cut (so each friendship is counted
    /// once over all nodes) and, when `u` is legit, its rejections of
    /// suspect users. Summing this over every node gives the partition's
    /// `(cross_friendships, cross_rejections)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or a neighbor is out of range of `region`.
    pub fn cut_edges(region: &[Region], u: NodeId, n: Neighbors<'_>) -> (u64, u64) {
        let ru = region[u.index()];
        let mut f = 0u64;
        for &v in n.friends {
            if u < v && ru != region[v.index()] {
                f += 1;
            }
        }
        let mut r = 0u64;
        if ru == Region::Legit {
            for &v in n.rejected_by {
                if region[v.index()] == Region::Suspect {
                    r += 1;
                }
            }
        }
        (f, r)
    }

    /// A partition with every node in `Legit` (the all-`Ū` starting point).
    pub fn all_legit(g: &AugmentedGraph) -> Self {
        Partition {
            region: vec![Region::Legit; g.num_nodes()],
            suspect_count: 0,
            cross_friendships: 0,
            cross_rejections: 0,
        }
    }

    /// Region of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn region(&self, u: NodeId) -> Region {
        self.region[u.index()]
    }

    /// Number of nodes in the suspect region.
    #[inline]
    pub fn suspect_count(&self) -> usize {
        self.suspect_count
    }

    /// Number of nodes in the partition overall.
    #[inline]
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// Whether the partition covers zero nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// `|F(Ū, U)|`: friendships crossing the cut.
    #[inline]
    pub fn cross_friendships(&self) -> u64 {
        self.cross_friendships
    }

    /// `|R⟨Ū, U⟩|`: rejections cast by the legit region on the suspect
    /// region.
    #[inline]
    pub fn cross_rejections(&self) -> u64 {
        self.cross_rejections
    }

    /// Aggregate acceptance rate `AC⟨U, Ū⟩` of the requests from the suspect
    /// region to the legit region; `None` when the cut carries neither
    /// friendships nor rejections (the rate is undefined, e.g. `U = ∅`).
    #[expect(clippy::cast_precision_loss, reason = "edge counts are < 2^53 and convert exactly")]
    pub fn acceptance_rate(&self) -> Option<f64> {
        let f = self.cross_friendships as f64;
        let r = self.cross_rejections as f64;
        if f + r == 0.0 {
            None
        } else {
            Some(f / (f + r))
        }
    }

    /// The nodes currently in the suspect region, ascending.
    pub fn suspects(&self) -> Vec<NodeId> {
        self.region
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == Region::Suspect)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Moves `u`, whose adjacency is `n`, to the other region, updating
    /// the cut counters in `O(deg(u))`. Returns the region `u` now
    /// occupies.
    ///
    /// # Panics
    ///
    /// Panics if `u` or a neighbor is out of range.
    pub fn switch(&mut self, u: NodeId, n: Neighbors<'_>) -> Region {
        let delta = self.switch_delta(u, n);
        self.apply_switch(u, delta)
    }

    /// Moves `u` to the other region, applying a `(Δcross_friendships,
    /// Δcross_rejections)` that [`Partition::switch_delta`] computed for
    /// `u` in this same state. `O(1)`: this is how the KL kernel commits
    /// moves it has already previewed without reading adjacency again.
    /// Returns the region `u` now occupies.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or the delta underflows a counter.
    pub fn apply_switch(&mut self, u: NodeId, (df, dr): (i64, i64)) -> Region {
        let to = self.region[u.index()].other();
        self.cross_friendships = self
            .cross_friendships
            .checked_add_signed(df)
            .expect("cross friendship counter underflow");
        self.cross_rejections = self
            .cross_rejections
            .checked_add_signed(dr)
            .expect("cross rejection counter underflow");
        self.region[u.index()] = to;
        match to {
            Region::Suspect => {
                self.suspect_count =
                    self.suspect_count.checked_add(1).expect("suspect count fits in usize");
            }
            Region::Legit => {
                self.suspect_count =
                    self.suspect_count.checked_sub(1).expect("suspect count underflow");
            }
        }
        to
    }

    /// The `(Δcross_friendships, Δcross_rejections)` that switching `u`,
    /// whose adjacency is `n`, *would* cause, without applying it. This is
    /// the primitive the extended-KL gain computation builds on.
    ///
    /// # Panics
    ///
    /// Panics if `u` or a neighbor is out of range.
    pub fn switch_delta(&self, u: NodeId, n: Neighbors<'_>) -> (i64, i64) {
        Self::switch_delta_in(&self.region, u, n)
    }

    /// [`Partition::switch_delta`] under bare regions, as
    /// [`Partition::cut_edges`] counts under them: how a scan that counts
    /// a cut also derives every node's delta, wherever the adjacency lives.
    ///
    /// # Panics
    ///
    /// Panics if `u` or a neighbor is out of range of `region`.
    pub fn switch_delta_in(region: &[Region], u: NodeId, n: Neighbors<'_>) -> (i64, i64) {
        let from = region[u.index()];
        // Friendships: edges to same-region neighbors become cross (+1),
        // edges to other-region neighbors become internal (−1).
        let mut df = 0i64;
        for &v in n.friends {
            if region[v.index()] == from {
                df += 1;
            } else {
                df -= 1;
            }
        }
        // Rejections ⟨r, s⟩ count iff r is Legit and s is Suspect.
        let mut dr = 0i64;
        match from {
            Region::Legit => {
                // u: Legit → Suspect.
                // + rejections u received from Legit users (now Legit→Suspect)
                // − rejections u cast on Suspect users (no longer Legit→Suspect)
                for &r in n.rejectors_of {
                    if region[r.index()] == Region::Legit && r != u {
                        dr += 1;
                    }
                }
                for &s in n.rejected_by {
                    if region[s.index()] == Region::Suspect {
                        dr -= 1;
                    }
                }
            }
            Region::Suspect => {
                // u: Suspect → Legit (mirror of the above).
                for &r in n.rejectors_of {
                    if region[r.index()] == Region::Legit {
                        dr -= 1;
                    }
                }
                for &s in n.rejected_by {
                    if region[s.index()] == Region::Suspect && s != u {
                        dr += 1;
                    }
                }
            }
        }
        (df, dr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AugmentedGraphBuilder;

    /// 4 legit (0–3) in a path, 2 fakes (4, 5) befriending each other;
    /// fake 4 has one accepted request to node 0 and rejections from 1, 2.
    fn scenario() -> AugmentedGraph {
        let mut b = AugmentedGraphBuilder::new(6);
        b.add_friendship(NodeId(0), NodeId(1));
        b.add_friendship(NodeId(1), NodeId(2));
        b.add_friendship(NodeId(2), NodeId(3));
        b.add_friendship(NodeId(4), NodeId(5));
        b.add_friendship(NodeId(0), NodeId(4)); // attack edge
        b.add_rejection(NodeId(1), NodeId(4));
        b.add_rejection(NodeId(2), NodeId(4));
        b.build()
    }

    fn fake_region(n: NodeId) -> Region {
        if n.0 >= 4 {
            Region::Suspect
        } else {
            Region::Legit
        }
    }

    #[test]
    fn counters_match_direct_count() {
        let g = scenario();
        let p = Partition::from_fn(&g, fake_region);
        assert_eq!(p.cross_friendships(), 1); // the attack edge
        assert_eq!(p.cross_rejections(), 2); // 1→4, 2→4
        assert_eq!(p.suspect_count(), 2);
        assert!((p.acceptance_rate().expect("cut has requests") - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn internal_rejections_do_not_count() {
        let mut b = AugmentedGraphBuilder::new(4);
        b.add_rejection(NodeId(2), NodeId(3)); // suspect → suspect
        b.add_rejection(NodeId(0), NodeId(1)); // legit → legit
        b.add_rejection(NodeId(2), NodeId(0)); // suspect → legit
        let g = b.build();
        let p = Partition::from_fn(&g, |n| if n.0 >= 2 { Region::Suspect } else { Region::Legit });
        assert_eq!(p.cross_rejections(), 0);
    }

    #[test]
    fn all_legit_has_empty_cut() {
        let g = scenario();
        let p = Partition::all_legit(&g);
        assert_eq!(p.cross_friendships(), 0);
        assert_eq!(p.cross_rejections(), 0);
        assert_eq!(p.acceptance_rate(), None);
        assert_eq!(p.suspect_count(), 0);
    }

    #[test]
    fn switch_updates_counters_incrementally() {
        let g = scenario();
        let mut p = Partition::all_legit(&g);
        // Move fake 4 into the suspect region.
        p.switch(NodeId(4), g.neighbors(NodeId(4)));
        // Cross friendships: 4's edges to 5 and 0 are both cross now.
        assert_eq!(p.cross_friendships(), 2);
        // Rejections 1→4 and 2→4 are now Legit→Suspect.
        assert_eq!(p.cross_rejections(), 2);
        // Move fake 5 too: edge 4-5 becomes internal.
        p.switch(NodeId(5), g.neighbors(NodeId(5)));
        assert_eq!(p.cross_friendships(), 1);
        assert_eq!(p.cross_rejections(), 2);
    }

    #[test]
    fn switch_agrees_with_recount_on_every_move() {
        let g = scenario();
        let mut p = Partition::all_legit(&g);
        for u in [4u32, 1, 5, 4, 0, 2, 1].map(NodeId) {
            p.switch(u, g.neighbors(u));
            let recount = Partition::from_regions(&g, (0..6).map(|i| p.region(NodeId(i))).collect());
            assert_eq!(p.cross_friendships(), recount.cross_friendships(), "after moving {u}");
            assert_eq!(p.cross_rejections(), recount.cross_rejections(), "after moving {u}");
            assert_eq!(p.suspect_count(), recount.suspect_count());
        }
    }

    #[test]
    fn switch_delta_previews_switch() {
        let g = scenario();
        let mut p = Partition::from_fn(&g, fake_region);
        let (df, dr) = p.switch_delta(NodeId(4), g.neighbors(NodeId(4)));
        let (f0, r0) = (p.cross_friendships() as i64, p.cross_rejections() as i64);
        p.switch(NodeId(4), g.neighbors(NodeId(4)));
        assert_eq!(p.cross_friendships() as i64, f0 + df);
        assert_eq!(p.cross_rejections() as i64, r0 + dr);
    }

    #[test]
    fn switch_is_an_involution_on_counters() {
        let g = scenario();
        let mut p = Partition::from_fn(&g, fake_region);
        let before = p.clone();
        p.switch(NodeId(2), g.neighbors(NodeId(2)));
        p.switch(NodeId(2), g.neighbors(NodeId(2)));
        assert_eq!(p, before);
    }

    #[test]
    fn suspects_lists_suspect_side() {
        let g = scenario();
        let p = Partition::from_fn(&g, fake_region);
        assert_eq!(p.suspects(), vec![NodeId(4), NodeId(5)]);
    }

    #[test]
    fn acceptance_rate_of_pure_rejection_cut_is_zero() {
        let mut b = AugmentedGraphBuilder::new(2);
        b.add_rejection(NodeId(0), NodeId(1));
        let g = b.build();
        let p = Partition::from_fn(&g, |n| if n.0 == 1 { Region::Suspect } else { Region::Legit });
        assert_eq!(p.acceptance_rate(), Some(0.0));
    }
}
