//! Release-strength structural checks, compiled only under the
//! `debug-invariants` feature.
//!
//! The hot-path bookkeeping in [`BucketList`] and the cut counters
//! [`ExtendedKl`](crate::ExtendedKl) keeps in its [`Partition`] guard
//! their preconditions with `debug_assert!` (the kernel sits inside every
//! worker's sweep and must not abort release runs on a recoverable slip).
//! The functions here are the counterweight: full-structure walks that
//! re-derive every summary the `O(1)` operations maintain incrementally,
//! and `assert!` hard when the structure is corrupted. This module is the sanctioned
//! home for such aborts — a corrupted structure has no degraded answer
//! to give — and is exempted from the `no-panic`/`lossy-cast` lint
//! tiers by path (`cargo xtask check` skips `*invariants*` modules).

#![cfg(feature = "debug-invariants")]

use crate::bucket::{BucketList, ABSENT, NIL};
use crate::extended::obj_i64;
use crate::{Adjacency, KParam};
use rejection::{NodeId, Partition, Region};

/// Walks every gain chain of `b` around its circle and checks:
///
/// * the end record still reads as a non-empty chain (`next == NIL`), so
///   the downward scan for the top chain stops there, and the high-water
///   mark lies between it and the last head;
/// * no chain above the high-water mark holds a node;
/// * each chained record is a node record not marked absent, whose gain
///   maps to the chain it is filed in and whose back-link is correct, and
///   each head's back-link closes its circle;
/// * the chains reach exactly `len` nodes (no orphans, no cycles);
/// * the node records not marked absent number exactly `len`.
///
/// # Panics
///
/// Panics on the first structural inconsistency.
pub fn assert_bucket_consistent(b: &BucketList) {
    let end = b.end as usize;
    assert_eq!(b.links[end].next, NIL, "end record {end} reads as an empty chain");
    assert!(
        b.top >= b.end && (b.top as usize) < b.links.len(),
        "high-water mark {} outside the heads {}..{}",
        b.top,
        end + 1,
        b.links.len()
    );
    let mut reached = 0usize;
    for (offset, h) in (end + 1..b.links.len()).enumerate() {
        let head = b.links[h];
        let gain = b.min_gain + offset as i64;
        assert!(
            h <= b.top as usize || head.next as usize == h,
            "chain {gain} non-empty above high-water mark {}",
            b.top
        );
        let mut prev = h as u32;
        let mut cur = head.next;
        while cur as usize != h {
            assert!(cur < b.end, "chain {gain} links to record {cur}, which is not a node");
            let link = b.links[cur as usize];
            assert_ne!(link.prev, ABSENT, "chained node {cur} marked absent");
            let filed = b.gains[cur as usize];
            assert_eq!(filed, gain, "node {cur} with gain {filed} filed in chain {gain}");
            assert_eq!(link.prev, prev, "broken back-link at node {cur}");
            reached += 1;
            assert!(reached <= b.len, "cycle or orphan chain in chain {gain}");
            prev = cur;
            cur = link.next;
        }
        assert_eq!(head.prev, prev, "head {h} does not close its circle");
    }
    assert_eq!(reached, b.len, "{reached} nodes reachable but len = {}", b.len);
    let present = b.links[..end].iter().filter(|l| l.prev != ABSENT).count();
    assert_eq!(present, b.len, "{present} records present but len = {}", b.len);
}

/// Re-derives a partition's incremental cut counters from scratch, node by
/// node over `adj`, and asserts they match: coverage (`p` assigns a region
/// to exactly the source's nodes), the suspect count, `cross_friendships`
/// (friendships with endpoints in different regions), and
/// `cross_rejections` (rejections cast by the legit region on the suspect
/// region). [`ExtendedKl`](crate::ExtendedKl) runs it on every partition
/// it returns, over whichever source it ran on.
///
/// # Panics
///
/// Panics on the first counter that disagrees with recomputation.
pub fn assert_partition_counts<A: Adjacency>(adj: &mut A, p: &Partition) -> Result<(), A::Error> {
    let n = adj.num_nodes();
    assert_eq!(p.len(), n, "partition covers {} nodes, graph has {n}", p.len());
    let regions: Vec<Region> = (0..n).map(|i| p.region(NodeId::from_index(i))).collect();
    let suspects = regions.iter().filter(|&&r| r == Region::Suspect).count();
    assert_eq!(
        suspects,
        p.suspect_count(),
        "suspect_count {} but {suspects} nodes are in the suspect region",
        p.suspect_count()
    );
    let (mut cross_f, mut cross_r) = (0u64, 0u64);
    for i in 0..n {
        let u = NodeId::from_index(i);
        let (f, r) = Partition::cut_edges(&regions, u, adj.neighbors(u)?);
        cross_f += f;
        cross_r += r;
    }
    assert_eq!(
        p.cross_friendships(),
        cross_f,
        "cross_friendships counter {} but {cross_f} friendships cross the cut",
        p.cross_friendships()
    );
    assert_eq!(
        p.cross_rejections(),
        cross_r,
        "cross_rejections counter {} but {cross_r} rejections cross the cut",
        p.cross_rejections()
    );
    Ok(())
}

/// Re-derives an extended-KL pass's switch-gain potential from adjacency
/// and asserts that the pass's incremental state matches it: every
/// indexed node's `term` is `2·gain + credit`, where the credit is `2·den`
/// per friend on its side and `num` per rejection partner on the other
/// side, counting only partners still indexed or locked, plus `num` per
/// self-rejection; and `s2` is the sum of the terms' positive parts, 0
/// once the bucket list is empty. The pass runs it after its fill and
/// after every pop, over whichever source it runs on.
///
/// # Panics
///
/// Panics on the first term or sum that disagrees with recomputation.
pub fn assert_potential<A: Adjacency>(
    adj: &mut A,
    k: KParam,
    p: &Partition,
    bucket: &BucketList,
    locked: &[bool],
    terms: &[i64],
    s2: i64,
) -> Result<(), A::Error> {
    let (num, den) = (obj_i64(k.num()), obj_i64(k.den()));
    let live = |w: NodeId| bucket.contains(w.0) || locked[w.index()];
    let mut fresh = 0i64;
    for (i, &term) in terms.iter().enumerate() {
        let v = NodeId::from_index(i);
        if !bucket.contains(v.0) {
            continue;
        }
        let n = adj.neighbors(v)?;
        let side = p.region(v);
        let mut credit = 0i64;
        for &w in n.friends {
            if live(w) && p.region(w) == side {
                credit += 2 * den;
            }
        }
        for &w in n.rejected_by.iter().chain(n.rejectors_of) {
            if live(w) && p.region(w) != side {
                credit += num;
            }
        }
        if n.rejected_by.contains(&v) {
            credit += num;
        }
        let want = 2 * k.gain(p.switch_delta(v, n)) + credit;
        assert_eq!(term, want, "potential term corrupt: node {i} holds {term}, recomputed {want}");
        fresh += want.max(0);
    }
    assert_eq!(s2, fresh, "potential sum corrupt: pass holds {s2}, recomputed {fresh}");
    if bucket.is_empty() {
        assert_eq!(s2, 0, "an empty bucket list leaves no potential");
    }
    Ok(())
}

/// Checks one node's carried switch delta against the one a fresh scan
/// derives.
///
/// # Panics
///
/// Panics when they differ.
pub fn assert_delta(u: usize, carried: (i32, i32), fresh: (i32, i32)) {
    assert_eq!(
        carried, fresh,
        "carried delta corrupt: node {u} carries {carried:?}, recomputed {fresh:?}"
    );
}
