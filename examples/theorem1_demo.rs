//! Theorem 1 made concrete: the MAAR (ratio) cut is the zero of a family
//! of linear objectives.
//!
//! The paper's §IV-D transformation: instead of minimizing the
//! friends-to-rejections ratio `|F(Ū,U)| / |R⟨Ū,U⟩|` directly, minimize
//! the linear objective `|F(Ū,U)| − k·|R⟨Ū,U⟩|` for a geometric family of
//! `k` values. At `k = k*` (the optimal ratio) the MAAR cut's objective is
//! exactly zero and every other cut is non-negative; below `k*` the empty
//! cut wins; above, the MAAR cut goes strictly negative.
//!
//! This example builds a small spam instance, enumerates every cut with
//! the exhaustive oracle, and prints the winning cut per `k` alongside the
//! extended-KL heuristic's result.
//!
//! ```sh
//! cargo run --release --example theorem1_demo
//! ```

use rejecto::kl::{DegreeSummary, ExtendedKl, ExtendedKlConfig, KParam};
use rejecto::rejecto_core::exact;
use rejecto::rejection::{AugmentedGraphBuilder, NodeDegrees, NodeId, Partition};

fn main() {
    // 5 legit users in a dense cluster, 3 fakes in a triangle, one attack
    // edge, six rejections onto the fakes: the MAAR cut is {5, 6, 7} with
    // F = 1, R = 6 ⇒ k* = 1/6.
    let mut b = AugmentedGraphBuilder::new(8);
    for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (0, 4)] {
        b.add_friendship(NodeId(u), NodeId(v));
    }
    for (u, v) in [(5, 6), (6, 7), (5, 7)] {
        b.add_friendship(NodeId(u), NodeId(v));
    }
    b.add_friendship(NodeId(3), NodeId(5)); // the attack edge
    for (r, s) in [(0, 5), (1, 5), (2, 6), (3, 6), (4, 7), (0, 7)] {
        b.add_rejection(NodeId(r), NodeId(s));
    }
    let g = b.build();

    let (maar, ac) = exact::exact_maar_cut(&g, 4).expect("a cut exists");
    let f = maar.cross_friendships();
    let r = maar.cross_rejections();
    println!(
        "exhaustive MAAR cut: {:?}  (F = {f}, R = {r}, acceptance rate {ac:.4}, k* = {:.4})\n",
        maar.suspects(),
        f as f64 / r as f64
    );

    println!("k          exact linear minimizer      objective   extended-KL suspects");
    for (num, den) in [(1u64, 12u64), (1, 8), (1, 6), (1, 4), (1, 2), (1, 1), (2, 1)] {
        let (cut, obj) = exact::exact_linear_cut(&g, num as i64, den as i64);
        let cfg = ExtendedKlConfig::new(KParam::new(num, den));
        let kl = ExtendedKl::new(&g, cfg, &DegreeSummary::new(NodeDegrees::of_graph(&g)));
        let heur = kl.run(Partition::all_legit(&g));
        let cut_str = if cut.is_empty() {
            "∅ (empty cut optimal)".to_string()
        } else {
            format!("{cut:?}")
        };
        println!(
            "k={num}/{den:<6} {cut_str:<28} {obj:>6}/den    {:?}",
            heur.partition.suspects()
        );
    }
    println!(
        "\nBelow k* = 1/6 the empty cut is the strict optimum; at k* the MAAR cut\n\
         ties it at zero; above k* the MAAR cut goes negative and both the\n\
         oracle and the heuristic land on it — which is why sweeping k over a\n\
         geometric sequence and keeping the lowest-acceptance-rate cut finds\n\
         the MAAR cut (Theorem 1)."
    );
}
