//! Move-for-move pin of the extended-KL kernel.
//!
//! For every `k` of the default sweep, on one seeded simulated graph, the
//! kernel's pass count, committed moves, bucket adjustments and resulting
//! suspect count are compared against figures recorded from the kernel
//! before its storage was reworked (CSR graph, a bucket list with one
//! record per node, in-place passes with rollback). The later move to
//! circular gain chains through sentinel head records left every column
//! of the table as it was. When the simulator's Sybil region
//! became Floyd-sampled the input graph changed, so the figures were
//! re-recorded once on the new graph with the kernel untouched; they are
//! still the pre-rework kernel's moves. Any change to the order in which the
//! kernel pops, files or commits nodes moves at least one of these
//! counters, so a layout or scratch-buffer change that is meant to be
//! invisible must leave this table untouched.
//!
//! When passes began to end at the pass bound (a pass stops once no later
//! prefix can beat its best one) only the `bucket_adjusts` column was
//! re-recorded: a pass now pops fewer nodes, so it adjusts fewer
//! neighbours. Passes, committed moves, suspect counts and checksums are
//! still the full-pass kernel's, which is the evidence that the bound
//! changed no move. When the objective floor gave way to the switch-gain
//! potential that column alone was re-recorded once more, and every row
//! fell (column sums 580,022 → 481,368 from all-legit and 616,264 →
//! 482,892 from the warm start).
//!
//! The `debug-invariants` checkers re-derive the whole gain index after
//! every move (`O(n·deg)` each), which turns this 2,000-node sweep into
//! hours; the invariant run covers the kernel on the smaller fixtures of
//! `kl` and `rejecto-core` instead.
#![cfg(not(feature = "debug-invariants"))]

use kl::{DegreeSummary, ExtendedKl, ExtendedKlConfig, KlStart};
use rejection::{AugmentedGraph, NodeDegrees, NodeId, Partition};
use rejecto_core::{FaultPlan, KResult, RejectoConfig, RunContext, SweepPlan};
use simulator::{Scenario, ScenarioConfig};
use socialgraph::surrogates::Surrogate;
use std::convert::Infallible;

/// The Facebook surrogate at scale 0.1 (1,000 users) plus 1,000 fakes.
fn graph() -> AugmentedGraph {
    let host = Surrogate::Facebook.generate_scaled(42, 0.1);
    let config = ScenarioConfig { num_fakes: 1_000, ..ScenarioConfig::default() };
    Scenario::new(config).run(&host, 42).graph
}

/// One k's counters: `(num, den, passes, moves_committed, bucket_adjusts,
/// suspect count, suspect-set checksum)`.
type Row = (u64, u64, u64, u64, u64, usize, u64);

/// An order-sensitive checksum of an ascending suspect list, so two cuts
/// of the same size but different members tell apart.
fn checksum(suspects: &[NodeId]) -> u64 {
    suspects
        .iter()
        .fold(0u64, |h, u| h.wrapping_mul(1_000_003).wrapping_add(u64::from(u.0) + 1))
}

fn render(rows: &[Row]) -> String {
    rows.iter().map(|r| format!("    {r:?},\n")).collect()
}

fn assert_rows(what: &str, got: &[Row], want: &[Row]) {
    assert!(
        got == want,
        "{what}: kernel trace changed; the run now gives\n{}",
        render(got)
    );
}

/// Every 50th legitimate user, pinned legit: the sweep's seeds shape
/// which nodes the kernel may pop.
fn legit_seeds(g: &AugmentedGraph) -> Vec<NodeId> {
    g.nodes().filter(|u| u.index() < 1_000 && u.index() % 50 == 0).collect()
}

/// The kernel alone, from all-legit with pinned seeds.
#[test]
fn kernel_trace_from_all_legit_is_pinned() {
    let g = graph();
    let seeds = legit_seeds(&g);
    let degrees = DegreeSummary::new(NodeDegrees::of_graph(&g));
    let config = RejectoConfig::default();
    let rows: Vec<Row> = config
        .k_sweep()
        .into_iter()
        .map(|k| {
            let cfg = ExtendedKlConfig { k, max_passes: config.max_kl_passes };
            let mut kl = ExtendedKl::new(&g, cfg, &degrees);
            let obs = rejecto_obs::Obs::new();
            kl.set_obs(obs.clone());
            for &s in &seeds {
                kl.lock(s);
            }
            let out = kl.run(Partition::all_legit(&g));
            assert_eq!(obs.counter("kl/moves_committed"), out.moves_committed);
            (
                k.num(),
                k.den(),
                obs.counter("kl/passes"),
                out.moves_committed,
                obs.counter("kl/bucket_adjusts"),
                out.partition.suspect_count(),
                checksum(&out.partition.suspects()),
            )
        })
        .collect();
    assert_rows("all-legit start", &rows, ALL_LEGIT);
}

/// The sweep as the detector runs it: the default rejection-ratio warm
/// start, every k through `SweepPlan::solve_k`. Inadmissible cuts report
/// 0 suspects.
#[test]
fn sweep_trace_from_the_warm_start_is_pinned() {
    let g = graph();
    let seeds = legit_seeds(&g);
    let config = RejectoConfig::default();
    let degrees = NodeDegrees::of_graph(&g);
    let plan = SweepPlan::new(&config, degrees, &seeds, &[], config.initial_placement, |r| {
        KlStart::count(&mut &g, r)
    })
    .unwrap_or_else(|e: Infallible| match e {});
    let rows: Vec<Row> = (0..plan.num_ks())
        .map(|i| {
            let obs = rejecto_obs::Obs::new();
            let ctx = RunContext::armed(&config, &FaultPlan::none(), Some(obs.clone()));
            let Ok(result) = plan.solve_k(&g, i, &ctx);
            let (k, suspects) = match result {
                KResult::Cut(cut) => (cut.k, cut.partition.suspects()),
                KResult::NoCut => (config.k_sweep()[i], Vec::new()),
                KResult::Interrupted => panic!("an unbudgeted run was interrupted"),
            };
            (
                k.num(),
                k.den(),
                obs.counter("kl/passes"),
                obs.counter("kl/moves_committed"),
                obs.counter("kl/bucket_adjusts"),
                suspects.len(),
                checksum(&suspects),
            )
        })
        .collect();
    assert_rows("warm start", &rows, WARM_START);
}

/// Recorded with the kernel's moves unchanged since the storage rework and
/// its adjustments since the switch-gain potential; see the module docs.
const ALL_LEGIT: &[Row] = &[
    (3, 64, 1, 0, 21425, 0, 0),
    (5, 64, 1, 0, 23797, 0, 0),
    (7, 64, 1, 0, 25380, 0, 0),
    (11, 64, 1, 0, 27551, 0, 0),
    (1, 4, 1, 0, 28264, 0, 0),
    (3, 8, 2, 3, 59433, 3, 1903013330024857),
    (9, 16, 3, 1042, 54011, 1030, 9766163166223299682),
    (55, 64, 2, 1005, 32483, 1005, 16213092312507817541),
    (41, 32, 2, 1000, 28043, 1000, 5844108594825303524),
    (123, 64, 2, 1000, 26307, 1000, 5844108594825303524),
    (185, 64, 2, 1000, 25827, 1000, 5844108594825303524),
    (277, 64, 2, 1000, 25771, 1000, 5844108594825303524),
    (415, 64, 2, 1000, 25777, 1000, 5844108594825303524),
    (623, 64, 2, 1000, 25777, 1000, 5844108594825303524),
    (467, 32, 2, 1000, 25777, 1000, 5844108594825303524),
    (20, 1, 2, 1000, 25745, 1000, 5844108594825303524),
];

/// Recorded with the kernel's moves unchanged since the storage rework and
/// its adjustments since the switch-gain potential; see the module docs.
const WARM_START: &[Row] = &[
    (3, 64, 2, 366, 31214, 0, 0),
    (5, 64, 2, 366, 33672, 0, 0),
    (7, 64, 2, 366, 35411, 0, 0),
    (11, 64, 2, 366, 37994, 0, 0),
    (1, 4, 2, 366, 39723, 0, 0),
    (3, 8, 2, 361, 43537, 5, 15865785200730132657),
    (9, 16, 5, 1433, 87684, 1035, 1238788979975798815),
    (55, 64, 2, 639, 25614, 1005, 16213092312507817541),
    (41, 32, 2, 634, 20572, 1000, 5844108594825303524),
    (123, 64, 2, 634, 18673, 1000, 5844108594825303524),
    (185, 64, 2, 634, 18179, 1000, 5844108594825303524),
    (277, 64, 2, 634, 18123, 1000, 5844108594825303524),
    (415, 64, 2, 634, 18150, 1000, 5844108594825303524),
    (623, 64, 2, 634, 18126, 1000, 5844108594825303524),
    (467, 32, 2, 634, 18126, 1000, 5844108594825303524),
    (20, 1, 2, 634, 18094, 1000, 5844108594825303524),
];
