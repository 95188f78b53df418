use crate::faults::trigger_injected_panic;
use crate::runtime::{RunContext, RuntimeError};
use crate::{CutSolver, InitialPlacement, RejectoConfig, Residual};
use kl::{Adjacency, DegreeSummary, ExtendedKl, ExtendedKlConfig, KParam, KlStart};
use rejection::{AugmentedGraph, NodeDegrees, NodeId, Partition, Region};
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A minimum-aggregate-acceptance-rate cut found by [`MaarSolver`].
#[derive(Debug, Clone)]
pub struct MaarCut {
    /// The partition; its suspect region is the detected group.
    pub partition: Partition,
    /// `AC⟨U,Ū⟩` of the cut.
    pub acceptance_rate: f64,
    /// The sweep value of `k` that produced the winning cut.
    pub k: KParam,
}

impl MaarCut {
    /// The detected suspect group, ascending by node id.
    pub fn suspects(&self) -> Vec<NodeId> {
        self.partition.suspects()
    }
}

/// The largest admissible suspect-region size on an `n`-node residual
/// graph. Clamped to at least 1: on small graphs
/// `floor(max_suspect_fraction · n)` rounds to 0, which would silently
/// reject *every* candidate cut — even a single blatant spammer.
fn suspect_cap(config: &RejectoConfig, n: usize) -> usize {
    ((config.max_suspect_fraction * n as f64).floor() as usize).max(1) // xtask-allow: lossy-cast: n < 2^53 converts exactly and the floored fraction lies in [0, n]
}

/// What one `k` of a sweep produced.
#[derive(Debug)]
pub enum KResult {
    /// A converged, admissible cut.
    Cut(MaarCut),
    /// Converged, but the cut was degenerate or inadmissible.
    NoCut,
    /// The KL run was stopped by the cancel token before convergence; its
    /// partition is discarded (a half-optimized cut must never compete in
    /// the reduction).
    Interrupted,
}

/// Everything one monitored sweep (or its warm-start fallback pair)
/// produced, for the pruning loop's bookkeeping.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The winning cut, when the sweep ran to completion and found one.
    pub cut: Option<MaarCut>,
    /// Sweep indices whose runs converged (including successfully retried
    /// ones), ascending. On interruption this is the progress record a
    /// `Partial` report carries.
    pub completed_k_indices: Vec<usize>,
    /// Persistent per-`k` failures: the worker panicked *and* its
    /// deterministic serial retry panicked again, so the index was skipped.
    pub failures: Vec<RuntimeError>,
    /// Whether the cancel token stopped the sweep before every `k`
    /// converged. When set, `cut` is `None`.
    pub interrupted: bool,
}

impl SweepOutcome {
    /// Reduces per-`k` results, in sweep order, to the cut with the lowest
    /// acceptance rate (earliest index wins ties). `None` marks a skipped
    /// `k`; any interrupted `k` voids the cut.
    pub fn reduce(
        results: impl IntoIterator<Item = Option<KResult>>,
        failures: Vec<RuntimeError>,
    ) -> SweepOutcome {
        let mut completed_k_indices = Vec::new();
        let mut interrupted = false;
        let mut best: Option<MaarCut> = None;
        for (i, result) in results.into_iter().enumerate() {
            match result {
                None => {}
                Some(KResult::Interrupted) => interrupted = true,
                Some(result) => {
                    completed_k_indices.push(i);
                    if let KResult::Cut(cut) = result {
                        if best.as_ref().is_none_or(|b| cut.acceptance_rate < b.acceptance_rate) {
                            best = Some(cut);
                        }
                    }
                }
            }
        }
        SweepOutcome {
            cut: if interrupted { None } else { best },
            completed_k_indices,
            failures,
            interrupted,
        }
    }
}

/// The `k`-independent set-up of one sweep, shared by the in-process and
/// the cluster sweep: the `k` values, the suspect cap, the seeds, the
/// degree summary every `k`'s kernel is sized from, and the start every
/// `k` runs from: the initial partition and every node's switch delta
/// under it, which do not depend on `k` either.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    ks: Vec<KParam>,
    degrees: DegreeSummary,
    max_passes: usize,
    cap: usize,
    seeds: Vec<NodeId>,
    initial: KlStart,
}

impl SweepPlan {
    /// Plans a sweep over a graph with these per-node `degrees`, which
    /// the plan keeps: every `k`'s kernel starts its passes' potential
    /// from them. A warm start marks suspect the nodes at or above the
    /// rejection-ratio threshold, highest first and at most the suspect
    /// cap of them; seeds then override it and are pinned (§IV-F).
    /// `count` counts the cut of the initial regions and every node's
    /// switch delta, in one scan, wherever the adjacency lives.
    ///
    /// # Panics
    ///
    /// Panics if a seed id is out of range.
    pub fn new<E>(
        config: &RejectoConfig,
        degrees: Vec<NodeDegrees>,
        legit_seeds: &[NodeId],
        spammer_seeds: &[NodeId],
        placement: InitialPlacement,
        count: impl FnOnce(Vec<Region>) -> Result<KlStart, E>,
    ) -> Result<SweepPlan, E> {
        let n = degrees.len();
        let cap = suspect_cap(config, n);
        let mut region = vec![Region::Legit; n];
        if let InitialPlacement::RejectionRatio(threshold) = placement {
            let mut candidates: Vec<(f64, usize)> = degrees
                .iter()
                .enumerate()
                .filter_map(|(i, d)| Some((d.rejection_ratio()?, i)))
                .filter(|&(ratio, _)| ratio >= threshold)
                .collect();
            candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            for (_, i) in candidates.into_iter().take(cap) {
                region[i] = Region::Suspect;
            }
        }
        for &s in legit_seeds {
            region[s.index()] = Region::Legit;
        }
        for &s in spammer_seeds {
            region[s.index()] = Region::Suspect;
        }
        Ok(SweepPlan {
            ks: config.k_sweep(),
            degrees: DegreeSummary::new(degrees),
            max_passes: config.max_kl_passes,
            cap,
            seeds: legit_seeds.iter().chain(spammer_seeds).copied().collect(),
            initial: count(region)?,
        })
    }

    /// Number of `k` values in the sweep.
    pub fn num_ks(&self) -> usize {
        self.ks.len()
    }

    /// Runs sweep index `i` over `adj` — extended KL from a copy of the
    /// sweep's start under the context's token and metrics — and judges
    /// the cut against the suspect cap.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `adj` has a different node count.
    pub fn solve_k<A: Adjacency>(
        &self,
        adj: A,
        i: usize,
        ctx: &RunContext,
    ) -> Result<KResult, A::Error> {
        let _k_span = ctx.obs.as_ref().map(|o| o.span("detect/round/sweep/k_index"));
        let k = self.ks[i];
        let cfg = ExtendedKlConfig { k, max_passes: self.max_passes };
        let mut kl = ExtendedKl::new(adj, cfg, &self.degrees);
        kl.set_cancel(ctx.token.clone());
        if let Some(obs) = &ctx.obs {
            kl.set_obs(obs.clone());
        }
        for &s in &self.seeds {
            kl.lock(s);
        }
        let out = kl.try_run(self.initial.clone())?;
        if out.interrupted {
            return Ok(KResult::Interrupted);
        }
        let p = out.partition;
        if p.suspect_count() == 0 || p.suspect_count() > self.cap {
            return Ok(KResult::NoCut);
        }
        Ok(match p.acceptance_rate() {
            Some(ac) => KResult::Cut(MaarCut { partition: p, acceptance_rate: ac, k }),
            None => KResult::NoCut,
        })
    }
}

/// Runs `sweep` from the configured warm start and, when that finds no
/// cut and was not interrupted, once more from all-legit. The warm start
/// can steer every `k` past the admissible suspect region (KL optimizes
/// unconstrained); the all-legit start grows cuts incrementally and stays
/// small when small cuts suffice.
pub fn sweep_with_fallback<E>(
    config: &RejectoConfig,
    mut sweep: impl FnMut(InitialPlacement) -> Result<SweepOutcome, E>,
) -> Result<SweepOutcome, E> {
    let first = sweep(config.initial_placement)?;
    if first.cut.is_some()
        || first.interrupted
        || config.initial_placement == InitialPlacement::AllLegit
    {
        return Ok(first);
    }
    let mut fallback = sweep(InitialPlacement::AllLegit)?;
    // Failures from the primary sweep stay on the record: a skipped k
    // degrades the primary sweep's answer whether or not the fallback ran
    // cleanly.
    let mut failures = first.failures;
    failures.append(&mut fallback.failures);
    fallback.failures = failures;
    Ok(fallback)
}

/// The in-process cut solver: the context's cancel token can interrupt the
/// sweep at KL pass boundaries, its fault table can detonate workers, and the
/// outcome records per-`k` progress and failures instead of panicking or
/// silently skipping.
impl CutSolver for MaarSolver {
    type Error = Infallible;

    fn config(&self) -> &RejectoConfig {
        &self.config
    }

    fn solve_round(
        &self,
        g: &Residual<'_>,
        legit: &[NodeId],
        spammer: &[NodeId],
        ctx: &RunContext,
    ) -> Result<SweepOutcome, Infallible> {
        Ok(self.outcome(g, legit, spammer, ctx))
    }
}

/// Solves the MAAR problem on one augmented graph by sweeping `k` over a
/// geometric sequence and keeping the extended-KL cut with the lowest
/// aggregate acceptance rate (§IV-D, Theorem 1).
#[derive(Debug, Clone)]
pub struct MaarSolver {
    config: RejectoConfig,
}

impl MaarSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: RejectoConfig) -> Self {
        MaarSolver { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RejectoConfig {
        &self.config
    }

    /// Finds the best cut on `g`. `legit_seeds` are pinned to the
    /// legitimate region and `spammer_seeds` to the suspect region for the
    /// whole search (§IV-F). Returns `None` when no non-degenerate cut
    /// exists (i.e., every candidate leaves the suspect region empty or
    /// cuts no requests at all).
    ///
    /// This is the unmonitored entry point: no budgets, no fault
    /// injection. [`crate::IterativeDetector`] goes through the monitored
    /// path instead.
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range.
    pub fn solve(
        &self,
        g: &AugmentedGraph,
        legit_seeds: &[NodeId],
        spammer_seeds: &[NodeId],
    ) -> Option<MaarCut> {
        self.outcome(g, legit_seeds, spammer_seeds, &RunContext::unmonitored()).cut
    }

    /// One round's sweep with the all-legit fallback, under `ctx`.
    fn outcome(
        &self,
        g: &AugmentedGraph,
        legit: &[NodeId],
        spammer: &[NodeId],
        ctx: &RunContext,
    ) -> SweepOutcome {
        let Ok(outcome) = sweep_with_fallback(&self.config, |placement| {
            Ok::<_, Infallible>(self.sweep(g, legit, spammer, placement, ctx))
        });
        outcome
    }

    /// Sweeps every `k` on a fixed-size worker pool
    /// ([`crate::pool::run_indexed`]) sized by
    /// [`RejectoConfig::effective_threads`]. Each run's result lands in its
    /// own sweep-index slot and [`SweepOutcome::reduce`] scans the slots in
    /// sweep order, so thread count cannot change the winner.
    ///
    /// Panicked slots are retried *serially in index order* before the
    /// reduction: a transient panic therefore yields the identical answer
    /// the clean sweep would have produced, and only a panic that
    /// reproduces on retry degrades the sweep (recorded as
    /// [`RuntimeError::WorkerFailed`], slot skipped).
    fn sweep(
        &self,
        g: &AugmentedGraph,
        legit_seeds: &[NodeId],
        spammer_seeds: &[NodeId],
        placement: InitialPlacement,
        ctx: &RunContext,
    ) -> SweepOutcome {
        let _sweep_span = ctx.obs.as_ref().map(|o| o.span("detect/round/sweep"));
        let count = |region| KlStart::count(&mut &*g, region);
        let degrees = NodeDegrees::of_graph(g);
        let Ok(plan) =
            SweepPlan::new(&self.config, degrees, legit_seeds, spammer_seeds, placement, count);
        let solve_one = |i: usize| -> KResult {
            // The injection probe runs before the k span opens: a
            // detonated worker must record nothing, so its deterministic
            // serial retry leaves the metrics identical to a clean run's.
            if ctx.faults.sweep_panic(i) {
                trigger_injected_panic(i);
            }
            let Ok(result) = plan.solve_k(g, i, ctx);
            result
        };
        let threads = self.config.effective_threads();
        let mut slots = crate::pool::run_indexed(threads, plan.num_ks(), &ctx.token, solve_one);

        // Deterministic serial retry of panicked slots, in index order. A
        // retry that panics again records the failure and skips the index.
        let mut failures = Vec::new();
        for (i, slot) in slots.iter_mut().enumerate() {
            if let crate::pool::JobOutcome::Panicked(_) = slot {
                match catch_unwind(AssertUnwindSafe(|| solve_one(i))) {
                    Ok(result) => *slot = crate::pool::JobOutcome::Done(result),
                    Err(payload) => failures.push(RuntimeError::WorkerFailed {
                        round: ctx.round,
                        k_index: i,
                        message: crate::pool::panic_message(payload),
                    }),
                }
            }
        }
        let results = slots.into_iter().map(|slot| match slot {
            crate::pool::JobOutcome::Done(result) => Some(result),
            crate::pool::JobOutcome::Skipped => Some(KResult::Interrupted),
            // Retried above: a surviving Panicked slot is a recorded
            // failure, not a candidate.
            crate::pool::JobOutcome::Panicked(_) => None,
        });
        SweepOutcome::reduce(results, failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use rejection::AugmentedGraphBuilder;

    /// 5 legit users in a ring; 3 fakes in a triangle; 2 attack edges;
    /// heavy rejections toward the fakes.
    fn scenario() -> AugmentedGraph {
        let mut b = AugmentedGraphBuilder::new(8);
        for i in 0..5u32 {
            b.add_friendship(NodeId(i), NodeId((i + 1) % 5));
        }
        b.add_friendship(NodeId(5), NodeId(6));
        b.add_friendship(NodeId(6), NodeId(7));
        b.add_friendship(NodeId(5), NodeId(7));
        b.add_friendship(NodeId(0), NodeId(5)); // attack edges
        b.add_friendship(NodeId(1), NodeId(6));
        for (r, s) in [(0, 6), (1, 5), (2, 5), (2, 7), (3, 6), (3, 7), (4, 5), (4, 7)] {
            b.add_rejection(NodeId(r), NodeId(s));
        }
        b.build()
    }

    #[test]
    fn finds_the_fake_triangle() {
        let g = scenario();
        let cut = MaarSolver::new(RejectoConfig::default()).solve(&g, &[], &[]).expect("scenario admits a cut");
        assert_eq!(cut.suspects(), vec![NodeId(5), NodeId(6), NodeId(7)]);
        // 2 attack friendships, 8 rejections → AC = 2/10.
        assert!((cut.acceptance_rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn all_legit_initialization_agrees() {
        let g = scenario();
        let config = RejectoConfig {
            initial_placement: InitialPlacement::AllLegit,
            ..RejectoConfig::default()
        };
        let cut = MaarSolver::new(config).solve(&g, &[], &[]).expect("scenario admits a cut");
        assert_eq!(cut.suspects(), vec![NodeId(5), NodeId(6), NodeId(7)]);
    }

    #[test]
    fn no_rejections_means_no_cut() {
        let mut b = AugmentedGraphBuilder::new(4);
        b.add_friendship(NodeId(0), NodeId(1));
        b.add_friendship(NodeId(2), NodeId(3));
        let g = b.build();
        assert!(MaarSolver::new(RejectoConfig::default()).solve(&g, &[], &[]).is_none());
    }

    #[test]
    fn legit_seed_pin_overrides_warm_start() {
        let g = scenario();
        // Deliberately bad warm start marks node 0 suspect via seeds:
        // a legit seed on node 0 must keep it out of any detected group.
        let cut = MaarSolver::new(RejectoConfig::default())
            .solve(&g, &[NodeId(0)], &[NodeId(5)])
            .expect("scenario admits a cut");
        assert!(!cut.suspects().contains(&NodeId(0)));
        assert!(cut.suspects().contains(&NodeId(5)));
    }

    #[test]
    fn tiny_graph_cap_clamps_to_one() {
        // 3 legit users, 1 obvious spammer, rejected by everyone. With
        // max_suspect_fraction = 0.2 the unclamped cap would floor to 0
        // (0.2 · 4 = 0.8) and every candidate cut would be discarded.
        let mut b = AugmentedGraphBuilder::new(4);
        b.add_friendship(NodeId(0), NodeId(1));
        b.add_friendship(NodeId(1), NodeId(2));
        b.add_friendship(NodeId(0), NodeId(2));
        for r in 0..3u32 {
            b.add_rejection(NodeId(r), NodeId(3));
        }
        let g = b.build();
        let config = RejectoConfig { max_suspect_fraction: 0.2, ..RejectoConfig::default() };
        let cut = MaarSolver::new(config)
            .solve(&g, &[], &[])
            .expect("the clamped cap must admit the single-spammer cut");
        assert_eq!(cut.suspects(), vec![NodeId(3)]);
    }

    #[test]
    fn thread_count_does_not_change_the_cut() {
        let g = scenario();
        let serial = MaarSolver::new(RejectoConfig { threads: 1, ..RejectoConfig::default() })
            .solve(&g, &[], &[])
            .expect("scenario admits a cut");
        for threads in [2, 4, 7] {
            let config = RejectoConfig { threads, ..RejectoConfig::default() };
            let cut = MaarSolver::new(config)
                .solve(&g, &[], &[])
                .expect("scenario admits a cut");
            assert_eq!(cut.suspects(), serial.suspects(), "threads={threads}");
            assert_eq!(cut.k, serial.k, "threads={threads}");
            assert_eq!(
                cut.acceptance_rate.to_bits(),
                serial.acceptance_rate.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn reports_the_winning_k() {
        let g = scenario();
        let cut = MaarSolver::new(RejectoConfig::default()).solve(&g, &[], &[]).expect("scenario admits a cut");
        // The winning cut's friends-to-rejections ratio is 2/8 = 0.25.
        // The winning k need not equal it, but must be a sweep member.
        let sweep = RejectoConfig::default().k_sweep();
        assert!(sweep.contains(&cut.k));
    }

    #[test]
    fn one_shot_injected_panic_is_retried_to_the_clean_answer() {
        let g = scenario();
        let clean = MaarSolver::new(RejectoConfig::default())
            .solve(&g, &[], &[])
            .expect("scenario admits a cut");
        for threads in [1, 4] {
            let plan = FaultPlan::parse("worker_panic@k=3").expect("spec is well-formed");
            let config = RejectoConfig { threads, faults: plan, ..RejectoConfig::default() };
            let solver = MaarSolver::new(config);
            let ctx = RunContext::armed(solver.config(), None);
            let Ok(out) = solver.solve_round(&Residual::Input(&g), &[], &[], &ctx);
            assert!(out.failures.is_empty(), "threads={threads}: retry must clear the failure");
            assert!(!out.interrupted);
            let cut = out.cut.expect("retried sweep still finds the cut");
            assert_eq!(cut.suspects(), clean.suspects(), "threads={threads}");
            assert_eq!(cut.acceptance_rate.to_bits(), clean.acceptance_rate.to_bits());
        }
    }

    #[test]
    fn persistent_injected_panic_degrades_deterministically() {
        let g = scenario();
        let mut reference: Option<(Vec<NodeId>, Vec<usize>)> = None;
        for threads in [1, 4] {
            let plan = FaultPlan::parse("worker_panic@k=3:always").expect("spec is well-formed");
            let config = RejectoConfig { threads, faults: plan, ..RejectoConfig::default() };
            let solver = MaarSolver::new(config);
            let mut ctx = RunContext::armed(solver.config(), None);
            ctx.round = 1;
            let Ok(out) = solver.solve_round(&Residual::Input(&g), &[], &[], &ctx);
            assert!(!out.interrupted, "a failed slot is a skip, not an interruption");
            assert_eq!(out.failures.len(), 1, "threads={threads}");
            match &out.failures[0] {
                RuntimeError::WorkerFailed { round, k_index, message } => {
                    assert_eq!(*round, 1);
                    assert_eq!(*k_index, 3);
                    assert!(message.contains("injected worker panic"));
                }
                other => panic!("threads={threads}: unexpected failure {other:?}"),
            }
            assert!(
                !out.completed_k_indices.contains(&3),
                "failed index must not count as completed"
            );
            let suspects = out.cut.as_ref().map(MaarCut::suspects).unwrap_or_default();
            match &reference {
                None => reference = Some((suspects, out.completed_k_indices.clone())),
                Some((ref_suspects, ref_completed)) => {
                    assert_eq!(&suspects, ref_suspects, "threads={threads}");
                    assert_eq!(&out.completed_k_indices, ref_completed, "threads={threads}");
                }
            }
        }
    }
}
