use crate::checkpoint::Checkpoint;
use crate::runtime::{RunContext, RuntimeError};
use crate::{RejectoConfig, SweepOutcome};
use kl::KParam;
use rejection::{AugmentedGraph, NodeId};
use std::io;

/// The pruning loop's convergence cap: a run that has not stopped after
/// this many rounds ends [`Completion::Complete`], unlike one stopped by
/// [`crate::RunBudget::max_rounds`], which ends `Partial`.
const MAX_ROUNDS: usize = 64;

/// Manually inspected ground-truth users the OSN provider supplies
/// (§III-B, §IV-F). Ids refer to the *original* graph handed to
/// [`IterativeDetector::detect`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Seeds {
    /// Known legitimate users, pinned to the legitimate region.
    pub legit: Vec<NodeId>,
    /// Known friend spammers, pinned to the suspect region.
    pub spammer: Vec<NodeId>,
}

/// When to stop the iterative cut-and-prune loop (§IV-E).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Termination {
    /// Stop once at least this many suspects have been detected — the
    /// paper's evaluation protocol, where the OSN has estimated the number
    /// of fakes by inspecting sampled accounts.
    SuspectBudget(usize),
    /// Stop as soon as the next group's aggregate acceptance rate exceeds
    /// the threshold (e.g., an estimate of the normal-user acceptance
    /// rate); the offending group is *not* included.
    AcceptanceThreshold(f64),
    /// Stop on whichever of the two conditions fires first.
    BudgetOrThreshold {
        /// Suspect budget.
        budget: usize,
        /// Acceptance-rate threshold.
        threshold: f64,
    },
}

/// What stopped a run before its natural termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InterruptReason {
    /// The wall-clock deadline ([`crate::RunBudget::deadline`] or an
    /// injected `deadline=<ms>ms` fault) expired.
    Deadline,
    /// The global KL pass budget ([`crate::RunBudget::max_kl_passes`]) was
    /// exhausted.
    PassBudget,
    /// The round budget ([`crate::RunBudget::max_rounds`]) was reached.
    RoundBudget,
    /// The suspect-fraction ceiling ([`crate::RunBudget::max_suspect_frac`])
    /// would have been exceeded by accepting the round's cut; the round
    /// was rolled back. Unlike the wall-clock reasons this trip is a pure
    /// function of input and configuration, so it is deterministic.
    ResourceBudget,
}

/// Whether a [`DetectionReport`] covers the full run or was cut short by a
/// budget (§ DESIGN.md "Failure model": a budgeted run *degrades* to the
/// groups found so far; it never aborts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum Completion {
    /// The run terminated on its own (termination rule, convergence, or
    /// the loop's convergence cap of 64 rounds).
    #[default]
    Complete,
    /// The run was interrupted at a safe boundary; `groups` holds every
    /// fully completed round's result, and the report's `rounds` counts
    /// exactly the rounds that ran to completion.
    Partial {
        /// Sweep indices of the *interrupted* round that converged before
        /// the interruption, ascending; empty when the run stopped exactly
        /// on a round boundary. Wall-clock interruptions land at
        /// scheduling-dependent points, so this is a progress diagnostic,
        /// not a deterministic artifact.
        completed_k_indices: Vec<usize>,
        /// What stopped the run.
        reason: InterruptReason,
    },
}

/// One spammer group cut off in one round of the iterative detection.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedGroup {
    /// Members, in original-graph ids, ascending.
    pub nodes: Vec<NodeId>,
    /// Aggregate acceptance rate of the group's requests at detection time
    /// (on the residual graph).
    pub acceptance_rate: f64,
    /// The sweep `k` that produced the winning cut, as the exact rational
    /// the sweep solved with ([`KParam`] keeps KL gains integral; rounding
    /// it to `f64` here would discard the only exact record of which
    /// linear objective won).
    pub k: KParam,
    /// 1-based round in which the group was found.
    pub round: usize,
}

/// Output of [`IterativeDetector::detect`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetectionReport {
    /// Detected groups in detection order. Because each round solves MAAR
    /// on the residual graph, acceptance rates are non-decreasing: the
    /// most blatant spammers surface first (§IV-E).
    pub groups: Vec<DetectedGroup>,
    /// Rounds executed, including a final round that found nothing and
    /// the round that stops at the suspect budget before sweeping: a
    /// [`Termination::SuspectBudget`]`(1)` run that finds a group in one
    /// sweep reports 2 rounds. Interrupted rounds do not count.
    pub rounds: usize,
    /// Whether the run covered everything it was asked to
    /// ([`Completion::Complete`]) or stopped at a budget boundary.
    pub completion: Completion,
    /// Degraded-operation diagnostics: sweep indices skipped after
    /// persistent worker panics, checkpoint writes that failed. The report
    /// remains well-formed; these record what was lost along the way.
    pub failures: Vec<RuntimeError>,
}

impl DetectionReport {
    /// Every detected suspect, in detection order (group by group).
    pub fn suspects(&self) -> Vec<NodeId> {
        self.groups.iter().flat_map(|g| g.nodes.iter().copied()).collect()
    }

    /// Total number of detected suspects.
    pub fn num_suspects(&self) -> usize {
        self.groups.iter().map(|g| g.nodes.len()).sum()
    }

    /// Whether the run was cut short by a budget.
    pub fn is_partial(&self) -> bool {
        !matches!(self.completion, Completion::Complete)
    }

    /// Exactly `n` suspects: whole groups in detection order, with the
    /// final group trimmed by descending individual rejection ratio (ties
    /// by id). This mirrors the evaluation protocol of declaring exactly
    /// as many suspects as the estimated fake population, which makes
    /// precision equal recall.
    ///
    /// Returns fewer than `n` if fewer were detected.
    pub fn suspects_top(&self, n: usize, g: &AugmentedGraph) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(n);
        for group in &self.groups {
            let remaining = n.saturating_sub(out.len());
            if remaining == 0 {
                break;
            }
            if group.nodes.len() <= remaining {
                out.extend(group.nodes.iter().copied());
            } else {
                let mut ranked = group.nodes.clone();
                ranked.sort_by(|&a, &b| {
                    let ra = g.rejection_ratio(a).unwrap_or(0.0);
                    let rb = g.rejection_ratio(b).unwrap_or(0.0);
                    rb.total_cmp(&ra).then(a.cmp(&b))
                });
                out.extend(ranked.into_iter().take(remaining));
            }
        }
        out
    }
}

/// A checkpoint consumer: called after every completed pruning round with
/// the state needed to resume. Errors are *recorded* on the report as
/// [`RuntimeError::CheckpointIo`] — a failed write degrades resumability,
/// never the detection itself.
pub type CheckpointSink<'a> = &'a mut dyn FnMut(&Checkpoint) -> io::Result<()>;

/// A per-round cut solver: the seam between the one pruning loop
/// ([`LoopState::run`]) and the runtime that finds each round's MAAR cut —
/// the in-process pool sweep ([`IterativeDetector`]) or the cluster sweep
/// in `dataflow`. Both run the same [`crate::SweepPlan`] and kernel.
pub trait CutSolver {
    /// What a failed round reports ([`std::convert::Infallible`] in process).
    type Error;

    /// The configuration the loop reads its caps, budgets and faults from.
    fn config(&self) -> &RejectoConfig;

    /// The MAAR cut of the residual graph `g` with the seeds (in `g`'s
    /// ids) pinned, under the budgets and the armed fault table of `ctx`.
    /// `g` is the loop's own graph, borrowed for the round: the caller's
    /// input in round 1 of a fresh run, the residual graph after that.
    fn solve_round(
        &self,
        g: &AugmentedGraph,
        legit: &[NodeId],
        spammer: &[NodeId],
        ctx: &RunContext,
    ) -> Result<SweepOutcome, Self::Error>;
}

/// Mid-run loop state: the report so far, the residual graph, and its
/// mapping back to original ids. Built fresh for a new run or rebuilt from
/// a [`Checkpoint`] for a resume.
#[derive(Debug, Clone)]
pub struct LoopState {
    report: DetectionReport,
    /// The residual graph, or `None` before the first prune of a fresh
    /// run, whose round 1 runs on the input [`LoopState::run`] is handed.
    current: Option<AugmentedGraph>,
    to_original: Vec<NodeId>,
}

impl LoopState {
    /// The state before round 1 of a run on `g`.
    pub(crate) fn fresh(g: &AugmentedGraph) -> LoopState {
        LoopState {
            report: DetectionReport::default(),
            current: None,
            to_original: g.nodes().collect(),
        }
    }

    /// The state after the round `resume` checkpointed, or the state
    /// before round 1 without one. A resume rebuilds the residual
    /// graph with one induction on the checkpoint's survivors, which equals
    /// the run's sequence of per-round inductions because
    /// `induced_subgraph` relabels survivors in ascending order.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::CheckpointMismatch`] (and friends) when the
    /// checkpoint does not describe `g`.
    pub fn start(
        g: &AugmentedGraph,
        resume: Option<&Checkpoint>,
    ) -> Result<LoopState, RuntimeError> {
        let Some(ckpt) = resume else { return Ok(LoopState::fresh(g)) };
        ckpt.validate_against(g)?;
        let mut keep = vec![false; g.num_nodes()];
        for &u in &ckpt.remaining {
            keep[usize::try_from(u).expect("checkpoint ids validated against num_nodes")] = true;
        }
        let (current, to_original) = g.induced_subgraph(&keep);
        Ok(LoopState { report: ckpt.report(), current: Some(current), to_original })
    }

    /// The pruning loop (§IV-E), from this state to termination, on the
    /// graph `g` the state was started from: each round takes `solver`'s
    /// MAAR cut of the residual graph, records its suspect region as a
    /// group, prunes it with its links and rejections, and hands `sink` a
    /// checkpoint. Budgets stop the loop only at round
    /// boundaries (an interrupted round is rolled back), so a resumed run
    /// is byte-identical to the uninterrupted one. Stops at the first
    /// round `solver` fails.
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range of `g`.
    pub fn run<S: CutSolver>(
        self,
        solver: &S,
        obs: Option<&rejecto_obs::Obs>,
        g: &AugmentedGraph,
        seeds: &Seeds,
        termination: Termination,
        mut sink: Option<CheckpointSink<'_>>,
    ) -> Result<DetectionReport, S::Error> {
        let LoopState { mut report, mut current, mut to_original } = self;
        let config = solver.config();
        let mut ctx = RunContext::armed(config, obs.cloned());

        let (budget, threshold) = match termination {
            Termination::SuspectBudget(b) => (Some(b), None),
            Termination::AcceptanceThreshold(t) => (None, Some(t)),
            Termination::BudgetOrThreshold { budget, threshold } => {
                (Some(budget), Some(threshold))
            }
        };

        let partial =
            |completed_k_indices, reason| Completion::Partial { completed_k_indices, reason };
        let mut completion = Completion::Complete;
        let mut failed = Ok(());
        let _detect_span = obs.map(|o| o.span("detect"));

        while report.rounds < MAX_ROUNDS {
            if config.budget.max_rounds.is_some_and(|limit| report.rounds >= limit) {
                completion = partial(Vec::new(), InterruptReason::RoundBudget);
                break;
            }
            if ctx.token.is_cancelled() {
                completion = partial(Vec::new(), ctx.interrupt_reason());
                break;
            }
            report.rounds += 1;
            if budget.is_some_and(|b| report.num_suspects() >= b) {
                break;
            }

            // Map seeds into residual-graph ids (pruned seeds drop out —
            // a detected spammer seed has done its job). `to_original` is
            // ascending: pruning relabels survivors in order.
            let map = |ids: &[NodeId]| -> Vec<NodeId> {
                ids.iter()
                    .filter_map(|s| to_original.binary_search(s).ok().map(NodeId::from_index))
                    .collect()
            };
            let legit = map(&seeds.legit);
            let spammer = map(&seeds.spammer);

            ctx.round = report.rounds;
            let _round_span = obs.map(|o| o.span("detect/round"));
            let residual = current.as_ref().unwrap_or(g);
            let outcome = match solver.solve_round(residual, &legit, &spammer, &ctx) {
                Ok(outcome) => outcome,
                Err(e) => {
                    failed = Err(e);
                    break;
                }
            };
            report.failures.extend(outcome.failures);
            if outcome.interrupted {
                // The round did not finish; it does not count, and the
                // sweep progress becomes the partial-report diagnostic.
                report.rounds -= 1;
                completion = partial(outcome.completed_k_indices, ctx.interrupt_reason());
                break;
            }
            // Resource budget: would accepting this round's cut condemn
            // more of the *original* graph than `max_suspect_frac` allows?
            // Checked before the round counts, so the rollback leaves no
            // trace in the report, and only for a cut the threshold would
            // accept (otherwise the run stops Complete). The trip is a pure
            // function of input and configuration, hence deterministic.
            let accepted =
                outcome.cut.as_ref().filter(|c| threshold.is_none_or(|t| c.acceptance_rate <= t));
            if let (Some(frac), Some(cut)) = (config.budget.max_suspect_frac, accepted) {
                let after = report.num_suspects() + cut.partition.suspect_count();
                let cap = frac * g.num_nodes() as f64; // xtask-allow: lossy-cast: n < 2^53 converts exactly
                if after as f64 > cap { // xtask-allow: lossy-cast: suspect count < 2^53 converts exactly
                    report.rounds -= 1;
                    if let Some(obs) = obs {
                        obs.incr("res/suspect_frac_trips", 1);
                    }
                    let reason = InterruptReason::ResourceBudget;
                    completion = partial(Vec::new(), reason);
                    break;
                }
            }
            // The round ran its sweep to completion — interrupted rounds
            // (deadline, pass budget) are scheduling-dependent and must
            // not reach the deterministic counters.
            if let Some(obs) = obs {
                obs.incr("detect/rounds", 1);
            }
            let Some(cut) = outcome.cut else {
                break;
            };
            if threshold.is_some_and(|t| cut.acceptance_rate > t) {
                break;
            }

            let local = cut.suspects();
            let mut nodes: Vec<NodeId> =
                local.iter().map(|u| to_original[u.index()]).collect();
            nodes.sort_unstable();
            report.groups.push(DetectedGroup {
                nodes,
                acceptance_rate: cut.acceptance_rate,
                k: cut.k,
                round: report.rounds,
            });
            #[cfg(feature = "debug-invariants")]
            crate::invariants::assert_report_bookkeeping(g, &report);

            // Prune the group with its links and rejections.
            let mut keep = vec![true; residual.num_nodes()];
            for u in &local {
                keep[u.index()] = false;
            }
            let (next, original_of_next) = residual.induced_subgraph(&keep);
            to_original = original_of_next.iter().map(|u| to_original[u.index()]).collect();
            current = Some(next);

            if let Some(write) = sink.as_mut() {
                let ckpt = Checkpoint::capture(g, &report);
                if let Some(obs) = obs {
                    let bytes = u64::try_from(ckpt.to_json().len())
                        .expect("checkpoint size fits in u64");
                    obs.record("detect/checkpoint_bytes", bytes);
                }
                let result = if ctx.faults.checkpoint_io_error(report.rounds) {
                    Err(io::Error::other("injected checkpoint I/O error"))
                } else {
                    write(&ckpt)
                };
                if let Err(e) = result {
                    report.failures.push(RuntimeError::CheckpointIo {
                        round: report.rounds,
                        message: e.to_string(),
                    });
                }
            }
        }
        // A failed run records its polls too.
        if let Some(obs) = obs {
            obs.volatile_incr("cancel/polls", ctx.token.polls());
        }
        failed?;
        report.completion = completion;
        Ok(report)
    }
}

/// The iterative MAAR-cut detector (§IV-E): repeatedly solve MAAR on the
/// residual graph, record the suspect region as a spammer group, prune it
/// with its links and rejections, and continue.
///
/// Every entry point panics if a seed id is out of range of the graph.
#[derive(Debug, Clone)]
pub struct IterativeDetector {
    pub(crate) config: RejectoConfig,
    obs: Option<rejecto_obs::Obs>,
}

impl IterativeDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: RejectoConfig) -> Self {
        IterativeDetector { config, obs: None }
    }

    /// Attaches a metrics registry shared by the pruning loop, the sweep
    /// workers, and the KL passes underneath. Spans
    /// (`detect > round > sweep > k_index > kl_pass`), the `detect/rounds`
    /// counter, and the `detect/checkpoint_bytes` histogram are
    /// deterministic; the token's cancellation polls are absorbed into the
    /// volatile `cancel/polls` counter when the run returns.
    pub fn set_obs(&mut self, obs: rejecto_obs::Obs) {
        self.obs = Some(obs);
    }

    /// Runs the full pipeline on `g` and returns the detected groups.
    pub fn detect(
        &self,
        g: &AugmentedGraph,
        seeds: &Seeds,
        termination: Termination,
    ) -> DetectionReport {
        let state = LoopState::fresh(g);
        let Ok(report) = state.run(self, self.obs.as_ref(), g, seeds, termination, None);
        report
    }

    /// [`IterativeDetector::detect`], calling `sink` with a [`Checkpoint`]
    /// after every completed pruning round.
    pub fn detect_with_checkpoints(
        &self,
        g: &AugmentedGraph,
        seeds: &Seeds,
        termination: Termination,
        sink: CheckpointSink<'_>,
    ) -> DetectionReport {
        let (state, sink) = (LoopState::fresh(g), Some(sink));
        let Ok(report) = state.run(self, self.obs.as_ref(), g, seeds, termination, sink);
        report
    }

    /// A fresh run, or with `resume` the continuation of a checkpointed
    /// one, calling `sink` (if any) with a [`Checkpoint`] after every
    /// completed pruning round. A resumed run continues exactly as if the
    /// original had never stopped: given the same graph, seeds,
    /// termination, and a deterministic configuration, its report is
    /// byte-identical to the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::CheckpointMismatch`] (and friends) when the
    /// checkpoint does not describe `g`.
    pub fn run(
        &self,
        g: &AugmentedGraph,
        seeds: &Seeds,
        termination: Termination,
        resume: Option<&Checkpoint>,
        sink: Option<CheckpointSink<'_>>,
    ) -> Result<DetectionReport, RuntimeError> {
        let state = LoopState::start(g, resume)?;
        let Ok(report) = state.run(self, self.obs.as_ref(), g, seeds, termination, sink);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunBudget;
    use rejection::AugmentedGraphBuilder;

    /// Legit clique (0–3); fake group A (4–5) heavily rejected by legit;
    /// fake group B (6–7) whitewashed: B rejected A's requests and receives
    /// only mild legit rejections.
    fn self_rejection_scenario() -> AugmentedGraph {
        let mut b = AugmentedGraphBuilder::new(8);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_friendship(NodeId(u), NodeId(v));
            }
        }
        b.add_friendship(NodeId(4), NodeId(5));
        b.add_friendship(NodeId(6), NodeId(7));
        b.add_friendship(NodeId(0), NodeId(4)); // attack edges
        b.add_friendship(NodeId(1), NodeId(6));
        // Legit reject A hard:
        for (r, s) in [(0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)] {
            b.add_rejection(NodeId(r), NodeId(s));
        }
        // Self-rejection: B rejects A's requests en masse (crafted cut).
        for (r, s) in [(6, 4), (6, 5), (7, 4), (7, 5)] {
            b.add_rejection(NodeId(r), NodeId(s));
        }
        // Legit reject B mildly:
        b.add_rejection(NodeId(2), NodeId(6));
        b.add_rejection(NodeId(3), NodeId(7));
        b.add_rejection(NodeId(0), NodeId(7));
        b.build()
    }

    #[test]
    fn iterative_pruning_defeats_self_rejection() {
        let g = self_rejection_scenario();
        let det = IterativeDetector::new(RejectoConfig::default());
        let report = det.detect(&g, &Seeds::default(), Termination::SuspectBudget(4));
        let mut suspects = report.suspects();
        suspects.sort_unstable();
        assert_eq!(suspects, vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)]);
        // The rejected group A must fall before the whitewashed group B.
        assert!(report.groups.len() >= 2, "expected multiple rounds");
        assert!(report.groups[0].nodes.contains(&NodeId(4)));
        assert!(report.groups[0].nodes.contains(&NodeId(5)));
        assert_eq!(report.completion, Completion::Complete);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn acceptance_rates_are_non_decreasing_across_rounds() {
        let g = self_rejection_scenario();
        let det = IterativeDetector::new(RejectoConfig::default());
        let report = det.detect(&g, &Seeds::default(), Termination::SuspectBudget(8));
        for w in report.groups.windows(2) {
            assert!(
                w[0].acceptance_rate <= w[1].acceptance_rate + 1e-9,
                "rates regressed: {} then {}",
                w[0].acceptance_rate,
                w[1].acceptance_rate
            );
        }
    }

    #[test]
    fn budget_stops_detection() {
        let g = self_rejection_scenario();
        let det = IterativeDetector::new(RejectoConfig::default());
        let report = det.detect(&g, &Seeds::default(), Termination::SuspectBudget(2));
        assert!(report.num_suspects() >= 2);
        assert!(report.groups.len() <= 2);
    }

    #[test]
    fn threshold_excludes_high_acceptance_groups() {
        let g = self_rejection_scenario();
        let det = IterativeDetector::new(RejectoConfig::default());
        // Group A's rate is 1/8; a threshold below B's rate keeps only A.
        let report =
            det.detect(&g, &Seeds::default(), Termination::AcceptanceThreshold(0.2));
        for group in &report.groups {
            assert!(group.acceptance_rate <= 0.2);
        }
        assert!(!report.suspects().is_empty());
    }

    #[test]
    fn suspects_top_trims_last_group_by_rejection_ratio() {
        let g = self_rejection_scenario();
        let det = IterativeDetector::new(RejectoConfig::default());
        let report = det.detect(&g, &Seeds::default(), Termination::SuspectBudget(8));
        let top3 = report.suspects_top(3, &g);
        assert_eq!(top3.len(), 3);
        // All of group A (4, 5) must be present before any trimming of B.
        assert!(top3.contains(&NodeId(4)));
        assert!(top3.contains(&NodeId(5)));
    }

    #[test]
    fn clean_graph_detects_nothing() {
        let mut b = AugmentedGraphBuilder::new(4);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_friendship(NodeId(u), NodeId(v));
            }
        }
        let g = b.build();
        let det = IterativeDetector::new(RejectoConfig::default());
        let report = det.detect(&g, &Seeds::default(), Termination::SuspectBudget(2));
        assert_eq!(report.num_suspects(), 0);
        assert_eq!(report.completion, Completion::Complete);
    }

    #[test]
    fn spammer_seed_guides_detection() {
        let g = self_rejection_scenario();
        let det = IterativeDetector::new(RejectoConfig::default());
        let seeds = Seeds { legit: vec![NodeId(0), NodeId(1)], spammer: vec![NodeId(6)] };
        let report = det.detect(&g, &seeds, Termination::SuspectBudget(4));
        let suspects = report.suspects();
        assert!(suspects.contains(&NodeId(6)));
        assert!(!suspects.contains(&NodeId(0)));
        assert!(!suspects.contains(&NodeId(1)));
    }

    #[test]
    fn round_budget_yields_a_deterministic_partial_report() {
        let g = self_rejection_scenario();
        let full = IterativeDetector::new(RejectoConfig::default()).detect(
            &g,
            &Seeds::default(),
            Termination::SuspectBudget(8),
        );
        assert!(full.groups.len() >= 2, "scenario must take multiple rounds");

        let config = RejectoConfig {
            budget: RunBudget { max_rounds: Some(1), ..RunBudget::unlimited() },
            ..RejectoConfig::default()
        };
        let partial = IterativeDetector::new(config).detect(
            &g,
            &Seeds::default(),
            Termination::SuspectBudget(8),
        );
        assert_eq!(partial.rounds, 1);
        match &partial.completion {
            Completion::Partial { completed_k_indices, reason } => {
                assert!(completed_k_indices.is_empty(), "round boundary carries no sweep progress");
                assert_eq!(*reason, InterruptReason::RoundBudget);
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        // The one completed round matches the uninterrupted run's round 1.
        assert_eq!(partial.groups, full.groups[..1]);
    }

    #[test]
    fn checkpoint_resume_equals_uninterrupted_run() {
        let g = self_rejection_scenario();
        let seeds = Seeds::default();
        let termination = Termination::SuspectBudget(8);
        let full = IterativeDetector::new(RejectoConfig::default()).detect(&g, &seeds, termination);
        assert!(full.groups.len() >= 2, "scenario must take multiple rounds");

        let budgeted = RejectoConfig {
            budget: RunBudget { max_rounds: Some(1), ..RunBudget::unlimited() },
            ..RejectoConfig::default()
        };
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let partial = IterativeDetector::new(budgeted).detect_with_checkpoints(
            &g,
            &seeds,
            termination,
            &mut |c| {
                checkpoints.push(c.clone());
                Ok(())
            },
        );
        assert!(partial.is_partial());
        let last = checkpoints.last().expect("round 1 must checkpoint");

        // JSON round trip, then resume with an unbudgeted detector.
        let restored =
            Checkpoint::from_json(&last.to_json()).expect("checkpoint round-trips");
        let resumed = IterativeDetector::new(RejectoConfig::default())
            .run(&g, &seeds, termination, Some(&restored), None)
            .expect("checkpoint matches the graph");
        assert_eq!(resumed, full, "resume must reproduce the uninterrupted run");
    }

    #[test]
    fn immediate_deadline_yields_a_well_formed_partial_report() {
        let g = self_rejection_scenario();
        let config = RejectoConfig {
            budget: RunBudget {
                deadline: Some(std::time::Duration::ZERO),
                ..RunBudget::unlimited()
            },
            ..RejectoConfig::default()
        };
        let report = IterativeDetector::new(config).detect(
            &g,
            &Seeds::default(),
            Termination::SuspectBudget(8),
        );
        assert!(report.is_partial());
        match &report.completion {
            Completion::Partial { reason, .. } => {
                assert_eq!(*reason, InterruptReason::Deadline);
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        assert_eq!(report.rounds, 0, "a zero deadline stops before round 1");
        assert!(report.groups.is_empty());
    }

    #[test]
    fn suspect_frac_budget_rolls_back_the_offending_round() {
        let g = self_rejection_scenario();
        let full = IterativeDetector::new(RejectoConfig::default()).detect(
            &g,
            &Seeds::default(),
            Termination::SuspectBudget(8),
        );
        assert!(full.groups.len() >= 2, "scenario must take multiple rounds");

        // Cap at 30% of 8 nodes = 2.4: round 1 (2 suspects) is admitted,
        // round 2 would push the total to 4 and is rolled back.
        let config = RejectoConfig {
            budget: RunBudget { max_suspect_frac: Some(0.3), ..RunBudget::unlimited() },
            ..RejectoConfig::default()
        };
        let capped = IterativeDetector::new(config).detect(
            &g,
            &Seeds::default(),
            Termination::SuspectBudget(8),
        );
        assert_eq!(capped.groups, full.groups[..1], "admitted rounds must match the full run");
        assert_eq!(capped.rounds, 1, "the tripped round is rolled back");
        match &capped.completion {
            Completion::Partial { completed_k_indices, reason } => {
                assert!(completed_k_indices.is_empty());
                assert_eq!(*reason, InterruptReason::ResourceBudget);
            }
            other => panic!("expected Partial, got {other:?}"),
        }

        // A budget nothing fits under rolls back round 1 itself.
        let config = RejectoConfig {
            budget: RunBudget { max_suspect_frac: Some(0.1), ..RunBudget::unlimited() },
            ..RejectoConfig::default()
        };
        let empty = IterativeDetector::new(config).detect(
            &g,
            &Seeds::default(),
            Termination::SuspectBudget(8),
        );
        assert!(empty.groups.is_empty());
        assert_eq!(empty.rounds, 0);
        assert!(matches!(
            empty.completion,
            Completion::Partial { reason: InterruptReason::ResourceBudget, .. }
        ));
    }

    #[test]
    fn suspect_frac_budget_is_deterministic_across_threads() {
        let g = self_rejection_scenario();
        let reports: Vec<DetectionReport> = [1usize, 4]
            .into_iter()
            .map(|threads| {
                let config = RejectoConfig {
                    threads,
                    budget: RunBudget { max_suspect_frac: Some(0.3), ..RunBudget::unlimited() },
                    ..RejectoConfig::default()
                };
                IterativeDetector::new(config).detect(
                    &g,
                    &Seeds::default(),
                    Termination::SuspectBudget(8),
                )
            })
            .collect();
        assert_eq!(reports[0], reports[1], "resource trips must not depend on thread count");
    }

    #[test]
    fn tiny_pass_budget_interrupts_with_pass_budget_reason() {
        let g = self_rejection_scenario();
        let config = RejectoConfig {
            budget: RunBudget { max_kl_passes: Some(1), ..RunBudget::unlimited() },
            ..RejectoConfig::default()
        };
        let report = IterativeDetector::new(config).detect(
            &g,
            &Seeds::default(),
            Termination::SuspectBudget(8),
        );
        assert!(report.is_partial(), "one global pass cannot finish a sweep");
        match &report.completion {
            Completion::Partial { reason, .. } => {
                assert_eq!(*reason, InterruptReason::PassBudget);
            }
            other => panic!("expected Partial, got {other:?}"),
        }
    }
}
