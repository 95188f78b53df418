//! Deterministic fault-injection tests for the detector runtime.
//!
//! Every injected fault must yield one of exactly two outcomes — a clean
//! retry-equal report or a structured degraded/partial report — and never
//! a process abort. The injection specs here mirror the CI fault matrix
//! (`worker_panic@k=3`, `worker_panic@k=3:always`, `io_error@round=1`,
//! `deadline=<ms>`), and every scenario runs at `threads = 1` (the exact
//! serial path) and `threads = 4` (a real worker pool) with identical
//! results demanded of both.

use rejecto_core::{
    Checkpoint, Completion, DetectionReport, FaultPlan, InterruptReason, IterativeDetector,
    RejectoConfig, RuntimeError, Seeds, Termination,
};
use simulator::{Scenario, ScenarioConfig, SimOutput};
use socialgraph::surrogates::Surrogate;

const FAKES: usize = 60;

fn simulated_scenario(seed: u64) -> SimOutput {
    let host = Surrogate::Facebook.generate_scaled(seed, 0.02);
    let config = ScenarioConfig { num_fakes: FAKES, ..ScenarioConfig::default() };
    Scenario::new(config).run(&host, seed)
}

/// A detector at `threads` carrying the fault plan `spec`.
fn faulted(threads: usize, spec: &str) -> IterativeDetector {
    let mut det = IterativeDetector::new(RejectoConfig { threads, ..RejectoConfig::default() });
    det.set_faults(FaultPlan::parse(spec).expect("fault spec in this file parses"));
    det
}

fn detect(sim: &SimOutput, config: RejectoConfig) -> DetectionReport {
    IterativeDetector::new(config).detect(
        &sim.graph,
        &Seeds::default(),
        Termination::SuspectBudget(FAKES),
    )
}

fn detect_faulted(sim: &SimOutput, threads: usize, spec: &str) -> DetectionReport {
    faulted(threads, spec).detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
}

#[test]
fn one_shot_worker_panic_is_retried_to_the_clean_report() {
    let sim = simulated_scenario(7);
    for threads in [1, 4] {
        let clean = detect(&sim, RejectoConfig { threads, ..RejectoConfig::default() });
        assert!(!clean.groups.is_empty(), "fixture must detect something");
        let faulted = detect_faulted(&sim, threads, "worker_panic@k=3");
        assert_eq!(
            clean, faulted,
            "threads={threads}: a retried one-shot panic must leave no trace"
        );
        assert!(faulted.failures.is_empty(), "threads={threads}");
        assert_eq!(faulted.completion, Completion::Complete, "threads={threads}");
    }
}

#[test]
fn persistent_worker_panic_degrades_identically_across_thread_counts() {
    let sim = simulated_scenario(7);
    let serial = detect_faulted(&sim, 1, "worker_panic@k=3:always");
    assert!(
        serial.failures.iter().any(|f| matches!(
            f,
            RuntimeError::WorkerFailed { k_index: 3, .. }
        )),
        "persistent panic must surface as WorkerFailed{{k_index: 3}}: {:?}",
        serial.failures
    );
    // The failed sweep index is skipped deterministically, so the run
    // still completes and the degradation is identical in parallel.
    assert_eq!(serial.completion, Completion::Complete);
    let parallel = detect_faulted(&sim, 4, "worker_panic@k=3:always");
    assert_eq!(serial, parallel, "degraded reports differ across thread counts");
}

#[test]
fn injected_checkpoint_io_error_is_recorded_and_the_run_continues() {
    let sim = simulated_scenario(7);
    for threads in [1, 4] {
        let clean = detect(&sim, RejectoConfig { threads, ..RejectoConfig::default() });

        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut sink = |ckpt: &Checkpoint| {
            checkpoints.push(ckpt.clone());
            Ok(())
        };
        let faulted = faulted(threads, "io_error@round=1").detect_with_checkpoints(
            &sim.graph,
            &Seeds::default(),
            Termination::SuspectBudget(FAKES),
            &mut sink,
        );

        assert_eq!(
            faulted.groups, clean.groups,
            "threads={threads}: a checkpoint write failure must not change detection"
        );
        assert_eq!(faulted.completion, Completion::Complete, "threads={threads}");
        assert!(
            faulted.failures.iter().any(|f| matches!(
                f,
                RuntimeError::CheckpointIo { round: 1, .. }
            )),
            "threads={threads}: expected CheckpointIo{{round: 1}}, got {:?}",
            faulted.failures
        );
        // Round 1's checkpoint was swallowed by the injected error; later
        // rounds (if any) still reach the sink.
        assert!(
            checkpoints.iter().all(|c| c.rounds != 1),
            "threads={threads}: the failed round-1 checkpoint leaked into the sink"
        );
    }
}

/// A detector arms its plan afresh for every run: a one-shot fault spent
/// by one run fires again in the next. A table armed once per detector
/// would leave the second run clean.
#[test]
fn each_run_of_a_detector_arms_its_plan_afresh() {
    let sim = simulated_scenario(7);
    for threads in [1, 4] {
        let det = faulted(threads, "io_error@round=1");
        for run in 1..=2 {
            let mut sink = |_: &Checkpoint| Ok(());
            let report = det.detect_with_checkpoints(
                &sim.graph,
                &Seeds::default(),
                Termination::SuspectBudget(FAKES),
                &mut sink,
            );
            assert!(
                matches!(report.failures[..], [RuntimeError::CheckpointIo { round: 1, .. }]),
                "threads={threads}, run {run}: expected one CheckpointIo{{round: 1}}, got {:?}",
                report.failures
            );
        }
    }
}

#[test]
fn injected_zero_deadline_yields_an_empty_partial_report() {
    let sim = simulated_scenario(7);
    for threads in [1, 4] {
        let report = detect_faulted(&sim, threads, "deadline=0ms");
        match &report.completion {
            Completion::Partial { reason, .. } => {
                assert_eq!(*reason, InterruptReason::Deadline, "threads={threads}");
            }
            other => panic!("threads={threads}: expected Partial, got {other:?}"),
        }
        assert_eq!(report.rounds, 0, "threads={threads}");
        assert!(report.groups.is_empty(), "threads={threads}");
    }
}

/// A realistic (non-zero) injected deadline is scheduling-dependent, so
/// only well-formedness is asserted: the run either completes or reports a
/// deadline partial whose groups are all fully completed rounds.
#[test]
fn injected_short_deadline_never_aborts_and_stays_well_formed() {
    let sim = simulated_scenario(7);
    for threads in [1, 4] {
        let report = detect_faulted(&sim, threads, "deadline=50ms");
        match &report.completion {
            Completion::Complete => {}
            Completion::Partial { reason, .. } => {
                assert_eq!(*reason, InterruptReason::Deadline, "threads={threads}");
            }
            other => panic!("threads={threads}: unexpected completion {other:?}"),
        }
        // Groups are disjoint and each carries a completed round number.
        let mut seen = vec![false; sim.graph.num_nodes()];
        for group in &report.groups {
            assert!(group.round >= 1 && group.round <= report.rounds, "threads={threads}");
            for u in &group.nodes {
                assert!(!seen[u.index()], "threads={threads}: node {u} in two groups");
                seen[u.index()] = true;
            }
        }
    }
}

#[test]
fn combined_fault_plan_still_produces_the_clean_groups() {
    // A one-shot panic (retried away) plus a round-1 checkpoint failure
    // (recorded, not fatal): detection output must match the clean run,
    // with exactly the checkpoint failure on record.
    let sim = simulated_scenario(7);
    for threads in [1, 4] {
        let clean = detect(&sim, RejectoConfig { threads, ..RejectoConfig::default() });
        let mut sink = |_: &Checkpoint| Ok(());
        let faulted = faulted(threads, "worker_panic@k=3,io_error@round=1")
            .detect_with_checkpoints(
                &sim.graph,
                &Seeds::default(),
                Termination::SuspectBudget(FAKES),
                &mut sink,
            );
        assert_eq!(faulted.groups, clean.groups, "threads={threads}");
        assert_eq!(faulted.failures.len(), 1, "threads={threads}: {:?}", faulted.failures);
        assert!(matches!(
            &faulted.failures[0],
            RuntimeError::CheckpointIo { round: 1, .. }
        ));
    }
}

#[test]
fn kill_and_resume_under_a_round_budget_matches_the_uninterrupted_run() {
    let sim = simulated_scenario(7);
    for threads in [1, 4] {
        let full = detect(&sim, RejectoConfig { threads, ..RejectoConfig::default() });

        let mut config = RejectoConfig { threads, ..RejectoConfig::default() };
        config.budget.max_rounds = Some(1);
        let halted = detect(&sim, config);
        assert!(halted.is_partial(), "threads={threads}: fixture needs >= 2 rounds");

        let json = Checkpoint::capture(&sim.graph, &halted).to_json();
        let restored = Checkpoint::from_json(&json).expect("checkpoint JSON round-trips");
        let resumed = IterativeDetector::new(RejectoConfig { threads, ..RejectoConfig::default() })
            .run(
                &sim.graph,
                &Seeds::default(),
                Termination::SuspectBudget(FAKES),
                Some(&restored),
                None,
            )
            .expect("checkpoint validates against its own graph");
        assert_eq!(resumed, full, "threads={threads}: resumed run diverged");
    }
}
