//! The in-process determinism harness behind `cargo xtask check
//! --determinism`.
//!
//! Byte-for-byte reproducibility from a fixed seed is a standing contract
//! of this repo (every figure in EXPERIMENTS.md depends on it). The
//! harness runs the full simulate → detect pipeline **twice from the same
//! seed within one process** and diffs every artifact byte-for-byte:
//!
//! * the serialized rejection-augmented graph (`.rjg` bytes), and
//! * a canonical rendering of the detection report, with acceptance rates
//!   and `k` values compared by `f64::to_bits` so `-0.0` vs `0.0` or NaN
//!   payload differences cannot hide behind display rounding.
//!
//! Running in-process (rather than shelling out to the CLI twice) is what
//! makes this a *lint-grade* check: it catches nondeterminism introduced
//! by allocator-address-keyed containers, leftover `HashMap` iteration, or
//! unseeded randomness even when the OS would happily hand both CLI runs
//! the same ASLR layout.

use dataflow::{ClusterConfig, DistributedDetector};
use rejecto_core::{
    Checkpoint, CheckpointStore, Completion, DetectionReport, FaultPlan, Faults,
    IterativeDetector, RejectoConfig, Seeds, Termination,
};
use rejection::io::write_augmented;
use simulator::{Scenario, ScenarioConfig, SelfRejectionConfig, SimOutput};
use socialgraph::surrogates::Surrogate;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Scaled-down copy of the CLI's default simulate flow: Facebook surrogate
/// at 2% scale, 60 fakes — large enough to exercise every pipeline stage
/// (multiple pruning rounds included), small enough for a second-scale run.
const SCALE: f64 = 0.02;
const FAKES: usize = 60;
const SEED: u64 = 7;

fn simulate() -> SimOutput {
    let host = Surrogate::Facebook.generate_scaled(SEED, SCALE);
    let config = ScenarioConfig { num_fakes: FAKES, ..ScenarioConfig::default() };
    Scenario::new(config).run(&host, SEED)
}

/// The self-rejection attack variant (Fig 14 shape): whitewashed fakes
/// spam legitimate users while sacrificed fakes absorb internal
/// rejections. Detection needs several productive pruning rounds to peel
/// the layers apart, which gives the durable store a real generation
/// chain to mangle and fall back through — the plain scenario collapses
/// in one productive round and would leave the fallback path unexercised.
fn simulate_self_rejection() -> SimOutput {
    let host = Surrogate::Facebook.generate_scaled(SEED, SCALE);
    let config = ScenarioConfig {
        num_fakes: FAKES,
        self_rejection: Some(SelfRejectionConfig {
            whitewashed: 30,
            requests_per_sender: 20,
            rejection_rate: 0.95,
        }),
        ..ScenarioConfig::default()
    };
    Scenario::new(config).run(&host, SEED)
}

fn graph_bytes(sim: &SimOutput) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    write_augmented(&sim.graph, &mut bytes)
        .map_err(|e| format!("serializing augmented graph: {e:?}"))?;
    Ok(bytes)
}

/// Canonical, bit-exact rendering of a detection report. The winning `k`
/// is an exact rational, rendered as `num/den`; acceptance rates are
/// compared by `f64::to_bits`.
pub(crate) fn render_report(report: &DetectionReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "rounds={}", report.rounds);
    for g in &report.groups {
        let _ = writeln!(
            out,
            "round={} k={}/{} ac_bits={:016x} nodes={:?}",
            g.round,
            g.k.num(),
            g.k.den(),
            g.acceptance_rate.to_bits(),
            g.nodes
        );
    }
    match &report.completion {
        Completion::Complete => {
            let _ = writeln!(out, "completion=complete");
        }
        Completion::Partial { completed_rounds, completed_k_indices, reason } => {
            let _ = writeln!(
                out,
                "completion=partial reason={reason:?} completed_rounds={completed_rounds} \
                 k_indices={completed_k_indices:?}"
            );
        }
        other => {
            let _ = writeln!(out, "completion={other:?}");
        }
    }
    for f in &report.failures {
        let _ = writeln!(out, "failure={f}");
    }
    out
}

/// The thread counts the parallel-sweep check exercises: the exact serial
/// code path vs a real worker pool.
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn detect(sim: &SimOutput) -> DetectionReport {
    let det = IterativeDetector::new(RejectoConfig::default());
    det.detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
}

fn detect_with_threads(sim: &SimOutput, threads: usize) -> DetectionReport {
    let det = IterativeDetector::new(RejectoConfig { threads, ..RejectoConfig::default() });
    det.detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
}

/// Runs the harness; `Ok(summary)` when both runs are byte-identical.
pub fn run() -> Result<String, String> {
    let sim1 = simulate();
    let sim2 = simulate();
    let bytes1 = graph_bytes(&sim1)?;
    let bytes2 = graph_bytes(&sim2)?;
    if bytes1 != bytes2 {
        let at = bytes1
            .iter()
            .zip(&bytes2)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| bytes1.len().min(bytes2.len()));
        return Err(format!(
            "simulate is nondeterministic: serialized graphs differ \
             (lengths {} vs {}, first difference at byte {at})",
            bytes1.len(),
            bytes2.len()
        ));
    }

    let r1 = detect(&sim1);
    let r2 = detect(&sim2);
    let report1 = render_report(&r1);
    let report2 = render_report(&r2);
    if report1 != report2 {
        let diff_line = report1
            .lines()
            .zip(report2.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or(0);
        return Err(format!(
            "detect is nondeterministic: reports differ (first differing \
             line {diff_line})\n--- run 1 ---\n{report1}--- run 2 ---\n{report2}"
        ));
    }

    // Parallel-sweep check: the k-sweep worker pool must be invisible in
    // the artifacts. Render the report at each thread count and diff
    // against the default-config run above (which uses auto threads), so
    // serial, fixed-pool, and auto-sized runs all agree byte-for-byte.
    for threads in THREAD_COUNTS {
        let rt = render_report(&detect_with_threads(&sim1, threads));
        if rt != report1 {
            let diff_line = rt
                .lines()
                .zip(report1.lines())
                .position(|(a, b)| a != b)
                .map(|i| i + 1)
                .unwrap_or(0);
            return Err(format!(
                "parallel sweep is nondeterministic: threads={threads} report \
                 differs from the auto-threads report (first differing line \
                 {diff_line})\n--- threads={threads} ---\n{rt}--- auto ---\n{report1}"
            ));
        }
        kill_and_resume(&sim1, threads, &rt)?;
    }

    distributed_legs(&sim1)?;
    metrics_legs(&sim1)?;
    durable_store_legs()?;

    Ok(format!(
        "determinism: OK — {} nodes, {} graph bytes, {} detection rounds, \
         both runs byte-identical; k-sweep artifacts identical at \
         threads=1/4/auto; kill-and-resume byte-identical at threads=1/4 \
         (seed {SEED}); distributed reports byte-identical at workers=1/4 \
         incl. under an injected fault plan and through kill-and-resume; \
         metrics ({}) minus `timings` byte-identical at threads=1/4/auto \
         and workers=1/4 incl. under the fault plan; durable-store \
         fallback resumes (newest generation torn/bit-flipped) \
         byte-identical to the uninterrupted run at threads=1/4 and \
         workers=1/4, with fallback metrics agreeing across all legs",
        sim1.graph.num_nodes(),
        bytes1.len(),
        r1.rounds,
        rejecto_obs::SCHEMA
    ))
}

/// A scratch directory for durable-store legs, unique per process and
/// leg; removed best-effort when the leg succeeds.
pub(crate) fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rejecto-determinism-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

/// Durable-store legs (DESIGN.md §14): with the **newest** checkpoint
/// generation mangled on disk (`torn_write@round=N` / `bit_flip@round=N`),
/// `load_latest_valid` must fall back to the surviving generation,
/// record the skip as a structured failure, and the resumed run must
/// render byte-identically to the uninterrupted run — locally at
/// threads=1/4 and through the distributed runtime at workers=1/4. The
/// `strip_timings` metrics of every fallback resume must also agree
/// byte-for-byte across all eight legs (the fallback counters are
/// volatile, so they strip with the timings).
fn durable_store_legs() -> Result<(), String> {
    let sim = simulate_self_rejection();
    let full = render_report(&detect(&sim));

    // Discover the generation chain once with a clean store run; the
    // newest generation is the one every leg below mangles.
    let newest = {
        let dir = scratch("gens");
        let store = CheckpointStore::new(dir.join("run.ckpt"));
        let mut sink = |ckpt: &Checkpoint| store.save(ckpt).map_err(std::io::Error::other);
        IterativeDetector::new(RejectoConfig::default()).detect_with_checkpoints(
            &sim.graph,
            &Seeds::default(),
            Termination::SuspectBudget(FAKES),
            &mut sink,
        );
        let resume = store
            .load_latest_valid()
            .map_err(|e| format!("clean generation chain unreadable: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        resume.checkpoint.rounds
    };
    if newest < 2 {
        return Err(format!(
            "durable-store fixture degenerated: the self-rejection scenario \
             produced only {newest} checkpoint generation(s), so falling back \
             past a mangled newest generation goes unexercised; grow the \
             scenario"
        ));
    }

    let mut reference_metrics: Option<String> = None;
    for form in ["torn_write", "bit_flip"] {
        let spec = format!("{form}@round={newest}");
        let plan =
            FaultPlan::parse(&spec).map_err(|e| format!("fault spec rejected: {e}"))?;

        for threads in THREAD_COUNTS {
            let dir = scratch(&format!("local-{threads}-{form}"));
            let store = CheckpointStore::new(dir.join("run.ckpt"))
                .with_faults(Faults::new(&plan));
            let mut sink =
                |ckpt: &Checkpoint| store.save(ckpt).map_err(std::io::Error::other);
            IterativeDetector::new(RejectoConfig { threads, ..RejectoConfig::default() })
                .detect_with_checkpoints(
                    &sim.graph,
                    &Seeds::default(),
                    Termination::SuspectBudget(FAKES),
                    &mut sink,
                );
            let rendered = fallback_resume_leg(
                &dir,
                &format!("{spec} threads={threads}"),
                &mut reference_metrics,
                |resume, obs| {
                    let mut det = IterativeDetector::new(RejectoConfig {
                        threads,
                        ..RejectoConfig::default()
                    });
                    det.set_obs(obs.clone());
                    det.run(
                        &sim.graph,
                        &Seeds::default(),
                        Termination::SuspectBudget(FAKES),
                        Some(&resume.checkpoint),
                        None,
                    )
                    .map_err(|e| e.to_string())
                },
            )?;
            if rendered != full {
                return Err(format!(
                    "durable-store fallback diverged: {spec} threads={threads} \
                     resumed report differs from the uninterrupted run\n\
                     --- resumed ---\n{rendered}--- uninterrupted ---\n{full}"
                ));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        for workers in WORKER_COUNTS {
            let dir = scratch(&format!("dist-{workers}-{form}"));
            let store = CheckpointStore::new(dir.join("run.ckpt"))
                .with_faults(Faults::new(&plan));
            let mut sink =
                |ckpt: &Checkpoint| store.save(ckpt).map_err(std::io::Error::other);
            DistributedDetector::new(snappy_cluster(workers), RejectoConfig::default())
                .run(
                    &sim.graph,
                    &Seeds::default(),
                    Termination::SuspectBudget(FAKES),
                    None,
                    Some(&mut sink),
                )
                .map_err(|e| {
                    format!("distributed durable-store leg failed at workers={workers}: {e}")
                })?;
            let rendered = fallback_resume_leg(
                &dir,
                &format!("{spec} workers={workers}"),
                &mut reference_metrics,
                |resume, obs| {
                    let mut det = DistributedDetector::new(
                        snappy_cluster(workers),
                        RejectoConfig::default(),
                    );
                    det.set_obs(obs.clone());
                    det.run(
                        &sim.graph,
                        &Seeds::default(),
                        Termination::SuspectBudget(FAKES),
                        Some(&resume.checkpoint),
                        None,
                    )
                    .map_err(|e| e.to_string())
                },
            )?;
            if rendered != full {
                return Err(format!(
                    "durable-store fallback diverged: {spec} workers={workers} \
                     resumed report differs from the uninterrupted run\n\
                     --- resumed ---\n{rendered}--- uninterrupted ---\n{full}"
                ));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok(())
}

/// Shared tail of one durable-store leg: resume from the mangled stem
/// through `load_latest_valid`, demand a recorded fallback, run the
/// continuation the caller provides, and fold this leg's stripped metrics
/// into the cross-leg byte-comparison. Returns the resumed report's
/// canonical rendering.
fn fallback_resume_leg(
    dir: &std::path::Path,
    leg: &str,
    reference_metrics: &mut Option<String>,
    run: impl FnOnce(&rejecto_core::StoreResume, &rejecto_obs::Obs) -> Result<DetectionReport, String>,
) -> Result<String, String> {
    let obs = rejecto_obs::Obs::default();
    let reader = CheckpointStore::new(dir.join("run.ckpt")).with_obs(obs.clone());
    let resume = reader
        .load_latest_valid()
        .map_err(|e| format!("{leg}: fallback resume failed outright: {e}"))?;
    if !resume.fell_back() {
        return Err(format!(
            "{leg}: the mangled newest generation was not skipped (resume \
             read {} with no recorded fallback)",
            resume.path.display()
        ));
    }
    if resume.skipped.len() != 1 {
        return Err(format!(
            "{leg}: expected exactly one recorded skip, got {:?}",
            resume.skipped
        ));
    }
    let report = run(&resume, &obs).map_err(|e| format!("{leg}: resume failed: {e}"))?;

    let stripped = rejecto_obs::strip_timings(&obs.to_json());
    if stripped.contains("ckpt/") {
        return Err(format!(
            "{leg}: fallback counters leaked into the deterministic metrics \
             section (they must be volatile):\n{stripped}"
        ));
    }
    match reference_metrics {
        None => *reference_metrics = Some(stripped),
        Some(reference) if *reference != stripped => {
            return Err(format!(
                "{leg}: fallback metrics differ across legs\n--- this leg ---\n\
                 {stripped}\n--- reference ---\n{reference}"
            ));
        }
        Some(_) => {}
    }
    Ok(render_report(&report))
}

/// Observability determinism (DESIGN.md §13): everything the metrics
/// document records outside its `timings` section — counters, spans,
/// histograms — must be byte-invariant to thread count, worker count,
/// and any absorbed fault plan. [`rejecto_obs::strip_timings`] over the
/// full rendering is exactly what CI byte-diffs on collected artifacts,
/// so that is the comparison run here too.
fn metrics_legs(sim: &SimOutput) -> Result<(), String> {
    let local = |threads: usize| -> String {
        let mut det =
            IterativeDetector::new(RejectoConfig { threads, ..RejectoConfig::default() });
        let obs = rejecto_obs::Obs::default();
        det.set_obs(obs.clone());
        det.detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES));
        rejecto_obs::strip_timings(&obs.to_json())
    };

    // Auto-threads is the baseline; the textual strip must agree with the
    // structured deterministic rendering it claims to recover.
    let baseline = {
        let mut det = IterativeDetector::new(RejectoConfig::default());
        let obs = rejecto_obs::Obs::default();
        det.set_obs(obs.clone());
        det.detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES));
        let stripped = rejecto_obs::strip_timings(&obs.to_json());
        if stripped != obs.deterministic_json() {
            return Err(
                "strip_timings does not recover the deterministic metrics document".to_string()
            );
        }
        stripped
    };

    for threads in THREAD_COUNTS {
        let doc = local(threads);
        if doc != baseline {
            return Err(format!(
                "metrics are thread-count dependent: threads={threads} differs \
                 from auto\n--- threads={threads} ---\n{doc}\n--- auto ---\n{baseline}"
            ));
        }
    }

    for workers in WORKER_COUNTS {
        let mut clean_det =
            DistributedDetector::new(snappy_cluster(workers), RejectoConfig::default());
        let obs = rejecto_obs::Obs::default();
        clean_det.set_obs(obs.clone());
        clean_det
            .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
            .map_err(|e| format!("distributed metrics leg failed at workers={workers}: {e}"))?;
        let clean = rejecto_obs::strip_timings(&obs.to_json());
        if clean != baseline {
            return Err(format!(
                "metrics are runtime dependent: distributed workers={workers} \
                 differs from the local run\n--- workers={workers} ---\n{clean}\n\
                 --- local ---\n{baseline}"
            ));
        }

        let faulted_config = RejectoConfig {
            faults: FaultPlan::parse(
                "worker_death@fetch=3,worker_death@fetch=9:x2,worker_hang@fetch=2",
            )
            .map_err(|e| format!("fault spec rejected: {e}"))?,
            ..RejectoConfig::default()
        };
        let mut faulted_det = DistributedDetector::new(snappy_cluster(workers), faulted_config);
        let obs = rejecto_obs::Obs::default();
        faulted_det.set_obs(obs.clone());
        faulted_det
            .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
            .map_err(|e| format!("faulted metrics leg failed at workers={workers}: {e}"))?;
        if obs.volatile("io/hangs_absorbed") == 0 {
            return Err(format!("the injected hang never fired at workers={workers}"));
        }
        let faulted = rejecto_obs::strip_timings(&obs.to_json());
        if faulted != baseline {
            return Err(format!(
                "fault recovery leaked into the metrics at workers={workers}\n\
                 --- faulted ---\n{faulted}\n--- failure-free ---\n{baseline}"
            ));
        }
    }
    Ok(())
}

/// The worker counts the distributed legs exercise: the degenerate
/// single-shard layout vs a real multi-shard cluster.
const WORKER_COUNTS: [usize; 2] = [1, 4];

/// A cluster shape that keeps fault recovery fast in-harness: a tight
/// watchdog deadline and no respawn backoff. Correctness must not depend
/// on either knob — only wall time does.
pub(crate) fn snappy_cluster(workers: usize) -> ClusterConfig {
    ClusterConfig {
        num_workers: workers,
        request_deadline: Duration::from_millis(50),
        backoff_base: Duration::ZERO,
        ..ClusterConfig::default()
    }
}

fn detect_distributed(
    sim: &SimOutput,
    workers: usize,
    config: RejectoConfig,
) -> Result<DetectionReport, String> {
    DistributedDetector::new(snappy_cluster(workers), config)
        .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES))
        .map_err(|e| format!("distributed detect failed at workers={workers}: {e}"))
}

/// Distributed determinism: the report must be byte-invariant to (a) the
/// worker count, (b) any injected fault plan that leaves a survivor, and
/// (c) a kill-and-resume through the checkpoint wire format. All three
/// diffs use the same canonical rendering as the single-process legs.
fn distributed_legs(sim: &SimOutput) -> Result<(), String> {
    let baseline = render_report(&detect_distributed(sim, WORKER_COUNTS[0], RejectoConfig::default())?);

    for workers in WORKER_COUNTS {
        let rt = render_report(&detect_distributed(sim, workers, RejectoConfig::default())?);
        if rt != baseline {
            return Err(format!(
                "distributed sweep is worker-count dependent: workers={workers} \
                 report differs from workers={} \n--- workers={workers} ---\n{rt}\
                 --- baseline ---\n{baseline}",
                WORKER_COUNTS[0]
            ));
        }

        // Injected worker deaths (including a repeated-death schedule) and
        // a hung worker must be absorbed by respawn/rebalance without a
        // trace in the report.
        let faulted = RejectoConfig {
            faults: FaultPlan::parse(
                "worker_death@fetch=3,worker_death@fetch=9:x2,worker_hang@fetch=2",
            )
            .map_err(|e| format!("fault spec rejected: {e}"))?,
            ..RejectoConfig::default()
        };
        let rf = render_report(&detect_distributed(sim, workers, faulted)?);
        if rf != baseline {
            return Err(format!(
                "fault recovery leaked into the artifacts at workers={workers}: \
                 the faulted report differs from the failure-free report\n\
                 --- faulted ---\n{rf}--- failure-free ---\n{baseline}"
            ));
        }

        distributed_kill_and_resume(sim, workers, &baseline)?;
    }
    Ok(())
}

/// The distributed twin of [`kill_and_resume`]: halt after one pruning
/// round via the deterministic round budget, round-trip the checkpoint
/// through JSON, resume on a fresh cluster, and demand byte-identity with
/// the uninterrupted distributed run.
fn distributed_kill_and_resume(
    sim: &SimOutput,
    workers: usize,
    full_render: &str,
) -> Result<(), String> {
    let mut config = RejectoConfig::default();
    config.budget.max_rounds = Some(1);
    let halted = detect_distributed(sim, workers, config)?;
    if !halted.is_partial() {
        return Err(format!(
            "distributed kill-and-resume fixture degenerated: the \
             max_rounds=1 run at workers={workers} completed in one round, \
             so the resume path went unexercised; grow the scenario"
        ));
    }

    let json = Checkpoint::capture(&sim.graph, &halted).to_json();
    let restored = Checkpoint::from_json(&json).map_err(|e| {
        format!("distributed checkpoint JSON round-trip failed at workers={workers}: {e}")
    })?;
    let resumed = DistributedDetector::new(snappy_cluster(workers), RejectoConfig::default())
        .run(
            &sim.graph,
            &Seeds::default(),
            Termination::SuspectBudget(FAKES),
            Some(&restored),
            None,
        )
        .map_err(|e| {
            format!("distributed resume rejected its own checkpoint at workers={workers}: {e}")
        })?;
    let rr = render_report(&resumed);
    if rr != full_render {
        let diff_line = rr
            .lines()
            .zip(full_render.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or(0);
        return Err(format!(
            "distributed kill-and-resume diverged at workers={workers}: \
             resumed report differs from the uninterrupted run (first \
             differing line {diff_line})\n--- resumed ---\n{rr}\
             --- uninterrupted ---\n{full_render}"
        ));
    }
    Ok(())
}

/// Kill-and-resume check: interrupt the run after one pruning round (the
/// deterministic `max_rounds` budget), serialize the checkpoint through
/// its JSON wire format, resume from the deserialized copy, and demand the
/// resumed report render byte-identically to the uninterrupted run at the
/// same thread count.
fn kill_and_resume(sim: &SimOutput, threads: usize, full_render: &str) -> Result<(), String> {
    let mut config = RejectoConfig { threads, ..RejectoConfig::default() };
    config.budget.max_rounds = Some(1);
    let halted = IterativeDetector::new(config)
        .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(FAKES));
    if !halted.is_partial() {
        return Err(format!(
            "kill-and-resume fixture degenerated: the max_rounds=1 run at \
             threads={threads} completed in one round, so the resume path \
             went unexercised; grow the scenario"
        ));
    }

    let json = Checkpoint::capture(&sim.graph, &halted).to_json();
    let restored = Checkpoint::from_json(&json)
        .map_err(|e| format!("checkpoint JSON round-trip failed at threads={threads}: {e}"))?;
    let resumed = IterativeDetector::new(RejectoConfig { threads, ..RejectoConfig::default() })
        .run(
            &sim.graph,
            &Seeds::default(),
            Termination::SuspectBudget(FAKES),
            Some(&restored),
            None,
        )
        .map_err(|e| format!("resume rejected its own checkpoint at threads={threads}: {e}"))?;
    let rr = render_report(&resumed);
    if rr != full_render {
        let diff_line = rr
            .lines()
            .zip(full_render.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or(0);
        return Err(format!(
            "kill-and-resume diverged at threads={threads}: resumed report \
             differs from the uninterrupted run (first differing line \
             {diff_line})\n--- resumed ---\n{rr}--- uninterrupted ---\n{full_render}"
        ));
    }
    Ok(())
}
