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
//!
//! Every leg runs through one runner, [`Runtime::run`], on each of
//! [`RUNTIMES`]: the in-process detector at threads 1 and 4 and the
//! distributed one at workers 1 and 4. The local and distributed runtimes
//! owe the same bytes, so each leg's report and stripped metrics are held
//! to the auto-threads run's, whichever runtime produced them.

use dataflow::{ClusterConfig, DistributedDetector};
use rejecto_core::{
    Checkpoint, CheckpointSink, CheckpointStore, Completion, DetectionReport, FaultPlan,
    IterativeDetector, RejectoConfig, RuntimeError, Seeds, Termination,
};
use rejecto_obs::Obs;
use rejection::io::write_augmented;
use rejection::AugmentedGraph;
use simulator::{Scenario, ScenarioConfig, SelfRejectionConfig, SimOutput};
use socialgraph::surrogates::Surrogate;
use std::fmt::{self, Write as _};
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
        Completion::Partial { completed_k_indices, reason } => {
            let _ = writeln!(
                out,
                "completion=partial reason={reason:?} completed_rounds={} \
                 k_indices={completed_k_indices:?}",
                report.rounds
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

/// Where a leg runs: the in-process detector at a thread count (0 sizes
/// the pool automatically), or the distributed one on a cluster of that
/// many workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Runtime {
    Threads(usize),
    Workers(usize),
}

/// The runtimes every leg runs on: the exact serial code path and a real
/// worker pool, the degenerate single-shard cluster and a real
/// multi-shard one.
pub(crate) const RUNTIMES: [Runtime; 4] =
    [Runtime::Threads(1), Runtime::Threads(4), Runtime::Workers(1), Runtime::Workers(4)];

/// The auto-sized local run that every leg is compared against.
const AUTO: Runtime = Runtime::Threads(0);

impl fmt::Display for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Runtime::Threads(0) => f.write_str("threads=auto"),
            Runtime::Threads(threads) => write!(f, "threads={threads}"),
            Runtime::Workers(workers) => write!(f, "workers={workers}"),
        }
    }
}

impl Runtime {
    /// Whether this is the in-process detector.
    pub(crate) fn is_local(self) -> bool {
        matches!(self, Runtime::Threads(_))
    }

    /// A short name for scratch paths: `t1`, `w4`.
    pub(crate) fn tag(self) -> String {
        match self {
            Runtime::Threads(threads) => format!("t{threads}"),
            Runtime::Workers(workers) => format!("w{workers}"),
        }
    }

    /// Runs detection of `g` to `termination` under `config` (its thread
    /// count replaced on a local runtime) with `faults` injected, fresh or
    /// from `resume`, handing `sink` a checkpoint after every completed
    /// round and recording into `obs`.
    #[expect(clippy::too_many_arguments, reason = "one leg's whole configuration, passed as is")]
    pub(crate) fn run(
        self,
        g: &AugmentedGraph,
        config: &RejectoConfig,
        faults: &FaultPlan,
        termination: Termination,
        resume: Option<&Checkpoint>,
        sink: Option<CheckpointSink<'_>>,
        obs: &Obs,
    ) -> Result<DetectionReport, RuntimeError> {
        let seeds = Seeds::default();
        match self {
            Runtime::Threads(threads) => {
                let mut det = IterativeDetector::new(RejectoConfig { threads, ..config.clone() });
                det.set_obs(obs.clone());
                det.set_faults(faults.clone());
                det.run(g, &seeds, termination, resume, sink)
            }
            Runtime::Workers(workers) => {
                let mut det = DistributedDetector::new(snappy_cluster(workers), config.clone());
                det.set_obs(obs.clone());
                det.set_faults(faults.clone());
                det.run(g, &seeds, termination, resume, sink)
            }
        }
    }
}

/// A metrics document minus its volatile `timings` section: exactly what
/// CI byte-diffs on collected artifacts.
pub(crate) fn stripped(obs: &Obs) -> String {
    rejecto_obs::strip_timings(&obs.to_json())
}

/// The index of the first element where `a` and `b` differ, or `None`
/// when one is a prefix of the other.
fn first_difference<T: PartialEq>(
    a: impl IntoIterator<Item = T>,
    b: impl IntoIterator<Item = T>,
) -> Option<usize> {
    a.into_iter().zip(b).position(|(x, y)| x != y)
}

/// `Ok` when `got` equals `want`; otherwise `what` failed, and the error
/// names the first differing line (1-based, 0 when one text is a prefix
/// of the other) and shows both texts.
pub(crate) fn same(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let line = first_difference(got.lines(), want.lines()).map_or(0, |i| i + 1);
    Err(format!(
        "{what} (first differing line {line})\n--- this leg ---\n{got}\n--- reference ---\n{want}"
    ))
}

/// A fresh leg of `sim` on `rt` under `config` with `faults` injected, to
/// the fake budget: its report and its metrics registry.
fn leg(
    sim: &SimOutput,
    rt: Runtime,
    config: &RejectoConfig,
    faults: &FaultPlan,
) -> Result<(DetectionReport, Obs), String> {
    let obs = Obs::default();
    let termination = Termination::SuspectBudget(FAKES);
    let report = rt
        .run(&sim.graph, config, faults, termination, None, None, &obs)
        .map_err(|e| format!("detect failed at {rt}: {e}"))?;
    Ok((report, obs))
}

/// Runs the harness; `Ok(summary)` when every leg is byte-identical to
/// its reference.
pub fn run() -> Result<String, String> {
    let sim1 = simulate();
    let sim2 = simulate();
    let bytes1 = graph_bytes(&sim1)?;
    let bytes2 = graph_bytes(&sim2)?;
    if bytes1 != bytes2 {
        let at = first_difference(&bytes1, &bytes2).unwrap_or(bytes1.len().min(bytes2.len()));
        return Err(format!(
            "simulate is nondeterministic: serialized graphs differ \
             (lengths {} vs {}, first difference at byte {at})",
            bytes1.len(),
            bytes2.len()
        ));
    }

    // The reference: the default config's auto-sized run, which a second
    // run from the same seed must reproduce, and whose textual metrics
    // strip must agree with the structured deterministic rendering it
    // claims to recover.
    let (clean, none) = (RejectoConfig::default(), FaultPlan::none());
    let (r1, obs) = leg(&sim1, AUTO, &clean, &none)?;
    let full = render_report(&r1);
    let metrics = stripped(&obs);
    let (r2, _) = leg(&sim2, AUTO, &clean, &none)?;
    same("detect is nondeterministic: reports differ", &render_report(&r2), &full)?;
    if metrics != obs.deterministic_json() {
        return Err(
            "strip_timings does not recover the deterministic metrics document".to_string()
        );
    }

    // Neither the k-sweep worker pool, nor the cluster, nor a fault plan
    // whose deaths and hang a survivor absorbs may show in the report or
    // in the metrics outside `timings`; a kill-and-resume must not either.
    let faulted =
        FaultPlan::parse(DISTRIBUTED_FAULTS).map_err(|e| format!("fault spec rejected: {e}"))?;
    for rt in RUNTIMES {
        for (plan, faults) in [("failure-free", &none), ("faulted", &faulted)] {
            let (report, obs) = leg(&sim1, rt, &clean, faults)?;
            let differs = |what: &str| format!("{plan} {rt}: {what} from the auto-threads run");
            same(&differs("report differs"), &render_report(&report), &full)?;
            same(&differs("metrics differ"), &stripped(&obs), &metrics)?;
            if faults.is_empty() || rt.is_local() {
                continue;
            }
            if obs.volatile("io/hangs_absorbed") == 0 {
                return Err(format!("the injected hang never fired at {rt}"));
            }
            let restarts = obs.volatile("io/worker_restarts");
            if restarts < 3 {
                return Err(format!(
                    "an injected death never fired at {rt}: {restarts} restart(s), want at least 3"
                ));
            }
        }
        kill_and_resume(&sim1, rt, &full)?;
    }
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
    let dir =
        std::env::temp_dir().join(format!("rejecto-determinism-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

/// Kill-and-resume on `rt`: interrupt the run after one pruning round
/// (the deterministic `max_rounds` budget), serialize the checkpoint
/// through its JSON wire format, resume from the deserialized copy, and
/// demand the resumed report render byte-identically to the
/// uninterrupted run.
fn kill_and_resume(sim: &SimOutput, rt: Runtime, full: &str) -> Result<(), String> {
    let mut config = RejectoConfig::default();
    config.budget.max_rounds = Some(1);
    let (halted, _) = leg(sim, rt, &config, &FaultPlan::none())?;
    if !halted.is_partial() {
        return Err(format!(
            "kill-and-resume fixture degenerated: the max_rounds=1 run at \
             {rt} completed in one round, so the resume path went \
             unexercised; grow the scenario"
        ));
    }

    let json = Checkpoint::capture(&sim.graph, &halted).to_json();
    let restored = Checkpoint::from_json(&json)
        .map_err(|e| format!("checkpoint JSON round-trip failed at {rt}: {e}"))?;
    let termination = Termination::SuspectBudget(FAKES);
    let (default, none) = (RejectoConfig::default(), FaultPlan::none());
    let resumed = rt
        .run(&sim.graph, &default, &none, termination, Some(&restored), None, &Obs::default())
        .map_err(|e| format!("resume rejected its own checkpoint at {rt}: {e}"))?;
    same(
        &format!(
            "kill-and-resume diverged at {rt}: resumed report differs from the uninterrupted run"
        ),
        &render_report(&resumed),
        full,
    )
}

/// Durable-store legs (DESIGN.md §14): with the **newest** checkpoint
/// generation mangled on disk (`torn_write@round=N` / `bit_flip@round=N`),
/// `load_latest_valid` must fall back to the surviving generation,
/// record the skip as a structured failure, and the resumed run must
/// render byte-identically to the uninterrupted run on every runtime. The
/// stripped metrics of every fallback resume must also agree byte-for-byte
/// across all eight legs (the fallback counters are volatile, so they
/// strip with the timings).
fn durable_store_legs() -> Result<(), String> {
    let sim = simulate_self_rejection();
    let (default, none) = (RejectoConfig::default(), FaultPlan::none());
    let termination = Termination::SuspectBudget(FAKES);
    let full = render_report(&leg(&sim, AUTO, &default, &none)?.0);

    // A fresh run on `rt` saving every generation to `store`.
    let save_run = |rt: Runtime, store: &CheckpointStore| {
        let mut sink = |ckpt: &Checkpoint| store.save(ckpt).map_err(std::io::Error::other);
        rt.run(&sim.graph, &default, &none, termination, None, Some(&mut sink), &Obs::default())
    };

    // Discover the generation chain once with a clean store run; the
    // newest generation is the one every leg below mangles.
    let newest = {
        let dir = scratch("gens");
        let store = CheckpointStore::new(dir.join("run.ckpt"));
        save_run(AUTO, &store).map_err(|e| e.to_string())?;
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
        let plan = FaultPlan::parse(&spec).map_err(|e| format!("fault spec rejected: {e}"))?;
        for rt in RUNTIMES {
            let leg = format!("{spec} {rt}");
            let dir = scratch(&format!("{}-{form}", rt.tag()));
            let stem = dir.join("run.ckpt");
            save_run(rt, &CheckpointStore::new(&stem).with_faults(&plan))
                .map_err(|e| format!("{leg}: durable-store leg failed: {e}"))?;

            // Resume from the mangled stem, demanding a recorded fallback.
            let obs = Obs::default();
            let reader = CheckpointStore::new(&stem).with_obs(obs.clone());
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
                let skipped = &resume.skipped;
                return Err(format!("{leg}: expected exactly one recorded skip, got {skipped:?}"));
            }
            let from = Some(&resume.checkpoint);
            let report = rt
                .run(&sim.graph, &default, &none, termination, from, None, &obs)
                .map_err(|e| format!("{leg}: resume failed: {e}"))?;
            same(
                &format!(
                    "durable-store fallback diverged: {leg} resumed report differs from the \
                     uninterrupted run"
                ),
                &render_report(&report),
                &full,
            )?;

            let metrics = stripped(&obs);
            if metrics.contains("ckpt/") {
                return Err(format!(
                    "{leg}: fallback counters leaked into the deterministic metrics \
                     section (they must be volatile):\n{metrics}"
                ));
            }
            same(
                &format!("{leg}: fallback metrics differ across legs"),
                &metrics,
                reference_metrics.get_or_insert_with(|| metrics.clone()),
            )?;
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok(())
}

/// The distributed legs' fault plan: a death, a repeated death and a hang.
/// The fixture makes two fetch batches a run, so all three land on those
/// two; the hang shares its request with a death, so the plan costs three
/// respawns in all. The local runtime has no fetches, so it must not
/// notice the plan at all.
const DISTRIBUTED_FAULTS: &str =
    "worker_death@fetch=1,worker_death@fetch=2:x2,worker_hang@fetch=2";

/// A cluster shape that keeps fault recovery fast in-harness: a tight
/// watchdog deadline. Correctness must not depend on it — only wall time
/// does.
fn snappy_cluster(workers: usize) -> ClusterConfig {
    ClusterConfig {
        num_workers: workers,
        request_deadline: Duration::from_millis(50),
        ..ClusterConfig::default()
    }
}
