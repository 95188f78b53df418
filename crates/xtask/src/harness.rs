//! The one runner behind `cargo xtask check --determinism` and `cargo
//! xtask chaos`. A [`Case`] is a fixture ([`fixture`]), a configuration,
//! a fault plan and an optional checkpoint byte ceiling; [`Case::run`]
//! takes it through a fresh leg on each of [`RUNTIMES`], held to the
//! threads=1 leg byte for byte wherever the plan allows, and through
//! [`Case::kill_and_resume`] on each runtime the caller picks.

use dataflow::{ClusterConfig, DistributedDetector};
use rejecto_core::{
    Checkpoint, CheckpointSink, CheckpointStore, Completion, DetectionReport, Fault, FaultPlan,
    InterruptReason, IterativeDetector, RejectoConfig, RuntimeError, Seeds, Termination,
};
use rejecto_obs::Obs;
use simulator::{Scenario, ScenarioConfig, SelfRejectionConfig, SimOutput};
use socialgraph::surrogates::Surrogate;
use std::fmt::{self, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The fixture family's scale: the Facebook surrogate at 2% (230–260
/// users), large enough for several pruning rounds, small enough to run
/// many cases a second.
const SCALE: f64 = 0.02;

/// The scenario of seed `seed`: `fakes` fakes attacking the scaled
/// Facebook surrogate; with `self_rejection`, half of them whitewashed
/// spammers while the sacrificed half absorb internal rejections (the
/// Fig 14 shape), which takes several productive pruning rounds to peel
/// apart.
pub(crate) fn fixture(seed: u64, fakes: usize, self_rejection: bool) -> SimOutput {
    let host = Surrogate::Facebook.generate_scaled(seed, SCALE);
    let config = ScenarioConfig {
        num_fakes: fakes,
        self_rejection: self_rejection.then_some(SelfRejectionConfig {
            whitewashed: fakes / 2,
            requests_per_sender: 20,
            rejection_rate: 0.95,
        }),
        ..ScenarioConfig::default()
    };
    Scenario::new(config).run(&host, seed)
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
    let _ = match &report.completion {
        Completion::Complete => writeln!(out, "completion=complete"),
        Completion::Partial { completed_k_indices, reason } => writeln!(
            out,
            "completion=partial reason={reason:?} completed_rounds={} \
             k_indices={completed_k_indices:?}",
            report.rounds
        ),
        other => writeln!(out, "completion={other:?}"),
    };
    for f in &report.failures {
        let _ = writeln!(out, "failure={f}");
    }
    out
}

/// A short tag for how a run ended: `complete`, `partial:<reason>:<rounds>`.
pub(crate) fn completion_tag(report: &DetectionReport) -> String {
    match &report.completion {
        Completion::Complete => "complete".to_string(),
        Completion::Partial { reason, .. } => format!("partial:{reason:?}:{}", report.rounds),
        other => format!("{other:?}"),
    }
}

/// A metrics document minus its volatile `timings` section: exactly what
/// CI byte-diffs on collected artifacts.
pub(crate) fn stripped(obs: &Obs) -> String {
    rejecto_obs::strip_timings(&obs.to_json())
}

/// `Ok` when `got` equals `want`; otherwise `what` failed, and the error
/// names the first differing line (1-based, 0 when one text is a prefix
/// of the other) and shows both texts.
pub(crate) fn same(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let line = got.lines().zip(want.lines()).position(|(a, b)| a != b).map_or(0, |i| i + 1);
    Err(format!(
        "{what} (first differing line {line})\n--- this leg ---\n{got}\n--- reference ---\n{want}"
    ))
}

/// Where a leg runs: the in-process detector at a thread count (0 sizes
/// the pool automatically), or the distributed one on a cluster of that
/// many workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Runtime {
    Threads(usize),
    Workers(usize),
}

/// The runtimes every case runs on: the exact serial code path and a real
/// worker pool, the degenerate single-shard cluster and a real
/// multi-shard one. The first is every other leg's reference.
pub(crate) const RUNTIMES: [Runtime; 4] =
    [Runtime::Threads(1), Runtime::Threads(4), Runtime::Workers(1), Runtime::Workers(4)];

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
}

/// Whether the plan arms a wall-clock deadline. Deadline interruption
/// points are scheduling-dependent, so such a plan forfeits every
/// byte-compare and is run for clean termination only. Any other plan's
/// local legs must agree: absorbed faults leave no report trace without
/// a checkpoint sink, and persistent-panic degradation is deterministic
/// locally.
pub(crate) fn has_deadline(plan: &FaultPlan) -> bool {
    plan.faults().iter().any(|f| matches!(f, Fault::Deadline { .. }))
}

/// Whether local and distributed legs under `plan` must agree byte for
/// byte, and whether a kill-and-resume must reproduce the uninterrupted
/// leg. Persistent panics are excluded from both: the distributed runtime
/// absorbs worker loss differently, and their recorded failures straddle
/// the checkpoint boundary, so a resumed report carries a different
/// failure tally.
pub(crate) fn cross_runtime_comparable(plan: &FaultPlan) -> bool {
    let persistent = |f: &Fault| matches!(f, Fault::WorkerPanic { persistent: true, .. });
    !has_deadline(plan) && !plan.faults().iter().any(persistent)
}

/// The round a kill-and-resume halts after: the last round-indexed fault
/// (`io_error`, `torn_write`, `bit_flip`) whose round the uninterrupted
/// `reference` checkpoints, so every store fault the fixture can reach
/// fires before the kill; round 1 when there is none.
fn halt_round(plan: &FaultPlan, reference: &DetectionReport) -> usize {
    let reached = reference.groups.last().map_or(0, |g| g.round);
    plan.faults()
        .iter()
        .filter_map(|f| match *f {
            Fault::CheckpointIoError { round }
            | Fault::TornWrite { round }
            | Fault::BitFlip { round } => Some(round),
            _ => None,
        })
        .filter(|&round| round <= reached)
        .max()
        .unwrap_or(1)
}

/// One run's inputs: a fixture, a configuration, a fault plan and an
/// optional checkpoint byte ceiling. Every leg detects to the fixture's
/// fake count.
pub(crate) struct Case<'a> {
    pub(crate) sim: &'a SimOutput,
    pub(crate) config: RejectoConfig,
    pub(crate) plan: FaultPlan,
    pub(crate) ckpt_limit: Option<u64>,
}

/// A fresh leg: where it ran, how it ended and what it recorded.
pub(crate) struct Leg {
    pub(crate) rt: Runtime,
    pub(crate) report: Result<DetectionReport, RuntimeError>,
    pub(crate) obs: Obs,
}

/// How a kill-and-resume leg ended.
#[derive(Debug)]
pub(crate) enum Resume {
    /// The resume reproduced the uninterrupted leg. It started from
    /// generation `from` after rejecting `skipped` newer ones; `metrics`
    /// are its stripped metrics, the store's fallback counters included.
    Identical { from: usize, skipped: usize, metrics: String },
    /// There was nothing to resume, for the reason given: the halted leg
    /// was not interrupted by its round budget, or no generation
    /// survived.
    Skipped(String),
}

/// What [`Case::run`] left behind.
pub(crate) struct Outcome {
    /// One fresh leg per runtime of [`RUNTIMES`], in order.
    pub(crate) legs: Vec<Leg>,
    /// The kill-and-resumes, one per runtime asked for whose fresh leg
    /// returned a report; none when the plan is not cross-runtime
    /// comparable.
    pub(crate) resumes: Vec<(Runtime, Resume)>,
}

impl Case<'_> {
    /// A failure-free case of `sim` under the default configuration.
    pub(crate) fn clean(sim: &SimOutput) -> Case<'_> {
        Case { sim, config: RejectoConfig::default(), plan: FaultPlan::none(), ckpt_limit: None }
    }

    /// Runs detection on `rt` under the case's configuration (its thread
    /// count replaced on a local runtime, its round budget by `halt` when
    /// set) and plan, fresh or from `resume`, handing `sink` a checkpoint
    /// after every productive round and recording into `obs`. `Err` when
    /// a panic escaped.
    fn detect(
        &self,
        rt: Runtime,
        halt: Option<usize>,
        resume: Option<&Checkpoint>,
        sink: Option<CheckpointSink<'_>>,
        obs: &Obs,
    ) -> Result<Result<DetectionReport, RuntimeError>, String> {
        let mut config = self.config.clone();
        config.budget.max_rounds = halt.or(config.budget.max_rounds);
        let (g, seeds) = (&self.sim.graph, Seeds::default());
        let termination = Termination::SuspectBudget(self.sim.fakes.len());
        catch_unwind(AssertUnwindSafe(|| match rt {
            Runtime::Threads(threads) => {
                let mut det = IterativeDetector::new(RejectoConfig { threads, ..config });
                det.set_obs(obs.clone());
                det.set_faults(self.plan.clone());
                det.run(g, &seeds, termination, resume, sink)
            }
            Runtime::Workers(workers) => {
                let mut det = DistributedDetector::new(snappy_cluster(workers), config);
                det.set_obs(obs.clone());
                det.set_faults(self.plan.clone());
                det.run(g, &seeds, termination, resume, sink)
            }
        }))
        .map_err(|_| format!("{rt} PANICKED"))
    }

    /// A fresh leg on `rt`. `Err` when a panic escaped.
    pub(crate) fn leg(&self, rt: Runtime) -> Result<Leg, String> {
        let obs = Obs::default();
        let report = self.detect(rt, None, None, None, &obs)?;
        Ok(Leg { rt, report, obs })
    }

    /// Runs a fresh leg on every runtime and holds each comparable one to
    /// the threads=1 leg, then a kill-and-resume on each runtime that
    /// `resume_on` picks. A plan that arms a hang must see it absorbed on
    /// every distributed leg that returned a report.
    pub(crate) fn run(&self, resume_on: impl Fn(Runtime) -> bool) -> Result<Outcome, String> {
        let legs = RUNTIMES.into_iter().map(|rt| self.leg(rt)).collect::<Result<Vec<_>, _>>()?;
        let reference = legs[0].report.as_ref().ok();
        let reference = reference.map(|r| (render_report(r), stripped(&legs[0].obs)));
        // Deadline plans may stop a run before its hang's fetch.
        let hang = !has_deadline(&self.plan)
            && self.plan.faults().iter().any(|f| matches!(f, Fault::WorkerHang { .. }));
        for Leg { rt, report, obs } in &legs[1..] {
            let Ok(report) = report else { continue };
            if !rt.is_local() && hang && obs.volatile("io/hangs_absorbed") == 0 {
                return Err(format!("{rt}: the injected hang never fired"));
            }
            let comparable = if rt.is_local() {
                !has_deadline(&self.plan)
            } else {
                cross_runtime_comparable(&self.plan)
            };
            if let (Some((want, metrics)), true) = (&reference, comparable) {
                same(&format!("{rt} report differs from threads=1"), &render_report(report), want)?;
                let what = format!("{rt} stripped metrics differ from threads=1");
                same(&what, &stripped(obs), metrics)?;
            }
        }

        let mut resumes = Vec::new();
        if cross_runtime_comparable(&self.plan) {
            for Leg { rt, report, .. } in legs.iter().filter(|leg| resume_on(leg.rt)) {
                if let Ok(reference) = report {
                    resumes.push((*rt, self.kill_and_resume(*rt, reference)?));
                }
            }
        }
        Ok(Outcome { legs, resumes })
    }

    /// Kill-and-resume on `rt` against its uninterrupted `reference`:
    /// checkpoint every productive round through a store armed with the
    /// plan and the byte ceiling, halt after [`halt_round`], resume from
    /// the newest valid generation (the plan armed afresh, no sink) and
    /// demand the reference's canonical report.
    pub(crate) fn kill_and_resume(
        &self,
        rt: Runtime,
        reference: &DetectionReport,
    ) -> Result<Resume, String> {
        let scratch = Scratch::new()?;
        let stem = scratch.0.join("run.ckpt");
        let store =
            CheckpointStore::new(&stem).with_faults(&self.plan).with_limit(self.ckpt_limit);
        let mut sink = |ckpt: &Checkpoint| store.save(ckpt).map_err(std::io::Error::other);
        let halt = Some(halt_round(&self.plan, reference));
        let halted = self
            .detect(rt, halt, None, Some(&mut sink), &Obs::default())
            .map_err(|e| format!("halted leg: {e}"))?
            .map_err(|e| format!("halted leg {rt} failed: {e}"))?;
        // Only a round-budget interruption is a real kill: a run that
        // ended otherwise inside the window left nothing to resume into.
        if !matches!(
            halted.completion,
            Completion::Partial { reason: InterruptReason::RoundBudget, .. }
        ) {
            return Ok(Resume::Skipped(format!("halted-{}", completion_tag(&halted))));
        }

        let obs = Obs::default();
        let reader = CheckpointStore::new(&stem).with_obs(obs.clone());
        let Ok(resume) = reader.load_latest_valid() else {
            // A byte ceiling or a mangle of every generation can leave no
            // valid one: a typed outcome, tagged by count, not by path.
            let rejected = obs.volatile("ckpt/corrupt_skipped");
            return Ok(Resume::Skipped(format!("no-valid-generation:{rejected}-rejected")));
        };
        let resumed = self
            .detect(rt, None, Some(&resume.checkpoint), None, &obs)
            .map_err(|e| format!("resume leg: {e}"))?
            .map_err(|e| format!("resume at {rt} rejected its own checkpoint: {e}"))?;
        same(
            &format!("kill-and-resume diverged at {rt}"),
            &render_report(&resumed),
            &render_report(reference),
        )?;
        Ok(Resume::Identical {
            from: resume.checkpoint.rounds,
            skipped: resume.skipped.len(),
            metrics: stripped(&obs),
        })
    }
}

/// A scratch directory unique in the process, removed when dropped, so
/// a leg cleans up on every exit, early error returns included.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rejecto-determinism-{}-{n}", std::process::id()));
        // A dead process with the same id may have left one behind.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create scratch dir {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).expect("spec is well-formed")
    }

    #[test]
    fn classification_matches_the_drawn_faults() {
        let plan_a = plan("worker_death@fetch=2");
        assert!(cross_runtime_comparable(&plan_a));
        let plan_b = plan("worker_death@fetch=2,worker_panic@k=1:always");
        assert!(!has_deadline(&plan_b));
        assert!(!cross_runtime_comparable(&plan_b));
        let plan_c = plan("worker_death@fetch=2,worker_panic@k=1:always,deadline=10ms");
        assert!(has_deadline(&plan_c) && !cross_runtime_comparable(&plan_c));
    }

    /// The kill-and-resume of the self-rejection scenario under `spec`:
    /// the round it halted after, the generation it resumed from and how
    /// many newer ones it skipped.
    fn resume_under(spec: &str) -> (usize, usize, usize) {
        let sim = fixture(7, 60, true);
        let case = Case { plan: plan(spec), ..Case::clean(&sim) };
        let rt = Runtime::Threads(1);
        let reference = case.leg(rt).expect("no panic").report.expect("the fixture detects");
        assert!(reference.groups.len() >= 2, "the fixture needs 2 productive rounds");
        let halt = halt_round(&case.plan, &reference);
        match case.kill_and_resume(rt, &reference).expect("the resume reproduces the run") {
            Resume::Identical { from, skipped, .. } => (halt, from, skipped),
            Resume::Skipped(why) => panic!("{spec}: the resume was skipped: {why}"),
        }
    }

    /// A torn generation the fixture reaches is written before the kill,
    /// so the resume must reject it and fall back one generation.
    #[test]
    fn a_torn_generation_before_the_kill_is_skipped_on_resume() {
        assert_eq!(resume_under("torn_write@round=2"), (2, 1, 1));
    }

    /// A failed save before the kill leaves no generation for its round,
    /// so the resume starts from the generation before, skipping nothing.
    #[test]
    fn a_failed_save_before_the_kill_resumes_from_the_generation_before() {
        assert_eq!(resume_under("io_error@round=2"), (2, 1, 0));
    }

    /// Without a store fault, the kill comes after round 1.
    #[test]
    fn a_plan_without_store_faults_is_killed_after_round_1() {
        assert_eq!(resume_under("worker_panic@k=3"), (1, 1, 0));
        assert_eq!(resume_under("bit_flip@round=40"), (1, 1, 0));
    }

    #[test]
    fn a_scratch_dir_is_gone_once_dropped() {
        let scratch = Scratch::new().expect("scratch dir is creatable");
        let dir = scratch.0.clone();
        assert!(dir.is_dir());
        drop(scratch);
        assert!(!dir.exists());
    }
}
