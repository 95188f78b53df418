//! The seeded chaos-soak harness behind `cargo xtask chaos`.
//!
//! Each seed expands — via [`rejecto_core::chaos`] — into a composite
//! multi-fault schedule (worker deaths × hangs × panics × torn writes ×
//! bit flips × tight deadlines × checkpoint I/O errors) plus an
//! adversarial simulator scenario, and is soaked at threads {1, 4} on the
//! local runtime and workers {1, 4} on the distributed one. Every run is
//! held to the invariant trio:
//!
//! 1. **Typed termination** — each leg ends in `Complete`, `Partial`, or
//!    a typed [`rejecto_core::RuntimeError`]; a panic escaping any leg
//!    fails the seed.
//! 2. **Byte-identity** — legs a plan classifies as comparable render
//!    byte-identically (locally always, cross-runtime unless the plan
//!    arms a persistent panic, never under a wall-clock deadline), and a
//!    kill-and-resume through the durable store reproduces the
//!    uninterrupted run byte-for-byte.
//! 3. **Metrics reconciliation** — `strip_timings` metrics documents are
//!    byte-equal across all compared legs.
//!
//! Some seeds additionally arm the suspect-fraction budget
//! (`RunBudget::max_suspect_frac`) or a tiny checkpoint byte ceiling so the `ResourceExhausted` /
//! `Partial(ResourceBudget)` paths soak alongside the fault paths.
//!
//! Everything is a pure function of the seed base, so a failing seed
//! reproduces anywhere: the failure message carries the seed and the
//! fault spec (feed it to `detect --inject`).

use crate::determinism::{render_report, scratch, snappy_cluster};
use dataflow::DistributedDetector;
use rejecto_core::chaos::{ChaosPlan, ChaosProfile, ChaosRng};
use rejecto_core::{
    CheckpointStore, Completion, DetectionReport, Fault, Faults, InterruptReason,
    IterativeDetector, RejectoConfig, RunBudget, Seeds, Termination,
};
use simulator::{Scenario, ScenarioConfig, SelfRejectionConfig, SimOutput};
use socialgraph::surrogates::Surrogate;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Pinned seed base: seed `i` of a soak is `SEED_BASE + i`, so CI runs
/// and local reproductions always mean the same schedule by "seed 7".
pub const SEED_BASE: u64 = 0x7E57_5EED;

const THREAD_COUNTS: [usize; 2] = [1, 4];
const WORKER_COUNTS: [usize; 2] = [1, 4];
/// Same scaled-down fixture family as the determinism harness: big enough
/// for several pruning rounds, small enough to soak many seeds.
const SCALE: f64 = 0.02;

/// Everything one seed produced, for the JSON artifact.
struct SeedRecord {
    seed: u64,
    spec: String,
    fakes: usize,
    self_rejection: bool,
    suspect_frac: Option<f64>,
    ckpt_limit: Option<u64>,
    local: Vec<String>,
    distributed: Vec<String>,
    compared_local: bool,
    compared_cross: bool,
    resume: Vec<String>,
}

/// One seed's scenario: parameters drawn from the seed's side stream so
/// the attack shape varies across seeds but never across runs.
fn simulate(seed: u64) -> (SimOutput, usize, bool) {
    let mut rng = ChaosRng::new(seed ^ 0x5CEA_A210);
    let fakes = 30 + usize::try_from(rng.below(31)).expect("fake count fits in usize");
    let self_rejection = rng.chance(1, 2);
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
    (Scenario::new(config).run(&host, seed), fakes, self_rejection)
}

fn completion_tag(report: &DetectionReport) -> String {
    match &report.completion {
        Completion::Complete => "complete".to_string(),
        Completion::Partial { reason, completed_rounds, .. } => {
            format!("partial:{reason:?}:{completed_rounds}")
        }
        other => format!("{other:?}"),
    }
}

/// Runs the whole soak. `Ok(summary)` when every seed upheld the trio.
pub fn run(seeds: u64, json_path: Option<&str>) -> Result<String, String> {
    if seeds == 0 {
        return Err("chaos: --seeds must be at least 1".to_string());
    }
    // Injected worker panics are *expected* inside the soak and absorbed by
    // the retry machinery; the default hook would spray a backtrace per
    // injection over the log. Escaped panics still fail their seed via
    // `catch_unwind` below, with the seed and fault spec in the message.
    let quiet = PanicHookGuard::install();
    let result = soak(seeds, json_path);
    drop(quiet);
    result
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

/// Restores the pre-soak panic hook on drop, even when the soak errors.
struct PanicHookGuard {
    prior: Option<PanicHook>,
}

impl PanicHookGuard {
    fn install() -> Self {
        let prior = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        Self { prior: Some(prior) }
    }
}

impl Drop for PanicHookGuard {
    fn drop(&mut self) {
        if let Some(prior) = self.prior.take() {
            std::panic::set_hook(prior);
        }
    }
}

fn soak(seeds: u64, json_path: Option<&str>) -> Result<String, String> {
    let profile = ChaosProfile::default();
    let mut records = Vec::new();
    let mut legs = 0usize;
    let mut typed_errors = 0usize;
    let mut resumes_checked = 0usize;
    let mut resumes_skipped = 0usize;
    let mut deadline_plans = 0usize;

    for i in 0..seeds {
        let seed = SEED_BASE + i;
        let plan = ChaosPlan::generate(seed, &profile);
        let spec = plan.spec();
        let ctx = format!("chaos seed {seed} (faults `{spec}`)");
        if plan.has_deadline() {
            deadline_plans += 1;
        }

        let (sim, fakes, self_rejection) = simulate(seed);
        let termination = Termination::SuspectBudget(fakes);

        // A third of the seeds also arm the deterministic suspect-fraction
        // budget; every eighth arms a checkpoint byte ceiling far below any
        // real frame so the store's refusal path soaks too.
        let mut rng = ChaosRng::new(seed ^ 0xB0D6_E7ED);
        let suspect_frac = rng.chance(1, 3).then(|| 0.05 + (rng.below(30) as f64) / 100.0);
        let ckpt_limit = rng.chance(1, 8).then(|| 24 + rng.below(40));
        let budget = RunBudget { max_suspect_frac: suspect_frac, ..RunBudget::unlimited() };

        let config = |threads: usize| RejectoConfig {
            threads,
            faults: plan.faults.clone(),
            budget,
            ..RejectoConfig::default()
        };

        // --- Invariant 1 legs: local threads {1,4} --------------------
        let mut local_renders: Vec<String> = Vec::new();
        let mut local_metrics: Vec<String> = Vec::new();
        let mut local_tags: Vec<String> = Vec::new();
        for threads in THREAD_COUNTS {
            legs += 1;
            let cfg = config(threads);
            let graph = &sim.graph;
            let obs = rejecto_obs::Obs::default();
            let obs_leg = obs.clone();
            let report = catch_unwind(AssertUnwindSafe(move || {
                let mut det = IterativeDetector::new(cfg);
                det.set_obs(obs_leg);
                det.detect(graph, &Seeds::default(), termination)
            }))
            .map_err(|_| format!("{ctx}: local threads={threads} PANICKED"))?;
            local_tags.push(completion_tag(&report));
            local_renders.push(render_report(&report));
            local_metrics.push(rejecto_obs::strip_timings(&obs.to_json()));
        }
        if plan.locally_comparable() {
            if local_renders[0] != local_renders[1] {
                return Err(format!(
                    "{ctx}: local threads=1 vs threads=4 reports differ\n--- t=1 ---\n{}\
                     --- t=4 ---\n{}",
                    local_renders[0], local_renders[1]
                ));
            }
            if local_metrics[0] != local_metrics[1] {
                return Err(format!(
                    "{ctx}: local stripped metrics differ across thread counts\n\
                     --- t=1 ---\n{}\n--- t=4 ---\n{}",
                    local_metrics[0], local_metrics[1]
                ));
            }
        }

        // --- Distributed legs: workers {1,4} --------------------------
        let mut dist_tags: Vec<String> = Vec::new();
        let hangs = plan.faults.faults().iter().any(|f| matches!(f, Fault::WorkerHang { .. }));
        for workers in WORKER_COUNTS {
            legs += 1;
            let cfg = config(0);
            let graph = &sim.graph;
            let obs = rejecto_obs::Obs::default();
            let obs_leg = obs.clone();
            let result = catch_unwind(AssertUnwindSafe(move || {
                let mut det = DistributedDetector::new(snappy_cluster(workers), cfg);
                det.set_obs(obs_leg);
                det.detect(graph, &Seeds::default(), termination)
            }))
            .map_err(|_| format!("{ctx}: distributed workers={workers} PANICKED"))?;
            match result {
                Ok(report) => {
                    dist_tags.push(completion_tag(&report));
                    if hangs && !plan.has_deadline() && obs.volatile("io/hangs_absorbed") == 0 {
                        return Err(format!(
                            "{ctx}: distributed workers={workers}: the injected hang never fired"
                        ));
                    }
                    if plan.cross_runtime_comparable() {
                        let rendered = render_report(&report);
                        if rendered != local_renders[0] {
                            return Err(format!(
                                "{ctx}: distributed workers={workers} report differs from \
                                 the local run\n--- distributed ---\n{rendered}\
                                 --- local ---\n{}",
                                local_renders[0]
                            ));
                        }
                        let stripped = rejecto_obs::strip_timings(&obs.to_json());
                        if stripped != local_metrics[0] {
                            return Err(format!(
                                "{ctx}: distributed workers={workers} stripped metrics \
                                 differ from the local run\n--- distributed ---\n{stripped}\n\
                                 --- local ---\n{}",
                                local_metrics[0]
                            ));
                        }
                    }
                }
                Err(e) => {
                    // A typed error is a legitimate soak outcome (e.g. a
                    // death schedule outliving the respawn budget).
                    typed_errors += 1;
                    dist_tags.push(format!("error:{e}"));
                }
            }
        }

        // --- Kill-and-resume through the durable store ----------------
        let mut resume_tags: Vec<String> = Vec::new();
        if plan.resume_comparable() {
            for (leg, threads) in THREAD_COUNTS.into_iter().enumerate() {
                let tag = resume_leg(
                    &ctx,
                    &sim,
                    termination,
                    &config(threads),
                    ckpt_limit,
                    seed,
                    threads,
                    &local_renders[leg],
                )?;
                if tag == "ok" {
                    resumes_checked += 1;
                } else {
                    resumes_skipped += 1;
                }
                resume_tags.push(tag);
            }
        } else {
            resume_tags.push("skipped:not-resume-comparable".to_string());
            resumes_skipped += 1;
        }

        records.push(SeedRecord {
            seed,
            spec,
            fakes,
            self_rejection,
            suspect_frac,
            ckpt_limit,
            local: local_tags,
            distributed: dist_tags,
            compared_local: plan.locally_comparable(),
            compared_cross: plan.cross_runtime_comparable(),
            resume: resume_tags,
        });
    }

    if let Some(path) = json_path {
        std::fs::write(path, render_records(&records))
            .map_err(|e| format!("chaos: cannot write {path}: {e}"))?;
    }

    Ok(format!(
        "chaos: OK — {seeds} seed(s) soaked at threads=1/4 and workers=1/4 \
         ({legs} legs, 0 panics); every leg terminated in \
         Complete/Partial/typed-error ({typed_errors} typed error(s) \
         absorbed); {resumes_checked} kill-and-resume leg(s) byte-identical \
         to their uninterrupted runs ({resumes_skipped} skipped: deadline \
         plans, persistent panics, or degenerate fixtures); \
         {deadline_plans} deadline plan(s) soaked for termination only; \
         seed base {SEED_BASE:#x}"
    ))
}

/// One kill-and-resume leg: interrupt after two rounds writing checkpoint
/// generations through the durable store (with the plan's torn-write /
/// bit-flip mangles and any byte ceiling armed), resume from the newest
/// *valid* generation, and demand byte-identity with the uninterrupted
/// leg. Returns `"ok"` or a `skipped:` tag for degenerate fixtures.
#[allow(clippy::too_many_arguments)]
fn resume_leg(
    ctx: &str,
    sim: &SimOutput,
    termination: Termination,
    config: &RejectoConfig,
    ckpt_limit: Option<u64>,
    seed: u64,
    threads: usize,
    full_render: &str,
) -> Result<String, String> {
    let dir = scratch(&format!("chaos-{seed}-t{threads}"));
    let store = CheckpointStore::new(dir.join("run.ckpt"))
        .with_faults(Faults::new(&config.faults))
        .with_limit(ckpt_limit);

    let mut halted_config = config.clone();
    halted_config.budget.max_rounds = Some(1);
    let graph = &sim.graph;
    let store_ref = &store;
    let halted = catch_unwind(AssertUnwindSafe(move || {
        let det = IterativeDetector::new(halted_config);
        let mut sink =
            |ckpt: &rejecto_core::Checkpoint| store_ref.save(ckpt).map_err(std::io::Error::other);
        det.detect_with_checkpoints(graph, &Seeds::default(), termination, &mut sink)
    }))
    .map_err(|_| format!("{ctx}: halted leg threads={threads} PANICKED"))?;

    // Only a round-budget interruption is a real "kill": anything else
    // (graph exhausted early, resource budget tripped inside the window)
    // means there is nothing left to resume into.
    let killed = matches!(
        halted.completion,
        Completion::Partial { reason: InterruptReason::RoundBudget, .. }
    );
    if !killed {
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(format!("skipped:halted-{}", completion_tag(&halted)));
    }

    let resume = match CheckpointStore::new(dir.join("run.ckpt")).load_latest_valid() {
        Ok(resume) => resume,
        Err(e) => {
            // With a tiny byte ceiling or an all-generations mangle the
            // chain can be empty — a typed outcome, not a failure.
            let _ = std::fs::remove_dir_all(&dir);
            return Ok(format!("skipped:no-valid-generation:{e}"));
        }
    };

    let resume_config = config.clone();
    let checkpoint = resume.checkpoint;
    let resumed = catch_unwind(AssertUnwindSafe(move || {
        IterativeDetector::new(resume_config).resume(
            graph,
            &Seeds::default(),
            termination,
            &checkpoint,
        )
    }))
    .map_err(|_| format!("{ctx}: resume leg threads={threads} PANICKED"))?
    .map_err(|e| format!("{ctx}: resume threads={threads} rejected its own checkpoint: {e}"))?;

    let rendered = render_report(&resumed);
    let _ = std::fs::remove_dir_all(&dir);
    if rendered != full_render {
        return Err(format!(
            "{ctx}: kill-and-resume diverged at threads={threads}\n--- resumed ---\n\
             {rendered}--- uninterrupted ---\n{full_render}"
        ));
    }
    Ok("ok".to_string())
}

// --- JSON artifact (hand-rolled: xtask deliberately has no serde) -------

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_list(items: &[String]) -> String {
    let rendered: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", rendered.join(", "))
}

fn render_records(records: &[SeedRecord]) -> String {
    let mut s = String::from("{\n  \"format\": \"rejecto-chaos/v1\",\n  \"seeds\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let frac = r
            .suspect_frac
            .map_or("null".to_string(), |f| format!("{f}"));
        let limit = r.ckpt_limit.map_or("null".to_string(), |l| l.to_string());
        s.push_str(&format!(
            "\n    {{\"seed\": {}, \"spec\": {}, \"fakes\": {}, \"self_rejection\": {}, \
             \"suspect_frac\": {frac}, \"ckpt_limit\": {limit}, \"local\": {}, \
             \"distributed\": {}, \"compared_local\": {}, \"compared_cross\": {}, \
             \"resume\": {}}}",
            r.seed,
            json_str(&r.spec),
            r.fakes,
            r.self_rejection,
            json_str_list(&r.local),
            json_str_list(&r.distributed),
            r.compared_local,
            r.compared_cross,
            json_str_list(&r.resume),
        ));
    }
    if records.is_empty() {
        s.push_str("]\n}\n");
    } else {
        s.push_str("\n  ]\n}\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_rendering_is_valid_shape() {
        let records = vec![SeedRecord {
            seed: 3,
            spec: "worker_hang@fetch=1".to_string(),
            fakes: 40,
            self_rejection: true,
            suspect_frac: Some(0.25),
            ckpt_limit: None,
            local: vec!["complete".to_string(), "complete".to_string()],
            distributed: vec!["complete".to_string(), "error:boom \"x\"".to_string()],
            compared_local: true,
            compared_cross: false,
            resume: vec!["ok".to_string()],
        }];
        let doc = render_records(&records);
        assert!(doc.contains("\"format\": \"rejecto-chaos/v1\""));
        assert!(doc.contains("\"spec\": \"worker_hang@fetch=1\""));
        assert!(doc.contains("\"suspect_frac\": 0.25"));
        assert!(doc.contains("\"ckpt_limit\": null"));
        assert!(doc.contains("error:boom \\\"x\\\""));
        assert!(render_records(&[]).contains("\"seeds\": []"));
    }

    /// A two-seed smoke soak: the real harness, small enough for the
    /// test suite. CI runs the full 16-seed soak via `cargo xtask chaos`.
    #[test]
    fn two_seed_soak_upholds_the_invariant_trio() {
        let summary = run(2, None).expect("two-seed soak fails");
        assert!(summary.contains("chaos: OK"), "{summary}");
        assert!(summary.contains("0 panics"), "{summary}");
    }
}
