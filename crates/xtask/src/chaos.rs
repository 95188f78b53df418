//! The seeded chaos-soak harness behind `cargo xtask chaos`.
//!
//! Each seed expands — via [`rejecto_core::chaos`] — into a composite
//! multi-fault schedule (worker deaths × hangs × panics × torn writes ×
//! bit flips × tight deadlines × checkpoint I/O errors) plus an
//! adversarial simulator scenario, and is soaked through the determinism
//! harness's runner at threads {1, 4} on the local runtime and workers
//! {1, 4} on the distributed one. Every run is held to the invariant trio:
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

use crate::determinism::{render_report, same, scratch, stripped, Runtime, RUNTIMES};
use rejecto_core::chaos::{ChaosPlan, ChaosRng, SEED_BASE};
use rejecto_core::{
    Checkpoint, CheckpointStore, Completion, DetectionReport, Fault, Faults, InterruptReason,
    RejectoConfig, RunBudget, Termination,
};
use rejecto_obs::{json_str, Obs};
use simulator::{Scenario, ScenarioConfig, SelfRejectionConfig, SimOutput};
use socialgraph::surrogates::Surrogate;
use std::panic::{catch_unwind, AssertUnwindSafe};

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
        Completion::Partial { reason, .. } => format!("partial:{reason:?}:{}", report.rounds),
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

/// What one leg left behind: its runtime, its completion tag for the
/// artifact and, unless it ended in a typed error, its rendered report and
/// stripped metrics for the byte-compares.
struct Outcome {
    rt: Runtime,
    tag: String,
    rendered: Option<(String, String)>,
}

fn soak(seeds: u64, json_path: Option<&str>) -> Result<String, String> {
    let mut records = Vec::new();
    let mut legs = 0usize;
    let mut typed_errors = 0usize;
    let mut rebalances = 0u64;
    let mut resumes_checked = 0usize;
    let mut resumes_skipped = 0usize;
    let mut deadline_plans = 0usize;

    for i in 0..seeds {
        let seed = SEED_BASE + i;
        let plan = ChaosPlan::generate(seed);
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
        let config =
            RejectoConfig { faults: plan.faults.clone(), budget, ..RejectoConfig::default() };

        // --- Invariant 1 legs: threads {1,4}, workers {1,4} ------------
        // Deadline plans may stop a run before its hang's fetch.
        let hangs = !plan.has_deadline()
            && plan.faults.faults().iter().any(|f| matches!(f, Fault::WorkerHang { .. }));
        let mut outcomes: Vec<Outcome> = Vec::new();
        for rt in RUNTIMES {
            legs += 1;
            let obs = Obs::default();
            let result = catch_unwind(AssertUnwindSafe(|| {
                rt.run(&sim.graph, &config, termination, None, None, &obs)
            }))
            .map_err(|_| format!("{ctx}: {rt} PANICKED"))?;
            rebalances += obs.volatile("io/shards_rebalanced");
            outcomes.push(match result {
                Ok(report) => {
                    if !rt.is_local() && hangs && obs.volatile("io/hangs_absorbed") == 0 {
                        return Err(format!("{ctx}: {rt}: the injected hang never fired"));
                    }
                    Outcome {
                        rt,
                        tag: completion_tag(&report),
                        rendered: Some((render_report(&report), stripped(&obs))),
                    }
                }
                Err(e) => {
                    // A typed error is a legitimate soak outcome (e.g. a
                    // death schedule outliving the respawn budget).
                    typed_errors += 1;
                    Outcome { rt, tag: format!("error:{e}"), rendered: None }
                }
            });
        }

        // --- Byte-identity with the threads=1 leg ----------------------
        // Locally always, cross-runtime unless the plan says otherwise.
        if let Some((reference, reference_metrics)) = &outcomes[0].rendered {
            for o in &outcomes[1..] {
                let comparable = if o.rt.is_local() {
                    plan.locally_comparable()
                } else {
                    plan.cross_runtime_comparable()
                };
                let Some((rendered, metrics)) = o.rendered.as_ref().filter(|_| comparable) else {
                    continue;
                };
                let rt = o.rt;
                same(&format!("{ctx}: {rt} report differs from threads=1"), rendered, reference)?;
                same(
                    &format!("{ctx}: {rt} stripped metrics differ from threads=1"),
                    metrics,
                    reference_metrics,
                )?;
            }
        }

        // --- Kill-and-resume through the durable store ----------------
        let mut resume_tags: Vec<String> = Vec::new();
        if plan.cross_runtime_comparable() {
            for o in outcomes.iter().filter(|o| o.rt.is_local()) {
                let Some((full, _)) = &o.rendered else { continue };
                let tag =
                    resume_leg(&ctx, &sim, termination, &config, ckpt_limit, seed, o.rt, full)?;
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

        let (local, distributed): (Vec<Outcome>, Vec<Outcome>) =
            outcomes.into_iter().partition(|o| o.rt.is_local());
        records.push(SeedRecord {
            seed,
            spec,
            fakes,
            self_rejection,
            suspect_frac,
            ckpt_limit,
            local: local.into_iter().map(|o| o.tag).collect(),
            distributed: distributed.into_iter().map(|o| o.tag).collect(),
            compared_local: plan.locally_comparable(),
            compared_cross: plan.cross_runtime_comparable(),
            resume: resume_tags,
        });
    }

    if let Some(path) = json_path {
        #[expect(
            clippy::disallowed_methods,
            reason = "the soak report is rebuilt on every run; it has no durability contract"
        )]
        std::fs::write(path, render_records(&records))
            .map_err(|e| format!("chaos: cannot write {path}: {e}"))?;
    }

    Ok(format!(
        "chaos: OK — {seeds} seed(s) soaked at threads=1/4 and workers=1/4 \
         ({legs} legs, 0 panics); every leg terminated in \
         Complete/Partial/typed-error ({typed_errors} typed error(s) \
         absorbed, {rebalances} shard rebalance(s) on the distributed \
         legs); {resumes_checked} kill-and-resume leg(s) byte-identical \
         to their uninterrupted runs ({resumes_skipped} skipped: deadline \
         plans, persistent panics, or degenerate fixtures); \
         {deadline_plans} deadline plan(s) soaked for termination only; \
         seed base {SEED_BASE:#x}"
    ))
}

/// One kill-and-resume leg on `rt`: interrupt after one round writing
/// checkpoint generations through the durable store (with the plan's
/// torn-write / bit-flip mangles and any byte ceiling armed), resume from
/// the newest *valid* generation, and demand byte-identity with the
/// uninterrupted leg. Returns `"ok"` or a `skipped:` tag for degenerate
/// fixtures.
#[expect(clippy::too_many_arguments, reason = "one leg's whole configuration, passed as is")]
fn resume_leg(
    ctx: &str,
    sim: &SimOutput,
    termination: Termination,
    config: &RejectoConfig,
    ckpt_limit: Option<u64>,
    seed: u64,
    rt: Runtime,
    full_render: &str,
) -> Result<String, String> {
    let dir = scratch(&format!("chaos-{seed}-{}", rt.tag()));
    let store = CheckpointStore::new(dir.join("run.ckpt"))
        .with_faults(Faults::new(&config.faults))
        .with_limit(ckpt_limit);

    let mut halted_config = config.clone();
    halted_config.budget.max_rounds = Some(1);
    let halted = catch_unwind(AssertUnwindSafe(|| {
        let mut sink = |ckpt: &Checkpoint| store.save(ckpt).map_err(std::io::Error::other);
        rt.run(&sim.graph, &halted_config, termination, None, Some(&mut sink), &Obs::default())
    }))
    .map_err(|_| format!("{ctx}: halted leg {rt} PANICKED"))?
    .map_err(|e| format!("{ctx}: halted leg {rt} failed: {e}"))?;

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

    let store_obs = Obs::default();
    let reader = CheckpointStore::new(dir.join("run.ckpt")).with_obs(store_obs.clone());
    let resume = match reader.load_latest_valid() {
        Ok(resume) => resume,
        Err(_) => {
            // With a tiny byte ceiling or an all-generations mangle the
            // chain can be empty — a typed outcome, not a failure. The tag
            // counts the rejected generations and names no path, so the
            // artifact does not depend on where the scratch store lives.
            let _ = std::fs::remove_dir_all(&dir);
            let rejected = store_obs.volatile("ckpt/corrupt_skipped");
            return Ok(format!("skipped:no-valid-generation:{rejected}-rejected"));
        }
    };

    let resumed = catch_unwind(AssertUnwindSafe(|| {
        rt.run(&sim.graph, config, termination, Some(&resume.checkpoint), None, &Obs::default())
    }))
    .map_err(|_| format!("{ctx}: resume leg {rt} PANICKED"))?
    .map_err(|e| format!("{ctx}: resume {rt} rejected its own checkpoint: {e}"))?;

    let _ = std::fs::remove_dir_all(&dir);
    same(
        &format!("{ctx}: kill-and-resume diverged at {rt}"),
        &render_report(&resumed),
        full_render,
    )?;
    Ok("ok".to_string())
}

// --- JSON artifact (hand-rolled: xtask deliberately has no serde) -------

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
