//! The seeded chaos-soak harness behind `cargo xtask chaos`.
//!
//! Each seed expands — via [`ChaosPlan::generate`] — into a composite
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
use rejecto_core::{
    Checkpoint, CheckpointStore, Completion, DetectionReport, Fault, FaultPlan, InterruptReason,
    RejectoConfig, RunBudget, Termination,
};
use rejecto_obs::{json_str, Obs};
use simulator::{Scenario, ScenarioConfig, SelfRejectionConfig, SimOutput};
use socialgraph::surrogates::Surrogate;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Same scaled-down fixture family as the determinism harness: big enough
/// for several pruning rounds, small enough to soak many seeds.
const SCALE: f64 = 0.02;

/// Pinned seed base: seed `i` of a soak is `SEED_BASE + i`, so CI runs
/// and local reproductions always mean the same schedule by "seed 7".
const SEED_BASE: u64 = 0x7E57_5EED;

/// A splitmix64 stream: the 64-bit finalizer recommended by Vigna as a
/// seeding primitive, tiny and dependency-free. Not cryptographic — it
/// only has to be deterministic and well-spread across seeds.
#[derive(Debug, Clone)]
struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A stream rooted at `seed`. Distinct seeds give unrelated streams.
    fn new(seed: u64) -> Self {
        ChaosRng { state: seed }
    }

    /// The next raw 64-bit draw.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `[0, n)`. `n` must be nonzero; the slight modulo bias is
    /// irrelevant for schedule generation.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0) is meaningless");
        self.next_u64() % n.max(1)
    }

    /// A draw in `[lo, hi)` (`lo < hi`).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi.saturating_sub(lo).max(1))
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

// Bounds on the schedules `ChaosPlan::generate` draws, sized for the
// harness fixture (a few pruning rounds, a ~15-entry `k` sweep, one or two
// fetch batches a round).

/// Most faults composed into one plan (at least 1 is always drawn).
const MAX_FAULTS: u64 = 4;
/// Round-indexed faults draw rounds in `1..=MAX_ROUND`.
const MAX_ROUND: u64 = 4;
/// Sweep-indexed faults draw indices in `0..MAX_K_INDEX`.
const MAX_K_INDEX: u64 = 10;
/// Worker deaths draw fetch batches in `1..MAX_FETCH`; hangs always land
/// on fetch 1. The harness fixtures (230–260 users) fit a round's first
/// prefetch batch and a read-ahead, so their longest round makes 2 fetch
/// batches at 1 and 4 workers alike.
const MAX_FETCH: u64 = 3;
/// Death schedules draw `1..=MAX_DEATHS` deaths. 9 = 2 × (1 try + 3
/// respawns) + 1 is enough to lose a lone worker (a typed error) or to
/// rebalance a lost shard onto a survivor.
const MAX_DEATHS: u64 = 9;

/// One seed's expanded schedule plus the invariant classification the
/// harness keys on.
#[derive(Debug, Clone, PartialEq)]
struct ChaosPlan {
    /// The seed this plan expands (printed on failure for reproduction).
    seed: u64,
    /// The composite fault schedule, conflict-free by construction.
    faults: FaultPlan,
}

impl ChaosPlan {
    /// Expands `seed` into a composite schedule. Pure: the same seed
    /// always yields the same plan, on every machine. Each draw passes
    /// `FaultPlan::parse`'s conflict check (one directive per injection
    /// point), so the plan round-trips through its printed spec. A
    /// `deadline=` directive may be drawn:
    /// deadline trips are wall-clock dependent, so such a plan forfeits
    /// every byte-compare invariant and is soaked for clean termination.
    fn generate(seed: u64) -> ChaosPlan {
        let mut rng = ChaosRng::new(seed);
        let mut faults = FaultPlan::none();
        let want = 1 + usize::try_from(rng.below(MAX_FAULTS)).expect("fault count fits in usize");
        // Bounded rejection sampling: a draw landing on an armed injection
        // point is discarded. The attempt cap keeps generation total.
        let mut attempts = 0;
        while faults.faults().len() < want && attempts < 64 {
            attempts += 1;
            // Each draw is a directive, kept only if `parse`'s conflict
            // check admits it beside the plan so far.
            let draw = match rng.below(7) {
                0 => {
                    let k = rng.below(MAX_K_INDEX);
                    let always = if rng.chance(1, 3) { ":always" } else { "" };
                    format!("worker_panic@k={k}{always}")
                }
                1 => format!("io_error@round={}", rng.range(1, MAX_ROUND + 1)),
                2 => {
                    let fetch = rng.range(1, MAX_FETCH);
                    format!("worker_death@fetch={fetch}:x{}", rng.range(1, MAX_DEATHS + 1))
                }
                // Fetch 1 is the one fetch every distributed round makes
                // (these fixtures often make no second), so the hang fires.
                3 => "worker_hang@fetch=1".to_string(),
                4 => format!("torn_write@round={}", rng.range(1, MAX_ROUND + 1)),
                5 => format!("bit_flip@round={}", rng.range(1, MAX_ROUND + 1)),
                _ => format!("deadline={}ms", rng.range(5, 120)),
            };
            if let Ok(next) = FaultPlan::parse(&format!("{faults},{draw}")) {
                faults = next;
            }
        }
        ChaosPlan { seed, faults }
    }

    /// The textual spec of this schedule, accepted verbatim by
    /// `FaultPlan::parse` (and the CLI's `--inject`).
    fn spec(&self) -> String {
        self.faults.to_string()
    }

    /// Whether the plan arms a wall-clock deadline. Deadline interruption
    /// points are scheduling-dependent, so such plans are soaked for clean
    /// termination only — every byte-compare invariant is skipped.
    fn has_deadline(&self) -> bool {
        self.faults.faults().iter().any(|f| matches!(f, Fault::Deadline { .. }))
    }

    /// Whether a sinkless uninterrupted run under this plan must render
    /// byte-identically across thread counts (everything except deadline
    /// plans: absorbed faults leave no report trace without a checkpoint
    /// sink, and persistent-panic degradation is deterministic locally).
    fn locally_comparable(&self) -> bool {
        !self.has_deadline()
    }

    /// Whether local and distributed legs of this plan must agree
    /// byte-for-byte (and hence also reconcile stripped metrics), and
    /// whether a kill-and-resume leg must reproduce the uninterrupted run
    /// byte-for-byte. Persistent panics are excluded from both: the
    /// distributed runtime absorbs worker loss differently, and their
    /// recorded failures straddle the checkpoint boundary, so a resumed
    /// report legitimately carries a different failure tally.
    fn cross_runtime_comparable(&self) -> bool {
        let persistent = |f: &Fault| matches!(f, Fault::WorkerPanic { persistent: true, .. });
        !self.has_deadline() && !self.faults.faults().iter().any(persistent)
    }
}

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
        let config = RejectoConfig { budget, ..RejectoConfig::default() };

        // --- Invariant 1 legs: threads {1,4}, workers {1,4} ------------
        // Deadline plans may stop a run before its hang's fetch.
        let hangs = !plan.has_deadline()
            && plan.faults.faults().iter().any(|f| matches!(f, Fault::WorkerHang { .. }));
        let mut outcomes: Vec<Outcome> = Vec::new();
        for rt in RUNTIMES {
            legs += 1;
            let obs = Obs::default();
            let result = catch_unwind(AssertUnwindSafe(|| {
                rt.run(&sim.graph, &config, &plan.faults, termination, None, None, &obs)
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
                    resume_leg(&ctx, &sim, termination, &config, &plan, ckpt_limit, o.rt, full)?;
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
    plan: &ChaosPlan,
    ckpt_limit: Option<u64>,
    rt: Runtime,
    full_render: &str,
) -> Result<String, String> {
    let (seed, faults) = (plan.seed, &plan.faults);
    let dir = scratch(&format!("chaos-{seed}-{}", rt.tag()));
    let store =
        CheckpointStore::new(dir.join("run.ckpt")).with_faults(faults).with_limit(ckpt_limit);

    let mut halted_config = config.clone();
    halted_config.budget.max_rounds = Some(1);
    let halted = catch_unwind(AssertUnwindSafe(|| {
        let mut sink = |ckpt: &Checkpoint| store.save(ckpt).map_err(std::io::Error::other);
        let obs = Obs::default();
        rt.run(&sim.graph, &halted_config, faults, termination, None, Some(&mut sink), &obs)
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
        let resume = Some(&resume.checkpoint);
        rt.run(&sim.graph, config, faults, termination, resume, None, &Obs::default())
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

    #[test]
    fn same_seed_expands_to_the_same_plan() {
        for seed in 0..64 {
            let a = ChaosPlan::generate(seed);
            let b = ChaosPlan::generate(seed);
            assert_eq!(a, b, "seed {seed} is not reproducible");
        }
    }

    #[test]
    fn every_generated_plan_round_trips_through_its_spec() {
        for seed in 0..256 {
            let plan = ChaosPlan::generate(seed);
            assert!(!plan.faults.faults().is_empty(), "seed {seed} drew no faults");
            let spec = plan.spec();
            let reparsed = FaultPlan::parse(&spec)
                .unwrap_or_else(|e| panic!("seed {seed}: spec `{spec}` rejected: {e}"));
            assert_eq!(reparsed, plan.faults, "seed {seed}: `{spec}`");
        }
    }

    #[test]
    fn the_seed_range_covers_every_fault_kind() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..256 {
            for f in ChaosPlan::generate(seed).faults.faults() {
                let spec = f.to_string();
                kinds.insert(spec.split(['@', '=']).next().map(str::to_string));
            }
        }
        for expected in [
            "worker_panic",
            "io_error",
            "deadline",
            "worker_death",
            "worker_hang",
            "torn_write",
            "bit_flip",
        ] {
            assert!(
                kinds.contains(&Some(expected.to_string())),
                "no seed in 0..256 drew {expected}"
            );
        }
    }

    /// The 16 CI seeds' schedules, as the soak prints them. Moving the
    /// generator or its conflict check must not move a single draw.
    #[test]
    fn the_ci_seeds_expand_to_their_pinned_specs() {
        let pinned = [
            "worker_panic@k=3,deadline=68ms,worker_panic@k=8",
            "worker_hang@fetch=1,torn_write@round=4,deadline=44ms",
            "io_error@round=4,worker_hang@fetch=1,deadline=78ms",
            "worker_panic@k=4:always,bit_flip@round=2",
            "worker_panic@k=6,bit_flip@round=2,worker_panic@k=7,bit_flip@round=4",
            "worker_death@fetch=2:x2",
            "worker_death@fetch=1:x3,deadline=69ms",
            "worker_hang@fetch=1,worker_panic@k=6,worker_panic@k=1:always,worker_panic@k=2:always",
            "worker_panic@k=9:always",
            "deadline=17ms,io_error@round=4,bit_flip@round=3",
            "torn_write@round=3",
            "bit_flip@round=1,torn_write@round=2,worker_death@fetch=2:x6,worker_panic@k=0",
            "worker_panic@k=1,worker_hang@fetch=1,worker_death@fetch=1:x2",
            "io_error@round=3",
            "deadline=40ms",
            "torn_write@round=2",
        ];
        for (seed, want) in (SEED_BASE..).zip(pinned) {
            assert_eq!(ChaosPlan::generate(seed).spec(), want, "seed {seed}");
        }
    }

    /// A schedule of more than 3 deaths outlives one lineage's respawn
    /// budget, so the soak reaches the worker-lost and rebalance paths.
    #[test]
    fn the_ci_seeds_outlive_a_respawn_budget() {
        let most = (SEED_BASE..SEED_BASE + 16)
            .flat_map(|seed| ChaosPlan::generate(seed).faults.faults().to_vec())
            .filter_map(|f| match f {
                Fault::WorkerDeath { deaths, .. } => Some(deaths),
                _ => None,
            })
            .max();
        assert!(most > Some(3), "the 16 CI seeds draw at most {most:?} deaths in a row");
    }

    #[test]
    fn classification_matches_the_drawn_faults() {
        let plan = |spec: &str| ChaosPlan {
            seed: 0,
            faults: FaultPlan::parse(spec).expect("spec is well-formed"),
        };
        let plan_a = plan("worker_death@fetch=2");
        assert!(plan_a.cross_runtime_comparable());
        let plan_b = plan("worker_death@fetch=2,worker_panic@k=1:always");
        assert!(plan_b.locally_comparable());
        assert!(!plan_b.cross_runtime_comparable());
        let plan_c = plan("worker_death@fetch=2,worker_panic@k=1:always,deadline=10ms");
        assert!(!plan_c.locally_comparable() && !plan_c.cross_runtime_comparable());
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
