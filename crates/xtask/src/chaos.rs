//! The seeded chaos soak behind `cargo xtask chaos`.
//!
//! Each seed expands — via [`generate`] — into a composite multi-fault
//! schedule (worker deaths × hangs × panics × torn writes × bit flips ×
//! tight deadlines × checkpoint I/O errors) plus an adversarial
//! simulator scenario, and goes through the harness runner
//! ([`Case::run`]) at threads {1, 4} on the local runtime and workers
//! {1, 4} on the distributed one, with a kill-and-resume at threads
//! {1, 4}. Every run is held to the invariant trio:
//!
//! 1. **Typed termination** — each leg ends in `Complete`, `Partial`, or
//!    a typed [`rejecto_core::RuntimeError`]; a panic escaping any leg
//!    fails the seed.
//! 2. **Byte-identity** — legs a plan classifies as comparable render
//!    byte-identically (locally always, cross-runtime unless the plan
//!    arms a persistent panic, never under a wall-clock deadline), and a
//!    kill-and-resume through the durable store, halted after the last
//!    store fault the scenario reaches, reproduces the uninterrupted run
//!    byte-for-byte.
//! 3. **Metrics reconciliation** — `strip_timings` metrics documents are
//!    byte-equal across all compared legs.
//!
//! Some seeds additionally arm the suspect-fraction budget
//! (`RunBudget::max_suspect_frac`) or a tiny checkpoint byte ceiling so
//! the `ResourceExhausted` / `Partial(ResourceBudget)` paths soak
//! alongside the fault paths.
//!
//! Everything is a pure function of the seed base, so a failing seed
//! reproduces anywhere: the failure message carries the seed and the
//! fault spec (feed it to `detect --inject`).

use crate::harness::{
    completion_tag, cross_runtime_comparable, fixture, has_deadline, Case, Resume, Runtime,
    RUNTIMES,
};
use rejecto_core::{FaultPlan, RejectoConfig, RunBudget};
use rejecto_obs::json_str;

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

// Bounds on the schedules `generate` draws, sized for the harness
// fixture (a few pruning rounds, a ~15-entry `k` sweep, one or two fetch
// batches a round).

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

/// Expands `seed` into a composite schedule. Pure: the same seed always
/// yields the same plan, on every machine. Each draw passes
/// `FaultPlan::parse`'s conflict check (one directive per injection
/// point), so the plan round-trips through its printed spec. A
/// `deadline=` directive may be drawn: deadline trips are wall-clock
/// dependent, so such a plan forfeits every byte-compare invariant and is
/// soaked for clean termination.
fn generate(seed: u64) -> FaultPlan {
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
    faults
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

/// Runs the whole soak. `Ok(summary)` when every seed upheld the trio.
pub fn run(seeds: u64, json_path: Option<&str>) -> Result<String, String> {
    // Injected worker panics are *expected* inside the soak and absorbed by
    // the retry machinery; the default hook would spray a backtrace per
    // injection over the log. Escaped panics still fail their seed via
    // the runner's `catch_unwind`, with the seed and fault spec in the
    // message; the soak reports them as errors, never by unwinding, so
    // the prior hook is back in place on every exit.
    let prior = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = soak(seeds, json_path);
    std::panic::set_hook(prior);
    result
}

fn soak(seeds: u64, json_path: Option<&str>) -> Result<String, String> {
    let mut records = Vec::new();
    let mut typed_errors = 0usize;
    let mut rebalances = 0u64;
    let mut resumes_checked = 0usize;
    let mut fallbacks = 0usize;
    let mut resumes_skipped = 0usize;
    let mut deadline_plans = 0usize;

    for i in 0..seeds {
        let seed = SEED_BASE + i;
        let plan = generate(seed);
        let spec = plan.to_string();
        if has_deadline(&plan) {
            deadline_plans += 1;
        }

        // The scenario's parameters come from the seed's side stream, so
        // the attack shape varies across seeds but never across runs.
        let mut rng = ChaosRng::new(seed ^ 0x5CEA_A210);
        let fakes = 30 + usize::try_from(rng.below(31)).expect("fake count fits in usize");
        let self_rejection = rng.chance(1, 2);
        let sim = fixture(seed, fakes, self_rejection);

        // A third of the seeds also arm the deterministic suspect-fraction
        // budget; every eighth arms a checkpoint byte ceiling far below any
        // real frame so the store's refusal path soaks too.
        let mut rng = ChaosRng::new(seed ^ 0xB0D6_E7ED);
        let suspect_frac = rng.chance(1, 3).then(|| 0.05 + (rng.below(30) as f64) / 100.0);
        let ckpt_limit = rng.chance(1, 8).then(|| 24 + rng.below(40));
        let budget = RunBudget { max_suspect_frac: suspect_frac, ..RunBudget::unlimited() };
        let config = RejectoConfig { budget, ..RejectoConfig::default() };

        let (compared_local, compared_cross) =
            (!has_deadline(&plan), cross_runtime_comparable(&plan));
        let case = Case { sim: &sim, config, plan, ckpt_limit };
        let outcome = case
            .run(Runtime::is_local)
            .map_err(|e| format!("chaos seed {seed} (faults `{spec}`): {e}"))?;

        let (mut local, mut distributed) = (Vec::new(), Vec::new());
        for leg in &outcome.legs {
            rebalances += leg.obs.volatile("io/shards_rebalanced");
            // A typed error is a legitimate soak outcome (e.g. a death
            // schedule outliving the respawn budget).
            let tag = match &leg.report {
                Ok(report) => completion_tag(report),
                Err(e) => {
                    typed_errors += 1;
                    format!("error:{e}")
                }
            };
            let side = if leg.rt.is_local() { &mut local } else { &mut distributed };
            side.push(tag);
        }
        let mut resume = Vec::new();
        for (_, r) in &outcome.resumes {
            resume.push(match r {
                Resume::Identical { skipped, .. } => {
                    resumes_checked += 1;
                    fallbacks += usize::from(*skipped > 0);
                    "ok".to_string()
                }
                Resume::Skipped(why) => {
                    resumes_skipped += 1;
                    format!("skipped:{why}")
                }
            });
        }
        if !compared_cross {
            resume.push("skipped:not-resume-comparable".to_string());
            resumes_skipped += 1;
        }

        records.push(SeedRecord {
            seed,
            spec,
            fakes,
            self_rejection,
            suspect_frac,
            ckpt_limit,
            local,
            distributed,
            compared_local,
            compared_cross,
            resume,
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

    let legs = seeds * RUNTIMES.len() as u64;
    Ok(format!(
        "chaos: OK — {seeds} seed(s) soaked at threads=1/4 and workers=1/4 \
         ({legs} legs, 0 panics); every leg terminated in \
         Complete/Partial/typed-error ({typed_errors} typed error(s) \
         absorbed, {rebalances} shard rebalance(s) on the distributed \
         legs); {resumes_checked} kill-and-resume leg(s) byte-identical \
         to their uninterrupted runs, {fallbacks} after falling back past \
         a rejected generation ({resumes_skipped} skipped: deadline plans, \
         persistent panics, or degenerate fixtures); {deadline_plans} \
         deadline plan(s) soaked for termination only; seed base \
         {SEED_BASE:#x}"
    ))
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
    use rejecto_core::Fault;

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
            assert_eq!(generate(seed), generate(seed), "seed {seed} is not reproducible");
        }
    }

    #[test]
    fn every_generated_plan_round_trips_through_its_spec() {
        for seed in 0..256 {
            let plan = generate(seed);
            assert!(!plan.faults().is_empty(), "seed {seed} drew no faults");
            let spec = plan.to_string();
            let reparsed = FaultPlan::parse(&spec)
                .unwrap_or_else(|e| panic!("seed {seed}: spec `{spec}` rejected: {e}"));
            assert_eq!(reparsed, plan, "seed {seed}: `{spec}`");
        }
    }

    #[test]
    fn the_seed_range_covers_every_fault_kind() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..256 {
            for f in generate(seed).faults() {
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
            assert_eq!(generate(seed).to_string(), want, "seed {seed}");
        }
    }

    /// A schedule of more than 3 deaths outlives one lineage's respawn
    /// budget, so the soak reaches the worker-lost and rebalance paths.
    #[test]
    fn the_ci_seeds_outlive_a_respawn_budget() {
        let most = (SEED_BASE..SEED_BASE + 16)
            .flat_map(|seed| generate(seed).faults().to_vec())
            .filter_map(|f| match f {
                Fault::WorkerDeath { deaths, .. } => Some(deaths),
                _ => None,
            })
            .max();
        assert!(most > Some(3), "the 16 CI seeds draw at most {most:?} deaths in a row");
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
