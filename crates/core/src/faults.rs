//! Deterministic fault injection for the detection runtime.
//!
//! The fault-tolerance contract (worker panics become
//! [`crate::RuntimeError::WorkerFailed`], lost checkpoints become
//! [`crate::RuntimeError::CheckpointIo`], deadlines become `Partial`
//! reports) is only trustworthy if it is *exercised*, and real faults are
//! rare and nondeterministic. This module arms synthetic faults that fire
//! at exact, reproducible points — a named sweep index, a named pruning
//! round, a fixed deadline — so `crates/core/tests/faults.rs` and the CI
//! fault matrix can assert the degraded outputs byte-for-byte.
//!
//! A plan is declarative ([`FaultPlan`], parsed from
//! `--inject worker_panic@k=3,io_error@round=2,deadline=50ms`), a run
//! input attached with a detector's `set_faults` and
//! [`crate::CheckpointStore::with_faults`]. Each run arms a fresh
//! [`Faults`] table in [`crate::RunContext::armed`], probed by the sweep
//! workers, the pruning loop's checkpoint write and the cluster master;
//! the store arms its own, probed only for torn writes and bit flips, so
//! no one-shot fault fires twice in a run. The injected deadline is read
//! off the plan ([`FaultPlan::deadline`]) when the context arms its token.
//! An empty plan is free: every probe is a single cheap check against an
//! empty table.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One synthetic fault at a deterministic trigger point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Panic inside the sweep worker solving sweep index `k_index`.
    /// One-shot by default (the deterministic retry then succeeds, proving
    /// retry-equality); `persistent` also panics on every retry (proving
    /// the degraded-report path).
    WorkerPanic {
        /// Sweep index whose worker panics.
        k_index: usize,
        /// Whether the retry panics too.
        persistent: bool,
    },
    /// Fail the checkpoint write after pruning round `round` (1-based)
    /// with a synthetic I/O error.
    CheckpointIoError {
        /// Round whose checkpoint write fails.
        round: usize,
    },
    /// Arm a wall-clock deadline of `millis` milliseconds on the run, as
    /// if [`crate::RunBudget::deadline`] had been set.
    Deadline {
        /// Deadline in milliseconds.
        millis: u64,
    },
    /// Kill a distributed worker immediately before the cluster's
    /// `fetch`-numbered fetch batch (1-based), `deaths` times in a row —
    /// each lineage respawn dies again until the schedule is spent, so
    /// `deaths` larger than the cluster's respawn budget exercises shard
    /// rebalancing. Parsed from `worker_death@fetch=<n>[:x<m>]`.
    WorkerDeath {
        /// 1-based fetch batch at which the schedule starts firing.
        fetch: u64,
        /// Consecutive deaths (respawns that die again); at least 1.
        deaths: u32,
    },
    /// Make the first master↔worker request of the cluster's
    /// `fetch`-numbered fetch batch (1-based, the clock
    /// [`Fault::WorkerDeath`] keys on) hang: the request is swallowed and
    /// the worker never answers, so the per-request watchdog — not channel
    /// disconnection — must detect it. One-shot. Parsed from
    /// `worker_hang@fetch=<n>`.
    WorkerHang {
        /// 1-based fetch batch whose first request hangs.
        fetch: u64,
    },
    /// Tear the durable write of the checkpoint generation for round
    /// `round` (1-based): only the first half of the framed bytes reach
    /// disk, as if the process died mid-write on a filesystem without the
    /// atomic-rename protocol. Parsed from `torn_write@round=<r>`;
    /// probed by the checkpoint store.
    TornWrite {
        /// 1-based round whose generation file is truncated.
        round: usize,
    },
    /// Flip one bit in the middle of the framed checkpoint generation for
    /// round `round` (1-based) before it reaches disk — silent media
    /// corruption that only the CRC32 envelope can catch. Parsed from
    /// `bit_flip@round=<r>`; probed by the checkpoint store.
    BitFlip {
        /// 1-based round whose generation file is corrupted.
        round: usize,
    },
}

/// What may follow a directive's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Suffix {
    /// Nothing.
    Bare,
    /// `:always`: the panic fires on every retry too.
    Always,
    /// `:x<m>`: `m ≥ 1` consecutive deaths; one death renders bare.
    Repeat,
    /// `ms`, optional on parse; the value is a duration, not a position.
    Millis,
}

/// One directive form of the `--inject` grammar: `name@key=<n>` followed
/// by its suffix, or `name=<n>ms` for the keyless deadline.
#[derive(Debug)]
struct Form {
    /// Directive name.
    name: &'static str,
    /// Trigger key after the `@`; empty for the deadline.
    key: &'static str,
    /// What the value counts, for error messages.
    noun: &'static str,
    /// Lowest admitted value: 1 for the 1-based rounds and fetch batches.
    first: u64,
    /// What may follow the value.
    suffix: Suffix,
    /// The injection point the directive occupies. The store consumes
    /// one mangle per generation, so `torn_write` and `bit_flip` share one.
    point: &'static str,
}

/// The `--inject` grammar, one row per [`Fault`] variant in declaration
/// order; [`FaultPlan::parse`], `Display for Fault` and
/// [`Fault::injection_point`] all read it. Columns: name, trigger key,
/// noun, lowest value, suffix, injection point.
const FORMS: [Form; 7] = [
    Form::new("worker_panic", "k", "sweep index", 0, Suffix::Always, "worker_panic"),
    Form::new("io_error", "round", "round", 1, Suffix::Bare, "io_error"),
    Form::new("deadline", "", "deadline", 0, Suffix::Millis, "deadline"),
    Form::new("worker_death", "fetch", "fetch number", 1, Suffix::Repeat, "worker_death"),
    Form::new("worker_hang", "fetch", "fetch number", 1, Suffix::Bare, "worker_hang"),
    Form::new("torn_write", "round", "round", 1, Suffix::Bare, "store mangle"),
    Form::new("bit_flip", "round", "round", 1, Suffix::Bare, "store mangle"),
];

impl Form {
    const fn new(
        name: &'static str,
        key: &'static str,
        noun: &'static str,
        first: u64,
        suffix: Suffix,
        point: &'static str,
    ) -> Form {
        Form { name, key, noun, first, suffix, point }
    }

    /// The directive text before its value: `name@key=`, or `name=`.
    fn prefix(&self) -> String {
        let at = if self.key.is_empty() { "" } else { "@" };
        format!("{}{at}{}=", self.name, self.key)
    }

    /// The "expected ..." of a malformed directive: its bare spelling,
    /// its suffixed one when it has one, and its lowest value.
    fn usage(&self) -> String {
        let unit = if self.suffix == Suffix::Millis { "ms" } else { "" };
        let bare = format!("{}<n>{unit}", self.prefix());
        let floor = if self.first > 0 { ", n ≥ 1" } else { "" };
        match self.suffix {
            Suffix::Always => format!("{bare} or {bare}:always{floor}"),
            Suffix::Repeat => format!("{bare} or {bare}:x<m>{floor}, m ≥ 1"),
            Suffix::Bare | Suffix::Millis => format!("{bare}{floor}"),
        }
    }

    /// The fault directive `part` spells; it starts with this form's
    /// prefix, cut off as `rest`.
    fn read(&self, part: &str, rest: &str) -> Result<Fault, String> {
        let bad = |what: &str| format!("bad {what} in `{part}`: expected {}", self.usage());
        // The suffix count: 1 for `:always`, the deaths of `:x<m>` (1
        // without one), otherwise 0.
        let (value, count) = match self.suffix {
            Suffix::Bare => (rest, 0),
            Suffix::Millis => (rest.strip_suffix("ms").unwrap_or(rest), 0),
            Suffix::Always => rest.strip_suffix(":always").map_or((rest, 0), |v| (v, 1)),
            Suffix::Repeat => match rest.split_once(":x") {
                Some((v, m)) => {
                    let m = m.parse::<u32>().ok().filter(|&m| m > 0);
                    (v, m.ok_or_else(|| bad("repeat count"))?)
                }
                None => (rest, 1),
            },
        };
        let value = value.parse::<u64>().ok().filter(|&v| v >= self.first);
        let value = value.ok_or_else(|| bad(self.noun))?;
        let narrow = || usize::try_from(value).map_err(|_| bad(self.noun));
        Ok(match self.name {
            "worker_panic" => Fault::WorkerPanic { k_index: narrow()?, persistent: count > 0 },
            "io_error" => Fault::CheckpointIoError { round: narrow()? },
            "deadline" => Fault::Deadline { millis: value },
            "worker_death" => Fault::WorkerDeath { fetch: value, deaths: count },
            "worker_hang" => Fault::WorkerHang { fetch: value },
            "torn_write" => Fault::TornWrite { round: narrow()? },
            _ => Fault::BitFlip { round: narrow()? },
        })
    }
}

impl Fault {
    /// This fault as a row of [`FORMS`], its value, and its suffix count
    /// (as [`Form::read`] counts it).
    fn spelling(self) -> (&'static Form, u64, u32) {
        let wide = |i: usize| u64::try_from(i).expect("index fits in u64");
        match self {
            Fault::WorkerPanic { k_index, persistent } => {
                (&FORMS[0], wide(k_index), u32::from(persistent))
            }
            Fault::CheckpointIoError { round } => (&FORMS[1], wide(round), 0),
            Fault::Deadline { millis } => (&FORMS[2], millis, 0),
            Fault::WorkerDeath { fetch, deaths } => (&FORMS[3], fetch, deaths),
            Fault::WorkerHang { fetch } => (&FORMS[4], fetch, 0),
            Fault::TornWrite { round } => (&FORMS[5], wide(round), 0),
            Fault::BitFlip { round } => (&FORMS[6], wide(round), 0),
        }
    }

    /// The injection point this fault occupies, as a `(kind, position)`
    /// key. [`FaultPlan::parse`] rejects two directives with the same key:
    /// which one "wins" would otherwise be silent order-dependence. Both
    /// store mangles share a key, and only one deadline directive is
    /// admitted.
    pub(crate) fn injection_point(&self) -> (&'static str, u64) {
        let (form, value, _) = self.spelling();
        (form.point, if form.suffix == Suffix::Millis { 0 } else { value })
    }
}

impl fmt::Display for Fault {
    /// Renders the exact [`FaultPlan::parse`] grammar, so plans round-trip:
    /// `parse(plan.to_string()) == plan` for every parseable plan.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (form, value, count) = self.spelling();
        write!(f, "{}{value}", form.prefix())?;
        match form.suffix {
            Suffix::Always if count > 0 => f.write_str(":always"),
            Suffix::Repeat if count > 1 => write!(f, ":x{count}"),
            Suffix::Millis => f.write_str("ms"),
            _ => Ok(()),
        }
    }
}

/// A declarative list of faults to arm for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl fmt::Display for FaultPlan {
    /// The comma-separated [`FaultPlan::parse`] syntax; the empty plan
    /// renders as the empty string.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults, in plan order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Adds the fault that directive `part` spells, rejecting it if an
    /// earlier directive already claimed its injection point, instead of
    /// the silent last-wins (or first-wins, depending on the consumer)
    /// order-dependence the plan text would otherwise have. Every plan is
    /// built through this check, so every plan is conflict-free.
    fn push_directive(&mut self, fault: Fault, part: &str) -> Result<(), String> {
        let key = fault.injection_point();
        if let Some(prior) = self.faults.iter().find(|f| f.injection_point() == key) {
            return Err(format!(
                "conflicting directive `{part}`: `{prior}` already arms the \
                 {} injection point",
                key.0
            ));
        }
        self.faults.push(fault);
        Ok(())
    }

    /// Parses the `--inject` syntax: a comma-separated list of
    /// `worker_panic@k=<i>`, `worker_panic@k=<i>:always`,
    /// `io_error@round=<r>`, `deadline=<ms>ms`, the distributed forms
    /// `worker_death@fetch=<n>[:x<m>]` (a repeated-death schedule) and
    /// `worker_hang@fetch=<n>`, and the durable-store forms
    /// `torn_write@round=<r>` and `bit_flip@round=<r>`. An empty string
    /// parses to the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed spec.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|part| !part.is_empty()) {
            let matched = FORMS.iter().find_map(|form| {
                part.strip_prefix(form.prefix().as_str()).map(|rest| form.read(part, rest))
            });
            let Some(fault) = matched else {
                let forms: Vec<String> = FORMS.iter().map(Form::usage).collect();
                return Err(format!("unknown fault `{part}`: expected {}", forms.join("; ")));
            };
            plan.push_directive(fault?, part)?;
        }
        Ok(plan)
    }

    /// The injected wall-clock deadline: the plan's one `deadline` fault,
    /// if it has one.
    pub fn deadline(&self) -> Option<Duration> {
        self.faults.iter().find_map(|f| match *f {
            Fault::Deadline { millis } => Some(Duration::from_millis(millis)),
            _ => None,
        })
    }
}

/// The runtime side of a [`FaultPlan`]: a table of armed faults that
/// injection points probe. A run context's table serves the sweep
/// workers, the pruning loop's checkpoint write and the cluster master; a
/// checkpoint store's table serves its mangles (see the module docs). A
/// probe takes the first live fault of its own kind at its position;
/// one-shot faults are spent by that probe, `:always` panics stay live.
/// Clones share the table, so a one-shot fault fires exactly once per
/// table no matter how many workers, rounds or clusters probe it.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    armed: Arc<Mutex<Vec<(Fault, bool)>>>,
}

impl Faults {
    /// Arms every fault of `plan` for one run.
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        let armed = plan.faults().iter().map(|&fault| (fault, false)).collect();
        Faults { armed: Arc::new(Mutex::new(armed)) }
    }

    /// The one take rule: the first unspent fault `hit` selects, spent
    /// unless it is an `:always` panic.
    fn take(&self, hit: impl Fn(Fault) -> bool) -> Option<Fault> {
        let mut armed = self.armed.lock().expect("fault-table mutex poisoned");
        let (fault, spent) = armed.iter_mut().find(|(fault, spent)| !*spent && hit(*fault))?;
        *spent = !matches!(fault, Fault::WorkerPanic { persistent: true, .. });
        Some(*fault)
    }

    /// Whether the sweep worker solving sweep index `k_index` panics now.
    pub(crate) fn sweep_panic(&self, k_index: usize) -> bool {
        self.take(|f| matches!(f, Fault::WorkerPanic { k_index: k, .. } if k == k_index)).is_some()
    }

    /// Whether the checkpoint write after `round` fails.
    pub(crate) fn checkpoint_io_error(&self, round: usize) -> bool {
        self.take(|f| f == Fault::CheckpointIoError { round }).is_some()
    }

    /// Consecutive worker deaths scheduled to start at the 1-based fetch
    /// batch `fetch`; each schedule fires for one fetch batch per run.
    pub fn deaths_at(&self, fetch: u64) -> u32 {
        let at_fetch = |f: Fault| matches!(f, Fault::WorkerDeath { fetch: at, .. } if at == fetch);
        let mut total = 0;
        while let Some(Fault::WorkerDeath { deaths, .. }) = self.take(at_fetch) {
            total += deaths;
        }
        total
    }

    /// Whether the first request of the 1-based fetch batch `fetch` hangs.
    pub fn hang_at(&self, fetch: u64) -> bool {
        self.take(|f| f == Fault::WorkerHang { fetch }).is_some()
    }

    /// The store mangle (a [`Fault::TornWrite`] or [`Fault::BitFlip`])
    /// armed for the checkpoint generation of `round`, if any.
    pub(crate) fn mangle_at(&self, round: usize) -> Option<Fault> {
        self.take(|f| {
            matches!(f, Fault::TornWrite { round: r } | Fault::BitFlip { round: r } if r == round)
        })
    }
}

/// Trips an injected worker panic. The single sanctioned `panic!` of the
/// runtime path: it exists to *test* the panic-catching machinery, and the
/// pool converts it straight back into a [`crate::RuntimeError`].
pub(crate) fn trigger_injected_panic(k_index: usize) -> ! {
    panic!("injected worker panic at sweep index {k_index}") // xtask-allow: no-panic
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_syntax() {
        let plan = FaultPlan::parse("worker_panic@k=3,io_error@round=2,deadline=50ms")
            .expect("spec is well-formed");
        assert_eq!(
            plan.faults(),
            &[
                Fault::WorkerPanic { k_index: 3, persistent: false },
                Fault::CheckpointIoError { round: 2 },
                Fault::Deadline { millis: 50 },
            ]
        );
    }

    #[test]
    fn parses_persistent_panics_and_bare_deadlines() {
        let plan =
            FaultPlan::parse("worker_panic@k=0:always, deadline=120").expect("spec is well-formed");
        assert_eq!(
            plan.faults(),
            &[
                Fault::WorkerPanic { k_index: 0, persistent: true },
                Fault::Deadline { millis: 120 },
            ]
        );
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        assert!(FaultPlan::parse("").expect("empty spec parses").is_empty());
        assert!(FaultPlan::parse(" , ").expect("blank items parse").is_empty());
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "worker_panic@k=x",
            "io_error@round=0",
            "io_error@round=",
            "boom",
            "deadline=fast",
            "worker_death@fetch=0",
            "worker_death@fetch=x",
            "worker_death@fetch=3:x0",
            "worker_death@fetch=3:xq",
            "worker_hang@fetch=",
            "worker_hang@fetch=0",
            "worker_hang@k=3",
            "torn_write@round=0",
            "torn_write@round=x",
            "bit_flip@round=0",
            "bit_flip@round=",
        ] {
            let err = FaultPlan::parse(bad).expect_err("spec must be rejected");
            assert!(err.contains(bad.split('=').next().unwrap_or(bad)), "{bad}: {err}");
        }
    }

    #[test]
    fn parses_the_distributed_forms() {
        let plan =
            FaultPlan::parse("worker_death@fetch=7,worker_death@fetch=2:x5,worker_hang@fetch=3")
                .expect("spec is well-formed");
        assert_eq!(
            plan.faults(),
            &[
                Fault::WorkerDeath { fetch: 7, deaths: 1 },
                Fault::WorkerDeath { fetch: 2, deaths: 5 },
                Fault::WorkerHang { fetch: 3 },
            ]
        );
    }

    #[test]
    fn parses_the_store_forms() {
        let plan = FaultPlan::parse("torn_write@round=2,bit_flip@round=3")
            .expect("spec is well-formed");
        assert_eq!(
            plan.faults(),
            &[Fault::TornWrite { round: 2 }, Fault::BitFlip { round: 3 }]
        );
    }

    #[test]
    fn store_mangles_are_one_shot_and_shared() {
        let plan = FaultPlan::parse("torn_write@round=2,bit_flip@round=4")
            .expect("spec is well-formed");
        let faults = Faults::new(&plan);
        let clone = faults.clone();
        assert_eq!(faults.mangle_at(1), None);
        assert_eq!(clone.mangle_at(2), Some(Fault::TornWrite { round: 2 }));
        assert_eq!(faults.mangle_at(2), None, "clone must consume the shared mangle");
        assert_eq!(faults.mangle_at(4), Some(Fault::BitFlip { round: 4 }));
    }

    #[test]
    fn death_schedules_are_consumed_once() {
        let plan = FaultPlan::parse("worker_death@fetch=2:x3").expect("spec is well-formed");
        let faults = Faults::new(&plan);
        assert_eq!(faults.deaths_at(1), 0);
        assert_eq!(faults.deaths_at(2), 3);
        assert_eq!(faults.deaths_at(2), 0, "a schedule fires for one fetch batch only");
    }

    #[test]
    fn hangs_are_one_shot_and_shared() {
        let plan =
            FaultPlan::parse("worker_hang@fetch=4,deadline=30ms").expect("spec is well-formed");
        let faults = Faults::new(&plan);
        let clone = faults.clone();
        assert_eq!(plan.deadline(), Some(Duration::from_millis(30)));
        assert!(!faults.hang_at(3));
        assert!(clone.hang_at(4));
        assert!(!faults.hang_at(4), "clone must consume the shared hang");
    }

    /// One plan arms every fault kind at its own position of `0..=8`; each
    /// probe must fire at its own positions only (never at another kind's),
    /// and a one-shot fault taken through a clone is spent for the original.
    #[test]
    fn each_probe_fires_only_for_its_own_kind() {
        let plan = FaultPlan::parse(
            "deadline=30ms,worker_panic@k=1,io_error@round=2,worker_death@fetch=3:x2,\
             worker_hang@fetch=4,torn_write@round=5,bit_flip@round=6,worker_panic@k=7:always",
        )
        .expect("spec is well-formed");
        let faults = Faults::new(&plan);
        let clone = faults.clone();
        type Probe = fn(&Faults, usize) -> bool;
        let rows: [(&str, Probe, &[usize], &[usize]); 5] = [
            ("sweep panic", |f, i| f.sweep_panic(i), &[1, 7], &[7]),
            ("checkpoint I/O error", |f, i| f.checkpoint_io_error(i), &[2], &[]),
            (
                "deaths at a fetch",
                |f, i| f.deaths_at(u64::try_from(i).expect("small fetch")) > 0,
                &[3],
                &[],
            ),
            (
                "hang at a fetch",
                |f, i| f.hang_at(u64::try_from(i).expect("small fetch")),
                &[4],
                &[],
            ),
            ("store mangle at a round", |f, i| f.mangle_at(i).is_some(), &[5, 6], &[]),
        ];
        for (name, probe, first, again) in rows {
            let fired: Vec<usize> = (0..=8).filter(|&i| probe(&clone, i)).collect();
            assert_eq!(fired, first, "{name}: first probe through the clone");
            let fired: Vec<usize> = (0..=8).filter(|&i| probe(&faults, i)).collect();
            assert_eq!(fired, again, "{name}: one-shot faults are spent");
        }
        for _ in 0..3 {
            assert!(faults.sweep_panic(7), "an :always panic keeps firing");
        }
    }

    #[test]
    fn one_shot_panic_fires_exactly_once() {
        let plan = FaultPlan::parse("worker_panic@k=2").expect("spec is well-formed");
        let faults = Faults::new(&plan);
        assert!(!faults.sweep_panic(1));
        assert!(faults.sweep_panic(2));
        assert!(!faults.sweep_panic(2), "one-shot fault must be consumed");
    }

    #[test]
    fn persistent_panic_keeps_firing() {
        let plan = FaultPlan::parse("worker_panic@k=2:always").expect("spec is well-formed");
        let faults = Faults::new(&plan);
        assert!(faults.sweep_panic(2));
        assert!(faults.sweep_panic(2));
    }

    #[test]
    fn clones_share_consumption_state() {
        let plan = FaultPlan::parse("io_error@round=1").expect("spec is well-formed");
        let faults = Faults::new(&plan);
        let clone = faults.clone();
        assert!(clone.checkpoint_io_error(1));
        assert!(!faults.checkpoint_io_error(1), "clone must consume the shared fault");
    }

    #[test]
    fn duplicate_directives_for_one_injection_point_are_rejected() {
        for spec in [
            "worker_panic@k=3,worker_panic@k=3:always",
            "io_error@round=2,io_error@round=2",
            "deadline=80ms,deadline=50ms",
            "worker_death@fetch=2,worker_death@fetch=2:x5",
            "worker_hang@fetch=1,worker_hang@fetch=1",
            "torn_write@round=2,torn_write@round=2",
            "bit_flip@round=3,bit_flip@round=3",
            // torn_write and bit_flip share the store's one-mangle-per-
            // round injection point, so they conflict rather than compose.
            "torn_write@round=2,bit_flip@round=2",
        ] {
            let err = FaultPlan::parse(spec).expect_err("conflicting spec must be rejected");
            assert!(err.contains("conflicting directive"), "{spec}: {err}");
            assert!(err.contains("already arms"), "{spec}: {err}");
        }
    }

    #[test]
    fn distinct_injection_points_do_not_conflict() {
        let plan = FaultPlan::parse(
            "worker_panic@k=1,worker_panic@k=2,io_error@round=1,io_error@round=2,\
             torn_write@round=1,bit_flip@round=2",
        )
        .expect("distinct points are fine");
        assert_eq!(plan.faults().len(), 6);
    }

    #[test]
    fn worker_death_hint_names_both_forms() {
        let err = FaultPlan::parse("worker_death@fetch=nope").expect_err("malformed");
        assert!(err.contains("worker_death@fetch=<n>"), "{err}");
        assert!(err.contains("worker_death@fetch=<n>:x<m>"), "{err}");
    }

    #[test]
    fn display_renders_the_parse_grammar() {
        let spec = "worker_panic@k=3:always,io_error@round=2,deadline=50ms,\
                    worker_death@fetch=7,worker_death@fetch=2:x5,worker_hang@fetch=3,\
                    torn_write@round=1,bit_flip@round=4";
        let plan = FaultPlan::parse(spec).expect("spec is well-formed");
        assert_eq!(plan.to_string(), spec.replace(char::is_whitespace, ""));
        assert_eq!(FaultPlan::none().to_string(), "");
    }

    proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Render ↔ parse round-trip: any conflict-free plan survives
        /// `parse(render(plan))` exactly.
        #[test]
        fn display_parse_round_trips(plan in arbitrary_plan()) {
            let rendered = plan.to_string();
            let reparsed = FaultPlan::parse(&rendered)
                .map_err(|e| format!("rendered plan must reparse: {rendered}: {e}"))?;
            prop_assert_eq!(&reparsed, &plan, "{}", rendered);
        }
    }

    use proptest::prelude::*;

    /// A conflict-free random plan: a draw that lands on an injection
    /// point an earlier draw took is dropped.
    fn arbitrary_plan() -> impl Strategy<Value = FaultPlan> {
        proptest::collection::vec((0u8..7, 1u64..9, any::<bool>()), 0..8).prop_map(|specs| {
            let mut plan = FaultPlan::none();
            for (kind, at, flag) in specs {
                let fault = match kind {
                    0 => Fault::WorkerPanic {
                        k_index: usize::try_from(at).expect("small index"),
                        persistent: flag,
                    },
                    1 => Fault::CheckpointIoError {
                        round: usize::try_from(at).expect("small round"),
                    },
                    2 => Fault::Deadline { millis: at },
                    3 => Fault::WorkerDeath {
                        fetch: at,
                        deaths: if flag { 3 } else { 1 },
                    },
                    4 => Fault::WorkerHang { fetch: at },
                    5 => Fault::TornWrite { round: usize::try_from(at).expect("small round") },
                    _ => Fault::BitFlip { round: usize::try_from(at).expect("small round") },
                };
                let _ = plan.push_directive(fault, &fault.to_string());
            }
            plan
        })
    }
}
