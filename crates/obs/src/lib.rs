//! Deterministic observability for the Rejecto reproduction.
//!
//! The paper's own scalability evidence is an *instrumented* prototype
//! (Table II reports per-stage timings of the distributed MAAR sweep), and
//! the ROADMAP's production posture needs the same visibility here: where a
//! detection spends its passes, how often the recovery ladder fires, how
//! big the checkpoints are. This crate is that layer — with one hard
//! constraint the usual metrics crates do not give us:
//!
//! **Everything outside the `timings` section is deterministic by
//! construction.** The repo's contract (`cargo xtask check --determinism`)
//! is that thread count, worker count, and recovered faults are invisible
//! in every artifact. Metrics join that contract: counters, histograms,
//! and span *counts* record algorithmic quantities (passes run, moves
//! committed, bytes checkpointed) whose integer totals are identical at
//! `threads=1` and `threads=4` because integer addition commutes. Anything
//! scheduling-dependent — wall-clock time, cancellation polls, I/O retry
//! counters — is quarantined in the segregated `timings` section, so the
//! rest of the document can be byte-compared across runs.
//!
//! The split, concretely:
//!
//! * [`Obs::incr`] / [`Obs::record`] / span **counts** — deterministic.
//!   Only record quantities derived from the algorithm's data, never from
//!   scheduling.
//! * [`Obs::volatile_incr`] and span **wall time** — land in `timings`.
//!   Poll counts, worker restarts, buffer traffic, elapsed nanoseconds.
//!
//! A second discipline this crate anchors: the `obs-discipline` xtask lint
//! bans ad-hoc `Instant::now()` outside this crate, so every timing either
//! flows through a [`SpanGuard`] (aggregated, reported) or an explicit
//! [`Stopwatch`] (for deadline arithmetic) — never an unreported
//! one-off measurement.
//!
//! The crate is dependency-free: handles are `Arc<Mutex<..>>` clones, maps
//! are `BTreeMap` (sorted, hasher-free iteration), and the JSON renderer
//! is hand-rolled so the byte layout is owned by this file and versioned
//! by [`SCHEMA`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Version tag of the JSON document layout. Bump on any change to the
/// top-level sections or the histogram encoding; the schema-stability
/// snapshot test in this crate pins the exact bytes.
pub const SCHEMA: &str = "rejecto-metrics/v1";

/// A power-of-two-bucket histogram over `u64` samples.
///
/// Bucket `b` counts samples whose bit length is `b` (so bucket 0 holds
/// exactly the zero samples, bucket 7 holds `64..=127`, ...). Count, sum,
/// min, and max are exact integers; nothing here is a float, so merged or
/// re-ordered recording yields identical state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let bit_len = u64::BITS - v.leading_zeros();
        *self.buckets.entry(bit_len).or_insert(0) += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpanStats {
    /// Completed entries (deterministic: one per scope that ran).
    count: u64,
    /// Total wall time spent inside the scope (timings section only).
    wall_ns: u128,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    volatile: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
}

/// A cheap, cloneable metrics registry handle. All clones share state, so
/// one `Obs` threaded through detector, solver, and cluster accumulates a
/// single document.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Arc<Mutex<Inner>>,
}

impl Obs {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Obs::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Recording must never abort a run: if a panicking thread poisoned
        // the registry, keep serving the data that is there.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `n` to the **deterministic** counter at `path`. Only record
    /// algorithmic quantities here — anything scheduling-dependent belongs
    /// in [`Obs::volatile_incr`].
    pub fn incr(&self, path: &str, n: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(path) {
            Some(c) => *c += n,
            None => {
                inner.counters.insert(path.to_string(), n);
            }
        }
    }

    /// Adds `n` to the **volatile** counter at `path`, reported inside the
    /// `timings` section (exempt from byte-comparison).
    pub fn volatile_incr(&self, path: &str, n: u64) {
        let mut inner = self.lock();
        match inner.volatile.get_mut(path) {
            Some(c) => *c += n,
            None => {
                inner.volatile.insert(path.to_string(), n);
            }
        }
    }

    /// Records one sample into the deterministic histogram at `path`.
    pub fn record(&self, path: &str, v: u64) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(path) {
            Some(h) => h.record(v),
            None => {
                let mut h = Histogram::default();
                h.record(v);
                inner.histograms.insert(path.to_string(), h);
            }
        }
    }

    /// Opens a hierarchical span at `path` (convention:
    /// `detect/round/sweep/k_index/kl_pass`). The returned guard records on
    /// drop: the span *count* is deterministic, the wall time goes to the
    /// `timings` section. Bind it (`let _span = ...`) for the scope being
    /// measured.
    #[expect(
        clippy::disallowed_methods,
        reason = "spans are the sanctioned clock reads; their time goes to the volatile timings section"
    )]
    pub fn span(&self, path: &str) -> SpanGuard {
        SpanGuard { obs: self.clone(), path: path.to_string(), start: Instant::now() }
    }

    /// Current value of a deterministic counter (0 when never written).
    pub fn counter(&self, path: &str) -> u64 {
        self.lock().counters.get(path).copied().unwrap_or(0)
    }

    /// Current value of a volatile counter (0 when never written).
    pub fn volatile(&self, path: &str) -> u64 {
        self.lock().volatile.get(path).copied().unwrap_or(0)
    }

    /// Completed-entry count of a span path (0 when never entered).
    pub fn span_count(&self, path: &str) -> u64 {
        self.lock().spans.get(path).map(|s| s.count).unwrap_or(0)
    }

    /// Snapshot of a histogram, if any sample was recorded at `path`.
    pub fn histogram(&self, path: &str) -> Option<Histogram> {
        self.lock().histograms.get(path).cloned()
    }

    fn record_span(&self, path: &str, wall: Duration) {
        let mut inner = self.lock();
        let stats = match inner.spans.get_mut(path) {
            Some(s) => s,
            None => {
                inner.spans.insert(path.to_string(), SpanStats::default());
                inner
                    .spans
                    .get_mut(path)
                    .expect("span entry was inserted immediately above")
            }
        };
        stats.count += 1;
        stats.wall_ns += wall.as_nanos();
    }

    /// The full versioned JSON document, `timings` section included. The
    /// `timings` member is always the last top-level key, which is what
    /// lets [`strip_timings`] operate on the rendered text.
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    /// The document **minus** the `timings` section: byte-identical across
    /// thread counts, worker counts, and recovered fault plans.
    pub fn deterministic_json(&self) -> String {
        self.render(false)
    }

    fn render(&self, with_timings: bool) -> String {
        let inner = self.lock();
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(SCHEMA));

        out.push_str("  \"counters\": {");
        render_u64_map(&mut out, inner.counters.iter().map(|(k, &v)| (k.as_str(), v)), "    ");
        out.push_str("},\n");

        out.push_str("  \"histograms\": {");
        let mut first = true;
        for (k, h) in &inner.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {}: {{ \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": {{",
                json_str(k),
                h.count,
                h.sum,
                h.min,
                h.max
            );
            let mut bfirst = true;
            for (b, n) in &h.buckets {
                if !bfirst {
                    out.push(',');
                }
                bfirst = false;
                let _ = write!(out, " \"{b}\": {n}");
            }
            out.push_str(" } }");
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("},\n");

        out.push_str("  \"spans\": {");
        render_u64_map(&mut out, inner.spans.iter().map(|(k, s)| (k.as_str(), s.count)), "    ");
        out.push('}');

        if with_timings {
            out.push_str(",\n  \"timings\": {\n    \"span_wall_ns\": {");
            let mut first = true;
            for (k, s) in &inner.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\n      {}: {}", json_str(k), s.wall_ns);
            }
            if !first {
                out.push_str("\n    ");
            }
            out.push_str("},\n    \"volatile\": {");
            let mut first = true;
            for (k, &v) in &inner.volatile {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\n      {}: {}", json_str(k), v);
            }
            if !first {
                out.push_str("\n    ");
            }
            out.push_str("}\n  }");
        }
        out.push_str("\n}");
        out
    }

    /// A short human-readable rendering for `--metrics -`.
    pub fn human_summary(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        let _ = writeln!(out, "metrics ({SCHEMA})");
        if !inner.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (k, v) in &inner.counters {
                let _ = writeln!(out, "  {k:<44} {v}");
            }
        }
        if !inner.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (k, h) in &inner.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<44} count {}  sum {}  min {}  max {}",
                    h.count, h.sum, h.min, h.max
                );
            }
        }
        if !inner.spans.is_empty() {
            let _ = writeln!(out, "spans (count, total wall):");
            for (k, s) in &inner.spans {
                let ms = s.wall_ns / 1_000_000;
                let frac = (s.wall_ns % 1_000_000) / 100_000;
                let _ = writeln!(out, "  {k:<44} {}  {ms}.{frac}ms", s.count);
            }
        }
        if !inner.volatile.is_empty() {
            let _ = writeln!(out, "volatile (timings section, run-dependent):");
            for (k, v) in &inner.volatile {
                let _ = writeln!(out, "  {k:<44} {v}");
            }
        }
        out
    }
}

/// Renders `"key": value` pairs of a string→u64 map section.
fn render_u64_map<'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a str, u64)>,
    indent: &str,
) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n{indent}{}: {v}", json_str(k));
    }
    if !first {
        out.push_str("\n  ");
    }
}

/// Renders `s` as a quoted JSON string, escaping quotes, backslashes and
/// every control character, so no input can corrupt the document.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Removes the `timings` member from a rendered metrics document, leaving
/// exactly the bytes of [`Obs::deterministic_json`]. Returns the input
/// unchanged when no `timings` member is present (already deterministic).
/// This is what the determinism harness byte-diffs: two `--metrics` files
/// from different thread/worker counts must agree after this strip.
pub fn strip_timings(json: &str) -> String {
    match json.find(",\n  \"timings\": {") {
        Some(at) => {
            let mut out = json[..at].to_string();
            out.push_str("\n}");
            // Preserve a trailing newline if the document had one.
            if json.ends_with('\n') {
                out.push('\n');
            }
            out
        }
        None => json.to_string(),
    }
}

/// The scope guard returned by [`Obs::span`]; records count and wall time
/// on drop.
#[must_use = "a span measures the scope it is bound to; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct SpanGuard {
    obs: Obs,
    path: String,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.obs.record_span(&self.path, self.start.elapsed());
    }
}

/// The one sanctioned way to measure elapsed wall time outside this crate
/// (the `obs-discipline` lint bans ad-hoc `Instant::now()`): deadline
/// arithmetic and watchdog budgets wrap their clock in a `Stopwatch` so
/// every timing site is explicit and greppable.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    #[expect(
        clippy::disallowed_methods,
        reason = "the Stopwatch is the sanctioned clock read for deadline arithmetic"
    )]
    pub fn start() -> Self {
        Stopwatch { start: Instant::now() }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let obs = Obs::new();
        assert_eq!(obs.counter("kl/passes"), 0);
        obs.incr("kl/passes", 2);
        obs.incr("kl/passes", 3);
        assert_eq!(obs.counter("kl/passes"), 5);
        assert_eq!(obs.volatile("kl/passes"), 0, "sections are separate namespaces");
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::new();
        let clone = obs.clone();
        clone.incr("detect/rounds", 1);
        clone.volatile_incr("cancel/polls", 7);
        assert_eq!(obs.counter("detect/rounds"), 1);
        assert_eq!(obs.volatile("cancel/polls"), 7);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 127, 128] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 265);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 128);
        // 0 → bucket 0; 1 → 1; 2,3 → 2; 4 → 3; 127 → 7; 128 → 8.
        let got: Vec<(u32, u64)> = h.buckets.iter().map(|(&b, &n)| (b, n)).collect();
        assert_eq!(got, vec![(0, 1), (1, 1), (2, 2), (3, 1), (7, 1), (8, 1)]);
    }

    #[test]
    fn span_guard_records_count_on_drop() {
        let obs = Obs::new();
        {
            let _outer = obs.span("detect");
            for _ in 0..3 {
                let _inner = obs.span("detect/round");
            }
            assert_eq!(obs.span_count("detect"), 0, "open span not yet recorded");
        }
        assert_eq!(obs.span_count("detect"), 1);
        assert_eq!(obs.span_count("detect/round"), 3);
    }

    #[test]
    fn deterministic_json_is_order_insensitive_and_timing_free() {
        let a = Obs::new();
        a.incr("x", 1);
        a.incr("y", 2);
        a.volatile_incr("polls", 10);
        let b = Obs::new();
        b.volatile_incr("polls", 99_999);
        b.incr("y", 2);
        b.incr("x", 1);
        {
            let _span_only_wall_differs = a.span("s");
        }
        {
            let _span_only_wall_differs = b.span("s");
        }
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        assert_ne!(
            a.deterministic_json(),
            a.to_json(),
            "the full document must carry the timings section"
        );
    }

    #[test]
    fn strip_timings_recovers_the_deterministic_document() {
        let obs = Obs::new();
        obs.incr("detect/rounds", 2);
        obs.record("detect/checkpoint_bytes", 100);
        obs.volatile_incr("io/worker_restarts", 1);
        {
            let _span = obs.span("detect");
        }
        assert_eq!(strip_timings(&obs.to_json()), obs.deterministic_json());
        // Idempotent, and a trailing newline (file form) is preserved.
        assert_eq!(strip_timings(&obs.deterministic_json()), obs.deterministic_json());
        let file_form = format!("{}\n", obs.to_json());
        assert_eq!(strip_timings(&file_form), format!("{}\n", obs.deterministic_json()));
    }

    /// Schema-stability snapshot: the exact bytes of the deterministic
    /// document. Any layout change must bump [`SCHEMA`] and update this
    /// expectation deliberately.
    #[test]
    fn schema_snapshot_is_stable() {
        let obs = Obs::new();
        obs.incr("detect/rounds", 2);
        obs.incr("kl/moves_committed", 41);
        obs.record("detect/checkpoint_bytes", 1000);
        obs.record("detect/checkpoint_bytes", 0);
        obs.volatile_incr("cancel/polls", 9);
        {
            let _span = obs.span("detect");
        }
        let expected = concat!(
            "{\n",
            "  \"schema\": \"rejecto-metrics/v1\",\n",
            "  \"counters\": {\n",
            "    \"detect/rounds\": 2,\n",
            "    \"kl/moves_committed\": 41\n",
            "  },\n",
            "  \"histograms\": {\n",
            "    \"detect/checkpoint_bytes\": { \"count\": 2, \"sum\": 1000, ",
            "\"min\": 0, \"max\": 1000, \"buckets\": { \"0\": 1, \"10\": 1 } }\n",
            "  },\n",
            "  \"spans\": {\n",
            "    \"detect\": 1\n",
            "  }\n",
            "}"
        );
        assert_eq!(obs.deterministic_json(), expected);
    }

    #[test]
    fn empty_registry_renders_empty_sections() {
        let obs = Obs::new();
        let expected = concat!(
            "{\n",
            "  \"schema\": \"rejecto-metrics/v1\",\n",
            "  \"counters\": {},\n",
            "  \"histograms\": {},\n",
            "  \"spans\": {}\n",
            "}"
        );
        assert_eq!(obs.deterministic_json(), expected);
        let full = obs.to_json();
        assert!(full.contains("\"timings\""));
        assert_eq!(strip_timings(&full), expected);
    }

    #[test]
    fn json_strings_escape_the_dangerous_cases() {
        assert_eq!(json_str("a/b"), "\"a/b\"");
        assert_eq!(json_str("q\"x\\y\n"), "\"q\\\"x\\\\y\\n\"");
        assert_eq!(json_str("\r\t\u{1}"), "\"\\r\\t\\u0001\"");
    }

    #[test]
    fn human_summary_mentions_every_section_present() {
        let obs = Obs::new();
        obs.incr("detect/rounds", 1);
        obs.record("detect/checkpoint_bytes", 64);
        obs.volatile_incr("cancel/polls", 3);
        {
            let _span = obs.span("detect");
        }
        let s = obs.human_summary();
        assert!(s.contains("counters:"), "{s}");
        assert!(s.contains("detect/rounds"), "{s}");
        assert!(s.contains("histograms:"), "{s}");
        assert!(s.contains("spans"), "{s}");
        assert!(s.contains("volatile"), "{s}");
    }

    #[test]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed() <= Duration::from_secs(60), "sanity: monotonic and small");
    }
}
