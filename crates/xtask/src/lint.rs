//! The token-level lint pass behind `cargo xtask check`.
//!
//! Twelve rules, all enforcing the determinism-and-robustness contract
//! the reproduction depends on (DESIGN.md §8 and §12). The first six
//! date from PR 2 and are re-expressed here over a real token stream
//! ([`crate::lexer`]); the rest exist *because* of the token stream
//! — they are not expressible at line granularity:
//!
//! 1. **no-unwrap** — library crates may not call `.unwrap()`; failures
//!    must surface either as `Result`s or as `.expect("<invariant>")`
//!    with a message long enough to actually state the invariant.
//! 2. **no-unseeded-rng** — `thread_rng()` draws from OS entropy and
//!    destroys run-to-run reproducibility; every RNG in the pipeline must
//!    be seeded (`ChaCha8Rng::seed_from_u64`).
//! 3. **no-hash-collections** — the deterministic kernels (`socialgraph`,
//!    `kl`, `core`) and the distributed runtime (`dataflow`) may not use
//!    `HashMap`/`HashSet`: iteration order is hasher-seed-dependent. Use
//!    `BTreeMap`/`BTreeSet`, sorted `Vec`s, or dense id-indexed arrays.
//! 4. **forbid-unsafe** — every crate root must carry
//!    `#![forbid(unsafe_code)]`.
//! 5. **no-panic** — library *runtime* paths (the `/src/` trees of the
//!    [`NO_UNWRAP_CRATES`], outside `#[cfg(test)]` modules and the
//!    dedicated invariants modules) may not call `panic!`, `todo!`, or
//!    `unimplemented!`; `unreachable!` needs a message stating *why* the
//!    arm is impossible. The [`NO_ASSERT_CRATES`] additionally ban
//!    `assert!` in runtime paths (`debug_assert!` stays allowed): their
//!    contract is *degrade, don't abort*.
//! 6. **no-ad-hoc-threads** — thread spawning is confined to the
//!    designated pool/cluster modules ([`THREAD_POOL_MODULES`]), whose
//!    index-slotted reductions keep `--determinism` meaningful.
//! 7. **float-determinism** — in the float-bearing kernels
//!    ([`FLOAT_CRATES`]): no `.partial_cmp(..)` comparator chains (use
//!    `f64::total_cmp`, which is a total order and cannot silently give
//!    `None`-driven tie behaviour); no float `.sum()`/`.product()`/
//!    `.fold(0.0, ..)` reductions except through an explicitly
//!    order-asserting helper or pragma (accumulation order changes the
//!    result in floating point); no `f32`/`f64` `BTreeMap`/`BTreeSet`
//!    keys.
//! 8. **lossy-cast** — in the [`LOSSY_CAST_CRATES`] and the
//!    individually-audited [`LOSSY_CAST_MODULES`] (the hostile-input
//!    ingest and cut-bookkeeping paths), `as` casts to a numeric
//!    primitive are banned: integer-width changes truncate or
//!    wrap, float↔int casts saturate, and all of them do it silently.
//!    Use `From`/`TryFrom`, or carry a pragma **that states the range
//!    invariant** making the cast lossless
//!    (`// xtask-allow: lossy-cast: node ids < 2^32`). A reason-less
//!    lossy-cast pragma does not suppress.
//! 9. **channel-discipline** — in the distributed runtime
//!    ([`CHANNEL_CRATES`]): every `.recv()` must be a `recv_timeout`
//!    (a blocking receive with no deadline is how hung workers wedge the
//!    master forever; DESIGN.md §11's watchdog is built on deadlines), and
//!    `Mutex`/`RwLock`/`Condvar` may appear only in the sanctioned
//!    cluster/pool modules ([`SYNC_PRIMITIVE_MODULES`]).
//! 10. **obs-discipline** — ad-hoc `Instant::now()` / `SystemTime::now()`
//!     reads are confined to the observability layer (the `obs` crate and
//!     the [`CLOCK_SANCTIONED_MODULES`]): every timing must flow through a
//!     `rejecto_obs` span or `Stopwatch`, which is what keeps wall-clock
//!     data segregated into the metrics document's volatile `timings`
//!     section and everything else byte-comparable. A pragma **must state
//!     the justification**; a reason-less one does not suppress.
//! 11. **durable-io** — runtime paths may not write persistent artifacts
//!     with bare `std::fs::write` / `File::create`: neither fsyncs nor
//!     renames, so a crash mid-write leaves a torn file where a
//!     checkpoint, metrics document, or simulator output used to be
//!     (DESIGN.md §14). Persistent writes route through the sanctioned
//!     store module ([`DURABLE_IO_SANCTIONED_MODULES`], i.e.
//!     `rejecto_core::store::atomic_write`); a pragma **must state why
//!     the artifact need not survive a crash**.
//! 12. **dead-pragma** — an `xtask-allow` pragma that no longer
//!     suppresses any diagnostic is itself an error, as is one naming an
//!     unknown rule. Suppressions cannot rot: delete the pragma when the
//!     code it excused goes away.
//!
//! A diagnostic is opted out of with a pragma in a comment **on the same
//! line**: `// xtask-allow: <rule>` or
//! `// xtask-allow: <rule>: <reason>`. The reason is mandatory for
//! `lossy-cast`, `obs-discipline`, and `durable-io`
//! ([`REASON_REQUIRED_RULES`]) and recommended everywhere.

use crate::lexer::{lex, Token, TokenKind};
use std::fmt;

/// Crates (by directory name under `crates/`) subject to **no-unwrap**.
/// The binary crates (`rejecto` itself, `bench`'s experiment bins) may
/// still unwrap at the top level where a panic is an acceptable exit.
pub const NO_UNWRAP_CRATES: &[&str] = &[
    "socialgraph",
    "kl",
    "rejection",
    "core",
    "votetrust",
    "sybilrank",
    "eval",
    "dataflow",
    "obs",
];

/// Crates whose kernels must stay free of hash collections entirely:
/// the deterministic kernels, and `dataflow`, whose prefetch buffer
/// indexes node ids with a dense array.
pub const NO_HASH_CRATES: &[&str] = &["socialgraph", "kl", "core", "dataflow"];

/// Crates whose runtime paths may not use `assert!` at all (**no-panic**):
/// `dataflow` because the distributed runtime must degrade through the
/// `RuntimeError` taxonomy, never abort; `kl` because the
/// KL/FM kernel sits inside every worker and a release-mode abort there
/// takes a whole sweep down with it. `debug_assert!` is exempt, and the
/// `debug-invariants` feature plus the invariants modules carry the
/// release-strength checks. Cold constructor validation may pragma out
/// with a stated reason.
pub const NO_ASSERT_CRATES: &[&str] = &["dataflow", "kl"];

/// Crates exempt from **no-unseeded-rng**: `bench` measures wall-clock
/// behavior and may randomize. (`xtask` no longer needs an exemption —
/// its rule fixtures live in string literals, which the lexer correctly
/// refuses to lint as code.)
pub const RNG_EXEMPT_CRATES: &[&str] = &["bench"];

/// The only first-party modules allowed to spawn OS threads
/// (**no-ad-hoc-threads**). Everything else must route parallelism
/// through these: `core/pool.rs` is the deterministic MAAR-sweep worker
/// pool; `dataflow/cluster.rs` is the master/worker cluster.
/// Repo-relative paths.
pub const THREAD_POOL_MODULES: &[&str] =
    &["crates/core/src/pool.rs", "crates/dataflow/src/cluster.rs"];

/// Crates whose runtime paths are subject to **float-determinism**: the
/// detection kernels and every ranking baseline whose scores get compared
/// across detectors (`sybilrank`, `votetrust`, `eval`), plus `dataflow`,
/// whose distributed sweep must stay byte-identical to `core`'s local one.
pub const FLOAT_CRATES: &[&str] =
    &["socialgraph", "kl", "core", "sybilrank", "votetrust", "dataflow", "eval"];

/// Crates whose runtime paths are subject to the **lossy-cast** audit.
/// `kl` and `core` are the kernels whose arithmetic feeds the objective;
/// `sybilrank` / `votetrust` are the comparison baselines whose scores
/// must agree across platforms. (`socialgraph` and `dataflow` carry a
/// larger legacy of index casts and join the audit in a later pass.)
pub const LOSSY_CAST_CRATES: &[&str] = &["kl", "core", "sybilrank", "votetrust"];

/// Modules outside the [`LOSSY_CAST_CRATES`] that join the **lossy-cast**
/// audit individually: the hostile-input ingest and cut-bookkeeping paths,
/// where a silently wrapping degree or cut counter is an adversarial
/// primitive (feed crafted edges until a counter wraps) rather than a
/// cosmetic bug. Repo-relative paths; the rest of `socialgraph` and
/// `dataflow` still carry legacy index casts and join in a later pass.
pub const LOSSY_CAST_MODULES: &[&str] = &[
    "crates/socialgraph/src/graph.rs",
    "crates/socialgraph/src/io.rs",
    "crates/rejection/src/augmented.rs",
    "crates/rejection/src/partition.rs",
    "crates/rejection/src/io.rs",
];

/// Crates exempt from **obs-discipline**: `obs` *is* the observability
/// layer (its spans and `Stopwatch` are the sanctioned clock reads), and
/// `bench` measures wall-clock behavior by design.
pub const CLOCK_EXEMPT_CRATES: &[&str] = &["obs", "bench"];

/// Modules outside the exempt crates allowed to read the clock directly
/// (**obs-discipline**): the cancellation token's deadline arithmetic
/// predates the obs crate and is scheduling-volatile by nature.
/// Repo-relative paths.
pub const CLOCK_SANCTIONED_MODULES: &[&str] = &["crates/kl/src/cancel.rs"];

/// The only first-party modules allowed to open files for writing with
/// the raw primitives (**durable-io**): the durable store itself, whose
/// `atomic_write` is the sanctioned temp-file → fsync → rename → dir-sync
/// protocol every persistent artifact flows through. Repo-relative paths.
pub const DURABLE_IO_SANCTIONED_MODULES: &[&str] = &["crates/core/src/store.rs"];

/// Crates exempt from **durable-io**: `xtask` is the lint/test harness —
/// its outputs (fixture scratch, reports) are rebuilt on every run and
/// carry no durability contract.
pub const DURABLE_IO_EXEMPT_CRATES: &[&str] = &["xtask"];

/// Rules whose pragma must carry a reason to suppress; a reason-less
/// pragma counts as addressed (not dead) but the diagnostic still fires.
pub const REASON_REQUIRED_RULES: &[&str] = &["lossy-cast", "obs-discipline", "durable-io"];

/// Crates whose runtime paths are subject to **channel-discipline**.
pub const CHANNEL_CRATES: &[&str] = &["dataflow"];

/// The sanctioned home for lock primitives inside the
/// [`CHANNEL_CRATES`]: the cluster master/worker runtime. Repo-relative
/// paths.
pub const SYNC_PRIMITIVE_MODULES: &[&str] = &["crates/dataflow/src/cluster.rs"];

/// Every rule name `xtask-allow:` accepts. `dead-pragma` is listed (so a
/// pragma naming it parses) but is itself never suppressible.
pub const RULES: &[&str] = &[
    "no-unwrap",
    "no-unseeded-rng",
    "no-hash-collections",
    "forbid-unsafe",
    "no-panic",
    "no-ad-hoc-threads",
    "float-determinism",
    "lossy-cast",
    "channel-discipline",
    "obs-discipline",
    "durable-io",
    "dead-pragma",
];

/// Minimum `.expect("...")` message length that can plausibly state an
/// invariant ("fixture parses", "sweep is non-empty", ...).
pub const MIN_EXPECT_MESSAGE: usize = 8;

/// The numeric primitive type names an `as` cast can target.
const NUMERIC_PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    "f32", "f64",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name, as accepted by `xtask-allow:`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed (for `--json` CI annotation).
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// A source file plus the workspace context the rules key on.
#[derive(Debug, Clone, Copy)]
pub struct SourceFile<'a> {
    /// Repo-relative path, e.g. `crates/kl/src/bucket.rs`.
    pub rel_path: &'a str,
    /// Directory name under `crates/`, or `"rejecto"` for the root package.
    pub crate_name: &'a str,
    /// Whether this file is a crate root (`lib.rs` / `main.rs`).
    pub is_crate_root: bool,
    /// File contents.
    pub text: &'a str,
}

/// One `xtask-allow` pragma, parsed out of a comment token.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pragma {
    /// 1-based line the pragma sits on (and therefore suppresses).
    line: usize,
    rule: String,
    reason: Option<String>,
}

/// Parses every pragma out of the token stream's comments. A pragma is
/// `xtask-allow: <rule>` with an optional `: <reason>` tail; the rule
/// name is the leading run of `[a-z-]` characters after the marker.
/// Doc comments (`///`, `//!`, `/**`, `/*!`) are excluded: they
/// *describe* pragmas (this file does, extensively) but cannot declare
/// them — a directive belongs in a plain comment.
fn collect_pragmas(tokens: &[Token<'_>]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let is_doc = t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!");
        if is_doc && !t.text.starts_with("/**/") {
            continue;
        }
        let mut search = 0;
        while let Some(pos) = t.text[search..].find("xtask-allow:") {
            let at = search + pos;
            let line = t.line + t.text[..at].matches('\n').count();
            let rest = t.text[at + "xtask-allow:".len()..].trim_start();
            let name_len = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .unwrap_or(rest.len());
            let rule = rest[..name_len].to_string();
            let tail = rest[name_len..]
                .lines()
                .next()
                .unwrap_or("")
                .trim_start_matches([':', '-', '—', ' ', '\t'])
                .trim();
            let reason = if tail.is_empty() { None } else { Some(tail.to_string()) };
            out.push(Pragma { line, rule, reason });
            search = at + "xtask-allow:".len();
        }
    }
    out
}

/// The rule engine for one file: the significant-token stream, the
/// pragma table, and the violations accumulated so far.
struct Engine<'a> {
    f: &'a SourceFile<'a>,
    raw_lines: Vec<&'a str>,
    sig: Vec<Token<'a>>,
    pragmas: Vec<Pragma>,
    pragma_used: Vec<bool>,
    out: Vec<Violation>,
}

impl<'a> Engine<'a> {
    /// Records a violation at `line` unless a same-line pragma for `rule`
    /// suppresses it (marking the pragma live either way it matches).
    fn emit(&mut self, rule: &'static str, line: usize, message: String) {
        let mut reasonless_pragma = false;
        for (i, p) in self.pragmas.iter().enumerate() {
            if p.line != line || p.rule != rule {
                continue;
            }
            if REASON_REQUIRED_RULES.contains(&rule) && p.reason.is_none() {
                // The pragma is addressed at this diagnostic (so it is not
                // *dead*), but without a stated reason it does not
                // suppress.
                self.pragma_used[i] = true;
                reasonless_pragma = true;
                continue;
            }
            self.pragma_used[i] = true;
            return;
        }
        let message = if reasonless_pragma {
            let what = if rule == "lossy-cast" { "range-invariant reason" } else { "justification" };
            format!("{message} (pragma present but missing the {what})")
        } else {
            message
        };
        self.out.push(Violation {
            file: self.f.rel_path.to_string(),
            line,
            rule,
            message,
            snippet: self.raw_lines.get(line.saturating_sub(1)).unwrap_or(&"").trim().to_string(),
        });
    }

    // --- token-pattern helpers over the significant stream -------------

    fn ident(&self, i: usize) -> Option<&str> {
        match self.sig.get(i) {
            Some(t) if t.kind == TokenKind::Ident => Some(t.text),
            _ => None,
        }
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        self.ident(i) == Some(name)
    }

    fn is_punct(&self, i: usize, ch: &str) -> bool {
        matches!(self.sig.get(i), Some(t) if t.kind == TokenKind::Punct && t.text == ch)
    }

    fn line_of(&self, i: usize) -> usize {
        self.sig.get(i).map_or(1, |t| t.line)
    }

    /// The literal content of a string token at `i` (prefix, quotes, and
    /// raw-string hashes stripped), or `None` if `i` is not a string.
    fn string_content(&self, i: usize) -> Option<&str> {
        let t = self.sig.get(i)?;
        match t.kind {
            TokenKind::Str => {
                let body = t.text.trim_start_matches(['b', 'c']);
                let inner = body.strip_prefix('"')?;
                Some(inner.strip_suffix('"').unwrap_or(inner))
            }
            TokenKind::RawStr => {
                let body = t.text.trim_start_matches(['b', 'c', 'r']);
                let hashes = body.chars().take_while(|&c| c == '#').count();
                let inner = body[hashes..].strip_prefix('"')?;
                // Closer is `"` + the same number of hashes (absent when
                // the literal is unterminated).
                let closer: String = std::iter::once('"').chain("#".repeat(hashes).chars()).collect();
                Some(inner.strip_suffix(closer.as_str()).unwrap_or(inner))
            }
            _ => None,
        }
    }

    /// 1-based line of the first `#[cfg(test)]` *module* (the attribute
    /// followed by a `mod` item), after which the runtime-path rules
    /// stop: tests panic, cast, and approximate on purpose. A
    /// `#[cfg(test)]` on a lone helper does not end the scan.
    fn test_module_start(&self) -> usize {
        for i in 0..self.sig.len() {
            if self.is_punct(i, "#")
                && self.is_punct(i + 1, "[")
                && self.is_ident(i + 2, "cfg")
                && self.is_punct(i + 3, "(")
                && self.is_ident(i + 4, "test")
                && self.is_punct(i + 5, ")")
                && self.is_punct(i + 6, "]")
                && (self.is_ident(i + 7, "mod")
                    || (self.is_ident(i + 7, "pub") && self.is_ident(i + 8, "mod")))
            {
                return self.line_of(i);
            }
        }
        usize::MAX
    }

    /// Whether any token of the same statement as `i` (scanning backwards
    /// to the nearest `;` / `{` / `}`) names a float primitive — the
    /// evidence that a `.sum()` without a turbofish reduces floats.
    fn statement_mentions_float(&self, i: usize) -> bool {
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &self.sig[j];
            match t.kind {
                TokenKind::Punct if matches!(t.text, ";" | "{" | "}") => return false,
                TokenKind::Ident if matches!(t.text, "f32" | "f64") => return true,
                _ => {}
            }
        }
        false
    }
}

/// Runs every applicable rule over one file.
pub fn lint_file(f: &SourceFile) -> Vec<Violation> {
    let tokens = lex(f.text);
    let pragmas = collect_pragmas(&tokens);
    let pragma_used = vec![false; pragmas.len()];
    let sig: Vec<Token<'_>> = tokens.into_iter().filter(|t| t.kind.is_significant()).collect();
    let mut e = Engine {
        f,
        raw_lines: f.text.lines().collect(),
        sig,
        pragmas,
        pragma_used,
        out: Vec::new(),
    };

    let unwrap_banned = NO_UNWRAP_CRATES.contains(&f.crate_name);
    let hash_banned = NO_HASH_CRATES.contains(&f.crate_name);
    let rng_banned = !RNG_EXEMPT_CRATES.contains(&f.crate_name);
    let threads_banned = !THREAD_POOL_MODULES.contains(&f.rel_path);
    // The runtime-path rules cover `/src/` trees only, minus the
    // invariants modules (whose whole job is panicking on corrupted
    // state) and everything from the first `#[cfg(test)] mod` down.
    let in_src = f.rel_path.contains("/src/");
    let panic_banned = unwrap_banned && in_src && !f.rel_path.contains("invariants");
    let assert_banned = panic_banned && NO_ASSERT_CRATES.contains(&f.crate_name);
    let float_banned = FLOAT_CRATES.contains(&f.crate_name) && in_src;
    let cast_banned = (LOSSY_CAST_CRATES.contains(&f.crate_name)
        || LOSSY_CAST_MODULES.contains(&f.rel_path))
        && in_src
        && !f.rel_path.contains("invariants");
    let channel_banned = CHANNEL_CRATES.contains(&f.crate_name) && in_src;
    let clock_banned = !CLOCK_EXEMPT_CRATES.contains(&f.crate_name)
        && !CLOCK_SANCTIONED_MODULES.contains(&f.rel_path)
        && in_src;
    // The root package's tree is `src/...` with no leading component, so
    // the `/src/` infix test misses it; durable-io must cover the CLI.
    let in_src_tree = in_src || f.rel_path.starts_with("src/");
    let durable_banned = !DURABLE_IO_EXEMPT_CRATES.contains(&f.crate_name)
        && !DURABLE_IO_SANCTIONED_MODULES.contains(&f.rel_path)
        && in_src_tree;
    let runtime_rules = panic_banned
        || assert_banned
        || float_banned
        || cast_banned
        || channel_banned
        || clock_banned
        || durable_banned;
    let test_start = if runtime_rules { e.test_module_start() } else { usize::MAX };

    for i in 0..e.sig.len() {
        let line = e.line_of(i);
        let runtime = line < test_start;

        // ---- no-unwrap ------------------------------------------------
        if unwrap_banned
            && e.is_punct(i, ".")
            && e.is_ident(i + 1, "unwrap")
            && e.is_punct(i + 2, "(")
            && e.is_punct(i + 3, ")")
        {
            e.emit(
                "no-unwrap",
                e.line_of(i + 1),
                "`.unwrap()` in a library crate; return a Result or use \
                 `.expect(\"<invariant>\")`"
                    .to_string(),
            );
        }
        if unwrap_banned && e.is_punct(i, ".") && e.is_ident(i + 1, "expect") && e.is_punct(i + 2, "(")
        {
            if let Some(msg) = e.string_content(i + 3) {
                if msg.len() < MIN_EXPECT_MESSAGE {
                    e.emit(
                        "no-unwrap",
                        e.line_of(i + 1),
                        format!(
                            "`.expect(\"{msg}\")` message too weak to state an \
                             invariant (< {MIN_EXPECT_MESSAGE} chars)"
                        ),
                    );
                }
            }
        }

        // ---- no-panic -------------------------------------------------
        if panic_banned && runtime && e.is_punct(i + 1, "!") {
            if let Some(mac) = e.ident(i).map(str::to_string) {
                if matches!(mac.as_str(), "panic" | "todo" | "unimplemented") {
                    e.emit(
                        "no-panic",
                        line,
                        format!(
                            "`{mac}!` in a library runtime path; fail through the \
                             structured RuntimeError taxonomy instead"
                        ),
                    );
                }
                if mac == "unreachable" && e.is_punct(i + 2, "(") {
                    let weak = match e.string_content(i + 3) {
                        Some(msg) => msg.len() < MIN_EXPECT_MESSAGE,
                        // Bare `unreachable!()` is weak; a computed message
                        // (format!) is accepted, same as `.expect`.
                        None => e.is_punct(i + 3, ")"),
                    };
                    if weak {
                        e.emit(
                            "no-panic",
                            line,
                            format!(
                                "`unreachable!` without a message stating why the arm \
                                 is impossible (< {MIN_EXPECT_MESSAGE} chars)"
                            ),
                        );
                    }
                }
                if assert_banned && mac == "assert" {
                    e.emit(
                        "no-panic",
                        line,
                        "`assert!` aborts release builds; this crate must degrade \
                         through its structured error taxonomy (use `debug_assert!` \
                         for invariants)"
                            .to_string(),
                    );
                }
            }
        }

        // ---- no-unseeded-rng ------------------------------------------
        if rng_banned && e.is_ident(i, "thread_rng") {
            e.emit(
                "no-unseeded-rng",
                line,
                "`thread_rng` is unseeded and breaks reproducibility; \
                 use `ChaCha8Rng::seed_from_u64`"
                    .to_string(),
            );
        }

        // ---- no-ad-hoc-threads ----------------------------------------
        if threads_banned
            && e.is_ident(i, "thread")
            && e.is_punct(i + 1, ":")
            && e.is_punct(i + 2, ":")
            && matches!(e.ident(i + 3), Some("spawn" | "scope" | "Builder"))
        {
            e.emit(
                "no-ad-hoc-threads",
                line,
                "ad-hoc thread spawning risks completion-order \
                 nondeterminism; route parallelism through a \
                 THREAD_POOL_MODULES member (core::pool, dataflow)"
                    .to_string(),
            );
        }

        // ---- no-hash-collections --------------------------------------
        if hash_banned && matches!(e.ident(i), Some("HashMap" | "HashSet")) {
            e.emit(
                "no-hash-collections",
                line,
                "hash collections have hasher-seeded iteration order; \
                 deterministic kernels must use BTreeMap/BTreeSet or \
                 sorted Vecs"
                    .to_string(),
            );
        }

        // ---- float-determinism ----------------------------------------
        if float_banned && runtime {
            if e.is_punct(i, ".") && e.is_ident(i + 1, "partial_cmp") {
                e.emit(
                    "float-determinism",
                    e.line_of(i + 1),
                    "`.partial_cmp(..)` comparator; floats must order through \
                     `total_cmp` (a total order with no NaN-driven `None` arm), \
                     integers through `Ord::cmp`"
                        .to_string(),
                );
            }
            if e.is_punct(i, ".") && matches!(e.ident(i + 1), Some("sum" | "product")) {
                // `.sum::<f64>()` — explicit float turbofish — or a plain
                // `.sum()` whose statement is float-annotated.
                let float_turbofish = e.is_punct(i + 2, ":")
                    && e.is_punct(i + 3, ":")
                    && e.is_punct(i + 4, "<")
                    && matches!(e.ident(i + 5), Some("f32" | "f64"));
                let int_turbofish = e.is_punct(i + 2, ":") && !float_turbofish;
                if float_turbofish || (!int_turbofish && e.statement_mentions_float(i)) {
                    e.emit(
                        "float-determinism",
                        e.line_of(i + 1),
                        "float reduction whose result depends on accumulation \
                         order; route it through an order-asserting helper \
                         (`socialgraph::det::ordered_sum`) or pragma the site \
                         with the ordering argument"
                            .to_string(),
                    );
                }
            }
            if e.is_punct(i, ".")
                && e.is_ident(i + 1, "fold")
                && e.is_punct(i + 2, "(")
                && matches!(e.sig.get(i + 3), Some(t) if t.kind == TokenKind::Float)
            {
                e.emit(
                    "float-determinism",
                    e.line_of(i + 1),
                    "float fold whose result depends on accumulation order; \
                     route it through an order-asserting helper \
                     (`socialgraph::det::ordered_sum`) or pragma the site"
                        .to_string(),
                );
            }
            if matches!(e.ident(i), Some("BTreeMap" | "BTreeSet"))
                && e.is_punct(i + 1, "<")
                && matches!(e.ident(i + 2), Some("f32" | "f64"))
            {
                e.emit(
                    "float-determinism",
                    line,
                    "float-keyed ordered collection; floats are not `Ord` and \
                     any wrapper's order is a determinism hazard — key by an \
                     integer-scaled representation instead"
                        .to_string(),
                );
            }
        }

        // ---- lossy-cast -----------------------------------------------
        if cast_banned && runtime && e.is_ident(i, "as") {
            if let Some(ty) = e.ident(i + 1) {
                if NUMERIC_PRIMITIVES.contains(&ty) {
                    let ty = ty.to_string();
                    e.emit(
                        "lossy-cast",
                        line,
                        format!(
                            "`as {ty}` silently truncates/wraps/saturates; use \
                             `{ty}::from` / `{ty}::try_from`, or pragma the site \
                             with the range invariant \
                             (`// xtask-allow: lossy-cast: <invariant>`)"
                        ),
                    );
                }
            }
        }

        // ---- obs-discipline -------------------------------------------
        if clock_banned
            && runtime
            && matches!(e.ident(i), Some("Instant" | "SystemTime"))
            && e.is_punct(i + 1, ":")
            && e.is_punct(i + 2, ":")
            && e.is_ident(i + 3, "now")
        {
            let ty = e.ident(i).unwrap_or_default().to_string();
            e.emit(
                "obs-discipline",
                line,
                format!(
                    "ad-hoc `{ty}::now()` outside the observability layer; \
                     time spans through `rejecto_obs` (or `rejecto_obs::\
                     Stopwatch` for deadline arithmetic), or pragma the site \
                     with the justification \
                     (`// xtask-allow: obs-discipline: <why>`)"
                ),
            );
        }

        // ---- durable-io -----------------------------------------------
        if durable_banned && runtime {
            if e.is_ident(i, "fs")
                && e.is_punct(i + 1, ":")
                && e.is_punct(i + 2, ":")
                && e.is_ident(i + 3, "write")
            {
                e.emit(
                    "durable-io",
                    line,
                    "bare `fs::write` is not crash-consistent (no temp file, no \
                     fsync, no atomic rename — a crash leaves a torn artifact); \
                     route persistent writes through `rejecto_core::store::\
                     atomic_write`, or pragma the site with the reason the \
                     artifact need not survive a crash \
                     (`// xtask-allow: durable-io: <why>`)"
                        .to_string(),
                );
            }
            if e.is_ident(i, "File")
                && e.is_punct(i + 1, ":")
                && e.is_punct(i + 2, ":")
                && e.is_ident(i + 3, "create")
            {
                e.emit(
                    "durable-io",
                    line,
                    "bare `File::create` truncates in place and is not \
                     crash-consistent; route persistent writes through \
                     `rejecto_core::store::atomic_write`, or pragma the site \
                     with the reason the artifact need not survive a crash \
                     (`// xtask-allow: durable-io: <why>`)"
                        .to_string(),
                );
            }
        }

        // ---- channel-discipline ---------------------------------------
        if channel_banned && runtime {
            if e.is_punct(i, ".")
                && e.is_ident(i + 1, "recv")
                && e.is_punct(i + 2, "(")
                && e.is_punct(i + 3, ")")
            {
                e.emit(
                    "channel-discipline",
                    e.line_of(i + 1),
                    "blocking `.recv()` with no deadline wedges the runtime on a \
                     hung peer; use `recv_timeout` (the watchdog contract, \
                     DESIGN.md §11) or pragma with the liveness argument"
                        .to_string(),
                );
            }
            if matches!(e.ident(i), Some("Mutex" | "RwLock" | "Condvar"))
                && !SYNC_PRIMITIVE_MODULES.contains(&f.rel_path)
            {
                let prim = e.ident(i).unwrap_or_default().to_string();
                e.emit(
                    "channel-discipline",
                    line,
                    format!(
                        "`{prim}` outside the sanctioned cluster/pool modules; \
                         shared-state concurrency belongs in \
                         SYNC_PRIMITIVE_MODULES, everything else communicates \
                         over channels"
                    ),
                );
            }
        }
    }

    // ---- forbid-unsafe ------------------------------------------------
    if f.is_crate_root {
        let mut found = false;
        for i in 0..e.sig.len() {
            if e.is_punct(i, "#")
                && e.is_punct(i + 1, "!")
                && e.is_punct(i + 2, "[")
                && e.is_ident(i + 3, "forbid")
                && e.is_punct(i + 4, "(")
                && e.is_ident(i + 5, "unsafe_code")
                && e.is_punct(i + 6, ")")
                && e.is_punct(i + 7, "]")
            {
                found = true;
                break;
            }
        }
        if !found {
            e.emit(
                "forbid-unsafe",
                1,
                "crate root must declare `#![forbid(unsafe_code)]`".to_string(),
            );
        }
    }

    // ---- dead-pragma ----------------------------------------------------
    // Runs last: any pragma the rule passes above never consulted is rot.
    for i in 0..e.pragmas.len() {
        let p = e.pragmas[i].clone();
        if !RULES.contains(&p.rule.as_str()) {
            e.out.push(Violation {
                file: f.rel_path.to_string(),
                line: p.line,
                rule: "dead-pragma",
                message: format!(
                    "pragma names unknown rule `{}` (known rules: {})",
                    p.rule,
                    RULES.join(", ")
                ),
                snippet: e.raw_lines.get(p.line.saturating_sub(1)).unwrap_or(&"").trim().to_string(),
            });
        } else if !e.pragma_used[i] {
            e.out.push(Violation {
                file: f.rel_path.to_string(),
                line: p.line,
                rule: "dead-pragma",
                message: format!(
                    "`xtask-allow: {}` suppresses no diagnostic on this line; \
                     dead pragmas rot into false confidence — delete it",
                    p.rule
                ),
                snippet: e.raw_lines.get(p.line.saturating_sub(1)).unwrap_or(&"").trim().to_string(),
            });
        }
    }

    e.out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    e.out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file<'a>(crate_name: &'a str, text: &'a str) -> SourceFile<'a> {
        SourceFile { rel_path: "crates/test/src/x.rs", crate_name, is_crate_root: false, text }
    }

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    // ---- no-unwrap ----------------------------------------------------

    #[test]
    fn unwrap_in_library_crate_is_flagged() {
        let src = "fn f() { let x = opt.unwrap(); }\n";
        let v = lint_file(&file("rejection", src));
        assert_eq!(rules(&v), ["no-unwrap"]);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].snippet, "fn f() { let x = opt.unwrap(); }");
    }

    #[test]
    fn unwrap_outside_banned_crates_passes() {
        let src = "fn f() { let x = opt.unwrap(); }\n";
        assert!(lint_file(&file("bench", src)).is_empty());
    }

    #[test]
    fn unwrap_in_comment_or_doc_is_ignored() {
        let src = "// calls .unwrap() internally\n/// like .unwrap()\nfn f() {}\n";
        assert!(lint_file(&file("rejection", src)).is_empty());
    }

    /// The PR 2 line scanner kept string *contents* when stripping
    /// comments, so this exact source produced a false positive. The
    /// lexer lints tokens, and a string is one token.
    #[test]
    fn unwrap_inside_string_literal_is_ignored() {
        let src = "fn f() { let s = \"never call .unwrap() here\"; }\n";
        assert!(lint_file(&file("rejection", src)).is_empty());
    }

    /// Raw strings desynchronised the PR 2 state machine entirely (the
    /// interior `"` flipped it out of string mode).
    #[test]
    fn unwrap_inside_raw_string_is_ignored() {
        let src = "fn f() { let s = r#\"interior \" then .unwrap() \"#; }\n";
        assert!(lint_file(&file("rejection", src)).is_empty());
    }

    #[test]
    fn unwrap_with_pragma_is_allowed() {
        let src = "let x = opt.unwrap(); // xtask-allow: no-unwrap: fixture input is static\n";
        assert!(lint_file(&file("rejection", src)).is_empty());
    }

    /// Doc comments describe pragmas without declaring them; a
    /// `xtask-allow:` inside one is neither a suppression nor dead.
    #[test]
    fn pragma_in_doc_comment_is_inert() {
        let src = "/// Suppress with `// xtask-allow: no-unwrap: reason`.\nfn f() {}\n";
        assert!(lint_file(&file("rejection", src)).is_empty());
        let src = "//! `xtask-allow: lossy-cast: ids < 2^32` states the invariant.\nfn f() {}\n";
        assert!(lint_file(&file("kl", src)).is_empty());
    }

    #[test]
    fn weak_expect_message_is_flagged() {
        let src = "let x = opt.expect(\"oops\");\n";
        let v = lint_file(&file("rejection", src));
        assert_eq!(rules(&v), ["no-unwrap"]);
        assert!(v[0].message.contains("too weak"));
    }

    /// A call split across lines was invisible to the PR 2 line scanner
    /// (false negative); the token stream does not care about newlines.
    #[test]
    fn weak_expect_message_across_lines_is_flagged() {
        let src = "let x = opt.expect(\n    \"oops\",\n);\n";
        let v = lint_file(&file("rejection", src));
        assert_eq!(rules(&v), ["no-unwrap"]);
        assert_eq!(v[0].line, 1, "violation lands on the `.expect` line");
    }

    #[test]
    fn invariant_expect_message_passes() {
        let src = "let x = opt.expect(\"sweep is non-empty\");\n";
        assert!(lint_file(&file("rejection", src)).is_empty());
    }

    #[test]
    fn computed_expect_message_passes() {
        let src = "let x = opt.expect(&format!(\"no {u}\"));\n";
        assert!(lint_file(&file("rejection", src)).is_empty());
    }

    // ---- no-unseeded-rng ----------------------------------------------

    #[test]
    fn thread_rng_is_flagged_everywhere_but_exempt_crates() {
        let src = "let mut rng = rand::thread_rng();\n";
        let v = lint_file(&file("simulator", src));
        assert_eq!(rules(&v), ["no-unseeded-rng"]);
        assert!(lint_file(&file("bench", src)).is_empty());
    }

    /// `xtask` needed a crate-level exemption under the line scanner
    /// because its own pattern tables mention `thread_rng` in strings.
    /// Token-level linting makes the exemption unnecessary.
    #[test]
    fn thread_rng_in_string_is_ignored_even_in_xtask() {
        let src = "let pats = [\"thread_rng\"];\n";
        assert!(lint_file(&file("xtask", src)).is_empty());
        assert!(lint_file(&file("simulator", src)).is_empty());
    }

    // ---- no-hash-collections ------------------------------------------

    #[test]
    fn hash_collections_flagged_in_kernel_crates_only() {
        let src = "use std::collections::HashMap;\n";
        let v = lint_file(&file("socialgraph", src));
        assert_eq!(rules(&v), ["no-hash-collections"]);
        assert_eq!(rules(&lint_file(&file("dataflow", src))), ["no-hash-collections"]);
        assert!(lint_file(&file("eval", src)).is_empty());
    }

    #[test]
    fn hash_in_doc_comment_is_ignored() {
        let src = "//! never use HashMap here\nfn f() {}\n";
        assert!(lint_file(&file("socialgraph", src)).is_empty());
    }

    /// Nested block comments defeated naive strippers; the PR 2 scanner
    /// handled one level, the lexer handles arbitrary depth.
    #[test]
    fn hash_in_nested_block_comment_is_ignored() {
        let src = "/* outer /* HashMap */ still HashMap */\nfn f() {}\n";
        assert!(lint_file(&file("socialgraph", src)).is_empty());
    }

    #[test]
    fn hash_inside_string_is_ignored() {
        let src = "let msg = \"HashMap is banned here\";\n";
        assert!(lint_file(&file("socialgraph", src)).is_empty());
    }

    // ---- no-ad-hoc-threads --------------------------------------------

    #[test]
    fn ad_hoc_thread_spawn_is_flagged() {
        for src in [
            "let h = std::thread::spawn(|| 1);\n",
            "std::thread::scope(|s| { s.spawn(|| {}); });\n",
            "let b = std::thread::Builder::new();\n",
        ] {
            let v = lint_file(&file("core", src));
            assert_eq!(rules(&v), ["no-ad-hoc-threads"], "{src:?}");
        }
    }

    #[test]
    fn thread_pool_modules_may_spawn() {
        let f = SourceFile {
            rel_path: "crates/core/src/pool.rs",
            crate_name: "core",
            is_crate_root: false,
            text: "crossbeam::thread::scope(|s| { s.spawn(|| {}); });\n",
        };
        assert!(lint_file(&f).is_empty());
    }

    #[test]
    fn thread_spawn_with_pragma_is_allowed() {
        let src = "std::thread::spawn(f); // xtask-allow: no-ad-hoc-threads\n";
        assert!(lint_file(&file("core", src)).is_empty());
    }

    #[test]
    fn thread_mention_in_comment_is_ignored() {
        let src = "// never call thread::spawn here\nfn f() {}\n";
        assert!(lint_file(&file("core", src)).is_empty());
    }

    /// The string-literal pattern table that used to force a crate-wide
    /// `xtask` exemption now lints clean in every crate.
    #[test]
    fn thread_patterns_in_strings_are_ignored_without_exemption() {
        let src = "let pats = [\"thread::spawn\", \"thread::scope\"];\n";
        assert!(lint_file(&file("xtask", src)).is_empty());
        assert!(lint_file(&file("core", src)).is_empty());
    }

    // ---- no-panic -----------------------------------------------------

    #[test]
    fn panic_in_library_runtime_path_is_flagged() {
        for src in [
            "fn f() { panic!(\"boom\"); }\n",
            "fn f() { todo!() }\n",
            "fn f() { unimplemented!() }\n",
        ] {
            let v = lint_file(&file("core", src));
            assert_eq!(rules(&v), ["no-panic"], "{src:?}");
        }
    }

    #[test]
    fn panic_outside_no_unwrap_crates_passes() {
        let src = "fn f() { panic!(\"boom\"); }\n";
        assert!(lint_file(&file("bench", src)).is_empty());
    }

    #[test]
    fn catch_unwind_path_is_not_a_panic_call() {
        let src = "let r = std::panic::catch_unwind(|| 1);\n";
        assert!(lint_file(&file("core", src)).is_empty());
    }

    #[test]
    fn panic_with_pragma_is_allowed() {
        let src = "panic!(\"injected fault\") // xtask-allow: no-panic: fault injection trigger\n";
        assert!(lint_file(&file("core", src)).is_empty());
    }

    #[test]
    fn panic_below_the_test_module_passes() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { panic!(\"t\"); }\n}\n";
        assert!(lint_file(&file("core", src)).is_empty());
    }

    #[test]
    fn cfg_test_on_a_lone_item_does_not_end_the_scan() {
        let src = "#[cfg(test)]\nfn helper() {}\nfn f() { panic!(\"boom\"); }\n";
        let v = lint_file(&file("core", src));
        assert_eq!(rules(&v), ["no-panic"]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn invariants_modules_may_panic() {
        let f = SourceFile {
            rel_path: "crates/core/src/invariants.rs",
            crate_name: "core",
            is_crate_root: false,
            text: "pub fn check() { panic!(\"corrupted bookkeeping\"); }\n",
        };
        assert!(lint_file(&f).is_empty());
    }

    #[test]
    fn test_directories_may_panic() {
        let f = SourceFile {
            rel_path: "crates/core/tests/faults.rs",
            crate_name: "core",
            is_crate_root: false,
            text: "fn f() { panic!(\"assertion\"); }\n",
        };
        assert!(lint_file(&f).is_empty());
    }

    #[test]
    fn bare_unreachable_is_flagged_but_messaged_unreachable_passes() {
        let bare = "fn f() { unreachable!() }\n";
        let v = lint_file(&file("dataflow", bare));
        assert_eq!(rules(&v), ["no-panic"]);

        let weak = "fn f() { unreachable!(\"no\") }\n";
        assert_eq!(lint_file(&file("dataflow", weak)).len(), 1);

        let messaged = "fn f() { unreachable!(\"retry loop returns or panics\") }\n";
        assert!(lint_file(&file("dataflow", messaged)).is_empty());

        let computed = "fn f() { unreachable!(\"state {s:?} impossible\") }\n";
        assert!(lint_file(&file("dataflow", computed)).is_empty());
    }

    #[test]
    fn assert_in_no_assert_crates_is_flagged() {
        let src = "fn f(n: usize) { assert!(n > 0, \"n must be positive\"); }\n";
        for krate in ["dataflow", "kl"] {
            let v = lint_file(&file(krate, src));
            assert_eq!(rules(&v), ["no-panic"], "{krate}");
            assert!(v[0].message.contains("degrade"));
        }
    }

    #[test]
    fn debug_assert_in_no_assert_crate_passes() {
        let src = "fn f(n: usize) { debug_assert!(n > 0); }\n";
        assert!(lint_file(&file("dataflow", src)).is_empty());
        assert!(lint_file(&file("kl", src)).is_empty());
    }

    #[test]
    fn assert_eq_is_not_bare_assert() {
        let src = "fn f(n: usize) { assert_eq!(n, 1); assert_ne!(n, 2); }\n";
        assert!(lint_file(&file("dataflow", src)).is_empty());
    }

    #[test]
    fn assert_outside_no_assert_crates_passes() {
        let src = "fn f(n: usize) { assert!(n > 0, \"n must be positive\"); }\n";
        assert!(lint_file(&file("core", src)).is_empty());
    }

    #[test]
    fn assert_with_pragma_is_allowed() {
        let src = "assert!(cap > 0, \"capacity\"); // xtask-allow: no-panic: constructor contract\n";
        assert!(lint_file(&file("dataflow", src)).is_empty());
    }

    #[test]
    fn panic_mention_in_comment_is_ignored() {
        let src = "// a worker panic!(...) here would abort\nfn f() {}\n";
        assert!(lint_file(&file("core", src)).is_empty());
    }

    // ---- forbid-unsafe ------------------------------------------------

    #[test]
    fn crate_root_without_forbid_unsafe_is_flagged() {
        let f = SourceFile {
            rel_path: "crates/test/src/lib.rs",
            crate_name: "votetrust",
            is_crate_root: true,
            text: "//! docs\npub fn f() {}\n",
        };
        let v = lint_file(&f);
        assert_eq!(rules(&v), ["forbid-unsafe"]);
    }

    #[test]
    fn crate_root_with_forbid_unsafe_passes() {
        let f = SourceFile {
            rel_path: "crates/test/src/lib.rs",
            crate_name: "votetrust",
            is_crate_root: true,
            text: "//! docs\n#![forbid(unsafe_code)]\npub fn f() {}\n",
        };
        assert!(lint_file(&f).is_empty());
    }

    /// The attribute must be real code — quoting it in a doc comment or
    /// string does not satisfy the rule (a PR 2 false-negative class).
    #[test]
    fn forbid_unsafe_inside_string_does_not_count() {
        let f = SourceFile {
            rel_path: "crates/test/src/lib.rs",
            crate_name: "votetrust",
            is_crate_root: true,
            text: "//! `#![forbid(unsafe_code)]`\nconst A: &str = \"#![forbid(unsafe_code)]\";\n",
        };
        let v = lint_file(&f);
        assert_eq!(rules(&v), ["forbid-unsafe"]);
    }

    // ---- float-determinism --------------------------------------------

    #[test]
    fn partial_cmp_chain_in_float_crate_is_flagged() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); }\n";
        let v = lint_file(&file("core", src));
        assert_eq!(rules(&v), ["float-determinism"]);
        assert!(v[0].message.contains("total_cmp"));
    }

    #[test]
    fn total_cmp_sort_passes() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(lint_file(&file("core", src)).is_empty());
    }

    #[test]
    fn partial_cmp_outside_float_crates_passes() {
        let src = "fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b); }\n";
        assert!(lint_file(&file("simulator", src)).is_empty());
    }

    #[test]
    fn partial_cmp_trait_impl_definition_passes() {
        let src = "impl PartialOrd for K { fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) } }\n";
        assert!(lint_file(&file("kl", src)).is_empty());
    }

    #[test]
    fn float_sum_turbofish_is_flagged() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        let v = lint_file(&file("sybilrank", src));
        assert_eq!(rules(&v), ["float-determinism"]);
    }

    #[test]
    fn float_sum_via_let_annotation_is_flagged() {
        let src = "fn f(xs: &[f64]) { let s: f64 = xs.iter().sum(); }\n";
        let v = lint_file(&file("sybilrank", src));
        assert_eq!(rules(&v), ["float-determinism"]);
    }

    #[test]
    fn integer_sum_passes() {
        let src = "fn f(xs: &[usize]) -> usize { let n: usize = xs.iter().sum(); n }\n";
        assert!(lint_file(&file("sybilrank", src)).is_empty());
    }

    #[test]
    fn integer_turbofish_sum_passes_even_near_floats() {
        let src = "fn f(xs: &[u64], y: f64) -> u64 { let _ = y; xs.iter().sum::<u64>() }\n";
        assert!(lint_file(&file("sybilrank", src)).is_empty());
    }

    #[test]
    fn float_fold_is_flagged() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |a, b| a + b) }\n";
        let v = lint_file(&file("socialgraph", src));
        assert_eq!(rules(&v), ["float-determinism"]);
    }

    #[test]
    fn integer_fold_passes() {
        let src = "fn f(xs: &[u64]) -> u64 { xs.iter().fold(0, |a, b| a + b) }\n";
        assert!(lint_file(&file("socialgraph", src)).is_empty());
    }

    #[test]
    fn float_keyed_btreemap_is_flagged() {
        let src = "fn f() { let m: BTreeMap<f64, u32> = BTreeMap::new(); }\n";
        let v = lint_file(&file("kl", src));
        assert_eq!(rules(&v), ["float-determinism"]);
    }

    #[test]
    fn int_keyed_btreemap_passes() {
        let src = "fn f() { let m: BTreeMap<u32, f64> = BTreeMap::new(); }\n";
        assert!(lint_file(&file("kl", src)).is_empty());
    }

    #[test]
    fn float_rules_skip_test_modules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n}\n";
        assert!(lint_file(&file("core", src)).is_empty());
    }

    #[test]
    fn float_sum_with_pragma_is_allowed() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() } // xtask-allow: float-determinism: slice order is fixed\n";
        assert!(lint_file(&file("sybilrank", src)).is_empty());
    }

    // ---- lossy-cast ---------------------------------------------------

    #[test]
    fn numeric_as_cast_in_audited_crate_is_flagged() {
        let src = "fn f(n: u64) -> u32 { n as u32 }\n";
        let v = lint_file(&file("kl", src));
        assert_eq!(rules(&v), ["lossy-cast"]);
        assert!(v[0].message.contains("try_from"));
    }

    #[test]
    fn float_int_cast_is_flagged() {
        let src = "fn f(x: f64) -> i64 { x as i64 }\n";
        assert_eq!(rules(&lint_file(&file("core", src))), ["lossy-cast"]);
        let src2 = "fn g(n: usize) -> f64 { n as f64 }\n";
        assert_eq!(rules(&lint_file(&file("votetrust", src2))), ["lossy-cast"]);
    }

    #[test]
    fn cast_outside_audited_crates_passes() {
        let src = "fn f(n: u64) -> u32 { n as u32 }\n";
        assert!(lint_file(&file("socialgraph", src)).is_empty());
    }

    #[test]
    fn cast_in_test_module_passes() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(n: u64) -> u32 { n as u32 }\n}\n";
        assert!(lint_file(&file("kl", src)).is_empty());
    }

    #[test]
    fn use_rename_as_is_not_a_cast() {
        let src = "use std::collections::BTreeMap as Map;\n";
        assert!(lint_file(&file("kl", src)).is_empty());
    }

    #[test]
    fn try_from_conversion_passes() {
        let src = "fn f(n: u64) -> u32 { u32::try_from(n).expect(\"node ids fit u32\") }\n";
        assert!(lint_file(&file("kl", src)).is_empty());
    }

    #[test]
    fn cast_pragma_requires_a_reason() {
        let with_reason =
            "fn f(n: u32) -> usize { n as usize } // xtask-allow: lossy-cast: u32 widens into usize on all supported targets\n";
        assert!(lint_file(&file("kl", with_reason)).is_empty());

        let without_reason = "fn f(n: u32) -> usize { n as usize } // xtask-allow: lossy-cast\n";
        let v = lint_file(&file("kl", without_reason));
        assert_eq!(rules(&v), ["lossy-cast"]);
        assert!(v[0].message.contains("missing the range-invariant reason"));
    }

    // ---- obs-discipline -----------------------------------------------

    #[test]
    fn ad_hoc_clock_reads_are_flagged() {
        for src in [
            "fn f() { let t0 = std::time::Instant::now(); }\n",
            "fn f() { let t0 = Instant::now(); }\n",
            "fn f() { let t0 = SystemTime::now(); }\n",
        ] {
            let v = lint_file(&file("core", src));
            assert_eq!(rules(&v), ["obs-discipline"], "{src:?}");
            assert!(v[0].message.contains("rejecto_obs"), "{src:?}");
        }
    }

    #[test]
    fn clock_reads_in_the_obs_and_bench_crates_are_exempt() {
        let src = "fn f() { let t0 = Instant::now(); }\n";
        for c in ["obs", "bench"] {
            assert!(lint_file(&file(c, src)).is_empty(), "{c}");
        }
    }

    #[test]
    fn clock_sanctioned_modules_may_read_the_clock() {
        let f = SourceFile {
            rel_path: "crates/kl/src/cancel.rs",
            crate_name: "kl",
            is_crate_root: false,
            text: "fn f() { let at = Instant::now(); }\n",
        };
        assert!(lint_file(&f).is_empty());
    }

    #[test]
    fn clock_reads_in_test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let t0 = Instant::now(); }\n}\n";
        assert!(lint_file(&file("core", src)).is_empty());
    }

    #[test]
    fn obs_pragma_requires_a_justification() {
        let with_reason = "let t0 = Instant::now(); // xtask-allow: obs-discipline: coarse log throttle, never compared\n";
        assert!(lint_file(&file("core", with_reason)).is_empty());

        let without_reason = "let t0 = Instant::now(); // xtask-allow: obs-discipline\n";
        let v = lint_file(&file("core", without_reason));
        assert_eq!(rules(&v), ["obs-discipline"]);
        assert!(v[0].message.contains("missing the justification"));
    }

    // ---- durable-io ---------------------------------------------------

    #[test]
    fn raw_persistent_writes_are_flagged() {
        for src in [
            "fn f() { std::fs::write(\"out.json\", b\"x\").ok(); }\n",
            "fn f() { fs::write(\"out.json\", b\"x\").ok(); }\n",
            "fn f() { let w = std::fs::File::create(\"out.json\"); }\n",
            "fn f() { let w = File::create(\"out.json\"); }\n",
        ] {
            let v = lint_file(&file("core", src));
            assert_eq!(rules(&v), ["durable-io"], "{src:?}");
            assert!(v[0].message.contains("atomic_write"), "{src:?}");
        }
    }

    #[test]
    fn the_store_module_itself_may_use_raw_primitives() {
        let f = SourceFile {
            rel_path: "crates/core/src/store.rs",
            crate_name: "core",
            is_crate_root: false,
            text: "fn f() { let w = File::create(\"t.tmp\"); }\n",
        };
        assert!(lint_file(&f).is_empty());
    }

    #[test]
    fn the_root_package_cli_is_covered() {
        let f = SourceFile {
            rel_path: "src/cli/commands.rs",
            crate_name: "rejecto",
            is_crate_root: false,
            text: "fn f() { std::fs::write(\"m.json\", b\"x\").ok(); }\n",
        };
        assert_eq!(rules(&lint_file(&f)), ["durable-io"]);
    }

    #[test]
    fn xtask_and_test_code_may_write_raw() {
        let src = "fn f() { std::fs::write(\"report.json\", b\"x\").ok(); }\n";
        assert!(lint_file(&file("xtask", src)).is_empty());

        let in_test_mod = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { std::fs::write(\"t\", b\"x\").ok(); }\n}\n";
        assert!(lint_file(&file("core", in_test_mod)).is_empty());

        let tests_dir = SourceFile {
            rel_path: "crates/core/tests/store.rs",
            crate_name: "core",
            is_crate_root: false,
            text: src,
        };
        assert!(lint_file(&tests_dir).is_empty());
    }

    #[test]
    fn durable_io_pragma_requires_a_reason() {
        let with_reason = "std::fs::write(\"scratch\", b\"x\").ok(); // xtask-allow: durable-io: droppable scratch file, rebuilt on every run\n";
        assert!(lint_file(&file("core", with_reason)).is_empty());

        let without_reason = "std::fs::write(\"scratch\", b\"x\").ok(); // xtask-allow: durable-io\n";
        let v = lint_file(&file("core", without_reason));
        assert_eq!(rules(&v), ["durable-io"]);
        assert!(v[0].message.contains("missing the justification"));
    }

    #[test]
    fn non_write_fs_calls_and_mentions_pass() {
        for src in [
            "fn f() { let s = std::fs::read_to_string(\"a\"); }\n",
            "fn f() { std::fs::create_dir_all(\"d\").ok(); }\n",
            "fn f() { let w = File::open(\"a\"); }\n",
            "// never call fs::write here\nfn f() {}\n",
            "fn f() { let pats = [\"fs::write\", \"File::create\"]; }\n",
        ] {
            assert!(lint_file(&file("core", src)).is_empty(), "{src:?}");
        }
    }

    // ---- channel-discipline -------------------------------------------

    #[test]
    fn blocking_recv_in_dataflow_is_flagged() {
        let src = "fn f(rx: &Receiver<u32>) { let _ = rx.recv(); }\n";
        let v = lint_file(&file("dataflow", src));
        assert_eq!(rules(&v), ["channel-discipline"]);
        assert!(v[0].message.contains("recv_timeout"));
    }

    #[test]
    fn recv_timeout_passes() {
        let src = "fn f(rx: &Receiver<u32>, d: Duration) { let _ = rx.recv_timeout(d); }\n";
        assert!(lint_file(&file("dataflow", src)).is_empty());
    }

    #[test]
    fn recv_outside_channel_crates_passes() {
        let src = "fn f(rx: &Receiver<u32>) { let _ = rx.recv(); }\n";
        assert!(lint_file(&file("core", src)).is_empty());
    }

    #[test]
    fn recv_with_pragma_is_allowed() {
        let src = "let _ = rx.recv(); // xtask-allow: channel-discipline: worker loop exits when the master hangs up\n";
        assert!(lint_file(&file("dataflow", src)).is_empty());
    }

    #[test]
    fn mutex_outside_sanctioned_modules_is_flagged() {
        let src = "use std::sync::Mutex;\n";
        let v = lint_file(&file("dataflow", src));
        assert_eq!(rules(&v), ["channel-discipline"]);
    }

    #[test]
    fn mutex_in_sanctioned_module_passes() {
        let f = SourceFile {
            rel_path: "crates/dataflow/src/cluster.rs",
            crate_name: "dataflow",
            is_crate_root: false,
            text: "use std::sync::Mutex;\n",
        };
        assert!(lint_file(&f).is_empty());
    }

    #[test]
    fn mutex_outside_dataflow_passes() {
        let src = "use std::sync::Mutex;\n";
        assert!(lint_file(&file("kl", src)).is_empty());
    }

    // ---- dead-pragma --------------------------------------------------

    #[test]
    fn dead_pragma_is_flagged() {
        let src = "fn f() { let x = 1; } // xtask-allow: no-unwrap\n";
        let v = lint_file(&file("rejection", src));
        assert_eq!(rules(&v), ["dead-pragma"]);
        assert!(v[0].message.contains("suppresses no diagnostic"));
    }

    #[test]
    fn live_pragma_is_not_dead() {
        let src = "let x = opt.unwrap(); // xtask-allow: no-unwrap: static fixture\n";
        assert!(lint_file(&file("rejection", src)).is_empty());
    }

    #[test]
    fn pragma_for_unknown_rule_is_flagged() {
        let src = "fn f() {} // xtask-allow: no-such-rule\n";
        let v = lint_file(&file("rejection", src));
        assert_eq!(rules(&v), ["dead-pragma"]);
        assert!(v[0].message.contains("unknown rule"));
    }

    #[test]
    fn pragma_on_the_wrong_line_is_dead_and_does_not_suppress() {
        let src = "// xtask-allow: no-unwrap\nlet x = opt.unwrap();\n";
        let v = lint_file(&file("rejection", src));
        assert_eq!(rules(&v), ["dead-pragma", "no-unwrap"]);
    }

    #[test]
    fn pragma_inside_string_literal_is_not_a_pragma() {
        let src = "let s = \"// xtask-allow: no-unwrap\";\n";
        assert!(lint_file(&file("rejection", src)).is_empty());
    }

    #[test]
    fn pragma_in_rule_exempt_region_is_dead() {
        // A no-panic pragma inside a test module: the rule never runs
        // there, so the pragma suppresses nothing and must go.
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { panic!(\"t\"); } // xtask-allow: no-panic\n}\n";
        let v = lint_file(&file("core", src));
        assert_eq!(rules(&v), ["dead-pragma"]);
    }

    // ---- engine plumbing ----------------------------------------------

    #[test]
    fn violations_are_sorted_by_line() {
        let src = "fn a() { x.unwrap(); }\nfn b() { y.unwrap(); }\n";
        let v = lint_file(&file("rejection", src));
        assert_eq!(v.len(), 2);
        assert!(v[0].line < v[1].line);
    }

    #[test]
    fn pragma_reason_is_parsed() {
        let toks = lex("// xtask-allow: lossy-cast: gains fit i64 by construction\n");
        let ps = collect_pragmas(&toks);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].rule, "lossy-cast");
        assert_eq!(ps[0].reason.as_deref(), Some("gains fit i64 by construction"));
    }

    #[test]
    fn pragma_without_reason_parses_with_none() {
        let toks = lex("// xtask-allow: no-panic\n");
        let ps = collect_pragmas(&toks);
        assert_eq!(ps[0].rule, "no-panic");
        assert_eq!(ps[0].reason, None);
    }

    #[test]
    fn pragma_line_inside_block_comment_is_the_marker_line() {
        let toks = lex("/* spanning\n   xtask-allow: no-panic: here\n*/\n");
        let ps = collect_pragmas(&toks);
        assert_eq!(ps[0].line, 2);
    }
}
