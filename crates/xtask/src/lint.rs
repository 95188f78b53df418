//! The token-level lint pass behind `cargo xtask check`.
//!
//! Four rules, all enforcing the determinism-and-robustness contract the
//! reproduction depends on (DESIGN.md §8 and §12), and all checked over a
//! real token stream ([`crate::lexer`]). Every rule rustc or clippy can
//! check itself lives there instead (the workspace `[lints]` table, the
//! `clippy.toml` bans and the cast-lint attributes; DESIGN.md §8.1 maps
//! each rule to its tool). What stays here has no clean twin:
//!
//! 1. **no-unwrap** — library crates may not call `.unwrap()`; failures
//!    must surface either as `Result`s or as `.expect("<invariant>")`
//!    with a message long enough to actually state the invariant.
//! 2. **no-panic** — library *runtime* paths (the `/src/` trees of the
//!    [`NO_UNWRAP_CRATES`], outside `#[cfg(test)]` modules and the
//!    dedicated invariants modules) may not call `panic!`, `todo!`, or
//!    `unimplemented!`; `unreachable!` needs a message stating *why* the
//!    arm is impossible. The [`NO_ASSERT_CRATES`] additionally ban
//!    `assert!` in runtime paths (`debug_assert!` stays allowed): their
//!    contract is *degrade, don't abort*.
//! 3. **float-determinism** — in the float-bearing kernels
//!    ([`FLOAT_CRATES`]): no `.partial_cmp(..)` comparator chains (use
//!    `f64::total_cmp`, which is a total order and cannot silently give
//!    `None`-driven tie behaviour); no float `.sum()`/`.product()`/
//!    `.fold(0.0, ..)` reductions except through an explicitly
//!    order-asserting helper or pragma (accumulation order changes the
//!    result in floating point); no `f32`/`f64` `BTreeMap`/`BTreeSet`
//!    keys.
//! 4. **dead-pragma** — an `xtask-allow` pragma that no longer
//!    suppresses any diagnostic is itself an error, as is one naming an
//!    unknown rule (a rule that moved to clippy included). Suppressions
//!    cannot rot: delete the pragma when the code it excused goes away.
//!
//! A diagnostic is opted out of with a pragma in a comment **on the same
//! line**: `// xtask-allow: <rule>` or `// xtask-allow: <rule>: <reason>`.
//! The reason is recommended everywhere.

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

/// Crates whose runtime paths may not use `assert!` at all (**no-panic**):
/// `dataflow` because the distributed runtime must degrade through the
/// `RuntimeError` taxonomy, never abort; `kl` because the
/// KL/FM kernel sits inside every worker and a release-mode abort there
/// takes a whole sweep down with it. `debug_assert!` is exempt, and the
/// `debug-invariants` feature plus the invariants modules carry the
/// release-strength checks. Cold constructor validation may pragma out
/// with a stated reason.
pub const NO_ASSERT_CRATES: &[&str] = &["dataflow", "kl"];

/// Crates whose runtime paths are subject to **float-determinism**: the
/// detection kernels and every ranking baseline whose scores get compared
/// across detectors (`sybilrank`, `votetrust`, `eval`), plus `dataflow`,
/// whose distributed sweep must stay byte-identical to `core`'s local one.
pub const FLOAT_CRATES: &[&str] =
    &["socialgraph", "kl", "core", "sybilrank", "votetrust", "dataflow", "eval"];

/// Every rule name `xtask-allow:` accepts. `dead-pragma` is listed (so a
/// pragma naming it parses) but is itself never suppressible.
pub const RULES: &[&str] = &["no-unwrap", "no-panic", "float-determinism", "dead-pragma"];

/// Minimum `.expect("...")` message length that can plausibly state an
/// invariant ("fixture parses", "sweep is non-empty", ...).
pub const MIN_EXPECT_MESSAGE: usize = 8;

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
    /// File contents.
    pub text: &'a str,
}

/// One `xtask-allow` pragma, parsed out of a comment token.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pragma {
    /// 1-based line the pragma sits on (and therefore suppresses).
    line: usize,
    rule: String,
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
            out.push(Pragma { line, rule: rest[..name_len].to_string() });
            search = at + "xtask-allow:".len();
        }
    }
    out
}

/// The rule engine for one file: the significant-token stream, the
/// pragma table, and the violations accumulated so far.
struct Engine<'a> {
    f: &'a SourceFile<'a>,
    sig: Vec<Token<'a>>,
    pragmas: Vec<Pragma>,
    pragma_used: Vec<bool>,
    out: Vec<Violation>,
}

impl<'a> Engine<'a> {
    /// Records a violation at `line` unless a same-line pragma for `rule`
    /// suppresses it (marking that pragma live).
    fn emit(&mut self, rule: &'static str, line: usize, message: String) {
        if let Some(i) = self.pragmas.iter().position(|p| p.line == line && p.rule == rule) {
            self.pragma_used[i] = true;
            return;
        }
        self.out.push(Violation { file: self.f.rel_path.to_string(), line, rule, message });
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
        sig,
        pragmas,
        pragma_used,
        out: Vec::new(),
    };

    let unwrap_banned = NO_UNWRAP_CRATES.contains(&f.crate_name);
    // The runtime-path rules cover `/src/` trees only, minus the
    // invariants modules (whose whole job is panicking on corrupted
    // state) and everything from the first `#[cfg(test)] mod` down.
    let in_src = f.rel_path.contains("/src/");
    let panic_banned = unwrap_banned && in_src && !f.rel_path.contains("invariants");
    let assert_banned = panic_banned && NO_ASSERT_CRATES.contains(&f.crate_name);
    let float_banned = FLOAT_CRATES.contains(&f.crate_name) && in_src;
    let test_start = if panic_banned || float_banned { e.test_module_start() } else { usize::MAX };

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
        SourceFile { rel_path: "crates/test/src/x.rs", crate_name, text }
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
        let src =
            "//! `xtask-allow: float-determinism: index order` states the argument.\nfn f() {}\n";
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
            text: "pub fn check() { panic!(\"corrupted bookkeeping\"); }\n",
        };
        assert!(lint_file(&f).is_empty());
    }

    #[test]
    fn test_directories_may_panic() {
        let f = SourceFile {
            rel_path: "crates/core/tests/faults.rs",
            crate_name: "core",
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
    fn pragma_line_inside_block_comment_is_the_marker_line() {
        let toks = lex("/* spanning\n   xtask-allow: no-panic: here\n*/\n");
        let ps = collect_pragmas(&toks);
        assert_eq!(ps[0].line, 2);
    }
}
