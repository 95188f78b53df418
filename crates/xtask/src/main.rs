//! Repo-local task runner, invoked as `cargo xtask <command>` via the
//! alias in `.cargo/config.toml`.
//!
//! Commands:
//!
//! * `check` — run the token-level static-analysis pass ([`lint`], built
//!   on the hand-rolled lexer in [`lexer`]) over the workspace sources.
//! * `check --json` — emit the diagnostics as a JSON array on stdout
//!   (`{"file", "line", "rule", "message", "snippet"}` objects) for CI
//!   annotation; the human summary moves to stderr.
//! * `check --fix-dry-run` — additionally list mechanically fixable
//!   sites ([`fix`]), e.g. `partial_cmp(..).expect(..)` → `total_cmp`,
//!   without editing anything.
//! * `check --determinism` — additionally run the in-process determinism
//!   harness ([`determinism`]): simulate → detect twice from one seed,
//!   diff byte-for-byte.
//! * `chaos --seeds N [--json <path>]` — seeded chaos soak ([`chaos`]):
//!   expand each seed into a composite multi-fault schedule plus an
//!   adversarial scenario, run it at threads {1,4} and workers {1,4},
//!   and hold every leg to the typed-termination / byte-identity /
//!   metrics-reconciliation invariants.
//!
//! Exit code 0 means clean; 1 means violations (each printed as
//! `file:line: [rule] message`) or a determinism failure; 2 means usage
//! error. `--fix-dry-run` findings are informational and never affect
//! the exit code.

#![forbid(unsafe_code)]

mod chaos;
mod determinism;
mod fix;
mod lexer;
mod lint;

#[cfg(test)]
mod fixtures_test;

use lint::{SourceFile, Violation};
use rejecto_obs::json_str;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask check [--determinism] [--json] [--fix-dry-run]\n\
                     \x20      cargo xtask chaos [--seeds N] [--json <path>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("check") => {
            let mut with_determinism = false;
            let mut json = false;
            let mut fix_dry_run = false;
            for flag in it {
                match flag {
                    "--determinism" => with_determinism = true,
                    "--json" => json = true,
                    "--fix-dry-run" => fix_dry_run = true,
                    other => {
                        eprintln!("unknown flag {other:?}; {USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            check(with_determinism, json, fix_dry_run)
        }
        Some("chaos") => {
            let mut seeds: u64 = 16;
            let mut json_path: Option<String> = None;
            loop {
                match it.next() {
                    Some("--seeds") => match it.next().map(str::parse) {
                        Some(Ok(n)) => seeds = n,
                        _ => {
                            eprintln!("--seeds needs an integer; {USAGE}");
                            return ExitCode::from(2);
                        }
                    },
                    Some("--json") => match it.next() {
                        Some(path) => json_path = Some(path.to_string()),
                        None => {
                            eprintln!("--json needs a path; {USAGE}");
                            return ExitCode::from(2);
                        }
                    },
                    Some(other) => {
                        eprintln!("unknown flag {other:?}; {USAGE}");
                        return ExitCode::from(2);
                    }
                    None => break,
                }
            }
            match chaos::run(seeds, json_path.as_deref()) {
                Ok(summary) => {
                    println!("{summary}");
                    ExitCode::SUCCESS
                }
                Err(why) => {
                    eprintln!("chaos: FAILED — {why}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(other) => {
            eprintln!("unknown command {other:?}; {USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(with_determinism: bool, json: bool, fix_dry_run: bool) -> ExitCode {
    let root = repo_root();
    let mut failed = false;

    let sources = read_sources(&root);
    let violations = run_lints(&sources);
    let fixable: Vec<fix::FixCandidate> = if fix_dry_run {
        sources.iter().flat_map(|(rel, _, _, text)| fix::scan_file(rel, text)).collect()
    } else {
        Vec::new()
    };

    if json {
        println!("{}", render_json(&violations, fix_dry_run.then_some(&fixable)));
    } else {
        for v in &violations {
            println!("{v}");
        }
    }
    let summary_line = format!(
        "lint: {} — {} files scanned, {} violation(s)",
        if violations.is_empty() { "OK" } else { "FAILED" },
        sources.len(),
        violations.len()
    );
    if json {
        eprintln!("{summary_line}");
    } else {
        println!("{summary_line}");
    }
    failed |= !violations.is_empty();

    if fix_dry_run && !json {
        for c in &fixable {
            println!("{}:{}: {} → {}", c.file, c.line, c.found, c.suggestion);
        }
        println!("fix-dry-run: {} mechanically fixable site(s); nothing edited", fixable.len());
    }

    if with_determinism {
        match determinism::run() {
            Ok(summary) => eprintln_or_println(json, &summary),
            Err(why) => {
                eprintln_or_println(json, &format!("determinism: FAILED — {why}"));
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// In `--json` mode everything except the JSON document goes to stderr,
/// so stdout stays machine-parseable.
fn eprintln_or_println(json: bool, line: &str) {
    if json {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
}

/// The machine-readable diagnostics document. Hand-rolled (the xtask
/// crate deliberately has no serde dependency): an object with the
/// violation list and, under `--fix-dry-run`, the fixable sites.
fn render_json(violations: &[Violation], fixable: Option<&Vec<fix::FixCandidate>>) -> String {
    let mut s = String::from("{\n  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"snippet\": {}}}",
            json_str(&v.file),
            v.line,
            json_str(v.rule),
            json_str(&v.message),
            json_str(&v.snippet),
        ));
    }
    if violations.is_empty() {
        s.push(']');
    } else {
        s.push_str("\n  ]");
    }
    if let Some(fixable) = fixable {
        s.push_str(",\n  \"fixable\": [");
        for (i, c) in fixable.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"found\": {}, \"suggestion\": {}}}",
                json_str(&c.file),
                c.line,
                json_str(&c.found),
                json_str(&c.suggestion),
            ));
        }
        if fixable.is_empty() {
            s.push(']');
        } else {
            s.push_str("\n  ]");
        }
    }
    s.push_str("\n}");
    s
}

/// The workspace root: two levels above this crate's manifest dir.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Every first-party `.rs` file, as `(absolute path, crate name,
/// is_crate_root)`. Scans `crates/*/{src,tests,benches}` and the root
/// package's `src/`; `vendor/` (third-party stubs), `target/`, and the
/// lint fixture corpus (`crates/xtask/fixtures/`, deliberately full of
/// violations) are out of scope. Deterministic order (sorted walk).
fn collect_sources(root: &Path) -> Vec<(PathBuf, String, bool)> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    for crate_dir in sorted_dirs(&crates_dir) {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .expect("crate directory has a utf-8 name")
            .to_string();
        for sub in ["src", "tests", "benches"] {
            walk_rs(&crate_dir.join(sub), &mut |path| {
                let is_root = sub == "src"
                    && path.parent() == Some(crate_dir.join("src").as_path())
                    && matches!(
                        path.file_name().and_then(|n| n.to_str()),
                        Some("lib.rs") | Some("main.rs")
                    );
                out.push((path.to_path_buf(), crate_name.clone(), is_root));
            });
        }
    }
    let root_src = root.join("src");
    walk_rs(&root_src, &mut |path| {
        let is_root = path.parent() == Some(root_src.as_path())
            && matches!(
                path.file_name().and_then(|n| n.to_str()),
                Some("lib.rs") | Some("main.rs")
            );
        out.push((path.to_path_buf(), "rejecto".to_string(), is_root));
    });
    out
}

/// Reads every source file once: `(rel path, crate, is_root, text)`.
/// Unreadable files become synthetic entries whose "text" is empty; the
/// lint runner reports them as `io` violations.
fn read_sources(root: &Path) -> Vec<(String, String, bool, String)> {
    collect_sources(root)
        .into_iter()
        .map(|(path, crate_name, is_root)| {
            let rel = rel(root, &path);
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| format!("\u{0}io error: {e}"));
            (rel, crate_name, is_root, text)
        })
        .collect()
}

fn run_lints(sources: &[(String, String, bool, String)]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (rel_path, crate_name, is_crate_root, text) in sources {
        if let Some(err) = text.strip_prefix('\u{0}') {
            violations.push(Violation {
                file: rel_path.clone(),
                line: 0,
                rule: "io",
                message: format!("unreadable source file: {err}"),
                snippet: String::new(),
            });
            continue;
        }
        violations.extend(lint::lint_file(&SourceFile {
            rel_path,
            crate_name,
            is_crate_root: *is_crate_root,
            text,
        }));
    }
    violations
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).display().to_string()
}

fn sorted_dirs(dir: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// Depth-first sorted walk collecting `.rs` files under `dir` (no-op when
/// the directory does not exist).
fn walk_rs(dir: &Path, visit: &mut dyn FnMut(&Path)) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, visit);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            visit(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_document_shape() {
        let v = vec![Violation {
            file: "crates/x/src/a.rs".to_string(),
            line: 3,
            rule: "no-unwrap",
            message: "msg with \"quotes\"".to_string(),
            snippet: "let x = y.unwrap();".to_string(),
        }];
        let doc = render_json(&v, None);
        assert!(doc.contains("\"violations\""));
        assert!(doc.contains("\"rule\": \"no-unwrap\""));
        assert!(doc.contains("\\\"quotes\\\""));
        assert!(!doc.contains("\"fixable\""));
        let with_fix = render_json(&[], Some(&vec![]));
        assert!(with_fix.contains("\"violations\": []"));
        assert!(with_fix.contains("\"fixable\": []"));
    }

    /// The whole-repo lint pass over the real working tree: this is the
    /// same invariant CI enforces, kept here so `cargo test` fails fast
    /// when a kernel change violates a rule.
    #[test]
    fn working_tree_is_lint_clean() {
        let sources = read_sources(&repo_root());
        assert!(!sources.is_empty(), "source walk found nothing");
        let violations = run_lints(&sources);
        assert!(
            violations.is_empty(),
            "working tree has lint violations:\n{}",
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
        );
    }
}
