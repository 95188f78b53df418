//! Repo-local task runner, invoked as `cargo xtask <command>` via the
//! alias in `.cargo/config.toml`.
//!
//! Commands:
//!
//! * `check` — run the token-level static-analysis pass ([`lint`], built
//!   on the hand-rolled lexer in [`lexer`]) over the workspace sources.
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
//! error.

#![forbid(unsafe_code)]

mod chaos;
mod determinism;
mod lexer;
mod lint;

#[cfg(test)]
mod fixtures_test;

use lint::{SourceFile, Violation};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask check [--determinism]\n\
                     \x20      cargo xtask chaos [--seeds N] [--json <path>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("check") => {
            let mut with_determinism = false;
            for flag in it {
                match flag {
                    "--determinism" => with_determinism = true,
                    other => {
                        eprintln!("unknown flag {other:?}; {USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            check(with_determinism)
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

fn check(with_determinism: bool) -> ExitCode {
    let root = repo_root();
    let sources = read_sources(&root);
    let violations = run_lints(&sources);
    for v in &violations {
        println!("{v}");
    }
    println!(
        "lint: {} — {} files scanned, {} violation(s)",
        if violations.is_empty() { "OK" } else { "FAILED" },
        sources.len(),
        violations.len()
    );
    let mut failed = !violations.is_empty();

    if with_determinism {
        match determinism::run() {
            Ok(summary) => println!("{summary}"),
            Err(why) => {
                println!("determinism: FAILED — {why}");
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
