//! Corpus-driven rule fixtures (`crates/xtask/fixtures/*.rs`).
//!
//! Each fixture is a standalone Rust source (never compiled — read as
//! data) with `//~` directives:
//!
//! * `//~ crate: <name>` / `//~ path: <rel path>` headers set the
//!   [`SourceFile`] context the rules key on;
//! * `//~ expect: <rule>[, <rule>...]` markers state exactly which
//!   diagnostics the marker's own line must produce.
//!
//! The harness lints every fixture and requires the violation set to
//! match the markers *exactly* — so `*_pass` fixtures (no markers) must
//! lint completely clean, and `*_fail` fixtures must fire each rule on
//! each marked line and nowhere else. A second test enforces corpus
//! coverage: every rule in [`RULES`] has at least one `<rule>_fail*`
//! and one `<rule>_pass*` fixture.

use crate::lint::{lint_file, SourceFile, RULES};
use std::path::Path;

struct Fixture {
    name: String,
    crate_name: String,
    rel_path: String,
    expects: Vec<(String, usize)>,
    text: String,
}

fn load_corpus() -> Vec<Fixture> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("crates/xtask/fixtures exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
        .collect();
    paths.sort();
    paths.iter().map(|p| parse_fixture(p)).collect()
}

fn parse_fixture(path: &Path) -> Fixture {
    let name =
        path.file_stem().and_then(|s| s.to_str()).expect("utf-8 fixture name").to_string();
    let text = std::fs::read_to_string(path).expect("fixture is readable utf-8");
    let mut crate_name = String::new();
    let mut rel_path = String::new();
    let mut expects = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if let Some(rest) = line.trim().strip_prefix("//~ crate:") {
            crate_name = rest.trim().to_string();
        } else if let Some(rest) = line.trim().strip_prefix("//~ path:") {
            rel_path = rest.trim().to_string();
        }
        if let Some(at) = line.find("//~ expect:") {
            let spec = &line[at + "//~ expect:".len()..];
            for rule in spec.split(',').map(str::trim).filter(|r| !r.is_empty()) {
                expects.push((rule.to_string(), lineno));
            }
        }
    }
    assert!(!crate_name.is_empty(), "{name}: missing `//~ crate:` header");
    assert!(!rel_path.is_empty(), "{name}: missing `//~ path:` header");
    Fixture { name, crate_name, rel_path, expects, text }
}

fn sorted(mut v: Vec<(String, usize)>) -> Vec<(String, usize)> {
    v.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    v
}

#[test]
fn corpus_matches_expectations() {
    let corpus = load_corpus();
    assert!(!corpus.is_empty(), "fixture corpus is empty");
    for f in &corpus {
        let got: Vec<(String, usize)> = lint_file(&SourceFile {
            rel_path: &f.rel_path,
            crate_name: &f.crate_name,
            text: &f.text,
        })
        .iter()
        .map(|v| (v.rule.to_string(), v.line))
        .collect();
        assert_eq!(
            sorted(got),
            sorted(f.expects.clone()),
            "{}: violations diverge from the `//~ expect` markers",
            f.name
        );
    }
}

#[test]
fn every_rule_has_pass_and_fail_fixtures() {
    let corpus = load_corpus();
    for rule in RULES {
        let slug = rule.replace('-', "_");
        let fail = corpus.iter().any(|f| {
            f.name.starts_with(&format!("{slug}_fail"))
                && f.expects.iter().any(|(r, _)| r == rule)
        });
        let pass = corpus
            .iter()
            .any(|f| f.name.starts_with(&format!("{slug}_pass")) && f.expects.is_empty());
        assert!(fail, "rule `{rule}` has no failing fixture in the corpus");
        assert!(pass, "rule `{rule}` has no passing fixture in the corpus");
    }
}

/// The PR 2 line scanner produced false positives on every construct in
/// this fixture (strings, raw strings, nested block comments); it must
/// exist and — via [`corpus_matches_expectations`] — lint clean.
#[test]
fn line_scanner_regression_fixture_is_present() {
    let corpus = load_corpus();
    assert!(
        corpus.iter().any(|f| f.name.starts_with("regression_line_scanner") && f.expects.is_empty()),
        "missing the line-scanner regression fixture"
    );
}
