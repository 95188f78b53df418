//! End-to-end tests of the compiled `rejecto` binary — the full operator
//! workflow through real process boundaries and real files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rejecto"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rejecto-bin-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed: {:?}\nstdout: {}\nstderr: {}",
        cmd,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn full_operator_workflow() {
    let dir = workdir("workflow");
    let stem = dir.join("attack");
    let stem = stem.to_str().unwrap();

    // 1. Simulate and persist (half the fakes stay silent so the
    //    defense-in-depth step below has a Sybil community left to rank).
    let out = run_ok(bin().args([
        "simulate", "--out", stem, "--scale", "0.04", "--fakes", "80", "--seed", "11",
        "--spammer-fraction", "0.5",
    ]));
    assert!(out.contains("simulated 480 users"), "{out}");

    // 2. Detect the spamming half with ground-truth scoring.
    let graph = format!("{stem}.rjg");
    let truth = format!("{stem}.truth");
    let out = run_ok(bin().args([
        "detect", "--graph", &graph, "--budget", "40", "--truth", &truth,
    ]));
    assert!(out.contains("precision"), "{out}");
    let precision: f64 = out
        .split("precision ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("precision parseable");
    assert!(precision > 0.9, "precision {precision}: {out}");

    // 3. Stats over the augmented graph.
    let out = run_ok(bin().args(["stats", "--augmented", &graph]));
    assert!(out.contains("rejections:"), "{out}");

    // 4. VoteTrust over the request log.
    let out = run_ok(bin().args([
        "votetrust", "--log", &format!("{stem}.requests"), "--bottom", "10", "--seeds", "0,1,2",
    ]));
    assert_eq!(out.lines().count(), 11, "{out}");

    // 5. Defense in depth: prune the spamming half, rank the silent half.
    let out = run_ok(bin().args([
        "defense", "--graph", &graph, "--seeds", "0,1,2,3,4", "--budget", "40", "--truth", &truth,
    ]));
    assert!(out.contains("sybilrank AUC"), "{out}");
    let after: f64 = out
        .split(", ")
        .last()
        .and_then(|s| s.trim().strip_suffix("after"))
        .and_then(|s| s.trim().parse().ok())
        .expect("after-AUC parseable");
    assert!(after > 0.9, "post-pruning AUC {after}: {out}");
}

#[test]
fn help_lists_all_commands() {
    let out = run_ok(bin().arg("--help"));
    for cmd in ["simulate", "detect", "stats", "votetrust", "sybilrank", "defense"] {
        assert!(out.contains(cmd), "usage is missing {cmd}");
    }
}

#[test]
fn bad_flag_fails_with_nonzero_exit() {
    let out = bin().args(["detect", "--bogus", "1"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag") || stderr.contains("missing"), "{stderr}");
}

#[test]
fn sybilrank_over_edge_list() {
    let dir = workdir("sr");
    // Write a small two-community edge list.
    let path = dir.join("edges.txt");
    let mut content = String::new();
    for u in 0..4u32 {
        for v in (u + 1)..4 {
            content.push_str(&format!("{u} {v}\n"));
            content.push_str(&format!("{} {}\n", u + 4, v + 4));
        }
    }
    content.push_str("0 4\n");
    std::fs::write(&path, content).unwrap();
    let out = run_ok(bin().args([
        "sybilrank", "--graph", path.to_str().unwrap(), "--seeds", "0", "--bottom", "3",
    ]));
    // The three lowest-trust users must all be in the unseeded community
    // (dense labels 4..8 map to edge-list order; seed community is 0-3).
    let lines: Vec<&str> = out.lines().skip(1).collect();
    assert_eq!(lines.len(), 3, "{out}");
}

#[test]
fn invalid_scenario_is_a_usage_error_not_a_panic() {
    let dir = workdir("bad-scenario");
    let stem = dir.join("bad");
    let stem = stem.to_str().unwrap();
    for (extra, want) in [
        (["--whitewashed", "100"], "whitewashed exceeds num_fakes: 100 > 60"),
        (["--spam-rejection", "1.5"], "spam_rejection_rate out of [0,1]: 1.5"),
    ] {
        let mut cmd = bin();
        cmd.args(["simulate", "--out", stem, "--scale", "0.02", "--fakes", "60"]).args(extra);
        let out = cmd.output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: invalid scenario: {want}"), "{extra:?}");
        assert!(!dir.join("bad.rjg").exists(), "{extra:?} wrote a graph");
    }
}
