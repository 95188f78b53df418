//! End-to-end tests of the compiled `rejecto` binary — the full operator
//! workflow through real process boundaries and real files.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rejecto"))
}

/// A scratch directory, removed when the test ends (also when it fails).
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn workdir(name: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("rejecto-bin-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    TempDir(dir)
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

#[test]
fn votetrust_seed_past_the_log_is_a_usage_error_not_a_panic() {
    let dir = workdir("votetrust-seed");
    let log = dir.join("three.requests");
    std::fs::write(&log, "0 1 1\n2 1 0\n").expect("write request log");
    let out = bin()
        .args(["votetrust", "--log", log.to_str().unwrap(), "--seeds", "0,99"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.trim_end(), "error: seed 99 out of range (3 nodes)");
}

#[test]
fn truth_id_past_the_graph_is_rejected_not_dropped() {
    let dir = workdir("truth-range");
    let stem = dir.join("run");
    let stem = stem.to_str().unwrap();
    run_ok(bin().args([
        "simulate", "--out", stem, "--scale", "0.02", "--fakes", "60", "--seed", "7",
    ]));
    let graph = format!("{stem}.rjg");
    let truth = format!("{stem}.truth");
    let mut ids = std::fs::read_to_string(&truth).expect("truth file");
    let line = ids.lines().count() + 1;
    ids.push_str("99999\n");
    std::fs::write(&truth, ids).expect("append to truth file");
    let want = format!("error: {truth}:{line}: node id 99999 out of range (260 nodes)");
    for cmd in [
        vec!["detect", "--graph", &graph, "--budget", "60", "--truth", &truth],
        vec!["defense", "--graph", &graph, "--seeds", "0", "--budget", "60", "--truth", &truth],
    ] {
        let out = bin().args(&cmd).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", cmd[0]);
        assert_eq!(stderr.trim_end(), want, "{}", cmd[0]);
    }
}

/// Runs `args`, expecting exit 1 with an error that starts with `what` and
/// nothing on stdout (the file is read before any work is done).
fn assert_error_names(args: &[&str], what: &str) {
    let out = bin().args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{}: {stderr}", args[0]);
    assert!(stderr.starts_with(&format!("error: {what}: ")), "{}: {stderr}", args[0]);
    assert!(out.stdout.is_empty(), "{}: {}", args[0], String::from_utf8_lossy(&out.stdout));
}

fn simulated_graph(name: &str) -> (TempDir, String) {
    let dir = workdir(name);
    let stem = dir.join("run");
    let stem = stem.to_str().expect("utf-8 temp path");
    run_ok(bin().args([
        "simulate", "--out", stem, "--scale", "0.02", "--fakes", "60", "--seed", "7",
    ]));
    let graph = format!("{stem}.rjg");
    (dir, graph)
}

#[test]
fn detect_names_a_missing_truth_file_before_detecting() {
    let (dir, graph) = simulated_graph("detect-no-truth");
    let truth = dir.join("absent.truth");
    let truth = truth.to_str().expect("utf-8 temp path");
    assert_error_names(
        &["detect", "--graph", &graph, "--budget", "60", "--truth", truth],
        truth,
    );
}

#[test]
fn defense_names_a_missing_truth_file_before_detecting() {
    let (dir, graph) = simulated_graph("defense-no-truth");
    let truth = dir.join("absent.truth");
    let truth = truth.to_str().expect("utf-8 temp path");
    assert_error_names(
        &["defense", "--graph", &graph, "--seeds", "0", "--budget", "60", "--truth", truth],
        truth,
    );
}

#[test]
fn votetrust_names_a_missing_log_file() {
    let dir = workdir("votetrust-no-log");
    let log = dir.join("absent.requests");
    let log = log.to_str().expect("utf-8 temp path");
    assert_error_names(&["votetrust", "--log", log], log);
}

#[test]
fn a_truth_line_that_cannot_be_read_names_the_file_and_line() {
    let (dir, graph) = simulated_graph("truth-not-utf8");
    let truth = dir.join("bad.truth");
    std::fs::write(&truth, b"1\n\xff\xfe\n").expect("write truth file");
    let truth = truth.to_str().expect("utf-8 temp path");
    assert_error_names(
        &["detect", "--graph", &graph, "--budget", "60", "--truth", truth],
        &format!("{truth}:2"),
    );
}

/// A cluster that cannot serve the run fails it with exit 1 and one line
/// naming why: a config it cannot shard with, or a worker that keeps dying
/// through its respawn budget of 3 with no survivor to take its shard.
/// The failed run still writes its metrics document, so the respawns it
/// made before giving up are reported.
#[test]
fn cluster_failures_exit_1_with_their_exact_message() {
    let (dir, graph) = simulated_graph("cluster-failed");
    let metrics = dir.join("m.json");
    let metrics_s = metrics.to_str().expect("utf-8 temp path");
    for (flags, want) in [
        (
            &["--workers", "0"][..],
            "error: distributed cluster failed: invalid cluster config: num_workers must be at \
             least 1",
        ),
        (
            &[
                "--workers",
                "1",
                "--inject",
                "worker_death@fetch=1:x40",
                "--request-deadline-ms",
                "50",
                "--metrics",
                metrics_s,
            ],
            "error: distributed cluster failed: worker 0 lost after 3 respawn attempt(s) with no \
             survivor to rebalance onto",
        ),
    ] {
        let out = bin()
            .args(["detect", "--graph", &graph, "--distributed", "true"])
            .args(flags)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert_eq!(stderr.trim_end(), want, "{flags:?}");
        assert!(out.stdout.is_empty(), "{flags:?}: {}", String::from_utf8_lossy(&out.stdout));
    }
    let doc = std::fs::read_to_string(&metrics).expect("the failed run writes its metrics");
    assert!(doc.contains("\"io/worker_restarts\": 3"), "{doc}");
    assert!(doc.contains("\"cancel/polls\""), "{doc}");
}

/// A resume that finds no valid generation exits with its error, and its
/// `--metrics` file still counts every generation it skipped.
#[test]
fn resume_with_no_valid_generation_still_writes_its_metrics() {
    let dir = workdir("resume-none-valid");
    let stem = dir.join("crash");
    let stem = stem.to_str().expect("utf-8 temp path");
    run_ok(bin().args([
        "simulate", "--out", stem, "--scale", "0.02", "--fakes", "60", "--seed", "7",
        "--whitewashed", "30", "--self-requests", "20", "--self-rejection-rate", "0.95",
    ]));
    let graph = format!("{stem}.rjg");
    let ckpt = dir.join("z.ckpt");
    let ckpt = ckpt.to_str().expect("utf-8 temp path");
    run_ok(bin().args(["detect", "--graph", &graph, "--budget", "60", "--checkpoint", ckpt]));
    let mut generations = 0;
    for entry in std::fs::read_dir(&*dir).expect("scratch dir lists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if name.starts_with("z.ckpt.gen-") {
            std::fs::write(&path, "overwritten\n").expect("overwrite a generation");
            generations += 1;
        }
    }
    assert!(generations >= 2, "a multi-round run keeps several generations");

    let metrics = dir.join("m.json");
    let out = bin()
        .args(["detect", "--graph", &graph, "--budget", "60", "--resume", ckpt, "--metrics"])
        .arg(&metrics)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("no valid checkpoint generation"), "{stderr}");
    let doc = std::fs::read_to_string(&metrics).expect("the failed resume writes its metrics");
    assert!(doc.contains(&format!("\"ckpt/corrupt_skipped\": {generations}")), "{doc}");
}
