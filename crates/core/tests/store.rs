//! Property-based validation of the durable artifact store (DESIGN.md
//! §14) and end-to-end crash-consistent resume.
//!
//! Contracts under test:
//!
//! * the CRC32 integrity frame round-trips every payload byte-exactly, and
//!   rejects ANY single bit flip, truncation, or appended garbage with the
//!   offending byte offset in the error;
//! * an empty or mangled checkpoint file surfaces as a structured
//!   `CheckpointCorrupt`, never a JSON parse panic;
//! * with the newest generation deliberately mangled (`torn_write@round=N`
//!   / `bit_flip@round=N`), resume falls back to the prior valid
//!   generation and the finished run is identical to an uninterrupted one,
//!   at `threads = 1` and `threads = 4`.

use proptest::prelude::*;
use rejecto_core::store::{atomic_write, decode_frame, encode_frame, CheckpointStore};
use rejecto_core::{
    Checkpoint, DetectionReport, FaultPlan, IterativeDetector, RejectoConfig, RuntimeError,
    Seeds, Termination,
};
use rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeId};
use std::path::{Path, PathBuf};

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

fn tmpdir(tag: &str) -> TempDir {
    let dir =
        std::env::temp_dir().join(format!("rejecto-store-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    TempDir(dir)
}

/// Legit clique (0–3); fake group A (4–5) heavily rejected by legit; fake
/// group B (6–7) whitewashed behind A's self-rejections. Detection needs
/// multiple productive rounds here (A falls before B), so the store
/// accumulates a real generation chain to corrupt and fall back through.
fn multi_round_graph() -> AugmentedGraph {
    let mut b = AugmentedGraphBuilder::new(8);
    for u in 0..4u32 {
        for v in (u + 1)..4 {
            b.add_friendship(NodeId(u), NodeId(v));
        }
    }
    b.add_friendship(NodeId(4), NodeId(5));
    b.add_friendship(NodeId(6), NodeId(7));
    b.add_friendship(NodeId(0), NodeId(4));
    b.add_friendship(NodeId(1), NodeId(6));
    for (r, s) in [(0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)] {
        b.add_rejection(NodeId(r), NodeId(s));
    }
    for (r, s) in [(6, 4), (6, 5), (7, 4), (7, 5)] {
        b.add_rejection(NodeId(r), NodeId(s));
    }
    b.add_rejection(NodeId(2), NodeId(6));
    b.add_rejection(NodeId(3), NodeId(7));
    b.add_rejection(NodeId(0), NodeId(7));
    b.build()
}

fn detector(threads: usize) -> IterativeDetector {
    IterativeDetector::new(RejectoConfig { threads, ..RejectoConfig::default() })
}

fn run_with_store(det: &IterativeDetector, g: &AugmentedGraph, store: &CheckpointStore)
    -> DetectionReport
{
    let mut sink =
        |ckpt: &Checkpoint| store.save(ckpt).map_err(std::io::Error::other);
    det.detect_with_checkpoints(g, &Seeds::default(), Termination::SuspectBudget(4), &mut sink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode is the identity for every payload.
    #[test]
    fn frame_round_trip_is_total(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let framed = encode_frame(&payload);
        let decoded = decode_frame(&framed);
        prop_assert!(decoded.is_ok(), "own frame rejected: {:?}", decoded.err());
        prop_assert_eq!(decoded.expect("checked is_ok above"), payload.as_slice());
    }

    /// Any single bit flip anywhere in the frame is rejected, and the
    /// reported offset stays inside the frame.
    #[test]
    fn any_single_bit_flip_is_rejected(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        pos in 0usize..4096,
        bit in 0u8..8,
    ) {
        let framed = encode_frame(&payload);
        let at = pos % framed.len();
        let mut bad = framed.clone();
        bad[at] ^= 1 << bit;
        let err = decode_frame(&bad).expect_err("flipped frame accepted");
        prop_assert!(
            err.offset <= framed.len(),
            "offset {} past frame end {} for flip at {at}", err.offset, framed.len()
        );
    }

    /// Any strict truncation is rejected; the offset never exceeds the
    /// truncated length (it points at the first missing or bad byte).
    #[test]
    fn any_truncation_is_rejected(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        pos in 0usize..4096,
    ) {
        let framed = encode_frame(&payload);
        let cut = pos % framed.len();
        let err = decode_frame(&framed[..cut]).expect_err("truncated frame accepted");
        prop_assert!(err.offset <= cut, "offset {} past cut {cut}", err.offset);
    }

    /// Appended garbage is rejected, naming the first trailing byte.
    #[test]
    fn appended_garbage_is_rejected_with_its_offset(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let framed = encode_frame(&payload);
        let mut bad = framed.clone();
        bad.extend_from_slice(&garbage);
        let err = decode_frame(&bad).expect_err("frame with trailing garbage accepted");
        prop_assert_eq!(err.offset, framed.len(), "offset must name the first extra byte");
    }

    /// Atomic writes round-trip arbitrary bytes and fully replace prior
    /// contents (no blending, no partial visibility after return).
    #[test]
    fn atomic_write_round_trips_and_replaces(
        first in proptest::collection::vec(any::<u8>(), 0..512),
        second in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let dir = tmpdir("prop-atomic");
        let path = dir.join("artifact.bin");
        atomic_write(&path, &first).expect("first atomic write succeeds");
        prop_assert_eq!(&std::fs::read(&path).expect("artifact readable"), &first);
        atomic_write(&path, &second).expect("second atomic write succeeds");
        prop_assert_eq!(&std::fs::read(&path).expect("artifact readable"), &second);
    }
}

/// Regression: a zero-length checkpoint file must yield a structured
/// `CheckpointCorrupt`, not a JSON parse panic (the pre-store resume path
/// fed `""` straight to the JSON parser).
#[test]
fn empty_checkpoint_file_resumes_as_checkpoint_corrupt() {
    let dir = tmpdir("empty");
    let path = dir.join("zero.ckpt");
    #[expect(
        clippy::disallowed_methods,
        reason = "test fixture written in place on purpose; it has no durability contract"
    )]
    std::fs::write(&path, b"").expect("fixture file is writable");
    let err = CheckpointStore::new(&path)
        .load_latest_valid()
        .expect_err("an empty checkpoint cannot resume");
    match err {
        RuntimeError::CheckpointCorrupt { path, .. } => {
            assert!(path.contains("zero.ckpt"), "{path}");
        }
        other => panic!("expected CheckpointCorrupt, got {other}"),
    }
}

/// The whole crash-consistency property, in process: run with checkpoints
/// while injection mangles the newest generation, then resume from the
/// store. Resume must fall back to the surviving generation, record the
/// skip as a structured `CheckpointCorrupt`, and finish with a report
/// identical to the uninterrupted run — at 1 and 4 threads, for both
/// mangle forms.
#[test]
fn mangled_newest_generation_resumes_identically() {
    for spec in ["torn_write@round=2", "bit_flip@round=2"] {
        for threads in [1usize, 4] {
            let g = multi_round_graph();
            let clean = detector(threads).detect(
                &g,
                &Seeds::default(),
                Termination::SuspectBudget(4),
            );
            assert!(clean.groups.len() >= 2, "scenario must need multiple rounds");

            let form = spec.split('@').next().expect("split yields at least one part");
            let dir = tmpdir(&format!("e2e-{threads}-{form}"));
            let plan = FaultPlan::parse(spec).expect("spec is well-formed");
            let store = CheckpointStore::new(dir.join("run.ckpt")).with_faults(&plan);
            let faulted = run_with_store(&detector(threads), &g, &store);
            assert_eq!(faulted, clean, "{spec}: the mangle must not touch the live run");

            let resume = store.load_latest_valid().expect("an older generation survives");
            assert!(resume.fell_back(), "{spec}: resume must have skipped the mangled gen");
            assert_eq!(resume.skipped.len(), 1);
            assert!(
                matches!(&resume.skipped[0], RuntimeError::CheckpointCorrupt { .. }),
                "{spec}: skip must be CheckpointCorrupt, got {:?}",
                resume.skipped[0]
            );
            assert_eq!(resume.checkpoint.rounds, 1, "{spec}: fallback lands on round 1");

            let resumed = detector(threads)
                .run(
                    &g,
                    &Seeds::default(),
                    Termination::SuspectBudget(4),
                    Some(&resume.checkpoint),
                    None,
                )
                .expect("surviving generation resumes");
            assert_eq!(
                resumed, clean,
                "{spec} threads={threads}: fallback resume diverged from the clean run"
            );
        }
    }
}

/// Generational retention under a real run: `with_keep(1)` leaves exactly
/// the newest generation on disk.
#[test]
fn keep_budget_prunes_older_generations_during_a_run() {
    let g = multi_round_graph();
    let dir = tmpdir("keep");
    let store = CheckpointStore::new(dir.join("run.ckpt")).with_keep(1);
    let report = run_with_store(&detector(1), &g, &store);
    assert!(report.rounds >= 2, "scenario must need multiple rounds");
    assert!(!store.generation_path(1).exists(), "generation 1 must be pruned");
    let resume = store.load_latest_valid().expect("newest generation loads");
    assert!(!resume.fell_back());
    assert!(resume.checkpoint.rounds >= 2);
}

/// A rerun into a used stem owns it from its first save: run A saves
/// rounds 1–5, run B (another graph) then saves round 1 to the same stem.
/// B's generation survives, A's newer generations are gone, and resume
/// returns B's state rather than continuing A's round 5.
#[test]
fn a_rerun_replaces_the_newer_generations_of_an_earlier_run() {
    let dir = tmpdir("rerun");
    let store = CheckpointStore::new(dir.join("run.ckpt"));
    let a = multi_round_graph();
    for rounds in 1..=5 {
        let report = DetectionReport { rounds, ..DetectionReport::default() };
        store.save(&Checkpoint::capture(&a, &report)).expect("run A saves");
    }
    let b_ckpt = Checkpoint::capture(
        &AugmentedGraphBuilder::new(3).build(),
        &DetectionReport { rounds: 1, ..DetectionReport::default() },
    );
    store.save(&b_ckpt).expect("run B saves");

    assert!(store.generation_path(1).exists(), "run B's own generation must survive");
    let resume = store.load_latest_valid().expect("run B's generation loads");
    assert_eq!(resume.checkpoint, b_ckpt, "resume must continue run B, not run A");
    assert!(resume.skipped.is_empty());
    let mut left: Vec<String> = std::fs::read_dir(&*dir)
        .expect("stem directory is listable")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, ["run.ckpt.gen-1.json"], "no other generation may remain");
}

/// Obs counters reconcile with the injected faults: one mangled
/// generation → `ckpt/corrupt_skipped` = 1 and `ckpt/fallbacks` = 1, both
/// in the volatile section of the metrics document so the deterministic
/// prefix stays byte-comparable.
#[test]
fn fallback_counters_reconcile_with_injected_faults() {
    let g = multi_round_graph();
    let dir = tmpdir("obs");
    let plan = FaultPlan::parse("bit_flip@round=2").expect("spec is well-formed");
    let store = CheckpointStore::new(dir.join("run.ckpt")).with_faults(&plan);
    run_with_store(&detector(1), &g, &store);

    let obs = rejecto_obs::Obs::default();
    let reader = CheckpointStore::new(dir.join("run.ckpt")).with_obs(obs.clone());
    let resume = reader.load_latest_valid().expect("fallback succeeds");
    assert!(resume.fell_back());
    let doc = obs.to_json();
    assert!(doc.contains("\"ckpt/corrupt_skipped\": 1"), "{doc}");
    assert!(doc.contains("\"ckpt/fallbacks\": 1"), "{doc}");
    let stripped = rejecto_obs::strip_timings(&doc);
    assert!(
        !stripped.contains("ckpt/"),
        "fallback counters must be volatile (stripped with timings): {stripped}"
    );
}

/// Every generation mangled → a typed `resolve` failure with full skip
/// accounting, never a panic or a half-parsed resume.
#[test]
fn exhausted_generation_chain_is_a_typed_error() {
    let g = multi_round_graph();
    let dir = tmpdir("exhausted");
    let store = CheckpointStore::new(dir.join("run.ckpt"));
    let report = run_with_store(&detector(1), &g, &store);
    assert!(report.rounds >= 2);
    // Corrupt every generation on disk.
    for round in 1..=report.rounds {
        let p = store.generation_path(round);
        if p.exists() {
            #[expect(
                clippy::disallowed_methods,
                reason = "test fixture written in place on purpose; it has no durability contract"
            )]
            std::fs::write(&p, b"not a frame").expect("fixture overwrite succeeds");
        }
    }
    let obs = rejecto_obs::Obs::default();
    match store.with_obs(obs.clone()).load_latest_valid() {
        Err(RuntimeError::StoreFailed { op, message, .. }) if op == "resolve" => {
            let skipped = obs.volatile("ckpt/corrupt_skipped");
            assert!(skipped >= 2, "each corrupt generation must be counted, got {skipped}");
            assert!(message.contains(&format!("({skipped} candidate(s)")), "{message}");
        }
        other => panic!("expected a resolve StoreFailed, got {other:?}"),
    }
}
