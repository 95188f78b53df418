//! Serial-vs-parallel wall time of the MAAR `k` sweep.
//!
//! The sweep solves one independent extended-KL run per `k`
//! (§IV-D / Theorem 1), so it parallelizes embarrassingly across the
//! worker pool behind `RejectoConfig::threads`. This harness times the
//! full iterative detection — the pipeline's hot path — at `threads = 1`
//! (the exact serial code path) and at a ladder of pool sizes up to the
//! machine's available parallelism, on the largest bundled scenario
//! (`--scale 1.0` is the 10k-user Facebook surrogate with 10k fakes;
//! `REJECTO_SCALE` shrinks it for quick runs).
//!
//! Every timed run's detection report is checked identical to the serial
//! one before its row is emitted: a speedup that changed the answer would
//! be a bug, not a result. Rows land in `results/sweep_scaling.json`.

use bench::Harness;
use rejecto_core::{Completion, DetectionReport, IterativeDetector, RejectoConfig, Seeds, Termination};
use serde::Serialize;
use simulator::SimOutput;
use socialgraph::surrogates::Surrogate;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct Row {
    users: usize,
    fakes: usize,
    sweep_len: usize,
    threads: usize,
    seconds: f64,
    speedup: f64,
    rounds: usize,
    suspects: usize,
}

fn detect(sim: &SimOutput, threads: usize, budget: usize) -> (DetectionReport, f64) {
    let config = RejectoConfig { threads, ..RejectoConfig::default() };
    let detector = IterativeDetector::new(config);
    #[expect(clippy::disallowed_methods, reason = "the experiment reports wall time")]
    let start = Instant::now();
    let report = detector.detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(budget));
    (report, start.elapsed().as_secs_f64())
}

fn main() {
    let h = Harness::from_env("sweep_scaling");
    let host = h.host(Surrogate::Facebook);
    let sim = h.simulate(&host, simulator::ScenarioConfig::default());
    let budget = sim.fakes.len();
    let sweep_len = RejectoConfig::default().k_sweep().len();

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Climb to at least 4 workers even on smaller boxes: oversubscribed
    // pools still exercise the deterministic reduction end-to-end (their
    // speedup column just reads ~1.0x there — the wall-clock claim is for
    // hosts with that many real cores).
    let mut ladder = vec![1usize];
    for t in [2, 4, 8, 16] {
        if t <= cores.max(4) && t <= sweep_len {
            ladder.push(t);
        }
    }
    if !ladder.contains(&cores) && cores <= sweep_len {
        ladder.push(cores);
    }

    let (serial_report, serial_secs) = detect(&sim, 1, budget);
    // A run truncated by a deadline or round budget would make every
    // speedup row meaningless; the default config carries no budgets, so
    // anything but Complete here is a harness bug.
    assert_eq!(
        serial_report.completion,
        Completion::Complete,
        "benchmark baseline returned a partial report: {:?}",
        serial_report.completion
    );
    eprintln!(
        "  users={} fakes={} sweep={} threads=1 time={serial_secs:.2}s (baseline)",
        sim.graph.num_nodes(),
        budget,
        sweep_len
    );

    let mut rows = Vec::new();
    for &threads in &ladder {
        let (report, seconds) = if threads == 1 {
            (serial_report.clone(), serial_secs)
        } else {
            detect(&sim, threads, budget)
        };
        assert_eq!(
            report, serial_report,
            "threads={threads} changed the detection report — determinism bug"
        );
        let speedup = serial_secs / seconds;
        if threads != 1 {
            eprintln!("  threads={threads} time={seconds:.2}s speedup={speedup:.2}x");
        }
        rows.push(Row {
            users: sim.graph.num_nodes(),
            fakes: budget,
            sweep_len,
            threads,
            seconds,
            speedup,
            rounds: report.rounds,
            suspects: report.num_suspects(),
        });
    }

    let mut t = eval::table::Table::new(["threads", "time(s)", "speedup", "rounds", "suspects"]);
    for r in &rows {
        t.row([
            r.threads.to_string(),
            format!("{:.2}", r.seconds),
            format!("{:.2}x", r.speedup),
            r.rounds.to_string(),
            r.suspects.to_string(),
        ]);
    }
    h.emit(&t, &rows);
}
