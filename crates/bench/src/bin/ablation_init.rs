//! Ablation: KL warm start — all-legit initialization vs the
//! rejection-ratio warm start (DESIGN.md §6).
//!
//! The warm start should not change what the sweep converges to (the cut
//! is selected by acceptance rate), but it shortens the first pass.

use bench::{Harness, PipelineConfig};
use rejecto::pipeline;
use rejecto_core::InitialPlacement;
use serde::Serialize;
use simulator::ScenarioConfig;
use socialgraph::surrogates::Surrogate;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct Row {
    init: String,
    precision: f64,
    seconds: f64,
}

fn main() {
    let h = Harness::from_env("ablation_init");
    let host = h.host(Surrogate::Facebook);
    let sim = h.simulate(&host, ScenarioConfig::default());
    let budget = sim.fakes.len();

    let variants = vec![
        ("all-legit", InitialPlacement::AllLegit),
        ("ratio>=0.3", InitialPlacement::RejectionRatio(0.3)),
        ("ratio>=0.5 (default)", InitialPlacement::RejectionRatio(0.5)),
        ("ratio>=0.7", InitialPlacement::RejectionRatio(0.7)),
    ];

    let mut rows = Vec::new();
    for (name, init) in variants {
        let mut cfg = PipelineConfig::default();
        cfg.rejecto.initial_placement = init;
        #[expect(clippy::disallowed_methods, reason = "the experiment reports wall time")]
        let t0 = Instant::now();
        let suspects = pipeline::rejecto_suspects(&sim, &cfg, budget);
        let seconds = t0.elapsed().as_secs_f64();
        let precision = pipeline::precision(&suspects, &sim.is_fake);
        eprintln!("  {name}: precision {precision:.4} in {seconds:.2}s");
        rows.push(Row { init: name.to_string(), precision, seconds });
    }

    let mut t = eval::table::Table::new(["init", "precision", "time(s)"]);
    for r in &rows {
        t.row([r.init.clone(), eval::table::fnum(r.precision), format!("{:.2}", r.seconds)]);
    }
    h.emit(&t, &rows);
}
