//! Ablation (§IV-D): granularity of the geometric `k` sweep vs detection
//! accuracy and cost.
//!
//! Theorem 1 guarantees the MAAR cut is found at `k = k*`; the sweep only
//! approximates `k*` to within one geometric step. Coarser sweeps run
//! fewer KL solves but may land the winning `k` farther from `k*`.

use bench::{Harness, PipelineConfig};
use rejecto::pipeline;
use serde::Serialize;
use simulator::ScenarioConfig;
use socialgraph::surrogates::Surrogate;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct Row {
    k_factor: f64,
    sweep_len: usize,
    precision: f64,
    seconds: f64,
}

fn main() {
    let h = Harness::from_env("ablation_ksweep");
    let host = h.host(Surrogate::Facebook);
    let sim = h.simulate(&host, ScenarioConfig::default());
    let budget = sim.fakes.len();

    let mut rows = Vec::new();
    for k_factor in [1.2, 1.5, 2.0, 3.0, 5.0] {
        let mut cfg = PipelineConfig::default();
        cfg.rejecto.k_factor = k_factor;
        let sweep_len = cfg.rejecto.k_sweep().len();
        #[expect(clippy::disallowed_methods, reason = "the experiment reports wall time")]
        let t0 = Instant::now();
        let suspects = pipeline::rejecto_suspects(&sim, &cfg, budget);
        let seconds = t0.elapsed().as_secs_f64();
        let precision = pipeline::precision(&suspects, &sim.is_fake);
        eprintln!("  factor {k_factor}: sweep {sweep_len} precision {precision:.4} in {seconds:.2}s");
        rows.push(Row { k_factor, sweep_len, precision, seconds });
    }

    let mut t = eval::table::Table::new(["k_factor", "sweep_len", "precision", "time(s)"]);
    for r in &rows {
        t.row([
            format!("{}", r.k_factor),
            r.sweep_len.to_string(),
            eval::table::fnum(r.precision),
            format!("{:.2}", r.seconds),
        ]);
    }
    h.emit(&t, &rows);
}
