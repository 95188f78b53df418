//! Extension experiment (§VIII related work): Rejecto vs the two
//! rejection-aware per-user baselines — VoteTrust and SybilFence — under
//! increasing collusion.
//!
//! The paper's argument: schemes built on *individual* rejection signals
//! (VoteTrust's per-user rating, SybilFence's per-user edge discounting)
//! are manipulable, because accepted intra-fake requests dilute each fake
//! account's individual rejection load; the aggregate acceptance rate of
//! the cross-region cut cannot be diluted that way. This harness sweeps
//! the collusion axis and scores all three schemes with the same
//! declare-the-fake-count protocol.

use bench::{Harness, PipelineConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rejecto::pipeline;
use serde::Serialize;
use simulator::{sample_seeds, ScenarioConfig};
use socialgraph::surrogates::Surrogate;
use socialgraph::NodeId;
use sybilrank::{SybilFence, SybilFenceConfig};

#[derive(Debug, Clone, Serialize)]
struct Row {
    axis: String,
    x: usize,
    rejecto: f64,
    votetrust: f64,
    sybilfence: f64,
}

fn sybilfence_suspects(
    sim: &simulator::SimOutput,
    cfg: &PipelineConfig,
    budget: usize,
) -> Vec<NodeId> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let (legit, _) = sample_seeds(sim, cfg.num_legit_seeds.max(1), 0, &mut rng);
    let result = SybilFence::new(SybilFenceConfig::default()).rank(&sim.graph, &legit);
    eval::ascending_by_score(result.scores())
        .into_iter()
        .take(budget)
        .map(NodeId::from_index)
        .collect()
}

fn main() {
    let h = Harness::from_env("ext_baselines");
    let host = h.host(Surrogate::Facebook);
    let cfg = PipelineConfig::default();

    let mut rows = Vec::new();
    let measure = |axis: &str, x: usize, scenario: ScenarioConfig, rows: &mut Vec<Row>| {
        let sim = h.simulate(&host, scenario);
        let budget = sim.fakes.len();
        let rj = pipeline::precision(&pipeline::rejecto_suspects(&sim, &cfg, budget), &sim.is_fake);
        let vt =
            pipeline::precision(&pipeline::votetrust_suspects(&sim, &cfg, budget), &sim.is_fake);
        let sf = pipeline::precision(&sybilfence_suspects(&sim, &cfg, budget), &sim.is_fake);
        eprintln!("  {axis}={x}: rejecto {rj:.4} votetrust {vt:.4} sybilfence {sf:.4}");
        rows.push(Row { axis: axis.to_string(), x, rejecto: rj, votetrust: vt, sybilfence: sf });
    };

    // Axis 1: collusion. Intra-fake edges carry no trust from the seeds,
    // so graph-based rankers are unaffected; VoteTrust's per-user rating
    // dilutes.
    for intra in [0usize, 10, 20, 30, 40] {
        measure(
            "intra_edges",
            intra,
            ScenarioConfig { fake_intra_edges: intra, ..ScenarioConfig::default() },
            &mut rows,
        );
    }
    // Axis 2: attack-edge volume. Spam at a survivable 50% rejection rate:
    // every extra accepted request is an attack edge leaking trust into
    // the Sybil region — the regime where per-user trust propagation
    // drowns and the aggregate acceptance rate still separates cleanly
    // (0.5 vs the legitimate 0.8).
    for requests in [10usize, 20, 40, 80, 160] {
        measure(
            "requests@rej0.5",
            requests,
            ScenarioConfig {
                requests_per_spammer: requests,
                spam_rejection_rate: 0.5,
                ..ScenarioConfig::default()
            },
            &mut rows,
        );
    }

    let mut t = eval::table::Table::new(["axis", "x", "rejecto", "votetrust", "sybilfence"]);
    for r in &rows {
        t.row([
            r.axis.clone(),
            r.x.to_string(),
            eval::table::fnum(r.rejecto),
            eval::table::fnum(r.votetrust),
            eval::table::fnum(r.sybilfence),
        ]);
    }
    h.emit(&t, &rows);
}
