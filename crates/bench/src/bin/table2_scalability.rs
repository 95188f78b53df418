//! Table II: Rejecto's execution time against input graph size on the
//! distributed runtime (the paper: 0.5M–10M users on a 5-node Spark/EC2
//! cluster with 300 GB aggregate RAM).
//!
//! Each row times one full iterative detection (§IV-E) on in-process
//! worker threads with the §V data layout (master: status + gains +
//! bucket list; workers: sharded adjacency; prefetch through an LRU
//! buffer), run until it has declared as many suspects as there are
//! fakes. Sizes scale with `--scale` (1.0 reproduces the paper's row
//! sizes; the default harness run uses a laptop-friendly scale and the
//! near-linear trend is the claim under test). Every row reports the
//! detection's precision and recall against ground truth, and the run
//! fails if either falls below 0.9 on any row: a timing for a wrong
//! answer is not a result. Simulated master↔worker traffic is reported
//! alongside wall time.

use bench::Harness;
use dataflow::{ClusterConfig, DistributedDetector};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rejecto_core::{RejectoConfig, Seeds, Termination};
use rejecto_obs::{Obs, Stopwatch};
use serde::Serialize;
use simulator::{Scenario, ScenarioConfig};
use socialgraph::generators::BarabasiAlbert;

#[derive(Debug, Clone, Serialize)]
struct Row {
    users: usize,
    edges: u64,
    rejections: u64,
    workers: usize,
    seconds: f64,
    rounds: usize,
    groups: usize,
    suspects: usize,
    precision: f64,
    recall: f64,
    fetch_batches: u64,
    nodes_fetched: u64,
    worker_restarts: u64,
    shards_rebalanced: u64,
}

/// Perfbench's quality floor: every row must clear it in precision and
/// in recall.
const QUALITY_FLOOR: f64 = 0.9;

fn main() {
    let h = Harness::from_env("table2_scalability");
    // Paper sizes: 0.5M, 1M, 2M, 5M, 10M users at ~16 edges/user.
    let paper_users = [500_000usize, 1_000_000, 2_000_000, 5_000_000, 10_000_000];
    // A coarser sweep with fewer passes per k keeps the larger sizes
    // affordable; the trend across sizes is what the table shows.
    let rejecto = RejectoConfig { k_factor: 2.5, max_kl_passes: 8, ..RejectoConfig::default() };

    let mut rows = Vec::new();
    for users in paper_users {
        let n = h.n(users);
        if n < 1_000 {
            continue;
        }
        // ~90% legit / 10% fakes, average degree ≈ 16 like the paper's
        // edge budget.
        let legit = n * 9 / 10;
        let fakes = n - legit;
        let mut rng = ChaCha8Rng::seed_from_u64(h.seed);
        let host = BarabasiAlbert::new(legit, 8).generate(&mut rng);
        let sim = Scenario::new(ScenarioConfig {
            num_fakes: fakes,
            ..ScenarioConfig::default()
        })
        .run_observed(&host, h.seed, &h.obs);

        // The paper provisions the master's memory to the graph ("provided
        // that the aggregate memory of the cluster suffices"); size the
        // prefetch buffer accordingly so Table II measures scaling, not
        // buffer thrash (the ablation_prefetch harness studies constrained
        // buffers).
        let cluster = ClusterConfig {
            num_workers: 4,
            prefetch_batch: 512,
            buffer_capacity: n.max(1024),
            ..ClusterConfig::default()
        };
        let mut detector = DistributedDetector::new(cluster, rejecto.clone());
        let obs = Obs::new();
        detector.set_obs(obs.clone());
        let clock = Stopwatch::start();
        let report = detector
            .detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(fakes))
            .expect("healthy cluster must detect");
        let seconds = clock.elapsed().as_secs_f64();
        let suspects: Vec<usize> = report.suspects().iter().map(|u| u.index()).collect();
        let pr = eval::precision_recall(&suspects, &sim.is_fake);
        eprintln!(
            "  users={n} edges={} time={seconds:.2}s rounds={} groups={} precision={:.4} \
             recall={:.4} batches={} fetched={}",
            sim.graph.num_friendships(),
            report.rounds,
            report.groups.len(),
            pr.precision(),
            pr.recall(),
            obs.volatile("io/fetch_batches"),
            obs.volatile("io/nodes_fetched")
        );
        rows.push(Row {
            users: n,
            edges: sim.graph.num_friendships(),
            rejections: sim.graph.num_rejections(),
            workers: cluster.num_workers,
            seconds,
            rounds: report.rounds,
            groups: report.groups.len(),
            suspects: suspects.len(),
            precision: pr.precision(),
            recall: pr.recall(),
            fetch_batches: obs.volatile("io/fetch_batches"),
            nodes_fetched: obs.volatile("io/nodes_fetched"),
            worker_restarts: obs.volatile("io/worker_restarts"),
            shards_rebalanced: obs.volatile("io/shards_rebalanced"),
        });
    }
    let mut t = eval::table::Table::new([
        "users", "edges", "rejections", "workers", "time(s)", "rounds", "groups", "suspects",
        "precision", "recall", "fetch_batches", "nodes_fetched",
    ]);
    for r in &rows {
        t.row([
            r.users.to_string(),
            r.edges.to_string(),
            r.rejections.to_string(),
            r.workers.to_string(),
            format!("{:.2}", r.seconds),
            r.rounds.to_string(),
            r.groups.to_string(),
            r.suspects.to_string(),
            format!("{:.4}", r.precision),
            format!("{:.4}", r.recall),
            r.fetch_batches.to_string(),
            r.nodes_fetched.to_string(),
        ]);
    }
    h.emit(&t, &rows);
    for r in &rows {
        assert!(
            r.precision >= QUALITY_FLOOR && r.recall >= QUALITY_FLOOR,
            "{} users: precision {:.4} / recall {:.4} below {QUALITY_FLOOR}",
            r.users,
            r.precision,
            r.recall
        );
    }
}
