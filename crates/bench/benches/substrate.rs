//! Substrate benchmarks: graph generators, graph metrics, the simulator,
//! and the distributed runtime's throughput (the Table-II kernel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dataflow::{ClusterConfig, DistributedDetector};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rejecto_core::{RejectoConfig, Seeds, Termination};
use simulator::{Scenario, ScenarioConfig};
use socialgraph::generators::{BarabasiAlbert, HolmeKim};
use socialgraph::metrics;
use socialgraph::surrogates::Surrogate;
use std::hint::black_box;

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    for &n in &[10_000usize, 50_000] {
        group.bench_with_input(BenchmarkId::new("barabasi_albert_m4", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(1);
                black_box(BarabasiAlbert::new(n, 4).generate(&mut rng))
            })
        });
        group.bench_with_input(BenchmarkId::new("holme_kim_m4_t63", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(1);
                black_box(HolmeKim::new(n, 4, 0.63).generate(&mut rng))
            })
        });
    }
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    group.sample_size(10);
    let g = Surrogate::Facebook.generate_scaled(1, 1.0);
    group.bench_function("average_clustering_10k", |b| {
        b.iter(|| black_box(metrics::average_clustering(&g)))
    });
    group.bench_function("pseudo_diameter_10k", |b| {
        b.iter(|| black_box(metrics::pseudo_diameter(&g, rejection::NodeId(0), 4)))
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    let host = Surrogate::Facebook.generate_scaled(1, 0.5);
    group.bench_function("scenario_5k_fakes", |b| {
        let sc = Scenario::new(ScenarioConfig { num_fakes: 5_000, ..ScenarioConfig::default() });
        b.iter(|| black_box(sc.run(&host, 42)))
    });
    group.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed");
    group.sample_size(10);
    let host = Surrogate::Facebook.generate_scaled(1, 0.2);
    let sim = Scenario::new(ScenarioConfig { num_fakes: 2_000, ..ScenarioConfig::default() })
        .run(&host, 42);
    let rejecto = RejectoConfig { k_factor: 2.5, max_kl_passes: 8, ..RejectoConfig::default() };
    for &workers in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("maar_solve_4k_nodes", workers),
            &workers,
            |b, &workers| {
                // A one-suspect budget is met by the first round: one sweep.
                let detector = DistributedDetector::new(
                    ClusterConfig { num_workers: workers, ..ClusterConfig::default() },
                    rejecto.clone(),
                );
                b.iter(|| {
                    black_box(detector.detect(
                        &sim.graph,
                        &Seeds::default(),
                        Termination::SuspectBudget(1),
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_generators, bench_metrics, bench_simulator, bench_distributed);
criterion_main!(benches);
