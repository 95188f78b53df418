//! Micro-benchmarks of the algorithmic kernels: the FM bucket list, the
//! extended-KL pass, and the MAAR sweep. These quantify the §IV-C claim
//! that the bucket list makes KL effectively linear per pass.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use kl::{BucketList, DegreeSummary, ExtendedKl, ExtendedKlConfig, KParam};
use rejecto_core::{IterativeDetector, RejectoConfig, Seeds, Termination};
use rejection::{NodeDegrees, Partition};
use simulator::{Scenario, ScenarioConfig};
use socialgraph::surrogates::Surrogate;
use std::hint::black_box;

fn bench_bucket_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("bucket_list");
    group.sample_size(20);
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("insert_update_pop", n), &n, |b, &n| {
            b.iter_batched(
                || BucketList::new(n, -65, 65),
                |mut bucket| {
                    for i in 0..n as u32 {
                        bucket.insert(i, (i as i64 % 129) - 64);
                    }
                    for i in 0..n as u32 {
                        bucket.adjust(i, if i % 2 == 0 { 1 } else { -1 });
                    }
                    while let Some(x) = bucket.pop_max() {
                        black_box(x);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    // The ablation contrast: a naive max-scan over a gain vector. The
    // quadratic baseline is capped at 10K nodes — the gap to the bucket
    // list is already two orders of magnitude there.
    for &n in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("naive_scan_pop", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let gains: Vec<i64> = (0..n as i64).map(|i| (i % 129) - 64).collect();
                    let present = vec![true; n];
                    (gains, present)
                },
                |(gains, mut present)| {
                    for _ in 0..n {
                        let best = (0..n)
                            .filter(|&i| present[i])
                            .max_by_key(|&i| gains[i])
                            .expect("non-empty");
                        present[best] = false;
                        black_box(best);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn scenario(scale: f64) -> simulator::SimOutput {
    let host = Surrogate::Facebook.generate_scaled(1, scale);
    let fakes = (10_000.0 * scale) as usize;
    Scenario::new(ScenarioConfig { num_fakes: fakes, ..ScenarioConfig::default() })
        .run(&host, 42)
}

fn bench_extended_kl(c: &mut Criterion) {
    let mut group = c.benchmark_group("extended_kl");
    group.sample_size(10);
    for &scale in &[0.05f64, 0.1, 0.2] {
        let sim = scenario(scale);
        group.bench_with_input(
            BenchmarkId::new("single_k", (scale * 10_000.0) as usize * 2),
            &sim,
            |b, sim| {
                let kl = ExtendedKl::new(
                    &sim.graph,
                    ExtendedKlConfig::new(KParam::approximate(0.56, 64)),
                    &DegreeSummary::new(NodeDegrees::of_graph(&sim.graph)),
                );
                b.iter(|| {
                    let out = kl.run(Partition::all_legit(&sim.graph));
                    black_box(out.objective)
                })
            },
        );
    }
    group.finish();
}

fn bench_maar_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("maar");
    group.sample_size(10);
    let sim = scenario(0.1);
    group.bench_function("full_sweep_scale0.1", |b| {
        // A one-suspect budget is met by the first round: one full sweep.
        let detector = IterativeDetector::new(RejectoConfig::default());
        b.iter(|| {
            let report =
                detector.detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(1));
            black_box(report.groups.first().expect("cut exists").acceptance_rate)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_bucket_list, bench_extended_kl, bench_maar_sweep);
criterion_main!(benches);
