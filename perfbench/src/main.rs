//! `perf`: the performance benchmark of Rejecto detection, end to end and
//! layer by layer, with the answer checked on every rep.
//!
//! # Running it
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --seed 42            # every workload
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload fb-20k --seed 42 --seconds 10
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --seed 42 --trace 1  # per-layer metrics
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --seed 42 --json parent.json
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare parent.json change.json
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! A run prints, per workload, one line per metric with its unit, its
//! median over the run, its quartiles and the sample count; then the
//! host's slowdown (see Host speed below) and the report digest, then one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` as the last
//! line. Without `--trace 1` the metrics are the end-to-end ones; with it,
//! the per-layer ones. The exit code is 1 when any rep failed the
//! correctness gate and 2 on a usage or set-up error. `--json` writes every
//! workload's q1/p50/q3/n, slowdown, digest and rep counts; `--compare`
//! reads two such files of the same seed and prints, per workload and
//! metric, both sides and a verdict (see [`compare`]). It exits 1 when the
//! change is worse: an end-to-end metric worsened by more than its bound
//! (precision and recall by anything at all), more reps failed, a report
//! digest changed, or a workload or metric of the parent is missing.
//!
//! # How a run is made
//!
//! * **Set-up.** Nine times per run, timed: the input is simulated from
//!   `--seed` (surrogate host graph plus the §VI-A attack), written as
//!   `<input>-s<seed>.rjg` and `.truth` through `atomic_write`, and loaded
//!   back as a rep will load it, which also warms the page cache. The
//!   calibration kernel runs on either side of each set-up (see Host
//!   speed). The first set-up comes before the first rep, the other eight
//!   at even steps of the run, each between two reps. Files go to a
//!   directory of the run's own under `$CARGO_TARGET_DIR/perf-data` (default `target/perf-data`),
//!   removed when the run ends; nothing is cached between runs, so every
//!   run pays the same set-up.
//! * **Reps.** Each rep is a fresh child process (the benchmark re-runs
//!   itself with `--child`) that gets only the `.rjg` file, as a CLI user
//!   would. The child first confines itself to the CPU it started on and
//!   runs the calibration kernel. Under the clock: `read_augmented_guarded`
//!   with unlimited guards, the detector, `report.suspects()`. Then the
//!   child reads `VmHWM`, runs the kernel again, scores against the truth
//!   file and prints one JSON line.
//! * **Load shape.** Closed loop, one client: each rep starts when the
//!   previous one has exited. A run measures `--seconds` per workload
//!   (`run_seconds` of `BENCHMARK.json`, 36, unless given) and at least
//!   nine reps of each. Several workloads take turns, one rep each, so
//!   that a slow spell of the host falls on all of them alike.
//! * **Threads.** `RejectoConfig { threads: 1, .. }` everywhere: the
//!   single-thread series is the primary one on this two-core host. The
//!   benchmark starts no threads. `cluster-20k` runs a master and two
//!   in-process workers, which share the rep's one CPU. Across the two
//!   cores, each of its 9,700 request hand-offs may wake an idle virtual
//!   CPU. In a 20-minute experiment taking turns between the two, the best
//!   deciles of 40-second stretches spread (interquartile distance over
//!   median) by 15.5 % across both cores and 3.3 % on one, and the median
//!   rep was 13 % faster on one; the single-thread workloads showed no
//!   difference.
//! * **Host speed.** The host is shared, and its other tenants slow our
//!   reps, by up to half and for minutes at a time, longer than a run.
//!   Every time the benchmark reports is therefore read at the host's
//!   reference speed: divided by the slowdown measured around it (a rate
//!   multiplied). The slowdown is the mean time of a fixed calibration
//!   kernel run just before and just after the measurement, on the same
//!   CPU, over [`calibrate::REFERENCE_S`]. The kernel is a few
//!   Fiduccia–Mattheyses passes, the bucket-list moves the KL sweep makes,
//!   over a random graph with a detection input's 3.7 MiB of adjacency; it
//!   calls nothing of the program, so no change to the program moves it.
//!   It must suffer from the other tenants as the detection does, and it
//!   does: over ten seeds per workload, run twice, the runs' `total_s`
//!   spread (interquartile distance over median) by 3.6 to 6.8 %, where
//!   the same runs' wall times (`total_s` times the run's median slowdown)
//!   spread by 5.3 to 32 %. What is left is mostly the seeds' own inputs:
//!   `fb-20k` needs 36 to 41 KL passes depending on the seed. Sizes,
//!   counts, shares and the answer are not touched. The run's median
//!   slowdown is printed, so wall time can be recovered.
//! * **Statistics.** A run summarises each metric over its samples by its
//!   median, quartiles (by the method of Python's `statistics.quantiles`)
//!   and sample count; the median stands for the run. A 36-second run
//!   makes 15 to 46 reps, too few for ten to lie beyond any percentile
//!   above the median, so no tail percentile is reported.
//! * **Correctness gate.** A rep fails, counts in `failed`, and makes the
//!   run exit non-zero when its process dies or returns a typed error, its
//!   report is partial or lists failures, precision or recall is below
//!   0.9, or its report digest (FNV-1a over rounds, completion, and each
//!   group's round, exact `k`, acceptance-rate bits and members) differs
//!   from the workload's first rep; for `cluster-20k`, from a local
//!   `fb-20k` rep on the same file made during set-up.
//!
//! # Workloads
//!
//! | name | input (seed 42) | detector | why |
//! |---|---|---|---|
//! | `fb-20k` | Facebook surrogate, 10k legit + 10k fakes, default attack; 161k friendships, 150k rejections | `IterativeDetector`, budget 10k | The paper's §VI-A baseline: one productive round, 37 KL passes, 11.5M bucket adjusts, KL at 92 % of detection time. |
//! | `whitewash-20k` | Facebook surrogate, 10k + 10k fakes, 9k whitewashed (20 requests per sacrificed sender, 95 % self-rejection); 156k friendships, 155k rejections | `IterativeDetector::detect_with_checkpoints` into a `CheckpointStore` in a per-rep scratch directory | Two pruning rounds: the only workload that rebuilds the residual graph before a second sweep and writes fsync'd checkpoints inside the clock. |
//! | `cluster-20k` | the `fb-20k` file | `DistributedDetector`, two workers on the rep's one CPU | The same answer through the §V master/worker runtime with its own KL copy, LRU buffer and prefetch (9,670 fetch batches). Local-only changes should leave it unmoved. |
//!
//! Every workload has a 50 % fake share. At the 10 % share of the paper's
//! Table II the sweep often first cuts off a handful of accounts, so the
//! number of rounds, and with it the run time, changes from seed to seed.
//! With the recipes above, seeds 100–119 gave one round on `fb-20k` in 19
//! of 20 seeds and two rounds on `whitewash-20k` in all 20, with 36 to 41
//! KL passes per round, and seeds 0–11 gave one and two rounds in every
//! seed, with 36 to 40 and 75 to 81 passes. Those pass counts are most of
//! what still varies from seed to seed.
//!
//! There is no BA-graph workload. One (`ba-30k`: the synthetic BA
//! surrogate, 15k legit + 15k fakes, a working set about 2.8x the L2)
//! was tried and dropped: it is the most memory-bound input, and
//! memory-bound code is what the host's other tenants slow most (between
//! samples, a pointer chase over 6 MiB varied by 37 % where an
//! L1-resident loop varied by 11 %). Over ten seeds its median run time
//! spread by 38 %, wider than any bound a benchmark may set (that was
//! wall time, before the benchmark read times at the host's reference
//! speed). Three workloads also leave time for 36-second runs within the
//! time a full check of the benchmark may take.
//!
//! # End-to-end metrics
//!
//! | metric | unit | better | bound | definition |
//! |---|---|---|---|---|
//! | `total_s` | s | lower | 25 % | Wall time from opening the `.rjg` file to the suspect list, at the host's reference speed; the run's median. |
//! | `setup_s` | s | lower | 25 % | Wall time of one set-up, at the host's reference speed: simulating the input, writing it, and loading it back through `read_augmented_guarded` (parse plus graph build); the median of the run's nine. Work moved into the simulator, the file format or the load shows here. |
//! | `edges_per_s` | edges/s | higher | 25 % | (friendships + rejections) / `total_s` of each rep; the run's median. |
//! | `peak_rss_mb` | MiB | lower | 7 % | The child's `VmHWM` when the clock stops; the run's median. |
//! | `precision` | fraction | higher | 2 % between seeds, 0 at one seed | Of `report.suspects()` against the truth file; one value per seed. |
//! | `recall` | fraction | higher | 2 % between seeds, 0 at one seed | Of `report.suspects()` against the truth file; one value per seed. |
//!
//! A bound is the share of the parent's median by which a metric may
//! worsen before the change is a regression. A bound must be at least
//! three times how far the metric spreads over runs on different seeds.
//! On this shared two-core host, two sets of ten 36-second runs per
//! workload (seeds 31 to 40) gave, per set: `total_s` and `edges_per_s`
//! spread by 3.6 to 6.8 % and the two sets' medians differed by at most
//! 2.7 %; `setup_s` spread by 3.8 to 8.9 %, medians within 3.6 %;
//! `peak_rss_mb` by under 0.3 %; precision and recall by under 0.2 %. A
//! 10 % time bound would be less than twice the widest spread, so
//! the time bounds are 25 %, the widest a benchmark may set; a slowdown
//! smaller than that is not caught by the bound alone, and a change that
//! claims a speed-up should show it in repeated run sets compared with
//! `--compare`. Precision and recall are deterministic at one seed, so
//! `--compare` flags any drop, whatever their bound.
//! `perfbench/baselines.json` holds three untraced run sets and one traced
//! run set at seed 42, with the machine they were measured on. The three
//! agree within 2.6 % in `total_s` and `edges_per_s`, 10.1 % in `setup_s`
//! (`fb-20k`; its set-up writes and fsyncs two files), 0.3 % in
//! `peak_rss_mb`, exactly in precision, recall and digest, and the
//! `cluster-20k` digest equals the `fb-20k` one.
//! Failed reps are counted in the result's `failed` field rather than as
//! a metric: a failure share reads 0 on every good run, and a bound that
//! is a share of the parent's median means nothing against 0. `--compare`
//! calls a change worse when its `failed` count is higher.
//!
//! # Layers
//!
//! The per-layer numbers come from traced reps (`--trace 1`), which
//! alternate with untraced reps. A traced rep attaches a
//! [`rejecto_obs::Obs`] to the detector and reads span walls from
//! `obs.to_json()`; a span's self time is its wall minus its children's.
//! Each `CheckpointStore::save` in the checkpoint sink is wrapped in a
//! span of its own; `ckpt.frac` is the time in those spans, inside the
//! clock, as a share of the rep's `total_s` (a share rather than seconds
//! because it is exactly 0 on the workloads that write no checkpoint), and
//! `ckpt.kb` is the sum of the detector's `detect/checkpoint_bytes`
//! histogram. Graph build and pruning have no span, so the benchmark times
//! their public calls from outside, after the clock stopped: the loaded
//! graph fed back through `AugmentedGraphBuilder`, and `induced_subgraph`
//! replayed over the report's groups in order. Layer times and rates are
//! read at the host's reference speed, with the rep's own slowdown.
//!
//! | layer (module) | metrics | should move | most work in | least work in |
//! |---|---|---|---|---|
//! | ingest (`rejection::io`) | `ingest.s`, `ingest.mb_per_s` | `setup_s`, `total_s` | `fb-20k` (load ≈ 11 % of total) | `whitewash-20k` (≈ 5 %) |
//! | graph build (`rejection::augmented`) | `build.s`, `graph.adj_mb` (computed: 4 B × (2F + 2R) + three `Vec` headers per node) | `setup_s`, `peak_rss_mb` | all three alike (the same 3.7 MiB adjacency) | — |
//! | KL kernel (`kl::extended`, `kl::bucket`) | `kl.s` (sum of `kl_pass` walls), `kl.passes`, `kl.moves`, `kl.adjusts`, `kl.ms_per_pass`, `kl.ns_per_adjust`, `kl.passes_per_k` | `total_s`, `edges_per_s` | `whitewash-20k` (77 passes, 23.8M bucket adjusts) | `cluster-20k` (bypassed: its `kl.*` counters come from `dataflow`'s own KL copy) |
//! | per-k set-up (`rejecto_core::maar`: warm start, lock vector, `gain_bound`, `Partition::from_regions`) | `k.setup_s` (self time of `k_index`), `sweep.k_runs` | `total_s` | `whitewash-20k` (32 k runs) | `cluster-20k` |
//! | sweep (`rejecto_core::maar`) | `sweep.s` | `total_s` | all local workloads | `cluster-20k` |
//! | pruning loop (`rejecto_core::detect`, `induced_subgraph`) | `detect.s`, `detect.rounds`, `round.self_s` (self time of `detect/round`), `prune.s`, `prune.calls` | `total_s` | `whitewash-20k` (2 rounds) | `fb-20k` (one prune, ≈ 3 ms) |
//! | checkpoint (`rejecto_core::checkpoint`, `store`) | `ckpt.frac`, `ckpt.writes`, `ckpt.kb` | `total_s` on `whitewash-20k` only | `whitewash-20k` (2 saves, 213 KiB, ≈ 1 % of total) | the other two (no checkpoint; all three read 0) |
//! | cluster (`dataflow::cluster`, `dataflow::lru`) | `cluster.fetch_batches`, `cluster.nodes_fetched`, `cluster.hit_ratio` (from the volatile `io/*` counters; 0 on local workloads) | `total_s` on `cluster-20k` | `cluster-20k` | all local workloads |
//! | tracing (`obs`) | `trace.overhead_frac` = (traced `total_s` − untraced p50) / untraced p50 | none | — | — |
//!
//! `unattributed.s` is `total_s − ingest.s − detect.s` of a traced rep:
//! detector construction and `report.suspects()`, and any gap in layer
//! coverage.
//!
//! # Working sets
//!
//! The computed adjacency (`graph.adj_mb`) is 3.7 MiB on every workload,
//! about 1.9x the 2 MiB L2 of a core. The shared 300 MiB L3 holds every
//! working set, so the benchmark makes no memory-bandwidth claims: a
//! layout change shows as fewer L2 misses and less per-pass overhead, not
//! as bandwidth.
//!
//! # Why `cluster-20k` stays at 20k users
//!
//! At 100k users (the Facebook surrogate at scale 5 with 50k fakes)
//! `rejecto detect --distributed true --workers 2` panics in
//! `BucketList::insert` with "gain outside range configured at
//! construction": the cluster sweep bounds gains with the rejections a
//! node *received* only (`dataflow::cluster`, the `gain_bound` block of the
//! sweep), where the local `ExtendedKl::gain_bound` counts both
//! directions, so a node that rejected many requests can exceed the
//! bucket range. On the 20k-user inputs the bound happens to hold. The fix
//! belongs to merging the two KL kernels, not to the benchmark.

mod calibrate;
mod compare;
mod metrics;
mod rep;
mod runner;
mod stats;
mod workload;

use runner::Settings;
use std::path::PathBuf;
use std::process::ExitCode;

/// How long a run measures per workload unless `--seconds` says otherwise;
/// equal to `run_seconds` in `BENCHMARK.json`, which a benchmark harness
/// passes as `--seconds`.
const DEFAULT_SECONDS: f64 = 36.0;

const USAGE: &str =
    "usage: perf [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--json <path>]
       perf --compare <parent.json> <change.json>";

/// Parsed command line.
#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    // A rep's child process: `--child <workload> --graph --truth --scratch`.
    child: Option<String>,
    graph: Option<PathBuf>,
    truth: Option<PathBuf>,
    scratch: Option<PathBuf>,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--json" => a.json = Some(value()?.into()),
            "--compare" => a.compare = Some((value()?.into(), value()?.into())),
            "--child" => a.child = Some(value()?),
            "--graph" => a.graph = Some(value()?.into()),
            "--truth" => a.truth = Some(value()?.into()),
            "--scratch" => a.scratch = Some(value()?.into()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse(&raw).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the selected mode; `Ok(false)` means the outputs were wrong.
fn run(a: Args) -> Result<bool, String> {
    if let Some(name) = &a.child {
        let w = workload::find(name).ok_or(format!("unknown workload {name:?}"))?;
        rep::pin_to_one_cpu()?;
        let need =
            |p: &Option<PathBuf>, flag: &str| p.clone().ok_or(format!("--child needs {flag}"));
        let rep = rep::run(
            w,
            &need(&a.graph, "--graph")?,
            &need(&a.truth, "--truth")?,
            &need(&a.scratch, "--scratch")?,
            a.trace,
        )?;
        println!("{}", rep.to_json());
        return Ok(true);
    }
    if let Some((parent, change)) = &a.compare {
        let (text, worse) = compare::compare(parent, change)?;
        print!("{text}");
        return Ok(!worse);
    }

    let selected: Vec<&'static workload::Workload> = match &a.workload {
        Some(name) => vec![workload::find(name).ok_or(format!("unknown workload {name:?}"))?],
        None => workload::WORKLOADS.iter().collect(),
    };
    let settings = Settings {
        seed: a.seed.unwrap_or(42),
        seconds: a.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: a.trace,
        data_dir: runner::data_dir(),
    };
    let outcomes = runner::run(&selected, &settings)?;
    for (w, outcome) in selected.iter().zip(&outcomes) {
        print!("{}", runner::render(w, outcome));
    }
    if let Some(path) = &a.json {
        let doc = runner::run_set(&outcomes, &settings).to_string() + "\n";
        rejecto_core::store::atomic_write(path, doc.as_bytes()).map_err(|e| e.to_string())?;
    }
    Ok(outcomes.iter().all(runner::Outcome::correct))
}

#[cfg(test)]
mod tests {
    use crate::metrics::{Metric, END_TO_END, PER_LAYER};
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_benchmark_emits() {
        let doc = benchmark_json();
        let list = |key: &str| doc[key].as_array().cloned().unwrap_or_default();
        let check = |key: &str, table: &[Metric]| {
            let declared = list(key);
            let names: Vec<_> = declared.iter().map(|e| e["name"].as_str()).collect();
            let emitted: Vec<_> = table.iter().map(|m| Some(m.name)).collect();
            assert_eq!(names, emitted, "{key}");
            for (e, m) in declared.iter().zip(table) {
                assert_eq!(e["unit"].as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(e["better"].as_str(), Some(m.better.as_str()), "{}", m.name);
                assert_eq!(e["bound"].as_f64(), m.bound, "{}", m.name);
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);

        let declared = list("workloads");
        assert_eq!(declared.len(), crate::workload::WORKLOADS.len());
        for (e, w) in declared.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(e["name"].as_str(), Some(w.name));
            assert_eq!(e["why"].as_str(), Some(w.why), "{}", w.name);
        }
        assert_eq!(doc["run_seconds"].as_f64(), Some(crate::DEFAULT_SECONDS));
    }
}
