//! One timed detection, run in a fresh child process. The child gets only
//! the generated `.rjg` file, as a user of the CLI would; the truth file is
//! read after the clock stops.

use crate::calibrate;
use crate::workload::{self, Workload, CHECKPOINT_SAVE_SPAN};
use rejection::io::IngestGuards;
use rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeId};
use rejecto_core::DetectionReport;
use rejecto_obs::Obs;
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

/// What one rep measured and answered.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Opening the file through `read_augmented_guarded`.
    pub load_s: f64,
    /// Opening the file through `report.suspects()`.
    pub total_s: f64,
    /// The child's `VmHWM` when the clock stopped.
    pub rss_mib: f64,
    /// How much slower than its reference the host ran around the clock;
    /// the parent divides this rep's times by it (see [`crate::calibrate`]).
    pub slowdown: f64,
    /// Friendships plus rejections of the loaded graph.
    pub edges: f64,
    pub complete: bool,
    pub failures: usize,
    pub precision: f64,
    pub recall: f64,
    pub digest: u64,
    /// Per-layer values, traced reps only.
    pub layers: Vec<(String, f64)>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Loads `graph`, detects, and lists the suspects under the clock, with
/// the calibration kernel run on either side; then scores against `truth`
/// and, when `trace` is set, measures the layers.
pub fn run(
    w: &Workload,
    graph: &Path,
    truth: &Path,
    scratch: &Path,
    trace: bool,
) -> Result<Rep, String> {
    let obs = trace.then(Obs::new);
    let (measured, slowdown) = calibrate::around(|| {
        let clock = Instant::now();
        let g = load(graph)?;
        let load_s = secs(clock);
        let report = workload::detect(w.detector, &g, w.recipe.fakes, obs.as_ref(), scratch)
            .map_err(|e| e.to_string())?;
        let suspects = std::hint::black_box(report.suspects());
        let total_s = secs(clock);
        Ok::<_, String>((g, report, suspects, load_s, total_s, peak_rss_mib()?))
    });
    let (g, report, suspects, load_s, total_s, rss_mib) = measured?;

    let pr = score(&suspects, truth, g.num_nodes())?;
    let layers = match &obs {
        Some(obs) => layers(obs, &g, &report, graph, load_s, total_s)?,
        None => Vec::new(),
    };
    Ok(Rep {
        load_s,
        total_s,
        rss_mib,
        slowdown,
        edges: (g.num_friendships() + g.num_rejections()) as f64,
        complete: !report.is_partial(),
        failures: report.failures.len(),
        precision: pr.precision(),
        recall: pr.recall(),
        digest: workload::digest(&report),
        layers,
    })
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the CPU it is running on. A rep calls this first, so the cluster's
/// master and workers hand requests to each other on one core; across
/// cores a hand-off may wake an idle virtual CPU, which on a shared host
/// takes as long as the hypervisor makes it (see the crate docs).
pub fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() })
        .map_err(|_| format!("sched_getcpu: {}", std::io::Error::last_os_error()))?;
    // A `cpu_set_t` of 1024 CPUs, as glibc and musl define it.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("CPU number beyond 1023")? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, correctly sized `cpu_set_t`; pid 0 is the
    // calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Opens and parses an `.rjg` file and builds its graph, with the CLI's
/// unlimited ingest guards.
pub fn load(graph: &Path) -> Result<AugmentedGraph, String> {
    let file = std::fs::File::open(graph).map_err(|e| format!("{}: {e}", graph.display()))?;
    rejection::io::read_augmented_guarded(file, IngestGuards::unlimited())
        .map_err(|e| e.in_file(graph.display().to_string()).to_string())
}

fn score(suspects: &[NodeId], truth: &Path, n: usize) -> Result<eval::PrecisionRecall, String> {
    let text = std::fs::read_to_string(truth).map_err(|e| format!("{}: {e}", truth.display()))?;
    let mut is_fake = vec![false; n];
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let id: usize = line
            .trim()
            .parse()
            .map_err(|_| format!("bad truth line {line:?}"))?;
        *is_fake
            .get_mut(id)
            .ok_or_else(|| format!("truth id {id} out of range"))? = true;
    }
    let idx: Vec<usize> = suspects.iter().map(|s| s.index()).collect();
    Ok(eval::precision_recall(&idx, &is_fake))
}

/// The process's peak resident set so far, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Per-layer values of a traced rep. Span walls come from the detector's
/// own `rejecto-obs` spans and from the span around each checkpoint save;
/// graph build and pruning are timed from outside by replaying the public
/// calls on this rep's graph and report after the clock stopped.
fn layers(
    obs: &Obs,
    g: &AugmentedGraph,
    report: &DetectionReport,
    graph_path: &Path,
    load_s: f64,
    total_s: f64,
) -> Result<Vec<(String, f64)>, String> {
    let doc: Value = serde_json::from_str(&obs.to_json()).map_err(|e| e.to_string())?;
    let wall = |path: &str| doc["timings"]["span_wall_ns"][path].as_f64().unwrap_or(0.0) / 1e9;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let counter = |path: &str| obs.counter(path) as f64;
    let volatile = |path: &str| obs.volatile(path) as f64;

    let kl_s = wall("detect/round/sweep/k_index/kl_pass");
    let passes = counter("kl/passes");
    let adjusts = counter("kl/bucket_adjusts");
    let k_runs = obs.span_count("detect/round/sweep/k_index") as f64;
    let detect_s = wall("detect");
    let bytes = std::fs::metadata(graph_path)
        .map_err(|e| e.to_string())?
        .len() as f64;
    let adj_bytes = 4.0 * 2.0 * (g.num_friendships() + g.num_rejections()) as f64
        + 3.0 * std::mem::size_of::<Vec<NodeId>>() as f64 * g.num_nodes() as f64;
    let (build_s, _) = timed(|| rebuild(g));
    let prune_s = replay_prune(g, report);
    let ckpt_bytes = obs
        .histogram("detect/checkpoint_bytes")
        .map_or(0.0, |h| h.sum() as f64);
    let hits = volatile("io/buffer_hits");

    let values = [
        ("ingest.s", load_s),
        ("ingest.mb_per_s", per(bytes / 1e6, load_s)),
        ("build.s", build_s),
        ("graph.adj_mb", adj_bytes / (1024.0 * 1024.0)),
        ("kl.s", kl_s),
        ("kl.passes", passes),
        ("kl.moves", counter("kl/moves_committed")),
        ("kl.adjusts", adjusts),
        ("kl.ms_per_pass", per(kl_s * 1e3, passes)),
        ("kl.ns_per_adjust", per(kl_s * 1e9, adjusts)),
        ("kl.passes_per_k", per(passes, k_runs)),
        ("k.setup_s", wall("detect/round/sweep/k_index") - kl_s),
        ("sweep.k_runs", k_runs),
        ("sweep.s", wall("detect/round/sweep")),
        ("detect.s", detect_s),
        ("detect.rounds", counter("detect/rounds")),
        (
            "round.self_s",
            wall("detect/round") - wall("detect/round/sweep"),
        ),
        ("prune.s", prune_s),
        ("prune.calls", report.groups.len() as f64),
        ("ckpt.frac", per(wall(CHECKPOINT_SAVE_SPAN), total_s)),
        ("ckpt.writes", obs.span_count(CHECKPOINT_SAVE_SPAN) as f64),
        ("ckpt.kb", ckpt_bytes / 1024.0),
        ("cluster.fetch_batches", volatile("io/fetch_batches")),
        ("cluster.nodes_fetched", volatile("io/nodes_fetched")),
        (
            "cluster.hit_ratio",
            per(hits, hits + volatile("io/buffer_misses")),
        ),
        ("unattributed.s", total_s - load_s - detect_s),
    ];
    Ok(values.iter().map(|&(k, v)| (k.to_string(), v)).collect())
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (secs(t), out)
}

/// The graph build on its own: the loaded graph fed back through
/// `AugmentedGraphBuilder`.
fn rebuild(g: &AugmentedGraph) -> AugmentedGraph {
    let mut b = AugmentedGraphBuilder::new(g.num_nodes());
    for u in g.nodes() {
        for &v in g.friends(u).iter().filter(|&&v| u < v) {
            b.add_friendship(u, v);
        }
        for &v in g.rejected_by(u) {
            b.add_rejection(u, v);
        }
    }
    b.build()
}

/// The pruning loop's `induced_subgraph` calls, replayed over the
/// report's groups in detection order; returns their summed wall time.
fn replay_prune(g: &AugmentedGraph, report: &DetectionReport) -> f64 {
    let mut current = g.clone();
    let mut to_original: Vec<NodeId> = g.nodes().collect();
    let mut total = 0.0;
    for group in &report.groups {
        let mut pruned = vec![false; g.num_nodes()];
        for u in &group.nodes {
            pruned[u.index()] = true;
        }
        let keep: Vec<bool> = to_original.iter().map(|u| !pruned[u.index()]).collect();
        let (s, (next, original_of_next)) = timed(|| current.induced_subgraph(&keep));
        total += s;
        to_original = original_of_next
            .iter()
            .map(|u| to_original[u.index()])
            .collect();
        current = next;
    }
    total
}

impl Rep {
    /// The one JSON line a child prints for its parent.
    pub fn to_json(&self) -> String {
        let layers = Value::Object(
            self.layers
                .iter()
                .map(|(k, v)| (k.clone(), Value::Number(*v)))
                .collect(),
        );
        serde_json::json!({
            "load_s": self.load_s,
            "total_s": self.total_s,
            "rss_mib": self.rss_mib,
            "slowdown": self.slowdown,
            "edges": self.edges,
            "complete": self.complete,
            "failures": self.failures,
            "precision": self.precision,
            "recall": self.recall,
            "digest": format!("{:016x}", self.digest),
            "layers": layers,
        })
        .to_string()
    }

    /// Parses a child's JSON line.
    pub fn from_json(line: &str) -> Result<Rep, String> {
        let v: Value = serde_json::from_str(line.trim()).map_err(|e| e.to_string())?;
        let num = |k: &str| v[k].as_f64().ok_or_else(|| format!("rep line lacks {k}"));
        let layers = match &v["layers"] {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, x)| {
                    x.as_f64()
                        .map(|x| (k.clone(), x))
                        .ok_or(format!("bad layer {k}"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("rep line lacks layers".to_string()),
        };
        Ok(Rep {
            load_s: num("load_s")?,
            total_s: num("total_s")?,
            rss_mib: num("rss_mib")?,
            slowdown: num("slowdown")?,
            edges: num("edges")?,
            complete: v["complete"].as_bool().ok_or("rep line lacks complete")?,
            failures: num("failures")? as usize,
            precision: num("precision")?,
            recall: num("recall")?,
            digest: v["digest"]
                .as_str()
                .and_then(|d| u64::from_str_radix(d, 16).ok())
                .ok_or("rep line lacks digest")?,
            layers,
        })
    }
}
