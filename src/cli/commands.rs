//! Subcommand implementations.

use super::args::{ArgError, Args};
use dataflow::{ClusterConfig, DistributedDetector};
use rejecto_core::store::atomic_write;
use rejecto_core::{
    Checkpoint, CheckpointSink, CheckpointStore, Completion, FaultPlan, InterruptReason,
    IterativeDetector, RejectoConfig, RunBudget, RuntimeError, Seeds, Termination,
};
use rejection::io::{IngestGuards, LoadStats};
use rejection::AugmentedGraph;
use simulator::{Scenario, ScenarioConfig, SelfRejectionConfig};
use socialgraph::surrogates::Surrogate;
use socialgraph::{analysis, metrics, Graph, NodeId};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::time::Duration;

/// Top-level CLI error: message plus exit-worthy context.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

macro_rules! cli_from {
    ($t:ty) => {
        impl From<$t> for CliError {
            fn from(e: $t) -> Self {
                CliError(e.to_string())
            }
        }
    };
}
cli_from!(socialgraph::GraphError);
cli_from!(rejection::io::AugmentedIoError);
cli_from!(rejecto_core::RuntimeError);

/// Opens a file for reading with the path attached to any failure, since a
/// bare `io::Error` ("No such file or directory") never names its victim.
fn open_file(path: &str) -> Result<File, CliError> {
    File::open(path).map_err(|e| CliError(format!("{path}: {e}")))
}

/// Loads an augmented graph, strictly or leniently, under the given ingest
/// guards (resource ceilings + hostile-edge policy); lenient loads return
/// the skip accounting so commands can surface the degradation. Budget
/// trips are fatal in both modes — an over-budget input must never be
/// half-ingested as a smaller graph.
fn load_augmented(
    path: &str,
    lenient: bool,
    guards: rejection::io::IngestGuards,
) -> Result<(AugmentedGraph, LoadStats), CliError> {
    let file = open_file(path)?;
    if lenient {
        Ok(rejection::io::read_augmented_lenient_guarded(file, guards)
            .map_err(|e| e.in_file(path))?)
    } else {
        let g = rejection::io::read_augmented_guarded(file, guards).map_err(|e| e.in_file(path))?;
        Ok((g, LoadStats::default()))
    }
}

/// Dispatches a subcommand; `out` receives user-facing output (stdout in
/// `main`, a buffer in tests).
///
/// # Errors
///
/// Returns a rendered error for unknown commands, bad flags, and file
/// problems.
pub fn run<W: Write>(command: &str, raw_args: &[String], out: &mut W) -> Result<(), CliError> {
    let args = Args::parse(raw_args.iter().cloned())?;
    if args.wants_help() {
        writeln!(out, "{}", super::USAGE)?;
        return Ok(());
    }
    match command {
        "simulate" => simulate(args, out),
        "detect" => detect(args, out),
        "stats" => stats(args, out),
        "votetrust" => votetrust_cmd(args, out),
        "sybilrank" => sybilrank_cmd(args, out),
        "defense" => defense(args, out),
        other => Err(CliError(format!("unknown command {other:?}; see --help"))),
    }
}

fn parse_surrogate(name: &str) -> Result<Surrogate, CliError> {
    Surrogate::ALL
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<&str> = Surrogate::ALL.iter().map(|s| s.name()).collect();
            CliError(format!("unknown surrogate {name:?}; options: {}", names.join(", ")))
        })
}

fn parse_seed_list(raw: &str) -> Result<Vec<NodeId>, CliError> {
    raw.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .map(NodeId)
                .map_err(|_| CliError(format!("bad node id {s:?} in seed list")))
        })
        .collect()
}

fn simulate<W: Write>(mut args: Args, out: &mut W) -> Result<(), CliError> {
    let stem = args.require("out")?;
    let scale: f64 = args.get_or("scale", 0.2)?;
    let host = match args.get("edge-list") {
        Some(path) => {
            let (g, _) =
                socialgraph::io::read_edge_list(open_file(&path)?).map_err(|e| e.in_file(&path))?;
            g
        }
        None => {
            let name = args.get("host").unwrap_or_else(|| "Facebook".to_string());
            parse_surrogate(&name)?.generate_scaled(args.get_or("seed", 42u64)?, scale)
        }
    };
    let fakes: usize = args.get_or("fakes", ((10_000.0 * scale) as usize).max(1))?;
    // The Fig 14 whitewashing strategy: a sacrificed slice of the fakes
    // draws the rejections while the `--whitewashed` slice hides behind
    // them, which forces detection through multiple pruning rounds.
    let whitewashed: Option<usize> = args.get_opt("whitewashed")?;
    let self_requests: usize = args.get_or("self-requests", 10usize)?;
    let self_rejection_rate: f64 = args.get_or("self-rejection-rate", 0.9)?;
    let config = ScenarioConfig {
        num_fakes: fakes,
        requests_per_spammer: args.get_or("requests", 20usize)?,
        spam_rejection_rate: args.get_or("spam-rejection", 0.7)?,
        legit_rejection_rate: args.get_or("legit-rejection", 0.2)?,
        fake_intra_edges: args.get_or("intra-edges", 6usize)?,
        spammer_fraction: args.get_or("spammer-fraction", 1.0)?,
        self_rejection: whitewashed.map(|w| SelfRejectionConfig {
            whitewashed: w,
            requests_per_sender: self_requests,
            rejection_rate: self_rejection_rate,
        }),
        ..ScenarioConfig::default()
    };
    let seed: u64 = args.get_or("seed", 42)?;
    args.finish()?;
    config.check().map_err(|e| CliError(format!("invalid scenario: {e}")))?;

    let sim = Scenario::new(config).run(&host, seed);

    // Each output is rendered in memory and lands via the atomic write
    // protocol: an interrupted simulate can never leave a torn edge list
    // that a later lenient load half-ingests as a smaller attack.
    let graph_path = format!("{stem}.rjg");
    let mut graph_bytes = Vec::new();
    rejection::io::write_augmented(&sim.graph, &mut graph_bytes)?;
    atomic_write(Path::new(&graph_path), &graph_bytes)?;
    let req_path = format!("{stem}.requests");
    {
        let mut buf = Vec::new();
        for r in sim.log.requests() {
            writeln!(buf, "{} {} {}", r.from, r.to, u8::from(r.accepted))?;
        }
        atomic_write(Path::new(&req_path), &buf)?;
    }
    let truth_path = format!("{stem}.truth");
    {
        let mut buf = Vec::new();
        for f in &sim.fakes {
            writeln!(buf, "{f}")?;
        }
        atomic_write(Path::new(&truth_path), &buf)?;
    }

    writeln!(
        out,
        "simulated {} users ({} legit + {} fake), {} friendships, {} rejections, {} attack edges",
        sim.graph.num_nodes(),
        sim.num_legit,
        sim.fakes.len(),
        sim.graph.num_friendships(),
        sim.graph.num_rejections(),
        sim.attack_edges()
    )?;
    writeln!(out, "wrote {graph_path}, {req_path}, {truth_path}")?;
    Ok(())
}

/// Rejects the first seed id past a graph of `n` nodes.
fn check_seeds(seeds: &[NodeId], n: usize) -> Result<(), CliError> {
    match seeds.iter().find(|s| s.index() >= n) {
        Some(s) => Err(CliError(format!("seed {s} out of range ({n} nodes)"))),
        None => Ok(()),
    }
}

/// Reads a ground-truth file (one fake id per line) into an `is_fake`
/// mask over `n` nodes. An id past the graph is an error naming its line:
/// dropping it would overstate recall.
fn read_truth(path: &str, n: usize) -> Result<Vec<bool>, CliError> {
    let mut is_fake = vec![false; n];
    for (i, line) in BufReader::new(open_file(path)?).lines().enumerate() {
        let line = line.map_err(|e| CliError(format!("{path}:{}: {e}", i + 1)))?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        let line_no = i + 1;
        let id: usize = t
            .parse()
            .map_err(|_| CliError(format!("{path}:{line_no}: bad node id {t:?}")))?;
        let Some(slot) = is_fake.get_mut(id) else {
            let why = format!("node id {id} out of range ({n} nodes)");
            return Err(CliError(format!("{path}:{line_no}: {why}")));
        };
        *slot = true;
    }
    Ok(is_fake)
}

/// How the user asked to interrupt a run, rendered for report lines.
fn interrupt_name(reason: InterruptReason) -> &'static str {
    match reason {
        InterruptReason::Deadline => "deadline",
        InterruptReason::PassBudget => "kl-pass budget",
        InterruptReason::RoundBudget => "round budget",
        InterruptReason::ResourceBudget => "resource budget",
        _ => "interrupt",
    }
}

fn detect<W: Write>(mut args: Args, out: &mut W) -> Result<(), CliError> {
    let graph_path = args.require("graph")?;
    let budget: Option<usize> = args.get_opt("budget")?;
    let threshold: Option<f64> = args.get_opt("threshold")?;
    let truth_path = args.get("truth");
    let json: bool = args.get_or("json", false)?;
    let threads: usize = args.get_or("threads", 0)?;
    let lenient: bool = args.get_or("lenient", false)?;
    let deadline_ms: Option<u64> = args.get_opt("deadline-ms")?;
    let max_passes: Option<u64> = args.get_opt("max-passes")?;
    let max_rounds: Option<usize> = args.get_opt("max-rounds")?;
    let max_nodes: Option<u64> = args.get_opt("max-nodes")?;
    let max_edges: Option<u64> = args.get_opt("max-edges")?;
    let max_rejections: Option<u64> = args.get_opt("max-rejections")?;
    let max_checkpoint_bytes: Option<u64> = args.get_opt("max-checkpoint-bytes")?;
    let max_suspect_frac: Option<f64> = args.get_opt("max-suspect-frac")?;
    let checkpoint_path = args.get("checkpoint");
    let checkpoint_keep: Option<usize> = args.get_opt("checkpoint-keep")?;
    let resume_path = args.get("resume");
    let inject_spec = args.get("inject");
    let distributed: bool = args.get_or("distributed", false)?;
    let workers: Option<usize> = args.get_opt("workers")?;
    let request_deadline_ms: Option<u64> = args.get_opt("request-deadline-ms")?;
    let metrics_path = args.get("metrics");
    args.finish()?;

    // Metrics are opt-in: without `--metrics` the detectors run with no
    // observer attached and pay nothing for instrumentation.
    let obs = metrics_path.as_ref().map(|_| rejecto_obs::Obs::default());

    if !distributed && (workers.is_some() || request_deadline_ms.is_some()) {
        return Err(CliError(
            "--workers and --request-deadline-ms require --distributed true".to_string(),
        ));
    }
    if checkpoint_keep.is_some() && checkpoint_path.is_none() {
        return Err(CliError("--checkpoint-keep requires --checkpoint <stem>".to_string()));
    }
    if checkpoint_keep == Some(0) {
        return Err(CliError("--checkpoint-keep must retain at least 1 generation".to_string()));
    }
    if let Some(frac) = max_suspect_frac {
        if !(frac > 0.0 && frac <= 1.0) {
            return Err(CliError(
                "--max-suspect-frac must be a fraction in (0, 1]".to_string(),
            ));
        }
    }

    // Input ceilings bound the loader *before* allocation; the checkpoint
    // ceiling bounds the store, and the suspect fraction rides the run
    // budget into the detection loop.
    let guards = IngestGuards {
        max_nodes,
        max_friendships: max_edges,
        max_rejections,
        reject_conflicts: false,
    };
    let (g, load_stats) = load_augmented(&graph_path, lenient, guards)?;
    let truth = truth_path.map(|p| read_truth(&p, g.num_nodes()).map(|t| (p, t))).transpose()?;
    if load_stats.is_degraded() {
        if let Some(obs) = &obs {
            let skipped =
                u64::try_from(load_stats.skipped_lines).expect("skipped line count fits in u64");
            obs.incr("load/skipped_lines", skipped);
        }
        let first = load_stats.first_skipped.unwrap_or(0);
        if json {
            writeln!(
                out,
                "{}",
                serde_json::json!({
                    "skipped_lines": load_stats.skipped_lines,
                    "first_skipped_line": first,
                })
            )?;
        } else {
            writeln!(
                out,
                "lenient load: skipped {} malformed line(s), first at line {first}",
                load_stats.skipped_lines
            )?;
        }
    }

    let termination = match (budget, threshold) {
        (Some(b), Some(t)) => Termination::BudgetOrThreshold { budget: b, threshold: t },
        (Some(b), None) => Termination::SuspectBudget(b),
        (None, Some(t)) => Termination::AcceptanceThreshold(t),
        (None, None) => Termination::AcceptanceThreshold(0.5),
    };
    let budget = RunBudget {
        deadline: deadline_ms.map(Duration::from_millis),
        max_kl_passes: max_passes,
        max_rounds,
        max_suspect_frac,
    };
    let config = RejectoConfig { threads, budget, ..RejectoConfig::default() };
    let faults = inject_spec.as_deref().map_or(Ok(FaultPlan::none()), FaultPlan::parse);
    let faults = faults.map_err(|e| CliError(format!("--inject: {e}")))?;

    // The durable store behind `--checkpoint`: one framed generation file
    // per productive round, with any armed torn-write/bit-flip mangles and
    // the metrics registry attached.
    let store = checkpoint_path.as_ref().map(|p| {
        let mut s = CheckpointStore::new(p).with_faults(&faults).with_limit(max_checkpoint_bytes);
        if let Some(keep) = checkpoint_keep {
            s = s.with_keep(keep);
        }
        if let Some(obs) = &obs {
            s = s.with_obs(obs.clone());
        }
        s
    });

    // A run that fails, at resume or in a round, still reports the work
    // it did before failing; its own error stays the one the command
    // exits with.
    let fail = |e: RuntimeError, out: &mut W| -> CliError {
        if let Err(m) = write_metrics(metrics_path.as_deref(), obs.as_ref(), out) {
            eprintln!("error: {m}");
        }
        e.into()
    };
    // `--resume` resolves the newest *valid* generation, walking past
    // corrupt or truncated frames. Each skip is surfaced on stderr right
    // away and recorded as a structured failure on the final report.
    let resumed = match &resume_path {
        Some(p) => {
            let mut resume_store = CheckpointStore::new(p).with_limit(max_checkpoint_bytes);
            if let Some(obs) = &obs {
                resume_store = resume_store.with_obs(obs.clone());
            }
            let resume = resume_store.load_latest_valid().map_err(|e| fail(e, out))?;
            if resume.fell_back() {
                for skip in &resume.skipped {
                    eprintln!("resume: {skip}");
                }
                eprintln!(
                    "resume: fell back past {} corrupt artifact(s) to {}",
                    resume.skipped.len(),
                    resume.path.display()
                );
            }
            Some(resume)
        }
        None => None,
    };
    let resume_from = resumed.as_ref().map(|r| r.checkpoint.clone());
    // Every checkpoint generation goes through the durable store; a failed
    // save surfaces as the runtime's structured `CheckpointIo` failure.
    let mut sink = store
        .as_ref()
        .map(|s| |c: &Checkpoint| s.save(c).map_err(std::io::Error::other));
    let sink = sink.as_mut().map(|s| s as CheckpointSink<'_>);
    let (seeds, resume_from) = (Seeds::default(), resume_from.as_ref());
    let run = if distributed {
        let mut cluster = ClusterConfig::default();
        if let Some(w) = workers {
            cluster.num_workers = w;
        }
        if let Some(ms) = request_deadline_ms {
            cluster.request_deadline = Duration::from_millis(ms);
        }
        let mut detector = DistributedDetector::new(cluster, config);
        detector.set_faults(faults);
        if let Some(obs) = &obs {
            detector.set_obs(obs.clone());
        }
        detector.run(&g, &seeds, termination, resume_from, sink)
    } else {
        let mut detector = IterativeDetector::new(config);
        detector.set_faults(faults);
        if let Some(obs) = &obs {
            detector.set_obs(obs.clone());
        }
        detector.run(&g, &seeds, termination, resume_from, sink)
    };
    let mut report = match run {
        Ok(report) => report,
        Err(e) => return Err(fail(e, out)),
    };
    // Corrupt-generation skips belong to this run's story: they render as
    // the same degraded/failure lines every other runtime failure uses.
    if let Some(resume) = &resumed {
        if resume.fell_back() {
            let mut failures = resume.skipped.clone();
            failures.extend(report.failures);
            report.failures = failures;
        }
    }

    if json {
        for group in &report.groups {
            let ids: Vec<u32> = group.nodes.iter().map(|n| n.0).collect();
            writeln!(
                out,
                "{}",
                serde_json::json!({
                    "round": group.round,
                    "acceptance_rate": group.acceptance_rate,
                    // The winning sweep parameter as the exact rational the
                    // solver used; `value` is a convenience rendering only.
                    "k": serde_json::json!({
                        "num": group.k.num(),
                        "den": group.k.den(),
                        "value": group.k.value(),
                    }),
                    "nodes": ids,
                })
            )
            .map_err(|e| CliError(e.to_string()))?;
        }
    } else {
        writeln!(out, "{} group(s) detected in {} round(s)", report.groups.len(), report.rounds)?;
        for group in &report.groups {
            writeln!(
                out,
                "  round {:>2}: {:>6} accounts at acceptance rate {:.4} (k = {})",
                group.round,
                group.nodes.len(),
                group.acceptance_rate,
                group.k
            )?;
        }
    }

    // Degraded-run diagnostics. These lines only appear for interrupted or
    // faulted runs, so clean-run JSON output stays one-group-per-line.
    if let Completion::Partial { completed_k_indices, reason } = &report.completion {
        if json {
            writeln!(
                out,
                "{}",
                serde_json::json!({
                    "partial": interrupt_name(*reason),
                    "completed_rounds": report.rounds,
                    "completed_k_indices": completed_k_indices.clone(),
                })
            )?;
        } else {
            writeln!(
                out,
                "partial result: {} tripped after {} completed round(s); \
                 the groups above are all complete",
                interrupt_name(*reason),
                report.rounds
            )?;
        }
    }
    for failure in &report.failures {
        if json {
            writeln!(out, "{}", serde_json::json!({ "failure": failure.to_string() }))?;
        } else {
            writeln!(out, "degraded: {failure}")?;
        }
    }

    if let Some((path, is_fake)) = truth {
        let suspects = report.suspects();
        let idx: Vec<usize> = suspects.iter().map(|s| s.index()).collect();
        let pr = eval::precision_recall(&idx, &is_fake);
        writeln!(
            out,
            "scored against {path}: precision {:.4}, recall {:.4} ({} of {} declared correct)",
            pr.precision(),
            pr.recall(),
            pr.true_positives,
            pr.declared
        )?;
    }

    write_metrics(metrics_path.as_deref(), obs.as_ref(), out)
}

/// Writes the `--metrics` document to `path`, or its human summary to
/// `out` when `path` is `-`; nothing without `--metrics`.
fn write_metrics<W: Write>(
    path: Option<&str>,
    obs: Option<&rejecto_obs::Obs>,
    out: &mut W,
) -> Result<(), CliError> {
    let (Some(path), Some(obs)) = (path, obs) else { return Ok(()) };
    if path == "-" {
        write!(out, "{}", obs.human_summary())?;
    } else {
        let mut doc = obs.to_json();
        doc.push('\n');
        atomic_write(Path::new(path), doc.as_bytes())?;
    }
    Ok(())
}

fn stats<W: Write>(mut args: Args, out: &mut W) -> Result<(), CliError> {
    let edge_path = args.get("graph");
    let augmented_path = args.get("augmented");
    args.finish()?;

    let (graph, rejections): (Graph, Option<(u64, u64)>) = match (edge_path, augmented_path) {
        (Some(p), None) => {
            let (g, _) =
                socialgraph::io::read_edge_list(open_file(&p)?).map_err(|e| e.in_file(&p))?;
            (g, None)
        }
        (None, Some(p)) => {
            let ag =
                rejection::io::read_augmented(open_file(&p)?).map_err(|e| e.in_file(&p))?;
            let rejected_users =
                ag.nodes().filter(|&u| ag.rejections_received(u) > 0).count() as u64;
            (ag.friendship_graph(), Some((ag.num_rejections(), rejected_users)))
        }
        _ => {
            return Err(CliError(
                "stats needs exactly one of --graph <edge list> or --augmented <.rjg>".to_string(),
            ))
        }
    };

    let deg = metrics::degree_stats(&graph);
    writeln!(out, "nodes:            {}", graph.num_nodes())?;
    writeln!(out, "edges:            {}", graph.num_edges())?;
    writeln!(out, "degree:           min {} / mean {:.2} / max {}", deg.min, deg.mean, deg.max)?;
    writeln!(out, "clustering:       {:.4}", metrics::average_clustering(&graph))?;
    let comps = metrics::connected_components(&graph);
    let largest = comps.iter().map(Vec::len).max().unwrap_or(0);
    writeln!(out, "components:       {} (largest {largest})", comps.len())?;
    if let Some(start) = comps.iter().max_by_key(|c| c.len()).and_then(|c| c.first()) {
        writeln!(out, "diameter (lb):    {}", metrics::pseudo_diameter(&graph, *start, 4))?;
    }
    writeln!(out, "degeneracy:       {}", analysis::degeneracy(&graph))?;
    if let Some(alpha) = analysis::power_law_alpha(&graph, deg.mean.ceil() as usize + 1) {
        writeln!(out, "power-law alpha:  {alpha:.2} (tail above mean degree)")?;
    }
    if let Some(r) = analysis::degree_assortativity(&graph) {
        writeln!(out, "assortativity:    {r:.4}")?;
    }
    if let Some((rej, rejected_users)) = rejections {
        writeln!(out, "rejections:       {rej} (onto {rejected_users} users)")?;
    }
    Ok(())
}

fn votetrust_cmd<W: Write>(mut args: Args, out: &mut W) -> Result<(), CliError> {
    let log_path = args.require("log")?;
    let bottom: usize = args.get_or("bottom", 20)?;
    let seeds = match args.get("seeds") {
        Some(raw) => parse_seed_list(&raw)?,
        None => Vec::new(),
    };
    args.finish()?;

    let mut requests: Vec<(NodeId, NodeId, bool)> = Vec::new();
    let mut max_id = 0u32;
    for (i, line) in BufReader::new(open_file(&log_path)?).lines().enumerate() {
        let line = line.map_err(|e| CliError(format!("{log_path}:{}: {e}", i + 1)))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u32, CliError> {
            tok.and_then(|x| x.parse().ok())
                .ok_or_else(|| CliError(format!("{log_path}:{}: bad request line {t:?}", i + 1)))
        };
        let from = parse(parts.next())?;
        let to = parse(parts.next())?;
        let accepted = parse(parts.next())? != 0;
        max_id = max_id.max(from).max(to);
        requests.push((NodeId(from), NodeId(to), accepted));
    }
    let g = votetrust::RequestGraph::from_requests(max_id as usize + 1, requests);
    check_seeds(&seeds, g.num_nodes())?;
    let ranking = votetrust::VoteTrust::default().rank(&g, &seeds);
    writeln!(out, "bottom {bottom} users by VoteTrust rating:")?;
    for n in ranking.bottom(bottom) {
        writeln!(
            out,
            "  {n}: rating {:.4}, votes {:.6}",
            ranking.ratings()[n.index()],
            ranking.votes()[n.index()]
        )?;
    }
    Ok(())
}

fn sybilrank_cmd<W: Write>(mut args: Args, out: &mut W) -> Result<(), CliError> {
    let graph_path = args.require("graph")?;
    let seeds = parse_seed_list(&args.require("seeds")?)?;
    let bottom: usize = args.get_or("bottom", 20)?;
    args.finish()?;

    let (g, _) = socialgraph::io::read_edge_list(open_file(&graph_path)?)
        .map_err(|e| e.in_file(&graph_path))?;
    if seeds.is_empty() {
        return Err(CliError("sybilrank needs at least one --seeds id".to_string()));
    }
    check_seeds(&seeds, g.num_nodes())?;
    let result = sybilrank::SybilRank::default().rank(&g, &seeds);
    let idx = eval::ascending_by_score(result.scores());
    writeln!(out, "bottom {bottom} users by degree-normalized trust:")?;
    for &i in idx.iter().take(bottom) {
        writeln!(out, "  {}: score {:.6}", i, result.scores()[i])?;
    }
    Ok(())
}

/// Defense in depth (§VI-D): prune Rejecto's suspects from an augmented
/// graph and report SybilRank's ranking quality before and after.
fn defense<W: Write>(mut args: Args, out: &mut W) -> Result<(), CliError> {
    let graph_path = args.require("graph")?;
    let budget: usize = args.get_or("budget", 1_000)?;
    let seeds = parse_seed_list(&args.require("seeds")?)?;
    let truth_path = args.get("truth");
    let threads: usize = args.get_or("threads", 0)?;
    args.finish()?;

    let g = rejection::io::read_augmented(open_file(&graph_path)?)
        .map_err(|e| e.in_file(&graph_path))?;
    let is_fake = truth_path.map(|p| read_truth(&p, g.num_nodes())).transpose()?;
    if seeds.is_empty() {
        return Err(CliError("defense needs at least one --seeds id".to_string()));
    }
    check_seeds(&seeds, g.num_nodes())?;

    let detector = IterativeDetector::new(RejectoConfig { threads, ..RejectoConfig::default() });
    let report = detector.detect(
        &g,
        &Seeds { legit: seeds.clone(), spammer: Vec::new() },
        Termination::SuspectBudget(budget),
    );
    let pruned = report.suspects_top(budget, &g);
    writeln!(out, "rejecto pruned {} suspects in {} round(s)", pruned.len(), report.rounds)?;

    let (sterilized, kept, mapped_seeds) = crate::pipeline::sterilize(&g, &pruned, &seeds);
    if mapped_seeds.is_empty() {
        return Err(CliError("all seeds were pruned; supply known-legit seeds".to_string()));
    }

    let before = sybilrank::SybilRank::default().rank(&g.friendship_graph(), &seeds);
    let after = sybilrank::SybilRank::default().rank(&sterilized, &mapped_seeds);
    writeln!(
        out,
        "sybilrank ranking spans {} users before, {} after pruning",
        g.num_nodes(),
        sterilized.num_nodes()
    )?;

    if let Some(is_fake) = is_fake {
        let auc_before = auc_text(&before, &is_fake);
        let kept_fake: Vec<bool> = kept.iter().map(|u| is_fake[u.index()]).collect();
        let auc_after = auc_text(&after, &kept_fake);
        let tp = pruned.iter().filter(|s| is_fake[s.index()]).count();
        writeln!(out, "pruned true fakes: {tp} of {}", pruned.len())?;
        writeln!(out, "sybilrank AUC: {auc_before} before, {auc_after} after")?;
    }
    Ok(())
}

/// The ranking's AUC against `is_fake` to four places, or `undefined`
/// when the users hold one class only: `eval::auc` reports 0.5 there,
/// which would read as a coin-flip ranking (e.g. after pruning removed
/// every fake).
fn auc_text(ranking: &sybilrank::SybilRankResult, is_fake: &[bool]) -> String {
    if is_fake.iter().all(|&f| f) || !is_fake.iter().any(|&f| f) {
        "undefined".to_string()
    } else {
        format!("{:.4}", ranking.auc(is_fake))
    }
}

/// Helper for tests: run a command against string args.
#[cfg(test)]
pub fn run_to_string(command: &str, args: &[&str]) -> Result<String, CliError> {
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    run(command, &raw, &mut buf)?;
    Ok(String::from_utf8(buf).expect("utf-8 output"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory, removed when the test ends (also when it fails).
    struct TempDir(std::path::PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = std::path::Path;

        fn deref(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A scratch directory of its own for the test `tag`.
    fn tmpdir(tag: &str) -> TempDir {
        let dir = std::env::temp_dir()
            .join(format!("rejecto-cli-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    #[test]
    fn simulate_then_detect_roundtrip() {
        let dir = tmpdir("simulate_then_detect_roundtrip");
        let stem = dir.join("attack");
        let stem_s = stem.to_str().unwrap();
        let out = run_to_string(
            "simulate",
            &["--out", stem_s, "--scale", "0.03", "--fakes", "60", "--seed", "5"],
        )
        .unwrap();
        assert!(out.contains("simulated"), "{out}");

        let graph = format!("{stem_s}.rjg");
        let truth = format!("{stem_s}.truth");
        let report = run_to_string(
            "detect",
            &["--graph", &graph, "--budget", "60", "--truth", &truth],
        )
        .unwrap();
        assert!(report.contains("group(s) detected"), "{report}");
        let precision: f64 = report
            .split("precision ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("precision in output");
        assert!(precision > 0.9, "cli precision {precision}\n{report}");
    }

    #[test]
    fn detect_json_round_trips_the_exact_k() {
        let dir = tmpdir("detect_json_round_trips_the_exact_k");
        let stem = dir.join("json");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "40"]).unwrap();
        let out = run_to_string(
            "detect",
            &["--graph", &format!("{stem_s}.rjg"), "--budget", "40", "--json", "true"],
        )
        .unwrap();
        let sweep = RejectoConfig::default().k_sweep();
        assert!(!out.lines().collect::<Vec<_>>().is_empty(), "no groups emitted");
        for line in out.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("json line");
            assert!(v["acceptance_rate"].is_number());
            // The serialized num/den must reconstruct the winning KParam
            // exactly — it is a member of the configured sweep, and its
            // reported float value matches the rational bit-for-bit.
            let num = v["k"]["num"].as_u64().expect("k.num is a u64");
            let den = v["k"]["den"].as_u64().expect("k.den is a u64");
            let k = rejecto_core::KParam::new(num, den);
            assert!(sweep.contains(&k), "k = {k} not in the default sweep");
            assert_eq!(
                v["k"]["value"].as_f64().expect("k.value is a float").to_bits(),
                k.value().to_bits()
            );
        }
    }

    #[test]
    fn detect_output_is_independent_of_thread_count() {
        let dir = tmpdir("detect_output_is_independent_of_thread_count");
        let stem = dir.join("threads");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "40"]).unwrap();
        let graph = format!("{stem_s}.rjg");
        let run_with = |threads: &str| {
            run_to_string(
                "detect",
                &["--graph", &graph, "--budget", "40", "--json", "true", "--threads", threads],
            )
            .unwrap()
        };
        let serial = run_with("1");
        assert_eq!(serial, run_with("4"), "threads=4 output differs from serial");
        assert_eq!(serial, run_with("0"), "threads=auto output differs from serial");
    }

    #[test]
    fn detect_max_nodes_budget_is_a_typed_error_before_allocation() {
        let dir = tmpdir("detect_max_nodes_budget_is_a_typed_error_before_allocation");
        let stem = dir.join("res-nodes");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "40"]).unwrap();
        let graph = format!("{stem_s}.rjg");
        let err = run_to_string("detect", &["--graph", &graph, "--max-nodes", "5"])
            .expect_err("a 5-node ceiling must reject the simulated graph");
        assert!(err.0.contains("resource budget exhausted: nodes"), "{err}");
        // Within budget, the same flags load fine.
        run_to_string(
            "detect",
            &["--graph", &graph, "--budget", "40", "--max-nodes", "100000"],
        )
        .expect("a generous ceiling must not trip");
    }

    #[test]
    fn detect_max_suspect_frac_reports_a_resource_budget_partial() {
        let dir = tmpdir("detect_max_suspect_frac_reports_a_resource_budget_partial");
        let stem = dir.join("res-frac");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "40"]).unwrap();
        let out = run_to_string(
            "detect",
            &[
                "--graph",
                &format!("{stem_s}.rjg"),
                "--budget",
                "40",
                "--json",
                "true",
                "--max-suspect-frac",
                "0.001",
            ],
        )
        .unwrap();
        assert!(out.contains("\"partial\":\"resource budget\""), "{out}");
    }

    #[test]
    fn detect_max_checkpoint_bytes_degrades_the_save_with_a_typed_failure() {
        let dir = tmpdir("detect_max_checkpoint_bytes_degrades_the_save_with_a_typed_failure");
        let stem = dir.join("res-ckpt");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "40"]).unwrap();
        let out = run_to_string(
            "detect",
            &[
                "--graph",
                &format!("{stem_s}.rjg"),
                "--budget",
                "40",
                "--checkpoint",
                &format!("{stem_s}.ckpt"),
                "--max-checkpoint-bytes",
                "32",
            ],
        )
        .unwrap();
        // One ceiling, one message: the save refusal reads as the same
        // resource exhaustion a resume would report, and names no path.
        let line = out.lines().find(|l| l.starts_with("degraded: ")).expect("a degraded line");
        let observed = line
            .strip_prefix(
                "degraded: checkpoint write failed after round 1: resource budget exhausted: \
                 checkpoint bytes: observed ",
            )
            .and_then(|rest| rest.strip_suffix(" exceeds limit 32"))
            .unwrap_or_else(|| panic!("unexpected degraded line: {line}"));
        assert!(observed.parse::<u64>().is_ok_and(|n| n > 32), "{line}");
        assert!(!line.contains("res-ckpt"), "{line}");
        assert!(!line.contains(dir.to_str().unwrap()), "{line}");
    }

    #[test]
    fn detect_checkpoint_then_resume_matches_uninterrupted_run() {
        let dir = tmpdir("detect_checkpoint_then_resume_matches_uninterrupted_run");
        let stem = dir.join("ckpt");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "40"]).unwrap();
        let graph = format!("{stem_s}.rjg");
        let ckpt = format!("{stem_s}.ckpt");

        let full = run_to_string(
            "detect",
            &["--graph", &graph, "--budget", "40", "--json", "true"],
        )
        .unwrap();

        // Interrupt after one round, leaving a checkpoint behind...
        let partial = run_to_string(
            "detect",
            &[
                "--graph", &graph, "--budget", "40", "--json", "true", "--max-rounds", "1",
                "--checkpoint", &ckpt,
            ],
        )
        .unwrap();
        assert!(partial.contains("\"partial\":\"round budget\""), "{partial}");

        // ...then resume: the resumed report re-emits the checkpointed
        // groups and finishes the run, so its output must be byte-identical
        // to the uninterrupted run.
        let resumed = run_to_string(
            "detect",
            &["--graph", &graph, "--budget", "40", "--json", "true", "--resume", &ckpt],
        )
        .unwrap();
        assert_eq!(resumed, full, "resumed run differs from the uninterrupted run");
    }

    #[test]
    fn detect_deadline_zero_reports_a_partial_run() {
        let dir = tmpdir("detect_deadline_zero_reports_a_partial_run");
        let stem = dir.join("deadline");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "30"]).unwrap();
        let out = run_to_string(
            "detect",
            &["--graph", &format!("{stem_s}.rjg"), "--budget", "30", "--deadline-ms", "0"],
        )
        .unwrap();
        assert!(out.contains("partial result: deadline tripped"), "{out}");
    }

    #[test]
    fn detect_survives_an_injected_worker_panic() {
        let dir = tmpdir("detect_survives_an_injected_worker_panic");
        let stem = dir.join("inject");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "30"]).unwrap();
        let graph = format!("{stem_s}.rjg");
        let clean =
            run_to_string("detect", &["--graph", &graph, "--budget", "30"]).unwrap();
        // A one-shot panic is retried serially: same answer, no extra lines.
        let faulted = run_to_string(
            "detect",
            &["--graph", &graph, "--budget", "30", "--inject", "worker_panic@k=3"],
        )
        .unwrap();
        assert_eq!(clean, faulted, "one-shot injected panic changed the output");
        // A persistent panic degrades: the failure surfaces in the report.
        let degraded = run_to_string(
            "detect",
            &["--graph", &graph, "--budget", "30", "--inject", "worker_panic@k=3:always"],
        )
        .unwrap();
        assert!(degraded.contains("degraded:"), "{degraded}");
    }

    #[test]
    fn detect_distributed_matches_local_cut_across_worker_counts() {
        let dir = tmpdir("detect_distributed_matches_local_cut_across_worker_counts");
        let stem = dir.join("dist");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "40"]).unwrap();
        let graph = format!("{stem_s}.rjg");
        let run_with = |extra: &[&str]| {
            let mut argv = vec!["--graph", &graph, "--budget", "40", "--json", "true"];
            argv.extend_from_slice(extra);
            run_to_string("detect", &argv).unwrap()
        };
        let one = run_with(&["--distributed", "true", "--workers", "1"]);
        assert!(!one.is_empty(), "distributed run emitted nothing");
        let four = run_with(&["--distributed", "true", "--workers", "4"]);
        assert_eq!(one, four, "worker count changed the distributed output");
    }

    #[test]
    fn detect_distributed_fault_injection_is_invisible() {
        let dir = tmpdir("detect_distributed_fault_injection_is_invisible");
        let stem = dir.join("dist-fault");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "40"]).unwrap();
        let graph = format!("{stem_s}.rjg");
        let clean = run_to_string(
            "detect",
            &["--graph", &graph, "--budget", "40", "--distributed", "true", "--workers", "3"],
        )
        .unwrap();
        let metrics = format!("{stem_s}.metrics.json");
        let faulted = run_to_string(
            "detect",
            &[
                "--graph", &graph, "--budget", "40", "--distributed", "true", "--workers", "3",
                "--request-deadline-ms", "200",
                "--inject", "worker_death@fetch=2,worker_death@fetch=5:x2,worker_hang@fetch=1",
                "--metrics", &metrics,
            ],
        )
        .unwrap();
        assert_eq!(clean, faulted, "fault recovery leaked into the CLI output");
        let doc = std::fs::read_to_string(&metrics).unwrap();
        assert!(doc.contains("\"io/hangs_absorbed\": 1"), "the injected hang never fired: {doc}");
        // One respawn per death and one for the hang: every fault fired.
        assert!(doc.contains("\"io/worker_restarts\": 4"), "a death never fired: {doc}");
    }

    #[test]
    fn detect_distributed_resumes_a_local_checkpoint() {
        let dir = tmpdir("detect_distributed_resumes_a_local_checkpoint");
        let stem = dir.join("dist-ckpt");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "40"]).unwrap();
        let graph = format!("{stem_s}.rjg");
        let ckpt = format!("{stem_s}.ckpt");
        let full =
            run_to_string("detect", &["--graph", &graph, "--budget", "40", "--json", "true"])
                .unwrap();
        // Halt a *local* run after one round, resume it *distributed*.
        run_to_string(
            "detect",
            &[
                "--graph", &graph, "--budget", "40", "--json", "true", "--max-rounds", "1",
                "--checkpoint", &ckpt,
            ],
        )
        .unwrap();
        let resumed = run_to_string(
            "detect",
            &[
                "--graph", &graph, "--budget", "40", "--json", "true", "--resume", &ckpt,
                "--distributed", "true", "--workers", "2",
            ],
        )
        .unwrap();
        assert_eq!(resumed, full, "distributed resume diverged from the local run");
    }

    #[test]
    fn distributed_flags_require_distributed_mode() {
        let dir = tmpdir("distributed_flags_require_distributed_mode");
        let stem = dir.join("dist-flags");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "30"]).unwrap();
        let err = run_to_string(
            "detect",
            &["--graph", &format!("{stem_s}.rjg"), "--budget", "30", "--workers", "4"],
        )
        .unwrap_err();
        assert!(err.0.contains("--distributed"), "{err}");
    }

    #[test]
    fn detect_lenient_load_counts_skipped_lines() {
        let dir = tmpdir("detect_lenient_load_counts_skipped_lines");
        let stem = dir.join("lenient");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "30"]).unwrap();
        let graph = format!("{stem_s}.rjg");
        let mangled = format!("{stem_s}-mangled.rjg");
        let mut text = std::fs::read_to_string(&graph).unwrap();
        text.push_str("X 0 1\nF 0 banana\n");
        #[expect(
            clippy::disallowed_methods,
            reason = "test input in a scratch directory; it has no durability contract"
        )]
        std::fs::write(&mangled, text).unwrap();

        let err = run_to_string("detect", &["--graph", &mangled, "--budget", "30"]).unwrap_err();
        assert!(err.0.contains(&mangled), "strict error must name the file: {err}");
        assert!(err.0.contains("\"X\""), "strict error must name the token: {err}");

        let out = run_to_string(
            "detect",
            &["--graph", &mangled, "--budget", "30", "--lenient", "true"],
        )
        .unwrap();
        assert!(out.contains("skipped 2 malformed line(s)"), "{out}");
    }

    #[test]
    fn detect_metrics_file_is_versioned_and_thread_invariant() {
        let dir = tmpdir("detect_metrics_file_is_versioned_and_thread_invariant");
        let stem = dir.join("metrics");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "40"]).unwrap();
        let graph = format!("{stem_s}.rjg");
        let m1 = format!("{stem_s}-t1.metrics.json");
        let m4 = format!("{stem_s}-t4.metrics.json");
        run_to_string(
            "detect",
            &["--graph", &graph, "--budget", "40", "--threads", "1", "--metrics", &m1],
        )
        .unwrap();
        run_to_string(
            "detect",
            &["--graph", &graph, "--budget", "40", "--threads", "4", "--metrics", &m4],
        )
        .unwrap();
        let doc1 = std::fs::read_to_string(&m1).unwrap();
        let doc4 = std::fs::read_to_string(&m4).unwrap();
        assert!(doc1.contains(&format!("\"schema\": \"{}\"", rejecto_obs::SCHEMA)), "{doc1}");
        assert!(doc1.contains("\"kl/moves_committed\""), "{doc1}");
        assert!(doc1.contains("\"timings\""), "{doc1}");
        assert_eq!(
            rejecto_obs::strip_timings(&doc1),
            rejecto_obs::strip_timings(&doc4),
            "metrics outside `timings` must not depend on --threads"
        );

        let human = run_to_string(
            "detect",
            &["--graph", &graph, "--budget", "40", "--metrics", "-"],
        )
        .unwrap();
        assert!(human.contains(&format!("metrics ({})", rejecto_obs::SCHEMA)), "{human}");
        assert!(human.contains("kl/moves_committed"), "{human}");
    }

    #[test]
    fn stats_reports_augmented_numbers() {
        let dir = tmpdir("stats_reports_augmented_numbers");
        let stem = dir.join("stats");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "30"]).unwrap();
        let out =
            run_to_string("stats", &["--augmented", &format!("{stem_s}.rjg")]).unwrap();
        assert!(out.contains("rejections:"), "{out}");
        assert!(out.contains("clustering:"), "{out}");
    }

    #[test]
    fn votetrust_ranks_from_request_log() {
        let dir = tmpdir("votetrust_ranks_from_request_log");
        let stem = dir.join("vt");
        let stem_s = stem.to_str().unwrap();
        run_to_string("simulate", &["--out", stem_s, "--scale", "0.03", "--fakes", "30"]).unwrap();
        let out = run_to_string(
            "votetrust",
            &["--log", &format!("{stem_s}.requests"), "--bottom", "5", "--seeds", "0,1"],
        )
        .unwrap();
        assert_eq!(out.lines().count(), 6, "{out}");
    }

    /// Regression test: the ranking sort used
    /// `partial_cmp(..).expect("finite scores")`, which panicked the CLI
    /// the moment any score was NaN. The order must instead stay total
    /// (`total_cmp`): NaN sorts after every finite score, ties break by
    /// index, and no input can abort the process.
    #[test]
    fn score_ranking_survives_nan_scores() {
        let order = eval::ascending_by_score(&[0.5, f64::NAN, 0.25, 0.5]);
        assert_eq!(order, vec![2, 0, 3, 1], "NaN must sort last, ties by index");
    }

    /// A degree-zero node is the realistic route to a pathological score
    /// under degree normalization; the whole rank-then-sort path must
    /// stay deterministic and panic-free for it.
    #[test]
    fn sybilrank_ranking_handles_an_isolated_node() {
        let mut b = socialgraph::GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(2));
        b.add_edge(NodeId(2), NodeId(3));
        let g = b.build(); // node 1 has degree zero
        let result = sybilrank::SybilRank::default().rank(&g, &[NodeId(0)]);
        let order = eval::ascending_by_score(result.scores());
        assert_eq!(order.len(), 4);
        assert!(order.contains(&1), "isolated node missing from the ranking");
        assert_eq!(order, eval::ascending_by_score(result.scores()), "order must be stable");
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = run_to_string("frobnicate", &[]).unwrap_err();
        assert!(err.0.contains("unknown command"));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = run_to_string("stats", &["--bogus", "1"]).unwrap_err();
        assert!(err.0.contains("unknown flag") || err.0.contains("stats needs"), "{err}");
    }
}
