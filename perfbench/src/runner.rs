//! The parent side of a run: set-up, a closed loop of child reps, the
//! correctness gate, and the statistics.

use crate::calibrate;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::rep::Rep;
use crate::stats::Quartiles;
use crate::workload::{self, Input, Workload};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Precision and recall below this fail the rep: a timing for a wrong
/// answer is a bug.
const QUALITY_FLOOR: f64 = 0.9;

/// How a run is made.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a run keeps its inputs and its reps' scratch files, in a
    /// directory of its own that it removes when it ends.
    pub data_dir: PathBuf,
}

/// The result of one workload's run.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: usize,
    /// Why each failed rep failed.
    pub problems: Vec<String>,
    pub digest: Option<u64>,
    /// Median slowdown of the host over the run's set-ups and reps.
    pub slowdown: Option<f64>,
    pub metrics: Vec<(&'static Metric, Quartiles)>,
}

impl Outcome {
    pub fn failed(&self) -> usize {
        self.problems.len()
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && !self.metrics.is_empty()
    }
}

/// Reps a workload makes even when its time runs out sooner, so that
/// quartiles always rest on several samples.
const MIN_REPS: usize = 9;

/// Set-ups a workload makes per run, spread evenly over it; `setup_s` is
/// the median of their times. Made back to back, one slow spell of the
/// host could slow them all.
const SETUPS: usize = 9;

/// One timed set-up: simulate the input from the seed, write it (over any
/// earlier copy), and load it back as a rep will, which also warms the
/// page cache. Its time is read at the host's reference speed.
fn set_up(w: &Workload, seed: u64, dir: &Path) -> Result<(Input, Setup), String> {
    let (made, slowdown) = calibrate::around(|| {
        let clock = Instant::now();
        let input = workload::make_input(w, seed, dir)?;
        std::hint::black_box(crate::rep::load(&input.graph)?);
        Ok::<_, String>((input, clock.elapsed().as_secs_f64()))
    });
    let (input, wall_s) = made?;
    Ok((input, Setup { wall_s, slowdown }))
}

/// One set-up's wall time and the host's slowdown around it.
#[derive(Clone, Copy)]
struct Setup {
    wall_s: f64,
    slowdown: f64,
}

/// One workload's run in progress.
struct Run {
    w: &'static Workload,
    input: Input,
    /// The run's directory: inputs, and the reps' scratch files.
    dir: PathBuf,
    setups: Vec<Setup>,
    /// The answer every rep must give, once known.
    reference: Option<u64>,
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    problems: Vec<String>,
    attempted: usize,
}

impl Run {
    /// Makes the first set-up and, for a workload with a reference, one rep
    /// of the reference workload on the same file to learn the answer this
    /// one must give.
    fn start(w: &'static Workload, s: &Settings, dir: &Path) -> Result<Run, String> {
        let (input, took) = set_up(w, s.seed, dir)?;
        let mut reference = None;
        if let Some(name) = w.reference {
            let r = workload::find(name).ok_or(format!("unknown reference workload {name}"))?;
            let rep = spawn(r, &input, dir, false)?;
            gate(&rep, &mut reference).map_err(|e| format!("reference {name}: {e}"))?;
        }
        Ok(Run {
            w,
            input,
            dir: dir.to_path_buf(),
            setups: vec![took],
            reference,
            plain: Vec::new(),
            traced: Vec::new(),
            problems: Vec::new(),
            attempted: 0,
        })
    }

    /// Makes one rep and waits for it. A traced run alternates untraced
    /// and traced reps, so the tracing overhead is measured against reps
    /// made under the same conditions.
    fn rep(&mut self, s: &Settings) {
        let trace = s.trace && self.attempted % 2 == 1;
        self.attempted += 1;
        let rep = spawn(self.w, &self.input, &self.dir, trace)
            .and_then(|rep| gate(&rep, &mut self.reference).map(|()| rep));
        match rep {
            Ok(rep) if trace => self.traced.push(rep),
            Ok(rep) => self.plain.push(rep),
            Err(e) => self.problems.push(format!("rep {}: {e}", self.attempted)),
        }
    }

    fn finish(self, s: &Settings) -> Outcome {
        let metrics = if s.trace {
            layer_metrics(&self.plain, &self.traced)
        } else {
            end_to_end_metrics(&self.plain, &self.setups)
        };
        let slowdowns = self.setups.iter().map(|s| s.slowdown);
        let slowdowns = slowdowns.chain(self.plain.iter().chain(&self.traced).map(|r| r.slowdown));
        Outcome {
            workload: self.w.name,
            attempted: self.attempted,
            problems: self.problems,
            digest: self.reference,
            slowdown: Quartiles::of(&slowdowns.collect::<Vec<_>>()).map(|q| q.p50),
            metrics,
        }
    }
}

/// Sets every workload up, then makes reps one at a time (a closed loop
/// with one client), taking the workloads in turn, until `seconds` per
/// workload have passed and each has made `MIN_REPS`. The remaining
/// set-ups fall due at even steps of the run, each just before a rep.
/// Taking turns spreads every workload's reps over the whole run set, so
/// a slow spell of the host slows all workloads alike instead of
/// whichever ran during it.
pub fn run(workloads: &[&'static Workload], s: &Settings) -> Result<Vec<Outcome>, String> {
    let dir = RunDir::create(&s.data_dir)?;
    let mut runs = workloads
        .iter()
        .map(|w| Run::start(w, s, &dir.0))
        .collect::<Result<Vec<_>, _>>()?;
    let budget = s.seconds * runs.len() as f64;
    let start = Instant::now();
    while runs.iter().any(|r| r.attempted < MIN_REPS) || start.elapsed().as_secs_f64() < budget {
        for r in &mut runs {
            let due = budget * r.setups.len() as f64 / SETUPS as f64;
            if r.setups.len() < SETUPS && start.elapsed().as_secs_f64() >= due {
                r.setups.push(set_up(r.w, s.seed, &dir.0)?.1);
            }
            r.rep(s);
        }
    }
    Ok(runs.into_iter().map(|r| r.finish(s)).collect())
}

/// A run's own directory for its inputs and scratch files, removed when
/// the run ends, however it ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create(parent: &Path) -> Result<RunDir, String> {
        let dir = parent.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        // Nothing is left to report a failure to.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fails a rep whose report is partial, degraded, wrong against ground
/// truth, or different from the reference answer. The first passing rep
/// sets the reference when the workload has none.
fn gate(rep: &Rep, reference: &mut Option<u64>) -> Result<(), String> {
    if !rep.complete {
        return Err("partial report".to_string());
    }
    if rep.failures > 0 {
        return Err(format!("{} runtime failure(s) in the report", rep.failures));
    }
    if rep.precision < QUALITY_FLOOR || rep.recall < QUALITY_FLOOR {
        return Err(format!(
            "precision {:.4} / recall {:.4} below {QUALITY_FLOOR}",
            rep.precision, rep.recall
        ));
    }
    match *reference {
        Some(d) if d != rep.digest => Err(format!(
            "report digest {:016x} differs from {d:016x}",
            rep.digest
        )),
        Some(_) => Ok(()),
        None => {
            *reference = Some(rep.digest);
            Ok(())
        }
    }
}

/// Runs one rep in a fresh child process and waits for it to exit. Its
/// scratch files go to a directory under `dir`, removed afterwards.
fn spawn(w: &Workload, input: &Input, dir: &Path, trace: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let scratch = &dir.join("rep");
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let out = Command::new(exe)
        .args(["--child", w.name])
        .arg("--graph")
        .arg(&input.graph)
        .arg("--truth")
        .arg(&input.truth)
        .arg("--scratch")
        .arg(scratch)
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let cleanup = std::fs::remove_dir_all(scratch);
    let out = out.map_err(|e| format!("starting a rep: {e}"))?;
    cleanup.map_err(|e| format!("{}: {e}", scratch.display()))?;
    if !out.status.success() {
        return Err(format!("rep process ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Rep::from_json(stdout.lines().last().unwrap_or(""))
}

fn quartiles(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Option<Quartiles> {
    Quartiles::of(&reps.iter().map(f).collect::<Vec<_>>())
}

/// A rep's total time at the host's reference speed.
fn total_s(r: &Rep) -> f64 {
    r.total_s / r.slowdown
}

/// Every sample at the host's reference speed; see [`calibrate`].
fn end_to_end_metrics(reps: &[Rep], setups: &[Setup]) -> Vec<(&'static Metric, Quartiles)> {
    let value = |m: &Metric, r: &Rep| match m.name {
        "total_s" => r.total_s,
        "edges_per_s" => r.edges / r.total_s,
        "peak_rss_mb" => r.rss_mib,
        "precision" => r.precision,
        "recall" => r.recall,
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    END_TO_END
        .iter()
        .filter_map(|m| {
            let q = match m.name {
                "setup_s" => Quartiles::of(
                    &setups
                        .iter()
                        .map(|s| m.at_reference_speed(s.wall_s, s.slowdown))
                        .collect::<Vec<_>>(),
                ),
                _ => quartiles(reps, |r| m.at_reference_speed(value(m, r), r.slowdown)),
            };
            Some((m, q?))
        })
        .collect()
}

fn layer_metrics(plain: &[Rep], traced: &[Rep]) -> Vec<(&'static Metric, Quartiles)> {
    let untraced_total = quartiles(plain, total_s).map(|q| q.p50);
    let value = |m: &Metric, r: &Rep| match m.name {
        "trace.overhead_frac" => untraced_total.map(|u| (total_s(r) - u) / u),
        name => r
            .layers
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| m.at_reference_speed(v, r.slowdown)),
    };
    PER_LAYER
        .iter()
        .filter_map(|m| {
            let samples: Option<Vec<f64>> = traced.iter().map(|r| value(m, r)).collect();
            Some((m, Quartiles::of(&samples?)?))
        })
        .collect()
}

/// Human-readable lines, one per metric, then the result object as the
/// last line.
pub fn render(w: &Workload, o: &Outcome) -> String {
    let mut out = format!("{}: {}\n", w.name, w.why);
    for (m, q) in &o.metrics {
        out.push_str(&format!(
            "{} {} = {} {} (median; q1 {}, q3 {}, n {}; {} is better)\n",
            o.workload,
            m.name,
            q.p50,
            m.unit,
            q.q1,
            q.q3,
            q.n,
            m.better.as_str()
        ));
    }
    if let Some(x) = o.slowdown {
        out.push_str(&format!(
            "{} host slowdown {x} (median calibration kernel time / {} s)\n",
            o.workload,
            calibrate::REFERENCE_S
        ));
    }
    if let Some(d) = o.digest {
        out.push_str(&format!("{} digest {d:016x}\n", o.workload));
    }
    for p in &o.problems {
        out.push_str(&format!("{} FAILED {p}\n", o.workload));
    }
    let metrics = o
        .metrics
        .iter()
        .map(|(m, q)| {
            let v = serde_json::json!({ "value": q.p50, "unit": m.unit });
            (m.name.to_string(), v)
        })
        .collect();
    let result = serde_json::json!({
        "correct": o.correct(),
        "attempted": o.attempted,
        "failed": o.failed(),
        "metrics": Value::Object(metrics),
    });
    out.push_str(&result.to_string());
    out.push('\n');
    out
}

/// The run-set document `--json` writes and `--compare` reads.
pub fn run_set(outcomes: &[Outcome], s: &Settings) -> Value {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let metrics = o
                .metrics
                .iter()
                .map(|(m, q)| {
                    let v = serde_json::json!({
                        "unit": m.unit, "q1": q.q1, "p50": q.p50, "q3": q.q3, "n": q.n,
                    });
                    (m.name.to_string(), v)
                })
                .collect();
            let digest = o.digest.map(|d| format!("{d:016x}")).unwrap_or_default();
            let entry = serde_json::json!({
                "digest": digest,
                "slowdown": o.slowdown,
                "attempted": o.attempted,
                "failed": o.failed(),
                "metrics": Value::Object(metrics),
            });
            (o.workload.to_string(), entry)
        })
        .collect();
    serde_json::json!({
        "schema": "rejecto-perf/v3",
        "seed": s.seed,
        "seconds": s.seconds,
        "trace": s.trace,
        "workloads": Value::Object(workloads),
    })
}

/// Where runs keep their files: beside the build, so version control
/// never sees them.
pub fn data_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perf-data")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use socialgraph::surrogates::Surrogate;

    fn passing() -> Rep {
        Rep {
            load_s: 0.1,
            total_s: 1.0,
            rss_mib: 10.0,
            slowdown: 1.0,
            edges: 100.0,
            complete: true,
            failures: 0,
            precision: 0.99,
            recall: 0.98,
            digest: 7,
            layers: Vec::new(),
        }
    }

    #[test]
    fn gate_fails_wrong_partial_degraded_and_divergent_reps() {
        let mut reference = None;
        gate(&passing(), &mut reference).expect("a good rep passes");
        assert_eq!(
            reference,
            Some(7),
            "the first passing rep sets the reference"
        );
        let cases = [
            Rep {
                complete: false,
                ..passing()
            },
            Rep {
                failures: 1,
                ..passing()
            },
            Rep {
                precision: 0.89,
                ..passing()
            },
            Rep {
                recall: 0.5,
                ..passing()
            },
            Rep {
                digest: 8,
                ..passing()
            },
        ];
        for rep in &cases {
            assert!(gate(rep, &mut reference).is_err(), "{rep:?} should fail");
        }
    }

    /// Every workload's detector on a tiny input (about 400 host nodes): each
    /// report is complete, tracing leaves the answer alone, the cluster
    /// reproduces the local answer, and exactly the declared metrics come
    /// out with tracing off and on.
    #[test]
    fn tiny_inputs_run_every_workload_and_emit_every_declared_metric() {
        let dir = std::env::temp_dir().join(format!("perf-smoke-{}", std::process::id()));
        let scratch = dir.join("scratch");
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let mut digests = Vec::new();
        for w in &WORKLOADS {
            let host_nodes = Surrogate::Facebook.paper_stats().nodes as f64 * w.recipe.scale;
            let tiny = Workload {
                recipe: w.recipe.shrunk(400.0 / host_nodes),
                ..*w
            };
            let input = workload::make_input(&tiny, 7, &dir).expect("tiny input");
            let plain = crate::rep::run(&tiny, &input.graph, &input.truth, &scratch, false)
                .expect("untraced rep");
            let traced = crate::rep::run(&tiny, &input.graph, &input.truth, &scratch, true)
                .expect("traced rep");
            assert!(
                plain.complete && plain.failures == 0,
                "{}: {plain:?}",
                w.name
            );
            assert_eq!(
                plain.digest, traced.digest,
                "{}: tracing changed the answer",
                w.name
            );
            assert_eq!(Rep::from_json(&traced.to_json()), Ok(traced.clone()));
            let layer = |name: &str| traced.layers.iter().find(|(k, _)| k == name).map(|p| p.1);
            let saves = if w.detector == workload::Detector::Checkpointed {
                layer("prune.calls")
            } else {
                Some(0.0)
            };
            assert_eq!(layer("ckpt.writes"), saves, "{}: checkpoint saves", w.name);
            digests.push((w.name, plain.digest));

            let names =
                |ms: Vec<(&Metric, Quartiles)>| ms.iter().map(|(m, _)| m.name).collect::<Vec<_>>();
            let all = |table: &[Metric]| table.iter().map(|m| m.name).collect::<Vec<_>>();
            assert_eq!(
                names(end_to_end_metrics(
                    std::slice::from_ref(&plain),
                    &[Setup {
                        wall_s: 0.5,
                        slowdown: 1.0
                    }]
                )),
                all(&END_TO_END),
                "{}",
                w.name
            );
            assert_eq!(
                names(layer_metrics(&[plain], &[traced])),
                all(&PER_LAYER),
                "{}",
                w.name
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
        let digest_of = |name| digests.iter().find(|(n, _)| *n == name).map(|&(_, d)| d);
        assert_eq!(
            digest_of("fb-20k"),
            digest_of("cluster-20k"),
            "cluster and local disagree"
        );
    }
}
