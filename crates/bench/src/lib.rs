//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation (§VI). See DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded paper-vs-measured
//! results.
//!
//! Every binary:
//!
//! * accepts `--scale <f>` (or env `REJECTO_SCALE`) to shrink the
//!   experiment below paper scale for quick runs — `1.0` is paper scale
//!   (10,000 fakes on the full-size surrogate);
//! * accepts `--seed <u64>` (env `REJECTO_SEED`) for reproducibility;
//! * prints a paper-style text table and writes machine-readable JSON rows
//!   under `results/`.

pub mod plot;

use serde::Serialize;
use simulator::{Scenario, ScenarioConfig, SimOutput};
use socialgraph::surrogates::Surrogate;
use socialgraph::Graph;
use std::io::Write as _;
use std::path::PathBuf;

pub use rejecto::pipeline::{self, PipelineConfig};

/// Command-line / environment configuration shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Experiment name (output file stem).
    pub name: String,
    /// Scale factor relative to the paper (host-graph nodes and fake count
    /// both scale linearly).
    pub scale: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Output directory for JSON rows.
    pub out_dir: PathBuf,
    /// Run metrics, written next to the rows by [`Harness::emit`] as
    /// `results/<name>.metrics.json` (rejecto-metrics/v1).
    pub obs: rejecto_obs::Obs,
}

impl Harness {
    /// Builds a harness from `std::env::args` and environment variables.
    ///
    /// # Panics
    ///
    /// Panics on malformed `--scale`/`--seed` values.
    pub fn from_env(name: &str) -> Self {
        let mut scale: f64 = std::env::var("REJECTO_SCALE")
            .ok()
            .map(|s| s.parse().expect("REJECTO_SCALE must be a float"))
            .unwrap_or(1.0);
        let mut seed: u64 = std::env::var("REJECTO_SEED")
            .ok()
            .map(|s| s.parse().expect("REJECTO_SEED must be a u64"))
            .unwrap_or(42);
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale requires a float");
                }
                "--seed" => {
                    seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed requires a u64");
                }
                "--help" | "-h" => {
                    eprintln!("usage: {name} [--scale <f64>] [--seed <u64>]");
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other:?}"),
            }
        }
        assert!(scale > 0.0, "scale must be positive");
        Harness {
            name: name.to_string(),
            scale,
            seed,
            out_dir: PathBuf::from("results"),
            obs: rejecto_obs::Obs::default(),
        }
    }

    /// Paper quantity scaled (e.g., `self.n(10_000)` fakes).
    pub fn n(&self, paper_value: usize) -> usize {
        ((paper_value as f64 * self.scale).round() as usize).max(1)
    }

    /// Generates the scaled host surrogate.
    pub fn host(&self, s: Surrogate) -> Graph {
        s.generate_scaled(self.seed, self.scale)
    }

    /// Runs the §VI-A scenario on `host` with the scaled fake count and the
    /// supplied overrides.
    pub fn simulate(&self, host: &Graph, mut cfg: ScenarioConfig) -> SimOutput {
        cfg.num_fakes = self.n(cfg.num_fakes);
        Scenario::new(cfg).run_observed(host, self.seed, &self.obs)
    }

    /// Prints the table and writes `results/<name>.json`; on any write
    /// failure (full disk, bad permissions) it reports the structured
    /// error and exits nonzero instead of panicking. Because every file
    /// goes through the atomic write protocol, a failed emit can never
    /// leave a half-written `results/*.json` for a later report-equality
    /// assertion to read as truth.
    pub fn emit<R: Serialize>(&self, table: &eval::table::Table, rows: &[R]) {
        if let Err(e) = self.try_emit(table, rows) {
            eprintln!("bench: {e}");
            std::process::exit(1);
        }
    }

    /// Fallible core of [`Harness::emit`].
    ///
    /// # Errors
    ///
    /// [`EmitError`] naming the path and the failed step.
    pub fn try_emit<R: Serialize>(
        &self,
        table: &eval::table::Table,
        rows: &[R],
    ) -> Result<(), EmitError> {
        println!("== {} (scale {}, seed {}) ==", self.name, self.scale, self.seed);
        print!("{}", table.render());
        std::fs::create_dir_all(&self.out_dir).map_err(|e| EmitError {
            path: self.out_dir.display().to_string(),
            message: format!("cannot create results dir: {e}"),
        })?;
        let path = self.out_dir.join(format!("{}.json", self.name));
        let mut buf = Vec::new();
        for r in rows {
            let line = serde_json::to_string(r).map_err(|e| EmitError {
                path: path.display().to_string(),
                message: format!("row serialization failed: {e}"),
            })?;
            writeln!(buf, "{line}").map_err(|e| EmitError {
                path: path.display().to_string(),
                message: format!("cannot render results rows: {e}"),
            })?;
        }
        rejecto_core::store::atomic_write(&path, &buf).map_err(|e| EmitError {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        eprintln!("[wrote {}]", path.display());

        let metrics_path = self.out_dir.join(format!("{}.metrics.json", self.name));
        let mut doc = self.obs.to_json();
        doc.push('\n');
        rejecto_core::store::atomic_write(&metrics_path, doc.as_bytes()).map_err(|e| {
            EmitError { path: metrics_path.display().to_string(), message: e.to_string() }
        })?;
        eprintln!("[wrote {}]", metrics_path.display());
        Ok(())
    }
}

/// A structured results-write failure: which artifact, and what went
/// wrong. Replaces the `expect` panics that used to abort the bench
/// binaries mid-run on a full disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitError {
    /// Path of the artifact that could not be written.
    pub path: String,
    /// What failed.
    pub message: String,
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for EmitError {}

/// One precision/recall comparison point, the row shape of Figures 9–15,
/// 17, and 18. With `REJECTO_REPLICAS > 1` the point is the mean over
/// independent simulation seeds and the `*_std` fields carry the sample
/// standard deviation.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonRow {
    /// Host graph name.
    pub graph: String,
    /// Sweep axis label.
    pub x_label: String,
    /// Sweep axis value.
    pub x: f64,
    /// Rejecto precision (= recall under the protocol), mean over replicas.
    pub rejecto: f64,
    /// VoteTrust precision, mean over replicas.
    pub votetrust: f64,
    /// Sample std of the Rejecto precision (0 with one replica).
    pub rejecto_std: f64,
    /// Sample std of the VoteTrust precision (0 with one replica).
    pub votetrust_std: f64,
    /// Replica count.
    pub replicas: usize,
}

/// Runs both detectors under the protocol (each declares exactly the
/// number of injected fakes) and returns `(rejecto, votetrust)` precision.
pub fn compare(sim: &SimOutput, cfg: &PipelineConfig) -> (f64, f64) {
    let budget = sim.fakes.len();
    let rj = pipeline::rejecto_suspects(sim, cfg, budget);
    let vt = pipeline::votetrust_suspects(sim, cfg, budget);
    (
        pipeline::precision(&rj, &sim.is_fake),
        pipeline::precision(&vt, &sim.is_fake),
    )
}

/// Replica count from `REJECTO_REPLICAS` (default 1).
pub fn replicas() -> usize {
    std::env::var("REJECTO_REPLICAS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(1)
}

/// MAAR k-sweep worker threads from `REJECTO_THREADS` (default 0 = all
/// cores). Purely a wall-clock knob: the sweep's reduction is ordered by
/// sweep index, so every figure and table is byte-identical at any value.
pub fn threads() -> usize {
    std::env::var("REJECTO_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Runs a one-dimensional sweep on one host graph: for each `x`,
/// `make_config(x)` builds the scenario, both detectors run, and a
/// [`ComparisonRow`] is produced. With `REJECTO_REPLICAS > 1` each point
/// averages that many independent simulation seeds (`seed + replica`).
pub fn sweep<F>(
    harness: &Harness,
    graph: Surrogate,
    x_label: &str,
    xs: &[f64],
    make_config: F,
) -> Vec<ComparisonRow>
where
    F: Fn(f64) -> ScenarioConfig,
{
    let host = harness.host(graph);
    let mut cfg = PipelineConfig::default();
    cfg.rejecto.threads = threads();
    let reps = replicas();
    xs.iter()
        .map(|&x| {
            let mut rj = Vec::with_capacity(reps);
            let mut vt = Vec::with_capacity(reps);
            for r in 0..reps {
                let mut scenario = make_config(x);
                scenario.num_fakes = harness.n(scenario.num_fakes);
                let sim =
                    Scenario::new(scenario).run(&host, harness.seed + r as u64);
                let (a, b) = compare(&sim, &cfg);
                rj.push(a);
                vt.push(b);
            }
            let rj = eval::Summary::from_samples(rj).expect("at least one replica");
            let vt = eval::Summary::from_samples(vt).expect("at least one replica");
            eprintln!(
                "  [{}] {x_label}={x}: rejecto {} votetrust {}",
                graph.name(),
                rj.display(),
                vt.display()
            );
            ComparisonRow {
                graph: graph.name().to_string(),
                x_label: x_label.to_string(),
                x,
                rejecto: rj.mean,
                votetrust: vt.mean,
                rejecto_std: rj.std,
                votetrust_std: vt.std,
                replicas: reps,
            }
        })
        .collect()
}

/// Renders comparison rows as a paper-style table.
pub fn comparison_table(x_label: &str, rows: &[ComparisonRow]) -> eval::table::Table {
    let mut t = eval::table::Table::new(["graph", x_label, "rejecto", "votetrust"]);
    for r in rows {
        t.row([
            r.graph.clone(),
            format!("{}", r.x),
            eval::table::fnum(r.rejecto),
            eval::table::fnum(r.votetrust),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_quantities_round_and_floor_at_one() {
        let h = Harness {
            name: "t".into(),
            scale: 0.015,
            seed: 1,
            out_dir: PathBuf::from("/tmp"),
            obs: rejecto_obs::Obs::default(),
        };
        assert_eq!(h.n(10_000), 150);
        assert_eq!(h.n(10), 1);
    }

    #[test]
    fn sweep_produces_one_row_per_x() {
        let h = Harness {
            name: "t".into(),
            scale: 0.02,
            seed: 7,
            out_dir: PathBuf::from("/tmp"),
            obs: rejecto_obs::Obs::default(),
        };
        let rows = sweep(&h, Surrogate::Synthetic, "requests", &[5.0, 10.0], |x| {
            ScenarioConfig {
                requests_per_spammer: x as usize,
                ..ScenarioConfig::default()
            }
        });
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.rejecto));
            assert!((0.0..=1.0).contains(&r.votetrust));
        }
    }

    #[test]
    fn comparison_table_includes_all_rows() {
        let rows = vec![ComparisonRow {
            graph: "g".into(),
            x_label: "x".into(),
            x: 1.0,
            rejecto: 0.5,
            votetrust: 0.25,
            rejecto_std: 0.0,
            votetrust_std: 0.0,
            replicas: 1,
        }];
        let t = comparison_table("x", &rows);
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("0.2500"));
    }
}
