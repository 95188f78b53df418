//! The pinned workloads: how each input is generated from the seed, and
//! which detector runs on it.

use dataflow::{ClusterConfig, DistributedDetector};
use rejection::AugmentedGraph;
use rejecto_core::store::atomic_write;
use rejecto_core::{
    CheckpointStore, Completion, DetectionReport, IterativeDetector, RejectoConfig, RuntimeError,
    Seeds, Termination,
};
use rejecto_obs::Obs;
use simulator::{Scenario, ScenarioConfig, SelfRejectionConfig, SimOutput};
use socialgraph::surrogates::Surrogate;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Which detector a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// `IterativeDetector::detect`.
    Local,
    /// `IterativeDetector::detect_with_checkpoints` into a durable
    /// `CheckpointStore`.
    Checkpointed,
    /// `DistributedDetector` on two in-process workers.
    Cluster,
}

/// How a workload's input is simulated: the Facebook surrogate host graph
/// plus an injected fake region, with the default §VI-A attack parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recipe {
    /// Host size as a multiple of the surrogate's Table I node count.
    pub scale: f64,
    pub fakes: usize,
    /// Fakes hidden by the Fig 14 self-rejection strategy (0 = none).
    pub whitewashed: usize,
}

impl Recipe {
    /// Simulates the input: host graph and attack both drawn from `seed`.
    pub fn simulate(&self, seed: u64) -> SimOutput {
        let host = Surrogate::Facebook.generate_scaled(seed, self.scale);
        let config = ScenarioConfig {
            num_fakes: self.fakes,
            self_rejection: (self.whitewashed > 0).then_some(SelfRejectionConfig {
                whitewashed: self.whitewashed,
                requests_per_sender: 20,
                rejection_rate: 0.95,
            }),
            ..ScenarioConfig::default()
        };
        Scenario::new(config).run(&host, seed)
    }

    /// The same recipe with host and fake region shrunk by `factor`.
    #[cfg(test)]
    pub fn shrunk(&self, factor: f64) -> Recipe {
        let shrink = |n: usize| ((n as f64 * factor).round() as usize).max(1);
        Recipe {
            scale: self.scale * factor,
            fakes: shrink(self.fakes),
            whitewashed: if self.whitewashed == 0 {
                0
            } else {
                shrink(self.whitewashed)
            },
        }
    }
}

/// One pinned workload. Names are fixed: later changes cite them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Stem of the input files; workloads sharing an input share a stem.
    pub input: &'static str,
    pub recipe: Recipe,
    pub detector: Detector,
    /// A workload whose report this one must reproduce byte for byte.
    pub reference: Option<&'static str>,
    pub why: &'static str,
}

const FB_20K: Recipe = Recipe {
    scale: 1.0,
    fakes: 10_000,
    whitewashed: 0,
};

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fb-20k",
        input: "fb-20k",
        recipe: FB_20K,
        detector: Detector::Local,
        reference: None,
        why: "the paper's baseline attack on the Facebook surrogate; one round of KL passes over a working set about 2x the L2",
    },
    Workload {
        name: "whitewash-20k",
        input: "whitewash-20k",
        recipe: Recipe { whitewashed: 9_000, ..FB_20K },
        detector: Detector::Checkpointed,
        reference: None,
        why: "self-rejection forces a second pruning round; each round rebuilds the residual graph and writes a checkpoint",
    },
    Workload {
        name: "cluster-20k",
        input: "fb-20k",
        recipe: FB_20K,
        detector: Detector::Cluster,
        reference: Some("fb-20k"),
        why: "the fb-20k input through the master/worker runtime with its own KL copy, LRU buffer and prefetch",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The input files of one workload and seed.
pub struct Input {
    pub graph: PathBuf,
    pub truth: PathBuf,
}

/// Simulates the workload's input for `seed` and writes it under `dir`,
/// replacing any earlier copy.
pub fn make_input(w: &Workload, seed: u64, dir: &Path) -> Result<Input, String> {
    let stem = dir.join(format!("{}-s{seed}", w.input));
    let input = Input {
        graph: stem.with_extension("rjg"),
        truth: stem.with_extension("truth"),
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let sim = w.recipe.simulate(seed);
    let mut graph = Vec::new();
    rejection::io::write_augmented(&sim.graph, &mut graph).map_err(|e| e.to_string())?;
    atomic_write(&input.graph, &graph).map_err(|e| e.to_string())?;
    let mut truth = Vec::new();
    for f in &sim.fakes {
        writeln!(truth, "{f}").map_err(|e| e.to_string())?;
    }
    atomic_write(&input.truth, &truth).map_err(|e| e.to_string())?;
    Ok(input)
}

/// The span that times each `CheckpointStore::save` of a traced rep.
pub const CHECKPOINT_SAVE_SPAN: &str = "perf/checkpoint_save";

/// Runs the workload's detector on `g` with a suspect budget, single
/// threaded (the primary series on a two-core host). Checkpoints, if the
/// detector writes any, go under `scratch`, each save timed by
/// [`CHECKPOINT_SAVE_SPAN`] when `obs` is given.
pub fn detect(
    detector: Detector,
    g: &AugmentedGraph,
    budget: usize,
    obs: Option<&Obs>,
    scratch: &Path,
) -> Result<DetectionReport, RuntimeError> {
    let config = RejectoConfig {
        threads: 1,
        ..RejectoConfig::default()
    };
    let seeds = Seeds::default();
    let termination = Termination::SuspectBudget(budget);
    match detector {
        Detector::Local | Detector::Checkpointed => {
            let mut d = IterativeDetector::new(config);
            if let Some(obs) = obs {
                d.set_obs(obs.clone());
            }
            if detector == Detector::Local {
                return Ok(d.detect(g, &seeds, termination));
            }
            let store = CheckpointStore::new(scratch.join("ckpt"));
            let mut sink = |c: &_| {
                let _span = obs.map(|o| o.span(CHECKPOINT_SAVE_SPAN));
                store.save(c).map_err(std::io::Error::other)
            };
            Ok(d.detect_with_checkpoints(g, &seeds, termination, &mut sink))
        }
        Detector::Cluster => {
            let cluster = ClusterConfig {
                num_workers: 2,
                ..ClusterConfig::default()
            };
            let mut d = DistributedDetector::new(cluster, config);
            if let Some(obs) = obs {
                d.set_obs(obs.clone());
            }
            d.detect(g, &seeds, termination)
        }
    }
}

/// FNV-1a over everything a report decides: rounds, completion, and each
/// group's round, exact `k`, acceptance-rate bits and members. Equal
/// digests mean equal answers.
pub fn digest(report: &DetectionReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(report.rounds as u64);
    eat(u64::from(report.completion != Completion::Complete));
    for g in &report.groups {
        eat(g.round as u64);
        eat(g.k.num());
        eat(g.k.den());
        eat(g.acceptance_rate.to_bits());
        eat(g.nodes.len() as u64);
        for n in &g.nodes {
            eat(u64::from(n.0));
        }
    }
    h
}
