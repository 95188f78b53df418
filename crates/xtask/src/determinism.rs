//! The in-process determinism check behind `cargo xtask check
//! --determinism`.
//!
//! Byte-for-byte reproducibility from a fixed seed is a standing contract
//! of this repo (every figure in EXPERIMENTS.md depends on it). The check
//! simulates one scenario **twice within one process**, diffs the
//! serialized graphs and the canonical reports ([`render_report`]) of an
//! auto-threads detection on each. In-process repetition catches
//! allocator-address- or hasher-seeded nondeterminism that two CLI runs
//! with the same ASLR layout would mask. Then four pinned cases go
//! through the harness runner ([`Case::run`]), with a kill-and-resume on
//! every runtime, and every leg must match the auto-threads run: seed 7
//! failure-free and under [`DISTRIBUTED_FAULTS`], and the self-rejection
//! scenario with its newest checkpoint generation torn or bit-flipped.

use crate::harness::{fixture, render_report, same, stripped, Case, Leg, Outcome, Resume, Runtime};
use rejecto_core::{DetectionReport, FaultPlan};
use rejecto_obs::Obs;
use rejection::io::write_augmented;
use simulator::SimOutput;

/// The CLI's default simulate flow, scaled down: 60 fakes at seed 7.
const SEED: u64 = 7;
const FAKES: usize = 60;

/// The auto-sized local run every leg is held to.
const AUTO: Runtime = Runtime::Threads(0);

/// The distributed legs' fault plan: a death, a repeated death and a hang.
/// The fixture makes two fetch batches a run, so all three land on those
/// two; the hang shares its request with a death, so the plan costs three
/// respawns in all. The local runtime has no fetches, so it must not
/// notice the plan at all.
const DISTRIBUTED_FAULTS: &str =
    "worker_death@fetch=1,worker_death@fetch=2:x2,worker_hang@fetch=2";

fn graph_bytes(sim: &SimOutput) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    write_augmented(&sim.graph, &mut bytes)
        .map_err(|e| format!("serializing augmented graph: {e:?}"))?;
    Ok(bytes)
}

fn parse(spec: &str) -> Result<FaultPlan, String> {
    FaultPlan::parse(spec).map_err(|e| format!("fault spec rejected: {e}"))
}

/// The auto-threads leg of `case`: its report and its metrics registry.
fn auto(case: &Case<'_>) -> Result<(DetectionReport, Obs), String> {
    let Leg { report, obs, .. } = case.leg(AUTO)?;
    Ok((report.map_err(|e| format!("detect failed at {AUTO}: {e}"))?, obs))
}

/// Runs `case` with a kill-and-resume on every runtime, and demands that
/// every leg render `want`'s report and stripped metrics and every
/// kill-and-resume resume.
fn pinned(name: &str, case: &Case<'_>, want: &(String, String)) -> Result<Outcome, String> {
    let outcome = case.run(|_| true).map_err(|e| format!("{name}: {e}"))?;
    for Leg { rt, report, obs } in &outcome.legs {
        let report = report.as_ref().map_err(|e| format!("{name}: detect failed at {rt}: {e}"))?;
        let differs = |what: &str| format!("{name} {rt}: {what} from the auto-threads run");
        same(&differs("report differs"), &render_report(report), &want.0)?;
        same(&differs("metrics differ"), &stripped(obs), &want.1)?;
    }
    for (rt, resume) in &outcome.resumes {
        if let Resume::Skipped(why) = resume {
            return Err(format!(
                "{name}: the kill-and-resume fixture degenerated at {rt} ({why}), so the \
                 resume path went unexercised; grow the scenario"
            ));
        }
    }
    Ok(outcome)
}

/// Runs the check; `Ok(summary)` when every leg is byte-identical to its
/// reference.
pub fn run() -> Result<String, String> {
    let (sim1, sim2) = (fixture(SEED, FAKES, false), fixture(SEED, FAKES, false));
    let bytes1 = graph_bytes(&sim1)?;
    let bytes2 = graph_bytes(&sim2)?;
    if bytes1 != bytes2 {
        let at = bytes1.iter().zip(&bytes2).position(|(a, b)| a != b);
        let at = at.unwrap_or(bytes1.len().min(bytes2.len()));
        return Err(format!(
            "simulate is nondeterministic: serialized graphs differ \
             (lengths {} vs {}, first difference at byte {at})",
            bytes1.len(),
            bytes2.len()
        ));
    }

    // The reference, which a second run from the same seed must
    // reproduce, and whose textual metrics strip must agree with the
    // structured deterministic rendering it claims to recover.
    let clean = Case::clean(&sim1);
    let (r1, obs) = auto(&clean)?;
    let want = (render_report(&r1), stripped(&obs));
    let (r2, _) = auto(&Case::clean(&sim2))?;
    same("detect is nondeterministic: reports differ", &render_report(&r2), &want.0)?;
    if want.1 != obs.deterministic_json() {
        return Err(
            "strip_timings does not recover the deterministic metrics document".to_string()
        );
    }

    // Neither the k-sweep worker pool, nor the cluster, nor a fault plan
    // whose deaths and hang a survivor absorbs may show in the report or
    // in the metrics outside `timings`; a kill-and-resume must not either.
    pinned("failure-free", &clean, &want)?;
    let faulted = Case { plan: parse(DISTRIBUTED_FAULTS)?, ..Case::clean(&sim1) };
    for Leg { rt, obs, .. } in pinned(DISTRIBUTED_FAULTS, &faulted, &want)?.legs {
        let restarts = obs.volatile("io/worker_restarts");
        if !rt.is_local() && restarts < 3 {
            return Err(format!(
                "an injected death never fired at {rt}: {restarts} restart(s), want at least 3"
            ));
        }
    }

    // The durable store (DESIGN.md §14): with the newest checkpoint
    // generation mangled on disk, every resume must fall back to the one
    // before, record the skip, and reproduce the uninterrupted run. The
    // self-rejection scenario needs several productive rounds, which
    // gives the store a generation chain to fall back through.
    let sr = fixture(SEED, FAKES, true);
    let (full, obs) = auto(&Case::clean(&sr))?;
    // With fewer than 2 generations the mangled one leaves none to fall
    // back to, and `pinned` turns the skipped resume away.
    let newest = full.groups.last().map_or(0, |g| g.round);
    let want = (render_report(&full), stripped(&obs));
    let mut fallback_metrics: Option<String> = None;
    for form in ["torn_write", "bit_flip"] {
        let spec = format!("{form}@round={newest}");
        let case = Case { plan: parse(&spec)?, ..Case::clean(&sr) };
        for (rt, resume) in pinned(&spec, &case, &want)?.resumes {
            // `pinned` has turned away every skipped resume.
            let Resume::Identical { from, skipped, metrics } = resume else { continue };
            if (from, skipped) != (newest - 1, 1) {
                return Err(format!(
                    "{spec} {rt}: want one recorded skip and a resume from generation {}, \
                     got {skipped} skip(s) and generation {from}",
                    newest - 1
                ));
            }
            if metrics.contains("ckpt/") {
                return Err(format!(
                    "{spec} {rt}: fallback counters leaked into the deterministic metrics \
                     section (they must be volatile):\n{metrics}"
                ));
            }
            let want = fallback_metrics.get_or_insert_with(|| metrics.clone());
            same(&format!("{spec} {rt}: fallback metrics differ across legs"), &metrics, want)?;
        }
    }

    Ok(format!(
        "determinism: OK — {} nodes, {} graph bytes, {} detection rounds, \
         both runs byte-identical (seed {SEED}); failure-free and under \
         `{DISTRIBUTED_FAULTS}`, every leg at threads=1/4 and workers=1/4 \
         matches threads=auto in its report and its metrics ({}) minus \
         `timings`, and a kill-and-resume through the checkpoint store \
         reproduces the report; with the self-rejection scenario's newest generation \
         ({newest}) torn or bit-flipped, every resume falls back past it, \
         with fallback metrics agreeing across all eight legs",
        sim1.graph.num_nodes(),
        bytes1.len(),
        r1.rounds,
        rejecto_obs::SCHEMA
    ))
}
