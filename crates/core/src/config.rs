use crate::faults::FaultPlan;
use kl::KParam;
use std::time::Duration;

/// Runtime budgets for one detection run. All limits are optional;
/// [`RunBudget::unlimited`] (the default) reproduces the legacy behavior
/// exactly. A run that exhausts any budget stops at the next safe boundary
/// and returns a well-formed report marked
/// [`crate::Completion::Partial`] — it never aborts. Ingest ceilings are
/// not run limits: they bound the loader before a graph exists
/// (`rejection::io::IngestGuards`), and the checkpoint ceiling bounds the
/// store ([`crate::CheckpointStore::with_limit`]).
///
/// These budgets are deliberately distinct from the *convergence caps*
/// ([`RejectoConfig::max_kl_passes`], [`RejectoConfig::max_rounds`]): a
/// run that hits a cap has still converged per configuration and reports
/// [`crate::Completion::Complete`]; a run that hits a budget was cut short.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunBudget {
    /// Wall-clock deadline for the whole run, polled at KL pass and sweep
    /// boundaries. Interruption points depend on elapsed time, so the
    /// *content* of a deadline-tripped partial report is machine-dependent
    /// — only its well-formedness is guaranteed.
    pub deadline: Option<Duration>,
    /// Global budget of KL passes across every `k` and every round.
    /// Allocation of passes to concurrent workers is scheduling-dependent,
    /// so like `deadline` this trades determinism for boundedness.
    pub max_kl_passes: Option<u64>,
    /// Total pruning rounds to execute before stopping with a partial
    /// report. Unlike the other two limits this one is *deterministic*
    /// (the round boundary is a pure function of the input), which makes
    /// it the interruption mode of choice for kill-and-resume tests.
    pub max_rounds: Option<usize>,
    /// Hard ceiling on the cumulative suspect fraction across pruning
    /// rounds: if accepting a round's cut would push
    /// `total suspects / initial nodes` past this, the round is rolled
    /// back and the run reports `Partial` with
    /// [`crate::InterruptReason::ResourceBudget`]. Deterministic, like
    /// `max_rounds`. Distinct from
    /// [`RejectoConfig::max_suspect_fraction`], which discards individual
    /// over-wide *candidate cuts* inside a sweep; this budget bounds what
    /// the whole run may condemn.
    pub max_suspect_frac: Option<f64>,
}

impl RunBudget {
    /// No limits — the legacy run-to-completion behavior.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }
}

/// How the KL search is initialized for each `k` in the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum InitialPlacement {
    /// Every node starts in the legitimate region; the first KL pass must
    /// discover the suspect region through its best-prefix mechanism.
    AllLegit,
    /// Nodes whose individual rejection ratio
    /// (`rejections_received / (friends + rejections_received)`) is at
    /// least the threshold start in the suspect region. A cheap warm start
    /// that shortens convergence without affecting what the cut converges
    /// to (the ablation bench quantifies this).
    RejectionRatio(f64),
}

/// Configuration of the Rejecto detection pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectoConfig {
    /// Lower end of the geometric `k` sweep (friends-to-rejections ratio).
    pub k_min: f64,
    /// Upper end of the geometric `k` sweep.
    pub k_max: f64,
    /// Geometric factor between consecutive `k` values (> 1).
    pub k_factor: f64,
    /// Denominator resolution for rationalizing `k` (exact integer gains).
    pub k_denominator: u64,
    /// Cap on KL passes per `k`.
    pub max_kl_passes: usize,
    /// Cap on iterative pruning rounds.
    pub max_rounds: usize,
    /// KL warm start.
    pub initial_placement: InitialPlacement,
    /// Largest admissible suspect region, as a fraction of the (residual)
    /// graph. Candidate cuts whose suspect side exceeds it are discarded
    /// as the "problematic legitimate-user cuts" of §IV-F: in a large OSN
    /// there always exist near-complement cuts whose tiny `Ū` side is the
    /// unlucky legitimate users that rejected the most spam, and those
    /// cuts can undercut the true spammer cut's acceptance rate. Rejecting
    /// majority-sized suspect regions encodes the standard Sybil-defense
    /// assumption (shared by SybilRank/SybilLimit and this paper's threat
    /// model) that fakes are a minority of the user base. The default 0.6
    /// leaves slack above one-half so a spam region of exactly half the
    /// graph (the paper's stress setup) plus a few absorbed careless users
    /// stays admissible, while the near-complement cuts (≈0.98) are
    /// rejected.
    pub max_suspect_fraction: f64,
    /// Worker threads for the `k` sweep. `0` (the default) resolves to the
    /// machine's available parallelism at solve time; `1` runs the exact
    /// serial code path (no pool machinery). Results are byte-identical
    /// for every value — the sweep's reduction is ordered by sweep index,
    /// not completion order — so this is purely a wall-clock knob.
    pub threads: usize,
    /// Runtime budgets (deadline / global KL passes / total rounds /
    /// cumulative suspect fraction). The default is unlimited, which
    /// reproduces the legacy behavior exactly.
    pub budget: RunBudget,
    /// Synthetic faults to arm for this run ([`crate::faults`]); empty by
    /// default. Used by the fault-injection tests and the CI fault matrix.
    pub faults: FaultPlan,
}

impl Default for RejectoConfig {
    /// Defaults matched to the paper's operating regime: legitimate
    /// acceptance is high (rejection rate ≈ 0.2 ⇒ ratio `k ≈ 4`) while
    /// spam acceptance is low (rejection ≈ 0.7 ⇒ `k ≈ 0.43`), so the sweep
    /// `[0.05, 20]` brackets every cut of interest with margin.
    fn default() -> Self {
        RejectoConfig {
            k_min: 0.05,
            k_max: 20.0,
            k_factor: 1.5,
            k_denominator: 64,
            max_kl_passes: 16,
            max_rounds: 64,
            initial_placement: InitialPlacement::RejectionRatio(0.5),
            max_suspect_fraction: 0.6,
            threads: 0,
            budget: RunBudget::unlimited(),
            faults: FaultPlan::none(),
        }
    }
}

impl RejectoConfig {
    /// The rationalized geometric `k` sweep this config describes.
    ///
    /// # Panics
    ///
    /// Panics if the bounds or factor are invalid (see
    /// [`KParam::geometric_sequence`]).
    pub fn k_sweep(&self) -> Vec<KParam> {
        KParam::geometric_sequence(self.k_min, self.k_max, self.k_factor, self.k_denominator)
    }

    /// The sweep worker count this config resolves to: `threads`, or the
    /// machine's available parallelism when `threads == 0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            crate::pool::available_threads()
        } else {
            self.threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_brackets_both_regimes() {
        let sweep = RejectoConfig::default().k_sweep();
        let values: Vec<f64> = sweep.iter().map(|k| k.value()).collect();
        // Spam regime ratio ≈ 0.43 and legit regime ratio ≈ 4 both inside.
        assert!(values.first().expect("sweep is non-empty") < &0.43);
        assert!(values.last().expect("sweep is non-empty") > &4.0);
        assert!(values.len() >= 10, "sweep too coarse: {values:?}");
    }

    #[test]
    fn effective_threads_resolves_auto() {
        let auto = RejectoConfig::default();
        assert_eq!(auto.threads, 0);
        assert!(auto.effective_threads() >= 1);
        let pinned = RejectoConfig { threads: 3, ..RejectoConfig::default() };
        assert_eq!(pinned.effective_threads(), 3);
    }

    #[test]
    fn sweep_is_strictly_increasing() {
        let sweep = RejectoConfig::default().k_sweep();
        for w in sweep.windows(2) {
            assert!(w[0].value() < w[1].value());
        }
    }
}
