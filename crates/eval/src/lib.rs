//! Evaluation utilities for the Rejecto experiments.
//!
//! * [`precision_recall`] — the paper's headline metric (§VI-A): both
//!   schemes declare exactly as many suspects as there are injected fakes,
//!   so precision and recall coincide;
//! * [`ascending_by_score`] — the one score order (bottom first) that the
//!   ranking commands, the harnesses and [`auc`] share;
//! * [`auc`] — area under the ROC curve of a ranking, used to score
//!   SybilRank in the defense-in-depth experiment (Fig 16);
//! * [`Cdf`] — empirical CDFs for the measurement-study figures (Figs 3–5);
//! * [`Summary`] — mean/std/CI summaries for replicated experiment runs;
//! * [`table`] — a fixed-width text-table renderer for harness output.

mod cdf;
mod ranking;
mod stats;
pub mod table;

pub use cdf::Cdf;
pub use ranking::{ascending_by_score, auc, roc_curve};
pub use stats::Summary;

/// Precision of a declared suspect set against ground truth, with the
/// number of true positives exposed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// Correctly declared fakes.
    pub true_positives: usize,
    /// Total declared suspects.
    pub declared: usize,
    /// Total actual fakes.
    pub actual: usize,
}

impl PrecisionRecall {
    /// `true_positives / declared`; 1.0 when nothing was declared.
    pub fn precision(&self) -> f64 {
        if self.declared == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.declared as f64
        }
    }

    /// `true_positives / actual`; 1.0 when there are no actual fakes.
    pub fn recall(&self) -> f64 {
        if self.actual == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.actual as f64
        }
    }
}

/// Scores a declared suspect set against a ground-truth fake mask
/// (`is_fake[i]` is true for fake node `i`; suspects are node indices).
///
/// # Panics
///
/// Panics if a suspect index is out of range of the mask.
pub fn precision_recall(suspects: &[usize], is_fake: &[bool]) -> PrecisionRecall {
    let tp = suspects.iter().filter(|&&s| is_fake[s]).count();
    PrecisionRecall {
        true_positives: tp,
        declared: suspects.len(),
        actual: is_fake.iter().filter(|&&f| f).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_detection() {
        let is_fake = vec![false, true, true, false];
        let pr = precision_recall(&[1, 2], &is_fake);
        assert_eq!(pr.precision(), 1.0);
        assert_eq!(pr.recall(), 1.0);
    }

    #[test]
    fn half_right() {
        let is_fake = vec![false, true, true, false];
        let pr = precision_recall(&[1, 3], &is_fake);
        assert_eq!(pr.precision(), 0.5);
        assert_eq!(pr.recall(), 0.5);
    }

    #[test]
    fn equal_declared_and_actual_makes_precision_equal_recall() {
        // The paper's protocol: declare exactly as many as injected.
        let is_fake = vec![true, true, false, false, true];
        let pr = precision_recall(&[0, 2, 4], &is_fake);
        assert_eq!(pr.precision(), pr.recall());
    }

    #[test]
    fn empty_declarations_are_vacuously_precise() {
        let pr = precision_recall(&[], &[true, false]);
        assert_eq!(pr.precision(), 1.0);
        assert_eq!(pr.recall(), 0.0);
    }

    #[test]
    fn no_actual_fakes_gives_full_recall() {
        let pr = precision_recall(&[0], &[false, false]);
        assert_eq!(pr.recall(), 1.0);
        assert_eq!(pr.precision(), 0.0);
    }
}
