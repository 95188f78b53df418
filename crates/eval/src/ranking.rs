//! Score rankings and their quality metrics: ROC curves and AUC.

/// Indices of `score` in ascending score order, ties kept in index order:
/// the bottom of a trust ranking (the likeliest Sybils) comes first.
/// `total_cmp` keeps the order total even when a score is NaN (a
/// positive NaN sorts after every finite value), so no score can abort
/// the sort.
///
/// ```
/// assert_eq!(eval::ascending_by_score(&[0.5, f64::NAN, 0.25, 0.5]), [2, 0, 3, 1]);
/// ```
pub fn ascending_by_score(score: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..score.len()).collect();
    // A stable sort: equal scores keep their index order.
    idx.sort_by(|&a, &b| score[a].total_cmp(&score[b]));
    idx
}

/// Area under the ROC curve for a scored ranking.
///
/// `score[i]` is a *trust-like* score (higher = more legitimate) and
/// `is_positive[i]` marks the positive class (Sybils). The returned AUC is
/// the probability that a uniformly random Sybil scores **lower** than a
/// uniformly random non-Sybil — exactly the statistic SybilRank's evaluation
/// uses ("area under the ROC curve" with Sybils ranked to the bottom).
/// Ties count half.
///
/// Returns 0.5 when either class is empty (no ranking information).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// // Sybils (true) all score below non-Sybils: perfect ranking.
/// let auc = eval::auc(&[0.1, 0.2, 0.8, 0.9], &[true, true, false, false]);
/// assert_eq!(auc, 1.0);
/// ```
pub fn auc(score: &[f64], is_positive: &[bool]) -> f64 {
    assert_eq!(score.len(), is_positive.len(), "score and label lengths differ");
    let n_pos = is_positive.iter().filter(|&&p| p).count();
    let n_neg = is_positive.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Mann–Whitney U via rank sums (average ranks for ties).
    let idx = ascending_by_score(score);
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0usize;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && score[idx[j + 1]] == score[idx[i]] {
            j += 1;
        }
        // Average 1-based rank of the tie group [i, j].
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &x in &idx[i..=j] {
            if is_positive[x] {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    let u_pos = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    // u_pos counts (sybil, legit) pairs where the sybil ranks higher;
    // we want the complement: sybils ranked lower than legits.
    1.0 - u_pos / (n_pos as f64 * n_neg as f64)
}

/// ROC curve points `(false_positive_rate, true_positive_rate)` obtained by
/// sweeping a threshold from the lowest score upward and flagging everything
/// at or below it as positive. Includes the `(0,0)` and `(1,1)` endpoints.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn roc_curve(score: &[f64], is_positive: &[bool]) -> Vec<(f64, f64)> {
    assert_eq!(score.len(), is_positive.len(), "score and label lengths differ");
    let n_pos = is_positive.iter().filter(|&&p| p).count().max(1) as f64;
    let n_neg = (is_positive.len() - is_positive.iter().filter(|&&p| p).count()).max(1) as f64;
    let idx = ascending_by_score(score);
    let mut pts = vec![(0.0, 0.0)];
    let (mut tp, mut fp) = (0usize, 0usize);
    let mut i = 0usize;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && score[idx[j + 1]] == score[idx[i]] {
            j += 1;
        }
        for &x in &idx[i..=j] {
            if is_positive[x] {
                tp += 1;
            } else {
                fp += 1;
            }
        }
        pts.push((fp as f64 / n_neg, tp as f64 / n_pos));
        i = j + 1;
    }
    if *pts.last().expect("curve is non-empty") != (1.0, 1.0) {
        pts.push((1.0, 1.0));
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking_has_auc_one() {
        assert_eq!(auc(&[0.0, 0.1, 0.9, 1.0], &[true, true, false, false]), 1.0);
    }

    #[test]
    fn inverted_ranking_has_auc_zero() {
        assert_eq!(auc(&[0.9, 1.0, 0.0, 0.1], &[true, true, false, false]), 0.0);
    }

    #[test]
    fn all_tied_is_half() {
        assert_eq!(auc(&[0.5, 0.5, 0.5, 0.5], &[true, false, true, false]), 0.5);
    }

    #[test]
    fn single_class_is_half() {
        assert_eq!(auc(&[0.1, 0.2], &[true, true]), 0.5);
    }

    #[test]
    fn partial_overlap_matches_by_hand() {
        // Sybil scores: 0.1, 0.6; legit: 0.4, 0.8.
        // Pairs with sybil < legit: (0.1,0.4), (0.1,0.8), (0.6,0.8) = 3 of 4.
        let a = auc(&[0.1, 0.6, 0.4, 0.8], &[true, true, false, false]);
        assert!((a - 0.75).abs() < 1e-12);
    }

    #[test]
    fn roc_curve_hits_endpoints() {
        let pts = roc_curve(&[0.1, 0.2, 0.3, 0.4], &[true, false, true, false]);
        assert_eq!(*pts.first().expect("curve has endpoints"), (0.0, 0.0));
        assert_eq!(*pts.last().expect("curve has endpoints"), (1.0, 1.0));
    }

    #[test]
    fn roc_curve_of_perfect_ranking_is_step() {
        let pts = roc_curve(&[0.0, 0.1, 0.9, 1.0], &[true, true, false, false]);
        // After the two sybils: TPR 1, FPR 0.
        assert!(pts.contains(&(0.0, 1.0)));
    }
}
