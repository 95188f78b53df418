//! Determinism-preserving float helpers.
//!
//! Floating-point addition is not associative: `(a + b) + c` and
//! `a + (b + c)` can differ in the last ulp, so any reduction whose
//! accumulation order is unspecified (`Iterator::sum`, a parallel tree
//! reduce) is a silent determinism hazard. The `float-determinism` lint
//! (`cargo xtask check`) bans such reductions in the kernel crates;
//! this module is the sanctioned escape hatch. [`ordered_sum`] commits
//! to one explicit order — a single left-to-right fold over the
//! iterator as given — so the result is a pure function of the element
//! *sequence*, never of scheduling.
//! Callers remain responsible for feeding a deterministic sequence
//! (iterate a `Vec` or `BTreeMap`, not a hash map).

/// Left-to-right sequential sum. Same value as `iter.sum::<f64>()` on
/// every platform, but the ordering contract is explicit at the call
/// site, which is what the `float-determinism` lint asks for.
pub fn ordered_sum<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    // The one blessed order-silent reduction: this fold IS the ordering
    // contract the rest of the workspace points at.
    values.into_iter().fold(0.0, |acc, x| acc + x) // xtask-allow: float-determinism: left-to-right fold is the ordering contract itself
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_sum_is_left_to_right() {
        // Chosen so two orders of the same multiset disagree: the tiny
        // term survives only when the big terms cancel before it lands.
        assert_eq!(ordered_sum([1e16, 1.0, -1e16]), 0.0);
        assert_eq!(ordered_sum([1e16, -1e16, 1.0]), 1.0);
    }

    #[test]
    fn ordered_sum_of_empty_is_zero() {
        assert_eq!(ordered_sum(std::iter::empty()), 0.0);
    }
}
