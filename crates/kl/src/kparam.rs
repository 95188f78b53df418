use std::fmt;

/// The rejection weight `k` of the linear objective
/// `|F(Ū,U)| − k·|R⟨Ū,U⟩|`, held as an exact rational `num/den`.
///
/// Theorem 1 reduces the MAAR (ratio) objective to this family of linear
/// objectives; Rejecto sweeps `k` through a geometric sequence
/// ([`KParam::geometric_sequence`]) and keeps the cut with the lowest
/// friends-to-rejections ratio. A rational `k` makes every KL gain an exact
/// integer `num·ΔR − den·ΔF`.
///
/// ```
/// use kl::KParam;
/// let k = KParam::approximate(0.7, 64);
/// assert!((k.value() - 0.7).abs() < 1.0 / 64.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KParam {
    num: u64,
    den: u64,
}

impl KParam {
    /// An exact rational `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `num == 0` or `den == 0` (the objective requires `k > 0`).
    pub fn new(num: u64, den: u64) -> Self {
        assert!(num > 0, "k must be positive (zero numerator)"); // xtask-allow: no-panic: cold constructor validation, documented panic contract
        assert!(den > 0, "k denominator must be positive"); // xtask-allow: no-panic: cold constructor validation, documented panic contract
        let g = gcd(num, den);
        KParam { num: num / g, den: den / g }
    }

    /// The closest rational with the given denominator resolution
    /// (numerator at least 1, so the result is always positive).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not finite and positive, or `den == 0`.
    pub fn approximate(k: f64, den: u64) -> Self {
        assert!(k.is_finite() && k > 0.0, "k must be finite and positive, got {k}"); // xtask-allow: no-panic: cold constructor validation, documented panic contract
        assert!(den > 0, "denominator resolution must be positive"); // xtask-allow: no-panic: cold constructor validation, documented panic contract
        let num = ((k * den as f64).round() as u64).max(1); // xtask-allow: lossy-cast: the f64→u64 rounding IS the approximation; k is finite-positive and den ≤ 2^53 converts exactly
        KParam::new(num, den)
    }

    /// Numerator (reduced).
    pub fn num(&self) -> u64 {
        self.num
    }

    /// Denominator (reduced).
    pub fn den(&self) -> u64 {
        self.den
    }

    /// The switching gain `num·ΔR − den·ΔF` of a move with cut delta
    /// `(ΔF, ΔR)`: how much the objective `den·|F| − num·|R|` drops.
    pub fn gain(&self, (df, dr): (i64, i64)) -> i64 {
        crate::extended::obj_i64(self.num) * dr - crate::extended::obj_i64(self.den) * df
    }

    /// The value `num/den` as a float.
    pub fn value(&self) -> f64 {
        self.num as f64 / self.den as f64 // xtask-allow: lossy-cast: display-precision conversion only; exact comparisons go through Ord
    }

    /// The geometric sweep `k_min, k_min·factor, …` capped at `k_max`,
    /// rationalized at resolution `den`. This is the paper's "iterate k
    /// through a geometric sequence" (§IV-D).
    ///
    /// The returned sequence is **strictly increasing** under the exact
    /// rational order ([`Ord`]): a candidate whose rationalization does
    /// not exceed the previous member is dropped. With coarse denominators
    /// rounding collapses nearby sweep points onto the same (or, through
    /// fraction reduction, a not-greater) rational, and a sweep that
    /// revisits a `k` would both waste a full KL run and break the
    /// "earliest sweep index wins" tie-break contract of the reduction.
    ///
    /// # Panics
    ///
    /// Panics if `k_min`, `k_max`, or `factor` are non-positive,
    /// `k_min > k_max`, or `factor <= 1`.
    pub fn geometric_sequence(k_min: f64, k_max: f64, factor: f64, den: u64) -> Vec<KParam> {
        assert!(k_min > 0.0 && k_max > 0.0, "k bounds must be positive"); // xtask-allow: no-panic: cold sweep-configuration validation, documented panic contract
        assert!(k_min <= k_max, "k_min {k_min} exceeds k_max {k_max}"); // xtask-allow: no-panic: cold sweep-configuration validation, documented panic contract
        assert!(factor > 1.0, "geometric factor must exceed 1"); // xtask-allow: no-panic: cold sweep-configuration validation, documented panic contract
        let mut out: Vec<KParam> = Vec::new();
        let mut k = k_min;
        loop {
            let p = KParam::approximate(k, den);
            if out.last().is_none_or(|last| p > *last) {
                out.push(p);
            }
            if k >= k_max {
                break;
            }
            k = (k * factor).min(k_max);
        }
        debug_assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "geometric sweep must be strictly increasing"
        );
        out
    }
}

impl PartialOrd for KParam {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KParam {
    /// Exact rational order by cross-multiplication in `u128` (no float
    /// rounding, no overflow for any pair of reduced `u64` fractions).
    /// Consistent with `Eq`: reduced fractions are unique, so
    /// `a.cmp(&b) == Equal` iff `a == b`.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let lhs = u128::from(self.num) * u128::from(other.den);
        let rhs = u128::from(other.num) * u128::from(self.den);
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for KParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_fractions() {
        let k = KParam::new(6, 4);
        assert_eq!((k.num(), k.den()), (3, 2));
        assert_eq!(k.value(), 1.5);
    }

    #[test]
    fn approximation_is_within_resolution() {
        let k = KParam::approximate(0.333, 100);
        assert!((k.value() - 0.333).abs() <= 0.005);
    }

    #[test]
    fn approximation_never_yields_zero() {
        let k = KParam::approximate(1e-9, 16);
        assert!(k.value() > 0.0);
    }

    #[test]
    fn geometric_sequence_covers_range() {
        let seq = KParam::geometric_sequence(0.1, 10.0, 2.0, 64);
        assert!(seq.first().expect("sweep is non-empty").value() <= 0.11);
        assert!((seq.last().expect("sweep is non-empty").value() - 10.0).abs() < 0.02);
        for w in seq.windows(2) {
            assert!(w[0].value() < w[1].value(), "sequence must increase");
        }
    }

    #[test]
    fn geometric_sequence_single_point() {
        let seq = KParam::geometric_sequence(1.0, 1.0, 2.0, 4);
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].value(), 1.0);
    }

    #[test]
    fn exact_order_agrees_with_values_and_eq() {
        let a = KParam::new(1, 3);
        let b = KParam::new(1, 2);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(KParam::new(6, 4).cmp(&KParam::new(3, 2)), std::cmp::Ordering::Equal);
        // Cross-multiplication must not overflow on extreme fractions.
        assert!(KParam::new(1, u64::MAX) < KParam::new(u64::MAX, 1));
    }

    #[test]
    fn coarse_denominator_sequence_stays_strictly_increasing() {
        // At den = 1 every value below 1.5 rounds to 1/1; a merely
        // adjacent-dedup sequence would be fine here, but the constructor
        // must guarantee strictness for any shape.
        let seq = KParam::geometric_sequence(0.05, 20.0, 1.1, 1);
        for w in seq.windows(2) {
            assert!(w[0] < w[1], "non-increasing: {} then {}", w[0], w[1]);
        }
    }

    #[test]
    fn display_shows_fraction() {
        assert_eq!(KParam::new(7, 2).to_string(), "7/2");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_numerator() {
        let _ = KParam::new(0, 3);
    }
}
