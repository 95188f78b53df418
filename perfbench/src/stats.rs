//! Order statistics of a run's samples.

/// Quartiles and median of one metric over a run's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Cut points by the "exclusive" method of Python's
    /// `statistics.quantiles(values, n=4)`, so numbers printed
    /// here and numbers recomputed from the raw samples agree. One sample,
    /// which Python refuses, is its own median and quantiles; no samples
    /// gives `None`.
    pub fn of(samples: &[f64]) -> Option<Quartiles> {
        let mut data = samples.to_vec();
        data.sort_by(f64::total_cmp);
        let n = data.len();
        match n {
            0 => None,
            1 => Some(Quartiles {
                q1: data[0],
                p50: data[0],
                q3: data[0],
                n,
            }),
            _ => {
                // The `i`-th of the three cut points.
                let cut = |i: usize| {
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
                };
                Some(Quartiles {
                    q1: cut(1),
                    p50: cut(2),
                    q3: cut(3),
                    n,
                })
            }
        }
    }

    /// Interquartile distance as a share of the median: the run-to-run
    /// spread that a difference must exceed to mean anything.
    pub fn rel_spread(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.p50.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values are `statistics.quantiles(data, n=4)` and
    // `statistics.median(data)` from CPython.
    #[test]
    fn one_sample_is_its_own_quartiles() {
        let q = Quartiles::of(&[2.5]).expect("one sample");
        assert_eq!((q.q1, q.p50, q.q3, q.n), (2.5, 2.5, 2.5, 1));
    }

    #[test]
    fn odd_count_matches_python() {
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("samples");
        assert_eq!((q.q1, q.p50, q.q3, q.n), (1.5, 3.0, 4.5, 5));
        let q = Quartiles::of(&[1.0, 2.0, 10.0]).expect("samples");
        assert_eq!((q.q1, q.p50, q.q3), (1.0, 2.0, 10.0));
    }

    #[test]
    fn even_count_matches_python() {
        let q = Quartiles::of(&[4.0, 3.0, 2.0, 1.0]).expect("samples");
        assert_eq!((q.q1, q.p50, q.q3, q.n), (1.25, 2.5, 3.75, 4));
        // Python extrapolates past the extremes at n = 2.
        let q = Quartiles::of(&[1.0, 2.0]).expect("samples");
        assert_eq!((q.q1, q.p50, q.q3), (0.75, 1.5, 2.25));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten).expect("samples");
        assert_eq!((q.q1, q.p50, q.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn no_samples_have_no_quartiles() {
        assert_eq!(Quartiles::of(&[]), None);
    }
}
