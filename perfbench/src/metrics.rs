//! The metric vocabulary: every name the benchmark emits, with its unit,
//! direction and (for end-to-end metrics) regression bound. The tests
//! hold `BENCHMARK.json` to exactly these tables.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Largest worsening, as a share of the parent's value, that is not
    /// yet a regression. Per-layer metrics carry none.
    pub bound: Option<f64>,
    /// One input gives one value on every rep. `--compare` judges such a
    /// metric with a bound of 0, since both sides measure the same seed;
    /// `bound` covers how much it varies between seeds.
    pub deterministic: bool,
}

impl Metric {
    /// A value measured while the host ran `slowdown` times slower than
    /// its reference, read at the reference speed: a time is divided by
    /// the slowdown, a rate multiplied, a count or share left alone.
    pub fn at_reference_speed(&self, value: f64, slowdown: f64) -> f64 {
        match self.unit {
            "s" | "ms" | "ns" => value / slowdown,
            unit if unit.ends_with("/s") => value * slowdown,
            _ => value,
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        deterministic: false,
    }
}

const fn quality(name: &'static str, bound: f64) -> Metric {
    Metric {
        deterministic: true,
        ..e2e(name, "fraction", Better::Higher, bound)
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        deterministic: false,
    }
}

use Better::{Higher, Lower};

/// What a user of one detection sees, measured with tracing off, each the
/// median of a run's samples. The bounds cover how far a metric moves
/// between runs on different seeds (see the crate docs).
pub const END_TO_END: [Metric; 6] = [
    e2e("total_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("edges_per_s", "edges/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.07),
    quality("precision", 0.02),
    quality("recall", 0.02),
];

/// Layer by layer, from the traced reps.
pub const PER_LAYER: [Metric; 27] = [
    layer("ingest.s", "s", Lower),
    layer("ingest.mb_per_s", "MB/s", Higher),
    layer("build.s", "s", Lower),
    layer("graph.adj_mb", "MiB", Lower),
    layer("kl.s", "s", Lower),
    layer("kl.passes", "count", Lower),
    layer("kl.moves", "count", Lower),
    layer("kl.adjusts", "count", Lower),
    layer("kl.ms_per_pass", "ms", Lower),
    layer("kl.ns_per_adjust", "ns", Lower),
    layer("kl.passes_per_k", "count", Lower),
    layer("k.setup_s", "s", Lower),
    layer("sweep.k_runs", "count", Lower),
    layer("sweep.s", "s", Lower),
    layer("detect.s", "s", Lower),
    layer("detect.rounds", "count", Lower),
    layer("round.self_s", "s", Lower),
    layer("prune.s", "s", Lower),
    layer("prune.calls", "count", Lower),
    layer("ckpt.frac", "fraction", Lower),
    layer("ckpt.writes", "count", Lower),
    layer("ckpt.kb", "KiB", Lower),
    layer("cluster.fetch_batches", "count", Lower),
    layer("cluster.nodes_fetched", "count", Lower),
    layer("cluster.hit_ratio", "fraction", Higher),
    layer("trace.overhead_frac", "fraction", Lower),
    layer("unattributed.s", "s", Lower),
];

/// Looks a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Whether `name` fits the benchmark's metric-name grammar: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for good in ["total_s", "kl.ns_per_adjust", "fb-20k", "9a"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "-x", "kl/passes", "a b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn only_times_and_rates_are_read_at_reference_speed() {
        let at_half_speed = |name| find(name).expect("declared").at_reference_speed(8.0, 2.0);
        assert_eq!(at_half_speed("total_s"), 4.0);
        assert_eq!(at_half_speed("kl.ns_per_adjust"), 4.0);
        assert_eq!(at_half_speed("edges_per_s"), 16.0);
        assert_eq!(at_half_speed("ingest.mb_per_s"), 16.0);
        for unchanged in ["peak_rss_mb", "precision", "kl.passes", "ckpt.frac"] {
            assert_eq!(at_half_speed(unchanged), 8.0, "{unchanged}");
        }
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }
}
