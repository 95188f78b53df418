//! `perf --compare <parent.json> <change.json>`: per workload and metric,
//! both sides' medians and quartiles, and a verdict against the metric's
//! bound.

use crate::metrics::{self, Better, Metric};
use crate::stats::Quartiles;
use serde_json::Value;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than either side's spread.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound, and no improvement beyond the spread.
    Same,
    /// A side's spread is wider than the bound, so the runs cannot tell.
    Unresolved,
}

/// Judges one end-to-end metric by the two medians; per-layer metrics
/// have no bound and get no verdict. A deterministic metric is judged with
/// a bound of 0, since both sides measured the same seed. The verdict is
/// unresolved when either side's quartiles spread wider than the bound.
pub fn verdict(m: &Metric, parent: &Quartiles, change: &Quartiles) -> Option<Verdict> {
    let bound = if m.deterministic { 0.0 } else { m.bound? };
    let spread = parent.rel_spread().max(change.rel_spread());
    let (p, c) = (parent.p50, change.p50);
    if spread > bound || p == 0.0 {
        return Some(Verdict::Unresolved);
    }
    let delta = (c - p) / p;
    let worsening = match m.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    Some(if worsening > bound {
        Verdict::Worse
    } else if -worsening > spread {
        Verdict::Better
    } else {
        Verdict::Same
    })
}

fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn quartiles(v: &Value) -> Option<Quartiles> {
    Some(Quartiles {
        q1: v["q1"].as_f64()?,
        p50: v["p50"].as_f64()?,
        q3: v["q3"].as_f64()?,
        n: usize::try_from(v["n"].as_u64()?).ok()?,
    })
}

/// Renders the comparison of two run-set documents written by `--json`.
pub fn compare(parent: &Path, change: &Path) -> Result<(String, bool), String> {
    compare_runs(&read(parent)?, &read(change)?)
}

/// Compares every workload and metric of the parent run set with the
/// change's. The flag is set when the change is worse: a metric got worse
/// by more than its bound, more reps failed, the answer changed, or a
/// workload or metric of the parent is missing. Run sets of different
/// seeds or trace modes measured different things and are refused.
pub fn compare_runs(p: &Value, c: &Value) -> Result<(String, bool), String> {
    for key in ["seed", "trace"] {
        if p[key].is_null() || p[key] != c[key] {
            return Err(format!(
                "the run sets differ in {key} ({} vs {}), so they measured different things",
                p[key], c[key]
            ));
        }
    }
    let (Value::Object(parent), Value::Object(change)) = (&p["workloads"], &c["workloads"]) else {
        return Err("a run set has no workloads".to_string());
    };
    let in_parent = |name: &String| parent.iter().any(|(n, _)| n == name);
    let mut out = String::new();
    // Reasons, other than a metric's verdict, why the change is worse.
    let mut regressions = Vec::new();
    let mut worse = false;
    for (name, pw) in parent {
        let Some(cw) = c["workloads"].get(name) else {
            regressions.push(format!("{name}: missing from the change run set"));
            continue;
        };
        let count = |w: &Value, key: &str| {
            w[key]
                .as_u64()
                .ok_or(format!("{name}: a run set lacks {key}"))
        };
        let (parent_failed, change_failed) = (count(pw, "failed")?, count(cw, "failed")?);
        if change_failed > parent_failed {
            regressions.push(format!(
                "{name}: {change_failed} of {} reps failed, parent {parent_failed} of {}",
                count(cw, "attempted")?,
                count(pw, "attempted")?
            ));
        }
        if pw["digest"] != cw["digest"] {
            regressions.push(format!(
                "{name}: report digest changed ({} -> {}), the change alters the answer",
                pw["digest"], cw["digest"]
            ));
        }
        let Value::Object(entries) = &pw["metrics"] else {
            return Err(format!("{name}: the parent run set has no metrics"));
        };
        for (metric, pv) in entries {
            let m = metrics::find(metric).ok_or(format!("{name}: unknown metric {metric}"))?;
            let pq = quartiles(pv).ok_or(format!("{name} {metric}: malformed in the parent"))?;
            let Some(cq) = quartiles(&cw["metrics"][metric.as_str()]) else {
                regressions.push(format!("{name} {metric}: missing from the change run set"));
                continue;
            };
            let v = verdict(m, &pq, &cq);
            worse |= v == Some(Verdict::Worse);
            let (pv, cv) = (pq.p50, cq.p50);
            let change_pct = if pv == 0.0 {
                0.0
            } else {
                100.0 * (cv - pv) / pv
            };
            out.push_str(&format!(
                "{name} {metric} [{}]: parent {pv} (q1 {}, q3 {}, n {}) change {cv} (q1 {}, q3 {}, n {}) {change_pct:+.2}% {}\n",
                m.unit,
                pq.q1,
                pq.q3,
                pq.n,
                cq.q1,
                cq.q3,
                cq.n,
                v.map_or("-".to_string(), |v| format!("{v:?}").to_lowercase()),
            ));
        }
    }
    for (name, _) in change.iter().filter(|(n, _)| !in_parent(n)) {
        out.push_str(&format!("{name}: not in the parent run set\n"));
    }
    for r in &regressions {
        out.push_str(&format!("{r}: worse\n"));
    }
    Ok((out, worse || !regressions.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(q1: f64, p50: f64, q3: f64) -> Quartiles {
        Quartiles { q1, p50, q3, n: 10 }
    }

    fn around(p50: f64) -> Quartiles {
        q(p50 - 0.01, p50, p50 + 0.01)
    }

    #[test]
    fn medians_follow_the_bound_and_the_spread() {
        let rss = metrics::find("peak_rss_mb").expect("declared");
        let bound = rss.bound.expect("end-to-end metrics have a bound");
        let parent = around(1.0);
        let (far_below, far_above) = (around(1.0 - bound - 0.05), around(1.0 + bound + 0.05));
        assert_eq!(verdict(rss, &parent, &far_below), Some(Verdict::Better));
        assert_eq!(verdict(rss, &parent, &far_above), Some(Verdict::Worse));
        assert_eq!(
            verdict(rss, &parent, &around(1.0 + bound / 2.0)),
            Some(Verdict::Same)
        );
        assert_eq!(
            verdict(rss, &parent, &q(0.5, 0.8, 1.2)),
            Some(Verdict::Unresolved)
        );
        let kl = metrics::find("kl.s").expect("declared");
        assert_eq!(verdict(kl, &parent, &far_below), None);
    }

    #[test]
    fn deterministic_metrics_may_not_drop_at_all() {
        let precision = metrics::find("precision").expect("declared");
        let exact = |v: f64| q(v, v, v);
        assert_eq!(
            verdict(precision, &exact(0.97), &exact(0.969)),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(precision, &exact(0.97), &exact(0.97)),
            Some(Verdict::Same)
        );
        assert_eq!(
            verdict(precision, &exact(0.97), &exact(0.971)),
            Some(Verdict::Better)
        );
    }

    /// A run-set document with one workload and two metrics, as `--json`
    /// writes it.
    fn run_set(seed: u64, workload: &str, digest: &str, failed: u64, metrics: Value) -> Value {
        let entry = serde_json::json!({
            "digest": digest, "attempted": 9, "failed": failed, "metrics": metrics,
        });
        serde_json::json!({
            "seed": seed,
            "trace": false,
            "workloads": Value::Object(vec![(workload.to_string(), entry)]),
        })
    }

    fn metrics(total_s: f64, recall: f64) -> Value {
        let metric = |v: f64| serde_json::json!({"unit": "-", "q1": v, "p50": v, "q3": v, "n": 9});
        serde_json::json!({"total_s": metric(total_s), "recall": metric(recall)})
    }

    #[test]
    fn compare_reads_two_run_sets() {
        let dir = std::env::temp_dir().join(format!("perf-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        let doc = |total_s| run_set(42, "fb-20k", "ab", 0, metrics(total_s, 0.99)).to_string();
        std::fs::write(&a, doc(1.0)).expect("write");
        std::fs::write(&b, doc(1.5)).expect("write");
        let (text, worse) = compare(&a, &b).expect("compare");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert!(worse, "{text}");
        assert!(text.contains("fb-20k total_s [s]: parent 1 "), "{text}");
        assert!(text.contains("+50.00% worse"), "{text}");
    }

    #[test]
    fn compare_flags_failures_missing_entries_and_changed_answers() {
        let parent = run_set(42, "fb-20k", "ab", 0, metrics(1.0, 0.99));
        let (text, worse) = compare_runs(&parent, &parent).expect("compare");
        assert!(!worse, "{text}");

        let failing = run_set(42, "fb-20k", "ab", 1, metrics(1.0, 0.99));
        assert!(compare_runs(&parent, &failing).expect("compare").1);
        // Every rep failed, so no metric came out.
        let failing = run_set(42, "fb-20k", "ab", 9, serde_json::json!({}));
        let (text, worse) = compare_runs(&parent, &failing).expect("compare");
        assert!(worse, "{text}");
        assert!(text.contains("9 of 9 reps failed"), "{text}");
        assert!(
            text.contains("fb-20k total_s: missing from the change run set: worse"),
            "{text}"
        );

        let changed = run_set(42, "fb-20k", "cd", 0, metrics(1.0, 0.99));
        let (text, worse) = compare_runs(&parent, &changed).expect("compare");
        assert!(worse && text.contains("report digest changed"), "{text}");

        let lower_recall = run_set(42, "fb-20k", "ab", 0, metrics(1.0, 0.989));
        let (text, worse) = compare_runs(&parent, &lower_recall).expect("compare");
        assert!(worse && text.contains("-0.10% worse"), "{text}");

        let other_workload = run_set(42, "whitewash-20k", "ab", 0, metrics(1.0, 0.99));
        let (text, worse) = compare_runs(&parent, &other_workload).expect("compare");
        assert!(worse, "{text}");
        assert!(
            text.contains("fb-20k: missing from the change run set: worse"),
            "{text}"
        );
        assert!(
            text.contains("whitewash-20k: not in the parent run set"),
            "{text}"
        );

        let other_seed = run_set(43, "fb-20k", "ab", 0, metrics(1.0, 0.99));
        assert!(compare_runs(&parent, &other_seed).is_err());
    }
}
