//! Versioned round checkpoints for kill-and-resume detection.
//!
//! The iterative pruning loop is *rng-free*: its entire state after round
//! `r` is (a) the groups detected so far and (b) the set of surviving
//! node ids — the residual graph is a pure function of the original graph
//! and that id set, because [`rejection::AugmentedGraph::induced_subgraph`]
//! relabels survivors in ascending id order and composes (inducing round
//! by round equals inducing once on the final survivor set). A
//! [`Checkpoint`] therefore captures exactly those two pieces, and a run
//! resumed from one ([`crate::IterativeDetector::run`]) reproduces the
//! uninterrupted run *byte-identically* — the property `cargo xtask check
//! --determinism` kills and resumes a real run to verify.
//!
//! The on-disk form is a single line of JSON with an explicit
//! `format`/`version` envelope. Acceptance rates are stored as the hex of
//! their IEEE-754 bit pattern (`ac_bits`): JSON numbers are doubles, and a
//! double that took a decimal round trip may not be the same double — the
//! bit pattern is the only representation the determinism contract can
//! accept.

use crate::detect::{DetectedGroup, DetectionReport};
use crate::runtime::RuntimeError;
use kl::KParam;
use rejection::{AugmentedGraph, NodeId};
use serde_json::Value;

/// Magic string identifying a checkpoint document.
pub const CHECKPOINT_FORMAT: &str = "rejecto-checkpoint";

/// The checkpoint schema version this build writes and reads.
pub const CHECKPOINT_VERSION: u64 = 1;

/// One detected group, in checkpoint form (original-graph ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointGroup {
    /// 1-based round in which the group was found.
    pub round: usize,
    /// Numerator of the winning sweep `k`.
    pub k_num: u64,
    /// Denominator of the winning sweep `k`.
    pub k_den: u64,
    /// IEEE-754 bit pattern of the group's aggregate acceptance rate.
    pub acceptance_bits: u64,
    /// Members, ascending.
    pub nodes: Vec<u32>,
}

/// A snapshot of the pruning loop after a completed round (module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Schema version ([`CHECKPOINT_VERSION`] when written by this build).
    pub version: u64,
    /// Node count of the original graph, for resume validation.
    pub num_nodes: usize,
    /// Rounds completed so far.
    pub rounds: usize,
    /// Surviving (un-pruned) node ids, ascending.
    pub remaining: Vec<u32>,
    /// Groups detected so far, in detection order.
    pub groups: Vec<CheckpointGroup>,
}

impl Checkpoint {
    /// Captures the loop state after the last completed round of `report`
    /// on original graph `g`. The survivor set is derived from the report
    /// (every node not in a detected group), which is exactly the pruning
    /// loop's residual id set.
    pub fn capture(g: &AugmentedGraph, report: &DetectionReport) -> Checkpoint {
        let mut pruned = vec![false; g.num_nodes()];
        let mut groups = Vec::with_capacity(report.groups.len());
        for group in &report.groups {
            for &u in &group.nodes {
                pruned[u.index()] = true;
            }
            groups.push(CheckpointGroup {
                round: group.round,
                k_num: group.k.num(),
                k_den: group.k.den(),
                acceptance_bits: group.acceptance_rate.to_bits(),
                nodes: group.nodes.iter().map(|u| u.0).collect(),
            });
        }
        let remaining = (0..g.num_nodes())
            .filter(|&u| !pruned[u])
            .map(|u| u32::try_from(u).expect("node ids fit in u32"))
            .collect();
        Checkpoint {
            version: CHECKPOINT_VERSION,
            num_nodes: g.num_nodes(),
            rounds: report.rounds,
            remaining,
            groups,
        }
    }

    /// Renders the checkpoint as one line of versioned JSON.
    pub fn to_json(&self) -> String {
        let groups: Vec<Value> = self
            .groups
            .iter()
            .map(|g| {
                serde_json::json!({
                    "round": g.round,
                    "k_num": g.k_num,
                    "k_den": g.k_den,
                    "ac_bits": format!("{:016x}", g.acceptance_bits),
                    "nodes": g.nodes,
                })
            })
            .collect();
        serde_json::json!({
            "format": CHECKPOINT_FORMAT,
            "version": self.version,
            "num_nodes": self.num_nodes,
            "rounds": self.rounds,
            "remaining": self.remaining,
            "groups": Value::Array(groups),
        })
        .to_string()
    }

    /// Parses a checkpoint document.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::CheckpointFormat`] for anything unparsable or
    /// missing, [`RuntimeError::CheckpointVersion`] for a well-formed
    /// document of an unsupported version.
    pub fn from_json(text: &str) -> Result<Checkpoint, RuntimeError> {
        let doc: Value = serde_json::from_str(text).map_err(|e| RuntimeError::CheckpointFormat {
            message: format!("not valid JSON: {e}"),
        })?;
        let format = doc
            .get("format")
            .and_then(Value::as_str)
            .ok_or_else(|| bad_format("missing `format` marker"))?;
        if format != CHECKPOINT_FORMAT {
            return Err(bad_format(&format!("`format` is `{format}`, not `{CHECKPOINT_FORMAT}`")));
        }
        let version = field_u64(&doc, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(RuntimeError::CheckpointVersion {
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        let num_nodes = usize::try_from(field_u64(&doc, "num_nodes")?)
            .map_err(|_| bad_format("`num_nodes` exceeds the address space"))?;
        let rounds = usize::try_from(field_u64(&doc, "rounds")?)
            .map_err(|_| bad_format("`rounds` exceeds the address space"))?;
        let remaining = id_array(&doc, "remaining")?;
        let raw_groups = doc
            .get("groups")
            .and_then(Value::as_array)
            .ok_or_else(|| bad_format("missing `groups` array"))?;
        let mut groups = Vec::with_capacity(raw_groups.len());
        for (i, g) in raw_groups.iter().enumerate() {
            let ac_hex = g
                .get("ac_bits")
                .and_then(Value::as_str)
                .ok_or_else(|| bad_format(&format!("group {i}: missing `ac_bits` hex string")))?;
            let acceptance_bits = u64::from_str_radix(ac_hex, 16).map_err(|_| {
                bad_format(&format!("group {i}: `ac_bits` is not 64-bit hex: `{ac_hex}`"))
            })?;
            let k_den = field_u64(g, "k_den")
                .map_err(|_| bad_format(&format!("group {i}: missing integer `k_den`")))?;
            if k_den == 0 {
                return Err(bad_format(&format!("group {i}: `k_den` must be nonzero")));
            }
            groups.push(CheckpointGroup {
                round: field_u64(g, "round")
                    .map_err(|_| bad_format(&format!("group {i}: missing integer `round`")))
                    .and_then(|r| {
                        usize::try_from(r).map_err(|_| {
                            bad_format(&format!("group {i}: `round` exceeds the address space"))
                        })
                    })?,
                k_num: field_u64(g, "k_num")
                    .map_err(|_| bad_format(&format!("group {i}: missing integer `k_num`")))?,
                k_den,
                acceptance_bits,
                nodes: id_array(g, "nodes")
                    .map_err(|_| bad_format(&format!("group {i}: missing `nodes` id array")))?,
            });
        }
        Ok(Checkpoint { version, num_nodes, rounds, remaining, groups })
    }

    /// Checks that this checkpoint describes a run over `g`: node counts
    /// match, every id is in range, the survivor set and the group members
    /// are sorted, mutually disjoint, and together cover the graph, and
    /// round numbers are consistent.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::CheckpointMismatch`] naming the first disagreement.
    pub fn validate_against(&self, g: &AugmentedGraph) -> Result<(), RuntimeError> {
        if self.num_nodes != g.num_nodes() {
            return Err(mismatch(&format!(
                "checkpoint is for {} nodes, graph has {}",
                self.num_nodes,
                g.num_nodes()
            )));
        }
        let mut seen = vec![false; g.num_nodes()];
        let mut mark = |ids: &[u32], what: &str| -> Result<(), RuntimeError> {
            for w in ids.windows(2) {
                if w[0] >= w[1] {
                    return Err(mismatch(&format!("{what} ids are not strictly ascending")));
                }
            }
            for &u in ids {
                let Some(slot) = usize::try_from(u).ok().and_then(|i| seen.get_mut(i)) else {
                    return Err(mismatch(&format!("{what} id {u} out of range")));
                };
                if *slot {
                    return Err(mismatch(&format!("{what} id {u} appears twice")));
                }
                *slot = true;
            }
            Ok(())
        };
        mark(&self.remaining, "survivor")?;
        let mut last_round = 0usize;
        for (i, group) in self.groups.iter().enumerate() {
            mark(&group.nodes, &format!("group {i} member"))?;
            if group.round <= last_round {
                return Err(mismatch(&format!("group {i} round {} out of order", group.round)));
            }
            last_round = group.round;
            if group.nodes.is_empty() {
                return Err(mismatch(&format!("group {i} is empty")));
            }
        }
        if last_round > self.rounds {
            return Err(mismatch(&format!(
                "last group round {last_round} exceeds completed rounds {}",
                self.rounds
            )));
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(mismatch(&format!(
                "node {missing} is neither surviving nor detected"
            )));
        }
        Ok(())
    }

    /// Reconstructs the report-so-far this checkpoint encodes. Failures
    /// and completion state are per-run diagnostics and are deliberately
    /// *not* checkpointed: a resumed run reports its own.
    pub fn report(&self) -> DetectionReport {
        DetectionReport {
            groups: self
                .groups
                .iter()
                .map(|g| DetectedGroup {
                    nodes: g.nodes.iter().map(|&u| NodeId(u)).collect(),
                    acceptance_rate: f64::from_bits(g.acceptance_bits),
                    k: KParam::new(g.k_num, g.k_den),
                    round: g.round,
                })
                .collect(),
            rounds: self.rounds,
            ..DetectionReport::default()
        }
    }
}

fn bad_format(message: &str) -> RuntimeError {
    RuntimeError::CheckpointFormat { message: message.to_string() }
}

fn mismatch(message: &str) -> RuntimeError {
    RuntimeError::CheckpointMismatch { message: message.to_string() }
}

fn field_u64(doc: &Value, key: &str) -> Result<u64, RuntimeError> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| bad_format(&format!("missing non-negative integer field `{key}`")))
}

fn id_array(doc: &Value, key: &str) -> Result<Vec<u32>, RuntimeError> {
    let items = doc
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| bad_format(&format!("missing `{key}` array")))?;
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|u| u32::try_from(u).ok())
                .ok_or_else(|| bad_format(&format!("`{key}` contains a non-u32 entry")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rejection::AugmentedGraphBuilder;

    fn graph(n: usize) -> AugmentedGraph {
        let mut b = AugmentedGraphBuilder::new(n);
        for u in 1..n as u32 {
            b.add_friendship(NodeId(0), NodeId(u));
        }
        b.build()
    }

    fn sample_report() -> DetectionReport {
        DetectionReport {
            groups: vec![DetectedGroup {
                nodes: vec![NodeId(2), NodeId(4)],
                acceptance_rate: 0.125,
                k: KParam::new(3, 2),
                round: 1,
            }],
            rounds: 1,
            ..DetectionReport::default()
        }
    }

    #[test]
    fn capture_round_trips_through_json() {
        let g = graph(6);
        let ckpt = Checkpoint::capture(&g, &sample_report());
        assert_eq!(ckpt.remaining, vec![0, 1, 3, 5]);
        let text = ckpt.to_json();
        let back = Checkpoint::from_json(&text).expect("own output parses");
        assert_eq!(back, ckpt);
        back.validate_against(&g).expect("captured state validates");
        let report = back.report();
        assert_eq!(report, sample_report());
        assert_eq!(
            report.groups[0].acceptance_rate.to_bits(),
            0.125f64.to_bits(),
            "bit-exact acceptance rate"
        );
    }

    #[test]
    fn unsupported_version_is_a_typed_error() {
        let g = graph(4);
        let text = Checkpoint::capture(&g, &DetectionReport::default())
            .to_json()
            .replace("\"version\":1", "\"version\":99");
        match Checkpoint::from_json(&text) {
            Err(RuntimeError::CheckpointVersion { found: 99, supported }) => {
                assert_eq!(supported, CHECKPOINT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn garbage_and_foreign_documents_are_format_errors() {
        for text in ["", "{", "{\"format\":\"something-else\",\"version\":1}", "[1,2,3]"] {
            match Checkpoint::from_json(text) {
                Err(RuntimeError::CheckpointFormat { .. }) => {}
                other => panic!("{text:?}: expected format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_graph_fails_validation() {
        let g = graph(6);
        let ckpt = Checkpoint::capture(&g, &sample_report());
        let smaller = graph(5);
        match ckpt.validate_against(&smaller) {
            Err(RuntimeError::CheckpointMismatch { message }) => {
                assert!(message.contains("6 nodes"), "{message}");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn overlapping_groups_fail_validation() {
        let g = graph(6);
        let mut ckpt = Checkpoint::capture(&g, &sample_report());
        // Claim node 2 also survived — now it is both pruned and alive.
        ckpt.remaining.insert(2, 2);
        assert!(matches!(
            ckpt.validate_against(&g),
            Err(RuntimeError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn uncovered_node_fails_validation() {
        let g = graph(6);
        let mut ckpt = Checkpoint::capture(&g, &sample_report());
        ckpt.remaining.retain(|&u| u != 5);
        match ckpt.validate_against(&g) {
            Err(RuntimeError::CheckpointMismatch { message }) => {
                assert!(message.contains("node 5"), "{message}");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }
}
