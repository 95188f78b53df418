//! SNAP-style edge-list I/O.
//!
//! The paper's public datasets come from the Stanford SNAP collection, which
//! distributes graphs as whitespace-separated `u v` lines with `#` comments.
//! These readers/writers let users run the pipeline on the real datasets
//! when they have them.

// lossy-cast (DESIGN.md §8.1): a silently wrapping counter on the
// hostile-input ingest and cut bookkeeping paths is an attack.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss,
        clippy::cast_lossless
    )
)]

use crate::{Graph, GraphBuilder, GraphError, NodeId};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Per-load accounting for the lenient readers: how many malformed lines
/// were dropped and where the first one was, so callers can surface the
/// degradation in their reports instead of silently losing edges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Number of malformed lines skipped.
    pub skipped_lines: usize,
    /// 1-based line number of the first skipped line, if any.
    pub first_skipped: Option<usize>,
}

impl LoadStats {
    /// True when the load dropped at least one line.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.skipped_lines > 0
    }

    /// Records one skipped line. Public so sibling loaders (the rejection
    /// crate's augmented reader) can share the same accounting type.
    pub fn record(&mut self, line: usize) {
        self.skipped_lines += 1;
        if self.first_skipped.is_none() {
            self.first_skipped = Some(line);
        }
    }
}

/// Resource ceilings for the edge-list readers (DESIGN.md §15). The input
/// to a spam detector is attacker-shaped, so the loaders must refuse to
/// keep allocating past an explicit budget instead of riding an adversarial
/// byte stream into an allocator abort. `None` means unlimited; budget
/// violations are fatal even for the lenient readers (a malformed *line*
/// is recoverable, unbounded growth is not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeListLimits {
    /// Maximum number of distinct nodes the load may intern.
    pub max_nodes: Option<u64>,
    /// Maximum number of edge lines the load may buffer (counted before
    /// dedup — buffering is what the budget protects).
    pub max_edges: Option<u64>,
}

impl EdgeListLimits {
    /// No ceilings at all; identical to `EdgeListLimits::default()`.
    #[must_use]
    pub fn unlimited() -> Self {
        EdgeListLimits::default()
    }
}

/// `count` as a `u64` for budget accounting; collection lengths always fit.
fn observed(count: usize) -> u64 {
    u64::try_from(count).expect("collection length fits in u64")
}

/// Parses one non-comment edge-list line into its raw endpoint labels,
/// naming the offending token on failure.
fn parse_edge_line(trimmed: &str, lineno: usize) -> Result<(u64, u64), GraphError> {
    let mut parts = trimmed.split_whitespace();
    let parse = |tok: Option<&str>| -> Result<u64, GraphError> {
        let bad = |token: &str| GraphError::Parse {
            line: lineno,
            token: token.to_string(),
            content: trimmed.to_string(),
        };
        match tok {
            Some(t) => t.parse().map_err(|_| bad(t)),
            None => Err(bad("<end of line>")),
        }
    };
    Ok((parse(parts.next())?, parse(parts.next())?))
}

/// Reads a SNAP edge list, densely relabeling arbitrary node ids to
/// `0..n`. Lines starting with `#` are comments; directed duplicates are
/// merged into single undirected edges.
///
/// Returns the graph plus the original label of each dense id.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed lines and [`GraphError::Io`]
/// on read failures.
///
/// ```
/// use socialgraph::io::read_edge_list;
/// let data = "# comment\n10 20\n20 30\n";
/// let (g, labels) = read_edge_list(data.as_bytes())?;
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(labels, vec![10, 20, 30]);
/// # Ok::<(), socialgraph::GraphError>(())
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<(Graph, Vec<u64>), GraphError> {
    let (g, labels, _) = read_edge_list_impl(reader, false, EdgeListLimits::unlimited())?;
    Ok((g, labels))
}

/// Like [`read_edge_list`], but enforcing the node/edge ceilings of
/// `limits`: the load fails with [`GraphError::ResourceExhausted`] the
/// moment the input would intern more nodes or buffer more edge lines than
/// allowed, before the over-budget allocation happens.
///
/// # Errors
///
/// Everything [`read_edge_list`] returns, plus
/// [`GraphError::ResourceExhausted`] on a tripped ceiling.
pub fn read_edge_list_bounded<R: Read>(
    reader: R,
    limits: EdgeListLimits,
) -> Result<(Graph, Vec<u64>), GraphError> {
    let (g, labels, _) = read_edge_list_impl(reader, false, limits)?;
    Ok((g, labels))
}

/// Like [`read_edge_list`], but malformed lines are skipped and counted
/// instead of failing the whole load. I/O errors remain fatal. The returned
/// [`LoadStats`] lets the caller report how much input was dropped.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on read failures.
///
/// ```
/// use socialgraph::io::read_edge_list_lenient;
/// let data = "1 2\n2 banana\n2 3\n";
/// let (g, _, stats) = read_edge_list_lenient(data.as_bytes())?;
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(stats.skipped_lines, 1);
/// assert_eq!(stats.first_skipped, Some(2));
/// # Ok::<(), socialgraph::GraphError>(())
/// ```
pub fn read_edge_list_lenient<R: Read>(
    reader: R,
) -> Result<(Graph, Vec<u64>, LoadStats), GraphError> {
    read_edge_list_impl(reader, true, EdgeListLimits::unlimited())
}

/// Like [`read_edge_list_lenient`], but enforcing the node/edge ceilings
/// of `limits`. A tripped ceiling stays fatal even in lenient mode: skipping
/// a malformed line loses one edge, but over-budget growth is the hostile
/// condition the budget exists to stop.
///
/// # Errors
///
/// Everything [`read_edge_list_lenient`] returns, plus
/// [`GraphError::ResourceExhausted`] on a tripped ceiling.
pub fn read_edge_list_lenient_bounded<R: Read>(
    reader: R,
    limits: EdgeListLimits,
) -> Result<(Graph, Vec<u64>, LoadStats), GraphError> {
    read_edge_list_impl(reader, true, limits)
}

fn read_edge_list_impl<R: Read>(
    reader: R,
    lenient: bool,
    limits: EdgeListLimits,
) -> Result<(Graph, Vec<u64>, LoadStats), GraphError> {
    let reader = BufReader::new(reader);
    // BTreeMap rather than HashMap: this crate's kernels are under the
    // `cargo xtask check` hash-collection ban, and the interner's dense ids
    // must depend only on input order, never on hasher state.
    let mut ids: BTreeMap<u64, u32> = BTreeMap::new();
    let mut labels: Vec<u64> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut stats = LoadStats::default();

    // Interning is fallible: dense ids live in `u32`, so a stream with more
    // than 2^32 distinct labels is structurally overflow-sized whatever the
    // budget says, and the configured `max_nodes` ceiling trips first when
    // one is set.
    let intern = |raw: u64, ids: &mut BTreeMap<u64, u32>, labels: &mut Vec<u64>| -> Result<u32, GraphError> {
        if let Some(&id) = ids.get(&raw) {
            return Ok(id);
        }
        if let Some(max) = limits.max_nodes {
            if observed(labels.len()) >= max {
                return Err(GraphError::ResourceExhausted {
                    resource: "nodes",
                    limit: max,
                    observed: observed(labels.len()) + 1,
                });
            }
        }
        let next = u32::try_from(labels.len()).map_err(|_| GraphError::ResourceExhausted {
            resource: "node ids",
            limit: u64::from(u32::MAX),
            observed: observed(labels.len()),
        })?;
        labels.push(raw);
        ids.insert(raw, next);
        Ok(next)
    };

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // Parse both endpoints before interning either, so a half-valid
        // line in lenient mode never plants a spurious isolated node.
        let (u, v) = match parse_edge_line(trimmed, lineno + 1) {
            Ok(pair) => pair,
            Err(e) => {
                if lenient {
                    stats.record(lineno + 1);
                    continue;
                }
                return Err(e);
            }
        };
        if let Some(max) = limits.max_edges {
            if observed(edges.len()) >= max {
                return Err(GraphError::ResourceExhausted {
                    resource: "edges",
                    limit: max,
                    observed: observed(edges.len()) + 1,
                });
            }
        }
        let u = intern(u, &mut ids, &mut labels)?;
        let v = intern(v, &mut ids, &mut labels)?;
        edges.push((u, v));
    }

    let mut b = GraphBuilder::new(labels.len());
    for (u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v));
    }
    Ok((b.build(), labels, stats))
}

/// Writes `g` as a SNAP edge list (one `u v` line per undirected edge, with
/// a size header comment).
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failures.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes: {} edges: {}", g.num_nodes(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_blank_lines() {
        let data = "# header\n\n1 2\n2 3\n\n# tail\n";
        let (g, labels) = read_edge_list(data.as_bytes()).expect("fixture parses");
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(labels, vec![1, 2, 3]);
    }

    #[test]
    fn merges_directed_duplicates() {
        let data = "5 7\n7 5\n";
        let (g, _) = read_edge_list(data.as_bytes()).expect("fixture parses");
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rejects_garbage_lines() {
        let err = read_edge_list("1 banana\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn parse_error_carries_the_offending_token() {
        let err = read_edge_list("# ok\n1 2\n3 banana\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, token, content } => {
                assert_eq!(line, 3);
                assert_eq!(token, "banana");
                assert_eq!(content, "3 banana");
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn truncated_line_reports_end_of_line() {
        let err = read_edge_list("1\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { token, .. } => assert_eq!(token, "<end of line>"),
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn lenient_mode_skips_and_counts_bad_lines() {
        let data = "1 2\nbananas everywhere\n2 3\n4 -1\n3 1\n";
        let (g, labels, stats) = read_edge_list_lenient(data.as_bytes()).expect("lenient load");
        assert_eq!(g.num_edges(), 3);
        assert_eq!(labels, vec![1, 2, 3]);
        assert_eq!(stats.skipped_lines, 2);
        assert_eq!(stats.first_skipped, Some(2));
        assert!(stats.is_degraded());
    }

    #[test]
    fn lenient_mode_never_interns_nodes_from_skipped_lines() {
        // "4" parses but its partner does not: node 4 must not appear.
        let (g, labels, stats) =
            read_edge_list_lenient("1 2\n4 oops\n".as_bytes()).expect("lenient load");
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(labels, vec![1, 2]);
        assert_eq!(stats.skipped_lines, 1);
    }

    #[test]
    fn lenient_mode_matches_strict_on_clean_input() {
        let data = "# header\n1 2\n2 3\n";
        let (g, labels) = read_edge_list(data.as_bytes()).expect("strict load");
        let (g2, labels2, stats) = read_edge_list_lenient(data.as_bytes()).expect("lenient load");
        assert_eq!(g, g2);
        assert_eq!(labels, labels2);
        assert_eq!(stats, LoadStats::default());
    }

    #[test]
    fn roundtrips_through_write_and_read() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).expect("write to Vec cannot fail");
        let (g2, _) = read_edge_list(buf.as_slice()).expect("roundtrip parses");
        assert_eq!(g2.num_nodes(), 4);
        assert_eq!(g2.num_edges(), 3);
    }

    #[test]
    fn bounded_load_rejects_over_budget_nodes() {
        let data = "1 2\n3 4\n";
        let err = read_edge_list_bounded(
            data.as_bytes(),
            EdgeListLimits { max_nodes: Some(3), max_edges: None },
        )
        .unwrap_err();
        match err {
            GraphError::ResourceExhausted { resource, limit, observed } => {
                assert_eq!(resource, "nodes");
                assert_eq!(limit, 3);
                assert_eq!(observed, 4);
            }
            other => panic!("expected ResourceExhausted, got {other}"),
        }
    }

    #[test]
    fn bounded_load_rejects_over_budget_edges() {
        let data = "1 2\n2 3\n3 1\n";
        let err = read_edge_list_bounded(
            data.as_bytes(),
            EdgeListLimits { max_nodes: None, max_edges: Some(2) },
        )
        .unwrap_err();
        assert!(
            matches!(err, GraphError::ResourceExhausted { resource: "edges", limit: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn bounded_load_at_the_exact_budget_succeeds() {
        let data = "1 2\n2 3\n";
        let (g, labels) = read_edge_list_bounded(
            data.as_bytes(),
            EdgeListLimits { max_nodes: Some(3), max_edges: Some(2) },
        )
        .expect("exact-budget load succeeds");
        assert_eq!(g.num_edges(), 2);
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn lenient_bounded_load_still_fails_on_budget() {
        // Malformed lines skip, but the budget trip stays fatal.
        let data = "1 2\nbanana\n3 4\n";
        let err = read_edge_list_lenient_bounded(
            data.as_bytes(),
            EdgeListLimits { max_nodes: Some(2), max_edges: None },
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::ResourceExhausted { resource: "nodes", .. }), "{err}");
    }

    #[test]
    fn handles_large_sparse_labels() {
        let data = "1000000000 2000000000\n";
        let (g, labels) = read_edge_list(data.as_bytes()).expect("fixture parses");
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(labels, vec![1_000_000_000, 2_000_000_000]);
    }
}
