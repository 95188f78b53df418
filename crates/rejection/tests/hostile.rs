//! Hostile-input hardening of the augmented-graph loaders: arbitrary byte
//! streams, adversarially shaped edge mixes (self-loops, duplicates,
//! friend+rejection conflicts), and boundary-sized node declarations must
//! produce typed errors or counted skips — never a panic, and never an
//! allocation past an armed [`IngestGuards`] budget.

use proptest::prelude::*;
use rejection::io::{
    read_augmented, read_augmented_guarded, read_augmented_lenient_guarded,
    AugmentedIoError, IngestGuards, LoadStats,
};
use rejection::AugmentedGraph;
use std::collections::BTreeSet;
use std::io::Read;

const HEADER: &str = "# rejecto augmented graph v1: nodes=";

/// The skip count of the reference loader's lenient load: the hostile-edge
/// taxonomy the real loader must agree with on both the strict verdict and
/// the lenient skip count.
fn hostile_count(n: u32, lines: &[(bool, u32, u32)], reject_conflicts: bool) -> usize {
    let guards = IngestGuards { reject_conflicts, ..IngestGuards::default() };
    match reference_load(render(n, lines).as_bytes(), true, guards) {
        Outcome::Loaded { stats, .. } => stats.skipped_lines,
        Outcome::Failed(e) => panic!("an in-range edge mix cannot fail a lenient load: {e}"),
    }
}

/// What a load yields, in a form two loaders can be compared by: the
/// node count, both edge sets and the skip accounting, or the error with
/// every field.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Loaded {
        nodes: usize,
        friendships: BTreeSet<(u32, u32)>,
        rejections: BTreeSet<(u32, u32)>,
        stats: LoadStats,
    },
    Failed(String),
}

/// Every field of an error. `io::Error` has no `PartialEq`, so an I/O
/// error is compared by kind and message.
fn describe(e: &AugmentedIoError) -> String {
    match e {
        AugmentedIoError::Io(io) => format!("Io({:?}: {io})", io.kind()),
        other => format!("{other:?}"),
    }
}

fn outcome(result: Result<(AugmentedGraph, LoadStats), AugmentedIoError>) -> Outcome {
    match result {
        Ok((g, stats)) => {
            let mut friendships = BTreeSet::new();
            let mut rejections = BTreeSet::new();
            for u in g.nodes() {
                for &v in g.friends(u).iter().filter(|&&v| u < v) {
                    friendships.insert((u.0, v.0));
                }
                for &v in g.rejected_by(u) {
                    rejections.insert((u.0, v.0));
                }
            }
            Outcome::Loaded { nodes: g.num_nodes(), friendships, rejections, stats }
        }
        Err(e) => Outcome::Failed(describe(&e)),
    }
}

/// The loader under test, strict or lenient, as an [`Outcome`]. Each
/// input is loaded twice: from one slice, and through [`Trickle`], whose
/// refills split ids, `\r\n` pairs, invalid UTF-8 and an unterminated
/// last line, and whose interrupted reads must be retried; both loads
/// must agree.
fn real_load(input: &[u8], lenient: bool, guards: IngestGuards) -> Outcome {
    let load = |reader: &mut dyn Read| {
        if lenient {
            outcome(read_augmented_lenient_guarded(reader, guards))
        } else {
            outcome(read_augmented_guarded(reader, guards).map(|g| (g, LoadStats::default())))
        }
    };
    let whole = load(&mut &input[..]);
    let trickled = load(&mut Trickle { rest: input, next: input.len() % 8 });
    assert_eq!(trickled, whole, "a load read in 1- to 7-byte pieces differs");
    whole
}

/// A reader that cycles through handing out 1 to 7 bytes per call and
/// then one interrupted read, from where `next` starts.
struct Trickle<'a> {
    rest: &'a [u8],
    next: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = self.next % 8;
        self.next += 1;
        if step == 7 {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let len = (step + 1).min(buf.len()).min(self.rest.len());
        let (piece, rest) = self.rest.split_at(len);
        buf[..len].copy_from_slice(piece);
        self.rest = rest;
        Ok(len)
    }
}

/// A line-at-a-time reference loader over `BTreeSet`s: lines split and
/// UTF-8-checked as `BufRead::lines` does, each edge line parsed with
/// `split_whitespace` and `str::parse`, classified against the edges
/// accepted so far, and counted against the budgets the moment it is
/// accepted. It is the loader's specification, written for clarity over
/// speed.
fn reference_load(input: &[u8], lenient: bool, guards: IngestGuards) -> Outcome {
    match reference_impl(input, lenient, guards) {
        Ok(loaded) => loaded,
        Err(e) => Outcome::Failed(describe(&e)),
    }
}

/// One trimmed edge line as the reference reads it: `(is_friend, u, v)`,
/// or the parse or range error naming the offending token or id.
fn reference_parse(
    trimmed: &str,
    line: usize,
    n: usize,
) -> Result<(bool, u32, u32), AugmentedIoError> {
    let bad = |token: &str| AugmentedIoError::Parse {
        line,
        token: token.to_string(),
        content: trimmed.to_string(),
    };
    let mut parts = trimmed.split_whitespace();
    let is_friend = match parts.next() {
        Some("F") => true,
        Some("R") => false,
        Some(other) => return Err(bad(other)),
        None => return Err(bad("<end of line>")),
    };
    let mut id = || match parts.next() {
        Some(t) => t.parse::<u32>().map_err(|_| bad(t)),
        None => Err(bad("<end of line>")),
    };
    let (u, v) = (id()?, id()?);
    if let Some(&node) = [u, v].iter().find(|&&x| x as usize >= n) {
        return Err(AugmentedIoError::NodeOutOfRange { line, node });
    }
    Ok((is_friend, u, v))
}

fn reference_impl(
    input: &[u8],
    lenient: bool,
    guards: IngestGuards,
) -> Result<Outcome, AugmentedIoError> {
    let mut lines = input.split_inclusive(|&b| b == b'\n').map(|raw| {
        let mut line = raw;
        if let Some(rest) = line.strip_suffix(b"\n") {
            line = rest.strip_suffix(b"\r").unwrap_or(rest);
        }
        std::str::from_utf8(line).map_err(|_| {
            AugmentedIoError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ))
        })
    });
    let header = lines
        .next()
        .transpose()?
        .ok_or_else(|| AugmentedIoError::BadHeader { found: "<empty file>".to_string() })?;
    let n: usize = header
        .strip_prefix(HEADER)
        .and_then(|rest| rest.trim().parse().ok())
        .ok_or_else(|| AugmentedIoError::BadHeader { found: header.to_string() })?;
    let declared = n as u64;
    if declared > u64::from(u32::MAX) {
        return Err(AugmentedIoError::ResourceExhausted {
            resource: "node ids",
            limit: u64::from(u32::MAX),
            observed: declared,
        });
    }
    if let Some(max) = guards.max_nodes.filter(|&max| declared > max) {
        return Err(AugmentedIoError::ResourceExhausted {
            resource: "nodes",
            limit: max,
            observed: declared,
        });
    }

    let mut friendships: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut rejections: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut stats = LoadStats::default();
    for (i, line) in lines.enumerate() {
        let lineno = i + 2;
        let trimmed = line?.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let parsed = reference_parse(trimmed, lineno, n);
        let (is_friend, u, v) = match parsed {
            Ok(edge) => edge,
            Err(_) if lenient => {
                stats.record(lineno);
                continue;
            }
            Err(e) => return Err(e),
        };
        let pair = (u.min(v), u.max(v));
        let hostile = if u == v {
            Some("self-loop")
        } else if is_friend && friendships.contains(&pair)
            || !is_friend && rejections.contains(&(u, v))
        {
            Some("duplicate edge")
        } else if guards.reject_conflicts
            && (is_friend && (rejections.contains(&(u, v)) || rejections.contains(&(v, u)))
                || !is_friend && friendships.contains(&pair))
        {
            Some("conflicting friend+rejection pair")
        } else {
            None
        };
        if let Some(kind) = hostile {
            if lenient {
                stats.record(lineno);
                continue;
            }
            return Err(AugmentedIoError::HostileEdge { line: lineno, kind, u, v });
        }
        let (set, edge, resource, max) = if is_friend {
            (&mut friendships, pair, "friendships", guards.max_friendships)
        } else {
            (&mut rejections, (u, v), "rejections", guards.max_rejections)
        };
        if let Some(max) = max.filter(|&max| set.len() as u64 >= max) {
            return Err(AugmentedIoError::ResourceExhausted {
                resource,
                limit: max,
                observed: set.len() as u64 + 1,
            });
        }
        set.insert(edge);
    }
    Ok(Outcome::Loaded { nodes: n, friendships, rejections, stats })
}

fn render(n: u32, lines: &[(bool, u32, u32)]) -> String {
    let mut text = format!("{HEADER}{n}\n");
    for &(is_friend, u, v) in lines {
        let tag = if is_friend { 'F' } else { 'R' };
        text.push_str(&format!("{tag} {u} {v}\n"));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every byte soup maps to `Ok` or a typed error in both modes — a
    /// panic anywhere in header parsing, edge parsing, or builder
    /// bookkeeping fails the test.
    #[test]
    fn arbitrary_bytes_never_panic_either_loader(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let _ = read_augmented(bytes.as_slice());
        let _ = read_augmented_lenient_guarded(bytes.as_slice(), IngestGuards::unlimited());
    }

    /// Arbitrary bytes *after a valid header* exercise the per-line paths:
    /// strict returns `Ok` or a typed error; lenient only ever fails on
    /// I/O (invalid UTF-8 from the line reader), and otherwise counts
    /// every dropped line.
    #[test]
    fn arbitrary_lines_after_a_valid_header_degrade_cleanly(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        n in 1u32..50,
    ) {
        let mut input = format!("{HEADER}{n}\n").into_bytes();
        input.extend_from_slice(&bytes);
        let _ = read_augmented(input.as_slice());
        match read_augmented_lenient_guarded(input.as_slice(), IngestGuards::unlimited()) {
            Ok((g, _stats)) => prop_assert_eq!(g.num_nodes(), n as usize),
            Err(AugmentedIoError::Io(_)) => {}
            Err(other) => {
                return Err(format!("lenient loader returned a non-I/O error: {other}"));
            }
        }
    }

    /// The loader's hostile-edge taxonomy agrees with an independent
    /// reference model: the strict loader accepts exactly the inputs with
    /// zero hostile edges, and the lenient loader's skip count matches the
    /// model — with conflicts counted only when `reject_conflicts` is on.
    #[test]
    fn hostile_edge_taxonomy_matches_the_reference_model(
        n in 2u32..8,
        lines in proptest::collection::vec((any::<bool>(), 0u32..8, 0u32..8), 0..30),
        reject_conflicts in any::<bool>(),
    ) {
        // Keep endpoints in range: out-of-range handling is separately
        // typed (strict) / counted (lenient) and would double-count here.
        let lines: Vec<(bool, u32, u32)> =
            lines.into_iter().map(|(f, u, v)| (f, u % n, v % n)).collect();
        let text = render(n, &lines);
        let guards = IngestGuards { reject_conflicts, ..IngestGuards::default() };
        let expected = hostile_count(n, &lines, reject_conflicts);

        match read_augmented_guarded(text.as_bytes(), guards) {
            Ok(_) => prop_assert_eq!(expected, 0, "strict accepted a hostile input"),
            Err(AugmentedIoError::HostileEdge { .. }) => {
                prop_assert!(expected > 0, "strict rejected a clean input");
            }
            Err(other) => {
                return Err(format!("unexpected strict error: {other}"));
            }
        }

        let (_, stats) = read_augmented_lenient_guarded(text.as_bytes(), guards)
            .map_err(|e| format!("lenient load failed: {e}"))?;
        prop_assert_eq!(stats.skipped_lines, expected);
    }

    /// Boundary-sized node declarations: anything past the `u32` id space
    /// is structurally rejected, and an armed node budget rejects a
    /// boundary-sized declaration *before* the per-node allocation — this
    /// test would exhaust memory if the gate ran after it.
    #[test]
    fn u32_boundary_node_declarations_are_gated_before_allocation(
        extra in 0u64..4,
    ) {
        let past = u64::from(u32::MAX) + 1 + extra;
        let input = format!("{HEADER}{past}\n");
        match read_augmented(input.as_bytes()) {
            Err(AugmentedIoError::ResourceExhausted { resource, .. }) => {
                prop_assert_eq!(resource, "node ids");
            }
            other => {
                return Err(format!("oversized header must be rejected, got {other:?}"));
            }
        }

        let at_boundary = format!("{HEADER}{}\n", u32::MAX);
        let guards = IngestGuards { max_nodes: Some(1000), ..IngestGuards::default() };
        match read_augmented_guarded(at_boundary.as_bytes(), guards) {
            Err(AugmentedIoError::ResourceExhausted { resource, limit, observed }) => {
                prop_assert_eq!(resource, "nodes");
                prop_assert_eq!(limit, 1000);
                prop_assert_eq!(observed, u64::from(u32::MAX));
            }
            other => {
                return Err(format!("budget must trip pre-allocation, got {other:?}"));
            }
        }
    }
}

/// One generated line: `(shape, u, v, separator, id style, crlf)`.
type LineSpec = (u8, u32, u32, u8, u8, bool);

/// Renders one generated line. Most are edge lines, canonical or not:
/// tab, U+2003 and U+000B separators, `+7`, leading zeros, an extra
/// token, a `u32` overflow, a leading blank; the rest are comments,
/// blanks, an unknown kind and a truncated edge.
fn render_line(out: &mut Vec<u8>, (shape, u, v, sep, style, crlf): LineSpec) {
    let sep = match sep {
        0..=3 => " ",
        4 => "\t",
        5 => " \t ",
        6 => "\u{2003}",
        _ => "\u{000B}",
    };
    let id = |x: u32| match style {
        6 => format!("00{x}"),
        7 => format!("+{x}"),
        _ => x.to_string(),
    };
    let text = match shape {
        0..=13 => format!("F{sep}{}{sep}{}", id(u), id(v)),
        14..=25 => format!("R{sep}{}{sep}{}", id(u), id(v)),
        26 => "# a comment".to_string(),
        27 => "  ".to_string(),
        28 => format!("X{sep}{u}{sep}{v}"),
        29 => format!("F{sep}{u}"),
        30 => format!("R{sep}{u}{sep}4294967296"),
        _ => format!(" F{sep}{u}{sep}{v} "),
    };
    out.extend_from_slice(text.as_bytes());
    if style == 8 {
        out.extend_from_slice(b" 9 extra");
    }
    out.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
}

/// A whole generated file: the header, the lines, optionally one line of
/// invalid UTF-8 at `bad_at`, and optionally no final newline.
fn render_file(n: u32, lines: &[LineSpec], bad_at: Option<usize>, final_newline: bool) -> Vec<u8> {
    let mut out = format!("{HEADER}{n}\n").into_bytes();
    for (i, &line) in lines.iter().enumerate() {
        if bad_at == Some(i) {
            out.extend_from_slice(b"F 0 \xff1\n");
        }
        render_line(&mut out, line);
    }
    if !final_newline {
        while out.last().is_some_and(|b| b.is_ascii_whitespace()) {
            out.pop();
        }
    }
    out
}

fn budget((armed, limit): (bool, u64)) -> Option<u64> {
    armed.then_some(limit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The loader agrees with the line-at-a-time reference loader on every
    /// generated file: the same graph and `LoadStats`, or the same error
    /// with every field, strict and lenient, with each budget armed or
    /// not and conflicts rejected or tolerated.
    #[test]
    fn loader_matches_the_line_at_a_time_reference(
        (n, lines) in (2u32..7).prop_flat_map(|n| {
            let line = (0u8..32, 0..n + 1, 0..n + 1, 0u8..8, 0u8..10, 0u8..8);
            let lines = proptest::collection::vec(line, 0..48)
                .prop_map(|ls| ls.into_iter().map(|(s, u, v, p, st, c)| (s, u, v, p, st, c == 0)).collect::<Vec<LineSpec>>());
            (Just(n), lines)
        }),
        (bad, bad_at) in (0u8..5, 0usize..48),
        final_newline in any::<bool>(),
        max_friendships in (any::<bool>(), 0u64..10),
        max_rejections in (any::<bool>(), 0u64..10),
        max_nodes in (0u8..8, 0u64..8),
        reject_conflicts in any::<bool>(),
    ) {
        let input = render_file(n, &lines, (bad == 0).then_some(bad_at), final_newline);
        let guards = IngestGuards {
            max_nodes: (max_nodes.0 == 0).then_some(max_nodes.1),
            max_friendships: budget(max_friendships),
            max_rejections: budget(max_rejections),
            reject_conflicts,
        };
        for lenient in [false, true] {
            prop_assert_eq!(
                real_load(&input, lenient, guards),
                reference_load(&input, lenient, guards),
                "lenient={} guards={:?} input={:?}",
                lenient,
                guards,
                String::from_utf8_lossy(&input)
            );
        }
    }
}

/// A duplicate flood: 200,000 copies of one friendship, then 1,000
/// distinct ones under a 1,000-friendship budget. Lenient skips the
/// copies and trips the budget on the last distinct line; strict stops at
/// the first copy; without the tail lenient counts every copy.
#[test]
fn duplicate_flood_settles_exactly() {
    const COPIES: usize = 200_000;
    let mut flood = format!("{HEADER}2000\n");
    for _ in 0..COPIES {
        flood.push_str("F 0 1\n");
    }
    let mut tripped = flood.clone();
    for k in 2..=1001 {
        tripped.push_str(&format!("F 1 {k}\n"));
    }
    let guards = IngestGuards { max_friendships: Some(1000), ..IngestGuards::default() };

    let err = read_augmented_lenient_guarded(tripped.as_bytes(), guards).unwrap_err();
    assert!(
        matches!(
            err,
            AugmentedIoError::ResourceExhausted {
                resource: "friendships",
                limit: 1000,
                observed: 1001
            }
        ),
        "{err}"
    );
    let err = read_augmented_guarded(tripped.as_bytes(), guards).unwrap_err();
    assert!(
        matches!(
            err,
            AugmentedIoError::HostileEdge { line: 3, kind: "duplicate edge", u: 0, v: 1 }
        ),
        "{err}"
    );
    let (g, stats) =
        read_augmented_lenient_guarded(flood.as_bytes(), guards).expect("lenient load");
    assert_eq!(g.num_friendships(), 1);
    assert_eq!(stats, LoadStats { skipped_lines: COPIES - 1, first_skipped: Some(3) });
    for (input, lenient) in [(&tripped, true), (&flood, true), (&tripped, false)] {
        assert_eq!(
            real_load(input.as_bytes(), lenient, guards),
            reference_load(input.as_bytes(), lenient, guards)
        );
    }
}

/// Hostile lines on both sides of the line that trips a budget: a lenient
/// load skips the ones before it and fails on it; a strict load fails on
/// the first hostile line.
#[test]
fn hostile_lines_around_a_budget_trip() {
    let input = format!("{HEADER}5\nF 0 1\nF 1 0\nF 2 2\nF 1 2\nF 3 4\nF 3 4\nR 4 4\n");
    let guards = IngestGuards { max_friendships: Some(2), ..IngestGuards::default() };
    for lenient in [false, true] {
        assert_eq!(
            real_load(input.as_bytes(), lenient, guards),
            reference_load(input.as_bytes(), lenient, guards)
        );
    }
    let err = read_augmented_lenient_guarded(input.as_bytes(), guards).unwrap_err();
    assert!(
        matches!(
            err,
            AugmentedIoError::ResourceExhausted { resource: "friendships", limit: 2, observed: 3 }
        ),
        "{err}"
    );
    let err = read_augmented_guarded(input.as_bytes(), guards).unwrap_err();
    assert!(
        matches!(err, AugmentedIoError::HostileEdge { line: 3, kind: "duplicate edge", .. }),
        "{err}"
    );
}
