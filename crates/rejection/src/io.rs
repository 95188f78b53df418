//! Persistence for rejection-augmented graphs.
//!
//! A plain-text line format, one edge per line:
//!
//! ```text
//! # rejecto augmented graph v1: nodes=<n>
//! F <u> <v>     # undirected friendship
//! R <u> <v>     # u rejected v's request
//! ```
//!
//! OSN operators export their (friendship, rejection) logs in this shape
//! and run the detector offline; the CLI's `detect` subcommand consumes it.
//!
//! # How a file is loaded
//!
//! A load is one streaming pass and one build:
//!
//! * **Scan.** The file is streamed through the reader's buffer, never
//!   read whole, and lines are split as [`BufRead::lines`] splits them.
//!   The canonical edge line (`F` or `R`, two plain decimal ids, spaces
//!   or tabs between them) is parsed where it sits in the buffered
//!   chunk, by one pass over its bytes; only a line that straddles a
//!   refill is copied out, into one reused carry buffer. A canonical line
//!   is ASCII, so only the lines that fall through to the one general
//!   parser are checked for UTF-8, as `lines` checks every line; that
//!   parser is the only source of [`AugmentedIoError::Parse`].
//! * **Log.** Each in-range edge that is not a self-loop is appended to
//!   the [`AugmentedGraphBuilder`]'s insertion-order edge log, with no
//!   look at the edges before it. Parse errors, out-of-range ids and
//!   self-loops are settled on their own line.
//! * **Build.** The builder counting-sorts the log into the CSR segments
//!   and sorts and deduplicates each one. A repeated neighbour in a
//!   segment, or (with [`IngestGuards::reject_conflicts`]) a friend that
//!   also sits in one of the node's rejection segments, flags the pair.
//!
//! Duplicates and conflicts depend on earlier lines, and so do budget
//! trips, which count accepted edges only. The log is replayed in line
//! order, over the pairs that repeat, only when the build flags a pair,
//! when a budget's raw count passes its limit, or when the load is about
//! to stop at an error. The replay gives every line the verdict a
//! line-at-a-time loader gives it: the first hostile line in strict
//! mode, the skip count and first skipped line in lenient mode, and a
//! budget trip at its exact line in both. Lenient mode then drops the
//! hostile edges from the log, so under edge budgets the log stays
//! within about twice their sum; without one it grows with the input,
//! as a clean file of that size does.

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

use crate::{AugmentedGraph, AugmentedGraphBuilder, NodeId};
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

pub use socialgraph::io::LoadStats;

/// Errors from reading an augmented-graph file.
#[derive(Debug)]
#[non_exhaustive]
pub enum AugmentedIoError {
    /// The header line is missing or malformed.
    BadHeader {
        /// What was found instead.
        found: String,
    },
    /// An edge line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending token (or `"<end of line>"` for a truncated line).
        token: String,
        /// The unparsable content.
        content: String,
    },
    /// An edge referenced a node outside the declared node count.
    NodeOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending id.
        node: u32,
    },
    /// A structurally valid edge line that a well-formed export never
    /// contains: a self-loop, an exact duplicate of an earlier edge, or
    /// (when [`IngestGuards::reject_conflicts`] is set) a friendship that
    /// contradicts an already-recorded rejection between the same pair.
    /// Strict loads fail here; lenient loads skip and count the line.
    HostileEdge {
        /// 1-based line number.
        line: usize,
        /// What made the edge hostile (`"self-loop"`, `"duplicate edge"`,
        /// `"conflicting friend+rejection pair"`).
        kind: &'static str,
        /// First endpoint as written.
        u: u32,
        /// Second endpoint as written.
        v: u32,
    },
    /// The input would grow a resource past an explicit budget (or past a
    /// structural ceiling such as the `u32` dense-id space), so the loader
    /// refused to keep allocating. Fatal even in lenient mode: an input
    /// over budget is over budget no matter how many lines are skipped.
    ResourceExhausted {
        /// Which resource ran out (`"nodes"`, `"friendships"`,
        /// `"rejections"`, `"node ids"`).
        resource: &'static str,
        /// The configured (or structural) limit.
        limit: u64,
        /// The observed demand that exceeded it.
        observed: u64,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// An error annotated with the path of the file it came from.
    InFile {
        /// Path of the file being read.
        file: String,
        /// The underlying error (carries the 1-based line and token for
        /// parse errors).
        source: Box<AugmentedIoError>,
    },
}

impl AugmentedIoError {
    /// Wraps the error with the path of the file it came from. Callers
    /// that open files themselves attach the path at the call site, since
    /// the readers only see an anonymous `Read`.
    #[must_use]
    pub fn in_file(self, file: impl Into<String>) -> AugmentedIoError {
        AugmentedIoError::InFile { file: file.into(), source: Box::new(self) }
    }
}

impl fmt::Display for AugmentedIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AugmentedIoError::BadHeader { found } => {
                write!(f, "missing or malformed header line, found {found:?}")
            }
            AugmentedIoError::Parse { line, token, content } => {
                write!(f, "cannot parse edge line {line}: bad token {token:?} in {content:?}")
            }
            AugmentedIoError::NodeOutOfRange { line, node } => {
                write!(f, "node id {node} out of range on line {line}")
            }
            AugmentedIoError::HostileEdge { line, kind, u, v } => {
                write!(f, "hostile edge on line {line}: {kind} ({u}, {v})")
            }
            AugmentedIoError::ResourceExhausted { resource, limit, observed } => write!(
                f,
                "resource budget exhausted: {resource}: observed {observed} exceeds limit {limit}"
            ),
            AugmentedIoError::Io(e) => write!(f, "augmented-graph i/o error: {e}"),
            AugmentedIoError::InFile { file, source } => write!(f, "{file}: {source}"),
        }
    }
}

impl std::error::Error for AugmentedIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AugmentedIoError::Io(e) => Some(e),
            AugmentedIoError::InFile { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AugmentedIoError {
    fn from(e: std::io::Error) -> Self {
        AugmentedIoError::Io(e)
    }
}

const HEADER_PREFIX: &str = "# rejecto augmented graph v1: nodes=";

/// Ingest-time guards for hostile or over-sized augmented-graph files.
///
/// The default is fully permissive (no budgets, conflicts tolerated), which
/// matches the historical loader behaviour. Budgets are enforced *before*
/// allocation — a header declaring a trillion nodes fails fast instead of
/// ballooning memory — and remain fatal even in lenient mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestGuards {
    /// Maximum declared node count (`None` = unlimited).
    pub max_nodes: Option<u64>,
    /// Maximum accepted friendship lines (`None` = unlimited).
    pub max_friendships: Option<u64>,
    /// Maximum accepted rejection lines (`None` = unlimited).
    pub max_rejections: Option<u64>,
    /// Reject a friendship and a rejection between the same user pair as a
    /// [`AugmentedIoError::HostileEdge`]. Off by default: the simulator
    /// legitimately produces careless users who accept one request from a
    /// spammer and reject the next.
    pub reject_conflicts: bool,
}

impl IngestGuards {
    /// Guards that never trip: no budgets, conflicts tolerated.
    #[must_use]
    pub fn unlimited() -> Self {
        IngestGuards::default()
    }
}

/// Writes `g` in the v1 text format: the header, then node by node its
/// friendships to higher ids and the rejections it cast, each in
/// ascending neighbour order.
///
/// # Errors
///
/// Returns [`AugmentedIoError::Io`] on write failures.
pub fn write_augmented<W: Write>(g: &AugmentedGraph, writer: W) -> Result<(), AugmentedIoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{HEADER_PREFIX}{}", g.num_nodes())?;
    for u in g.nodes() {
        for &v in g.friends(u) {
            if u < v {
                write_edge_line(&mut w, b'F', u, v)?;
            }
        }
        for &v in g.rejected_by(u) {
            write_edge_line(&mut w, b'R', u, v)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Longest edge line: a kind byte, two spaces, two 10-digit `u32` ids
/// and the newline.
const EDGE_LINE_MAX: usize = 1 + 1 + 10 + 1 + 10 + 1;

/// Writes `<kind> <u> <v>\n`, the bytes `writeln!` gives, rendered back
/// to front into one stack buffer and handed over in one `write_all`.
fn write_edge_line<W: Write>(w: &mut W, kind: u8, u: NodeId, v: NodeId) -> std::io::Result<()> {
    let mut line = [0u8; EDGE_LINE_MAX];
    let mut at = EDGE_LINE_MAX - 1;
    line[at] = b'\n';
    at = put_decimal_before(&mut line, at, v.0);
    at -= 1;
    line[at] = b' ';
    at = put_decimal_before(&mut line, at, u.0);
    at -= 1;
    line[at] = b' ';
    at -= 1;
    line[at] = kind;
    w.write_all(&line[at..])
}

/// Writes the decimal digits of `n` so that they end just before `end`
/// and returns where they start.
fn put_decimal_before(buf: &mut [u8], mut end: usize, mut n: u32) -> usize {
    loop {
        end -= 1;
        buf[end] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return end;
        }
    }
}

/// Reads a v1 augmented-graph file.
///
/// # Errors
///
/// Returns a parse/header/range error as appropriate, or
/// [`AugmentedIoError::Io`] on read failures.
pub fn read_augmented<R: Read>(reader: R) -> Result<AugmentedGraph, AugmentedIoError> {
    let (g, _) = read_augmented_impl(reader, false, IngestGuards::default())?;
    Ok(g)
}

/// Like [`read_augmented`], with explicit [`IngestGuards`]: node/edge
/// budgets enforced before allocation and optional friend+rejection
/// conflict rejection.
///
/// # Errors
///
/// Everything [`read_augmented`] returns, plus
/// [`AugmentedIoError::ResourceExhausted`] when a guard trips.
pub fn read_augmented_guarded<R: Read>(
    reader: R,
    guards: IngestGuards,
) -> Result<AugmentedGraph, AugmentedIoError> {
    let (g, _) = read_augmented_impl(reader, false, guards)?;
    Ok(g)
}

/// Like [`read_augmented_guarded`], but malformed, out-of-range and
/// hostile edge lines are skipped and counted in the returned
/// [`LoadStats`] instead of failing the load. The header stays strict:
/// without a trustworthy node count nothing downstream is meaningful.
///
/// # Errors
///
/// Everything [`read_augmented_guarded`] returns except the per-line
/// errors: a bad header, a read failure or a tripped guard.
pub fn read_augmented_lenient_guarded<R: Read>(
    reader: R,
    guards: IngestGuards,
) -> Result<(AugmentedGraph, LoadStats), AugmentedIoError> {
    read_augmented_impl(reader, true, guards)
}

enum EdgeKind {
    Friend,
    Reject,
}

/// Parses one non-comment edge line against the declared node count `n`,
/// naming the offending token on failure.
fn parse_augmented_line(
    trimmed: &str,
    lineno: usize,
    n: usize,
) -> Result<(EdgeKind, u32, u32), AugmentedIoError> {
    let bad = |token: &str| AugmentedIoError::Parse {
        line: lineno,
        token: token.to_string(),
        content: trimmed.to_string(),
    };
    let mut parts = trimmed.split_whitespace();
    let kind = match parts.next() {
        Some("F") => EdgeKind::Friend,
        Some("R") => EdgeKind::Reject,
        Some(other) => return Err(bad(other)),
        None => return Err(bad("<end of line>")),
    };
    let id = |tok: Option<&str>| -> Result<u32, AugmentedIoError> {
        match tok {
            Some(t) => t.parse().map_err(|_| bad(t)),
            None => Err(bad("<end of line>")),
        }
    };
    let u = id(parts.next())?;
    let v = id(parts.next())?;
    for x in [u, v] {
        if usize::try_from(x).map_or(true, |xi| xi >= n) {
            return Err(AugmentedIoError::NodeOutOfRange { line: lineno, node: x });
        }
    }
    Ok((kind, u, v))
}

/// Parses the canonical edge line `F|R <id> <id>` straight from bytes: the
/// three fields separated by runs of spaces or tabs, nothing before or
/// after them, each id plain ASCII digits that fit a `u32` and lie below
/// `n`. Every other line, malformed or merely unusual (Unicode
/// whitespace, `+7`, an extra token), yields `None` and goes through
/// [`parse_augmented_line`], the one general parser.
fn canonical_edge(line: &[u8], n: usize) -> Option<(EdgeKind, u32, u32)> {
    canonical_prefix(line, n).and_then(|(edge, len)| (len == line.len()).then_some(edge))
}

/// Parses the fields of a canonical edge line from the start of `s` and
/// returns the edge and the length of its fields; what follows them is
/// the caller's to judge.
fn canonical_prefix(s: &[u8], n: usize) -> Option<((EdgeKind, u32, u32), usize)> {
    let kind = match s.first()? {
        b'F' => EdgeKind::Friend,
        b'R' => EdgeKind::Reject,
        _ => return None,
    };
    let (u, at) = canonical_id(s, 1, n)?;
    let (v, at) = canonical_id(s, at, n)?;
    Some(((kind, u, v), at))
}

/// One run of spaces or tabs at `s[at..]` followed by an id below `n`,
/// read in one pass, and where the id ends.
fn canonical_id(s: &[u8], mut at: usize, n: usize) -> Option<(u32, usize)> {
    let blanks = at;
    while let Some(b' ' | b'\t') = s.get(at) {
        at += 1;
    }
    let digits = at;
    let mut id = 0u32;
    while let Some(d) = s.get(at).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        id = id.checked_mul(10)?.checked_add(u32::from(d))?;
        at += 1;
    }
    let in_range = usize::try_from(id).is_ok_and(|i| i < n);
    (digits > blanks && at > digits && in_range).then_some((id, at))
}

/// The lines of a stream, split as [`BufRead::lines`] splits them but
/// read where they sit in the reader's buffer (see the module docs).
struct Lines<R> {
    reader: BufReader<R>,
    /// Where the next line starts in the reader's buffered chunk.
    at: usize,
    /// The line last handed out, when it straddled a refill and had to be
    /// copied out of the chunks it spans.
    carry: Vec<u8>,
}

impl<R: Read> Lines<R> {
    fn new(reader: R) -> Self {
        Lines { reader: BufReader::new(reader), at: 0, carry: Vec::new() }
    }

    /// Parses the next line where it sits, if the buffered chunk holds all
    /// of it and it is a canonical edge line ([`canonical_edge`]), and
    /// steps past it.
    fn canonical_edge(&mut self, n: usize) -> Option<(EdgeKind, u32, u32)> {
        let rest = &self.reader.buffer()[self.at..];
        let (edge, len) = canonical_prefix(rest, n)?;
        let len = match rest[len..] {
            [b'\n', ..] => len + 1,
            [b'\r', b'\n', ..] => len + 2,
            _ => return None,
        };
        self.at += len;
        Some(edge)
    }

    /// The next line without its `\n` or `\r\n`, or `None` at the end of
    /// the input. A line inside the buffered chunk is returned in place;
    /// only one that straddles a refill is copied.
    fn next_line(&mut self) -> std::io::Result<Option<&[u8]>> {
        self.carry.clear();
        loop {
            let start = self.at;
            let rest = &self.reader.buffer()[start..];
            if let Some(len) = rest.iter().position(|&b| b == b'\n') {
                self.at = start + len + 1;
                let mut line = &self.reader.buffer()[start..start + len];
                if !self.carry.is_empty() {
                    self.carry.extend_from_slice(line);
                    line = &self.carry;
                }
                return Ok(Some(line.strip_suffix(b"\r").unwrap_or(line)));
            }
            // No line end in the chunk: carry its tail and refill.
            self.carry.extend_from_slice(rest);
            let chunk = self.reader.buffer().len();
            self.reader.consume(chunk);
            self.at = 0;
            if self.refill()? == 0 {
                return Ok((!self.carry.is_empty()).then_some(self.carry.as_slice()));
            }
        }
    }

    /// Reads the next chunk into the emptied buffer and returns its length,
    /// 0 at the end of the input. An interrupted read is retried, as
    /// [`BufRead::read_until`] retries it.
    fn refill(&mut self) -> std::io::Result<usize> {
        loop {
            match self.reader.fill_buf() {
                Ok(chunk) => return Ok(chunk.len()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// `line` as text, checked for UTF-8 as [`BufRead::lines`] checks it.
fn utf8(line: &[u8]) -> std::io::Result<&str> {
    std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })
}

/// Input line numbers of the edge log's entries, as runs of consecutive
/// lines `(first log index, its line)`. A file without comments, blanks
/// or skipped lines is one run.
#[derive(Debug, Default)]
struct LineMap(Vec<(usize, usize)>);

impl LineMap {
    /// Records that log entry `index`, the next one, came from `line`.
    fn note(&mut self, index: usize, line: usize) {
        if self.0.last().is_none_or(|&(i, l)| l + (index - i) != line) {
            self.0.push((index, line));
        }
    }

    /// The line log entry `index` came from.
    fn line(&self, index: usize) -> usize {
        let (i, l) = self.0[self.0.partition_point(|&(i, _)| i <= index) - 1];
        l + (index - i)
    }
}

/// `(min, max)` of an unordered pair as one sortable key.
fn pair_key(u: NodeId, v: NodeId) -> u64 {
    (u64::from(u.0.min(v.0)) << 32) | u64::from(u.0.max(v.0))
}

/// Counts a skipped line. Hostile edges are found after the lines that
/// follow them, so the first skipped line is a minimum, not the first
/// line recorded.
fn skip(stats: &mut LoadStats, line: usize) {
    stats.skipped_lines += 1;
    stats.first_skipped = Some(stats.first_skipped.map_or(line, |first| first.min(line)));
}

/// Seen-edge bits of one pair in [`Load::settle`]'s replay.
const SEEN_FRIENDSHIP: u8 = 1;
const SEEN_REJECTION_UP: u8 = 2;
const SEEN_REJECTION_DOWN: u8 = 4;

/// The verdict on one edge of a pair whose earlier accepted edges are
/// `seen`: `None` accepts it and records it in `seen`. `up` tells a
/// rejection cast by the pair's smaller id from one cast by its larger.
fn classify(seen: &mut u8, rejection: bool, up: bool, conflicts: bool) -> Option<&'static str> {
    let (bit, other) = match (rejection, up) {
        (false, _) => (SEEN_FRIENDSHIP, SEEN_REJECTION_UP | SEEN_REJECTION_DOWN),
        (true, true) => (SEEN_REJECTION_UP, SEEN_FRIENDSHIP),
        (true, false) => (SEEN_REJECTION_DOWN, SEEN_FRIENDSHIP),
    };
    if *seen & bit != 0 {
        Some("duplicate edge")
    } else if conflicts && *seen & other != 0 {
        Some("conflicting friend+rejection pair")
    } else {
        *seen |= bit;
        None
    }
}

const RESOURCES: [&str; 2] = ["friendships", "rejections"];

/// One load after its header: the edge log and what settling it needs
/// (see the module docs).
struct Load {
    b: AugmentedGraphBuilder,
    lines: LineMap,
    lenient: bool,
    conflicts: bool,
    /// Friendship and rejection budgets.
    limits: [Option<u64>; 2],
    /// Friendships and rejections in the log, hostile ones included.
    raw: [u64; 2],
    /// A budget past its limit is settled once the log has this many
    /// edges: twice what the last settle kept, so a duplicate flood costs
    /// `O(L log L)` while the log stays within about twice the budgets.
    rearm: usize,
    stats: LoadStats,
}

impl Load {
    /// Logs one parsed edge line.
    fn edge(
        &mut self,
        line: usize,
        (kind, ur, vr): (EdgeKind, u32, u32),
    ) -> Result<(), AugmentedIoError> {
        if ur == vr {
            let e = AugmentedIoError::HostileEdge { line, kind: "self-loop", u: ur, v: vr };
            return self.line_error(line, e);
        }
        self.lines.note(self.b.logged(), line);
        let (u, v) = (NodeId(ur), NodeId(vr));
        let k = match kind {
            EdgeKind::Friend => {
                self.b.add_friendship(u, v);
                0
            }
            EdgeKind::Reject => {
                self.b.add_rejection(u, v);
                1
            }
        };
        self.raw[k] = self.raw[k].checked_add(1).expect("edge count fits in u64");
        if self.over_budget() && self.b.logged() >= self.rearm {
            let repeated = self.repeated_pairs();
            self.settle(repeated)?;
        }
        Ok(())
    }

    /// A line that is bad on its own: skipped and counted in lenient
    /// mode, the end of a strict load.
    fn line_error(&mut self, line: usize, e: AugmentedIoError) -> Result<(), AugmentedIoError> {
        if self.lenient {
            skip(&mut self.stats, line);
            Ok(())
        } else {
            Err(self.fail(e))
        }
    }

    /// The error a load stopped by `e` returns: a hostile edge or a budget
    /// trip on an earlier line comes first.
    fn fail(&mut self, e: AugmentedIoError) -> AugmentedIoError {
        let repeated = self.repeated_pairs();
        self.settle(repeated).err().unwrap_or(e)
    }

    fn over_budget(&self) -> bool {
        self.raw.iter().zip(self.limits).any(|(&raw, limit)| limit.is_some_and(|l| raw > l))
    }

    /// Every pair the log holds more than once, found by sorting the
    /// log's pair keys, so its cost does not grow with the declared node
    /// count. A pair may be listed more than once.
    fn repeated_pairs(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.b.log().map(|(_, [u, v])| pair_key(u, v)).collect();
        keys.sort_unstable();
        keys.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect()
    }

    /// Replays the log in line order, judging the edges of the `flagged`
    /// pairs as a line-at-a-time loader would and counting every accepted
    /// edge against its budget. Edges of other pairs are accepted
    /// unexamined: a pair that is never repeated cannot hold a hostile
    /// edge. Strict mode fails at the first hostile edge; both modes fail
    /// at a budget trip. Lenient mode drops the hostile edges from the log.
    fn settle(&mut self, mut flagged: Vec<u64>) -> Result<(), AugmentedIoError> {
        flagged.sort_unstable();
        flagged.dedup();
        let mut seen = vec![0u8; flagged.len()];
        let mut accepted = [0u64; 2];
        let mut hostile = Vec::new();
        for (i, (rejection, [u, v])) in self.b.log().enumerate() {
            let verdict = flagged
                .binary_search(&pair_key(u, v))
                .ok()
                .and_then(|p| classify(&mut seen[p], rejection, u < v, self.conflicts));
            if let Some(kind) = verdict {
                let line = self.lines.line(i);
                if !self.lenient {
                    return Err(AugmentedIoError::HostileEdge { line, kind, u: u.0, v: v.0 });
                }
                skip(&mut self.stats, line);
                hostile.push(i);
                continue;
            }
            let k = usize::from(rejection);
            accepted[k] = accepted[k].checked_add(1).expect("edge count fits in u64");
            if let Some(limit) = self.limits[k].filter(|&l| accepted[k] > l) {
                return Err(AugmentedIoError::ResourceExhausted {
                    resource: RESOURCES[k],
                    limit,
                    observed: accepted[k],
                });
            }
        }
        if !hostile.is_empty() {
            let mut dropped = hostile.into_iter().peekable();
            let (old, mut lines, mut kept) = (&self.lines, LineMap::default(), 0);
            self.b.retain(|i| {
                if dropped.next_if_eq(&i).is_some() {
                    return false;
                }
                lines.note(kept, old.line(i));
                kept += 1;
                true
            });
            self.lines = lines;
        }
        self.raw = accepted;
        self.rearm = self.b.logged().checked_mul(2).expect("log length fits in usize");
        Ok(())
    }

    /// Builds the graph, settling the log first if the build flags a
    /// repeated pair or a budget's raw count is past its limit.
    fn finish(mut self) -> Result<(AugmentedGraph, LoadStats), AugmentedIoError> {
        let mut flagged = Vec::new();
        let g = self.b.build_flagging(self.conflicts, |u, v| flagged.push(pair_key(u, v)));
        if flagged.is_empty() && !self.over_budget() {
            return Ok((g, self.stats));
        }
        drop(g);
        self.settle(flagged)?;
        Ok((self.b.build(), self.stats))
    }
}

fn read_augmented_impl<R: Read>(
    reader: R,
    lenient: bool,
    guards: IngestGuards,
) -> Result<(AugmentedGraph, LoadStats), AugmentedIoError> {
    let mut lines = Lines::new(reader);
    let header = match lines.next_line()? {
        Some(line) => utf8(line)?,
        None => return Err(AugmentedIoError::BadHeader { found: "<empty file>".to_string() }),
    };
    let n: usize = header
        .strip_prefix(HEADER_PREFIX)
        .and_then(|rest| rest.trim().parse().ok())
        .ok_or_else(|| AugmentedIoError::BadHeader { found: header.to_string() })?;

    // Gate the declared node count BEFORE anything is sized by it (the
    // build's `3·n + 1` segment offsets): a hostile header is the
    // cheapest way to demand unbounded memory. The dense `u32` id space
    // is a structural ceiling even with no configured budget.
    let declared = u64::try_from(n).expect("declared node count fits in u64");
    if declared > u64::from(u32::MAX) {
        return Err(AugmentedIoError::ResourceExhausted {
            resource: "node ids",
            limit: u64::from(u32::MAX),
            observed: declared,
        });
    }
    if let Some(max) = guards.max_nodes {
        if declared > max {
            return Err(AugmentedIoError::ResourceExhausted {
                resource: "nodes",
                limit: max,
                observed: declared,
            });
        }
    }

    let mut load = Load {
        b: AugmentedGraphBuilder::new(n),
        lines: LineMap::default(),
        lenient,
        conflicts: guards.reject_conflicts,
        limits: [guards.max_friendships, guards.max_rejections],
        raw: [0; 2],
        rearm: 0,
        stats: LoadStats::default(),
    };
    let mut lineno = 1;
    loop {
        lineno += 1;
        if let Some(edge) = lines.canonical_edge(n) {
            load.edge(lineno, edge)?;
            continue;
        }
        // I/O errors, invalid UTF-8 among them, are fatal in both modes.
        let line = match lines.next_line() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => return Err(load.fail(e.into())),
        };
        let edge = match canonical_edge(line, n) {
            Some(edge) => edge,
            None => {
                let trimmed = match utf8(line) {
                    Ok(line) => line.trim(),
                    Err(e) => return Err(load.fail(e.into())),
                };
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                match parse_augmented_line(trimmed, lineno, n) {
                    Ok(edge) => edge,
                    Err(e) => {
                        load.line_error(lineno, e)?;
                        continue;
                    }
                }
            }
        };
        load.edge(lineno, edge)?;
    }
    load.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AugmentedGraphBuilder;

    fn sample() -> AugmentedGraph {
        let mut b = AugmentedGraphBuilder::new(4);
        b.add_friendship(NodeId(0), NodeId(1));
        b.add_friendship(NodeId(2), NodeId(3));
        b.add_rejection(NodeId(1), NodeId(2));
        b.add_rejection(NodeId(3), NodeId(0));
        b.build()
    }

    #[test]
    fn roundtrips_exactly() {
        let g = sample();
        let mut buf = Vec::new();
        write_augmented(&g, &mut buf).expect("write to Vec cannot fail");
        let g2 = read_augmented(buf.as_slice()).expect("roundtrip parses");
        assert_eq!(g, g2);
    }

    #[test]
    fn preserves_rejection_direction() {
        let g = sample();
        let mut buf = Vec::new();
        write_augmented(&g, &mut buf).expect("write to Vec cannot fail");
        let g2 = read_augmented(buf.as_slice()).expect("roundtrip parses");
        assert!(g2.has_rejection(NodeId(1), NodeId(2)));
        assert!(!g2.has_rejection(NodeId(2), NodeId(1)));
    }

    #[test]
    fn rejects_missing_header() {
        let err = read_augmented("F 0 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, AugmentedIoError::BadHeader { .. }));
    }

    #[test]
    fn rejects_unknown_edge_kind() {
        let data = format!("{HEADER_PREFIX}3\nX 0 1\n");
        let err = read_augmented(data.as_bytes()).unwrap_err();
        match err {
            AugmentedIoError::Parse { line, token, .. } => {
                assert_eq!(line, 2);
                assert_eq!(token, "X");
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn parse_error_names_the_bad_endpoint_token() {
        let data = format!("{HEADER_PREFIX}3\nF 0 1\nR 1 banana\n");
        let err = read_augmented(data.as_bytes()).unwrap_err();
        match err {
            AugmentedIoError::Parse { line, token, content } => {
                assert_eq!(line, 3);
                assert_eq!(token, "banana");
                assert_eq!(content, "R 1 banana");
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn truncated_line_reports_end_of_line() {
        let data = format!("{HEADER_PREFIX}3\nF 0\n");
        let err = read_augmented(data.as_bytes()).unwrap_err();
        match err {
            AugmentedIoError::Parse { token, .. } => assert_eq!(token, "<end of line>"),
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn in_file_prepends_the_path_and_chains_the_source() {
        use std::error::Error;
        let data = format!("{HEADER_PREFIX}3\nX 0 1\n");
        let err = read_augmented(data.as_bytes()).unwrap_err().in_file("attack.rjg");
        let msg = err.to_string();
        assert!(msg.starts_with("attack.rjg: "), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
        assert!(err.source().is_some());
    }

    #[test]
    fn lenient_mode_skips_and_counts_bad_lines() {
        let data = format!("{HEADER_PREFIX}3\nF 0 1\nX 0 1\nR 1 2\nF 0 99\nR 9 bad\n");
        let (g, stats) = read_augmented_lenient_guarded(data.as_bytes(), IngestGuards::unlimited())
            .expect("lenient load");
        assert_eq!(g.num_friendships(), 1);
        assert_eq!(g.num_rejections(), 1);
        assert_eq!(stats.skipped_lines, 3);
        assert_eq!(stats.first_skipped, Some(3));
    }

    #[test]
    fn lenient_mode_still_rejects_a_bad_header() {
        let err = read_augmented_lenient_guarded("F 0 1\n".as_bytes(), IngestGuards::unlimited())
            .unwrap_err();
        assert!(matches!(err, AugmentedIoError::BadHeader { .. }));
    }

    #[test]
    fn lenient_mode_matches_strict_on_clean_input() {
        let g = sample();
        let mut buf = Vec::new();
        write_augmented(&g, &mut buf).expect("write to Vec cannot fail");
        let strict = read_augmented(buf.as_slice()).expect("strict load");
        let (lenient, stats) =
            read_augmented_lenient_guarded(buf.as_slice(), IngestGuards::unlimited())
                .expect("lenient load");
        assert_eq!(strict, lenient);
        assert!(!stats.is_degraded());
    }

    #[test]
    fn rejects_out_of_range_nodes() {
        let data = format!("{HEADER_PREFIX}2\nF 0 5\n");
        let err = read_augmented(data.as_bytes()).unwrap_err();
        assert!(matches!(err, AugmentedIoError::NodeOutOfRange { node: 5, .. }));
    }

    #[test]
    fn tolerates_comments_and_blanks() {
        let data = format!("{HEADER_PREFIX}2\n\n# comment\nF 0 1\n");
        let g = read_augmented(data.as_bytes()).expect("fixture parses");
        assert_eq!(g.num_friendships(), 1);
    }

    #[test]
    fn edge_lines_match_writeln_at_every_digit_width() {
        let mut ids = vec![0u32, u32::MAX - 1, u32::MAX];
        for p in 1..=9 {
            let x = 10u32.pow(p);
            ids.extend([x - 1, x, x + 1]);
        }
        for &u in &ids {
            for &v in &ids {
                for kind in [b'F', b'R'] {
                    let mut got = Vec::new();
                    write_edge_line(&mut got, kind, NodeId(u), NodeId(v)).expect("Vec write");
                    let want = format!("{} {u} {v}\n", char::from(kind));
                    assert_eq!(String::from_utf8(got).expect("ASCII line"), want);
                }
            }
        }
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = AugmentedGraphBuilder::new(0).build();
        let mut buf = Vec::new();
        write_augmented(&g, &mut buf).expect("write to Vec cannot fail");
        let g2 = read_augmented(buf.as_slice()).expect("roundtrip parses");
        assert_eq!(g2.num_nodes(), 0);
    }

    #[test]
    fn strict_rejects_self_loops_with_a_typed_error() {
        let data = format!("{HEADER_PREFIX}3\nF 1 1\n");
        let err = read_augmented(data.as_bytes()).unwrap_err();
        assert!(
            matches!(err, AugmentedIoError::HostileEdge { line: 2, kind: "self-loop", u: 1, v: 1 }),
            "{err}"
        );
    }

    #[test]
    fn strict_rejects_duplicate_friendships_either_order() {
        let data = format!("{HEADER_PREFIX}3\nF 0 1\nF 1 0\n");
        let err = read_augmented(data.as_bytes()).unwrap_err();
        assert!(
            matches!(err, AugmentedIoError::HostileEdge { line: 3, kind: "duplicate edge", .. }),
            "{err}"
        );
    }

    #[test]
    fn strict_rejects_duplicate_rejections_but_not_the_reverse_direction() {
        let ok = format!("{HEADER_PREFIX}3\nR 0 1\nR 1 0\n");
        read_augmented(ok.as_bytes()).expect("opposite directions are distinct edges");
        let dup = format!("{HEADER_PREFIX}3\nR 0 1\nR 0 1\n");
        let err = read_augmented(dup.as_bytes()).unwrap_err();
        assert!(
            matches!(err, AugmentedIoError::HostileEdge { kind: "duplicate edge", .. }),
            "{err}"
        );
    }

    #[test]
    fn conflicts_are_tolerated_by_default_and_rejected_on_request() {
        // A careless user accepts one request from a spammer and rejects
        // the next — legitimate in simulator output.
        let data = format!("{HEADER_PREFIX}3\nF 0 1\nR 0 1\n");
        let g = read_augmented(data.as_bytes()).expect("conflicts allowed by default");
        assert_eq!(g.num_friendships(), 1);
        assert_eq!(g.num_rejections(), 1);

        let guards = IngestGuards { reject_conflicts: true, ..IngestGuards::default() };
        let err = read_augmented_guarded(data.as_bytes(), guards).unwrap_err();
        assert!(
            matches!(
                err,
                AugmentedIoError::HostileEdge {
                    kind: "conflicting friend+rejection pair",
                    ..
                }
            ),
            "{err}"
        );
        // Reversed order (rejection first, then friendship) trips too.
        let rev = format!("{HEADER_PREFIX}3\nR 1 0\nF 0 1\n");
        let err = read_augmented_guarded(rev.as_bytes(), guards).unwrap_err();
        assert!(
            matches!(
                err,
                AugmentedIoError::HostileEdge {
                    kind: "conflicting friend+rejection pair",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn lenient_mode_skips_and_counts_hostile_edges() {
        let data = format!("{HEADER_PREFIX}3\nF 0 1\nF 0 1\nF 2 2\nR 1 2\nR 1 2\n");
        let (g, stats) = read_augmented_lenient_guarded(data.as_bytes(), IngestGuards::unlimited())
            .expect("lenient load");
        assert_eq!(g.num_friendships(), 1);
        assert_eq!(g.num_rejections(), 1);
        assert_eq!(stats.skipped_lines, 3);
        assert_eq!(stats.first_skipped, Some(3));
    }

    #[test]
    fn oversized_header_fails_before_allocating() {
        let data = format!("{HEADER_PREFIX}4294967296\n");
        let err = read_augmented(data.as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                AugmentedIoError::ResourceExhausted { resource: "node ids", .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn node_budget_gates_the_declared_count() {
        let guards = IngestGuards { max_nodes: Some(10), ..IngestGuards::default() };
        let data = format!("{HEADER_PREFIX}11\n");
        let err = read_augmented_guarded(data.as_bytes(), guards).unwrap_err();
        assert!(
            matches!(
                err,
                AugmentedIoError::ResourceExhausted { resource: "nodes", limit: 10, observed: 11 }
            ),
            "{err}"
        );
        let ok = format!("{HEADER_PREFIX}10\n");
        read_augmented_guarded(ok.as_bytes(), guards).expect("at the budget is fine");
    }

    #[test]
    fn edge_budgets_trip_even_in_lenient_mode() {
        let guards = IngestGuards {
            max_friendships: Some(1),
            max_rejections: Some(1),
            ..IngestGuards::default()
        };
        let data = format!("{HEADER_PREFIX}4\nF 0 1\nF 2 3\n");
        let err = read_augmented_lenient_guarded(data.as_bytes(), guards).unwrap_err();
        assert!(
            matches!(
                err,
                AugmentedIoError::ResourceExhausted {
                    resource: "friendships",
                    limit: 1,
                    observed: 2
                }
            ),
            "{err}"
        );
        let data = format!("{HEADER_PREFIX}4\nR 0 1\nR 2 3\n");
        let err = read_augmented_guarded(data.as_bytes(), guards).unwrap_err();
        assert!(
            matches!(
                err,
                AugmentedIoError::ResourceExhausted {
                    resource: "rejections",
                    limit: 1,
                    observed: 2
                }
            ),
            "{err}"
        );
    }
}
