//! The durable artifact store: atomic writes, checksummed checkpoint
//! frames, and generational retention with corruption-tolerant resume
//! (DESIGN.md §14).
//!
//! PRs 4–5 made the detection *runtime* survive panics, hangs, and
//! deadlines, but every durable artifact was still written with a bare
//! `std::fs::write`: a crash mid-write (or a torn sector) corrupts the
//! *only* checkpoint and silently destroys resumability. This module is
//! the sanctioned answer, and the `durable-io` xtask lint bans raw
//! persistent writes everywhere else:
//!
//! * [`atomic_write`] — temp file in the target directory → fsync the
//!   file → rename over the destination → fsync the directory. A reader
//!   sees either the old bytes or the new bytes, never a mixture.
//! * [`encode_frame`] / [`decode_frame`] — a hand-rolled CRC32 integrity
//!   envelope (`rejecto-ckpt-frame/v1 <len> <crc32>\n<payload>`) around
//!   the checkpoint JSON. Decoding rejects any single byte flip,
//!   truncation, or appended garbage, and names the offending byte
//!   offset.
//! * [`CheckpointStore`] — generational retention: each productive round
//!   writes `<stem>.gen-<round>.json` through [`atomic_write`], and the
//!   stem's directory is the only index of what exists. A generation
//!   file that exists is complete (the rename is the commit point) and
//!   checks itself (its frame), so no separate list of generations is
//!   kept. A save drops every generation numbered above its round (they
//!   belong to an earlier run of the same stem) and prunes older ones
//!   beyond a keep budget. [`CheckpointStore::load_latest_valid`] walks
//!   generations newest-first past corrupt frames, recording each skip
//!   as a [`RuntimeError::CheckpointCorrupt`], so one mangled file costs
//!   one round of progress, never the run.
//!
//! Every store failure is the [`RuntimeError`] the run reports, built
//! where it happens: a failed I/O step is [`RuntimeError::StoreFailed`],
//! and the byte ceiling is [`RuntimeError::ResourceExhausted`] on a save
//! and on a load alike.
//!
//! Fault injection ([`crate::FaultPlan`] forms `torn_write@round=N` and
//! `bit_flip@round=N`, probed through the store's own fault table) mangles
//! a just-written generation deterministically, which is how the xtask
//! harness and CI prove the fallback chain end-to-end.

use crate::checkpoint::Checkpoint;
use crate::faults::{Fault, FaultPlan, Faults};
use crate::runtime::RuntimeError;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Magic header naming the integrity-frame format.
pub const FRAME_MAGIC: &str = "rejecto-ckpt-frame/v1";

/// Default number of checkpoint generations retained (`--checkpoint-keep`).
pub const DEFAULT_CHECKPOINT_KEEP: usize = 3;

// --- CRC32 (IEEE 802.3 polynomial, reflected table-driven form) ---------

/// The byte-at-a-time lookup table for the reflected polynomial
/// `0xEDB88320`, built once on first use.
fn crc32_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (n, slot) in table.iter_mut().enumerate() {
            let mut c = u32::try_from(n).expect("table index is below 256");
            for _ in 0..8 {
                c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    })
}

/// CRC32 (IEEE) of `bytes` — the standard zlib/PNG checksum. Hand-rolled:
/// the store must stay dependency-free, and 20 lines of table-driven CRC
/// beat a crates.io supply chain for auditable durability.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = u8::try_from((crc ^ u32::from(b)) & 0xFF).expect("masked to one byte");
        crc = table[usize::from(idx)] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

// --- the integrity frame ------------------------------------------------

/// Why a byte buffer is not a valid integrity frame. `offset` is the
/// first offending byte: where a mismatching or unexpected byte sits, the
/// end of the buffer for truncations, the payload start for checksum
/// mismatches (the corruption is somewhere inside the checksummed span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// Byte offset of the first offending byte.
    pub offset: usize,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

/// Wraps `payload` in the integrity envelope:
/// `rejecto-ckpt-frame/v1 <len> <crc32-hex>\n` followed by the payload
/// bytes, exactly `len` of them. The header is ASCII so a corrupted file
/// is still diagnosable with `head -1`.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let header = format!("{FRAME_MAGIC} {} {:08x}\n", payload.len(), crc32(payload));
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Unwraps an integrity frame, returning the payload slice.
///
/// # Errors
///
/// [`FrameError`] naming the first offending byte offset: a bad magic,
/// an unparsable length or checksum field, a truncated payload, trailing
/// garbage, or a checksum mismatch. Any single byte flip anywhere in the
/// frame lands in one of those arms (CRC32 detects all burst errors up
/// to 32 bits, and every header corruption breaks the header grammar or
/// the declared length/checksum).
pub fn decode_frame(bytes: &[u8]) -> Result<&[u8], FrameError> {
    let magic = FRAME_MAGIC.as_bytes();
    for (i, &want) in magic.iter().chain(std::iter::once(&b' ')).enumerate() {
        match bytes.get(i) {
            Some(&got) if got == want => {}
            Some(_) => {
                return Err(FrameError {
                    offset: i,
                    message: format!("not a `{FRAME_MAGIC}` frame header"),
                })
            }
            None => {
                return Err(FrameError {
                    offset: bytes.len(),
                    message: "truncated inside the frame header".to_string(),
                })
            }
        }
    }
    let mut at = magic.len() + 1;

    let len_start = at;
    while matches!(bytes.get(at), Some(b) if b.is_ascii_digit()) {
        at += 1;
    }
    if at == len_start {
        return Err(FrameError {
            offset: at,
            message: "expected a decimal payload length".to_string(),
        });
    }
    let len_text =
        std::str::from_utf8(&bytes[len_start..at]).expect("ascii digits are valid utf-8");
    let payload_len: usize = len_text.parse().map_err(|_| FrameError {
        offset: len_start,
        message: format!("payload length `{len_text}` overflows usize"),
    })?;

    match bytes.get(at) {
        Some(b' ') => at += 1,
        Some(_) => {
            return Err(FrameError {
                offset: at,
                message: "expected a space before the checksum".to_string(),
            })
        }
        None => {
            return Err(FrameError {
                offset: bytes.len(),
                message: "truncated before the checksum".to_string(),
            })
        }
    }

    let crc_start = at;
    while at < crc_start + 8 {
        match bytes.get(at) {
            // Canonical lowercase only: accepting `A`–`F` would make the
            // 0x20 bit of a checksum letter semantically invisible, so a
            // single-bit flip there could pass validation.
            Some(b) if b.is_ascii_digit() || (b'a'..=b'f').contains(b) => at += 1,
            Some(_) => {
                return Err(FrameError {
                    offset: at,
                    message: "expected 8 lowercase hex digits of crc32".to_string(),
                })
            }
            None => {
                return Err(FrameError {
                    offset: bytes.len(),
                    message: "truncated inside the checksum".to_string(),
                })
            }
        }
    }
    let crc_text =
        std::str::from_utf8(&bytes[crc_start..at]).expect("ascii hex digits are valid utf-8");
    let declared =
        u32::from_str_radix(crc_text, 16).expect("eight hex digits fit in u32");

    match bytes.get(at) {
        Some(b'\n') => at += 1,
        Some(_) => {
            return Err(FrameError {
                offset: at,
                message: "expected a newline ending the frame header".to_string(),
            })
        }
        None => {
            return Err(FrameError {
                offset: bytes.len(),
                message: "truncated before the end of the frame header".to_string(),
            })
        }
    }

    let payload = &bytes[at..];
    if payload.len() < payload_len {
        return Err(FrameError {
            offset: bytes.len(),
            message: format!(
                "truncated payload: header declares {payload_len} byte(s), found {}",
                payload.len()
            ),
        });
    }
    if payload.len() > payload_len {
        return Err(FrameError {
            offset: at + payload_len,
            message: format!(
                "{} byte(s) of trailing garbage after the framed payload",
                payload.len() - payload_len
            ),
        });
    }
    let actual = crc32(payload);
    if actual != declared {
        return Err(FrameError {
            offset: at,
            message: format!(
                "checksum mismatch: header declares {declared:08x}, payload hashes \
                 to {actual:08x}"
            ),
        });
    }
    Ok(payload)
}

// --- the atomic write protocol ------------------------------------------

/// Distinguishes concurrent temp files from one process; the pid handles
/// concurrent processes.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(path: &Path, op: &str, e: &std::io::Error) -> RuntimeError {
    RuntimeError::StoreFailed {
        path: path.display().to_string(),
        op: op.to_string(),
        message: e.to_string(),
    }
}

fn corrupt(path: &Path, offset: usize, message: String) -> RuntimeError {
    RuntimeError::CheckpointCorrupt { path: path.display().to_string(), offset, message }
}

/// Writes `bytes` to `path` atomically: temp file in the target
/// directory → fsync the file → rename over `path` → fsync the
/// directory. A crash at any point leaves either the previous contents
/// or the new contents — never a prefix, never a mixture. This is the
/// only sanctioned way to produce a persistent artifact (the
/// `durable-io` lint bans bare `std::fs::write`/`File::create` outside
/// this module).
///
/// # Errors
///
/// [`RuntimeError::StoreFailed`] naming the protocol step that failed;
/// the temp file is removed best-effort on any failure after its
/// creation.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), RuntimeError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let Some(file_name) = path.file_name() else {
        return Err(RuntimeError::StoreFailed {
            path: path.display().to_string(),
            op: "resolve".to_string(),
            message: "path has no file name component".to_string(),
        });
    };
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = parent.join(format!(
        ".{}.tmp.{}.{seq}",
        file_name.to_string_lossy(),
        std::process::id()
    ));

    let write_and_sync = || -> Result<(), RuntimeError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "atomic_write itself: the temp file is fsynced and renamed into place"
        )]
        let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, "create temp", &e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, "write temp", &e))?;
        f.sync_all().map_err(|e| io_err(&tmp, "sync temp", &e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, "rename", &e))?;
        Ok(())
    };
    if let Err(e) = write_and_sync() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }

    // Publish the rename: without a directory fsync a crash can forget
    // the new directory entry even though the file data is durable.
    // Opening a directory read-only for fsync is a unix affordance.
    #[cfg(unix)]
    {
        let dir = File::open(parent).map_err(|e| io_err(parent, "open dir", &e))?;
        dir.sync_all().map_err(|e| io_err(parent, "sync dir", &e))?;
    }
    Ok(())
}

// --- the generational checkpoint store ----------------------------------

/// A resolved resume source: the newest valid checkpoint plus the audit
/// trail of everything skipped on the way to it.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreResume {
    /// The newest checkpoint that decoded and parsed cleanly.
    pub checkpoint: Checkpoint,
    /// The file it came from.
    pub path: PathBuf,
    /// Why each newer generation was skipped, newest first: a
    /// [`RuntimeError::CheckpointCorrupt`] for a bad frame or payload, a
    /// [`RuntimeError::ResourceExhausted`] for a file over the byte
    /// ceiling, a [`RuntimeError::StoreFailed`] for one that could not be
    /// read. Empty when the newest generation was used directly.
    pub skipped: Vec<RuntimeError>,
}

impl StoreResume {
    /// Whether resume had to fall back past at least one corrupt artifact.
    pub fn fell_back(&self) -> bool {
        !self.skipped.is_empty()
    }
}

/// The generational checkpoint store for one stem path.
///
/// `--checkpoint <stem>` writes `<stem>.gen-<round>.json` after every
/// productive round; `--resume <stem>` scans the stem's directory and
/// loads the newest generation whose frame and JSON both validate,
/// falling back generation-by-generation.
/// A plain pre-generational checkpoint file at `<stem>` itself (framed
/// or legacy raw JSON) still resumes, so old artifacts keep working.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    stem: PathBuf,
    keep: usize,
    faults: Faults,
    obs: Option<rejecto_obs::Obs>,
    limit: Option<u64>,
}

impl CheckpointStore {
    /// A store over `stem` retaining [`DEFAULT_CHECKPOINT_KEEP`]
    /// generations, with no faults armed and no metrics attached.
    pub fn new(stem: impl Into<PathBuf>) -> Self {
        CheckpointStore {
            stem: stem.into(),
            keep: DEFAULT_CHECKPOINT_KEEP,
            faults: Faults::default(),
            obs: None,
            limit: None,
        }
    }

    /// Retains `keep` generations (clamped to at least 1).
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Arms `plan` on the store's own fault table; the store probes its
    /// store-level faults (`torn_write@round=N`, `bit_flip@round=N`): the
    /// matching generation is mangled right after encoding, before it
    /// reaches disk. Clones of the store share the table.
    #[must_use]
    pub fn with_faults(mut self, plan: &FaultPlan) -> Self {
        self.faults = Faults::new(plan);
        self
    }

    /// Attaches a metrics registry: fallbacks and corrupt-skip tallies
    /// land in the volatile `ckpt/*` counters.
    #[must_use]
    pub fn with_obs(mut self, obs: rejecto_obs::Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Arms a checkpoint byte ceiling (the CLI's
    /// `--max-checkpoint-bytes`): saves refuse to
    /// write a larger frame, and loads refuse (on file metadata, before
    /// reading) to pull a larger artifact into memory. `None` disarms.
    #[must_use]
    pub fn with_limit(mut self, limit: Option<u64>) -> Self {
        self.limit = limit;
        self
    }

    /// `<stem>.gen-<round>.json`, the generation written after `round`.
    pub fn generation_path(&self, round: usize) -> PathBuf {
        sibling(&self.stem, &format!(".gen-{round}.json"))
    }

    /// Persists `ckpt` as the generation for its round count `r`:
    /// removes every generation numbered above `r` (left by an earlier
    /// run of the same stem, so a resume can never pick it over this
    /// run's state), writes generation `r` atomically, then prunes the
    /// older generations beyond the keep budget.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::StoreFailed`] when removing a newer generation or
    /// writing this one fails; [`RuntimeError::ResourceExhausted`] (of
    /// `"checkpoint bytes"`) when the frame exceeds the byte ceiling
    /// (nothing is written). Pruning older generations is best-effort: a
    /// surviving stale file is garbage, not corruption.
    pub fn save(&self, ckpt: &Checkpoint) -> Result<(), RuntimeError> {
        let round = ckpt.rounds;
        let mut generations = self.scan_generations();
        for &newer in generations.iter().filter(|&&g| g > round) {
            let path = self.generation_path(newer);
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(io_err(&path, "remove newer generation", &e));
                }
                _ => {}
            }
        }
        generations.retain(|&g| g < round);

        let gen_path = self.generation_path(round);
        let payload = format!("{}\n", ckpt.to_json());
        let mut bytes = encode_frame(payload.as_bytes());
        self.check_budget(u64::try_from(bytes.len()).expect("frame size fits in u64"))?;
        if let Some(mangle) = self.faults.mangle_at(round) {
            apply_mangle(&mut bytes, mangle);
        }
        atomic_write(&gen_path, &bytes)?;

        let excess = (generations.len() + 1).saturating_sub(self.keep);
        for &old in &generations[..excess] {
            let _ = std::fs::remove_file(self.generation_path(old));
        }
        Ok(())
    }

    /// Resolves the newest valid checkpoint for this stem: the
    /// generations a directory scan finds, newest first, skipping and
    /// recording each corrupt one; the plain stem file when there are no
    /// generations at all.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::StoreFailed`] with op `resolve` when generations
    /// exist but all fail validation (its message counts them);
    /// [`RuntimeError::CheckpointCorrupt`] when only a plain stem file
    /// exists and it fails, or [`RuntimeError::ResourceExhausted`] when
    /// it is over the byte ceiling; [`RuntimeError::StoreFailed`] when
    /// nothing resumable exists at all.
    pub fn load_latest_valid(&self) -> Result<StoreResume, RuntimeError> {
        let generations = self.scan_generations();
        if generations.is_empty() {
            // No generational artifacts: fall back to a plain (framed or
            // legacy raw-JSON) checkpoint file at the stem itself.
            return self.load_plain();
        }
        let mut skipped: Vec<RuntimeError> = Vec::new();
        for &round in generations.iter().rev() {
            let path = self.generation_path(round);
            match self.load_generation(&path) {
                Ok(checkpoint) => {
                    if !skipped.is_empty() {
                        if let Some(obs) = &self.obs {
                            obs.volatile_incr("ckpt/fallbacks", 1);
                        }
                    }
                    return Ok(StoreResume { checkpoint, path, skipped });
                }
                Err(e) => {
                    if let Some(obs) = &self.obs {
                        obs.volatile_incr("ckpt/corrupt_skipped", 1);
                    }
                    skipped.push(e);
                }
            }
        }
        Err(RuntimeError::StoreFailed {
            path: self.stem.display().to_string(),
            op: "resolve".to_string(),
            message: format!(
                "no valid checkpoint generation ({} candidate(s) corrupt or unreadable)",
                skipped.len()
            ),
        })
    }

    /// Fails when `observed` bytes exceed the armed `max_checkpoint_bytes`
    /// budget, counting the refusal in the volatile `res/*` tallies.
    fn check_budget(&self, observed: u64) -> Result<(), RuntimeError> {
        if let Some(limit) = self.limit {
            if observed > limit {
                if let Some(obs) = &self.obs {
                    obs.volatile_incr("res/ckpt_over_budget", 1);
                }
                return Err(RuntimeError::ResourceExhausted {
                    resource: "checkpoint bytes",
                    limit,
                    observed,
                });
            }
        }
        Ok(())
    }

    /// Reads and fully validates one generation file.
    fn load_generation(&self, path: &Path) -> Result<Checkpoint, RuntimeError> {
        let meta = std::fs::metadata(path).map_err(|e| io_err(path, "stat", &e))?;
        self.check_budget(meta.len())?;
        let bytes = std::fs::read(path).map_err(|e| io_err(path, "read", &e))?;
        let payload = decode_frame(&bytes).map_err(|e| corrupt(path, e.offset, e.message))?;
        let text = std::str::from_utf8(payload).map_err(|e| {
            corrupt(path, e.valid_up_to(), "framed payload is not utf-8".to_string())
        })?;
        Checkpoint::from_json(text).map_err(|e| {
            corrupt(path, 0, format!("frame verifies but the payload does not parse: {e}"))
        })
    }

    /// Loads a pre-generational checkpoint at the stem path itself:
    /// framed if it carries the magic, legacy raw JSON otherwise.
    fn load_plain(&self) -> Result<StoreResume, RuntimeError> {
        let path = &self.stem;
        let meta = std::fs::metadata(path).map_err(|e| io_err(path, "stat", &e))?;
        self.check_budget(meta.len())?;
        let bytes = std::fs::read(path).map_err(|e| io_err(path, "read", &e))?;
        let text = if bytes.starts_with(FRAME_MAGIC.as_bytes()) {
            let payload = decode_frame(&bytes).map_err(|e| corrupt(path, e.offset, e.message))?;
            String::from_utf8_lossy(payload).into_owned()
        } else {
            String::from_utf8_lossy(&bytes).into_owned()
        };
        let checkpoint =
            Checkpoint::from_json(&text).map_err(|e| corrupt(path, 0, e.to_string()))?;
        Ok(StoreResume { checkpoint, path: path.clone(), skipped: Vec::new() })
    }

    /// Generation rounds discovered by scanning the stem's directory for
    /// `<stem file name>.gen-<round>.json` siblings, ascending.
    fn scan_generations(&self) -> Vec<usize> {
        let parent = match self.stem.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let Some(stem_name) = self.stem.file_name().map(|n| n.to_string_lossy().into_owned())
        else {
            return Vec::new();
        };
        let prefix = format!("{stem_name}.gen-");
        let mut rounds: Vec<usize> = std::fs::read_dir(&parent)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name().to_string_lossy().into_owned();
                let middle = name.strip_prefix(&prefix)?.strip_suffix(".json")?;
                middle.parse::<usize>().ok()
            })
            .collect();
        rounds.sort_unstable();
        rounds.dedup();
        rounds
    }
}

/// `<stem's file name><suffix>` next to the stem.
fn sibling(stem: &Path, suffix: &str) -> PathBuf {
    let mut name = stem.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    name.push_str(suffix);
    stem.with_file_name(name)
}

/// Applies an injected mangle to a just-encoded frame, deterministically:
/// a torn write keeps only the first half of the bytes; a bit flip XORs
/// the low bit of the middle byte (inside the checksummed payload for
/// any real checkpoint, whose payload dwarfs the ~35-byte header).
fn apply_mangle(bytes: &mut Vec<u8>, mangle: Fault) {
    let half = bytes.len() / 2;
    match mangle {
        Fault::TornWrite { .. } => bytes.truncate(half),
        Fault::BitFlip { .. } if !bytes.is_empty() => bytes[half] ^= 0x01,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{DetectedGroup, DetectionReport};
    use kl::KParam;
    use rejection::{AugmentedGraphBuilder, NodeId};

    /// A scratch directory, removed when the test ends (also when it fails).
    struct TempDir(PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir(tag: &str) -> TempDir {
        let dir = std::env::temp_dir()
            .join(format!("rejecto-store-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        TempDir(dir)
    }

    fn sample_checkpoint(rounds: usize) -> Checkpoint {
        let mut b = AugmentedGraphBuilder::new(6);
        for u in 1..6u32 {
            b.add_friendship(NodeId(0), NodeId(u));
        }
        let g = b.build();
        let report = DetectionReport {
            groups: vec![DetectedGroup {
                nodes: vec![NodeId(2), NodeId(4)],
                acceptance_rate: 0.125,
                k: KParam::new(3, 2),
                round: 1,
            }],
            rounds,
            ..DetectionReport::default()
        };
        Checkpoint::capture(&g, &report)
    }

    #[test]
    fn crc32_matches_the_standard_test_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips() {
        for payload in [&b""[..], b"x", b"{\"a\":1}\n", &[0u8, 255, 10, 13, 0]] {
            let framed = encode_frame(payload);
            assert_eq!(decode_frame(&framed).expect("own frame decodes"), payload);
        }
    }

    #[test]
    fn truncation_is_rejected_with_the_end_offset() {
        let framed = encode_frame(b"hello checkpoint payload");
        for cut in 0..framed.len() {
            let err = decode_frame(&framed[..cut]).expect_err("truncated frame decodes");
            assert!(err.offset <= cut, "offset {} past cut {cut}", err.offset);
        }
    }

    #[test]
    fn trailing_garbage_is_rejected_at_the_first_extra_byte() {
        let framed = encode_frame(b"payload");
        let mut noisy = framed.clone();
        noisy.extend_from_slice(b"junk");
        let err = decode_frame(&noisy).expect_err("garbage accepted");
        assert_eq!(err.offset, framed.len());
        assert!(err.message.contains("trailing garbage"), "{}", err.message);
    }

    #[test]
    fn every_single_byte_change_is_detected() {
        let framed = encode_frame(b"the quick brown fox, checkpointed");
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_frame(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn checksum_mismatch_names_both_checksums() {
        let mut framed = encode_frame(b"payload-bytes");
        let last = framed.len() - 1;
        framed[last] ^= 0xFF;
        let err = decode_frame(&framed).expect_err("corrupt payload accepted");
        assert!(err.message.contains("checksum mismatch"), "{}", err.message);
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = tmpdir("atomic");
        let path = dir.join("artifact.txt");
        atomic_write(&path, b"first").expect("first write succeeds");
        atomic_write(&path, b"second").expect("overwrite succeeds");
        assert_eq!(std::fs::read(&path).expect("artifact readable"), b"second");
        // No temp litter left behind.
        let stray = std::fs::read_dir(&*dir)
            .expect("temp dir is listable")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(stray, 0, "temp files left in {}", dir.display());
    }

    #[test]
    fn save_then_load_round_trips_and_prunes() {
        let dir = tmpdir("generations");
        let store = CheckpointStore::new(dir.join("run.ckpt")).with_keep(2);
        for rounds in 1..=3 {
            store.save(&sample_checkpoint(rounds)).expect("save succeeds");
        }
        assert!(!store.generation_path(1).exists(), "generation 1 pruned");
        assert!(store.generation_path(2).exists());
        assert!(store.generation_path(3).exists());
        let resume = store.load_latest_valid().expect("latest generation loads");
        assert_eq!(resume.checkpoint.rounds, 3);
        assert_eq!(resume.path, store.generation_path(3));
        assert!(!resume.fell_back());
    }

    #[test]
    fn save_refuses_an_over_budget_frame_before_writing() {
        let dir = tmpdir("save-budget");
        let store = CheckpointStore::new(dir.join("run.ckpt")).with_limit(Some(16));
        let err = store.save(&sample_checkpoint(1)).expect_err("frame exceeds 16 bytes");
        match err {
            RuntimeError::ResourceExhausted { resource, limit, observed } => {
                assert_eq!(resource, "checkpoint bytes");
                assert_eq!(limit, 16);
                assert!(observed > 16);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert!(!store.generation_path(1).exists(), "refused frame must not be written");
    }

    /// The resolve failure's message, which counts the rejected
    /// generations.
    fn resolve_message(err: RuntimeError) -> String {
        match err {
            RuntimeError::StoreFailed { op, message, .. } if op == "resolve" => message,
            other => panic!("expected a resolve StoreFailed, got {other:?}"),
        }
    }

    #[test]
    fn load_gates_on_file_size_before_reading_the_bytes() {
        let dir = tmpdir("load-budget");
        let stem = dir.join("run.ckpt");
        CheckpointStore::new(&stem).save(&sample_checkpoint(1)).expect("save succeeds");
        CheckpointStore::new(&stem).save(&sample_checkpoint(2)).expect("save succeeds");
        // Reopening with a tiny budget rejects every on-disk generation at
        // the metadata gate; the chain exhausts to a typed error rather
        // than reading (let alone parsing) oversized bytes.
        let bounded = CheckpointStore::new(&stem).with_limit(Some(4));
        let err = bounded.load_latest_valid().expect_err("all generations over budget");
        assert_eq!(
            resolve_message(err),
            "no valid checkpoint generation (2 candidate(s) corrupt or unreadable)"
        );
        // A budget above the artifact size loads normally.
        let roomy = CheckpointStore::new(&stem).with_limit(Some(1 << 20));
        let resume = roomy.load_latest_valid().expect("within budget loads");
        assert_eq!(resume.checkpoint.rounds, 2);
    }

    #[test]
    fn corrupt_newest_generation_falls_back_to_the_previous_one() {
        let dir = tmpdir("fallback");
        let store = CheckpointStore::new(dir.join("run.ckpt"));
        store.save(&sample_checkpoint(1)).expect("save succeeds");
        store.save(&sample_checkpoint(2)).expect("save succeeds");
        // Flip one byte in the newest generation.
        let newest = store.generation_path(2);
        let mut bytes = std::fs::read(&newest).expect("generation readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        #[expect(
            clippy::disallowed_methods,
            reason = "test fixture written in place on purpose; it has no durability contract"
        )]
        std::fs::write(&newest, bytes).expect("fixture overwrite succeeds");

        let resume = store.load_latest_valid().expect("older generation survives");
        assert_eq!(resume.checkpoint.rounds, 1);
        assert!(resume.fell_back());
        assert_eq!(resume.skipped.len(), 1);
        match &resume.skipped[0] {
            RuntimeError::CheckpointCorrupt { path, message, .. } => {
                assert!(path.contains("gen-2"), "{path}");
                assert!(message.contains("checksum mismatch"), "{message}");
            }
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
    }

    /// Older builds also wrote a `<stem>.manifest` listing the
    /// generations; one left behind changes neither what a save keeps nor
    /// what a resume loads.
    #[test]
    fn a_leftover_manifest_is_ignored() {
        let dir = tmpdir("manifest");
        let stem = dir.join("run.ckpt");
        let manifest = dir.join("run.ckpt.manifest");
        #[expect(
            clippy::disallowed_methods,
            reason = "test fixture written in place on purpose; it has no durability contract"
        )]
        std::fs::write(&manifest, b"not a manifest at all").expect("fixture file is writable");
        let store = CheckpointStore::new(&stem).with_keep(2);
        for rounds in 1..=3 {
            store.save(&sample_checkpoint(rounds)).expect("save succeeds");
        }
        assert!(!store.generation_path(1).exists(), "generation 1 pruned");
        assert!(store.generation_path(2).exists());
        assert!(store.generation_path(3).exists());
        let resume = store.load_latest_valid().expect("the newest generation loads");
        assert_eq!(resume.checkpoint.rounds, 3);
        assert!(resume.skipped.is_empty(), "the manifest is no candidate: {:?}", resume.skipped);
        assert_eq!(
            std::fs::read(&manifest).expect("the leftover is untouched"),
            b"not a manifest at all"
        );
    }

    #[test]
    fn all_generations_corrupt_is_a_typed_error() {
        let dir = tmpdir("exhausted");
        let store = CheckpointStore::new(dir.join("run.ckpt"));
        store.save(&sample_checkpoint(1)).expect("save succeeds");
        #[expect(
            clippy::disallowed_methods,
            reason = "test fixture written in place on purpose; it has no durability contract"
        )]
        std::fs::write(store.generation_path(1), b"zeroed").expect("fixture overwrite succeeds");
        let err = store.load_latest_valid().expect_err("no generation survives");
        assert_eq!(
            resolve_message(err),
            "no valid checkpoint generation (1 candidate(s) corrupt or unreadable)"
        );
    }

    #[test]
    fn empty_checkpoint_file_is_corrupt_not_a_parse_panic() {
        let dir = tmpdir("empty");
        let path = dir.join("empty.ckpt");
        #[expect(
            clippy::disallowed_methods,
            reason = "test fixture written in place on purpose; it has no durability contract"
        )]
        std::fs::write(&path, b"").expect("fixture file is writable");
        let store = CheckpointStore::new(&path);
        match store.load_latest_valid() {
            Err(RuntimeError::CheckpointCorrupt { .. }) => {}
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn plain_legacy_raw_json_checkpoint_still_resumes() {
        let dir = tmpdir("legacy");
        let path = dir.join("legacy.ckpt");
        let ckpt = sample_checkpoint(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "test fixture written in place on purpose; it has no durability contract"
        )]
        std::fs::write(&path, format!("{}\n", ckpt.to_json())).expect("fixture file is writable");
        let resume = CheckpointStore::new(&path).load_latest_valid().expect("legacy loads");
        assert_eq!(resume.checkpoint, ckpt);
    }

    #[test]
    fn injected_torn_write_mangles_exactly_one_generation() {
        let dir = tmpdir("torn");
        let plan = crate::FaultPlan::parse("torn_write@round=2").expect("plan parses");
        let store = CheckpointStore::new(dir.join("run.ckpt")).with_faults(&plan);
        store.save(&sample_checkpoint(1)).expect("save succeeds");
        store.save(&sample_checkpoint(2)).expect("save succeeds");
        let resume = store.load_latest_valid().expect("fallback survives the tear");
        assert_eq!(resume.checkpoint.rounds, 1);
        assert_eq!(resume.skipped.len(), 1);
        match &resume.skipped[0] {
            RuntimeError::CheckpointCorrupt { message, .. } => {
                assert!(message.contains("truncated"), "{message}");
            }
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn injected_bit_flip_is_detected_and_skipped() {
        let dir = tmpdir("flip");
        let plan = crate::FaultPlan::parse("bit_flip@round=2").expect("plan parses");
        let store = CheckpointStore::new(dir.join("run.ckpt")).with_faults(&plan);
        store.save(&sample_checkpoint(1)).expect("save succeeds");
        store.save(&sample_checkpoint(2)).expect("save succeeds");
        let resume = store.load_latest_valid().expect("fallback survives the flip");
        assert_eq!(resume.checkpoint.rounds, 1);
        assert!(resume.fell_back());
    }
}
