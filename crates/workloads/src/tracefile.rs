//! Versioned on-disk trace format (`.ctrace`): persist a
//! [`CapturedTrace`] so expensive captures are paid once per *machine*
//! rather than once per process, and can be shared across binaries,
//! CI runs, and hosts.
//!
//! # File layout (version 1, all integers little-endian)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 8 | magic `b"CTRACE\x1a\x00"` |
//! | 8  | 4 | format version (`u32`, currently 1) |
//! | 12 | 4 | flags (`u32`; bit 0 = `ended_at_halt`, others reserved-zero) |
//! | 16 | 8 | record count (`u64`) |
//! | 24 | 4 | workload-name length in bytes (`u32`) |
//! | 28 | 4 | program-text length in bytes (`u32`) |
//! | 32 | — | workload name (UTF-8) |
//! | …  | — | program text: the text segment as assembler source, one instruction per line (UTF-8) |
//! | …  | — | packed records, 18 bytes each: `addr: u64`, `pc: u32`, `next_pc: u32`, `flags: u16` |
//! | …  | 8 | FNV-1a 64 checksum of every preceding byte |
//!
//! The program-text section lets [`CapturedTrace::replay`] recover
//! static instructions without the source workload: disassembly
//! re-assembles to bit-identical instructions (pinned by the
//! round-trip tests here and in `clustered-isa`). Only the text
//! segment is persisted — the data segment and symbol table are not
//! needed for replay, since every memory effect is in the records.
//!
//! # Correctness posture
//!
//! File input is untrusted, so the load path is `Result`-typed and
//! validated end to end: [`CapturedTrace::load`] returns a
//! [`TraceFileError`] for bad magic, unsupported versions or flags,
//! truncated sections, checksum mismatches, malformed records, record
//! PCs outside the program text, records whose flag words disagree
//! with the static instruction at their PC (a store with no address, a
//! phantom branch), and records carrying a field their flags do not
//! call for (an address on an ALU op) — never a panic. Every accepted
//! record re-encodes to exactly its file bytes, so a loaded trace's
//! [`CapturedTrace::checksum`] covers what the file says.
//! Corruption-matrix tests flip and truncate every section to pin
//! this down; the class check is what
//! lets the timing pipeline treat "memref without an address" as
//! unreachable-from-file-input rather than a latent panic.
//!
//! # Capture cache
//!
//! [`capture_cached`] keys files by `<workload>-<records>.ctrace`
//! inside a cache directory (usually `$CLUSTERED_TRACE_CACHE`, see
//! [`env_cache_dir`]): a warm run loads the file and skips emulation
//! entirely; a cold, stale, or corrupt entry falls back to a fresh
//! capture and rewrites the file. Cached entries are validated against
//! the *current* workload (name, program text, window) so an outdated
//! kernel never silently replays the wrong stream.

use crate::capture::{Record, StaticOp};
use crate::{CapturedTrace, Workload, CAPTURE_MARGIN};
use clustered_emu::BranchKind;
use clustered_isa::{assemble, disassemble};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First eight bytes of every `.ctrace` file. The `\x1a` (DOS EOF)
/// byte guards against text-mode corruption the way PNG's magic does.
pub const MAGIC: [u8; 8] = *b"CTRACE\x1a\x00";

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// Header flag: the capture covers the complete execution (the program
/// halted before the requested record count).
const FLAG_ENDED_AT_HALT: u32 = 1 << 0;

/// All flag bits a version-1 writer can produce.
const KNOWN_FLAGS: u32 = FLAG_ENDED_AT_HALT;

/// Fixed-size header length in bytes.
const HEADER_LEN: usize = 32;

/// On-disk size of one record.
const RECORD_LEN: usize = 18;

// The record flag word. Every bit but `TAKEN_BIT` is a function of the
// static instruction at the record's PC.
const MEM_BIT: u16 = 1 << 0;
const STORE_BIT: u16 = 1 << 1;
const SIZE_SHIFT: u16 = 2; // two bits: 0 → 1 byte, 1 → 4, 2 → 8
const BRANCH_BIT: u16 = 1 << 4;
const KIND_SHIFT: u16 = 5; // three bits, `kind_code` order
const TAKEN_BIT: u16 = 1 << 8;

/// Trailing checksum length in bytes.
const TRAILER_LEN: usize = 8;

/// Environment variable naming the capture-cache directory.
pub const TRACE_CACHE_ENV: &str = "CLUSTERED_TRACE_CACHE";

/// Why a `.ctrace` file could not be loaded. Every malformed input maps
/// to a variant here — the load path has no panic reachable from file
/// bytes.
#[derive(Debug)]
pub enum TraceFileError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a `.ctrace` file.
    BadMagic,
    /// The file's format version is not one this reader understands.
    UnsupportedVersion(u32),
    /// The header carries flag bits unknown to this version.
    UnsupportedFlags(u32),
    /// The file ends before a section is complete.
    Truncated {
        /// Which section was cut short.
        section: &'static str,
        /// Bytes the section needed (from its start).
        needed: u64,
        /// Bytes actually available for it.
        have: u64,
    },
    /// The file continues past the checksum trailer.
    TrailingData {
        /// Number of unexpected trailing bytes.
        extra: u64,
    },
    /// The whole-file checksum does not match the contents.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        expected: u64,
        /// Checksum computed over the file body.
        found: u64,
    },
    /// The name or program-text section is not valid UTF-8.
    BadUtf8 {
        /// Which section failed to decode.
        section: &'static str,
    },
    /// The program-text section failed to re-assemble.
    BadProgramText(String),
    /// A record's fetch PC lies outside the program text — replaying it
    /// would fetch a nonexistent instruction.
    RecordPcOutOfText {
        /// Index of the offending record.
        index: u64,
        /// The out-of-range PC.
        pc: u32,
        /// Length of the reconstructed text segment.
        text_len: usize,
    },
    /// A record carries something the encoder never writes: unknown
    /// flag bits, an address without a memory access, or a next PC or
    /// taken bit without a control transfer.
    InvalidRecord {
        /// Index of the offending record.
        index: u64,
        /// The malformed flag word.
        flags: u16,
    },
    /// A record's flag word disagrees with the static instruction at
    /// its PC — e.g. a store with no memory address, or a branch
    /// record on an ALU op. Replaying such a record would feed the
    /// timing model state the emulator can never produce.
    RecordClassMismatch {
        /// Index of the offending record.
        index: u64,
        /// The record's fetch PC.
        pc: u32,
        /// What disagreed.
        detail: &'static str,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "I/O error: {e}"),
            TraceFileError::BadMagic => write!(f, "not a .ctrace file (bad magic)"),
            TraceFileError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v} (this reader understands {FORMAT_VERSION})")
            }
            TraceFileError::UnsupportedFlags(flags) => {
                write!(f, "unknown header flags {flags:#x}")
            }
            TraceFileError::Truncated { section, needed, have } => {
                write!(f, "truncated {section} section: needs {needed} bytes, {have} available")
            }
            TraceFileError::TrailingData { extra } => {
                write!(f, "{extra} unexpected bytes after the checksum trailer")
            }
            TraceFileError::ChecksumMismatch { expected, found } => {
                write!(f, "checksum mismatch: trailer says {expected:#018x}, contents hash to {found:#018x}")
            }
            TraceFileError::BadUtf8 { section } => {
                write!(f, "{section} section is not valid UTF-8")
            }
            TraceFileError::BadProgramText(e) => {
                write!(f, "program text does not re-assemble: {e}")
            }
            TraceFileError::RecordPcOutOfText { index, pc, text_len } => {
                write!(
                    f,
                    "record {index} fetches pc {pc}, outside the {text_len}-instruction program text"
                )
            }
            TraceFileError::InvalidRecord { index, flags } => {
                write!(f, "record {index} (flags {flags:#06x}) carries a field the encoder never writes")
            }
            TraceFileError::RecordClassMismatch { index, pc, detail } => {
                write!(f, "record {index} (pc {pc}): {detail}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// FNV-1a 64-bit offset basis: the hash of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64-bit `hash` — dependency-free
/// integrity check (this is corruption detection, not cryptography).
pub(crate) fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn kind_code(kind: BranchKind) -> u16 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Jump => 1,
        BranchKind::Indirect => 2,
        BranchKind::Call => 3,
        BranchKind::IndirectCall => 4,
        BranchKind::Return => 5,
    }
}

/// The flag bits the static instruction fixes: everything but
/// `TAKEN_BIT`.
fn static_flags(op: &StaticOp) -> u16 {
    let mem = op.mem.map_or(0, |(size, is_store)| {
        // Access sizes are 1, 4 or 8 bytes.
        let size_code = match size {
            1 => 0,
            4 => 1,
            _ => 2,
        };
        MEM_BIT | size_code << SIZE_SHIFT | if is_store { STORE_BIT } else { 0 }
    });
    let branch = op.branch.map_or(0, |kind| BRANCH_BIT | kind_code(kind) << KIND_SHIFT);
    mem | branch
}

/// One record in the file layout (`addr`, `pc`, `next_pc`, `flags`),
/// rebuilt from the compact record and its slot's static op. The
/// record section of [`CapturedTrace::to_bytes`] and
/// [`CapturedTrace::checksum`] both hash exactly these bytes.
pub(crate) fn encode_record(r: &Record, op: &StaticOp) -> [u8; RECORD_LEN] {
    let addr = r.mem(op).map_or(0, |m| m.addr);
    let (next_pc, taken) = r.branch(op).map_or((0, false), |b| (b.next_pc, b.taken));
    let flags = static_flags(op) | if taken { TAKEN_BIT } else { 0 };
    let mut out = [0; RECORD_LEN];
    out[..8].copy_from_slice(&addr.to_le_bytes());
    out[8..12].copy_from_slice(&r.pc.to_le_bytes());
    out[12..16].copy_from_slice(&next_pc.to_le_bytes());
    out[16..].copy_from_slice(&flags.to_le_bytes());
    out
}

/// What a record's flag word gets wrong about the static instruction at
/// its PC, if anything: the emulator emits a memory access exactly for
/// loads and stores (with the matching direction and width) and a
/// branch outcome exactly for control transfers (with the kind the
/// opcode implies). Replaying a mismatched record would hand the timing
/// model impossible state — e.g. a store with no address.
fn class_mismatch(op: &StaticOp, flags: u16) -> Option<&'static str> {
    let diff = flags ^ static_flags(op);
    let (is_mem, is_branch) = (op.mem.is_some(), op.branch.is_some());
    if diff & MEM_BIT != 0 {
        Some(if is_mem {
            "a load/store instruction without a memory record"
        } else {
            "a memory record on a non-memref instruction"
        })
    } else if is_mem && diff & STORE_BIT != 0 {
        Some("record store direction disagrees with the instruction")
    } else if is_mem && diff & (0b11 << SIZE_SHIFT) != 0 {
        Some("record access size disagrees with the instruction")
    } else if diff & BRANCH_BIT != 0 {
        Some(if is_branch {
            "a control transfer without a branch record"
        } else {
            "a branch record on a non-control instruction"
        })
    } else if is_branch && diff & (0b111 << KIND_SHIFT) != 0 {
        Some("record branch kind disagrees with the instruction")
    } else {
        None
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(bytes[at..at + 2].try_into().expect("caller checked length"))
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("caller checked length"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("caller checked length"))
}

impl CapturedTrace {
    /// Serializes this capture into the `.ctrace` byte format (see the
    /// [module documentation](self) for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let text_src: String = self
            .program
            .text()
            .iter()
            .map(disassemble)
            .collect::<Vec<_>>()
            .join("\n");
        let name = self.name.as_bytes();
        let mut out = Vec::with_capacity(
            HEADER_LEN + name.len() + text_src.len() + self.records.len() * RECORD_LEN + TRAILER_LEN,
        );
        out.extend_from_slice(&MAGIC);
        push_u32(&mut out, FORMAT_VERSION);
        push_u32(&mut out, if self.ended_at_halt { FLAG_ENDED_AT_HALT } else { 0 });
        push_u64(&mut out, self.records.len() as u64);
        push_u32(&mut out, u32::try_from(name.len()).expect("workload name fits u32"));
        push_u32(&mut out, u32::try_from(text_src.len()).expect("program text fits u32"));
        out.extend_from_slice(name);
        out.extend_from_slice(text_src.as_bytes());
        for r in self.records.iter() {
            out.extend_from_slice(&encode_record(r, &self.table[r.pc as usize]));
        }
        let checksum = fnv1a(FNV_OFFSET, &out);
        push_u64(&mut out, checksum);
        out
    }

    /// Parses and validates a `.ctrace` byte image.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFileError`] describing the first problem found;
    /// no malformed input panics. Structural checks (magic, version,
    /// flags, section lengths) come before the checksum so a version
    /// bump reports [`TraceFileError::UnsupportedVersion`] rather than
    /// a useless mismatch; content checks (UTF-8, re-assembly, record
    /// validation) come after, so they only ever see bytes the
    /// checksum has vouched for.
    pub fn from_bytes(bytes: &[u8]) -> Result<CapturedTrace, TraceFileError> {
        if bytes.len() < HEADER_LEN {
            return Err(TraceFileError::Truncated {
                section: "header",
                needed: HEADER_LEN as u64,
                have: bytes.len() as u64,
            });
        }
        if bytes[..8] != MAGIC {
            return Err(TraceFileError::BadMagic);
        }
        let version = read_u32(bytes, 8);
        if version != FORMAT_VERSION {
            return Err(TraceFileError::UnsupportedVersion(version));
        }
        let flags = read_u32(bytes, 12);
        if flags & !KNOWN_FLAGS != 0 {
            return Err(TraceFileError::UnsupportedFlags(flags));
        }
        let record_count = read_u64(bytes, 16);
        let name_len = read_u32(bytes, 24) as u64;
        let text_len = read_u32(bytes, 28) as u64;

        // Section boundaries in u128 so a hostile record count cannot
        // overflow the arithmetic.
        let len = bytes.len() as u128;
        let name_end = HEADER_LEN as u128 + name_len as u128;
        let text_end = name_end + text_len as u128;
        let records_end = text_end + record_count as u128 * RECORD_LEN as u128;
        let total = records_end + TRAILER_LEN as u128;
        let truncated = |section, start: u128, end: u128| TraceFileError::Truncated {
            section,
            needed: (end - start) as u64,
            have: len.saturating_sub(start).min(u64::MAX as u128) as u64,
        };
        if len < name_end {
            return Err(truncated("name", HEADER_LEN as u128, name_end));
        }
        if len < text_end {
            return Err(truncated("program text", name_end, text_end));
        }
        if len < records_end {
            return Err(truncated("records", text_end, records_end));
        }
        if len < total {
            return Err(truncated("checksum", records_end, total));
        }
        if len > total {
            return Err(TraceFileError::TrailingData { extra: (len - total) as u64 });
        }

        let records_end = records_end as usize;
        let expected = read_u64(bytes, records_end);
        let found = fnv1a(FNV_OFFSET, &bytes[..records_end]);
        if expected != found {
            return Err(TraceFileError::ChecksumMismatch { expected, found });
        }

        let name_end = name_end as usize;
        let text_end = text_end as usize;
        let name = std::str::from_utf8(&bytes[HEADER_LEN..name_end])
            .map_err(|_| TraceFileError::BadUtf8 { section: "name" })?
            .to_string();
        let text_src = std::str::from_utf8(&bytes[name_end..text_end])
            .map_err(|_| TraceFileError::BadUtf8 { section: "program text" })?;
        let program =
            assemble(text_src).map_err(|e| TraceFileError::BadProgramText(e.to_string()))?;
        let table = StaticOp::table(&program);

        let mut records = Vec::with_capacity(record_count as usize);
        for (index, raw) in bytes[text_end..records_end].chunks_exact(RECORD_LEN).enumerate() {
            let index = index as u64;
            let pc = read_u32(raw, 8);
            let flags = read_u16(raw, 16);
            let Some(op) = table.get(pc as usize) else {
                return Err(TraceFileError::RecordPcOutOfText { index, pc, text_len: table.len() });
            };
            // The flag word must agree with the static instruction the
            // PC names: the timing pipeline relies on every load/store
            // carrying an address (and nothing else carrying one), so a
            // mismatched record is rejected here instead of surfacing
            // as corrupt simulator state mid-run.
            if let Some(detail) = class_mismatch(op, flags) {
                return Err(TraceFileError::RecordClassMismatch { index, pc, detail });
            }
            let record = Record {
                payload: if op.mem.is_some() { read_u64(raw, 0) } else { read_u32(raw, 12) as u64 },
                pc,
                taken: flags & TAKEN_BIT != 0,
            };
            // Anything the compact record cannot hold (unknown flag
            // bits, a stray address, next PC or taken bit) is something
            // the encoder never writes; rejecting it keeps the checksum
            // of a loaded trace equal to what its file says.
            if encode_record(&record, op) != raw {
                return Err(TraceFileError::InvalidRecord { index, flags });
            }
            records.push(record);
        }

        Ok(CapturedTrace::from_parts(
            name,
            Arc::new(program),
            table,
            records,
            flags & FLAG_ENDED_AT_HALT != 0,
        ))
    }

    /// Writes this capture to `path` in the `.ctrace` format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::Io`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceFileError> {
        std::fs::write(path, self.to_bytes()).map_err(TraceFileError::Io)
    }

    /// Reads and validates a `.ctrace` file.
    ///
    /// # Errors
    ///
    /// As for [`CapturedTrace::from_bytes`], plus
    /// [`TraceFileError::Io`] if the file cannot be read.
    pub fn load(path: impl AsRef<Path>) -> Result<CapturedTrace, TraceFileError> {
        let bytes = std::fs::read(path).map_err(TraceFileError::Io)?;
        CapturedTrace::from_bytes(&bytes)
    }
}

/// The capture-cache directory from `$CLUSTERED_TRACE_CACHE`, if set.
pub fn env_cache_dir() -> Option<PathBuf> {
    std::env::var_os(TRACE_CACHE_ENV).filter(|v| !v.is_empty()).map(PathBuf::from)
}

/// The cache file for a `(workload, record count)` pair. The count is
/// part of the key so different capture windows never collide.
pub fn cache_path(dir: &Path, workload_name: &str, max_records: u64) -> PathBuf {
    dir.join(format!("{workload_name}-{max_records}.ctrace"))
}

/// Whether a loaded trace can stand in for capturing `workload` with
/// `max_records`: same name, same program text, and a complete window
/// (exact count, or a shorter capture that legitimately ended at halt).
fn cache_hit(trace: &CapturedTrace, workload: &Workload, max_records: u64) -> bool {
    trace.name() == workload.name()
        && trace.program().text() == workload.program().text()
        && (trace.len() as u64 == max_records
            || (trace.ended_at_halt() && (trace.len() as u64) < max_records))
}

/// Captures `workload` through the capture cache: a valid cached
/// `.ctrace` is loaded (skipping emulation entirely); a miss captures
/// live and writes the cache for the next run. With `cache_dir: None`
/// this is exactly [`CapturedTrace::capture`].
///
/// Cache problems are never fatal: stale entries (changed kernel,
/// wrong window), corrupt files, and unwritable directories all fall
/// back to a live capture with a warning on stderr.
pub fn capture_cached(
    workload: &Workload,
    max_records: u64,
    cache_dir: Option<&Path>,
) -> CapturedTrace {
    let Some(dir) = cache_dir else {
        return CapturedTrace::capture(workload, max_records);
    };
    let path = cache_path(dir, workload.name(), max_records);
    match CapturedTrace::load(&path) {
        Ok(trace) if cache_hit(&trace, workload, max_records) => return trace,
        Ok(_) => {
            eprintln!(
                "warning: trace cache {} is stale (workload changed?); re-capturing",
                path.display()
            );
        }
        Err(TraceFileError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            eprintln!("warning: unusable trace cache {}: {e}; re-capturing", path.display());
        }
    }
    let trace = CapturedTrace::capture(workload, max_records);
    if let Err(e) = std::fs::create_dir_all(dir).map_err(TraceFileError::Io).and_then(|()| trace.save(&path))
    {
        eprintln!("warning: cannot write trace cache {}: {e}", path.display());
    }
    trace
}

/// [`capture_cached`] sized for a `warmup + measure` simulation window
/// plus [`CAPTURE_MARGIN`] — the cache-aware analogue of
/// [`CapturedTrace::for_window`].
pub fn capture_for_window_cached(
    workload: &Workload,
    warmup: u64,
    measure: u64,
    cache_dir: Option<&Path>,
) -> CapturedTrace {
    capture_cached(workload, warmup + measure + CAPTURE_MARGIN, cache_dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{by_name, PaperProfile, WorkloadClass};
    use clustered_emu::DynInst;

    fn profile() -> PaperProfile {
        PaperProfile {
            class: WorkloadClass::SpecInt,
            base_ipc: 0.0,
            mispredict_interval: 0,
            min_stable_interval: 0,
            instability_at_10k: 0.0,
            distant_ilp: false,
        }
    }

    /// A small workload touching memory, branches, and calls, so its
    /// records exercise every packed field.
    fn tiny_workload() -> Workload {
        Workload::from_source(
            "tiny",
            "short halting kernel for trace-file tests",
            profile(),
            ".data\nbuf: .space 32\n.text\n\
             start: la r2, buf\n li r1, 6\n\
             loop: sd r1, 0(r2)\n ld r3, 0(r2)\n call bump\n bnez r1, loop\n halt\n\
             bump: addi r1, r1, -1\n ret",
            Vec::new(),
        )
    }

    fn tiny_bytes() -> Vec<u8> {
        let trace = CapturedTrace::capture(&tiny_workload(), 1_000);
        assert!(trace.ended_at_halt());
        trace.to_bytes()
    }

    /// Rewrites the trailer after a test mutates the body, so content
    /// checks past the checksum can be exercised in isolation.
    fn fix_checksum(bytes: &mut [u8]) {
        let body = bytes.len() - TRAILER_LEN;
        let sum = fnv1a(FNV_OFFSET, &bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }

    /// The tentpole guarantee: save → load → replay is bit-identical
    /// to live emulation, across integer, FP, memory, and call-heavy
    /// streams.
    #[test]
    fn round_trip_replay_is_bit_identical_to_live_emulation() {
        for name in ["gzip", "swim", "crafty"] {
            let w = by_name(name).unwrap();
            let captured = CapturedTrace::capture(&w, 5_000);
            let loaded = CapturedTrace::from_bytes(&captured.to_bytes())
                .unwrap_or_else(|e| panic!("{name}: round trip failed: {e}"));
            assert_eq!(loaded.name(), captured.name());
            assert_eq!(loaded.len(), captured.len());
            assert_eq!(loaded.ended_at_halt(), captured.ended_at_halt());
            let live: Vec<DynInst> = w.trace().take(5_000).map(Result::unwrap).collect();
            let replayed: Vec<DynInst> = loaded.replay().collect();
            assert_eq!(live, replayed, "{name}: loaded replay diverged from live emulation");
        }
    }

    /// The file format is pinned byte for byte: these lengths and
    /// whole-file checksums (the trailer) were produced by the encoder
    /// of the earlier 24-byte in-memory record, so files written by
    /// either version load in the other.
    #[test]
    fn file_bytes_match_the_previous_writer() {
        let tiny = tiny_bytes();
        assert_eq!((tiny.len(), read_u64(&tiny, tiny.len() - 8)), (825, 0x5dc3_bd85_204c_d1c8));
        let gzip = CapturedTrace::capture(&by_name("gzip").unwrap(), 5_000).to_bytes();
        assert_eq!((gzip.len(), read_u64(&gzip, gzip.len() - 8)), (90_863, 0x36dc_7f1b_5b1d_73d2));
    }

    /// The trace checksum is FNV-1a over exactly the record section of
    /// the file, for captured and loaded traces alike.
    #[test]
    fn checksum_is_the_hash_of_the_record_section() {
        for trace in [
            CapturedTrace::capture(&tiny_workload(), 1_000),
            CapturedTrace::capture(&by_name("crafty").unwrap(), 3_000),
        ] {
            let bytes = trace.to_bytes();
            let records = bytes.len() - TRAILER_LEN - trace.len() * RECORD_LEN;
            let section = fnv1a(FNV_OFFSET, &bytes[records..bytes.len() - TRAILER_LEN]);
            assert_eq!(trace.checksum(), section, "{}", trace.name());
            assert_eq!(CapturedTrace::from_bytes(&bytes).unwrap().checksum(), section);
        }
    }

    /// Every built-in kernel's program text must survive the
    /// disassemble → assemble encoding used by the program section.
    #[test]
    fn all_workload_programs_reassemble_exactly() {
        for w in crate::all() {
            let src: String =
                w.program().text().iter().map(clustered_isa::disassemble).collect::<Vec<_>>().join("\n");
            let back = assemble(&src).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(w.program().text(), back.text(), "{}: text diverged", w.name());
        }
    }

    #[test]
    fn halting_capture_round_trips_completely() {
        let w = tiny_workload();
        let captured = CapturedTrace::capture(&w, 1_000);
        assert!(captured.ended_at_halt());
        let loaded = CapturedTrace::from_bytes(&captured.to_bytes()).unwrap();
        assert!(loaded.ended_at_halt());
        let live: Vec<DynInst> = w.trace().map(Result::unwrap).collect();
        let replayed: Vec<DynInst> = loaded.replay().collect();
        assert_eq!(live, replayed);
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let dir = test_dir("save-load");
        let path = dir.join("tiny.ctrace");
        let trace = CapturedTrace::capture(&tiny_workload(), 1_000);
        trace.save(&path).unwrap();
        let loaded = CapturedTrace::load(&path).unwrap();
        assert_eq!(
            loaded.replay().collect::<Vec<_>>(),
            trace.replay().collect::<Vec<_>>()
        );
        let missing = CapturedTrace::load(dir.join("absent.ctrace"));
        assert!(matches!(missing, Err(TraceFileError::Io(_))));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The corruption matrix: every tampered section yields its typed
    /// error, never a panic.
    #[test]
    fn corruption_matrix_yields_typed_errors() {
        let good = tiny_bytes();
        assert!(CapturedTrace::from_bytes(&good).is_ok());

        // Magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(CapturedTrace::from_bytes(&bad), Err(TraceFileError::BadMagic)));

        // Version bump.
        let mut bad = good.clone();
        bad[8] = 2;
        assert!(matches!(
            CapturedTrace::from_bytes(&bad),
            Err(TraceFileError::UnsupportedVersion(2))
        ));

        // Unknown header flag.
        let mut bad = good.clone();
        bad[12] |= 0x80;
        assert!(matches!(
            CapturedTrace::from_bytes(&bad),
            Err(TraceFileError::UnsupportedFlags(_))
        ));

        // A flipped byte in the name, program-text, and records
        // sections is caught by the whole-file checksum.
        let name_len = read_u32(&good, 24) as usize;
        let text_len = read_u32(&good, 28) as usize;
        for at in [HEADER_LEN, HEADER_LEN + name_len, HEADER_LEN + name_len + text_len + 3] {
            let mut bad = good.clone();
            bad[at] ^= 0x55;
            assert!(
                matches!(
                    CapturedTrace::from_bytes(&bad),
                    Err(TraceFileError::ChecksumMismatch { .. })
                ),
                "flip at {at}"
            );
        }

        // A flipped checksum byte.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            CapturedTrace::from_bytes(&bad),
            Err(TraceFileError::ChecksumMismatch { .. })
        ));

        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            CapturedTrace::from_bytes(&bad),
            Err(TraceFileError::TrailingData { extra: 1 })
        ));

        // Record count inflated to claim more bytes than any real file
        // could hold (would overflow naive size arithmetic).
        let mut bad = good.clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            CapturedTrace::from_bytes(&bad),
            Err(TraceFileError::Truncated { section: "records", .. })
        ));

        // A record PC past the end of the program text (checksum
        // refreshed so only the content check can object).
        let first_record = HEADER_LEN + name_len + text_len;
        let mut bad = good.clone();
        bad[first_record + 8..first_record + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        fix_checksum(&mut bad);
        assert!(matches!(
            CapturedTrace::from_bytes(&bad),
            Err(TraceFileError::RecordPcOutOfText { index: 0, pc: u32::MAX, .. })
        ));

        // Fields the encoder never writes, each on record 0 (`la`, an
        // ALU op): unknown flag bits, an address without MEM_BIT, a next
        // PC without BRANCH_BIT, and TAKEN_BIT without BRANCH_BIT.
        assert_eq!(read_u16(&good, first_record + 16) & (MEM_BIT | BRANCH_BIT), 0);
        let stray: [(usize, &[u8]); 4] = [
            (17, &[0xff]),
            (0, &[1]),
            (12, &[1]),
            (17, &[(TAKEN_BIT >> 8) as u8]),
        ];
        for (offset, patch) in stray {
            let mut bad = good.clone();
            let at = first_record + offset;
            bad[at..at + patch.len()].copy_from_slice(patch);
            fix_checksum(&mut bad);
            assert!(
                matches!(
                    CapturedTrace::from_bytes(&bad),
                    Err(TraceFileError::InvalidRecord { index: 0, .. })
                ),
                "stray byte at record offset {offset}"
            );
        }

        // Program text replaced with garbage of the same length.
        let mut bad = good.clone();
        for b in &mut bad[HEADER_LEN + name_len..HEADER_LEN + name_len + text_len] {
            *b = b'?';
        }
        fix_checksum(&mut bad);
        assert!(matches!(
            CapturedTrace::from_bytes(&bad),
            Err(TraceFileError::BadProgramText(_))
        ));

        // Non-UTF-8 name of the same length.
        let mut bad = good.clone();
        bad[HEADER_LEN] = 0xff;
        fix_checksum(&mut bad);
        assert!(matches!(
            CapturedTrace::from_bytes(&bad),
            Err(TraceFileError::BadUtf8 { section: "name" })
        ));
    }

    /// Records whose flag words disagree with their static instruction
    /// — a store with no address, a mislabelled direction, a phantom
    /// branch — are rejected with [`TraceFileError::RecordClassMismatch`]
    /// instead of surfacing as corrupt pipeline state mid-simulation.
    #[test]
    fn record_class_mismatches_yield_typed_errors() {
        let good = tiny_bytes();
        let name_len = read_u32(&good, 24) as usize;
        let text_len = read_u32(&good, 28) as usize;
        let first_record = HEADER_LEN + name_len + text_len;
        let flags_at = |bytes: &[u8], index: usize| -> u16 {
            read_u16(bytes, first_record + index * RECORD_LEN + 16)
        };
        let with_flags = |index: usize, flags: u16| -> Vec<u8> {
            let mut bad = good.clone();
            let at = first_record + index * RECORD_LEN + 16;
            bad[at..at + 2].copy_from_slice(&flags.to_le_bytes());
            fix_checksum(&mut bad);
            bad
        };
        // Dynamic record order of `tiny_workload`'s first iteration:
        // la(0) li(1) sd(2) ld(3) call(4) addi(5) ret(6) bnez(7).
        let (alu, store, load, call) = (0usize, 2usize, 3usize, 4usize);
        assert_eq!(flags_at(&good, store) & (MEM_BIT | STORE_BIT), MEM_BIT | STORE_BIT);
        assert_eq!(flags_at(&good, load) & (MEM_BIT | STORE_BIT), MEM_BIT);
        assert_ne!(flags_at(&good, call) & BRANCH_BIT, 0);

        let cases: [(usize, u16, &str); 7] = [
            // A store record stripped of its memory access: exactly the
            // shape that used to reach `expect("store without an
            // address")` deep in the pipeline.
            (store, flags_at(&good, store) & !(MEM_BIT | STORE_BIT | (0b11 << SIZE_SHIFT)), "without a memory record"),
            (alu, flags_at(&good, alu) | MEM_BIT, "non-memref"),
            (store, flags_at(&good, store) & !STORE_BIT, "direction"),
            (load, flags_at(&good, load) | STORE_BIT, "direction"),
            (call, flags_at(&good, call) & !(BRANCH_BIT | (0b111 << KIND_SHIFT)), "without a branch record"),
            (alu, flags_at(&good, alu) | BRANCH_BIT, "non-control"),
            (store, (flags_at(&good, store) & !(0b11 << SIZE_SHIFT)) | (0b01 << SIZE_SHIFT), "access size"),
        ];
        for (index, flags, needle) in cases {
            let bad = with_flags(index, flags);
            match CapturedTrace::from_bytes(&bad) {
                Err(e @ TraceFileError::RecordClassMismatch { index: i, .. }) => {
                    assert_eq!(i, index as u64, "wrong record blamed");
                    let msg = e.to_string();
                    assert!(msg.contains(needle), "error {msg:?} does not mention {needle:?}");
                }
                other => panic!("record {index} flags {flags:#06x}: expected RecordClassMismatch, got {other:?}"),
            }
        }

        // A mismatched branch *kind* on an otherwise-valid control
        // record: call(3) rewritten as a return(5).
        let call_flags = flags_at(&good, call);
        let bad = with_flags(call, (call_flags & !(0b111 << KIND_SHIFT)) | (5 << KIND_SHIFT));
        assert!(matches!(
            CapturedTrace::from_bytes(&bad),
            Err(TraceFileError::RecordClassMismatch { detail, .. }) if detail.contains("branch kind")
        ));
    }

    /// Exhaustive truncation sweep: every strict prefix of a valid file
    /// must return `Truncated` — the only variant a shortened but
    /// otherwise intact file can produce — and must never panic.
    #[test]
    fn every_truncated_prefix_errors() {
        let good = tiny_bytes();
        for cut in 0..good.len() {
            match CapturedTrace::from_bytes(&good[..cut]) {
                Err(TraceFileError::Truncated { .. }) => {}
                other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
            }
        }
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ctrace-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Cold → warm → stale: the cache captures once, then loads, and a
    /// changed kernel under the same name is detected and re-captured
    /// rather than silently replaying the wrong stream.
    #[test]
    fn capture_cache_hits_and_detects_staleness() {
        let dir = test_dir("cache");
        let w = by_name("gzip").unwrap();
        let cold = capture_cached(&w, 2_000, Some(&dir));
        let path = cache_path(&dir, "gzip", 2_000);
        assert!(path.exists(), "cold run must write the cache file");

        let warm = capture_cached(&w, 2_000, Some(&dir));
        assert_eq!(
            warm.replay().collect::<Vec<_>>(),
            cold.replay().collect::<Vec<_>>(),
            "warm load diverged from the cold capture"
        );

        // Same name + record count, different program: must miss.
        let impostor = Workload::from_source(
            "gzip",
            "a different kernel wearing gzip's name",
            profile(),
            "start: addi r1, r1, 1\n jmp start",
            Vec::new(),
        );
        let fresh = capture_cached(&impostor, 2_000, Some(&dir));
        assert_eq!(fresh.len(), 2_000);
        assert_ne!(
            fresh.replay().next().unwrap().pc,
            u32::MAX, // touch the stream so the capture is exercised
        );
        assert_eq!(
            fresh.program().text(),
            impostor.program().text(),
            "stale cache entry served for a changed program"
        );

        // A corrupt cache file falls back to live capture and rewrites.
        std::fs::write(&path, b"garbage").unwrap();
        let recovered = capture_cached(&w, 2_000, Some(&dir));
        assert_eq!(
            recovered.replay().collect::<Vec<_>>(),
            cold.replay().collect::<Vec<_>>()
        );
        assert!(CapturedTrace::load(&path).is_ok(), "corrupt entry must be rewritten");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A halting workload's shorter-than-requested capture is a
    /// legitimate cache hit for the same window.
    #[test]
    fn halting_captures_hit_the_cache() {
        let dir = test_dir("halt-cache");
        let w = tiny_workload();
        let cold = capture_cached(&w, 1_000, Some(&dir));
        assert!(cold.ended_at_halt());
        let warm = capture_cached(&w, 1_000, Some(&dir));
        assert_eq!(warm.len(), cold.len());
        assert!(warm.ended_at_halt());
        assert_eq!(
            warm.replay().collect::<Vec<_>>(),
            cold.replay().collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn window_helper_matches_margin() {
        let w = by_name("gzip").unwrap();
        let t = capture_for_window_cached(&w, 100, 400, None);
        assert_eq!(t.len() as u64, 500 + CAPTURE_MARGIN);
    }
}
