//! Trace capture and replay: run the functional emulator once, keep
//! the dynamic stream in a compact shared buffer, and replay it any
//! number of times.
//!
//! Every point of an experiment grid simulates the same dynamic
//! instruction stream — only the timing model's configuration and
//! policy vary — so re-running the emulator for every point is pure
//! redundancy. A [`CapturedTrace`] keeps only what the program text
//! cannot supply: a memory reference's effective address, or a control
//! transfer's next PC and taken bit (no instruction is both).
//! Everything else is static per PC and lives in a table of decoded
//! micro-ops built once per capture. The dynamic bits are packed into
//! one byte stream with the PCs implied: each record's PC is its
//! predecessor's next PC, addresses are varint deltas, and a record
//! that is neither a memref nor a control transfer takes no bytes at
//! all — 0.2–1.5 bytes per record on the nine kernels (the private
//! `packed` module defines the encoding). The sequence number is the
//! record's position in the stream. The stream and the table are
//! shared behind [`Arc`]s by every clone and every
//! [`CompiledTrace`](crate::CompiledTrace) view.
//!
//! A capture is replayed through [`CapturedTrace::compile`], whose
//! view decodes straight from the table into the simulator's
//! `TraceSource` seam — see the [`compiled`](crate::compiled) module.
//! Replayed records are bit-identical to live emulation — pinned by
//! the tests here and by the golden statistics test in
//! `clustered-bench`.
//!
//! # Examples
//!
//! ```
//! use clustered_emu::TraceSource;
//! use clustered_workloads::{by_name, CapturedTrace};
//!
//! let gzip = by_name("gzip").unwrap();
//! let trace = CapturedTrace::capture(&gzip, 10_000);
//! assert_eq!(trace.len(), 10_000);
//!
//! // Two replays of one capture: zero re-emulation, identical streams.
//! let (mut a, mut b) = (trace.compile().replay(), trace.compile().replay());
//! for _ in 0..100 {
//!     assert_eq!(a.next_decoded(), b.next_decoded());
//! }
//! ```

use crate::packed::{PackedStream, Packer};
use crate::Workload;
use clustered_emu::{BranchKind, BranchOutcome, DynInst, EmuError, MemAccess};
use clustered_isa::{ArchReg, Inst, OpClass, Program};
use std::sync::{Arc, OnceLock};

/// Extra records captured beyond a `warmup + measure` simulation
/// window by [`CapturedTrace::for_window`].
///
/// A trace-driven run fetches ahead of commit by at most the in-flight
/// capacity of the machine (fetch queue + ROB, 544 entries for every
/// configuration in this repository); 8192 leaves an order-of-magnitude
/// margin so replayed runs never exhaust the buffer mid-measurement.
/// [The sweep executor](../clustered_bench/sweep/index.html) asserts
/// this invariant after every point.
pub const CAPTURE_MARGIN: u64 = 8_192;

/// The decoded static facts of one program slot: everything the
/// pipeline needs that does not change between dynamic visits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StaticOp {
    pub(crate) class: OpClass,
    pub(crate) srcs: [Option<ArchReg>; 2],
    pub(crate) dest: Option<ArchReg>,
    /// Memory shape `(size, is_store)` — the address is dynamic.
    pub(crate) mem: Option<(u8, bool)>,
    /// Control-transfer kind — taken/next-PC are dynamic.
    pub(crate) branch: Option<BranchKind>,
}

impl StaticOp {
    /// Decodes one static instruction. The memory shape and branch
    /// kind mirror the emulator exactly: access size and direction are
    /// fixed per opcode (8 bytes for FP), and each control-transfer
    /// opcode maps to one [`BranchKind`].
    fn decode(inst: &Inst) -> StaticOp {
        let mem = match inst {
            Inst::Load { width, .. } => Some((width.bytes() as u8, false)),
            Inst::Store { width, .. } => Some((width.bytes() as u8, true)),
            Inst::FpLoad { .. } => Some((8, false)),
            Inst::FpStore { .. } => Some((8, true)),
            _ => None,
        };
        let branch = match inst {
            Inst::Branch { .. } => Some(BranchKind::Conditional),
            Inst::Jump { .. } => Some(BranchKind::Jump),
            Inst::JumpReg { .. } => Some(BranchKind::Indirect),
            Inst::Call { .. } => Some(BranchKind::Call),
            Inst::CallReg { .. } => Some(BranchKind::IndirectCall),
            Inst::Ret => Some(BranchKind::Return),
            _ => None,
        };
        StaticOp { class: inst.op_class(), srcs: inst.sources(), dest: inst.dest(), mem, branch }
    }

    /// The table for `program`: one decoded op per text slot, indexed
    /// by PC.
    pub(crate) fn table(program: &Program) -> Arc<[StaticOp]> {
        program.text().iter().map(StaticOp::decode).collect()
    }
}

/// One dynamic instruction as the packed stream decodes it: its PC and
/// the dynamic bits the static table cannot supply. The sequence
/// number is the record's position in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    /// A memory reference's effective address or a control transfer's
    /// next PC; 0 for everything else.
    pub(crate) payload: u64,
    /// Fetch PC, which is also the slot index into the static table.
    pub(crate) pc: u32,
    /// Whether a control transfer was taken; false for everything else.
    pub(crate) taken: bool,
}

impl Record {
    fn pack(d: &DynInst) -> Record {
        Record {
            payload: d.mem.map(|m| m.addr).or(d.branch.map(|b| b.next_pc as u64)).unwrap_or(0),
            pc: d.pc,
            taken: d.branch.is_some_and(|b| b.taken),
        }
    }

    /// The memory access, if `op` (this record's slot) is a memref.
    pub(crate) fn mem(&self, op: &StaticOp) -> Option<MemAccess> {
        op.mem.map(|(size, is_store)| MemAccess { addr: self.payload, size, is_store })
    }

    /// The branch outcome, if `op` (this record's slot) is a control
    /// transfer.
    pub(crate) fn branch(&self, op: &StaticOp) -> Option<BranchOutcome> {
        op.branch.map(|kind| BranchOutcome {
            kind,
            taken: self.taken,
            next_pc: self.payload as u32,
        })
    }
}

/// A workload's dynamic instruction stream, emulated once and held in
/// one packed byte stream shared behind [`Arc`].
///
/// Cloning a `CapturedTrace` (or calling [`CapturedTrace::compile`])
/// only bumps reference counts, so one
/// capture can feed every point of an experiment grid — including
/// points running concurrently on other threads.
#[derive(Debug, Clone)]
pub struct CapturedTrace {
    pub(crate) name: String,
    pub(crate) table: Arc<[StaticOp]>,
    pub(crate) stream: Arc<PackedStream>,
    pub(crate) ended_at_halt: bool,
    /// [`CapturedTrace::checksum`], computed on first call and shared
    /// by every clone.
    checksum: Arc<OnceLock<u64>>,
}

impl CapturedTrace {
    /// Emulates `workload` from its initial state, capturing up to
    /// `max_records` dynamic instructions (fewer if the program
    /// halts first — see [`CapturedTrace::ended_at_halt`]).
    ///
    /// # Panics
    ///
    /// Panics if the workload faults during emulation; workload
    /// kernels are part of the program, not user input. User programs
    /// go through [`CapturedTrace::try_for_window`].
    pub fn capture(workload: &Workload, max_records: u64) -> CapturedTrace {
        CapturedTrace::try_capture(workload, max_records).unwrap_or_else(|e| {
            panic!("workload `{}` faulted during capture: {e}", workload.name())
        })
    }

    /// Captures enough records for a `warmup + measure` simulation
    /// window plus [`CAPTURE_MARGIN`] slack for the fetch front end.
    ///
    /// # Panics
    ///
    /// Panics if the workload faults, as [`CapturedTrace::capture`].
    pub fn for_window(workload: &Workload, warmup: u64, measure: u64) -> CapturedTrace {
        CapturedTrace::capture(workload, warmup + measure + CAPTURE_MARGIN)
    }

    /// [`CapturedTrace::for_window`] for programs that may fault, such
    /// as user-supplied kernels.
    ///
    /// # Errors
    ///
    /// The emulator's fault if the program faults inside the captured
    /// window.
    pub fn try_for_window(
        workload: &Workload,
        warmup: u64,
        measure: u64,
    ) -> Result<CapturedTrace, EmuError> {
        CapturedTrace::try_capture(workload, warmup + measure + CAPTURE_MARGIN)
    }

    /// The one capture loop behind [`CapturedTrace::capture`] and
    /// [`CapturedTrace::try_for_window`].
    fn try_capture(workload: &Workload, max_records: u64) -> Result<CapturedTrace, EmuError> {
        let table = StaticOp::table(workload.program());
        let mut packer = Packer::new();
        let mut trace = workload.trace();
        let mut ended_at_halt = false;
        for seq in 0..max_records {
            match trace.next() {
                Some(Ok(d)) => {
                    debug_assert_eq!(d.seq, seq);
                    let op = &table[d.pc as usize];
                    let r = Record::pack(&d);
                    debug_assert_eq!(
                        (r.mem(op), r.branch(op)),
                        (d.mem, d.branch),
                        "static table disagrees with the emulator at pc {}",
                        d.pc
                    );
                    packer.push(&r, op);
                }
                Some(Err(e)) => return Err(e),
                None => {
                    ended_at_halt = true;
                    break;
                }
            }
        }
        Ok(CapturedTrace {
            name: workload.name().to_string(),
            table,
            stream: Arc::new(packer.finish()),
            ended_at_halt,
            checksum: Arc::new(OnceLock::new()),
        })
    }

    /// The captured workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of captured dynamic instructions.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// Whether the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.stream.len() == 0
    }

    /// Whether the program halted before the requested record count —
    /// i.e. the capture covers the *complete* execution and a replay
    /// that drains it is legitimate rather than truncated.
    pub fn ended_at_halt(&self) -> bool {
        self.ended_at_halt
    }

    /// Size of the shared packed record stream in bytes.
    pub fn buffer_bytes(&self) -> usize {
        self.stream.bytes.len()
    }

    /// FNV-1a 64-bit checksum over the captured record stream — the
    /// trace identity stamped into run provenance, so two artifacts can
    /// be compared knowing they simulated the same dynamic instructions.
    /// Each record is hashed as the 18-byte little-endian v1 record
    /// (`addr`, `pc`, `next_pc`, `flags`) in sequence order: the same
    /// bytes for the same capture on any host. The workload name is not
    /// hashed, so the checksum is stable across renames of the same
    /// dynamic stream. Hashing walks every record, so it is computed
    /// on the first call, not at capture, and shared by every clone:
    /// a run pays for it only when an output stores it (provenance,
    /// heartbeats, decision headers).
    pub fn checksum(&self) -> u64 {
        *self.checksum.get_or_init(|| {
            self.stream
                .iter(&self.table)
                .fold(FNV_OFFSET, |hash, (r, op)| fnv1a(hash, &v1_record(&r, op)))
        })
    }
}

/// FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64-bit `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// One record in the v1 layout the checksum has always hashed, rebuilt
/// from the decoded record and its slot's static op: `addr: u64`,
/// `pc: u32`, `next_pc: u32` and a `u16` flag word, little-endian. The
/// flag word holds bit 0 memref, bit 1 store, bits 2–3 the access size
/// (0 → 1 byte, 1 → 4, 2 → 8), bit 4 control transfer, bits 5–7 its
/// [`BranchKind`] and bit 8 taken. Changing any of it moves every
/// checksum already stamped into provenance.
fn v1_record(r: &Record, op: &StaticOp) -> [u8; 18] {
    let mem = op.mem.map_or(0, |(size, is_store)| {
        let size_code = match size {
            1 => 0,
            4 => 1,
            _ => 2,
        };
        1 | u16::from(is_store) << 1 | size_code << 2
    });
    let branch = op.branch.map_or(0, |kind| {
        let kind_code = match kind {
            BranchKind::Conditional => 0,
            BranchKind::Jump => 1,
            BranchKind::Indirect => 2,
            BranchKind::Call => 3,
            BranchKind::IndirectCall => 4,
            BranchKind::Return => 5,
        };
        1 << 4 | kind_code << 5
    });
    let addr = r.mem(op).map_or(0, |m| m.addr);
    let (next_pc, taken) = r.branch(op).map_or((0, false), |b| (b.next_pc, b.taken));
    let flags: u16 = mem | branch | u16::from(taken) << 8;
    let mut out = [0; 18];
    out[..8].copy_from_slice(&addr.to_le_bytes());
    out[8..12].copy_from_slice(&r.pc.to_le_bytes());
    out[12..16].copy_from_slice(&next_pc.to_le_bytes());
    out[16..].copy_from_slice(&flags.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{by_name, PaperProfile, WorkloadClass};
    use clustered_emu::{DecodedInst, TraceSource};

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

    /// The checksum is a function of the dynamic stream alone: stable
    /// across re-captures, distinct across workloads and window sizes.
    #[test]
    fn checksum_identifies_the_dynamic_stream() {
        let w = by_name("gzip").unwrap();
        let a = CapturedTrace::capture(&w, 2_000);
        let b = CapturedTrace::capture(&w, 2_000);
        assert_eq!(a.checksum(), b.checksum(), "same capture, same checksum");
        let shorter = CapturedTrace::capture(&w, 1_999);
        assert_ne!(a.checksum(), shorter.checksum(), "window size changes the stream");
        let other = CapturedTrace::capture(&by_name("swim").unwrap(), 2_000);
        assert_ne!(a.checksum(), other.checksum(), "different workload, different stream");
        assert_eq!(CapturedTrace::capture(&w, 0).checksum(), 0xcbf2_9ce4_8422_2325);
    }

    /// Checksums are provenance: artifacts written before the record
    /// layout changed must still match. These values come from the
    /// 24-byte-record layout for 200 000-record captures.
    #[test]
    fn checksums_match_the_previous_record_layout() {
        for (name, golden) in [
            ("cjpeg", 0x9a60_c01e_7047_f05au64),
            ("crafty", 0x174b_3f6e_fc62_3a23),
            ("djpeg", 0x90e5_898a_b92f_4f49),
            ("galgel", 0xb3c2_1c32_efad_1066),
            ("gzip", 0x4672_cf87_9d8b_56c9),
            ("mgrid", 0x9d71_89c7_12ce_aafd),
            ("parser", 0xc0b3_507f_b70b_990e),
            ("swim", 0x087a_803d_e086_1cbd),
            ("vpr", 0x06d1_393e_260c_23fb),
        ] {
            let trace = CapturedTrace::capture(&by_name(name).unwrap(), 200_000);
            assert_eq!(trace.checksum(), golden, "{name}: checksum moved");
            assert_eq!(trace.clone().checksum(), golden, "{name}: clone disagrees");
        }
    }

    /// Live emulation of `w`, decoded as the simulator sees it.
    fn live(w: &Workload, records: usize) -> Vec<DecodedInst> {
        w.trace().take(records).map(|d| DecodedInst::from_dyn(&d.unwrap())).collect()
    }

    /// Every record of `captured`, replayed through its compiled view.
    fn replayed(captured: &CapturedTrace) -> Vec<DecodedInst> {
        let mut src = captured.compile().replay();
        std::iter::from_fn(|| src.next_decoded()).collect()
    }

    /// The core guarantee: replayed records equal live emulation
    /// bit-for-bit, covering ALU, memory, and branch records.
    #[test]
    fn replay_is_bit_identical_to_live_emulation() {
        for name in ["gzip", "swim", "crafty"] {
            let w = by_name(name).unwrap();
            let captured = CapturedTrace::capture(&w, 5_000);
            assert_eq!(captured.len(), 5_000);
            assert!(!captured.ended_at_halt());
            assert_eq!(live(&w, 5_000), replayed(&captured), "{name}: replay diverged");
        }
    }

    #[test]
    fn replays_are_independent_and_cheap() {
        let w = by_name("gzip").unwrap();
        let captured = CapturedTrace::capture(&w, 1_000);
        let mut a = captured.compile().replay();
        let mut b = captured.compile().replay();
        for _ in 0..500 {
            a.next_decoded();
        }
        assert_eq!(a.remaining(), 500);
        assert_eq!(b.remaining(), 1_000);
        assert_eq!(b.next_decoded().unwrap().seq, 0, "a replay must start at the beginning");
        assert_eq!(captured.buffer_bytes(), captured.stream.bytes.len());
        assert!((1..=2 * 1_000).contains(&captured.buffer_bytes()), "packed size out of range");
    }

    /// Every kernel packs to at most 2 bytes per record, an eighth of
    /// the 16-byte record it replaced (0.21 for crafty to 1.52 for
    /// galgel at 200 000 records).
    #[test]
    fn every_kernel_packs_to_at_most_two_bytes_per_record() {
        for name in crate::NAMES {
            let trace = CapturedTrace::capture(&by_name(name).unwrap(), 200_000);
            let per_record = trace.buffer_bytes() as f64 / trace.len() as f64;
            assert!(per_record <= 2.0, "{name}: {per_record:.2} bytes per record");
        }
    }

    #[test]
    fn halting_program_captures_completely() {
        let w = Workload::from_source(
            "tiny",
            "halts after a short loop",
            profile(),
            "li r1, 4\nloop: addi r1, r1, -1\n bnez r1, loop\n halt",
            Vec::new(),
        );
        let captured = CapturedTrace::capture(&w, 1_000);
        assert!(captured.ended_at_halt());
        assert_eq!(captured.len(), 9); // li + 4 × (addi + bnez)
        let bytes = &captured.stream.bytes;
        assert_eq!(bytes.capacity(), bytes.len(), "early halt must not keep the reservation");
        assert_eq!(live(&w, usize::MAX), replayed(&captured));
    }

    /// A program that faults inside the window is an error from the
    /// fallible capture and a panic from the infallible one.
    #[test]
    fn faulting_program_is_an_error() {
        let w = Workload::from_source(
            "wild",
            "jumps outside its text",
            profile(),
            "li r1, 100000000000\n jr r1",
            Vec::new(),
        );
        assert!(CapturedTrace::try_for_window(&w, 0, 10).is_err());
        assert!(std::panic::catch_unwind(|| CapturedTrace::capture(&w, 10)).is_err());
        let gzip = by_name("gzip").unwrap();
        let fallible = CapturedTrace::try_for_window(&gzip, 100, 400).unwrap();
        assert_eq!(fallible.checksum(), CapturedTrace::for_window(&gzip, 100, 400).checksum());
    }

    #[test]
    fn for_window_adds_margin() {
        let w = by_name("gzip").unwrap();
        let captured = CapturedTrace::for_window(&w, 100, 400);
        assert_eq!(captured.len() as u64, 500 + CAPTURE_MARGIN);
    }
}
