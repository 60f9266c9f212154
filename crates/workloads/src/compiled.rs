//! Compiled trace replay: the captured records decoded through the
//! per-slot static micro-op table, with no per-record re-decoding.
//!
//! This is the one way a capture is replayed. Live emulation hands out
//! [`DynInst`](clustered_emu::DynInst)s carrying the static
//! [`Inst`](clustered_isa::Inst), from which the simulator re-derives
//! the op class, source/destination registers, and domain per
//! instruction — all of which are static per PC. A [`CompiledTrace`]
//! serves [`DecodedInst`]s straight from the capture's two shared
//! buffers:
//!
//! 1. **Static micro-op table** — one `StaticOp` per program slot
//!    holding the decoded facts (class, sources, dest, the static
//!    memory shape, the control-transfer kind), built once per capture.
//!    The class doubles as the steering hint: the issue-queue domain
//!    and functional-unit group are pure functions of it.
//! 2. **Packed dynamic stream** — the capture's own byte stream:
//!    nothing for a record that is neither a memref nor a control
//!    transfer, a varint address delta for a memref, a varint next-PC
//!    delta and taken bit for a control transfer. Each PC is implied
//!    by the record before it and indexes the table, which says which
//!    of the three the record is.
//!
//! Compiling builds nothing: [`CapturedTrace::compile`] clones the two
//! `Arc`s. A replay is those two `Arc`s plus a `Copy` cursor, and each
//! record costs one table lookup and at most one varint read.
//! [`CompiledReplay::next_run`] ends a run after the first record
//! whose table entry is a control transfer, so the fetch stage still
//! gets whole basic blocks per call.
//!
//! The decoded stream is bit-identical to live emulation (pinned by the
//! capture tests and by `tests/compiled_replay.rs` for all nine
//! kernels), and the shard oracle — which fixes the *schedule*, a
//! function of the decoded stream alone — runs on this path.

use crate::capture::{CapturedTrace, StaticOp};
use crate::packed::{Cursor, PackedStream};
use clustered_emu::{DecodedInst, TraceSource};
use std::sync::Arc;

/// The pre-decoded view of a [`CapturedTrace`], made by
/// [`CapturedTrace::compile`]. It shares the capture's static table and
/// packed record stream, so cloning it (and [`CompiledTrace::replay`])
/// only bumps reference counts and sweep workers share one copy.
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    name: String,
    table: Arc<[StaticOp]>,
    stream: Arc<PackedStream>,
    ended_at_halt: bool,
}

impl CapturedTrace {
    /// The pre-decoded view of this capture (see [`CompiledTrace`]):
    /// two `Arc` clones, no copying and no decoding.
    pub fn compile(&self) -> CompiledTrace {
        CompiledTrace {
            name: self.name.clone(),
            table: Arc::clone(&self.table),
            stream: Arc::clone(&self.stream),
            ended_at_halt: self.ended_at_halt,
        }
    }
}

impl CompiledTrace {
    /// The compiled workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of compiled dynamic records.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// Whether the compiled stream is empty.
    pub fn is_empty(&self) -> bool {
        self.stream.len() == 0
    }

    /// Whether the underlying capture covers a complete execution (see
    /// [`CapturedTrace::ended_at_halt`](crate::CapturedTrace::ended_at_halt)).
    pub fn ended_at_halt(&self) -> bool {
        self.ended_at_halt
    }

    /// Number of entries in the static micro-op table — one per
    /// program text slot.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Number of basic blocks in the dynamic stream — maximal runs in
    /// which only the last record may be a control transfer, plus a
    /// branch-free tail — counted in one scan. With an unbounded
    /// budget, [`CompiledReplay::next_run`] returns exactly this many
    /// runs.
    pub fn block_count(&self) -> usize {
        // An empty stream has no tail, as if it ended on a branch.
        let (mut ends, mut last_is_branch) = (0, true);
        for (_, op) in self.stream.iter(&self.table) {
            last_is_branch = op.branch.is_some();
            ends += usize::from(last_is_branch);
        }
        ends + usize::from(!last_is_branch)
    }

    /// A fresh pre-decoded replay over the compiled stream. Cheap:
    /// clones two `Arc`s.
    pub fn replay(&self) -> CompiledReplay {
        CompiledReplay {
            table: Arc::clone(&self.table),
            stream: Arc::clone(&self.stream),
            at: self.stream.start(),
        }
    }
}

/// A cheap cloneable [`TraceSource`] replaying a [`CompiledTrace`]:
/// each record is assembled from the static table and its dynamic bits
/// — no `Program` lookup, no per-record re-decoding. Runs come from the
/// trait's default `next_run`, one record at a time.
#[derive(Debug, Clone)]
pub struct CompiledReplay {
    table: Arc<[StaticOp]>,
    stream: Arc<PackedStream>,
    at: Cursor,
}

impl CompiledReplay {
    /// Records remaining to be replayed.
    pub fn remaining(&self) -> usize {
        self.stream.len() - self.at.pos()
    }
}

impl TraceSource for CompiledReplay {
    #[inline]
    fn next_decoded(&mut self) -> Option<DecodedInst> {
        let seq = self.at.pos() as u64;
        let (r, op) = self.at.next(&self.stream, &self.table)?;
        Some(DecodedInst {
            seq,
            pc: r.pc,
            class: op.class,
            srcs: op.srcs,
            dest: op.dest,
            mem: r.mem(op),
            branch: r.branch(op),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{by_name, CapturedTrace};

    fn drain(mut src: impl TraceSource) -> Vec<DecodedInst> {
        let mut v = Vec::new();
        while let Some(d) = src.next_decoded() {
            v.push(d);
        }
        v
    }

    /// Compiling copies nothing: the capture, its clones, and every
    /// compiled view share one packed stream and one table.
    #[test]
    fn compile_shares_the_capture_buffers() {
        let w = by_name("gzip").unwrap();
        let captured = CapturedTrace::capture(&w, 1_000);
        let a = captured.compile();
        let b = captured.clone().compile();
        assert!(Arc::ptr_eq(&a.stream, &captured.stream), "compile must not copy records");
        assert!(Arc::ptr_eq(&a.stream, &b.stream), "clones must share one packed stream");
        assert!(Arc::ptr_eq(&a.table, &b.table), "clones must share one table");
    }

    /// `next_run` respects the caller's budget mid-block and resumes
    /// where it stopped, and mixed `next_decoded`/`next_run` calls
    /// stitch into the whole stream.
    #[test]
    fn next_run_budget_and_mixed_stepping() {
        let compiled = CapturedTrace::capture(&by_name("gzip").unwrap(), 2_000).compile();
        let whole = drain(compiled.replay());
        let mut src = compiled.replay();
        let mut out = Vec::new();
        let mut stitched = Vec::new();
        let mut flip = false;
        loop {
            let n = if flip {
                match src.next_decoded() {
                    Some(d) => {
                        stitched.push(d);
                        1
                    }
                    None => 0,
                }
            } else {
                out.clear();
                let n = src.next_run(3, &mut out);
                assert!(out[..n.saturating_sub(1)].iter().all(|d| d.branch.is_none()));
                stitched.extend(out.iter().copied());
                n
            };
            if n == 0 {
                break;
            }
            flip = !flip;
        }
        assert_eq!(stitched, whole);
    }
}
