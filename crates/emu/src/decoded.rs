//! Pre-decoded dynamic instructions and the [`TraceSource`] seam.
//!
//! The timing simulator needs, per dynamic instruction, exactly the
//! *decoded* facts: op class, source/destination registers, the memory
//! access, and the branch outcome. Historically it consumed
//! [`DynInst`] records (which carry the full static
//! [`Inst`](clustered_isa::Inst)) through an `Iterator<Item = DynInst>`
//! bound and re-derived those facts per instruction in its dispatch
//! stage. [`TraceSource`] generalizes that seam: any instruction
//! source hands the pipeline [`DecodedInst`] entries, so decode work
//! happens once per source record — or, for a compiled trace
//! (`clustered-workloads`' `CompiledTrace`), once per *static program
//! slot* ahead of time.
//!
//! Every `Iterator<Item = DynInst>` is a `TraceSource` through the
//! blanket impl (decoding on the fly), so live emulation needs no
//! changes at its call sites.

use crate::trace::{BranchOutcome, DynInst, MemAccess};
use clustered_isa::{ArchReg, OpClass};

/// One dynamic instruction, fully decoded for the timing model: the
/// scheduling facts a pipeline stage needs, with no reference back to
/// the static [`Inst`](clustered_isa::Inst) or the program text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedInst {
    /// Position in the dynamic instruction stream (0-based).
    pub seq: u64,
    /// The instruction index this was fetched from.
    pub pc: u32,
    /// Functional class (also determines the functional-unit group and
    /// issue-queue domain, which are pure functions of the class).
    pub class: OpClass,
    /// Source registers, at most two. Zero-register reads carry no
    /// dependence and appear as `None`; a store's second source is its
    /// data value.
    pub srcs: [Option<ArchReg>; 2],
    /// Destination register (zero-register writes report `None`).
    pub dest: Option<ArchReg>,
    /// The memory access, for loads and stores.
    pub mem: Option<MemAccess>,
    /// The control-transfer outcome, for branches/jumps/calls/returns.
    pub branch: Option<BranchOutcome>,
}

impl DecodedInst {
    /// Decodes a [`DynInst`] by querying its static instruction —
    /// the per-record decode the blanket [`TraceSource`] impl performs.
    pub fn from_dyn(d: &DynInst) -> DecodedInst {
        DecodedInst {
            seq: d.seq,
            pc: d.pc,
            class: d.inst.op_class(),
            srcs: d.inst.sources(),
            dest: d.inst.dest(),
            mem: d.mem,
            branch: d.branch,
        }
    }
}

/// A source of pre-decoded dynamic instructions for the timing model.
///
/// Implementors must uphold the **run contract** of
/// [`next_run`](TraceSource::next_run): a control transfer ends a run,
/// so only the final appended entry of any run may carry a branch
/// outcome. The fetch stage relies on this to process run bodies
/// without per-instruction branch checks and to consult its branch
/// predictor once per run tail.
pub trait TraceSource {
    /// The next decoded instruction, or `None` once the source is
    /// exhausted.
    fn next_decoded(&mut self) -> Option<DecodedInst>;

    /// Appends up to `max` decoded instructions to `out`, stopping
    /// early after appending a control transfer, and returns how many
    /// were appended. Returns 0 only when the source is exhausted (or
    /// `max` is 0); entries before the last appended one never carry a
    /// branch outcome.
    fn next_run(&mut self, max: usize, out: &mut Vec<DecodedInst>) -> usize {
        let mut n = 0;
        while n < max {
            let Some(d) = self.next_decoded() else { break };
            let ends_run = d.branch.is_some();
            out.push(d);
            n += 1;
            if ends_run {
                break;
            }
        }
        n
    }
}

impl<I: Iterator<Item = DynInst>> TraceSource for I {
    fn next_decoded(&mut self) -> Option<DecodedInst> {
        self.next().map(|d| DecodedInst::from_dyn(&d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{BranchKind, BranchOutcome};
    use clustered_isa::{ArchReg, Inst, IntReg, MemWidth};

    fn dyn_inst(seq: u64, pc: u32, inst: Inst, branch: Option<BranchOutcome>) -> DynInst {
        DynInst { seq, pc, inst, mem: None, branch }
    }

    #[test]
    fn from_dyn_decodes_class_sources_and_dest() {
        let r = |i| IntReg::new(i).unwrap();
        let load = DynInst {
            seq: 7,
            pc: 3,
            inst: Inst::Load { width: MemWidth::Double, rd: r(1), base: r(2), offset: 8 },
            mem: Some(MemAccess { addr: 64, size: 8, is_store: false }),
            branch: None,
        };
        let d = DecodedInst::from_dyn(&load);
        assert_eq!(d.seq, 7);
        assert_eq!(d.pc, 3);
        assert_eq!(d.class, OpClass::Load);
        assert_eq!(d.srcs, [Some(ArchReg::Int(r(2))), None]);
        assert_eq!(d.dest, Some(ArchReg::Int(r(1))));
        assert_eq!(d.mem, load.mem);
        assert_eq!(d.branch, None);
    }

    #[test]
    fn iterator_blanket_impl_decodes_on_the_fly() {
        let outcome = BranchOutcome { kind: BranchKind::Jump, taken: true, next_pc: 0 };
        let stream = vec![
            dyn_inst(0, 0, Inst::Li { rd: IntReg::new(1).unwrap(), imm: 1 }, None),
            dyn_inst(1, 1, Inst::Jump { target: 0 }, Some(outcome)),
        ];
        let mut src = stream.into_iter();
        let a = src.next_decoded().unwrap();
        assert_eq!((a.seq, a.class), (0, OpClass::IntAlu));
        let b = src.next_decoded().unwrap();
        assert_eq!(b.branch, Some(outcome));
        assert!(src.next_decoded().is_none());
    }

    /// The default `next_run` stops after a branch and at `max`, and
    /// never places a branch anywhere but the run tail.
    #[test]
    fn default_next_run_ends_at_branches_and_max() {
        let jump = |seq, pc| {
            dyn_inst(
                seq,
                pc,
                Inst::Jump { target: 0 },
                Some(BranchOutcome { kind: BranchKind::Jump, taken: true, next_pc: 0 }),
            )
        };
        let alu =
            |seq, pc| dyn_inst(seq, pc, Inst::Li { rd: IntReg::new(1).unwrap(), imm: 0 }, None);
        let mut src = vec![alu(0, 0), alu(1, 1), jump(2, 2), alu(3, 0), alu(4, 1)].into_iter();
        let mut out = Vec::new();
        assert_eq!(src.next_run(8, &mut out), 3, "run ends at the branch");
        assert!(out[..2].iter().all(|d| d.branch.is_none()));
        assert!(out[2].branch.is_some());
        out.clear();
        assert_eq!(src.next_run(1, &mut out), 1, "max caps a run mid-block");
        assert_eq!(out[0].seq, 3);
        out.clear();
        assert_eq!(src.next_run(8, &mut out), 1, "trace tail ends the final run");
        assert_eq!(src.next_run(8, &mut out), 1 - 1, "exhausted source yields 0");
    }
}
