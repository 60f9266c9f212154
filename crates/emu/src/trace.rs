//! Dynamic-trace records produced by the emulator and consumed by the
//! timing simulator.

use clustered_isa::Inst;

/// The kind of a dynamic control transfer, as seen by the front end.
///
/// The branch predictor treats each kind differently: conditional
/// branches consult the direction predictor, indirect transfers consult
/// only the BTB, and calls/returns additionally use the return-address
/// stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// A conditional branch.
    Conditional,
    /// A direct unconditional jump.
    Jump,
    /// An indirect jump through a register.
    Indirect,
    /// A direct call (target known at decode).
    Call,
    /// An indirect call through a register (target needs prediction).
    IndirectCall,
    /// A return.
    Return,
}

/// The resolved outcome of a dynamic control transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// What kind of transfer this is.
    pub kind: BranchKind,
    /// Whether the transfer was taken (always true except for
    /// untaken conditional branches).
    pub taken: bool,
    /// The next instruction index actually executed.
    pub next_pc: u32,
}

/// A resolved memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// The effective byte address.
    pub addr: u64,
    /// Access size in bytes (1, 4, or 8).
    pub size: u8,
    /// True for stores, false for loads.
    pub is_store: bool,
}

/// One dynamically executed instruction: the static instruction plus
/// everything the timing model needs about its resolution (effective
/// address, branch outcome).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInst {
    /// Position in the dynamic instruction stream (0-based).
    pub seq: u64,
    /// The instruction index this was fetched from.
    pub pc: u32,
    /// The static instruction (query [`Inst::sources`], [`Inst::dest`],
    /// [`Inst::op_class`] for dependence and scheduling information).
    pub inst: Inst,
    /// The memory access, for loads and stores.
    pub mem: Option<MemAccess>,
    /// The control-transfer outcome, for branches/jumps/calls/returns.
    pub branch: Option<BranchOutcome>,
}

impl DynInst {
    /// The instruction index executed after this instruction.
    pub fn next_pc(&self) -> u32 {
        match self.branch {
            Some(b) => b.next_pc,
            None => self.pc + 1,
        }
    }

    /// Whether this is a conditional branch.
    pub fn is_conditional_branch(&self) -> bool {
        matches!(self.branch, Some(BranchOutcome { kind: BranchKind::Conditional, .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pc_fall_through_and_taken() {
        let base = DynInst { seq: 0, pc: 10, inst: Inst::Halt, mem: None, branch: None };
        assert_eq!(base.next_pc(), 11);
        let taken = DynInst {
            branch: Some(BranchOutcome { kind: BranchKind::Conditional, taken: true, next_pc: 3 }),
            ..base
        };
        assert_eq!(taken.next_pc(), 3);
        assert!(taken.is_conditional_branch());
        assert!(!base.is_conditional_branch());
    }
}
