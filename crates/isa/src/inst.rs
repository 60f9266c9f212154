//! Instruction definitions for the virtual ISA.
//!
//! Instructions are held as a structured enum rather than an encoded bit
//! pattern: the simulator is the only consumer, and a symbolic form keeps
//! both the assembler and the emulator simple and fully type-checked.
//! Branch and jump targets are *instruction indices* into the text
//! segment (the program counter advances by 1 per instruction).

use crate::reg::{ArchReg, FpReg, IntReg};
use std::fmt;

/// A two-operand integer ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical left shift (shift amount taken modulo 64).
    Sll,
    /// Logical right shift.
    Srl,
    /// Arithmetic right shift.
    Sra,
    /// Set-if-less-than, signed (result is 0 or 1).
    Slt,
    /// Set-if-less-than, unsigned (result is 0 or 1).
    Sltu,
}

impl AluOp {
    /// The assembler mnemonic for the register-register form.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// An integer multiply/divide operation (executes on the mul/div unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulDivOp {
    /// Low 64 bits of the signed product.
    Mul,
    /// Signed division (division by zero yields all-ones).
    Div,
    /// Signed remainder (remainder by zero yields the dividend).
    Rem,
}

impl MulDivOp {
    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MulDivOp::Mul => "mul",
            MulDivOp::Div => "div",
            MulDivOp::Rem => "rem",
        }
    }
}

/// A two-operand floating-point operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Addition (FP adder).
    Add,
    /// Subtraction (FP adder).
    Sub,
    /// Multiplication (FP multiplier).
    Mul,
    /// Division (FP divider, unpipelined).
    Div,
    /// Minimum (FP adder).
    Min,
    /// Maximum (FP adder).
    Max,
}

impl FpOp {
    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Add => "fadd",
            FpOp::Sub => "fsub",
            FpOp::Mul => "fmul",
            FpOp::Div => "fdiv",
            FpOp::Min => "fmin",
            FpOp::Max => "fmax",
        }
    }
}

/// A single-operand floating-point operation (executes on the FP adder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpUnOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Register move.
    Mov,
    /// Square root (executes on the FP divider).
    Sqrt,
}

impl FpUnOp {
    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpUnOp::Neg => "fneg",
            FpUnOp::Abs => "fabs",
            FpUnOp::Mov => "fmov",
            FpUnOp::Sqrt => "fsqrt",
        }
    }
}

/// A floating-point comparison writing 0/1 to an integer register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCmpOp {
    /// Equal.
    Eq,
    /// Less-than.
    Lt,
    /// Less-than-or-equal.
    Le,
}

impl FpCmpOp {
    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpCmpOp::Eq => "feq",
            FpCmpOp::Lt => "flt",
            FpCmpOp::Le => "fle",
        }
    }
}

/// The condition of a conditional branch comparing two integer registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less-than (signed).
    Lt,
    /// Branch if greater-or-equal (signed).
    Ge,
    /// Branch if less-than (unsigned).
    Ltu,
    /// Branch if greater-or-equal (unsigned).
    Geu,
}

impl BranchCond {
    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }

    /// Evaluates the condition on two register values.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// Width of an integer memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte, zero-extended on load.
    Byte,
    /// Four bytes, sign-extended on load.
    Word,
    /// Eight bytes.
    Double,
}

impl MemWidth {
    /// The access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Word => 4,
            MemWidth::Double => 8,
        }
    }
}

/// The second source of an ALU operation: a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register source.
    Reg(IntReg),
    /// A sign-extended immediate.
    Imm(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => r.fmt(f),
            Operand::Imm(i) => i.fmt(f),
        }
    }
}

/// One instruction of the virtual ISA.
///
/// See the [crate-level documentation](crate) for the assembler syntax
/// of each form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// `op rd, rs1, src2` — integer ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: IntReg,
        /// First source register.
        rs1: IntReg,
        /// Second source (register or immediate).
        src2: Operand,
    },
    /// `li rd, imm` — load a 64-bit immediate.
    Li {
        /// Destination register.
        rd: IntReg,
        /// Immediate value.
        imm: i64,
    },
    /// `mul/div/rem rd, rs1, rs2` — integer multiply/divide unit.
    MulDiv {
        /// Operation.
        op: MulDivOp,
        /// Destination register.
        rd: IntReg,
        /// First source register.
        rs1: IntReg,
        /// Second source register.
        rs2: IntReg,
    },
    /// `fop fd, fs1, fs2` — floating-point arithmetic.
    Fp {
        /// Operation.
        op: FpOp,
        /// Destination register.
        fd: FpReg,
        /// First source register.
        fs1: FpReg,
        /// Second source register.
        fs2: FpReg,
    },
    /// `fneg/fabs/fmov/fsqrt fd, fs` — unary floating-point operation.
    FpUn {
        /// Operation.
        op: FpUnOp,
        /// Destination register.
        fd: FpReg,
        /// Source register.
        fs: FpReg,
    },
    /// `feq/flt/fle rd, fs1, fs2` — FP compare into an integer register.
    FpCmp {
        /// Operation.
        op: FpCmpOp,
        /// Integer destination register (written 0 or 1).
        rd: IntReg,
        /// First source register.
        fs1: FpReg,
        /// Second source register.
        fs2: FpReg,
    },
    /// `fcvt fd, rs` — convert a signed integer to floating point.
    IntToFp {
        /// Destination register.
        fd: FpReg,
        /// Integer source register.
        rs: IntReg,
    },
    /// `fcvti rd, fs` — truncate a floating-point value to a signed integer.
    FpToInt {
        /// Integer destination register.
        rd: IntReg,
        /// Source register.
        fs: FpReg,
    },
    /// `fli fd, imm` — load a floating-point immediate.
    Fli {
        /// Destination register.
        fd: FpReg,
        /// Immediate value.
        imm: f64,
    },
    /// `ld/lw/lbu rd, off(rs)` — integer load.
    Load {
        /// Access width.
        width: MemWidth,
        /// Destination register.
        rd: IntReg,
        /// Base address register.
        base: IntReg,
        /// Signed byte offset.
        offset: i64,
    },
    /// `sd/sw/sb rs, off(base)` — integer store.
    Store {
        /// Access width.
        width: MemWidth,
        /// Value register.
        rs: IntReg,
        /// Base address register.
        base: IntReg,
        /// Signed byte offset.
        offset: i64,
    },
    /// `fld fd, off(rs)` — floating-point load (8 bytes).
    FpLoad {
        /// Destination register.
        fd: FpReg,
        /// Base address register.
        base: IntReg,
        /// Signed byte offset.
        offset: i64,
    },
    /// `fsd fs, off(base)` — floating-point store (8 bytes).
    FpStore {
        /// Value register.
        fs: FpReg,
        /// Base address register.
        base: IntReg,
        /// Signed byte offset.
        offset: i64,
    },
    /// `beq/bne/... rs1, rs2, target` — conditional branch.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First compared register.
        rs1: IntReg,
        /// Second compared register.
        rs2: IntReg,
        /// Target instruction index.
        target: u32,
    },
    /// `jmp target` — unconditional direct jump.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// `jr rs` — indirect jump through a register.
    JumpReg {
        /// Register holding the target instruction index.
        rs: IntReg,
    },
    /// `call target` — direct call; writes the return address to `ra`.
    Call {
        /// Target instruction index.
        target: u32,
    },
    /// `callr rs` — indirect call; writes the return address to `ra`.
    CallReg {
        /// Register holding the target instruction index.
        rs: IntReg,
    },
    /// `ret` — return through `ra`.
    Ret,
    /// `halt` — stop execution.
    Halt,
}

/// The functional class of an instruction, used by the timing simulator
/// to pick a functional unit and an execution latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU (also resolves conditional branches and jumps).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Floating-point add/compare/convert.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide / square root.
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
}

impl Inst {
    /// The functional class of this instruction.
    ///
    /// Control transfers resolve on the integer ALU, as in SimpleScalar.
    pub fn op_class(&self) -> OpClass {
        match self {
            Inst::Alu { .. } | Inst::Li { .. } => OpClass::IntAlu,
            Inst::MulDiv { op: MulDivOp::Mul, .. } => OpClass::IntMul,
            Inst::MulDiv { .. } => OpClass::IntDiv,
            Inst::Fp { op: FpOp::Mul, .. } => OpClass::FpMul,
            Inst::Fp { op: FpOp::Div, .. } => OpClass::FpDiv,
            Inst::FpUn { op: FpUnOp::Sqrt, .. } => OpClass::FpDiv,
            Inst::Fp { .. } | Inst::FpUn { .. } | Inst::FpCmp { .. } => OpClass::FpAlu,
            Inst::IntToFp { .. } | Inst::FpToInt { .. } | Inst::Fli { .. } => OpClass::FpAlu,
            Inst::Load { .. } | Inst::FpLoad { .. } => OpClass::Load,
            Inst::Store { .. } | Inst::FpStore { .. } => OpClass::Store,
            Inst::Branch { .. }
            | Inst::Jump { .. }
            | Inst::JumpReg { .. }
            | Inst::Call { .. }
            | Inst::CallReg { .. }
            | Inst::Ret
            | Inst::Halt => OpClass::IntAlu,
        }
    }

    /// Whether this instruction is any control transfer (conditional or
    /// unconditional).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Branch { .. }
                | Inst::Jump { .. }
                | Inst::JumpReg { .. }
                | Inst::Call { .. }
                | Inst::CallReg { .. }
                | Inst::Ret
        )
    }

    /// The source registers of this instruction (at most two).
    ///
    /// # Examples
    ///
    /// ```
    /// use clustered_isa::{Inst, AluOp, Operand, IntReg, ArchReg};
    /// let i = Inst::Alu {
    ///     op: AluOp::Add,
    ///     rd: IntReg::new(1).unwrap(),
    ///     rs1: IntReg::new(2).unwrap(),
    ///     src2: Operand::Reg(IntReg::new(3).unwrap()),
    /// };
    /// let srcs = i.sources();
    /// assert_eq!(srcs[0], Some(ArchReg::Int(IntReg::new(2).unwrap())));
    /// assert_eq!(srcs[1], Some(ArchReg::Int(IntReg::new(3).unwrap())));
    /// ```
    pub fn sources(&self) -> [Option<ArchReg>; 2] {
        fn int(r: IntReg) -> Option<ArchReg> {
            // Reads of the hardwired zero register carry no dependence.
            (!r.is_zero()).then_some(ArchReg::Int(r))
        }
        fn fp(r: FpReg) -> Option<ArchReg> {
            Some(ArchReg::Fp(r))
        }
        match *self {
            Inst::Alu { rs1, src2, .. } => {
                let second = match src2 {
                    Operand::Reg(r) => int(r),
                    Operand::Imm(_) => None,
                };
                [int(rs1), second]
            }
            Inst::Li { .. } | Inst::Fli { .. } => [None, None],
            Inst::MulDiv { rs1, rs2, .. } => [int(rs1), int(rs2)],
            Inst::Fp { fs1, fs2, .. } => [fp(fs1), fp(fs2)],
            Inst::FpUn { fs, .. } => [fp(fs), None],
            Inst::FpCmp { fs1, fs2, .. } => [fp(fs1), fp(fs2)],
            Inst::IntToFp { rs, .. } => [int(rs), None],
            Inst::FpToInt { fs, .. } => [fp(fs), None],
            Inst::Load { base, .. } | Inst::FpLoad { base, .. } => [int(base), None],
            Inst::Store { rs, base, .. } => [int(base), int(rs)],
            Inst::FpStore { fs, base, .. } => [int(base), fp(fs)],
            Inst::Branch { rs1, rs2, .. } => [int(rs1), int(rs2)],
            Inst::Jump { .. } | Inst::Call { .. } | Inst::Halt => [None, None],
            Inst::JumpReg { rs } | Inst::CallReg { rs } => [int(rs), None],
            Inst::Ret => [int(IntReg::RA), None],
        }
    }

    /// The destination register of this instruction, if any.
    ///
    /// Writes to the hardwired zero register report no destination.
    pub fn dest(&self) -> Option<ArchReg> {
        fn int(r: IntReg) -> Option<ArchReg> {
            (!r.is_zero()).then_some(ArchReg::Int(r))
        }
        match *self {
            Inst::Alu { rd, .. }
            | Inst::Li { rd, .. }
            | Inst::MulDiv { rd, .. }
            | Inst::FpCmp { rd, .. }
            | Inst::FpToInt { rd, .. }
            | Inst::Load { rd, .. } => int(rd),
            Inst::Fp { fd, .. }
            | Inst::FpUn { fd, .. }
            | Inst::IntToFp { fd, .. }
            | Inst::Fli { fd, .. }
            | Inst::FpLoad { fd, .. } => Some(ArchReg::Fp(fd)),
            Inst::Call { .. } | Inst::CallReg { .. } => int(IntReg::RA),
            Inst::Store { .. }
            | Inst::FpStore { .. }
            | Inst::Branch { .. }
            | Inst::Jump { .. }
            | Inst::JumpReg { .. }
            | Inst::Ret
            | Inst::Halt => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> IntReg {
        IntReg::new(i).unwrap()
    }
    fn f(i: u8) -> FpReg {
        FpReg::new(i).unwrap()
    }

    #[test]
    fn op_class_mapping() {
        assert_eq!(
            Inst::Alu { op: AluOp::Add, rd: r(1), rs1: r(2), src2: Operand::Imm(4) }.op_class(),
            OpClass::IntAlu
        );
        assert_eq!(
            Inst::MulDiv { op: MulDivOp::Mul, rd: r(1), rs1: r(2), rs2: r(3) }.op_class(),
            OpClass::IntMul
        );
        assert_eq!(
            Inst::MulDiv { op: MulDivOp::Div, rd: r(1), rs1: r(2), rs2: r(3) }.op_class(),
            OpClass::IntDiv
        );
        assert_eq!(
            Inst::Fp { op: FpOp::Mul, fd: f(1), fs1: f(2), fs2: f(3) }.op_class(),
            OpClass::FpMul
        );
        assert_eq!(Inst::FpUn { op: FpUnOp::Sqrt, fd: f(1), fs: f(2) }.op_class(), OpClass::FpDiv);
        assert_eq!(
            Inst::Load { width: MemWidth::Double, rd: r(1), base: r(2), offset: 0 }.op_class(),
            OpClass::Load
        );
        assert_eq!(Inst::Ret.op_class(), OpClass::IntAlu);
    }

    #[test]
    fn zero_register_carries_no_dependence() {
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: IntReg::ZERO,
            rs1: IntReg::ZERO,
            src2: Operand::Reg(IntReg::ZERO),
        };
        assert_eq!(i.sources(), [None, None]);
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn store_sources_include_value_and_base() {
        let i = Inst::Store { width: MemWidth::Double, rs: r(5), base: r(6), offset: 8 };
        assert_eq!(i.sources(), [Some(ArchReg::Int(r(6))), Some(ArchReg::Int(r(5)))]);
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn fp_store_mixes_register_files() {
        let i = Inst::FpStore { fs: f(3), base: r(6), offset: 0 };
        assert_eq!(i.sources(), [Some(ArchReg::Int(r(6))), Some(ArchReg::Fp(f(3)))]);
    }

    #[test]
    fn call_writes_return_address() {
        assert_eq!(Inst::Call { target: 10 }.dest(), Some(ArchReg::Int(IntReg::RA)));
        assert_eq!(Inst::Ret.sources()[0], Some(ArchReg::Int(IntReg::RA)));
    }

    #[test]
    fn control_classification() {
        assert!(Inst::Jump { target: 0 }.is_control());
        assert!(Inst::Ret.is_control());
        assert!(!Inst::Halt.is_control());
        assert!(!Inst::Li { rd: r(1), imm: 0 }.is_control());
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Eq.eval(3, 3));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Lt.eval(-1i64 as u64, 0));
        assert!(!BranchCond::Ltu.eval(-1i64 as u64, 0));
        assert!(BranchCond::Ge.eval(0, -5i64 as u64));
        assert!(BranchCond::Geu.eval(u64::MAX, 5));
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Word.bytes(), 4);
        assert_eq!(MemWidth::Double.bytes(), 8);
    }
}
