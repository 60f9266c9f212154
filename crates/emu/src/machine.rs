//! The functional emulator.

use crate::memory::Memory;
use crate::trace::{BranchKind, BranchOutcome, DynInst, MemAccess};
use clustered_isa::{
    AluOp, FpCmpOp, FpOp, FpUnOp, Inst, MemWidth, MulDivOp, Operand, Program, DATA_BASE, STACK_BASE,
};
use std::error::Error;
use std::fmt;

/// An execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The program counter left the text segment without halting.
    PcOutOfRange {
        /// The offending instruction index.
        pc: u32,
        /// The length of the text segment.
        text_len: usize,
    },
    /// An indirect control transfer (`jr`/`callr`/`ret`) targeted an
    /// instruction index outside the text segment. Checked against the
    /// full 64-bit register value: a corrupted jump-table entry above
    /// `u32::MAX` faults here instead of being silently truncated to a
    /// bogus-but-valid-looking PC.
    IndirectTargetOutOfRange {
        /// The PC of the faulting indirect branch.
        pc: u32,
        /// The full untruncated target register value.
        target: u64,
        /// The length of the text segment.
        text_len: usize,
    },
    /// `step` was called after the machine halted.
    Halted,
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange { pc, text_len } => {
                write!(f, "pc {pc} outside text segment of {text_len} instructions")
            }
            EmuError::IndirectTargetOutOfRange { pc, target, text_len } => {
                write!(
                    f,
                    "indirect branch at pc {pc} targets {target}, outside text \
                     segment of {text_len} instructions"
                )
            }
            EmuError::Halted => write!(f, "machine has halted"),
        }
    }
}

impl Error for EmuError {}

/// The architectural machine: registers, memory, and a program.
///
/// Stepping the machine executes one instruction and yields the
/// [`DynInst`] trace record the timing simulator consumes.
///
/// # Examples
///
/// ```
/// use clustered_isa::assemble;
/// use clustered_emu::Machine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = assemble("li r1, 6\n mul r2, r1, r1\n halt")?;
/// let mut machine = Machine::new(program);
/// machine.run_to_halt(100)?;
/// assert_eq!(machine.int_reg(2), 36);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    program: Program,
    regs: [u64; 32],
    fregs: [f64; 32],
    pc: u32,
    mem: Memory,
    halted: bool,
    icount: u64,
}

impl Machine {
    /// Creates a machine with the program's data segment loaded at
    /// [`DATA_BASE`], `sp` initialised to [`STACK_BASE`], and the
    /// program counter at the entry point.
    pub fn new(program: Program) -> Machine {
        let mut mem = Memory::new();
        mem.write_slice(DATA_BASE, program.data());
        let mut regs = [0u64; 32];
        regs[30] = STACK_BASE;
        Machine {
            pc: program.entry(),
            program,
            regs,
            fregs: [0.0; 32],
            mem,
            halted: false,
            icount: 0,
        }
    }

    /// Whether the machine has executed a `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The number of instructions executed so far.
    pub fn instructions_executed(&self) -> u64 {
        self.icount
    }

    /// The current program counter (an instruction index).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads integer register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn int_reg(&self, index: usize) -> u64 {
        self.regs[index]
    }

    /// Reads floating-point register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn fp_reg(&self, index: usize) -> f64 {
        self.fregs[index]
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Immutable access to memory (for inspecting results in tests and
    /// examples).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to memory (for injecting inputs before a run).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    fn write_int(&mut self, index: u8, value: u64) {
        if index != 0 {
            self.regs[index as usize] = value;
        }
    }

    /// Validates an indirect control-transfer target against the full
    /// 64-bit register value before narrowing it to a PC.
    fn indirect_target(&self, pc: u32, target: u64) -> Result<u32, EmuError> {
        if target >= self.program.text().len() as u64 {
            return Err(EmuError::IndirectTargetOutOfRange {
                pc,
                target,
                text_len: self.program.text().len(),
            });
        }
        Ok(target as u32)
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::Halted`] if the machine already halted, and
    /// [`EmuError::PcOutOfRange`] if control flow escaped the text
    /// segment.
    pub fn step(&mut self) -> Result<DynInst, EmuError> {
        if self.halted {
            return Err(EmuError::Halted);
        }
        let pc = self.pc;
        let inst = *self
            .program
            .fetch(pc)
            .ok_or(EmuError::PcOutOfRange { pc, text_len: self.program.text().len() })?;
        let mut mem_access = None;
        let mut branch = None;
        let mut next_pc = pc + 1;

        match inst {
            Inst::Alu { op, rd, rs1, src2 } => {
                let a = self.regs[rs1.index() as usize];
                let b = match src2 {
                    Operand::Reg(r) => self.regs[r.index() as usize],
                    Operand::Imm(i) => i as u64,
                };
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Sll => a.wrapping_shl(b as u32),
                    AluOp::Srl => a.wrapping_shr(b as u32),
                    AluOp::Sra => (a as i64).wrapping_shr(b as u32) as u64,
                    AluOp::Slt => ((a as i64) < (b as i64)) as u64,
                    AluOp::Sltu => (a < b) as u64,
                };
                self.write_int(rd.index(), v);
            }
            Inst::Li { rd, imm } => self.write_int(rd.index(), imm as u64),
            Inst::MulDiv { op, rd, rs1, rs2 } => {
                let a = self.regs[rs1.index() as usize] as i64;
                let b = self.regs[rs2.index() as usize] as i64;
                let v = match op {
                    MulDivOp::Mul => a.wrapping_mul(b),
                    MulDivOp::Div => {
                        if b == 0 {
                            -1
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    MulDivOp::Rem => {
                        if b == 0 {
                            a
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                };
                self.write_int(rd.index(), v as u64);
            }
            Inst::Fp { op, fd, fs1, fs2 } => {
                let a = self.fregs[fs1.index() as usize];
                let b = self.fregs[fs2.index() as usize];
                self.fregs[fd.index() as usize] = match op {
                    FpOp::Add => a + b,
                    FpOp::Sub => a - b,
                    FpOp::Mul => a * b,
                    FpOp::Div => a / b,
                    FpOp::Min => a.min(b),
                    FpOp::Max => a.max(b),
                };
            }
            Inst::FpUn { op, fd, fs } => {
                let a = self.fregs[fs.index() as usize];
                self.fregs[fd.index() as usize] = match op {
                    FpUnOp::Neg => -a,
                    FpUnOp::Abs => a.abs(),
                    FpUnOp::Mov => a,
                    FpUnOp::Sqrt => a.sqrt(),
                };
            }
            Inst::FpCmp { op, rd, fs1, fs2 } => {
                let a = self.fregs[fs1.index() as usize];
                let b = self.fregs[fs2.index() as usize];
                let v = match op {
                    FpCmpOp::Eq => a == b,
                    FpCmpOp::Lt => a < b,
                    FpCmpOp::Le => a <= b,
                };
                self.write_int(rd.index(), v as u64);
            }
            Inst::IntToFp { fd, rs } => {
                self.fregs[fd.index() as usize] = self.regs[rs.index() as usize] as i64 as f64;
            }
            Inst::FpToInt { rd, fs } => {
                let v = self.fregs[fs.index() as usize] as i64;
                self.write_int(rd.index(), v as u64);
            }
            Inst::Fli { fd, imm } => self.fregs[fd.index() as usize] = imm,
            Inst::Load { width, rd, base, offset } => {
                let addr = self.regs[base.index() as usize].wrapping_add(offset as u64);
                let v = match width {
                    MemWidth::Byte => self.mem.read_u8(addr) as u64,
                    MemWidth::Word => self.mem.read_u32(addr) as i32 as i64 as u64,
                    MemWidth::Double => self.mem.read_u64(addr),
                };
                self.write_int(rd.index(), v);
                mem_access = Some(MemAccess { addr, size: width.bytes() as u8, is_store: false });
            }
            Inst::Store { width, rs, base, offset } => {
                let addr = self.regs[base.index() as usize].wrapping_add(offset as u64);
                let v = self.regs[rs.index() as usize];
                match width {
                    MemWidth::Byte => self.mem.write_u8(addr, v as u8),
                    MemWidth::Word => self.mem.write_u32(addr, v as u32),
                    MemWidth::Double => self.mem.write_u64(addr, v),
                }
                mem_access = Some(MemAccess { addr, size: width.bytes() as u8, is_store: true });
            }
            Inst::FpLoad { fd, base, offset } => {
                let addr = self.regs[base.index() as usize].wrapping_add(offset as u64);
                self.fregs[fd.index() as usize] = self.mem.read_f64(addr);
                mem_access = Some(MemAccess { addr, size: 8, is_store: false });
            }
            Inst::FpStore { fs, base, offset } => {
                let addr = self.regs[base.index() as usize].wrapping_add(offset as u64);
                self.mem.write_f64(addr, self.fregs[fs.index() as usize]);
                mem_access = Some(MemAccess { addr, size: 8, is_store: true });
            }
            Inst::Branch { cond, rs1, rs2, target } => {
                let a = self.regs[rs1.index() as usize];
                let b = self.regs[rs2.index() as usize];
                let taken = cond.eval(a, b);
                if taken {
                    next_pc = target;
                }
                branch = Some(BranchOutcome { kind: BranchKind::Conditional, taken, next_pc });
            }
            Inst::Jump { target } => {
                next_pc = target;
                branch = Some(BranchOutcome { kind: BranchKind::Jump, taken: true, next_pc });
            }
            Inst::JumpReg { rs } => {
                next_pc = self.indirect_target(pc, self.regs[rs.index() as usize])?;
                branch = Some(BranchOutcome { kind: BranchKind::Indirect, taken: true, next_pc });
            }
            Inst::Call { target } => {
                self.write_int(31, (pc + 1) as u64);
                next_pc = target;
                branch = Some(BranchOutcome { kind: BranchKind::Call, taken: true, next_pc });
            }
            Inst::CallReg { rs } => {
                // Validate before writing the return address so a
                // faulting call leaves the machine state untouched.
                next_pc = self.indirect_target(pc, self.regs[rs.index() as usize])?;
                self.write_int(31, (pc + 1) as u64);
                branch =
                    Some(BranchOutcome { kind: BranchKind::IndirectCall, taken: true, next_pc });
            }
            Inst::Ret => {
                next_pc = self.indirect_target(pc, self.regs[31])?;
                branch = Some(BranchOutcome { kind: BranchKind::Return, taken: true, next_pc });
            }
            Inst::Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }

        self.pc = next_pc;
        let record = DynInst { seq: self.icount, pc, inst, mem: mem_access, branch };
        self.icount += 1;
        Ok(record)
    }

    /// Runs until `halt` or until `max_instructions` have executed.
    ///
    /// Returns the number of instructions executed by this call.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] from [`Machine::step`]; calling this
    /// on an already-halted machine returns `Ok(0)`.
    pub fn run_to_halt(&mut self, max_instructions: u64) -> Result<u64, EmuError> {
        let mut executed = 0;
        while !self.halted && executed < max_instructions {
            self.step()?;
            executed += 1;
        }
        Ok(executed)
    }

    /// Converts this machine into a [`Trace`] iterator, preserving any
    /// state already set up (pre-written memory, executed warm-up).
    ///
    /// # Examples
    ///
    /// ```
    /// use clustered_isa::assemble;
    /// use clustered_emu::Machine;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut m = Machine::new(assemble("ld r1, 0(r2)\nhalt")?);
    /// m.memory_mut().write_u64(0, 99);
    /// let first = m.into_trace().next().unwrap()?;
    /// assert!(first.mem.is_some());
    /// # Ok(())
    /// # }
    /// ```
    pub fn into_trace(self) -> Trace {
        Trace { machine: self, errored: false }
    }
}

/// An iterator over a machine's dynamic instruction stream.
///
/// Produced by [`trace`]; ends at `halt` (the `halt` itself is not
/// yielded) or yields an `Err` once if execution goes wrong, then ends.
#[derive(Debug)]
pub struct Trace {
    machine: Machine,
    errored: bool,
}

impl Trace {
    /// The underlying machine (for inspecting final state after the
    /// iterator ends).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

impl Iterator for Trace {
    type Item = Result<DynInst, EmuError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.machine.is_halted() || self.errored {
            return None;
        }
        match self.machine.step() {
            Ok(d) if matches!(d.inst, Inst::Halt) => None,
            Err(e) => {
                self.errored = true;
                Some(Err(e))
            }
            ok => Some(ok),
        }
    }
}

/// Streams the dynamic instruction trace of `program`.
///
/// # Examples
///
/// ```
/// use clustered_isa::assemble;
/// use clustered_emu::trace;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 3\nloop: addi r1, r1, -1\n bnez r1, loop\n halt")?;
/// let n = trace(p).count();
/// assert_eq!(n, 7); // li + 3 × (addi + bnez)
/// # Ok(())
/// # }
/// ```
pub fn trace(program: Program) -> Trace {
    Trace { machine: Machine::new(program), errored: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustered_isa::assemble;

    fn run(src: &str) -> Machine {
        let mut m = Machine::new(assemble(src).unwrap());
        m.run_to_halt(1_000_000).unwrap();
        assert!(m.is_halted(), "program did not halt");
        m
    }

    #[test]
    fn arithmetic_and_logic() {
        let m = run("li r1, 10\n li r2, 3\n add r3, r1, r2\n sub r4, r1, r2\n and r5, r1, r2\n \
             or r6, r1, r2\n xor r7, r1, r2\n sll r8, r1, 2\n srl r9, r1, 1\n halt");
        assert_eq!(m.int_reg(3), 13);
        assert_eq!(m.int_reg(4), 7);
        assert_eq!(m.int_reg(5), 2);
        assert_eq!(m.int_reg(6), 11);
        assert_eq!(m.int_reg(7), 9);
        assert_eq!(m.int_reg(8), 40);
        assert_eq!(m.int_reg(9), 5);
    }

    #[test]
    fn signed_operations() {
        let m = run("li r1, -8\n srai r2, r1, 1\n slti r3, r1, 0\n sltiu r4, r1, 0\n \
             li r5, 3\n div r6, r1, r5\n rem r7, r1, r5\n halt");
        assert_eq!(m.int_reg(2) as i64, -4);
        assert_eq!(m.int_reg(3), 1);
        assert_eq!(m.int_reg(4), 0); // -8 as unsigned is huge
        assert_eq!(m.int_reg(6) as i64, -2);
        assert_eq!(m.int_reg(7) as i64, -2);
    }

    #[test]
    fn division_by_zero_is_defined() {
        let m = run("li r1, 42\n li r2, 0\n div r3, r1, r2\n rem r4, r1, r2\n halt");
        assert_eq!(m.int_reg(3) as i64, -1);
        assert_eq!(m.int_reg(4), 42);
    }

    #[test]
    fn zero_register_ignores_writes() {
        let m = run("li r0, 99\n add r1, r0, 5\n halt");
        assert_eq!(m.int_reg(0), 0);
        assert_eq!(m.int_reg(1), 5);
    }

    #[test]
    fn floating_point() {
        let m = run("fli f1, 9.0\n fli f2, 2.0\n fadd f3, f1, f2\n fmul f4, f1, f2\n \
             fdiv f5, f1, f2\n fsqrt f6, f1\n fneg f7, f1\n flt r1, f2, f1\n \
             fcvti r2, f5\n li r3, 7\n fcvt f8, r3\n halt");
        assert_eq!(m.fp_reg(3), 11.0);
        assert_eq!(m.fp_reg(4), 18.0);
        assert_eq!(m.fp_reg(5), 4.5);
        assert_eq!(m.fp_reg(6), 3.0);
        assert_eq!(m.fp_reg(7), -9.0);
        assert_eq!(m.int_reg(1), 1);
        assert_eq!(m.int_reg(2), 4);
        assert_eq!(m.fp_reg(8), 7.0);
    }

    #[test]
    fn loads_and_stores() {
        let m = run(".data\nbuf: .space 32\n.text\n\
             la r1, buf\n li r2, -1\n sd r2, 0(r1)\n lw r3, 0(r1)\n lbu r4, 0(r1)\n \
             li r5, 0x11223344\n sw r5, 8(r1)\n ld r6, 8(r1)\n \
             fli f1, 1.25\n fsd f1, 16(r1)\n fld f2, 16(r1)\n halt");
        assert_eq!(m.int_reg(3) as i64, -1); // lw sign-extends
        assert_eq!(m.int_reg(4), 0xff); // lbu zero-extends
        assert_eq!(m.int_reg(6), 0x11223344); // sw stores low 32 bits
        assert_eq!(m.fp_reg(2), 1.25);
    }

    #[test]
    fn data_segment_preloaded() {
        let m = run(".data\nv: .word 5, 6\n.text\nla r1, v\n ld r2, 0(r1)\n ld r3, 8(r1)\n halt");
        assert_eq!(m.int_reg(2), 5);
        assert_eq!(m.int_reg(3), 6);
    }

    #[test]
    fn loop_and_branches() {
        // sum 1..=10
        let m = run(
            "li r1, 10\n li r2, 0\nloop: add r2, r2, r1\n addi r1, r1, -1\n bgtz r1, loop\n halt",
        );
        assert_eq!(m.int_reg(2), 55);
    }

    #[test]
    fn call_and_return() {
        let m = run("start: li r1, 5\n call double\n call double\n halt\n\
             double: add r1, r1, r1\n ret");
        assert_eq!(m.int_reg(1), 20);
    }

    #[test]
    fn indirect_jump_table() {
        let m = run(".data\ntab: .word case0, case1\n.text\n\
             start: li r1, 1\n la r2, tab\n slli r3, r1, 3\n add r2, r2, r3\n ld r4, 0(r2)\n \
             jr r4\n\
             case0: li r5, 100\n halt\n\
             case1: li r5, 200\n halt");
        assert_eq!(m.int_reg(5), 200);
    }

    #[test]
    fn trace_records_memory_and_branches() {
        let p = assemble(
            ".data\nb: .space 8\n.text\nla r1, b\n sd r1, 0(r1)\n beqz r0, t\n nop\nt: halt",
        )
        .unwrap();
        let recs: Vec<_> = trace(p).collect::<Result<_, _>>().unwrap();
        assert_eq!(recs.len(), 3); // la, sd, beqz (halt not yielded, nop skipped)
        let store = recs[1];
        assert_eq!(store.mem, Some(MemAccess { addr: DATA_BASE, size: 8, is_store: true }));
        let br = recs[2];
        let out = br.branch.unwrap();
        assert!(out.taken);
        assert_eq!(out.kind, BranchKind::Conditional);
        assert_eq!(out.next_pc, 4);
    }

    #[test]
    fn pc_out_of_range_detected() {
        let mut m = Machine::new(assemble("nop").unwrap());
        m.step().unwrap();
        assert_eq!(m.step(), Err(EmuError::PcOutOfRange { pc: 1, text_len: 1 }));
    }

    /// A corrupted jump-table entry above `u32::MAX` must fault rather
    /// than wrap: the low 32 bits here alias the valid PC 2, so silent
    /// truncation would continue executing at a bogus-but-plausible
    /// location.
    #[test]
    fn indirect_target_above_u32_faults_instead_of_wrapping() {
        let target = (1u64 << 32) + 2;
        let mut m = Machine::new(assemble(&format!("li r1, {target}\n jr r1\n halt")).unwrap());
        m.step().unwrap();
        assert_eq!(
            m.step(),
            Err(EmuError::IndirectTargetOutOfRange { pc: 1, target, text_len: 3 })
        );
    }

    /// Indirect transfers to indices past the text segment fault at the
    /// transfer itself, for all three indirect forms — and a faulting
    /// `callr` must not have written the return address.
    #[test]
    fn indirect_target_out_of_text_faults() {
        for (source, pc) in [
            ("li r1, 99\n jr r1\n halt", 1),
            ("li r1, 99\n callr r1\n halt", 1),
            ("li r31, 99\n ret\n halt", 1),
        ] {
            let mut m = Machine::new(assemble(source).unwrap());
            m.step().unwrap();
            assert_eq!(
                m.step(),
                Err(EmuError::IndirectTargetOutOfRange { pc, target: 99, text_len: 3 }),
                "{source}"
            );
        }
        let mut m = Machine::new(assemble("li r1, 99\n callr r1\n halt").unwrap());
        m.step().unwrap();
        let _ = m.step();
        assert_eq!(m.int_reg(31), 0, "faulting callr must not write ra");
    }

    #[test]
    fn step_after_halt_errors() {
        let mut m = Machine::new(assemble("halt").unwrap());
        m.step().unwrap();
        assert_eq!(m.step(), Err(EmuError::Halted));
    }

    #[test]
    fn run_to_halt_bounded() {
        let mut m = Machine::new(assemble("loop: j loop").unwrap());
        let n = m.run_to_halt(100).unwrap();
        assert_eq!(n, 100);
        assert!(!m.is_halted());
    }

    #[test]
    fn sp_initialised_and_usable() {
        let m = run("sd ra, -8(sp)\n ld r1, -8(sp)\n halt");
        assert_eq!(m.int_reg(1), 0); // ra starts 0, but the access works
        assert_eq!(m.int_reg(30), STACK_BASE);
    }
}
