//! The two-pass assembler.
//!
//! See the [crate-level documentation](crate) for the full syntax. In
//! brief: one instruction or directive per line, `#`/`;` comments,
//! `label:` definitions, `.text`/`.data` sections, and the data
//! directives `.word`, `.byte`, `.double`, `.space`, and `.align`.

use crate::inst::{AluOp, BranchCond, FpCmpOp, FpOp, FpUnOp, Inst, MemWidth, MulDivOp, Operand};
use crate::program::{Program, Symbol, DATA_BASE};
use crate::reg::{FpReg, IntReg};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An assembly error, carrying the 1-based source line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    line: usize,
    message: String,
}

impl AsmError {
    fn new(line: usize, message: impl Into<String>) -> AsmError {
        AsmError { line, message: message.into() }
    }

    /// The 1-based source line the error occurred on.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The error description, without location information.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

/// Assembles source text into a [`Program`].
///
/// The entry point is the `start` label if defined, otherwise the first
/// text instruction.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics or registers, duplicate or undefined labels, and
/// out-of-range operands.
///
/// # Examples
///
/// ```
/// use clustered_isa::assemble;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = assemble(
///     r"
///     .data
///     nums: .word 1, 2, 3, 4
///     .text
///     start:
///         la   r1, nums
///         li   r2, 0          # sum
///         li   r3, 4          # count
///     loop:
///         ld   r4, 0(r1)
///         add  r2, r2, r4
///         addi r1, r1, 8
///         addi r3, r3, -1
///         bnez r3, loop
///         halt
///     ",
/// )?;
/// assert!(program.text().len() > 5);
/// # Ok(())
/// # }
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    Assembler::new().assemble(source)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// A line that survived pass one: an instruction to encode in pass two.
#[derive(Debug)]
struct PendingInst {
    line_no: usize,
    mnemonic: String,
    operands: Vec<String>,
}

#[derive(Debug, Default)]
struct Assembler {
    symbols: HashMap<String, Symbol>,
    data: Vec<u8>,
    pending: Vec<PendingInst>,
    /// Data-segment slots that hold a symbol reference to patch in pass two.
    data_fixups: Vec<(usize, String, usize)>, // (data offset, symbol, line)
}

impl Assembler {
    fn new() -> Assembler {
        Assembler::default()
    }

    fn assemble(mut self, source: &str) -> Result<Program, AsmError> {
        self.pass_one(source)?;
        let text = self.pass_two()?;
        for (offset, name, line_no) in std::mem::take(&mut self.data_fixups) {
            let value = match self.symbols.get(&name) {
                Some(Symbol::Text(idx)) => *idx as u64,
                Some(Symbol::Data(addr)) => *addr,
                None => return Err(AsmError::new(line_no, format!("undefined symbol `{name}`"))),
            };
            self.data[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        }
        let entry = match self.symbols.get("start") {
            Some(Symbol::Text(idx)) => *idx,
            Some(Symbol::Data(_)) => {
                return Err(AsmError::new(0, "`start` must label a text location"))
            }
            None => 0,
        };
        Ok(Program::from_parts(text, self.data, entry, self.symbols))
    }

    /// Pass one: strip comments, collect labels and data, queue instructions.
    fn pass_one(&mut self, source: &str) -> Result<(), AsmError> {
        let mut section = Section::Text;
        let mut text_len = 0u32;
        for (idx, raw_line) in source.lines().enumerate() {
            let line_no = idx + 1;
            let mut line = raw_line;
            if let Some(pos) = line.find(['#', ';']) {
                line = &line[..pos];
            }
            let mut rest = line.trim();
            // A line may carry several labels before its statement.
            while let Some(colon) = rest.find(':') {
                let (label, after) = rest.split_at(colon);
                let label = label.trim();
                if !is_identifier(label) {
                    break;
                }
                let sym = match section {
                    Section::Text => Symbol::Text(text_len),
                    Section::Data => Symbol::Data(DATA_BASE + self.data.len() as u64),
                };
                if self.symbols.insert(label.to_string(), sym).is_some() {
                    return Err(AsmError::new(line_no, format!("duplicate label `{label}`")));
                }
                rest = after[1..].trim();
            }
            if rest.is_empty() {
                continue;
            }
            if let Some(directive) = rest.strip_prefix('.') {
                section = self.directive(line_no, directive, section)?;
                continue;
            }
            if section == Section::Data {
                return Err(AsmError::new(line_no, "instruction in .data section"));
            }
            let (mnemonic, ops) = split_statement(rest);
            self.pending.push(PendingInst {
                line_no,
                mnemonic: mnemonic.to_ascii_lowercase(),
                operands: ops,
            });
            text_len += 1;
        }
        Ok(())
    }

    fn directive(
        &mut self,
        line_no: usize,
        directive: &str,
        section: Section,
    ) -> Result<Section, AsmError> {
        let (name, args) = split_statement(directive);
        match name.as_str() {
            "text" => return Ok(Section::Text),
            "data" => return Ok(Section::Data),
            _ => {}
        }
        if section != Section::Data {
            return Err(AsmError::new(line_no, format!(".{name} is only valid in .data")));
        }
        match name.as_str() {
            "word" => {
                for arg in &args {
                    if let Ok(v) = parse_int(arg) {
                        self.data.extend_from_slice(&(v as u64).to_le_bytes());
                    } else if is_identifier(arg) {
                        self.data_fixups.push((self.data.len(), arg.clone(), line_no));
                        self.data.extend_from_slice(&0u64.to_le_bytes());
                    } else {
                        return Err(AsmError::new(line_no, format!("bad .word operand `{arg}`")));
                    }
                }
            }
            "byte" => {
                for arg in &args {
                    let v = parse_int(arg)
                        .map_err(|e| AsmError::new(line_no, format!("bad .byte operand: {e}")))?;
                    self.data.push(v as u8);
                }
            }
            "double" => {
                for arg in &args {
                    let v: f64 = arg
                        .parse()
                        .map_err(|_| AsmError::new(line_no, format!("bad .double `{arg}`")))?;
                    self.data.extend_from_slice(&v.to_le_bytes());
                }
            }
            "space" => {
                let [arg] = args.as_slice() else {
                    return Err(AsmError::new(line_no, ".space takes one operand"));
                };
                let n = parse_int(arg)
                    .map_err(|e| AsmError::new(line_no, format!("bad .space size: {e}")))?;
                if n < 0 {
                    return Err(AsmError::new(line_no, ".space size must be non-negative"));
                }
                self.data.extend(std::iter::repeat_n(0u8, n as usize));
            }
            "align" => {
                let [arg] = args.as_slice() else {
                    return Err(AsmError::new(line_no, ".align takes one operand"));
                };
                let n = parse_int(arg)
                    .map_err(|e| AsmError::new(line_no, format!("bad .align: {e}")))?;
                if n <= 0 || (n & (n - 1)) != 0 {
                    return Err(AsmError::new(line_no, ".align must be a power of two"));
                }
                while !self.data.len().is_multiple_of(n as usize) {
                    self.data.push(0);
                }
            }
            other => return Err(AsmError::new(line_no, format!("unknown directive .{other}"))),
        }
        Ok(section)
    }

    /// Pass two: encode each queued instruction with labels resolved.
    fn pass_two(&mut self) -> Result<Vec<Inst>, AsmError> {
        let pending = std::mem::take(&mut self.pending);
        pending.iter().map(|p| self.encode(p)).collect()
    }

    fn encode(&self, p: &PendingInst) -> Result<Inst, AsmError> {
        let line = p.line_no;
        let err = |msg: String| AsmError::new(line, msg);
        let ops = &p.operands;
        let arity = |n: usize| -> Result<(), AsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(err(format!("`{}` expects {n} operands, got {}", p.mnemonic, ops.len())))
            }
        };
        let int_reg = |s: &str| parse_int_reg(s).ok_or_else(|| err(format!("bad register `{s}`")));
        let fp_reg = |s: &str| parse_fp_reg(s).ok_or_else(|| err(format!("bad fp register `{s}`")));
        let imm = |s: &str| parse_int(s).map_err(|e| err(format!("bad immediate `{s}`: {e}")));
        let text_target = |s: &str| -> Result<u32, AsmError> {
            match self.symbols.get(s) {
                Some(Symbol::Text(idx)) => Ok(*idx),
                Some(Symbol::Data(_)) => Err(err(format!("`{s}` is a data label"))),
                None => parse_int(s)
                    .ok()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| err(format!("undefined label `{s}`"))),
            }
        };
        let mem_operand = |s: &str| -> Result<(IntReg, i64), AsmError> {
            let open = s.find('(').ok_or_else(|| err(format!("bad memory operand `{s}`")))?;
            let close = s.rfind(')').ok_or_else(|| err(format!("bad memory operand `{s}`")))?;
            let off_str = s[..open].trim();
            let offset = if off_str.is_empty() { 0 } else { imm(off_str)? };
            Ok((int_reg(s[open + 1..close].trim())?, offset))
        };
        let alu = |op: AluOp| -> Result<Inst, AsmError> {
            arity(3)?;
            let src2 = if let Some(r) = parse_int_reg(&ops[2]) {
                Operand::Reg(r)
            } else {
                Operand::Imm(imm(&ops[2])?)
            };
            Ok(Inst::Alu { op, rd: int_reg(&ops[0])?, rs1: int_reg(&ops[1])?, src2 })
        };
        let alu_imm = |op: AluOp| -> Result<Inst, AsmError> {
            arity(3)?;
            Ok(Inst::Alu {
                op,
                rd: int_reg(&ops[0])?,
                rs1: int_reg(&ops[1])?,
                src2: Operand::Imm(imm(&ops[2])?),
            })
        };
        let muldiv = |op: MulDivOp| -> Result<Inst, AsmError> {
            arity(3)?;
            Ok(Inst::MulDiv {
                op,
                rd: int_reg(&ops[0])?,
                rs1: int_reg(&ops[1])?,
                rs2: int_reg(&ops[2])?,
            })
        };
        let fp = |op: FpOp| -> Result<Inst, AsmError> {
            arity(3)?;
            Ok(Inst::Fp { op, fd: fp_reg(&ops[0])?, fs1: fp_reg(&ops[1])?, fs2: fp_reg(&ops[2])? })
        };
        let fp_un = |op: FpUnOp| -> Result<Inst, AsmError> {
            arity(2)?;
            Ok(Inst::FpUn { op, fd: fp_reg(&ops[0])?, fs: fp_reg(&ops[1])? })
        };
        let fp_cmp = |op: FpCmpOp| -> Result<Inst, AsmError> {
            arity(3)?;
            Ok(Inst::FpCmp {
                op,
                rd: int_reg(&ops[0])?,
                fs1: fp_reg(&ops[1])?,
                fs2: fp_reg(&ops[2])?,
            })
        };
        let load = |width: MemWidth| -> Result<Inst, AsmError> {
            arity(2)?;
            let (base, offset) = mem_operand(&ops[1])?;
            Ok(Inst::Load { width, rd: int_reg(&ops[0])?, base, offset })
        };
        let store = |width: MemWidth| -> Result<Inst, AsmError> {
            arity(2)?;
            let (base, offset) = mem_operand(&ops[1])?;
            Ok(Inst::Store { width, rs: int_reg(&ops[0])?, base, offset })
        };
        let branch = |cond: BranchCond| -> Result<Inst, AsmError> {
            arity(3)?;
            Ok(Inst::Branch {
                cond,
                rs1: int_reg(&ops[0])?,
                rs2: int_reg(&ops[1])?,
                target: text_target(&ops[2])?,
            })
        };
        // Branch against zero / swapped-operand sugar.
        let branch_zero = |cond: BranchCond| -> Result<Inst, AsmError> {
            arity(2)?;
            Ok(Inst::Branch {
                cond,
                rs1: int_reg(&ops[0])?,
                rs2: IntReg::ZERO,
                target: text_target(&ops[1])?,
            })
        };
        let branch_swapped = |cond: BranchCond| -> Result<Inst, AsmError> {
            arity(3)?;
            Ok(Inst::Branch {
                cond,
                rs1: int_reg(&ops[1])?,
                rs2: int_reg(&ops[0])?,
                target: text_target(&ops[2])?,
            })
        };

        match p.mnemonic.as_str() {
            "add" => alu(AluOp::Add),
            "sub" => alu(AluOp::Sub),
            "and" => alu(AluOp::And),
            "or" => alu(AluOp::Or),
            "xor" => alu(AluOp::Xor),
            "sll" => alu(AluOp::Sll),
            "srl" => alu(AluOp::Srl),
            "sra" => alu(AluOp::Sra),
            "slt" => alu(AluOp::Slt),
            "sltu" => alu(AluOp::Sltu),
            "addi" => alu_imm(AluOp::Add),
            "subi" => alu_imm(AluOp::Sub),
            "andi" => alu_imm(AluOp::And),
            "ori" => alu_imm(AluOp::Or),
            "xori" => alu_imm(AluOp::Xor),
            "slli" => alu_imm(AluOp::Sll),
            "srli" => alu_imm(AluOp::Srl),
            "srai" => alu_imm(AluOp::Sra),
            "slti" => alu_imm(AluOp::Slt),
            "sltiu" => alu_imm(AluOp::Sltu),
            "mul" => muldiv(MulDivOp::Mul),
            "div" => muldiv(MulDivOp::Div),
            "rem" => muldiv(MulDivOp::Rem),
            "li" => {
                arity(2)?;
                Ok(Inst::Li { rd: int_reg(&ops[0])?, imm: imm(&ops[1])? })
            }
            "la" => {
                arity(2)?;
                let value = match self.symbols.get(&ops[1]) {
                    Some(Symbol::Data(addr)) => *addr as i64,
                    Some(Symbol::Text(idx)) => *idx as i64,
                    None => return Err(err(format!("undefined label `{}`", ops[1]))),
                };
                Ok(Inst::Li { rd: int_reg(&ops[0])?, imm: value })
            }
            "mov" => {
                arity(2)?;
                Ok(Inst::Alu {
                    op: AluOp::Add,
                    rd: int_reg(&ops[0])?,
                    rs1: int_reg(&ops[1])?,
                    src2: Operand::Imm(0),
                })
            }
            "nop" => {
                arity(0)?;
                Ok(Inst::Alu {
                    op: AluOp::Add,
                    rd: IntReg::ZERO,
                    rs1: IntReg::ZERO,
                    src2: Operand::Imm(0),
                })
            }
            "fadd" => fp(FpOp::Add),
            "fsub" => fp(FpOp::Sub),
            "fmul" => fp(FpOp::Mul),
            "fdiv" => fp(FpOp::Div),
            "fmin" => fp(FpOp::Min),
            "fmax" => fp(FpOp::Max),
            "fneg" => fp_un(FpUnOp::Neg),
            "fabs" => fp_un(FpUnOp::Abs),
            "fmov" => fp_un(FpUnOp::Mov),
            "fsqrt" => fp_un(FpUnOp::Sqrt),
            "feq" => fp_cmp(FpCmpOp::Eq),
            "flt" => fp_cmp(FpCmpOp::Lt),
            "fle" => fp_cmp(FpCmpOp::Le),
            "fcvt" => {
                arity(2)?;
                Ok(Inst::IntToFp { fd: fp_reg(&ops[0])?, rs: int_reg(&ops[1])? })
            }
            "fcvti" => {
                arity(2)?;
                Ok(Inst::FpToInt { rd: int_reg(&ops[0])?, fs: fp_reg(&ops[1])? })
            }
            "fli" => {
                arity(2)?;
                let v: f64 =
                    ops[1].parse().map_err(|_| err(format!("bad fp immediate `{}`", ops[1])))?;
                Ok(Inst::Fli { fd: fp_reg(&ops[0])?, imm: v })
            }
            "ld" => load(MemWidth::Double),
            "lw" => load(MemWidth::Word),
            "lbu" => load(MemWidth::Byte),
            "sd" => store(MemWidth::Double),
            "sw" => store(MemWidth::Word),
            "sb" => store(MemWidth::Byte),
            "fld" => {
                arity(2)?;
                let (base, offset) = mem_operand(&ops[1])?;
                Ok(Inst::FpLoad { fd: fp_reg(&ops[0])?, base, offset })
            }
            "fsd" => {
                arity(2)?;
                let (base, offset) = mem_operand(&ops[1])?;
                Ok(Inst::FpStore { fs: fp_reg(&ops[0])?, base, offset })
            }
            "beq" => branch(BranchCond::Eq),
            "bne" => branch(BranchCond::Ne),
            "blt" => branch(BranchCond::Lt),
            "bge" => branch(BranchCond::Ge),
            "bltu" => branch(BranchCond::Ltu),
            "bgeu" => branch(BranchCond::Geu),
            "bgt" => branch_swapped(BranchCond::Lt),
            "ble" => branch_swapped(BranchCond::Ge),
            "beqz" => branch_zero(BranchCond::Eq),
            "bnez" => branch_zero(BranchCond::Ne),
            "bltz" => branch_zero(BranchCond::Lt),
            "bgez" => branch_zero(BranchCond::Ge),
            "bgtz" => {
                arity(2)?;
                Ok(Inst::Branch {
                    cond: BranchCond::Lt,
                    rs1: IntReg::ZERO,
                    rs2: int_reg(&ops[0])?,
                    target: text_target(&ops[1])?,
                })
            }
            "j" | "jmp" => {
                arity(1)?;
                Ok(Inst::Jump { target: text_target(&ops[0])? })
            }
            "jr" => {
                arity(1)?;
                Ok(Inst::JumpReg { rs: int_reg(&ops[0])? })
            }
            "call" => {
                arity(1)?;
                Ok(Inst::Call { target: text_target(&ops[0])? })
            }
            "callr" => {
                arity(1)?;
                Ok(Inst::CallReg { rs: int_reg(&ops[0])? })
            }
            "ret" => {
                arity(0)?;
                Ok(Inst::Ret)
            }
            "halt" => {
                arity(0)?;
                Ok(Inst::Halt)
            }
            other => Err(err(format!("unknown mnemonic `{other}`"))),
        }
    }
}

/// Splits a statement into its mnemonic and comma-separated operands.
fn split_statement(s: &str) -> (String, Vec<String>) {
    let s = s.trim();
    match s.find(char::is_whitespace) {
        None => (s.to_string(), Vec::new()),
        Some(pos) => {
            let (head, tail) = s.split_at(pos);
            let ops = tail
                .split(',')
                .map(|op| op.trim().to_string())
                .filter(|op| !op.is_empty())
                .collect();
            (head.to_string(), ops)
        }
    }
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_int(s: &str) -> Result<i64, std::num::ParseIntError> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map(|v| v as i64)
    } else if let Some(hex) = s.strip_prefix("-0x").or_else(|| s.strip_prefix("-0X")) {
        // Parse the magnitude as u64 so that -0x8000000000000000
        // (i64::MIN, whose magnitude overflows i64) round-trips.
        u64::from_str_radix(hex, 16).map(|v| (v as i64).wrapping_neg())
    } else {
        s.parse()
    }
}

fn parse_int_reg(s: &str) -> Option<IntReg> {
    match s {
        "zero" => return Some(IntReg::ZERO),
        "sp" => return Some(IntReg::SP),
        "ra" => return Some(IntReg::RA),
        _ => {}
    }
    let idx: u8 = s.strip_prefix('r')?.parse().ok()?;
    IntReg::new(idx)
}

fn parse_fp_reg(s: &str) -> Option<FpReg> {
    let idx: u8 = s.strip_prefix('f')?.parse().ok()?;
    FpReg::new(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Inst, Operand};
    use crate::program::DATA_BASE;

    #[test]
    fn assembles_minimal_program() {
        let p = assemble("halt").unwrap();
        assert_eq!(p.text(), &[Inst::Halt]);
        assert_eq!(p.entry(), 0);
    }

    #[test]
    fn entry_defaults_to_start_label() {
        let p = assemble("nop\nstart: halt").unwrap();
        assert_eq!(p.entry(), 1);
    }

    #[test]
    fn register_aliases() {
        let p = assemble("add sp, ra, zero").unwrap();
        assert_eq!(
            p.text()[0],
            Inst::Alu {
                op: AluOp::Add,
                rd: IntReg::SP,
                rs1: IntReg::RA,
                src2: Operand::Reg(IntReg::ZERO)
            }
        );
    }

    #[test]
    fn alu_immediate_and_register_forms() {
        let p = assemble("add r1, r2, 5\naddi r1, r2, -5\nadd r1, r2, r3").unwrap();
        assert!(matches!(p.text()[0], Inst::Alu { src2: Operand::Imm(5), .. }));
        assert!(matches!(p.text()[1], Inst::Alu { src2: Operand::Imm(-5), .. }));
        assert!(matches!(p.text()[2], Inst::Alu { src2: Operand::Reg(_), .. }));
    }

    #[test]
    fn forward_and_backward_branch_targets() {
        let p = assemble("top: beq r1, r2, end\nj top\nend: halt").unwrap();
        assert!(matches!(p.text()[0], Inst::Branch { target: 2, .. }));
        assert!(matches!(p.text()[1], Inst::Jump { target: 0 }));
    }

    #[test]
    fn data_directives_lay_out_bytes() {
        let p = assemble(
            ".data\na: .word 1, -1\nb: .byte 7, 8\n.align 8\nc: .double 1.5\nd: .space 3\n.text\nhalt",
        )
        .unwrap();
        assert_eq!(p.symbol("a"), Some(Symbol::Data(DATA_BASE)));
        assert_eq!(p.symbol("b"), Some(Symbol::Data(DATA_BASE + 16)));
        assert_eq!(p.symbol("c"), Some(Symbol::Data(DATA_BASE + 24)));
        assert_eq!(p.symbol("d"), Some(Symbol::Data(DATA_BASE + 32)));
        assert_eq!(p.data().len(), 35);
        assert_eq!(&p.data()[0..8], &1u64.to_le_bytes());
        assert_eq!(&p.data()[8..16], &(-1i64 as u64).to_le_bytes());
        assert_eq!(p.data()[16], 7);
        assert_eq!(&p.data()[24..32], &1.5f64.to_le_bytes());
    }

    #[test]
    fn word_directive_accepts_labels() {
        let p =
            assemble(".data\ntable: .word fn_a, fn_b\n.text\nfn_a: ret\nfn_b: ret\nhalt").unwrap();
        assert_eq!(&p.data()[0..8], &0u64.to_le_bytes());
        assert_eq!(&p.data()[8..16], &1u64.to_le_bytes());
    }

    #[test]
    fn la_loads_data_address() {
        let p = assemble(".data\nbuf: .space 8\n.text\nla r1, buf\nhalt").unwrap();
        assert_eq!(p.text()[0], Inst::Li { rd: IntReg::new(1).unwrap(), imm: DATA_BASE as i64 });
    }

    #[test]
    fn memory_operands() {
        let p = assemble("ld r1, 16(r2)\nld r1, (r2)\nld r1, -8(r2)").unwrap();
        assert!(matches!(p.text()[0], Inst::Load { offset: 16, .. }));
        assert!(matches!(p.text()[1], Inst::Load { offset: 0, .. }));
        assert!(matches!(p.text()[2], Inst::Load { offset: -8, .. }));
    }

    #[test]
    fn hex_immediates() {
        let p = assemble("li r1, 0xff\nli r2, -0x10").unwrap();
        assert_eq!(p.text()[0], Inst::Li { rd: IntReg::new(1).unwrap(), imm: 255 });
        assert_eq!(p.text()[1], Inst::Li { rd: IntReg::new(2).unwrap(), imm: -16 });
    }

    #[test]
    fn hex_immediates_cover_the_full_i64_range() {
        let p = assemble(
            "li r1, -0x8000000000000000\nli r2, 0xffffffffffffffff\nli r3, 0x7fffffffffffffff",
        )
        .unwrap();
        assert_eq!(p.text()[0], Inst::Li { rd: IntReg::new(1).unwrap(), imm: i64::MIN });
        assert_eq!(p.text()[1], Inst::Li { rd: IntReg::new(2).unwrap(), imm: -1 });
        assert_eq!(p.text()[2], Inst::Li { rd: IntReg::new(3).unwrap(), imm: i64::MAX });
    }

    #[test]
    fn comments_and_blank_lines() {
        let p = assemble("# full comment\n\nhalt ; trailing\n   # indented").unwrap();
        assert_eq!(p.text().len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus r1").unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(e.message().contains("bogus"));
        assert!(e.to_string().starts_with("line 2:"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("a: nop\na: halt").unwrap_err();
        assert!(e.message().contains("duplicate"));
    }

    #[test]
    fn undefined_branch_target_rejected() {
        let e = assemble("j nowhere").unwrap_err();
        assert!(e.message().contains("undefined"));
    }

    #[test]
    fn wrong_arity_rejected() {
        let e = assemble("add r1, r2").unwrap_err();
        assert!(e.message().contains("expects 3"));
    }

    #[test]
    fn bad_register_rejected() {
        assert!(assemble("add r32, r0, r0").is_err());
        assert!(assemble("fadd f32, f0, f0").is_err());
    }

    #[test]
    fn data_section_rejects_instructions() {
        let e = assemble(".data\nadd r1, r2, r3").unwrap_err();
        assert!(e.message().contains(".data"));
    }

    #[test]
    fn branch_sugar() {
        let p = assemble("x: beqz r1, x\nbnez r2, x\nbgt r3, r4, x\nble r5, r6, x\nbgtz r7, x")
            .unwrap();
        assert!(matches!(
            p.text()[0],
            Inst::Branch { cond: BranchCond::Eq, rs2: IntReg::ZERO, .. }
        ));
        assert!(matches!(p.text()[2], Inst::Branch { cond: BranchCond::Lt, .. }));
        assert!(matches!(p.text()[4], Inst::Branch { cond: BranchCond::Lt, .. }));
    }

    #[test]
    fn multiple_labels_one_line() {
        let p = assemble("a: b: halt").unwrap();
        assert_eq!(p.symbol("a"), Some(Symbol::Text(0)));
        assert_eq!(p.symbol("b"), Some(Symbol::Text(0)));
    }
}
