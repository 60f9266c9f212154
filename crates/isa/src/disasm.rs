//! Disassembly of instructions back to assembler syntax.

use crate::inst::{Inst, MemWidth, Operand};

/// Renders one instruction in the assembler's input syntax.
///
/// Branch and jump targets are printed as bare instruction indices (the
/// assembler accepts numeric targets, so output round-trips).
///
/// # Examples
///
/// ```
/// use clustered_isa::{assemble, disassemble};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("add r1, r2, r3")?;
/// assert_eq!(disassemble(&p.text()[0]), "add r1, r2, r3");
/// # Ok(())
/// # }
/// ```
pub fn disassemble(inst: &Inst) -> String {
    match *inst {
        Inst::Alu { op, rd, rs1, src2 } => match src2 {
            Operand::Reg(_) => format!("{} {rd}, {rs1}, {src2}", op.mnemonic()),
            Operand::Imm(_) => format!("{} {rd}, {rs1}, {src2}", imm_mnemonic(op)),
        },
        Inst::Li { rd, imm } => format!("li {rd}, {imm}"),
        Inst::MulDiv { op, rd, rs1, rs2 } => format!("{} {rd}, {rs1}, {rs2}", op.mnemonic()),
        Inst::Fp { op, fd, fs1, fs2 } => format!("{} {fd}, {fs1}, {fs2}", op.mnemonic()),
        Inst::FpUn { op, fd, fs } => format!("{} {fd}, {fs}", op.mnemonic()),
        Inst::FpCmp { op, rd, fs1, fs2 } => format!("{} {rd}, {fs1}, {fs2}", op.mnemonic()),
        Inst::IntToFp { fd, rs } => format!("fcvt {fd}, {rs}"),
        Inst::FpToInt { rd, fs } => format!("fcvti {rd}, {fs}"),
        Inst::Fli { fd, imm } => format!("fli {fd}, {imm:?}"),
        Inst::Load { width, rd, base, offset } => {
            format!("{} {rd}, {offset}({base})", load_mnemonic(width))
        }
        Inst::Store { width, rs, base, offset } => {
            format!("{} {rs}, {offset}({base})", store_mnemonic(width))
        }
        Inst::FpLoad { fd, base, offset } => format!("fld {fd}, {offset}({base})"),
        Inst::FpStore { fs, base, offset } => format!("fsd {fs}, {offset}({base})"),
        Inst::Branch { cond, rs1, rs2, target } => {
            format!("{} {rs1}, {rs2}, {target}", cond.mnemonic())
        }
        Inst::Jump { target } => format!("jmp {target}"),
        Inst::JumpReg { rs } => format!("jr {rs}"),
        Inst::Call { target } => format!("call {target}"),
        Inst::CallReg { rs } => format!("callr {rs}"),
        Inst::Ret => "ret".to_string(),
        Inst::Halt => "halt".to_string(),
    }
}

fn imm_mnemonic(op: crate::inst::AluOp) -> &'static str {
    use crate::inst::AluOp;
    match op {
        AluOp::Add => "addi",
        AluOp::Sub => "subi",
        AluOp::And => "andi",
        AluOp::Or => "ori",
        AluOp::Xor => "xori",
        AluOp::Sll => "slli",
        AluOp::Srl => "srli",
        AluOp::Sra => "srai",
        AluOp::Slt => "slti",
        AluOp::Sltu => "sltiu",
    }
}

fn load_mnemonic(width: MemWidth) -> &'static str {
    match width {
        MemWidth::Byte => "lbu",
        MemWidth::Word => "lw",
        MemWidth::Double => "ld",
    }
}

fn store_mnemonic(width: MemWidth) -> &'static str {
    match width {
        MemWidth::Byte => "sb",
        MemWidth::Word => "sw",
        MemWidth::Double => "sd",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    /// Every disassembled instruction must re-assemble to itself.
    #[test]
    fn round_trip_representative_instructions() {
        let source = r"
            add r1, r2, r3
            addi r1, r2, -7
            sltu r4, r5, 9
            li r1, 1234567890123
            mul r1, r2, r3
            div r1, r2, r3
            rem r1, r2, r3
            fadd f1, f2, f3
            fdiv f1, f2, f3
            fneg f1, f2
            fsqrt f3, f4
            feq r1, f2, f3
            fcvt f1, r2
            fcvti r1, f2
            fli f1, 2.5
            ld r1, 8(r2)
            lw r1, -4(r2)
            lbu r1, 0(r2)
            sd r1, 8(r2)
            sw r1, 8(r2)
            sb r1, 8(r2)
            fld f1, 16(r2)
            fsd f1, 16(r2)
            x: beq r1, r2, x
            bne r1, r2, x
            bltu r1, r2, x
            jmp x
            jr r1
            call x
            callr r1
            ret
            halt
        ";
        let p = assemble(source).unwrap();
        let rendered: String = p.text().iter().map(disassemble).collect::<Vec<_>>().join("\n");
        let p2 = assemble(&rendered).unwrap();
        assert_eq!(p.text(), p2.text());
    }

    #[test]
    fn immediate_alu_prints_i_suffix() {
        let p = assemble("add r1, r2, 5").unwrap();
        assert_eq!(disassemble(&p.text()[0]), "addi r1, r2, 5");
    }
}
