//! `cjpeg` analogue: forward-DCT-style butterflies plus quantisation
//! with per-coefficient zero tests.
//!
//! Profile targeted (paper Table 3): medium IPC (2.06) and a fairly
//! short misprediction interval (~82) — the quantiser's "is this
//! coefficient zero?" branch depends on the data and fires for most
//! coefficients.

use super::{REGION_A, REGION_B, REGION_C};
use crate::data::{f64_block, rng_for};

/// Number of 8×8 blocks (512 KB of coefficients).
const BLOCKS: usize = 1024;

pub(crate) fn build() -> (String, Vec<(u64, Vec<u8>)>) {
    let mut rng = rng_for("cjpeg");
    let samples = f64_block(&mut rng, BLOCKS * 64, -4.0, 4.0);
    // Reciprocal quantisation table: scaling chosen so roughly 60% of
    // quantised coefficients truncate to zero.
    let qtable = f64_block(&mut rng, 64, 0.05, 0.4);
    let segments =
        vec![(REGION_A, samples), (REGION_B, qtable), (REGION_C, vec![0u8; BLOCKS * 64 * 4])];
    let source = format!(
        r"
# cjpeg analogue: 4-point butterfly sweep then quantise with zero tests.
start:
    fli f20, 0.70710678
    fli f21, 0.5            # keeps values bounded across outer passes
outer:
    li r1, {blocks_base}
    li r14, {out_base}
    li r4, {blocks}
block:
    li r7, 16               # 16 butterfly groups of 4 doubles
    mov r10, r1
fdct:
    fld f1, 0(r10)
    fld f2, 8(r10)
    fld f3, 16(r10)
    fld f4, 24(r10)
    fadd f5, f1, f4
    fsub f6, f1, f4
    fadd f7, f2, f3
    fsub f8, f2, f3
    fadd f9, f5, f7
    fsub f10, f5, f7
    fmul f9, f9, f21
    fmul f10, f10, f21
    fmul f11, f6, f20
    fmul f12, f8, f20
    fadd f11, f11, f12
    fmul f11, f11, f21
    fsd f9, 0(r10)
    fsd f10, 8(r10)
    fsd f11, 16(r10)
    fsd f6, 24(r10)
    addi r10, r10, 32
    addi r7, r7, -1
    bnez r7, fdct
    # quantise the 64 coefficients of the block
    mov r10, r1
    li r11, {qtable}
    li r15, 64
quant:
    fld f1, 0(r10)
    fld f2, 0(r11)
    fmul f3, f1, f2
    fcvti r12, f3
    beqz r12, qzero         # data-dependent: coefficient quantised away
    addi r13, r13, 1        # nonzero census
    sw r12, 0(r14)
qzero:
    addi r10, r10, 8
    addi r11, r11, 8
    addi r14, r14, 4
    addi r15, r15, -1
    bnez r15, quant
    addi r1, r1, 512
    addi r4, r4, -1
    bnez r4, block
    j outer
",
        blocks_base = REGION_A,
        qtable = REGION_B,
        out_base = REGION_C,
        blocks = BLOCKS,
    );
    (source, segments)
}
