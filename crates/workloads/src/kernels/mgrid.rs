//! `mgrid` analogue: 7-point stencil relaxation over a 3-D grid.
//!
//! Profile targeted (paper Table 3): loop-based FP code, IPC 2.28,
//! extremely predictable control (one misprediction per ~9000
//! instructions), distant ILP across independent grid points.

use super::{REGION_A, REGION_B};
use crate::data::{f64_block, rng_for};

/// Grid edge (32³ doubles = 256 KB per array).
const NX: usize = 32;
const N: usize = NX * NX * NX;

pub(crate) fn build() -> (String, Vec<(u64, Vec<u8>)>) {
    let mut rng = rng_for("mgrid");
    let segments =
        vec![(REGION_A, f64_block(&mut rng, N, -1.0, 1.0)), (REGION_B, vec![0u8; N * 8])];
    // Interior points of the flattened grid, skipping one plane + one
    // row + one element at each end.
    let margin = NX * NX + NX + 1;
    let iters = N - 2 * margin;
    // Two ping-pong Jacobi sweeps per outer pass (A→B then B→A): the
    // sweeps are metric-identical, so — like the original mgrid, which
    // the paper's Table 4 reports as 0% unstable — the program has no
    // detectable coarse phase structure, while iterations stay
    // independent (distant ILP).
    let sweep = |label: &str, src: u64, dst: u64| {
        format!(
            r"
    li r1, {src}
    li r2, {dst}
    addi r1, r1, {skip}
    addi r2, r2, {skip}
    li r4, {iters}
{label}:
    fld f1, -8(r1)
    fld f2, 8(r1)
    fld f3, -{row}(r1)
    fld f4, {row}(r1)
    fld f5, -{plane}(r1)
    fld f6, {plane}(r1)
    fld f7, 0(r1)
    fadd f8, f1, f2
    fadd f9, f3, f4
    fadd f10, f5, f6
    fadd f8, f8, f9
    fadd f8, f8, f10
    fmul f11, f7, f12
    fsub f8, f8, f11
    fmul f8, f8, f13
    fadd f8, f8, f7
    fsd f8, 0(r2)
    addi r1, r1, 8
    addi r2, r2, 8
    addi r4, r4, -1
    bnez r4, {label}
",
            skip = margin * 8,
            row = NX * 8,
            plane = NX * NX * 8,
            iters = iters,
        )
    };
    let source = format!(
        "# mgrid analogue: ping-pong 7-point Jacobi relaxation.\n\
         start:\n    fli f12, 6.0\n    fli f13, 0.166015625\nouter:\n{}{}    j outer\n",
        sweep("relax_ab", REGION_A, REGION_B),
        sweep("relax_ba", REGION_B, REGION_A),
    );
    (source, segments)
}
