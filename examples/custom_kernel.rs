//! Bring-your-own-kernel: write a program in the virtual ISA, inspect
//! its dynamic trace, then sweep cluster counts to find where *your*
//! code sits on the communication-parallelism curve.
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```

use clustered::emu::{trace, Machine};
use clustered::isa::{assemble, disassemble};
use clustered::sim::{drive, FixedPolicy, NullObserver, SimConfig, SteeringKind};

const SOURCE: &str = r"
# Dot product with 2-way unrolling: moderate distant ILP.
.data
a:  .space 32768
b:  .space 32768
.text
start:
    li   r9, 500          # repetitions
outer:
    la   r1, a
    la   r2, b
    li   r3, 2048         # elements / 2
    fli  f1, 0.0
    fli  f2, 0.0
dot:
    fld  f3, 0(r1)
    fld  f4, 0(r2)
    fmul f5, f3, f4
    fadd f1, f1, f5
    fld  f3, 8(r1)
    fld  f4, 8(r2)
    fmul f5, f3, f4
    fadd f2, f2, f5
    addi r1, r1, 16
    addi r2, r2, 16
    addi r3, r3, -1
    bnez r3, dot
    fadd f1, f1, f2
    addi r9, r9, -1
    bnez r9, outer
    halt
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = assemble(SOURCE)?;

    println!("First instructions, disassembled back from the program:");
    for (i, inst) in program.text().iter().take(4).enumerate() {
        println!("  {i:>3}: {}", disassemble(inst));
    }

    // Architectural sanity check before measuring anything.
    let mut machine = Machine::new(program.clone());
    machine.run_to_halt(100_000)?;
    println!("\nFunctional run: {} instructions executed", machine.instructions_executed());

    // Peek at the dynamic trace the timing model will consume.
    let memrefs = trace(program.clone())
        .take(10_000)
        .filter_map(Result::ok)
        .filter(|d| d.mem.is_some())
        .count();
    println!("memory references in the first 10K instructions: {memrefs}");

    println!("\nCluster-count sweep (fixed configurations):");
    println!("{:>10} {:>8} {:>12} {:>16}", "clusters", "IPC", "reg xfers", "distant frac");
    for clusters in [1usize, 2, 4, 8, 16] {
        let stream = trace(program.clone()).map(|r| r.expect("well-formed"));
        let policy = Box::new(FixedPolicy::new(clusters));
        let steering = SteeringKind::default();
        let stats =
            drive(SimConfig::default(), stream, policy, steering, NullObserver, 0, 200_000)?.stats;
        println!(
            "{clusters:>10} {:>8.2} {:>12} {:>16.3}",
            stats.ipc(),
            stats.reg_transfers,
            stats.distant_issues as f64 / stats.committed.max(1) as f64
        );
    }
    println!("\nIf IPC keeps rising with clusters, your kernel has distant ILP worth");
    println!("paying communication for; if it peaks early, a dynamic policy would");
    println!("hand the idle clusters to other threads (paper §1).");
    Ok(())
}
