//! Quickstart: assemble a small program, run it through the clustered
//! simulator under the paper's dynamic interval policy, and print what
//! the hardware did.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use clustered::policies::IntervalExplore;
use clustered::sim::{FixedPolicy, Processor, SimConfig};
use clustered::{emu, isa};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny kernel with two phases: a serial pointer-increment phase
    // (no distant ILP) and an independent-iteration FP phase (lots).
    let program = isa::assemble(
        r"
        .data
        buf: .space 8192
        .text
        start:
            li   r9, 200            # outer repetitions
        outer:
            # phase 1: serial integer chain
            li   r1, 400
        serial:
            mul  r2, r2, r1
            addi r2, r2, 7
            addi r1, r1, -1
            bnez r1, serial
            # phase 2: independent FP updates over a buffer
            la   r3, buf
            li   r4, 1024
        vector:
            fld  f1, 0(r3)
            fadd f1, f1, f2
            fsd  f1, 0(r3)
            addi r3, r3, 8
            addi r4, r4, -1
            bnez r4, vector
            addi r9, r9, -1
            bnez r9, outer
            halt
        ",
    )?;

    // Run it on the default 16-cluster machine, once statically wide
    // and once under the interval-based dynamic policy.
    for (label, policy) in [
        (
            "static 16 clusters",
            Box::new(FixedPolicy::new(16)) as Box<dyn clustered::sim::ReconfigPolicy>,
        ),
        ("dynamic (interval + exploration)", Box::new(IntervalExplore::default())),
    ] {
        let stream = emu::trace(program.clone()).map(|r| r.expect("program is well-formed"));
        let mut cpu = Processor::new(SimConfig::default(), stream, policy)?;
        let stats = cpu.run(400_000)?;
        println!("{label}:");
        println!("  IPC                {:.3}", stats.ipc());
        println!("  cycles             {}", stats.cycles);
        println!("  mean active clusters {:.1}", stats.avg_active_clusters());
        println!("  reconfigurations   {}", stats.reconfigurations);
        println!(
            "  register transfers {} (avg {:.1} hops)",
            stats.reg_transfers,
            stats.avg_transfer_hops()
        );
        println!();
    }
    println!("The dynamic policy shrinks the machine during the serial phase and");
    println!("widens it for the vector phase — watch the mean active clusters.");
    Ok(())
}
