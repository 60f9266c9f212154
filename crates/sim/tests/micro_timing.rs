//! Micro-benchmarks with analytically predictable timing: tiny
//! hand-written programs whose pipeline behaviour can be reasoned
//! about, pinning the simulator's first-order timing properties.

use clustered_emu::trace;
use clustered_isa::assemble;
use clustered_sim::{FixedPolicy, Processor, SimConfig, SimStats};

fn run(source: &str, cfg: SimConfig, clusters: usize) -> SimStats {
    let program = assemble(source).expect("valid test program");
    let stream = trace(program).map(|r| r.expect("well-formed"));
    let mut cpu =
        Processor::new(cfg, stream, Box::new(FixedPolicy::new(clusters))).expect("valid config");
    cpu.run(5_000_000).expect("no stall");
    assert!(cpu.finished(), "program must run to completion (is it endless?)");
    *cpu.stats()
}

/// A long serial ALU chain: IPC must approach (but never exceed) 1 —
/// dependent single-cycle operations execute back to back.
#[test]
fn serial_chain_runs_at_ipc_one() {
    let s = run(
        "li r1, 2000
         loop: addi r1, r1, 1
         addi r1, r1, 1
         addi r1, r1, 1
         addi r1, r1, 1
         addi r1, r1, 1
         addi r1, r1, 1
         addi r1, r1, 1
         addi r1, r1, -8
         bnez r1, loop
         halt",
        SimConfig::monolithic(),
        1,
    );
    // The r1 chain carries the 8 addis (8 cycles per iteration); the
    // bnez issues in parallel, so the analytic IPC is 9/8 = 1.125.
    let ipc = s.ipc();
    assert!(ipc <= 1.15, "serial chain cannot beat 9/8 IPC: {ipc:.3}");
    assert!(ipc > 0.95, "back-to-back dependent issue broken: {ipc:.3}");
}

/// Independent operations on a wide monolithic machine: IPC must be
/// limited by fetch (8/cycle across 2 basic blocks), not by the chain.
#[test]
fn independent_ops_exceed_ipc_four() {
    // 16 independent accumulator chains.
    let mut body = String::from("li r1, 2000\nloop:\n");
    for r in 2..=17 {
        body.push_str(&format!("addi r{r}, r{r}, 1\n"));
    }
    body.push_str("addi r1, r1, -1\nbnez r1, loop\nhalt");
    let s = run(&body, SimConfig::monolithic(), 1);
    assert!(s.ipc() > 4.0, "independent work should run wide: {:.3}", s.ipc());
}

/// An unpipelined divide chain: ~latency cycles per divide.
#[test]
fn divide_chain_costs_full_latency() {
    let s = run(
        "li r1, 200
         li r2, 1
         loop: div r2, r2, r2
         addi r1, r1, -1
         bnez r1, loop
         halt",
        SimConfig::monolithic(),
        1,
    );
    let cfg = SimConfig::default();
    let cycles_per_iter = s.cycles as f64 / 200.0;
    assert!(
        cycles_per_iter >= cfg.exec.int_div as f64 * 0.9,
        "divides must serialise at ~{} cycles each, got {cycles_per_iter:.1}",
        cfg.exec.int_div
    );
}

/// Perfectly predictable branches leave the misprediction counter at
/// (almost) zero; a data-dependent coin-flip branch does not.
#[test]
fn predictability_separates_mispredict_counts() {
    let predictable = run(
        "li r1, 5000
         loop: addi r1, r1, -1
         bnez r1, loop
         halt",
        SimConfig::default(),
        4,
    );
    assert!(
        predictable.mispredicts < 20,
        "loop branch should be learned: {} mispredicts",
        predictable.mispredicts
    );
    let random = run(
        "li r1, 5000
         li r21, 88172645463325252
         loop:
         li r22, 6364136223846793005
         mul r21, r21, r22
         addi r21, r21, 1442695040888963407
         srli r4, r21, 40
         andi r4, r4, 1
         beqz r4, skip
         addi r5, r5, 1
         skip:
         addi r1, r1, -1
         bnez r1, loop
         halt",
        SimConfig::default(),
        4,
    );
    assert!(
        random.mispredicts > 1_000,
        "coin-flip branch cannot be predicted: {} mispredicts",
        random.mispredicts
    );
}

/// Store-to-load forwarding: a load immediately after a store to the
/// same word must be far faster than a cache round trip.
#[test]
fn store_forwarding_beats_cache_access() {
    let forwarded = run(
        ".data
         buf: .space 8
         .text
         la r2, buf
         li r1, 2000
         loop:
         sd r3, 0(r2)
         ld r3, 0(r2)
         addi r3, r3, 1
         addi r1, r1, -1
         bnez r1, loop
         halt",
        SimConfig::monolithic(),
        1,
    );
    assert!(forwarded.lsq_forwards > 1_500, "forwards: {}", forwarded.lsq_forwards);
    // Serial chain through memory: sd → ld (forward ≈1c) → addi.
    let cycles_per_iter = forwarded.cycles as f64 / 2000.0;
    assert!(
        cycles_per_iter < 10.0,
        "forwarding path too slow: {cycles_per_iter:.1} cycles/iteration"
    );
}

/// The same dependent-load chain gets slower as its data moves out in
/// the hierarchy: L1-resident vs L2-resident pointer chases.
#[test]
fn load_latency_orders_by_residency() {
    let chase = |stride: usize, span: usize| {
        // Build a pointer ring of `span` bytes, nodes every `stride`.
        let nodes = span / stride;
        let mut source = String::from(".data\nring: .space ");
        source.push_str(&span.to_string());
        source.push('\n');
        source.push_str(".text\nla r2, ring\nli r9, 20000\n");
        // Initialise: node i points to node i+1, last node wraps to
        // the ring head.
        source.push_str(&format!(
            "la r3, ring\nli r4, {nodes}\ninit:\naddi r5, r3, {stride}\nsd r5, 0(r3)\n\
             mov r3, r5\naddi r4, r4, -1\nbnez r4, init\n"
        ));
        source.push_str(&format!(
            "la r3, ring\nli r6, {last}\nadd r6, r6, r3\nsd r3, 0(r6)\n",
            last = (nodes - 1) * stride
        ));
        source.push_str("la r1, ring\nchase:\nld r1, 0(r1)\naddi r9, r9, -1\nbnez r9, chase\nhalt");
        run(&source, SimConfig::monolithic(), 1).cycles
    };
    let near = chase(64, 16 * 1024); // fits the 32KB L1
    let far = chase(64, 256 * 1024); // larger than L1, inside L2
    assert!(far > near * 2, "L2-resident chase must be much slower: near {near}, far {far}");
}

/// Hop latency directly scales the communication penalty of a wide
/// machine (the §6 "slow wires" result in miniature).
#[test]
fn doubled_hop_latency_hurts_wide_configurations() {
    let mut program = String::from(".data\nbuf: .space 65536\n.text\n");
    program.push_str(
        "la r3, buf\nli r1, 30000\nloop:\nfld f1, 0(r3)\nfadd f1, f1, f2\nfsd f1, 0(r3)\n\
         addi r3, r3, 8\naddi r1, r1, -1\nbnez r1, loop\nhalt",
    );
    let fast = run(&program, SimConfig::default(), 16);
    let mut slow_cfg = SimConfig::default();
    slow_cfg.interconnect.hop_latency = 2;
    let slow = run(&program, slow_cfg, 16);
    assert!(
        slow.cycles > fast.cycles,
        "doubling hop latency must cost cycles: {} vs {}",
        slow.cycles,
        fast.cycles
    );
}

/// Register transfers only happen between clusters: the same program
/// on one cluster communicates zero times.
#[test]
fn single_cluster_never_transfers() {
    let s = run(
        "li r1, 3000
         loop: add r2, r2, r1
         addi r1, r1, -1
         bnez r1, loop
         halt",
        SimConfig::default(),
        1,
    );
    assert_eq!(s.reg_transfers, 0);
    assert_eq!(s.avg_active_clusters(), 1.0);
}
