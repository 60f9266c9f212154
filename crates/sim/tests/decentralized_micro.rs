//! Micro tests of decentralized-cache-specific mechanisms: bank
//! prediction effects, store broadcast/dummy-slot ordering, and the
//! reconfiguration flush.

use clustered_emu::trace;
use clustered_isa::assemble;
use clustered_sim::{
    CacheModel, CommitEvent, FixedPolicy, Processor, ReconfigPolicy, SimConfig, SimStats,
};

fn decentralized() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.cache.model = CacheModel::Decentralized;
    cfg
}

fn run(source: &str, cfg: SimConfig, policy: Box<dyn ReconfigPolicy>) -> SimStats {
    let program = assemble(source).expect("valid test program");
    let stream = trace(program).map(|r| r.expect("well-formed"));
    let mut cpu = Processor::new(cfg, stream, policy).expect("valid config");
    cpu.run(5_000_000).expect("no stall");
    assert!(cpu.finished(), "program must run to completion");
    *cpu.stats()
}

/// A single-location load stream always hits the same bank: the bank
/// predictor must become near-perfect.
#[test]
fn constant_address_stream_predicts_perfectly() {
    let s = run(
        ".data
         buf: .space 8
         .text
         la r2, buf
         li r1, 3000
         loop: ld r3, 0(r2)
         addi r1, r1, -1
         bnez r1, loop
         halt",
        decentralized(),
        Box::new(FixedPolicy::new(16)),
    );
    assert!(s.bank_predictions >= 3000);
    assert!(s.bank_accuracy() > 0.99, "constant bank must be learned: {:.3}", s.bank_accuracy());
}

/// A pseudo-random address stream defeats the bank predictor — the
/// §5 cost the paper highlights.
#[test]
fn random_address_stream_defeats_bank_prediction() {
    let s = run(
        ".data
         buf: .space 65536
         .text
         la r2, buf
         li r21, 88172645463325252
         li r1, 3000
         loop:
         li r22, 6364136223846793005
         mul r21, r21, r22
         addi r21, r21, 1442695040888963407
         srli r4, r21, 30
         andi r4, r4, 8184
         add r5, r2, r4
         ld r3, 0(r5)
         addi r1, r1, -1
         bnez r1, loop
         halt",
        decentralized(),
        Box::new(FixedPolicy::new(16)),
    );
    assert!(s.bank_accuracy() < 0.5, "random banks cannot be predicted: {:.3}", s.bank_accuracy());
    assert!(s.ipc() > 0.05, "mispredicted banks must still complete");
}

/// Store-to-load ordering across clusters: a load after a store to the
/// same address must observe the forwarding path (or at least wait for
/// the broadcast) rather than racing past it.
#[test]
fn cross_bank_store_load_ordering_forwards() {
    let s = run(
        ".data
         buf: .space 64
         .text
         la r2, buf
         li r1, 2000
         loop:
         sd r1, 0(r2)
         ld r3, 0(r2)
         sd r1, 8(r2)
         ld r4, 8(r2)
         addi r1, r1, -1
         bnez r1, loop
         halt",
        decentralized(),
        Box::new(FixedPolicy::new(16)),
    );
    assert!(
        s.lsq_forwards > 1_000,
        "same-word store→load pairs should forward: {}",
        s.lsq_forwards
    );
}

/// Reconfiguring the decentralized machine flushes dirty lines and
/// invalidates the L1: the first accesses afterwards miss again.
#[test]
fn reconfiguration_flush_invalidates_the_l1() {
    struct SwitchAt {
        seq: u64,
        to: usize,
        fired: bool,
    }
    impl ReconfigPolicy for SwitchAt {
        fn name(&self) -> String {
            "switch-at".into()
        }
        fn initial_clusters(&self) -> usize {
            16
        }
        fn on_commit(&mut self, event: &CommitEvent) -> Option<usize> {
            if !self.fired && event.seq >= self.seq {
                self.fired = true;
                Some(self.to)
            } else {
                None
            }
        }
    }
    // Dirty a small buffer, then keep re-reading it after the switch.
    let source = "
         .data
         buf: .space 512
         .text
         la r2, buf
         li r1, 64
         dirty: sd r1, 0(r2)
         addi r2, r2, 8
         addi r1, r1, -1
         bnez r1, dirty
         li r9, 4000
         reread:
         la r2, buf
         li r1, 64
         inner: ld r3, 0(r2)
         addi r2, r2, 8
         addi r1, r1, -1
         bnez r1, inner
         addi r9, r9, -1
         bnez r9, reread
         halt";
    let with_switch =
        run(source, decentralized(), Box::new(SwitchAt { seq: 5_000, to: 4, fired: false }));
    assert_eq!(with_switch.reconfigurations, 1);
    assert!(with_switch.flush_writebacks > 0, "dirtied lines must be written back at the flush");
    let without = run(source, decentralized(), Box::new(FixedPolicy::new(16)));
    assert_eq!(without.flush_writebacks, 0);
    assert!(
        with_switch.l1_misses > without.l1_misses,
        "the flush must cost extra misses: {} vs {}",
        with_switch.l1_misses,
        without.l1_misses
    );
}

/// The same program on the centralized model performs no cache
/// transfers from bank mispredictions (there is no bank steering).
#[test]
fn centralized_model_has_no_bank_predictions() {
    let s = run(
        ".data
         buf: .space 8
         .text
         la r2, buf
         li r1, 1000
         loop: ld r3, 0(r2)
         addi r1, r1, -1
         bnez r1, loop
         halt",
        SimConfig::default(),
        Box::new(FixedPolicy::new(16)),
    );
    assert_eq!(s.bank_predictions, 0);
    assert_eq!(s.bank_mispredictions, 0);
}
