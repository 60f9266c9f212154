//! Quiescence bench: simulator wall-clock throughput when most of a
//! wide machine is disabled.
//!
//! The paper's adaptive policies spend long stretches at 2–4 active
//! clusters on a 16-cluster die, so the cycle loop's cost on a
//! wide-but-idle configuration dominates experiment latency. The
//! headline comparison is `16cfg_2active` (16 clusters configured,
//! policy pins 2 active — 14 clusters quiescent every cycle) against
//! `2cfg_2active` (the same machine configured narrow, the lower
//! bound); `16cfg_16active` guards against regressions on the fully
//! active path. Deltas are committed to `results/BENCH_shard.json`
//! (schema in EXPERIMENTS.md), which also records the pre-refactor
//! baseline the ≥1.5× quiescence win is measured against.

use clustered_bench::harness::Harness;
use clustered_sim::{drive, FixedPolicy, NullObserver, SimConfig, SimStats, SteeringKind};
use clustered_workloads::CapturedTrace;
use std::hint::black_box;

const WARMUP: u64 = 5_000;
const INSTRUCTIONS: u64 = 100_000;

fn run(trace: &CapturedTrace, configured: usize, active: usize) -> SimStats {
    let mut cfg = SimConfig::default();
    cfg.clusters.count = configured;
    let policy = Box::new(FixedPolicy::new(active));
    drive(cfg, trace.replay(), policy, SteeringKind::default(), NullObserver, WARMUP, INSTRUCTIONS)
        .expect("valid bench configuration")
        .stats
}

fn main() {
    let mut h = Harness::from_env("shard");
    let gzip = clustered_workloads::by_name("gzip").expect("gzip workload");
    let trace = CapturedTrace::for_window(&gzip, WARMUP, INSTRUCTIONS);

    let cases: [(&str, usize, usize); 3] = [
        ("shard/16cfg_2active", 16, 2),
        ("shard/2cfg_2active", 2, 2),
        ("shard/16cfg_16active", 16, 16),
    ];
    let mut rates = Vec::new();
    for (name, configured, active) in cases {
        // The simulation is deterministic, so one untimed run pins the
        // simulated-cycle count every timed sample repeats.
        let cycles = run(&trace, configured, active).cycles;
        h.bench(name, || {
            black_box(run(&trace, configured, active));
        });
        let best = h.results().last().expect("case just ran").min();
        rates.push((name, cycles, cycles as f64 / best.as_secs_f64()));
    }

    println!();
    for (name, cycles, rate) in rates {
        println!("{name:<44} {cycles:>9} sim-cycles  {:>10.0} sim-cycles/s", rate);
    }
    h.finish();
}
