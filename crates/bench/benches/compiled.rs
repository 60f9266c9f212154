//! Compiled-replay bench: simulator wall-clock throughput of the
//! pre-decoded [`CompiledTrace`](clustered_workloads::CompiledTrace)
//! path against plain [`CapturedTrace`](clustered_workloads::CapturedTrace)
//! replay (decode-on-the-fly through the blanket `TraceSource` impl).
//!
//! Both paths compute bit-identical schedules (pinned by
//! `tests/compiled_replay.rs`), so the simulated-cycle counts per case
//! pair are equal and the ratio of wall-clock minima is exactly the
//! sim-cycles/sec speedup. Cases cover the two 16-cluster shapes that
//! bound the decode fraction: `16cfg_2active` (cheap quiescent cycles,
//! decode is a large share) and `16cfg_16active` (fully active,
//! decode is diluted). Deltas are committed to
//! `results/BENCH_compiled.json` (schema in EXPERIMENTS.md), which the
//! CI `bench-cmp` self-compare gate prices.

use clustered_bench::harness::Harness;
use clustered_emu::{DecodedInst, TraceSource};
use clustered_sim::{drive, FixedPolicy, NullObserver, SimConfig, SimStats, SteeringKind};
use clustered_workloads::CapturedTrace;
use std::hint::black_box;

const WARMUP: u64 = 5_000;
const INSTRUCTIONS: u64 = 100_000;

/// One fixed-width run of `stream` on a `configured`-cluster machine.
fn run(stream: impl TraceSource, configured: usize, active: usize) -> SimStats {
    let mut cfg = SimConfig::default();
    cfg.clusters.count = configured;
    let policy = Box::new(FixedPolicy::new(active));
    drive(
        cfg,
        stream,
        policy,
        SteeringKind::default(),
        NullObserver,
        WARMUP,
        INSTRUCTIONS,
    )
    .expect("valid bench configuration")
    .stats
}

/// Drains `src` through [`TraceSource::next_run`] with a fetch-sized
/// budget, mirroring how the block-batched fetch stage consumes a
/// trace, and checks the record count.
fn drain(mut src: impl TraceSource, expected: usize, out: &mut Vec<DecodedInst>) {
    let mut count = 0usize;
    loop {
        out.clear();
        let k = src.next_run(8, out);
        if k == 0 {
            break;
        }
        black_box(&*out);
        count += k;
    }
    assert_eq!(count, expected);
}

fn main() {
    let mut h = Harness::from_env("compiled");

    // Stage-level measurement first: the decode work itself, isolated
    // from the pipeline. This is the cost the compiled table deletes —
    // unpack + `Inst` lookup + field extraction per record on the
    // replay arm versus a table row copy on the compiled arm.
    {
        let w = clustered_workloads::by_name("gzip").expect("known workload");
        let trace = CapturedTrace::for_window(&w, WARMUP, INSTRUCTIONS);
        let compiled = trace.compile();
        let n = trace.len();
        let mut out: Vec<DecodedInst> = Vec::with_capacity(16);
        h.bench("compiled/decode_gzip/replay", || {
            drain(trace.replay(), n, &mut out);
        });
        let replay_best = h.results().last().expect("case just ran").min();
        h.bench("compiled/decode_gzip/compiled", || {
            drain(compiled.replay(), n, &mut out);
        });
        let compiled_best = h.results().last().expect("case just ran").min();
        println!(
            "\ncompiled/decode_gzip         {n:>9} records     decode-stage speedup {:.2}x",
            replay_best.as_secs_f64() / compiled_best.as_secs_f64(),
        );
    }
    let cases: [(&str, &str, usize, usize); 3] = [
        ("gzip", "16cfg_2active", 16, 2),
        ("gzip", "16cfg_16active", 16, 16),
        ("djpeg", "16cfg_16active", 16, 16),
    ];
    let mut rows = Vec::new();
    for (workload, shape, configured, active) in cases {
        let w = clustered_workloads::by_name(workload).expect("known workload");
        let trace = CapturedTrace::for_window(&w, WARMUP, INSTRUCTIONS);
        let compiled = trace.compile();
        // Deterministic simulation: one untimed run pins the cycle
        // count every timed sample repeats — and the two paths must
        // agree on it, or the comparison is meaningless.
        let cycles = run(trace.replay(), configured, active).cycles;
        assert_eq!(
            cycles,
            run(compiled.replay(), configured, active).cycles,
            "compiled path must simulate the identical schedule"
        );
        h.bench(&format!("compiled/{workload}_{shape}/replay"), || {
            black_box(run(trace.replay(), configured, active));
        });
        let replay_best = h.results().last().expect("case just ran").min();
        h.bench(&format!("compiled/{workload}_{shape}/compiled"), || {
            black_box(run(compiled.replay(), configured, active));
        });
        let compiled_best = h.results().last().expect("case just ran").min();
        rows.push((workload, shape, cycles, replay_best, compiled_best));
    }

    println!();
    for (workload, shape, cycles, replay, compiled) in rows {
        let r_rate = cycles as f64 / replay.as_secs_f64();
        let c_rate = cycles as f64 / compiled.as_secs_f64();
        println!(
            "compiled/{workload}_{shape:<16} {cycles:>9} sim-cycles  \
             replay {r_rate:>10.0} c/s  compiled {c_rate:>10.0} c/s  ({:.2}x)",
            c_rate / r_rate,
        );
    }
    h.finish();
}
