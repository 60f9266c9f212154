//! Performance benches for the sweep executor: the full fig3-style
//! 9-workload × 5-configuration grid, before (serial loop re-emulating
//! every point) versus after (shared captures, serial replay, parallel
//! replay).
//!
//! The `before` case is the exact code path the experiment binaries
//! used prior to the sweep executor; the deltas between the three
//! cases are the evidence committed to `results/BENCH_sweeps.json`
//! (schema in EXPERIMENTS.md). Speedup of the parallel case over the
//! serial-replay case scales with host cores; the replay cases beat
//! `before` even on one core by eliminating per-point re-emulation.

use clustered_bench::harness::Harness;
use clustered_bench::run_experiment;
use clustered_bench::sweep::{run_sweep, run_sweep_serial, SweepPoint};
use clustered_sim::{FixedPolicy, SimConfig};
use clustered_workloads::CapturedTrace;
use std::hint::black_box;

const INSTRUCTIONS: u64 = 20_000;
const WARMUP: u64 = 2_000;
const COUNTS: [usize; 4] = [2, 4, 8, 16];

fn grid_points(traces: &[(clustered_workloads::Workload, CapturedTrace)]) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for (w, trace) in traces {
        points.push(SweepPoint::new(
            format!("{}/mono", w.name()),
            trace,
            SimConfig::monolithic(),
            || Box::new(FixedPolicy::new(1)),
            WARMUP,
            INSTRUCTIONS,
        ));
        for &n in &COUNTS {
            points.push(SweepPoint::new(
                format!("{}/{n}", w.name()),
                trace,
                SimConfig::default(),
                move || Box::new(FixedPolicy::new(n)),
                WARMUP,
                INSTRUCTIONS,
            ));
        }
    }
    points
}

fn main() {
    let mut h = Harness::from_env("sweeps");
    let workloads = clustered_workloads::all();

    // Capture cost alone: one emulation pass per workload. Everything
    // the replay cases save, they save relative to paying this 45×.
    h.bench("sweep/capture_9_workloads", || {
        for w in &workloads {
            black_box(CapturedTrace::for_window(w, WARMUP, INSTRUCTIONS).len());
        }
    });

    // Before: the old serial loop, re-emulating the workload for every
    // one of the 45 grid points.
    h.bench("sweep/fig3_grid_before_serial_reemulate", || {
        for w in &workloads {
            black_box(run_experiment(
                w,
                SimConfig::monolithic(),
                Box::new(FixedPolicy::new(1)),
                WARMUP,
                INSTRUCTIONS,
            ));
            for &n in &COUNTS {
                black_box(run_experiment(
                    w,
                    SimConfig::default(),
                    Box::new(FixedPolicy::new(n)),
                    WARMUP,
                    INSTRUCTIONS,
                ));
            }
        }
    });

    // After, one thread: capture (timed — this is the end-to-end cost
    // a binary pays) plus serial replay of all 45 points.
    h.bench("sweep/fig3_grid_replay_serial", || {
        let traces: Vec<_> = workloads
            .iter()
            .map(|w| (w.clone(), CapturedTrace::for_window(w, WARMUP, INSTRUCTIONS)))
            .collect();
        black_box(run_sweep_serial(&grid_points(&traces)));
    });

    // After, worker pool (`CLUSTERED_JOBS` / available parallelism):
    // what the ported binaries actually run.
    h.bench("sweep/fig3_grid_replay_parallel", || {
        let traces: Vec<_> = workloads
            .iter()
            .map(|w| (w.clone(), CapturedTrace::for_window(w, WARMUP, INSTRUCTIONS)))
            .collect();
        black_box(run_sweep(&grid_points(&traces)));
    });

    h.finish();
}
