//! Host-profiler overhead bench: the same run with the profiler off
//! (`NullObserver`, the default every experiment uses) and on
//! (`HostProfiler` at its default sample interval).
//!
//! The `profiler_off` case is the zero-cost contract: the compile-time
//! `WANTS_HOST_PROFILE` gate must keep it at the pre-profiler
//! throughput recorded in the `results/BENCH_*.json` trajectory
//! (`bench-cmp` in `scripts/ci.sh` enforces that). The `profiler_on`
//! case quantifies what turning the instrumentation on costs — two
//! `Instant` reads per stage per cycle — so regressions in the
//! profiled path itself are visible too. Deltas go to
//! `results/BENCH_hostprof.json` (schema in EXPERIMENTS.md).

use clustered_bench::harness::Harness;
use clustered_sim::{
    drive, FixedPolicy, HostProfiler, NullObserver, SimConfig, SimObserver, SimStats,
    SteeringKind, DEFAULT_SAMPLE_INTERVAL,
};
use clustered_workloads::CapturedTrace;
use std::hint::black_box;

const WARMUP: u64 = 5_000;
const INSTRUCTIONS: u64 = 100_000;

fn run<O: SimObserver>(trace: &CapturedTrace, observer: O) -> SimStats {
    let policy = Box::new(FixedPolicy::new(8));
    let steering = SteeringKind::default();
    drive(SimConfig::default(), trace.replay(), policy, steering, observer, WARMUP, INSTRUCTIONS)
        .expect("valid bench configuration")
        .stats
}

fn main() {
    let mut h = Harness::from_env("hostprof");
    let gzip = clustered_workloads::by_name("gzip").expect("gzip workload");
    let trace = CapturedTrace::for_window(&gzip, WARMUP, INSTRUCTIONS);

    // The simulation is deterministic, and the profiler must not
    // perturb it: pin that here before timing anything.
    let off = run(&trace, NullObserver);
    let on = run(&trace, HostProfiler::new(DEFAULT_SAMPLE_INTERVAL));
    assert_eq!(off, on, "HostProfiler must not change simulation statistics");

    h.bench("hostprof/profiler_off", || {
        black_box(run(&trace, NullObserver));
    });
    let off_best = h.results().last().expect("case just ran").min();
    h.bench("hostprof/profiler_on", || {
        black_box(run(&trace, HostProfiler::new(DEFAULT_SAMPLE_INTERVAL)));
    });
    let on_best = h.results().last().expect("case just ran").min();

    println!();
    println!(
        "profiler off {:>10.0} sim-cycles/s   on {:>10.0} sim-cycles/s   overhead {:.2}x",
        off.cycles as f64 / off_best.as_secs_f64(),
        on.cycles as f64 / on_best.as_secs_f64(),
        on_best.as_secs_f64() / off_best.as_secs_f64()
    );
    h.finish();
}
