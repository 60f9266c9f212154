//! Correctness pins for the sweep executor and trace replay:
//!
//! * **Golden**: a replayed capture produces statistics bit-identical
//!   to live emulation of the same workload (`SimStats` is all-`u64`,
//!   so `==` is exact).
//! * **Equivalence**: the parallel executor returns the same results
//!   as the serial one, in input order.
//! * **Determinism**: repeating a run — serially or under the worker
//!   pool — yields identical statistics.

use clustered_bench::sweep::{run_point, run_sweep_with, SweepPoint};
use clustered_bench::{run_experiment, run_experiment_with};
use clustered_core::{FineGrain, IntervalDistantIlp, IntervalExplore};
use clustered_sim::{CacheModel, FixedPolicy, NullObserver, SimConfig, SteeringKind, Topology};
use clustered_workloads::CapturedTrace;

const WARMUP: u64 = 2_000;
const MEASURE: u64 = 20_000;

type PolicyFn = fn() -> Box<dyn clustered_sim::ReconfigPolicy>;

fn decentralized() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.cache.model = CacheModel::Decentralized;
    cfg
}

/// Replay must be invisible to the timing model: same stats, bit for
/// bit, as re-emulating the workload live — across a monolithic, a
/// clustered, and a decentralized-cache configuration, the fine-grained
/// policies (fig6), the grid interconnect (fig8), the arrival-estimate
/// criticality source (ablation) and a sensitivity variant.
#[test]
fn golden_replay_matches_live_emulation() {
    let w = clustered_workloads::by_name("gzip").unwrap();
    let trace = CapturedTrace::for_window(&w, WARMUP, MEASURE);
    let mut grid = SimConfig::default();
    grid.interconnect.topology = Topology::Grid;
    let mut no_crit = SimConfig::default();
    no_crit.crit.enabled = false;
    let mut slow_small = SimConfig::default();
    slow_small.interconnect.hop_latency = 2;
    (slow_small.clusters.int_iq, slow_small.clusters.fp_iq) = (10, 10);
    (slow_small.clusters.int_regs, slow_small.clusters.fp_regs) = (20, 20);
    let cases: [(SimConfig, PolicyFn); 8] = [
        (SimConfig::monolithic(), || Box::new(FixedPolicy::new(1))),
        (SimConfig::default(), || Box::new(FixedPolicy::new(8))),
        (decentralized(), || Box::new(FixedPolicy::new(16))),
        (SimConfig::default(), || Box::new(FineGrain::branch_policy())),
        (SimConfig::default(), || Box::new(FineGrain::subroutine_policy())),
        (grid, || Box::new(IntervalExplore::default())),
        (no_crit, || Box::new(FixedPolicy::new(16))),
        (slow_small, || Box::new(IntervalExplore::default())),
    ];
    for (i, (cfg, policy)) in cases.into_iter().enumerate() {
        let live = run_experiment(&w, cfg, policy(), WARMUP, MEASURE);
        let point = SweepPoint::new(format!("gzip/{i}"), &trace, cfg, policy, WARMUP, MEASURE);
        let replayed = run_point(&point);
        assert_eq!(live, replayed, "case {i}: replayed stats diverged from live emulation");
    }
}

/// The golden guarantee also holds for an adaptive policy under the
/// non-default steering heuristics (the ablation's among them) — the
/// pieces that carry state across intervals.
#[test]
fn golden_replay_matches_live_adaptive_policy() {
    let w = clustered_workloads::by_name("crafty").unwrap();
    let trace = CapturedTrace::for_window(&w, WARMUP, MEASURE);
    for steering in [SteeringKind::ModN(3), SteeringKind::ModN(4), SteeringKind::FirstFit] {
        let live = run_experiment_with(
            &w,
            SimConfig::default(),
            Box::new(IntervalExplore::default()),
            steering,
            NullObserver,
            WARMUP,
            MEASURE,
        )
        .stats;
        let point = SweepPoint::new(
            "crafty/explore",
            &trace,
            SimConfig::default(),
            || Box::new(IntervalExplore::default()),
            WARMUP,
            MEASURE,
        )
        .steering(steering);
        assert_eq!(live, run_point(&point), "{steering:?}: adaptive-policy replay diverged");
    }
}

fn mixed_grid() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for name in ["gzip", "swim", "djpeg"] {
        let w = clustered_workloads::by_name(name).unwrap();
        let trace = CapturedTrace::for_window(&w, WARMUP, MEASURE);
        points.push(SweepPoint::new(
            format!("{name}/fixed4"),
            &trace,
            SimConfig::default(),
            || Box::new(FixedPolicy::new(4)),
            WARMUP,
            MEASURE,
        ));
        points.push(SweepPoint::new(
            format!("{name}/explore"),
            &trace,
            SimConfig::default(),
            || Box::new(IntervalExplore::default()),
            WARMUP,
            MEASURE,
        ));
        points.push(SweepPoint::new(
            format!("{name}/distant"),
            &trace,
            decentralized(),
            || Box::new(IntervalDistantIlp::default()),
            WARMUP,
            MEASURE,
        ));
    }
    points
}

/// Parallel execution must be pure speed: same results as the serial
/// loop, in input order, independent of the worker count. The worker
/// count is forced (rather than taken from the host) so the test
/// exercises true concurrency even on a single-core runner.
#[test]
fn parallel_sweep_equals_serial_sweep() {
    let points = mixed_grid();
    let serial = run_sweep_with(&points, 1, run_point);
    for jobs in [2, 3, 8] {
        let parallel = run_sweep_with(&points, jobs, run_point);
        assert_eq!(serial, parallel, "parallel ({jobs} jobs) diverged from serial");
    }
}

/// Same workload + config + policy twice → identical statistics, both
/// serially and under the worker pool.
#[test]
fn sweeps_are_deterministic_across_runs() {
    let first = run_sweep_with(&mixed_grid(), 3, run_point);
    let again = run_sweep_with(&mixed_grid(), 3, run_point);
    assert_eq!(first, again, "repeated parallel sweep diverged");
    let serial = run_sweep_with(&mixed_grid(), 1, run_point);
    assert_eq!(first, serial, "parallel sweep diverged from fresh serial run");
}
