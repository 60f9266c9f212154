//! End-to-end checks of the host-profiled cycle loop: profiling must
//! never change simulated behaviour, and the profile it produces must
//! be internally consistent with the run it measured.

use clustered_core::IntervalExplore;
use clustered_sim::{
    CacheModel, FixedPolicy, HostProfiler, HostStage, Processor, ReconfigPolicy, SimConfig,
    SimStats, SteeringKind,
};
use clustered_workloads::by_name;

fn run_profiled(instructions: u64, sample_interval: u64) -> (SimStats, HostProfiler) {
    let w = by_name("gzip").expect("gzip workload exists");
    let stream = w.trace().map(Result::unwrap);
    let mut cpu = Processor::with_observer(
        SimConfig::default(),
        stream,
        Box::new(FixedPolicy::new(8)),
        SteeringKind::default(),
        HostProfiler::new(sample_interval),
    )
    .expect("valid config");
    let stats = cpu.run(instructions).expect("no stall");
    let profiler = cpu.observer().clone();
    (stats, profiler)
}

/// The acceptance criterion for the profiler gate: a profiler-on run
/// changes no `SimStats` counter. Together with
/// `observed_and_unobserved_runs_are_identical` (which pins the
/// profiler-*off* loop) this brackets both sides of the
/// `WANTS_HOST_PROFILE` branches of the one cycle-loop body. The
/// points cover the centralized cache at 8 clusters, the widest
/// decentralized machine (16 of 16, where event drain dominates), and
/// an adaptive policy that reconfigures mid-run.
#[test]
fn profiled_and_plain_runs_have_identical_stats() {
    let mut decentralized = SimConfig::default();
    decentralized.cache.model = CacheModel::Decentralized;
    type MakePolicy = fn() -> Box<dyn ReconfigPolicy>;
    let points: [(&str, SimConfig, MakePolicy, u64); 3] = [
        ("centralized fixed-8", SimConfig::default(), || Box::new(FixedPolicy::new(8)), 20_000),
        ("decentralized fixed-16", decentralized, || Box::new(FixedPolicy::new(16)), 20_000),
        (
            "centralized interval-explore",
            SimConfig::default(),
            || Box::new(IntervalExplore::default()),
            60_000,
        ),
    ];
    let w = by_name("gzip").expect("gzip workload exists");
    for (label, cfg, policy, instructions) in points {
        let mut plain =
            Processor::new(cfg, w.trace().map(Result::unwrap), policy()).expect("valid config");
        let baseline = plain.run(instructions).expect("no stall");
        let mut cpu = Processor::with_observer(
            cfg,
            w.trace().map(Result::unwrap),
            policy(),
            SteeringKind::default(),
            HostProfiler::new(1_000),
        )
        .expect("valid config");
        let profiled = cpu.run(instructions).expect("no stall");
        assert_eq!(baseline, profiled, "{label}: host profiling changed simulated behaviour");
        assert_eq!(cpu.observer().cycles(), profiled.cycles, "{label}: one sample per cycle");
        if label.ends_with("interval-explore") {
            assert!(profiled.reconfigurations > 0, "{label}: the policy must reconfigure");
        }
    }
}

#[test]
fn profile_is_consistent_with_the_run() {
    let (stats, p) = run_profiled(30_000, 1_000);

    // Stage attribution: one sample per simulated cycle, and the stage
    // shares partition the measured loop time.
    assert_eq!(p.cycles(), stats.cycles, "one stage sample per cycle");
    assert!(p.loop_nanos() > 0, "a real run takes real time");
    let share_sum: f64 = HostStage::ALL.iter().map(|&s| p.stage_share(s)).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "stage shares sum to 1, got {share_sum}");

    // Load skew: FixedPolicy(8) keeps 8 clusters active, so events
    // drain from more than one shard and the skew summary is defined.
    assert!(p.drained_total() > 0, "a gzip run drains events");
    let active_shards = p.drained_events().iter().filter(|&&n| n > 0).count();
    assert!(active_shards > 1, "events spread across shards, saw {active_shards}");
    assert!(p.drained_skew() >= 1.0, "skew is max/mean over active shards");
    assert_eq!(
        p.drained_events().iter().sum::<u64>(),
        p.drained_total(),
        "per-shard attribution is complete"
    );

    // Busy-cycle accounting: the profiler samples the queued mask at
    // end-of-cycle (after dispatch has refilled it), so it is a
    // different instant than the issue-time `cluster_busy_cycles` in
    // SimStats — the counts need not match exactly, but both must be
    // plausible per-cycle tallies of the same machine.
    let profiler_busy: u64 = p.cluster_busy_cycles().iter().sum();
    assert!(profiler_busy > 0, "an active run has busy clusters");
    for (c, &busy) in p.cluster_busy_cycles().iter().enumerate() {
        assert!(busy <= stats.cycles, "cluster {c} busy {busy} of {} cycles", stats.cycles);
    }
    assert!(
        p.fully_quiescent_cycles() <= stats.cycles,
        "quiescent cycles bounded by the run length"
    );

    // Timeline: slices cover the run in order, with no drops at this
    // cap, and their stage nanos re-sum to (at most) the totals.
    assert!(!p.slices().is_empty());
    assert_eq!(p.dropped_slices(), 0);
    let mut prev_end = 0;
    for s in p.slices() {
        assert!(s.start_cycle >= prev_end);
        assert!(s.end_cycle > s.start_cycle);
        prev_end = s.end_cycle;
    }
    let sliced: u64 = p.slices().iter().map(|s| s.stage_nanos.iter().sum::<u64>()).sum();
    assert!(sliced <= p.loop_nanos(), "slices never claim more time than measured");
}

#[test]
fn reset_discards_warmup_from_the_profile() {
    let w = by_name("gzip").expect("gzip workload exists");
    let stream = w.trace().map(Result::unwrap);
    let mut cpu = Processor::with_observer(
        SimConfig::default(),
        stream,
        Box::new(FixedPolicy::new(8)),
        SteeringKind::default(),
        HostProfiler::new(500),
    )
    .expect("valid config");
    cpu.run(5_000).expect("no stall");
    let warm = cpu.stats().cycles;
    cpu.observer_mut().reset();
    let stats = cpu.run(10_000).expect("no stall");
    let p = cpu.observer();
    assert_eq!(p.cycles(), stats.cycles - warm, "profile covers only the measured window");
    for s in p.slices() {
        assert!(s.start_cycle >= warm, "no slice reaches back into the warmup");
    }
}
