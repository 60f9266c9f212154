//! Cross-crate integration tests exercising the full public API:
//! assembler → emulator → workloads → simulator → policies.

use clustered::policies::{FineGrain, IntervalDistantIlp, IntervalExplore};
use clustered::sim::{
    drive, CacheModel, FixedPolicy, NullObserver, ReconfigPolicy, SimConfig, SimStats, SteeringKind,
};
use clustered::{emu, isa, workloads};

fn run_policy_warm(
    workload: &str,
    cfg: SimConfig,
    policy: Box<dyn ReconfigPolicy>,
    warmup: u64,
    instructions: u64,
) -> SimStats {
    let w = workloads::by_name(workload).expect("known workload");
    let stream = w.trace().map(|r| r.expect("kernel cannot fault"));
    drive(cfg, stream, policy, SteeringKind::default(), NullObserver, warmup, instructions)
        .expect("valid config, no stall")
        .stats
}

fn run_policy(
    workload: &str,
    cfg: SimConfig,
    policy: Box<dyn ReconfigPolicy>,
    instructions: u64,
) -> SimStats {
    run_policy_warm(workload, cfg, policy, 10_000, instructions)
}

#[test]
fn assembled_program_runs_through_the_whole_stack() {
    let program = isa::assemble("start: li r1, 64\n loop: addi r1, r1, -1\n bnez r1, loop\n halt")
        .expect("valid program");
    let stream = emu::trace(program).map(|r| r.expect("well-formed"));
    let policy = Box::new(FixedPolicy::new(4));
    let steering = SteeringKind::default();
    let run = drive(SimConfig::default(), stream, policy, steering, NullObserver, 0, u64::MAX)
        .expect("valid config, no stall");
    assert_eq!(run.stats.committed, 129, "li + 64×(addi+bnez)");
}

#[test]
fn every_policy_family_runs_every_workload() {
    for name in workloads::NAMES {
        let policies: Vec<Box<dyn ReconfigPolicy>> = vec![
            Box::new(FixedPolicy::new(8)),
            Box::new(IntervalExplore::default()),
            Box::new(IntervalDistantIlp::with_interval(1_000)),
            Box::new(FineGrain::branch_policy()),
            Box::new(FineGrain::subroutine_policy()),
        ];
        for policy in policies {
            let pname = policy.name();
            let s = run_policy(name, SimConfig::default(), policy, 15_000);
            assert!(s.committed >= 15_000, "{name}/{pname}: too few committed");
            assert!(s.ipc() > 0.03, "{name}/{pname}: IPC collapsed: {}", s.ipc());
        }
    }
}

#[test]
fn dynamic_policy_tracks_the_better_static_choice() {
    // djpeg strongly prefers 16 clusters, vpr prefers few: the same
    // untouched policy must land near the right configuration on both.
    for (name, wide_better) in [("djpeg", true), ("vpr", false)] {
        // Generous warm-up: the 10K-instruction exploration intervals
        // must finish before measuring which machine was chosen.
        let s = run_policy_warm(
            name,
            SimConfig::default(),
            Box::new(IntervalExplore::default()),
            100_000,
            50_000,
        );
        let avg = s.avg_active_clusters();
        if wide_better {
            assert!(avg > 9.0, "{name}: expected a wide machine, got {avg:.1}");
        } else {
            assert!(avg < 9.0, "{name}: expected a narrow machine, got {avg:.1}");
        }
    }
}

#[test]
fn committed_work_is_policy_independent() {
    // Reconfiguration changes timing, never the architectural work: the
    // same number of branches/memrefs commit under any policy.
    let fixed = run_policy("gzip", SimConfig::default(), Box::new(FixedPolicy::new(16)), 30_000);
    let dynamic = run_policy(
        "gzip",
        SimConfig::default(),
        Box::new(IntervalDistantIlp::with_interval(1_000)),
        30_000,
    );
    // Windows differ by up to a commit-width overshoot; compare rates.
    let fb = fixed.branches as f64 / fixed.committed as f64;
    let db = dynamic.branches as f64 / dynamic.committed as f64;
    assert!((fb - db).abs() < 0.01, "branch rates diverged: {fb} vs {db}");
    let fm = fixed.memrefs as f64 / fixed.committed as f64;
    let dm = dynamic.memrefs as f64 / dynamic.committed as f64;
    assert!((fm - dm).abs() < 0.01, "memref rates diverged: {fm} vs {dm}");
}

#[test]
fn decentralized_reconfiguration_flushes_the_cache() {
    let mut cfg = SimConfig::default();
    cfg.cache.model = CacheModel::Decentralized;
    let s = run_policy("swim", cfg, Box::new(IntervalDistantIlp::with_interval(2_000)), 60_000);
    if s.reconfigurations > 0 {
        assert!(
            s.flush_writebacks > 0 || s.flush_stall_cycles > 0,
            "reconfigured {} times with no flush evidence",
            s.reconfigurations
        );
    }
    // The centralized model must never flush.
    let s = run_policy(
        "swim",
        SimConfig::default(),
        Box::new(IntervalDistantIlp::with_interval(2_000)),
        60_000,
    );
    assert_eq!(s.flush_writebacks, 0);
    assert_eq!(s.flush_stall_cycles, 0);
}

#[test]
fn runs_are_deterministic() {
    let a =
        run_policy("crafty", SimConfig::default(), Box::new(IntervalExplore::default()), 25_000);
    let b =
        run_policy("crafty", SimConfig::default(), Box::new(IntervalExplore::default()), 25_000);
    assert_eq!(a, b, "identical runs must produce identical statistics");
}

#[test]
fn fine_grain_policy_reconfigures_more_often_than_interval() {
    // crafty is the paper's most reconfiguration-happy program under
    // the fine-grained scheme (1.5M changes); at any scale the branch
    // policy must switch at least as often as the interval policy.
    // Count total changes from the start of the run (the fine-grained
    // policy's flurry happens while the table is still being sampled).
    let interval = run_policy_warm(
        "crafty",
        SimConfig::default(),
        Box::new(IntervalExplore::default()),
        0,
        60_000,
    );
    let fine = run_policy_warm(
        "crafty",
        SimConfig::default(),
        Box::new(FineGrain::branch_policy()),
        0,
        60_000,
    );
    assert!(
        fine.reconfigurations >= interval.reconfigurations,
        "fine-grain {} < interval {}",
        fine.reconfigurations,
        interval.reconfigurations
    );
}

#[test]
fn monolithic_baseline_has_no_communication() {
    let s = run_policy("galgel", SimConfig::monolithic(), Box::new(FixedPolicy::new(1)), 25_000);
    assert_eq!(s.reg_transfers, 0);
    assert_eq!(s.cache_transfers, 0);
    assert_eq!(s.avg_active_clusters(), 1.0);
}

#[test]
fn disabled_clusters_drain_naturally() {
    // Shrink from 16 to 2 clusters mid-run; the pipeline must keep
    // committing (in-flight instructions in disabled clusters finish).
    struct ShrinkOnce {
        fired: bool,
    }
    impl ReconfigPolicy for ShrinkOnce {
        fn name(&self) -> String {
            "shrink-once".into()
        }
        fn initial_clusters(&self) -> usize {
            16
        }
        fn on_commit(&mut self, event: &clustered::sim::CommitEvent) -> Option<usize> {
            if !self.fired && event.seq > 15_000 {
                self.fired = true;
                Some(2)
            } else {
                None
            }
        }
    }
    let s = run_policy("swim", SimConfig::default(), Box::new(ShrinkOnce { fired: false }), 30_000);
    assert_eq!(s.reconfigurations, 1);
    assert!(s.committed >= 30_000);
    assert!(s.cycles_at_config[1] > 0, "must spend cycles at 2 clusters");
    assert!(s.ipc() > 0.05);
}
