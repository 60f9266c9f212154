//! End-to-end checks that [`ReconfigLog`] sees the same
//! reconfigurations the statistics counters describe, and that the
//! observer seam — composed observers included — does not perturb
//! simulation results.

use clustered_sim::{
    drive, AuditObserver, CacheModel, DecisionTrace, FixedPolicy, HostProfiler, NullObserver,
    Processor, ReconfigLog, ReconfigPolicy, Run, SimConfig, SimObserver, SimStats, SteeringKind,
};
use clustered_workloads::by_name;

fn run_observed(
    cfg: SimConfig,
    policy: Box<dyn ReconfigPolicy>,
    instructions: u64,
) -> (SimStats, ReconfigLog) {
    let w = by_name("gzip").expect("gzip workload exists");
    let stream = w.trace().map(Result::unwrap);
    let mut cpu =
        Processor::with_observer(cfg, stream, policy, SteeringKind::default(), ReconfigLog::new())
            .expect("valid config");
    let stats = cpu.run(instructions).expect("no stall");
    let observer = cpu.observer().clone();
    (stats, observer)
}

#[test]
fn observer_sees_decentralized_reconfigurations_and_flushes() {
    let mut cfg = SimConfig::default();
    cfg.cache.model = CacheModel::Decentralized;
    // A policy oscillating between 4 and 16 clusters forces real
    // drain + flush reconfigurations.
    struct Oscillate {
        n: u64,
    }
    impl ReconfigPolicy for Oscillate {
        fn name(&self) -> String {
            "oscillate".to_string()
        }
        fn initial_clusters(&self) -> usize {
            4
        }
        fn on_commit(&mut self, _e: &clustered_sim::CommitEvent) -> Option<usize> {
            self.n += 1;
            match self.n % 4_000 {
                0 => Some(4),
                2_000 => Some(16),
                _ => None,
            }
        }
    }
    let (stats, m) = run_observed(cfg, Box::new(Oscillate { n: 0 }), 20_000);
    assert!(stats.reconfigurations > 0, "policy must have fired");
    assert_eq!(m.reconfigs.len() as u64, stats.reconfigurations);
    assert_eq!(m.flushes.len() as u64, stats.reconfigurations);
    assert_eq!(m.flushes.iter().map(|f| f.stall_cycles).sum::<u64>(), stats.flush_stall_cycles);
    assert_eq!(m.flushes.iter().map(|f| f.writebacks).sum::<u64>(), stats.flush_writebacks);
    for r in &m.reconfigs {
        assert_ne!(r.from, r.to);
        assert!(r.cycle <= stats.cycles);
    }
}

/// gzip on fixed-8 through [`drive`]: 5k warm-up, 20k measured.
fn drive_gzip<O: SimObserver>(observer: O) -> Run<O> {
    let w = by_name("gzip").expect("gzip workload exists");
    let stream = w.trace().map(Result::unwrap);
    let policy = Box::new(FixedPolicy::new(8));
    drive(SimConfig::default(), stream, policy, SteeringKind::default(), observer, 5_000, 20_000)
        .expect("valid config, no stall")
}

#[test]
fn observed_and_unobserved_runs_are_identical() {
    let w = by_name("gzip").expect("gzip workload exists");
    let stream = w.trace().map(Result::unwrap);
    let mut plain = Processor::new(SimConfig::default(), stream, Box::new(FixedPolicy::new(8)))
        .expect("valid config");
    let baseline = plain.run(20_000).expect("no stall");
    let (observed, _) = run_observed(SimConfig::default(), Box::new(FixedPolicy::new(8)), 20_000);
    assert_eq!(baseline, observed, "observer must not change simulated behaviour");

    // Composed observers see one run several ways at once, and still
    // leave the schedule untouched.
    let plain = drive_gzip(NullObserver);
    let audited = drive_gzip((AuditObserver::new(), HostProfiler::new(1_000)));
    assert_eq!(plain.stats, audited.stats, "audit + profile must not perturb the run");
    let (auditor, profiler) = &audited.observer;
    assert!(auditor.is_clean(), "violations: {:?}", auditor.violations());
    assert_eq!(
        profiler.cycles(),
        audited.stats.cycles,
        "the profiler resets when the measured window starts"
    );

    let traced = drive_gzip((ReconfigLog::new(), DecisionTrace::new()));
    assert_eq!(plain.stats, traced.stats, "reconfig log + decisions must not perturb the run");
    let decided = drive_gzip(DecisionTrace::new());
    assert!(!decided.observer.decisions().is_empty(), "fixed-8 checkpoints every 10k commits");
    assert_eq!(traced.observer.1.decisions(), decided.observer.decisions());
}
