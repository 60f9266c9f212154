//! Conservation-law auditor integration suite.
//!
//! Runs the same workload × cluster-count × policy-family × cache-model
//! matrix as the shard-equivalence suite (360 points) with an
//! [`AuditObserver`] attached and requires every point to come back
//! clean: the invariants are supposed to hold on *every* healthy
//! schedule, not just the configurations the unit tests happen to
//! construct. Each audited point is also compared counter-for-counter
//! against an unaudited run — auditing only reads machine state, so
//! its presence must not perturb a single statistic.

use clustered_core::{FineGrain, IntervalDistantIlp, IntervalExplore};
use clustered_sim::{
    AuditInvariant, AuditObserver, CacheModel, FixedPolicy, Processor, ReconfigPolicy, SimConfig,
    SimStats, SteeringKind,
};
use clustered_workloads::CapturedTrace;

/// Warm-up and measured instructions per point; matches the
/// shard-equivalence suite so the two grids exercise identical
/// schedules.
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 4_000;
const COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const FAMILIES: [&str; 4] = ["fixed", "explore", "distant", "finegrain"];
const MODELS: [(&str, CacheModel); 2] =
    [("cen", CacheModel::Centralized), ("dec", CacheModel::Decentralized)];

/// One matrix point's configuration and policy (same shape as the
/// shard-equivalence suite: `fixed` pins active clusters on a full
/// die, adaptive families roam inside an `n`-cluster die).
fn point(model: CacheModel, family: &str, n: usize) -> (SimConfig, Box<dyn ReconfigPolicy>) {
    let mut cfg = SimConfig::default();
    let policy: Box<dyn ReconfigPolicy> = match family {
        "fixed" => Box::new(FixedPolicy::new(n)),
        adaptive => {
            if n == 1 {
                cfg = SimConfig::monolithic();
            } else {
                cfg.clusters.count = n;
            }
            match adaptive {
                "explore" => Box::new(IntervalExplore::default()),
                "distant" => Box::new(IntervalDistantIlp::default()),
                "finegrain" => Box::new(FineGrain::branch_policy()),
                other => panic!("unknown policy family {other}"),
            }
        }
    };
    cfg.cache.model = model;
    (cfg, policy)
}

fn run_audited(
    trace: &CapturedTrace,
    cfg: SimConfig,
    policy: Box<dyn ReconfigPolicy>,
) -> (SimStats, AuditObserver) {
    let mut cpu = Processor::with_observer(
        cfg,
        trace.compile().replay(),
        policy,
        SteeringKind::default(),
        AuditObserver::new(),
    )
    .expect("valid matrix config");
    cpu.run(WARMUP).expect("no stall in warm-up");
    let before = *cpu.stats();
    cpu.run(MEASURE).expect("no stall");
    let stats = cpu.stats().delta_since(&before);
    let auditor = cpu.observer().clone();
    (stats, auditor)
}

fn run_plain(trace: &CapturedTrace, cfg: SimConfig, policy: Box<dyn ReconfigPolicy>) -> SimStats {
    let mut cpu =
        Processor::new(cfg, trace.compile().replay(), policy).expect("valid matrix config");
    cpu.run(WARMUP).expect("no stall in warm-up");
    let before = *cpu.stats();
    cpu.run(MEASURE).expect("no stall");
    cpu.stats().delta_since(&before)
}

/// The headline guarantee: zero violations across the full 360-point
/// grid, and bit-identical statistics with and without the auditor.
#[test]
fn full_grid_is_audit_clean_and_stats_are_unperturbed() {
    let workloads = clustered_workloads::all();
    let mut failures: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                scope.spawn(move || {
                    let trace = CapturedTrace::for_window(w, WARMUP, MEASURE);
                    let mut bad = Vec::new();
                    for (mname, model) in MODELS {
                        for family in FAMILIES {
                            for n in COUNTS {
                                let label = format!("{}/{mname}/{family}/{n}", w.name());
                                let (cfg, policy) = point(model, family, n);
                                let (stats, auditor) = run_audited(&trace, cfg, policy);
                                assert!(
                                    auditor.checks_run() > 0,
                                    "{label}: the auditor must actually run"
                                );
                                for v in auditor.violations() {
                                    bad.push(format!("{label}: {v}"));
                                }
                                let (cfg, policy) = point(model, family, n);
                                let plain = run_plain(&trace, cfg, policy);
                                if stats.to_json().to_string_compact()
                                    != plain.to_json().to_string_compact()
                                {
                                    bad.push(format!("{label}: audited stats diverge"));
                                }
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        for h in handles {
            failures.extend(h.join().expect("grid worker panicked"));
        }
    });
    assert!(failures.is_empty(), "audit failures:\n{}", failures.join("\n"));
}

/// Fault injection end-to-end: a skewed fetch counter must trip
/// exactly the fetch-conservation law — on a real schedule, not a
/// synthetic snapshot — and nothing else.
#[test]
fn injected_fetch_skew_is_caught_on_a_real_run() {
    let w = clustered_workloads::by_name("gzip").expect("gzip exists");
    let trace = CapturedTrace::for_window(&w, WARMUP, MEASURE);
    let mut cpu = Processor::with_observer(
        SimConfig::default(),
        trace.compile().replay(),
        Box::new(FixedPolicy::new(4)),
        SteeringKind::default(),
        AuditObserver::new(),
    )
    .expect("valid config");
    cpu.observer_mut().inject_fetched_skew(3);
    cpu.run(WARMUP + MEASURE).expect("no stall");
    let auditor = cpu.observer();
    assert!(!auditor.is_clean(), "the skew must be detected");
    assert!(
        auditor.violations().iter().all(|v| v.invariant == AuditInvariant::FetchConservation),
        "only fetch-conservation may fire: {:?}",
        auditor.violations()
    );
}
