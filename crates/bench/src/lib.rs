//! Experiment harness regenerating every table and figure of the
//! paper's evaluation. Each table and figure is one
//! [`experiments::Experiment`] in the [`experiments::EXPERIMENTS`]
//! registry, run by the `experiments` binary
//! (`experiments <name>|all [--json] [--decisions DIR]`) on the
//! [`sweep`] executor; this library holds the registry, the executor
//! and the shared runner.
//!
//! Run lengths default to values that finish a full experiment in
//! minutes on a laptop; set `CLUSTERED_MEASURE` / `CLUSTERED_WARMUP`
//! (instruction counts) to trade time for fidelity.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod sweep;

use clustered_sim::{drive, NullObserver, ReconfigPolicy, SimConfig, SimStats, SteeringKind};
use clustered_workloads::Workload;

/// Default measured instructions per run (`CLUSTERED_MEASURE`
/// overrides it for the experiments).
pub const DEFAULT_MEASURE: u64 = 400_000;
/// Default warm-up instructions per run (`CLUSTERED_WARMUP`
/// overrides it for the experiments).
pub const DEFAULT_WARMUP: u64 = 50_000;

/// Runs `workload` under `cfg` and `policy` by live emulation through
/// [`drive`], discarding a warm-up and returning statistics for the
/// measured window.
///
/// # Panics
///
/// Panics if the workload faults, the configuration is invalid or the
/// simulator reports an internal stall — all indicate harness bugs,
/// not experiment outcomes.
pub fn run_experiment(
    workload: &Workload,
    cfg: SimConfig,
    policy: Box<dyn ReconfigPolicy>,
    warmup: u64,
    measure: u64,
) -> SimStats {
    let stream = workload
        .trace()
        .map(|r| r.unwrap_or_else(|e| panic!("workload faulted during simulation: {e}")));
    drive(cfg, stream, policy, SteeringKind::default(), NullObserver, warmup, measure)
        .unwrap_or_else(|e| panic!("experiment run failed: {e}"))
        .stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustered_sim::FixedPolicy;
    use clustered_workloads::by_name;

    #[test]
    fn run_experiment_measures_requested_window() {
        let w = by_name("gzip").unwrap();
        let s =
            run_experiment(&w, SimConfig::default(), Box::new(FixedPolicy::new(4)), 5_000, 10_000);
        assert!(s.committed >= 10_000);
        assert!(s.committed < 12_000);
        assert!(s.cycles > 0);
    }

    #[test]
    fn decision_run_matches_plain_run_and_collects_records() {
        let w = by_name("gzip").unwrap();
        let policy = || Box::new(clustered_core::IntervalDistantIlp::with_interval(1_000));
        let plain = run_experiment(&w, SimConfig::default(), policy(), 5_000, 20_000);
        let stream = w.trace().map(Result::unwrap);
        let observer = clustered_sim::DecisionTrace::new();
        let steering = SteeringKind::default();
        let with = drive(SimConfig::default(), stream, policy(), steering, observer, 5_000, 20_000)
            .expect("valid run");
        assert_eq!(plain, with.stats, "collecting decisions must not perturb the simulation");
        let decisions = with.observer.decisions();
        assert!(!decisions.is_empty(), "1k intervals over a 25k run must decide");
        assert_eq!(with.observer.dropped(), 0);
        let mut last = 0;
        for d in decisions {
            assert!(d.commit > last, "records in commit order");
            last = d.commit;
        }
    }
}
