//! End-to-end checks of [`drive`]'s warm-up/measure stop rule, that
//! [`ReconfigLog`] sees the same reconfigurations the statistics
//! counters describe, that `on_commit` carries the policy's requests,
//! and that the observer seam — composed observers included — does not
//! perturb simulation results.

use clustered_core::Timeline;
use clustered_emu::trace;
use clustered_isa::assemble;
use clustered_sim::{
    drive, AuditObserver, CacheModel, CommitEvent, DecisionTrace, FixedPolicy, HostProfiler,
    NullObserver, ReconfigLog, ReconfigPolicy, Run, SimConfig, SimObserver, SteeringKind,
};
use clustered_workloads::by_name;

/// `source` assembled and run on fixed-4 through [`drive`].
fn drive_program(source: &str, warmup: u64, measure: u64) -> Run<NullObserver> {
    let stream = trace(assemble(source).expect("valid test program")).map(Result::unwrap);
    let (policy, steering) = (Box::new(FixedPolicy::new(4)), SteeringKind::default());
    drive(SimConfig::default(), stream, policy, steering, NullObserver, warmup, measure)
        .expect("valid config, no stall")
}

/// Each window stops at the first cycle whose commits reach its
/// target, or when the program ends; a program that ends inside the
/// warm-up leaves the measured window empty.
#[test]
fn drive_stops_each_window_at_its_target_or_the_program_end() {
    const COUNTDOWN: &str = "li r1, 1000
         loop: addi r1, r1, -1
         bnez r1, loop
         halt";
    let whole = drive_program(COUNTDOWN, 0, u64::MAX).stats.committed;
    assert!(whole > 2_000, "the loop runs to completion: {whole}");

    let early = drive_program(COUNTDOWN, whole + 100, 1_000);
    assert_eq!(early.ended_in_warmup, Some(whole));
    assert_eq!((early.stats.committed, early.stats.cycles), (0, 0), "empty measured window");

    let (warmup, measure) = (500, whole);
    let late = drive_program(COUNTDOWN, warmup, measure);
    assert_eq!(late.ended_in_warmup, None);
    assert!(late.stats.committed < measure, "the program ends inside the window");
    let warmed = drive_program(COUNTDOWN, 0, warmup).stats.committed;
    assert_eq!(warmed + late.stats.committed, whole, "the two windows split the program");
    let rest = drive_program(COUNTDOWN, warmup, u64::MAX);
    assert_eq!(rest.stats, late.stats, "an unbounded window runs to the program end");

    const ENDLESS: &str = "loop: addi r1, r1, 1
         j loop";
    let width = SimConfig::default().frontend.commit_width as u64;
    let warmed = drive_program(ENDLESS, 0, 1_000).stats.committed;
    assert!((1_000..1_000 + width).contains(&warmed), "warm-up overshoot: {warmed}");
    let run = drive_program(ENDLESS, 1_000, 5_000);
    assert_eq!(run.ended_in_warmup, None);
    let measured = run.stats.committed;
    assert!((5_000..5_000 + width).contains(&measured), "measure overshoot: {measured}");
}

/// A policy oscillating between 4 and 16 clusters: its `n`-th call
/// returns [`Oscillate::request`]`(n)`.
struct Oscillate {
    n: u64,
}

impl Oscillate {
    fn request(n: u64) -> Option<usize> {
        match n % 4_000 {
            0 => Some(4),
            2_000 => Some(16),
            _ => None,
        }
    }
}

impl ReconfigPolicy for Oscillate {
    fn name(&self) -> String {
        "oscillate".to_string()
    }
    fn initial_clusters(&self) -> usize {
        4
    }
    fn on_commit(&mut self, _e: &CommitEvent) -> Option<usize> {
        self.n += 1;
        Oscillate::request(self.n)
    }
}

/// Every commit's `(seq, cycle, request)`, in the order seen.
#[derive(Debug, Default, PartialEq)]
struct Commits(Vec<(u64, u64, Option<usize>)>);

impl SimObserver for Commits {
    fn on_commit(&mut self, event: &CommitEvent, request: Option<usize>) {
        self.0.push((event.seq, event.cycle, request));
    }
}

/// gzip under `policy` for 20k instructions, from the first commit.
fn drive_from_start<O: SimObserver>(
    cfg: SimConfig,
    policy: Box<dyn ReconfigPolicy>,
    observer: O,
) -> Run<O> {
    let w = by_name("gzip").expect("gzip workload exists");
    let stream = w.trace().map(Result::unwrap);
    drive(cfg, stream, policy, SteeringKind::default(), observer, 0, 20_000)
        .expect("valid config, no stall")
}

/// gzip under [`Oscillate`] for 20k instructions, from the first
/// commit.
fn drive_oscillating<O: SimObserver>(cfg: SimConfig, observer: O) -> Run<O> {
    drive_from_start(cfg, Box::new(Oscillate { n: 0 }), observer)
}

#[test]
fn on_commit_sees_each_request_in_commit_order() {
    let run = drive_oscillating(SimConfig::default(), Commits::default());
    let commits = &run.observer.0;
    assert_eq!(commits.len() as u64, run.stats.committed);
    assert!(commits.windows(2).all(|w| w[0].0 < w[1].0), "commit order");
    for (i, &(_, _, request)) in commits.iter().enumerate() {
        assert_eq!(request, Oscillate::request(i as u64 + 1), "commit {}", i + 1);
    }
    assert!(commits.iter().filter(|c| c.2.is_some()).count() >= 9);

    let paired = drive_oscillating(SimConfig::default(), (Commits::default(), Commits::default()));
    assert_eq!(paired.stats, run.stats);
    assert_eq!(paired.observer.0, run.observer, "first half");
    assert_eq!(paired.observer.1, run.observer, "second half");
}

/// The timeline's `clusters` column is the *requested* count: on the
/// decentralized cache it changes at the request, while the drain
/// that precedes the reconfiguration is still running.
#[test]
fn timeline_shows_a_request_while_its_drain_is_pending() {
    let mut cfg = SimConfig::default();
    cfg.cache.model = CacheModel::Decentralized;
    let observer = (Timeline::new(1, 4), (ReconfigLog::new(), Commits::default()));
    let run = drive_oscillating(cfg, observer);
    let (timeline, (log, commits)) = run.observer;
    let applied = log.reconfigs.first().expect("the policy reconfigured");
    assert_eq!((applied.from, applied.to), (4, 16));
    let entries = timeline.entries();
    assert_eq!(entries.len(), commits.0.len(), "one entry per commit");
    // Entry `i` covers commit `i + 1`, with the count requested by
    // commit `i` or earlier.
    let first_wide = entries.iter().position(|e| e.clusters == 16).expect("a request for 16");
    assert_eq!(first_wide, 2_000, "the 2000th commit requests 16 clusters");
    let pending: Vec<_> = (first_wide..entries.len())
        .take_while(|&i| commits.0[i].1 < applied.cycle)
        .inspect(|&i| assert_eq!(entries[i].clusters, 16))
        .collect();
    assert!(
        !pending.is_empty(),
        "commits after the request retire before the reconfiguration at cycle {}",
        applied.cycle
    );
}

#[test]
fn observer_sees_decentralized_reconfigurations_and_flushes() {
    let mut cfg = SimConfig::default();
    cfg.cache.model = CacheModel::Decentralized;
    // Oscillating between 4 and 16 clusters forces real drain + flush
    // reconfigurations.
    let Run { stats, observer: m, .. } = drive_oscillating(cfg, ReconfigLog::new());
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
    let fixed8 = || Box::new(FixedPolicy::new(8));
    let baseline = drive_from_start(SimConfig::default(), fixed8(), NullObserver);
    let observed = drive_from_start(SimConfig::default(), fixed8(), ReconfigLog::new());
    assert_eq!(baseline.stats, observed.stats, "observer must not change simulated behaviour");

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

/// An `Option` observer watches as what it holds does, and an empty
/// one leaves the run as `NullObserver` does.
#[test]
fn optional_observers_watch_as_their_contents_do() {
    let plain = drive_gzip(NullObserver);
    assert_eq!(drive_gzip(None::<DecisionTrace>).stats, plain.stats);
    // An empty auditor still turns the audit gate on; the run is the same.
    assert_eq!(drive_gzip(None::<AuditObserver>).stats, plain.stats);

    let bare = drive_gzip(DecisionTrace::new());
    let optional = drive_gzip(Some(DecisionTrace::new()));
    assert_eq!(optional.stats, bare.stats);
    let optional = optional.observer.expect("still Some");
    assert!(!bare.observer.decisions().is_empty(), "fixed-8 checkpoints every 10k commits");
    assert_eq!(optional.decisions(), bare.observer.decisions());
    assert_eq!(optional.dropped(), bare.observer.dropped());

    // Decentralized oscillation, so the log holds reconfigurations and
    // flushes.
    let mut cfg = SimConfig::default();
    cfg.cache.model = CacheModel::Decentralized;
    let bare = drive_oscillating(cfg, ReconfigLog::new());
    let mixed = drive_oscillating(cfg, (None::<DecisionTrace>, Some(ReconfigLog::new())));
    assert_eq!(mixed.stats, bare.stats);
    let (decisions, log) = mixed.observer;
    assert!(decisions.is_none());
    let log = log.expect("still Some");
    assert!(!bare.observer.flushes.is_empty(), "the policy reconfigured");
    assert_eq!(log.reconfigs, bare.observer.reconfigs);
    assert_eq!(log.flushes, bare.observer.flushes);
    assert_eq!(log.dropped_reconfigs(), bare.observer.dropped_reconfigs());
}
