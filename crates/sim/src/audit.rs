//! Conservation-law auditing: machine-checkable invariants over the
//! pipeline's counters and structures.
//!
//! The simulator's statistics are the ground truth every experiment in
//! this repository reports, so the counters themselves deserve an
//! adversary. The [`AuditObserver`] receives an end-of-cycle
//! [`AuditCheck`] snapshot (only when its `WANTS_AUDIT` flag opts in —
//! the default [`NullObserver`](crate::NullObserver) build compiles the
//! whole snapshot away) and verifies the *conservation laws* the
//! pipeline must obey at every cycle boundary:
//!
//! - **commit-order** — `committed ≤ dispatched ≤ fetched`: an
//!   instruction retires at most once and only after moving through
//!   every earlier stage.
//! - **fetch-conservation** — `fetched == dispatched + fetch-queue
//!   occupancy`, *exactly*: the trace holds only correct-path
//!   instructions, so the fetch queue is never squashed (a mispredict
//!   stalls fetch rather than filling the queue with wrong-path work)
//!   and every fetched instruction either dispatched or is still
//!   queued.
//! - **stall-partition** — the three dispatch-stall attributions
//!   (`fetch`, `rob`, `resources`) sum to at most `cycles`: dispatch
//!   blames at most one bottleneck per cycle.
//! - **quiescence-partition** — `quiescent_cluster_cycles + Σ
//!   cluster_busy_cycles == cycles × configured clusters`: the issue
//!   stage classifies every cluster every cycle as either visited or
//!   skipped, never both, never neither.
//! - **event-conservation** — calendar-queue `pushed == popped +
//!   pending`: scheduled work is delivered or still queued, never
//!   duplicated or lost between the calendar and the overflow heap.
//! - **rob-bound / fetch-queue-bound / iq-bound / lsq-bound** —
//!   structure occupancies never exceed their configured capacities.
//!
//! Violations are collected as structured [`AuditViolation`] records
//! (JSON-exportable, capped like the other event logs) rather than
//! panics, so a CI run can report *every* broken law in one pass and
//! `clustered run --audit strict` can turn them into a non-zero exit.

use crate::lsq::LsqSlice;
use crate::observe::SimObserver;
use crate::stats::SimStats;
use clustered_stats::Json;
use std::fmt;

/// Default cap on stored violations; past it they are only counted.
/// A single broken law fires every audited cycle, so an uncapped log
/// would grow with run length while adding no information.
pub const DEFAULT_VIOLATION_CAP: usize = 1024;

/// End-of-cycle machine-state snapshot handed to
/// [`SimObserver::on_audit`]. All references point at live pipeline
/// state — assembling one costs a few field reads and no allocation.
#[derive(Debug)]
pub struct AuditCheck<'a> {
    /// The cycle just completed.
    pub cycle: u64,
    /// Cumulative run statistics at the end of this cycle.
    pub stats: &'a SimStats,
    /// Re-order-buffer entries in flight.
    pub rob_len: usize,
    /// Configured ROB capacity.
    pub rob_capacity: usize,
    /// Fetch-queue entries waiting to dispatch.
    pub fetch_queue_len: usize,
    /// Configured fetch-queue capacity.
    pub fetch_queue_capacity: usize,
    /// Issue-queue occupancy, `[domain][cluster]` (int = 0, fp = 1).
    pub iq_used: &'a [[usize; crate::config::MAX_CLUSTERS]; 2],
    /// Per-cluster issue-queue capacity by domain, `[int, fp]`.
    pub iq_capacity: [usize; 2],
    /// Every LSQ slice (one for centralized, one per cluster for
    /// decentralized).
    pub lsq: &'a [LsqSlice],
    /// Clusters currently enabled.
    pub active_clusters: usize,
    /// Clusters on the die.
    pub configured_clusters: usize,
    /// Calendar-queue events ever scheduled.
    pub events_pushed: u64,
    /// Calendar-queue events ever delivered.
    pub events_popped: u64,
    /// Calendar-queue events currently live (calendar + overflow).
    pub events_pending: u64,
}

/// Which conservation law an [`AuditViolation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditInvariant {
    /// `committed ≤ dispatched ≤ fetched` failed.
    CommitOrder,
    /// `fetched != dispatched + fetch-queue occupancy`.
    FetchConservation,
    /// Dispatch-stall attributions sum past `cycles`.
    StallPartition,
    /// Quiescent + busy cluster-cycles fail to tile
    /// `cycles × configured`.
    QuiescencePartition,
    /// Calendar-queue `pushed != popped + pending`.
    EventConservation,
    /// ROB occupancy above its configured capacity.
    RobBound,
    /// Fetch-queue occupancy above its configured capacity.
    FetchQueueBound,
    /// An issue queue above its per-cluster capacity.
    IqBound,
    /// An LSQ slice above its capacity.
    LsqBound,
}

impl AuditInvariant {
    /// Stable machine-readable identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditInvariant::CommitOrder => "commit-order",
            AuditInvariant::FetchConservation => "fetch-conservation",
            AuditInvariant::StallPartition => "stall-partition",
            AuditInvariant::QuiescencePartition => "quiescence-partition",
            AuditInvariant::EventConservation => "event-conservation",
            AuditInvariant::RobBound => "rob-bound",
            AuditInvariant::FetchQueueBound => "fetch-queue-bound",
            AuditInvariant::IqBound => "iq-bound",
            AuditInvariant::LsqBound => "lsq-bound",
        }
    }
}

impl fmt::Display for AuditInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One broken conservation law, with enough detail to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Cycle at which the check failed.
    pub cycle: u64,
    /// The law that failed.
    pub invariant: AuditInvariant,
    /// Human-readable expansion with the offending values.
    pub detail: String,
}

impl AuditViolation {
    /// The violation as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("cycle", self.cycle)
            .set("invariant", self.invariant.as_str())
            .set("detail", self.detail.as_str())
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {}: {}", self.cycle, self.invariant, self.detail)
    }
}

/// The conservation-law auditor: an observer running the full check
/// battery every `interval` cycles.
///
/// Opting in via `WANTS_AUDIT` makes the pipeline assemble an
/// [`AuditCheck`] each cycle; the auditor itself gates the (cheap)
/// comparisons on its cadence. Auditing only *reads* machine state, so
/// an audited run's `SimStats` are bit-identical to an unaudited one.
#[derive(Debug, Clone)]
pub struct AuditObserver {
    interval: u64,
    checks_run: u64,
    violations: Vec<AuditViolation>,
    cap: usize,
    dropped: u64,
    /// Test-only fault injection: added to the observed `fetched`
    /// counter so the fault-injection suite can prove a skewed counter
    /// trips exactly the fetch-conservation law (see
    /// [`AuditObserver::inject_fetched_skew`]).
    skew_fetched: u64,
}

impl Default for AuditObserver {
    fn default() -> AuditObserver {
        AuditObserver::new()
    }
}

impl AuditObserver {
    /// An auditor checking every cycle, keeping the first
    /// [`DEFAULT_VIOLATION_CAP`] violations.
    pub fn new() -> AuditObserver {
        AuditObserver::with_interval(1)
    }

    /// An auditor checking every `interval` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_interval(interval: u64) -> AuditObserver {
        assert!(interval > 0, "audit interval must be non-zero");
        AuditObserver {
            interval,
            checks_run: 0,
            violations: Vec::new(),
            cap: DEFAULT_VIOLATION_CAP,
            dropped: 0,
            skew_fetched: 0,
        }
    }

    /// Skews the *observed* `fetched` counter by `skew` instructions —
    /// a deliberate fault for testing that the auditor catches what it
    /// claims to. A non-zero skew must trip `fetch-conservation` (and
    /// only that law) on the next check of a healthy machine.
    pub fn inject_fetched_skew(&mut self, skew: u64) {
        self.skew_fetched = skew;
    }

    /// Whether no violation has been observed (stored or dropped).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }

    /// Violations observed so far, in cycle order (first `cap` kept).
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Check batteries run so far.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Violations dropped after the log reached its cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The audit outcome as one JSON document.
    pub fn to_json(&self) -> Json {
        let violations: Vec<Json> = self.violations.iter().map(AuditViolation::to_json).collect();
        Json::object()
            .set("interval", self.interval)
            .set("checks_run", self.checks_run)
            .set("clean", self.is_clean())
            .set("violations", Json::Arr(violations))
            .set("dropped_violations", self.dropped)
    }

    fn violate(&mut self, cycle: u64, invariant: AuditInvariant, detail: String) {
        if self.violations.len() < self.cap {
            self.violations.push(AuditViolation { cycle, invariant, detail });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs the full battery against one snapshot. Public so tests can
    /// audit synthetic states without building a `Processor`.
    pub fn check(&mut self, c: &AuditCheck<'_>) {
        self.checks_run += 1;
        let s = c.stats;
        let cycle = c.cycle;
        let fetched = s.fetched + self.skew_fetched;
        if !(s.committed <= s.dispatched && s.dispatched <= fetched) {
            self.violate(
                cycle,
                AuditInvariant::CommitOrder,
                format!(
                    "committed {} ≤ dispatched {} ≤ fetched {fetched} does not hold",
                    s.committed, s.dispatched
                ),
            );
        }
        let queued = c.fetch_queue_len as u64;
        if fetched != s.dispatched + queued {
            self.violate(
                cycle,
                AuditInvariant::FetchConservation,
                format!("fetched {fetched} != dispatched {} + fetch queue {queued}", s.dispatched),
            );
        }
        let stalls = s.dispatch_stall_fetch + s.dispatch_stall_rob + s.dispatch_stall_resources;
        if stalls > s.cycles {
            self.violate(
                cycle,
                AuditInvariant::StallPartition,
                format!(
                    "stall attributions {stalls} (fetch {} + rob {} + resources {}) exceed {} cycles",
                    s.dispatch_stall_fetch,
                    s.dispatch_stall_rob,
                    s.dispatch_stall_resources,
                    s.cycles
                ),
            );
        }
        let busy: u64 = s.cluster_busy_cycles.iter().sum();
        let tiles = s.cycles * c.configured_clusters as u64;
        if s.quiescent_cluster_cycles + busy != tiles {
            self.violate(
                cycle,
                AuditInvariant::QuiescencePartition,
                format!(
                    "quiescent {} + busy {busy} != {} cycles × {} clusters = {tiles}",
                    s.quiescent_cluster_cycles, s.cycles, c.configured_clusters
                ),
            );
        }
        if c.events_pushed != c.events_popped + c.events_pending {
            self.violate(
                cycle,
                AuditInvariant::EventConservation,
                format!(
                    "events pushed {} != popped {} + pending {}",
                    c.events_pushed, c.events_popped, c.events_pending
                ),
            );
        }
        if c.rob_len > c.rob_capacity {
            self.violate(
                cycle,
                AuditInvariant::RobBound,
                format!("ROB occupancy {} exceeds capacity {}", c.rob_len, c.rob_capacity),
            );
        }
        if c.fetch_queue_len > c.fetch_queue_capacity {
            self.violate(
                cycle,
                AuditInvariant::FetchQueueBound,
                format!(
                    "fetch-queue occupancy {} exceeds capacity {}",
                    c.fetch_queue_len, c.fetch_queue_capacity
                ),
            );
        }
        for (domain, name) in [(0usize, "int"), (1, "fp")] {
            for cluster in 0..c.configured_clusters {
                let used = c.iq_used[domain][cluster];
                if used > c.iq_capacity[domain] {
                    self.violate(
                        cycle,
                        AuditInvariant::IqBound,
                        format!(
                            "{name} issue queue of cluster {cluster} holds {used} > capacity {}",
                            c.iq_capacity[domain]
                        ),
                    );
                }
            }
        }
        for (slice, lsq) in c.lsq.iter().enumerate() {
            if lsq.occupancy() > lsq.capacity() {
                self.violate(
                    cycle,
                    AuditInvariant::LsqBound,
                    format!(
                        "LSQ slice {slice} holds {} > capacity {}",
                        lsq.occupancy(),
                        lsq.capacity()
                    ),
                );
            }
        }
    }
}

impl SimObserver for AuditObserver {
    const WANTS_AUDIT: bool = true;

    fn on_audit(&mut self, check: &AuditCheck<'_>) {
        if check.cycle.is_multiple_of(self.interval) {
            self.check(check);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_CLUSTERS;

    /// A self-consistent snapshot of a small healthy machine.
    struct Fixture {
        stats: SimStats,
        iq_used: [[usize; MAX_CLUSTERS]; 2],
        lsq: Vec<LsqSlice>,
    }

    impl Fixture {
        fn healthy() -> Fixture {
            let mut stats = SimStats {
                cycles: 100,
                committed: 180,
                dispatched: 200,
                fetched: 205,
                dispatch_stall_fetch: 10,
                dispatch_stall_rob: 5,
                dispatch_stall_resources: 3,
                quiescent_cluster_cycles: 100 * 4 - 70,
                ..SimStats::default()
            };
            stats.cluster_busy_cycles[0] = 40;
            stats.cluster_busy_cycles[1] = 30;
            let mut lsq = vec![LsqSlice::new(15); 4];
            lsq[0].allocate();
            Fixture { stats, iq_used: [[0; MAX_CLUSTERS]; 2], lsq }
        }

        fn check(&self) -> AuditCheck<'_> {
            AuditCheck {
                cycle: 100,
                stats: &self.stats,
                rob_len: 20,
                rob_capacity: 480,
                // fetched 205 − dispatched 200.
                fetch_queue_len: 5,
                fetch_queue_capacity: 32,
                iq_used: &self.iq_used,
                iq_capacity: [15, 15],
                lsq: &self.lsq,
                active_clusters: 4,
                configured_clusters: 4,
                events_pushed: 900,
                events_popped: 890,
                events_pending: 10,
            }
        }
    }

    fn invariants(a: &AuditObserver) -> Vec<AuditInvariant> {
        a.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn healthy_snapshot_is_clean() {
        let f = Fixture::healthy();
        let mut a = AuditObserver::new();
        a.check(&f.check());
        assert!(a.is_clean(), "unexpected violations: {:?}", a.violations());
        assert_eq!(a.checks_run(), 1);
    }

    #[test]
    fn each_broken_law_is_flagged_precisely() {
        // Commit order: more committed than dispatched.
        let mut f = Fixture::healthy();
        f.stats.committed = f.stats.dispatched + 1;
        let mut a = AuditObserver::new();
        a.check(&f.check());
        assert_eq!(invariants(&a), vec![AuditInvariant::CommitOrder]);

        // Fetch conservation: an instruction vanished between fetch
        // and dispatch.
        let mut f = Fixture::healthy();
        f.stats.fetched += 1;
        let mut a = AuditObserver::new();
        a.check(&f.check());
        assert_eq!(invariants(&a), vec![AuditInvariant::FetchConservation]);

        // Stall partition: attributions exceed elapsed cycles.
        let mut f = Fixture::healthy();
        f.stats.dispatch_stall_rob = f.stats.cycles;
        let mut a = AuditObserver::new();
        a.check(&f.check());
        assert_eq!(invariants(&a), vec![AuditInvariant::StallPartition]);

        // Quiescence partition: a cluster-cycle went missing.
        let mut f = Fixture::healthy();
        f.stats.quiescent_cluster_cycles -= 1;
        let mut a = AuditObserver::new();
        a.check(&f.check());
        assert_eq!(invariants(&a), vec![AuditInvariant::QuiescencePartition]);

        // Bounds.
        let f = Fixture::healthy();
        let mut c = f.check();
        c.rob_len = c.rob_capacity + 1;
        let mut a = AuditObserver::new();
        a.check(&c);
        assert_eq!(invariants(&a), vec![AuditInvariant::RobBound]);

        let f = Fixture::healthy();
        let mut c = f.check();
        c.events_pending += 2;
        let mut a = AuditObserver::new();
        a.check(&c);
        assert_eq!(invariants(&a), vec![AuditInvariant::EventConservation]);
    }

    #[test]
    fn iq_and_lsq_bounds_name_the_offending_structure() {
        let mut f = Fixture::healthy();
        f.iq_used[1][2] = 16;
        let mut a = AuditObserver::new();
        a.check(&f.check());
        assert_eq!(invariants(&a), vec![AuditInvariant::IqBound]);
        assert!(a.violations()[0].detail.contains("fp issue queue of cluster 2"));

        // The LSQ bound is `≤`: a slice at exactly its capacity is
        // clean. (Exceeding it through the public API is impossible —
        // `LsqSlice::allocate` asserts — which is itself the first
        // line of defence the auditor backs up.)
        let mut f = Fixture::healthy();
        let mut full = LsqSlice::new(1);
        full.allocate();
        f.lsq[3] = full;
        let mut a = AuditObserver::new();
        a.check(&f.check());
        assert!(a.is_clean());
    }

    #[test]
    fn injected_fetch_skew_trips_exactly_fetch_conservation() {
        let f = Fixture::healthy();
        let mut a = AuditObserver::new();
        a.inject_fetched_skew(7);
        a.check(&f.check());
        assert_eq!(invariants(&a), vec![AuditInvariant::FetchConservation]);
        assert!(a.violations()[0].detail.starts_with("fetched 212"));
    }

    #[test]
    fn violation_log_caps_and_counts() {
        let mut f = Fixture::healthy();
        f.stats.committed = f.stats.dispatched + 1;
        let mut a = AuditObserver::new();
        a.cap = 2;
        for _ in 0..5 {
            a.check(&f.check());
        }
        assert_eq!(a.violations().len(), 2);
        assert_eq!(a.dropped(), 3);
        assert!(!a.is_clean());
    }

    #[test]
    fn interval_gates_the_on_audit_cadence() {
        let f = Fixture::healthy();
        let mut a = AuditObserver::with_interval(10);
        for cycle in 1..=25u64 {
            let mut c = f.check();
            c.cycle = cycle;
            a.on_audit(&c);
        }
        assert_eq!(a.checks_run(), 2, "cycles 10 and 20");
    }

    #[test]
    fn json_reports_the_outcome() {
        let mut f = Fixture::healthy();
        f.stats.fetched += 3;
        let mut a = AuditObserver::new();
        a.check(&f.check());
        let j = a.to_json();
        assert_eq!(j.get("clean").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("checks_run").and_then(Json::as_u64), Some(1));
        let v = j.get("violations").and_then(Json::as_arr).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].get("invariant").and_then(Json::as_str), Some("fetch-conservation"));
        assert!(v[0].get("cycle").is_some() && v[0].get("detail").is_some());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_is_rejected() {
        let _ = AuditObserver::with_interval(0);
    }
}
