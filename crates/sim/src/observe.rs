//! Observer hooks: a zero-cost-when-off instrumentation seam through
//! the cycle-level pipeline.
//!
//! The paper's contribution is *interval statistics driving run-time
//! decisions*; understanding (or debugging) a policy requires seeing
//! the per-cycle event stream those statistics summarize. A
//! [`SimObserver`] receives a callback at each interesting pipeline
//! event. The [`Processor`](crate::Processor) is generic over the
//! observer type and defaults to [`NullObserver`], whose empty inlined
//! methods monomorphize away — a processor without an observer
//! compiles to the same code as one built before this trait existed.
//!
//! [`MetricsObserver`] is the batteries-included implementation behind
//! `clustered trace`: histograms of ROB occupancy and transfer hops, a
//! per-interval IPC timeline, and the reconfiguration event log the
//! Chrome-trace exporter consumes. [`DecisionTrace`] keeps the policy's
//! decision records.
//!
//! Observers compose: a pair `(A, B)` is itself an observer that
//! forwards every hook to `A` and then to `B`, and opts into each
//! `WANTS_*` gate either half asks for. `clustered trace` runs
//! `(MetricsObserver, DecisionTrace)`; nest pairs for more.

use crate::decision::DecisionRecord;
use crate::reconfig::CommitEvent;
use clustered_stats::{Histogram, Json};

/// Default cap on the per-run reconfiguration and decision event logs
/// kept by [`MetricsObserver`] and [`DecisionTrace`].
///
/// Fine-grain policies can reconfigure at every branch, so unbounded
/// logs would grow with run length; past the cap the first
/// `DEFAULT_EVENT_CAP` events are kept and the rest only counted
/// ([`MetricsObserver::dropped_reconfigs`] / [`DecisionTrace::dropped`]).
pub const DEFAULT_EVENT_CAP: usize = 65_536;

/// What moved across the interconnect in an
/// [`on_transfer`](SimObserver::on_transfer) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// A register value travelling producer → consumer cluster.
    Register,
    /// Cache traffic: addresses/data to or from banks.
    Cache,
}

/// Hooks invoked by the [`Processor`](crate::Processor) as it
/// simulates. Every method has an empty default body, so an
/// implementation overrides only what it needs; with the default
/// [`NullObserver`] every call site optimizes to nothing.
///
/// Cycle arguments are the simulator's current cycle at the time of the
/// call; events scheduled for the future (e.g. a transfer's arrival)
/// report their *initiation* cycle.
pub trait SimObserver {
    /// Whether the simulator should drain policy decision telemetry
    /// for this observer.
    ///
    /// Assembling a [`DecisionRecord`] costs a heap allocation per
    /// interval, so the pipeline polls
    /// [`ReconfigPolicy::take_decision`](crate::ReconfigPolicy::take_decision)
    /// only when this is `true`. The default `false` (kept by
    /// [`NullObserver`]) lets the whole drain monomorphize away,
    /// preserving the bit-identical zero-cost property.
    const WANTS_DECISIONS: bool = false;

    /// Whether the simulator should host-profile the cycle loop for
    /// this observer.
    ///
    /// When `true` the pipeline reads a monotonic clock around each
    /// stage and delivers [`on_stage_nanos`](SimObserver::on_stage_nanos),
    /// [`on_queue_health`](SimObserver::on_queue_health) and
    /// [`on_event_drained`](SimObserver::on_event_drained) every cycle.
    /// The default `false` compiles those clock reads out, so profiling
    /// costs nothing unless an observer (like
    /// [`HostProfiler`](crate::HostProfiler)) opts in — and either way
    /// simulated behaviour is untouched: the hooks only *read* machine
    /// state.
    const WANTS_HOST_PROFILE: bool = false;

    /// Whether the simulator should assemble an end-of-cycle
    /// [`AuditCheck`](crate::AuditCheck) snapshot and deliver
    /// [`on_audit`](SimObserver::on_audit).
    ///
    /// The default `false` (kept by [`NullObserver`]) compiles the
    /// whole snapshot assembly away, preserving the bit-identical
    /// zero-cost contract. [`AuditObserver`](crate::AuditObserver)
    /// opts in; like the host-profile hooks, auditing only *reads*
    /// machine state and can never perturb the simulated schedule.
    const WANTS_AUDIT: bool = false;

    /// The warm-up is over and the measured window begins (called once
    /// by [`drive`](crate::drive)). An observer that should describe
    /// only the measured window discards what it collected so far.
    #[inline(always)]
    fn on_measure_start(&mut self) {}

    /// End of one simulated cycle.
    #[inline(always)]
    fn on_cycle(&mut self, cycle: u64, active_clusters: usize, rob_occupancy: usize) {
        let _ = (cycle, active_clusters, rob_occupancy);
    }

    /// An instruction left the fetch queue for `cluster`.
    #[inline(always)]
    fn on_dispatch(&mut self, cycle: u64, seq: u64, cluster: usize) {
        let _ = (cycle, seq, cluster);
    }

    /// An instruction began execution on a functional unit of
    /// `cluster`.
    #[inline(always)]
    fn on_issue(&mut self, cycle: u64, seq: u64, cluster: usize) {
        let _ = (cycle, seq, cluster);
    }

    /// An instruction retired (same event the
    /// [`ReconfigPolicy`](crate::ReconfigPolicy) sees).
    #[inline(always)]
    fn on_commit(&mut self, event: &CommitEvent) {
        let _ = event;
    }

    /// A value was routed `from → to` over `hops` interconnect hops.
    #[inline(always)]
    fn on_transfer(&mut self, cycle: u64, kind: TransferKind, from: usize, to: usize, hops: u64) {
        let _ = (cycle, kind, from, to, hops);
    }

    /// A load or store reached its cache bank; the data is ready at
    /// cycle `ready_at`.
    #[inline(always)]
    fn on_cache_access(&mut self, cycle: u64, bank: usize, write: bool, ready_at: u64) {
        let _ = (cycle, bank, write, ready_at);
    }

    /// The active-cluster count changed `from → to` clusters.
    #[inline(always)]
    fn on_reconfig(&mut self, cycle: u64, from: usize, to: usize) {
        let _ = (cycle, from, to);
    }

    /// A decentralized reconfiguration drained the pipeline and flushed
    /// the L1, stalling dispatch for `stall_cycles`.
    #[inline(always)]
    fn on_flush_stall(&mut self, cycle: u64, stall_cycles: u64, writebacks: u64) {
        let _ = (cycle, stall_cycles, writebacks);
    }

    /// The reconfiguration policy recorded a decision: why it chose
    /// the current configuration at the end of an evaluation interval.
    ///
    /// Only delivered when [`Self::WANTS_DECISIONS`] is `true`.
    #[inline(always)]
    fn on_decision(&mut self, decision: &DecisionRecord) {
        let _ = decision;
    }

    /// Wall-clock nanoseconds the host spent in each cycle-loop stage
    /// this cycle, in [`HostStage::ALL`](crate::HostStage::ALL) order.
    ///
    /// Only delivered when [`Self::WANTS_HOST_PROFILE`] is `true`.
    #[inline(always)]
    fn on_stage_nanos(&mut self, nanos: &[u64; crate::host::HOST_STAGE_COUNT]) {
        let _ = nanos;
    }

    /// End-of-cycle sample of calendar-queue and quiescence health.
    ///
    /// Only delivered when [`Self::WANTS_HOST_PROFILE`] is `true`.
    #[inline(always)]
    fn on_queue_health(&mut self, sample: &crate::host::QueueHealth) {
        let _ = sample;
    }

    /// One event was drained; `cluster` is the cluster (or LSQ slice)
    /// it was scheduled for.
    ///
    /// Only delivered when [`Self::WANTS_HOST_PROFILE`] is `true`.
    #[inline(always)]
    fn on_event_drained(&mut self, cluster: usize) {
        let _ = cluster;
    }

    /// End-of-cycle machine-state snapshot for conservation-law
    /// auditing.
    ///
    /// Only delivered when [`Self::WANTS_AUDIT`] is `true`.
    #[inline(always)]
    fn on_audit(&mut self, check: &crate::audit::AuditCheck<'_>) {
        let _ = check;
    }
}

/// The default observer: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// Forwards each listed hook to both halves of a pair, `.0` first.
macro_rules! forward_to_both {
    ($($hook:ident($($arg:ident: $ty:ty),*);)*) => {$(
        #[inline(always)]
        fn $hook(&mut self, $($arg: $ty),*) {
            self.0.$hook($($arg),*);
            self.1.$hook($($arg),*);
        }
    )*};
}

/// Two observers watching one run: every hook goes to `A`, then to
/// `B`, and each gate is on when either half wants it. A half that
/// did not opt into a gate receives only that hook's empty default.
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    const WANTS_DECISIONS: bool = A::WANTS_DECISIONS || B::WANTS_DECISIONS;
    const WANTS_HOST_PROFILE: bool = A::WANTS_HOST_PROFILE || B::WANTS_HOST_PROFILE;
    const WANTS_AUDIT: bool = A::WANTS_AUDIT || B::WANTS_AUDIT;

    forward_to_both! {
        on_measure_start();
        on_cycle(cycle: u64, active_clusters: usize, rob_occupancy: usize);
        on_dispatch(cycle: u64, seq: u64, cluster: usize);
        on_issue(cycle: u64, seq: u64, cluster: usize);
        on_commit(event: &CommitEvent);
        on_transfer(cycle: u64, kind: TransferKind, from: usize, to: usize, hops: u64);
        on_cache_access(cycle: u64, bank: usize, write: bool, ready_at: u64);
        on_reconfig(cycle: u64, from: usize, to: usize);
        on_flush_stall(cycle: u64, stall_cycles: u64, writebacks: u64);
        on_decision(decision: &DecisionRecord);
        on_stage_nanos(nanos: &[u64; crate::host::HOST_STAGE_COUNT]);
        on_queue_health(sample: &crate::host::QueueHealth);
        on_event_drained(cluster: usize);
        on_audit(check: &crate::audit::AuditCheck<'_>);
    }
}

/// One recorded active-cluster change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigEvent {
    /// Cycle the new configuration took effect.
    pub cycle: u64,
    /// Active clusters before.
    pub from: usize,
    /// Active clusters after.
    pub to: usize,
}

/// One recorded reconfiguration flush (decentralized cache model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushEvent {
    /// Cycle the flush began.
    pub cycle: u64,
    /// Cycles dispatch stalled.
    pub stall_cycles: u64,
    /// Dirty L1 lines written back.
    pub writebacks: u64,
}

/// One sample of the per-interval IPC timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpcSample {
    /// Cycle at the end of the interval.
    pub cycle: u64,
    /// Instructions committed during the interval.
    pub committed: u64,
    /// Active clusters at the sample point.
    pub active_clusters: usize,
}

/// The standard metrics-collecting observer: histograms, a
/// reconfiguration log, and a coarse IPC timeline — everything the
/// JSON/Chrome-trace exporters need in one pass. Pair it with a
/// [`DecisionTrace`] to also keep the policy's decision records.
#[derive(Debug, Clone)]
pub struct MetricsObserver {
    interval_cycles: u64,
    /// ROB occupancy sampled every cycle.
    pub rob_occupancy: Histogram,
    /// Hop count of every inter-cluster register transfer.
    pub reg_transfer_hops: Histogram,
    /// Hop count of every inter-cluster cache transfer.
    pub cache_transfer_hops: Histogram,
    /// Latency (initiation → data ready) of every cache access.
    pub cache_latency: Histogram,
    /// Active-cluster changes in cycle order, capped at
    /// `reconfig_cap` (first events kept; see
    /// [`dropped_reconfigs`](MetricsObserver::dropped_reconfigs)).
    pub reconfigs: Vec<ReconfigEvent>,
    /// Every reconfiguration flush, in cycle order.
    pub flushes: Vec<FlushEvent>,
    /// IPC timeline, one sample per `interval_cycles`.
    pub timeline: Vec<IpcSample>,
    /// Active clusters before the first event (set on the first cycle).
    pub initial_clusters: usize,
    /// Last simulated cycle seen.
    pub last_cycle: u64,
    committed: u64,
    committed_at_sample: u64,
    instructions_dispatched: u64,
    instructions_issued: u64,
    reconfig_cap: usize,
    dropped_reconfigs: u64,
}

impl MetricsObserver {
    /// An observer sampling the IPC timeline every `interval_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero.
    pub fn new(interval_cycles: u64) -> MetricsObserver {
        MetricsObserver::with_cap(interval_cycles, DEFAULT_EVENT_CAP)
    }

    /// Like [`MetricsObserver::new`] but with an explicit cap on the
    /// reconfiguration log. Events past the cap are counted, not
    /// stored.
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero.
    pub fn with_cap(interval_cycles: u64, reconfig_cap: usize) -> MetricsObserver {
        assert!(interval_cycles > 0, "interval must be non-zero");
        MetricsObserver {
            interval_cycles,
            // 8-wide buckets cover a 512-entry ROB.
            rob_occupancy: Histogram::linear(8, 64),
            // The ring's worst one-way distance is 16 hops.
            reg_transfer_hops: Histogram::linear(1, 17),
            cache_transfer_hops: Histogram::linear(1, 17),
            cache_latency: Histogram::log2(),
            reconfigs: Vec::new(),
            flushes: Vec::new(),
            timeline: Vec::new(),
            initial_clusters: 0,
            last_cycle: 0,
            committed: 0,
            committed_at_sample: 0,
            instructions_dispatched: 0,
            instructions_issued: 0,
            reconfig_cap,
            dropped_reconfigs: 0,
        }
    }

    /// Reconfiguration events dropped after the log reached its cap.
    pub fn dropped_reconfigs(&self) -> u64 {
        self.dropped_reconfigs
    }

    /// Instructions seen committing.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Instructions seen dispatching.
    pub fn dispatched(&self) -> u64 {
        self.instructions_dispatched
    }

    /// Instructions seen issuing.
    pub fn issued(&self) -> u64 {
        self.instructions_issued
    }

    /// The whole collection as one JSON document.
    pub fn to_json(&self) -> Json {
        let reconfigs: Vec<Json> = self
            .reconfigs
            .iter()
            .map(|r| Json::object().set("cycle", r.cycle).set("from", r.from).set("to", r.to))
            .collect();
        let flushes: Vec<Json> = self
            .flushes
            .iter()
            .map(|f| {
                Json::object()
                    .set("cycle", f.cycle)
                    .set("stall_cycles", f.stall_cycles)
                    .set("writebacks", f.writebacks)
            })
            .collect();
        let timeline: Vec<Json> = self
            .timeline
            .iter()
            .map(|s| {
                Json::object()
                    .set("cycle", s.cycle)
                    .set("committed", s.committed)
                    .set("ipc", s.committed as f64 / self.interval_cycles as f64)
                    .set("active_clusters", s.active_clusters)
            })
            .collect();
        Json::object()
            .set("interval_cycles", self.interval_cycles)
            .set("last_cycle", self.last_cycle)
            .set("committed", self.committed)
            .set("dispatched", self.instructions_dispatched)
            .set("issued", self.instructions_issued)
            .set("initial_clusters", self.initial_clusters)
            .set("rob_occupancy", self.rob_occupancy.to_json())
            .set("reg_transfer_hops", self.reg_transfer_hops.to_json())
            .set("cache_transfer_hops", self.cache_transfer_hops.to_json())
            .set("cache_latency", self.cache_latency.to_json())
            .set("reconfigurations", Json::Arr(reconfigs))
            .set("dropped_reconfigs", self.dropped_reconfigs)
            .set("flushes", Json::Arr(flushes))
            .set("timeline", Json::Arr(timeline))
    }
}

impl SimObserver for MetricsObserver {
    fn on_cycle(&mut self, cycle: u64, active_clusters: usize, rob_occupancy: usize) {
        if self.initial_clusters == 0 {
            self.initial_clusters = active_clusters;
        }
        self.last_cycle = cycle;
        self.rob_occupancy.record(rob_occupancy as u64);
        if cycle.is_multiple_of(self.interval_cycles) {
            self.timeline.push(IpcSample {
                cycle,
                committed: self.committed - self.committed_at_sample,
                active_clusters,
            });
            self.committed_at_sample = self.committed;
        }
    }

    fn on_dispatch(&mut self, _cycle: u64, _seq: u64, _cluster: usize) {
        self.instructions_dispatched += 1;
    }

    fn on_issue(&mut self, _cycle: u64, _seq: u64, _cluster: usize) {
        self.instructions_issued += 1;
    }

    fn on_commit(&mut self, _event: &CommitEvent) {
        self.committed += 1;
    }

    fn on_transfer(
        &mut self,
        _cycle: u64,
        kind: TransferKind,
        _from: usize,
        _to: usize,
        hops: u64,
    ) {
        match kind {
            TransferKind::Register => self.reg_transfer_hops.record(hops),
            TransferKind::Cache => self.cache_transfer_hops.record(hops),
        }
    }

    fn on_cache_access(&mut self, cycle: u64, _bank: usize, _write: bool, ready_at: u64) {
        self.cache_latency.record(ready_at.saturating_sub(cycle));
    }

    fn on_reconfig(&mut self, cycle: u64, from: usize, to: usize) {
        if self.reconfigs.len() < self.reconfig_cap {
            self.reconfigs.push(ReconfigEvent { cycle, from, to });
        } else {
            self.dropped_reconfigs += 1;
        }
    }

    fn on_flush_stall(&mut self, cycle: u64, stall_cycles: u64, writebacks: u64) {
        self.flushes.push(FlushEvent { cycle, stall_cycles, writebacks });
    }
}

/// An observer collecting policy decision records — the backing store
/// for `clustered explain`, the `--decisions` dumps, and (paired with
/// a [`MetricsObserver`]) the counter tracks of `clustered trace`.
#[derive(Debug, Clone)]
pub struct DecisionTrace {
    decisions: Vec<DecisionRecord>,
    cap: usize,
    dropped: u64,
}

impl Default for DecisionTrace {
    fn default() -> DecisionTrace {
        DecisionTrace::new()
    }
}

impl DecisionTrace {
    /// A trace keeping the first [`DEFAULT_EVENT_CAP`] records.
    pub fn new() -> DecisionTrace {
        DecisionTrace::with_cap(DEFAULT_EVENT_CAP)
    }

    /// A trace keeping the first `cap` records and counting the rest.
    pub fn with_cap(cap: usize) -> DecisionTrace {
        DecisionTrace { decisions: Vec::new(), cap, dropped: 0 }
    }

    /// The collected records, in commit order.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// Records dropped after the trace reached its cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the trace, returning `(records, dropped_count)`.
    pub fn into_decisions(self) -> (Vec<DecisionRecord>, u64) {
        (self.decisions, self.dropped)
    }
}

impl SimObserver for DecisionTrace {
    const WANTS_DECISIONS: bool = true;

    fn on_decision(&mut self, decision: &DecisionRecord) {
        if self.decisions.len() < self.cap {
            self.decisions.push(decision.clone());
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{DecisionReason, PolicyState};

    fn decision(interval: u64) -> DecisionRecord {
        DecisionRecord {
            interval,
            commit: interval * 1000,
            start_cycle: 0,
            cycle: interval * 2000,
            state: PolicyState::Stable,
            ipc: 0.5,
            branch_delta: 0,
            memref_delta: 0,
            instability: 0.0,
            explored_ipc: Vec::new(),
            interval_length: 1000,
            clusters: 4,
            reason: DecisionReason::StableNoChange,
        }
    }

    fn commit_event(seq: u64, cycle: u64) -> CommitEvent {
        CommitEvent {
            seq,
            pc: 0,
            cycle,
            is_branch: false,
            is_cond_branch: false,
            is_call: false,
            is_return: false,
            is_memref: false,
            distant: false,
            mispredicted: false,
        }
    }

    #[test]
    fn null_observer_is_inert_and_trivially_constructible() {
        let mut o = NullObserver;
        o.on_cycle(1, 4, 10);
        o.on_commit(&commit_event(1, 1));
        o.on_reconfig(5, 4, 16);
        assert_eq!(o, NullObserver);
    }

    #[test]
    fn metrics_observer_samples_timeline_on_interval_boundaries() {
        let mut m = MetricsObserver::new(10);
        for cycle in 1..=25u64 {
            // Two commits per cycle.
            m.on_commit(&commit_event(cycle * 2, cycle));
            m.on_commit(&commit_event(cycle * 2 + 1, cycle));
            m.on_cycle(cycle, 4, cycle as usize);
        }
        assert_eq!(m.timeline.len(), 2, "samples at cycles 10 and 20");
        assert_eq!(m.timeline[0].cycle, 10);
        assert_eq!(m.timeline[0].committed, 20);
        assert_eq!(m.timeline[1].committed, 20);
        assert_eq!(m.committed(), 50);
        assert_eq!(m.initial_clusters, 4);
        assert_eq!(m.last_cycle, 25);
        assert_eq!(m.rob_occupancy.count(), 25);
    }

    #[test]
    fn metrics_observer_routes_transfer_kinds() {
        let mut m = MetricsObserver::new(100);
        m.on_transfer(1, TransferKind::Register, 0, 2, 2);
        m.on_transfer(1, TransferKind::Register, 0, 1, 1);
        m.on_transfer(2, TransferKind::Cache, 3, 0, 3);
        assert_eq!(m.reg_transfer_hops.count(), 2);
        assert_eq!(m.cache_transfer_hops.count(), 1);
    }

    #[test]
    fn metrics_observer_records_reconfigs_and_flushes() {
        let mut m = MetricsObserver::new(100);
        m.on_reconfig(50, 16, 4);
        m.on_flush_stall(50, 12, 34);
        m.on_reconfig(90, 4, 8);
        assert_eq!(
            m.reconfigs,
            vec![
                ReconfigEvent { cycle: 50, from: 16, to: 4 },
                ReconfigEvent { cycle: 90, from: 4, to: 8 }
            ]
        );
        assert_eq!(m.flushes, vec![FlushEvent { cycle: 50, stall_cycles: 12, writebacks: 34 }]);
    }

    #[test]
    fn metrics_json_has_the_expected_keys() {
        let mut m = MetricsObserver::new(10);
        m.on_cycle(1, 4, 3);
        m.on_cache_access(4, 0, false, 7);
        let j = m.to_json();
        assert_eq!(
            j.keys().unwrap(),
            vec![
                "interval_cycles",
                "last_cycle",
                "committed",
                "dispatched",
                "issued",
                "initial_clusters",
                "rob_occupancy",
                "reg_transfer_hops",
                "cache_transfer_hops",
                "cache_latency",
                "reconfigurations",
                "dropped_reconfigs",
                "flushes",
                "timeline"
            ]
        );
    }

    #[test]
    fn reconfig_log_caps_and_counts_the_overflow() {
        let mut m = MetricsObserver::with_cap(100, 3);
        for i in 0..10u64 {
            m.on_reconfig(i, 4, 8);
        }
        assert_eq!(m.reconfigs.len(), 3, "first N kept");
        assert_eq!(m.dropped_reconfigs(), 7);
        assert_eq!(m.reconfigs[0].cycle, 0);
        assert_eq!(m.reconfigs[2].cycle, 2);
        let j = m.to_json();
        assert_eq!(j.get("dropped_reconfigs").unwrap().as_u64(), Some(7));
        assert_eq!(j.get("reconfigurations").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn decision_trace_collects_in_order_and_caps() {
        let mut t = DecisionTrace::with_cap(2);
        for i in 1..=4u64 {
            t.on_decision(&decision(i));
        }
        assert_eq!(t.decisions().len(), 2);
        assert_eq!(t.decisions()[0].interval, 1);
        assert_eq!(t.decisions()[1].interval, 2);
        assert_eq!(t.dropped(), 2);
        let (records, dropped) = t.into_decisions();
        assert_eq!((records.len(), dropped), (2, 2));
        assert!(DecisionTrace::default().decisions().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn metrics_observer_rejects_zero_interval() {
        let _ = MetricsObserver::new(0);
    }
}
