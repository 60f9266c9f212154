//! Observer hooks: a zero-cost-when-off instrumentation seam through
//! the cycle-level pipeline.
//!
//! The paper's contribution is *interval statistics driving run-time
//! decisions*; understanding (or debugging) a policy requires seeing
//! the decisions and reconfigurations behind the statistics. A
//! [`SimObserver`] receives a callback at each of those events, plus
//! the host-profile and audit samples its `WANTS_*` gates opt into.
//! Per-cycle machine counters (transfers and their hops, ROB
//! occupancy, cycles per configuration) live in
//! [`SimStats`](crate::SimStats), not here. The
//! [`Processor`](crate::Processor) is generic over the observer type
//! and defaults to [`NullObserver`], whose empty inlined methods
//! monomorphize away — a processor without an observer compiles to the
//! same code as one built before this trait existed.
//!
//! [`ReconfigLog`] keeps the reconfiguration and flush log the
//! Chrome-trace exporter renders for `clustered trace`;
//! [`DecisionTrace`] keeps the policy's decision records. The
//! per-interval timeline (`clustered_core::phase::Timeline`) builds on
//! [`SimObserver::on_commit`], which carries each commit's policy
//! request.
//!
//! Observers compose: a pair `(A, B)` is itself an observer that
//! forwards every hook to `A` and then to `B`, and opts into each
//! `WANTS_*` gate either half asks for. `clustered trace` runs
//! `((ReconfigLog, DecisionTrace), Timeline)`; nest pairs for more.
//! An `Option<O>` is an observer picked at run time: it forwards to
//! the `O` it holds and keeps `O`'s gates.

use crate::decision::DecisionRecord;
use crate::reconfig::CommitEvent;

/// Default cap on the per-run reconfiguration and decision event logs
/// kept by [`ReconfigLog`] and [`DecisionTrace`].
///
/// Fine-grain policies can reconfigure at every branch, so unbounded
/// logs would grow with run length; past the cap the first
/// `DEFAULT_EVENT_CAP` events are kept and the rest only counted
/// ([`ReconfigLog::dropped_reconfigs`] / [`DecisionTrace::dropped`]).
pub const DEFAULT_EVENT_CAP: usize = 65_536;

/// Hooks invoked by the [`Processor`](crate::Processor) as it
/// simulates. Every method has an empty default body, so an
/// implementation overrides only what it needs; with the default
/// [`NullObserver`] every call site optimizes to nothing.
///
/// Cycle arguments are the simulator's current cycle at the time of the
/// call.
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

    /// An instruction retired. Called after the
    /// [`ReconfigPolicy`](crate::ReconfigPolicy) saw the same event,
    /// with the cluster count it requested, if any. On the
    /// decentralized cache the request takes effect only after a
    /// drain ([`on_reconfig`](SimObserver::on_reconfig) reports when).
    #[inline(always)]
    fn on_commit(&mut self, event: &CommitEvent, request: Option<usize>) {
        let _ = (event, request);
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

/// Expands `$forward!` over every hook's signature, so the pair and
/// `Option` impls below share one hook list.
macro_rules! with_every_hook {
    ($forward:ident) => {
        $forward! {
            on_measure_start();
            on_commit(event: &CommitEvent, request: Option<usize>);
            on_reconfig(cycle: u64, from: usize, to: usize);
            on_flush_stall(cycle: u64, stall_cycles: u64, writebacks: u64);
            on_decision(decision: &DecisionRecord);
            on_stage_nanos(nanos: &[u64; crate::host::HOST_STAGE_COUNT]);
            on_queue_health(sample: &crate::host::QueueHealth);
            on_event_drained(cluster: usize);
            on_audit(check: &crate::audit::AuditCheck<'_>);
        }
    };
}

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

/// Forwards each listed hook to the observer inside a `Some`.
macro_rules! forward_if_some {
    ($($hook:ident($($arg:ident: $ty:ty),*);)*) => {$(
        #[inline(always)]
        fn $hook(&mut self, $($arg: $ty),*) {
            if let Some(inner) = self {
                inner.$hook($($arg),*);
            }
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

    with_every_hook!(forward_to_both);
}

/// An observer chosen at run time: `Some(o)` watches as `o` does and
/// `None` watches nothing. The gates are `O`'s whichever it holds,
/// because they are constants: a `None` still makes the pipeline
/// assemble what `O` opted into and only drops it at the hook. Wrap
/// only observers whose gates are off or cheap, and pick between
/// types when a gate is costly (an [`AuditObserver`](crate::AuditObserver)).
impl<O: SimObserver> SimObserver for Option<O> {
    const WANTS_DECISIONS: bool = O::WANTS_DECISIONS;
    const WANTS_HOST_PROFILE: bool = O::WANTS_HOST_PROFILE;
    const WANTS_AUDIT: bool = O::WANTS_AUDIT;

    with_every_hook!(forward_if_some);
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

/// The reconfiguration log behind `clustered trace`: every
/// active-cluster change (capped) and every reconfiguration flush, in
/// cycle order, for the Chrome-trace exporter to render. Pair it with
/// a [`DecisionTrace`] to also keep the policy's decision records.
#[derive(Debug, Clone)]
pub struct ReconfigLog {
    /// Active-cluster changes in cycle order, capped at
    /// `reconfig_cap` (first events kept; see
    /// [`dropped_reconfigs`](ReconfigLog::dropped_reconfigs)).
    pub reconfigs: Vec<ReconfigEvent>,
    /// Every reconfiguration flush, in cycle order.
    pub flushes: Vec<FlushEvent>,
    reconfig_cap: usize,
    dropped_reconfigs: u64,
}

impl Default for ReconfigLog {
    fn default() -> ReconfigLog {
        ReconfigLog::new()
    }
}

impl ReconfigLog {
    /// A log keeping the first [`DEFAULT_EVENT_CAP`] reconfigurations.
    pub fn new() -> ReconfigLog {
        ReconfigLog::with_cap(DEFAULT_EVENT_CAP)
    }

    /// A log keeping the first `reconfig_cap` reconfigurations and
    /// counting the rest.
    pub fn with_cap(reconfig_cap: usize) -> ReconfigLog {
        ReconfigLog {
            reconfigs: Vec::new(),
            flushes: Vec::new(),
            reconfig_cap,
            dropped_reconfigs: 0,
        }
    }

    /// Reconfiguration events dropped after the log reached its cap.
    pub fn dropped_reconfigs(&self) -> u64 {
        self.dropped_reconfigs
    }
}

impl SimObserver for ReconfigLog {
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
/// a [`ReconfigLog`]) the counter tracks of `clustered trace`.
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
        o.on_commit(&commit_event(1, 1), Some(4));
        o.on_reconfig(5, 4, 16);
        assert_eq!(o, NullObserver);
    }

    #[test]
    fn reconfig_log_records_reconfigs_and_flushes() {
        let mut m = ReconfigLog::new();
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
    fn reconfig_log_caps_and_counts_the_overflow() {
        let mut m = ReconfigLog::with_cap(3);
        for i in 0..10u64 {
            m.on_reconfig(i, 4, 8);
        }
        assert_eq!(m.reconfigs.len(), 3, "first N kept");
        assert_eq!(m.dropped_reconfigs(), 7);
        assert_eq!(m.reconfigs[0].cycle, 0);
        assert_eq!(m.reconfigs[2].cycle, 2);
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
}
