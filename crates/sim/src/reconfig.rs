//! The interface between the processor and a dynamic
//! cluster-allocation policy.
//!
//! The paper's algorithms run as a low-overhead software routine
//! reading hardware event counters (§4.2); here a policy receives one
//! [`CommitEvent`] per committed instruction — the same information
//! those counters expose — and may request a different number of
//! active clusters at any commit boundary.

use crate::decision::{DecisionReason, DecisionRecord, PolicyState};

/// Everything a policy may observe about one committed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEvent {
    /// Position in the committed instruction stream.
    pub seq: u64,
    /// The instruction's PC (instruction index).
    pub pc: u32,
    /// The cycle the instruction committed.
    pub cycle: u64,
    /// Whether this is any control transfer.
    pub is_branch: bool,
    /// Whether this is a conditional branch.
    pub is_cond_branch: bool,
    /// Whether this is a call.
    pub is_call: bool,
    /// Whether this is a return.
    pub is_return: bool,
    /// Whether this is a load or store.
    pub is_memref: bool,
    /// Whether the instruction issued while ≥ `DISTANT_DEPTH`
    /// instructions younger than the ROB head (paper §4.3).
    pub distant: bool,
    /// Whether this control transfer was mispredicted.
    pub mispredicted: bool,
}

/// The window depth beyond which an issuing instruction counts as
/// *distant* ILP (paper §4.3: 120 instructions, the capacity of four
/// clusters).
pub const DISTANT_DEPTH: u64 = 120;

/// A dynamic cluster-allocation policy.
///
/// Implementations live in the `clustered-core` crate; the simulator
/// invokes [`ReconfigPolicy::on_commit`] for every committed
/// instruction and applies any returned request (clamped to the legal
/// configurations) — immediately for the centralized cache, or after a
/// drain-and-flush for the decentralized cache.
pub trait ReconfigPolicy {
    /// A short display name for experiment tables.
    fn name(&self) -> String;

    /// The number of clusters to enable before the first instruction.
    fn initial_clusters(&self) -> usize;

    /// Observes one committed instruction; returns `Some(n)` to
    /// request `n` active clusters.
    fn on_commit(&mut self, event: &CommitEvent) -> Option<usize>;

    /// Drains the decision-telemetry record produced by the most
    /// recent [`on_commit`](ReconfigPolicy::on_commit), if any.
    ///
    /// The simulator polls this after every commit when its observer
    /// opts in (`SimObserver::WANTS_DECISIONS`); a policy overwrites
    /// any undrained record at its next decision point, so a caller
    /// that never polls cannot leak memory. The default keeps legacy
    /// policies compiling: no telemetry.
    fn take_decision(&mut self) -> Option<DecisionRecord> {
        None
    }
}

/// How many commits a [`FixedPolicy`] covers per telemetry checkpoint.
pub const FIXED_CHECKPOINT_COMMITS: u64 = 10_000;

/// The static baseline: a fixed number of clusters, never reconfigured
/// (the paper's Figure 3 bars).
///
/// Although it makes no decisions, it still emits telemetry: one
/// [`DecisionRecord`] checkpoint every
/// [`FIXED_CHECKPOINT_COMMITS`] commits, so baseline runs produce the
/// same timeline documents as adaptive ones.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedPolicy {
    clusters: usize,
    interval: u64,
    committed: u64,
    interval_committed: u64,
    start_cycle: u64,
    branches: u64,
    memrefs: u64,
    prev_branches: u64,
    prev_memrefs: u64,
    have_prev: bool,
    last_decision: Option<DecisionRecord>,
}

impl FixedPolicy {
    /// A policy pinned to `clusters` active clusters.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero.
    pub fn new(clusters: usize) -> FixedPolicy {
        assert!(clusters > 0, "cluster count must be non-zero");
        FixedPolicy {
            clusters,
            interval: 0,
            committed: 0,
            interval_committed: 0,
            start_cycle: 0,
            branches: 0,
            memrefs: 0,
            prev_branches: 0,
            prev_memrefs: 0,
            have_prev: false,
            last_decision: None,
        }
    }
}

impl ReconfigPolicy for FixedPolicy {
    fn name(&self) -> String {
        format!("fixed-{}", self.clusters)
    }

    fn initial_clusters(&self) -> usize {
        self.clusters
    }

    fn on_commit(&mut self, event: &CommitEvent) -> Option<usize> {
        if self.interval_committed == 0 {
            self.start_cycle = event.cycle;
        }
        self.committed += 1;
        self.interval_committed += 1;
        if event.is_branch {
            self.branches += 1;
        }
        if event.is_memref {
            self.memrefs += 1;
        }
        if self.interval_committed == FIXED_CHECKPOINT_COMMITS {
            self.interval += 1;
            let cycles = (event.cycle - self.start_cycle).max(1);
            let (branch_delta, memref_delta) = if self.have_prev {
                (
                    self.branches as i64 - self.prev_branches as i64,
                    self.memrefs as i64 - self.prev_memrefs as i64,
                )
            } else {
                (0, 0)
            };
            self.last_decision = Some(DecisionRecord {
                interval: self.interval,
                commit: self.committed,
                start_cycle: self.start_cycle,
                cycle: event.cycle,
                state: PolicyState::Stable,
                ipc: self.interval_committed as f64 / cycles as f64,
                branch_delta,
                memref_delta,
                instability: 0.0,
                explored_ipc: Vec::new(),
                interval_length: FIXED_CHECKPOINT_COMMITS,
                clusters: self.clusters,
                reason: DecisionReason::FixedBaseline,
            });
            self.prev_branches = self.branches;
            self.prev_memrefs = self.memrefs;
            self.have_prev = true;
            self.branches = 0;
            self.memrefs = 0;
            self.interval_committed = 0;
        }
        None
    }

    fn take_decision(&mut self) -> Option<DecisionRecord> {
        self.last_decision.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_never_reconfigures() {
        let mut p = FixedPolicy::new(4);
        assert_eq!(p.initial_clusters(), 4);
        assert_eq!(p.name(), "fixed-4");
        let e = CommitEvent {
            seq: 0,
            pc: 0,
            cycle: 0,
            is_branch: false,
            is_cond_branch: false,
            is_call: false,
            is_return: false,
            is_memref: false,
            distant: false,
            mispredicted: false,
        };
        for _ in 0..100 {
            assert_eq!(p.on_commit(&e), None);
        }
    }

    #[test]
    fn fixed_policy_emits_periodic_checkpoint_decisions() {
        let mut p = FixedPolicy::new(4);
        let mut decisions = Vec::new();
        for seq in 0..(2 * FIXED_CHECKPOINT_COMMITS + 5) {
            let mut e = commit_template();
            e.seq = seq;
            e.cycle = seq * 2;
            e.is_branch = seq % 5 == 0;
            e.is_memref = seq % 3 == 0;
            assert_eq!(p.on_commit(&e), None);
            if let Some(d) = p.take_decision() {
                decisions.push(d);
            }
        }
        assert_eq!(decisions.len(), 2, "one checkpoint per {FIXED_CHECKPOINT_COMMITS} commits");
        let d = &decisions[0];
        assert_eq!(d.interval, 1);
        assert_eq!(d.commit, FIXED_CHECKPOINT_COMMITS);
        assert_eq!(d.clusters, 4);
        assert_eq!(d.state, PolicyState::Stable);
        assert_eq!(d.reason, DecisionReason::FixedBaseline);
        assert_eq!(d.interval_length, FIXED_CHECKPOINT_COMMITS);
        assert!((d.ipc - 0.5).abs() < 0.01, "cpi 2 stream measures ipc 0.5, got {}", d.ipc);
        assert_eq!((d.branch_delta, d.memref_delta), (0, 0), "first interval has no reference");
        // The second checkpoint compares against the first; a uniform
        // stream has (near-)zero deltas.
        assert!(decisions[1].branch_delta.abs() <= 1);
        assert!(decisions[1].memref_delta.abs() <= 1);
    }

    #[test]
    fn fixed_policy_decision_is_drained_once() {
        let mut p = FixedPolicy::new(2);
        for seq in 0..FIXED_CHECKPOINT_COMMITS {
            let mut e = commit_template();
            e.seq = seq;
            e.cycle = seq;
            p.on_commit(&e);
        }
        assert!(p.take_decision().is_some());
        assert!(p.take_decision().is_none(), "take_decision drains");
    }

    fn commit_template() -> CommitEvent {
        CommitEvent {
            seq: 0,
            pc: 0,
            cycle: 0,
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
    #[should_panic(expected = "non-zero")]
    fn fixed_policy_rejects_zero() {
        let _ = FixedPolicy::new(0);
    }
}
