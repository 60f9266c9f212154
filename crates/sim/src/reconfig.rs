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

/// Metrics of one interval of committed instructions (paper §4.1,
/// Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalRecord {
    /// Committed instructions (the interval length).
    pub instructions: u64,
    /// Cycles the interval took.
    pub cycles: u64,
    /// Committed control transfers.
    pub branches: u64,
    /// Committed loads + stores.
    pub memrefs: u64,
}

impl IntervalRecord {
    /// The interval's IPC.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }
}

/// Counts the commits of one interval: the one interval accumulator
/// behind [`FixedPolicy`]'s checkpoints, the interval policies of
/// `clustered-core` and its per-interval `Timeline`.
///
/// An interval starts at the cycle the previous one closed. A fresh
/// counter (start cycle 0, nothing counted) starts at the cycle of its
/// first commit instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalCounter {
    start_cycle: u64,
    counts: IntervalRecord,
}

impl IntervalCounter {
    /// Counts one committed instruction.
    #[inline]
    pub fn count(&mut self, event: &CommitEvent) {
        if self.counts.instructions == 0 && self.start_cycle == 0 {
            self.start_cycle = event.cycle;
        }
        self.counts.instructions += 1;
        self.counts.branches += u64::from(event.is_branch);
        self.counts.memrefs += u64::from(event.is_memref);
    }

    /// Instructions counted so far.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.counts.instructions
    }

    /// Ends the interval at cycle `now`, returning the cycle it
    /// started and its record (at least one cycle long), and starts the
    /// next one there.
    pub fn close(&mut self, now: u64) -> (u64, IntervalRecord) {
        let start = self.start_cycle;
        let record = IntervalRecord { cycles: now.saturating_sub(start).max(1), ..self.counts };
        *self = IntervalCounter { start_cycle: now, counts: IntervalRecord::default() };
        (start, record)
    }
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
    counter: IntervalCounter,
    previous: Option<IntervalRecord>,
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
            counter: IntervalCounter::default(),
            previous: None,
            last_decision: None,
        }
    }

    /// Closes the checkpoint interval at `cycle` and records it. Cold
    /// and out of line: it runs once per [`FIXED_CHECKPOINT_COMMITS`]
    /// commits, so the per-commit path stays a count and a compare.
    #[cold]
    #[inline(never)]
    fn checkpoint(&mut self, cycle: u64) {
        self.interval += 1;
        let (start_cycle, record) = self.counter.close(cycle);
        let delta = |now: u64, then: u64| now as i64 - then as i64;
        let (branch_delta, memref_delta) = self.previous.map_or((0, 0), |p| {
            (delta(record.branches, p.branches), delta(record.memrefs, p.memrefs))
        });
        self.last_decision = Some(DecisionRecord {
            interval: self.interval,
            commit: self.interval * FIXED_CHECKPOINT_COMMITS,
            start_cycle,
            cycle,
            state: PolicyState::Stable,
            ipc: record.ipc(),
            branch_delta,
            memref_delta,
            instability: 0.0,
            explored_ipc: Vec::new(),
            interval_length: FIXED_CHECKPOINT_COMMITS,
            clusters: self.clusters,
            reason: DecisionReason::FixedBaseline,
        });
        self.previous = Some(record);
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
        self.counter.count(event);
        if self.counter.instructions() == FIXED_CHECKPOINT_COMMITS {
            self.checkpoint(event.cycle);
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
    fn fixed_checkpoints_chain_from_one_close_to_the_next() {
        let mut p = FixedPolicy::new(4);
        let mut decisions = Vec::new();
        for seq in 0..(3 * FIXED_CHECKPOINT_COMMITS) {
            let mut e = commit_template();
            e.seq = seq;
            // Two commits a cycle from cycle 7: each checkpoint closes
            // on a cycle's last commit, so the next one's first commit
            // comes a cycle later.
            e.cycle = 7 + seq / 2;
            p.on_commit(&e);
            decisions.extend(p.take_decision());
        }
        assert_eq!(decisions.len(), 3);
        assert_eq!(decisions[0].start_cycle, 7, "the first checkpoint starts at its first commit");
        for pair in decisions.windows(2) {
            assert_eq!(pair[1].start_cycle, pair[0].cycle, "checkpoint {}", pair[1].interval);
        }
        let covered = decisions[2].cycle - decisions[0].start_cycle;
        let summed: u64 = decisions.iter().map(|d| d.cycle - d.start_cycle).sum();
        assert_eq!(summed, covered, "no cycle between checkpoints goes uncounted");
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
