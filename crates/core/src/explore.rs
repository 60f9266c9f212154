//! The interval-based selection algorithm *with exploration* —
//! Figure 4 of the paper.
//!
//! At the start of each program phase the algorithm runs every
//! candidate configuration for one interval, records the IPCs, picks
//! the winner, and stays there until the phase changes. Phase changes
//! are detected from microarchitecture-independent metrics (branch and
//! memory-reference counts per interval) plus, once stable, IPC
//! deviation. The interval length itself adapts: if phases appear to
//! change too often, the interval is repeatedly doubled until behaviour
//! across intervals is consistent, and if that never happens the
//! algorithm turns itself off, pinned at the most popular
//! configuration.

use crate::phase::{ipc_changed, metrics_changed, IntervalCounter, IntervalRecord};
use clustered_sim::{CommitEvent, DecisionReason, DecisionRecord, PolicyState, ReconfigPolicy};

/// Tunables of [`IntervalExplore`], with the paper's values as
/// defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalExploreConfig {
    /// Initial (minimum) interval length in committed instructions.
    pub initial_interval: u64,
    /// Interval length beyond which the algorithm gives up and pins
    /// the most popular configuration (THRESH3; 1 billion in the
    /// paper — scale it down for short simulations).
    pub max_interval: u64,
    /// Candidate cluster counts explored at each phase start.
    pub explore_configs: Vec<usize>,
    /// Tolerated accumulated IPC variation before it signals a phase
    /// change (THRESH1).
    pub ipc_variation_threshold: f64,
    /// Accumulated instability that triggers doubling the interval
    /// (THRESH2).
    pub instability_threshold: f64,
    /// Committed instructions per macrophase; all state resets at
    /// macrophase boundaries (100 billion in the paper).
    pub macrophase_interval: u64,
}

impl Default for IntervalExploreConfig {
    fn default() -> IntervalExploreConfig {
        IntervalExploreConfig {
            initial_interval: 10_000,
            max_interval: 1_000_000_000,
            explore_configs: vec![2, 4, 8, 16],
            ipc_variation_threshold: 5.0,
            instability_threshold: 5.0,
            macrophase_interval: 100_000_000_000,
        }
    }
}

/// The Figure 4 run-time algorithm.
///
/// # Examples
///
/// ```
/// use clustered_core::IntervalExplore;
/// use clustered_sim::ReconfigPolicy;
///
/// let policy = IntervalExplore::default();
/// assert_eq!(policy.initial_clusters(), 2); // first explored config
/// ```
#[derive(Debug, Clone)]
pub struct IntervalExplore {
    cfg: IntervalExploreConfig,
    interval_length: u64,
    discontinued: bool,
    have_reference: bool,
    stable: bool,
    num_ipc_variations: f64,
    instability: f64,
    /// Index into `explore_configs` during exploration.
    explore_idx: usize,
    current: usize,
    /// IPC recorded for each explored configuration this phase.
    explored_ipc: Vec<f64>,
    /// The first interval of the current phase.
    reference: IntervalRecord,
    reference_ipc: f64,
    /// How many intervals each configuration has been chosen for
    /// ("most popular" fallback when discontinuing).
    popularity: Vec<u64>,
    interval: IntervalCounter,
    total_committed: u64,
    macrophase_mark: u64,
    decision_index: u64,
    last_decision: Option<DecisionRecord>,
}

impl Default for IntervalExplore {
    fn default() -> IntervalExplore {
        IntervalExplore::new(IntervalExploreConfig::default())
    }
}

impl IntervalExplore {
    /// Builds the policy.
    ///
    /// # Panics
    ///
    /// Panics if `explore_configs` is empty or `initial_interval` is 0.
    pub fn new(cfg: IntervalExploreConfig) -> IntervalExplore {
        assert!(!cfg.explore_configs.is_empty(), "need at least one configuration");
        assert!(cfg.initial_interval > 0, "interval length must be non-zero");
        let current = cfg.explore_configs[0];
        IntervalExplore {
            interval_length: cfg.initial_interval,
            discontinued: false,
            have_reference: false,
            stable: false,
            num_ipc_variations: 0.0,
            instability: 0.0,
            explore_idx: 0,
            current,
            explored_ipc: Vec::with_capacity(cfg.explore_configs.len()),
            reference: IntervalRecord::default(),
            reference_ipc: 0.0,
            popularity: vec![0; cfg.explore_configs.len()],
            interval: IntervalCounter::default(),
            total_committed: 0,
            macrophase_mark: 0,
            decision_index: 0,
            last_decision: None,
            cfg,
        }
    }

    /// The interval length currently in use.
    pub fn interval_length(&self) -> u64 {
        self.interval_length
    }

    /// Whether the algorithm has turned itself off.
    pub fn is_discontinued(&self) -> bool {
        self.discontinued
    }

    /// Whether the policy has settled on a configuration for the
    /// current phase.
    pub fn is_stable(&self) -> bool {
        self.stable
    }

    /// Closes the interval at cycle `now` and evaluates it; returns a
    /// new cluster request.
    ///
    /// Every call also records one [`DecisionRecord`] (drained through
    /// [`ReconfigPolicy::take_decision`]) capturing which Figure 4
    /// branch was taken and why.
    fn end_interval(&mut self, now: u64) -> Option<usize> {
        let (start_cycle, record) = self.interval.close(now);
        let ipc = record.ipc();
        let mut request = None;
        let mut reason = DecisionReason::StableNoChange;
        let had_reference = self.have_reference;
        let (branch_delta, memref_delta) = if had_reference {
            (
                record.branches as i64 - self.reference.branches as i64,
                record.memrefs as i64 - self.reference.memrefs as i64,
            )
        } else {
            (0, 0)
        };

        if self.have_reference {
            let metric_change = metrics_changed(&record, &self.reference, self.interval_length);
            let ipc_change = self.stable && ipc_changed(ipc, self.reference_ipc);
            if metric_change
                || (ipc_change && self.num_ipc_variations > self.cfg.ipc_variation_threshold)
            {
                // Phase change: restart exploration.
                reason = if metric_change {
                    DecisionReason::PhaseChangeMetrics
                } else {
                    DecisionReason::PhaseChangeIpc
                };
                self.have_reference = false;
                self.stable = false;
                self.num_ipc_variations = 0.0;
                self.explore_idx = 0;
                self.explored_ipc.clear();
                self.current = self.cfg.explore_configs[0];
                request = Some(self.current);
                self.instability += 2.0;
                if self.instability > self.cfg.instability_threshold {
                    self.interval_length *= 2;
                    self.instability = 0.0;
                    reason = DecisionReason::IntervalDoubled;
                    if self.interval_length > self.cfg.max_interval {
                        // Give up: pin the most popular configuration.
                        let best = self
                            .popularity
                            .iter()
                            .enumerate()
                            .max_by_key(|&(_, &n)| n)
                            .map(|(i, _)| self.cfg.explore_configs[i])
                            .expect("configs non-empty");
                        self.discontinued = true;
                        self.current = best;
                        request = Some(best);
                        reason = DecisionReason::Discontinued;
                    }
                }
            } else {
                if ipc_change {
                    self.num_ipc_variations += 2.0;
                } else {
                    self.num_ipc_variations = (self.num_ipc_variations - 0.125).max(-2.0);
                }
                self.instability = (self.instability - 0.125).max(0.0);
            }
        } else {
            // First interval of a new phase: it becomes the reference.
            reason = DecisionReason::Reference;
            self.have_reference = true;
            self.reference = record;
        }

        if self.have_reference && !self.stable && !self.discontinued && request.is_none() {
            // Exploration: record this configuration's IPC, move on.
            self.explored_ipc.push(ipc);
            self.explore_idx += 1;
            if self.explore_idx >= self.cfg.explore_configs.len() {
                let (best_idx, best_ipc) = self
                    .explored_ipc
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, &v)| (i, v))
                    .expect("explored at least one config");
                self.current = self.cfg.explore_configs[best_idx];
                self.reference_ipc = best_ipc;
                self.stable = true;
                reason = DecisionReason::ExplorationComplete;
            } else {
                self.current = self.cfg.explore_configs[self.explore_idx];
                if had_reference {
                    reason = DecisionReason::Exploring;
                }
            }
            request = Some(self.current);
        }

        if self.stable {
            if let Some(slot) = self.cfg.explore_configs.iter().position(|&c| c == self.current) {
                self.popularity[slot] += 1;
            }
        }

        let state = if self.discontinued {
            PolicyState::Discontinued
        } else if self.stable {
            PolicyState::Stable
        } else {
            PolicyState::Exploring
        };
        let explored_ipc = match reason {
            DecisionReason::Reference
            | DecisionReason::Exploring
            | DecisionReason::ExplorationComplete => self.explored_ipc.clone(),
            _ => Vec::new(),
        };
        self.decision_index += 1;
        self.last_decision = Some(DecisionRecord {
            interval: self.decision_index,
            commit: self.total_committed,
            start_cycle,
            cycle: now,
            state,
            ipc,
            branch_delta,
            memref_delta,
            instability: self.instability,
            explored_ipc,
            interval_length: self.interval_length,
            clusters: self.current,
            reason,
        });
        request
    }

    fn macrophase_reset(&mut self) {
        self.interval_length = self.cfg.initial_interval;
        self.discontinued = false;
        self.have_reference = false;
        self.stable = false;
        self.num_ipc_variations = 0.0;
        self.instability = 0.0;
        self.explore_idx = 0;
        self.explored_ipc.clear();
        self.popularity.iter_mut().for_each(|p| *p = 0);
        self.current = self.cfg.explore_configs[0];
    }
}

impl ReconfigPolicy for IntervalExplore {
    fn name(&self) -> String {
        format!("interval-explore/{}", self.cfg.initial_interval)
    }

    fn initial_clusters(&self) -> usize {
        self.cfg.explore_configs[0]
    }

    fn on_commit(&mut self, event: &CommitEvent) -> Option<usize> {
        self.total_committed += 1;
        self.interval.count(event);

        // Macrophase boundary: restart from scratch.
        if self.total_committed - self.macrophase_mark >= self.cfg.macrophase_interval {
            self.macrophase_mark = self.total_committed;
            let (start_cycle, record) = self.interval.close(event.cycle);
            let ipc = record.ipc();
            self.macrophase_reset();
            self.decision_index += 1;
            self.last_decision = Some(DecisionRecord {
                interval: self.decision_index,
                commit: self.total_committed,
                start_cycle,
                cycle: event.cycle,
                state: PolicyState::Exploring,
                ipc,
                branch_delta: 0,
                memref_delta: 0,
                instability: self.instability,
                explored_ipc: Vec::new(),
                interval_length: self.interval_length,
                clusters: self.current,
                reason: DecisionReason::MacrophaseReset,
            });
            return Some(self.current);
        }

        if self.discontinued || self.interval.instructions() < self.interval_length {
            return None;
        }
        self.end_interval(event.cycle)
    }

    fn take_decision(&mut self) -> Option<DecisionRecord> {
        self.last_decision.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, cycle: u64, is_branch: bool, is_memref: bool) -> CommitEvent {
        CommitEvent {
            seq,
            pc: (seq % 64) as u32,
            cycle,
            is_branch,
            is_cond_branch: is_branch,
            is_call: false,
            is_return: false,
            is_memref,
            distant: false,
            mispredicted: false,
        }
    }

    /// Drives the policy through `n` intervals of uniform behaviour
    /// with the given cycles-per-instruction; returns requests made.
    fn drive(
        policy: &mut IntervalExplore,
        intervals: u64,
        cpi: u64,
        branch_every: u64,
        start_seq: u64,
        start_cycle: u64,
    ) -> (Vec<usize>, u64, u64) {
        let mut requests = Vec::new();
        let mut seq = start_seq;
        let mut cycle = start_cycle;
        let n = intervals * policy.interval_length();
        for _ in 0..n {
            seq += 1;
            cycle += cpi;
            let is_branch = seq.is_multiple_of(branch_every);
            if let Some(r) = policy.on_commit(&event(seq, cycle, is_branch, seq.is_multiple_of(3)))
            {
                requests.push(r);
            }
        }
        (requests, seq, cycle)
    }

    #[test]
    fn explores_all_configs_then_settles() {
        let mut p = IntervalExplore::new(IntervalExploreConfig {
            initial_interval: 1_000,
            ..Default::default()
        });
        let (requests, _, _) = drive(&mut p, 6, 2, 10, 0, 0);
        // After the first (reference) interval, exploration walks
        // 4 → 8 → 16 and then picks a winner.
        assert!(requests.len() >= 3, "requests: {requests:?}");
        assert_eq!(&requests[..3], &[4, 8, 16]);
        assert!(p.is_stable());
    }

    #[test]
    fn uniform_behaviour_stays_stable() {
        let mut p = IntervalExplore::new(IntervalExploreConfig {
            initial_interval: 1_000,
            ..Default::default()
        });
        let (_, seq, cycle) = drive(&mut p, 8, 2, 10, 0, 0);
        assert!(p.is_stable());
        let (requests, _, _) = drive(&mut p, 20, 2, 10, seq, cycle);
        assert!(requests.is_empty(), "no reconfigurations in steady state: {requests:?}");
    }

    #[test]
    fn metric_shift_triggers_reexploration() {
        let mut p = IntervalExplore::new(IntervalExploreConfig {
            initial_interval: 1_000,
            ..Default::default()
        });
        let (_, seq, cycle) = drive(&mut p, 8, 2, 10, 0, 0);
        assert!(p.is_stable());
        // Branch frequency jumps from 1/10 to 1/3: a phase change.
        let (requests, _, _) = drive(&mut p, 2, 2, 3, seq, cycle);
        assert!(!requests.is_empty(), "phase change should restart exploration");
        assert_eq!(requests[0], 2, "exploration restarts at the smallest config");
    }

    #[test]
    fn frequent_phase_changes_double_interval() {
        let mut p = IntervalExplore::new(IntervalExploreConfig {
            initial_interval: 1_000,
            ..Default::default()
        });
        let mut seq = 0;
        let mut cycle = 0;
        // Alternate branch density every interval to force instability.
        for round in 0..40 {
            let be = if round % 2 == 0 { 3 } else { 20 };
            let (_, s, c) = drive(&mut p, 1, 2, be, seq, cycle);
            seq = s;
            cycle = c;
        }
        assert!(
            p.interval_length() > 1_000,
            "interval should have doubled, still {}",
            p.interval_length()
        );
    }

    #[test]
    fn gives_up_past_max_interval() {
        let mut p = IntervalExplore::new(IntervalExploreConfig {
            initial_interval: 1_000,
            max_interval: 2_000,
            ..Default::default()
        });
        let mut seq = 0;
        let mut cycle = 0;
        for round in 0..60 {
            let be = if round % 2 == 0 { 3 } else { 20 };
            let (_, s, c) = drive(&mut p, 1, 2, be, seq, cycle);
            seq = s;
            cycle = c;
        }
        assert!(p.is_discontinued(), "algorithm should have turned itself off");
        // Once discontinued, no more requests ever.
        let (requests, _, _) = drive(&mut p, 4, 2, 3, seq, cycle);
        assert!(requests.is_empty());
    }

    #[test]
    fn ipc_noise_is_tolerated_when_stable() {
        let mut p = IntervalExplore::new(IntervalExploreConfig {
            initial_interval: 1_000,
            ..Default::default()
        });
        let (_, mut seq, mut cycle) = drive(&mut p, 8, 2, 10, 0, 0);
        assert!(p.is_stable());
        // One noisy interval (double CPI) then back to normal: the
        // num_ipc_variations hysteresis should absorb it.
        let (r1, s, c) = drive(&mut p, 1, 4, 10, seq, cycle);
        seq = s;
        cycle = c;
        let (r2, _, _) = drive(&mut p, 4, 2, 10, seq, cycle);
        assert!(r1.is_empty() && r2.is_empty(), "noise absorbed: {r1:?} {r2:?}");
        assert!(p.is_stable());
    }

    #[test]
    fn macrophase_resets_everything() {
        let mut p = IntervalExplore::new(IntervalExploreConfig {
            initial_interval: 1_000,
            macrophase_interval: 10_000,
            ..Default::default()
        });
        let (_, seq, cycle) = drive(&mut p, 9, 2, 10, 0, 0);
        let before = p.is_stable();
        let (requests, _, _) = drive(&mut p, 2, 2, 10, seq, cycle);
        assert!(before, "should have stabilised before the macrophase");
        assert!(
            requests.contains(&p.cfg.explore_configs[0]),
            "macrophase restart goes back to the first config: {requests:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn rejects_empty_configs() {
        let _ = IntervalExplore::new(IntervalExploreConfig {
            explore_configs: vec![],
            ..Default::default()
        });
    }
}
