//! The interval-based scheme *without* exploration (paper §4.3).
//!
//! Instead of trying every configuration, the policy runs one probe
//! interval on all 16 clusters, counts how many instructions issued
//! *distant* from the ROB head, and picks 16 clusters if there is
//! enough distant ILP to use them, else 4. Because no exploration is
//! needed, it reacts quickly, making small intervals (1K instructions)
//! meaningful — at the cost of noisier measurements.

use crate::phase::{ipc_changed, metrics_changed, IntervalRecord};
use clustered_sim::{
    CommitEvent, DecisionReason, DecisionRecord, IntervalCounter, PolicyState, ReconfigPolicy,
};

/// Tunables of [`IntervalDistantIlp`], defaults per the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalDistantIlpConfig {
    /// Fixed interval length in committed instructions.
    pub interval_length: u64,
    /// Distant-instruction count per 1000 committed above which the
    /// wide configuration is chosen (paper: 160 per 1000).
    pub distant_threshold_per_k: u64,
    /// The narrow configuration (paper: 4 clusters).
    pub narrow: usize,
    /// The wide configuration, also used for probing (paper: 16).
    pub wide: usize,
    /// Intervals discarded at start-up before the first probe (the
    /// pipeline, predictors, and caches are still filling).
    pub startup_skip: u64,
}

impl Default for IntervalDistantIlpConfig {
    fn default() -> IntervalDistantIlpConfig {
        IntervalDistantIlpConfig {
            interval_length: 1_000,
            distant_threshold_per_k: 160,
            narrow: 4,
            wide: 16,
            startup_skip: 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Probing at the wide configuration to measure distant ILP.
    Probe,
    /// Locked to a configuration until the phase changes.
    Locked,
}

/// Which signal tripped the phase-change detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseSignal {
    /// Branch/memref counts deviated from the reference.
    Metrics,
    /// IPC deviated from the reference.
    Ipc,
}

/// The §4.3 policy: probe on the wide machine, then lock to narrow or
/// wide by the measured distant ILP.
#[derive(Debug, Clone)]
pub struct IntervalDistantIlp {
    cfg: IntervalDistantIlpConfig,
    mode: Mode,
    current: usize,
    interval: IntervalCounter,
    /// Distant instructions committed this interval.
    distant: u64,
    /// The probe interval of the current phase.
    reference: IntervalRecord,
    reference_ipc: f64,
    have_reference: bool,
    skip_left: u64,
    committed: u64,
    decision_index: u64,
    last_decision: Option<DecisionRecord>,
}

impl Default for IntervalDistantIlp {
    fn default() -> IntervalDistantIlp {
        IntervalDistantIlp::new(IntervalDistantIlpConfig::default())
    }
}

impl IntervalDistantIlp {
    /// Builds the policy.
    ///
    /// # Panics
    ///
    /// Panics if `interval_length` is zero or `narrow >= wide`.
    pub fn new(cfg: IntervalDistantIlpConfig) -> IntervalDistantIlp {
        assert!(cfg.interval_length > 0, "interval length must be non-zero");
        assert!(cfg.narrow < cfg.wide, "narrow config must be smaller than wide");
        IntervalDistantIlp {
            mode: Mode::Probe,
            current: cfg.wide,
            interval: IntervalCounter::default(),
            distant: 0,
            reference: IntervalRecord::default(),
            reference_ipc: 0.0,
            have_reference: false,
            skip_left: cfg.startup_skip,
            committed: 0,
            decision_index: 0,
            last_decision: None,
            cfg,
        }
    }

    /// Convenience constructor varying only the interval length (the
    /// paper's Figure 5 shows 1K, 10K, and 100K variants).
    pub fn with_interval(interval_length: u64) -> IntervalDistantIlp {
        IntervalDistantIlp::new(IntervalDistantIlpConfig {
            interval_length,
            ..IntervalDistantIlpConfig::default()
        })
    }

    /// The configuration currently selected.
    pub fn current_clusters(&self) -> usize {
        self.current
    }

    fn phase_signal(&self, record: &IntervalRecord) -> Option<PhaseSignal> {
        if !self.have_reference {
            return None;
        }
        if metrics_changed(record, &self.reference, self.cfg.interval_length) {
            return Some(PhaseSignal::Metrics);
        }
        ipc_changed(record.ipc(), self.reference_ipc).then_some(PhaseSignal::Ipc)
    }

    fn record_decision(
        &mut self,
        (start_cycle, record): &(u64, IntervalRecord),
        now: u64,
        state: PolicyState,
        reason: DecisionReason,
    ) {
        let (branch_delta, memref_delta) = if self.have_reference {
            (
                record.branches as i64 - self.reference.branches as i64,
                record.memrefs as i64 - self.reference.memrefs as i64,
            )
        } else {
            (0, 0)
        };
        self.decision_index += 1;
        self.last_decision = Some(DecisionRecord {
            interval: self.decision_index,
            commit: self.committed,
            start_cycle: *start_cycle,
            cycle: now,
            state,
            ipc: record.ipc(),
            branch_delta,
            memref_delta,
            instability: 0.0,
            explored_ipc: Vec::new(),
            interval_length: self.cfg.interval_length,
            clusters: self.current,
            reason,
        });
    }

    fn end_interval(&mut self, closed: &(u64, IntervalRecord), now: u64) -> Option<usize> {
        let record = &closed.1;
        match self.mode {
            Mode::Probe => {
                // Decide from the measured distant ILP.
                let threshold = self.cfg.distant_threshold_per_k * self.cfg.interval_length / 1_000;
                let choice = if self.distant > threshold { self.cfg.wide } else { self.cfg.narrow };
                self.mode = Mode::Locked;
                self.have_reference = true;
                self.reference = *record;
                self.reference_ipc = 0.0; // set after the first locked interval
                let changed = choice != self.current;
                self.current = choice;
                let reason = DecisionReason::ProbeResult;
                self.record_decision(closed, now, PolicyState::Stable, reason);
                changed.then_some(choice)
            }
            Mode::Locked => {
                if let Some(signal) = self.phase_signal(record) {
                    let reason = match signal {
                        PhaseSignal::Metrics => DecisionReason::PhaseChangeMetrics,
                        PhaseSignal::Ipc => DecisionReason::PhaseChangeIpc,
                    };
                    // Record before the state flips so the deltas that
                    // tripped the detector are preserved.
                    self.record_decision(closed, now, PolicyState::Exploring, reason);
                    // Re-probe on the wide machine.
                    self.mode = Mode::Probe;
                    self.have_reference = false;
                    let changed = self.current != self.cfg.wide;
                    self.current = self.cfg.wide;
                    if let Some(d) = self.last_decision.as_mut() {
                        d.clusters = self.cfg.wide;
                    }
                    changed.then_some(self.cfg.wide)
                } else {
                    if self.reference_ipc == 0.0 {
                        self.reference_ipc = record.ipc();
                    }
                    let reason = DecisionReason::StableNoChange;
                    self.record_decision(closed, now, PolicyState::Stable, reason);
                    None
                }
            }
        }
    }
}

impl ReconfigPolicy for IntervalDistantIlp {
    fn name(&self) -> String {
        format!("interval-distant/{}", self.cfg.interval_length)
    }

    fn initial_clusters(&self) -> usize {
        self.cfg.wide
    }

    fn on_commit(&mut self, event: &CommitEvent) -> Option<usize> {
        self.committed += 1;
        self.interval.count(event);
        self.distant += u64::from(event.distant);
        if self.interval.instructions() < self.cfg.interval_length {
            return None;
        }
        let closed = self.interval.close(event.cycle);
        let request = if self.skip_left > 0 {
            // Start-up interval: measurements are cold, discard them.
            self.skip_left -= 1;
            let (state, reason) = (PolicyState::Cooldown, DecisionReason::StartupSkip);
            self.record_decision(&closed, event.cycle, state, reason);
            None
        } else {
            self.end_interval(&closed, event.cycle)
        };
        self.distant = 0;
        request
    }

    fn take_decision(&mut self) -> Option<DecisionRecord> {
        self.last_decision.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, cycle: u64, distant: bool, is_branch: bool) -> CommitEvent {
        CommitEvent {
            seq,
            pc: (seq % 64) as u32,
            cycle,
            is_branch,
            is_cond_branch: is_branch,
            is_call: false,
            is_return: false,
            is_memref: seq.is_multiple_of(4),
            distant,
            mispredicted: false,
        }
    }

    fn drive(
        p: &mut IntervalDistantIlp,
        n: u64,
        distant_frac_per_k: u64,
        branch_every: u64,
        seq0: u64,
    ) -> (Vec<usize>, u64) {
        let mut requests = Vec::new();
        let mut seq = seq0;
        for _ in 0..n {
            seq += 1;
            let distant = (seq % 1_000) < distant_frac_per_k;
            if let Some(r) =
                p.on_commit(&event(seq, seq * 2, distant, seq.is_multiple_of(branch_every)))
            {
                requests.push(r);
            }
        }
        (requests, seq)
    }

    #[test]
    fn high_distant_ilp_selects_wide() {
        let mut p = IntervalDistantIlp::default();
        assert_eq!(p.initial_clusters(), 16);
        let (_, _) = drive(&mut p, 3_000, 400, 10, 0);
        assert_eq!(p.current_clusters(), 16);
    }

    #[test]
    fn low_distant_ilp_selects_narrow() {
        let mut p = IntervalDistantIlp::default();
        let (requests, _) = drive(&mut p, 2_000, 20, 10, 0);
        assert_eq!(p.current_clusters(), 4);
        assert!(requests.contains(&4));
    }

    #[test]
    fn phase_change_reprobes_wide() {
        let mut p = IntervalDistantIlp::default();
        let (_, seq) = drive(&mut p, 5_000, 20, 10, 0);
        assert_eq!(p.current_clusters(), 4);
        // Branch density shift → re-probe at 16.
        let (requests, _) = drive(&mut p, 1_000, 20, 3, seq);
        assert!(requests.contains(&16), "re-probe expected: {requests:?}");
    }

    #[test]
    fn threshold_scales_with_interval() {
        let mut p = IntervalDistantIlp::with_interval(10_000);
        // 170/1000 distant: just above the 160/1000 threshold.
        let (_, _) = drive(&mut p, 20_000, 170, 10, 0);
        assert_eq!(p.current_clusters(), 16);
        let mut p = IntervalDistantIlp::with_interval(10_000);
        let (_, _) = drive(&mut p, 20_000, 150, 10, 0);
        assert_eq!(p.current_clusters(), 4);
    }

    #[test]
    #[should_panic(expected = "narrow config")]
    fn rejects_inverted_configs() {
        let _ = IntervalDistantIlp::new(IntervalDistantIlpConfig {
            narrow: 16,
            wide: 4,
            ..Default::default()
        });
    }
}
