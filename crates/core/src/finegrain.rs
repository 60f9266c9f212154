//! Fine-grained reconfiguration at basic-block boundaries (paper §4.4).
//!
//! Every branch (or, in the subroutine variant, every call/return) is a
//! potential phase boundary. The first `samples` dynamic instances of a
//! trigger measure the *distant ILP* of the 360 instructions committed
//! after it; once sampled, a *reconfiguration table* entry advises a
//! narrow or wide configuration whenever that trigger is seen again.
//! Unsampled triggers run wide so their distant ILP can be observed.
//! The table is rebuilt periodically because the code after a branch
//! can change behaviour over time (the `gzip` failure mode the paper
//! discusses).

use clustered_sim::{
    CommitEvent, DecisionReason, DecisionRecord, PolicyState, ReconfigPolicy,
    FIXED_CHECKPOINT_COMMITS,
};
use std::collections::VecDeque;

/// What commits count as reconfiguration triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Any control transfer (the paper's every-Nth-branch scheme).
    Branch,
    /// Calls and returns only (the paper's subroutine scheme).
    CallReturn,
}

/// Tunables of the fine-grained policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FineGrainConfig {
    /// Committed instructions whose distant ILP is attributed to a
    /// trigger (paper: 360 ≈ three narrow-machine windows).
    pub window: usize,
    /// Distant-instruction count within the window above which the
    /// wide configuration is advised (paper's 160-per-1000 rate scaled
    /// to the 360-instruction window).
    pub distant_threshold: u64,
    /// Samples collected per trigger before advice is computed.
    pub samples: u32,
    /// Reconfiguration-table entries (direct-mapped, tagged).
    pub table_entries: usize,
    /// Attempt reconfiguration only at every Nth trigger.
    pub every_nth: u64,
    /// Rebuild (flush) the table after this many committed
    /// instructions.
    pub flush_period: u64,
    /// The narrow configuration.
    pub narrow: usize,
    /// The wide configuration (also the measuring configuration).
    pub wide: usize,
}

impl Default for FineGrainConfig {
    fn default() -> FineGrainConfig {
        FineGrainConfig {
            window: 360,
            distant_threshold: 58,
            samples: 10,
            table_entries: 16 * 1024,
            every_nth: 5,
            flush_period: 10_000_000,
            narrow: 4,
            wide: 16,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TableEntry {
    tag: u32,
    samples: u32,
    accumulated: u64,
    advice: Option<usize>,
}

const INVALID: TableEntry = TableEntry { tag: u32::MAX, samples: 0, accumulated: 0, advice: None };

/// The fine-grained reconfiguration policy (both variants).
#[derive(Debug, Clone)]
pub struct FineGrain {
    cfg: FineGrainConfig,
    trigger: Trigger,
    table: Vec<TableEntry>,
    /// The last `window` committed instructions: (pc, was-trigger,
    /// was-distant).
    window: VecDeque<(u32, bool, bool)>,
    distant_in_window: u64,
    trigger_count: u64,
    committed: u64,
    last_flush: u64,
    current: usize,
    /// Total reconfiguration requests issued (for experiment reports).
    requests: u64,
    decision_index: u64,
    last_decision_commit: u64,
    last_decision_cycle: u64,
    last_decision: Option<DecisionRecord>,
}

impl FineGrain {
    /// Builds a fine-grained policy.
    ///
    /// # Panics
    ///
    /// Panics if `window`, `samples`, `every_nth`, or `table_entries`
    /// is zero, or `narrow >= wide`.
    pub fn new(trigger: Trigger, cfg: FineGrainConfig) -> FineGrain {
        assert!(cfg.window > 0, "window must be non-zero");
        assert!(cfg.samples > 0, "sample count must be non-zero");
        assert!(cfg.every_nth > 0, "trigger stride must be non-zero");
        assert!(cfg.table_entries > 0, "table must have entries");
        assert!(cfg.narrow < cfg.wide, "narrow config must be smaller than wide");
        FineGrain {
            trigger,
            table: vec![INVALID; cfg.table_entries],
            window: VecDeque::with_capacity(cfg.window + 1),
            distant_in_window: 0,
            trigger_count: 0,
            committed: 0,
            last_flush: 0,
            current: cfg.wide,
            requests: 0,
            decision_index: 0,
            last_decision_commit: 0,
            last_decision_cycle: 0,
            last_decision: None,
            cfg,
        }
    }

    /// The paper's every-5th-branch scheme with 10 samples per branch.
    pub fn branch_policy() -> FineGrain {
        FineGrain::new(Trigger::Branch, FineGrainConfig::default())
    }

    /// The paper's subroutine scheme: reconfigure at every call and
    /// return, three samples each.
    pub fn subroutine_policy() -> FineGrain {
        FineGrain::new(
            Trigger::CallReturn,
            FineGrainConfig { samples: 3, every_nth: 1, ..FineGrainConfig::default() },
        )
    }

    /// Reconfiguration requests issued so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The configuration currently selected.
    pub fn current_clusters(&self) -> usize {
        self.current
    }

    fn is_trigger(&self, event: &CommitEvent) -> bool {
        match self.trigger {
            Trigger::Branch => event.is_branch,
            Trigger::CallReturn => event.is_call || event.is_return,
        }
    }

    /// Folds one finished trigger sample into the table.
    fn record_sample(&mut self, pc: u32, distant: u64) {
        let slot = pc as usize % self.cfg.table_entries;
        let entry = &mut self.table[slot];
        if entry.tag != pc {
            // Aliased or new: start fresh for this trigger.
            *entry = TableEntry { tag: pc, ..INVALID };
        }
        if entry.advice.is_some() {
            return; // already sampled M times
        }
        entry.accumulated += distant;
        entry.samples += 1;
        if entry.samples >= self.cfg.samples {
            let mean = entry.accumulated / u64::from(entry.samples);
            entry.advice = Some(if mean > self.cfg.distant_threshold {
                self.cfg.wide
            } else {
                self.cfg.narrow
            });
        }
    }

    /// Table advice for a trigger, if sampling has finished.
    fn advice(&self, pc: u32) -> Option<usize> {
        let entry = &self.table[pc as usize % self.cfg.table_entries];
        if entry.tag == pc {
            entry.advice
        } else {
            None
        }
    }

    /// Records one decision covering the span since the previous one.
    ///
    /// Fine-grain policies have no evaluation intervals, so the IPC in
    /// a record is a rolling figure over the commits since the last
    /// decision (or checkpoint).
    fn record_decision(&mut self, cycle: u64, state: PolicyState, reason: DecisionReason) {
        let span_commits = self.committed - self.last_decision_commit;
        let span_cycles = cycle.saturating_sub(self.last_decision_cycle).max(1);
        self.decision_index += 1;
        self.last_decision = Some(DecisionRecord {
            interval: self.decision_index,
            commit: self.committed,
            start_cycle: self.last_decision_cycle,
            cycle,
            state,
            ipc: span_commits as f64 / span_cycles as f64,
            branch_delta: 0,
            memref_delta: 0,
            instability: 0.0,
            explored_ipc: Vec::new(),
            interval_length: self.cfg.window as u64,
            clusters: self.current,
            reason,
        });
        self.last_decision_commit = self.committed;
        self.last_decision_cycle = cycle;
    }
}

impl ReconfigPolicy for FineGrain {
    fn name(&self) -> String {
        match self.trigger {
            Trigger::Branch => format!("finegrain-branch/{}", self.cfg.every_nth),
            Trigger::CallReturn => "finegrain-subroutine".to_string(),
        }
    }

    fn initial_clusters(&self) -> usize {
        self.cfg.wide
    }

    fn on_commit(&mut self, event: &CommitEvent) -> Option<usize> {
        self.committed += 1;
        if self.committed == 1 {
            self.last_decision_cycle = event.cycle;
        }
        // The code after a branch can change over a run: rebuild the
        // table periodically.
        if self.committed - self.last_flush >= self.cfg.flush_period {
            self.last_flush = self.committed;
            self.table.fill(INVALID);
            self.record_decision(event.cycle, PolicyState::Exploring, DecisionReason::TableFlush);
        }

        let trigger = self.is_trigger(event);
        self.window.push_back((event.pc, trigger, event.distant));
        if event.distant {
            self.distant_in_window += 1;
        }
        if self.window.len() > self.cfg.window {
            let (pc, was_trigger, was_distant) = self.window.pop_front().expect("non-empty window");
            if was_distant {
                self.distant_in_window -= 1;
            }
            if was_trigger {
                // The counter now covers the `window` instructions
                // committed after this trigger: one sample.
                let distant = self.distant_in_window;
                self.record_sample(pc, distant);
            }
        }

        let mut request = None;
        if trigger {
            self.trigger_count += 1;
            if self.trigger_count.is_multiple_of(self.cfg.every_nth) {
                let advice = self.advice(event.pc);
                let choice = advice.unwrap_or(self.cfg.wide);
                if choice != self.current {
                    self.current = choice;
                    self.requests += 1;
                    let (state, reason) = if advice.is_some() {
                        (PolicyState::Stable, DecisionReason::TriggerAdvice)
                    } else {
                        // Unsampled trigger: run wide to measure it.
                        (PolicyState::Exploring, DecisionReason::TriggerUnsampled)
                    };
                    self.record_decision(event.cycle, state, reason);
                    request = Some(choice);
                }
            }
        }
        // Quiet stretches (no flush, no configuration change) still
        // checkpoint periodically so the decision timeline covers the
        // whole run.
        if self.committed - self.last_decision_commit >= FIXED_CHECKPOINT_COMMITS {
            self.record_decision(event.cycle, PolicyState::Stable, DecisionReason::Checkpoint);
        }
        request
    }

    fn take_decision(&mut self) -> Option<DecisionRecord> {
        self.last_decision.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, pc: u32, is_branch: bool, is_call: bool, distant: bool) -> CommitEvent {
        CommitEvent {
            seq,
            pc,
            cycle: seq * 2,
            is_branch: is_branch || is_call,
            is_cond_branch: is_branch,
            is_call,
            is_return: false,
            is_memref: false,
            distant,
            mispredicted: false,
        }
    }

    /// Runs a loop of `body` instructions ending in a branch at `pc`,
    /// with the given distant fraction, for `iters` iterations.
    fn drive_loop(
        p: &mut FineGrain,
        iters: u64,
        body: u64,
        pc: u32,
        distant_every: u64,
        seq0: u64,
    ) -> (Vec<usize>, u64) {
        let mut requests = Vec::new();
        let mut seq = seq0;
        for _ in 0..iters {
            for i in 0..body {
                seq += 1;
                let distant = distant_every != 0 && seq.is_multiple_of(distant_every);
                let is_branch = i == body - 1;
                if let Some(r) = p.on_commit(&event(
                    seq,
                    if is_branch { pc } else { 1 },
                    is_branch,
                    false,
                    distant,
                )) {
                    requests.push(r);
                }
            }
        }
        (requests, seq)
    }

    #[test]
    fn unsampled_triggers_run_wide() {
        let p = FineGrain::branch_policy();
        assert_eq!(p.initial_clusters(), 16);
        assert_eq!(p.current_clusters(), 16);
    }

    #[test]
    fn low_distant_branch_learns_narrow_advice() {
        let mut p = FineGrain::new(
            Trigger::Branch,
            FineGrainConfig { every_nth: 1, samples: 3, ..FineGrainConfig::default() },
        );
        // 40-instruction loop, no distant ILP: after enough iterations
        // the loop branch's advice must be "narrow".
        let (requests, _) = drive_loop(&mut p, 100, 40, 500, 0, 0);
        assert_eq!(p.current_clusters(), 4);
        assert!(requests.contains(&4));
    }

    #[test]
    fn high_distant_branch_stays_wide() {
        let mut p = FineGrain::new(
            Trigger::Branch,
            FineGrainConfig { every_nth: 1, samples: 3, ..FineGrainConfig::default() },
        );
        // Every other instruction distant: well above 58/360.
        let (requests, _) = drive_loop(&mut p, 100, 40, 500, 2, 0);
        assert_eq!(p.current_clusters(), 16);
        assert!(requests.is_empty(), "never needs to leave wide: {requests:?}");
    }

    #[test]
    fn advice_waits_for_m_samples() {
        let mut p = FineGrain::new(
            Trigger::Branch,
            FineGrainConfig { every_nth: 1, samples: 50, ..FineGrainConfig::default() },
        );
        // Few iterations: fewer than 50 samples of the loop branch have
        // *left the window*, so no advice yet → stays wide.
        let (requests, _) = drive_loop(&mut p, 30, 40, 500, 0, 0);
        assert!(requests.is_empty());
        assert_eq!(p.current_clusters(), 16);
    }

    #[test]
    fn every_nth_limits_reconfiguration_points() {
        let mut p = FineGrain::new(
            Trigger::Branch,
            FineGrainConfig { every_nth: 1_000_000, samples: 1, ..FineGrainConfig::default() },
        );
        let (requests, _) = drive_loop(&mut p, 200, 40, 500, 0, 0);
        assert!(requests.is_empty(), "stride too large to ever fire: {requests:?}");
    }

    #[test]
    fn table_flush_forgets_advice() {
        let mut p = FineGrain::new(
            Trigger::Branch,
            FineGrainConfig {
                every_nth: 1,
                samples: 1,
                flush_period: 2_000,
                ..FineGrainConfig::default()
            },
        );
        // Phase A: learn narrow advice for the loop branch.
        let (requests, mut seq) = drive_loop(&mut p, 30, 40, 500, 0, 0);
        assert!(requests.contains(&4), "advice learned: {requests:?}");
        // Phase B: branch-free filler crosses the 2 000-commit flush
        // point *after* all old branch instances have left the
        // 360-instruction window (otherwise they instantly re-seed the
        // flushed table — the behaviour a hot loop sees).
        for _ in 0..900 {
            seq += 1;
            assert_eq!(p.on_commit(&event(seq, 1, false, false, false)), None);
        }
        // Phase C: the branch is unsampled again → re-measure wide.
        let (requests, _) = drive_loop(&mut p, 1, 40, 500, 0, seq);
        assert_eq!(requests, vec![16], "flush must trigger re-measuring");
    }

    #[test]
    fn aliasing_resets_entry() {
        let mut p = FineGrain::new(
            Trigger::Branch,
            FineGrainConfig {
                table_entries: 1, // force aliasing
                every_nth: 1,
                samples: 1,
                ..FineGrainConfig::default()
            },
        );
        let (_, seq) = drive_loop(&mut p, 30, 40, 500, 0, 0);
        // A different branch aliases into the same slot; its first
        // lookup must not inherit the old advice.
        let (_, _) = drive_loop(&mut p, 1, 40, 777, 0, seq);
        assert_eq!(p.current_clusters(), 16, "aliased entry must re-measure");
    }

    #[test]
    fn subroutine_variant_triggers_on_calls() {
        let mut p = FineGrain::subroutine_policy();
        let mut seq = 0;
        let mut requests = Vec::new();
        // Calls with no distant ILP behind them.
        for _ in 0..400 {
            for i in 0..20 {
                seq += 1;
                if let Some(r) =
                    p.on_commit(&event(seq, if i == 0 { 900 } else { 2 }, false, i == 0, false))
                {
                    requests.push(r);
                }
            }
        }
        assert_eq!(p.current_clusters(), 4);
        assert!(p.requests() > 0);
    }

    #[test]
    #[should_panic(expected = "narrow config")]
    fn rejects_inverted_configs() {
        let _ = FineGrain::new(
            Trigger::Branch,
            FineGrainConfig { narrow: 16, wide: 4, ..FineGrainConfig::default() },
        );
    }
}
