//! The interval model of the paper's run-time schemes (§4.1–4.3,
//! Figure 4) and the offline phase analysis behind Table 4.
//!
//! An interval is a fixed number of committed instructions. Its
//! microarchitecture-independent metrics (branches and memory
//! references) and its IPC describe the program phase it ran in:
//!
//! * `IntervalCounter` counts one interval's commits and closes it
//!   into an [`IntervalRecord`]. [`IntervalExplore`](crate::IntervalExplore),
//!   [`IntervalDistantIlp`](crate::IntervalDistantIlp) and [`Timeline`]
//!   all count through it.
//! * `metrics_changed` and `ipc_changed` are Figure 4's phase-change
//!   test, used by both interval policies and by
//!   [`instability_factor`].
//! * [`Timeline`] is an observer recording one [`TimelineEntry`] per
//!   interval, with the cluster count the policy had requested.
//! * [`instability_factor`] and [`minimum_stable_interval`] derive the
//!   paper's *instability factor* — the fraction of intervals that
//!   differ significantly from the first interval of their phase — for
//!   a range of interval lengths. A [`Timeline`] watching a
//!   [`FixedPolicy`](clustered_sim::FixedPolicy) run collects the
//!   records they read.

use clustered_sim::{CommitEvent, SimObserver};

/// A branch or memref count that moves by more than
/// `interval_length / METRIC_DIVISOR` is a significant change.
const METRIC_DIVISOR: u64 = 100;

/// A relative IPC deviation above this is a significant change.
const IPC_NOISE: f64 = 0.10;

/// Metrics of one interval.
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

    fn merge(&mut self, other: &IntervalRecord) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.branches += other.branches;
        self.memrefs += other.memrefs;
    }
}

/// Counts the commits of one interval.
///
/// An interval starts at the cycle the previous one closed. A fresh
/// counter (start cycle 0, nothing counted) starts at the cycle of its
/// first commit instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IntervalCounter {
    start_cycle: u64,
    counts: IntervalRecord,
}

impl IntervalCounter {
    /// Counts one committed instruction.
    #[inline]
    pub(crate) fn count(&mut self, event: &CommitEvent) {
        if self.counts.instructions == 0 && self.start_cycle == 0 {
            self.start_cycle = event.cycle;
        }
        self.counts.instructions += 1;
        self.counts.branches += u64::from(event.is_branch);
        self.counts.memrefs += u64::from(event.is_memref);
    }

    /// Instructions counted so far.
    pub(crate) fn instructions(&self) -> u64 {
        self.counts.instructions
    }

    /// Ends the interval at cycle `now`, returning the cycle it
    /// started and its record (at least one cycle long), and starts the
    /// next one there.
    pub(crate) fn close(&mut self, now: u64) -> (u64, IntervalRecord) {
        let start = self.start_cycle;
        let record = IntervalRecord { cycles: now.saturating_sub(start).max(1), ..self.counts };
        *self = IntervalCounter { start_cycle: now, counts: IntervalRecord::default() };
        (start, record)
    }
}

/// Figure 4's metric test: `interval` differs from `reference` when
/// its branch or memref count moves by more than
/// `interval_length / 100` (at least 1).
pub(crate) fn metrics_changed(
    interval: &IntervalRecord,
    reference: &IntervalRecord,
    interval_length: u64,
) -> bool {
    let threshold = (interval_length / METRIC_DIVISOR).max(1);
    interval.branches.abs_diff(reference.branches) > threshold
        || interval.memrefs.abs_diff(reference.memrefs) > threshold
}

/// Figure 4's IPC test: `ipc` differs from a positive `reference` by
/// more than 10% of it. A zero or NaN reference never signals.
pub(crate) fn ipc_changed(ipc: f64, reference: f64) -> bool {
    reference > 0.0 && (ipc - reference).abs() / reference > IPC_NOISE
}

/// One recorded interval: the metrics plus the cluster count the
/// policy had requested going *into* the interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Committed-instruction index at the end of the interval.
    pub committed: u64,
    /// The interval's metrics.
    pub record: IntervalRecord,
    /// Clusters requested at the start of the interval.
    pub clusters: usize,
}

/// An observer recording one [`TimelineEntry`] per `interval`
/// committed instructions, from the first commit of the run.
///
/// The `clusters` column is the count the policy last *requested*
/// (its [`initial_clusters`](clustered_sim::ReconfigPolicy::initial_clusters)
/// before any request). On the decentralized cache a request takes
/// effect only after its drain, so the column can lead the applied
/// count.
///
/// # Examples
///
/// ```
/// use clustered_core::phase::Timeline;
/// use clustered_core::IntervalDistantIlp;
/// use clustered_sim::{drive, ReconfigPolicy, SimConfig, SteeringKind};
/// use clustered_workloads::by_name;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let policy = Box::new(IntervalDistantIlp::with_interval(1_000));
/// let timeline = Timeline::new(1_000, policy.initial_clusters());
/// let w = by_name("gzip").expect("known workload");
/// let stream = w.trace().map(Result::unwrap);
/// let (cfg, steering) = (SimConfig::default(), SteeringKind::default());
/// let run = drive(cfg, stream, policy, steering, timeline, 0, 20_000)?;
/// assert!(run.observer.entries().len() >= 19);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Timeline {
    interval: u64,
    counter: IntervalCounter,
    committed: u64,
    clusters: usize,
    entries: Vec<TimelineEntry>,
}

impl Timeline {
    /// A timeline of `interval`-instruction intervals for a policy that
    /// starts at `clusters` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: u64, clusters: usize) -> Timeline {
        assert!(interval > 0, "interval must be non-zero");
        Timeline {
            interval,
            counter: IntervalCounter::default(),
            committed: 0,
            clusters,
            entries: Vec::new(),
        }
    }

    /// The completed intervals, in commit order.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// The completed intervals' metrics, in commit order.
    pub fn records(&self) -> Vec<IntervalRecord> {
        self.entries.iter().map(|e| e.record).collect()
    }
}

impl SimObserver for Timeline {
    fn on_commit(&mut self, event: &CommitEvent, request: Option<usize>) {
        self.committed += 1;
        self.counter.count(event);
        if self.counter.instructions() >= self.interval {
            let (_, record) = self.counter.close(event.cycle);
            let (committed, clusters) = (self.committed, self.clusters);
            self.entries.push(TimelineEntry { committed, record, clusters });
        }
        if let Some(n) = request {
            self.clusters = n;
        }
    }
}

/// Groups base records into intervals of `group` records each and
/// computes the instability factor (percent of intervals flagged
/// unstable), replaying the paper's phase-detection rule: the first
/// interval of each phase is the reference; an interval whose IPC,
/// branch count, or memref count deviates significantly starts a new
/// phase and counts as unstable.
///
/// Returns `None` if fewer than two grouped intervals exist.
///
/// # Panics
///
/// Panics if `group` is zero.
pub fn instability_factor(records: &[IntervalRecord], group: usize) -> Option<f64> {
    assert!(group > 0, "group must be non-zero");
    let grouped: Vec<IntervalRecord> = records
        .chunks_exact(group)
        .map(|chunk| {
            let mut merged = IntervalRecord::default();
            for r in chunk {
                merged.merge(r);
            }
            merged
        })
        .collect();
    if grouped.len() < 2 {
        return None;
    }
    let interval_length = grouped[0].instructions;
    let mut reference = grouped[0];
    let mut unstable = 0usize;
    for interval in &grouped[1..] {
        if ipc_changed(interval.ipc(), reference.ipc())
            || metrics_changed(interval, &reference, interval_length)
        {
            unstable += 1;
            reference = *interval; // new phase begins here
        }
    }
    Some(100.0 * unstable as f64 / (grouped.len() - 1) as f64)
}

/// Finds the smallest interval length (as a multiple of the base
/// records, in instructions) whose instability factor is acceptable
/// (paper: < 5%). Returns `(interval_instructions, factor)`; falls
/// back to the largest tested length if none qualifies.
pub fn minimum_stable_interval(records: &[IntervalRecord], acceptable: f64) -> Option<(u64, f64)> {
    let base = records.first()?.instructions;
    let mut fallback = None;
    let mut group = 1usize;
    while records.len() / group >= 2 {
        if let Some(factor) = instability_factor(records, group) {
            let length = base * group as u64;
            if factor < acceptable {
                return Some((length, factor));
            }
            fallback = Some((length, factor));
        }
        group *= 2;
    }
    fallback
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cycles: u64, branches: u64, memrefs: u64) -> IntervalRecord {
        IntervalRecord { instructions: 1_000, cycles, branches, memrefs }
    }

    fn counts(branches: u64, memrefs: u64) -> IntervalRecord {
        IntervalRecord { branches, memrefs, ..IntervalRecord::default() }
    }

    #[test]
    fn metric_change_is_strictly_above_the_threshold() {
        // 1000 / 100 = 10: a move of 10 is noise, 11 is a change, in
        // either direction and in either count.
        let reference = counts(100, 300);
        assert!(!metrics_changed(&counts(110, 300), &reference, 1_000));
        assert!(!metrics_changed(&counts(90, 290), &reference, 1_000));
        assert!(metrics_changed(&counts(111, 300), &reference, 1_000));
        assert!(metrics_changed(&counts(100, 289), &reference, 1_000));
        // The threshold follows the caller's interval length.
        assert!(!metrics_changed(&counts(111, 300), &reference, 2_000));
    }

    #[test]
    fn short_intervals_use_a_threshold_of_one() {
        let reference = counts(10, 30);
        for length in [1, 50, 99, 199] {
            assert!(!metrics_changed(&counts(11, 29), &reference, length), "length {length}");
            assert!(metrics_changed(&counts(12, 30), &reference, length), "length {length}");
        }
        assert!(!metrics_changed(&counts(12, 30), &reference, 200));
    }

    #[test]
    fn ipc_change_is_strictly_above_ten_percent() {
        // 10.0 ± 1.0 and 2.5 ± 0.25 divide to exactly 0.1.
        assert!(!ipc_changed(11.0, 10.0));
        assert!(!ipc_changed(9.0, 10.0));
        assert!(!ipc_changed(2.75, 2.5));
        assert!(!ipc_changed(2.25, 2.5));
        assert!(ipc_changed(11.01, 10.0));
        assert!(ipc_changed(8.99, 10.0));
    }

    #[test]
    fn zero_or_nan_reference_ipc_never_signals() {
        for ipc in [0.0, 0.5, 4.0, f64::NAN] {
            assert!(!ipc_changed(ipc, 0.0), "ipc {ipc}");
            assert!(!ipc_changed(ipc, f64::NAN), "ipc {ipc}");
        }
    }

    fn event(seq: u64, cycle: u64) -> CommitEvent {
        CommitEvent {
            seq,
            pc: 0,
            cycle,
            is_branch: seq.is_multiple_of(5),
            is_cond_branch: false,
            is_call: false,
            is_return: false,
            is_memref: seq.is_multiple_of(3),
            distant: false,
            mispredicted: false,
        }
    }

    #[test]
    fn counter_starts_at_its_first_commit_then_at_each_close() {
        let mut c = IntervalCounter::default();
        c.count(&event(1, 40));
        c.count(&event(2, 45));
        let first = c.close(50);
        let record = IntervalRecord { instructions: 2, cycles: 10, branches: 0, memrefs: 0 };
        assert_eq!(first, (40, record));
        assert_eq!(c.instructions(), 0);
        c.count(&event(3, 50));
        let (start, second) = c.close(50);
        assert_eq!(start, 50, "the next interval starts where the last one closed");
        assert_eq!(second.cycles, 1, "an interval is at least one cycle long");
    }

    #[test]
    fn timeline_records_one_entry_per_interval() {
        let mut t = Timeline::new(100, 8);
        for seq in 1..=250u64 {
            t.on_commit(&event(seq, seq * 2), None);
        }
        let entries = t.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].committed, 100);
        assert_eq!(entries[0].clusters, 8);
        assert_eq!(entries[0].record.instructions, 100);
        assert_eq!(entries[0].record.branches, 20);
        assert!(entries[0].record.cycles >= 198);
        assert_eq!(t.records(), vec![entries[0].record, entries[1].record]);
    }

    #[test]
    fn timeline_clusters_follow_the_requests() {
        let mut t = Timeline::new(100, 16);
        for seq in 1..=400u64 {
            let request = match seq {
                150 => Some(4),
                300 => Some(16),
                _ => None,
            };
            t.on_commit(&event(seq, seq), request);
        }
        let clusters: Vec<usize> = t.entries().iter().map(|e| e.clusters).collect();
        // The request at commit 300 comes after interval 3 closes, so
        // that entry still reports the count requested at 150.
        assert_eq!(clusters, [16, 4, 4, 16]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn timeline_rejects_zero_interval() {
        let _ = Timeline::new(0, 2);
    }

    #[test]
    fn stable_stream_has_zero_instability() {
        let records: Vec<_> = (0..64).map(|_| record(500, 100, 300)).collect();
        let f = instability_factor(&records, 1).unwrap();
        assert_eq!(f, 0.0);
    }

    #[test]
    fn alternating_stream_is_fully_unstable() {
        let records: Vec<_> = (0..64)
            .map(|i| if i % 2 == 0 { record(500, 100, 300) } else { record(500, 200, 300) })
            .collect();
        let f = instability_factor(&records, 1).unwrap();
        assert!(f > 90.0, "every interval differs from its predecessor: {f}");
    }

    #[test]
    fn grouping_smooths_alternation() {
        // Alternating at the base granularity, but every group of two
        // looks identical → stable at the doubled interval.
        let records: Vec<_> = (0..64)
            .map(|i| if i % 2 == 0 { record(400, 100, 300) } else { record(600, 200, 300) })
            .collect();
        let fine = instability_factor(&records, 1).unwrap();
        let coarse = instability_factor(&records, 2).unwrap();
        assert!(fine > 50.0);
        assert_eq!(coarse, 0.0);
    }

    #[test]
    fn minimum_stable_interval_picks_first_acceptable() {
        let records: Vec<_> = (0..64)
            .map(|i| if i % 2 == 0 { record(400, 100, 300) } else { record(600, 200, 300) })
            .collect();
        let (len, factor) = minimum_stable_interval(&records, 5.0).unwrap();
        assert_eq!(len, 2_000);
        assert!(factor < 5.0);
    }

    #[test]
    fn ipc_only_change_detected() {
        let mut records: Vec<_> = (0..32).map(|_| record(500, 100, 300)).collect();
        records.extend((0..32).map(|_| record(900, 100, 300)));
        let f = instability_factor(&records, 1).unwrap();
        assert!(f > 0.0 && f < 10.0, "one phase change out of 63: {f}");
    }

    #[test]
    fn too_few_records_yield_none() {
        let records = vec![record(500, 100, 300)];
        assert_eq!(instability_factor(&records, 1), None);
        assert_eq!(instability_factor(&records, 2), None);
    }
}
