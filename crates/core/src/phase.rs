//! Offline phase-consistency analysis (paper §4.1, Table 4).
//!
//! The paper characterises each benchmark by its *instability factor*:
//! the fraction of intervals that differ significantly from the first
//! interval of their phase, evaluated for a range of interval lengths.
//! This module holds the per-interval record and the analysis that
//! derives instability factors from a run's records. A
//! [`Recording`](crate::Recording) wrapped around a
//! [`FixedPolicy`](clustered_sim::FixedPolicy) collects them during a
//! simulation.

/// Metrics of one base interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalRecord {
    /// Committed instructions (the base interval length).
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

/// Thresholds used to call an interval "unstable" relative to its
/// phase's reference interval, mirroring the Figure 4 tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityThresholds {
    /// Relative IPC deviation treated as significant.
    pub ipc_noise: f64,
    /// A branch/memref count change larger than
    /// `interval_length / metric_divisor` is significant.
    pub metric_divisor: u64,
}

impl Default for StabilityThresholds {
    fn default() -> StabilityThresholds {
        StabilityThresholds { ipc_noise: 0.10, metric_divisor: 100 }
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
pub fn instability_factor(
    records: &[IntervalRecord],
    group: usize,
    thresholds: &StabilityThresholds,
) -> Option<f64> {
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
    let metric_threshold = (interval_length / thresholds.metric_divisor).max(1);
    let mut reference = grouped[0];
    let mut unstable = 0usize;
    for interval in &grouped[1..] {
        let ipc_change = {
            let ref_ipc = reference.ipc();
            ref_ipc > 0.0 && (interval.ipc() - ref_ipc).abs() / ref_ipc > thresholds.ipc_noise
        };
        let branch_change = interval.branches.abs_diff(reference.branches) > metric_threshold;
        let memref_change = interval.memrefs.abs_diff(reference.memrefs) > metric_threshold;
        if ipc_change || branch_change || memref_change {
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
pub fn minimum_stable_interval(
    records: &[IntervalRecord],
    thresholds: &StabilityThresholds,
    acceptable: f64,
) -> Option<(u64, f64)> {
    let base = records.first()?.instructions;
    let mut fallback = None;
    let mut group = 1usize;
    while records.len() / group >= 2 {
        if let Some(factor) = instability_factor(records, group, thresholds) {
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

    #[test]
    fn stable_stream_has_zero_instability() {
        let records: Vec<_> = (0..64).map(|_| record(500, 100, 300)).collect();
        let f = instability_factor(&records, 1, &StabilityThresholds::default()).unwrap();
        assert_eq!(f, 0.0);
    }

    #[test]
    fn alternating_stream_is_fully_unstable() {
        let records: Vec<_> = (0..64)
            .map(|i| if i % 2 == 0 { record(500, 100, 300) } else { record(500, 200, 300) })
            .collect();
        let f = instability_factor(&records, 1, &StabilityThresholds::default()).unwrap();
        assert!(f > 90.0, "every interval differs from its predecessor: {f}");
    }

    #[test]
    fn grouping_smooths_alternation() {
        // Alternating at the base granularity, but every group of two
        // looks identical → stable at the doubled interval.
        let records: Vec<_> = (0..64)
            .map(|i| if i % 2 == 0 { record(400, 100, 300) } else { record(600, 200, 300) })
            .collect();
        let fine = instability_factor(&records, 1, &StabilityThresholds::default()).unwrap();
        let coarse = instability_factor(&records, 2, &StabilityThresholds::default()).unwrap();
        assert!(fine > 50.0);
        assert_eq!(coarse, 0.0);
    }

    #[test]
    fn minimum_stable_interval_picks_first_acceptable() {
        let records: Vec<_> = (0..64)
            .map(|i| if i % 2 == 0 { record(400, 100, 300) } else { record(600, 200, 300) })
            .collect();
        let (len, factor) =
            minimum_stable_interval(&records, &StabilityThresholds::default(), 5.0).unwrap();
        assert_eq!(len, 2_000);
        assert!(factor < 5.0);
    }

    #[test]
    fn ipc_only_change_detected() {
        let mut records: Vec<_> = (0..32).map(|_| record(500, 100, 300)).collect();
        records.extend((0..32).map(|_| record(900, 100, 300)));
        let f = instability_factor(&records, 1, &StabilityThresholds::default()).unwrap();
        assert!(f > 0.0 && f < 10.0, "one phase change out of 63: {f}");
    }

    #[test]
    fn too_few_records_yield_none() {
        let records = vec![record(500, 100, 300)];
        assert_eq!(instability_factor(&records, 1, &StabilityThresholds::default()), None);
        assert_eq!(instability_factor(&records, 2, &StabilityThresholds::default()), None);
    }
}
