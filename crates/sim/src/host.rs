//! Host-side performance profiling: where does simulator *wall-clock*
//! go?
//!
//! The guest observability layer ([`SimObserver`](crate::SimObserver),
//! `SimStats`) describes the simulated machine; this module describes
//! the simulator itself. A [`HostProfiler`] attaches through the same
//! observer seam and, when enabled, the cycle loop attributes its
//! monotonic wall-clock to per-stage buckets
//! (fetch/dispatch/issue/commit/event-drain) and samples calendar-queue
//! health and per-cluster load skew every cycle.
//!
//! The gate is compile-time, in the `WANTS_DECISIONS` style: the
//! processor's one cycle loop consults
//! [`SimObserver::WANTS_HOST_PROFILE`](crate::SimObserver::WANTS_HOST_PROFILE)
//! — a `const` — before every clock read and health sample, so a
//! profiler-off build (the default [`NullObserver`](crate::NullObserver))
//! monomorphizes to the plain loop. Profiling changes *no* simulated
//! behaviour either way: the hooks only read machine state, and the
//! bit-identical-stats tests pin it.
//!
//! Why these measurements: per-stage host time says which stage a
//! speed-up must attack, and queue health and per-cluster load skew
//! explain *why* a stage is slow on a given configuration — host
//! properties no `SimStats` counter can see.

use crate::config::MAX_CLUSTERS;
use clustered_stats::{Histogram, Json};

/// Number of wall-clock stage buckets the profiled cycle loop reports.
pub const HOST_STAGE_COUNT: usize = 6;

/// One wall-clock bucket of the cycle loop.
///
/// `Other` is the loop glue outside the five pipeline stages (the
/// per-cycle statistic increments); including it makes the buckets
/// *partition* the measured loop time, so shares always sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostStage {
    /// Draining due events from the calendar queue.
    EventDrain,
    /// In-order retirement plus reconfiguration application.
    Commit,
    /// Per-cluster select/issue.
    Issue,
    /// Rename, steering, and structural-hazard checks.
    Dispatch,
    /// Branch prediction and the fetch queue.
    Fetch,
    /// Per-cycle bookkeeping outside the stages.
    Other,
}

impl HostStage {
    /// Every stage, in cycle-loop order (the order of the
    /// [`SimObserver::on_stage_nanos`](crate::SimObserver::on_stage_nanos)
    /// array).
    pub const ALL: [HostStage; HOST_STAGE_COUNT] = [
        HostStage::EventDrain,
        HostStage::Commit,
        HostStage::Issue,
        HostStage::Dispatch,
        HostStage::Fetch,
        HostStage::Other,
    ];

    /// Stable lower-case name (JSON keys, trace track names).
    pub fn as_str(self) -> &'static str {
        match self {
            HostStage::EventDrain => "event_drain",
            HostStage::Commit => "commit",
            HostStage::Issue => "issue",
            HostStage::Dispatch => "dispatch",
            HostStage::Fetch => "fetch",
            HostStage::Other => "other",
        }
    }
}

/// One per-cycle sample of event-queue and quiescence health, taken at
/// the end of a profiled cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueHealth {
    /// The cycle the sample describes.
    pub cycle: u64,
    /// Undelivered events waiting in the calendar ring.
    pub calendar_events: usize,
    /// Events parked in the far-future overflow heap.
    pub overflow_events: usize,
    /// The event floor watermark (lower bound on every undelivered
    /// event time).
    pub floor: u64,
    /// Bit `c` set ⇔ cluster `c` had queued instructions this cycle.
    pub queued_mask: u32,
    /// Active clusters this cycle.
    pub active_clusters: usize,
    /// Physically configured clusters.
    pub configured_clusters: usize,
}

/// One aggregated slice of the host-time timeline: stage wall-clock
/// and queue depths over `start_cycle..end_cycle`. The Chrome-trace
/// exporter renders each slice as one `ph:"X"` span per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostSlice {
    /// First cycle covered (exclusive of the previous slice).
    pub start_cycle: u64,
    /// Last cycle covered.
    pub end_cycle: u64,
    /// Wall-clock nanoseconds per stage over the slice, in
    /// [`HostStage::ALL`] order.
    pub stage_nanos: [u64; HOST_STAGE_COUNT],
    /// Calendar-queue events pending at the slice end.
    pub calendar_events: usize,
    /// Overflow-heap events pending at the slice end.
    pub overflow_events: usize,
    /// Busy (non-quiescent) clusters at the slice end.
    pub busy_clusters: u32,
    /// Events drained during the slice.
    pub drained: u64,
}

/// Default slice width of the host timeline, in simulated cycles.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 10_000;

/// Default cap on the stored host-timeline slices; past it slices are
/// counted, not stored (same policy as the guest event logs).
pub const DEFAULT_SLICE_CAP: usize = 65_536;

/// The host-performance observer: stage wall-clock attribution,
/// calendar-queue health histograms, and per-cluster load skew.
///
/// Attach it like any observer; its
/// [`WANTS_HOST_PROFILE`](crate::SimObserver::WANTS_HOST_PROFILE) flag
/// turns on the cycle loop's stage timers and health samples. All data is
/// purely host-side: a profiled run's `SimStats` are bit-identical to
/// an unprofiled one.
#[derive(Debug, Clone)]
pub struct HostProfiler {
    sample_interval: u64,
    slice_cap: usize,
    cycles: u64,
    stage_nanos: [u64; HOST_STAGE_COUNT],
    ring_occupancy: Histogram,
    overflow_depth: Histogram,
    floor_advance: Histogram,
    busy_clusters: Histogram,
    fully_quiescent_cycles: u64,
    drained_events: [u64; MAX_CLUSTERS],
    drained_total: u64,
    cluster_busy_cycles: [u64; MAX_CLUSTERS],
    last_floor: Option<u64>,
    slices: Vec<HostSlice>,
    dropped_slices: u64,
    slice_start: Option<u64>,
    stage_at_slice: [u64; HOST_STAGE_COUNT],
    drained_at_slice: u64,
}

impl Default for HostProfiler {
    fn default() -> HostProfiler {
        HostProfiler::new(DEFAULT_SAMPLE_INTERVAL)
    }
}

impl HostProfiler {
    /// A profiler whose timeline aggregates one slice per
    /// `sample_interval` simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval` is zero.
    pub fn new(sample_interval: u64) -> HostProfiler {
        HostProfiler::with_cap(sample_interval, DEFAULT_SLICE_CAP)
    }

    /// Like [`HostProfiler::new`] with an explicit timeline cap; slices
    /// past the cap are counted, not stored.
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval` is zero.
    pub fn with_cap(sample_interval: u64, slice_cap: usize) -> HostProfiler {
        assert!(sample_interval > 0, "sample interval must be non-zero");
        HostProfiler {
            sample_interval,
            slice_cap,
            cycles: 0,
            stage_nanos: [0; HOST_STAGE_COUNT],
            ring_occupancy: Histogram::log2(),
            overflow_depth: Histogram::log2(),
            floor_advance: Histogram::log2(),
            busy_clusters: Histogram::linear(1, MAX_CLUSTERS + 1),
            fully_quiescent_cycles: 0,
            drained_events: [0; MAX_CLUSTERS],
            drained_total: 0,
            cluster_busy_cycles: [0; MAX_CLUSTERS],
            last_floor: None,
            slices: Vec::new(),
            dropped_slices: 0,
            slice_start: None,
            stage_at_slice: [0; HOST_STAGE_COUNT],
            drained_at_slice: 0,
        }
    }

    /// Discards everything collected so far (e.g. after a warm-up, so
    /// the profile covers only the measured window). The sampling
    /// configuration is kept.
    pub fn reset(&mut self) {
        *self = HostProfiler::with_cap(self.sample_interval, self.slice_cap);
    }

    /// Profiled cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Wall-clock nanoseconds attributed to each stage, in
    /// [`HostStage::ALL`] order.
    pub fn stage_nanos(&self) -> &[u64; HOST_STAGE_COUNT] {
        &self.stage_nanos
    }

    /// Total measured loop wall-clock (the sum of every stage bucket),
    /// in nanoseconds. Stage shares are fractions of this, so they sum
    /// to 1 by construction.
    pub fn loop_nanos(&self) -> u64 {
        self.stage_nanos.iter().sum()
    }

    /// Fraction of the measured loop time spent in `stage` (0.0 for an
    /// empty profile).
    pub fn stage_share(&self, stage: HostStage) -> f64 {
        let total = self.loop_nanos();
        if total == 0 {
            0.0
        } else {
            self.stage_nanos[stage_index(stage)] as f64 / total as f64
        }
    }

    /// Events drained per cluster hint (load-skew raw data).
    pub fn drained_events(&self) -> &[u64; MAX_CLUSTERS] {
        &self.drained_events
    }

    /// Total events drained.
    pub fn drained_total(&self) -> u64 {
        self.drained_total
    }

    /// Cycles each cluster spent busy (non-quiescent), as seen by the
    /// per-cycle health samples.
    pub fn cluster_busy_cycles(&self) -> &[u64; MAX_CLUSTERS] {
        &self.cluster_busy_cycles
    }

    /// Cycles in which *no* cluster had queued instructions.
    pub fn fully_quiescent_cycles(&self) -> u64 {
        self.fully_quiescent_cycles
    }

    /// The aggregated host timeline.
    pub fn slices(&self) -> &[HostSlice] {
        &self.slices
    }

    /// Slices dropped past the timeline cap.
    pub fn dropped_slices(&self) -> u64 {
        self.dropped_slices
    }

    /// Load skew across clusters that drained at least one event:
    /// max/mean of per-cluster drained events (1.0 = perfectly even,
    /// 0.0 when nothing drained).
    pub fn drained_skew(&self) -> f64 {
        let active: Vec<u64> = self.drained_events.iter().copied().filter(|&n| n > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        let max = *active.iter().max().expect("non-empty") as f64;
        let mean = active.iter().sum::<u64>() as f64 / active.len() as f64;
        max / mean
    }

    /// The whole profile as one JSON document (schema documented in
    /// EXPERIMENTS.md under `host_profile`).
    pub fn to_json(&self) -> Json {
        let mut stages = Json::object();
        for (i, stage) in HostStage::ALL.iter().enumerate() {
            stages = stages.set(
                stage.as_str(),
                Json::object()
                    .set("nanos", self.stage_nanos[i])
                    .set("share", self.stage_share(*stage)),
            );
        }
        let drained: Vec<Json> = self.drained_events.iter().map(|&n| Json::from(n)).collect();
        let busy: Vec<Json> = self.cluster_busy_cycles.iter().map(|&n| Json::from(n)).collect();
        let slices: Vec<Json> = self.slices.iter().map(slice_json).collect();
        Json::object()
            .set("cycles", self.cycles)
            .set("loop_nanos", self.loop_nanos())
            .set("stages", stages)
            .set(
                "queue",
                Json::object()
                    .set("ring_occupancy", self.ring_occupancy.to_json())
                    .set("overflow_depth", self.overflow_depth.to_json())
                    .set("floor_advance", self.floor_advance.to_json())
                    .set("drained_events", self.drained_total),
            )
            .set(
                "skew",
                Json::object()
                    .set("drained_per_cluster", Json::Arr(drained))
                    .set("busy_cycles_per_cluster", Json::Arr(busy))
                    .set("busy_clusters", self.busy_clusters.to_json())
                    .set("fully_quiescent_cycles", self.fully_quiescent_cycles)
                    .set("drained_skew", self.drained_skew()),
            )
            .set("sample_interval", self.sample_interval)
            .set("slices", Json::Arr(slices))
            .set("dropped_slices", self.dropped_slices)
    }

    fn close_slice(&mut self, sample: &QueueHealth, start: u64) {
        let mut stage_nanos = [0u64; HOST_STAGE_COUNT];
        for (i, n) in stage_nanos.iter_mut().enumerate() {
            *n = self.stage_nanos[i] - self.stage_at_slice[i];
        }
        let slice = HostSlice {
            start_cycle: start,
            end_cycle: sample.cycle,
            stage_nanos,
            calendar_events: sample.calendar_events,
            overflow_events: sample.overflow_events,
            busy_clusters: sample.queued_mask.count_ones(),
            drained: self.drained_total - self.drained_at_slice,
        };
        if self.slices.len() < self.slice_cap {
            self.slices.push(slice);
        } else {
            self.dropped_slices += 1;
        }
        self.stage_at_slice = self.stage_nanos;
        self.drained_at_slice = self.drained_total;
        self.slice_start = Some(sample.cycle);
    }
}

fn stage_index(stage: HostStage) -> usize {
    HostStage::ALL.iter().position(|s| *s == stage).expect("every stage is in ALL")
}

fn slice_json(s: &HostSlice) -> Json {
    let mut stages = Json::object();
    for (i, stage) in HostStage::ALL.iter().enumerate() {
        stages = stages.set(stage.as_str(), s.stage_nanos[i]);
    }
    Json::object()
        .set("start_cycle", s.start_cycle)
        .set("end_cycle", s.end_cycle)
        .set("stage_nanos", stages)
        .set("calendar_events", s.calendar_events)
        .set("overflow_events", s.overflow_events)
        .set("busy_clusters", u64::from(s.busy_clusters))
        .set("drained", s.drained)
}

impl crate::observe::SimObserver for HostProfiler {
    const WANTS_HOST_PROFILE: bool = true;

    /// The profile describes the measured window only.
    fn on_measure_start(&mut self) {
        self.reset();
    }

    fn on_stage_nanos(&mut self, nanos: &[u64; HOST_STAGE_COUNT]) {
        self.cycles += 1;
        for (bucket, n) in self.stage_nanos.iter_mut().zip(nanos) {
            *bucket += n;
        }
    }

    fn on_queue_health(&mut self, sample: &QueueHealth) {
        self.ring_occupancy.record(sample.calendar_events as u64);
        self.overflow_depth.record(sample.overflow_events as u64);
        if let Some(last) = self.last_floor {
            self.floor_advance.record(sample.floor.saturating_sub(last));
        }
        self.last_floor = Some(sample.floor);
        let busy = sample.queued_mask.count_ones();
        self.busy_clusters.record(u64::from(busy));
        if busy == 0 {
            self.fully_quiescent_cycles += 1;
        }
        let mut m = sample.queued_mask;
        while m != 0 {
            let c = m.trailing_zeros() as usize;
            m &= m - 1;
            if c < MAX_CLUSTERS {
                self.cluster_busy_cycles[c] += 1;
            }
        }
        match self.slice_start {
            None => self.slice_start = Some(sample.cycle.saturating_sub(1)),
            Some(start) if sample.cycle - start >= self.sample_interval => {
                self.close_slice(sample, start);
            }
            Some(_) => {}
        }
    }

    fn on_event_drained(&mut self, cluster: usize) {
        self.drained_total += 1;
        if cluster < MAX_CLUSTERS {
            self.drained_events[cluster] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::SimObserver;

    fn health(cycle: u64, mask: u32) -> QueueHealth {
        QueueHealth {
            cycle,
            calendar_events: 3,
            overflow_events: 0,
            floor: cycle,
            queued_mask: mask,
            active_clusters: 4,
            configured_clusters: 16,
        }
    }

    #[test]
    fn stage_shares_partition_the_loop_time() {
        let mut p = HostProfiler::new(100);
        p.on_stage_nanos(&[10, 20, 30, 15, 20, 5]);
        p.on_stage_nanos(&[10, 20, 30, 15, 20, 5]);
        assert_eq!(p.cycles(), 2);
        assert_eq!(p.loop_nanos(), 200);
        let total: f64 = HostStage::ALL.iter().map(|&s| p.stage_share(s)).sum();
        assert!((total - 1.0).abs() < 1e-12, "shares sum to 1, got {total}");
        assert_eq!(p.stage_share(HostStage::Issue), 0.3);
        assert_eq!(HostProfiler::default().stage_share(HostStage::Fetch), 0.0);
    }

    #[test]
    fn queue_health_feeds_histograms_and_skew_counters() {
        let mut p = HostProfiler::new(1_000);
        p.on_queue_health(&health(1, 0b101)); // clusters 0 and 2 busy
        p.on_queue_health(&health(2, 0));
        assert_eq!(p.cluster_busy_cycles()[0], 1);
        assert_eq!(p.cluster_busy_cycles()[1], 0);
        assert_eq!(p.cluster_busy_cycles()[2], 1);
        assert_eq!(p.fully_quiescent_cycles(), 1);
        assert_eq!(p.busy_clusters.count(), 2);
        // Floor advance is a delta: only the second sample records one.
        assert_eq!(p.floor_advance.count(), 1);
    }

    #[test]
    fn drained_events_attribute_per_cluster_and_compute_skew() {
        let mut p = HostProfiler::default();
        assert_eq!(p.drained_skew(), 0.0, "empty profile has no skew");
        for _ in 0..6 {
            p.on_event_drained(0);
        }
        p.on_event_drained(1);
        p.on_event_drained(1);
        assert_eq!(p.drained_total(), 8);
        assert_eq!(p.drained_events()[0], 6);
        assert_eq!(p.drained_events()[1], 2);
        // max 6 / mean 4 = 1.5.
        assert!((p.drained_skew() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn timeline_slices_aggregate_per_interval_and_cap() {
        let mut p = HostProfiler::with_cap(10, 2);
        for cycle in 1..=45u64 {
            p.on_stage_nanos(&[1, 1, 1, 1, 1, 1]);
            p.on_event_drained(0);
            p.on_queue_health(&health(cycle, 1));
        }
        // Slices close at cycles 10, 20, 30, 40; cap 2 keeps the first
        // two and counts the rest.
        assert_eq!(p.slices().len(), 2);
        assert_eq!(p.dropped_slices(), 2);
        let s = &p.slices()[0];
        assert_eq!((s.start_cycle, s.end_cycle), (0, 10));
        assert_eq!(s.stage_nanos.iter().sum::<u64>(), 60, "10 cycles × 6 ns");
        assert_eq!(s.drained, 10);
        assert_eq!(p.slices()[1].start_cycle, 10);
    }

    #[test]
    fn reset_clears_data_but_keeps_configuration() {
        let mut p = HostProfiler::with_cap(7, 3);
        p.on_stage_nanos(&[1; HOST_STAGE_COUNT]);
        p.on_event_drained(2);
        p.on_queue_health(&health(1, 1));
        p.reset();
        assert_eq!(p.cycles(), 0);
        assert_eq!(p.loop_nanos(), 0);
        assert_eq!(p.drained_total(), 0);
        assert_eq!(p.sample_interval, 7);
        assert_eq!(p.slice_cap, 3);
    }

    #[test]
    fn json_has_the_documented_sections() {
        let mut p = HostProfiler::new(10);
        p.on_stage_nanos(&[5, 5, 5, 5, 5, 5]);
        p.on_queue_health(&health(1, 0b11));
        let j = p.to_json();
        assert_eq!(
            j.keys().unwrap(),
            vec![
                "cycles",
                "loop_nanos",
                "stages",
                "queue",
                "skew",
                "sample_interval",
                "slices",
                "dropped_slices"
            ]
        );
        let stages = j.get("stages").unwrap();
        assert_eq!(
            stages.keys().unwrap(),
            vec!["event_drain", "commit", "issue", "dispatch", "fetch", "other"]
        );
        let share: f64 = HostStage::ALL
            .iter()
            .filter_map(|s| {
                stages.get(s.as_str()).and_then(|e| e.get("share")).and_then(Json::as_f64)
            })
            .sum();
        assert!((share - 1.0).abs() < 1e-9);
        let text = j.to_string_compact();
        let reparsed = clustered_stats::json::parse(&text).expect("valid JSON");
        assert_eq!(reparsed, j);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_sample_interval_is_rejected() {
        let _ = HostProfiler::new(0);
    }
}
