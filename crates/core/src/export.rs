//! Machine-readable exporters: per-interval JSONL timelines, decision
//! documents and Chrome-trace (Perfetto-loadable) files.
//!
//! Views of a run:
//!
//! * [`timeline_jsonl`] renders a [`Timeline`](crate::Timeline)
//!   observer's per-interval [`TimelineEntry`] list as JSON Lines —
//!   one self-contained object per interval, the natural input for
//!   plotting IPC against the policy's cluster decisions.
//! * [`chrome_trace`] renders a [`ReconfigLog`]'s event log in
//!   the Chrome trace-event format: every active-cluster configuration
//!   is a duration (`"ph": "X"`) event, every reconfiguration an
//!   instant (`"ph": "i"`) event, and every decentralized flush stall a
//!   duration event on its own track. Policy decision records (from a
//!   [`DecisionTrace`](clustered_sim::DecisionTrace) watching the same
//!   run) add counter (`"ph": "C"`) tracks — active clusters, interval IPC, and
//!   instability over time. Load the file in `chrome://tracing` or
//!   <https://ui.perfetto.dev> to see the communication-parallelism
//!   trade-off play out over time.
//! * [`decisions_jsonl`] renders a run's [`DecisionRecord`] stream as
//!   JSON Lines, and [`decisions_document`] puts the run's provenance
//!   line in front of it: the file `clustered explain --decisions` and
//!   `experiments --decisions` write (documented in EXPERIMENTS.md).
//!
//! Trace timestamps are **simulated cycles** presented as the format's
//! microseconds: one trace "µs" is one cycle.

use crate::phase::TimelineEntry;
use clustered_sim::{DecisionRecord, HostProfiler, HostStage, ReconfigLog, SimStats};
use clustered_stats::{Json, Provenance};

/// Trace thread-id base for the host-profile stage tracks: stage `i`
/// renders on tid `HOST_TID_BASE + i`, clear of the guest tracks
/// (0 = configurations, 1 = flushes).
pub const HOST_TID_BASE: u64 = 100;

/// Renders a recorded timeline as JSON Lines: one object per interval
/// with `committed`, `instructions`, `cycles`, `ipc`, `branches`,
/// `memrefs`, and `clusters` keys. Returns the empty string for an
/// empty timeline.
pub fn timeline_jsonl(timeline: &[TimelineEntry]) -> String {
    let mut out = String::new();
    for e in timeline {
        let line = Json::object()
            .set("committed", e.committed)
            .set("instructions", e.record.instructions)
            .set("cycles", e.record.cycles)
            .set("ipc", e.record.ipc())
            .set("branches", e.record.branches)
            .set("memrefs", e.record.memrefs)
            .set("clusters", e.clusters);
        out.push_str(&line.to_string_compact());
        out.push('\n');
    }
    out
}

/// Renders policy decision records as JSON Lines, one
/// [`DecisionRecord::to_json`] object per line. Returns the empty
/// string for an empty trace.
pub fn decisions_jsonl(decisions: &[DecisionRecord]) -> String {
    let mut out = String::new();
    for d in decisions {
        out.push_str(&d.to_json().to_string_compact());
        out.push('\n');
    }
    out
}

/// The decisions document of one run: a header line carrying the
/// run's `provenance`, told apart from the [`decisions_jsonl`] lines
/// after it by its `event` key.
pub fn decisions_document(provenance: &Provenance, decisions: &[DecisionRecord]) -> String {
    let header = Json::object().set("event", "provenance").set("provenance", provenance.to_json());
    format!("{}\n{}", header.to_string_compact(), decisions_jsonl(decisions))
}

fn duration_event(name: String, ts: u64, dur: u64, tid: u64, args: Json) -> Json {
    Json::object()
        .set("name", name)
        .set("ph", "X")
        .set("ts", ts)
        .set("dur", dur)
        .set("pid", 0u64)
        .set("tid", tid)
        .set("args", args)
}

fn counter_event(name: &str, ts: u64, series: &str, value: f64) -> Json {
    Json::object()
        .set("name", name)
        .set("ph", "C")
        .set("ts", ts)
        .set("pid", 0u64)
        .set("args", Json::object().set(series, value))
}

/// A run's reconfiguration log as a Chrome trace-event array.
///
/// Track 0 carries one duration event per active-cluster configuration
/// span and one instant event per reconfiguration; track 1 carries the
/// decentralized model's flush stalls. Each of the run's policy
/// `decisions` appends three counter samples (`"ph": "C"`) — `active
/// clusters`, `interval IPC`, and `instability`. The result serializes
/// to a JSON array loadable by `chrome://tracing` and Perfetto.
///
/// `stats` must cover the same cycles as `log`, from cycle 0: the last
/// span ends at `stats.cycles`, and a run that never reconfigured
/// spans the one configuration `stats.cycles_at_config` counts.
pub fn chrome_trace(log: &ReconfigLog, decisions: &[DecisionRecord], stats: &SimStats) -> Json {
    let mut events: Vec<Json> = Vec::new();
    // Configuration spans: from the run's start through each
    // reconfiguration to the run's last cycle.
    let mut span_start = 0u64;
    let mut clusters = match log.reconfigs.first() {
        Some(r) => r.from,
        None => stats.cycles_at_config.iter().position(|&c| c > 0).map_or(0, |i| i + 1),
    };
    for r in &log.reconfigs {
        events.push(duration_event(
            format!("{clusters} clusters"),
            span_start,
            r.cycle - span_start,
            0,
            Json::object().set("clusters", clusters),
        ));
        events.push(
            Json::object()
                .set("name", format!("reconfigure {} -> {}", r.from, r.to))
                .set("ph", "i")
                .set("ts", r.cycle)
                .set("pid", 0u64)
                .set("tid", 0u64)
                .set("s", "t")
                .set("args", Json::object().set("from", r.from).set("to", r.to)),
        );
        span_start = r.cycle;
        clusters = r.to;
    }
    if stats.cycles > span_start || events.is_empty() {
        events.push(duration_event(
            format!("{clusters} clusters"),
            span_start,
            stats.cycles.saturating_sub(span_start),
            0,
            Json::object().set("clusters", clusters),
        ));
    }
    for f in &log.flushes {
        events.push(duration_event(
            "reconfiguration flush".to_string(),
            f.cycle,
            f.stall_cycles,
            1,
            Json::object().set("stall_cycles", f.stall_cycles).set("writebacks", f.writebacks),
        ));
    }
    for d in decisions {
        events.push(counter_event("active clusters", d.cycle, "clusters", d.clusters as f64));
        events.push(counter_event("interval IPC", d.cycle, "ipc", d.ipc));
        events.push(counter_event("instability", d.cycle, "instability", d.instability));
    }
    Json::Arr(events)
}

fn metadata_event(name: &str, tid: u64, value: &str) -> Json {
    Json::object()
        .set("name", name)
        .set("ph", "M")
        .set("ts", 0u64)
        .set("pid", 0u64)
        .set("tid", tid)
        .set("args", Json::object().set("name", value))
}

/// A [`HostProfiler`]'s timeline as a standalone Chrome trace-event
/// array: one `"ph": "X"` span per stage per slice (tracks
/// [`HOST_TID_BASE`]+stage), `"ph": "C"` counter tracks for
/// calendar/overflow queue depth and busy clusters, and metadata
/// events naming the process after `label` (an arbitrary workload
/// string — the serializer escapes it) and the tracks. Timestamps are
/// simulated cycles, as in [`chrome_trace`].
pub fn host_chrome_trace(p: &HostProfiler, label: &str) -> Json {
    let mut events =
        vec![metadata_event("process_name", 0, &format!("clustered host profile: {label}"))];
    for (i, stage) in HostStage::ALL.iter().enumerate() {
        events.push(metadata_event(
            "thread_name",
            HOST_TID_BASE + i as u64,
            &format!("host {}", stage.as_str()),
        ));
    }
    for s in p.slices() {
        for (i, stage) in HostStage::ALL.iter().enumerate() {
            events.push(duration_event(
                format!("host {}", stage.as_str()),
                s.start_cycle,
                s.end_cycle - s.start_cycle,
                HOST_TID_BASE + i as u64,
                Json::object().set("nanos", s.stage_nanos[i]),
            ));
        }
        events.push(counter_event(
            "host calendar events",
            s.end_cycle,
            "events",
            s.calendar_events as f64,
        ));
        events.push(counter_event(
            "host overflow events",
            s.end_cycle,
            "events",
            s.overflow_events as f64,
        ));
        events.push(counter_event(
            "host busy clusters",
            s.end_cycle,
            "clusters",
            f64::from(s.busy_clusters),
        ));
    }
    Json::Arr(events)
}

/// One `host_profile` JSON document: run metadata and throughput
/// (sim-cycles/sec) wrapped around [`HostProfiler::to_json`]'s stage
/// shares, queue histograms, and skew summary. The schema is
/// documented in EXPERIMENTS.md.
pub fn host_profile_json(p: &HostProfiler, label: &str, wall_seconds: f64) -> Json {
    let cycles = p.cycles();
    let per_sec = if wall_seconds > 0.0 { cycles as f64 / wall_seconds } else { 0.0 };
    Json::object()
        .set("workload", label)
        .set("wall_seconds", wall_seconds)
        .set("sim_cycles", cycles)
        .set("sim_cycles_per_sec", per_sec)
        .set("profile", p.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::IntervalRecord;
    use clustered_sim::SimObserver;
    use clustered_stats::json;

    #[test]
    fn jsonl_renders_one_parseable_line_per_interval() {
        let timeline = vec![
            TimelineEntry {
                committed: 1_000,
                record: IntervalRecord {
                    instructions: 1_000,
                    cycles: 500,
                    branches: 100,
                    memrefs: 300,
                },
                clusters: 16,
            },
            TimelineEntry {
                committed: 2_000,
                record: IntervalRecord {
                    instructions: 1_000,
                    cycles: 250,
                    branches: 90,
                    memrefs: 310,
                },
                clusters: 4,
            },
        ];
        let text = timeline_jsonl(&timeline);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).expect("valid JSON line");
        assert_eq!(first.get("committed").and_then(Json::as_f64), Some(1_000.0));
        assert_eq!(first.get("ipc").and_then(Json::as_f64), Some(2.0));
        assert_eq!(first.get("clusters").and_then(Json::as_f64), Some(16.0));
        let second = json::parse(lines[1]).expect("valid JSON line");
        assert_eq!(second.get("ipc").and_then(Json::as_f64), Some(4.0));
        assert!(timeline_jsonl(&[]).is_empty());
    }

    /// Statistics of a `cycles`-cycle run that spent `at` cycles at
    /// each `(clusters, at)` configuration.
    fn stats_of(cycles: u64, configs: &[(usize, u64)]) -> SimStats {
        let mut s = SimStats { cycles, ..SimStats::default() };
        for &(clusters, at) in configs {
            s.cycles_at_config[clusters - 1] = at;
        }
        s
    }

    /// Drives a [`ReconfigLog`] by hand: 16 clusters to cycle 100,
    /// then 4 clusters (with a flush) to cycle 250.
    fn observed_run() -> (ReconfigLog, SimStats) {
        let mut m = ReconfigLog::new();
        m.on_flush_stall(100, 12, 30);
        m.on_reconfig(100, 16, 4);
        (m, stats_of(250, &[(16, 100), (4, 150)]))
    }

    #[test]
    fn chrome_trace_has_spans_instants_and_flushes() {
        let (log, stats) = observed_run();
        let trace = chrome_trace(&log, &[], &stats);
        let events = trace.as_arr().expect("trace is an array");
        // 2 configuration spans + 1 instant + 1 flush.
        assert_eq!(events.len(), 4);
        for e in events {
            assert!(e.get("ph").is_some() && e.get("ts").is_some() && e.get("name").is_some());
        }
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("16 clusters"));
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(100.0));
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("reconfigure 16 -> 4"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(events[2].get("name").and_then(Json::as_str), Some("4 clusters"));
        assert_eq!(events[2].get("ts").and_then(Json::as_f64), Some(100.0));
        assert_eq!(events[2].get("dur").and_then(Json::as_f64), Some(150.0));
        assert_eq!(events[3].get("name").and_then(Json::as_str), Some("reconfiguration flush"));
        assert_eq!(events[3].get("tid").and_then(Json::as_f64), Some(1.0));
        // The whole document must survive a serialize → parse trip.
        let reparsed = json::parse(&trace.to_string_pretty()).expect("valid trace JSON");
        assert_eq!(reparsed, trace);
    }

    #[test]
    fn chrome_trace_decision_counters_use_counter_phase_only() {
        use clustered_sim::{DecisionReason, DecisionRecord, PolicyState};
        let decision = DecisionRecord {
            interval: 1,
            commit: 10_000,
            start_cycle: 1,
            cycle: 200,
            state: PolicyState::Exploring,
            ipc: 0.75,
            branch_delta: 0,
            memref_delta: 0,
            instability: 2.0,
            explored_ipc: vec![0.75],
            interval_length: 10_000,
            clusters: 4,
            reason: DecisionReason::Exploring,
        };
        let (log, stats) = observed_run();
        let trace = chrome_trace(&log, &[decision], &stats);
        let events = trace.as_arr().expect("trace is an array");
        // The decision adds exactly three counter samples; the span /
        // instant / flush population is untouched.
        let counters: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("C")).collect();
        assert_eq!(events.len(), 7);
        assert_eq!(counters.len(), 3);
        let names: Vec<&str> =
            counters.iter().filter_map(|e| e.get("name").and_then(Json::as_str)).collect();
        assert_eq!(names, vec!["active clusters", "interval IPC", "instability"]);
        for c in &counters {
            assert_eq!(c.get("ts").and_then(Json::as_f64), Some(200.0));
        }
        assert_eq!(
            counters[0].get("args").and_then(|a| a.get("clusters")).and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            counters[2].get("args").and_then(|a| a.get("instability")).and_then(Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn chrome_trace_round_trips_and_every_event_has_required_keys() {
        use clustered_sim::{DecisionReason, DecisionRecord, PolicyState};
        let decisions: Vec<DecisionRecord> = (1..=3u64)
            .map(|i| DecisionRecord {
                interval: i,
                commit: i * 1_000,
                start_cycle: (i - 1) * 50,
                cycle: i * 50,
                state: PolicyState::Stable,
                ipc: 0.5,
                branch_delta: -3,
                memref_delta: 2,
                instability: 0.0,
                explored_ipc: Vec::new(),
                interval_length: 1_000,
                clusters: 8,
                reason: DecisionReason::StableNoChange,
            })
            .collect();
        let (log, stats) = observed_run();
        let trace = chrome_trace(&log, &decisions, &stats);
        // Round-trip through the clustered_stats parser.
        let reparsed = json::parse(&trace.to_string_compact()).expect("valid trace JSON");
        assert_eq!(reparsed, trace);
        let events = reparsed.as_arr().expect("trace is an array");
        assert!(events.len() >= 4 + 9, "spans+instant+flush plus 3 counters per decision");
        for e in events {
            for key in ["name", "ph", "ts", "pid"] {
                assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
            }
        }
    }

    #[test]
    fn decisions_jsonl_renders_one_parseable_line_per_record() {
        use clustered_sim::{DecisionReason, DecisionRecord, PolicyState};
        let records = vec![
            DecisionRecord {
                interval: 1,
                commit: 10_000,
                start_cycle: 0,
                cycle: 20_000,
                state: PolicyState::Exploring,
                ipc: 0.5,
                branch_delta: 0,
                memref_delta: 0,
                instability: 0.0,
                explored_ipc: vec![0.5],
                interval_length: 10_000,
                clusters: 4,
                reason: DecisionReason::Reference,
            },
            DecisionRecord {
                interval: 2,
                commit: 20_000,
                start_cycle: 20_000,
                cycle: 39_000,
                state: PolicyState::Stable,
                ipc: 0.52,
                branch_delta: -5,
                memref_delta: 1,
                instability: 0.0,
                explored_ipc: Vec::new(),
                interval_length: 10_000,
                clusters: 8,
                reason: DecisionReason::ExplorationComplete,
            },
        ];
        let text = decisions_jsonl(&records);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).expect("valid JSON line");
        assert_eq!(first.get("reason").and_then(Json::as_str), Some("reference"));
        assert_eq!(first.get("state").and_then(Json::as_str), Some("exploring"));
        let second = json::parse(lines[1]).expect("valid JSON line");
        assert_eq!(second.get("branch_delta").and_then(Json::as_f64), Some(-5.0));
        assert_eq!(second.get("clusters").and_then(Json::as_u64), Some(8));
        assert!(decisions_jsonl(&[]).is_empty());
    }

    #[test]
    fn decisions_document_opens_with_the_provenance_line() {
        use clustered_sim::{DecisionReason, DecisionRecord, PolicyState};
        let record = DecisionRecord {
            interval: 1,
            commit: 10_000,
            start_cycle: 0,
            cycle: 20_000,
            state: PolicyState::Stable,
            ipc: 0.5,
            branch_delta: 0,
            memref_delta: 0,
            instability: 0.0,
            explored_ipc: Vec::new(),
            interval_length: 10_000,
            clusters: 4,
            reason: DecisionReason::FixedBaseline,
        };
        let prov = Provenance::new("gzip", Some(7), 11, "fixed-4");
        let text = decisions_document(&prov, std::slice::from_ref(&record));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let header = json::parse(lines[0]).expect("valid JSON line");
        assert_eq!(header.get("event").and_then(Json::as_str), Some("provenance"));
        assert_eq!(header.get("provenance"), Some(&prov.to_json()));
        assert_eq!(lines[1], record.to_json().to_string_compact());
        assert_eq!(decisions_document(&prov, &[]).lines().count(), 1);
    }

    /// Drives a [`HostProfiler`] by hand through two 10-cycle slices.
    fn profiled_host() -> HostProfiler {
        use clustered_sim::QueueHealth;
        let mut p = HostProfiler::new(10);
        for cycle in 1..=20u64 {
            p.on_stage_nanos(&[40, 30, 20, 5, 4, 1]);
            p.on_event_drained((cycle % 2) as usize);
            p.on_queue_health(&QueueHealth {
                cycle,
                calendar_events: 5,
                overflow_events: 1,
                floor: cycle,
                queued_mask: 0b111,
                active_clusters: 4,
                configured_clusters: 16,
            });
        }
        p
    }

    /// Golden round-trip for the host trace: `ph:"X"` stage spans and
    /// `ph:"C"` queue-depth counters, with a workload label that needs
    /// JSON string escaping.
    #[test]
    fn standalone_host_trace_has_only_host_events() {
        let label = "gzip \"ref\"\\input\n(tab\there)";
        let trace = host_chrome_trace(&profiled_host(), label);

        // The serialized document survives a parse round trip even with
        // quotes, backslashes, and control characters in the label.
        let reparsed = json::parse(&trace.to_string_compact()).expect("valid trace JSON");
        assert_eq!(reparsed, trace);
        let events = reparsed.as_arr().expect("trace is an array");

        // 7 metadata + 2 slices × (6 spans + 3 counters).
        assert_eq!(events.len(), 7 + 2 * 9);
        for e in events {
            let tid = e.get("tid").and_then(Json::as_u64);
            let ph = e.get("ph").and_then(Json::as_str);
            assert!(
                ph == Some("C") || tid.is_some_and(|t| t >= HOST_TID_BASE) || tid == Some(0),
                "unexpected event {e:?}"
            );
        }
        let host_spans: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(host_spans.len(), 12, "6 stage spans per slice");
        assert_eq!(host_spans[0].get("name").and_then(Json::as_str), Some("host event_drain"));
        assert_eq!(host_spans[0].get("ts").and_then(Json::as_u64), Some(0));
        assert_eq!(host_spans[0].get("dur").and_then(Json::as_u64), Some(10));
        assert_eq!(
            host_spans[0].get("args").and_then(|a| a.get("nanos")).and_then(Json::as_u64),
            Some(400),
            "10 cycles × 40 ns of event drain"
        );
        let counter_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        for name in ["host calendar events", "host overflow events", "host busy clusters"] {
            assert!(counter_names.contains(&name), "missing counter track {name}");
        }

        // The escaped label reappears intact after the round trip.
        let process = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .expect("process_name metadata");
        assert_eq!(
            process.get("args").and_then(|a| a.get("name")).and_then(Json::as_str),
            Some(format!("clustered host profile: {label}").as_str())
        );
    }

    #[test]
    fn host_profile_json_reports_throughput_and_shares() {
        let p = profiled_host();
        let doc = host_profile_json(&p, "gzip", 0.5);
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("gzip"));
        assert_eq!(doc.get("sim_cycles").and_then(Json::as_u64), Some(20));
        assert_eq!(doc.get("sim_cycles_per_sec").and_then(Json::as_f64), Some(40.0));
        let stages = doc.get("profile").and_then(|p| p.get("stages")).expect("stage table");
        let share_sum: f64 = stages
            .keys()
            .expect("object")
            .iter()
            .filter_map(|k| stages.get(k).and_then(|s| s.get("share")).and_then(Json::as_f64))
            .sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "stage shares sum to 1, got {share_sum}");
        // Degenerate wall time must not divide by zero.
        assert_eq!(
            host_profile_json(&p, "gzip", 0.0).get("sim_cycles_per_sec").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn chrome_trace_of_steady_run_is_one_span() {
        let trace = chrome_trace(&ReconfigLog::new(), &[], &stats_of(400, &[(8, 400)]));
        let events = trace.as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("8 clusters"));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(400.0));
    }
}
