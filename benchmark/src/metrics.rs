//! The benchmark's named metrics: what each one is, its unit, which
//! direction is better, and (end to end only) the regression bound.
//! `BENCHMARK.json` mirrors these tables; a unit test keeps the two in
//! step.

use crate::summary::Better;

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as keyed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees: host time and memory for a
/// whole batch of simulations. Measured untraced (`--trace 0`). The
/// time bounds are the widest allowed because on the 2-vCPU measuring
/// host whole runs sometimes ran about 2× slow, and seed-to-seed
/// spreads reached 20–40% in such phases (README.md, "Noise"); a
/// time regression smaller than its bound goes undetected. `setup_s`
/// shares the widest bound.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("sim_minst_per_s", "Minst/s", Higher, 0.25),
    e2e("sim_mcycles_per_s", "Mcycles/s", Higher, 0.25),
    e2e("point_s_p50", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
];

/// Per-crate numbers from the traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    layer("workloads.build_ms", "ms", Lower),
    layer("workloads.capture_ns_per_inst", "ns/inst", Lower),
    layer("workloads.compile_ns_per_inst", "ns/inst", Lower),
    layer("workloads.trace_bytes", "bytes", Lower),
    layer("emu.live_ns_per_inst", "ns/inst", Lower),
    layer("sim.new_us", "us", Lower),
    layer("sim.run_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.run_ns_per_inst", "ns/inst", Lower),
    layer("sim.stage.event_drain_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.stage.commit_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.stage.issue_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.stage.dispatch_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.stage.fetch_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.stage.other_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.events_per_cycle", "events/cycle", Lower),
    layer("sim.event_drain_ns_per_event", "ns/event", Lower),
    layer("sim.quiescent_frac", "ratio", Higher),
    layer("sim.drained_skew", "ratio", Lower),
    layer("sim.trace_overhead", "ratio", Lower),
    layer("sim.cycles", "cycles", Lower),
    layer("sim.committed", "inst", Higher),
    layer("sim.ipc_geomean", "inst/cycle", Higher),
    layer("sim.reconfigurations", "count", Lower),
    layer("sim.flush_writebacks", "count", Lower),
    layer("sim.avg_active_clusters", "clusters", Lower),
    layer("core.on_commit_ns", "ns/call", Lower),
    layer("core.on_commit_calls", "count", Lower),
    layer("core.decisions", "count", Lower),
    layer("core.share", "ratio", Lower),
    layer("sweep.busy_frac", "ratio", Higher),
    layer("sweep.points_per_s", "1/s", Higher),
    layer("sweep.point_tail_s", "s", Lower),
    layer("stats.export_us_per_point", "us", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::valid_name;
    use clustered_stats::Json;

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_obey_the_naming_and_size_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s present");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// metrics and workloads, in this order, with these units, directions
    /// and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = clustered_stats::json::parse(text).expect("BENCHMARK.json parses");
        let check = |key: &str, table: &[Metric]| {
            let listed = doc.get(key).and_then(Json::as_arr).expect("metric list");
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, m) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::suite::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }
}
