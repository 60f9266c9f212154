//! Golden tests for the machine-readable exports: the key set of
//! `SimStats::to_json` is part of the tool contract (scripts and
//! notebooks parse it), so changing it must be a conscious, reviewed
//! decision — update the list below *and* the schema documented in
//! EXPERIMENTS.md together.

use clustered::policies::{chrome_trace, decisions_jsonl, IntervalExplore};
use clustered::sim::{DecisionTrace, Processor, ReconfigLog, SimConfig, SimStats, SteeringKind};
use clustered::stats::Json;

/// Every key `SimStats::to_json` must emit, in order.
const STATS_KEYS: &[&str] = &[
    "cycles",
    "committed",
    "dispatched",
    "fetched",
    "ipc",
    "cond_branches",
    "branches",
    "mispredicts",
    "mispredict_rate",
    "mispredict_interval",
    "memrefs",
    "loads",
    "stores",
    "l1_hits",
    "l1_misses",
    "l1_hit_rate",
    "l2_misses",
    "l2_miss_rate",
    "lsq_forwards",
    "reg_transfers",
    "reg_transfer_hops",
    "avg_transfer_hops",
    "cache_transfers",
    "cache_transfer_hops",
    "distant_issues",
    "bank_predictions",
    "bank_mispredictions",
    "bank_accuracy",
    "reconfigurations",
    "flush_writebacks",
    "flush_stall_cycles",
    "active_cluster_cycles",
    "avg_active_clusters",
    "cycles_at_config",
    "dispatch_stalls",
    "rob_occupancy_sum",
    "quiescent_cluster_cycles",
    "cluster_busy_cycles",
];

#[test]
fn stats_json_key_set_is_pinned() {
    let j = SimStats::default().to_json();
    let keys = j.keys().expect("to_json returns an object");
    assert_eq!(
        keys, STATS_KEYS,
        "SimStats::to_json key set changed — update this golden list and \
         the results/*.json schema in EXPERIMENTS.md"
    );
    assert_eq!(
        j.get("dispatch_stalls").and_then(Json::keys).expect("stall attribution object"),
        vec!["fetch", "rob", "resources"]
    );
}

/// The default configuration's digest is part of the provenance
/// contract: ledgers and diff reports compare runs by it, so it may
/// only move when the timing configuration (or the digest scheme)
/// deliberately changes — update the literal *and* say why in the
/// commit message.
#[test]
fn default_config_digest_is_pinned() {
    assert_eq!(
        SimConfig::default().digest(),
        13362372836891616520,
        "SimConfig::default().digest() moved — a config field, default value, \
         or the digest scheme changed; ledger entries and diff baselines from \
         older builds will no longer align"
    );
    assert_ne!(SimConfig::default().digest(), SimConfig::monolithic().digest());
}

/// Every exported artifact shares the `{schema_version, provenance,
/// data}` envelope, and the provenance block's key set is pinned.
#[test]
fn artifact_envelope_and_provenance_key_sets_are_pinned() {
    let prov = clustered::stats::Provenance::new("gzip", Some(7), 11, "explore");
    let doc = clustered::stats::envelope(&prov, Json::object().set("x", 1u64));
    assert_eq!(doc.keys().expect("object"), vec!["schema_version", "provenance", "data"]);
    let pkeys = doc.get("provenance").and_then(Json::keys).expect("provenance object");
    assert_eq!(
        pkeys,
        vec![
            "schema_version",
            "crate_version",
            "git_describe",
            "trace",
            "config_digest",
            "policy",
            "seed",
            "host",
            "wall_seconds",
            "run_id",
        ],
        "provenance schema changed — update this golden list, EXPERIMENTS.md, \
         and bump PROVENANCE_SCHEMA_VERSION if the change is incompatible"
    );
    let round = clustered::stats::Provenance::from_json(doc.get("provenance").expect("block"))
        .expect("provenance round-trips");
    assert_eq!(round.trace_checksum, Some(7));
    assert_eq!(round.config_digest, 11);
}

#[test]
fn observed_explore_run_exports_all_three_documents() {
    let workload = clustered::workloads::by_name("gzip").expect("known workload");
    let stream = workload.trace().map(Result::unwrap);
    let mut cpu = Processor::with_observer(
        SimConfig::default(),
        stream,
        Box::new(IntervalExplore::default()),
        SteeringKind::default(),
        (ReconfigLog::new(), DecisionTrace::new()),
    )
    .expect("valid config");
    let stats = cpu.run(40_000).expect("no stall");

    // Stats document: parseable, with the pinned key set.
    let stats_doc =
        clustered::stats::json::parse(&stats.to_json().to_string_pretty()).expect("valid JSON");
    assert_eq!(stats_doc.keys().expect("object"), STATS_KEYS);

    // Decision records: one parseable JSON line per interval the
    // explore policy evaluated.
    let (log, trace) = cpu.observer();
    let decisions = trace.decisions();
    assert!(!decisions.is_empty(), "explore decides every interval");
    let jsonl = decisions_jsonl(decisions);
    assert_eq!(jsonl.lines().count(), decisions.len());
    for (line, d) in jsonl.lines().zip(decisions) {
        let doc = clustered::stats::json::parse(line).expect("valid JSON line");
        assert_eq!(doc.get("cycle").and_then(Json::as_u64), Some(d.cycle));
        assert!(d.cycle <= stats.cycles, "decision past the run's end");
    }

    // Chrome trace: events for every configuration the explore policy
    // visited, totals consistent with the statistics.
    let trace = chrome_trace(log, decisions, &stats);
    let events = trace.as_arr().expect("array");
    let spans: Vec<&Json> =
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
    let instants =
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("i")).count() as u64;
    assert_eq!(instants, stats.reconfigurations);
    assert_eq!(spans.len() as u64, stats.reconfigurations + 1, "one span per configuration era");
    let span_cycles: f64 = spans.iter().filter_map(|e| e.get("dur").and_then(Json::as_f64)).sum();
    assert_eq!(span_cycles, stats.cycles as f64, "spans tile the whole run");
    let counters =
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("C")).count();
    assert_eq!(counters, 3 * decisions.len(), "three counter samples per decision");
}
