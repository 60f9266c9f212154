//! Schedule oracle: restructurings of *how* the simulator computes the
//! schedule — the event queue's layout, the issue stage's quiescence
//! skipping, the backend's data structures — must leave measured
//! [`SimStats`] bit-identical. This suite runs the full workload ×
//! cluster-count × policy-family × cache-model matrix and pins every
//! counter against `tests/shard_oracle.json`. Every point replays the
//! capture's compiled view, the path every CLI verb, experiment and
//! sweep point runs. The names come from the
//! oracle's first use: it was captured before the event queue was
//! split into per-cluster shards, and it pinned both that split and
//! its later removal (one machine-wide calendar) unchanged.
//!
//! The oracle intentionally stores the *serialized* statistics
//! (`SimStats::to_json`), so the comparison also covers the derived
//! rates. New counters added after the oracle was captured (e.g. the
//! quiescence counters) are permitted: the pin asserts equality on
//! every key the oracle has, not key-set equality.
//!
//! Regenerating the oracle (only when the simulated schedule is
//! *meant* to change, which defeats the point of this suite — say why
//! in the commit message):
//!
//! ```text
//! cargo test --test shard_equivalence -- --ignored regenerate_oracle
//! ```

use clustered_core::{FineGrain, IntervalDistantIlp, IntervalExplore};
use clustered_sim::{CacheModel, FixedPolicy, Processor, ReconfigPolicy, SimConfig, SimStats};
use clustered_stats::{json, Json};
use clustered_workloads::CapturedTrace;
use std::path::PathBuf;

/// Warm-up instructions discarded per point.
const WARMUP: u64 = 1_000;
/// Measured instructions per point.
const MEASURE: u64 = 4_000;
/// The cluster-count axis (all powers of two, so the decentralized
/// model's interleaving accepts every point).
const COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
/// The four policy families.
const FAMILIES: [&str; 4] = ["fixed", "explore", "distant", "finegrain"];
const MODELS: [(&str, CacheModel); 2] =
    [("cen", CacheModel::Centralized), ("dec", CacheModel::Decentralized)];

fn oracle_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("shard_oracle.json")
}

/// Builds one matrix point's configuration and policy.
///
/// The `fixed` family keeps the full 16-cluster die configured and
/// pins `n` *active* clusters — the wide-but-idle shape the sharded
/// cycle loop exists to make cheap. The adaptive families instead
/// configure an `n`-cluster die and let the policy roam inside it, so
/// the matrix covers both "configured narrow" and "wide but idle".
fn point(model: CacheModel, family: &str, n: usize) -> (SimConfig, Box<dyn ReconfigPolicy>) {
    let mut cfg = SimConfig::default();
    let policy: Box<dyn ReconfigPolicy> = match family {
        "fixed" => Box::new(FixedPolicy::new(n)),
        adaptive => {
            // A 1-cluster die needs the monolithic resource pool: the
            // default per-cluster register file cannot hold the whole
            // architectural state in one cluster.
            if n == 1 {
                cfg = SimConfig::monolithic();
            } else {
                cfg.clusters.count = n;
            }
            match adaptive {
                "explore" => Box::new(IntervalExplore::default()),
                "distant" => Box::new(IntervalDistantIlp::default()),
                "finegrain" => Box::new(FineGrain::branch_policy()),
                other => panic!("unknown policy family {other}"),
            }
        }
    };
    cfg.cache.model = model;
    (cfg, policy)
}

fn run_point(trace: &CapturedTrace, cfg: SimConfig, policy: Box<dyn ReconfigPolicy>) -> SimStats {
    let mut cpu =
        Processor::new(cfg, trace.compile().replay(), policy).expect("valid matrix config");
    cpu.run(WARMUP).expect("no stall in warm-up");
    let before = *cpu.stats();
    cpu.run(MEASURE).expect("no stall");
    cpu.stats().delta_since(&before)
}

/// Runs the whole matrix, one worker thread per workload, and returns
/// `(label, serialized stats)` in deterministic matrix order.
fn run_matrix() -> Vec<(String, Json)> {
    let workloads = clustered_workloads::all();
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                scope.spawn(move || {
                    let trace = CapturedTrace::for_window(w, WARMUP, MEASURE);
                    let mut rows = Vec::new();
                    for (mname, model) in MODELS {
                        for family in FAMILIES {
                            for n in COUNTS {
                                let (cfg, policy) = point(model, family, n);
                                let stats = run_point(&trace, cfg, policy);
                                // Through the same text round-trip the
                                // oracle went through, so float
                                // formatting cannot produce spurious
                                // mismatches.
                                let doc = json::parse(&stats.to_json().to_string_compact())
                                    .expect("SimStats serializes to valid JSON");
                                rows.push((format!("{}/{mname}/{family}/{n}", w.name()), doc));
                            }
                        }
                    }
                    rows
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("matrix worker panicked"));
        }
    });
    out
}

fn matrix_to_json(rows: &[(String, Json)]) -> Json {
    let points: Vec<Json> = rows
        .iter()
        .map(|(label, stats)| {
            Json::object().set("label", label.as_str()).set("stats", stats.clone())
        })
        .collect();
    Json::object()
        .set("version", 1u64)
        .set("warmup", WARMUP)
        .set("measure", MEASURE)
        .set("points", Json::Arr(points))
}

/// Captures the oracle. Ignored by default: it exists to be run ONCE,
/// on the pre-refactor tree, and whenever a deliberate schedule change
/// needs a new baseline.
#[test]
#[ignore = "rewrites the oracle; run explicitly on a known-good tree"]
fn regenerate_oracle() {
    let doc = matrix_to_json(&run_matrix());
    std::fs::write(oracle_path(), doc.to_string_pretty()).expect("write oracle");
}

/// The pin: every counter of every matrix point must match the
/// pre-refactor oracle exactly.
#[test]
fn stats_bit_identical_to_pre_refactor_oracle() {
    let text = std::fs::read_to_string(oracle_path())
        .expect("tests/shard_oracle.json missing; run `cargo test --test shard_equivalence -- --ignored regenerate_oracle` on a known-good tree");
    let oracle = json::parse(&text).expect("oracle parses");
    let points = oracle.get("points").and_then(Json::as_arr).expect("oracle has points");
    let fresh = run_matrix();
    assert_eq!(
        points.len(),
        fresh.len(),
        "matrix shape changed; regenerate the oracle deliberately"
    );
    let mut mismatches = Vec::new();
    for (expected, (label, got)) in points.iter().zip(&fresh) {
        let elabel = expected.get("label").and_then(Json::as_str).expect("point label");
        assert_eq!(elabel, label, "matrix order changed");
        let estats = expected.get("stats").expect("point stats");
        for key in estats.keys().expect("stats is an object") {
            let want = estats.get(key);
            let have = got.get(key);
            if want != have {
                mismatches.push(format!("{label}: {key}: oracle {want:?} != fresh {have:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} points diverged from the pre-refactor oracle:\n{}",
        mismatches.len(),
        fresh.len(),
        mismatches.join("\n")
    );
}
