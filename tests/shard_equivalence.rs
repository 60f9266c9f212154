//! Schedule oracle and conservation-law audit over one matrix.
//!
//! Restructurings of *how* the simulator computes the schedule — the
//! event queue's layout, the issue stage's quiescence skipping, the
//! backend's data structures — must leave measured [`SimStats`]
//! bit-identical. This suite runs the full workload × cluster-count ×
//! policy-family × cache-model matrix (360 points) and pins every
//! counter against `tests/shard_oracle.json`. Every point replays the
//! capture's compiled view through [`drive`], the path every CLI verb,
//! experiment and sweep point runs. The names come from the oracle's
//! first use: it was captured before the event queue was split into
//! per-cluster shards, and it pinned both that split and its later
//! removal (one machine-wide calendar) unchanged.
//!
//! Each point also runs a second time with an [`AuditObserver`]
//! attached, and must come back clean: the invariants are supposed to
//! hold on *every* healthy schedule, not just the configurations the
//! unit tests happen to construct. Auditing only reads machine state,
//! so the audited run's statistics must equal the plain run's on every
//! counter. The matrix runs once per test process; the oracle pin and
//! the audit check read the same results.
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
use clustered_sim::{
    drive, AuditInvariant, AuditObserver, CacheModel, FixedPolicy, NullObserver, ReconfigPolicy,
    Run, SimConfig, SimObserver, SimStats, SteeringKind,
};
use clustered_stats::{json, Json};
use clustered_workloads::{CapturedTrace, CompiledTrace};
use std::path::PathBuf;
use std::sync::OnceLock;

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

/// One matrix point replayed from `trace` and watched by `observer`.
fn run_point<O: SimObserver>(
    trace: &CompiledTrace,
    (cfg, policy): (SimConfig, Box<dyn ReconfigPolicy>),
    observer: O,
) -> Run<O> {
    let steering = SteeringKind::default();
    drive(cfg, trace.replay(), policy, steering, observer, WARMUP, MEASURE)
        .expect("valid matrix config, no stall")
}

/// `stats` through the same text round-trip the oracle went through,
/// so float formatting cannot produce spurious mismatches.
fn as_json(stats: &SimStats) -> Json {
    json::parse(&stats.to_json().to_string_compact()).expect("SimStats serializes to valid JSON")
}

/// One matrix point's outcome: the plain run's serialized stats, and
/// what the audited run found wrong (nothing, on a healthy schedule).
struct Point {
    label: String,
    stats: Json,
    audit_failures: Vec<String>,
}

/// Runs one matrix point twice, plain and audited.
fn run_plain_and_audited(
    trace: &CompiledTrace,
    label: String,
    model: CacheModel,
    family: &str,
    n: usize,
) -> Point {
    let plain = run_point(trace, point(model, family, n), NullObserver);
    let audited = run_point(trace, point(model, family, n), AuditObserver::new());
    let auditor = &audited.observer;
    let mut audit_failures: Vec<String> =
        auditor.violations().iter().map(|v| format!("{label}: {v}")).collect();
    if auditor.checks_run() == 0 {
        audit_failures.push(format!("{label}: the auditor never ran"));
    }
    let stats = as_json(&plain.stats);
    if as_json(&audited.stats) != stats {
        audit_failures.push(format!("{label}: audited stats diverge"));
    }
    Point { label, stats, audit_failures }
}

/// Runs the whole matrix, one worker thread per workload, and returns
/// the points in deterministic matrix order.
fn run_matrix() -> Vec<Point> {
    let workloads = clustered_workloads::all();
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                scope.spawn(move || {
                    let trace = CapturedTrace::for_window(w, WARMUP, MEASURE).compile();
                    let mut points = Vec::new();
                    for (mname, model) in MODELS {
                        for family in FAMILIES {
                            for n in COUNTS {
                                let label = format!("{}/{mname}/{family}/{n}", w.name());
                                points.push(run_plain_and_audited(&trace, label, model, family, n));
                            }
                        }
                    }
                    points
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("matrix worker panicked"));
        }
    });
    out
}

/// The matrix, run on first use and shared by every test in this file.
fn matrix() -> &'static [Point] {
    static MATRIX: OnceLock<Vec<Point>> = OnceLock::new();
    MATRIX.get_or_init(run_matrix)
}

fn matrix_to_json(points: &[Point]) -> Json {
    let points: Vec<Json> = points
        .iter()
        .map(|p| Json::object().set("label", p.label.as_str()).set("stats", p.stats.clone()))
        .collect();
    Json::object()
        .set("version", 1u64)
        .set("warmup", WARMUP)
        .set("measure", MEASURE)
        .set("points", Json::Arr(points))
}

/// Captures the oracle from the plain runs. Ignored by default: it
/// exists to be run ONCE, on the pre-refactor tree, and whenever a
/// deliberate schedule change needs a new baseline.
#[test]
#[ignore = "rewrites the oracle; run explicitly on a known-good tree"]
fn regenerate_oracle() {
    let doc = matrix_to_json(matrix());
    std::fs::write(oracle_path(), doc.to_string_pretty()).expect("write oracle");
}

/// The pin: every counter of every plain matrix point must match the
/// pre-refactor oracle exactly.
#[test]
fn stats_bit_identical_to_pre_refactor_oracle() {
    let text = std::fs::read_to_string(oracle_path())
        .expect("tests/shard_oracle.json missing; run `cargo test --test shard_equivalence -- --ignored regenerate_oracle` on a known-good tree");
    let oracle = json::parse(&text).expect("oracle parses");
    let expected = oracle.get("points").and_then(Json::as_arr).expect("oracle has points");
    let fresh = matrix();
    assert_eq!(
        expected.len(),
        fresh.len(),
        "matrix shape changed; regenerate the oracle deliberately"
    );
    let mut mismatches = Vec::new();
    for (want, got) in expected.iter().zip(fresh) {
        let label = &got.label;
        let elabel = want.get("label").and_then(Json::as_str).expect("point label");
        assert_eq!(elabel, label, "matrix order changed");
        let estats = want.get("stats").expect("point stats");
        for key in estats.keys().expect("stats is an object") {
            let (want, have) = (estats.get(key), got.stats.get(key));
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

/// Every audited matrix point must be clean, and counter-for-counter
/// equal to its plain run.
#[test]
fn full_grid_is_audit_clean_and_stats_are_unperturbed() {
    let points = matrix();
    assert_eq!(
        points.len(),
        MODELS.len() * FAMILIES.len() * COUNTS.len() * clustered_workloads::all().len()
    );
    let audit_failures: Vec<&str> =
        points.iter().flat_map(|p| p.audit_failures.iter().map(String::as_str)).collect();
    assert!(audit_failures.is_empty(), "audit failures:\n{}", audit_failures.join("\n"));
}

/// Fault injection end-to-end: a skewed fetch counter must trip
/// exactly the fetch-conservation law — on a real schedule, not a
/// synthetic snapshot — and nothing else.
#[test]
fn injected_fetch_skew_is_caught_on_a_real_run() {
    let w = clustered_workloads::by_name("gzip").expect("gzip exists");
    let trace = CapturedTrace::for_window(&w, WARMUP, MEASURE).compile();
    let mut auditor = AuditObserver::new();
    auditor.inject_fetched_skew(3);
    let policy = Box::new(FixedPolicy::new(4));
    let run = run_point(&trace, (SimConfig::default(), policy), auditor);
    let auditor = run.observer;
    assert!(!auditor.is_clean(), "the skew must be detected");
    assert!(
        auditor.violations().iter().all(|v| v.invariant == AuditInvariant::FetchConservation),
        "only fetch-conservation may fire: {:?}",
        auditor.violations()
    );
}
