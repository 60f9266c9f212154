//! Experiment harness regenerating every table and figure of the
//! paper's evaluation. Each binary under `src/bin/` reproduces one
//! table or figure; this library holds the shared runner.
//!
//! Run lengths default to values that finish a full experiment in
//! minutes on a laptop; set `CLUSTERED_MEASURE` / `CLUSTERED_WARMUP`
//! (instruction counts) to trade time for fidelity.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cmp;
pub mod harness;
pub mod sweep;

use clustered_sim::{
    drive, DecisionRecord, NullObserver, ReconfigPolicy, Run, SimConfig, SimObserver, SimStats,
    SteeringKind,
};
use clustered_stats::{Json, Provenance};
use clustered_workloads::Workload;
use std::path::{Path, PathBuf};

/// Default measured instructions per run.
pub const DEFAULT_MEASURE: u64 = 400_000;
/// Default warm-up instructions per run.
pub const DEFAULT_WARMUP: u64 = 50_000;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Measured instructions per run (`CLUSTERED_MEASURE` overrides).
pub fn measure_instructions() -> u64 {
    env_u64("CLUSTERED_MEASURE", DEFAULT_MEASURE)
}

/// Warm-up instructions per run (`CLUSTERED_WARMUP` overrides).
pub fn warmup_instructions() -> u64 {
    env_u64("CLUSTERED_WARMUP", DEFAULT_WARMUP)
}

/// Writes `doc` to `results/<name>.json` (creating the directory),
/// pretty-printed, and returns the path. Every experiment binary's
/// `--json` mode funnels through here so the output location is
/// uniform across figures.
///
/// # Errors
///
/// Propagates filesystem errors from creating the directory or writing
/// the file.
pub fn write_results_json(name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, doc.to_string_pretty())?;
    Ok(path)
}

/// Provenance for a multi-trace grid artifact (a whole figure or
/// table): named after the experiment, no single trace checksum,
/// the digest of the *base* configuration the grid varies from, and
/// the `grid` policy id. Single-trace single-policy artifacts should
/// build a precise [`Provenance`] instead.
pub fn grid_provenance(experiment: &str, base_cfg: &SimConfig) -> Provenance {
    Provenance::new(experiment, None, base_cfg.digest(), "grid")
}

/// Wraps `data` in the `{schema_version, provenance, data}` envelope
/// ([`clustered_stats::envelope`]) and writes it to
/// `results/<name>.json` via [`write_results_json`]. Every experiment
/// binary's `--json` mode funnels through here so each artifact
/// carries its provenance.
///
/// # Errors
///
/// As for [`write_results_json`].
pub fn write_results_envelope(
    name: &str,
    provenance: &Provenance,
    data: Json,
) -> std::io::Result<PathBuf> {
    write_results_json(name, &clustered_stats::envelope(provenance, data))
}

/// Runs `workload` under `cfg` and `policy`, discarding a warm-up and
/// returning statistics for the measured window.
///
/// # Panics
///
/// Panics if the configuration is invalid or the simulator reports an
/// internal stall — both indicate harness bugs, not experiment
/// outcomes.
pub fn run_experiment(
    workload: &Workload,
    cfg: SimConfig,
    policy: Box<dyn ReconfigPolicy>,
    warmup: u64,
    measure: u64,
) -> SimStats {
    let steering = SteeringKind::default();
    run_experiment_with(workload, cfg, policy, steering, NullObserver, warmup, measure).stats
}

/// [`run_experiment`] with an explicit steering heuristic and an
/// observer watching the run (live emulation through
/// [`drive`]): pass a [`DecisionTrace`](clustered_sim::DecisionTrace)
/// to collect decision telemetry, or a pair of observers to watch the
/// run several ways at once.
///
/// # Panics
///
/// As for [`run_experiment`].
pub fn run_experiment_with<O: SimObserver>(
    workload: &Workload,
    cfg: SimConfig,
    policy: Box<dyn ReconfigPolicy>,
    steering: SteeringKind,
    observer: O,
    warmup: u64,
    measure: u64,
) -> Run<O> {
    let stream = workload
        .trace()
        .map(|r| r.unwrap_or_else(|e| panic!("workload faulted during simulation: {e}")));
    drive(cfg, stream, policy, steering, observer, warmup, measure)
        .unwrap_or_else(|e| panic!("experiment run failed: {e}"))
}

/// Scans the command line for `--decisions DIR` and returns the
/// directory: the experiment binaries dump each run's decision trace
/// there. Exits with status 2 when the flag has no argument.
pub fn decisions_dir() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args.iter().position(|a| a == "--decisions").map(|i| {
        PathBuf::from(args.get(i + 1).unwrap_or_else(|| {
            eprintln!("--decisions expects a directory argument");
            std::process::exit(2);
        }))
    })
}

/// Turns an experiment-point label into a safe file stem: every
/// character outside `[A-Za-z0-9._-]` becomes `-`.
pub fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '-' })
        .collect()
}

/// Writes one run's decision trace to `<dir>/<sanitized label>.jsonl`
/// (creating the directory) and returns the path. When `provenance`
/// is given, the stream opens with one discriminated header line
/// (`{"event": "provenance", "provenance": {...}}`) so consumers can
/// tie the decisions back to the run that made them; the remaining
/// line schema is [`DecisionRecord::to_json`], documented in
/// EXPERIMENTS.md.
///
/// # Errors
///
/// Propagates filesystem errors from creating the directory or writing
/// the file.
pub fn write_decisions_jsonl(
    dir: &Path,
    label: &str,
    provenance: Option<&Provenance>,
    decisions: &[DecisionRecord],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.jsonl", sanitize_label(label)));
    let mut text = String::new();
    if let Some(p) = provenance {
        text.push_str(&decisions_provenance_header(p));
        text.push('\n');
    }
    text.push_str(&clustered_core::decisions_jsonl(decisions));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// The decision stream's provenance header as one compact JSON line
/// (without the trailing newline): discriminated from decision records
/// by its `event` key.
pub fn decisions_provenance_header(provenance: &Provenance) -> String {
    Json::object()
        .set("event", "provenance")
        .set("provenance", provenance.to_json())
        .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustered_sim::FixedPolicy;
    use clustered_workloads::by_name;

    #[test]
    fn run_experiment_measures_requested_window() {
        let w = by_name("gzip").unwrap();
        let s =
            run_experiment(&w, SimConfig::default(), Box::new(FixedPolicy::new(4)), 5_000, 10_000);
        assert!(s.committed >= 10_000);
        assert!(s.committed < 12_000);
        assert!(s.cycles > 0);
    }

    #[test]
    fn env_defaults() {
        assert_eq!(measure_instructions(), DEFAULT_MEASURE);
        assert_eq!(warmup_instructions(), DEFAULT_WARMUP);
    }

    #[test]
    fn decision_run_matches_plain_run_and_collects_records() {
        let w = by_name("gzip").unwrap();
        let policy = || Box::new(clustered_core::IntervalDistantIlp::with_interval(1_000));
        let plain = run_experiment(&w, SimConfig::default(), policy(), 5_000, 20_000);
        let with = run_experiment_with(
            &w,
            SimConfig::default(),
            policy(),
            SteeringKind::default(),
            clustered_sim::DecisionTrace::new(),
            5_000,
            20_000,
        );
        assert_eq!(plain, with.stats, "collecting decisions must not perturb the simulation");
        let decisions = with.observer.decisions();
        assert!(!decisions.is_empty(), "1k intervals over a 25k run must decide");
        assert_eq!(with.observer.dropped(), 0);
        let mut last = 0;
        for d in decisions {
            assert!(d.commit > last, "records in commit order");
            last = d.commit;
        }
    }

    #[test]
    fn labels_sanitize_to_safe_file_stems() {
        assert_eq!(sanitize_label("gzip/16"), "gzip-16");
        assert_eq!(sanitize_label("art (mono)"), "art--mono-");
        assert_eq!(sanitize_label("plain_name-1.2"), "plain_name-1.2");
    }
}
