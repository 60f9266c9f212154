//! Parallel sweep executor: a declarative grid of experiment points
//! run concurrently over shared captured traces.
//!
//! Every figure and table of the paper is a grid of (workload ×
//! configuration × policy) simulations. The points are independent, so
//! the executor attacks the two redundancies of the old serial loop:
//!
//! 1. **Shared emulation** — each workload's dynamic stream is
//!    captured once ([`CapturedTrace`]) and every point replays the
//!    same buffer, instead of re-running the functional emulator per
//!    point.
//! 2. **Parallel execution** — points fan out over a scoped
//!    `std::thread` worker pool (no external dependencies; the build
//!    is offline). Results return in input order and are bit-identical
//!    to a serial run — each point's simulation is fully isolated, and
//!    `tests/sweep.rs` pins the equivalence.
//!
//! [`run_point`] returns a point's statistics; [`run_point_as`] also
//! attaches an observer, built on the worker that runs the point, and
//! returns it in the [`Run`]: Table 4 reads a
//! [`Timeline`](clustered_core::Timeline)'s interval records, and
//! `experiments --decisions` a
//! [`DecisionTrace`](clustered_sim::DecisionTrace).
//!
//! The `experiments` binary's worker count defaults to the host's
//! available parallelism; `CLUSTERED_JOBS=n` overrides it
//! (`CLUSTERED_JOBS=1` forces the serial path), and any other value is
//! an error ([`jobs`]).
//!
//! Long grids are silent by default. Set `CLUSTERED_PROGRESS=1` to get
//! one stderr line per completed point (completion count, label,
//! per-point wall time, cumulative elapsed, and an ETA extrapolated
//! from completed-point throughput) as the sweep runs — or set it to a
//! path ending in `.jsonl` to append one structured heartbeat record
//! per completion instead (schema in EXPERIMENTS.md), the stream a
//! sweep coordinator can consume.
//!
//! # Examples
//!
//! ```
//! use clustered_bench::sweep::{run_point, run_sweep_with, SweepPoint};
//! use clustered_sim::{FixedPolicy, SimConfig};
//! use clustered_workloads::CapturedTrace;
//!
//! let gzip = clustered_workloads::by_name("gzip").unwrap();
//! let trace = CapturedTrace::for_window(&gzip, 1_000, 5_000);
//! let points: Vec<SweepPoint> = [2usize, 4]
//!     .iter()
//!     .map(|&n| {
//!         SweepPoint::new(
//!             format!("gzip/{n}"),
//!             &trace,
//!             SimConfig::default(),
//!             move || Box::new(FixedPolicy::new(n)),
//!             1_000,
//!             5_000,
//!         )
//!     })
//!     .collect();
//! let stats = run_sweep_with(&points, 2, run_point); // input order, regardless of finish order
//! assert_eq!(stats.len(), 2);
//! assert!(stats.iter().all(|s| s.committed >= 5_000));
//! ```

use clustered_sim::{
    drive, NullObserver, ReconfigPolicy, Run, SimConfig, SimObserver, SimStats, SteeringKind,
};
use clustered_workloads::{CapturedTrace, CompiledTrace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Creates a fresh policy instance for one experiment point.
///
/// Policies are stateful and not shareable across runs, so each point
/// carries a factory; the executor instantiates the policy on whichever
/// worker thread picks the point up.
pub type PolicyFactory = Box<dyn Fn() -> Box<dyn ReconfigPolicy> + Send + Sync>;

/// One point of an experiment grid: a captured trace plus the timing
/// configuration, steering heuristic, policy, and measurement window
/// to simulate it under.
pub struct SweepPoint {
    /// Display label (`workload/config` by convention).
    pub label: String,
    /// The shared dynamic-instruction stream (cheap clone of an
    /// [`Arc`](std::sync::Arc)-backed buffer).
    pub trace: CapturedTrace,
    /// The trace's pre-decoded form, which the point runners actually
    /// replay: a view sharing the capture's table and record stream,
    /// so every point sharing a capture shares one copy of each.
    pub compiled: CompiledTrace,
    /// Timing-model configuration.
    pub cfg: SimConfig,
    /// Steering heuristic.
    pub steering: SteeringKind,
    /// Reconfiguration-policy factory.
    pub policy: PolicyFactory,
    /// Warm-up instructions (discarded).
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
    /// Digest of the timing configuration
    /// ([`SimConfig::digest`](clustered_sim::SimConfig::digest)),
    /// likewise stamped into heartbeats.
    pub config_digest: u64,
}

impl SweepPoint {
    /// A point with the default steering heuristic.
    pub fn new(
        label: impl Into<String>,
        trace: &CapturedTrace,
        cfg: SimConfig,
        policy: impl Fn() -> Box<dyn ReconfigPolicy> + Send + Sync + 'static,
        warmup: u64,
        measure: u64,
    ) -> SweepPoint {
        SweepPoint {
            label: label.into(),
            trace: trace.clone(),
            compiled: trace.compile(),
            cfg,
            steering: SteeringKind::default(),
            policy: Box::new(policy),
            warmup,
            measure,
            config_digest: cfg.digest(),
        }
    }

    /// FNV-1a checksum of the captured dynamic stream
    /// ([`CapturedTrace::checksum`]), stamped into heartbeat records
    /// and `--decisions` headers so a consumer can tie each point back
    /// to the exact trace it replayed. The capture computes it on the
    /// first call and shares it with every point replaying it, so a
    /// sweep that stamps nothing never hashes its traces.
    pub fn trace_checksum(&self) -> u64 {
        self.trace.checksum()
    }

    /// Replaces the steering heuristic (builder style).
    pub fn steering(mut self, steering: SteeringKind) -> SweepPoint {
        self.steering = steering;
        self
    }
}

impl std::fmt::Debug for SweepPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepPoint")
            .field("label", &self.label)
            .field("trace", &self.trace.name().to_string())
            .field("warmup", &self.warmup)
            .field("measure", &self.measure)
            .finish_non_exhaustive()
    }
}

/// The sweep worker count for a `CLUSTERED_JOBS` value: the value when
/// it is a positive integer, the host's available parallelism when the
/// variable is unset (`None`).
///
/// # Errors
///
/// A message naming `CLUSTERED_JOBS` for any other value (`abc`, an
/// empty value, `0`).
pub fn jobs(value: Option<&str>) -> Result<usize, String> {
    let Some(v) = value else {
        return Ok(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    };
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("CLUSTERED_JOBS expects a positive number, got `{v}`")),
    }
}

/// Runs one point: instantiates its policy, replays the compiled form
/// of its captured trace (pre-decoded micro-ops, block-batched fetch),
/// and returns the measured-window statistics (identical to
/// [`run_experiment`](crate::run_experiment) on the live workload —
/// the golden test in `tests/sweep.rs` pins this).
///
/// # Panics
///
/// Panics if the captured trace is exhausted before the measurement
/// window completes (the capture was too short for this window —
/// never the case for traces built by [`CapturedTrace::for_window`]),
/// or on the configuration/stall conditions of
/// [`run_experiment`](crate::run_experiment).
pub fn run_point(point: &SweepPoint) -> SimStats {
    run_point_as(point, NullObserver).stats
}

/// [`run_point`] with an `observer` watching the run: e.g. a
/// [`Timeline`](clustered_core::Timeline) for Table 4's interval
/// records, or a [`DecisionTrace`](clustered_sim::DecisionTrace) for
/// the `experiments --decisions` dumps. The observer is built on the
/// worker that runs the point and comes back in the [`Run`].
///
/// # Panics
///
/// As for [`run_point`].
pub fn run_point_as<O: SimObserver>(point: &SweepPoint, observer: O) -> Run<O> {
    let run = drive(
        point.cfg,
        point.compiled.replay(),
        (point.policy)(),
        point.steering,
        observer,
        point.warmup,
        point.measure,
    )
    .unwrap_or_else(|e| panic!("sweep point `{}` failed: {e}", point.label));
    assert!(
        run.stats.committed >= point.measure || point.trace.ended_at_halt(),
        "sweep point `{}`: captured trace ({} records) exhausted mid-run; \
         capture a longer window",
        point.label,
        point.trace.len(),
    );
    run
}

/// Where per-point progress reports go, decided by
/// `CLUSTERED_PROGRESS`:
///
/// * `1` — one human-readable stderr line per completed point;
/// * a path ending in `.jsonl` — one structured heartbeat JSON object
///   per line, appended to that file (the stream the future sweep
///   coordinator consumes);
/// * anything else (unset, `0`, empty, junk) — silence.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ProgressMode {
    Off,
    Stderr,
    Jsonl(std::path::PathBuf),
}

/// The pure decision seam behind the progress sink, unit-testable
/// without mutating the process environment. Leading/trailing
/// whitespace is ignored; an unrecognised value is `Off`, never an
/// error — progress is best-effort observability.
fn progress_mode_from(value: Option<&str>) -> ProgressMode {
    match value.map(str::trim) {
        Some("1") => ProgressMode::Stderr,
        Some(v) if v.len() > ".jsonl".len() && v.ends_with(".jsonl") => {
            ProgressMode::Jsonl(std::path::PathBuf::from(v))
        }
        _ => ProgressMode::Off,
    }
}

/// Whether `CLUSTERED_PROGRESS` selects the human-readable stderr
/// lines (the original boolean seam, kept for its edge-case tests).
#[cfg(test)]
fn progress_enabled_from(value: Option<&str>) -> bool {
    progress_mode_from(value) == ProgressMode::Stderr
}

/// Remaining wall-clock estimate from completed-point throughput:
/// `elapsed / done` per point times the points left. `None` until the
/// first point completes (no throughput to extrapolate from).
/// `None` also covers a non-finite extrapolation (a clock glitch or an
/// absurd point count must yield a null `eta_s`, never `inf`/`NaN` in
/// the heartbeat stream or an `infs` on stderr).
fn eta_seconds(elapsed: f64, done: usize, total: usize) -> Option<f64> {
    if done == 0 {
        return None;
    }
    Some(elapsed / done as f64 * total.saturating_sub(done) as f64).filter(|s| s.is_finite())
}

/// One structured heartbeat record for `point` (see EXPERIMENTS.md,
/// "Sweep heartbeats").
fn heartbeat_json(
    point: &SweepPoint,
    worker: usize,
    done: usize,
    total: usize,
    point_s: f64,
    elapsed_s: f64,
    sim_cycles: Option<u64>,
) -> clustered_stats::Json {
    use clustered_stats::Json;
    let eta = eta_seconds(elapsed_s, done, total);
    let per_s =
        sim_cycles.filter(|_| point_s > 0.0).map(|c| c as f64 / point_s).filter(|r| r.is_finite());
    Json::object()
        .set("event", "point")
        .set("label", point.label.as_str())
        .set("worker", worker)
        .set("done", done)
        .set("total", total)
        .set("point_s", point_s)
        .set("elapsed_s", elapsed_s)
        .set("eta_s", eta.map_or(Json::Null, Json::from))
        .set("sim_cycles", sim_cycles.map_or(Json::Null, Json::from))
        .set("sim_cycles_per_s", per_s.map_or(Json::Null, Json::from))
        .set("trace_checksum", point.trace_checksum())
        .set("config_digest", point.config_digest)
}

/// The per-sweep progress reporter: formats stderr lines or appends
/// heartbeat JSONL, per [`ProgressMode`]. All failures are soft — a
/// progress stream that cannot be written must never kill a sweep.
struct ProgressSink {
    mode: ProgressMode,
    started: Instant,
    total: usize,
    file: Option<std::fs::File>,
}

impl ProgressSink {
    fn new(total: usize, workers: usize) -> ProgressSink {
        let (mode, file) =
            match progress_mode_from(std::env::var("CLUSTERED_PROGRESS").ok().as_deref()) {
                ProgressMode::Jsonl(path) => {
                    match std::fs::OpenOptions::new().create(true).append(true).open(&path) {
                        Ok(f) => (ProgressMode::Jsonl(path), Some(f)),
                        Err(e) => {
                            eprintln!(
                                "clustered-sweep: cannot open progress stream {}: {e}",
                                path.display()
                            );
                            (ProgressMode::Off, None)
                        }
                    }
                }
                other => (other, None),
            };
        let mut sink = ProgressSink { mode, started: Instant::now(), total, file };
        if matches!(sink.mode, ProgressMode::Jsonl(_)) {
            sink.emit(
                clustered_stats::Json::object()
                    .set("event", "sweep_start")
                    .set("total", total)
                    .set("workers", workers),
            );
        }
        sink
    }

    fn emit(&mut self, line: clustered_stats::Json) {
        use std::io::Write;
        if let Some(f) = &mut self.file {
            let _ = writeln!(f, "{}", line.to_string_compact());
        }
    }

    fn point(
        &mut self,
        done: usize,
        point: &SweepPoint,
        worker: usize,
        point_s: f64,
        sim_cycles: Option<u64>,
    ) {
        let elapsed = self.started.elapsed().as_secs_f64();
        match self.mode {
            ProgressMode::Off => {}
            ProgressMode::Stderr => {
                let eta = match eta_seconds(elapsed, done, self.total) {
                    Some(s) => format!("{s:.1}s"),
                    None => "?".to_string(),
                };
                eprintln!(
                    "clustered-sweep: [{done}/{total}] {label} ({point_s:.2}s point, \
                     {elapsed:.1}s elapsed, eta {eta})",
                    total = self.total,
                    label = point.label,
                );
            }
            ProgressMode::Jsonl(_) => {
                let line =
                    heartbeat_json(point, worker, done, self.total, point_s, elapsed, sim_cycles);
                self.emit(line);
            }
        }
    }

    fn finish(&mut self) {
        if matches!(self.mode, ProgressMode::Jsonl(_)) {
            let line = clustered_stats::Json::object()
                .set("event", "sweep_end")
                .set("total", self.total)
                .set("elapsed_s", self.started.elapsed().as_secs_f64());
            self.emit(line);
        }
    }
}

/// Per-point result types the sweep executor can report throughput
/// for: the heartbeat stream quotes `sim_cycles()` (when known) as
/// sim-cycles/sec per completed point.
pub trait SweepOutcome {
    /// Simulated cycles of the point's measured window, if the result
    /// carries them.
    fn sim_cycles(&self) -> Option<u64> {
        None
    }
}

impl SweepOutcome for SimStats {
    fn sim_cycles(&self) -> Option<u64> {
        Some(self.cycles)
    }
}

impl<O> SweepOutcome for Run<O> {
    fn sim_cycles(&self) -> Option<u64> {
        Some(self.stats.cycles)
    }
}

/// The sweep executor: applies `runner` to every point on up to `jobs`
/// worker threads and returns the results in input order. With
/// `jobs == 1` the points run on the calling thread, in order; any
/// other worker count gives bit-identical results, because every
/// simulation is isolated.
///
/// Pass [`run_point`] for plain statistics, or a closure over
/// [`run_point_as`] to watch each point with an observer; any result
/// type implementing [`SweepOutcome`] works. With
/// `CLUSTERED_PROGRESS=1` each completed point logs one stderr line
/// (with cumulative elapsed time and an ETA) as it finishes, in
/// completion (not input) order; with `CLUSTERED_PROGRESS=<path>.jsonl`
/// the same completions stream as structured heartbeat records instead.
///
/// # Panics
///
/// Propagates panics from worker threads (a panicking point poisons
/// the whole sweep — grids are expected to be panic-free).
pub fn run_sweep_with<R, F>(points: &[SweepPoint], jobs: usize, runner: F) -> Vec<R>
where
    R: Send + SweepOutcome,
    F: Fn(&SweepPoint) -> R + Sync,
{
    let n = points.len();
    let workers = jobs.min(n).max(1);
    let mut sink = ProgressSink::new(n, workers);
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for (i, point) in points.iter().enumerate() {
            let started = Instant::now();
            out.push(runner(point));
            let cycles = out.last().expect("just pushed").sim_cycles();
            sink.point(i + 1, point, 0, started.elapsed().as_secs_f64(), cycles);
        }
        sink.finish();
        return out;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, usize, R, f64)>();
    let runner = &runner;
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut filled = 0usize;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let started = Instant::now();
                let result = runner(&points[i]);
                if tx.send((w, i, result, started.elapsed().as_secs_f64())).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Drain on the calling thread while workers run, so progress
        // lines appear live rather than after the final barrier.
        for (w, i, result, seconds) in rx {
            let cycles = result.sim_cycles();
            out[i] = Some(result);
            filled += 1;
            sink.point(filled, &points[i], w, seconds, cycles);
        }
    });
    sink.finish();
    assert_eq!(filled, n, "sweep lost results (worker thread died?)");
    out.into_iter().map(|r| r.expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_flag_requires_exactly_one() {
        assert!(progress_enabled_from(Some("1")));
        assert!(progress_enabled_from(Some(" 1 ")), "whitespace is trimmed");
        assert!(!progress_enabled_from(Some("0")));
        assert!(!progress_enabled_from(Some("yes")));
        assert!(!progress_enabled_from(Some("")));
        assert!(!progress_enabled_from(Some("   ")));
        assert!(!progress_enabled_from(Some("11")));
        assert!(!progress_enabled_from(Some("true")));
        assert!(!progress_enabled_from(Some("progress.jsonl")), "jsonl selects the stream mode");
        assert!(!progress_enabled_from(None));
    }

    #[test]
    fn progress_mode_distinguishes_stderr_jsonl_and_off() {
        use super::ProgressMode::*;
        assert_eq!(progress_mode_from(Some("1")), Stderr);
        assert_eq!(
            progress_mode_from(Some("/tmp/hb.jsonl")),
            Jsonl(std::path::PathBuf::from("/tmp/hb.jsonl"))
        );
        assert_eq!(
            progress_mode_from(Some("  run.jsonl\n")),
            Jsonl(std::path::PathBuf::from("run.jsonl")),
            "whitespace trimmed before the suffix check"
        );
        for junk in [None, Some("0"), Some(""), Some("  "), Some("2"), Some(".jsonl"), Some("x")] {
            assert_eq!(progress_mode_from(junk), Off, "junk value {junk:?} must be Off");
        }
    }

    #[test]
    fn eta_extrapolates_from_completed_point_throughput() {
        assert_eq!(eta_seconds(10.0, 0, 4), None, "no throughput before the first point");
        assert_eq!(eta_seconds(10.0, 2, 4), Some(10.0), "2 done in 10s -> 2 left in 10s");
        assert_eq!(eta_seconds(9.0, 3, 3), Some(0.0), "done sweep has nothing left");
        assert_eq!(eta_seconds(5.0, 4, 3), Some(0.0), "overshoot saturates, never negative");
        assert_eq!(eta_seconds(0.0, 1, 4), Some(0.0), "zero elapsed is a zero eta, not NaN");
        assert_eq!(
            eta_seconds(f64::MAX, 1, usize::MAX),
            None,
            "a non-finite extrapolation degrades to unknown"
        );
    }

    /// A gzip point over a short capture, as a heartbeat reports it.
    fn gzip_point() -> SweepPoint {
        let gzip = clustered_workloads::by_name("gzip").expect("gzip is a kernel");
        let trace = CapturedTrace::capture(&gzip, 2_000);
        SweepPoint::new(
            "gzip/4",
            &trace,
            SimConfig::default(),
            || Box::new(clustered_sim::FixedPolicy::new(4)),
            0,
            1_000,
        )
    }

    #[test]
    fn heartbeat_never_records_nonfinite_rates() {
        use clustered_stats::Json;
        let p = gzip_point();
        // First point of the sweep: no throughput yet, eta_s is null.
        let line = heartbeat_json(&p, 0, 0, 8, 0.5, 0.5, Some(40_000));
        assert_eq!(line.get("eta_s"), Some(&Json::Null));
        // Zero-duration point (timer granularity): no cycles/s rate,
        // and the zero-elapsed eta stays a number, not NaN.
        let line = heartbeat_json(&p, 0, 1, 8, 0.0, 0.0, Some(40_000));
        assert_eq!(line.get("sim_cycles_per_s"), Some(&Json::Null));
        assert_eq!(line.get("eta_s").and_then(Json::as_f64), Some(0.0));
        // Subnormal point time would overflow the rate to inf.
        let line = heartbeat_json(&p, 0, 1, 8, f64::MIN_POSITIVE, 1.0, Some(u64::MAX));
        assert_eq!(line.get("sim_cycles_per_s"), Some(&Json::Null));
    }

    #[test]
    fn heartbeat_record_has_the_documented_schema() {
        use clustered_stats::Json;
        let p = gzip_point();
        let line = heartbeat_json(&p, 2, 3, 8, 0.5, 6.0, Some(40_000));
        assert_eq!(
            line.keys().unwrap(),
            vec![
                "event",
                "label",
                "worker",
                "done",
                "total",
                "point_s",
                "elapsed_s",
                "eta_s",
                "sim_cycles",
                "sim_cycles_per_s",
                "trace_checksum",
                "config_digest"
            ]
        );
        assert_eq!(line.get("event").and_then(Json::as_str), Some("point"));
        assert_eq!(line.get("eta_s").and_then(Json::as_f64), Some(10.0));
        assert_eq!(line.get("sim_cycles_per_s").and_then(Json::as_f64), Some(80_000.0));
        assert_eq!(line.get("label").and_then(Json::as_str), Some("gzip/4"));
        // Computed on demand, the checksum is still the capture's own.
        let gzip = clustered_workloads::by_name("gzip").expect("gzip is a kernel");
        let checksum = CapturedTrace::capture(&gzip, 2_000).checksum();
        assert_eq!(line.get("trace_checksum").and_then(Json::as_u64), Some(checksum));
        assert_eq!(
            line.get("config_digest").and_then(Json::as_u64),
            Some(SimConfig::default().digest())
        );
        // Every line parses back — the stream is consumable by the
        // stats crate's own parser.
        let reparsed = clustered_stats::json::parse(&line.to_string_compact()).unwrap();
        assert_eq!(reparsed, line);
        // A runner without cycle counts degrades to nulls, not lies.
        let bare = heartbeat_json(&p, 0, 1, 1, 0.0, 0.0, None);
        assert_eq!(bare.get("sim_cycles"), Some(&Json::Null));
        assert_eq!(bare.get("sim_cycles_per_s"), Some(&Json::Null));
    }
}
