//! The experiment registry: every table and figure of the paper's
//! evaluation as one [`Experiment`] value, run by the `experiments`
//! binary on the sweep executor.
//!
//! An experiment is a grid of (workload × configuration × policy)
//! points plus a renderer. Every spec captures each workload once in
//! memory ([`CapturedTrace::for_window`]), replays the captures on
//! [`run_sweep_with`] over [`jobs`] workers, and renders the
//! results in point order — so the printed text does not depend on the
//! worker count. `experiments all` is the concatenation of every
//! single-experiment output, in [`EXPERIMENTS`] order.
//!
//! # Examples
//!
//! ```
//! use clustered_bench::experiments::{find, Window};
//!
//! let tables = find("tables").unwrap();
//! let report = tables.run(Window { warmup: 0, measure: 0 }, 1, None).unwrap();
//! assert!(report.text.starts_with("Table 1"));
//! ```

use crate::sweep::{jobs, run_point, run_point_as, run_sweep_with, SweepOutcome, SweepPoint};
use crate::{DEFAULT_MEASURE, DEFAULT_WARMUP};
use clustered_core::phase::{instability_factor, minimum_stable_interval, IntervalRecord};
use clustered_core::{
    decisions_document, FineGrain, IntervalDistantIlp, IntervalDistantIlpConfig, IntervalExplore,
    IntervalExploreConfig, Timeline,
};
use clustered_sim::{
    estimate_energy, CacheModel, DecisionRecord, DecisionTrace, EnergyParams, FixedPolicy,
    ReconfigPolicy, SimConfig, SimStats, SteeringKind, Topology,
};
use clustered_stats::{geometric_mean, percent_change, Json, Provenance, Table};
use clustered_workloads::{catalog, CapturedTrace, NAMES};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `writeln!` into a `String`, which cannot fail.
macro_rules! outln {
    ($text:expr) => {
        $text.push('\n')
    };
    ($text:expr, $($arg:tt)*) => {{
        let _ = writeln!($text, $($arg)*);
    }};
}

/// The warm-up and measured instruction counts every point of an
/// experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Warm-up instructions (discarded).
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
}

impl Window {
    /// `CLUSTERED_WARMUP` / `CLUSTERED_MEASURE` read through `var`, or
    /// the defaults when unset; a set variable that is not a whole
    /// number is an error naming it.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Window, String> {
        let read = |name: &str, default| match var(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name} expects a number, got `{v}`")),
        };
        Ok(Window {
            warmup: read("CLUSTERED_WARMUP", DEFAULT_WARMUP)?,
            measure: read("CLUSTERED_MEASURE", DEFAULT_MEASURE)?,
        })
    }

    /// The exploration scheme's give-up bound. The paper's THRESH3
    /// (1 billion instructions) assumes billions-long runs, so it
    /// scales with the run.
    fn max_interval(self) -> u64 {
        (self.measure / 4).max(40_000)
    }

    /// A point over `trace` measured at this window.
    fn point(
        self,
        label: String,
        trace: &CapturedTrace,
        cfg: SimConfig,
        policy: impl Fn() -> Box<dyn ReconfigPolicy> + Send + Sync + 'static,
    ) -> SweepPoint {
        SweepPoint::new(label, trace, cfg, policy, self.warmup, self.measure)
    }
}

/// What one point's run hands back to the renderer.
#[derive(Debug)]
pub struct PointResult {
    /// Measured-window statistics.
    pub stats: SimStats,
    /// Per-interval records over the whole run, for specs with a
    /// [`Experiment::record_interval`]; empty otherwise.
    pub intervals: Vec<IntervalRecord>,
    /// The policy's decision trace when decisions are collected;
    /// empty otherwise.
    pub decisions: Vec<DecisionRecord>,
}

impl SweepOutcome for PointResult {
    fn sim_cycles(&self) -> Option<u64> {
        Some(self.stats.cycles)
    }
}

/// A rendered experiment.
#[derive(Debug)]
pub struct Report {
    /// The text the binary prints.
    pub text: String,
    /// The `--json` data document and the base configuration its
    /// provenance names, for specs that export one.
    pub json: Option<(SimConfig, Json)>,
}

impl Report {
    fn plain(text: String) -> Report {
        Report { text, json: None }
    }
}

/// One table or figure of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `experiments` selects it by.
    pub name: &'static str,
    /// The grid, in the order `render` reads the results.
    pub points: fn(Window) -> Vec<SweepPoint>,
    /// Renders the results, one per point, in point order.
    pub render: fn(Window, &[PointResult]) -> Report,
    /// When set, a [`Timeline`] with this base interval watches each
    /// point, and its records come back in [`PointResult::intervals`].
    pub record_interval: Option<u64>,
}

impl Experiment {
    /// Builds the grid, runs it on `jobs` workers and renders it. With
    /// `decisions`, every point's decision trace is written to
    /// `<decisions>/<name>/<label>.jsonl`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from writing decision traces.
    pub fn run(
        &self,
        window: Window,
        jobs: usize,
        decisions: Option<&Path>,
    ) -> std::io::Result<Report> {
        let points = (self.points)(window);
        let runs = run_sweep_with(&points, jobs, |p| {
            run_one(p, self.record_interval, decisions.is_some())
        });
        if let Some(dir) = decisions {
            let dir = dir.join(self.name);
            for (point, run) in points.iter().zip(&runs) {
                let policy = (point.policy)().name();
                let prov = Provenance::new(
                    point.trace.name(),
                    Some(point.trace_checksum()),
                    point.config_digest,
                    &policy,
                );
                write_decisions(&dir, &point.label, &prov, &run.decisions)?;
            }
        }
        Ok((self.render)(window, &runs))
    }
}

/// Writes one point's [`decisions_document`] to
/// `<dir>/<sanitized label>.jsonl`.
fn write_decisions(
    dir: &Path,
    label: &str,
    provenance: &Provenance,
    decisions: &[DecisionRecord],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let text = decisions_document(provenance, decisions);
    std::fs::write(dir.join(format!("{}.jsonl", sanitize_label(label))), text)
}

/// Turns a point label into a safe file stem: every character outside
/// `[A-Za-z0-9._-]` becomes `-`.
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '-' })
        .collect()
}

fn run_one(point: &SweepPoint, record_interval: Option<u64>, decisions: bool) -> PointResult {
    let (stats, (decisions, timeline)) = if record_interval.is_none() && !decisions {
        (run_point(point), (None, None))
    } else {
        let timeline =
            record_interval.map(|base| Timeline::new(base, (point.policy)().initial_clusters()));
        let run = run_point_as(point, (decisions.then(DecisionTrace::new), timeline));
        (run.stats, run.observer)
    };
    PointResult {
        stats,
        intervals: timeline.map_or_else(Vec::new, |t| t.records()),
        decisions: decisions.map_or_else(Vec::new, |d| d.into_decisions().0),
    }
}

/// An experiment without interval recording.
const fn spec(
    name: &'static str,
    points: fn(Window) -> Vec<SweepPoint>,
    render: fn(Window, &[PointResult]) -> Report,
) -> Experiment {
    Experiment { name, points, render, record_interval: None }
}

/// Every experiment, in the order `experiments all` runs them.
pub const EXPERIMENTS: [Experiment; 12] = [
    spec("tables", no_points, tables),
    spec("table3", table3_points, table3),
    Experiment {
        record_interval: Some(TABLE4_BASE_INTERVAL),
        ..spec("table4", table4_points, table4)
    },
    spec("fig3", fig3_points, fig3),
    spec("fig5", fig5_points, fig5),
    spec("fig6", fig6_points, fig6),
    spec("fig7", fig7_points, fig7),
    spec("fig8", fig8_points, fig8),
    spec("sensitivity", sensitivity_points, sensitivity),
    spec("ablation", ablation_points, ablation),
    spec("energy", energy_points, energy),
    spec("multithread", multithread_points, multithread),
];

/// The registered experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// How the `experiments` binary runs: the window, the sweep worker
/// count, and where `--json` documents go.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The window every point runs at.
    pub window: Window,
    /// Sweep worker count.
    pub jobs: usize,
    /// Directory receiving `<name>.json` under `--json`.
    pub results_dir: PathBuf,
}

impl Settings {
    /// The environment's window and worker count, writing JSON to
    /// `results/`.
    ///
    /// # Errors
    ///
    /// A message naming `CLUSTERED_WARMUP` or `CLUSTERED_MEASURE` when
    /// either is set to something other than a whole number, or naming
    /// `CLUSTERED_JOBS` when it is set to anything but a positive
    /// number.
    pub fn from_env() -> Result<Settings, String> {
        Settings::from_vars(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`Settings::from_env`] over any variable lookup.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Settings, String> {
        let window = Window::from_vars(&var)?;
        let jobs = jobs(var("CLUSTERED_JOBS").as_deref())?;
        Ok(Settings { window, jobs, results_dir: PathBuf::from("results") })
    }
}

/// The `experiments` usage text.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: experiments <name>|all [--json] [--decisions DIR]\nexperiments: {}",
        names.join(", ")
    )
}

/// Runs the `experiments` command line (`args` without the program
/// name), writing each experiment's output to `out` as it completes.
///
/// # Errors
///
/// A one-line message for an unknown name or flag, a repeated flag, or
/// a result file or `out` that cannot be written.
pub fn cli(
    args: &[String],
    settings: &Settings,
    out: &mut dyn std::io::Write,
) -> Result<(), String> {
    let mut json = false;
    let mut decisions: Option<PathBuf> = None;
    let mut name: Option<&str> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" if json => return Err("--json given more than once".into()),
            "--decisions" if decisions.is_some() => {
                return Err("--decisions given more than once".into())
            }
            "--json" => json = true,
            "--decisions" => match args.next() {
                Some(dir) if !dir.starts_with("--") => decisions = Some(PathBuf::from(dir)),
                _ => return Err("--decisions expects a directory".into()),
            },
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{}", usage()))
            }
            n if name.is_none() => name = Some(n),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let selected: Vec<&Experiment> = match name {
        Some("all") => EXPERIMENTS.iter().collect(),
        Some(n) => match find(n) {
            Some(e) => vec![e],
            None => return Err(format!("unknown experiment `{n}`\n{}", usage())),
        },
        None => return Err(usage()),
    };
    for exp in selected {
        let started = Instant::now();
        let report = exp
            .run(settings.window, settings.jobs, decisions.as_deref())
            .map_err(|e| format!("cannot write decision traces: {e}"))?;
        let mut notes = Vec::new();
        if let Some(dir) = &decisions {
            notes.push(format!("decision traces in {}", dir.join(exp.name).display()));
        }
        if let (true, Some((cfg, data))) = (json, report.json) {
            let prov = Provenance::new(exp.name, None, cfg.digest(), "grid")
                .with_wall_seconds(started.elapsed().as_secs_f64());
            let path = settings.results_dir.join(format!("{}.json", exp.name));
            std::fs::create_dir_all(&settings.results_dir)
                .and_then(|()| {
                    std::fs::write(&path, clustered_stats::envelope(&prov, data).to_string_pretty())
                })
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            notes.push(format!("wrote {}", path.display()));
        }
        // Notes follow the report after one blank line.
        let mut text = report.text;
        if !notes.is_empty() && !text.ends_with("\n\n") {
            text.push('\n');
        }
        for note in notes {
            outln!(text, "{note}");
        }
        out.write_all(text.as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| format!("cannot write output: {e}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Shared grid and rendering helpers.

/// Creates one point's policy; a function of the window so the
/// exploration scheme can scale its give-up bound.
type MakePolicy = fn(Window) -> Box<dyn ReconfigPolicy>;

/// A named policy column of a (workload × policy) figure.
type Column = (&'static str, MakePolicy);

const FIX4: Column = ("fix4", |_| Box::new(FixedPolicy::new(4)));
const FIX16: Column = ("fix16", |_| Box::new(FixedPolicy::new(16)));
const EXPLORE: Column = ("explore", |w| {
    Box::new(IntervalExplore::new(IntervalExploreConfig {
        max_interval: w.max_interval(),
        ..IntervalExploreConfig::default()
    }))
});
const NOEXP_1K: Column = ("noexp-1K", |_| Box::new(IntervalDistantIlp::with_interval(1_000)));
const NOEXP_10K: Column = ("noexp-10K", |_| Box::new(IntervalDistantIlp::with_interval(10_000)));

fn suite_traces(warmup: u64, measure: u64) -> Vec<CapturedTrace> {
    let capture = |w| CapturedTrace::for_window(w, warmup, measure);
    clustered_workloads::all().iter().map(capture).collect()
}

/// One point per (workload, column) under `cfg`, workload-major, every
/// column replaying the workload's one capture.
fn policy_grid(window: Window, cfg: SimConfig, columns: &[Column]) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for trace in suite_traces(window.warmup, window.measure) {
        for &(name, make) in columns {
            let label = format!("{}/{name}", trace.name());
            points.push(window.point(label, &trace, cfg, move || make(window)));
        }
    }
    points
}

fn geomean(series: &[f64]) -> f64 {
    geometric_mean(series).unwrap_or(0.0)
}

/// Each column's IPC across the suite, from workload-major results
/// with `cols` points per workload.
fn ipc_series(runs: &[PointResult], cols: usize) -> Vec<Vec<f64>> {
    (0..cols).map(|c| runs.chunks(cols).map(|row| row[c].stats.ipc()).collect()).collect()
}

/// A table row: `label`, then every run's IPC.
fn ipc_cells(label: &str, runs: &[PointResult]) -> Vec<String> {
    std::iter::once(label.to_string())
        .chain(runs.iter().map(|r| format!("{:.2}", r.stats.ipc())))
        .collect()
}

/// The `geomean` row: each series' geometric mean.
fn geomean_cells(series: &[Vec<f64>]) -> Vec<String> {
    std::iter::once("geomean".to_string())
        .chain(series.iter().map(|s| format!("{:.2}", geomean(s))))
        .collect()
}

/// A figure table headed `benchmark`, the column names, then `extra`.
fn figure_table(columns: &[Column], extra: &[&str]) -> Table {
    let headers: Vec<&str> = std::iter::once("benchmark")
        .chain(columns.iter().map(|c| c.0))
        .chain(extra.iter().copied())
        .collect();
    Table::new(&headers)
}

fn no_points(_: Window) -> Vec<SweepPoint> {
    Vec::new()
}

// ---------------------------------------------------------------------
// Tables 1 and 2: the simulated processor and cache parameters. These
// are configuration constants rather than measurements; the values
// actually used by `SimConfig::default()` are printed so they can be
// diffed against the paper.

fn tables(_: Window, _: &[PointResult]) -> Report {
    let cfg = SimConfig::default();
    let mut text = String::new();
    outln!(text, "Table 1: Simplescalar-style simulator parameters\n");
    let mut t1 = Table::new(&["parameter", "value"]);
    let f = &cfg.frontend;
    let b = &cfg.bpred;
    let c = &cfg.clusters;
    let rows: Vec<(&str, String)> = vec![
        ("Fetch queue size", f.fetch_queue.to_string()),
        ("Branch predictor", "comb. of bimodal and 2-level".into()),
        ("Bimodal predictor size", b.bimodal_size.to_string()),
        ("Level 1 predictor", format!("{} entries, history {}", b.l1_size, b.history_bits)),
        ("Level 2 predictor", format!("{} entries", b.l2_size)),
        ("BTB size", format!("{} sets, {}-way", b.btb_sets, b.btb_ways)),
        ("Branch mispredict penalty", format!("at least {} cycles", f.mispredict_penalty)),
        (
            "Fetch width",
            format!("{} (across up to {} basic blocks)", f.fetch_width, f.max_basic_blocks),
        ),
        ("Dispatch and commit width", f.dispatch_width.to_string()),
        ("Issue queue size", format!("{} in each cluster (int and fp, each)", c.int_iq)),
        ("Register file size", format!("{} in each cluster (int and fp, each)", c.int_regs)),
        ("Re-order Buffer (ROB) size", f.rob_size.to_string()),
        ("Integer ALUs/mult-div", format!("{}/{} (in each cluster)", c.int_alu, c.int_muldiv)),
        ("FP ALUs/mult-div", format!("{}/{} (in each cluster)", c.fp_alu, c.fp_muldiv)),
        (
            "L2 unified cache",
            format!(
                "{}MB {}-way, {} cycles",
                cfg.cache.l2_size / (1024 * 1024),
                cfg.cache.l2_assoc,
                cfg.cache.l2_latency
            ),
        ),
        ("Memory latency", format!("{} cycles for the first chunk", cfg.cache.mem_latency)),
    ];
    for (k, v) in rows {
        t1.row(&[k.to_string(), v]);
    }
    outln!(text, "{t1}");

    outln!(text, "Table 2: cache parameters for the two L1 organisations\n");
    let mut t2 = Table::new(&["parameter", "centralized", "decentralized (per cluster)"]);
    let cache = cfg.cache;
    let n = c.count;
    let rows: Vec<(&str, String, String)> = vec![
        (
            "Cache size",
            format!("{} KB", cache.l1_size / 1024),
            format!(
                "{} KB ({} KB total)",
                cache.l1_bank_size / 1024,
                cache.l1_bank_size * n / 1024
            ),
        ),
        ("Set-associativity", format!("{}-way", cache.l1_assoc), format!("{}-way", cache.l1_assoc)),
        ("Line size", format!("{} bytes", cache.l1_line), format!("{} bytes", cache.l1_bank_line)),
        ("Bandwidth", format!("{} words/cycle", cache.l1_banks), "1 word/cycle per bank".into()),
        (
            "RAM look-up time",
            format!("{} cycles", cache.l1_latency),
            format!("{} cycles", cache.l1_bank_latency),
        ),
        (
            "LSQ size",
            format!("{}", cache.lsq_per_cluster * n),
            format!("{}", cache.lsq_per_cluster),
        ),
    ];
    for (a, b, c) in rows {
        t2.row(&[a.to_string(), b, c]);
    }
    outln!(text, "{t2}");

    let doc = Json::object()
        .set("figure", "tables")
        .set(
            "table1",
            Json::object()
                .set("fetch_queue", f.fetch_queue)
                .set("bimodal_size", b.bimodal_size)
                .set("l1_predictor_entries", b.l1_size)
                .set("history_bits", b.history_bits)
                .set("l2_predictor_entries", b.l2_size)
                .set("btb_sets", b.btb_sets)
                .set("btb_ways", b.btb_ways)
                .set("mispredict_penalty", f.mispredict_penalty)
                .set("fetch_width", f.fetch_width)
                .set("max_basic_blocks", f.max_basic_blocks)
                .set("dispatch_width", f.dispatch_width)
                .set("commit_width", f.commit_width)
                .set("iq_per_cluster", c.int_iq)
                .set("regs_per_cluster", c.int_regs)
                .set("rob_size", f.rob_size)
                .set("int_alu_per_cluster", c.int_alu)
                .set("int_muldiv_per_cluster", c.int_muldiv)
                .set("fp_alu_per_cluster", c.fp_alu)
                .set("fp_muldiv_per_cluster", c.fp_muldiv)
                .set("clusters", c.count)
                .set("l2_size_bytes", cache.l2_size)
                .set("l2_assoc", cache.l2_assoc)
                .set("l2_latency", cache.l2_latency)
                .set("mem_latency", cache.mem_latency),
        )
        .set(
            "table2",
            Json::object()
                .set(
                    "centralized",
                    Json::object()
                        .set("l1_size_bytes", cache.l1_size)
                        .set("assoc", cache.l1_assoc)
                        .set("line_bytes", cache.l1_line)
                        .set("banks", cache.l1_banks)
                        .set("latency", cache.l1_latency)
                        .set("lsq_slots", cache.lsq_per_cluster * n),
                )
                .set(
                    "decentralized_per_cluster",
                    Json::object()
                        .set("bank_size_bytes", cache.l1_bank_size)
                        .set("assoc", cache.l1_assoc)
                        .set("line_bytes", cache.l1_bank_line)
                        .set("latency", cache.l1_bank_latency)
                        .set("lsq_slots", cache.lsq_per_cluster),
                ),
        );
    Report { text, json: Some((cfg, doc)) }
}

// ---------------------------------------------------------------------
// Table 3: measured base IPC on the monolithic processor (one cluster
// holding all 16 clusters' worth of resources, free bypassing) and the
// branch-misprediction interval, beside the paper's values for the
// original SPEC2k/Mediabench programs.

fn table3_points(window: Window) -> Vec<SweepPoint> {
    suite_traces(window.warmup, window.measure)
        .iter()
        .map(|trace| {
            let label = format!("{}/mono", trace.name());
            window.point(label, trace, SimConfig::monolithic(), || Box::new(FixedPolicy::new(1)))
        })
        .collect()
}

fn table3(window: Window, runs: &[PointResult]) -> Report {
    let mut text = String::new();
    outln!(text, "Table 3: benchmark description ({} measured instructions)\n", window.measure);
    let mut table = Table::new(&[
        "benchmark",
        "suite",
        "IPC",
        "paper IPC",
        "mispred interval",
        "paper interval",
        "memref %",
        "branch %",
    ]);
    let mut docs = Vec::new();
    for (k, run) in catalog().iter().zip(runs) {
        let (s, paper) = (&run.stats, k.paper);
        let memref_pct = 100.0 * s.memrefs as f64 / s.committed as f64;
        let branch_pct = 100.0 * s.branches as f64 / s.committed as f64;
        table.row(&[
            k.name.to_string(),
            paper.class.suite_name().to_string(),
            format!("{:.2}", s.ipc()),
            format!("{:.2}", paper.base_ipc),
            format!("{:.0}", s.mispredict_interval()),
            paper.mispredict_interval.to_string(),
            format!("{memref_pct:.1}"),
            format!("{branch_pct:.1}"),
        ]);
        docs.push(
            Json::object()
                .set("name", k.name)
                .set("suite", paper.class.suite_name())
                .set("ipc", s.ipc())
                .set("paper_ipc", paper.base_ipc)
                .set("mispredict_interval", s.mispredict_interval())
                .set("paper_mispredict_interval", u64::from(paper.mispredict_interval))
                .set("memref_pct", memref_pct)
                .set("branch_pct", branch_pct),
        );
    }
    outln!(text, "{table}");
    outln!(text, "The kernels are engineered to reproduce each benchmark's metric profile");
    outln!(text, "(branch-misprediction interval ordering, memory intensity, distant ILP),");
    outln!(text, "not its absolute IPC; see DESIGN.md for the substitution rationale.");
    let doc = window_doc("table3", window).set("workloads", Json::Arr(docs));
    Report { text, json: Some((SimConfig::monolithic(), doc)) }
}

/// The head every measured `--json` document starts with.
fn window_doc(figure: &str, window: Window) -> Json {
    Json::object()
        .set("figure", figure)
        .set("measure_instructions", window.measure)
        .set("warmup_instructions", window.warmup)
}

// ---------------------------------------------------------------------
// Table 4: per benchmark, the smallest interval length whose
// instability factor is below 5%, and the factor at the base interval.
// The paper's 10K base intervals over billions of instructions scale
// down to 1K over the window; the *ordering* is the reproduced result.

const TABLE4_BASE_INTERVAL: u64 = 1_000;

/// The paper's acceptable instability factor, in percent.
const TABLE4_ACCEPTABLE: f64 = 5.0;

/// One window over the whole run, recorded from the first commit; the
/// renderer drops the warm-up intervals.
fn table4_points(window: Window) -> Vec<SweepPoint> {
    let run = window.warmup + window.measure;
    suite_traces(0, run)
        .iter()
        .map(|trace| {
            let label = format!("{}/fixed16", trace.name());
            SweepPoint::new(
                label,
                trace,
                SimConfig::default(),
                || Box::new(FixedPolicy::new(16)),
                0,
                run,
            )
        })
        .collect()
}

/// The "min acceptable interval" and "its instability" cells. When no
/// tested length gets under the bar the interval reads `>coarsest`:
/// the factor shown is the coarsest length's, which did not qualify.
fn min_interval_cells(records: &[IntervalRecord]) -> [String; 2] {
    let (length, factor) =
        minimum_stable_interval(records, TABLE4_ACCEPTABLE).unwrap_or((0, f64::NAN));
    let length =
        if factor >= TABLE4_ACCEPTABLE { format!(">{length}") } else { length.to_string() };
    [length, format!("{factor:.0}%")]
}

fn table4(window: Window, runs: &[PointResult]) -> Report {
    let mut text = String::new();
    outln!(text, "Table 4: instability factors for different interval lengths");
    outln!(text, "(16 clusters, centralized cache; base interval {TABLE4_BASE_INTERVAL}, ");
    outln!(text, " {} measured instructions)\n", window.measure);
    let mut table = Table::new(&[
        "benchmark",
        "min acceptable interval",
        "its instability",
        &format!("instability @ {TABLE4_BASE_INTERVAL}"),
        "paper min (10K base)",
        "paper @10K",
    ]);
    let skip = (window.warmup / TABLE4_BASE_INTERVAL) as usize;
    for (k, run) in catalog().iter().zip(runs) {
        let records = &run.intervals[skip.min(run.intervals.len())..];
        let base_factor = instability_factor(records, 1).unwrap_or(f64::NAN);
        let [min_len, min_factor] = min_interval_cells(records);
        let paper = k.paper;
        table.row(&[
            k.name.to_string(),
            min_len,
            min_factor,
            format!("{base_factor:.0}%"),
            paper.min_stable_interval.to_string(),
            format!("{:.0}%", paper.instability_at_10k),
        ]);
    }
    outln!(text, "{table}");
    outln!(text, "Paper shape: the loop-based FP codes (swim, mgrid, galgel) are stable at");
    outln!(text, "the smallest interval; integer and phased codes (crafty, djpeg, vpr,");
    outln!(text, "parser) need intervals one or more doublings coarser.");
    Report::plain(text)
}

// ---------------------------------------------------------------------
// Figure 3: IPC of fixed 2-, 4-, 8- and 16-cluster organisations
// (centralized cache, ring interconnect), plus the monolithic baseline
// of Table 3 for reference.

const FIG3_COUNTS: [usize; 4] = [2, 4, 8, 16];

fn fig3_points(window: Window) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for trace in suite_traces(window.warmup, window.measure) {
        let name = trace.name();
        points.push(window.point(format!("{name}/mono"), &trace, SimConfig::monolithic(), || {
            Box::new(FixedPolicy::new(1))
        }));
        for n in FIG3_COUNTS {
            points.push(window.point(
                format!("{name}/{n}"),
                &trace,
                SimConfig::default(),
                move || Box::new(FixedPolicy::new(n)),
            ));
        }
    }
    points
}

fn fig3(window: Window, runs: &[PointResult]) -> Report {
    let mut text = String::new();
    outln!(text, "Figure 3: IPCs for fixed cluster organisations");
    outln!(
        text,
        "(centralized cache, ring interconnect; {} measured instructions)\n",
        window.measure
    );
    let mut table = Table::new(&["benchmark", "mono", "2", "4", "8", "16", "best"]);
    let mut docs = Vec::new();
    for (name, row) in NAMES.iter().zip(runs.chunks(1 + FIG3_COUNTS.len())) {
        let mono = row[0].stats.ipc();
        let mut cells = vec![name.to_string(), format!("{mono:.2}")];
        let mut best = (0usize, 0.0f64);
        let mut ipcs = Json::object();
        for (&n, run) in FIG3_COUNTS.iter().zip(&row[1..]) {
            let ipc = run.stats.ipc();
            cells.push(format!("{ipc:.2}"));
            ipcs = ipcs.set(&n.to_string(), ipc);
            if ipc > best.1 {
                best = (n, ipc);
            }
        }
        cells.push(best.0.to_string());
        table.row(&cells);
        docs.push(
            Json::object()
                .set("name", *name)
                .set("monolithic_ipc", mono)
                .set("ipc_by_clusters", ipcs)
                .set("best_clusters", best.0),
        );
    }
    let series = ipc_series(runs, 1 + FIG3_COUNTS.len());
    let mut means = vec!["geomean".to_string(), String::new()];
    let mut geomeans = Json::object();
    for (ipcs, n) in series[1..].iter().zip(FIG3_COUNTS) {
        let g = geomean(ipcs);
        means.push(format!("{g:.2}"));
        geomeans = geomeans.set(&n.to_string(), g);
    }
    means.push(String::new());
    table.row(&means);
    outln!(text, "{table}");
    outln!(text, "Paper shape: distant-ILP codes (djpeg, galgel, mgrid, swim) peak at 16");
    outln!(text, "clusters; branch-limited integer codes peak at ~4.");
    let counts = FIG3_COUNTS.iter().map(|&n| Json::from(n)).collect();
    let doc = window_doc("fig3", window)
        .set("cluster_counts", Json::Arr(counts))
        .set("workloads", Json::Arr(docs))
        .set("geomean_by_clusters", geomeans);
    Report { text, json: Some((SimConfig::default(), doc)) }
}

// ---------------------------------------------------------------------
// Figure 5: the static base cases (4 and 16 clusters) against the
// dynamic interval-based schemes — exploration with an adaptive
// interval, and the no-exploration distant-ILP scheme at three fixed
// interval lengths (centralized cache, ring interconnect).

const FIG5: [Column; 6] = [
    FIX4,
    FIX16,
    EXPLORE,
    NOEXP_1K,
    NOEXP_10K,
    ("noexp-100K", |_| Box::new(IntervalDistantIlp::with_interval(100_000))),
];

fn fig5_points(window: Window) -> Vec<SweepPoint> {
    policy_grid(window, SimConfig::default(), &FIG5)
}

fn fig5(window: Window, runs: &[PointResult]) -> Report {
    let mut text = String::new();
    outln!(text, "Figure 5: IPCs for the base cases and interval-based schemes");
    outln!(text, "(centralized cache, ring; {} measured instructions)\n", window.measure);
    let mut table = figure_table(&FIG5, &["avg-clusters"]);
    let mut speedups_explore = Vec::new();
    let mut speedups_noexp = Vec::new();
    for (name, row) in NAMES.iter().zip(runs.chunks(FIG5.len())) {
        let mut cells = ipc_cells(name, row);
        cells.push(format!("{:.1}", row[2].stats.avg_active_clusters()));
        table.row(&cells);
        let best_static = row[0].stats.ipc().max(row[1].stats.ipc());
        speedups_explore.push(row[2].stats.ipc() / best_static);
        speedups_noexp.push(row[3].stats.ipc() / best_static);
    }
    let series = ipc_series(runs, FIG5.len());
    let mut means = geomean_cells(&series);
    means.push(String::new());
    table.row(&means);
    outln!(text, "{table}");

    // The paper's headline compares the dynamic scheme against the best
    // *single* static organisation for the whole suite.
    let g = |i: usize| geomean(&series[i]);
    let best_static_org = g(0).max(g(1));
    outln!(
        text,
        "interval+exploration vs best static organisation: {:+.1}%  (paper: +11%)",
        percent_change(g(2), best_static_org).unwrap_or(0.0)
    );
    let best_noexp = g(3).max(g(4)).max(g(5));
    outln!(
        text,
        "best no-exploration   vs best static organisation: {:+.1}%  (paper: +11%)",
        percent_change(best_noexp, best_static_org).unwrap_or(0.0)
    );
    outln!(
        text,
        "per-benchmark: explore tracks best-of(4,16) at {:+.1}%, no-exp @1K at {:+.1}%",
        percent_change(geometric_mean(&speedups_explore).unwrap_or(1.0), 1.0).unwrap_or(0.0),
        percent_change(geometric_mean(&speedups_noexp).unwrap_or(1.0), 1.0).unwrap_or(0.0),
    );
    outln!(text, "\nPaper shape: the dynamic schemes match the better of 4/16 clusters per");
    outln!(text, "program (and beat both on phase-rich codes like gzip/vpr), gaining on");
    outln!(text, "average over any single fixed organisation.");
    Report::plain(text)
}

// ---------------------------------------------------------------------
// Figure 6: the base cases, the interval-based algorithm with
// exploration, and the two fine-grained reconfiguration schemes
// (every-5th-branch with 10 samples; subroutine call/return with 3
// samples), on the centralized cache model.

const FIG6: [Column; 5] = [
    FIX4,
    FIX16,
    EXPLORE,
    ("branch5", |_| Box::new(FineGrain::branch_policy())),
    ("call-ret", |_| Box::new(FineGrain::subroutine_policy())),
];

fn fig6_points(window: Window) -> Vec<SweepPoint> {
    policy_grid(window, SimConfig::default(), &FIG6)
}

fn fig6(window: Window, runs: &[PointResult]) -> Report {
    let mut text = String::new();
    outln!(text, "Figure 6: base cases, interval exploration, fine-grained schemes");
    outln!(text, "(centralized cache, ring; {} measured instructions)\n", window.measure);
    let mut table = figure_table(&FIG6, &["reconfigs"]);
    for (name, row) in NAMES.iter().zip(runs.chunks(FIG6.len())) {
        let mut cells = ipc_cells(name, row);
        cells.push(row[3].stats.reconfigurations.to_string());
        table.row(&cells);
    }
    let series = ipc_series(runs, FIG6.len());
    let mut means = geomean_cells(&series);
    means.push(String::new());
    table.row(&means);
    outln!(text, "{table}");

    let g = |i: usize| geomean(&series[i]);
    let best_static = g(0).max(g(1));
    let gain = |i: usize| percent_change(g(i), best_static).unwrap_or(0.0);
    outln!(text, "explore vs best static organisation:  {:+.1}%  (paper: +11%)", gain(2));
    outln!(text, "branch5 vs best static organisation:  {:+.1}%  (paper: +15%)", gain(3));
    outln!(text, "call-ret vs best static organisation: {:+.1}%", gain(4));
    outln!(text, "\nPaper shape: the fine-grained schemes add a few percent over the");
    outln!(text, "interval scheme by catching short phases (djpeg, cjpeg, crafty,");
    outln!(text, "parser, vpr); gzip is the exception, where early samples mispredict");
    outln!(text, "later behaviour.");
    Report::plain(text)
}

// ---------------------------------------------------------------------
// Figure 7: the decentralized cache model — static 4/16 plus the
// interval-based schemes (with exploration; without exploration at two
// interval lengths). Reconfiguration here stalls the pipeline and
// flushes the L1, so the dynamic schemes must hold reconfiguration
// frequency down.

const FIG7: [Column; 5] = [FIX4, FIX16, EXPLORE, NOEXP_1K, NOEXP_10K];

fn fig7_points(window: Window) -> Vec<SweepPoint> {
    let mut cfg = SimConfig::default();
    cfg.cache.model = CacheModel::Decentralized;
    policy_grid(window, cfg, &FIG7)
}

fn fig7(window: Window, runs: &[PointResult]) -> Report {
    let mut text = String::new();
    outln!(text, "Figure 7: interval-based schemes on the decentralized cache");
    outln!(
        text,
        "(per-cluster banks + bank prediction, ring; {} measured instructions)\n",
        window.measure
    );
    let mut table = figure_table(&FIG7, &["flush-wb", "bank-acc"]);
    for (name, row) in NAMES.iter().zip(runs.chunks(FIG7.len())) {
        let explore = &row[2].stats;
        let mut cells = ipc_cells(name, row);
        cells.push(explore.flush_writebacks.to_string());
        cells.push(format!("{:.2}", explore.bank_accuracy()));
        table.row(&cells);
    }
    let series = ipc_series(runs, FIG7.len());
    let mut means = geomean_cells(&series);
    means.extend([String::new(), String::new()]);
    table.row(&means);
    outln!(text, "{table}");

    let g = |i: usize| geomean(&series[i]);
    outln!(
        text,
        "explore vs best static organisation: {:+.1}%  (paper: +10%)",
        percent_change(g(2), g(0).max(g(1))).unwrap_or(0.0)
    );
    outln!(text, "\nPaper shape: the trend matches the centralized model; because every");
    outln!(text, "reconfiguration costs a drain + L1 flush, the exploration scheme (few");
    outln!(text, "reconfigurations) is preferred and flush writebacks stay low.");
    Report::plain(text)
}

// ---------------------------------------------------------------------
// Figure 8: the grid interconnect — static 4/16 and the interval
// scheme with exploration, on the centralized cache. Better
// connectivity shrinks the communication penalty, so the 16-cluster
// base case improves and the dynamic gain narrows (paper: +7% vs +11%
// on the ring).

const FIG8: [Column; 3] = [FIX4, FIX16, EXPLORE];

fn fig8_points(window: Window) -> Vec<SweepPoint> {
    let mut cfg = SimConfig::default();
    cfg.interconnect.topology = Topology::Grid;
    policy_grid(window, cfg, &FIG8)
}

fn fig8(window: Window, runs: &[PointResult]) -> Report {
    let mut text = String::new();
    outln!(text, "Figure 8: interval-based scheme on the grid interconnect");
    outln!(text, "(centralized cache; {} measured instructions)\n", window.measure);
    let mut table = figure_table(&FIG8, &[]);
    for (name, row) in NAMES.iter().zip(runs.chunks(FIG8.len())) {
        table.row(&ipc_cells(name, row));
    }
    let series = ipc_series(runs, FIG8.len());
    table.row(&geomean_cells(&series));
    outln!(text, "{table}");

    let g = |i: usize| geomean(&series[i]);
    outln!(
        text,
        "grid 16-cluster vs 4-cluster: {:+.1}%  (paper: 16 clusters +8% over 4)",
        percent_change(g(1), g(0)).unwrap_or(0.0)
    );
    outln!(
        text,
        "explore vs best static organisation: {:+.1}%  (paper: +7%)",
        percent_change(g(2), g(0).max(g(1))).unwrap_or(0.0)
    );
    Report::plain(text)
}

// ---------------------------------------------------------------------
// Section 6 sensitivity analysis: interval exploration against the
// static base cases while varying per-cluster resources, functional
// units and hop latency.

/// A sensitivity variant: its name, the paper's gain, and how it
/// changes the machine.
type Variant = (&'static str, &'static str, fn(&mut SimConfig));

const SENSITIVITY: [Variant; 5] = [
    ("baseline", "+11%", |_| {}),
    ("small-clusters", "+8%", |c| {
        (c.clusters.int_iq, c.clusters.fp_iq) = (10, 10);
        (c.clusters.int_regs, c.clusters.fp_regs) = (20, 20);
    }),
    ("large-clusters", "+13%", |c| {
        (c.clusters.int_iq, c.clusters.fp_iq) = (20, 20);
        (c.clusters.int_regs, c.clusters.fp_regs) = (40, 40);
    }),
    ("more-fus", "~+11%", |c| {
        (c.clusters.int_alu, c.clusters.int_muldiv) = (2, 2);
        (c.clusters.fp_alu, c.clusters.fp_muldiv) = (2, 2);
    }),
    ("slow-wires", "+23%", |c| c.interconnect.hop_latency = 2),
];

const SENSITIVITY_COLUMNS: [Column; 3] = [FIX4, FIX16, EXPLORE];

/// Variant-major: every variant's (workload × column) grid replays the
/// same captures.
fn sensitivity_points(window: Window) -> Vec<SweepPoint> {
    let traces = suite_traces(window.warmup, window.measure);
    let mut points = Vec::new();
    for (variant, _, change) in SENSITIVITY {
        let mut cfg = SimConfig::default();
        change(&mut cfg);
        for trace in &traces {
            for &(name, make) in &SENSITIVITY_COLUMNS {
                let label = format!("{variant}/{}/{name}", trace.name());
                points.push(window.point(label, trace, cfg, move || make(window)));
            }
        }
    }
    points
}

fn sensitivity(window: Window, runs: &[PointResult]) -> Report {
    let mut text = String::new();
    outln!(text, "Section 6: sensitivity of the dynamic scheme to processor parameters");
    outln!(text, "({} measured instructions per run)\n", window.measure);
    let mut table = Table::new(&["variant", "fix4", "fix16", "explore", "gain", "paper gain"]);
    let mut docs = Vec::new();
    let per_variant = NAMES.len() * SENSITIVITY_COLUMNS.len();
    for ((name, paper, _), grid) in SENSITIVITY.iter().zip(runs.chunks(per_variant)) {
        let g: Vec<f64> =
            ipc_series(grid, SENSITIVITY_COLUMNS.len()).iter().map(|s| geomean(s)).collect();
        let gain = percent_change(g[2], g[0].max(g[1])).unwrap_or(0.0);
        table.row(&[
            name.to_string(),
            format!("{:.2}", g[0]),
            format!("{:.2}", g[1]),
            format!("{:.2}", g[2]),
            format!("{gain:+.1}%"),
            paper.to_string(),
        ]);
        docs.push(
            Json::object()
                .set("name", *name)
                .set("fixed4_geomean_ipc", g[0])
                .set("fixed16_geomean_ipc", g[1])
                .set("explore_geomean_ipc", g[2])
                .set("gain_pct", gain)
                .set("paper_gain", *paper),
        );
    }
    outln!(text, "{table}");
    outln!(text, "Paper shape: with fewer per-cluster resources the wide base improves");
    outln!(text, "(smaller dynamic gain); with larger clusters or costlier hops the");
    outln!(text, "narrow configurations win more often and the dynamic gain grows.");
    let doc = window_doc("sensitivity", window).set("variants", Json::Arr(docs));
    Report { text, json: Some((SimConfig::default(), doc)) }
}

// ---------------------------------------------------------------------
// Ablations of the design choices DESIGN.md calls out: steering
// heuristic and imbalance threshold, criticality predictor, exploration
// menu, distant-ILP threshold. Each row is one suite's geomean IPC.

type SharedPolicy = Arc<dyn Fn() -> Box<dyn ReconfigPolicy> + Send + Sync>;

/// One ablation table.
struct Section {
    /// The `--json` key and decision-trace label prefix.
    key: &'static str,
    /// The printed heading.
    title: &'static str,
    /// The first column's header.
    header: &'static str,
    rows: Vec<(String, SimConfig, SteeringKind, SharedPolicy)>,
}

fn ablation_sections(window: Window) -> Vec<Section> {
    let cfg = SimConfig::default();
    let fixed16: SharedPolicy = Arc::new(|| Box::new(FixedPolicy::new(16)));
    let steering = [
        ("producer (thresh 4)", SteeringKind::Producer { imbalance_threshold: 4 }),
        ("producer (thresh 1)", SteeringKind::Producer { imbalance_threshold: 1 }),
        ("producer (thresh 12)", SteeringKind::Producer { imbalance_threshold: 12 }),
        ("Mod_4", SteeringKind::ModN(4)),
        ("First_Fit", SteeringKind::FirstFit),
    ]
    .into_iter()
    .map(|(name, kind)| (name.to_string(), cfg, kind, Arc::clone(&fixed16)))
    .collect();
    let criticality = [("trained table (paper)", true), ("arrival estimate", false)]
        .into_iter()
        .map(|(name, enabled)| {
            let mut c = cfg;
            c.crit.enabled = enabled;
            (name.to_string(), c, SteeringKind::default(), Arc::clone(&fixed16))
        })
        .collect();
    let max_interval = window.max_interval();
    let explore_configs =
        [("2/4/8/16", vec![2usize, 4, 8, 16]), ("4/16", vec![4, 16]), ("8/16", vec![8, 16])]
            .into_iter()
            .map(|(name, configs)| {
                let policy: SharedPolicy = Arc::new(move || {
                    Box::new(IntervalExplore::new(IntervalExploreConfig {
                        max_interval,
                        explore_configs: configs.clone(),
                        ..IntervalExploreConfig::default()
                    }))
                });
                (name.to_string(), cfg, SteeringKind::default(), policy)
            })
            .collect();
    let distant_threshold = [80u64, 160, 320]
        .into_iter()
        .map(|threshold| {
            let policy: SharedPolicy = Arc::new(move || {
                Box::new(IntervalDistantIlp::new(IntervalDistantIlpConfig {
                    distant_threshold_per_k: threshold,
                    ..IntervalDistantIlpConfig::default()
                }))
            });
            (threshold.to_string(), cfg, SteeringKind::default(), policy)
        })
        .collect();
    vec![
        Section {
            key: "steering",
            title: "A. Steering heuristic (fixed 16 clusters):",
            header: "steering",
            rows: steering,
        },
        Section {
            key: "criticality",
            title: "B. Criticality predictor (fixed 16 clusters):",
            header: "criticality source",
            rows: criticality,
        },
        Section {
            key: "explore_configs",
            title: "C. Exploration configuration set (interval scheme):",
            header: "configs",
            rows: explore_configs,
        },
        Section {
            key: "distant_threshold",
            title: "D. Distant-ILP threshold (no-exploration scheme, 1K interval):",
            header: "threshold per 1000",
            rows: distant_threshold,
        },
    ]
}

/// Row-major: one suite pass per (section, row).
fn ablation_points(window: Window) -> Vec<SweepPoint> {
    let traces = suite_traces(window.warmup, window.measure);
    let mut points = Vec::new();
    for section in ablation_sections(window) {
        for (name, cfg, steering, policy) in section.rows {
            for trace in &traces {
                let label = format!("{}/{name}/{}", section.key, trace.name());
                let policy = Arc::clone(&policy);
                points.push(window.point(label, trace, cfg, move || policy()).steering(steering));
            }
        }
    }
    points
}

fn ablation(window: Window, runs: &[PointResult]) -> Report {
    let mut text = String::new();
    outln!(text, "Ablations ({} measured instructions per run)\n", window.measure);
    let mut suites = runs.chunks(NAMES.len());
    let mut sections = Json::object();
    for section in ablation_sections(window) {
        outln!(text, "{}", section.title);
        let mut table = Table::new(&[section.header, "suite geomean IPC"]);
        let mut rows = Vec::new();
        for ((name, ..), suite) in section.rows.iter().zip(&mut suites) {
            let ipcs: Vec<f64> = suite.iter().map(|r| r.stats.ipc()).collect();
            let g = geomean(&ipcs);
            table.row(&[name.clone(), format!("{g:.3}")]);
            rows.push(Json::object().set("name", name.as_str()).set("geomean_ipc", g));
        }
        outln!(text, "{table}");
        sections = sections.set(section.key, Json::Arr(rows));
    }
    outln!(text, "The paper's choices — producer steering with a moderate imbalance");
    outln!(text, "threshold, the full 2/4/8/16 exploration set, and the 160/1000");
    outln!(text, "distant-ILP threshold — should be at or near the top of each table.");
    let doc = window_doc("ablation", window).set("sections", sections);
    Report { text, json: Some((SimConfig::default(), doc)) }
}

// ---------------------------------------------------------------------
// The paper's energy argument (§1/§8): the clusters interval
// exploration disables can be power-gated, saving leakage against the
// fixed 16-cluster base (`clustered_sim::estimate_energy`'s model).

const ENERGY: [Column; 2] = [FIX16, EXPLORE];

fn energy_points(window: Window) -> Vec<SweepPoint> {
    policy_grid(window, SimConfig::default(), &ENERGY)
}

fn energy(window: Window, runs: &[PointResult]) -> Report {
    let params = EnergyParams::default();
    let mut text = String::new();
    outln!(text, "Energy impact of dynamic cluster allocation");
    outln!(text, "({} measured instructions; power-gated disabled clusters)\n", window.measure);
    let mut table = Table::new(&[
        "benchmark",
        "avg disabled",
        "leakage vs fix16",
        "total vs fix16",
        "IPC vs fix16",
    ]);
    let mut disabled_sum = 0.0;
    let mut docs = Vec::new();
    for (name, pair) in NAMES.iter().zip(runs.chunks(ENERGY.len())) {
        let (fixed, dynamic) = (&pair[0].stats, &pair[1].stats);
        let e_fixed = estimate_energy(fixed, &params);
        let e_dynamic = estimate_energy(dynamic, &params);
        let disabled = 16.0 - dynamic.avg_active_clusters();
        disabled_sum += disabled;
        let leakage_ratio = (e_dynamic.active_leakage + e_dynamic.idle_leakage)
            / (e_fixed.active_leakage + e_fixed.idle_leakage).max(1e-9);
        let total_ratio = e_dynamic.total() / e_fixed.total().max(1e-9);
        let ipc_ratio = dynamic.ipc() / fixed.ipc().max(1e-9);
        table.row(&[
            name.to_string(),
            format!("{disabled:.1}"),
            format!("{:.0}%", 100.0 * leakage_ratio),
            format!("{:.0}%", 100.0 * total_ratio),
            format!("{:.0}%", 100.0 * ipc_ratio),
        ]);
        docs.push(
            Json::object()
                .set("name", *name)
                .set("avg_disabled_clusters", disabled)
                .set("leakage_vs_fixed16", leakage_ratio)
                .set("total_energy_vs_fixed16", total_ratio)
                .set("ipc_vs_fixed16", ipc_ratio),
        );
    }
    let mean_disabled = disabled_sum / NAMES.len() as f64;
    outln!(text, "{table}");
    outln!(text, "mean disabled clusters: {mean_disabled:.1} of 16  (paper: 8.3)");
    outln!(text, "\nDisabled clusters can instead host other threads: the same allocation");
    outln!(text, "that optimises one thread frees, on average, half the machine.");
    let doc = window_doc("energy", window)
        .set("workloads", Json::Arr(docs))
        .set("mean_disabled_clusters", mean_disabled);
    Report { text, json: Some((SimConfig::default(), doc)) }
}

// ---------------------------------------------------------------------
// The paper's multithreading argument (§1/§8): a partitioned machine
// beats time-multiplexing two threads over the whole chip. Each thread
// runs on an independent machine sized to its partition; cross-thread
// interconnect/L2 interference is not modelled, which slightly favours
// partitioning.

/// A distant-ILP thread with a communication-bound one, plus a
/// like-with-like pairing.
const PAIRINGS: [(&str, &str); 3] = [("swim", "vpr"), ("djpeg", "parser"), ("gzip", "crafty")];

/// Each thread measures half the window: two runs per pairing.
fn multithread_window(window: Window) -> Window {
    Window { measure: window.measure / 2, ..window }
}

/// Eight points per pairing: both threads at 16, 8+8, 12+4 and 4+12.
fn multithread_points(window: Window) -> Vec<SweepPoint> {
    let window = multithread_window(window);
    let capture = |name| {
        let w = clustered_workloads::by_name(name).expect("known workload");
        CapturedTrace::for_window(&w, window.warmup, window.measure)
    };
    let mut points = Vec::new();
    for (a, b) in PAIRINGS {
        let (ta, tb) = (capture(a), capture(b));
        for (trace, clusters) in
            [(&ta, 16), (&tb, 16), (&ta, 8), (&tb, 8), (&ta, 12), (&tb, 4), (&ta, 4), (&tb, 12)]
        {
            let mut cfg = SimConfig::default();
            cfg.clusters.count = clusters;
            let label = format!("{}/{clusters}", trace.name());
            points.push(
                window.point(label, trace, cfg, move || Box::new(FixedPolicy::new(clusters))),
            );
        }
    }
    points
}

fn multithread(window: Window, runs: &[PointResult]) -> Report {
    let window = multithread_window(window);
    let mut text = String::new();
    outln!(text, "Cluster partitioning for two-thread throughput");
    outln!(text, "({} measured instructions per thread)\n", window.measure);
    let mut table = Table::new(&[
        "thread pair",
        "time-mux 16 (IPC sum)",
        "8+8 split",
        "12+4 split",
        "best split gain",
    ]);
    let mut docs = Vec::new();
    for ((a, b), run) in PAIRINGS.iter().zip(runs.chunks(8)) {
        let ipc: Vec<f64> = run.iter().map(|r| r.stats.ipc()).collect();
        // Time multiplexing: each thread gets the whole machine for
        // half the time → throughput is the mean of the solo IPCs.
        let timemux = (ipc[0] + ipc[1]) / 2.0;
        // Even split: both threads run concurrently on 8 clusters each.
        let even = ipc[2] + ipc[3];
        // Asymmetric split guided by the single-thread preference: the
        // distant-ILP thread gets 12, the narrow one 4.
        let skewed = (ipc[4] + ipc[5]).max(ipc[6] + ipc[7]);
        let best = even.max(skewed);
        table.row(&[
            format!("{a}+{b}"),
            format!("{timemux:.2}"),
            format!("{even:.2}"),
            format!("{skewed:.2}"),
            format!("{:+.0}%", 100.0 * (best / timemux - 1.0)),
        ]);
        docs.push(
            Json::object()
                .set("threads", Json::Arr(vec![Json::from(*a), Json::from(*b)]))
                .set("timemux_ipc_sum", timemux)
                .set("split_8_8_ipc_sum", even)
                .set("split_12_4_ipc_sum", skewed)
                .set("best_split_gain", best / timemux - 1.0),
        );
    }
    outln!(text, "{table}");
    outln!(text, "Paper claim (qualitative): after optimising one thread, more than");
    outln!(text, "eight clusters remain for others, and dedicating cluster subsets to");
    outln!(text, "threads avoids cross-thread interference — partitioned throughput");
    outln!(text, "beats time-multiplexing the monolithic-width machine.");
    let doc = window_doc("multithread", window).set("pairings", Json::Arr(docs));
    Report { text, json: Some((SimConfig::default(), doc)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(cycles: &[u64]) -> Vec<IntervalRecord> {
        cycles
            .iter()
            .map(|&c| IntervalRecord {
                instructions: 1_000,
                cycles: c,
                branches: 100,
                memrefs: 300,
            })
            .collect()
    }

    /// Table 4 names an interval only when one got under the 5% bar;
    /// otherwise the row says none did and still shows the factor.
    #[test]
    fn table4_row_says_when_no_interval_qualifies() {
        // IPC halves every interval, so every grouping is unstable and
        // the coarsest tested length (4 × 1000) fails too.
        let slowing: Vec<u64> = (0..8).map(|i| 1_000 << i).collect();
        let [length, factor] = min_interval_cells(&records(&slowing));
        assert_eq!(length, ">4000");
        assert_eq!(factor, "100%");
        let steady = records(&[1_000; 8]);
        assert_eq!(min_interval_cells(&steady), ["1000".to_string(), "0%".into()]);
    }

    #[test]
    fn window_defaults() {
        let window = Window::from_vars(|_| None);
        assert_eq!(window, Ok(Window { warmup: DEFAULT_WARMUP, measure: DEFAULT_MEASURE }));
    }

    /// A typo in a window variable is an error naming the variable,
    /// not a silent fall-back to the (long) default window.
    #[test]
    fn window_rejects_unparsable_variables() {
        let vars = |warmup: &'static str, measure: &'static str| {
            move |name: &str| {
                Some(if name == "CLUSTERED_WARMUP" { warmup } else { measure }.to_string())
            }
        };
        let window = Window::from_vars(vars("20000", "2000"));
        assert_eq!(window, Ok(Window { warmup: 20_000, measure: 2_000 }));
        let err = Window::from_vars(vars("20k", "2000")).unwrap_err();
        assert!(err.contains("CLUSTERED_WARMUP") && err.contains("`20k`"), "{err}");
        let err = Window::from_vars(vars("20000", "")).unwrap_err();
        assert!(err.contains("CLUSTERED_MEASURE"), "{err}");
    }

    /// Unset `CLUSTERED_JOBS` means every core; a set value must be a
    /// positive number, never a silent fall-back to every core.
    #[test]
    fn settings_reject_unparsable_jobs() {
        let jobs = |value: Option<&'static str>| {
            let var = move |name: &str| (name == "CLUSTERED_JOBS").then_some(value?.to_string());
            Settings::from_vars(var).map(|s| s.jobs)
        };
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(jobs(None), Ok(cores));
        assert_eq!(jobs(Some("3")), Ok(3));
        for bad in ["abc", "", "0", "-1"] {
            let err = jobs(Some(bad)).unwrap_err();
            assert!(err.contains("CLUSTERED_JOBS") && err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn labels_sanitize_to_safe_file_stems() {
        assert_eq!(sanitize_label("gzip/16"), "gzip-16");
        assert_eq!(sanitize_label("art (mono)"), "art--mono-");
        assert_eq!(sanitize_label("plain_name-1.2"), "plain_name-1.2");
    }

    #[test]
    fn names_and_labels_are_unique() {
        let window = Window { warmup: 0, measure: 1_000 };
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|o| o.name != e.name), "{} twice", e.name);
            let mut labels: Vec<String> = (e.points)(window).into_iter().map(|p| p.label).collect();
            let n = labels.len();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), n, "{}: decision-trace labels collide", e.name);
        }
    }

    #[test]
    fn cli_rejects_bad_command_lines() {
        let settings =
            Settings { window: Window { warmup: 0, measure: 0 }, jobs: 1, results_dir: "r".into() };
        let run = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            cli(&args, &settings, &mut Vec::new())
        };
        for bad in [
            &[][..],
            &["fig4"],
            &["tables", "--jsn"],
            &["tables", "--decisions"],
            &["tables", "--decisions", "--json"],
            &["tables", "fig3"],
            &["tables", "--json", "--json"],
            &["fig3", "--decisions", "a", "--decisions", "b"],
        ] {
            assert!(run(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(run(&["tables"]), Ok(()));
    }
}
