//! One benchmark for the `clustered` simulator: four named workloads,
//! end-to-end metrics from untraced repetitions, per-crate metrics from
//! a traced run, and a correctness check on every simulated point.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|smoke|paper] [--json <out.json>] [--trace-file <out.json>]
//!           [--write-expected]
//! benchmark compare <A.json|A-dir> <B.json|B-dir>
//! ```
//!
//! Prints every metric as `name value unit`, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` beside this crate for the workloads, the metrics and
//! the seed rule.

mod compare;
mod metrics;
mod runner;
mod spans;
mod suite;
mod summary;

use metrics::{Metric, END_TO_END, PER_LAYER};
use runner::{Clock, Ctx, Mode, PointRun, Rep};
use spans::SpanLog;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use suite::{Kind, Scale, Setup};
use summary::{median, tail};

use clustered_sim::{HostStage, SimConfig};
use clustered_stats::{geometric_mean, Json, Provenance};
use clustered_workloads::CapturedTrace;

/// Least setups timed per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Least seconds of setup timed per untraced run.
const SETUP_SECONDS: f64 = 0.5;

/// Most setups timed per untraced run.
const SETUP_REPEATS_MAX: usize = 500;

/// Instructions per program the emulator probe drains.
const PROBE_INSTRUCTIONS: u64 = 200_000;

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
struct Options {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    json: Option<PathBuf>,
    trace_file: Option<PathBuf>,
    write_expected: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut opts = Options {
        kind: Kind::Fig3Grid,
        seed: 1,
        seconds: 10.0,
        traced: false,
        scale: Scale::Full,
        json: None,
        trace_file: None,
        write_expected: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            opts.write_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::from_name(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => opts.scale = Scale::from_name(value).ok_or_else(bad)?,
            "--json" => opts.json = Some(PathBuf::from(value)),
            "--trace-file" => opts.trace_file = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.kind = kind.ok_or("--workload is required")?;
    if opts.traced && opts.trace_file.is_none() {
        opts.trace_file = Some(PathBuf::from(format!(
            ".bench_out/{}-seed{}.trace.json",
            opts.kind.name(),
            opts.seed
        )));
    }
    if opts.write_expected && (opts.seed != 1 || opts.scale != Scale::Full) {
        return Err("--write-expected takes seed 1 at full scale".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    // The sweep executor's progress lines would interleave with the
    // benchmark's output.
    std::env::remove_var("CLUSTERED_PROGRESS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--scale full|smoke|paper] [--json <path>] [--trace-file <path>] [--write-expected]\n       \
                 benchmark compare <A> <B>",
                suite::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for line in &report.lines {
        println!("{line}");
    }
    if let Err(e) = write_outputs(&opts, &report) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line().to_string_compact());
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One measured metric.
#[derive(Debug, Clone)]
struct Value {
    metric: &'static Metric,
    value: f64,
    /// Per-repetition values, for `compare`'s spread rule.
    samples: Vec<f64>,
}

/// Everything one run produced.
struct Report {
    values: Vec<Value>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    lines: Vec<String>,
    data: Json,
    spans: SpanLog,
    digests: BTreeMap<String, u64>,
}

impl Report {
    fn ok(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The last line of standard output.
    fn result_line(&self) -> Json {
        let mut metrics = Json::object();
        for v in &self.values {
            metrics = metrics.set(
                v.metric.name,
                Json::object()
                    .set("value", v.value)
                    .set("unit", v.metric.unit),
            );
        }
        Json::object()
            .set("correct", self.ok())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics)
    }
}

fn write_outputs(opts: &Options, report: &Report) -> Result<(), String> {
    let write = |path: &PathBuf, doc: &Json| -> Result<(), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.to_string_pretty() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    if let Some(path) = &opts.json {
        let mut prov = Provenance::new(
            &format!("benchmark/{}", opts.kind.name()),
            None,
            SimConfig::default().digest(),
            "grid",
        );
        prov.seed = opts.seed;
        write(path, &clustered_stats::envelope(&prov, report.data.clone()))?;
    }
    if let Some(path) = opts.trace_file.as_ref().filter(|_| opts.traced) {
        write(path, &report.spans.chrome_trace())?;
    }
    if opts.write_expected {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected"))
            .join(format!("{}.json", opts.kind.name()));
        write(&path, &expected_doc(opts.kind, &report.digests))?;
    }
    Ok(())
}

fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// Point label → hex digest, as run documents and `expected/` hold them.
fn digests_json(digests: &BTreeMap<String, u64>) -> Json {
    let mut map = Json::object();
    for (label, d) in digests {
        map = map.set(label, hex(*d));
    }
    map
}

fn expected_doc(kind: Kind, digests: &BTreeMap<String, u64>) -> Json {
    Json::object()
        .set("workload", kind.name())
        .set("seed", 1u64)
        .set("scale", "full")
        .set("digests", digests_json(digests))
}

/// The committed seed-1 digests of `kind`.
fn expected_digests(kind: Kind) -> BTreeMap<String, String> {
    let text = match kind {
        Kind::Fig3Grid => include_str!("../expected/fig3_grid.json"),
        Kind::Fig5Live => include_str!("../expected/fig5_live.json"),
        Kind::Wide16Dec => include_str!("../expected/wide16_dec.json"),
        Kind::PhasedReconfig => include_str!("../expected/phased_reconfig.json"),
    };
    let doc = clustered_stats::json::parse(text).expect("expected digests parse");
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(pairs)) = doc.get("digests") {
        for (label, d) in pairs {
            out.insert(label.clone(), d.as_str().unwrap_or_default().to_string());
        }
    }
    out
}

/// Runs one benchmark invocation (minus its file outputs).
fn run(opts: &Options) -> Report {
    let mut provenance = Provenance::new("benchmark", None, SimConfig::default().digest(), "grid");
    provenance.seed = opts.seed;
    let ctx = Ctx {
        clock: Clock::start(),
        provenance,
    };
    let mut lines = vec![
        format!(
            "benchmark {} seed {} scale {} trace {} (nproc {})",
            opts.kind.name(),
            opts.seed,
            opts.scale.name(),
            u8::from(opts.traced),
            nproc()
        ),
        format!("why: {}", opts.kind.def().why),
    ];
    let mut spans = SpanLog::default();
    let root = spans.push(None, "workload", opts.kind.name(), 0, 0);

    let setup = suite::prepare(opts.kind, opts.seed, opts.scale, &ctx.clock);
    for s in &setup.spans {
        spans.push(Some(root), s.name, "", s.start_ns, s.end_ns);
    }
    let probes = opts
        .traced
        .then(|| probe(opts.kind, &setup, &ctx, &mut spans, root));
    // One untimed repetition first warms the allocator and caches, and
    // every later digest is checked against it. Untraced runs then time
    // the library path, so the first pass is a plain one: it counts each
    // point's whole-run instructions and cycles, which the library path
    // does not return. Traced runs time the plain and profiled paths,
    // so the first pass is the library reference they must match.
    // Peak memory is read after it — one setup plus one pass over the
    // grid, what a single run costs — before later repetitions' threads
    // and the setup repeats below leave allocator-retained memory
    // behind.
    let (first, round): (Mode, &[Mode]) = if opts.traced {
        (Mode::Library, &[Mode::Plain, Mode::Profiled])
    } else {
        (Mode::Plain, &[Mode::Library])
    };
    let mut reps = vec![runner::run_rep(&setup, first, &ctx)];
    let peak_rss = peak_rss_mib();
    timed_repetitions(&setup, round, opts.seconds, &ctx, &mut reps);
    spans.close(root, ctx.clock.ns());

    // Untraced runs time the setup again, at least SETUP_REPEATS times
    // and SETUP_SECONDS in all, so millisecond setups still give a
    // steady median.
    let mut setup_s = vec![setup.seconds];
    while !opts.traced
        && setup_s.len() < SETUP_REPEATS_MAX
        && (setup_s.len() < SETUP_REPEATS || setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        setup_s.push(suite::prepare(opts.kind, opts.seed, opts.scale, &ctx.clock).seconds);
    }
    lines.push(format!(
        "setup: {} points; {} setup(s), median {:.4} s, max {:.4} s",
        setup.point_count(),
        setup_s.len(),
        median(&setup_s),
        setup_s.iter().copied().fold(0.0, f64::max)
    ));
    for rep in &reps {
        lines.push(format!(
            "rep {:<8} {:.4} s",
            rep.mode.as_str(),
            rep.seconds()
        ));
        record_rep(&mut spans, root, rep);
    }

    let (attempted, failed, problems, digests) = check(opts, &reps);
    let values = if opts.traced {
        let probes = probes.expect("traced runs probe");
        per_layer(&setup, &reps, &probes, &mut lines)
    } else {
        end_to_end(&setup_s, &reps, peak_rss, &mut lines)
    };
    let self_times = spans.self_times();
    if opts.traced {
        lines.push(format!(
            "{:<20} {:>6} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        ));
        for t in &self_times {
            lines.push(format!(
                "{:<20} {:>6} {:>12.6} {:>12.6}",
                t.name, t.count, t.total_s, t.self_s
            ));
        }
    }
    for p in &problems {
        lines.push(format!("problem: {p}"));
    }
    for v in &values {
        lines.push(format!("{} {} {}", v.metric.name, v.value, v.metric.unit));
    }

    let mut metrics = Json::object();
    for v in &values {
        metrics = metrics.set(
            v.metric.name,
            Json::object()
                .set("value", v.value)
                .set("unit", v.metric.unit)
                .set(
                    "samples",
                    Json::Arr(v.samples.iter().map(|&s| Json::from(s)).collect()),
                ),
        );
    }
    let self_doc: Vec<Json> = self_times
        .iter()
        .map(|t| {
            Json::object()
                .set("name", t.name)
                .set("count", t.count)
                .set("total_s", t.total_s)
                .set("self_s", t.self_s)
        })
        .collect();
    let data = Json::object()
        .set("workload", opts.kind.name())
        .set("seed", opts.seed)
        .set("scale", opts.scale.name())
        .set("trace", u64::from(opts.traced))
        .set("seconds", opts.seconds)
        .set("nproc", nproc())
        .set("points", setup.point_count())
        .set("repetitions", reps.len())
        .set("attempted", attempted)
        .set("failed", failed)
        .set("correct", failed == 0 && problems.is_empty())
        .set(
            "problems",
            Json::Arr(problems.iter().map(|p| Json::from(p.as_str())).collect()),
        )
        .set("metrics", metrics)
        .set("self_time", Json::Arr(self_doc))
        .set("digests", digests_json(&digests));
    Report {
        values,
        attempted,
        failed,
        problems,
        lines,
        data,
        spans,
        digests,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Rounds of repetitions until `seconds` is used up (at least one).
fn timed_repetitions(setup: &Setup, round: &[Mode], seconds: f64, ctx: &Ctx, reps: &mut Vec<Rep>) {
    let started = Instant::now();
    loop {
        let round_start = Instant::now();
        for &mode in round {
            reps.push(runner::run_rep(setup, mode, ctx));
        }
        // Stop before a round that would overrun the budget.
        if (started.elapsed() + round_start.elapsed()).as_secs_f64() > seconds {
            return;
        }
    }
}

/// Records a repetition's spans.
fn record_rep(spans: &mut SpanLog, root: usize, rep: &Rep) {
    let r = spans.push(
        Some(root),
        "repetition",
        rep.mode.as_str(),
        rep.start_ns,
        rep.end_ns,
    );
    for p in &rep.points {
        let id = spans.push(Some(r), "point", p.label.as_str(), p.start_ns, p.end_ns);
        for phase in p.outcome.iter().flat_map(|o| &o.phases) {
            spans.push(Some(id), phase.name, "", phase.start_ns, phase.end_ns);
        }
    }
}

/// Failure counts and correctness problems over every repetition:
/// each point must finish, agree with every other repetition's digest
/// for its label, and — for seed 1 at full scale — match the committed
/// digest.
fn check(opts: &Options, reps: &[Rep]) -> (u64, u64, Vec<String>, BTreeMap<String, u64>) {
    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = Vec::new();
    let mut digests: BTreeMap<String, u64> = BTreeMap::new();
    for rep in reps {
        for p in &rep.points {
            attempted += 1;
            match &p.outcome {
                Err(why) => {
                    failed += 1;
                    problems.push(format!("{} ({}): {why}", p.label, rep.mode.as_str()));
                }
                Ok(o) => {
                    let first = *digests.entry(p.label.clone()).or_insert(o.digest);
                    if first != o.digest {
                        problems.push(format!(
                            "{} ({}): digest {} differs from {}",
                            p.label,
                            rep.mode.as_str(),
                            hex(o.digest),
                            hex(first)
                        ));
                    }
                }
            }
        }
    }
    if opts.seed == 1 && opts.scale == Scale::Full && !opts.write_expected {
        let expected = expected_digests(opts.kind);
        for (label, d) in &digests {
            match expected.get(label) {
                Some(e) if *e == hex(*d) => {}
                Some(e) => problems.push(format!("{label}: digest {} != expected {e}", hex(*d))),
                None => problems.push(format!("{label}: no expected digest")),
            }
        }
    }
    (attempted, failed, problems, digests)
}

fn ok_points(rep: &Rep) -> impl Iterator<Item = (&PointRun, &runner::Outcome)> {
    rep.points
        .iter()
        .filter_map(|p| p.outcome.as_ref().ok().map(|o| (p, o)))
}

fn metric(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .expect("metric is defined")
}

fn value(name: &str, samples: Vec<f64>) -> Value {
    Value {
        metric: metric(name),
        value: median(&samples),
        samples,
    }
}

fn single(name: &str, v: f64) -> Value {
    Value {
        metric: metric(name),
        value: v,
        samples: vec![v],
    }
}

/// The end-to-end metrics of an untraced run: its library-path
/// repetitions, timed, with each point's whole-run work as the plain
/// repetition counted it (the digests show both paths simulate the
/// same thing).
fn end_to_end(setup_s: &[f64], reps: &[Rep], peak_rss: f64, lines: &mut Vec<String>) -> Vec<Value> {
    let work: HashMap<&str, clustered_sim::SimStats> = reps
        .iter()
        .filter(|r| r.mode == Mode::Plain)
        .flat_map(ok_points)
        .map(|(p, o)| (p.label.as_str(), o.total.expect("plain runs report totals")))
        .collect();
    let mut wall = Vec::new();
    let mut minst = Vec::new();
    let mut mcycles = Vec::new();
    let mut p50 = Vec::new();
    let mut all_points = Vec::new();
    for rep in reps.iter().filter(|r| r.mode == Mode::Library) {
        let secs = rep.seconds();
        let (mut inst, mut cycles) = (0u64, 0u64);
        let mut point_s = Vec::new();
        for (p, _) in ok_points(rep) {
            if let Some(total) = work.get(p.label.as_str()) {
                inst += total.committed;
                cycles += total.cycles;
            }
            point_s.push((p.end_ns - p.start_ns) as f64 / 1e9);
        }
        if wall.is_empty() {
            lines.push(format!(
                "simulated per repetition: {inst} instructions, {cycles} cycles"
            ));
        }
        wall.push(secs);
        minst.push(inst as f64 / secs / 1e6);
        mcycles.push(cycles as f64 / secs / 1e6);
        p50.push(median(&point_s));
        all_points.extend(point_s);
    }
    lines.push(format!(
        "n = {} points; point_s_p50 is their median",
        all_points.len()
    ));
    vec![
        value("setup_s", setup_s.to_vec()),
        value("wall_s", wall),
        value("sim_minst_per_s", minst),
        value("sim_mcycles_per_s", mcycles),
        Value {
            metric: metric("point_s_p50"),
            value: median(&all_points),
            samples: p50,
        },
        single("peak_rss_mib", peak_rss),
    ]
}

/// Peak resident set (`VmHWM`) in MiB; `NaN` where `/proc` is absent.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Side measurements of the traced run, outside the repetitions.
struct Probes {
    /// Emulator ns per instruction, draining `Workload::trace()`.
    live_ns_per_inst: f64,
    /// Capture and compile ns per instruction and captured bytes: the
    /// setup's own, or for live workloads a probe capture of the same
    /// programs.
    capture_ns_per_inst: f64,
    compile_ns_per_inst: f64,
    trace_bytes: u64,
}

fn probe(kind: Kind, setup: &Setup, ctx: &Ctx, spans: &mut SpanLog, root: usize) -> Probes {
    let (mut live_ns, mut live_inst) = (0u64, 0u64);
    for (w, window) in &setup.sources {
        let n = (*window).min(PROBE_INSTRUCTIONS);
        let start = ctx.clock.ns();
        for inst in w.trace().take(n as usize) {
            std::hint::black_box(inst.expect("kernels do not fault"));
            live_inst += 1;
        }
        let end = ctx.clock.ns();
        spans.push(Some(root), "emu.live", w.name(), start, end);
        live_ns += end - start;
    }
    let (capture_ns, compile_ns, records, bytes) = if kind == Kind::Fig5Live {
        let (mut cap, mut comp, mut records, mut bytes) = (0, 0, 0, 0);
        for (w, window) in &setup.sources {
            let n = (*window).min(PROBE_INSTRUCTIONS);
            let t0 = ctx.clock.ns();
            let trace = CapturedTrace::capture(w, n);
            let t1 = ctx.clock.ns();
            trace.compile();
            let t2 = ctx.clock.ns();
            spans.push(Some(root), "workloads.capture_probe", w.name(), t0, t1);
            spans.push(Some(root), "workloads.compile_probe", w.name(), t1, t2);
            cap += t1 - t0;
            comp += t2 - t1;
            records += trace.len() as u64;
            bytes += trace.buffer_bytes() as u64;
        }
        (cap, comp, records, bytes)
    } else {
        (
            setup.nanos("workloads.capture"),
            setup.nanos("workloads.compile"),
            setup.captured_records,
            setup.trace_bytes,
        )
    };
    Probes {
        live_ns_per_inst: live_ns as f64 / live_inst as f64,
        capture_ns_per_inst: capture_ns as f64 / records as f64,
        compile_ns_per_inst: compile_ns as f64 / records as f64,
        trace_bytes: bytes,
    }
}

/// One line per program and one per policy column (a point's label is
/// `program/column`): the measured windows' exact guest counts, and
/// the untraced `run` time per instruction of warm-up plus measured
/// window. They show whether a window length changes what the policies
/// do (compare `--scale full` against `--scale paper`).
fn group_lines(rep: &Rep, lines: &mut Vec<String>) {
    for (group, key) in [("program", 0), ("policy", 1)] {
        let mut groups: BTreeMap<&str, Vec<&runner::Outcome>> = BTreeMap::new();
        for (p, o) in ok_points(rep) {
            let name = p.label.split('/').nth(key).unwrap_or(&p.label);
            groups.entry(name).or_default().push(o);
        }
        for (name, outcomes) in groups {
            let sum =
                |f: &dyn Fn(&runner::Outcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>();
            let committed = sum(&|o| o.stats.committed) as f64;
            let cycles = sum(&|o| o.stats.cycles);
            let ipcs: Vec<f64> = outcomes.iter().map(|o| o.stats.ipc()).collect();
            let run_ns = sum(&|o| o.phase_ns("sim.run.warmup") + o.phase_ns("sim.run.measure"));
            let all_inst = sum(&|o| o.total.map_or(0, |t| t.committed));
            lines.push(format!(
                "{group} {name:<12} cycles {cycles}  ipc_geomean {:.4}  \
                 avg_active_clusters {:.2}  reconfigurations/100k {:.2}  \
                 flush_writebacks/100k {:.1}  run_ns/inst {:.1}",
                geometric_mean(&ipcs).unwrap_or(f64::NAN),
                sum(&|o| o.stats.active_cluster_cycles) as f64 / cycles as f64,
                sum(&|o| o.stats.reconfigurations) as f64 / committed * 1e5,
                sum(&|o| o.stats.flush_writebacks) as f64 / committed * 1e5,
                run_ns as f64 / all_inst as f64,
            ));
        }
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(setup: &Setup, reps: &[Rep], probes: &Probes, lines: &mut Vec<String>) -> Vec<Value> {
    let plain: Vec<&Rep> = reps.iter().filter(|r| r.mode == Mode::Plain).collect();
    let profiled: Vec<&Rep> = reps.iter().filter(|r| r.mode == Mode::Profiled).collect();

    // sim, untraced: phase timings around `Processor` calls.
    let mut new_us = Vec::new();
    let (mut run_ns, mut cycles, mut inst) = (0u64, 0u64, 0u64);
    let mut export_us = Vec::new();
    let measure_ns = |rep: &Rep| -> f64 {
        ok_points(rep)
            .map(|(_, o)| o.phase_ns("sim.run.measure") as f64)
            .sum()
    };
    for rep in &plain {
        for (_, o) in ok_points(rep) {
            let total = o.total.expect("plain runs report totals");
            new_us.push(o.phase_ns("sim.new") as f64 / 1e3);
            run_ns += o.phase_ns("sim.run.warmup") + o.phase_ns("sim.run.measure");
            cycles += total.cycles;
            inst += total.committed;
            export_us.push(o.phase_ns("stats.export") as f64 / 1e3);
        }
    }

    // sim, traced: the host profiler; core: the recorded policy calls
    // and their timed replay.
    let mut prof = runner::Profile::default();
    let mut skews = Vec::new();
    let mut calls = runner::PolicyCalls::default();
    for rep in &profiled {
        for (_, o) in ok_points(rep) {
            if let Some(p) = o.profile {
                for (acc, n) in prof.stage_nanos.iter_mut().zip(p.stage_nanos) {
                    *acc += n;
                }
                prof.cycles += p.cycles;
                prof.drained += p.drained;
                prof.quiescent += p.quiescent;
                skews.push(p.skew);
            }
            if let Some(c) = o.policy {
                calls.calls += c.calls;
                calls.decisions += c.decisions;
                calls.replayed += c.replayed;
                calls.replay_ns += c.replay_ns;
            }
        }
    }
    let per_cycle = |stage| prof.stage(stage) as f64 / prof.cycles as f64;
    let profiled_measure: Vec<f64> = profiled.iter().map(|r| measure_ns(r)).collect();
    let plain_measure: Vec<f64> = plain.iter().map(|r| measure_ns(r)).collect();
    let n_profiled = profiled.len() as f64;
    let on_commit_ns = calls.replay_ns as f64 / calls.replayed as f64;
    let calls_per_rep = calls.calls as f64 / n_profiled;

    // Guest counts, from the first plain repetition.
    if let Some(first) = plain.first() {
        group_lines(first, lines);
    }
    let guest: Vec<clustered_sim::SimStats> = plain
        .first()
        .map(|r| ok_points(r).map(|(_, o)| o.stats).collect())
        .unwrap_or_default();
    let sum = |f: fn(&clustered_sim::SimStats) -> u64| guest.iter().map(f).sum::<u64>();
    let ipcs: Vec<f64> = guest.iter().map(clustered_sim::SimStats::ipc).collect();

    // sweep: the executor's share of each repetition, and the slow end
    // of the points.
    let point_s: Vec<f64> = plain
        .iter()
        .flat_map(|r| &r.points)
        .map(|p| (p.end_ns - p.start_ns) as f64 / 1e9)
        .collect();
    let (pct, point_tail) = tail(&point_s).unwrap_or((f64::NAN, f64::NAN));
    lines.push(format!(
        "n = {} points; sweep.point_tail_s is their percentile {pct:.2}",
        point_s.len()
    ));
    let (mut busy, mut rate) = (Vec::new(), Vec::new());
    for rep in &plain {
        let wall = rep.seconds();
        let busy_s: f64 = rep
            .points
            .iter()
            .map(|p| (p.end_ns - p.start_ns) as f64 / 1e9)
            .sum();
        busy.push(busy_s / wall);
        rate.push(rep.points.len() as f64 / wall);
    }

    let count = |name, v: u64| single(name, v as f64);
    vec![
        single(
            "workloads.build_ms",
            setup.nanos("workloads.build") as f64 / 1e6,
        ),
        single("workloads.capture_ns_per_inst", probes.capture_ns_per_inst),
        single("workloads.compile_ns_per_inst", probes.compile_ns_per_inst),
        count("workloads.trace_bytes", probes.trace_bytes),
        single("emu.live_ns_per_inst", probes.live_ns_per_inst),
        value("sim.new_us", new_us),
        single("sim.run_ns_per_cycle", run_ns as f64 / cycles as f64),
        single("sim.run_ns_per_inst", run_ns as f64 / inst as f64),
        single(
            "sim.stage.event_drain_ns_per_cycle",
            per_cycle(HostStage::EventDrain),
        ),
        single(
            "sim.stage.commit_ns_per_cycle",
            per_cycle(HostStage::Commit),
        ),
        single("sim.stage.issue_ns_per_cycle", per_cycle(HostStage::Issue)),
        single(
            "sim.stage.dispatch_ns_per_cycle",
            per_cycle(HostStage::Dispatch),
        ),
        single("sim.stage.fetch_ns_per_cycle", per_cycle(HostStage::Fetch)),
        single("sim.stage.other_ns_per_cycle", per_cycle(HostStage::Other)),
        single(
            "sim.events_per_cycle",
            prof.drained as f64 / prof.cycles as f64,
        ),
        single(
            "sim.event_drain_ns_per_event",
            prof.stage(HostStage::EventDrain) as f64 / prof.drained as f64,
        ),
        single(
            "sim.quiescent_frac",
            prof.quiescent as f64 / prof.cycles as f64,
        ),
        single(
            "sim.drained_skew",
            skews.iter().sum::<f64>() / skews.len() as f64,
        ),
        single(
            "sim.trace_overhead",
            median(&profiled_measure) / median(&plain_measure),
        ),
        count("sim.cycles", sum(|s| s.cycles)),
        count("sim.committed", sum(|s| s.committed)),
        single("sim.ipc_geomean", geometric_mean(&ipcs).unwrap_or(f64::NAN)),
        count("sim.reconfigurations", sum(|s| s.reconfigurations)),
        count("sim.flush_writebacks", sum(|s| s.flush_writebacks)),
        single(
            "sim.avg_active_clusters",
            sum(|s| s.active_cluster_cycles) as f64 / sum(|s| s.cycles) as f64,
        ),
        single("core.on_commit_ns", on_commit_ns),
        single("core.on_commit_calls", calls_per_rep),
        single("core.decisions", calls.decisions as f64 / n_profiled),
        // Against the untraced run time the policy calls sit inside.
        single(
            "core.share",
            on_commit_ns * calls_per_rep / median(&plain_measure),
        ),
        value("sweep.busy_frac", busy),
        value("sweep.points_per_s", rate),
        single("sweep.point_tail_s", point_tail),
        value("stats.export_us_per_point", export_us),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(kind: Kind, traced: bool) -> Report {
        let opts = Options {
            kind,
            seed: 3,
            seconds: 0.0,
            traced,
            scale: Scale::Smoke,
            json: None,
            trace_file: None,
            write_expected: false,
        };
        run(&opts)
    }

    /// Every workload runs at smoke scale, untraced and traced, with no
    /// failed point, agreeing digests, and every named metric printed.
    #[test]
    fn smoke_runs_print_every_metric() {
        for w in suite::WORKLOADS {
            let kind = Kind::from_name(w.name).expect("suite name");
            for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
                let report = smoke(kind, traced);
                assert_eq!(
                    report.failed, 0,
                    "{} failed points: {:?}",
                    w.name, report.problems
                );
                assert!(
                    report.problems.is_empty(),
                    "{}: {:?}",
                    w.name,
                    report.problems
                );
                assert!(report.attempted > 0);
                let names: Vec<&str> = report.values.iter().map(|v| v.metric.name).collect();
                let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
                assert_eq!(names, expected, "{} trace {traced}", w.name);
                for m in table {
                    let prefix = format!("{} ", m.name);
                    let line = report
                        .lines
                        .iter()
                        .find(|l| l.starts_with(&prefix))
                        .unwrap_or_else(|| panic!("{} not printed for {}", m.name, w.name));
                    assert!(line.ends_with(&format!(" {}", m.unit)), "{line}");
                }
                let last = report.result_line();
                assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
                assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
                assert_eq!(
                    last.get("metrics").and_then(Json::keys).map(|k| k.len()),
                    Some(table.len())
                );
            }
        }
    }

    #[test]
    fn traced_and_untraced_digests_agree_with_each_other() {
        let plain = smoke(Kind::PhasedReconfig, false);
        let traced = smoke(Kind::PhasedReconfig, true);
        assert!(!plain.digests.is_empty());
        assert_eq!(plain.digests, traced.digests);
    }

    /// The `[profile.release]` table of a manifest, one trimmed line per
    /// setting, comments and blank lines dropped.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark is a workspace of its own, so it cannot inherit the
    /// repository's release profile; this keeps the copy in step.
    #[test]
    fn release_profile_matches_the_repository() {
        let ours = release_profile(include_str!("../Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, release_profile(include_str!("../../Cargo.toml")));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload wide16_dec --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.kind, o.seed, o.seconds, o.traced),
            (Kind::Wide16Dec, 9, 12.0, true)
        );
        assert!(o.trace_file.is_some(), "traced runs default a trace file");
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload fig3_grid --trace 2",
            "--workload fig3_grid --seconds -1",
            "--workload fig3_grid --seed",
            "--workload fig3_grid --bogus 1",
            "--workload fig3_grid --seed 2 --write-expected",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} should be rejected");
        }
    }
}
