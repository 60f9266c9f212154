//! Backend hot-loop bench: combined issue + dispatch + event-drain
//! stage wall-clock per run, measured with the host profiler's stage
//! timers (the same buckets `clustered perf` reports).
//!
//! PR 7 showed ~450 ns/instruction of pipeline work split roughly
//! event-drain 29% / dispatch 25% / issue 23%, so this bench tracks
//! that combined backend share directly instead of end-to-end wall
//! time: frontend or cache changes cannot mask a backend regression
//! and vice versa. Each case runs a warm-up window, resets the
//! profiler, runs the measured window, and records the summed
//! event_drain + issue + dispatch nanoseconds; min/median/mean over
//! the samples go to `results/BENCH_backend.json` (schema in
//! EXPERIMENTS.md), gated by `bench-cmp` in `scripts/ci.sh`.
//!
//! The simulated schedule is pinned: every sample of a case must
//! produce identical cycle counts (the profiler only reads state), so
//! a data-structure change that alters the schedule fails here before
//! it ever reaches the 360-point shard oracle.

use clustered_sim::{
    drive, CacheModel, FixedPolicy, HostProfiler, HostStage, SimConfig, SteeringKind,
    DEFAULT_SAMPLE_INTERVAL,
};
use clustered_stats::Json;
use clustered_workloads::CapturedTrace;

const WARMUP: u64 = 5_000;
const INSTRUCTIONS: u64 = 100_000;

/// One profiled run: returns (combined backend ns, whole-loop ns,
/// simulated cycles in the measured window).
fn profiled_run(trace: &CapturedTrace, model: CacheModel, active: usize) -> (u64, u64, u64) {
    let mut cfg = SimConfig::default();
    cfg.cache.model = model;
    let run = drive(
        cfg,
        trace.compile().replay(),
        Box::new(FixedPolicy::new(active)),
        SteeringKind::default(),
        HostProfiler::new(DEFAULT_SAMPLE_INTERVAL),
        WARMUP,
        INSTRUCTIONS,
    )
    .expect("valid bench configuration");
    let nanos = run.observer.stage_nanos();
    let backend = nanos[HostStage::EventDrain as usize]
        + nanos[HostStage::Issue as usize]
        + nanos[HostStage::Dispatch as usize];
    (backend, run.observer.loop_nanos(), run.stats.cycles)
}

struct Case {
    name: &'static str,
    workload: &'static str,
    model: CacheModel,
    active: usize,
}

const CASES: [Case; 3] = [
    // The paper's baseline machine, cache centralized, 8 of 16 active.
    Case { name: "gzip_cen_8of16", workload: "gzip", model: CacheModel::Centralized, active: 8 },
    // All 16 clusters busy: widest issue/wakeup fan-out.
    Case { name: "gzip_dec_16of16", workload: "gzip", model: CacheModel::Decentralized, active: 16 },
    // FP-heavy stream: exercises the FP FU groups and both domains.
    Case { name: "swim_dec_8of16", workload: "swim", model: CacheModel::Decentralized, active: 8 },
];

fn summarize(mut ns: Vec<u64>) -> (u64, u64, u64) {
    ns.sort_unstable();
    let min = ns[0];
    let median = ns[ns.len() / 2];
    let mean = ns.iter().sum::<u64>() / ns.len() as u64;
    (min, median, mean)
}

fn main() {
    let samples: usize = std::env::var("CLUSTERED_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|n: usize| n.max(1))
        .unwrap_or(10);
    println!("bench suite `backend`: {samples} samples per case\n");
    println!("{:<44} {:>12} {:>12} {:>12}", "case (backend-stage ns)", "min", "median", "mean");

    let mut cases = Vec::new();
    let mut sim_cycles = Json::object();
    for case in &CASES {
        let w = clustered_workloads::by_name(case.workload).expect("built-in workload");
        let trace = CapturedTrace::for_window(&w, WARMUP, INSTRUCTIONS);
        let mut backend = Vec::with_capacity(samples);
        let mut whole = Vec::with_capacity(samples);
        let mut cycles_pin = None;
        // Warm-up run (first-touch costs are not what we track).
        let _ = profiled_run(&trace, case.model, case.active);
        for _ in 0..samples {
            let (b, l, cycles) = profiled_run(&trace, case.model, case.active);
            backend.push(b);
            whole.push(l);
            // The profiler must not perturb the schedule: all samples
            // of one case simulate the exact same cycles.
            match cycles_pin {
                None => cycles_pin = Some(cycles),
                Some(c) => assert_eq!(c, cycles, "{}: schedule not deterministic", case.name),
            }
        }
        let loop_min = *whole.iter().min().expect("at least one sample");
        let (min, median, mean) = summarize(backend);
        println!(
            "backend/{:<36} {min:>12} {median:>12} {mean:>12}   ({:.0}% of loop)",
            case.name,
            100.0 * min as f64 / loop_min.max(1) as f64
        );
        sim_cycles = sim_cycles.set(case.name, cycles_pin.unwrap_or(0));
        cases.push(
            Json::object()
                .set("name", format!("backend/{}", case.name).as_str())
                .set("min_ns", min)
                .set("median_ns", median)
                .set("mean_ns", mean)
                .set("samples", samples),
        );
    }

    let doc = Json::object()
        .set("suite", "backend")
        .set("sim_cycles", sim_cycles)
        .set("cases", Json::Arr(cases));
    if let Ok(path) = std::env::var("CLUSTERED_BENCH_JSON") {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, doc.to_string_pretty()) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => eprintln!("\ncannot write {path}: {e}"),
        }
    }
}
