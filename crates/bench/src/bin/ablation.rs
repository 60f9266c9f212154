//! Ablation study of the design choices DESIGN.md calls out:
//!
//! * steering heuristic (producer/criticality vs Mod_N vs First_Fit,
//!   §2.1's comparison space),
//! * the imbalance threshold of the producer heuristic,
//! * exploration configuration set (2/4/8/16 vs only 4/16),
//! * distant-ILP threshold of the no-exploration scheme.

//!
//! `--json` additionally writes the measurements to
//! `results/ablation.json` (enveloped, see EXPERIMENTS.md), and
//! `--decisions DIR` dumps each run's policy decision trace to
//! `DIR/<section>-<workload>.jsonl`.

use clustered_bench::{
    decisions_dir, grid_provenance, measure_instructions, run_experiment_with,
    warmup_instructions, write_decisions_jsonl, write_results_envelope,
};
use clustered_core::{IntervalDistantIlp, IntervalDistantIlpConfig, IntervalExplore, IntervalExploreConfig};
use clustered_sim::{DecisionTrace, FixedPolicy, NullObserver, SimConfig, SteeringKind};
use clustered_stats::{geometric_mean, Json, Provenance, Table};
use std::path::Path;

/// One suite pass: runs every workload under the given configuration
/// and returns the geometric-mean IPC. When `dump` carries a decision
/// directory, each run goes through the decision-collecting runner and
/// writes `DIR/<label>-<workload>.jsonl`.
fn suite_geomean(
    cfg: SimConfig,
    steering: SteeringKind,
    make: &dyn Fn() -> Box<dyn clustered_sim::ReconfigPolicy>,
    warmup: u64,
    measure: u64,
    dump: Option<(&Path, &str)>,
) -> f64 {
    let ipcs: Vec<f64> = clustered_workloads::all()
        .iter()
        .map(|w| match dump {
            Some((dir, label)) => {
                let trace = DecisionTrace::new();
                let run = run_experiment_with(w, cfg, make(), steering, trace, warmup, measure);
                let stem = format!("{label}-{}", w.name());
                let prov = Provenance::new(w.name(), None, cfg.digest(), label);
                let decisions = run.observer.decisions();
                if let Err(e) = write_decisions_jsonl(dir, &stem, Some(&prov), decisions) {
                    eprintln!("cannot write decision trace for {stem}: {e}");
                    std::process::exit(1);
                }
                run.stats.ipc()
            }
            None => {
                run_experiment_with(w, cfg, make(), steering, NullObserver, warmup, measure)
                    .stats
                    .ipc()
            }
        })
        .collect();
    geometric_mean(&ipcs).unwrap_or(0.0)
}

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    let warmup = warmup_instructions();
    let measure = measure_instructions();
    let decisions = decisions_dir();
    let max_interval = (measure / 4).max(40_000);
    let cfg = SimConfig::default();
    let started = std::time::Instant::now();
    // Per-section `[{name, geomean_ipc}]` rows for the `--json` dump.
    let mut sections = Json::object();
    println!("Ablations ({measure} measured instructions per run)\n");

    println!("A. Steering heuristic (fixed 16 clusters):");
    let mut rows: Vec<Json> = Vec::new();
    let mut t = Table::new(&["steering", "suite geomean IPC"]);
    for (name, kind) in [
        ("producer (thresh 4)", SteeringKind::Producer { imbalance_threshold: 4 }),
        ("producer (thresh 1)", SteeringKind::Producer { imbalance_threshold: 1 }),
        ("producer (thresh 12)", SteeringKind::Producer { imbalance_threshold: 12 }),
        ("Mod_4", SteeringKind::ModN(4)),
        ("First_Fit", SteeringKind::FirstFit),
    ] {
        let dump = decisions.as_deref().map(|d| (d, format!("steering-{name}")));
        let g = suite_geomean(
            cfg,
            kind,
            &|| Box::new(FixedPolicy::new(16)),
            warmup,
            measure,
            dump.as_ref().map(|(d, l)| (*d, l.as_str())),
        );
        rows.push(Json::object().set("name", name).set("geomean_ipc", g));
        t.row(&[name.to_string(), format!("{g:.3}")]);
    }
    sections = sections.set("steering", Json::Arr(std::mem::take(&mut rows)));
    println!("{t}");

    println!("B. Criticality predictor (fixed 16 clusters):");
    let mut t = Table::new(&["criticality source", "suite geomean IPC"]);
    for (name, enabled) in [("trained table (paper)", true), ("arrival estimate", false)] {
        let mut c = cfg;
        c.crit.enabled = enabled;
        let dump = decisions.as_deref().map(|d| (d, format!("crit-{name}")));
        let g = suite_geomean(
            c,
            SteeringKind::default(),
            &|| Box::new(FixedPolicy::new(16)),
            warmup,
            measure,
            dump.as_ref().map(|(d, l)| (*d, l.as_str())),
        );
        rows.push(Json::object().set("name", name).set("geomean_ipc", g));
        t.row(&[name.to_string(), format!("{g:.3}")]);
    }
    sections = sections.set("criticality", Json::Arr(std::mem::take(&mut rows)));
    println!("{t}");

    println!("C. Exploration configuration set (interval scheme):");
    let mut t = Table::new(&["configs", "suite geomean IPC"]);
    for (name, configs) in [
        ("2/4/8/16", vec![2usize, 4, 8, 16]),
        ("4/16", vec![4, 16]),
        ("8/16", vec![8, 16]),
    ] {
        let configs2 = configs.clone();
        let dump = decisions.as_deref().map(|d| (d, format!("explore-{name}")));
        let g = suite_geomean(
            cfg,
            SteeringKind::default(),
            &move || {
                Box::new(IntervalExplore::new(IntervalExploreConfig {
                    max_interval,
                    explore_configs: configs2.clone(),
                    ..IntervalExploreConfig::default()
                }))
            },
            warmup,
            measure,
            dump.as_ref().map(|(d, l)| (*d, l.as_str())),
        );
        rows.push(Json::object().set("name", name).set("geomean_ipc", g));
        t.row(&[name.to_string(), format!("{g:.3}")]);
    }
    sections = sections.set("explore_configs", Json::Arr(std::mem::take(&mut rows)));
    println!("{t}");

    println!("D. Distant-ILP threshold (no-exploration scheme, 1K interval):");
    let mut t = Table::new(&["threshold per 1000", "suite geomean IPC"]);
    for threshold in [80u64, 160, 320] {
        let dump = decisions.as_deref().map(|d| (d, format!("distant-{threshold}")));
        let g = suite_geomean(
            cfg,
            SteeringKind::default(),
            &move || {
                Box::new(IntervalDistantIlp::new(IntervalDistantIlpConfig {
                    distant_threshold_per_k: threshold,
                    ..IntervalDistantIlpConfig::default()
                }))
            },
            warmup,
            measure,
            dump.as_ref().map(|(d, l)| (*d, l.as_str())),
        );
        rows.push(Json::object().set("name", threshold.to_string().as_str()).set("geomean_ipc", g));
        t.row(&[threshold.to_string(), format!("{g:.3}")]);
    }
    sections = sections.set("distant_threshold", Json::Arr(std::mem::take(&mut rows)));
    println!("{t}");
    if let Some(dir) = &decisions {
        println!("decision traces in {}\n", dir.display());
    }
    println!("The paper's choices — producer steering with a moderate imbalance");
    println!("threshold, the full 2/4/8/16 exploration set, and the 160/1000");
    println!("distant-ILP threshold — should be at or near the top of each table.");

    if json {
        let doc = Json::object()
            .set("figure", "ablation")
            .set("measure_instructions", measure)
            .set("warmup_instructions", warmup)
            .set("sections", sections);
        let prov =
            grid_provenance("ablation", &cfg).with_wall_seconds(started.elapsed().as_secs_f64());
        match write_results_envelope("ablation", &prov, doc) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write results/ablation.json: {e}");
                std::process::exit(1);
            }
        }
    }
}
