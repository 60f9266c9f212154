//! Figure 3: IPC of fixed 2-, 4-, 8-, and 16-cluster organisations
//! (centralized cache, ring interconnect), plus the monolithic
//! baseline of Table 3 for reference.
//!
//! `--json` additionally writes the measurements to
//! `results/fig3.json` (see EXPERIMENTS.md for the schema), and
//! `--decisions DIR` dumps each grid point's policy decision trace to
//! `DIR/<label>.jsonl`.

use clustered_bench::sweep::{
    capture_for, jobs, run_point_with, run_sweep, run_sweep_with, SweepPoint,
};
use clustered_bench::{
    decisions_dir, grid_provenance, measure_instructions, warmup_instructions,
    write_decisions_jsonl, write_results_envelope,
};
use clustered_sim::{DecisionTrace, FixedPolicy, SimConfig, SimStats};
use clustered_stats::{geometric_mean, Json, Provenance, Table};

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    let decisions = decisions_dir();
    let warmup = warmup_instructions();
    let measure = measure_instructions();
    let counts = [2usize, 4, 8, 16];
    println!("Figure 3: IPCs for fixed cluster organisations");
    println!("(centralized cache, ring interconnect; {measure} measured instructions)\n");

    // One emulation per workload; the whole (workload × cluster-count)
    // grid replays the shared captures on the sweep worker pool.
    let workloads = clustered_workloads::all();
    let mut points = Vec::new();
    for w in &workloads {
        let trace = capture_for(w, warmup, measure);
        points.push(SweepPoint::new(
            format!("{}/mono", w.name()),
            &trace,
            SimConfig::monolithic(),
            || Box::new(FixedPolicy::new(1)),
            warmup,
            measure,
        ));
        for &n in &counts {
            points.push(SweepPoint::new(
                format!("{}/{n}", w.name()),
                &trace,
                SimConfig::default(),
                move || Box::new(FixedPolicy::new(n)),
                warmup,
                measure,
            ));
        }
    }
    let started = std::time::Instant::now();
    let stats: Vec<SimStats> = match &decisions {
        Some(dir) => {
            let runs = run_sweep_with(&points, jobs(), |p| run_point_with(p, DecisionTrace::new()));
            for (point, run) in points.iter().zip(&runs) {
                // The label's `/suffix` names the fixed cluster count.
                let policy = match point.label.rsplit('/').next() {
                    Some("mono") => "fixed1".to_string(),
                    Some(n) => format!("fixed{n}"),
                    None => "fixed".to_string(),
                };
                let prov = Provenance::new(
                    point.trace.name(),
                    Some(point.trace_checksum),
                    point.config_digest,
                    &policy,
                );
                let decisions = run.observer.decisions();
                if let Err(e) = write_decisions_jsonl(dir, &point.label, Some(&prov), decisions) {
                    eprintln!("cannot write decision trace for {}: {e}", point.label);
                    std::process::exit(1);
                }
            }
            println!("wrote {} decision traces to {}\n", runs.len(), dir.display());
            runs.iter().map(|r| r.stats).collect()
        }
        None => run_sweep(&points),
    };

    let mut table = Table::new(&["benchmark", "mono", "2", "4", "8", "16", "best"]);
    let mut per_count: Vec<Vec<f64>> = vec![Vec::new(); counts.len()];
    let mut workload_docs: Vec<Json> = Vec::new();
    for (w, chunk) in workloads.iter().zip(stats.chunks(1 + counts.len())) {
        let mono = chunk[0].ipc();
        let mut cells = vec![w.name().to_string(), format!("{mono:.2}")];
        let mut best = (0usize, 0.0f64);
        let mut ipcs = Json::object();
        for (i, &n) in counts.iter().enumerate() {
            let ipc = chunk[1 + i].ipc();
            per_count[i].push(ipc);
            cells.push(format!("{ipc:.2}"));
            ipcs = ipcs.set(&n.to_string(), ipc);
            if ipc > best.1 {
                best = (n, ipc);
            }
        }
        cells.push(best.0.to_string());
        table.row(&cells);
        workload_docs.push(
            Json::object()
                .set("name", w.name())
                .set("monolithic_ipc", mono)
                .set("ipc_by_clusters", ipcs)
                .set("best_clusters", best.0),
        );
    }
    let mut means = vec!["geomean".to_string(), String::new()];
    let mut geomeans = Json::object();
    for (ipcs, &n) in per_count.iter().zip(&counts) {
        let g = geometric_mean(ipcs).unwrap_or(0.0);
        means.push(format!("{g:.2}"));
        geomeans = geomeans.set(&n.to_string(), g);
    }
    means.push(String::new());
    table.row(&means);
    println!("{table}");
    println!("Paper shape: distant-ILP codes (djpeg, galgel, mgrid, swim) peak at 16");
    println!("clusters; branch-limited integer codes peak at ~4.");

    if json {
        let doc = Json::object()
            .set("figure", "fig3")
            .set("measure_instructions", measure)
            .set("warmup_instructions", warmup)
            .set(
                "cluster_counts",
                Json::Arr(counts.iter().map(|&n| Json::from(n)).collect()),
            )
            .set("workloads", Json::Arr(workload_docs))
            .set("geomean_by_clusters", geomeans);
        let prov = grid_provenance("fig3", &SimConfig::default())
            .with_wall_seconds(started.elapsed().as_secs_f64());
        match write_results_envelope("fig3", &prov, doc) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write results/fig3.json: {e}");
                std::process::exit(1);
            }
        }
    }
}
