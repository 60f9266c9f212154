//! Diagnostic dump of detailed simulator statistics for one workload
//! under a handful of configurations. Intended for model debugging.
//!
//! `diag [WORKLOAD] [--decisions DIR]` — the optional directory
//! receives each configuration's policy decision trace as
//! `DIR/<workload>-<label>.jsonl`.

use clustered_bench::{decisions_dir, run_experiment_with, write_decisions_jsonl};
use clustered_sim::{DecisionTrace, FixedPolicy, SimConfig, SteeringKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let decisions = decisions_dir();
    // First positional argument that is neither a flag nor the
    // directory following --decisions.
    let name = args
        .iter()
        .scan(false, |skip, a| {
            let keep = !*skip && !a.starts_with("--");
            *skip = a == "--decisions";
            Some((keep, a))
        })
        .find(|(keep, _)| *keep)
        .map_or_else(|| "galgel".to_string(), |(_, a)| a.clone());
    let w = clustered_workloads::by_name(&name).expect("known workload");
    for (label, cfg, n) in [
        ("mono", SimConfig::monolithic(), 1usize),
        ("c4", SimConfig::default(), 4),
        ("c16", SimConfig::default(), 16),
    ] {
        let run = run_experiment_with(
            &w,
            cfg,
            Box::new(FixedPolicy::new(n)),
            SteeringKind::default(),
            DecisionTrace::new(),
            30_000,
            150_000,
        );
        let s = run.stats;
        println!("== {name} {label}: IPC {:.3}  cycles {}  committed {}", s.ipc(), s.cycles, s.committed);
        println!(
            "   branches {} cond {} mispred {} (interval {:.0})",
            s.branches, s.cond_branches, s.mispredicts, s.mispredict_interval()
        );
        println!(
            "   loads {} stores {} l1hit {:.3} l1miss {} l2miss {} forwards {}",
            s.loads, s.stores, s.l1_hit_rate(), s.l1_misses, s.l2_misses, s.lsq_forwards
        );
        println!(
            "   stalls: fetch {} rob {} resources {}  avg ROB {:.0}",
            s.dispatch_stall_fetch,
            s.dispatch_stall_rob,
            s.dispatch_stall_resources,
            s.rob_occupancy_sum as f64 / s.cycles as f64
        );
        println!(
            "   regxfer {} ({:.2}/instr, {:.2} hops) cachexfer {} distant {:.3}",
            s.reg_transfers,
            s.reg_transfers as f64 / s.committed as f64,
            s.avg_transfer_hops(),
            s.cache_transfers,
            s.distant_issues as f64 / s.committed as f64
        );
        if let Some(dir) = &decisions {
            let prov = clustered_stats::Provenance::new(
                w.name(),
                None,
                cfg.digest(),
                &format!("fixed{n}"),
            );
            let records = run.observer.decisions();
            match write_decisions_jsonl(dir, &format!("{name}-{label}"), Some(&prov), records) {
                Ok(path) => {
                    println!("   decisions {} ({} records)", path.display(), records.len());
                }
                Err(e) => {
                    eprintln!("cannot write decision trace for {name}-{label}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
