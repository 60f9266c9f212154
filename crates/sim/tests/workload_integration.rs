//! Integration tests: the full pipeline driven by real workload traces.
//!
//! These check the *qualitative* properties the paper's evaluation
//! depends on — not absolute IPC values.

use clustered_sim::{CacheModel, FixedPolicy, Processor, SimConfig, SimStats, Topology};
use clustered_workloads::by_name;

fn run(name: &str, cfg: SimConfig, clusters: usize, instructions: u64) -> SimStats {
    let w = by_name(name).expect("known workload");
    let stream = w.trace().map(|r| r.expect("workload cannot fault"));
    let mut cpu =
        Processor::new(cfg, stream, Box::new(FixedPolicy::new(clusters))).expect("valid config");
    // Short warm-up, then measure.
    cpu.run(20_000).expect("no stall");
    let before = *cpu.stats();
    cpu.run(instructions).expect("no stall");
    cpu.stats().delta_since(&before)
}

#[test]
fn all_workloads_simulate_on_default_config() {
    for w in clustered_workloads::all() {
        let s = run(w.name(), SimConfig::default(), 16, 30_000);
        let ipc = s.ipc();
        assert!((0.05..16.0).contains(&ipc), "{}: implausible IPC {ipc}", w.name());
        assert!(s.committed >= 30_000);
    }
}

#[test]
fn monolithic_beats_clustered_on_low_ilp_code() {
    // The monolithic Table-3 baseline has zero communication cost, so a
    // dependence-bound code must do at least as well there as on a
    // 16-cluster ring.
    let mono = run("parser", SimConfig::monolithic(), 1, 40_000);
    let ring16 = run("parser", SimConfig::default(), 16, 40_000);
    assert!(
        mono.ipc() > ring16.ipc() * 0.95,
        "monolithic {} vs 16-cluster {}",
        mono.ipc(),
        ring16.ipc()
    );
}

#[test]
fn distant_ilp_code_scales_with_clusters() {
    // swim has independent loop iterations far apart: 16 clusters (480
    // in-flight) should clearly beat 2 clusters (~60 in-flight).
    let few = run("swim", SimConfig::default(), 2, 40_000);
    let many = run("swim", SimConfig::default(), 16, 40_000);
    assert!(
        many.ipc() > few.ipc() * 1.1,
        "expected swim to gain from clusters: 2→{:.3}, 16→{:.3}",
        few.ipc(),
        many.ipc()
    );
}

#[test]
fn branchy_code_prefers_fewer_clusters() {
    // vpr cannot fill a deep window (mispredicts + serial chains), so
    // paying 16-cluster communication must not help.
    let few = run("vpr", SimConfig::default(), 4, 40_000);
    let many = run("vpr", SimConfig::default(), 16, 40_000);
    assert!(
        few.ipc() >= many.ipc() * 0.98,
        "expected vpr to prefer 4 clusters: 4→{:.3}, 16→{:.3}",
        few.ipc(),
        many.ipc()
    );
}

#[test]
fn distant_ilp_counter_separates_workload_classes() {
    let swim = run("swim", SimConfig::default(), 16, 40_000);
    let parser = run("parser", SimConfig::default(), 16, 40_000);
    let swim_frac = swim.distant_issues as f64 / swim.committed as f64;
    let parser_frac = parser.distant_issues as f64 / parser.committed as f64;
    assert!(
        swim_frac > parser_frac + 0.1,
        "distant ILP should separate swim ({swim_frac:.3}) from parser ({parser_frac:.3})"
    );
}

#[test]
fn mispredict_intervals_ordered_as_designed() {
    let swim = run("swim", SimConfig::default(), 16, 40_000);
    let vpr = run("vpr", SimConfig::default(), 16, 40_000);
    assert!(
        swim.mispredict_interval() > 4.0 * vpr.mispredict_interval(),
        "swim interval {} should dwarf vpr interval {}",
        swim.mispredict_interval(),
        vpr.mispredict_interval()
    );
}

#[test]
fn grid_interconnect_helps_wide_configurations() {
    let mut grid_cfg = SimConfig::default();
    grid_cfg.interconnect.topology = Topology::Grid;
    let ring = run("swim", SimConfig::default(), 16, 40_000);
    let grid = run("swim", grid_cfg, 16, 40_000);
    assert!(
        grid.ipc() >= ring.ipc() * 0.98,
        "grid should not be slower than ring: ring {:.3}, grid {:.3}",
        ring.ipc(),
        grid.ipc()
    );
}

#[test]
fn decentralized_cache_model_runs_and_predicts_banks() {
    let mut cfg = SimConfig::default();
    cfg.cache.model = CacheModel::Decentralized;
    let s = run("swim", cfg, 16, 40_000);
    assert!(s.bank_predictions > 1_000, "bank predictor unused");
    assert!(s.bank_accuracy() > 0.2, "bank accuracy {:.3}", s.bank_accuracy());
    assert!(s.ipc() > 0.05);
}

#[test]
fn register_transfers_grow_with_cluster_count() {
    let few = run("galgel", SimConfig::default(), 2, 40_000);
    let many = run("galgel", SimConfig::default(), 16, 40_000);
    let few_rate = few.reg_transfers as f64 / few.committed as f64;
    let many_rate = many.reg_transfers as f64 / many.committed as f64;
    assert!(
        many_rate > few_rate,
        "wider machine must communicate more: 2→{few_rate:.3}, 16→{many_rate:.3}"
    );
    assert!(many.avg_transfer_hops() > few.avg_transfer_hops());
}

#[test]
fn memory_bound_code_misses_in_l1() {
    let s = run("swim", SimConfig::default(), 16, 40_000);
    assert!(
        s.l1_hit_rate() < 0.995,
        "swim streams 1.5MB through a 32KB L1; hit rate {:.4}",
        s.l1_hit_rate()
    );
    assert!(s.l2_misses < s.l1_misses);
}
