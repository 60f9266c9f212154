//! Performance benches: one group per table/figure of the paper, each
//! exercising the same code path as the corresponding experiment
//! binary at a reduced instruction count, plus substrate throughput
//! benches (assembler, emulator, simulator).
//!
//! The experiment binaries in `src/bin/` regenerate the full
//! tables/figures; these benches track the *performance* of the
//! reproduction itself. Implemented on `std::time::Instant` (the
//! offline build environment cannot fetch criterion); invoke with
//! `cargo bench` — each case reports min/median/mean wall time over a
//! fixed number of samples.

use clustered_bench::harness::Harness;
use clustered_bench::{run_experiment, run_experiment_with};
use clustered_core::{FineGrain, IntervalDistantIlp, IntervalExplore, Recording};
use clustered_sim::{CacheModel, FixedPolicy, NullObserver, SimConfig, SteeringKind, Topology};
use clustered_workloads::by_name;
use std::hint::black_box;

const INSTRUCTIONS: u64 = 20_000;
const WARMUP: u64 = 2_000;

fn main() {
    let mut h = Harness::from_env("experiments");

    let gzip = by_name("gzip").expect("workload");
    h.bench("substrates/assemble_gzip_kernel", || {
        black_box(by_name("gzip").unwrap());
    });
    h.bench("substrates/emulate_20k", || {
        let mut m = gzip.machine();
        m.run_to_halt(INSTRUCTIONS).unwrap();
        black_box(m.instructions_executed());
    });

    for clusters in [4usize, 16] {
        h.bench(&format!("fig3_static/gzip_{clusters}_clusters"), || {
            black_box(run_experiment(
                &gzip,
                SimConfig::default(),
                Box::new(FixedPolicy::new(clusters)),
                WARMUP,
                INSTRUCTIONS,
            ));
        });
    }
    h.bench("fig3_static/gzip_monolithic_table3", || {
        black_box(run_experiment(
            &gzip,
            SimConfig::monolithic(),
            Box::new(FixedPolicy::new(1)),
            WARMUP,
            INSTRUCTIONS,
        ));
    });

    h.bench("table4_instability/metrics_recorder", || {
        let (recorder, records) = Recording::new(FixedPolicy::new(16), 1_000);
        run_experiment_with(
            &gzip,
            SimConfig::default(),
            Box::new(recorder),
            SteeringKind::default(),
            NullObserver,
            0,
            INSTRUCTIONS,
        );
        black_box(records.borrow().len());
    });

    h.bench("fig5_interval_schemes/interval_explore", || {
        black_box(run_experiment(
            &gzip,
            SimConfig::default(),
            Box::new(IntervalExplore::default()),
            WARMUP,
            INSTRUCTIONS,
        ));
    });
    h.bench("fig5_interval_schemes/interval_distant_1k", || {
        black_box(run_experiment(
            &gzip,
            SimConfig::default(),
            Box::new(IntervalDistantIlp::with_interval(1_000)),
            WARMUP,
            INSTRUCTIONS,
        ));
    });

    let crafty = by_name("crafty").expect("workload");
    h.bench("fig6_finegrain/branch_table", || {
        black_box(run_experiment(
            &crafty,
            SimConfig::default(),
            Box::new(FineGrain::branch_policy()),
            WARMUP,
            INSTRUCTIONS,
        ));
    });
    h.bench("fig6_finegrain/subroutine", || {
        black_box(run_experiment(
            &crafty,
            SimConfig::default(),
            Box::new(FineGrain::subroutine_policy()),
            WARMUP,
            INSTRUCTIONS,
        ));
    });

    let swim = by_name("swim").expect("workload");
    let mut decentralized = SimConfig::default();
    decentralized.cache.model = CacheModel::Decentralized;
    h.bench("fig7_decentralized/decentralized_16", || {
        black_box(run_experiment(
            &swim,
            decentralized,
            Box::new(FixedPolicy::new(16)),
            WARMUP,
            INSTRUCTIONS,
        ));
    });
    h.bench("fig7_decentralized/decentralized_explore", || {
        black_box(run_experiment(
            &swim,
            decentralized,
            Box::new(IntervalExplore::default()),
            WARMUP,
            INSTRUCTIONS,
        ));
    });

    let mut grid = SimConfig::default();
    grid.interconnect.topology = Topology::Grid;
    h.bench("fig8_grid/grid_16", || {
        black_box(run_experiment(
            &swim,
            grid,
            Box::new(FixedPolicy::new(16)),
            WARMUP,
            INSTRUCTIONS,
        ));
    });

    for (name, kind) in [
        ("producer", SteeringKind::default()),
        ("mod_n", SteeringKind::ModN(4)),
        ("first_fit", SteeringKind::FirstFit),
    ] {
        h.bench(&format!("ablation_steering/{name}"), || {
            black_box(run_experiment_with(
                &gzip,
                SimConfig::default(),
                Box::new(FixedPolicy::new(16)),
                kind,
                NullObserver,
                WARMUP,
                INSTRUCTIONS,
            ));
        });
    }

    h.finish();
}
