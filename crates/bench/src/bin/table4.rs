//! Table 4: instability factors — for each benchmark, the smallest
//! interval length whose instability factor is below 5%, and the
//! factor at the smallest interval examined.
//!
//! The paper sampled 10K-instruction intervals over billions of
//! instructions; this scaled-down run samples 1K-instruction base
//! intervals over the measured window, so interval lengths are
//! correspondingly smaller. The *ordering* across benchmarks (which
//! programs need coarse intervals) is the reproduced result.

use clustered_bench::{measure_instructions, run_experiment_with, warmup_instructions};
use clustered_core::phase::{instability_factor, minimum_stable_interval, StabilityThresholds};
use clustered_core::Recording;
use clustered_sim::{FixedPolicy, NullObserver, SimConfig, SteeringKind};
use clustered_stats::Table;

const BASE_INTERVAL: u64 = 1_000;

fn main() {
    let warmup = warmup_instructions();
    let measure = measure_instructions();
    println!("Table 4: instability factors for different interval lengths");
    println!("(16 clusters, centralized cache; base interval {BASE_INTERVAL}, ");
    println!(" {measure} measured instructions)\n");
    let thresholds = StabilityThresholds::default();
    let mut table = Table::new(&[
        "benchmark",
        "min acceptable interval",
        "its instability",
        &format!("instability @ {BASE_INTERVAL}"),
        "paper min (10K base)",
        "paper @10K",
    ]);
    for w in clustered_workloads::all() {
        let (recorder, timeline) = Recording::new(FixedPolicy::new(16), BASE_INTERVAL);
        // One window over the whole run; the warm-up intervals are
        // dropped from the records below.
        run_experiment_with(
            &w,
            SimConfig::default(),
            Box::new(recorder),
            SteeringKind::default(),
            NullObserver,
            0,
            warmup + measure,
        );
        let records: Vec<_> = timeline.borrow().iter().map(|e| e.record).collect();
        let skip = (warmup / BASE_INTERVAL) as usize;
        let records = &records[skip.min(records.len())..];
        let base_factor =
            instability_factor(records, 1, &thresholds).unwrap_or(f64::NAN);
        let (min_len, min_factor) = minimum_stable_interval(records, &thresholds, 5.0)
            .unwrap_or((0, f64::NAN));
        let paper = w.paper();
        table.row(&[
            w.name().to_string(),
            format!("{min_len}"),
            format!("{min_factor:.0}%"),
            format!("{base_factor:.0}%"),
            format!("{}", paper.min_stable_interval),
            format!("{:.0}%", paper.instability_at_10k),
        ]);
    }
    println!("{table}");
    println!("Paper shape: the loop-based FP codes (swim, mgrid, galgel) are stable at");
    println!("the smallest interval; integer and phased codes (crafty, djpeg, vpr,");
    println!("parser) need intervals one or more doublings coarser.");
}
