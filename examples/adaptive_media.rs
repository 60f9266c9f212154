//! Domain scenario: a media pipeline (the paper's Mediabench
//! motivation). Runs the `djpeg`-analogue decode kernel under every
//! policy family and shows how each handles a workload whose 8×8
//! blocks carry distant ILP.
//!
//! ```sh
//! cargo run --release --example adaptive_media
//! ```

use clustered::policies::{FineGrain, IntervalDistantIlp, IntervalExplore};
use clustered::sim::{drive, FixedPolicy, NullObserver, ReconfigPolicy, SimConfig, SteeringKind};
use clustered::workloads;

fn run(policy: Box<dyn ReconfigPolicy>) -> Result<(String, f64, f64), Box<dyn std::error::Error>> {
    let w = workloads::by_name("djpeg").expect("djpeg workload exists");
    let name = policy.name();
    let stream = w.trace().map(|r| r.expect("kernel is endless"));
    let steering = SteeringKind::default();
    // Warm up for 50K instructions, then measure 300K.
    let stats =
        drive(SimConfig::default(), stream, policy, steering, NullObserver, 50_000, 300_000)?.stats;
    Ok((name, stats.ipc(), stats.avg_active_clusters()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("JPEG-decode analogue under each cluster-allocation policy:\n");
    println!("{:<28} {:>6} {:>14}", "policy", "IPC", "avg clusters");
    let policies: Vec<Box<dyn ReconfigPolicy>> = vec![
        Box::new(FixedPolicy::new(4)),
        Box::new(FixedPolicy::new(16)),
        Box::new(IntervalExplore::default()),
        Box::new(IntervalDistantIlp::with_interval(1_000)),
        Box::new(FineGrain::branch_policy()),
        Box::new(FineGrain::subroutine_policy()),
    ];
    let mut best: Option<(String, f64)> = None;
    for policy in policies {
        let (name, ipc, clusters) = run(policy)?;
        println!("{name:<28} {ipc:>6.2} {clusters:>14.1}");
        if best.as_ref().is_none_or(|(_, b)| ipc > *b) {
            best = Some((name, ipc));
        }
    }
    let (name, ipc) = best.expect("at least one policy ran");
    println!("\nBest: {name} at {ipc:.2} IPC — block-parallel media code wants the");
    println!("full 16-cluster window, and every dynamic policy should find that.");
    Ok(())
}
