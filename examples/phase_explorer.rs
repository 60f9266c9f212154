//! Phase analysis of a workload: samples per-interval metrics with a
//! timeline observer on a fixed 16-cluster run (as Table 4 does),
//! prints the instability factor at a range of interval lengths, and
//! reports the interval length the Figure 4 algorithm would settle on.
//!
//! ```sh
//! cargo run --release --example phase_explorer -- gzip
//! ```

use clustered::policies::phase::{instability_factor, minimum_stable_interval, Timeline};
use clustered::sim::{drive, FixedPolicy, SimConfig, SteeringKind};
use clustered::workloads;

const BASE_INTERVAL: u64 = 1_000;
const INSTRUCTIONS: u64 = 500_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gzip".to_string());
    let Some(w) = workloads::by_name(&name) else {
        eprintln!("unknown workload `{name}`; choose from {:?}", workloads::NAMES);
        std::process::exit(2);
    };
    println!("Phase behaviour of `{name}` ({INSTRUCTIONS} instructions, 16 clusters)\n");

    let stream = w.trace().map(|r| r.expect("kernel is endless"));
    let (cfg, steering) = (SimConfig::default(), SteeringKind::default());
    let timeline = Timeline::new(BASE_INTERVAL, 16);
    let policy = Box::new(FixedPolicy::new(16));
    let records =
        drive(cfg, stream, policy, steering, timeline, 0, INSTRUCTIONS)?.observer.records();

    println!("{:>16} {:>12}", "interval length", "instability");
    let mut group = 1;
    while records.len() / group >= 4 {
        if let Some(factor) = instability_factor(&records, group) {
            let marker = if factor < 5.0 { "  <- acceptable (<5%)" } else { "" };
            println!("{:>16} {factor:>11.1}%{marker}", BASE_INTERVAL * group as u64);
        }
        group *= 2;
    }
    match minimum_stable_interval(&records, 5.0) {
        Some((len, factor)) => {
            println!("\nThe interval algorithm would settle at {len}-instruction intervals");
            println!(
                "({factor:.1}% instability). Paper Table 4 reports {} for {name}.",
                w.paper().min_stable_interval
            );
        }
        None => println!("\nRun too short to evaluate any interval length."),
    }
    Ok(())
}
