//! `clustered` — a dynamically tunable clustered-processor simulator.
//!
//! A from-scratch Rust reproduction of Balasubramonian, Dwarkadas &
//! Albonesi, *"Dynamically Managing the Communication-Parallelism
//! Trade-off in Future Clustered Processors"* (ISCA 2003). This facade
//! crate re-exports the whole stack:
//!
//! * [`isa`] — the virtual RISC ISA and assembler,
//! * [`emu`] — the functional emulator / dynamic-trace generator,
//! * [`workloads`] — nine benchmark-analogue kernels (Table 3),
//! * [`sim`] — the cycle-level clustered processor,
//! * [`policies`] — the paper's dynamic cluster-allocation algorithms,
//! * [`stats`] — reporting helpers used by the experiment harness.
//!
//! # Quick start
//!
//! ```
//! use clustered::policies::IntervalExplore;
//! use clustered::sim::{drive, NullObserver, SimConfig, SteeringKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = clustered::workloads::by_name("gzip").expect("known workload");
//! let stream = workload.trace().map(Result::unwrap);
//! let run = drive(
//!     SimConfig::default(),
//!     stream,
//!     Box::new(IntervalExplore::default()),
//!     SteeringKind::default(),
//!     NullObserver,
//!     10_000, // warm-up
//!     50_000, // measured
//! )?;
//! let stats = run.stats;
//! println!("IPC {:.2}, {:.1} clusters on average", stats.ipc(), stats.avg_active_clusters());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use clustered_core as policies;
pub use clustered_emu as emu;
pub use clustered_isa as isa;
pub use clustered_sim as sim;
pub use clustered_stats as stats;
pub use clustered_workloads as workloads;
