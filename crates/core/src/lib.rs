//! Dynamic cluster-allocation policies — the contribution of
//! Balasubramonian, Dwarkadas & Albonesi, *"Dynamically Managing the
//! Communication-Parallelism Trade-off in Future Clustered
//! Processors"* (ISCA 2003).
//!
//! A 16-cluster processor gives a thread a huge instruction window but
//! pays long inter-cluster trips for operands and cache data; a
//! 4-cluster subset keeps communication local but can only exploit
//! nearby ILP. These policies decide, at run time, how many clusters
//! the thread should use:
//!
//! * [`IntervalExplore`] — the robust interval-based algorithm with
//!   exploration and an adaptive interval length (paper Figure 4;
//!   ~11% mean speedup over the best static configuration).
//! * [`IntervalDistantIlp`] — no exploration: one wide probe interval
//!   measures *distant ILP* and directly picks 4 or 16 clusters
//!   (paper §4.3).
//! * [`FineGrain`] — reconfiguration at basic-block boundaries driven
//!   by a sampled reconfiguration table (paper §4.4; ~15% mean
//!   speedup), in both the every-Nth-branch and subroutine
//!   (call/return) variants.
//! * [`phase`] — the interval model the interval policies share: the
//!   per-interval counter, Figure 4's phase-change test, the
//!   [`Timeline`] observer, and the offline instability analysis
//!   behind Table 4.
//!
//! All policies implement
//! [`ReconfigPolicy`](clustered_sim::ReconfigPolicy) and plug into
//! [`drive`](clustered_sim::drive).
//!
//! # Examples
//!
//! ```
//! use clustered_core::IntervalExplore;
//! use clustered_sim::{drive, NullObserver, SimConfig, SteeringKind};
//! use clustered_workloads::by_name;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = by_name("gzip").expect("known workload");
//! let stream = workload.trace().map(Result::unwrap);
//! let policy = Box::new(IntervalExplore::default());
//! let steering = SteeringKind::default();
//! let run = drive(SimConfig::default(), stream, policy, steering, NullObserver, 0, 30_000)?;
//! assert!(run.stats.committed >= 30_000);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod distant;
mod explore;
pub mod export;
mod finegrain;
pub mod phase;

pub use distant::{IntervalDistantIlp, IntervalDistantIlpConfig};
pub use explore::{IntervalExplore, IntervalExploreConfig};
pub use export::{
    chrome_trace, decisions_document, decisions_jsonl, host_chrome_trace, host_profile_json,
    timeline_jsonl, HOST_TID_BASE,
};
pub use finegrain::{FineGrain, FineGrainConfig, Trigger};
pub use phase::{Timeline, TimelineEntry};
