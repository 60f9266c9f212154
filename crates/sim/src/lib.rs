//! Cycle-level simulator of a dynamically tunable *clustered*
//! out-of-order processor — the evaluation substrate of
//! Balasubramonian, Dwarkadas & Albonesi, *"Dynamically Managing the
//! Communication-Parallelism Trade-off in Future Clustered
//! Processors"* (ISCA 2003).
//!
//! The machine is a 16-cluster superscalar in which each cluster owns a
//! slice of the issue queue, register file, and functional units
//! (Table 1 of the paper), connected by a ring (or grid) whose hop
//! latency makes *communication* the counterweight to *parallelism*:
//! more active clusters mean a bigger instruction window but longer
//! operand and cache trips. A [`ReconfigPolicy`] (implemented in the
//! `clustered-core` crate) decides, at run time, how many clusters the
//! running thread may dispatch to.
//!
//! Both L1 organisations of the paper are modelled: a centralized
//! word-interleaved cache co-located with cluster 0 (§2.1) and a
//! decentralized per-cluster banked cache with bank prediction and
//! store-broadcast dummy LSQ slots (§2.2/§5).
//!
//! # Examples
//!
//! ```
//! use clustered_isa::assemble;
//! use clustered_emu::trace;
//! use clustered_sim::{FixedPolicy, Processor, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     "li r1, 1000
//!      loop: addi r1, r1, -1
//!      bnez r1, loop
//!      halt",
//! )?;
//! let stream = trace(program).map(Result::unwrap);
//! let mut cpu = Processor::new(
//!     SimConfig::default(),
//!     stream,
//!     Box::new(FixedPolicy::new(4)),
//! )?;
//! let stats = cpu.run(u64::MAX)?; // to end of trace
//! assert!(stats.ipc() > 0.5);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod audit;
mod bankpred;
mod bpred;
mod cache;
mod cluster;
mod config;
mod crit;
mod decision;
mod energy;
mod host;
mod interconnect;
mod lsq;
mod observe;
mod pipeline;
mod reconfig;
mod slots;
mod stats;
mod steer;

pub use audit::{AuditCheck, AuditInvariant, AuditObserver, AuditViolation, DEFAULT_VIOLATION_CAP};
pub use bankpred::{BankPredictor, BANK_BITS, MAX_PREDICTED_BANKS};
pub use bpred::{BranchPredictor, Prediction};
pub use cache::{ArrayAccess, CacheArray, MemHierarchy};
pub use cluster::{latency_of, Cluster, Domain, FuGroup, FU_GROUPS};
pub use config::{
    BankPredParams, BpredParams, CacheModel, CacheParams, ClusterParams, ConfigError, CritParams,
    ExecLatencies, FrontendParams, InterconnectParams, SimConfig, Topology, MAX_CLUSTERS,
};
pub use crit::CriticalityPredictor;
pub use decision::{DecisionReason, DecisionRecord, PolicyState};
pub use energy::{estimate_energy, EnergyBreakdown, EnergyParams};
pub use host::{
    HostProfiler, HostSlice, HostStage, QueueHealth, DEFAULT_SAMPLE_INTERVAL, DEFAULT_SLICE_CAP,
    HOST_STAGE_COUNT,
};
pub use interconnect::Interconnect;
pub use lsq::LsqSlice;
pub use observe::{
    DecisionTrace, FlushEvent, NullObserver, ReconfigEvent, ReconfigLog, SimObserver,
    DEFAULT_EVENT_CAP,
};
pub use pipeline::{drive, Processor, Run, SimError};
pub use reconfig::{
    CommitEvent, FixedPolicy, ReconfigPolicy, DISTANT_DEPTH, FIXED_CHECKPOINT_COMMITS,
};
pub use slots::SlotReservations;
pub use stats::SimStats;
pub use steer::{SteerRequest, Steering, SteeringKind};
