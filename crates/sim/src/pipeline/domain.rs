//! Per-cluster state domains: the explicit ownership structure of the
//! paper's partitioned machine.
//!
//! A [`ClusterDomain`] owns everything one physical cluster can touch
//! without talking to its neighbours: its flat scheduler ring, its
//! issue-queue and free-register occupancy, its per-architectural-
//! register value-availability table, and its slice of the in-flight
//! value-copy timestamps. Cross-cluster effects — register copies,
//! interconnect hops, LSQ/cache traffic, commit-time scatter — never
//! write another domain's fields directly; they flow through the typed
//! boundary messages of the backend
//! ([`EventKind`](super::events::EventKind) events in the machine-wide
//! `(time, tick)` event queue, interconnect transfer reservations, and
//! the commit stage's architectural scatter; see DESIGN.md, "Cluster
//! domains").

use crate::cluster::{Cluster, FuGroup};
use crate::config::ClusterParams;

/// One cluster's exclusively-owned simulation state.
///
/// The struct makes the partition *visible*: every field here is read
/// and written on behalf of this cluster only, so a stage that needs
/// another cluster's state has to name that cluster's domain.
#[derive(Debug)]
pub(super) struct ClusterDomain {
    /// The cluster's issue scheduler (ready/pending rings, FU busy).
    pub(super) sched: Cluster,
    /// Issue-queue occupancy, `[int, fp]`.
    pub(super) iq_used: [usize; 2],
    /// Free physical registers, `[int, fp]`.
    pub(super) free_regs: [usize; 2],
    /// Cycle each architectural register's value is (or becomes)
    /// available *in this cluster*; `ABSENT` until a copy is routed
    /// here. Written by dispatch's transfer bookkeeping and commit's
    /// scatter — both boundary crossings.
    pub(super) arch_avail: [u64; 64],
    /// Arrival cycle of each in-flight instruction's result *in this
    /// cluster*, indexed by physical ROB slot. Slot `s` is meaningful
    /// only while bit `self_index` of that entry's `copies_mask` is
    /// set — the mask (in the ROB entry) is what dispatch resets, so
    /// the 16-cluster copy table costs the scalar stream nothing.
    pub(super) value_copies: Box<[u64]>,
    /// Issue-stage selection scratch: what `sched.select` picked this
    /// cycle, before the issue stage applies it to shared state.
    pub(super) selected: Vec<(u64, FuGroup, usize)>,
}

impl ClusterDomain {
    /// Builds one cluster's domain; `rob_slots` is the physical ROB
    /// ring capacity (a power of two) sizing the value-copy table.
    pub(super) fn new(params: &ClusterParams, rob_slots: usize) -> ClusterDomain {
        ClusterDomain {
            sched: Cluster::new(params),
            iq_used: [0; 2],
            free_regs: [0; 2],
            arch_avail: [0; 64],
            value_copies: vec![0; rob_slots].into_boxed_slice(),
            selected: Vec::new(),
        }
    }
}
