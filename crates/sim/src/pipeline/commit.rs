//! In-order commit: retirement, policy requests, and reconfiguration.

use super::{legal_cluster_count, Processor, ABSENT};
use crate::config::CacheModel;
use crate::observe::SimObserver;
use crate::reconfig::CommitEvent;
use clustered_emu::{BranchKind, TraceSource};
use clustered_isa::OpClass;

impl<T: TraceSource, O: SimObserver> Processor<T, O> {
    pub(super) fn commit(&mut self) {
        let mut n = 0;
        while n < self.cfg.frontend.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.done || head.done_at > self.now {
                break;
            }
            n += 1;
            self.retire_head();
        }
        self.take_policy_request();
    }

    /// Retires the oldest ROB entry. The scalars retirement needs are
    /// copied out of the head slot and the head advances — the entry
    /// itself (and its waiter vector's capacity) stays in the slot for
    /// its next occupant.
    fn retire_head(&mut self) {
        let e = &self.rob[0];
        debug_assert!(e.waiters.is_empty(), "retiring a producer with undrained waiters");
        let d = e.d;
        let class = e.class;
        let cluster = e.cluster as usize;
        let dest = e.dest;
        let frees = e.frees;
        let distant = e.distant;
        let mispredicted = e.mispredicted;
        let bank = e.bank as usize;
        let bank_cluster = e.bank_cluster as usize;
        let alloc_slice = e.alloc_slice as usize;
        let copies_mask = e.copies_mask;
        // The entry's value-copy rows live under its *physical* slot in
        // the domains; resolve it before the head moves.
        let slot = self.rob.slot_of(0);
        self.rob.advance_head();
        // Stores write their bank at commit (tags, port, stats); the
        // data is buffered so commit itself does not wait.
        match class {
            OpClass::Store => {
                // The loader rejects memref records without an address,
                // so a bare store here is corrupt simulator state:
                // asserted in debug builds, degraded to skipping the
                // cache write in release builds.
                if let Some(mem_access) = d.mem {
                    self.mem.access(
                        &mut self.net,
                        bank,
                        bank_cluster,
                        mem_access.addr,
                        true,
                        self.now,
                        &mut self.stats,
                    );
                    let forward_slice = self.forward_slice(bank);
                    self.lsq[forward_slice].remove_store_data(mem_access.addr >> 3, d.seq);
                } else {
                    debug_assert!(false, "store {} without an address at commit", d.seq);
                }
                self.lsq[alloc_slice].release();
                self.stats.stores += 1;
                self.stats.memrefs += 1;
            }
            OpClass::Load => {
                self.lsq[alloc_slice].release();
                self.stats.loads += 1;
                self.stats.memrefs += 1;
            }
            _ => {}
        }
        if let Some((cluster, domain)) = frees {
            self.domains[cluster as usize].free_regs[domain as usize] += 1;
        }
        if let Some(dest) = dest {
            let r = dest.unified_index();
            if self.rename[r] == Some(d.seq) {
                self.rename[r] = None;
                self.arch_home[r] = cluster;
                // Scatter the retiring value's per-cluster arrival
                // cycles into the domains' architectural tables.
                // Unwitnessed slots are stale values from the ROB
                // slot's previous occupant; materialize them as absent.
                for (c, dom) in self.domains.iter_mut().enumerate() {
                    dom.arch_avail[r] =
                        if copies_mask >> c & 1 == 1 { dom.value_copies[slot] } else { ABSENT };
                }
            }
        }
        self.stats.committed += 1;
        if distant {
            self.stats.distant_issues += 1;
        }
        let mut is_cond = false;
        let mut is_call = false;
        let mut is_return = false;
        if let Some(b) = d.branch {
            self.stats.branches += 1;
            is_cond = b.kind == BranchKind::Conditional;
            is_call = matches!(b.kind, BranchKind::Call | BranchKind::IndirectCall);
            is_return = b.kind == BranchKind::Return;
            if is_cond {
                self.stats.cond_branches += 1;
            }
            if mispredicted {
                self.stats.mispredicts += 1;
            }
        }
        let event = CommitEvent {
            seq: d.seq,
            pc: d.pc,
            cycle: self.now,
            is_branch: d.branch.is_some(),
            is_cond_branch: is_cond,
            is_call,
            is_return,
            is_memref: d.mem.is_some(),
            distant,
            mispredicted,
        };
        let request = self.policy.on_commit(&event);
        self.observer.on_commit(&event, request);
        if request.is_some() {
            self.reconfig_request = request;
        }
        // Decision telemetry is drained only for observers that opt
        // in; the branch is a compile-time constant, so NullObserver
        // runs carry no polling at all.
        if O::WANTS_DECISIONS {
            if let Some(decision) = self.policy.take_decision() {
                self.observer.on_decision(&decision);
            }
        }
    }

    fn take_policy_request(&mut self) {
        let Some(request) = self.reconfig_request.take() else { return };
        let request = legal_cluster_count(
            request,
            self.cfg.clusters.count,
            self.cfg.cache.model == CacheModel::Decentralized,
        );
        match self.cfg.cache.model {
            CacheModel::Centralized => {
                if request != self.active {
                    self.observer.on_reconfig(self.now, self.active, request);
                    self.active = request;
                    self.stats.reconfigurations += 1;
                }
            }
            CacheModel::Decentralized => {
                // A request back to the current configuration cancels a
                // not-yet-applied switch instead of scheduling a
                // drain + flush to the configuration already in use.
                self.pending_reconfig = (request != self.active).then_some(request);
            }
        }
    }

    pub(super) fn apply_reconfig(&mut self) {
        let Some(target) = self.pending_reconfig else { return };
        // The bank interleaving changes, so the pipeline drains and the
        // L1 is flushed to L2 while the processor stalls (paper §5).
        if !self.rob.is_empty() {
            return;
        }
        let (writebacks, stall) = self.mem.flush_l1();
        self.stats.flush_writebacks += writebacks;
        self.stats.flush_stall_cycles += stall;
        self.dispatch_stall_until = self.now + stall;
        self.observer.on_flush_stall(self.now, stall, writebacks);
        self.observer.on_reconfig(self.now, self.active, target);
        self.active = target;
        self.stats.reconfigurations += 1;
        self.pending_reconfig = None;
    }
}
