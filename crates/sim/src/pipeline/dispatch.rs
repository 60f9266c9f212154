//! Dispatch: rename, steering, and structural-hazard checks.

use super::{Processor, ABSENT, STORE_VALUE_SLOT};
use crate::cluster::{Domain, FuGroup};
use crate::config::{CacheModel, MAX_CLUSTERS};
use crate::observe::SimObserver;
use crate::steer::SteerRequest;
use clustered_emu::TraceSource;
use clustered_isa::{ArchReg, OpClass};

impl<T: TraceSource, O: SimObserver> Processor<T, O> {
    pub(super) fn dispatch(&mut self) {
        if self.pending_reconfig.is_some() || self.now < self.dispatch_stall_until {
            return;
        }
        for _ in 0..self.cfg.frontend.dispatch_width {
            if self.rob.len() >= self.cfg.frontend.rob_size {
                self.stats.dispatch_stall_rob += 1;
                break;
            }
            let Some(front) = self.fetch_queue.front() else {
                self.stats.dispatch_stall_fetch += 1;
                break;
            };
            if front.fetched_at >= self.now {
                self.stats.dispatch_stall_fetch += 1;
                break;
            }
            if !self.try_dispatch_one() {
                self.stats.dispatch_stall_resources += 1;
                break;
            }
        }
    }

    /// Architectural register `r`'s in-flight producer: its seq and
    /// ROB index, or `None` when the value is architectural.
    ///
    /// Rename-map entries are cleared at commit, so a mapping whose
    /// producer is no longer in flight is corrupt state: asserted in
    /// debug builds; release builds degrade to treating the value as
    /// architectural rather than panicking.
    fn renamed_producer(&self, r: usize) -> Option<(u64, usize)> {
        let pseq = self.rename[r]?;
        let idx = self.rob_index(pseq);
        debug_assert!(idx.is_some(), "rename map names retired producer {pseq}");
        idx.map(|i| (pseq, i))
    }

    /// Attempts to dispatch the head of the fetch queue; returns false
    /// on a structural stall.
    fn try_dispatch_one(&mut self) -> bool {
        let front = self.fetch_queue.front().expect("checked by caller");
        let d = front.d;
        let mispredicted = front.mispredicted;
        // Already decoded at (or before) fetch: no `Inst` in sight.
        let class = d.class;
        let sources = d.srcs;
        let dest = d.dest;
        let domain = Domain::of(class);

        // Producer clusters and criticality estimates for steering.
        let mut producer: [Option<usize>; 2] = [None; 2];
        let mut estimate: [u64; 2] = [0; 2];
        for (i, src) in sources.iter().enumerate() {
            let Some(r) = src else { continue };
            let r = r.unified_index();
            match self.renamed_producer(r) {
                Some((_, pidx)) => {
                    let p = &self.rob[pidx];
                    producer[i] = Some(p.cluster as usize);
                    estimate[i] = if p.done { p.done_at } else { ABSENT };
                }
                None => {
                    let home = self.arch_home[r];
                    producer[i] = Some(home);
                    estimate[i] = self.domains[home].arch_avail[r];
                }
            }
        }
        // Pick the predicted-critical operand: a trained table when
        // enabled (the paper's configuration), otherwise the
        // dispatch-time arrival estimate.
        let critical_slot = if producer[0].is_none() || producer[1].is_none() {
            usize::from(producer[0].is_none())
        } else if self.cfg.crit.enabled {
            self.crit.predict(d.pc)
        } else {
            usize::from(estimate[1] > estimate[0])
        };
        let (critical, other) = (producer[critical_slot], producer[1 - critical_slot]);

        // Decentralized loads/stores prefer the predicted bank's
        // cluster; the predictor's full-width output is masked to the
        // active count (paper §5).
        let is_memref = matches!(class, OpClass::Load | OpClass::Store);
        let decentralized = self.cfg.cache.model == CacheModel::Decentralized;
        // Prediction (lookup only) happens here because steering needs
        // the bank; training and statistics happen only once dispatch
        // actually consumes the instruction, so a structurally stalled
        // memref retried every cycle is not re-trained or double-counted.
        let predicted_bank = if decentralized && is_memref {
            let full_mask = self.cfg.clusters.count - 1;
            (self.bankpred.predict(d.pc) as usize & full_mask) & (self.active - 1)
        } else {
            0
        };
        let bank_cluster = (decentralized && is_memref).then_some(predicted_bank);

        // LSQ capacity: loads need their own slice, stores need every
        // active slice (dummy slots); the centralized pool needs one
        // slot either way.
        match (self.cfg.cache.model, class) {
            (CacheModel::Centralized, OpClass::Load | OpClass::Store)
                if !self.lsq[0].has_space() =>
            {
                return false;
            }
            (CacheModel::Decentralized, OpClass::Store)
                if !(0..self.active).all(|k| self.lsq[k].has_space()) =>
            {
                return false;
            }
            _ => {}
        }

        let dest_domain = dest.map(|r| usize::from(!r.is_int()));
        // A decentralized load also needs a slot in the steered
        // cluster's LSQ slice: fold that into the steering mask so a
        // stateful heuristic (Mod_N cursor) never picks a cluster the
        // dispatch then has to reject. (Loads to the zero register have
        // no destination but still occupy a slice slot, hence the
        // `needs_reg` widening.)
        let load_needs_slice = decentralized && class == OpClass::Load;
        let needs_reg = dest.is_some() || load_needs_slice;
        let mut has_free_reg = [false; MAX_CLUSTERS];
        for (c, free) in has_free_reg.iter_mut().enumerate().take(self.active) {
            *free = match dest_domain {
                Some(k) => self.domains[c].free_regs[k] > 0,
                None => true,
            } && (!load_needs_slice || self.lsq[c].has_space());
        }
        // The steering heuristics want a dense occupancy slice; gather
        // it from the domain owners (a few words per instruction).
        let mut occ = [0usize; MAX_CLUSTERS];
        for (c, d) in self.domains.iter().enumerate() {
            occ[c] = d.iq_used[domain.index()];
        }
        let request = SteerRequest {
            active: self.active,
            occupancy: &occ[..self.domains.len()],
            capacity: self.domains[0].sched.iq_cap[domain.index()],
            has_free_reg: &has_free_reg[..self.domains.len()],
            needs_reg,
            critical_producer: critical,
            other_producer: other,
            bank_cluster,
        };
        let Some(cluster) = self.steering.choose(&request) else { return false };

        // All structural checks passed: consume the fetch-queue entry.
        self.fetch_queue.pop_front();
        self.stats.dispatched += 1;
        if decentralized && is_memref {
            // Train the bank predictor in program order and account
            // accuracy, now that this memref definitely dispatches.
            // Memref records without an address are rejected by the
            // trace loader; a decoded one slipping through is corrupt
            // state, degraded to skipping the training.
            if let Some(m) = d.mem {
                let full_mask = self.cfg.clusters.count - 1;
                let actual_full = (m.addr >> 3) as usize & full_mask;
                self.bankpred.update(d.pc, actual_full as u8);
                self.stats.bank_predictions += 1;
                if predicted_bank != actual_full & (self.active - 1) {
                    self.stats.bank_mispredictions += 1;
                }
            } else {
                debug_assert!(false, "memref {} without an address", d.seq);
            }
        }
        self.domains[cluster].iq_used[domain.index()] += 1;
        if let Some(k) = dest_domain {
            self.domains[cluster].free_regs[k] -= 1;
        }
        let alloc_slice = match (self.cfg.cache.model, class) {
            (CacheModel::Centralized, OpClass::Load | OpClass::Store) => {
                self.lsq[0].allocate();
                if class == OpClass::Store {
                    self.lsq[0].add_unresolved_store(d.seq);
                }
                0
            }
            (CacheModel::Decentralized, OpClass::Load) => {
                self.lsq[cluster].allocate();
                cluster
            }
            (CacheModel::Decentralized, OpClass::Store) => {
                for k in 0..self.active {
                    self.lsq[k].allocate();
                    self.lsq[k].add_unresolved_store(d.seq);
                }
                cluster
            }
            _ => 0,
        };

        // Rename: record what this destination frees at commit.
        let frees = dest.map(|r| {
            let ri = r.unified_index();
            let k = u8::from(!r.is_int());
            match self.renamed_producer(ri) {
                Some((_, pidx)) => (self.rob[pidx].cluster, k),
                None => (self.arch_home[ri] as u8, k),
            }
        });

        // Open the tail ROB slot and initialise it in place — the old
        // stack-built entry cost a full-struct move into the deque.
        let seq = d.seq;
        let ready_at = self.now + 1 + self.net.latency(0, cluster);
        let active = self.active;
        let idx = self.rob.len();
        {
            debug_assert!(cluster < MAX_CLUSTERS && active <= MAX_CLUSTERS);
            let e = self.rob.push_slot();
            e.d = d;
            e.class = class;
            e.cluster = cluster as u8;
            e.dest = dest;
            e.frees = frees;
            e.srcs_outstanding = 0;
            e.src_arrival = [0; 2];
            e.src_present = [false; 2];
            e.ready_at = ready_at;
            e.done = false;
            e.done_at = 0;
            e.distant = false;
            e.mispredicted = mispredicted;
            e.copies_mask = 0;
            e.agu_done = ABSENT;
            e.store_value_at = ABSENT;
            e.bank = 0;
            e.bank_cluster = 0;
            e.alloc_slice = alloc_slice as u8;
            e.active_at_dispatch = active as u8;
        }

        // Resolve sources: architectural and completed values get (or
        // schedule) a local copy; in-flight producers get a waiter,
        // registered directly on the producer's slot.
        let mut store_value_waited = false;
        for (i, src) in sources.iter().enumerate() {
            let Some(src) = src else { continue };
            // A store's second source is its data: it gates completion
            // but not address generation.
            let store_value = class == OpClass::Store && i == 1;
            if !store_value {
                self.rob[idx].src_present[i] = true;
            }
            let r = src.unified_index();
            match self.renamed_producer(r) {
                Some((_, pidx)) => {
                    if self.rob[pidx].done {
                        let arrival = self.value_arrival(pidx, cluster);
                        let e = &mut self.rob[idx];
                        if store_value {
                            e.store_value_at = arrival;
                        } else {
                            e.src_arrival[i] = arrival;
                            e.ready_at = e.ready_at.max(arrival);
                        }
                    } else if store_value {
                        store_value_waited = true;
                        self.rob[pidx].waiters.push((seq, cluster as u8, STORE_VALUE_SLOT));
                    } else {
                        self.rob[idx].srcs_outstanding += 1;
                        self.rob[pidx].waiters.push((seq, cluster as u8, i as u8));
                    }
                }
                None => {
                    let arrival = self.arch_value_arrival(r, cluster);
                    let e = &mut self.rob[idx];
                    if store_value {
                        e.store_value_at = arrival;
                    } else {
                        e.src_arrival[i] = arrival;
                        e.ready_at = e.ready_at.max(arrival);
                    }
                }
            }
        }
        if class == OpClass::Store && self.rob[idx].store_value_at == ABSENT && !store_value_waited
        {
            // Stores of the zero register have no data dependence.
            self.rob[idx].store_value_at = 0;
        }
        if let Some(r) = dest.map(ArchReg::unified_index) {
            self.rename[r] = Some(seq);
        }
        if self.rob[idx].srcs_outstanding == 0 {
            let (group, ready_at) = (FuGroup::of(class), self.rob[idx].ready_at);
            self.cluster_enqueue(cluster, group, ready_at, seq);
        }
        true
    }

    fn arch_value_arrival(&mut self, r: usize, to: usize) -> u64 {
        if self.domains[to].arch_avail[r] != ABSENT {
            return self.domains[to].arch_avail[r];
        }
        let home = self.arch_home[r];
        let base = self.domains[home].arch_avail[r];
        let arrival = self.net.transfer(home, to, base.max(self.now));
        let hops = self.net.distance(home, to);
        self.stats.reg_transfers += 1;
        self.stats.reg_transfer_hops += hops;
        self.domains[to].arch_avail[r] = arrival;
        arrival
    }
}
