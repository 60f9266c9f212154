//! Per-cluster select/issue, skipping quiescent clusters.
//!
//! The stage walks `queued_mask` — the set of clusters with dispatched
//! instructions awaiting issue — in ascending cluster order, which is
//! exactly the order a loop over every cluster would visit them in. A
//! skipped cluster would have selected nothing and scheduled nothing,
//! so skipping it changes no machine state and consumes no event
//! ticks: the computed schedule is bit-identical, the cost is
//! proportional to busy clusters only.
//!
//! Each busy cluster's scheduler picks this cycle's issue set into its
//! own [`ClusterDomain`]'s scratch; the stage then applies the picks to
//! shared state (ROB flags, stats, event scheduling). An issued
//! instruction wakes its consumers through *events*, never by a
//! same-cycle direct enqueue into another cluster's scheduler.
//!
//! [`ClusterDomain`]: super::domain::ClusterDomain

use super::events::EventKind;
use crate::cluster::{latency_of, Domain};
use crate::observe::SimObserver;
use crate::reconfig::DISTANT_DEPTH;
use clustered_emu::TraceSource;
use clustered_isa::OpClass;

use super::Processor;

impl<T: TraceSource, O: SimObserver> Processor<T, O> {
    /// Per busy cluster, in ascending cluster order: select this
    /// cycle's issue set, then apply it.
    pub(super) fn issue(&mut self) {
        let busy = self.queued_mask.count_ones() as usize;
        self.stats.quiescent_cluster_cycles += (self.domains.len() - busy) as u64;
        let mut m = self.queued_mask;
        while m != 0 {
            let c = m.trailing_zeros() as usize;
            m &= m - 1;
            self.issue_cluster(c);
        }
    }

    /// Cluster `c`'s scheduler fills its domain's `selected` scratch;
    /// the selections then go to shared state — FU occupancy, ROB
    /// flags, criticality training, stats, and the writeback/AGU
    /// events.
    fn issue_cluster(&mut self, c: usize) {
        let d = &mut self.domains[c];
        let mut selected = std::mem::take(&mut d.selected);
        selected.clear();
        d.sched.select(self.now, &mut selected);
        if d.sched.queued() == 0 {
            self.queued_mask &= !(1 << c);
        }
        let head_seq = self.rob.front().map(|e| e.d.seq);
        self.stats.cluster_busy_cycles[c] += 1;
        for &(seq, group, unit) in &selected {
            let Some(idx) = self.rob_index(seq) else {
                debug_assert!(false, "issued seq {seq} not in the ROB");
                continue;
            };
            let class = self.rob[idx].class;
            let (lat, pipelined) = latency_of(&self.cfg.exec, class);
            let busy_until = if pipelined { self.now + 1 } else { self.now + lat };
            self.domains[c].sched.occupy(group, unit, busy_until);
            self.domains[c].iq_used[Domain::of(class).index()] -= 1;
            self.rob[idx].distant = head_seq.is_some_and(|h| seq - h >= DISTANT_DEPTH);
            // Train the criticality predictor with the operand that
            // arrived last.
            if self.rob[idx].src_present == [true, true] {
                let [a0, a1] = self.rob[idx].src_arrival;
                self.crit.update(self.rob[idx].d.pc, usize::from(a1 >= a0));
            }
            match class {
                OpClass::Load => {
                    self.schedule(c, self.now + self.cfg.exec.int_alu, EventKind::LoadAddr { seq })
                }
                OpClass::Store => {
                    self.schedule(c, self.now + self.cfg.exec.int_alu, EventKind::StoreAddr { seq })
                }
                _ => self.schedule(c, self.now + lat, EventKind::WriteBack { seq }),
            }
        }
        self.domains[c].selected = selected;
    }
}
