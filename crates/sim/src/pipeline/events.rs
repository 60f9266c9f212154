//! The event queue and every event handler of the backend.
//!
//! Events — writebacks, AGU completions, LSQ arrivals, and store
//! broadcasts — are the backend's *typed boundary messages*: the only
//! way work crosses from one [`ClusterDomain`] into another or into
//! the shared LSQ/cache/commit machinery. They all wait in one
//! machine-wide calendar [`EventQueue`] and fire in global `(time,
//! tick)` order (see DESIGN.md, "Event model"); each carries the
//! cluster it concerns as a hint, which the host profiler uses to
//! attribute drain work per cluster. [`Processor::drain_events`] pops
//! the earliest due event, runs its handler, and repeats.
//!
//! [`ClusterDomain`]: super::domain::ClusterDomain

use super::{Processor, ABSENT, STORE_VALUE_SLOT};
use crate::cluster::FuGroup;
use crate::config::CacheModel;
use crate::observe::SimObserver;
use clustered_emu::TraceSource;
use clustered_isa::OpClass;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

// Every queued event stores its cluster hint in a u8.
const _: () = assert!(crate::config::MAX_CLUSTERS <= 256, "the cluster hint is a u8");

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum EventKind {
    /// Result available: wake consumers, redirect fetch, etc.
    WriteBack { seq: u64 },
    /// A load's effective address left its AGU.
    LoadAddr { seq: u64 },
    /// A store's effective address left its AGU (its data may still be
    /// outstanding).
    StoreAddr { seq: u64 },
    /// A load arrived at LSQ slice `slice`.
    LoadAtLsq { seq: u64, slice: usize },
    /// A store's address (and data) became visible at LSQ slice
    /// `slice`. Carries everything needed because the store may have
    /// committed before the broadcast lands.
    StoreResolved { seq: u64, slice: usize, word: u64, own: bool, forward_here: bool },
}

/// Calendar window, in cycles; a power of two. Nothing in the machine
/// schedules farther ahead than a memory round trip (~200 cycles at
/// the default latencies), but events beyond the window are still
/// correct: they wait in the overflow heap until the window reaches
/// them. The window is sized just past that lookahead on purpose —
/// bucket headers are walked by every push and pop, so calendar memory
/// is hot-loop working set, not slack space.
const CAL_WINDOW: usize = 512;
const CAL_MASK: usize = CAL_WINDOW - 1;
const CAL_WORDS: usize = CAL_WINDOW / 64;

// The occupancy summary is a single u64, one bit per word.
const _: () = assert!(CAL_WORDS <= 64, "calendar summary bitmap is a u64");

/// One time-indexed bucket of the calendar: the events of a single
/// cycle, appended (and therefore delivered) in tick order.
#[derive(Debug, Default, Clone)]
struct Bucket {
    /// The cycle every entry fires at; meaningful while `items` is
    /// non-empty. Within the window exactly one cycle maps to a bucket.
    time: u64,
    /// Next entry to deliver; earlier entries are already popped.
    next: usize,
    /// `(cluster hint, kind)` in push order.
    items: Vec<(u8, EventKind)>,
}

/// The machine-wide event queue: a calendar ring of [`CAL_WINDOW`]
/// buckets indexed by `time % CAL_WINDOW`, with a two-level occupancy
/// bitmap so the earliest pending bucket is found in a handful of bit
/// operations, plus an overflow heap for events beyond the window.
/// Push and pop are plain `Vec` appends/reads — no heap sift — which
/// is what makes the event machinery cheap.
///
/// `(time, tick)` totally orders all in-flight events (the `tick`
/// counter grows with every push), and [`EventQueue::pop_due`] always
/// returns the smallest due pair, so the drain order is exactly that of
/// a `(time, tick)` min-heap. Within a bucket append order is tick
/// order, because ticks grow with every push and overflow migration
/// always precedes a same-cycle insert.
///
/// `next_due` is a lower bound on the earliest pending event time: on
/// cycles with nothing due the drain returns after one comparison.
#[derive(Debug)]
pub(super) struct EventQueue {
    buckets: Vec<Bucket>,
    /// Bit `i % 64` of `occ[i / 64]` ⇔ `buckets[i]` has undelivered
    /// entries.
    occ: [u64; CAL_WORDS],
    /// Bit `w` ⇔ `occ[w] != 0`.
    summary: u64,
    /// Undelivered events in the calendar ring (overflow excluded).
    calendar: usize,
    /// Tie-break counter, one step per push.
    tick: u64,
    /// Lower bound on the earliest pending event time; exact after a
    /// scan that found nothing due, and pushes can only lower it.
    next_due: u64,
    /// Lower bound on every undelivered event time; advances with the
    /// drain. Scheduling below it would mean firing in the already-
    /// delivered past — a sim bug, asserted in debug builds. Every
    /// calendar event lies in `[floor, floor + CAL_WINDOW)`, so ring
    /// order from `floor` is time order.
    floor: u64,
    /// Events beyond the calendar window, ordered by `(time, tick)`
    /// and carrying their cluster hint; migrated into the ring once the
    /// window reaches them.
    overflow: BinaryHeap<Reverse<(u64, u64, u8, EventKind)>>,
    /// Cumulative events ever pushed (calendar or overflow). With
    /// `popped` and the live totals this is the auditor's conservation
    /// law: `pushed == popped + pending`. Two u64 increments on paths
    /// that already touch the same cache lines — kept unconditionally
    /// so the invariant is checkable on any run.
    pushed: u64,
    /// Cumulative events ever delivered.
    popped: u64,
}

impl EventQueue {
    pub(super) fn new() -> EventQueue {
        EventQueue {
            buckets: vec![Bucket::default(); CAL_WINDOW],
            occ: [0; CAL_WORDS],
            summary: 0,
            calendar: 0,
            tick: 0,
            next_due: u64::MAX,
            floor: 0,
            overflow: BinaryHeap::new(),
            pushed: 0,
            popped: 0,
        }
    }

    fn insert(&mut self, time: u64, cluster: u8, kind: EventKind) {
        let idx = time as usize & CAL_MASK;
        let b = &mut self.buckets[idx];
        if b.items.is_empty() {
            b.time = time;
            self.occ[idx >> 6] |= 1 << (idx & 63);
            self.summary |= 1 << (idx >> 6);
        }
        debug_assert_eq!(b.time, time, "two cycles share a calendar bucket");
        b.items.push((cluster, kind));
        self.calendar += 1;
    }

    /// First occupied bucket at or (circularly) after ring position
    /// `from`. The calendar must be non-empty.
    fn find_first(&self, from: usize) -> usize {
        let w = from >> 6;
        let bits = self.occ[w] & (!0u64 << (from & 63));
        if bits != 0 {
            return (w << 6) | bits.trailing_zeros() as usize;
        }
        let after = if w + 1 == CAL_WORDS { 0 } else { self.summary & (!0u64 << (w + 1)) };
        debug_assert!(self.summary != 0, "searching an empty calendar");
        let sw = if after != 0 {
            after.trailing_zeros() as usize
        } else {
            // Wrap: the earliest bucket is circularly before `from`.
            self.summary.trailing_zeros() as usize
        };
        let bits = if sw == w { self.occ[w] & !(!0u64 << (from & 63)) } else { self.occ[sw] };
        (sw << 6) | bits.trailing_zeros() as usize
    }

    /// Moves overflow events with `time <= limit` (and within the
    /// window) into the calendar. Called before any same-time insert
    /// so bucket append order stays tick order: an overflow event is
    /// always older (smaller tick) than a calendar push for the same
    /// cycle, because the window only ever advances.
    fn migrate_overflow_upto(&mut self, limit: u64) {
        while let Some(&Reverse((t, _, cluster, kind))) = self.overflow.peek() {
            if t > limit || t.saturating_sub(self.floor) >= CAL_WINDOW as u64 {
                break;
            }
            self.overflow.pop();
            self.insert(t, cluster, kind);
        }
    }

    /// Queues `kind` to fire at `time`, tagged with `cluster`.
    pub(super) fn push(&mut self, cluster: usize, time: u64, kind: EventKind) {
        debug_assert!(time >= self.floor, "event scheduled in the delivered past");
        debug_assert!(cluster < crate::config::MAX_CLUSTERS, "cluster hint {cluster} out of range");
        let time = time.max(self.floor);
        let cluster = cluster as u8;
        self.pushed += 1;
        self.tick += 1;
        if !self.overflow.is_empty() {
            self.migrate_overflow_upto(time);
        }
        if time - self.floor >= CAL_WINDOW as u64 {
            self.overflow.push(Reverse((time, self.tick, cluster, kind)));
        } else {
            self.insert(time, cluster, kind);
        }
        self.next_due = self.next_due.min(time);
    }

    /// Pops the earliest event if it is due at `now`, returning it with
    /// the cluster hint it was pushed with (the host profiler's
    /// load-skew attribution key).
    ///
    /// Returns `None` — after refreshing `next_due` exactly — once
    /// nothing is due, so the caller's next idle cycle is a single
    /// comparison.
    pub(super) fn pop_due(&mut self, now: u64) -> Option<(usize, EventKind)> {
        if self.next_due > now {
            return None;
        }
        loop {
            if !self.overflow.is_empty() {
                self.migrate_overflow_upto(now);
            }
            let head = if self.calendar == 0 {
                u64::MAX
            } else {
                let idx = self.find_first(self.floor as usize & CAL_MASK);
                let b = &mut self.buckets[idx];
                if b.time <= now {
                    let (cluster, kind) = b.items[b.next];
                    b.next += 1;
                    if b.next == b.items.len() {
                        b.items.clear();
                        b.next = 0;
                        self.occ[idx >> 6] &= !(1 << (idx & 63));
                        if self.occ[idx >> 6] == 0 {
                            self.summary &= !(1 << (idx >> 6));
                        }
                    }
                    self.calendar -= 1;
                    self.popped += 1;
                    return Some((cluster as usize, kind));
                }
                b.time
            };
            // Nothing due in the calendar; `head` and the overflow head
            // bound every live event, so the floor may rise to their
            // minimum.
            let oh = self.overflow.peek().map_or(u64::MAX, |&Reverse((t, ..))| t);
            if !self.overflow.is_empty() && oh <= now {
                // A due overflow event was blocked by the stale window:
                // raise the floor and retry (each pass migrates at
                // least one event, so this ends).
                self.floor = self.floor.max(head.min(oh));
                continue;
            }
            self.next_due = head.min(oh);
            self.floor = self.floor.max(now.saturating_add(1));
            return None;
        }
    }

    /// Queue-health snapshot for the host profiler:
    /// `(calendar_events, overflow_events, floor)`.
    pub(super) fn health(&self) -> (usize, usize, u64) {
        (self.calendar, self.overflow.len(), self.floor)
    }

    /// Conservation snapshot for the auditor: `(pushed, popped,
    /// pending)`, where `pending` counts live calendar + overflow
    /// events. Every pushed event is either delivered or still
    /// pending: `pushed == popped + pending` at every cycle boundary.
    pub(super) fn conservation(&self) -> (u64, u64, u64) {
        let pending = self.calendar + self.overflow.len();
        (self.pushed, self.popped, pending as u64)
    }
}

impl<T: TraceSource, O: SimObserver> Processor<T, O> {
    /// Queues `kind` to fire at `time`. `cluster` is an attribution
    /// hint only — the drain order is global — so callers pass
    /// whichever cluster or LSQ slice the event concerns.
    pub(super) fn schedule(&mut self, cluster: usize, time: u64, kind: EventKind) {
        self.events.push(cluster, time, kind);
    }

    /// Dispatches one delivered event to its handler.
    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::WriteBack { seq } => self.writeback(seq),
            EventKind::LoadAddr { seq } => self.load_addr(seq),
            EventKind::StoreAddr { seq } => self.store_addr(seq),
            EventKind::LoadAtLsq { seq, slice } => self.load_at_lsq(seq, slice),
            EventKind::StoreResolved { seq, slice, word, own, forward_here } => {
                self.store_resolved(seq, slice, word, own, forward_here)
            }
        }
    }

    /// Delivers every event due this cycle, one at a time, in global
    /// `(time, tick)` order, each handler running before the next pop.
    pub(super) fn drain_events(&mut self) {
        while let Some((cluster, kind)) = self.events.pop_due(self.now) {
            if O::WANTS_HOST_PROFILE {
                self.observer.on_event_drained(cluster);
            }
            self.handle(kind);
        }
    }

    /// A cache-related transfer between clusters: free when local,
    /// otherwise routed on the interconnect and counted.
    pub(super) fn routed_cache_transfer(&mut self, from: usize, to: usize, earliest: u64) -> u64 {
        if from == to {
            earliest
        } else {
            let hops = self.net.distance(from, to);
            self.stats.cache_transfers += 1;
            self.stats.cache_transfer_hops += hops;
            self.net.transfer(from, to, earliest)
        }
    }

    /// The LSQ slice holding forwarding state for a resolved bank:
    /// the central slice for the centralized model, the bank's own
    /// slice otherwise.
    pub(super) fn forward_slice(&self, bank: usize) -> usize {
        match self.cfg.cache.model {
            CacheModel::Centralized => 0,
            CacheModel::Decentralized => bank,
        }
    }

    fn writeback(&mut self, seq: u64) {
        let Some(idx) = self.rob_index(seq) else {
            debug_assert!(false, "writeback for seq {seq} not in the ROB");
            return;
        };
        let cluster = self.rob[idx].cluster as usize;
        let slot = self.rob.slot_of(idx);
        self.rob[idx].done = true;
        self.rob[idx].done_at = self.now;
        self.domains[cluster].value_copies[slot] = self.now;
        self.rob[idx].copies_mask |= 1 << cluster;

        // Wake consumers, transferring the value to their clusters.
        // Walked by index: the handlers touch only the *consumers'*
        // entries (a waiter never waits on itself) and never grow this
        // producer's list, so the slot's vector stays put and keeps
        // its capacity instead of round-tripping through a side pool.
        for w in 0..self.rob[idx].waiters.len() {
            let (wseq, wcluster, slot) = self.rob[idx].waiters[w];
            let arrival = self.value_arrival(idx, wcluster as usize);
            self.source_arrived(wseq, arrival, slot);
        }
        self.rob[idx].waiters.clear();

        // A mispredicted control transfer restarts fetch once the
        // redirect reaches the front end (co-located with cluster 0).
        if self.rob[idx].mispredicted && self.rob[idx].d.branch.is_some() {
            let resume =
                self.now + self.net.latency(cluster, 0) + self.cfg.frontend.mispredict_penalty;
            self.fetch_stall_until = self.fetch_stall_until.max(resume);
            self.awaiting_redirect = false;
        }

        // A store's writeback means address *and* data are known:
        // finalise its forwarding record at the bank slice and release
        // any loads waiting on its data.
        if self.rob[idx].class == OpClass::Store {
            // Memref-without-address traces are rejected at load; see
            // `rob_index` for the release-degrade posture.
            let Some(mem_access) = self.rob[idx].d.mem else {
                debug_assert!(false, "store {seq} without an address at writeback");
                return;
            };
            let fslice = self.forward_slice(self.rob[idx].bank as usize);
            let avail = self.now + self.net.latency(cluster, fslice);
            self.lsq[fslice].update_store_data(mem_access.addr >> 3, seq, avail);
            if !self.loads_waiting_data.is_empty() {
                let mut waiting = std::mem::take(&mut self.waiting_scratch);
                self.loads_waiting_data.retain(|&(store, load, slice)| {
                    let matches = store == seq;
                    if matches {
                        waiting.push((load, slice));
                    }
                    !matches
                });
                for (load_seq, slice) in waiting.drain(..) {
                    self.proceed_load(load_seq, slice);
                }
                self.waiting_scratch = waiting;
            }
        }
    }

    /// When `entry`'s result reaches cluster `to`, scheduling a
    /// transfer if it is not already there or en route. The arrival
    /// timestamp lives in the *destination* domain's value-copy table
    /// (indexed by the producer's physical ROB slot); the entry's
    /// `copies_mask` says which domains hold a copy.
    pub(super) fn value_arrival(&mut self, idx: usize, to: usize) -> u64 {
        let slot = self.rob.slot_of(idx);
        let from = self.rob[idx].cluster as usize;
        let done = self.rob[idx].done_at;
        if self.rob[idx].copies_mask >> to & 1 == 1 {
            return self.domains[to].value_copies[slot];
        }
        let arrival = if to == from {
            done
        } else {
            let a = self.net.transfer(from, to, done.max(self.now));
            let hops = self.net.distance(from, to);
            self.stats.reg_transfers += 1;
            self.stats.reg_transfer_hops += hops;
            a
        };
        self.domains[to].value_copies[slot] = arrival;
        self.rob[idx].copies_mask |= 1 << to;
        arrival
    }

    fn source_arrived(&mut self, seq: u64, arrival: u64, slot: u8) {
        let Some(idx) = self.rob_index(seq) else {
            debug_assert!(false, "woken consumer {seq} not in the ROB");
            return;
        };
        if slot == STORE_VALUE_SLOT {
            // A store's data operand: it does not gate address
            // generation, only the store's completion.
            self.rob[idx].store_value_at = arrival;
            if self.rob[idx].agu_done != ABSENT {
                let t = self.rob[idx].agu_done.max(arrival).max(self.now);
                let cluster = self.rob[idx].cluster as usize;
                self.schedule(cluster, t, EventKind::WriteBack { seq });
            }
            return;
        }
        let e = &mut self.rob[idx];
        e.src_arrival[slot as usize] = arrival;
        e.ready_at = e.ready_at.max(arrival);
        e.srcs_outstanding -= 1;
        if e.srcs_outstanding == 0 {
            let (cluster, group, ready_at) = (e.cluster as usize, FuGroup::of(e.class), e.ready_at);
            self.cluster_enqueue(cluster, group, ready_at, seq);
        }
    }

    fn broadcast_store(&mut self, idx: usize) {
        let seq = self.rob[idx].d.seq;
        let cluster = self.rob[idx].cluster as usize;
        let Some(mem_access) = self.rob[idx].d.mem else {
            debug_assert!(false, "store {seq} without an address at broadcast");
            return;
        };
        let addr = mem_access.addr;
        let word = addr >> 3;
        match self.cfg.cache.model {
            CacheModel::Centralized => {
                let bank = self.mem.bank_of(addr, self.cfg.cache.l1_banks);
                debug_assert!(bank <= u16::MAX as usize, "bank index exceeds u16");
                self.rob[idx].bank = bank as u16;
                self.rob[idx].bank_cluster = 0;
                let at = self.routed_cache_transfer(cluster, 0, self.now);
                self.schedule(
                    0,
                    at.max(self.now),
                    EventKind::StoreResolved { seq, slice: 0, word, own: true, forward_here: true },
                );
            }
            CacheModel::Decentralized => {
                let active = self.rob[idx].active_at_dispatch as usize;
                let bank = self.mem.bank_of(addr, active);
                self.rob[idx].bank = bank as u16;
                self.rob[idx].bank_cluster = bank as u8;
                for k in 0..active {
                    let at = self.routed_cache_transfer(cluster, k, self.now);
                    self.schedule(
                        k,
                        at.max(self.now),
                        EventKind::StoreResolved {
                            seq,
                            slice: k,
                            word,
                            own: k == cluster,
                            forward_here: k == bank,
                        },
                    );
                }
            }
        }
    }

    fn store_addr(&mut self, seq: u64) {
        let Some(idx) = self.rob_index(seq) else {
            debug_assert!(false, "store-address event for seq {seq} not in the ROB");
            return;
        };
        self.rob[idx].agu_done = self.now;
        // Address known: broadcast for disambiguation/dummy release.
        self.broadcast_store(idx);
        let value_at = self.rob[idx].store_value_at;
        if value_at != ABSENT {
            let cluster = self.rob[idx].cluster as usize;
            self.schedule(cluster, value_at.max(self.now), EventKind::WriteBack { seq });
        }
    }

    fn load_addr(&mut self, seq: u64) {
        let Some(idx) = self.rob_index(seq) else {
            debug_assert!(false, "load-address event for seq {seq} not in the ROB");
            return;
        };
        let cluster = self.rob[idx].cluster as usize;
        let Some(mem_access) = self.rob[idx].d.mem else {
            debug_assert!(false, "load {seq} without an address at the AGU");
            return;
        };
        let addr = mem_access.addr;
        match self.cfg.cache.model {
            CacheModel::Centralized => {
                let bank = self.mem.bank_of(addr, self.cfg.cache.l1_banks);
                debug_assert!(bank <= u16::MAX as usize, "bank index exceeds u16");
                self.rob[idx].bank = bank as u16;
                self.rob[idx].bank_cluster = 0;
                let at = self.routed_cache_transfer(cluster, 0, self.now);
                self.schedule(0, at.max(self.now), EventKind::LoadAtLsq { seq, slice: 0 });
            }
            CacheModel::Decentralized => {
                let active = self.rob[idx].active_at_dispatch as usize;
                let bank = self.mem.bank_of(addr, active);
                self.rob[idx].bank = bank as u16;
                self.rob[idx].bank_cluster = bank as u8;
                let at = self.routed_cache_transfer(cluster, bank, self.now);
                self.schedule(bank, at.max(self.now), EventKind::LoadAtLsq { seq, slice: bank });
            }
        }
    }

    fn load_at_lsq(&mut self, seq: u64, slice: usize) {
        if self.lsq[slice].blocked(seq) {
            self.lsq[slice].park(seq);
        } else {
            self.proceed_load(seq, slice);
        }
    }

    pub(super) fn proceed_load(&mut self, seq: u64, slice: usize) {
        let Some(idx) = self.rob_index(seq) else {
            debug_assert!(false, "proceeding load {seq} not in the ROB");
            return;
        };
        let Some(mem_access) = self.rob[idx].d.mem else {
            debug_assert!(false, "load {seq} without an address at the LSQ");
            return;
        };
        let (bank, bank_cluster, cluster) = (
            self.rob[idx].bank as usize,
            self.rob[idx].bank_cluster as usize,
            self.rob[idx].cluster as usize,
        );
        let word = mem_access.addr >> 3;
        let data_at_bank = match self.lsq[slice].forward_source(word, seq) {
            Some((store_seq, avail)) => {
                if avail == ABSENT {
                    // The matching store's data is still being computed;
                    // retry when it writes back.
                    self.loads_waiting_data.push((store_seq, seq, slice));
                    return;
                }
                self.stats.lsq_forwards += 1;
                avail.max(self.now) + 1
            }
            None => self.mem.access(
                &mut self.net,
                bank,
                bank_cluster,
                mem_access.addr,
                false,
                self.now,
                &mut self.stats,
            ),
        };
        // Data returns to the consuming cluster: from cluster 0 for the
        // centralized cache, from the bank's cluster otherwise.
        let home = self.forward_slice(bank_cluster);
        let back = self.routed_cache_transfer(home, cluster, data_at_bank);
        self.schedule(cluster, back.max(self.now + 1), EventKind::WriteBack { seq });
    }

    fn store_resolved(&mut self, seq: u64, slice: usize, word: u64, own: bool, forward_here: bool) {
        if forward_here {
            // Only record forwarding state for stores still in flight —
            // this is the one event that legitimately outlives its ROB
            // entry; committed stores have already written the cache.
            // If the store's data is still outstanding, record a
            // placeholder that its writeback fills in.
            if let Some(idx) = self.rob_index(seq) {
                let avail = if self.rob[idx].done {
                    // The data may have been produced after the address
                    // broadcast departed; it still needs its own trip.
                    let extra = self.net.latency(self.rob[idx].cluster as usize, slice);
                    self.now.max(self.rob[idx].done_at + extra)
                } else {
                    ABSENT
                };
                self.lsq[slice].record_store_data(word, seq, avail);
            }
        }
        if !own {
            // Dummy slot released on broadcast arrival.
            self.lsq[slice].release();
        }
        let freed = self.lsq[slice].resolve_store(seq);
        for load in freed {
            self.proceed_load(load, slice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{EventKind, EventQueue, CAL_WINDOW};
    use clustered_workloads::data::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn wb(seq: u64) -> EventKind {
        EventKind::WriteBack { seq }
    }

    /// The queue must pop in exactly the `(time, tick)` order of one
    /// min-heap, whatever cluster each event is tagged with.
    #[test]
    fn pop_order_is_global_time_then_tick() {
        let mut s = EventQueue::new();
        s.push(3, 10, wb(1)); // tick 1
        s.push(0, 10, wb(2)); // tick 2: same time, later tick → after
        s.push(2, 5, wb(3)); // tick 3: earlier time → first
        s.push(1, 10, wb(4)); // tick 4
        let mut order = Vec::new();
        while let Some((_, kind)) = s.pop_due(u64::MAX) {
            order.push(kind);
        }
        assert_eq!(order, vec![wb(3), wb(1), wb(2), wb(4)]);
    }

    #[test]
    fn pop_due_respects_now_and_refreshes_frontier() {
        let mut s = EventQueue::new();
        s.push(0, 7, wb(1));
        s.push(1, 3, wb(2));
        assert_eq!(s.pop_due(2), None, "nothing due before cycle 3");
        assert_eq!(s.next_due, 3, "scan refreshed the frontier exactly");
        assert_eq!(s.pop_due(3), Some((1, wb(2))));
        assert_eq!(s.pop_due(3), None);
        assert_eq!(s.next_due, 7);
        assert_eq!(s.pop_due(7), Some((0, wb(1))));
        assert_eq!(s.pop_due(u64::MAX), None);
        assert_eq!(s.health().0, 0, "a drained calendar holds nothing");
        assert_eq!(s.next_due, u64::MAX);
    }

    /// Events pushed while draining (handler chains within one cycle)
    /// are seen by the same drain.
    #[test]
    fn same_cycle_chains_are_visible() {
        let mut s = EventQueue::new();
        s.push(0, 4, wb(1));
        assert_eq!(s.pop_due(4), Some((0, wb(1))));
        s.push(1, 4, wb(2)); // a handler scheduling for the same cycle
        assert_eq!(s.pop_due(4), Some((1, wb(2))));
        assert_eq!(s.pop_due(4), None);
    }

    /// The calendar ring wraps: once the floor has advanced, a bucket
    /// index smaller than the floor's can hold a *later* time, and time
    /// order must still win over ring order.
    #[test]
    fn calendar_ring_wrap_keeps_time_order() {
        let w = CAL_WINDOW as u64;
        let mut s = EventQueue::new();
        s.push(0, w - 100, wb(1));
        assert_eq!(s.pop_due(w - 100), Some((0, wb(1))));
        assert_eq!(s.pop_due(w - 100), None); // floor advances past w - 100
        s.push(0, w - 1, wb(2)); // last bucket of the ring
        s.push(0, w + 300, wb(3)); // wraps to a bucket before the floor's
        assert_eq!(s.pop_due(w + 300), Some((0, wb(2))));
        assert_eq!(s.pop_due(w + 300), Some((0, wb(3))));
        assert_eq!(s.pop_due(w + 300), None);
    }

    /// Events beyond the calendar window park in the overflow heap and
    /// still fire at their exact cycle once the window reaches them.
    #[test]
    fn far_future_events_overflow_and_return() {
        let far = 2 * CAL_WINDOW as u64 + 100;
        let mut s = EventQueue::new();
        s.push(1, far, wb(1)); // beyond the window: parked
        s.push(0, 10, wb(2));
        assert_eq!(s.pop_due(10), Some((0, wb(2))));
        assert_eq!(s.pop_due(far - 1), None);
        assert_eq!(s.next_due, far, "overflow head drives the frontier");
        assert_eq!(s.pop_due(far), Some((1, wb(1))), "returns with the cluster it was tagged with");
        assert_eq!(s.pop_due(u64::MAX), None);
        assert_eq!(s.health().0 + s.health().1, 0);
        assert_eq!(s.next_due, u64::MAX);
    }

    /// A push migrates older same-cycle overflow events first, so
    /// bucket append order stays tick order.
    #[test]
    fn overflow_migration_preserves_tick_order() {
        let far = 2 * CAL_WINDOW as u64;
        let mut s = EventQueue::new();
        s.push(0, far, wb(1)); // tick 1: parked in overflow
        s.push(0, 5, wb(2));
        assert_eq!(s.pop_due(5), Some((0, wb(2)))); // floor: 5
        s.push(0, far - 5, wb(3)); // advances nothing: different bucket
        assert_eq!(s.pop_due(far - 5), Some((0, wb(3)))); // floor: far - 5
        s.push(0, far, wb(4)); // tick 4, same cycle: wb(1) must migrate first
        assert_eq!(s.pop_due(far), Some((0, wb(1))));
        assert_eq!(s.pop_due(far), Some((0, wb(4))));
        assert_eq!(s.pop_due(far), None);
    }

    /// `health()` reports calendar occupancy, overflow depth, and the
    /// floor watermark — the profiler's queue-health sample.
    #[test]
    fn health_snapshot_tracks_calendar_overflow_and_floor() {
        let mut s = EventQueue::new();
        assert_eq!(s.health(), (0, 0, 0));
        s.push(0, 5, wb(1));
        s.push(1, 9, wb(2));
        s.push(1, 2 * CAL_WINDOW as u64, wb(3)); // parked
        assert_eq!(s.health(), (2, 1, 0));
        assert_eq!(s.pop_due(5), Some((0, wb(1))));
        assert_eq!(s.pop_due(5), None); // floor rises past `now`
        let (calendar, overflow, floor) = s.health();
        assert_eq!((calendar, overflow), (1, 1));
        assert!(floor > 5, "floor advances with the drain");
    }

    /// The queue and a reference `(time, tick)` min-heap, pushed in
    /// lockstep. Each event's payload is its tick, so a pop names
    /// exactly which event came out.
    struct Lockstep {
        queue: EventQueue,
        model: BinaryHeap<Reverse<(u64, u64, usize)>>,
        tick: u64,
    }

    impl Lockstep {
        fn push(&mut self, cluster: usize, time: u64) {
            self.tick += 1;
            self.queue.push(cluster, time, wb(self.tick));
            self.model.push(Reverse((time, self.tick, cluster)));
        }
    }

    /// Model test: on random schedules the calendar queue pops exactly
    /// what a `(time, tick)` min-heap pops, with the pushed cluster
    /// hint, and conserves events every cycle. Schedules push up to
    /// three windows ahead (so the overflow heap is exercised), push
    /// same-cycle events from inside the drain (handler chains), and
    /// jump `now` up to two windows at once (wrapping the ring with
    /// the floor left behind). `--features slow-tests` runs 100× the
    /// cases.
    #[test]
    fn matches_a_time_tick_heap_on_random_schedules() {
        let w = CAL_WINDOW as u64;
        let cases = if cfg!(feature = "slow-tests") { 5_000 } else { 50 };
        for case in 0..cases {
            let mut rng = Rng::seeded(0x9e37_79b9_7f4a_7c15 ^ ((case + 1) * 0x1000_0000_01b3));
            let mut q = Lockstep { queue: EventQueue::new(), model: BinaryHeap::new(), tick: 0 };
            let mut now = 1 + rng.below(4 * w);
            for _ in 0..1_000 {
                for _ in 0..rng.below(4) {
                    let cluster = rng.index(16);
                    q.push(cluster, now + rng.below(3 * w));
                }
                while let Some((cluster, kind)) = q.queue.pop_due(now) {
                    let Reverse((time, tick, hint)) =
                        q.model.pop().expect("the queue popped an event the model lacks");
                    assert!(time <= now, "case {case}: event for cycle {time} fired at {now}");
                    assert_eq!((cluster, kind), (hint, wb(tick)), "case {case}, cycle {now}");
                    if rng.below(4) == 0 {
                        let cluster = rng.index(16);
                        let ahead = if rng.below(2) == 0 { 0 } else { rng.below(3 * w) };
                        q.push(cluster, now + ahead);
                    }
                }
                let model_next = q.model.peek().map_or(u64::MAX, |Reverse((t, ..))| *t);
                assert!(model_next > now, "case {case}: the drain at {now} left a due event");
                assert_eq!(q.queue.next_due, model_next, "case {case}: inexact frontier");
                let (pushed, popped, pending) = q.queue.conservation();
                assert_eq!(pushed, popped + pending, "case {case}: events lost or duplicated");
                assert_eq!(pending, q.model.len() as u64, "case {case}, cycle {now}");
                now += if rng.below(16) == 0 { 1 + rng.below(2 * w) } else { 1 };
            }
        }
    }
}
