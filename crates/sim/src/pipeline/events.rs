//! The event coordinator and every event handler of the backend.
//!
//! Events — writebacks, AGU completions, LSQ arrivals, and store
//! broadcasts — are the backend's *typed boundary messages*: the only
//! way work crosses from one [`ClusterDomain`] into another or into
//! the shared LSQ/cache/commit machinery. Each event waits in the
//! calendar [`Shard`] owned by its destination domain, but the
//! [`EventCoordinator`] drains all shards in one global `(time, tick)`
//! order, so the schedule is exactly the one a single machine-wide
//! queue would compute while quiescent clusters cost nothing (see
//! DESIGN.md, "Sharded event model"). [`Processor::drain_events`] pops
//! the globally earliest due event, runs its handler, and repeats.

use super::domain::ClusterDomain;
use super::{Processor, ABSENT, STORE_VALUE_SLOT};
use crate::cluster::FuGroup;
use crate::config::CacheModel;
use crate::observe::{SimObserver, TransferKind};
use clustered_emu::TraceSource;
use clustered_isa::OpClass;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

// The shard frontier is a u32 bitmask, one bit per physical cluster.
const _: () = assert!(crate::config::MAX_CLUSTERS <= 32, "frontier mask is a u32");

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
    StoreResolved {
        seq: u64,
        slice: usize,
        word: u64,
        own: bool,
        forward_here: bool,
    },
}

/// Calendar window per shard, in cycles; a power of two. Nothing in
/// the machine schedules farther ahead than a memory round trip (~200
/// cycles at the default latencies), but events beyond the window are
/// still correct: they wait in a shared overflow heap until the window
/// reaches them. The window is sized just past that lookahead on
/// purpose — 16 shards of bucket headers are walked by every push and
/// pop, so calendar memory is hot-loop working set, not slack space.
const CAL_WINDOW: usize = 512;
const CAL_MASK: usize = CAL_WINDOW - 1;
const CAL_WORDS: usize = CAL_WINDOW / 64;

// The per-shard occupancy summary is a single u64, one bit per word.
const _: () = assert!(CAL_WORDS <= 64, "calendar summary bitmap is a u64");

/// One time-indexed bucket of a shard's calendar: events of a single
/// cycle, appended (and therefore delivered) in tick order.
#[derive(Debug, Default, Clone)]
struct Bucket {
    /// Next entry to deliver; earlier entries are already popped.
    next: usize,
    /// `(time, tick, kind)` in push order.
    items: Vec<(u64, u64, EventKind)>,
}

/// One cluster's event calendar: a ring of [`CAL_WINDOW`] buckets
/// indexed by `time % CAL_WINDOW`, with a two-level occupancy bitmap
/// so the earliest pending bucket is found in a handful of bit
/// operations. Push and pop are plain `Vec` appends/reads — no
/// heap sift — which is what makes the event machinery cheap.
///
/// Owned by its [`ClusterDomain`]; the global ordering state (heads,
/// winner tree, tick counter, floor) lives in the shared
/// [`EventCoordinator`].
#[derive(Debug)]
pub(super) struct Shard {
    buckets: Vec<Bucket>,
    /// Bit `i % 64` of `occ[i / 64]` ⇔ `buckets[i]` has undelivered
    /// entries.
    occ: [u64; CAL_WORDS],
    /// Bit `w` ⇔ `occ[w] != 0`.
    summary: u64,
    len: usize,
}

impl Shard {
    pub(super) fn new() -> Shard {
        Shard {
            buckets: vec![Bucket::default(); CAL_WINDOW],
            occ: [0; CAL_WORDS],
            summary: 0,
            len: 0,
        }
    }

    /// Undelivered events waiting in this shard.
    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, time: u64, tick: u64, kind: EventKind) {
        let idx = time as usize & CAL_MASK;
        let b = &mut self.buckets[idx];
        if b.items.is_empty() {
            self.occ[idx >> 6] |= 1 << (idx & 63);
            self.summary |= 1 << (idx >> 6);
        }
        b.items.push((time, tick, kind));
        self.len += 1;
    }

    /// First occupied bucket at or (circularly) after ring position
    /// `from`. The shard must be non-empty.
    fn find_first(&self, from: usize) -> usize {
        let w = from >> 6;
        let bits = self.occ[w] & (!0u64 << (from & 63));
        if bits != 0 {
            return (w << 6) | bits.trailing_zeros() as usize;
        }
        let after = if w + 1 == CAL_WORDS { 0 } else { self.summary & (!0u64 << (w + 1)) };
        debug_assert!(self.summary != 0, "searching an empty shard");
        let sw = if after != 0 {
            after.trailing_zeros() as usize
        } else {
            // Wrap: the earliest bucket is circularly before `from`.
            self.summary.trailing_zeros() as usize
        };
        let bits = if sw == w { self.occ[w] & !(!0u64 << (from & 63)) } else { self.occ[sw] };
        (sw << 6) | bits.trailing_zeros() as usize
    }

    /// The earliest undelivered event, as `(time, tick)`. `floor` must
    /// lower-bound every undelivered time, which makes ring order from
    /// `floor` equal to time order.
    fn head(&self, floor: u64) -> (u64, u64) {
        let b = &self.buckets[self.find_first(floor as usize & CAL_MASK)];
        let (t, k, _) = b.items[b.next];
        (t, k)
    }

    /// Pops the head of bucket `idx` — the shard's earliest event,
    /// whose time the caller already knows (`time`, its cached head) —
    /// and returns the kind plus the shard's new head `(time, tick)`
    /// when it lives in the *same* bucket. Within the window exactly
    /// one time maps to a bucket, so a non-exhausted bucket's next
    /// entry is the shard head without touching the occupancy bitmaps;
    /// `None` means the bucket emptied and the caller must rescan.
    fn pop_at(&mut self, idx: usize, time: u64) -> (EventKind, Option<(u64, u64)>) {
        let b = &mut self.buckets[idx];
        debug_assert_eq!(b.items[b.next].0, time, "cached head time desynced from bucket");
        let (_, _, kind) = b.items[b.next];
        b.next += 1;
        self.len -= 1;
        if b.next == b.items.len() {
            b.items.clear();
            b.next = 0;
            self.occ[idx >> 6] &= !(1 << (idx & 63));
            if self.occ[idx >> 6] == 0 {
                self.summary &= !(1 << (idx >> 6));
            }
            (kind, None)
        } else {
            (kind, Some((time, b.items[b.next].1)))
        }
    }
}

/// A winner tree over the shard head keys: `nodes[1]` holds the
/// minimum `(time, tick, shard)` of all leaves, and changing one
/// leaf's key replays only its root path — `log2(shards)` comparisons,
/// where the flat scan it replaced compared every non-empty shard on
/// every pop. Ticks are globally unique, so the minimum (and therefore
/// the drain order) is unambiguous.
#[derive(Debug)]
struct HeadTree {
    /// Implicit binary tree: internal nodes in `[1, size)`, leaf for
    /// shard `c` at `size + c`. Padding leaves stay `(MAX, MAX, _)`.
    nodes: Vec<(u64, u64, u32)>,
    size: usize,
}

impl HeadTree {
    fn new(shards: usize) -> HeadTree {
        let size = shards.next_power_of_two().max(2);
        let mut nodes = vec![(u64::MAX, u64::MAX, 0); 2 * size];
        for c in 0..shards {
            nodes[size + c].2 = c as u32;
        }
        HeadTree { nodes, size }
    }

    /// Sets shard `shard`'s head key and replays its path to the root.
    #[inline]
    fn update(&mut self, shard: usize, key: (u64, u64)) {
        let mut n = self.size + shard;
        self.nodes[n] = (key.0, key.1, shard as u32);
        while n > 1 {
            n >>= 1;
            let l = self.nodes[2 * n];
            let r = self.nodes[2 * n + 1];
            self.nodes[n] = if (l.0, l.1) <= (r.0, r.1) { l } else { r };
        }
    }

    /// The minimum head key and its shard.
    #[inline]
    fn min(&self) -> (u64, u64, u32) {
        self.nodes[1]
    }
}

/// The global ordering state over the per-domain calendar shards.
///
/// Each [`ClusterDomain`] owns its [`Shard`]; the coordinator owns
/// everything that spans them: the cached shard heads and their winner
/// tree, the *global* strictly-increasing `tick` counter, the
/// `next_due`/`floor` watermarks, the far-future overflow heap, and
/// the conservation counters. `(time, tick)` totally orders all
/// in-flight events regardless of shard, and
/// [`EventCoordinator::pop_due`] always returns the globally smallest
/// due pair, which makes the drain order identical to a single
/// machine-wide `(time, tick)` min-heap — the sharding only changes
/// *where* events wait, never *when* they fire. Within a bucket (one
/// shard, one cycle), append order is tick order because ticks grow
/// with every push and overflow migration always precedes a same-time
/// insert.
///
/// The frontier is the [`HeadTree`] minimum plus `next_due`, a lower
/// bound on the earliest pending event time: on cycles with nothing
/// due, the drain returns after one comparison, so a wide machine with
/// idle clusters pays nothing for their empty queues.
#[derive(Debug)]
pub(super) struct EventCoordinator {
    /// Cached earliest undelivered `(time, tick)` per shard —
    /// `(u64::MAX, u64::MAX)` when empty. Only the shard actually
    /// popped recomputes its head from calendar memory.
    heads: Vec<(u64, u64)>,
    /// Winner tree over `heads`; its root is the next event to fire.
    tree: HeadTree,
    /// Global tie-break counter, monotone across all shards.
    tick: u64,
    /// Lower bound on the earliest pending event time; exact after a
    /// scan that found nothing due, and pushes can only lower it.
    next_due: u64,
    /// Lower bound on every undelivered event time; advances with the
    /// drain. Scheduling below it would mean firing in the already-
    /// delivered past — a sim bug, asserted in debug builds.
    floor: u64,
    /// Events beyond the calendar window, ordered by `(time, tick,
    /// shard)`; migrated into their shard once the window reaches them.
    overflow: BinaryHeap<Reverse<(u64, u64, u32, EventKind)>>,
    /// Cumulative events ever pushed (calendar or overflow). With
    /// `popped` and the live totals this is the auditor's conservation
    /// law: `pushed == popped + pending`. Two u64 increments on paths
    /// that already touch the same cache lines — kept unconditionally
    /// so the invariant is checkable on any run.
    pushed: u64,
    /// Cumulative events ever delivered.
    popped: u64,
}

impl EventCoordinator {
    pub(super) fn new(shards: usize) -> EventCoordinator {
        EventCoordinator {
            heads: vec![(u64::MAX, u64::MAX); shards],
            tree: HeadTree::new(shards),
            tick: 0,
            next_due: u64::MAX,
            floor: 0,
            overflow: BinaryHeap::new(),
            pushed: 0,
            popped: 0,
        }
    }

    fn insert(&mut self, domains: &mut [ClusterDomain], shard: usize, time: u64, tick: u64, kind: EventKind) {
        domains[shard].shard.insert(time, tick, kind);
        if (time, tick) < self.heads[shard] {
            self.heads[shard] = (time, tick);
            self.tree.update(shard, (time, tick));
        }
    }

    /// Moves overflow events with `time <= limit` (and within the
    /// window) into their calendars. Called before any same-time insert
    /// so bucket append order stays tick order: an overflow event is
    /// always older (smaller tick) than a calendar push for the same
    /// cycle, because the window only ever advances.
    fn migrate_overflow_upto(&mut self, domains: &mut [ClusterDomain], limit: u64) {
        while let Some(&Reverse((t, k, c, kind))) = self.overflow.peek() {
            if t > limit || t.saturating_sub(self.floor) >= CAL_WINDOW as u64 {
                break;
            }
            self.overflow.pop();
            self.insert(domains, c as usize, t, k, kind);
        }
    }

    fn overflow_head_time(&self) -> u64 {
        self.overflow.peek().map_or(u64::MAX, |&Reverse((t, ..))| t)
    }

    pub(super) fn push(&mut self, domains: &mut [ClusterDomain], shard: usize, time: u64, kind: EventKind) {
        debug_assert!(time >= self.floor, "event scheduled in the delivered past");
        let time = time.max(self.floor);
        self.pushed += 1;
        self.tick += 1;
        let tick = self.tick;
        if !self.overflow.is_empty() {
            self.migrate_overflow_upto(domains, time);
        }
        if time - self.floor >= CAL_WINDOW as u64 {
            self.overflow.push(Reverse((time, tick, shard as u32, kind)));
        } else {
            self.insert(domains, shard, time, tick, kind);
        }
        self.next_due = self.next_due.min(time);
    }

    /// Pops the globally earliest event if it is due at `now`,
    /// returning it with the shard it waited in (the host profiler's
    /// load-skew attribution key).
    ///
    /// Reads the winner tree's root for the minimum `(time, tick)`
    /// head; ticks are globally unique, so the winner is unambiguous
    /// and matches the pop order of one machine-wide heap. Only the
    /// winning shard's calendar memory is touched. Returns `None` —
    /// after refreshing `next_due` exactly — once nothing is due, so
    /// the caller's next idle cycle is a single comparison.
    pub(super) fn pop_due(&mut self, domains: &mut [ClusterDomain], now: u64) -> Option<(usize, EventKind)> {
        if self.next_due > now {
            return None;
        }
        loop {
            if !self.overflow.is_empty() {
                self.migrate_overflow_upto(domains, now);
            }
            // `t == u64::MAX` is the tree's "all shards empty" key,
            // not a due event — no real event is ever scheduled there
            // (times are `now` plus bounded latencies).
            match self.tree.min() {
                (t, _, c) if t <= now && t != u64::MAX => {
                    let c = c as usize;
                    // The cached head names the bucket directly; no
                    // occupancy-bitmap walk on the common path.
                    let idx = t as usize & CAL_MASK;
                    let (kind, same_bucket) = domains[c].shard.pop_at(idx, t);
                    let head = if domains[c].shard.len() == 0 {
                        (u64::MAX, u64::MAX)
                    } else if let Some(head) = same_bucket {
                        head
                    } else {
                        domains[c].shard.head(self.floor)
                    };
                    self.heads[c] = head;
                    self.tree.update(c, head);
                    self.popped += 1;
                    return Some((c, kind));
                }
                (t, ..) => {
                    // Nothing due in the calendars; `t` and the overflow
                    // head bound every live event, so the floor may rise
                    // to their minimum.
                    let oh = self.overflow_head_time();
                    if !self.overflow.is_empty() && oh <= now {
                        // A due overflow event was blocked by the stale
                        // window: raise the floor and retry (each pass
                        // migrates at least one event, so this ends).
                        self.floor = self.floor.max(t.min(oh));
                        continue;
                    }
                    self.next_due = t.min(oh);
                    self.floor = self.floor.max(now.saturating_add(1));
                    return None;
                }
            }
        }
    }

    /// Queue-health snapshot for the host profiler:
    /// `(calendar_events, overflow_events, floor)`. O(shards) — only
    /// called from the profiled cycle loop.
    pub(super) fn health(&self, domains: &[ClusterDomain]) -> (usize, usize, u64) {
        let calendar: usize = domains.iter().map(|d| d.shard.len()).sum();
        (calendar, self.overflow.len(), self.floor)
    }

    /// Conservation snapshot for the auditor: `(pushed, popped,
    /// pending)`, where `pending` counts live calendar + overflow
    /// events. Every pushed event is either delivered or still
    /// pending: `pushed == popped + pending` at every cycle boundary.
    pub(super) fn conservation(&self, domains: &[ClusterDomain]) -> (u64, u64, u64) {
        let pending: usize =
            domains.iter().map(|d| d.shard.len()).sum::<usize>() + self.overflow.len();
        (self.pushed, self.popped, pending as u64)
    }
}

impl<T: TraceSource, O: SimObserver> Processor<T, O> {
    /// Queues `kind` to fire at `time` in `shard`'s event queue. The
    /// shard is a locality hint only — the drain order is global — so
    /// callers pass whichever cluster or LSQ slice the event concerns.
    pub(super) fn schedule(&mut self, shard: usize, time: u64, kind: EventKind) {
        self.events.push(&mut self.domains, shard, time, kind);
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
        while let Some((shard, kind)) = self.events.pop_due(&mut self.domains, self.now) {
            if O::WANTS_HOST_PROFILE {
                self.observer.on_event_drained(shard);
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
            self.observer.on_transfer(self.now, TransferKind::Cache, from, to, hops);
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
            let resume = self.now
                + self.net.latency(cluster, 0)
                + self.cfg.frontend.mispredict_penalty;
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
            self.observer.on_transfer(self.now, TransferKind::Register, from, to, hops);
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
            None => {
                let ready = self.mem.access(
                    &mut self.net,
                    bank,
                    bank_cluster,
                    mem_access.addr,
                    false,
                    self.now,
                    &mut self.stats,
                );
                self.observer.on_cache_access(self.now, bank, false, ready);
                ready
            }
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
    use super::super::domain::ClusterDomain;
    use super::{EventCoordinator, EventKind};

    fn wb(seq: u64) -> EventKind {
        EventKind::WriteBack { seq }
    }

    fn harness(n: usize) -> (EventCoordinator, Vec<ClusterDomain>) {
        let params = crate::config::SimConfig::default().clusters;
        let domains = (0..n).map(|_| ClusterDomain::new(&params, 8)).collect();
        (EventCoordinator::new(n), domains)
    }

    /// The sharded queue must pop in exactly the `(time, tick)` order
    /// of one global heap, regardless of which shard events sit in.
    #[test]
    fn pop_order_is_global_time_then_tick() {
        let (mut s, mut d) = harness(4);
        s.push(&mut d, 3, 10, wb(1)); // tick 1
        s.push(&mut d, 0, 10, wb(2)); // tick 2: same time, later tick → after
        s.push(&mut d, 2, 5, wb(3)); // tick 3: earlier time → first
        s.push(&mut d, 1, 10, wb(4)); // tick 4
        let mut order = Vec::new();
        while let Some((_, kind)) = s.pop_due(&mut d, u64::MAX) {
            order.push(kind);
        }
        assert_eq!(order, vec![wb(3), wb(1), wb(2), wb(4)]);
    }

    #[test]
    fn pop_due_respects_now_and_refreshes_frontier() {
        let (mut s, mut d) = harness(2);
        s.push(&mut d, 0, 7, wb(1));
        s.push(&mut d, 1, 3, wb(2));
        assert_eq!(s.pop_due(&mut d, 2), None, "nothing due before cycle 3");
        assert_eq!(s.next_due, 3, "scan refreshed the frontier exactly");
        assert_eq!(s.pop_due(&mut d, 3), Some((1, wb(2))));
        assert_eq!(s.pop_due(&mut d, 3), None);
        assert_eq!(s.next_due, 7);
        assert_eq!(s.pop_due(&mut d, 7), Some((0, wb(1))));
        assert_eq!(s.pop_due(&mut d, u64::MAX), None);
        assert_eq!(s.tree.min().0, u64::MAX, "drained shards leave the frontier");
        assert_eq!(s.next_due, u64::MAX);
    }

    /// Events pushed while draining (handler chains within one cycle)
    /// are seen by the same drain, as with the former single heap.
    #[test]
    fn same_cycle_chains_are_visible() {
        let (mut s, mut d) = harness(2);
        s.push(&mut d, 0, 4, wb(1));
        assert_eq!(s.pop_due(&mut d, 4), Some((0, wb(1))));
        s.push(&mut d, 1, 4, wb(2)); // a handler scheduling for the same cycle
        assert_eq!(s.pop_due(&mut d, 4), Some((1, wb(2))));
        assert_eq!(s.pop_due(&mut d, 4), None);
    }

    /// The calendar ring wraps: once the floor has advanced, a bucket
    /// index smaller than the floor's can hold a *later* time, and time
    /// order must still win over ring order.
    #[test]
    fn calendar_ring_wrap_keeps_time_order() {
        let w = super::CAL_WINDOW as u64;
        let (mut s, mut d) = harness(1);
        s.push(&mut d, 0, w - 100, wb(1));
        assert_eq!(s.pop_due(&mut d, w - 100), Some((0, wb(1))));
        assert_eq!(s.pop_due(&mut d, w - 100), None); // floor advances past w - 100
        s.push(&mut d, 0, w - 1, wb(2)); // last bucket of the ring
        s.push(&mut d, 0, w + 300, wb(3)); // wraps to a bucket before the floor's
        assert_eq!(s.pop_due(&mut d, w + 300), Some((0, wb(2))));
        assert_eq!(s.pop_due(&mut d, w + 300), Some((0, wb(3))));
        assert_eq!(s.pop_due(&mut d, w + 300), None);
    }

    /// Events beyond the calendar window park in the overflow heap and
    /// still fire at their exact cycle once the window reaches them.
    #[test]
    fn far_future_events_overflow_and_return() {
        let far = 2 * super::CAL_WINDOW as u64 + 100;
        let (mut s, mut d) = harness(2);
        s.push(&mut d, 1, far, wb(1)); // beyond the window: parked
        s.push(&mut d, 0, 10, wb(2));
        assert_eq!(s.pop_due(&mut d, 10), Some((0, wb(2))));
        assert_eq!(s.pop_due(&mut d, far - 1), None);
        assert_eq!(s.next_due, far, "overflow head drives the frontier");
        assert_eq!(s.pop_due(&mut d, far), Some((1, wb(1))), "returns with the shard it waited in");
        assert_eq!(s.pop_due(&mut d, u64::MAX), None);
        assert_eq!(s.tree.min().0, u64::MAX);
    }

    /// A push migrates older same-cycle overflow events first, so
    /// bucket append order stays tick order.
    #[test]
    fn overflow_migration_preserves_tick_order() {
        let far = 2 * super::CAL_WINDOW as u64;
        let (mut s, mut d) = harness(1);
        s.push(&mut d, 0, far, wb(1)); // tick 1: parked in overflow
        s.push(&mut d, 0, 5, wb(2));
        assert_eq!(s.pop_due(&mut d, 5), Some((0, wb(2)))); // floor: 5
        s.push(&mut d, 0, far - 5, wb(3)); // advances nothing: different bucket
        assert_eq!(s.pop_due(&mut d, far - 5), Some((0, wb(3)))); // floor: far - 5
        s.push(&mut d, 0, far, wb(4)); // tick 4, same cycle: wb(1) must migrate first
        assert_eq!(s.pop_due(&mut d, far), Some((0, wb(1))));
        assert_eq!(s.pop_due(&mut d, far), Some((0, wb(4))));
        assert_eq!(s.pop_due(&mut d, far), None);
    }

    /// `health()` reports calendar occupancy, overflow depth, and the
    /// floor watermark — the profiler's queue-health sample.
    #[test]
    fn health_snapshot_tracks_calendars_overflow_and_floor() {
        let (mut s, mut d) = harness(2);
        assert_eq!(s.health(&d), (0, 0, 0));
        s.push(&mut d, 0, 5, wb(1));
        s.push(&mut d, 1, 9, wb(2));
        s.push(&mut d, 1, 2 * super::CAL_WINDOW as u64, wb(3)); // parked
        assert_eq!(s.health(&d), (2, 1, 0));
        assert_eq!(s.pop_due(&mut d, 5), Some((0, wb(1))));
        assert_eq!(s.pop_due(&mut d, 5), None); // floor rises past `now`
        let (calendar, overflow, floor) = s.health(&d);
        assert_eq!((calendar, overflow), (1, 1));
        assert!(floor > 5, "floor advances with the drain");
    }
}
