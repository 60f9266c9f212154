//! Per-cluster execution state: issue queues, register free lists, and
//! functional units.
//!
//! # Select/wakeup data model
//!
//! The scheduler used to keep one `BinaryHeap<Reverse<(ready_at,
//! seq)>>` of pending instructions plus one `BTreeSet<u64>` of ready
//! seqs per FU group — every enqueue a heap sift, every wakeup a
//! B-tree insert, every issue a B-tree pop, all pointer-chasing on the
//! hottest per-cycle path. It is now flat and allocation-free in
//! steady state:
//!
//! - **Pending ring** — a small per-cluster calendar (the event-queue
//!   trick from `pipeline/events.rs`, scoped to operand ready times):
//!   [`RING_WINDOW`] buckets indexed by `ready_at % RING_WINDOW`, an
//!   occupancy bitmap to skip empty buckets, and entries packed as
//!   `(seq << 2) | group`. Enqueue is a `Vec` push; wakeup drains the
//!   due buckets with a few bit operations. Ready times past the
//!   window park in a `far` vector (they need a memory-scale wait and
//!   are rare; correctness does not depend on the window size).
//! - **Ready vecs** — one sorted `Vec<u64>` per group, descending by
//!   seq, so "oldest ready first" is a pop from the back and insertion
//!   is a binary search plus a short memmove (issue queues hold at
//!   most ~15 entries per domain).
//!
//! The issue order this computes is identical to the old structures':
//! at `select(now)` every instruction with `ready_at <= now` is
//! visible (bucket drain order inside one call cannot matter — the
//! ready vec re-sorts by seq), groups are scanned in fixed order, and
//! each free unit takes the smallest ready seq. The 360-point schedule
//! oracle (`tests/shard_equivalence.rs`) and the randomized model test in
//! `tests/cluster_select_props.rs` pin that equivalence.

use crate::config::{ClusterParams, ExecLatencies};
use clustered_isa::OpClass;

/// Register-file / issue-queue domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Integer side (also loads, stores, and control).
    Int,
    /// Floating-point side.
    Fp,
}

impl Domain {
    /// Dense index for per-domain arrays.
    pub fn index(self) -> usize {
        match self {
            Domain::Int => 0,
            Domain::Fp => 1,
        }
    }

    /// The domain an instruction class dispatches into.
    pub fn of(class: OpClass) -> Domain {
        match class {
            OpClass::IntAlu
            | OpClass::IntMul
            | OpClass::IntDiv
            | OpClass::Load
            | OpClass::Store => Domain::Int,
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => Domain::Fp,
        }
    }
}

/// Functional-unit group within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuGroup {
    /// Integer ALU: ALU ops, address generation, branch resolution.
    IntAlu,
    /// Integer multiply/divide.
    IntMulDiv,
    /// FP adder: add/sub/compare/convert/min/max.
    FpAlu,
    /// FP multiply/divide.
    FpMulDiv,
}

/// Number of FU groups.
pub const FU_GROUPS: usize = 4;

/// Dense index → group (inverse of [`FuGroup::index`]).
const GROUPS: [FuGroup; FU_GROUPS] =
    [FuGroup::IntAlu, FuGroup::IntMulDiv, FuGroup::FpAlu, FuGroup::FpMulDiv];

impl FuGroup {
    /// Dense index for per-group arrays.
    pub fn index(self) -> usize {
        match self {
            FuGroup::IntAlu => 0,
            FuGroup::IntMulDiv => 1,
            FuGroup::FpAlu => 2,
            FuGroup::FpMulDiv => 3,
        }
    }

    /// The group an instruction class executes on.
    pub fn of(class: OpClass) -> FuGroup {
        match class {
            OpClass::IntAlu | OpClass::Load | OpClass::Store => FuGroup::IntAlu,
            OpClass::IntMul | OpClass::IntDiv => FuGroup::IntMulDiv,
            OpClass::FpAlu => FuGroup::FpAlu,
            OpClass::FpMul | OpClass::FpDiv => FuGroup::FpMulDiv,
        }
    }
}

/// Execution latency and pipelining of an instruction class.
///
/// Loads and stores report their address-generation latency; the
/// memory system adds the rest.
pub fn latency_of(lat: &ExecLatencies, class: OpClass) -> (u64, bool) {
    match class {
        OpClass::IntAlu | OpClass::Load | OpClass::Store => (lat.int_alu, true),
        OpClass::IntMul => (lat.int_mul, true),
        OpClass::IntDiv => (lat.int_div, false),
        OpClass::FpAlu => (lat.fp_alu, true),
        OpClass::FpMul => (lat.fp_mul, true),
        OpClass::FpDiv => (lat.fp_div, false),
    }
}

/// Pending-ring width in cycles; a power of two. Operand arrivals are
/// bounded by interconnect transfers and L1 hits almost always, so the
/// common case lands in the ring; later times fall back to `far`.
const RING_WINDOW: usize = 256;
const RING_MASK: usize = RING_WINDOW - 1;
const RING_WORDS: usize = RING_WINDOW / 64;

/// One cluster's scheduling state.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Issue-queue capacity per domain. (Occupancy and free-register
    /// counts live in the per-cluster `ClusterDomain` beside this
    /// scheduler — the domain owns all of one cluster's mutable state;
    /// the dispatch stage gathers its dense steering snapshot from the
    /// domains per instruction.)
    pub iq_cap: [usize; 2],
    /// Busy-until cycle per functional unit, grouped.
    fu_busy: [Vec<u64>; FU_GROUPS],
    /// Ready-to-issue seqs per group, sorted descending (oldest last,
    /// so issue pops from the back).
    ready: [Vec<u64>; FU_GROUPS],
    /// Pending ring: bucket `t & RING_MASK` holds the instructions
    /// becoming ready at cycle `t`, packed as `(seq << 2) | group`.
    /// Valid for times in `[floor, floor + RING_WINDOW)`.
    ring: Vec<Vec<u64>>,
    /// Bit `i % 64` of `occ[i / 64]` ⇔ `ring[i]` is non-empty.
    occ: [u64; RING_WORDS],
    /// All ring buckets for times `< floor` have been drained.
    floor: u64,
    /// Pending entries whose ready time is at or past
    /// `floor + RING_WINDOW`: `(ready_at, packed)`.
    far: Vec<(u64, u64)>,
    /// Smallest ready time in `far` (`u64::MAX` when empty).
    far_min: u64,
    /// Instructions pending + ready across all groups; lets the issue
    /// stage skip quiescent clusters in O(1).
    queued: usize,
    /// Instructions in the ready vecs (all groups).
    ready_total: usize,
    /// Lower bound on the earliest pending ready time in the ring or
    /// `far` (`u64::MAX` when nothing is pending). Together with
    /// `ready_total` it gives [`Cluster::select`] an O(1) "nothing can
    /// issue this cycle" exit for clusters that are merely *waiting* —
    /// which, across a wide machine, is most of them on most cycles.
    next_due: u64,
}

impl Cluster {
    /// Builds a cluster's scheduling state.
    pub fn new(params: &ClusterParams) -> Cluster {
        Cluster {
            iq_cap: [params.int_iq, params.fp_iq],
            fu_busy: [
                vec![0; params.int_alu],
                vec![0; params.int_muldiv],
                vec![0; params.fp_alu],
                vec![0; params.fp_muldiv],
            ],
            ready: Default::default(),
            ring: vec![Vec::new(); RING_WINDOW],
            occ: [0; RING_WORDS],
            floor: 0,
            far: Vec::new(),
            far_min: u64::MAX,
            queued: 0,
            ready_total: 0,
            next_due: u64::MAX,
        }
    }

    /// Queues a dispatched instruction for issue once `ready_at`.
    #[inline]
    pub fn enqueue(&mut self, group: FuGroup, ready_at: u64, seq: u64) {
        // A ready time in the already-drained past means "due at the
        // next select": park it in the first undrained bucket. (The
        // pipeline never schedules in the past — enqueues happen at or
        // after the operand's arrival cycle — but unit tests and the
        // property model may.)
        let t = ready_at.max(self.floor);
        let packed = (seq << 2) | group.index() as u64;
        if t - self.floor < RING_WINDOW as u64 {
            let idx = t as usize & RING_MASK;
            if self.ring[idx].is_empty() {
                self.occ[idx >> 6] |= 1 << (idx & 63);
            }
            self.ring[idx].push(packed);
        } else {
            self.far.push((t, packed));
            self.far_min = self.far_min.min(t);
        }
        self.next_due = self.next_due.min(t);
        self.queued += 1;
    }

    /// Sorted-descending insert, so the smallest seq stays at the back.
    #[inline]
    fn make_ready(ready: &mut [Vec<u64>; FU_GROUPS], packed: u64) {
        let r = &mut ready[(packed & 3) as usize];
        let seq = packed >> 2;
        let pos = r.partition_point(|&s| s > seq);
        r.insert(pos, seq);
    }

    /// Moves every instruction with `ready_at <= now` from the pending
    /// ring (and the far overflow) into the ready vecs.
    fn drain_due(&mut self, now: u64) {
        if self.floor <= now {
            // Walk the occupied buckets among the due ring positions —
            // at most the whole window — in ≤ 2 circular segments.
            let span = (now - self.floor + 1).min(RING_WINDOW as u64) as usize;
            let mut pos = self.floor as usize & RING_MASK;
            let mut remaining = span;
            while remaining > 0 {
                let word = pos >> 6;
                let lo = pos & 63;
                let run = (64 - lo).min(remaining);
                let lane = (!0u64 >> (64 - run)) << lo;
                let mut bits = self.occ[word] & lane;
                self.occ[word] &= !lane;
                while bits != 0 {
                    let idx = (word << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // Swap the bucket out to sidestep the simultaneous
                    // ring/ready borrow; its capacity swaps back.
                    let mut bucket = std::mem::take(&mut self.ring[idx]);
                    self.ready_total += bucket.len();
                    for &packed in &bucket {
                        Self::make_ready(&mut self.ready, packed);
                    }
                    bucket.clear();
                    self.ring[idx] = bucket;
                }
                pos = (pos + run) & RING_MASK;
                remaining -= run;
            }
            self.floor = now + 1;
        }
        if self.far_min <= now {
            let mut min = u64::MAX;
            let mut i = 0;
            while i < self.far.len() {
                let (t, packed) = self.far[i];
                if t <= now {
                    self.far.swap_remove(i);
                    self.ready_total += 1;
                    Self::make_ready(&mut self.ready, packed);
                } else {
                    min = min.min(t);
                    i += 1;
                }
            }
            self.far_min = min;
        }
        self.next_due = self.earliest_pending();
    }

    /// Earliest pending ready time across the ring and `far`
    /// (`u64::MAX` when nothing is pending). Every ring entry lies in
    /// `[floor, floor + RING_WINDOW)`, so the circularly first occupied
    /// bucket from the floor's position names the minimum.
    fn earliest_pending(&self) -> u64 {
        let base = self.floor as usize & RING_MASK;
        let w0 = base >> 6;
        let lo = base & 63;
        let mut ring_min = u64::MAX;
        for k in 0..=RING_WORDS {
            let w = (w0 + k) & (RING_WORDS - 1);
            let mut bits = self.occ[w];
            if k == 0 {
                bits &= !0u64 << lo;
            } else if k == RING_WORDS {
                // Wrapped back to the first word: only the part
                // circularly before `base` remains unseen.
                bits &= !(!0u64 << lo);
            }
            if bits != 0 {
                let idx = (w << 6) | bits.trailing_zeros() as usize;
                ring_min = self.floor + ((idx + RING_WINDOW - base) & RING_MASK) as u64;
                break;
            }
        }
        ring_min.min(self.far_min)
    }

    /// Moves instructions whose operands have arrived into the ready
    /// vecs, then returns up to one issuable instruction per free unit
    /// in each group, oldest first: `(seq, group, unit)`.
    #[inline]
    pub fn select(&mut self, now: u64, out: &mut Vec<(u64, FuGroup, usize)>) {
        // Nothing ready and nothing becoming ready by `now`: the drain
        // below would move nothing and the scan would select nothing,
        // so a waiting cluster costs two compares. (The floor advances
        // lazily; that is unobservable, because enqueued ready times
        // are never in the past and the `far` fallback accepts any
        // time.)
        if self.ready_total == 0 && self.next_due > now {
            return;
        }
        self.drain_due(now);
        for (gi, &group) in GROUPS.iter().enumerate() {
            if self.ready[gi].is_empty() {
                continue;
            }
            for unit in 0..self.fu_busy[gi].len() {
                if self.fu_busy[gi][unit] > now {
                    continue;
                }
                match self.ready[gi].pop() {
                    Some(seq) => {
                        self.queued -= 1;
                        self.ready_total -= 1;
                        out.push((seq, group, unit));
                    }
                    None => break,
                }
            }
        }
    }

    /// Marks `unit` of `group` busy until `until` (issue accepted).
    #[inline]
    pub fn occupy(&mut self, group: FuGroup, unit: usize, until: u64) {
        self.fu_busy[group.index()][unit] = until;
    }

    /// Instructions queued here (pending or ready, all groups).
    #[inline]
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Whether any instruction is still queued here (for drain checks).
    pub fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.queued,
            self.ready.iter().map(Vec::len).sum::<usize>()
                + self.ring.iter().map(Vec::len).sum::<usize>()
                + self.far.len(),
            "queued counter out of sync"
        );
        debug_assert_eq!(
            self.ready_total,
            self.ready.iter().map(Vec::len).sum::<usize>(),
            "ready counter out of sync"
        );
        self.queued == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(&ClusterParams::default())
    }

    #[test]
    fn domains_and_groups() {
        assert_eq!(Domain::of(OpClass::Load), Domain::Int);
        assert_eq!(Domain::of(OpClass::FpMul), Domain::Fp);
        assert_eq!(FuGroup::of(OpClass::Store), FuGroup::IntAlu);
        assert_eq!(FuGroup::of(OpClass::IntDiv), FuGroup::IntMulDiv);
        assert_eq!(FuGroup::of(OpClass::FpDiv), FuGroup::FpMulDiv);
    }

    #[test]
    fn latencies_match_config() {
        let lat = ExecLatencies::default();
        assert_eq!(latency_of(&lat, OpClass::IntAlu), (1, true));
        assert_eq!(latency_of(&lat, OpClass::IntDiv), (20, false));
        assert_eq!(latency_of(&lat, OpClass::FpMul), (4, true));
    }

    #[test]
    fn select_is_oldest_first_and_respects_readiness() {
        let mut c = cluster();
        c.enqueue(FuGroup::IntAlu, 5, 100);
        c.enqueue(FuGroup::IntAlu, 5, 90);
        c.enqueue(FuGroup::IntAlu, 9, 80);
        let mut out = Vec::new();
        c.select(5, &mut out);
        assert_eq!(out, vec![(90, FuGroup::IntAlu, 0)], "oldest ready wins; 80 not ready yet");
        out.clear();
        c.select(9, &mut out);
        assert_eq!(out, vec![(80, FuGroup::IntAlu, 0)], "80 beats 100 once ready");
    }

    #[test]
    fn busy_unit_blocks_issue() {
        let mut c = cluster();
        c.enqueue(FuGroup::IntMulDiv, 0, 1);
        let mut out = Vec::new();
        c.select(0, &mut out);
        assert_eq!(out.len(), 1);
        c.occupy(FuGroup::IntMulDiv, 0, 20); // unpipelined divide
        c.enqueue(FuGroup::IntMulDiv, 0, 2);
        out.clear();
        c.select(10, &mut out);
        assert!(out.is_empty(), "divider busy until 20");
        c.select(20, &mut out);
        assert_eq!(out, vec![(2, FuGroup::IntMulDiv, 0)]);
    }

    #[test]
    fn groups_issue_independently() {
        let mut c = cluster();
        c.enqueue(FuGroup::IntAlu, 0, 1);
        c.enqueue(FuGroup::FpAlu, 0, 2);
        c.enqueue(FuGroup::FpMulDiv, 0, 3);
        let mut out = Vec::new();
        c.select(0, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn idle_tracking() {
        let mut c = cluster();
        assert!(c.is_idle());
        c.enqueue(FuGroup::IntAlu, 10, 1);
        assert!(!c.is_idle());
        let mut out = Vec::new();
        c.select(10, &mut out);
        assert!(c.is_idle());
    }

    /// Ready times past the ring window survive in the far overflow
    /// and still issue at exactly their cycle, including after the
    /// window itself has rotated several times.
    #[test]
    fn far_future_ready_times_issue_on_time() {
        let mut c = cluster();
        let far = 5 * RING_WINDOW as u64 + 17;
        c.enqueue(FuGroup::IntAlu, far, 7);
        c.enqueue(FuGroup::IntAlu, 1, 9);
        let mut out = Vec::new();
        c.select(1, &mut out);
        assert_eq!(out, vec![(9, FuGroup::IntAlu, 0)]);
        out.clear();
        c.select(far - 1, &mut out);
        assert!(out.is_empty(), "not ready one cycle early");
        c.select(far, &mut out);
        assert_eq!(out, vec![(7, FuGroup::IntAlu, 0)]);
        assert!(c.is_idle());
    }

    /// A select that jumps far ahead of the last one (quiescence
    /// skipping) still wakes everything enqueued in between.
    #[test]
    fn select_after_long_quiescence_drains_everything() {
        let mut c = cluster();
        c.enqueue(FuGroup::IntAlu, 3, 1);
        let mut out = Vec::new();
        c.select(10_000, &mut out);
        assert_eq!(out, vec![(1, FuGroup::IntAlu, 0)]);
        c.enqueue(FuGroup::FpAlu, 10_001, 2);
        c.enqueue(FuGroup::FpAlu, 20_000, 3);
        out.clear();
        c.select(20_000, &mut out);
        assert_eq!(out, vec![(2, FuGroup::FpAlu, 0)], "far entry woke, older seq wins the unit");
        assert_eq!(c.queued(), 1, "seq 3 is ready but the FP adder went to seq 2");
    }
}
