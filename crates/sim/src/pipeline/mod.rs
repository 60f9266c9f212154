//! The cycle-level clustered out-of-order processor.
//!
//! Trace-driven: the [`Processor`] consumes the dynamic instruction
//! stream produced by `clustered-emu` and models fetch (with a real
//! branch predictor and misprediction stalls), rename/steering,
//! per-cluster issue, inter-cluster operand transfers on a contended
//! interconnect, the LSQ/cache hierarchy of either cache model, and
//! in-order commit — with the active-cluster count under the control
//! of a [`ReconfigPolicy`].
//!
//! # Module layout
//!
//! This module holds the shared machine state ([`Processor`]), the
//! cycle loop ([`Processor::run`]/`step_cycle`) and [`drive`], the one
//! warm-up → measure sequence every caller runs; each pipeline stage
//! lives in its own submodule operating on that state:
//!
//! - `domain` — the per-cluster [`ClusterDomain`]: the state one
//!   cluster owns exclusively (scheduler ring, occupancies, value-copy
//!   tables).
//! - `events` — the machine-wide event queue and every event handler
//!   (writeback, address resolution, LSQ arrival, store broadcast).
//! - `commit` — in-order retirement, policy requests, and
//!   reconfiguration.
//! - `issue` — per-cluster select/issue with quiescence skipping.
//! - `dispatch` — rename, steering, and structural-hazard checks.
//! - `fetch` — branch prediction and the fetch queue.
//!
//! # Events and quiescence
//!
//! Events wait in one calendar queue whose empty cycles cost a single
//! comparison, and the issue stage keeps a bitmask of clusters with
//! queued instructions, so a cycle's cost scales with the *busy*
//! clusters, not the configured width: quiescent clusters — including
//! every cluster beyond the active count — are skipped in O(1). Events
//! fire in global `(time, tick)` order, and the computed schedule is
//! pinned bit-identical by the oracle in `tests/shard_equivalence.rs`
//! (see DESIGN.md, "Event model").

mod commit;
mod dispatch;
mod domain;
mod events;
mod fetch;
mod issue;

use crate::bankpred::BankPredictor;
use crate::bpred::BranchPredictor;
use crate::cache::MemHierarchy;
use crate::cluster::FuGroup;
use crate::config::{CacheModel, ConfigError, SimConfig, MAX_CLUSTERS};
use crate::crit::CriticalityPredictor;
use crate::interconnect::Interconnect;
use crate::lsq::LsqSlice;
use crate::observe::{NullObserver, SimObserver};
use crate::reconfig::ReconfigPolicy;
use crate::stats::SimStats;
use crate::steer::{Steering, SteeringKind};
use clustered_emu::{DecodedInst, TraceSource};
use clustered_isa::{ArchReg, OpClass};
use domain::ClusterDomain;
use events::EventQueue;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

const ABSENT: u64 = u64::MAX;

/// Waiter slot marking a store's data operand.
const STORE_VALUE_SLOT: u8 = 2;

/// A simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// No instruction committed for a long time — an internal modelling
    /// bug rather than a program property.
    Stalled {
        /// The cycle at which progress stopped.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => e.fmt(f),
            SimError::Stalled { cycle } => {
                write!(f, "pipeline made no progress near cycle {cycle}")
            }
        }
    }
}

impl Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

#[derive(Debug)]
struct Fetched {
    d: DecodedInst,
    fetched_at: u64,
    mispredicted: bool,
}

// `RobEntry::copies_mask` carries one validity bit per cluster.
const _: () = assert!(MAX_CLUSTERS <= 16, "copies_mask is a u16");

/// One in-flight instruction.
///
/// Cluster-valued fields are `u8` (`MAX_CLUSTERS` is 16) and the bank
/// index `u16`, trimming the entry the commit stage copies and the
/// dispatch stage fills; the former 128-byte per-cluster `copies`
/// table lives in the [`ClusterDomain`] value-copy tables, indexed by
/// this entry's physical ROB slot, so the hot scalar stream no longer
/// strides over it (ROADMAP "backend wall, round two"; measured in
/// EXPERIMENTS.md).
#[derive(Debug)]
struct RobEntry {
    d: DecodedInst,
    class: OpClass,
    cluster: u8,
    dest: Option<ArchReg>,
    /// Physical register to free at commit: (cluster, domain index).
    frees: Option<(u8, u8)>,
    srcs_outstanding: u8,
    /// When each gating source operand arrived (criticality training).
    src_arrival: [u64; 2],
    /// Which gating source slots this instruction has.
    src_present: [bool; 2],
    ready_at: u64,
    done: bool,
    done_at: u64,
    distant: bool,
    mispredicted: bool,
    /// Bit `c` ⇔ the domain-`c` value-copy table holds this entry's
    /// arrival cycle at cluster `c` (under the entry's physical slot).
    /// The mask is what dispatch resets on slot reuse, so the copy
    /// tables are never re-filled with `ABSENT`.
    copies_mask: u16,
    /// Consumers waiting on this result: (seq, cluster, source slot —
    /// 0/1 for issue-gating operands, [`STORE_VALUE_SLOT`] for a
    /// store's data).
    waiters: Vec<(u64, u8, u8)>,
    /// Stores: cycle the AGU produced the address (`ABSENT` until then).
    agu_done: u64,
    /// Stores: cycle the data value is available in the store's cluster
    /// (`ABSENT` until known).
    store_value_at: u64,
    /// Memory: resolved bank and its cluster. The bank is `u16`: the
    /// centralized model's bank count is a free parameter, only
    /// validated to a power of two.
    bank: u16,
    bank_cluster: u8,
    /// LSQ slice the entry's slot was allocated in.
    alloc_slice: u8,
    /// Active cluster count when dispatched.
    active_at_dispatch: u8,
}

impl RobEntry {
    /// An empty slot for the ROB ring's initial allocation. Every
    /// field is overwritten by [`RobRing::push_slot`]'s caller before
    /// the entry is observable.
    fn vacant() -> RobEntry {
        RobEntry {
            d: DecodedInst {
                seq: 0,
                pc: 0,
                class: OpClass::IntAlu,
                srcs: [None; 2],
                dest: None,
                mem: None,
                branch: None,
            },
            class: OpClass::IntAlu,
            cluster: 0,
            dest: None,
            frees: None,
            srcs_outstanding: 0,
            src_arrival: [0; 2],
            src_present: [false; 2],
            ready_at: 0,
            done: false,
            done_at: 0,
            distant: false,
            mispredicted: false,
            copies_mask: 0,
            waiters: Vec::new(),
            agu_done: ABSENT,
            store_value_at: ABSENT,
            bank: 0,
            bank_cluster: 0,
            alloc_slice: 0,
            active_at_dispatch: 0,
        }
    }
}

/// The re-order buffer: fixed slots in a power-of-two ring.
///
/// A `VecDeque<RobEntry>` moved every ~400-byte entry twice — once
/// built on the stack and pushed at dispatch, once popped at commit —
/// and the waiter `Vec` inside had to be recycled through a side pool
/// to survive those moves. Entries now live in place: dispatch writes
/// the tail slot's fields directly, commit copies out the handful of
/// scalars retirement needs and advances the head, and each slot's
/// waiter vector keeps its allocation for the slot's next occupant.
///
/// Indexing is by *logical* position (0 = oldest), which keeps
/// [`Processor::rob_index`]'s `seq - head_seq` arithmetic unchanged.
struct RobRing {
    slots: Box<[RobEntry]>,
    /// Physical index of logical position 0.
    head: usize,
    len: usize,
    mask: usize,
}

impl RobRing {
    fn new(capacity: usize) -> RobRing {
        let cap = capacity.next_power_of_two();
        RobRing {
            slots: (0..cap).map(|_| RobEntry::vacant()).collect(),
            head: 0,
            len: 0,
            mask: cap - 1,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    /// Opens the tail slot for in-place initialisation. The caller
    /// must overwrite every field; `waiters` is cleared here and its
    /// capacity carries over from the slot's previous occupant.
    fn push_slot(&mut self) -> &mut RobEntry {
        debug_assert!(self.len <= self.mask, "ROB ring overfull");
        let idx = (self.head + self.len) & self.mask;
        self.len += 1;
        let slot = &mut self.slots[idx];
        slot.waiters.clear();
        slot
    }

    /// Retires logical position 0; its slot becomes reusable.
    fn advance_head(&mut self) {
        debug_assert!(self.len > 0, "advancing an empty ROB");
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Physical slot of logical position `i` — stable for the entry's
    /// whole lifetime, keying the per-domain value-copy tables.
    #[inline]
    fn slot_of(&self, i: usize) -> usize {
        debug_assert!(i < self.len, "ROB slot of {i} out of {}", self.len);
        (self.head + i) & self.mask
    }

    /// Physical slot count (the rounded-up power of two).
    fn capacity(&self) -> usize {
        self.mask + 1
    }
}

impl std::ops::Index<usize> for RobRing {
    type Output = RobEntry;
    #[inline]
    fn index(&self, i: usize) -> &RobEntry {
        debug_assert!(i < self.len, "ROB index {i} out of {}", self.len);
        &self.slots[(self.head + i) & self.mask]
    }
}

impl std::ops::IndexMut<usize> for RobRing {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut RobEntry {
        debug_assert!(i < self.len, "ROB index {i} out of {}", self.len);
        &mut self.slots[(self.head + i) & self.mask]
    }
}

/// The simulated processor.
///
/// Generic over the dynamic-instruction source and over an observer
/// receiving per-event callbacks. The default [`NullObserver`] costs
/// nothing — its empty hooks monomorphize away.
///
/// [`drive`] builds one and runs the warm-up → measure sequence; use
/// it. The type stays public, with its step-by-step methods, for a
/// caller that times each step of that sequence on its own.
pub struct Processor<T, O = NullObserver> {
    cfg: SimConfig,
    trace: T,
    policy: Box<dyn ReconfigPolicy>,
    net: Interconnect,
    mem: MemHierarchy,
    bpred: BranchPredictor,
    bankpred: BankPredictor,
    crit: CriticalityPredictor,
    steering: Steering,
    /// One [`ClusterDomain`] per physical cluster: the scheduler ring,
    /// IQ/free-reg occupancy, and value-availability state that cluster
    /// owns exclusively. Everything cross-cluster — register copies,
    /// interconnect hops, LSQ/cache traffic, commit — goes through the
    /// event queue or the commit stage.
    domains: Vec<ClusterDomain>,
    lsq: Vec<LsqSlice>,
    rob: RobRing,
    rename: [Option<u64>; 64],
    arch_home: [usize; 64],
    fetch_queue: VecDeque<Fetched>,
    /// Reused fetch-stage scratch buffer for one decoded run (the
    /// instructions up to and including the next control transfer).
    fetch_run: Vec<DecodedInst>,
    fetch_stall_until: u64,
    awaiting_redirect: bool,
    dispatch_stall_until: u64,
    trace_done: bool,
    /// The machine-wide event calendar, drained in `(time, tick)` order.
    events: EventQueue,
    /// Bit `c` set ⇔ cluster `c` has queued (dispatched, operands
    /// ready or pending) instructions; the issue stage visits only set
    /// bits. Maintained by [`Processor::cluster_enqueue`] and the
    /// issue loop.
    queued_mask: u32,
    /// Loads whose forwarding store has not produced its data yet, as
    /// (store seq, load seq, LSQ slice) in arrival order. Bounded by
    /// LSQ capacity and near-empty in practice, so a flat vector beats
    /// the former per-load hash map: no hashing on the store
    /// writeback path and no per-store `Vec` allocation.
    loads_waiting_data: Vec<(u64, u64, usize)>,
    /// Scratch for draining `loads_waiting_data` matches without
    /// holding a borrow across `proceed_load`.
    waiting_scratch: Vec<(u64, usize)>,
    now: u64,
    active: usize,
    pending_reconfig: Option<usize>,
    reconfig_request: Option<usize>,
    stats: SimStats,
    observer: O,
}

/// Rounds a requested cluster count to the nearest legal value: in
/// `1..=total`, and — when `pow2` (the decentralized model, whose bank
/// interleaving masks addresses) — a power of two, rounding down.
fn legal_cluster_count(request: usize, total: usize, pow2: bool) -> usize {
    let clamped = request.clamp(1, total);
    if !pow2 || clamped.is_power_of_two() {
        clamped
    } else {
        clamped.next_power_of_two() / 2
    }
}

impl<T: TraceSource, O: SimObserver> Processor<T, O> {
    /// Builds a processor whose pipeline events are reported to
    /// `observer` (see [`SimObserver`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if `cfg` fails validation.
    pub fn with_observer(
        cfg: SimConfig,
        trace: T,
        policy: Box<dyn ReconfigPolicy>,
        steering: SteeringKind,
        observer: O,
    ) -> Result<Processor<T, O>, SimError> {
        cfg.validate()?;
        let count = cfg.clusters.count;
        // Architectural registers are homed round-robin across the
        // physical clusters and occupy a register there; `validate`
        // guarantees every cluster's register file has room to spare.
        let mut reserved = [[0usize; 2]; MAX_CLUSTERS];
        let mut arch_home = [0usize; 64];
        for r in 0..64 {
            let home = r % count;
            arch_home[r] = home;
            reserved[home][usize::from(r >= 32)] += 1;
        }
        let rob = RobRing::new(cfg.frontend.rob_size);
        let rob_slots = rob.capacity();
        let mut domains: Vec<ClusterDomain> =
            (0..count).map(|_| ClusterDomain::new(&cfg.clusters, rob_slots)).collect();
        for (c, d) in domains.iter_mut().enumerate() {
            d.free_regs[0] = cfg.clusters.int_regs - reserved[c][0];
            d.free_regs[1] = cfg.clusters.fp_regs - reserved[c][1];
        }
        let lsq = match cfg.cache.model {
            CacheModel::Centralized => vec![LsqSlice::new(cfg.cache.lsq_per_cluster * count)],
            CacheModel::Decentralized => {
                (0..count).map(|_| LsqSlice::new(cfg.cache.lsq_per_cluster)).collect()
            }
        };
        let initial = legal_cluster_count(
            policy.initial_clusters(),
            count,
            cfg.cache.model == CacheModel::Decentralized,
        );
        Ok(Processor {
            net: Interconnect::new(&cfg.interconnect, count),
            mem: MemHierarchy::new(&cfg.cache, count),
            bpred: BranchPredictor::new(&cfg.bpred),
            bankpred: BankPredictor::new(&cfg.bankpred),
            crit: CriticalityPredictor::new(cfg.crit.table_size),
            steering: Steering::new(steering),
            domains,
            lsq,
            rob,
            rename: [None; 64],
            arch_home,
            fetch_queue: VecDeque::with_capacity(cfg.frontend.fetch_queue),
            fetch_run: Vec::with_capacity(cfg.frontend.fetch_width),
            fetch_stall_until: 0,
            awaiting_redirect: false,
            dispatch_stall_until: 0,
            trace_done: false,
            events: EventQueue::new(),
            queued_mask: 0,
            loads_waiting_data: Vec::new(),
            waiting_scratch: Vec::new(),
            now: 0,
            active: initial,
            pending_reconfig: None,
            reconfig_request: None,
            stats: SimStats::default(),
            observer,
            cfg,
            trace,
            policy,
        })
    }

    /// Accumulated statistics (monotonic; snapshot and use
    /// [`SimStats::delta_since`] to measure an interval).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// The attached observer, mutably (e.g. to drain collected data
    /// between measurement windows).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Whether the instruction source is exhausted and the pipeline
    /// has drained.
    fn finished(&self) -> bool {
        self.trace_done && self.fetch_queue.is_empty() && self.rob.is_empty()
    }

    /// Runs until `instructions` more have committed, the trace ends,
    /// or an error occurs. Returns the statistics snapshot.
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] if the pipeline stops making progress (an
    /// internal invariant violation, not a program property).
    pub fn run(&mut self, instructions: u64) -> Result<SimStats, SimError> {
        // Saturating, so `u64::MAX` means "to the end of the trace"
        // after a warm-up too.
        let target = self.stats.committed.saturating_add(instructions);
        let mut last_progress = (self.stats.committed, self.now);
        while self.stats.committed < target && !self.finished() {
            self.step_cycle();
            if self.stats.committed != last_progress.0 {
                last_progress = (self.stats.committed, self.now);
            } else if self.now - last_progress.1 > 1_000_000 {
                return Err(SimError::Stalled { cycle: self.now });
            }
        }
        Ok(self.stats)
    }

    /// Advances the machine one cycle.
    ///
    /// `WANTS_HOST_PROFILE` and `WANTS_AUDIT` are `const`s, so the
    /// default [`NullObserver`](crate::NullObserver) build compiles the
    /// stage clock reads, the queue-health sample and the audit
    /// snapshot away and pays nothing for the instrumentation. A
    /// profiled build stamps the clock at every stage boundary, so each
    /// stage's wall-clock lands in its [`HostStage`](crate::HostStage)
    /// bucket. The instrumentation only *reads* machine state, so
    /// profiled and audited runs compute the bit-identical schedule
    /// (pinned by the host-profile and audit tests).
    fn step_cycle(&mut self) {
        use crate::host::HOST_STAGE_COUNT;
        use std::time::Instant;
        self.now += 1;
        let mut marks = [None; HOST_STAGE_COUNT + 1];
        let mut mark = |i: usize| {
            if O::WANTS_HOST_PROFILE {
                marks[i] = Some(Instant::now());
            }
        };
        mark(0);
        self.drain_events();
        mark(1);
        self.commit();
        self.apply_reconfig();
        mark(2);
        self.issue();
        mark(3);
        self.dispatch();
        mark(4);
        self.fetch();
        mark(5);
        self.stats.cycles += 1;
        self.stats.rob_occupancy_sum += self.rob.len() as u64;
        self.stats.active_cluster_cycles += self.active as u64;
        self.stats.cycles_at_config[self.active - 1] += 1;
        mark(6);
        if O::WANTS_HOST_PROFILE {
            self.deliver_host_profile(&marks);
        }
        if O::WANTS_AUDIT {
            self.deliver_audit();
        }
    }

    /// Hands the observer this cycle's per-stage wall-clock (from the
    /// stage-boundary stamps `marks`) and the end-of-cycle queue-health
    /// sample. Called only when `O::WANTS_HOST_PROFILE`.
    fn deliver_host_profile(&mut self, marks: &[Option<std::time::Instant>]) {
        use crate::host::{QueueHealth, HOST_STAGE_COUNT};
        let mut nanos = [0u64; HOST_STAGE_COUNT];
        for (n, pair) in nanos.iter_mut().zip(marks.windows(2)) {
            if let [Some(start), Some(end)] = pair {
                *n = end.duration_since(*start).as_nanos() as u64;
            }
        }
        self.observer.on_stage_nanos(&nanos);
        let (calendar_events, overflow_events, floor) = self.events.health();
        self.observer.on_queue_health(&QueueHealth {
            cycle: self.now,
            calendar_events,
            overflow_events,
            floor,
            queued_mask: self.queued_mask,
            active_clusters: self.active,
            configured_clusters: self.domains.len(),
        });
    }

    /// Assembles the end-of-cycle [`crate::AuditCheck`] snapshot and
    /// hands it to the observer. Called only when `O::WANTS_AUDIT`.
    fn deliver_audit(&mut self) {
        let (events_pushed, events_popped, events_pending) = self.events.conservation();
        // The auditor's dense `[domain][cluster]` view, assembled from
        // the per-domain owners; audit is off the hot path.
        let mut iq_used = [[0usize; MAX_CLUSTERS]; 2];
        for (c, d) in self.domains.iter().enumerate() {
            iq_used[0][c] = d.iq_used[0];
            iq_used[1][c] = d.iq_used[1];
        }
        let check = crate::audit::AuditCheck {
            cycle: self.now,
            stats: &self.stats,
            rob_len: self.rob.len(),
            rob_capacity: self.cfg.frontend.rob_size,
            fetch_queue_len: self.fetch_queue.len(),
            fetch_queue_capacity: self.cfg.frontend.fetch_queue,
            iq_used: &iq_used,
            iq_capacity: [self.cfg.clusters.int_iq, self.cfg.clusters.fp_iq],
            lsq: &self.lsq,
            active_clusters: self.active,
            configured_clusters: self.domains.len(),
            events_pushed,
            events_popped,
            events_pending,
        };
        self.observer.on_audit(&check);
    }

    /// Index of in-flight instruction `seq` in the ROB, or `None` if
    /// it is not there (already committed, or never dispatched).
    ///
    /// Invariant: every `seq` held by the scheduler — event payloads,
    /// rename-map entries, waiter lists, issue selections — names an
    /// in-flight ROB entry, with one deliberate exception: store
    /// broadcasts (`EventKind::StoreResolved`) may land after their
    /// store committed. Callers on that path treat `None` as "already
    /// committed"; everywhere else `None` means the simulator state is
    /// corrupt, which is a `debug_assert` at the call site and a
    /// dropped event — never a panic — in release builds.
    fn rob_index(&self, seq: u64) -> Option<usize> {
        let head = self.rob.front()?.d.seq;
        let idx = seq.checked_sub(head)? as usize;
        (idx < self.rob.len()).then_some(idx)
    }

    /// Queues `seq` for issue in `cluster` and marks the cluster
    /// non-quiescent. Every enqueue must come through here so
    /// `queued_mask` stays in sync with the clusters' queues.
    fn cluster_enqueue(&mut self, cluster: usize, group: FuGroup, ready_at: u64, seq: u64) {
        self.domains[cluster].sched.enqueue(group, ready_at, seq);
        self.queued_mask |= 1 << cluster;
    }
}

/// What [`drive`] returns: the measured window's statistics and the
/// observer that watched the whole run.
#[derive(Debug, Clone)]
pub struct Run<O> {
    /// Statistics of the measured window only.
    pub stats: SimStats,
    /// `Some(committed)` when the program finished inside the warm-up
    /// (the measured window is then empty).
    pub ended_in_warmup: Option<u64>,
    /// Host wall-clock seconds the measured window took.
    pub measure_seconds: f64,
    /// The observer, after the run.
    pub observer: O,
}

/// Builds a processor, runs `warmup` instructions, tells the observer
/// the measured window begins
/// ([`on_measure_start`](SimObserver::on_measure_start)), runs
/// `measure` more, and returns the measured window's statistics.
///
/// Every CLI verb, experiment runner, sweep point, example and test
/// simulates through this one sequence. Pass `warmup = 0` to observe
/// and count the whole run in one window. Each window ends at the
/// first cycle whose commits reach its target, so fewer than
/// `commit_width` instructions past it, or when the program ends; a
/// program that ends inside the warm-up leaves the measured window
/// empty and sets [`Run::ended_in_warmup`].
///
/// # Errors
///
/// [`SimError::Config`] if `cfg` fails validation;
/// [`SimError::Stalled`] if the pipeline stops making progress.
///
/// # Examples
///
/// ```
/// use clustered_sim::{drive, FixedPolicy, NullObserver, SimConfig, SteeringKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = clustered_workloads::by_name("gzip").expect("known workload");
/// let stream = w.trace().map(Result::unwrap);
/// let policy = Box::new(FixedPolicy::new(4));
/// let steering = SteeringKind::default();
/// let run = drive(SimConfig::default(), stream, policy, steering, NullObserver, 2_000, 10_000)?;
/// assert!(run.stats.committed >= 10_000);
/// assert_eq!(run.ended_in_warmup, None);
/// # Ok(())
/// # }
/// ```
pub fn drive<T: TraceSource, O: SimObserver>(
    cfg: SimConfig,
    trace: T,
    policy: Box<dyn ReconfigPolicy>,
    steering: SteeringKind,
    observer: O,
    warmup: u64,
    measure: u64,
) -> Result<Run<O>, SimError> {
    let mut cpu = Processor::with_observer(cfg, trace, policy, steering, observer)?;
    cpu.run(warmup)?;
    let ended_in_warmup = cpu.finished().then_some(cpu.stats.committed);
    cpu.observer.on_measure_start();
    let before = cpu.stats;
    let clock = std::time::Instant::now();
    cpu.run(measure)?;
    let measure_seconds = clock.elapsed().as_secs_f64();
    Ok(Run {
        stats: cpu.stats.delta_since(&before),
        ended_in_warmup,
        measure_seconds,
        observer: cpu.observer,
    })
}

impl<T, O> fmt::Debug for Processor<T, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Processor")
            .field("cycle", &self.now)
            .field("active", &self.active)
            .field("committed", &self.stats.committed)
            .field("rob_occupancy", &self.rob.len())
            .field("policy", &self.policy.name())
            .finish_non_exhaustive()
    }
}
