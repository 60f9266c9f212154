//! Randomized equivalence of the flat pending-ring scheduler against a
//! reference model built the way the original implementation was: a
//! `BinaryHeap` of pending wakeups and per-group `BTreeSet`s of ready
//! instructions. The production [`Cluster`] replaced those structures
//! with a circular bucket ring and sorted vecs for speed; this suite
//! pins the claim that the replacement is *observationally identical* —
//! same selections, same order, same units, on arbitrary monotone
//! schedules, including ready times past the ring window and jumps
//! that wrap it.
//!
//! Run with `cargo test -p clustered-sim --features slow-tests`.
#![cfg(feature = "slow-tests")]

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use clustered_sim::{Cluster, ClusterParams, FuGroup, FU_GROUPS};
use clustered_workloads::data::Rng;

const GROUPS: [FuGroup; FU_GROUPS] =
    [FuGroup::IntAlu, FuGroup::IntMulDiv, FuGroup::FpAlu, FuGroup::FpMulDiv];

/// The pre-ring scheduler, kept deliberately naive: pending wakeups in
/// a min-heap, ready instructions in ordered sets, selection walking
/// groups and units in the same order the production code does.
struct ModelCluster {
    pending: BinaryHeap<Reverse<(u64, u64, usize)>>,
    ready: [BTreeSet<u64>; FU_GROUPS],
    fu_busy: [Vec<u64>; FU_GROUPS],
}

impl ModelCluster {
    fn new(units: &[usize; FU_GROUPS]) -> ModelCluster {
        ModelCluster {
            pending: BinaryHeap::new(),
            ready: Default::default(),
            fu_busy: [vec![0; units[0]], vec![0; units[1]], vec![0; units[2]], vec![0; units[3]]],
        }
    }

    fn enqueue(&mut self, group: FuGroup, ready_at: u64, seq: u64) {
        self.pending.push(Reverse((ready_at, seq, group.index())));
    }

    fn select(&mut self, now: u64, out: &mut Vec<(u64, FuGroup, usize)>) {
        while let Some(&Reverse((t, seq, gi))) = self.pending.peek() {
            if t > now {
                break;
            }
            self.pending.pop();
            self.ready[gi].insert(seq);
        }
        for gi in 0..FU_GROUPS {
            for unit in 0..self.fu_busy[gi].len() {
                if self.fu_busy[gi][unit] > now {
                    continue;
                }
                match self.ready[gi].pop_first() {
                    Some(seq) => out.push((seq, GROUPS[gi], unit)),
                    None => break,
                }
            }
        }
    }

    fn occupy(&mut self, group: FuGroup, unit: usize, until: u64) {
        self.fu_busy[group.index()][unit] = until;
    }
}

fn params_with_units(units: &[usize; FU_GROUPS]) -> ClusterParams {
    ClusterParams {
        int_alu: units[0],
        int_muldiv: units[1],
        fp_alu: units[2],
        fp_muldiv: units[3],
        ..ClusterParams::default()
    }
}

/// Drives one randomized schedule through both schedulers and asserts
/// identical selections at every step.
fn run_schedule(seed: u64) {
    let mut rng = Rng::seeded(seed);
    let units = [1 + rng.index(3), 1 + rng.index(2), 1 + rng.index(3), 1 + rng.index(2)];
    let params = params_with_units(&units);
    let mut real = Cluster::new(&params);
    let mut model = ModelCluster::new(&units);

    let mut now = 0u64;
    let mut seq = 0u64;
    let steps = 400 + rng.below(400);
    let mut got = Vec::new();
    let mut want = Vec::new();
    for _ in 0..steps {
        // Mostly small steps; occasionally a jump past the ring window
        // to force far-overflow drains and occupancy-bitmap wraps. The
        // pipeline's contract: `now` advances between selects, and a
        // cycle's enqueues land before its select with `ready_at >=
        // now` — never in the past.
        now += match rng.below(20) {
            0 => 200 + rng.below(600),
            n => 1 + n % 4,
        };
        for _ in 0..rng.below(6) {
            let group = GROUPS[rng.index(FU_GROUPS)];
            // Ready anywhere from this cycle to far beyond the window.
            let ready_at = now + rng.below(700);
            real.enqueue(group, ready_at, seq);
            model.enqueue(group, ready_at, seq);
            seq += 1;
        }
        got.clear();
        want.clear();
        real.select(now, &mut got);
        model.select(now, &mut want);
        assert_eq!(got, want, "seed {seed}: selections diverged at cycle {now}");
        for &(_, group, unit) in &got {
            let until = now + 1 + rng.below(12);
            real.occupy(group, unit, until);
            model.occupy(group, unit, until);
        }
    }
    // Drain both to quiescence: everything pending must issue in the
    // same order once the schedule stops feeding new work.
    let mut guard = 0;
    while !real.is_idle() {
        now += 1 + rng.below(3);
        got.clear();
        want.clear();
        real.select(now, &mut got);
        model.select(now, &mut want);
        assert_eq!(got, want, "seed {seed}: drain diverged at cycle {now}");
        guard += 1;
        assert!(guard < 100_000, "seed {seed}: cluster failed to drain");
    }
    assert!(model.pending.is_empty() && model.ready.iter().all(BTreeSet::is_empty));
}

#[test]
fn flat_scheduler_matches_heap_model_on_random_schedules() {
    for seed in 1..=200u64 {
        run_schedule(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
}

#[test]
fn flat_scheduler_matches_heap_model_under_bursts() {
    // Heavier enqueue pressure with tiny unit counts: long ready
    // queues, sustained structural stalls, repeated same-cycle selects.
    for seed in 1..=50u64 {
        let mut rng = Rng::seeded(seed);
        let units = [1, 1, 1, 1];
        let params = params_with_units(&units);
        let mut real = Cluster::new(&params);
        let mut model = ModelCluster::new(&units);
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut got = Vec::new();
        let mut want = Vec::new();
        for step in 0..600u64 {
            if step % 7 == 0 {
                for _ in 0..20 {
                    let group = GROUPS[rng.index(FU_GROUPS)];
                    let ready_at = now + rng.below(40);
                    real.enqueue(group, ready_at, seq);
                    model.enqueue(group, ready_at, seq);
                    seq += 1;
                }
            }
            now += 1 + rng.below(2);
            got.clear();
            want.clear();
            real.select(now, &mut got);
            model.select(now, &mut want);
            assert_eq!(got, want, "seed {seed}: burst selections diverged at cycle {now}");
            for &(_, group, unit) in &got {
                let until = now + 1 + rng.below(4);
                real.occupy(group, unit, until);
                model.occupy(group, unit, until);
            }
        }
    }
}
