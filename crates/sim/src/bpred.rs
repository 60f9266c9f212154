//! Combined branch predictor (bimodal + two-level), BTB, and return
//! address stack, per Table 1 of the paper.
//!
//! The simulator is trace-driven, so the predictor is consulted and
//! trained at fetch with the architectural outcome — wrong-path
//! pollution of predictor state is not modelled (a standard
//! trace-driven simplification, noted in `DESIGN.md`).

use crate::config::BpredParams;
use clustered_emu::{BranchKind, BranchOutcome};

/// A 2-bit saturating counter.
#[derive(Debug, Clone, Copy, Default)]
struct Counter2(u8);

impl Counter2 {
    fn taken(self) -> bool {
        self.0 >= 2
    }
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// The branch target buffer: `sets × ways`, true-LRU within a set.
#[derive(Debug, Clone)]
struct Btb {
    sets: usize,
    ways: usize,
    /// (tag, target, lru-stamp) per way; `u32::MAX` tag = invalid.
    entries: Vec<(u32, u32, u64)>,
    stamp: u64,
}

impl Btb {
    fn new(sets: usize, ways: usize) -> Btb {
        Btb { sets, ways, entries: vec![(u32::MAX, 0, 0); sets * ways], stamp: 0 }
    }

    fn lookup(&mut self, pc: u32) -> Option<u32> {
        let set = (pc as usize % self.sets) * self.ways;
        self.stamp += 1;
        for i in set..set + self.ways {
            if self.entries[i].0 == pc {
                self.entries[i].2 = self.stamp;
                return Some(self.entries[i].1);
            }
        }
        None
    }

    fn insert(&mut self, pc: u32, target: u32) {
        let set = (pc as usize % self.sets) * self.ways;
        self.stamp += 1;
        // Hit: update target in place.
        for i in set..set + self.ways {
            if self.entries[i].0 == pc {
                self.entries[i] = (pc, target, self.stamp);
                return;
            }
        }
        // Miss: replace the LRU way.
        let victim = (set..set + self.ways).min_by_key(|&i| self.entries[i].2).expect("ways >= 1");
        self.entries[victim] = (pc, target, self.stamp);
    }
}

/// What the front end decided about one fetched control transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Whether direction and target were both predicted correctly.
    pub correct: bool,
    /// Whether the transfer was predicted taken (for fetch grouping).
    pub predicted_taken: bool,
}

/// Combined bimodal + two-level predictor with BTB and RAS.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: Vec<Counter2>,
    history: Vec<u16>,
    history_mask: u16,
    history_bits: usize,
    pattern: Vec<Counter2>,
    meta: Vec<Counter2>,
    btb: Btb,
    ras: Vec<u32>,
    ras_depth: usize,
}

impl BranchPredictor {
    /// Builds a predictor with the given geometry.
    pub fn new(params: &BpredParams) -> BranchPredictor {
        BranchPredictor {
            bimodal: vec![Counter2::default(); params.bimodal_size],
            history: vec![0; params.l1_size],
            history_mask: ((1u32 << params.history_bits) - 1) as u16,
            history_bits: params.history_bits,
            pattern: vec![Counter2::default(); params.l2_size],
            meta: vec![Counter2::default(); params.meta_size],
            btb: Btb::new(params.btb_sets, params.btb_ways),
            ras: Vec::new(),
            ras_depth: params.ras_depth,
        }
    }

    fn push_return(&mut self, addr: u32) {
        if self.ras.len() == self.ras_depth {
            self.ras.remove(0);
        }
        self.ras.push(addr);
    }

    fn pattern_index(&self, pc: u32) -> usize {
        let hist = self.history[pc as usize % self.history.len()] as usize;
        (hist | ((pc as usize) << self.history_bits)) % self.pattern.len()
    }

    /// Consults and trains the predictor for the control transfer at
    /// `pc` with architectural `outcome`; `fall_through` is `pc + 1`.
    ///
    /// Returns whether the front end would have continued on the
    /// correct path.
    pub fn predict_and_update(&mut self, pc: u32, outcome: &BranchOutcome) -> Prediction {
        match outcome.kind {
            BranchKind::Conditional => self.conditional(pc, outcome),
            BranchKind::Jump => {
                // Direct target, available at decode: never a redirect.
                self.btb.insert(pc, outcome.next_pc);
                Prediction { correct: true, predicted_taken: true }
            }
            BranchKind::Indirect => {
                let predicted = self.btb.lookup(pc);
                self.btb.insert(pc, outcome.next_pc);
                Prediction { correct: predicted == Some(outcome.next_pc), predicted_taken: true }
            }
            BranchKind::Call => {
                // Direct call: the target is decode-available, so the
                // front end never redirects; still push the return
                // address and warm the BTB.
                self.push_return(pc + 1);
                self.btb.insert(pc, outcome.next_pc);
                Prediction { correct: true, predicted_taken: true }
            }
            BranchKind::IndirectCall => {
                // Indirect call: the target must come from the BTB.
                self.push_return(pc + 1);
                let predicted = self.btb.lookup(pc);
                self.btb.insert(pc, outcome.next_pc);
                Prediction { correct: predicted == Some(outcome.next_pc), predicted_taken: true }
            }
            BranchKind::Return => {
                let predicted = self.ras.pop();
                Prediction { correct: predicted == Some(outcome.next_pc), predicted_taken: true }
            }
        }
    }

    fn conditional(&mut self, pc: u32, outcome: &BranchOutcome) -> Prediction {
        let bi = pc as usize % self.bimodal.len();
        let pi = self.pattern_index(pc);
        let mi = pc as usize % self.meta.len();

        let bimodal_pred = self.bimodal[bi].taken();
        let two_level_pred = self.pattern[pi].taken();
        let use_two_level = self.meta[mi].taken();
        let dir = if use_two_level { two_level_pred } else { bimodal_pred };

        let taken = outcome.taken;
        // Train direction tables.
        self.bimodal[bi].update(taken);
        self.pattern[pi].update(taken);
        if bimodal_pred != two_level_pred {
            self.meta[mi].update(two_level_pred == taken);
        }
        let hi = pc as usize % self.history.len();
        self.history[hi] = ((self.history[hi] << 1) | u16::from(taken)) & self.history_mask;

        // Target check: a correctly-predicted-taken branch still needs
        // the BTB to supply the target at fetch.
        let correct = if dir == taken {
            if taken {
                let hit = self.btb.lookup(pc) == Some(outcome.next_pc);
                self.btb.insert(pc, outcome.next_pc);
                hit
            } else {
                true
            }
        } else {
            if taken {
                self.btb.insert(pc, outcome.next_pc);
            }
            false
        };
        Prediction { correct, predicted_taken: dir }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustered_emu::{BranchKind, BranchOutcome};

    fn outcome(kind: BranchKind, taken: bool, next_pc: u32) -> BranchOutcome {
        BranchOutcome { kind, taken, next_pc }
    }

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(&BpredParams::default())
    }

    #[test]
    fn learns_always_taken_loop() {
        let mut p = predictor();
        let o = outcome(BranchKind::Conditional, true, 5);
        let mut wrong = 0;
        for _ in 0..100 {
            if !p.predict_and_update(10, &o).correct {
                wrong += 1;
            }
        }
        assert!(wrong <= 3, "too many mispredictions on a loop branch: {wrong}");
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = predictor();
        let mut wrong = 0;
        for i in 0..200u32 {
            let taken = i % 2 == 0;
            let o = outcome(BranchKind::Conditional, taken, if taken { 5 } else { 11 });
            if !p.predict_and_update(10, &o).correct {
                wrong += 1;
            }
        }
        // Bimodal alone would be ~50% wrong; the 2-level side learns it.
        assert!(wrong < 40, "alternating pattern not learned: {wrong}/200 wrong");
    }

    #[test]
    fn random_branches_mispredict_often() {
        let mut p = predictor();
        let mut x: u64 = 0x12345678;
        let mut wrong = 0;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let taken = (x >> 40) & 1 == 1;
            let o = outcome(BranchKind::Conditional, taken, if taken { 5 } else { 11 });
            if !p.predict_and_update(10, &o).correct {
                wrong += 1;
            }
        }
        assert!(wrong > 250, "random branches should mispredict a lot: {wrong}/1000");
    }

    #[test]
    fn direct_jumps_never_redirect() {
        let mut p = predictor();
        let o = outcome(BranchKind::Jump, true, 42);
        assert!(p.predict_and_update(7, &o).correct);
    }

    #[test]
    fn indirect_jump_learns_target() {
        let mut p = predictor();
        let o = outcome(BranchKind::Indirect, true, 42);
        assert!(!p.predict_and_update(7, &o).correct, "cold BTB should miss");
        assert!(p.predict_and_update(7, &o).correct, "warm BTB should hit");
        let o2 = outcome(BranchKind::Indirect, true, 43);
        assert!(!p.predict_and_update(7, &o2).correct, "changed target should miss");
    }

    #[test]
    fn indirect_calls_require_btb_hits() {
        let mut p = predictor();
        let o = outcome(BranchKind::IndirectCall, true, 42);
        assert!(!p.predict_and_update(7, &o).correct, "cold BTB must redirect");
        assert!(p.predict_and_update(7, &o).correct, "warm BTB hits");
        // Direct calls never redirect, even cold.
        let direct = outcome(BranchKind::Call, true, 99);
        assert!(p.predict_and_update(8, &direct).correct);
        // Both kinds feed the RAS.
        assert!(p.predict_and_update(100, &outcome(BranchKind::Return, true, 9)).correct);
        assert!(p.predict_and_update(43, &outcome(BranchKind::Return, true, 8)).correct);
    }

    #[test]
    fn ras_predicts_matched_returns() {
        let mut p = predictor();
        p.predict_and_update(10, &outcome(BranchKind::Call, true, 100));
        p.predict_and_update(110, &outcome(BranchKind::Call, true, 200));
        assert!(p.predict_and_update(205, &outcome(BranchKind::Return, true, 111)).correct);
        assert!(p.predict_and_update(105, &outcome(BranchKind::Return, true, 11)).correct);
        // Underflowed RAS mispredicts.
        assert!(!p.predict_and_update(50, &outcome(BranchKind::Return, true, 1)).correct);
    }

    #[test]
    fn ras_depth_bounded() {
        let mut p = BranchPredictor::new(&BpredParams { ras_depth: 2, ..BpredParams::default() });
        for i in 0..5u32 {
            p.predict_and_update(i * 10, &outcome(BranchKind::Call, true, 100 + i));
        }
        assert!(p.ras.len() <= 2);
    }

    #[test]
    fn btb_lru_within_set() {
        let mut btb = Btb::new(1, 2);
        btb.insert(1, 11);
        btb.insert(2, 22);
        assert_eq!(btb.lookup(1), Some(11)); // touch 1: now 2 is LRU
        btb.insert(3, 33); // evicts 2
        assert_eq!(btb.lookup(2), None);
        assert_eq!(btb.lookup(1), Some(11));
        assert_eq!(btb.lookup(3), Some(33));
    }
}
