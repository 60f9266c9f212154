//! Two-level bank predictor for the decentralized cache (paper §5,
//! after Yoaz et al.).
//!
//! At rename, the bank a load/store will access is unknown; the
//! predictor guesses it from the instruction's bank history so the
//! instruction can be steered to the cluster owning that bank. The
//! predictor always produces a full 4-bit bank number; when fewer
//! clusters are active the caller masks to the low-order bits, which is
//! why (as the paper notes) the predictor need not be flushed on
//! reconfiguration.

use crate::config::BankPredParams;

/// Width of one bank id in the packed history register.
pub const BANK_BITS: u32 = 4;

/// The largest bank count the predictor can track without aliasing:
/// each trained bank is packed into a [`BANK_BITS`]-wide field of the
/// history register, so banks `>= 1 << BANK_BITS` would fold onto
/// lower ones and corrupt every history that observes them.
/// `SimConfig::validate` rejects configurations past this capacity.
pub const MAX_PREDICTED_BANKS: usize = 1 << BANK_BITS;

/// Two-level bank predictor: a per-PC history of recent banks indexing
/// a pattern table of last-seen banks.
#[derive(Debug, Clone)]
pub struct BankPredictor {
    history: Vec<u32>,
    history_mask: u32,
    pattern: Vec<u8>,
}

impl BankPredictor {
    /// Builds a predictor with the given geometry.
    pub fn new(params: &BankPredParams) -> BankPredictor {
        BankPredictor {
            history: vec![0; params.l1_size],
            history_mask: (1u32 << params.history_bits) - 1,
            pattern: vec![0; params.l2_size],
        }
    }

    fn pattern_index(&self, pc: u32) -> usize {
        let hist = self.history[pc as usize % self.history.len()] as usize;
        // XOR-fold the PC into the index (gshare-style): shifting it
        // past the history bits would put it entirely above the table
        // modulus with the default 12-bit history.
        (hist ^ (pc as usize).wrapping_mul(0x9e37)) % self.pattern.len()
    }

    /// Predicts the (full-width) bank for the memory instruction at
    /// `pc`.
    pub fn predict(&self, pc: u32) -> u8 {
        self.pattern[self.pattern_index(pc)]
    }

    /// Trains the predictor with the resolved bank.
    ///
    /// `bank` must be below [`MAX_PREDICTED_BANKS`]; the history packs
    /// it into a [`BANK_BITS`]-wide field, and a wider bank would
    /// silently alias a lower one.
    pub fn update(&mut self, pc: u32, bank: u8) {
        debug_assert!(
            (bank as usize) < MAX_PREDICTED_BANKS,
            "bank {bank} does not fit the predictor's {BANK_BITS}-bit history field"
        );
        let pi = self.pattern_index(pc);
        self.pattern[pi] = bank;
        let hi = pc as usize % self.history.len();
        self.history[hi] = ((self.history[hi] << BANK_BITS)
            | (bank as u32 & (MAX_PREDICTED_BANKS as u32 - 1)))
            & self.history_mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> BankPredictor {
        BankPredictor::new(&BankPredParams::default())
    }

    #[test]
    fn learns_constant_bank() {
        let mut p = predictor();
        for _ in 0..4 {
            p.update(100, 7);
        }
        assert_eq!(p.predict(100), 7);
    }

    #[test]
    fn learns_strided_pattern() {
        let mut p = predictor();
        // A load sweeping banks 0,1,2,3,0,1,2,3...
        let mut wrong = 0;
        let mut bank = 0u8;
        for _ in 0..400 {
            if p.predict(100) != bank {
                wrong += 1;
            }
            p.update(100, bank);
            bank = (bank + 1) % 4;
        }
        assert!(wrong < 40, "strided bank pattern not learned: {wrong}/400 wrong");
    }

    #[test]
    fn masking_to_fewer_banks_remains_valid() {
        let mut p = predictor();
        for _ in 0..4 {
            p.update(100, 0b1110);
        }
        // With 4 active clusters only the low 2 bits matter.
        assert_eq!(p.predict(100) & 0b11, 0b10);
    }

    #[test]
    fn full_width_banks_train_without_truncation() {
        let mut p = predictor();
        for _ in 0..4 {
            p.update(100, (MAX_PREDICTED_BANKS - 1) as u8);
        }
        assert_eq!(p.predict(100), (MAX_PREDICTED_BANKS - 1) as u8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "4-bit history field")]
    fn oversized_banks_are_rejected_in_debug() {
        let mut p = predictor();
        p.update(100, MAX_PREDICTED_BANKS as u8);
    }

    #[test]
    fn distinct_pcs_do_not_interfere() {
        let mut p = predictor();
        for _ in 0..8 {
            p.update(100, 3);
            p.update(101, 5);
        }
        assert_eq!(p.predict(100), 3);
        assert_eq!(p.predict(101), 5);
    }
}
