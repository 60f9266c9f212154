//! Instruction steering heuristics (paper §2.1).
//!
//! The paper's default steers an instruction to the cluster producing
//! most of its operands, prioritising the cluster of the predicted
//! *critical* operand, and falls back to the least-loaded cluster on a
//! tie or when issue-queue imbalance exceeds an empirically chosen
//! threshold. `Mod_N` and `First_Fit` (Baniasadi & Moshovos) are
//! provided as the comparison points the paper says its heuristic can
//! approximate.

/// Which steering algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteeringKind {
    /// Operand-producer steering with criticality priority and a
    /// load-imbalance threshold (the paper's default).
    Producer {
        /// Maximum tolerated issue-queue occupancy excess over the
        /// least-loaded cluster before falling back to it.
        imbalance_threshold: usize,
    },
    /// Steer `n` consecutive instructions to one cluster, then move to
    /// its neighbour (minimises imbalance).
    ModN(usize),
    /// Fill one cluster before moving to its neighbour (minimises
    /// communication).
    FirstFit,
}

impl Default for SteeringKind {
    fn default() -> SteeringKind {
        // Threshold chosen empirically, as in the paper.
        SteeringKind::Producer { imbalance_threshold: 4 }
    }
}

/// Everything the steering stage knows about one instruction and the
/// current machine state.
#[derive(Debug, Clone, Copy)]
pub struct SteerRequest<'a> {
    /// Active clusters (instructions may only go to `0..active`).
    pub active: usize,
    /// Relevant issue-queue occupancy per cluster.
    pub occupancy: &'a [usize],
    /// Relevant issue-queue capacity.
    pub capacity: usize,
    /// Whether each cluster has a free destination register of the
    /// needed kind (ignore for instructions without a destination).
    pub has_free_reg: &'a [bool],
    /// Whether the instruction needs a destination register.
    pub needs_reg: bool,
    /// Cluster of the predicted-critical source operand's producer.
    pub critical_producer: Option<usize>,
    /// Cluster of the other source operand's producer.
    pub other_producer: Option<usize>,
    /// For loads/stores under the decentralized cache: the cluster
    /// owning the predicted bank (takes priority, §5).
    pub bank_cluster: Option<usize>,
}

/// Stateful steering logic.
#[derive(Debug, Clone)]
pub struct Steering {
    kind: SteeringKind,
    /// Mod_N / First_Fit cursor.
    cursor: usize,
    /// Instructions steered to the cursor cluster in the current group.
    run: usize,
}

impl Steering {
    /// Creates the steering stage.
    pub fn new(kind: SteeringKind) -> Steering {
        Steering { kind, cursor: 0, run: 0 }
    }

    /// Which heuristic this stage runs.
    pub fn kind(&self) -> SteeringKind {
        self.kind
    }

    /// Picks a cluster for one instruction, or `None` if no active
    /// cluster can currently accept it (dispatch must stall).
    pub fn choose(&mut self, req: &SteerRequest<'_>) -> Option<usize> {
        debug_assert!(req.active >= 1 && req.active <= req.occupancy.len());
        let fits =
            |c: usize| req.occupancy[c] < req.capacity && (!req.needs_reg || req.has_free_reg[c]);
        let least_loaded = (0..req.active).filter(|&c| fits(c)).min_by_key(|&c| req.occupancy[c]);
        match self.kind {
            SteeringKind::Producer { imbalance_threshold } => {
                let preferred = req
                    .bank_cluster
                    .or(req.critical_producer)
                    .or(req.other_producer)
                    .filter(|&c| c < req.active);
                let fallback = least_loaded?;
                match preferred {
                    Some(c) if fits(c) => {
                        let imbalance = req.occupancy[c].saturating_sub(req.occupancy[fallback]);
                        if imbalance > imbalance_threshold {
                            Some(fallback)
                        } else {
                            Some(c)
                        }
                    }
                    _ => Some(fallback),
                }
            }
            SteeringKind::ModN(n) => {
                if self.cursor >= req.active {
                    self.cursor = 0;
                    self.run = 0;
                }
                if self.run >= n || !fits(self.cursor) {
                    // Move to the first acceptable neighbour.
                    let start = (self.cursor + 1) % req.active;
                    let next =
                        (0..req.active).map(|i| (start + i) % req.active).find(|&c| fits(c))?;
                    self.cursor = next;
                    self.run = 0;
                }
                self.run += 1;
                Some(self.cursor)
            }
            SteeringKind::FirstFit => {
                if self.cursor >= req.active {
                    self.cursor = 0;
                }
                if fits(self.cursor) {
                    return Some(self.cursor);
                }
                let start = self.cursor;
                let next = (1..=req.active).map(|i| (start + i) % req.active).find(|&c| fits(c))?;
                self.cursor = next;
                Some(next)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req<'a>(
        active: usize,
        occupancy: &'a [usize],
        has_free_reg: &'a [bool],
    ) -> SteerRequest<'a> {
        SteerRequest {
            active,
            occupancy,
            capacity: 15,
            has_free_reg,
            needs_reg: true,
            critical_producer: None,
            other_producer: None,
            bank_cluster: None,
        }
    }

    const FREE: [bool; 4] = [true; 4];

    #[test]
    fn producer_follows_critical_operand() {
        let mut s = Steering::new(SteeringKind::default());
        let occ = [3, 3, 3, 3];
        let r = SteerRequest { critical_producer: Some(2), ..req(4, &occ, &FREE) };
        assert_eq!(s.choose(&r), Some(2));
    }

    #[test]
    fn producer_prefers_bank_over_operands() {
        let mut s = Steering::new(SteeringKind::default());
        let occ = [3, 3, 3, 3];
        let r = SteerRequest {
            critical_producer: Some(2),
            bank_cluster: Some(1),
            ..req(4, &occ, &FREE)
        };
        assert_eq!(s.choose(&r), Some(1));
    }

    #[test]
    fn producer_falls_back_on_imbalance() {
        let mut s = Steering::new(SteeringKind::Producer { imbalance_threshold: 4 });
        let occ = [9, 1, 3, 3];
        let r = SteerRequest { critical_producer: Some(0), ..req(4, &occ, &FREE) };
        assert_eq!(s.choose(&r), Some(1), "imbalance 8 > 4 must fall back");
        let occ = [4, 1, 3, 3];
        let r = SteerRequest { critical_producer: Some(0), ..req(4, &occ, &FREE) };
        assert_eq!(s.choose(&r), Some(0), "imbalance 3 <= 4 keeps producer cluster");
    }

    #[test]
    fn producer_ignores_disabled_producer_cluster() {
        let mut s = Steering::new(SteeringKind::default());
        let occ = [5, 2, 0, 0];
        let r = SteerRequest { critical_producer: Some(3), ..req(2, &occ, &FREE) };
        assert_eq!(s.choose(&r), Some(1), "producer outside active set → least loaded");
    }

    #[test]
    fn full_cluster_rejected() {
        let mut s = Steering::new(SteeringKind::default());
        let occ = [15, 3, 3, 3];
        let r = SteerRequest { critical_producer: Some(0), ..req(4, &occ, &FREE) };
        assert_ne!(s.choose(&r), Some(0));
    }

    #[test]
    fn no_free_reg_rejected() {
        let mut s = Steering::new(SteeringKind::default());
        let occ = [1, 2, 3, 3];
        let regs = [false, true, true, true];
        let r = SteerRequest { critical_producer: Some(0), ..req(4, &occ, &regs) };
        assert_eq!(s.choose(&r), Some(1));
        // Without a destination the register constraint is ignored.
        let r =
            SteerRequest { critical_producer: Some(0), needs_reg: false, ..req(4, &occ, &regs) };
        assert_eq!(s.choose(&r), Some(0));
    }

    #[test]
    fn stall_when_everything_full() {
        let mut s = Steering::new(SteeringKind::default());
        let occ = [15, 15, 3, 3];
        assert_eq!(s.choose(&req(2, &occ, &FREE)), None);
    }

    #[test]
    fn mod_n_rotates_in_groups() {
        let mut s = Steering::new(SteeringKind::ModN(3));
        let occ = [0, 0, 0, 0];
        let picks: Vec<_> = (0..9).map(|_| s.choose(&req(4, &occ, &FREE)).unwrap()).collect();
        assert_eq!(picks, [0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn first_fit_fills_then_moves() {
        let mut s = Steering::new(SteeringKind::FirstFit);
        let mut occ = [14, 0, 0, 0];
        assert_eq!(s.choose(&req(4, &occ, &FREE)), Some(0));
        occ[0] = 15;
        assert_eq!(s.choose(&req(4, &occ, &FREE)), Some(1));
    }

    #[test]
    fn active_shrink_resets_cursors() {
        let mut s = Steering::new(SteeringKind::FirstFit);
        let occ = [15, 15, 15, 0];
        assert_eq!(s.choose(&req(4, &occ, &FREE)), Some(3));
        // Now only 2 clusters are active; cursor 3 must not be chosen.
        let occ = [3, 0, 0, 0];
        assert_eq!(s.choose(&req(2, &occ, &FREE)), Some(0));
    }
}
