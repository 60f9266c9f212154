// Property tests depend on the external `proptest` crate, which the
// offline build environment cannot fetch. Compiled only with
// `--features slow-tests` (re-add proptest to [dev-dependencies] first).
#![cfg(feature = "slow-tests")]

//! Property-based tests over the core data structures and invariants.

use clustered::emu::Memory;
use clustered::isa::{
    assemble, disassemble, AluOp, ArchReg, BranchCond, FpCmpOp, FpOp, FpReg, FpUnOp, Inst, IntReg,
    MemWidth, MulDivOp, Operand,
};
use clustered::sim::{
    CacheArray, Interconnect, InterconnectParams, SlotReservations, SteerRequest, Steering,
    SteeringKind, Topology,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

fn int_reg() -> impl Strategy<Value = IntReg> {
    (0u8..32).prop_map(|i| IntReg::new(i).expect("in range"))
}

fn fp_reg() -> impl Strategy<Value = FpReg> {
    (0u8..32).prop_map(|i| FpReg::new(i).expect("in range"))
}

fn operand() -> impl Strategy<Value = Operand> {
    prop_oneof![int_reg().prop_map(Operand::Reg), (-1_000_000i64..1_000_000).prop_map(Operand::Imm),]
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
    ]
}

fn mem_width() -> impl Strategy<Value = MemWidth> {
    prop_oneof![Just(MemWidth::Byte), Just(MemWidth::Word), Just(MemWidth::Double)]
}

fn branch_cond() -> impl Strategy<Value = BranchCond> {
    prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Ltu),
        Just(BranchCond::Geu),
    ]
}

/// Any single instruction (branch targets are small indices, which the
/// assembler accepts numerically).
fn inst() -> impl Strategy<Value = Inst> {
    let offset = -4096i64..4096;
    prop_oneof![
        (alu_op(), int_reg(), int_reg(), operand()).prop_map(|(op, rd, rs1, src2)| Inst::Alu {
            op,
            rd,
            rs1,
            src2
        }),
        (int_reg(), any::<i64>()).prop_map(|(rd, imm)| Inst::Li { rd, imm }),
        (
            prop_oneof![Just(MulDivOp::Mul), Just(MulDivOp::Div), Just(MulDivOp::Rem)],
            int_reg(),
            int_reg(),
            int_reg()
        )
            .prop_map(|(op, rd, rs1, rs2)| Inst::MulDiv { op, rd, rs1, rs2 }),
        (
            prop_oneof![
                Just(FpOp::Add),
                Just(FpOp::Sub),
                Just(FpOp::Mul),
                Just(FpOp::Div),
                Just(FpOp::Min),
                Just(FpOp::Max)
            ],
            fp_reg(),
            fp_reg(),
            fp_reg()
        )
            .prop_map(|(op, fd, fs1, fs2)| Inst::Fp { op, fd, fs1, fs2 }),
        (
            prop_oneof![
                Just(FpUnOp::Neg),
                Just(FpUnOp::Abs),
                Just(FpUnOp::Mov),
                Just(FpUnOp::Sqrt)
            ],
            fp_reg(),
            fp_reg()
        )
            .prop_map(|(op, fd, fs)| Inst::FpUn { op, fd, fs }),
        (
            prop_oneof![Just(FpCmpOp::Eq), Just(FpCmpOp::Lt), Just(FpCmpOp::Le)],
            int_reg(),
            fp_reg(),
            fp_reg()
        )
            .prop_map(|(op, rd, fs1, fs2)| Inst::FpCmp { op, rd, fs1, fs2 }),
        (fp_reg(), int_reg()).prop_map(|(fd, rs)| Inst::IntToFp { fd, rs }),
        (int_reg(), fp_reg()).prop_map(|(rd, fs)| Inst::FpToInt { rd, fs }),
        (mem_width(), int_reg(), int_reg(), offset.clone())
            .prop_map(|(width, rd, base, offset)| Inst::Load { width, rd, base, offset }),
        (mem_width(), int_reg(), int_reg(), offset.clone())
            .prop_map(|(width, rs, base, offset)| Inst::Store { width, rs, base, offset }),
        (fp_reg(), int_reg(), offset.clone()).prop_map(|(fd, base, offset)| Inst::FpLoad {
            fd,
            base,
            offset
        }),
        (fp_reg(), int_reg(), offset).prop_map(|(fs, base, offset)| Inst::FpStore {
            fs,
            base,
            offset
        }),
        (branch_cond(), int_reg(), int_reg(), 0u32..10_000)
            .prop_map(|(cond, rs1, rs2, target)| Inst::Branch { cond, rs1, rs2, target }),
        (0u32..10_000).prop_map(|target| Inst::Jump { target }),
        int_reg().prop_map(|rs| Inst::JumpReg { rs }),
        (0u32..10_000).prop_map(|target| Inst::Call { target }),
        int_reg().prop_map(|rs| Inst::CallReg { rs }),
        Just(Inst::Ret),
        Just(Inst::Halt),
    ]
}

proptest! {
    /// Disassembling any instruction and re-assembling it yields the
    /// same instruction.
    #[test]
    fn disassembly_round_trips(instructions in prop::collection::vec(inst(), 1..40)) {
        let source: String =
            instructions.iter().map(disassemble).collect::<Vec<_>>().join("\n");
        let program = assemble(&source).expect("disassembly must be valid assembly");
        prop_assert_eq!(program.text(), &instructions[..]);
    }

    /// Source/destination classification: the zero register never
    /// appears as a dependence, and every reported register is valid.
    #[test]
    fn dependence_classification(i in inst()) {
        for src in i.sources().into_iter().flatten() {
            if let ArchReg::Int(r) = src {
                prop_assert!(!r.is_zero());
            }
            prop_assert!(src.unified_index() < 64);
        }
        if let Some(ArchReg::Int(r)) = i.dest() {
            prop_assert!(!r.is_zero());
        }
    }

    /// Sparse memory behaves exactly like a byte map.
    #[test]
    fn memory_matches_reference_model(
        ops in prop::collection::vec(
            (any::<u64>(), any::<u64>(), 0u8..3, any::<bool>()),
            1..200,
        )
    ) {
        let mut mem = Memory::new();
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for (addr, value, width, is_read) in ops {
            let size = match width { 0 => 1u64, 1 => 4, _ => 8 };
            if is_read {
                let expected: u64 = (0..size)
                    .map(|i| {
                        let b = reference.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
                        (b as u64) << (8 * i)
                    })
                    .sum();
                let got = match size {
                    1 => mem.read_u8(addr) as u64,
                    4 => mem.read_u32(addr) as u64,
                    _ => mem.read_u64(addr),
                };
                prop_assert_eq!(got, expected);
            } else {
                match size {
                    1 => mem.write_u8(addr, value as u8),
                    4 => mem.write_u32(addr, value as u32),
                    _ => mem.write_u64(addr, value),
                }
                for i in 0..size {
                    reference.insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
                }
            }
        }
    }

    /// A resource never grants the same cycle twice, and grants never
    /// precede the request.
    #[test]
    fn slot_reservations_never_double_book(
        requests in prop::collection::vec((0usize..4, 0u64..500), 1..300)
    ) {
        let mut slots = SlotReservations::new(4);
        let mut granted: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        for (idx, earliest) in requests {
            let t = slots.reserve(idx, earliest);
            prop_assert!(t >= earliest);
            prop_assert!(granted[idx].insert(t), "cycle {t} granted twice on {idx}");
        }
    }

    /// Ring and grid distances are symmetric, zero on the diagonal,
    /// within the documented bounds, and transfers respect them.
    #[test]
    fn interconnect_distance_laws(
        topology in prop_oneof![Just(Topology::Ring), Just(Topology::Grid)],
        log_n in 0u32..5,
        a in 0usize..16,
        b in 0usize..16,
        earliest in 0u64..1000,
    ) {
        let n = 1usize << log_n;
        let (a, b) = (a % n, b % n);
        let params = InterconnectParams { topology, hop_latency: 1 };
        let mut net = Interconnect::new(&params, n);
        prop_assert_eq!(net.distance(a, b), net.distance(b, a));
        prop_assert_eq!(net.distance(a, a), 0);
        let bound = match topology {
            Topology::Ring => (n / 2) as u64,
            Topology::Grid => n as u64, // loose; exact checked in unit tests
        };
        prop_assert!(net.distance(a, b) <= bound.max(1));
        let arrival = net.transfer(a, b, earliest);
        prop_assert!(arrival >= earliest + net.latency(a, b));
        // An uncontended fabric achieves exactly the minimum.
        let mut fresh = Interconnect::new(&params, n);
        prop_assert_eq!(fresh.transfer(a, b, earliest), earliest + fresh.latency(a, b));
    }
}

fn steering_kind() -> impl Strategy<Value = SteeringKind> {
    prop_oneof![
        (0usize..16).prop_map(|t| SteeringKind::Producer { imbalance_threshold: t }),
        (1usize..8).prop_map(SteeringKind::ModN),
        Just(SteeringKind::FirstFit),
    ]
}

proptest! {
    /// Steering's contract: a returned cluster is always active, has
    /// queue space, and (when a register is needed) a free register —
    /// and `None` is returned only when no active cluster qualifies.
    #[test]
    fn steering_always_returns_a_feasible_cluster(
        kind in steering_kind(),
        decisions in prop::collection::vec(
            (
                1usize..=16,                                  // active
                prop::collection::vec(0usize..=15, 16),       // occupancy
                prop::collection::vec(any::<bool>(), 16),     // free regs
                any::<bool>(),                                // needs_reg
                prop::option::of(0usize..16),                 // critical producer
                prop::option::of(0usize..16),                 // bank cluster
            ),
            1..60,
        ),
    ) {
        let mut steering = Steering::new(kind);
        for (active, occupancy, has_free_reg, needs_reg, critical, bank) in decisions {
            let request = SteerRequest {
                active,
                occupancy: &occupancy,
                capacity: 15,
                has_free_reg: &has_free_reg,
                needs_reg,
                critical_producer: critical,
                other_producer: None,
                bank_cluster: bank.filter(|&b| b < active),
            };
            let feasible = |c: usize| {
                occupancy[c] < 15 && (!needs_reg || has_free_reg[c])
            };
            match steering.choose(&request) {
                Some(c) => {
                    prop_assert!(c < active, "chose inactive cluster {c} of {active}");
                    prop_assert!(feasible(c), "chose infeasible cluster {c}");
                }
                None => {
                    prop_assert!(
                        (0..active).all(|c| !feasible(c)),
                        "stalled although a feasible cluster exists"
                    );
                }
            }
        }
    }

    /// The set-associative tag array agrees with a brute-force LRU
    /// reference model on every hit/miss and writeback decision.
    #[test]
    fn cache_array_matches_lru_reference(
        ways in 1usize..4,
        accesses in prop::collection::vec((0u64..64, any::<bool>()), 1..200),
    ) {
        // One set: size = ways × line, 32-byte lines, 6-bit line space.
        let mut cache = CacheArray::new(ways * 32, ways, 32);
        // Reference: an LRU queue of (line, dirty), most recent at back.
        let mut reference: VecDeque<(u64, bool)> = VecDeque::new();
        for (line, is_write) in accesses {
            let addr = line * 32 + 7;
            let result = cache.access(addr, is_write);
            let hit = reference.iter().any(|&(l, _)| l == line);
            prop_assert_eq!(result.hit, hit, "hit/miss mismatch for line {}", line);
            if hit {
                let pos = reference.iter().position(|&(l, _)| l == line).expect("hit");
                let (l, dirty) = reference.remove(pos).expect("in range");
                reference.push_back((l, dirty || is_write));
                prop_assert_eq!(result.writeback, None);
            } else {
                let expected_writeback = if reference.len() == ways {
                    let (victim, dirty) = reference.pop_front().expect("full set");
                    dirty.then_some(victim * 32)
                } else {
                    None
                };
                prop_assert_eq!(result.writeback, expected_writeback);
                reference.push_back((line, is_write));
            }
        }
    }
}
