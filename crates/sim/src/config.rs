//! Simulator configuration.
//!
//! Defaults reproduce Tables 1 and 2 of the paper: a 16-cluster,
//! wire-delay-dominated processor at projected 0.035µ latencies, with a
//! ring interconnect and a centralized 4-bank word-interleaved L1.

use std::error::Error;
use std::fmt;

/// Hard upper bound on the number of clusters (sizes several arrays).
pub const MAX_CLUSTERS: usize = 16;

/// Interconnect topology between clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Two unidirectional rings (the paper's default; 2N links).
    Ring,
    /// A two-dimensional grid (higher cost, better connectivity).
    Grid,
}

/// Which L1 data-cache organisation is simulated (paper §2.1 vs §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheModel {
    /// One word-interleaved L1 + LSQ co-located with cluster 0.
    Centralized,
    /// One L1 bank + LSQ slice per cluster, word-interleaved across the
    /// active clusters; reconfiguration requires an L1 flush.
    Decentralized,
}

/// Per-cluster execution resources (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterParams {
    /// Number of clusters on the die.
    pub count: usize,
    /// Physical integer registers per cluster.
    pub int_regs: usize,
    /// Physical floating-point registers per cluster.
    pub fp_regs: usize,
    /// Integer issue-queue entries per cluster.
    pub int_iq: usize,
    /// Floating-point issue-queue entries per cluster.
    pub fp_iq: usize,
    /// Integer ALUs per cluster (also used for address generation and
    /// branch resolution).
    pub int_alu: usize,
    /// Integer multiply/divide units per cluster.
    pub int_muldiv: usize,
    /// Floating-point ALUs per cluster.
    pub fp_alu: usize,
    /// Floating-point multiply/divide units per cluster.
    pub fp_muldiv: usize,
}

impl Default for ClusterParams {
    fn default() -> ClusterParams {
        ClusterParams {
            count: 16,
            int_regs: 30,
            fp_regs: 30,
            int_iq: 15,
            fp_iq: 15,
            int_alu: 1,
            int_muldiv: 1,
            fp_alu: 1,
            fp_muldiv: 1,
        }
    }
}

/// Front-end and window parameters (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendParams {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Fetch-queue capacity.
    pub fetch_queue: usize,
    /// Basic blocks fetch may span per cycle.
    pub max_basic_blocks: usize,
    /// Rename/dispatch width.
    pub dispatch_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Re-order buffer capacity.
    pub rob_size: usize,
    /// Minimum branch-misprediction penalty in cycles (front-end
    /// refill); hop latency from the resolving cluster is added on top.
    pub mispredict_penalty: u64,
}

impl Default for FrontendParams {
    fn default() -> FrontendParams {
        FrontendParams {
            fetch_width: 8,
            fetch_queue: 64,
            max_basic_blocks: 2,
            dispatch_width: 16,
            commit_width: 16,
            rob_size: 480,
            mispredict_penalty: 12,
        }
    }
}

/// Branch-predictor geometry (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpredParams {
    /// Bimodal table entries.
    pub bimodal_size: usize,
    /// Level-1 (history) table entries of the two-level predictor.
    pub l1_size: usize,
    /// History bits per level-1 entry.
    pub history_bits: usize,
    /// Level-2 (pattern) table entries.
    pub l2_size: usize,
    /// Chooser (meta) table entries of the combined predictor.
    pub meta_size: usize,
    /// BTB sets.
    pub btb_sets: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
}

impl Default for BpredParams {
    fn default() -> BpredParams {
        BpredParams {
            bimodal_size: 2048,
            l1_size: 1024,
            history_bits: 10,
            l2_size: 4096,
            meta_size: 2048,
            btb_sets: 2048,
            btb_ways: 2,
            ras_depth: 32,
        }
    }
}

/// Two-level bank predictor for the decentralized cache (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankPredParams {
    /// Level-1 (history) entries.
    pub l1_size: usize,
    /// History bits.
    pub history_bits: usize,
    /// Level-2 (pattern) entries.
    pub l2_size: usize,
}

impl Default for BankPredParams {
    fn default() -> BankPredParams {
        BankPredParams { l1_size: 1024, history_bits: 12, l2_size: 4096 }
    }
}

/// Criticality-predictor parameters for steering (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritParams {
    /// Use the table-based last-arriving-operand predictor; when
    /// false, steering falls back to the dispatch-time arrival
    /// estimate.
    pub enabled: bool,
    /// Predictor table entries.
    pub table_size: usize,
}

impl Default for CritParams {
    fn default() -> CritParams {
        CritParams { enabled: true, table_size: 2048 }
    }
}

/// Interconnect parameters (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterconnectParams {
    /// Topology between the clusters.
    pub topology: Topology,
    /// Cycles per hop.
    pub hop_latency: u64,
}

impl Default for InterconnectParams {
    fn default() -> InterconnectParams {
        InterconnectParams { topology: Topology::Ring, hop_latency: 1 }
    }
}

/// Cache-hierarchy parameters (paper Table 2).
///
/// The L1 geometry is interpreted per [`CacheModel`]: centralized uses
/// `l1_size`/`l1_banks` as one shared cache; decentralized uses
/// `l1_bank_size` per cluster with as many banks as active clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Which organisation to simulate.
    pub model: CacheModel,
    /// Centralized: total L1 bytes.
    pub l1_size: usize,
    /// Centralized: number of word-interleaved banks.
    pub l1_banks: usize,
    /// Centralized: line size in bytes.
    pub l1_line: usize,
    /// Centralized: L1 RAM lookup cycles.
    pub l1_latency: u64,
    /// L1 associativity (both models).
    pub l1_assoc: usize,
    /// Decentralized: bytes per per-cluster bank.
    pub l1_bank_size: usize,
    /// Decentralized: line size in bytes.
    pub l1_bank_line: usize,
    /// Decentralized: per-bank RAM lookup cycles.
    pub l1_bank_latency: u64,
    /// L2 total bytes.
    pub l2_size: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L2 line bytes.
    pub l2_line: usize,
    /// L2 lookup cycles.
    pub l2_latency: u64,
    /// Main-memory latency for the first chunk, cycles.
    pub mem_latency: u64,
    /// LSQ entries per cluster (centralized pools `15 × count`).
    pub lsq_per_cluster: usize,
}

impl Default for CacheParams {
    fn default() -> CacheParams {
        CacheParams {
            model: CacheModel::Centralized,
            l1_size: 32 * 1024,
            l1_banks: 4,
            l1_line: 32,
            l1_latency: 6,
            l1_assoc: 2,
            l1_bank_size: 16 * 1024,
            l1_bank_line: 8,
            l1_bank_latency: 4,
            l2_size: 2 * 1024 * 1024,
            l2_assoc: 8,
            l2_line: 64,
            l2_latency: 25,
            mem_latency: 160,
            lsq_per_cluster: 15,
        }
    }
}

/// Functional-unit latencies in cycles (SimpleScalar defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLatencies {
    /// Integer ALU (pipelined).
    pub int_alu: u64,
    /// Integer multiply (pipelined).
    pub int_mul: u64,
    /// Integer divide (unpipelined).
    pub int_div: u64,
    /// FP add/compare/convert (pipelined).
    pub fp_alu: u64,
    /// FP multiply (pipelined).
    pub fp_mul: u64,
    /// FP divide/sqrt (unpipelined).
    pub fp_div: u64,
}

impl Default for ExecLatencies {
    fn default() -> ExecLatencies {
        ExecLatencies { int_alu: 1, int_mul: 3, int_div: 20, fp_alu: 2, fp_mul: 4, fp_div: 12 }
    }
}

/// Full simulator configuration.
///
/// # Examples
///
/// ```
/// use clustered_sim::{SimConfig, Topology};
///
/// let mut cfg = SimConfig::default();
/// cfg.interconnect.topology = Topology::Grid;
/// cfg.validate().unwrap();
/// assert_eq!(cfg.clusters.count, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimConfig {
    /// Cluster resources.
    pub clusters: ClusterParams,
    /// Front-end and window sizes.
    pub frontend: FrontendParams,
    /// Branch predictor geometry.
    pub bpred: BpredParams,
    /// Bank predictor geometry (decentralized cache only).
    pub bankpred: BankPredParams,
    /// Criticality predictor for steering.
    pub crit: CritParams,
    /// Interconnect topology and hop latency.
    pub interconnect: InterconnectParams,
    /// Cache hierarchy.
    pub cache: CacheParams,
    /// Functional-unit latencies.
    pub exec: ExecLatencies,
}

impl SimConfig {
    /// The paper's monolithic baseline for Table 3: one "cluster"
    /// holding all of a 16-cluster machine's resources, with free
    /// bypassing and a co-located cache.
    pub fn monolithic() -> SimConfig {
        let mut cfg = SimConfig::default();
        let n = cfg.clusters.count;
        cfg.clusters = ClusterParams {
            count: 1,
            int_regs: 30 * n,
            fp_regs: 30 * n,
            int_iq: 15 * n,
            fp_iq: 15 * n,
            int_alu: n,
            int_muldiv: n,
            fp_alu: n,
            fp_muldiv: n,
        };
        cfg.cache.lsq_per_cluster = 15 * n;
        cfg
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the violated constraint:
    /// cluster count must be in `1..=MAX_CLUSTERS` — and a power of two
    /// when the decentralized cache (whose word interleaving masks
    /// addresses) or the grid topology is used — all widths/sizes
    /// must be non-zero, and each cluster's register files must exceed
    /// the architectural registers homed there.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let c = &self.clusters;
        // The bank predictor packs each trained bank into a 4-bit
        // history field (`bankpred::BANK_BITS`); one bank per cluster
        // means a count past its capacity would silently alias banks
        // in every history register, so reject it here rather than
        // truncate there.
        if c.count > crate::bankpred::MAX_PREDICTED_BANKS {
            return Err(ConfigError(format!(
                "cluster count {} exceeds the bank predictor's {}-bank history capacity",
                c.count,
                crate::bankpred::MAX_PREDICTED_BANKS
            )));
        }
        if c.count == 0 || c.count > MAX_CLUSTERS {
            return Err(ConfigError(format!(
                "cluster count {} outside 1..={MAX_CLUSTERS}",
                c.count
            )));
        }
        let needs_power_of_two = self.cache.model == CacheModel::Decentralized
            || self.interconnect.topology == Topology::Grid;
        if needs_power_of_two && !c.count.is_power_of_two() {
            return Err(ConfigError(format!(
                "cluster count {} must be a power of two for the decentralized \
                 cache's word interleaving and for the grid layout",
                c.count
            )));
        }
        if c.int_regs == 0 || c.fp_regs == 0 || c.int_iq == 0 || c.fp_iq == 0 {
            return Err(ConfigError("per-cluster resources must be non-zero".into()));
        }
        if c.int_alu == 0 || c.fp_alu == 0 || c.int_muldiv == 0 || c.fp_muldiv == 0 {
            return Err(ConfigError("per-cluster FU counts must be non-zero".into()));
        }
        // Architectural registers are homed round-robin across the
        // clusters, so the busiest cluster holds `ceil(32 / count)` of
        // each register domain and needs at least one more physical
        // register to rename into.
        let homed_int = clustered_isa::NUM_INT_REGS.div_ceil(c.count);
        let homed_fp = clustered_isa::NUM_FP_REGS.div_ceil(c.count);
        if c.int_regs <= homed_int || c.fp_regs <= homed_fp {
            return Err(ConfigError(format!(
                "per-cluster register files ({} integer, {} FP) must exceed the {homed_int} \
                 integer and {homed_fp} FP architectural registers homed on a cluster when \
                 there are {} clusters",
                c.int_regs, c.fp_regs, c.count
            )));
        }
        let f = &self.frontend;
        if f.fetch_width == 0 || f.dispatch_width == 0 || f.commit_width == 0 {
            return Err(ConfigError("pipeline widths must be non-zero".into()));
        }
        if f.rob_size == 0 || f.fetch_queue == 0 {
            return Err(ConfigError("window sizes must be non-zero".into()));
        }
        if !self.cache.l1_banks.is_power_of_two() {
            return Err(ConfigError("centralized L1 bank count must be a power of two".into()));
        }
        if self.cache.lsq_per_cluster == 0 {
            return Err(ConfigError("LSQ size must be non-zero".into()));
        }
        if self.crit.table_size == 0 {
            return Err(ConfigError("criticality table must have entries".into()));
        }
        Ok(())
    }

    /// A stable FNV-1a 64 digest over **every** configuration field,
    /// the config side of the provenance record: two runs compare only
    /// if their digests match, and the result cache planned by the
    /// ROADMAP's sweep-service item keys on it.
    ///
    /// Every struct is destructured exhaustively (no `..` patterns),
    /// so adding a field without deciding how it digests is a compile
    /// error — the same add-a-field contract as
    /// [`SimStats::to_json`](crate::SimStats::to_json). Field values
    /// feed the hash in declaration order as fixed-width
    /// little-endian words, so the digest is platform-independent.
    pub fn digest(&self) -> u64 {
        let SimConfig { clusters, frontend, bpred, bankpred, crit, interconnect, cache, exec } =
            self;
        let ClusterParams {
            count,
            int_regs,
            fp_regs,
            int_iq,
            fp_iq,
            int_alu,
            int_muldiv,
            fp_alu,
            fp_muldiv,
        } = clusters;
        let FrontendParams {
            fetch_width,
            fetch_queue,
            max_basic_blocks,
            dispatch_width,
            commit_width,
            rob_size,
            mispredict_penalty,
        } = frontend;
        let BpredParams {
            bimodal_size,
            l1_size: bp_l1_size,
            history_bits: bp_history_bits,
            l2_size: bp_l2_size,
            meta_size,
            btb_sets,
            btb_ways,
            ras_depth,
        } = bpred;
        let BankPredParams {
            l1_size: bank_l1_size,
            history_bits: bank_history_bits,
            l2_size: bank_l2_size,
        } = bankpred;
        let CritParams { enabled: crit_enabled, table_size: crit_table_size } = crit;
        let InterconnectParams { topology, hop_latency } = interconnect;
        let CacheParams {
            model,
            l1_size,
            l1_banks,
            l1_line,
            l1_latency,
            l1_assoc,
            l1_bank_size,
            l1_bank_line,
            l1_bank_latency,
            l2_size,
            l2_assoc,
            l2_line,
            l2_latency,
            mem_latency,
            lsq_per_cluster,
        } = cache;
        let ExecLatencies {
            int_alu: l_int_alu,
            int_mul,
            int_div,
            fp_alu: l_fp_alu,
            fp_mul,
            fp_div,
        } = exec;
        let words: &[u64] = &[
            // A format tag so digest-scheme changes can never collide
            // with digests of an older field order.
            0x636c_6366_6731_0000, // "clcfg1"
            *count as u64,
            *int_regs as u64,
            *fp_regs as u64,
            *int_iq as u64,
            *fp_iq as u64,
            *int_alu as u64,
            *int_muldiv as u64,
            *fp_alu as u64,
            *fp_muldiv as u64,
            *fetch_width as u64,
            *fetch_queue as u64,
            *max_basic_blocks as u64,
            *dispatch_width as u64,
            *commit_width as u64,
            *rob_size as u64,
            *mispredict_penalty,
            *bimodal_size as u64,
            *bp_l1_size as u64,
            *bp_history_bits as u64,
            *bp_l2_size as u64,
            *meta_size as u64,
            *btb_sets as u64,
            *btb_ways as u64,
            *ras_depth as u64,
            *bank_l1_size as u64,
            *bank_history_bits as u64,
            *bank_l2_size as u64,
            u64::from(*crit_enabled),
            *crit_table_size as u64,
            match topology {
                Topology::Ring => 0,
                Topology::Grid => 1,
            },
            *hop_latency,
            match model {
                CacheModel::Centralized => 0,
                CacheModel::Decentralized => 1,
            },
            *l1_size as u64,
            *l1_banks as u64,
            *l1_line as u64,
            *l1_latency,
            *l1_assoc as u64,
            *l1_bank_size as u64,
            *l1_bank_line as u64,
            *l1_bank_latency,
            *l2_size as u64,
            *l2_assoc as u64,
            *l2_line as u64,
            *l2_latency,
            *mem_latency,
            *lsq_per_cluster as u64,
            *l_int_alu,
            *int_mul,
            *int_div,
            *l_fp_alu,
            *fp_mul,
            *fp_div,
        ];
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        clustered_stats::fnv1a_64(&bytes)
    }

    /// The legal "active cluster" settings a reconfiguration policy may
    /// request under this configuration: the powers of two up to the
    /// cluster count (the subset the paper found sufficient, §4.1).
    pub fn allowed_cluster_counts(&self) -> Vec<usize> {
        (0..).map(|i| 1usize << i).take_while(|&n| n <= self.clusters.count).collect()
    }
}

/// An invalid-configuration error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_tables() {
        let cfg = SimConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.clusters.count, 16);
        assert_eq!(cfg.clusters.int_regs, 30);
        assert_eq!(cfg.clusters.int_iq, 15);
        assert_eq!(cfg.frontend.rob_size, 480);
        assert_eq!(cfg.frontend.fetch_width, 8);
        assert_eq!(cfg.frontend.dispatch_width, 16);
        assert_eq!(cfg.cache.l1_size, 32 * 1024);
        assert_eq!(cfg.cache.l1_latency, 6);
        assert_eq!(cfg.cache.l1_bank_latency, 4);
        assert_eq!(cfg.cache.l2_latency, 25);
        assert_eq!(cfg.cache.mem_latency, 160);
        assert_eq!(cfg.interconnect.hop_latency, 1);
    }

    #[test]
    fn monolithic_pools_resources() {
        let cfg = SimConfig::monolithic();
        cfg.validate().unwrap();
        assert_eq!(cfg.clusters.count, 1);
        assert_eq!(cfg.clusters.int_regs, 480);
        assert_eq!(cfg.clusters.int_alu, 16);
        assert_eq!(cfg.cache.lsq_per_cluster, 240);
    }

    #[test]
    fn validation_rejects_bad_counts() {
        let mut cfg = SimConfig::default();
        cfg.clusters.count = 0;
        assert!(cfg.validate().is_err());
        cfg.clusters.count = 3;
        assert!(cfg.validate().is_ok(), "ring + centralized permits any count");
        cfg.cache.model = CacheModel::Decentralized;
        assert!(cfg.validate().is_err(), "decentralized interleaving needs a power of two");
        cfg.cache.model = CacheModel::Centralized;
        cfg.interconnect.topology = Topology::Grid;
        assert!(cfg.validate().is_err(), "grid layout needs a power of two");
        cfg.interconnect.topology = Topology::Ring;
        cfg.clusters.count = 32;
        assert!(cfg.validate().is_err());
        cfg.clusters.count = 8;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_counts_past_predictor_capacity() {
        // The generic range check happens to cover the same range
        // today (MAX_CLUSTERS == 16), but the predictor check owns the
        // rejection so the two limits can move independently.
        const { assert!(MAX_CLUSTERS <= crate::bankpred::MAX_PREDICTED_BANKS) };
        let mut cfg = SimConfig::default();
        cfg.clusters.count = 32;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(
            err.contains("bank predictor"),
            "expected the bank-predictor capacity to be blamed, got: {err}"
        );
    }

    #[test]
    fn validation_rejects_zero_resources() {
        let mut cfg = SimConfig::default();
        cfg.clusters.int_regs = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::default();
        cfg.frontend.dispatch_width = 0;
        assert!(cfg.validate().is_err());
    }

    /// One cluster homes all 32 registers of each domain, so the
    /// default 30-register files cannot hold the architectural state:
    /// a typed error, not a panic when the processor is built.
    #[test]
    fn validation_rejects_register_files_smaller_than_the_homed_state() {
        let mut cfg = SimConfig::default();
        cfg.clusters.count = 1;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("architectural registers"), "got: {err}");
        cfg.clusters.count = 2;
        assert!(cfg.validate().is_ok(), "16 homed registers fit in 30");
        cfg.clusters.fp_regs = 16;
        assert!(cfg.validate().is_err(), "the FP file needs a spare register too");
        assert!(SimConfig::monolithic().validate().is_ok());

        let mut cfg = SimConfig::default();
        cfg.clusters.count = 1;
        let program = clustered_isa::assemble("halt").expect("assembles");
        let stream = clustered_emu::trace(program).map(Result::unwrap);
        let built = crate::Processor::new(cfg, stream, Box::new(crate::FixedPolicy::new(1)));
        assert!(matches!(built, Err(crate::SimError::Config(_))));
    }

    /// The provenance contract: the digest is a pure function of the
    /// configuration (same config → same digest) and *every* field
    /// change moves it — one mutation per parameter group, including
    /// the enum fields.
    #[test]
    fn digest_is_stable_and_sensitive_to_every_field_group() {
        let base = SimConfig::default();
        assert_eq!(base.digest(), SimConfig::default().digest(), "digest must be deterministic");
        let mutations: Vec<(&str, SimConfig)> = vec![
            ("clusters.count", {
                let mut c = base;
                c.clusters.count = 8;
                c
            }),
            ("clusters.fp_muldiv", {
                let mut c = base;
                c.clusters.fp_muldiv = 2;
                c
            }),
            ("frontend.rob_size", {
                let mut c = base;
                c.frontend.rob_size = 256;
                c
            }),
            ("frontend.mispredict_penalty", {
                let mut c = base;
                c.frontend.mispredict_penalty = 13;
                c
            }),
            ("bpred.history_bits", {
                let mut c = base;
                c.bpred.history_bits = 11;
                c
            }),
            ("bankpred.l2_size", {
                let mut c = base;
                c.bankpred.l2_size = 8192;
                c
            }),
            ("crit.enabled", {
                let mut c = base;
                c.crit.enabled = false;
                c
            }),
            ("interconnect.topology", {
                let mut c = base;
                c.interconnect.topology = Topology::Grid;
                c
            }),
            ("interconnect.hop_latency", {
                let mut c = base;
                c.interconnect.hop_latency = 2;
                c
            }),
            ("cache.model", {
                let mut c = base;
                c.cache.model = CacheModel::Decentralized;
                c
            }),
            ("cache.lsq_per_cluster", {
                let mut c = base;
                c.cache.lsq_per_cluster = 16;
                c
            }),
            ("exec.fp_div", {
                let mut c = base;
                c.exec.fp_div = 13;
                c
            }),
        ];
        let mut seen = vec![("default", base.digest())];
        for (name, cfg) in &mutations {
            let d = cfg.digest();
            for (other, prior) in &seen {
                assert_ne!(d, *prior, "digest of mutation `{name}` collides with `{other}`");
            }
            seen.push((name, d));
        }
        // Fields in different groups must not be interchangeable: two
        // configs whose *values* swap across fields digest differently.
        let mut swap_a = base;
        swap_a.clusters.int_iq = 30;
        swap_a.clusters.int_regs = 15;
        assert_ne!(base.digest(), swap_a.digest());
    }

    #[test]
    fn allowed_counts_are_powers_of_two() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.allowed_cluster_counts(), vec![1, 2, 4, 8, 16]);
        let mut small = cfg;
        small.clusters.count = 4;
        assert_eq!(small.allowed_cluster_counts(), vec![1, 2, 4]);
    }
}
