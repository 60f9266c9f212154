//! Benchmark-analogue workloads for the `clustered` simulator.
//!
//! The ISCA 2003 paper evaluated on four SPEC2000 integer programs,
//! three SPEC2000 FP programs, and two Mediabench programs (its
//! Table 3). Alpha binaries and their reference inputs are not
//! reproducible here, so this crate provides nine kernels written in
//! the `clustered-isa` virtual ISA, each engineered to match the
//! *metric profile* the paper reports for its namesake: branch
//! misprediction interval, memory intensity, distant-ILP availability,
//! and phase structure. The dynamic cluster-allocation algorithms
//! under study consume exactly those metrics, which is what makes the
//! substitution faithful (see `DESIGN.md` at the repository root).
//!
//! All input data is generated deterministically from
//! [`data::WORKLOAD_SEED`], so every experiment is exactly
//! reproducible.
//!
//! # Examples
//!
//! ```
//! use clustered_workloads::{all, by_name};
//!
//! let suite = all();
//! assert_eq!(suite.len(), 9);
//!
//! let gzip = by_name("gzip").unwrap();
//! let mut machine = gzip.machine();
//! machine.run_to_halt(10_000).unwrap();
//! assert_eq!(machine.instructions_executed(), 10_000); // endless kernel
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod capture;
pub mod compiled;
pub mod data;
mod kernels;
mod packed;
mod profile;
pub mod synthetic;

pub use capture::{CapturedTrace, CAPTURE_MARGIN};
pub use compiled::{CompiledReplay, CompiledTrace};
pub use profile::{PaperProfile, WorkloadClass};

use clustered_emu::{Machine, Trace};
use clustered_isa::{assemble, Program};

/// The workload names, in the paper's (alphabetical) Table 3 order:
/// the names of the kernel table behind [`all`] and [`by_name`].
pub const NAMES: [&str; 9] = {
    let mut names = [""; KERNELS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = KERNELS[i].name;
        i += 1;
    }
    names
};

/// A ready-to-run workload: an assembled kernel, its generated input
/// data, and the published profile of the benchmark it stands in for.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    description: String,
    paper: PaperProfile,
    program: Program,
    segments: Vec<(u64, Vec<u8>)>,
}

impl Workload {
    /// The workload's (benchmark) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line description of what the kernel does.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Builds a workload from assembly source and memory segments —
    /// the constructor behind [`synthetic`] and available for custom
    /// kernels.
    ///
    /// # Panics
    ///
    /// Panics if the source fails to assemble; workload sources are
    /// part of the program, not user input.
    pub fn from_source(
        name: &str,
        description: &str,
        paper: PaperProfile,
        source: &str,
        segments: Vec<(u64, Vec<u8>)>,
    ) -> Workload {
        let program = assemble(source)
            .unwrap_or_else(|e| panic!("workload `{name}` failed to assemble: {e}"));
        Workload {
            name: name.to_string(),
            description: description.to_string(),
            paper,
            program,
            segments,
        }
    }

    /// The paper-reported profile of the original benchmark.
    pub fn paper(&self) -> PaperProfile {
        self.paper
    }

    /// The assembled kernel program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Builds a machine with the kernel loaded and all input segments
    /// written to memory.
    pub fn machine(&self) -> Machine {
        let mut m = Machine::new(self.program.clone());
        for (base, bytes) in &self.segments {
            m.memory_mut().write_slice(*base, bytes);
        }
        m
    }

    /// Streams the workload's dynamic instruction trace.
    pub fn trace(&self) -> Trace {
        self.machine().into_trace()
    }
}

/// A kernel generator: its assembly source and its input segments.
type Build = fn() -> (String, Vec<(u64, Vec<u8>)>);

/// One built-in kernel: what [`Workload`] records about it, and the
/// generator of its source and input segments.
struct Kernel {
    name: &'static str,
    description: &'static str,
    paper: PaperProfile,
    build: Build,
}

impl Kernel {
    /// Generates, assembles and packages this kernel.
    fn workload(&self) -> Workload {
        let (source, segments) = (self.build)();
        Workload::from_source(self.name, self.description, self.paper, &source, segments)
    }
}

const fn profile(
    class: WorkloadClass,
    base_ipc: f64,
    mispredict_interval: u32,
    min_stable_interval: u64,
    instability_at_10k: f64,
    distant_ilp: bool,
) -> PaperProfile {
    PaperProfile {
        class,
        base_ipc,
        mispredict_interval,
        min_stable_interval,
        instability_at_10k,
        distant_ilp,
    }
}

/// The kernel table, in [`NAMES`] order. Building a kernel generates
/// its input data and assembles its source, so only the kernels a
/// caller asks for are built.
const KERNELS: [Kernel; 9] = {
    use WorkloadClass::*;
    [
        Kernel {
            name: "cjpeg",
            description: "forward-DCT butterflies with data-dependent quantisation",
            paper: profile(Mediabench, 2.06, 82, 40_000, 9.0, false),
            build: kernels::cjpeg::build,
        },
        Kernel {
            name: "crafty",
            description: "bitboard evaluation with data-dependent loops and calls",
            paper: profile(SpecInt, 1.85, 118, 320_000, 30.0, false),
            build: kernels::crafty::build,
        },
        Kernel {
            name: "djpeg",
            description: "blocked inverse-DCT butterflies (distant ILP across blocks)",
            paper: profile(Mediabench, 4.07, 249, 1_280_000, 31.0, true),
            build: kernels::djpeg::build,
        },
        Kernel {
            name: "galgel",
            description: "dense matrix-vector products with value-dependent censuses",
            paper: profile(SpecFp, 3.43, 88, 10_000, 1.0, true),
            build: kernels::galgel::build,
        },
        Kernel {
            name: "gzip",
            description: "LZ77 hash matching over alternating compressible regions",
            paper: profile(SpecInt, 1.83, 87, 10_000, 4.0, false),
            build: kernels::gzip::build,
        },
        Kernel {
            name: "mgrid",
            description: "7-point stencil relaxation over a 3-D grid",
            paper: profile(SpecFp, 2.28, 8_977, 10_000, 0.0, true),
            build: kernels::mgrid::build,
        },
        Kernel {
            name: "parser",
            description: "hash-bucket dictionary lookups over scattered linked lists",
            paper: profile(SpecInt, 1.42, 88, 40_000_000, 12.0, false),
            build: kernels::parser::build,
        },
        Kernel {
            name: "swim",
            description: "streaming shallow-water stencil passes",
            paper: profile(SpecFp, 1.67, 22_600, 10_000, 0.0, true),
            build: kernels::swim::build,
        },
        Kernel {
            name: "vpr",
            description: "annealing-style random cell swaps over a placement grid",
            paper: profile(SpecInt, 1.20, 171, 320_000, 14.0, false),
            build: kernels::vpr::build,
        },
    ]
};

/// Builds the full nine-workload suite, in [`NAMES`] order.
pub fn all() -> Vec<Workload> {
    KERNELS.iter().map(Kernel::workload).collect()
}

/// Builds the one workload `name` names, or `None` for an unknown
/// name. Only that kernel's data is generated and its source
/// assembled, so a lookup costs one kernel build, not the suite's.
pub fn by_name(name: &str) -> Option<Workload> {
    KERNELS.iter().find(|k| k.name == name).map(Kernel::workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustered_emu::BranchKind;

    #[test]
    fn suite_matches_names() {
        let suite = all();
        let names: Vec<_> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(names, NAMES);
    }

    #[test]
    /// A lookup builds the same workload as the suite's entry: name,
    /// description, paper profile, program and segments.
    fn by_name_round_trip() {
        for (name, w) in NAMES.into_iter().zip(all()) {
            assert_eq!(by_name(name), Some(w), "{name}");
        }
        assert!(by_name("perlbmk").is_none());
    }

    /// Every kernel must run indefinitely without halting or faulting.
    #[test]
    fn kernels_run_200k_instructions() {
        for w in all() {
            let mut m = w.machine();
            let n = m.run_to_halt(200_000).unwrap_or_else(|e| panic!("{} faulted: {e}", w.name()));
            assert_eq!(n, 200_000, "{} halted early", w.name());
        }
    }

    /// Branch mix per kernel must be a plausible fraction of the
    /// instruction stream.
    #[test]
    fn branch_density_sane() {
        for w in all() {
            let total = 100_000u64;
            let mut branches = 0u64;
            let mut trace = w.trace();
            for _ in 0..total {
                let d = trace.next().expect("endless kernel").expect("no fault");
                if d.branch.is_some() {
                    branches += 1;
                }
            }
            let frac = branches as f64 / total as f64;
            assert!(
                (0.02..0.35).contains(&frac),
                "{}: branch fraction {frac} out of expected range",
                w.name()
            );
        }
    }

    /// Call/return traffic exists where the fine-grained subroutine
    /// policy needs it.
    #[test]
    fn call_heavy_kernels_have_calls() {
        for name in ["crafty", "djpeg"] {
            let w = by_name(name).unwrap();
            let calls = w
                .trace()
                .take(100_000)
                .filter_map(Result::ok)
                .filter(|d| matches!(d.branch, Some(b) if b.kind == BranchKind::Call))
                .count();
            assert!(calls > 100, "{name}: only {calls} calls in 100K instructions");
        }
    }

    /// Memory traffic fraction differs across the suite as designed.
    #[test]
    fn memory_reference_fractions() {
        let frac = |name: &str| {
            let w = by_name(name).unwrap();
            let total = 50_000;
            let memrefs =
                w.trace().take(total).filter_map(Result::ok).filter(|d| d.mem.is_some()).count();
            memrefs as f64 / total as f64
        };
        assert!(frac("swim") > 0.25, "swim should be memory-heavy");
        assert!(frac("vpr") < 0.35, "vpr is not memory-dominated");
    }

    /// Every built-in kernel's program text survives disassembly and
    /// re-assembly bit for bit.
    #[test]
    fn all_workload_programs_reassemble_exactly() {
        for w in all() {
            let lines: Vec<String> =
                w.program().text().iter().map(clustered_isa::disassemble).collect();
            let src = lines.join("\n");
            let back = assemble(&src).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(w.program().text(), back.text(), "{}: text diverged", w.name());
        }
    }

    /// Deterministic construction: two builds yield identical programs
    /// and identical early traces.
    #[test]
    fn construction_is_deterministic() {
        let a = by_name("gzip").unwrap();
        let b = by_name("gzip").unwrap();
        assert_eq!(a.program().text(), b.program().text());
        let ta: Vec<_> = a.trace().take(5_000).map(Result::unwrap).collect();
        let tb: Vec<_> = b.trace().take(5_000).map(Result::unwrap).collect();
        assert_eq!(ta, tb);
    }

    /// gzip's match/literal censuses must both advance — evidence that
    /// both compressible and incompressible behaviour occur.
    #[test]
    fn gzip_finds_matches_and_literals() {
        let w = by_name("gzip").unwrap();
        let mut m = w.machine();
        m.run_to_halt(2_000_000).unwrap();
        let matches = m.int_reg(16);
        let literals = m.int_reg(17);
        assert!(matches > 1_000, "too few matches: {matches}");
        assert!(literals > 1_000, "too few literals: {literals}");
    }

    /// parser lookups must actually find keys.
    #[test]
    fn parser_hit_rate() {
        let w = by_name("parser").unwrap();
        let mut m = w.machine();
        m.run_to_halt(500_000).unwrap();
        let misses = m.int_reg(18);
        let hits_value = m.int_reg(19);
        assert!(hits_value > 0, "no successful lookups");
        assert_eq!(misses, 0, "lookups should always find their key");
    }

    /// vpr's accept/reject censuses reflect the designed ~85% bias.
    #[test]
    fn vpr_accept_bias() {
        let w = by_name("vpr").unwrap();
        let mut m = w.machine();
        m.run_to_halt(500_000).unwrap();
        let accepts = m.int_reg(17) as f64;
        let rejects = m.int_reg(18) as f64;
        let rate = accepts / (accepts + rejects);
        assert!((0.75..0.95).contains(&rate), "accept rate {rate}");
    }
}
