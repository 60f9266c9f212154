//! The four named workloads: their inputs (generated from the seed),
//! their grids of simulation points, and the timed host-side setup
//! that prepares them.

use crate::runner::Clock;
use clustered_bench::sweep::SweepPoint;
use clustered_bench::{DEFAULT_MEASURE, DEFAULT_WARMUP};
use clustered_core::{FineGrain, IntervalDistantIlp, IntervalExplore, IntervalExploreConfig};
use clustered_sim::{CacheModel, FixedPolicy, ReconfigPolicy, SimConfig};
use clustered_workloads::data::Rng;
use clustered_workloads::synthetic::{phased, PhaseKind, PhaseSpec};
use clustered_workloads::{CapturedTrace, Workload, CAPTURE_MARGIN};
use std::sync::Arc;

/// A named workload and why it is in the suite.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
}

/// The suite, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "fig3_grid",
        why: "Fig 3 grid on the serial sweep executor: capture, compile and fixed-width cycle \
              loops at every width; the policy layer is idle",
    },
    WorkloadDef {
        name: "fig5_live",
        why: "fig5's six policies at fig5's windows on 3 kernels that match the whole suite: \
              live emulation, adaptive policies on every commit, no sweep executor",
    },
    WorkloadDef {
        name: "wide16_dec",
        why: "single runs on the communication-bound 16-cluster decentralized-cache machine, \
              where event drain dominates",
    },
    WorkloadDef {
        name: "phased_reconfig",
        why: "seed-generated phased programs under reconfiguring policies: drains, L1 flushes \
              and policy calls",
    },
];

/// Which of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fig3_grid`.
    Fig3Grid,
    /// `fig5_live`.
    Fig5Live,
    /// `wide16_dec`.
    Wide16Dec,
    /// `phased_reconfig`.
    PhasedReconfig,
}

impl Kind {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "fig3_grid" => Some(Kind::Fig3Grid),
            "fig5_live" => Some(Kind::Fig5Live),
            "wide16_dec" => Some(Kind::Wide16Dec),
            "phased_reconfig" => Some(Kind::PhasedReconfig),
            _ => None,
        }
    }

    /// The workload's entry in [`WORKLOADS`].
    pub fn def(self) -> WorkloadDef {
        WORKLOADS[self as usize]
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        self.def().name
    }
}

/// Run length: `Full` is what the benchmark measures; `Smoke` shrinks
/// every window so the unit tests can run all four workloads in
/// seconds; `Paper` uses the experiment binaries' default windows, to
/// check that the shorter `Full` windows keep their host costs and
/// policy behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// Tiny windows for tests.
    Smoke,
    /// The experiment binaries' default windows.
    Paper,
}

impl Scale {
    /// Parses `full` / `smoke` / `paper`.
    pub fn from_name(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The scale's name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
            Scale::Paper => "paper",
        }
    }

    /// `(base warm-up, measured)` instructions per point of `kind`.
    /// `fig5_live` keeps fig5's own windows at full scale: shorter ones
    /// change what its adaptive policies do (README.md, "Windows").
    fn window(self, kind: Kind) -> (u64, u64) {
        let paper = (DEFAULT_WARMUP, DEFAULT_MEASURE);
        match (self, kind) {
            (Scale::Smoke, _) => (2_000, 5_000),
            (Scale::Paper, _) | (Scale::Full, Kind::Fig5Live) => paper,
            (Scale::Full, Kind::Fig3Grid) => (50_000, 100_000),
            (Scale::Full, Kind::Wide16Dec) => (100_000, 400_000),
            (Scale::Full, Kind::PhasedReconfig) => (25_000, 125_000),
        }
    }
}

/// The kernels of `fig5_live` at full scale: of all three-kernel sets,
/// the one whose fig5 grid comes closest to the whole suite's in IPC
/// geomean, mean active clusters, reconfigurations per instruction and
/// host time per instruction (within 8%; README.md, "Windows"). The
/// paper scale runs all nine.
const FIG5_KERNELS: [&str; 3] = ["djpeg", "mgrid", "parser"];

/// The kernels of `wide16_dec`.
const WIDE16_KERNELS: [&str; 4] = ["swim", "djpeg", "mgrid", "galgel"];

fn kernels(names: &[&str]) -> Vec<Workload> {
    names
        .iter()
        .map(|n| clustered_workloads::by_name(n).expect("suite kernel"))
        .collect()
}

/// Creates a fresh policy for one simulation.
pub type PolicyMaker = Arc<dyn Fn() -> Box<dyn ReconfigPolicy> + Send + Sync>;

/// One live-emulation point (`fig5_live`): the workload is emulated as
/// the simulator consumes it, exactly as `clustered_bench::run_experiment`
/// does.
pub struct LivePoint {
    /// `kernel/policy`.
    pub label: String,
    /// Index into [`Setup::sources`].
    pub source: usize,
    /// Timing configuration.
    pub cfg: SimConfig,
    /// Policy factory.
    pub policy: PolicyMaker,
    /// Warm-up instructions.
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
}

/// A workload's simulation points.
pub enum Points {
    /// Compiled-trace replay of captured streams.
    Replay(Vec<SweepPoint>),
    /// Live emulation.
    Live(Vec<LivePoint>),
}

/// A span of setup work, for the trace.
#[derive(Debug, Clone, Copy)]
pub struct SetupSpan {
    /// `workloads.build`, `workloads.capture` or `workloads.compile`.
    pub name: &'static str,
    /// Start, ns since the run's clock epoch.
    pub start_ns: u64,
    /// End, ns since the run's clock epoch.
    pub end_ns: u64,
}

/// A prepared workload: everything the timed repetitions need.
pub struct Setup {
    /// The programs simulated, with the instruction window each point
    /// of that program runs (warm-up plus measured).
    pub sources: Vec<(Workload, u64)>,
    /// The grid.
    pub points: Points,
    /// Setup work, in order.
    pub spans: Vec<SetupSpan>,
    /// Wall time of the whole setup, spans and grid building, in
    /// seconds.
    pub seconds: f64,
    /// Dynamic instructions captured.
    pub captured_records: u64,
    /// Bytes of captured trace buffers.
    pub trace_bytes: u64,
}

impl Setup {
    /// Total nanoseconds of spans named `name`.
    pub fn nanos(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Number of simulation points.
    pub fn point_count(&self) -> usize {
        match &self.points {
            Points::Replay(p) => p.len(),
            Points::Live(p) => p.len(),
        }
    }
}

/// Distinct warm-up shifts the seed rule chooses between.
const SHIFT_STEPS: u64 = 64;

/// The seed rule's warm-up shift for `kernel`, in units of 1/1000 of
/// the measured window: FNV-1a over the seed's little-endian bytes and
/// the kernel name, modulo [`SHIFT_STEPS`]. The seed picks one of 64
/// window positions per kernel while the longest shift stays at 6.3%
/// of the window, so the work simulated barely moves with the seed.
pub fn shift(seed: u64, kernel: &str) -> u64 {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(kernel.as_bytes());
    clustered_stats::fnv1a_64(&bytes) % SHIFT_STEPS
}

/// The seed-generated phase list of one `phased_reconfig` program:
/// eight phases of 2k–32k instructions. Every program spends the same
/// instruction budget per phase kind — 48k serial, 48k parallel, 32k
/// branchy per pass — so the seed moves phase order and lengths (and
/// with them the reconfiguration pattern) but not the work mix.
pub fn phase_plan(rng: &mut Rng) -> Vec<PhaseSpec> {
    let mut kinds = [
        PhaseKind::Serial,
        PhaseKind::Serial,
        PhaseKind::Serial,
        PhaseKind::Parallel,
        PhaseKind::Parallel,
        PhaseKind::Parallel,
        PhaseKind::Branchy,
        PhaseKind::Branchy,
    ];
    rng.shuffle(&mut kinds);
    let budget_k = |kind| match kind {
        PhaseKind::Serial | PhaseKind::Parallel => 48u64,
        PhaseKind::Branchy => 32,
    };
    let mut lengths: Vec<(PhaseKind, Vec<u64>)> = Vec::new();
    for kind in [PhaseKind::Serial, PhaseKind::Parallel, PhaseKind::Branchy] {
        let count = kinds.iter().filter(|&&k| k == kind).count();
        lengths.push((kind, split_budget(rng, budget_k(kind), count)));
    }
    kinds
        .iter()
        .map(|&kind| {
            let (_, left) = lengths
                .iter_mut()
                .find(|(k, _)| *k == kind)
                .expect("every kind split");
            let k = left.pop().expect("one length per phase");
            PhaseSpec::lasting(kind, (k * 1_000) as u32)
        })
        .collect()
}

/// Splits `total` (thousands of instructions) into `parts` random
/// whole lengths, each within 2..=32, by rejection sampling.
fn split_budget(rng: &mut Rng, total: u64, parts: usize) -> Vec<u64> {
    loop {
        let mut cuts: Vec<u64> = (1..parts).map(|_| rng.below(total + 1)).collect();
        cuts.push(0);
        cuts.push(total);
        cuts.sort_unstable();
        let lengths: Vec<u64> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
        if lengths.iter().all(|l| (2..=32).contains(l)) {
            return lengths;
        }
    }
}

/// Programs per `phased_reconfig` grid: enough that the host cost of
/// one seed's random programs averages out.
const PHASED_PROGRAMS: usize = 8;

/// The programs of `phased_reconfig` for `seed`.
pub fn phased_programs(seed: u64) -> Vec<Workload> {
    let mut rng = Rng::seeded(seed);
    (0..PHASED_PROGRAMS)
        .map(|i| phased(&format!("phased{i}"), &phase_plan(&mut rng)))
        .collect()
}

fn fixed(n: usize) -> PolicyMaker {
    Arc::new(move || Box::new(FixedPolicy::new(n)))
}

fn explore() -> PolicyMaker {
    // The give-up bound fig5 derives from its default run length, held
    // fixed so the policy explores the same way in every window.
    let max_interval = (DEFAULT_MEASURE / 4).max(40_000);
    Arc::new(move || {
        Box::new(IntervalExplore::new(IntervalExploreConfig {
            max_interval,
            ..IntervalExploreConfig::default()
        }))
    })
}

fn noexp(interval: u64) -> PolicyMaker {
    Arc::new(move || Box::new(IntervalDistantIlp::with_interval(interval)))
}

fn decentralized() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.cache.model = CacheModel::Decentralized;
    cfg
}

/// Builds `kind`'s inputs from `seed` and prepares its grid, timing
/// each step against `clock`.
pub fn prepare(kind: Kind, seed: u64, scale: Scale, clock: &Clock) -> Setup {
    let setup_start = clock.ns();
    let (base, measure) = scale.window(kind);
    let unit = measure / 1_000;
    let mut spans = Vec::new();
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let start_ns = clock.ns();
        f();
        spans.push(SetupSpan {
            name,
            start_ns,
            end_ns: clock.ns(),
        });
    };

    let mut programs: Vec<Workload> = Vec::new();
    timed("workloads.build", &mut || {
        programs = match kind {
            Kind::Fig5Live if scale != Scale::Paper => kernels(&FIG5_KERNELS),
            Kind::Fig3Grid | Kind::Fig5Live => clustered_workloads::all(),
            Kind::Wide16Dec => kernels(&WIDE16_KERNELS),
            Kind::PhasedReconfig => phased_programs(seed),
        }
    });
    let warmups: Vec<u64> = programs
        .iter()
        .map(|w| match kind {
            Kind::PhasedReconfig => base,
            _ => base + unit * shift(seed, w.name()),
        })
        .collect();

    // Policy columns for each program: (label suffix, config, policy).
    let columns: Vec<(String, SimConfig, PolicyMaker)> = match kind {
        Kind::Fig3Grid => {
            let mut c = vec![("mono".to_string(), SimConfig::monolithic(), fixed(1))];
            c.extend([2, 4, 8, 16].map(|n| (n.to_string(), SimConfig::default(), fixed(n))));
            c
        }
        Kind::Fig5Live => vec![
            ("fix4".into(), SimConfig::default(), fixed(4)),
            ("fix16".into(), SimConfig::default(), fixed(16)),
            ("explore".into(), SimConfig::default(), explore()),
            ("noexp-1K".into(), SimConfig::default(), noexp(1_000)),
            ("noexp-10K".into(), SimConfig::default(), noexp(10_000)),
            ("noexp-100K".into(), SimConfig::default(), noexp(100_000)),
        ],
        Kind::Wide16Dec => vec![("16dec".into(), decentralized(), fixed(16))],
        Kind::PhasedReconfig => vec![
            ("noexp-1K".into(), decentralized(), noexp(1_000)),
            ("explore".into(), decentralized(), explore()),
            (
                "branch5".into(),
                decentralized(),
                Arc::new(|| Box::new(FineGrain::branch_policy())),
            ),
        ],
    };

    let mut captured_records = 0;
    let mut trace_bytes = 0;
    let points = if kind == Kind::Fig5Live {
        let mut live = Vec::new();
        for (source, (w, &warmup)) in programs.iter().zip(&warmups).enumerate() {
            for (suffix, cfg, policy) in &columns {
                live.push(LivePoint {
                    label: format!("{}/{suffix}", w.name()),
                    source,
                    cfg: *cfg,
                    policy: Arc::clone(policy),
                    warmup,
                    measure,
                });
            }
        }
        Points::Live(live)
    } else {
        // Every seed captures the longest window any seed can ask for,
        // so capture time and trace memory do not depend on the seed.
        let records = base + (SHIFT_STEPS - 1) * unit + measure + CAPTURE_MARGIN;
        let mut replay = Vec::new();
        for (w, &warmup) in programs.iter().zip(&warmups) {
            let mut trace = None;
            timed("workloads.capture", &mut || {
                trace = Some(CapturedTrace::capture(w, records));
            });
            let trace = trace.expect("captured");
            // `compile` memoizes, so the sweep points below share this
            // table instead of compiling again.
            timed("workloads.compile", &mut || {
                trace.compile();
            });
            captured_records += trace.len() as u64;
            trace_bytes += trace.buffer_bytes() as u64;
            for (suffix, cfg, policy) in &columns {
                let policy = Arc::clone(policy);
                replay.push(SweepPoint::new(
                    format!("{}/{suffix}", w.name()),
                    &trace,
                    *cfg,
                    move || policy(),
                    warmup,
                    measure,
                ));
            }
        }
        Points::Replay(replay)
    };
    let sources = programs
        .into_iter()
        .zip(warmups)
        .map(|(w, warm)| (w, warm + measure))
        .collect();
    Setup {
        sources,
        points,
        spans,
        seconds: (clock.ns() - setup_start) as f64 / 1e9,
        captured_records,
        trace_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Kind::from_name(w.name).map(Kind::name), Some(w.name));
        }
        assert_eq!(Kind::from_name("fig4"), None);
    }

    #[test]
    fn shift_is_a_function_of_seed_and_kernel() {
        assert_eq!(shift(1, "gzip"), shift(1, "gzip"));
        assert!((0..64).contains(&shift(7, "swim")));
        let spread: std::collections::HashSet<u64> = (0..32).map(|s| shift(s, "gzip")).collect();
        assert!(spread.len() > 8, "the seed moves the window");
    }

    #[test]
    fn phase_plans_keep_the_work_mix_and_length_range() {
        for seed in 0..20 {
            let mut rng = Rng::seeded(seed);
            let plan = phase_plan(&mut rng);
            assert_eq!(plan.len(), 8);
            let per = |kind: PhaseKind, per_iteration: u32| -> u32 {
                plan.iter()
                    .filter(|p| p.kind == kind)
                    .map(|p| p.iterations * per_iteration)
                    .sum()
            };
            // `lasting` floors instructions to whole iterations.
            assert!((47_900..=48_000).contains(&per(PhaseKind::Serial, 10)));
            assert!((47_900..=48_000).contains(&per(PhaseKind::Parallel, 9)));
            assert!((31_900..=32_000).contains(&per(PhaseKind::Branchy, 9)));
        }
        let a = phase_plan(&mut Rng::seeded(1));
        let b = phase_plan(&mut Rng::seeded(2));
        assert_ne!(a, b, "different seeds, different programs");
        assert_eq!(
            a,
            phase_plan(&mut Rng::seeded(1)),
            "same seed, same program"
        );
    }

    #[test]
    fn budgets_split_within_bounds() {
        let mut rng = Rng::seeded(9);
        for _ in 0..50 {
            let parts = split_budget(&mut rng, 48, 3);
            assert_eq!(parts.iter().sum::<u64>(), 48);
            assert!(parts.iter().all(|l| (2..=32).contains(l)));
        }
    }
}
