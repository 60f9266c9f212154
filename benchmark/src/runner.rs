//! Running simulation points: the library entry points the end-to-end
//! metrics time, and the decomposed and profiled paths behind the
//! per-layer metrics, whose results must match the library's.

use crate::suite::{Points, Setup};
use clustered_bench::sweep::{
    run_point as sweep_run_point, run_sweep_with, SweepOutcome, SweepPoint,
};
use clustered_emu::TraceSource;
use clustered_sim::{
    CommitEvent, DecisionRecord, HostProfiler, HostStage, NullObserver, Processor, ReconfigPolicy,
    SimConfig, SimError, SimObserver, SimStats, SteeringKind, HOST_STAGE_COUNT,
};
use clustered_stats::{envelope, fnv1a_64, Provenance};
use clustered_workloads::Workload;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// Monotonic nanoseconds since the run started.
#[derive(Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose epoch is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the epoch.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// How a repetition drives its points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The library's own entry points, the ones `fig3` and `fig5` call
    /// (`sweep::run_point`, `run_experiment`): the path the end-to-end
    /// metrics time.
    Library,
    /// The same warm-up → snapshot → measure → delta sequence as
    /// `Processor` calls timed phase by phase, no observer. It also
    /// reports whole-run totals (warm-up included), which the library
    /// path does not return.
    Plain,
    /// As `Plain` with the host profiler attached and the policy's
    /// calls recorded, then replayed and timed.
    Profiled,
}

impl Mode {
    /// Lower-case name for the trace.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Library => "library",
            Mode::Plain => "plain",
            Mode::Profiled => "profiled",
        }
    }
}

/// Host-profiler totals over one point's measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profile {
    /// Loop nanoseconds per stage, in [`HostStage::ALL`] order.
    pub stage_nanos: [u64; HOST_STAGE_COUNT],
    /// Profiled cycles.
    pub cycles: u64,
    /// Events drained.
    pub drained: u64,
    /// Cycles with no busy cluster.
    pub quiescent: u64,
    /// Max/mean events drained per busy shard.
    pub skew: f64,
}

impl Profile {
    /// Nanoseconds spent in `stage`.
    pub fn stage(&self, stage: HostStage) -> u64 {
        let i = HostStage::ALL
            .iter()
            .position(|s| *s == stage)
            .expect("stage listed");
        self.stage_nanos[i]
    }
}

/// Policy calls over one point's measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyCalls {
    /// `on_commit` calls.
    pub calls: u64,
    /// Calls that requested a cluster count.
    pub decisions: u64,
    /// Events replayed through a fresh policy.
    pub replayed: u64,
    /// Nanoseconds the replay took.
    pub replay_ns: u64,
}

/// One timed call inside a point: a span of the trace.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// `sim.new`, `sim.run.warmup`, `sim.run.measure`,
    /// `sweep.run_point`, `bench.run_experiment`, `core.replay` or
    /// `stats.export`.
    pub name: &'static str,
    /// Start, clock ns.
    pub start_ns: u64,
    /// End, clock ns.
    pub end_ns: u64,
}

/// What a finished point reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Measured-window statistics.
    pub stats: SimStats,
    /// FNV-1a of the compact `SimStats::to_json` text.
    pub digest: u64,
    /// Whole-run statistics, warm-up included (not in library mode).
    pub total: Option<SimStats>,
    /// The timed calls, in order.
    pub phases: Vec<Phase>,
    /// Host profile (profiled mode).
    pub profile: Option<Profile>,
    /// Policy calls (profiled mode).
    pub policy: Option<PolicyCalls>,
}

impl Outcome {
    fn new(stats: SimStats, total: Option<SimStats>, phases: Vec<Phase>) -> Outcome {
        Outcome {
            stats,
            digest: 0,
            total,
            phases,
            profile: None,
            policy: None,
        }
    }

    /// Nanoseconds of the phase called `name` (0 if absent).
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.end_ns - p.start_ns)
            .sum()
    }
}

/// One point of one repetition.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The point's label.
    pub label: String,
    /// Start, clock ns.
    pub start_ns: u64,
    /// End, clock ns.
    pub end_ns: u64,
    /// The result, or why the point failed (stall, panic).
    pub outcome: Result<Outcome, String>,
}

impl SweepOutcome for PointRun {
    fn sim_cycles(&self) -> Option<u64> {
        self.outcome.as_ref().ok().map(|o| o.stats.cycles)
    }
}

/// One pass over every point of a workload.
#[derive(Debug)]
pub struct Rep {
    /// How the points were driven.
    pub mode: Mode,
    /// Start, clock ns.
    pub start_ns: u64,
    /// End, clock ns.
    pub end_ns: u64,
    /// Points in grid order.
    pub points: Vec<PointRun>,
}

impl Rep {
    /// Wall seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// What every point of a run shares.
pub struct Ctx {
    /// The run's clock.
    pub clock: Clock,
    /// Provenance stamped into each exported statistics document.
    pub provenance: Provenance,
}

/// The instruction stream of one point.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// Replay of a sweep point's captured, compiled trace.
    Replay(&'a SweepPoint),
    /// Live emulation of a workload.
    Live(&'a Workload),
}

/// Everything needed to simulate one point.
struct Spec<'a> {
    label: &'a str,
    source: Source<'a>,
    cfg: SimConfig,
    steering: SteeringKind,
    policy: &'a (dyn Fn() -> Box<dyn ReconfigPolicy> + Send + Sync),
    warmup: u64,
    measure: u64,
}

impl<'a> Spec<'a> {
    fn replay(p: &'a SweepPoint) -> Spec<'a> {
        Spec {
            label: &p.label,
            source: Source::Replay(p),
            cfg: p.cfg,
            steering: p.steering,
            policy: &*p.policy,
            warmup: p.warmup,
            measure: p.measure,
        }
    }
}

/// Runs every point of `setup` once in `mode`.
pub fn run_rep(setup: &Setup, mode: Mode, ctx: &Ctx) -> Rep {
    let start_ns = ctx.clock.ns();
    let points = match &setup.points {
        // The sweep executor's serial path, as `fig3` takes it with
        // `CLUSTERED_JOBS=1`. Two workers on the shared 2-vCPU host lose
        // half their speed whenever a neighbour takes a core, which made
        // this workload's spread exceed its bound (README.md, "Noise").
        Points::Replay(points) => {
            run_sweep_with(points, 1, |p| run_point(&Spec::replay(p), mode, ctx))
        }
        Points::Live(points) => points
            .iter()
            .map(|p| {
                let spec = Spec {
                    label: &p.label,
                    source: Source::Live(&setup.sources[p.source].0),
                    cfg: p.cfg,
                    steering: SteeringKind::default(),
                    policy: &*p.policy,
                    warmup: p.warmup,
                    measure: p.measure,
                };
                run_point(&spec, mode, ctx)
            })
            .collect(),
    };
    Rep {
        mode,
        start_ns,
        end_ns: ctx.clock.ns(),
        points,
    }
}

fn run_point(spec: &Spec<'_>, mode: Mode, ctx: &Ctx) -> PointRun {
    let start_ns = ctx.clock.ns();
    let outcome = catch_unwind(AssertUnwindSafe(|| simulate_point(spec, mode, ctx)))
        .unwrap_or_else(|panic| {
            let why = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "unknown panic".to_string());
            Err(format!("panicked: {why}"))
        });
    PointRun {
        label: spec.label.to_string(),
        start_ns,
        end_ns: ctx.clock.ns(),
        outcome,
    }
}

fn live_stream(w: &Workload) -> impl Iterator<Item = clustered_emu::DynInst> + '_ {
    // The same adapter `clustered_bench::run_experiment` uses.
    w.trace()
        .map(|r| r.unwrap_or_else(|e| panic!("workload faulted during simulation: {e}")))
}

fn simulate_point(spec: &Spec<'_>, mode: Mode, ctx: &Ctx) -> Result<Outcome, String> {
    let policy = || (spec.policy)();
    let mut run = match (mode, spec.source) {
        (Mode::Library, source) => {
            let start_ns = ctx.clock.ns();
            let (name, stats) = match source {
                Source::Replay(p) => ("sweep.run_point", sweep_run_point(p)),
                Source::Live(w) => (
                    "bench.run_experiment",
                    clustered_bench::run_experiment(
                        w,
                        spec.cfg,
                        policy(),
                        spec.warmup,
                        spec.measure,
                    ),
                ),
            };
            let phase = Phase {
                name,
                start_ns,
                end_ns: ctx.clock.ns(),
            };
            Outcome::new(stats, None, vec![phase])
        }
        (Mode::Plain, Source::Replay(p)) => {
            drive(p.compiled.replay(), NullObserver, policy(), spec, ctx)?
        }
        (Mode::Plain, Source::Live(w)) => drive(live_stream(w), NullObserver, policy(), spec, ctx)?,
        (Mode::Profiled, source) => {
            let log = Rc::new(RefCell::new(CallLog::default()));
            let recorder = Box::new(RecordingPolicy {
                inner: policy(),
                log: Rc::clone(&log),
            });
            let observer = Profiled {
                host: HostProfiler::default(),
                log: Rc::clone(&log),
            };
            let mut run = match source {
                Source::Replay(p) => drive(p.compiled.replay(), observer, recorder, spec, ctx),
                Source::Live(w) => drive(live_stream(w), observer, recorder, spec, ctx),
            }?;
            let log = log.take();
            // Per-call clock reads would dwarf a policy call, so the
            // recorded events are replayed through a fresh policy and
            // timed as one batch.
            let mut fresh = policy();
            let start_ns = ctx.clock.ns();
            for event in &log.events {
                std::hint::black_box(fresh.on_commit(std::hint::black_box(event)));
            }
            let end_ns = ctx.clock.ns();
            run.phases.push(Phase {
                name: "core.replay",
                start_ns,
                end_ns,
            });
            run.policy = Some(PolicyCalls {
                calls: log.calls,
                decisions: log.decisions,
                replayed: log.events.len() as u64,
                replay_ns: end_ns - start_ns,
            });
            run
        }
    };
    assert!(
        run.stats.committed >= spec.measure,
        "measured window cut short: {} of {} instructions",
        run.stats.committed,
        spec.measure
    );
    run.digest = digest(&run.stats);
    // What exporting one point's statistics costs: `SimStats::to_json`,
    // the provenance envelope, serialisation. Kept off the timed
    // library path.
    if mode != Mode::Library {
        let start_ns = ctx.clock.ns();
        let text = envelope(&ctx.provenance, run.stats.to_json()).to_string_compact();
        std::hint::black_box(text);
        run.phases.push(Phase {
            name: "stats.export",
            start_ns,
            end_ns: ctx.clock.ns(),
        });
    }
    Ok(run)
}

/// The correctness digest of a point: FNV-1a 64 of its compact
/// `SimStats` JSON.
fn digest(stats: &SimStats) -> u64 {
    fnv1a_64(stats.to_json().to_string_compact().as_bytes())
}

/// Observers [`drive`] accepts: what to reset after the warm-up
/// and what to report after the measured window.
trait Probe: SimObserver {
    fn after_warmup(&mut self) {}
    fn profile(&self) -> Option<Profile> {
        None
    }
}

impl Probe for NullObserver {}

/// The profiled run's observer: the host profiler, plus the policy
/// call log so both restart together after the warm-up.
struct Profiled {
    host: HostProfiler,
    log: Rc<RefCell<CallLog>>,
}

impl SimObserver for Profiled {
    const WANTS_HOST_PROFILE: bool = true;

    fn on_stage_nanos(&mut self, nanos: &[u64; HOST_STAGE_COUNT]) {
        self.host.on_stage_nanos(nanos);
    }

    fn on_queue_health(&mut self, sample: &clustered_sim::QueueHealth) {
        self.host.on_queue_health(sample);
    }

    fn on_event_drained(&mut self, shard: usize) {
        self.host.on_event_drained(shard);
    }
}

impl Probe for Profiled {
    fn after_warmup(&mut self) {
        self.host.reset();
        self.log.take();
    }

    fn profile(&self) -> Option<Profile> {
        let h = &self.host;
        Some(Profile {
            stage_nanos: *h.stage_nanos(),
            cycles: h.cycles(),
            drained: h.drained_total(),
            quiescent: h.fully_quiescent_cycles(),
            skew: h.drained_skew(),
        })
    }
}

/// The library's warm-up → snapshot → measure → delta sequence, with a
/// clock reading between the steps.
fn drive<T: TraceSource, O: Probe>(
    stream: T,
    observer: O,
    policy: Box<dyn ReconfigPolicy>,
    spec: &Spec<'_>,
    ctx: &Ctx,
) -> Result<Outcome, String> {
    let err = |e: SimError| e.to_string();
    let m0 = ctx.clock.ns();
    let mut cpu =
        Processor::with_observer(spec.cfg, stream, policy, spec.steering, observer).map_err(err)?;
    let m1 = ctx.clock.ns();
    cpu.run(spec.warmup).map_err(err)?;
    let before = *cpu.stats();
    cpu.observer_mut().after_warmup();
    let m2 = ctx.clock.ns();
    cpu.run(spec.measure).map_err(err)?;
    let m3 = ctx.clock.ns();
    let total = *cpu.stats();
    let phase = |name, start_ns, end_ns| Phase {
        name,
        start_ns,
        end_ns,
    };
    let phases = vec![
        phase("sim.new", m0, m1),
        phase("sim.run.warmup", m1, m2),
        phase("sim.run.measure", m2, m3),
    ];
    let mut run = Outcome::new(total.delta_since(&before), Some(total), phases);
    run.profile = cpu.observer().profile();
    Ok(run)
}

/// Events a profiled point records for the policy replay.
const REPLAY_EVENTS: usize = 100_000;

/// What the recording wrapper saw over the measured window.
#[derive(Debug, Default)]
struct CallLog {
    /// `on_commit` calls.
    calls: u64,
    /// Calls that requested a cluster count.
    decisions: u64,
    /// The first [`REPLAY_EVENTS`] events, for the timed replay.
    events: Vec<CommitEvent>,
}

/// Counts and records every `on_commit` of the wrapped policy;
/// otherwise forwards.
struct RecordingPolicy {
    inner: Box<dyn ReconfigPolicy>,
    log: Rc<RefCell<CallLog>>,
}

impl ReconfigPolicy for RecordingPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial_clusters(&self) -> usize {
        self.inner.initial_clusters()
    }

    fn on_commit(&mut self, event: &CommitEvent) -> Option<usize> {
        let request = self.inner.on_commit(event);
        let mut log = self.log.borrow_mut();
        log.calls += 1;
        log.decisions += u64::from(request.is_some());
        if log.events.len() < REPLAY_EVENTS {
            log.events.push(*event);
        }
        request
    }

    fn take_decision(&mut self) -> Option<DecisionRecord> {
        self.inner.take_decision()
    }
}
