//! Compiled-replay equivalence suite: a [`CompiledTrace`] is a
//! pre-decoded view of a [`CapturedTrace`], so its decoded stream must be
//! bit-identical to live emulation for every kernel, its runs must
//! honour the `TraceSource` run contract, and a simulator fed the
//! compiled form must compute the same statistics as one fed live
//! emulation.
//!
//! Together with `tests/shard_equivalence.rs` (whose oracle pins the
//! schedule the pipeline computes from the decoded stream), this makes
//! the compiled path a no-op for results and a win for wall-clock only.

use clustered_core::{IntervalDistantIlp, IntervalExplore};
use clustered_emu::{DecodedInst, TraceSource};
use clustered_sim::{CacheModel, FixedPolicy, Processor, ReconfigPolicy, SimConfig};
use clustered_workloads::CapturedTrace;

const RECORDS: u64 = 5_000;

fn drain(mut src: impl TraceSource) -> Vec<DecodedInst> {
    let mut out = Vec::new();
    while let Some(d) = src.next_decoded() {
        out.push(d);
    }
    out
}

/// For all nine kernels, the compiled stream equals live emulation,
/// record for record.
#[test]
fn compiled_stream_matches_replay_and_live_for_all_nine_kernels() {
    for w in clustered_workloads::all() {
        let captured = CapturedTrace::capture(&w, RECORDS);
        let live = drain(w.trace().take(captured.len()).map(Result::unwrap));
        let from_table = drain(captured.compile().replay());
        assert_eq!(from_table, live, "{}: compiled stream diverged from live", w.name());
    }
}

/// The run contract, for all nine kernels at fetch budgets 1..=8:
/// `next_run` output stitched together is the whole decoded stream,
/// every run body is branch-free, and every run ends at a control
/// transfer, at the budget, or at the trace tail. With an unbounded
/// budget the runs are exactly the basic blocks `block_count` counts.
#[test]
fn next_run_honours_the_run_contract_for_all_nine_kernels() {
    for w in clustered_workloads::all() {
        let captured = CapturedTrace::capture(&w, RECORDS);
        let compiled = captured.compile();
        let whole = drain(compiled.replay());
        assert_eq!(compiled.table_len(), w.program().text().len());
        for budget in (1..=8).chain([usize::MAX]) {
            let mut src = compiled.replay();
            let (mut stitched, mut run, mut runs) = (Vec::new(), Vec::new(), 0);
            loop {
                run.clear();
                let n = src.next_run(budget, &mut run);
                assert_eq!(n, run.len());
                if n == 0 {
                    break;
                }
                runs += 1;
                let (tail, body) = run.split_last().unwrap();
                assert!(
                    body.iter().all(|d| d.branch.is_none()),
                    "{} budget {budget}: control transfer inside a run body",
                    w.name()
                );
                assert!(
                    tail.branch.is_some() || n == budget || src.remaining() == 0,
                    "{} budget {budget}: run ends at neither a branch, the budget nor the tail",
                    w.name()
                );
                stitched.extend_from_slice(&run);
            }
            assert_eq!(
                stitched,
                whole,
                "{} budget {budget}: runs diverged from the stream",
                w.name()
            );
            if budget == usize::MAX {
                assert_eq!(runs, compiled.block_count(), "{}: block count", w.name());
            }
        }
    }
}

/// Feeding the simulator the compiled form computes bit-identical
/// statistics to feeding it live emulation, across both cache
/// models, fixed and adaptive policies, and narrow/wide cluster
/// counts (a sample of the shard-oracle matrix; the full 360-point
/// oracle pin in `tests/shard_equivalence.rs` covers the pipeline
/// itself).
#[test]
fn simulator_stats_identical_on_compiled_and_plain_replay() {
    const WARMUP: u64 = 1_000;
    const MEASURE: u64 = 4_000;
    type PolicyCtor = fn() -> Box<dyn ReconfigPolicy>;
    let policies: [(&str, PolicyCtor); 3] = [
        ("fixed4", || Box::new(FixedPolicy::new(4))),
        ("explore", || Box::new(IntervalExplore::default())),
        ("distant", || Box::new(IntervalDistantIlp::default())),
    ];
    for name in ["gzip", "djpeg", "swim"] {
        let w = clustered_workloads::by_name(name).unwrap();
        let trace = CapturedTrace::for_window(&w, WARMUP, MEASURE);
        let compiled = trace.compile();
        for model in [CacheModel::Centralized, CacheModel::Decentralized] {
            for (pname, policy) in policies {
                let mut cfg = SimConfig::default();
                cfg.cache.model = model;
                let live = w.trace().map(Result::unwrap);
                let mut via_live = Processor::new(cfg, live, policy()).expect("valid config");
                let mut via_compiled =
                    Processor::new(cfg, compiled.replay(), policy()).expect("valid config");
                via_live.run(WARMUP).expect("warmup");
                via_compiled.run(WARMUP).expect("warmup");
                let a0 = *via_live.stats();
                let b0 = *via_compiled.stats();
                via_live.run(MEASURE).expect("measure");
                via_compiled.run(MEASURE).expect("measure");
                let a = via_live.stats().delta_since(&a0);
                let b = via_compiled.stats().delta_since(&b0);
                assert_eq!(
                    a.to_json().to_string_compact(),
                    b.to_json().to_string_compact(),
                    "{name}/{model:?}/{pname}: compiled path diverged from live emulation"
                );
            }
        }
    }
}
