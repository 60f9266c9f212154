// Property tests depend on the external `proptest` crate, which the
// offline build environment cannot fetch. Compiled only with
// `--features slow-tests` (re-add proptest to [dev-dependencies] first).
#![cfg(feature = "slow-tests")]

//! Property-based tests of the reconfiguration policies as state
//! machines: whatever the commit stream looks like, a policy's
//! requests stay within its configured set and its bookkeeping never
//! panics.

use clustered::policies::{
    FineGrain, FineGrainConfig, IntervalDistantIlp, IntervalExplore, IntervalExploreConfig, Trigger,
};
use clustered::sim::{CommitEvent, ReconfigPolicy};
use proptest::prelude::*;

/// A compact encoding of a synthetic commit event.
#[derive(Debug, Clone)]
struct Step {
    pc: u32,
    cycles: u64,
    is_branch: bool,
    is_call: bool,
    is_memref: bool,
    distant: bool,
}

fn step() -> impl Strategy<Value = Step> {
    (0u32..200, 1u64..6, any::<bool>(), 0u8..8, any::<bool>(), any::<bool>()).prop_map(
        |(pc, cycles, is_branch, call_die, is_memref, distant)| Step {
            pc,
            cycles,
            is_branch,
            is_call: call_die == 0,
            is_memref,
            distant,
        },
    )
}

fn drive(policy: &mut dyn ReconfigPolicy, steps: &[Step], repeats: usize) -> Vec<usize> {
    let mut requests = Vec::new();
    let mut seq = 0u64;
    let mut cycle = 0u64;
    for _ in 0..repeats {
        for s in steps {
            seq += 1;
            cycle += s.cycles;
            let event = CommitEvent {
                seq,
                pc: s.pc,
                cycle,
                is_branch: s.is_branch || s.is_call,
                is_cond_branch: s.is_branch,
                is_call: s.is_call,
                is_return: false,
                is_memref: s.is_memref,
                distant: s.distant,
                mispredicted: false,
            };
            if let Some(r) = policy.on_commit(&event) {
                requests.push(r);
            }
        }
    }
    requests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exploration policy only ever requests configurations from
    /// its explore set.
    #[test]
    fn explore_requests_stay_in_configured_set(
        steps in prop::collection::vec(step(), 50..200),
        repeats in 1usize..60,
    ) {
        let mut policy = IntervalExplore::new(IntervalExploreConfig {
            initial_interval: 100,
            max_interval: 10_000,
            ..IntervalExploreConfig::default()
        });
        let requests = drive(&mut policy, &steps, repeats);
        for r in requests {
            prop_assert!([2usize, 4, 8, 16].contains(&r), "unexpected request {r}");
        }
    }

    /// Once discontinued, the exploration policy never requests again.
    #[test]
    fn explore_discontinuation_is_final(
        steps in prop::collection::vec(step(), 50..200),
    ) {
        let mut policy = IntervalExplore::new(IntervalExploreConfig {
            initial_interval: 100,
            max_interval: 200,
            ..IntervalExploreConfig::default()
        });
        let _ = drive(&mut policy, &steps, 100);
        if policy.is_discontinued() {
            let late = drive(&mut policy, &steps, 20);
            prop_assert!(late.is_empty(), "discontinued policy reconfigured: {late:?}");
        }
    }

    /// The no-exploration policy only picks its two configurations,
    /// and consecutive requests never repeat a value (requests are
    /// changes).
    #[test]
    fn distant_ilp_requests_alternate_between_configs(
        steps in prop::collection::vec(step(), 50..200),
        repeats in 1usize..40,
    ) {
        let mut policy = IntervalDistantIlp::with_interval(100);
        let requests = drive(&mut policy, &steps, repeats);
        for pair in requests.windows(2) {
            prop_assert_ne!(pair[0], pair[1], "request repeated a configuration");
        }
        for r in requests {
            prop_assert!(r == 4 || r == 16, "unexpected request {r}");
        }
    }

    /// Fine-grained policies request only narrow/wide and their
    /// internal distant-window bookkeeping stays consistent under any
    /// stream.
    #[test]
    fn finegrain_requests_stay_in_bounds(
        steps in prop::collection::vec(step(), 30..150),
        repeats in 1usize..40,
        trigger_branch in any::<bool>(),
    ) {
        let trigger = if trigger_branch { Trigger::Branch } else { Trigger::CallReturn };
        let mut policy = FineGrain::new(
            trigger,
            FineGrainConfig { samples: 2, every_nth: 2, ..FineGrainConfig::default() },
        );
        let requests = drive(&mut policy, &steps, repeats);
        for r in &requests {
            prop_assert!(*r == 4 || *r == 16, "unexpected request {r}");
        }
        prop_assert_eq!(requests.len() as u64, policy.requests());
        for pair in requests.windows(2) {
            prop_assert_ne!(pair[0], pair[1]);
        }
    }
}
