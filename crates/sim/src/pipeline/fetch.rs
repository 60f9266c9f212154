//! Fetch: branch prediction and the fetch queue, consumed in
//! block-sized runs.
//!
//! The trace source hands fetch whole *runs* — pre-decoded
//! instructions up to and including the next control transfer (see
//! [`TraceSource::next_run`]) — so the body of a basic block is pushed
//! with no per-instruction branch matching and the branch predictor is
//! consulted exactly once, at the run tail. A run is capped by the
//! remaining fetch width and fetch-queue space, so the per-cycle fetch
//! limits (and therefore the computed schedule) are identical to the
//! former one-instruction-at-a-time loop; the shard-oracle suite pins
//! this bit-for-bit.

use super::{Fetched, Processor};
use crate::observe::SimObserver;
use clustered_emu::TraceSource;

impl<T: TraceSource, O: SimObserver> Processor<T, O> {
    pub(super) fn fetch(&mut self) {
        if self.trace_done || self.awaiting_redirect || self.now < self.fetch_stall_until {
            return;
        }
        let mut fetched = 0;
        let mut blocks = 0;
        let mut run = std::mem::take(&mut self.fetch_run);
        loop {
            let budget = (self.cfg.frontend.fetch_width - fetched)
                .min(self.cfg.frontend.fetch_queue - self.fetch_queue.len());
            if budget == 0 {
                break;
            }
            debug_assert!(run.is_empty());
            if self.trace.next_run(budget, &mut run) == 0 {
                self.trace_done = true;
                break;
            }
            fetched += run.len();
            // Only the run tail may be a control transfer (the
            // `TraceSource` contract), so the body needs no branch
            // checks and the predictor runs once per block.
            let tail = run.pop().expect("next_run returned a non-zero count");
            for d in run.drain(..) {
                debug_assert!(d.branch.is_none(), "control transfer inside a run body");
                self.fetch_queue.push_back(Fetched {
                    d,
                    fetched_at: self.now,
                    mispredicted: false,
                });
            }
            let Some(outcome) = tail.branch else {
                // Run ended at the budget or the trace tail, not a branch.
                self.fetch_queue.push_back(Fetched {
                    d: tail,
                    fetched_at: self.now,
                    mispredicted: false,
                });
                continue;
            };
            let prediction = self.bpred.predict_and_update(tail.pc, &outcome);
            let mispredicted = !prediction.correct;
            self.fetch_queue.push_back(Fetched { d: tail, fetched_at: self.now, mispredicted });
            if mispredicted {
                // Wrong path: fetch stalls until the branch resolves.
                self.awaiting_redirect = true;
                break;
            }
            blocks += 1;
            if blocks >= self.cfg.frontend.max_basic_blocks {
                break;
            }
        }
        run.clear();
        self.fetch_run = run;
        self.stats.fetched += fetched as u64;
    }
}
