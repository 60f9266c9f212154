//! Regenerates the paper's tables and figures:
//! `experiments <name>|all [--json] [--decisions DIR]`.
//!
//! `--json` also writes `results/<name>.json` for the experiments that
//! export one (schemas in EXPERIMENTS.md); `--decisions DIR` dumps each
//! point's policy decision trace to `DIR/<name>/<label>.jsonl`. The
//! window comes from `CLUSTERED_MEASURE` / `CLUSTERED_WARMUP`, the
//! worker count from `CLUSTERED_JOBS`. Errors exit with status 2.

use clustered_bench::experiments::{cli, Settings};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = Settings::from_env();
    match settings.and_then(|s| cli(&args, &s, &mut std::io::stdout().lock())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
