#!/usr/bin/env sh
# The whole CI gate, runnable locally and offline: build, tests, and
# lints for every workspace crate. No network access is required — the
# workspace has no external dependencies by design (see Cargo.toml).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
# rustfmt.toml sets the style. benchmark/ is a workspace of its own,
# so `--all` does not reach it and this gate leaves it as it is.
cargo fmt --all --check

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> schedule oracles under debug assertions"
# The backend's hot-loop rebuild leans on invariants that only
# debug_assert! checks (event floor monotonicity, slot-window span,
# ROB indexing): run the bit-identity oracles explicitly in a
# debug-assertions build so a latent violation panics here rather
# than silently shipping. Explicit even though the workspace test run
# above also covers them — this gate must survive that step ever
# moving to --release.
#
# host_profile runs the cycle loop with and without the host profiler
# compiled in and requires identical stats, so the one loop body is
# checked under the same debug assertions in both builds;
# observer_integration does the same for composed observer pairs.
cargo test --quiet --test shard_equivalence --test compiled_replay
cargo test --quiet -p clustered-sim --test host_profile --test observer_integration

echo "==> model-based property suites (slow-tests feature)"
# Model-based equivalence of Cluster::select against the reference
# heap/BTreeSet scheduler, and of the event calendar against a
# (time, tick) min-heap, on randomized schedules. The feature runs
# the long sweeps (the event model test runs 100x its tier-1 cases);
# they live here so they cannot rot unexercised.
cargo test --quiet -p clustered-sim --features slow-tests --test cluster_select_props
cargo test --quiet -p clustered-sim --features slow-tests --lib pipeline::events

echo "==> examples, once each"
# `cargo test` only compiles the examples; run each prebuilt binary so
# a panic or an error exit fails the gate (~3 s together).
cargo build --release --quiet --examples
for example in examples/*.rs; do
    ./target/release/examples/"$(basename "$example" .rs)" > /dev/null
done

echo "==> experiments all, twice (every experiment end to end, deterministic)"
# Two runs of every experiment must print identical text. `all` covers
# multithread's half window and table4's zero-warm-up capture. Small
# window: this is a correctness gate, not a measurement.
CI_TMP=$(mktemp -d)
trap 'rm -rf "$CI_TMP"' EXIT
CLUSTERED_MEASURE=20000 CLUSTERED_WARMUP=2000 \
    ./target/release/experiments all > "$CI_TMP/all_a.txt"
CLUSTERED_MEASURE=20000 CLUSTERED_WARMUP=2000 \
    ./target/release/experiments all > "$CI_TMP/all_b.txt"
cmp "$CI_TMP/all_a.txt" "$CI_TMP/all_b.txt"

echo "==> experiments --decisions smoke (sweep points with a decision observer)"
# Each point's decision trace goes to DIR/<experiment>/<label>.jsonl,
# so no two experiments of `all` can write the same file. A fig3
# point's trace is the provenance header plus the fixed policy's
# 10k-commit checkpoints, so it must hold more than one line.
CLUSTERED_MEASURE=20000 CLUSTERED_WARMUP=2000 \
    ./target/release/experiments fig3 --decisions "$CI_TMP/dec" > /dev/null
test "$(wc -l < "$CI_TMP/dec/fig3/gzip-16.jsonl")" -gt 1

echo "==> sweep heartbeat smoke (CLUSTERED_PROGRESS JSONL stream)"
# Every completed fig3 point appends one `point` heartbeat. Its
# trace_checksum is hashed on demand from the capture the point
# replays, so it must be non-zero, and one kernel's five widths, which
# replay one capture, must carry one value.
CLUSTERED_PROGRESS="$CI_TMP/hb.jsonl" CLUSTERED_MEASURE=20000 CLUSTERED_WARMUP=2000 \
    ./target/release/experiments fig3 > /dev/null
checksums() {
    grep "\"event\":\"point\".*$1" "$CI_TMP/hb.jsonl" |
        sed 's/.*"trace_checksum":\([0-9]*\).*/\1/'
}
test "$(checksums '' | wc -l)" -eq 45
if checksums '' | grep -qvE '^[1-9][0-9]*$'; then
    echo "a heartbeat lacks a non-zero trace_checksum" >&2
    exit 1
fi
test "$(checksums '"label":"gzip/' | wc -l)" -eq 5
test "$(checksums '"label":"gzip/' | sort -u | wc -l)" -eq 1

echo "==> explain smoke (decision telemetry end to end)"
# One short run per policy family plus a JSONL dump: `explain` must
# render a timeline and the dump must be non-empty.
for policy in explore distant branch; do
    ./target/release/clustered explain --workload gzip --policy "$policy" \
        --warmup 2000 --instructions 25000 --limit 5 \
        --decisions "$CI_TMP/$policy.jsonl" > "$CI_TMP/$policy.txt"
    grep -q "decision timeline" "$CI_TMP/$policy.txt"
    test -s "$CI_TMP/$policy.jsonl"
done

echo "==> perf smoke (host profiler end to end)"
# A short profiled run: the host_profile JSON must parse-ably report
# throughput and the Chrome trace must be written and non-empty.
./target/release/clustered perf --workload gzip --policy explore \
    --warmup 2000 --instructions 25000 --sample-interval 5000 \
    --out "$CI_TMP/host_trace.json" > "$CI_TMP/perf.txt"
grep -q "sim cycles/sec" "$CI_TMP/perf.txt"
test -s "$CI_TMP/host_trace.json"
./target/release/clustered perf --workload gzip --warmup 2000 \
    --instructions 25000 --json > "$CI_TMP/perf.json"
grep -q '"sim_cycles_per_sec"' "$CI_TMP/perf.json"

echo "==> conservation-law audit (strict, grid subset)"
# The full 360-point grid runs under `cargo test --test audit_grid`
# above; this re-checks a subset through the CLI's `--audit strict`
# path so the non-zero-exit contract stays wired end to end. The
# subset spans both cache models and an adaptive + a fixed policy.
for workload in gzip swim parser; do
    ./target/release/clustered run --workload "$workload" --policy explore \
        --warmup 2000 --instructions 20000 --audit strict > /dev/null
    ./target/release/clustered run --workload "$workload" --policy fixed \
        --clusters 8 --decentralized \
        --warmup 2000 --instructions 20000 --audit strict > /dev/null
done

echo "==> diff smoke (same config identical, cross-policy drifted)"
# Two runs of the same trace + config must diff as `identical`
# (determinism through the artifact layer), and a different policy
# must produce structured per-counter deltas with verdict `drifted`.
./target/release/clustered run --workload gzip --policy explore \
    --warmup 2000 --instructions 20000 --json \
    --ledger "$CI_TMP/ledger.jsonl" > "$CI_TMP/run_a.json"
./target/release/clustered run --workload gzip --policy explore \
    --warmup 2000 --instructions 20000 --json \
    --ledger "$CI_TMP/ledger.jsonl" > "$CI_TMP/run_b.json"
./target/release/clustered run --workload gzip --policy fixed --clusters 8 \
    --warmup 2000 --instructions 20000 --json \
    --ledger "$CI_TMP/ledger.jsonl" > "$CI_TMP/run_c.json"
./target/release/clustered diff "$CI_TMP/run_a.json" "$CI_TMP/run_b.json" \
    > "$CI_TMP/diff_ab.txt"
grep -q "verdict: identical" "$CI_TMP/diff_ab.txt"
./target/release/clustered diff "$CI_TMP/run_a.json" "$CI_TMP/run_c.json" \
    --json > "$CI_TMP/diff_ac.json"
grep -q '"verdict": "drifted"' "$CI_TMP/diff_ac.json"
grep -q '"changed"' "$CI_TMP/diff_ac.json"

echo "==> run ledger + report smoke"
# The three --ledger runs above registered their provenance; the
# report must aggregate them into both policy groups.
./target/release/clustered report --ledger "$CI_TMP/ledger.jsonl" \
    > "$CI_TMP/report.txt"
grep -q "interval-explore" "$CI_TMP/report.txt"
grep -q "fixed-8" "$CI_TMP/report.txt"

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo clippy --workspace -- -D warnings"
# Clippy is optional on machines without the component (it ships with
# rustup's default profile; minimal installs may lack it).
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint step" >&2
fi

echo "==> benchmark package (separate workspace)"
# benchmark/ is a Cargo workspace of its own that compiles against the
# public API of crates/*, so the workspace steps above never build it.
cargo test --release --quiet --manifest-path benchmark/Cargo.toml
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
else
    echo "clippy not installed; skipping benchmark lint step" >&2
fi

echo "CI gate passed."
