//! `clustered` — command-line front end to the simulator.
//!
//! ```text
//! clustered run --workload gzip --policy explore --instructions 500000
//! clustered run --workload gzip --policy explore --json
//! clustered run --program kernel.s --clusters 8 --decentralized
//! clustered trace --workload gzip --policy explore --out trace.json
//! clustered perf --workload gzip    # host-side profile of the simulator
//! clustered asm kernel.s            # assemble + disassemble/report
//! clustered workloads               # list the built-in suite
//! clustered phases --workload gzip  # Table-4 style instability report
//! ```

use clustered::policies::phase::instability_factor;
use clustered::policies::{
    chrome_trace, decisions_document, host_chrome_trace, host_profile_json, timeline_jsonl,
    FineGrain, IntervalDistantIlp, IntervalExplore, Timeline,
};
use clustered::sim::{
    drive, estimate_energy, AuditObserver, CacheModel, DecisionReason, DecisionRecord,
    DecisionTrace, EnergyParams, FixedPolicy, HostProfiler, HostStage, NullObserver, PolicyState,
    ReconfigLog, ReconfigPolicy, SimConfig, SteeringKind, Topology, DEFAULT_EVENT_CAP,
    DEFAULT_SAMPLE_INTERVAL,
};
use clustered::stats::{
    append_entry, diff_docs, envelope, read_ledger, Json, LedgerEntry, LedgerReport, Provenance,
    DEFAULT_DIFF_THRESHOLD, DEFAULT_LEDGER_PATH,
};
use clustered::{emu, isa, workloads};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("perf") => cmd_perf(&args[1..]),
        Some("asm") => cmd_asm(&args[1..]),
        Some("workloads") => cmd_workloads(),
        Some("phases") => cmd_phases(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
clustered — dynamically tunable clustered-processor simulator

USAGE:
  clustered run [--workload NAME | --program FILE.s]
                [--policy fixed|explore|distant|branch|subroutine]
                [--clusters N] [--instructions N] [--warmup N]
                [--decentralized] [--grid] [--monolithic] [--energy]
                [--csv FILE]      write a per-interval timeline CSV
                [--json]          print statistics as a JSON document
                                  ({schema_version, provenance, data})
                [--audit [strict]] check conservation laws every audit
                                  interval; `strict` exits non-zero on
                                  any violation
                [--ledger [FILE]] append this run's provenance and
                                  headline metrics to the run ledger
                                  (default results/ledger.jsonl)
  clustered trace [--workload NAME | --program FILE.s]
                [--policy ...] [--clusters N] [--instructions N]
                [--warmup N] [--interval N] [--decentralized] [--grid]
                [--monolithic] [--out FILE.json] [--events FILE.jsonl]
                                write a Chrome trace-event file (load in
                                chrome://tracing or ui.perfetto.dev) and,
                                with --events, a per-interval JSONL timeline
  clustered explain [--workload NAME | --program FILE.s]
                [--policy fixed|explore|distant|branch|subroutine]
                [--clusters N] [--instructions N] [--warmup N]
                [--decentralized] [--grid] [--monolithic]
                [--limit N]       timeline rows to print (default 40)
                [--decision-cap N] decision records kept before dropping
                [--decisions FILE.jsonl]
                                render the policy's decision timeline and
                                summary statistics (time per state, reconfig
                                rate, interval-length histogram) and, with
                                --decisions, dump the raw JSONL trace
  clustered perf [--workload NAME | --program FILE.s]
                [--policy ...] [--clusters N] [--instructions N] [--warmup N]
                [--decentralized] [--grid] [--monolithic]
                [--sample-interval N]
                                host-profile slice length in cycles (default 10000)
                [--out FILE.json] write a host-side Chrome trace (stage spans
                                and queue-depth counter tracks)
                [--json]          print the host_profile JSON document
                                profile the simulator itself: where host
                                wall-clock goes per pipeline stage, calendar
                                queue health, and per-cluster load skew
  clustered diff A.json B.json  compare two result artifacts, aligned by
                [--threshold X]   their provenance blocks; relative deltas
                [--json]          up to X count as noise (default 0) and
                                  the verdict is one of identical /
                                  within-noise / drifted
  clustered report [--ledger FILE] [--json]
                                aggregate the run ledger into a
                                per-workload × policy comparison table
  clustered asm FILE.s          assemble a program and report on it
  clustered workloads           list built-in workloads
  clustered phases [--workload NAME | --program FILE.s]
                [--instructions N] [--warmup N] [--base-interval N]
                                interval-stability report (Table 4)
  clustered help                this message

Defaults: --workload gzip --policy explore --clusters 4 (fixed policy)
          --instructions 500000 --warmup 50000
";

/// Flags that take no value.
const SWITCHES: &[&str] = &["decentralized", "grid", "monolithic", "energy", "json"];

/// Flags whose value may be left out.
const OPTIONAL_VALUES: &[&str] = &["audit", "ledger"];

struct Flags {
    values: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut values = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            if !known.contains(&name) {
                return Err(format!("unknown flag `--{name}`\n{USAGE}"));
            }
            if values.iter().any(|(n, _)| n == name) {
                return Err(format!("--{name} given more than once"));
            }
            let value = it.next_if(|next| !next.starts_with("--")).cloned();
            match &value {
                Some(v) if SWITCHES.contains(&name) => {
                    return Err(format!("--{name} takes no value, got `{v}`"))
                }
                None if !SWITCHES.contains(&name) && !OPTIONAL_VALUES.contains(&name) => {
                    return Err(format!("--{name} expects a value"))
                }
                _ => {}
            }
            values.push((name.to_string(), value));
        }
        Ok(Flags { values })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| n == name)
    }

    fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }
}

fn load_workload(flags: &Flags) -> Result<workloads::Workload, String> {
    if let Some(path) = flags.get("program") {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let paper = workloads::PaperProfile {
            class: workloads::WorkloadClass::SpecInt,
            base_ipc: 0.0,
            mispredict_interval: 0,
            min_stable_interval: 0,
            instability_at_10k: 0.0,
            distant_ilp: false,
        };
        // Validate explicitly so the user gets the line number rather
        // than a panic.
        isa::assemble(&source).map_err(|e| format!("{path}: {e}"))?;
        Ok(workloads::Workload::from_source(path, "user program", paper, &source, Vec::new()))
    } else {
        let name = flags.get("workload").unwrap_or("gzip");
        workloads::by_name(name)
            .ok_or_else(|| format!("unknown workload `{name}`; try `clustered workloads`"))
    }
}

/// The one capture path of every simulating verb: the workload the
/// flags name, emulated once over `warmup + instructions` (plus the
/// fetch margin) and held in memory for replay.
fn capture(
    flags: &Flags,
    warmup: u64,
    instructions: u64,
) -> Result<workloads::CapturedTrace, String> {
    let workload = load_workload(flags)?;
    workloads::CapturedTrace::try_for_window(&workload, warmup, instructions)
        .map_err(|e| format!("`{}` faulted during emulation: {e}", workload.name()))
}

fn build_config(flags: &Flags) -> Result<SimConfig, String> {
    let mut cfg =
        if flags.has("monolithic") { SimConfig::monolithic() } else { SimConfig::default() };
    if flags.has("decentralized") {
        cfg.cache.model = CacheModel::Decentralized;
    }
    if flags.has("grid") {
        cfg.interconnect.topology = Topology::Grid;
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

fn build_policy(flags: &Flags, cfg: &SimConfig) -> Result<Box<dyn ReconfigPolicy>, String> {
    let default_clusters = 4.min(cfg.clusters.count as u64);
    let clusters = flags.get_u64("clusters", default_clusters)? as usize;
    if clusters == 0 || clusters > cfg.clusters.count {
        return Err(format!("--clusters must be in 1..={}, got {clusters}", cfg.clusters.count));
    }
    let policy =
        flags.get("policy").unwrap_or(if flags.has("clusters") { "fixed" } else { "explore" });
    if policy != "fixed" && flags.has("clusters") {
        return Err(format!(
            "--clusters only applies to --policy fixed; `{policy}` chooses its own"
        ));
    }
    Ok(match policy {
        "fixed" => Box::new(FixedPolicy::new(clusters)),
        "explore" => Box::new(IntervalExplore::default()),
        "distant" => Box::new(IntervalDistantIlp::default()),
        "branch" => Box::new(FineGrain::branch_policy()),
        "subroutine" => Box::new(FineGrain::subroutine_policy()),
        other => return Err(format!("unknown policy `{other}`")),
    })
}

const RUN_FLAGS: &[&str] = &[
    "workload",
    "program",
    "policy",
    "clusters",
    "instructions",
    "warmup",
    "decentralized",
    "grid",
    "monolithic",
    "energy",
    "csv",
    "json",
    "audit",
    "ledger",
];

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, RUN_FLAGS)?;
    let cfg = build_config(&flags)?;
    let policy = build_policy(&flags, &cfg)?;
    let policy_name = policy.name();
    let instructions = flags.get_u64("instructions", 500_000)?;
    let warmup = flags.get_u64("warmup", 50_000)?;
    // --audit alone reports violations; --audit strict also fails the
    // run. Parsed up front so a typo surfaces before the simulation.
    let audit = match (flags.has("audit"), flags.get("audit")) {
        (false, _) => None,
        (true, None) => Some(false),
        (true, Some("strict")) => Some(true),
        (true, Some(other)) => return Err(format!("--audit accepts only `strict`, got `{other}`")),
    };

    // Capture once, replay: same records as live emulation (pinned by
    // the capture tests) — the same path the bench sweep executor uses.
    let trace = capture(&flags, warmup, instructions)?;
    let workload_name = trace.name().to_string();

    // Pre-decode once, then simulate off the compiled table: identical
    // results to plain replay, cheaper per instruction. Without --audit
    // or --csv the run keeps the zero-cost `NullObserver` loop.
    let stream = trace.compile().replay();
    let steering = SteeringKind::default();
    let timeline = flags.has("csv").then(|| Timeline::new(1_000, policy.initial_clusters()));
    let wall = std::time::Instant::now();
    let (s, ended_in_warmup, auditor, timeline) = match (audit, timeline) {
        (None, None) => drive(cfg, stream, policy, steering, NullObserver, warmup, instructions)
            .map(|run| (run.stats, run.ended_in_warmup, None, None)),
        (None, Some(t)) => drive(cfg, stream, policy, steering, t, warmup, instructions)
            .map(|run| (run.stats, run.ended_in_warmup, None, Some(run.observer))),
        (Some(_), None) => {
            drive(cfg, stream, policy, steering, AuditObserver::new(), warmup, instructions)
                .map(|run| (run.stats, run.ended_in_warmup, Some(run.observer), None))
        }
        (Some(_), Some(t)) => {
            let observer = (AuditObserver::new(), t);
            drive(cfg, stream, policy, steering, observer, warmup, instructions).map(|run| {
                let (auditor, timeline) = run.observer;
                (run.stats, run.ended_in_warmup, Some(auditor), Some(timeline))
            })
        }
    }
    .map_err(|e| e.to_string())?;
    if let Some(committed) = ended_in_warmup {
        return Err(format!(
            "program ended after {committed} instructions, inside the \
             {warmup}-instruction warm-up; rerun with a smaller --warmup"
        ));
    }
    if let Some(auditor) = auditor.as_ref().filter(|a| !a.is_clean()) {
        for v in auditor.violations() {
            eprintln!("audit violation: {v}");
        }
        if audit == Some(true) {
            return Err(format!(
                "audit: {} violation(s) across {} checks",
                auditor.violations().len(),
                auditor.checks_run()
            ));
        }
    }
    let audit_doc = auditor.map(|a| a.to_json());
    // Only --json and --ledger store the provenance, so only they pay
    // for hashing the trace.
    let prov = (flags.has("json") || flags.has("ledger")).then(|| {
        Provenance::new(
            workload_name.as_str(),
            Some(trace.checksum()),
            cfg.digest(),
            policy_name.as_str(),
        )
        .with_wall_seconds(wall.elapsed().as_secs_f64())
    });

    if let Some(prov) = prov.as_ref().filter(|_| flags.has("json")) {
        // Run metadata first, then every counter and derived rate from
        // the exhaustive SimStats export; the whole document rides in
        // the {schema_version, provenance, data} envelope shared by
        // every exported artifact.
        let mut doc = Json::object()
            .set("workload", workload_name.as_str())
            .set("policy", policy_name.as_str())
            .set("warmup", warmup);
        if let Json::Obj(fields) = s.to_json() {
            for (key, value) in fields {
                doc = doc.set(&key, value);
            }
        }
        if flags.has("energy") {
            let e = estimate_energy(&s, &EnergyParams::default());
            doc = doc.set(
                "energy",
                Json::object()
                    .set("total", e.total())
                    .set("active_leakage", e.active_leakage)
                    .set("idle_leakage", e.idle_leakage)
                    .set("dynamic", e.dynamic)
                    .set("per_instruction", e.per_instruction(&s)),
            );
        }
        if let Some(a) = &audit_doc {
            doc = doc.set("audit", a.clone());
        }
        println!("{}", envelope(prov, doc).to_string_pretty());
    } else {
        println!("workload            {workload_name}");
        println!("policy              {policy_name}");
        println!("instructions        {}", s.committed);
        println!("cycles              {}", s.cycles);
        println!("IPC                 {:.3}", s.ipc());
        println!("mean active clusters {:.1}", s.avg_active_clusters());
        println!("reconfigurations    {}", s.reconfigurations);
        println!(
            "branch mispredicts  {} (1 per {:.0} instructions)",
            s.mispredicts,
            s.mispredict_interval()
        );
        println!("L1 hit rate         {:.1}%", 100.0 * s.l1_hit_rate());
        println!("register transfers  {} ({:.2} hops avg)", s.reg_transfers, s.avg_transfer_hops());
        println!(
            "distant-ILP issues  {:.1}%",
            100.0 * s.distant_issues as f64 / s.committed.max(1) as f64
        );
        if let Some(a) = &audit_doc {
            let checks = a.get("checks_run").and_then(Json::as_u64).unwrap_or(0);
            let violations = a.get("violations").and_then(Json::as_arr).map_or(0, <[Json]>::len);
            println!(
                "audit               {} ({checks} checks, {violations} violations)",
                if violations == 0 { "clean" } else { "VIOLATED" }
            );
        }
    }
    if let (Some(path), Some(timeline)) = (flags.get("csv"), timeline.as_ref()) {
        let mut csv = String::from("committed,cycles,ipc,branches,memrefs,clusters\n");
        // Match the printed statistics: intervals entirely inside the
        // warm-up are discarded.
        for entry in timeline.entries().iter().filter(|e| e.committed > warmup) {
            csv.push_str(&format!(
                "{},{},{:.4},{},{},{}\n",
                entry.committed,
                entry.record.cycles,
                entry.record.ipc(),
                entry.record.branches,
                entry.record.memrefs,
                entry.clusters
            ));
        }
        std::fs::write(path, csv).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        if !flags.has("json") {
            println!("timeline            {path} ({} intervals)", timeline.entries().len());
        }
    }
    if flags.has("energy") && !flags.has("json") {
        let e = estimate_energy(&s, &EnergyParams::default());
        println!(
            "energy              {:.0} (leakage {:.0} + dynamic {:.0}), {:.3}/instr",
            e.total(),
            e.active_leakage + e.idle_leakage,
            e.dynamic,
            e.per_instruction(&s)
        );
    }
    if let Some(prov) = prov.filter(|_| flags.has("ledger")) {
        let path = PathBuf::from(flags.get("ledger").unwrap_or(DEFAULT_LEDGER_PATH));
        let entry = LedgerEntry {
            provenance: prov,
            metrics: Json::object()
                .set("ipc", s.ipc())
                .set("cycles", s.cycles)
                .set("committed", s.committed),
        };
        append_entry(&path, &entry)
            .map_err(|e| format!("cannot append to ledger `{}`: {e}", path.display()))?;
        if !flags.has("json") {
            println!("ledger              {} (run {})", path.display(), entry.provenance.run_id);
        }
    }
    Ok(())
}

const TRACE_FLAGS: &[&str] = &[
    "workload",
    "program",
    "policy",
    "clusters",
    "instructions",
    "warmup",
    "interval",
    "decentralized",
    "grid",
    "monolithic",
    "out",
    "events",
];

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, TRACE_FLAGS)?;
    let cfg = build_config(&flags)?;
    let policy = build_policy(&flags, &cfg)?;
    let policy_name = policy.name();
    let instructions = flags.get_u64("instructions", 500_000)?;
    let warmup = flags.get_u64("warmup", 50_000)?;
    let interval = flags.get_u64("interval", 1_000)?;
    if interval == 0 {
        return Err("--interval must be non-zero".into());
    }
    let out_path = flags.get("out").unwrap_or("trace.json");

    // Unlike `run`, the trace covers the whole execution including the
    // warm-up: a timeline with a hole at the start is more confusing
    // than one marked from cycle 0.
    let timeline = Timeline::new(interval, policy.initial_clusters());
    let captured = capture(&flags, warmup, instructions)?;
    let stream = captured.compile().replay();
    let observer = ((ReconfigLog::new(), DecisionTrace::new()), timeline);
    let steering = SteeringKind::default();
    let run = drive(cfg, stream, policy, steering, observer, 0, warmup + instructions)
        .map_err(|e| e.to_string())?;
    let (s, ((log, decisions), timeline)) = (run.stats, run.observer);

    let (dropped_reconfigs, dropped_decisions) = (log.dropped_reconfigs(), decisions.dropped());
    if dropped_reconfigs + dropped_decisions > 0 {
        println!(
            "warning: {dropped_reconfigs} reconfiguration and {dropped_decisions} decision \
             records were dropped past the event cap; the trace is truncated"
        );
    }
    let trace = chrome_trace(&log, decisions.decisions(), &s);
    let events = trace.as_arr().map_or(0, <[Json]>::len);
    std::fs::write(out_path, trace.to_string_pretty())
        .map_err(|e| format!("cannot write `{out_path}`: {e}"))?;

    println!("workload            {}", captured.name());
    println!("policy              {policy_name}");
    println!("instructions        {}", s.committed);
    println!("cycles              {}", s.cycles);
    println!("IPC                 {:.3}", s.ipc());
    println!("reconfigurations    {}", s.reconfigurations);
    println!("trace               {out_path} ({events} events)");
    if let Some(events_path) = flags.get("events") {
        let jsonl = timeline_jsonl(timeline.entries());
        std::fs::write(events_path, jsonl)
            .map_err(|e| format!("cannot write `{events_path}`: {e}"))?;
        println!("events              {events_path} ({} intervals)", timeline.entries().len());
    }
    Ok(())
}

const EXPLAIN_FLAGS: &[&str] = &[
    "workload",
    "program",
    "policy",
    "clusters",
    "instructions",
    "warmup",
    "decentralized",
    "grid",
    "monolithic",
    "decisions",
    "limit",
    "decision-cap",
];

/// Per-state commit attribution: each decision's state owns the span
/// of commits since the previous decision; the tail after the last
/// decision stays with the last state.
fn commits_per_state(
    decisions: &[DecisionRecord],
    total_committed: u64,
) -> Vec<(PolicyState, u64)> {
    let mut spans: Vec<(PolicyState, u64)> = Vec::new();
    let mut add = |state: PolicyState, commits: u64| {
        if commits == 0 {
            return;
        }
        match spans.iter_mut().find(|(s, _)| *s == state) {
            Some((_, n)) => *n += commits,
            None => spans.push((state, commits)),
        }
    };
    let mut prev = 0u64;
    for d in decisions {
        add(d.state, d.commit.saturating_sub(prev));
        prev = prev.max(d.commit);
    }
    if let Some(last) = decisions.last() {
        add(last.state, total_committed.saturating_sub(prev.min(total_committed)));
    }
    spans.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    spans
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, EXPLAIN_FLAGS)?;
    let cfg = build_config(&flags)?;
    let policy = build_policy(&flags, &cfg)?;
    let policy_name = policy.name();
    let instructions = flags.get_u64("instructions", 500_000)?;
    let warmup = flags.get_u64("warmup", 50_000)?;
    let limit = flags.get_u64("limit", 40)? as usize;
    let cap = flags.get_u64("decision-cap", DEFAULT_EVENT_CAP as u64)? as usize;
    if cap == 0 {
        return Err("--decision-cap must be non-zero".into());
    }

    // Like `trace`, the timeline covers the whole execution including
    // the warm-up: policy decisions start at cycle 0 and a timeline
    // with a hole at the front is more confusing than a marked one.
    let trace = capture(&flags, warmup, instructions)?;
    let stream = trace.compile().replay();
    let (steering, observer) = (SteeringKind::default(), DecisionTrace::with_cap(cap));
    let run = drive(cfg, stream, policy, steering, observer, 0, warmup + instructions)
        .map_err(|e| e.to_string())?;
    let s = run.stats;
    let (decisions, dropped) = run.observer.into_decisions();
    if dropped > 0 {
        println!(
            "warning: {dropped} decision records dropped past the {cap}-record cap; \
             the timeline and summary below undercount (raise --decision-cap)"
        );
    }

    println!("workload            {}", trace.name());
    println!("policy              {policy_name}");
    println!("instructions        {} ({} warm-up included)", s.committed, warmup);
    println!("cycles              {}", s.cycles);
    println!("IPC                 {:.3}", s.ipc());
    println!();

    if decisions.is_empty() {
        println!("decision timeline: empty — no decision points inside this run");
        println!("(checkpoint policies record every 10k commits; try more --instructions)");
        println!("\nsummary: 0 decisions, {} reconfigurations", s.reconfigurations);
        return Ok(());
    }

    let shown = decisions.len().min(limit.max(1));
    println!("decision timeline ({shown} of {} decisions):", decisions.len());
    println!(
        "{:>6} {:>10} {:>11} {:>8} {:>4}  {:<12} {:>6} {:>7}  reason",
        "ivl", "commit", "cycle", "len", "clu", "state", "ipc", "instab"
    );
    for d in &decisions[..shown] {
        println!(
            "{:>6} {:>10} {:>11} {:>8} {:>4}  {:<12} {:>6.3} {:>7.1}  {}",
            d.interval,
            d.commit,
            d.cycle,
            d.interval_length,
            d.clusters,
            d.state.as_str(),
            d.ipc,
            d.instability,
            d.reason.as_str()
        );
    }
    if shown < decisions.len() {
        println!("… {} more decisions (raise --limit)", decisions.len() - shown);
    }

    println!("\nsummary:");
    println!(
        "  decisions           {}{}",
        decisions.len(),
        if dropped > 0 { format!(" (+{dropped} dropped past the cap)") } else { String::new() }
    );
    for (state, commits) in commits_per_state(&decisions, s.committed) {
        println!(
            "  {:<19} {:>5.1}% of commits",
            state.as_str(),
            100.0 * commits as f64 / s.committed.max(1) as f64
        );
    }
    println!(
        "  reconfigurations    {} ({:.2} per 10k commits)",
        s.reconfigurations,
        s.reconfigurations as f64 * 10_000.0 / s.committed.max(1) as f64
    );
    let mut lengths = std::collections::BTreeMap::new();
    for d in &decisions {
        *lengths.entry(d.interval_length).or_insert(0usize) += 1;
    }
    let hist: Vec<String> = lengths.iter().map(|(len, n)| format!("{len}\u{00d7}{n}")).collect();
    println!("  interval lengths    {}", hist.join("  "));
    if let Some(d) = decisions.iter().find(|d| d.reason == DecisionReason::Discontinued) {
        println!(
            "  discontinued        at interval {} (commit {}): pinned to {} clusters",
            d.interval, d.commit, d.clusters
        );
    }

    if let Some(path) = flags.get("decisions") {
        let prov = Provenance::new(
            trace.name(),
            Some(trace.checksum()),
            cfg.digest(),
            policy_name.as_str(),
        );
        std::fs::write(path, decisions_document(&prov, &decisions))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("  trace               {path} ({} lines)", decisions.len() + 1);
    }
    Ok(())
}

/// `clustered diff A.json B.json [--threshold X] [--json]`: align two
/// exported artifacts by their provenance blocks and compare every
/// numeric counter. The command reports — it never fails on drift (the
/// verdict is in the output for callers to gate on); only unreadable
/// or malformed inputs are errors.
fn cmd_diff(args: &[String]) -> Result<(), String> {
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" if json => return Err("--json given more than once".into()),
            "--threshold" if threshold.is_some() => {
                return Err("--threshold given more than once".into())
            }
            "--json" => json = true,
            "--threshold" => {
                let v = it.next().ok_or("--threshold expects a number")?;
                let t: f64 =
                    v.parse().map_err(|_| format!("--threshold expects a number, got `{v}`"))?;
                if t.is_nan() || t < 0.0 {
                    return Err(format!("--threshold must be >= 0, got `{v}`"));
                }
                threshold = Some(t);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"))
            }
            path => paths.push(path),
        }
    }
    let [a, b] = paths[..] else {
        return Err("usage: clustered diff A.json B.json [--threshold X] [--json]".into());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        clustered::stats::json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
    };
    let report = diff_docs(&read(a)?, &read(b)?, threshold.unwrap_or(DEFAULT_DIFF_THRESHOLD));
    if json {
        println!("{}", report.to_json().to_string_pretty());
    } else {
        println!("a: {a}\nb: {b}");
        print!("{}", report.render());
    }
    Ok(())
}

const REPORT_FLAGS: &[&str] = &["ledger", "json"];

/// `clustered report [--ledger FILE] [--json]`: aggregate the run
/// ledger into a per-workload × policy table of headline metrics.
fn cmd_report(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, REPORT_FLAGS)?;
    let path = PathBuf::from(flags.get("ledger").unwrap_or(DEFAULT_LEDGER_PATH));
    if !path.exists() {
        return Err(format!(
            "no ledger at `{}`; register runs with `clustered run --ledger`",
            path.display()
        ));
    }
    let (entries, skipped) =
        read_ledger(&path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let report = LedgerReport::build(&entries, skipped);
    if flags.has("json") {
        println!("{}", report.to_json().to_string_pretty());
    } else {
        println!("ledger: {} ({} runs)", path.display(), entries.len());
        if skipped > 0 {
            println!("warning: {skipped} malformed line(s) skipped");
        }
        print!("{}", report.render());
    }
    Ok(())
}

const PERF_FLAGS: &[&str] = &[
    "workload",
    "program",
    "policy",
    "clusters",
    "instructions",
    "warmup",
    "decentralized",
    "grid",
    "monolithic",
    "sample-interval",
    "out",
    "json",
];

fn cmd_perf(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, PERF_FLAGS)?;
    let cfg = build_config(&flags)?;
    let policy = build_policy(&flags, &cfg)?;
    let policy_name = policy.name();
    let instructions = flags.get_u64("instructions", 500_000)?;
    let warmup = flags.get_u64("warmup", 50_000)?;
    let sample_interval = flags.get_u64("sample-interval", DEFAULT_SAMPLE_INTERVAL)?;
    if sample_interval == 0 {
        return Err("--sample-interval must be non-zero".into());
    }

    let trace = capture(&flags, warmup, instructions)?;
    let label = format!("{} ({policy_name})", trace.name());
    // The profiler resets when the measured window starts, so shares
    // and throughput describe the measured window only.
    let stream = trace.compile().replay();
    let profiler = HostProfiler::new(sample_interval);
    let run = drive(cfg, stream, policy, SteeringKind::default(), profiler, warmup, instructions)
        .map_err(|e| e.to_string())?;
    let (s, p, wall_seconds) = (run.stats, &run.observer, run.measure_seconds);

    let trace_events = match flags.get("out") {
        Some(path) => {
            let doc = host_chrome_trace(p, &label);
            let events = doc.as_arr().map_or(0, <[Json]>::len);
            std::fs::write(path, doc.to_string_pretty())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            Some((path, events))
        }
        None => None,
    };

    if flags.has("json") {
        let prov = Provenance::new(
            trace.name(),
            Some(trace.checksum()),
            cfg.digest(),
            policy_name.as_str(),
        )
        .with_wall_seconds(wall_seconds);
        println!(
            "{}",
            envelope(&prov, host_profile_json(p, &label, wall_seconds)).to_string_pretty()
        );
        return Ok(());
    }

    println!("workload            {}", trace.name());
    println!("policy              {policy_name}");
    println!("sim cycles          {}", p.cycles());
    println!("IPC                 {:.3}", s.ipc());
    println!("wall time           {wall_seconds:.3} s");
    println!(
        "sim cycles/sec      {:.0}",
        if wall_seconds > 0.0 { p.cycles() as f64 / wall_seconds } else { 0.0 }
    );
    println!("host loop time      {:.3} s, by stage:", p.loop_nanos() as f64 / 1e9);
    for stage in HostStage::ALL {
        println!("  {:<17} {:>5.1}%", stage.as_str(), 100.0 * p.stage_share(stage));
    }
    println!(
        "drained events      {} (max/mean cluster skew {:.2})",
        p.drained_total(),
        p.drained_skew()
    );
    println!("fully quiescent     {} of {} cycles", p.fully_quiescent_cycles(), p.cycles());
    println!("profile slices      {} ({} dropped)", p.slices().len(), p.dropped_slices());
    if let Some((path, events)) = trace_events {
        println!("trace               {path} ({events} events)");
    }
    Ok(())
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    let [path] = args else { return Err("usage: clustered asm FILE.s".into()) };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let program = isa::assemble(&source).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{}: {} instructions, {} data bytes, entry at {}",
        path,
        program.text().len(),
        program.data().len(),
        program.entry()
    );
    // Quick functional smoke test so users catch runaway programs.
    let mut machine = emu::Machine::new(program.clone());
    machine.run_to_halt(1_000_000).map_err(|e| format!("execution fault: {e}"))?;
    if machine.is_halted() {
        println!("halts after {} instructions", machine.instructions_executed());
    } else {
        println!("still running after 1M instructions (endless kernel?)");
    }
    print!("{program}");
    Ok(())
}

fn cmd_workloads() -> Result<(), String> {
    println!("{:<8} {:<12} {:<7} description", "name", "suite", "IPC*");
    for w in workloads::all() {
        let p = w.paper();
        println!(
            "{:<8} {:<12} {:<7.2} {}",
            w.name(),
            p.class.suite_name(),
            p.base_ipc,
            w.description()
        );
    }
    println!("\n* IPC as reported by the paper's Table 3 for the original benchmark.");
    Ok(())
}

fn cmd_phases(args: &[String]) -> Result<(), String> {
    let flags =
        Flags::parse(args, &["workload", "program", "instructions", "warmup", "base-interval"])?;
    let instructions = flags.get_u64("instructions", 500_000)?;
    let warmup = flags.get_u64("warmup", 50_000)?;
    let base = flags.get_u64("base-interval", 1_000)?;
    if base == 0 {
        return Err("--base-interval must be non-zero".into());
    }
    let trace = capture(&flags, warmup, instructions)?;
    let stream = trace.compile().replay();
    let (cfg, steering, policy) =
        (SimConfig::default(), SteeringKind::default(), Box::new(FixedPolicy::new(16)));
    let timeline = Timeline::new(base, policy.initial_clusters());
    let records = drive(cfg, stream, policy, steering, timeline, 0, warmup + instructions)
        .map_err(|e| e.to_string())?
        .observer
        .records();
    // Discard the warm-up portion, as the Table 4 experiment does.
    let skip = ((warmup / base) as usize).min(records.len());
    let records = &records[skip..];
    println!(
        "workload {}: {} base intervals of {base} instructions ({skip} warm-up intervals discarded)",
        trace.name(),
        records.len()
    );
    let mut group = 1;
    while records.len() / group >= 4 {
        if let Some(f) = instability_factor(records, group) {
            println!("interval {:>9}: {f:>5.1}% unstable", base * group as u64);
        }
        group *= 2;
    }
    Ok(())
}
