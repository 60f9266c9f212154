//! End-to-end tests of the `clustered` command-line binary.

use std::process::{Command, Output};

fn clustered(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_clustered")).args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [&["help"][..], &["--help"], &[]] {
        let out = clustered(args);
        assert!(out.status.success());
        assert!(stdout(&out).contains("USAGE"));
    }
}

#[test]
fn workloads_lists_the_suite() {
    let out = clustered(&["workloads"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in clustered::workloads::NAMES {
        assert!(text.contains(name), "missing workload {name}");
    }
}

#[test]
fn run_reports_statistics() {
    let out = clustered(&[
        "run",
        "--workload",
        "gzip",
        "--policy",
        "fixed",
        "--clusters",
        "4",
        "--warmup",
        "2000",
        "--instructions",
        "10000",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("IPC"));
    assert!(text.contains("policy              fixed-4"));
    assert!(text.contains("mean active clusters 4.0"));
}

#[test]
fn run_is_deterministic() {
    let args = ["run", "--workload", "vpr", "--warmup", "2000", "--instructions", "8000"];
    let a = stdout(&clustered(&args));
    let b = stdout(&clustered(&args));
    assert_eq!(a, b, "same command must produce identical statistics");
}

#[test]
fn asm_round_trips_a_program() {
    let dir = std::env::temp_dir().join("clustered_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ok.s");
    std::fs::write(&path, "li r1, 2\nmul r2, r1, r1\nhalt\n").expect("write");
    let out = clustered(&["asm", path.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("3 instructions"));
    assert!(text.contains("halts after 3 instructions"));
    assert!(text.contains("mul r2, r1, r1"));
}

#[test]
fn errors_use_exit_code_two_and_name_the_problem() {
    let cases: &[(&[&str], &str)] = &[
        (&["run", "--workload", "nosuch"], "unknown workload"),
        (&["run", "--workload", "gzip", "--clusters", "99"], "--clusters"),
        (&["run", "--workload", "gzip", "--instructions", "abc"], "--instructions"),
        (&["run", "--policy", "bogus"], "unknown policy"),
        (&["asm", "/nonexistent/path.s"], "cannot read"),
        (&["frobnicate"], "unknown command"),
    ];
    for (args, needle) in cases {
        let out = clustered(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            stderr(&out).contains(needle),
            "args {args:?}: stderr {:?} should mention {needle}",
            stderr(&out)
        );
    }
}

#[test]
fn monolithic_runs_without_explicit_clusters() {
    let out = clustered(&[
        "run",
        "--monolithic",
        "--workload",
        "swim",
        "--warmup",
        "2000",
        "--instructions",
        "10000",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("mean active clusters 1.0"));
}

#[test]
fn unknown_flags_are_rejected() {
    let out = clustered(&["run", "--workload", "gzip", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"));
}

#[test]
fn csv_timeline_excludes_warmup_intervals() {
    let dir = std::env::temp_dir().join("clustered_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("timeline.csv");
    let out = clustered(&[
        "run",
        "--workload",
        "gzip",
        "--policy",
        "fixed",
        "--clusters",
        "8",
        "--warmup",
        "5000",
        "--instructions",
        "10000",
        "--csv",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let csv = std::fs::read_to_string(&path).expect("csv written");
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("committed,cycles,ipc,branches,memrefs,clusters"));
    let first: u64 = lines
        .next()
        .expect("at least one interval")
        .split(',')
        .next()
        .expect("committed column")
        .parse()
        .expect("number");
    assert!(first > 5_000, "warm-up intervals must be excluded, got {first}");
    assert!(csv.trim_end().ends_with(",8"), "clusters column records the fixed policy");
}

#[test]
fn bad_assembly_reports_the_line() {
    let dir = std::env::temp_dir().join("clustered_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad.s");
    std::fs::write(&path, "nop\nfrob r1, r2\n").expect("write");
    let out = clustered(&["asm", path.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("line 2"));
}

#[test]
fn program_ending_in_warmup_is_a_clear_error() {
    let dir = std::env::temp_dir().join("clustered_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("short.s");
    std::fs::write(&path, "nop\nhalt\n").expect("write");
    let program = path.to_str().expect("utf-8 path");
    for verb in [&["run"][..], &["perf"], &["perf", "--json"]] {
        let args: Vec<&str> =
            verb.iter().chain(&["--program", program, "--warmup", "100"]).copied().collect();
        let out = clustered(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stdout {}", stdout(&out));
        assert!(
            stderr(&out).contains("inside the 100-instruction warm-up"),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(stdout(&out).is_empty(), "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn run_json_emits_a_parseable_document() {
    let out = clustered(&[
        "run",
        "--workload",
        "gzip",
        "--policy",
        "explore",
        "--warmup",
        "2000",
        "--instructions",
        "10000",
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let envelope = clustered::stats::json::parse(&stdout(&out))
        .expect("stdout must be exactly one valid JSON document");
    use clustered::stats::Json;
    assert_eq!(envelope.get("schema_version").and_then(Json::as_u64), Some(1));
    let prov = envelope.get("provenance").expect("provenance block");
    let prov = clustered::stats::Provenance::from_json(prov).expect("provenance parses");
    assert_eq!(prov.trace_name, "gzip");
    assert!(prov.trace_checksum.is_some(), "run provenance pins the trace checksum");
    assert!(prov.config_digest != 0, "run provenance pins the config digest");
    let doc = envelope.get("data").expect("payload under `data`");
    assert_eq!(doc.get("workload").and_then(Json::as_str), Some("gzip"));
    let ipc = doc.get("ipc").and_then(Json::as_f64).expect("ipc present");
    assert!(ipc > 0.0);
    let cycles = doc.get("cycles").and_then(Json::as_f64).expect("cycles present");
    assert!(cycles > 0.0);
    let configs = doc
        .get("cycles_at_config")
        .and_then(Json::as_arr)
        .expect("per-config cycle histogram present");
    assert_eq!(configs.len(), 16);
    let config_sum: f64 = configs.iter().filter_map(Json::as_f64).sum();
    assert_eq!(config_sum, cycles, "config cycles partition total cycles");
    let stalls = doc.get("dispatch_stalls").expect("stall attribution present");
    for key in ["fetch", "rob", "resources"] {
        assert!(stalls.get(key).and_then(Json::as_f64).is_some(), "missing stall bucket {key}");
    }
}

#[test]
fn trace_writes_chrome_trace_and_jsonl_events() {
    let dir = std::env::temp_dir().join("clustered_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("trace.json");
    let events_path = dir.join("events.jsonl");
    let out = clustered(&[
        "trace",
        "--workload",
        "gzip",
        "--policy",
        "explore",
        "--warmup",
        "2000",
        "--instructions",
        "30000",
        "--out",
        trace_path.to_str().expect("utf-8 path"),
        "--events",
        events_path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    use clustered::stats::Json;
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
    let trace = clustered::stats::json::parse(&trace_text).expect("trace is valid JSON");
    let events = trace.as_arr().expect("Chrome trace is a JSON array");
    assert!(!events.is_empty());
    for e in events {
        assert!(e.get("ph").and_then(Json::as_str).is_some(), "every event has ph");
        assert!(e.get("ts").and_then(Json::as_f64).is_some(), "every event has ts");
        assert!(e.get("name").and_then(Json::as_str).is_some(), "every event has name");
    }
    assert!(
        events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("X")),
        "at least one configuration span"
    );

    let jsonl = std::fs::read_to_string(&events_path).expect("events written");
    assert!(jsonl.lines().count() >= 10, "30k instructions yield many 1k intervals");
    for line in jsonl.lines() {
        let entry = clustered::stats::json::parse(line).expect("each line is valid JSON");
        assert!(entry.get("ipc").and_then(Json::as_f64).is_some());
        assert!(entry.get("clusters").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn explain_renders_a_timeline_for_every_policy_family() {
    // 25k instructions cross the 10k-commit checkpoint cadence of the
    // fixed and fine-grain policies, so every family has decisions.
    for policy in ["fixed", "explore", "distant", "branch", "subroutine"] {
        let mut args = vec![
            "explain",
            "--workload",
            "gzip",
            "--policy",
            policy,
            "--warmup",
            "2000",
            "--instructions",
            "25000",
        ];
        if policy == "fixed" {
            args.extend(["--clusters", "4"]);
        }
        let out = clustered(&args);
        assert!(out.status.success(), "policy {policy}: stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("decision timeline ("), "policy {policy} must render a timeline");
        assert!(text.contains("summary:"), "policy {policy} must render the summary");
        assert!(text.contains("reconfigurations"), "policy {policy}: {text}");
        assert!(text.contains("interval lengths"), "policy {policy}: {text}");
    }
}

#[test]
fn explain_limit_truncates_and_decisions_flag_dumps_parseable_jsonl() {
    let dir = std::env::temp_dir().join("clustered_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("decisions.jsonl");
    let out = clustered(&[
        "explain",
        "--workload",
        "swim",
        "--policy",
        "distant",
        "--warmup",
        "2000",
        "--instructions",
        "30000",
        "--limit",
        "5",
        "--decisions",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("decision timeline (5 of "), "limit caps the rows: {text}");
    assert!(text.contains("more decisions (raise --limit)"), "{text}");

    use clustered::stats::Json;
    let jsonl = std::fs::read_to_string(&path).expect("decision trace written");
    let mut lines = jsonl.lines();
    let header = clustered::stats::json::parse(lines.next().expect("header line"))
        .expect("header is valid JSON");
    assert_eq!(header.get("event").and_then(Json::as_str), Some("provenance"));
    assert!(
        clustered::stats::Provenance::from_json(header.get("provenance").expect("block")).is_some(),
        "header carries a parseable provenance record"
    );
    assert!(lines.clone().count() > 5, "the dump holds every decision, not just shown rows");
    for line in lines {
        let d = clustered::stats::json::parse(line).expect("each line is valid JSON");
        for key in ["interval", "commit", "cycle", "state", "ipc", "clusters", "reason"] {
            assert!(d.get(key).is_some(), "decision line missing `{key}`: {line}");
        }
        let state = d.get("state").and_then(Json::as_str).expect("state is a string");
        assert!(
            ["exploring", "stable", "discontinued", "cooldown"].contains(&state),
            "unexpected state `{state}`"
        );
    }
}

#[test]
fn explain_warns_when_decision_records_drop() {
    let args = |cap: &'static str| {
        vec![
            "explain",
            "--workload",
            "swim",
            "--policy",
            "distant",
            "--warmup",
            "2000",
            "--instructions",
            "30000",
            "--decision-cap",
            cap,
        ]
    };
    let out = clustered(&args("2"));
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("warning:") && text.contains("dropped past the 2-record cap"),
        "a cap of 2 must force drops and a warning: {text}"
    );
    assert!(text.contains("raise --decision-cap"), "{text}");

    let out = clustered(&args("100000"));
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(!stdout(&out).contains("warning:"), "no warning when every record fits the cap");
}

#[test]
fn perf_writes_host_profile_and_chrome_trace() {
    let dir = std::env::temp_dir().join("clustered_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("host_trace.json");
    let base = [
        "perf",
        "--workload",
        "gzip",
        "--policy",
        "explore",
        "--warmup",
        "2000",
        "--instructions",
        "30000",
        "--sample-interval",
        "5000",
    ];

    let mut args = base.to_vec();
    args.extend(["--out", trace_path.to_str().expect("utf-8 path")]);
    let out = clustered(&args);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("sim cycles/sec"), "{text}");
    assert!(text.contains("event_drain"), "{text}");

    use clustered::stats::Json;
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
    let trace = clustered::stats::json::parse(&trace_text).expect("trace is valid JSON");
    let events = trace.as_arr().expect("Chrome trace is a JSON array");
    assert!(!events.is_empty());
    for e in events {
        assert!(e.get("ph").and_then(Json::as_str).is_some(), "every event has ph");
        assert!(e.get("name").and_then(Json::as_str).is_some(), "every event has name");
    }
    let ph = |kind| events.iter().filter(move |e| e.get("ph").and_then(Json::as_str) == Some(kind));
    assert!(
        ph("X").any(|e| e.get("name").and_then(Json::as_str) == Some("host event_drain")),
        "stage spans present"
    );
    assert!(
        ph("C").any(|e| e.get("name").and_then(Json::as_str) == Some("host calendar events")),
        "queue-depth counter track present"
    );
    assert!(ph("M").next().is_some(), "metadata names the host tracks");

    let mut args = base.to_vec();
    args.push("--json");
    let out = clustered(&args);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let envelope = clustered::stats::json::parse(&stdout(&out))
        .expect("stdout must be exactly one valid JSON document");
    assert!(
        clustered::stats::Provenance::from_json(
            envelope.get("provenance").expect("provenance block")
        )
        .is_some(),
        "host profiles carry provenance"
    );
    let doc = envelope.get("data").expect("payload under `data`");
    assert!(doc.get("sim_cycles").and_then(Json::as_u64).expect("sim_cycles") > 0);
    assert!(doc.get("sim_cycles_per_sec").and_then(Json::as_f64).expect("throughput") > 0.0);
    let stages = doc.get("profile").and_then(|p| p.get("stages")).expect("stage buckets");
    let share_sum: f64 = ["event_drain", "commit", "issue", "dispatch", "fetch", "other"]
        .iter()
        .map(|s| {
            stages
                .get(s)
                .and_then(|b| b.get("share"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing stage bucket {s}"))
        })
        .sum();
    assert!(
        (share_sum - 1.0).abs() < 1e-9,
        "stage shares partition the loop time, got {share_sum}"
    );
}

#[test]
fn run_audit_strict_is_clean_and_surfaces_the_report() {
    let out = clustered(&[
        "run",
        "--workload",
        "gzip",
        "--policy",
        "explore",
        "--warmup",
        "2000",
        "--instructions",
        "10000",
        "--audit",
        "strict",
        "--json",
    ]);
    assert!(out.status.success(), "strict audit must pass: {}", stderr(&out));
    use clustered::stats::Json;
    let envelope = clustered::stats::json::parse(&stdout(&out)).expect("valid JSON");
    let audit = envelope.get("data").and_then(|d| d.get("audit")).expect("audit block");
    assert_eq!(audit.get("clean").and_then(Json::as_bool), Some(true));
    assert!(audit.get("checks_run").and_then(Json::as_u64).expect("checks_run") > 0);
    assert_eq!(audit.get("violations").and_then(Json::as_arr).map(<[Json]>::len), Some(0));

    // Text mode prints the one-line verdict.
    let out = clustered(&[
        "run",
        "--workload",
        "gzip",
        "--warmup",
        "2000",
        "--instructions",
        "10000",
        "--audit",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("audit               clean"), "{}", stdout(&out));
}

#[test]
fn run_audit_rejects_unknown_modes() {
    let out =
        clustered(&["run", "--workload", "gzip", "--instructions", "5000", "--audit", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--audit"), "{}", stderr(&out));
}

/// `clustered diff` on two runs of the same trace + config returns
/// verdict `identical`; against a different policy it reports
/// structured per-counter deltas and verdict `drifted`.
#[test]
fn diff_verdicts_identical_same_config_and_drifted_across_policies() {
    let dir = std::env::temp_dir().join("clustered_cli_diff_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |policy: &[&str], file: &str| {
        let mut args =
            vec!["run", "--workload", "gzip", "--warmup", "2000", "--instructions", "10000"];
        args.extend_from_slice(policy);
        args.push("--json");
        let out = clustered(&args);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        let path = dir.join(file);
        std::fs::write(&path, stdout(&out)).expect("write artifact");
        path
    };
    let a = run(&["--policy", "explore"], "a.json");
    let b = run(&["--policy", "explore"], "b.json");
    let c = run(&["--policy", "fixed", "--clusters", "8"], "c.json");

    use clustered::stats::Json;
    let out = clustered(&["diff", a.to_str().expect("utf-8"), b.to_str().expect("utf-8")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("verdict: identical"), "{}", stdout(&out));
    assert!(stdout(&out).contains("same experiment"), "{}", stdout(&out));

    let out =
        clustered(&["diff", a.to_str().expect("utf-8"), c.to_str().expect("utf-8"), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let doc = clustered::stats::json::parse(&stdout(&out)).expect("valid JSON");
    assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("drifted"));
    let changed = doc.get("changed").and_then(Json::as_arr).expect("changed counters");
    assert!(!changed.is_empty(), "different policies must drift");
    for delta in changed {
        for key in ["path", "a", "b", "abs_delta", "rel_delta"] {
            assert!(delta.get(key).is_some(), "delta missing `{key}`");
        }
    }
    // Both sides' provenance rides in the report.
    let alignment = doc.get("provenance").expect("provenance alignment");
    for side in ["a", "b"] {
        assert!(
            clustered::stats::Provenance::from_json(alignment.get(side).expect("side")).is_some(),
            "side {side} provenance parses"
        );
    }
}

#[test]
fn diff_requires_two_readable_artifacts() {
    let out = clustered(&["diff", "/nonexistent/a.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage: clustered diff"), "{}", stderr(&out));
    let out = clustered(&["diff", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
    // A 50 000-deep array is rejected at the parser's depth cap, not
    // by overflowing the stack.
    let dir = std::env::temp_dir().join("clustered_cli_diff_depth_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(50_000)).expect("write deep file");
    let deep = deep.to_str().expect("utf-8");
    let out = clustered(&["diff", deep, deep]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("nesting deeper than 128 levels"), "{}", stderr(&out));
}

/// `run --ledger` appends provenance + headline metrics; `report`
/// aggregates them per workload × policy.
#[test]
fn ledger_registers_runs_and_report_aggregates_them() {
    let dir = std::env::temp_dir().join("clustered_cli_ledger_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ledger = dir.join("ledger.jsonl");
    let ledger_str = ledger.to_str().expect("utf-8");
    for policy in [&["--policy", "explore"][..], &["--policy", "fixed", "--clusters", "4"]] {
        let mut args =
            vec!["run", "--workload", "gzip", "--warmup", "2000", "--instructions", "10000"];
        args.extend_from_slice(policy);
        args.extend(["--ledger", ledger_str]);
        let out = clustered(&args);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        assert!(stdout(&out).contains("ledger              "), "{}", stdout(&out));
    }

    use clustered::stats::Json;
    let text = std::fs::read_to_string(&ledger).expect("ledger written");
    assert_eq!(text.lines().count(), 2, "one line per registered run");
    for line in text.lines() {
        let entry = clustered::stats::json::parse(line).expect("each line is valid JSON");
        assert!(entry.get("provenance").is_some() && entry.get("metrics").is_some());
    }

    let out = clustered(&["report", "--ledger", ledger_str]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("gzip"), "{text}");
    assert!(text.contains("fixed-4"), "{text}");

    let out = clustered(&["report", "--ledger", ledger_str, "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let doc = clustered::stats::json::parse(&stdout(&out)).expect("valid JSON");
    assert_eq!(doc.get("entries").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("skipped_lines").and_then(Json::as_u64), Some(0));
    let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len(), 2, "two distinct workload × policy groups");
}

#[test]
fn report_without_a_ledger_is_a_clear_error() {
    let out = clustered(&["report", "--ledger", "/nonexistent/ledger.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("no ledger at"), "{}", stderr(&out));
}

#[test]
fn phases_reports_interval_stability() {
    let out = clustered(&["phases", "--workload", "swim", "--instructions", "60000"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("base intervals"));
    assert!(text.contains("unstable"));
}

/// A user program that faults is an `error:` line and exit 2 from
/// every simulating verb, never a panic.
#[test]
fn faulting_program_is_an_error_in_every_verb() {
    let dir = std::env::temp_dir().join("clustered_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("wild.s");
    std::fs::write(&path, "li r1, 100000000000\njr r1\n").expect("write");
    let program = path.to_str().expect("utf-8 path");
    let out_json = dir.join("wild_trace.json");
    let out_json = out_json.to_str().expect("utf-8 path");
    let window = ["--program", program, "--warmup", "0", "--instructions", "1000"];
    let verbs = [&["run"][..], &["trace", "--out", out_json], &["explain"], &["perf"], &["phases"]];
    for verb in verbs {
        let args: Vec<&str> = verb.iter().chain(&window).copied().collect();
        let out = clustered(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {}", stderr(&out));
        assert!(stderr(&out).starts_with("error: "), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("faulted"), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn phases_rejects_a_zero_base_interval() {
    let out = clustered(&["phases", "--workload", "gzip", "--base-interval", "0"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--base-interval must be non-zero"), "{}", stderr(&out));
}

/// A value flag without its value, or a switch given one, is an error
/// naming the flag rather than a silent default.
#[test]
fn flags_without_values_and_switches_with_values_are_rejected() {
    let cases: &[(&[&str], &str)] = &[
        (&["run", "--workload", "--instructions", "2000"], "--workload expects a value"),
        (&["run", "--instructions", "--warmup", "200"], "--instructions expects a value"),
        (&["run", "--workload", "gzip", "--instructions"], "--instructions expects a value"),
        (&["run", "--decentralized", "swim"], "--decentralized takes no value, got `swim`"),
        (&["perf", "--json", "x"], "--json takes no value"),
        (&["phases", "--base-interval"], "--base-interval expects a value"),
    ];
    for (args, needle) in cases {
        let out = clustered(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(stderr(&out).contains(needle), "args {args:?}: {}", stderr(&out));
    }
    // --audit and --ledger keep their optional value.
    let out = clustered(&["run", "--warmup", "0", "--instructions", "2000", "--audit", "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

/// A flag given twice is an error naming it, not a silent pick of one
/// of its two values.
#[test]
fn repeated_flags_are_rejected() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["run", "--warmup", "0", "--instructions", "100", "--instructions", "3000", "--json"],
            "--instructions given more than once",
        ),
        (&["run", "--workload", "gzip", "--workload", "swim"], "--workload given more than once"),
        (&["perf", "--json", "--json"], "--json given more than once"),
        (&["diff", "a.json", "b.json", "--json", "--json"], "--json given more than once"),
        (
            &["diff", "a.json", "b.json", "--threshold", "1", "--threshold", "2"],
            "--threshold given more than once",
        ),
    ];
    for (args, needle) in cases {
        let out = clustered(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(stderr(&out).contains(needle), "args {args:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "args {args:?}: {}", stdout(&out));
    }
}

/// The on-disk trace commands are gone: each is rejected before any
/// simulation runs.
#[test]
fn removed_trace_file_commands_are_rejected() {
    // Spelled in pieces so the removed flag's name appears nowhere else
    // in the tree.
    let from_trace = concat!("--from", "-trace");
    for args in [
        &["trace", "save", "--workload", "gzip", "--instructions", "1000"][..],
        &["trace", "info", "gzip.trace"],
        &["run", from_trace, "gzip.trace"],
    ] {
        let out = clustered(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(stderr(&out).starts_with("error: "), "args {args:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "args {args:?}: {}", stdout(&out));
    }
}
