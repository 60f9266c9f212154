//! The experiment registry end to end at a tiny window: the rendered
//! text must not depend on the sweep worker count, `all` must be the
//! concatenation of the single-experiment outputs, and every `--json`
//! document must keep its top-level keys.

use clustered_bench::experiments::{cli, Settings, Window, EXPERIMENTS};
use clustered_stats::Json;
use std::path::{Path, PathBuf};

const WINDOW: Window = Window { warmup: 500, measure: 2_000 };

fn run(args: &[&str], jobs: usize, results_dir: &Path) -> String {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let settings = Settings { window: WINDOW, jobs, results_dir: results_dir.to_path_buf() };
    let mut out = Vec::new();
    cli(&args, &settings, &mut out).unwrap_or_else(|e| panic!("{args:?}: {e:?}"));
    String::from_utf8(out).expect("utf-8 output")
}

fn keys(doc: &Json) -> Vec<&str> {
    doc.keys().expect("a JSON object")
}

#[test]
fn registry_output_is_worker_independent_and_all_concatenates() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("experiments-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let serial = run(&["all", "--json"], 1, &dir);
    let parallel = run(&["all", "--json"], 2, &dir);
    assert_eq!(serial, parallel, "rendered text depends on the worker count");
    let singles: String = EXPERIMENTS.iter().map(|e| run(&[e.name, "--json"], 2, &dir)).collect();
    assert_eq!(serial, singles, "`all` is not the concatenation of the single experiments");

    let measured = ["figure", "measure_instructions", "warmup_instructions"];
    let documents: [(&str, &[&str]); 7] = [
        ("tables", &["figure", "table1", "table2"]),
        ("table3", &["workloads"]),
        ("fig3", &["cluster_counts", "workloads", "geomean_by_clusters"]),
        ("sensitivity", &["variants"]),
        ("ablation", &["sections"]),
        ("energy", &["workloads", "mean_disabled_clusters"]),
        ("multithread", &["pairings"]),
    ];
    for e in &EXPERIMENTS {
        let path = dir.join(format!("{}.json", e.name));
        let Some((_, data_keys)) = documents.iter().find(|(name, _)| *name == e.name) else {
            assert!(!path.exists(), "{} writes a JSON document it never had", e.name);
            continue;
        };
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let doc = clustered_stats::json::parse(&text).expect("parseable document");
        assert_eq!(keys(&doc), ["schema_version", "provenance", "data"], "{} envelope", e.name);
        let expected: Vec<&str> = if e.name == "tables" {
            data_keys.to_vec()
        } else {
            measured.iter().chain(data_keys.iter()).copied().collect()
        };
        assert_eq!(keys(doc.get("data").unwrap()), expected, "{} data keys", e.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
