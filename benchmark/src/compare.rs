//! `benchmark compare A B`: one row per workload × end-to-end metric
//! with a verdict, the mechanical check that two sets of runs agree.
//!
//! A side is a run document written by `--json` (trace-0 runs) or a
//! directory of them; documents of traced runs are skipped.

use crate::metrics::END_TO_END;
use crate::summary::{median, regression, relative_iqr, verdict, Verdict};
use clustered_stats::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Per-workload end-to-end samples of one side, keyed by workload then
/// metric.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Runs the comparison; `Ok(true)` when some row is worse.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare <A.json|A-dir> <B.json|B-dir>".into());
    };
    let (left, right) = (load(Path::new(a))?, load(Path::new(b))?);
    println!(
        "{:<16} {:<18} {:>22} {:>22} {:>9} {:>6}  verdict",
        "workload", "metric", "A median (iqr)", "B median (iqr)", "worse by", "bound"
    );
    let mut any_worse = false;
    for w in crate::suite::WORKLOADS {
        let (Some(ma), Some(mb)) = (left.get(w.name), right.get(w.name)) else {
            continue;
        };
        for m in END_TO_END {
            let (Some(sa), Some(sb)) = (ma.get(m.name), mb.get(m.name)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let v = verdict(sa, sb, m.better, bound);
            any_worse |= v == Verdict::Worse;
            let side = |s: &[f64]| format!("{:.4} ({:.1}%)", median(s), 100.0 * relative_iqr(s));
            println!(
                "{:<16} {:<18} {:>22} {:>22} {:>+8.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                side(sa),
                side(sb),
                100.0 * regression(sa, sb, m.better),
                100.0 * bound,
                v.as_str()
            );
        }
    }
    Ok(any_worse)
}

/// Loads one side: a run document or a directory of them.
fn load(path: &Path) -> Result<Side, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry
                .map_err(|e| format!("{}: {e}", path.display()))?
                .path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut side = Side::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc =
            clustered_stats::json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let data = doc.get("data").unwrap_or(&doc);
        if data.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = data
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", file.display()))?;
        let metrics = samples(data);
        if side.insert(workload.to_string(), metrics).is_some() {
            return Err(format!(
                "{}: a second run of {workload} on one side",
                file.display()
            ));
        }
    }
    if side.is_empty() {
        return Err(format!("{}: no untraced run documents", path.display()));
    }
    Ok(side)
}

/// Each metric's samples (its per-repetition values), falling back to
/// the reported value.
fn samples(data: &Json) -> BTreeMap<String, Vec<f64>> {
    let mut out = BTreeMap::new();
    for m in END_TO_END {
        let Some(entry) = data.get("metrics").and_then(|ms| ms.get(m.name)) else {
            continue;
        };
        let listed: Vec<f64> = entry
            .get("samples")
            .and_then(Json::as_arr)
            .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        let values = if listed.is_empty() {
            entry
                .get("value")
                .and_then(Json::as_f64)
                .into_iter()
                .collect()
        } else {
            listed
        };
        out.insert(m.name.to_string(), values);
    }
    out
}
