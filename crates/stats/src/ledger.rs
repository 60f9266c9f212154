//! The run ledger: an append-only JSONL registry of completed runs.
//!
//! Every run that produces an artifact appends one line to the ledger
//! — its [`Provenance`] plus a flat object of headline metrics — so
//! the question "what have I actually run, under which configuration,
//! and what did it score?" has a machine-readable answer that survives
//! artifact files being overwritten. `clustered report` aggregates the
//! ledger into a per-workload × policy comparison table.
//!
//! The format is deliberately line-oriented and append-only: a crashed
//! run leaves at most one truncated final line, which the reader skips
//! (and counts) rather than failing the whole file.

use crate::json::{self, Json};
use crate::provenance::Provenance;
use crate::table::Table;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;

/// Where runs are registered unless the caller overrides it.
pub const DEFAULT_LEDGER_PATH: &str = "results/ledger.jsonl";

/// One registered run: who ran (provenance) and what it scored
/// (headline metrics — a flat object, typically `ipc`, `cycles`,
/// `committed`).
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Full provenance of the run.
    pub provenance: Provenance,
    /// Headline metrics, a flat JSON object.
    pub metrics: Json,
}

impl LedgerEntry {
    /// The entry as one JSON object (one ledger line).
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("provenance", self.provenance.to_json())
            .set("metrics", self.metrics.clone())
    }

    /// Parses one ledger line's object; `None` if the shape is wrong.
    pub fn from_json(doc: &Json) -> Option<LedgerEntry> {
        let provenance = Provenance::from_json(doc.get("provenance")?)?;
        let metrics = doc.get("metrics")?.clone();
        matches!(metrics, Json::Obj(_)).then_some(LedgerEntry { provenance, metrics })
    }
}

/// Appends `entry` as one compact JSON line to the ledger at `path`,
/// creating the file (and its parent directory) on first use.
///
/// # Errors
///
/// Any I/O error from creating the directory or writing the line.
pub fn append_entry(path: &Path, entry: &LedgerEntry) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut line = entry.to_json().to_string_compact();
    line.push('\n');
    file.write_all(line.as_bytes())
}

/// Reads every parseable entry from the ledger at `path`, in file
/// order. Returns the entries and the number of malformed lines
/// skipped (a crashed writer leaves at most one truncated tail line;
/// anything more suggests the file is not a ledger).
///
/// # Errors
///
/// Any I/O error from reading the file. A missing file is an error —
/// callers distinguishing "no ledger yet" should check existence.
pub fn read_ledger(path: &Path) -> io::Result<(Vec<LedgerEntry>, usize)> {
    let text = std::fs::read_to_string(path)?;
    let mut entries = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match json::parse(line).ok().as_ref().and_then(LedgerEntry::from_json) {
            Some(e) => entries.push(e),
            None => skipped += 1,
        }
    }
    Ok((entries, skipped))
}

/// One row of the aggregated ledger report: all runs of `workload`
/// under `policy`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Trace name shared by the runs.
    pub workload: String,
    /// Policy identifier shared by the runs.
    pub policy: String,
    /// How many ledger entries aggregated into this row.
    pub runs: usize,
    /// Distinct configuration digests among them (>1 means the rows
    /// mix configurations and the mean should be read with care).
    pub configs: usize,
    /// Mean / min / max of the `ipc` metric over the runs (0.0 when
    /// the metric is absent).
    pub mean_ipc: f64,
    /// Minimum observed `ipc`.
    pub min_ipc: f64,
    /// Maximum observed `ipc`.
    pub max_ipc: f64,
    /// Run id of the most recent entry.
    pub last_run_id: String,
}

/// The ledger aggregated by workload × policy, rows sorted by
/// workload then policy.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerReport {
    /// Aggregated rows.
    pub rows: Vec<ReportRow>,
    /// Total entries aggregated.
    pub entries: usize,
    /// Malformed ledger lines skipped while reading.
    pub skipped: usize,
}

impl LedgerReport {
    /// Aggregates `entries` (from [`read_ledger`]) into per-
    /// workload × policy rows.
    pub fn build(entries: &[LedgerEntry], skipped: usize) -> LedgerReport {
        let mut groups: BTreeMap<(String, String), Vec<&LedgerEntry>> = BTreeMap::new();
        for e in entries {
            groups
                .entry((e.provenance.trace_name.clone(), e.provenance.policy.clone()))
                .or_default()
                .push(e);
        }
        let rows = groups
            .into_iter()
            .map(|((workload, policy), group)| {
                let ipcs: Vec<f64> = group
                    .iter()
                    .filter_map(|e| e.metrics.get("ipc").and_then(Json::as_f64))
                    .collect();
                let mut configs: Vec<u64> =
                    group.iter().map(|e| e.provenance.config_digest).collect();
                configs.sort_unstable();
                configs.dedup();
                let (mean, min, max) = if ipcs.is_empty() {
                    (0.0, 0.0, 0.0)
                } else {
                    (
                        ipcs.iter().sum::<f64>() / ipcs.len() as f64,
                        ipcs.iter().cloned().fold(f64::INFINITY, f64::min),
                        ipcs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                    )
                };
                ReportRow {
                    workload,
                    policy,
                    runs: group.len(),
                    configs: configs.len(),
                    mean_ipc: mean,
                    min_ipc: min,
                    max_ipc: max,
                    last_run_id: group
                        .last()
                        .map(|e| e.provenance.run_id.clone())
                        .unwrap_or_default(),
                }
            })
            .collect();
        LedgerReport { rows, entries: entries.len(), skipped }
    }

    /// The report as one JSON document.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                Json::object()
                    .set("workload", r.workload.as_str())
                    .set("policy", r.policy.as_str())
                    .set("runs", r.runs)
                    .set("configs", r.configs)
                    .set("mean_ipc", r.mean_ipc)
                    .set("min_ipc", r.min_ipc)
                    .set("max_ipc", r.max_ipc)
                    .set("last_run_id", r.last_run_id.as_str())
            })
            .collect();
        Json::object()
            .set("entries", self.entries)
            .set("skipped_lines", self.skipped)
            .set("rows", Json::Arr(rows))
    }

    /// The report as an aligned text table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["workload", "policy", "runs", "cfgs", "mean IPC", "min", "max"]);
        for r in &self.rows {
            t.row(&[
                r.workload.clone(),
                r.policy.clone(),
                r.runs.to_string(),
                r.configs.to_string(),
                format!("{:.4}", r.mean_ipc),
                format!("{:.4}", r.min_ipc),
                format!("{:.4}", r.max_ipc),
            ]);
        }
        let mut out = t.to_string();
        out.push_str(&format!(
            "{} entr{} aggregated, {} malformed line{} skipped\n",
            self.entries,
            if self.entries == 1 { "y" } else { "ies" },
            self.skipped,
            if self.skipped == 1 { "" } else { "s" },
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trace: &str, policy: &str, ipc: f64, digest: u64) -> LedgerEntry {
        let mut p = Provenance::new(trace, Some(7), digest, policy);
        p.wall_seconds = 0.5;
        LedgerEntry { provenance: p, metrics: Json::object().set("ipc", ipc).set("cycles", 100u64) }
    }

    #[test]
    fn entry_round_trips_through_json() {
        let e = entry("gzip", "explore", 1.25, 42);
        let parsed = json::parse(&e.to_json().to_string_compact()).unwrap();
        assert_eq!(LedgerEntry::from_json(&parsed), Some(e));
        assert_eq!(LedgerEntry::from_json(&Json::object()), None);
        let no_metrics =
            Json::object().set("provenance", entry("a", "b", 0.0, 0).provenance.to_json());
        assert_eq!(LedgerEntry::from_json(&no_metrics), None);
    }

    #[test]
    fn append_and_read_round_trip_with_corrupt_tail() {
        let dir = std::env::temp_dir().join(format!("clustered-ledger-{}", std::process::id()));
        let path = dir.join("nested").join("ledger.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        let a = entry("gzip", "explore", 1.0, 1);
        let b = entry("swim", "fixed16", 2.0, 2);
        append_entry(&path, &a).unwrap();
        append_entry(&path, &b).unwrap();
        // Simulate a crashed writer: a truncated trailing line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"provenance\": {\"trunc").unwrap();
        }
        let (entries, skipped) = read_ledger(&path).unwrap();
        assert_eq!(entries, vec![a, b]);
        assert_eq!(skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_groups_by_workload_and_policy() {
        let entries = vec![
            entry("gzip", "explore", 1.0, 1),
            entry("gzip", "explore", 2.0, 1),
            entry("gzip", "fixed4", 0.5, 1),
            entry("swim", "explore", 3.0, 9),
        ];
        let report = LedgerReport::build(&entries, 2);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.entries, 4);
        assert_eq!(report.skipped, 2);
        let gzip_explore = &report.rows[0];
        assert_eq!(
            (gzip_explore.workload.as_str(), gzip_explore.policy.as_str()),
            ("gzip", "explore")
        );
        assert_eq!(gzip_explore.runs, 2);
        assert_eq!(gzip_explore.configs, 1);
        assert_eq!(
            (gzip_explore.mean_ipc, gzip_explore.min_ipc, gzip_explore.max_ipc),
            (1.5, 1.0, 2.0)
        );
        assert_eq!(
            gzip_explore.last_run_id, entries[1].provenance.run_id,
            "last run id comes from the most recent entry"
        );
        let j = report.to_json();
        assert_eq!(j.get("rows").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        let text = report.render();
        assert!(text.contains("gzip") && text.contains("explore") && text.contains("1.5000"));
        assert!(text.contains("4 entries aggregated, 2 malformed lines skipped"));
    }

    #[test]
    fn report_counts_mixed_configs() {
        let entries = vec![entry("gzip", "explore", 1.0, 1), entry("gzip", "explore", 1.0, 2)];
        let report = LedgerReport::build(&entries, 0);
        assert_eq!(report.rows[0].configs, 2, "two distinct digests in one cell");
    }

    #[test]
    fn empty_report_renders() {
        let report = LedgerReport::build(&[], 0);
        assert!(report.rows.is_empty());
        assert!(report.render().contains("0 entries aggregated"));
    }
}
