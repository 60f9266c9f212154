//! Differential comparison of two exported result artifacts.
//!
//! [`diff_docs`] flattens the numeric leaves of two JSON documents to
//! dotted paths (`data.workloads[3].ipc_by_clusters.16`), aligns them
//! by [`Provenance`] when both sides carry one, and reports per-counter
//! absolute/relative deltas under a three-way verdict:
//!
//! * **identical** — every shared leaf (numeric or not) is equal and
//!   no leaf exists on only one side;
//! * **within-noise** — numeric leaves differ, but every relative
//!   delta is at or below the threshold (and nothing else changed);
//! * **drifted** — a numeric leaf exceeds the threshold, a non-numeric
//!   leaf changed, or a leaf appeared/disappeared.
//!
//! The provenance blocks themselves are *excluded* from the counter
//! walk: host, wall time, and run id legitimately differ between runs
//! of the same experiment and must not drag the verdict to "drifted".
//! `clustered diff` is the CLI face of this module.

use crate::provenance::Provenance;
use crate::Json;

/// Default relative-delta threshold separating "within noise" from
/// "drifted". The simulator is deterministic, so the default is
/// strict: any difference beyond float-formatting jitter drifts.
pub const DEFAULT_DIFF_THRESHOLD: f64 = 0.0;

/// One numeric leaf present on both sides.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDelta {
    /// Dotted path of the leaf.
    pub path: String,
    /// Value in the first (baseline) document.
    pub a: f64,
    /// Value in the second (current) document.
    pub b: f64,
}

impl CounterDelta {
    /// `b - a`.
    pub fn abs_delta(&self) -> f64 {
        self.b - self.a
    }

    /// `(b - a) / |a|`, or 0 for two zeros, or infinity when only the
    /// baseline is zero.
    pub fn rel_delta(&self) -> f64 {
        if self.a == self.b {
            0.0
        } else if self.a == 0.0 {
            f64::INFINITY
        } else {
            (self.b - self.a) / self.a.abs()
        }
    }

    fn to_json(&self) -> Json {
        Json::object()
            .set("path", self.path.as_str())
            .set("a", self.a)
            .set("b", self.b)
            .set("abs_delta", self.abs_delta())
            .set("rel_delta", self.rel_delta())
    }
}

/// The machine-readable verdict of a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffVerdict {
    /// No leaf differs.
    Identical,
    /// Numeric leaves differ within the threshold.
    WithinNoise,
    /// At least one difference beyond the threshold (or a structural
    /// change: missing/extra/non-numeric-changed leaves).
    Drifted,
}

impl DiffVerdict {
    /// The verdict's wire string (`identical` / `within-noise` /
    /// `drifted`).
    pub fn as_str(self) -> &'static str {
        match self {
            DiffVerdict::Identical => "identical",
            DiffVerdict::WithinNoise => "within-noise",
            DiffVerdict::Drifted => "drifted",
        }
    }
}

/// How the two sides' provenance records relate.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceAlignment {
    /// Baseline provenance, when the artifact carries one.
    pub a: Option<Provenance>,
    /// Current provenance, when the artifact carries one.
    pub b: Option<Provenance>,
}

impl ProvenanceAlignment {
    /// `Some(true)` when both sides carry provenance identifying the
    /// same experiment, `Some(false)` when both carry provenance for
    /// different experiments, `None` when either side has none.
    pub fn same_experiment(&self) -> Option<bool> {
        match (&self.a, &self.b) {
            (Some(a), Some(b)) => Some(a.same_experiment(b)),
            _ => None,
        }
    }

    fn to_json(&self) -> Json {
        let side = |p: &Option<Provenance>| match p {
            Some(p) => p.to_json(),
            None => Json::Null,
        };
        Json::object().set("a", side(&self.a)).set("b", side(&self.b)).set(
            "same_experiment",
            match self.same_experiment() {
                Some(v) => Json::Bool(v),
                None => Json::Null,
            },
        )
    }
}

/// The full result of diffing two artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Relative-delta threshold used for the verdict.
    pub threshold: f64,
    /// Provenance of both sides and their alignment.
    pub provenance: ProvenanceAlignment,
    /// Numeric leaves present on both sides **that differ**, sorted by
    /// descending |relative delta|.
    pub changed: Vec<CounterDelta>,
    /// Count of leaves compared equal (numeric and non-numeric).
    pub equal: usize,
    /// Non-numeric leaves present on both sides with different values.
    pub mismatched: Vec<String>,
    /// Leaf paths only in the baseline document.
    pub only_a: Vec<String>,
    /// Leaf paths only in the current document.
    pub only_b: Vec<String>,
}

impl DiffReport {
    /// The three-way verdict; see the module docs for the rules.
    pub fn verdict(&self) -> DiffVerdict {
        if !self.mismatched.is_empty() || !self.only_a.is_empty() || !self.only_b.is_empty() {
            return DiffVerdict::Drifted;
        }
        if self.changed.is_empty() {
            return DiffVerdict::Identical;
        }
        if self.changed.iter().all(|d| d.rel_delta().abs() <= self.threshold) {
            DiffVerdict::WithinNoise
        } else {
            DiffVerdict::Drifted
        }
    }

    /// The report as a JSON document (`clustered diff --json`).
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("verdict", self.verdict().as_str())
            .set("threshold", self.threshold)
            .set("provenance", self.provenance.to_json())
            .set("equal_leaves", self.equal)
            .set("changed", Json::Arr(self.changed.iter().map(CounterDelta::to_json).collect()))
            .set(
                "mismatched",
                Json::Arr(self.mismatched.iter().map(|p| Json::from(p.as_str())).collect()),
            )
            .set("only_a", Json::Arr(self.only_a.iter().map(|p| Json::from(p.as_str())).collect()))
            .set("only_b", Json::Arr(self.only_b.iter().map(|p| Json::from(p.as_str())).collect()))
    }

    /// Human-readable rendering (`clustered diff` without `--json`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self.provenance.same_experiment() {
            Some(true) => {
                out.push_str("provenance: same experiment (trace, config, policy, seed)\n")
            }
            Some(false) => {
                out.push_str("provenance: DIFFERENT experiments\n");
                if let (Some(a), Some(b)) = (&self.provenance.a, &self.provenance.b) {
                    for (name, l, r) in [
                        ("trace", a.trace_name.as_str(), b.trace_name.as_str()),
                        ("policy", a.policy.as_str(), b.policy.as_str()),
                    ] {
                        if l != r {
                            out.push_str(&format!("  {name}: {l} vs {r}\n"));
                        }
                    }
                    if a.config_digest != b.config_digest {
                        out.push_str(&format!(
                            "  config digest: {:016x} vs {:016x}\n",
                            a.config_digest, b.config_digest
                        ));
                    }
                }
            }
            None => out.push_str("provenance: absent on at least one side\n"),
        }
        out.push_str(&format!(
            "{} equal leaves, {} changed, {} mismatched, {} only-baseline, {} only-current\n",
            self.equal,
            self.changed.len(),
            self.mismatched.len(),
            self.only_a.len(),
            self.only_b.len(),
        ));
        for d in &self.changed {
            out.push_str(&format!(
                "  {:<48} {:>14} -> {:<14} ({:+.3}%)\n",
                d.path,
                trim_num(d.a),
                trim_num(d.b),
                d.rel_delta() * 100.0
            ));
        }
        for p in &self.mismatched {
            out.push_str(&format!("  {p:<48} non-numeric values differ\n"));
        }
        for p in &self.only_a {
            out.push_str(&format!("  {p:<48} only in baseline\n"));
        }
        for p in &self.only_b {
            out.push_str(&format!("  {p:<48} only in current\n"));
        }
        out.push_str(&format!("verdict: {}\n", self.verdict().as_str()));
        out
    }
}

fn trim_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.6}")
    }
}

/// One leaf of the flattened document.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Num(f64),
    Other(String), // serialized non-numeric scalar
}

fn flatten_into(doc: &Json, path: &mut String, out: &mut Vec<(String, Leaf)>) {
    match doc {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                // The provenance block (and the envelope's own schema
                // version) is circumstance, not measurement.
                if path.is_empty() && (k == "provenance" || k == "schema_version") {
                    continue;
                }
                let len = path.len();
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(k);
                flatten_into(v, path, out);
                path.truncate(len);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                let len = path.len();
                path.push_str(&format!("[{i}]"));
                flatten_into(v, path, out);
                path.truncate(len);
            }
        }
        other => {
            let leaf = match other.as_f64() {
                Some(n) => Leaf::Num(n),
                None => Leaf::Other(other.to_string_compact()),
            };
            out.push((path.clone(), leaf));
        }
    }
}

/// Extracts the provenance block and the comparable payload of an
/// artifact. Envelope documents (`{schema_version, provenance, data}`)
/// compare their `data` subtree; flat documents (`clustered run
/// --json`) compare everything except the `provenance` key.
pub fn split_artifact(doc: &Json) -> (Option<Provenance>, &Json) {
    let prov = doc.get("provenance").and_then(Provenance::from_json);
    match doc.get("data") {
        Some(data) if doc.get("provenance").is_some() => (prov, data),
        _ => (prov, doc),
    }
}

/// Diffs two artifacts; see the module docs for the rules.
pub fn diff_docs(a: &Json, b: &Json, threshold: f64) -> DiffReport {
    let (pa, da) = split_artifact(a);
    let (pb, db) = split_artifact(b);
    let mut la = Vec::new();
    let mut lb = Vec::new();
    flatten_into(da, &mut String::new(), &mut la);
    flatten_into(db, &mut String::new(), &mut lb);

    let mut changed = Vec::new();
    let mut mismatched = Vec::new();
    let mut only_a = Vec::new();
    let mut only_b = Vec::new();
    let mut equal = 0usize;

    // Both flattenings preserve document order; align by path lookup
    // so key reordering alone is not drift.
    let index_b: std::collections::HashMap<&str, &Leaf> =
        lb.iter().map(|(p, l)| (p.as_str(), l)).collect();
    let paths_a: std::collections::HashSet<&str> = la.iter().map(|(p, _)| p.as_str()).collect();

    for (path, leaf_a) in &la {
        match index_b.get(path.as_str()) {
            None => only_a.push(path.clone()),
            Some(leaf_b) => match (leaf_a, leaf_b) {
                (Leaf::Num(x), Leaf::Num(y)) => {
                    if x == y {
                        equal += 1;
                    } else {
                        changed.push(CounterDelta { path: path.clone(), a: *x, b: *y });
                    }
                }
                (x, y) => {
                    if x == *y {
                        equal += 1;
                    } else {
                        mismatched.push(path.clone());
                    }
                }
            },
        }
    }
    for (path, _) in &lb {
        if !paths_a.contains(path.as_str()) {
            only_b.push(path.clone());
        }
    }
    changed.sort_by(|x, y| {
        y.rel_delta()
            .abs()
            .partial_cmp(&x.rel_delta().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.path.cmp(&y.path))
    });

    DiffReport {
        threshold,
        provenance: ProvenanceAlignment { a: pa, b: pb },
        changed,
        equal,
        mismatched,
        only_a,
        only_b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::provenance::envelope;

    fn doc(ipc: f64, cycles: u64) -> Json {
        Json::object()
            .set("workload", "gzip")
            .set("ipc", ipc)
            .set("cycles", cycles)
            .set("cycles_at_config", Json::Arr(vec![Json::from(cycles), Json::from(0u64)]))
    }

    #[test]
    fn identical_docs_verdict_identical() {
        let r = diff_docs(&doc(1.5, 100), &doc(1.5, 100), 0.0);
        assert_eq!(r.verdict(), DiffVerdict::Identical);
        assert_eq!(r.changed, Vec::new());
        assert_eq!(r.equal, 5);
        assert_eq!(r.to_json().get("verdict").and_then(Json::as_str), Some("identical"));
    }

    #[test]
    fn numeric_drift_is_reported_per_counter_sorted_by_magnitude() {
        let r = diff_docs(&doc(1.5, 100), &doc(1.2, 101), 0.0);
        assert_eq!(r.verdict(), DiffVerdict::Drifted);
        let paths: Vec<&str> = r.changed.iter().map(|d| d.path.as_str()).collect();
        // ipc moved 20%, cycles 1%: ipc sorts first.
        assert_eq!(paths, vec!["ipc", "cycles", "cycles_at_config[0]"]);
        assert!((r.changed[0].abs_delta() + 0.3).abs() < 1e-12);
        assert!((r.changed[0].rel_delta() + 0.2).abs() < 1e-12);
    }

    #[test]
    fn threshold_separates_noise_from_drift() {
        let a = doc(1.00, 100);
        let b = doc(1.01, 100);
        assert_eq!(diff_docs(&a, &b, 0.05).verdict(), DiffVerdict::WithinNoise);
        assert_eq!(diff_docs(&a, &b, 0.001).verdict(), DiffVerdict::Drifted);
    }

    #[test]
    fn structural_changes_always_drift() {
        let a = doc(1.0, 100);
        let extra = doc(1.0, 100).set("new_counter", 7u64);
        let r = diff_docs(&a, &extra, 1.0);
        assert_eq!(r.verdict(), DiffVerdict::Drifted);
        assert_eq!(r.only_b, vec!["new_counter".to_string()]);
        let renamed = Json::object().set("workload", "swim");
        let r = diff_docs(&Json::object().set("workload", "gzip"), &renamed, 1.0);
        assert_eq!(r.verdict(), DiffVerdict::Drifted);
        assert_eq!(r.mismatched, vec!["workload".to_string()]);
    }

    #[test]
    fn provenance_is_excluded_from_counters_but_drives_alignment() {
        let pa = Provenance::new("gzip", Some(1), 42, "explore").with_wall_seconds(0.5);
        let pb = Provenance::new("gzip", Some(1), 42, "explore").with_wall_seconds(9.0);
        let a = envelope(&pa, doc(1.5, 100));
        let b = envelope(&pb, doc(1.5, 100));
        let r = diff_docs(&a, &b, 0.0);
        // Different wall time/run id, same experiment: still identical.
        assert_eq!(r.verdict(), DiffVerdict::Identical);
        assert_eq!(r.provenance.same_experiment(), Some(true));

        let pc = Provenance::new("gzip", Some(1), 42, "fixed16");
        let c = envelope(&pc, doc(1.2, 90));
        let r = diff_docs(&a, &c, 0.0);
        assert_eq!(r.provenance.same_experiment(), Some(false));
        assert_eq!(r.verdict(), DiffVerdict::Drifted);
    }

    #[test]
    fn flat_run_docs_with_inline_provenance_compare_their_counters() {
        let prov = Provenance::new("gzip", Some(1), 42, "explore");
        let a = doc(1.5, 100).set("provenance", prov.to_json());
        let b = doc(1.5, 100).set("provenance", prov.to_json());
        let r = diff_docs(&a, &b, 0.0);
        assert_eq!(r.verdict(), DiffVerdict::Identical);
        assert!(r.provenance.same_experiment().unwrap());
    }

    #[test]
    fn report_json_round_trips_and_render_mentions_verdict() {
        let r = diff_docs(&doc(1.5, 100), &doc(1.2, 100), 0.0);
        let text = r.to_json().to_string_pretty();
        let parsed = json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("verdict").and_then(Json::as_str), Some("drifted"));
        assert!(r.render().contains("verdict: drifted"));
        assert!(r.render().contains("ipc"));
    }
}
