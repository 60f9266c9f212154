//! Run provenance: the *who/what/where* of every exported artifact.
//!
//! Every result this workspace writes — `clustered run --json`, the
//! experiment binaries' `results/*.json`, decision JSONL, host
//! profiles, sweep heartbeats, the run ledger — embeds one
//! [`Provenance`] record so a number can always be traced back to the
//! exact trace, configuration, policy, code version, and host that
//! produced it. The ROADMAP's sweep-service (result caching keyed by
//! trace × config × policy) and sampled-simulation items both key off
//! this record.
//!
//! The record is deliberately split into *identity* fields that must
//! be stable across reruns of the same experiment (trace checksum,
//! config digest, policy, seed, versions) and *circumstance* fields
//! that will differ (host fingerprint, wall-clock duration, run id).
//! [`diff`](crate::diff) aligns two artifacts on the identity fields
//! and ignores the circumstance fields.

use crate::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Version of the provenance record itself (and of the
/// `{schema_version, provenance, data}` envelope): bump when the field
/// set changes incompatibly.
pub const PROVENANCE_SCHEMA_VERSION: u64 = 1;

/// FNV-1a 64-bit over `bytes` — the workspace's standard content
/// digest (the capture checksum folds the same function record by
/// record). Small,
/// dependency-free, and stable across platforms; not cryptographic.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The machine a run executed on. Best-effort: any field that cannot
/// be determined reads `"unknown"` (or 0 cpus) rather than failing the
/// run — provenance must never make an experiment fall over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFingerprint {
    /// Host name from `$HOSTNAME` or `/etc/hostname`.
    pub hostname: String,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available hardware parallelism.
    pub cpus: u64,
}

impl HostFingerprint {
    /// Probes the current host.
    pub fn detect() -> HostFingerprint {
        let hostname = std::env::var("HOSTNAME")
            .ok()
            .filter(|h| !h.is_empty())
            .or_else(|| {
                std::fs::read_to_string("/etc/hostname")
                    .ok()
                    .map(|h| h.trim().to_string())
                    .filter(|h| !h.is_empty())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let cpus = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0);
        HostFingerprint {
            hostname,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("hostname", self.hostname.as_str())
            .set("os", self.os.as_str())
            .set("arch", self.arch.as_str())
            .set("cpus", self.cpus)
    }
}

/// `git describe --always --dirty` of the working tree, probed once
/// per process. `CLUSTERED_GIT_DESCRIBE` overrides the probe (set it
/// to the empty string to force `None`) — tests and hermetic CI use
/// this to stay deterministic.
fn git_describe() -> Option<String> {
    static DESCRIBE: OnceLock<Option<String>> = OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            if let Ok(v) = std::env::var("CLUSTERED_GIT_DESCRIBE") {
                return Some(v).filter(|v| !v.is_empty());
            }
            let out = std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .output()
                .ok()?;
            if !out.status.success() {
                return None;
            }
            let text = String::from_utf8(out.stdout).ok()?;
            let text = text.trim();
            if text.is_empty() {
                None
            } else {
                Some(text.to_string())
            }
        })
        .clone()
}

/// A process-monotonic run id: epoch milliseconds at first use, the
/// process id, and a per-process counter — unique across concurrent
/// processes and ordered within one.
fn next_run_id() -> String {
    static EPOCH_MS: OnceLock<u128> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let ms = *EPOCH_MS.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0)
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{ms:x}-{:x}-{n}", std::process::id())
}

/// One run's full provenance record. See the module docs for the
/// identity/circumstance split; the JSON schema is documented in
/// EXPERIMENTS.md and pinned by tests here and in `tests/cli.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// [`PROVENANCE_SCHEMA_VERSION`] at record creation.
    pub schema_version: u64,
    /// Workspace crate version (`CARGO_PKG_VERSION` of `clustered-stats`;
    /// the workspace versions in lock-step).
    pub crate_version: String,
    /// `git describe --always --dirty`, if a git tree was found.
    pub git_describe: Option<String>,
    /// Workload / trace name (or a grid label for multi-trace runs).
    pub trace_name: String,
    /// FNV-1a 64 checksum of the trace's records, each hashed in the
    /// fixed 18-byte v1 layout (not the in-memory packed stream); `None`
    /// when the artifact does not derive from a single captured trace.
    pub trace_checksum: Option<u64>,
    /// `SimConfig` digest (exhaustive over every field; computed in
    /// `clustered-sim`), or a combined digest for grid artifacts.
    pub config_digest: u64,
    /// Reconfiguration-policy id (`fixed16`, `explore`, …; `grid` for
    /// multi-policy artifacts).
    pub policy: String,
    /// Random seed. The simulator is currently fully deterministic
    /// (no RNG), so this is always 0; the field is reserved for the
    /// ROADMAP's sampled-simulation item.
    pub seed: u64,
    /// The executing machine.
    pub host: HostFingerprint,
    /// Wall-clock duration of the measured run in seconds (0 until
    /// [`Provenance::with_wall_seconds`] stamps it).
    pub wall_seconds: f64,
    /// Process-monotonic run id.
    pub run_id: String,
}

impl Provenance {
    /// A record for one run: identity fields from the caller,
    /// circumstance fields probed from the process/host. Wall-clock
    /// duration starts at 0 — stamp it with
    /// [`Provenance::with_wall_seconds`] once the run finishes.
    pub fn new(
        trace_name: &str,
        trace_checksum: Option<u64>,
        config_digest: u64,
        policy: &str,
    ) -> Provenance {
        Provenance {
            schema_version: PROVENANCE_SCHEMA_VERSION,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            git_describe: git_describe(),
            trace_name: trace_name.to_string(),
            trace_checksum,
            config_digest,
            policy: policy.to_string(),
            seed: 0,
            host: HostFingerprint::detect(),
            wall_seconds: 0.0,
            run_id: next_run_id(),
        }
    }

    /// The record with the measured wall-clock duration stamped in.
    pub fn with_wall_seconds(mut self, wall_seconds: f64) -> Provenance {
        self.wall_seconds = wall_seconds;
        self
    }

    /// The record as a JSON object (the `"provenance"` block of every
    /// exported artifact).
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("schema_version", self.schema_version)
            .set("crate_version", self.crate_version.as_str())
            .set(
                "git_describe",
                match &self.git_describe {
                    Some(d) => Json::from(d.as_str()),
                    None => Json::Null,
                },
            )
            .set(
                "trace",
                Json::object().set("name", self.trace_name.as_str()).set(
                    "checksum",
                    match self.trace_checksum {
                        Some(c) => Json::from(c),
                        None => Json::Null,
                    },
                ),
            )
            .set("config_digest", self.config_digest)
            .set("policy", self.policy.as_str())
            .set("seed", self.seed)
            .set("host", self.host.to_json())
            .set("wall_seconds", self.wall_seconds)
            .set("run_id", self.run_id.as_str())
    }

    /// Parses a `"provenance"` block back into a record. Returns
    /// `None` when required fields are missing or mistyped — callers
    /// treat such artifacts as provenance-less rather than failing.
    pub fn from_json(doc: &Json) -> Option<Provenance> {
        let trace = doc.get("trace")?;
        let host = doc.get("host")?;
        Some(Provenance {
            schema_version: doc.get("schema_version").and_then(Json::as_u64)?,
            crate_version: doc.get("crate_version").and_then(Json::as_str)?.to_string(),
            git_describe: doc.get("git_describe").and_then(Json::as_str).map(str::to_string),
            trace_name: trace.get("name").and_then(Json::as_str)?.to_string(),
            trace_checksum: trace.get("checksum").and_then(Json::as_u64),
            config_digest: doc.get("config_digest").and_then(Json::as_u64)?,
            policy: doc.get("policy").and_then(Json::as_str)?.to_string(),
            seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(0),
            host: HostFingerprint {
                hostname: host
                    .get("hostname")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                os: host.get("os").and_then(Json::as_str).unwrap_or("unknown").to_string(),
                arch: host.get("arch").and_then(Json::as_str).unwrap_or("unknown").to_string(),
                cpus: host.get("cpus").and_then(Json::as_u64).unwrap_or(0),
            },
            wall_seconds: doc.get("wall_seconds").and_then(Json::as_f64).unwrap_or(0.0),
            run_id: doc.get("run_id").and_then(Json::as_str).unwrap_or("").to_string(),
        })
    }

    /// True when `other` identifies the *same experiment*: equal trace
    /// checksum (or both unknown with equal names), config digest,
    /// policy, and seed. Circumstance fields (host, wall time, run id,
    /// versions) are deliberately ignored.
    pub fn same_experiment(&self, other: &Provenance) -> bool {
        let same_trace = match (self.trace_checksum, other.trace_checksum) {
            (Some(a), Some(b)) => a == b,
            _ => self.trace_name == other.trace_name,
        };
        same_trace
            && self.config_digest == other.config_digest
            && self.policy == other.policy
            && self.seed == other.seed
    }
}

/// Wraps experiment `data` in the unified result envelope:
/// `{schema_version, provenance, data}`. Every `results/*.json`
/// artifact uses this shape.
pub fn envelope(provenance: &Provenance, data: Json) -> Json {
    Json::object()
        .set("schema_version", PROVENANCE_SCHEMA_VERSION)
        .set("provenance", provenance.to_json())
        .set("data", data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> Provenance {
        Provenance::new("gzip", Some(0xdead_beef), 42, "explore").with_wall_seconds(1.5)
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn provenance_round_trips_through_json() {
        let p = sample();
        let text = p.to_json().to_string_pretty();
        let parsed = Provenance::from_json(&json::parse(&text).expect("valid JSON"))
            .expect("round-trip parse");
        assert_eq!(parsed, p);
    }

    #[test]
    fn run_ids_are_unique_and_monotonic_within_a_process() {
        let a = Provenance::new("t", None, 0, "p");
        let b = Provenance::new("t", None, 0, "p");
        assert_ne!(a.run_id, b.run_id);
        let tail = |id: &str| id.rsplit('-').next().unwrap().parse::<u64>().unwrap();
        assert!(tail(&a.run_id) < tail(&b.run_id));
    }

    #[test]
    fn same_experiment_ignores_circumstance_fields() {
        let a = sample();
        let mut b = sample(); // new run id, new wall time
        b.wall_seconds = 99.0;
        b.host.hostname = "elsewhere".into();
        assert!(a.same_experiment(&b));
        let mut c = sample();
        c.config_digest = 43;
        assert!(!a.same_experiment(&c));
        let mut d = sample();
        d.policy = "fixed16".into();
        assert!(!a.same_experiment(&d));
        let mut e = sample();
        e.trace_checksum = Some(1);
        assert!(!a.same_experiment(&e));
    }

    #[test]
    fn envelope_has_the_three_documented_keys() {
        let doc = envelope(&sample(), Json::object().set("ipc", 1.5));
        assert_eq!(doc.keys().unwrap(), &["schema_version", "provenance", "data"]);
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(PROVENANCE_SCHEMA_VERSION)
        );
        assert_eq!(doc.get("data").and_then(|d| d.get("ipc")).and_then(Json::as_f64), Some(1.5));
        let prov = doc.get("provenance").expect("provenance block");
        assert!(Provenance::from_json(prov).is_some());
    }

    #[test]
    fn missing_fields_parse_to_none_not_panic() {
        assert_eq!(Provenance::from_json(&Json::object()), None);
        let partial = Json::object().set("schema_version", 1u64);
        assert_eq!(Provenance::from_json(&partial), None);
    }
}
