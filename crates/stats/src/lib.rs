//! Reporting utilities for `clustered` experiments: aggregate means,
//! plain-text tables, simple text charts for regenerating the paper's
//! figures on a terminal, and the machine-readable side of the
//! observability layer — bucketed [`Histogram`]s and a dependency-free
//! [`json`] tree used by every exporter.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
mod histogram;
pub mod json;
pub mod ledger;
pub mod provenance;
mod summary;
mod table;

pub use diff::{
    diff_docs, split_artifact, CounterDelta, DiffReport, DiffVerdict, ProvenanceAlignment,
    DEFAULT_DIFF_THRESHOLD,
};
pub use histogram::Histogram;
pub use json::Json;
pub use ledger::{
    append_entry, read_ledger, LedgerEntry, LedgerReport, ReportRow, DEFAULT_LEDGER_PATH,
};
pub use provenance::{envelope, fnv1a_64, HostFingerprint, Provenance, PROVENANCE_SCHEMA_VERSION};
pub use summary::{geometric_mean, harmonic_mean, normalised, percent_change};
pub use table::{Align, Table};
