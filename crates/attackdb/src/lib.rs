//! MITRE-shaped attack vector corpora for model-based security analysis.
//!
//! The paper's search process consumes "databases containing vulnerability,
//! weakness, and attack pattern data, such as the ones published by MITRE".
//! This crate provides the same three record families —
//! [`AttackPattern`] (CAPEC), [`Weakness`] (CWE), and [`Vulnerability`]
//! (CVE/NVD) — with their interconnections, a from-scratch CVSS v3.1
//! implementation, a small curated seed corpus covering every attribute in
//! the paper's Table 1, and a deterministic synthetic corpus generator that
//! scales the corpus to NVD-like magnitudes for experiments.
//!
//! # Examples
//!
//! ```
//! use cpssec_attackdb::{Corpus, seed};
//!
//! let corpus = seed::seed_corpus();
//! let cwe78 = "CWE-78".parse()?;
//! let weakness = corpus.weakness(cwe78).expect("seed contains CWE-78");
//! assert!(weakness.name().contains("OS Command"));
//! # Ok::<(), cpssec_attackdb::ParseIdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod cvss;
mod error;
mod id;
pub mod json;
pub mod jsonl;
mod record;
pub mod seed;
mod severity;
pub mod snapshot;
pub mod synth;

pub use corpus::{Corpus, CorpusStats};
pub use cvss::{
    AttackComplexity, AttackVectorMetric, CvssError, CvssVector, Impact, PrivilegesRequired, Scope,
    Severity, UserInteraction,
};
pub use error::AttackDbError;
pub use id::{AttackVectorId, CapecId, CveId, CweId, ParseIdError};
pub use record::{Abstraction, AttackPattern, CpeName, Likelihood, Vulnerability, Weakness};
pub use severity::{RecordSeverity, SeverityTable};
