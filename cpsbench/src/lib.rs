//! The cpssec benchmark: four workloads against the live server, a traced
//! in-process replay for per-layer figures, and an output check on every
//! answer. See `README.md` in this directory for the metric definitions.

pub mod client;
pub mod e2e;
pub mod plan;
pub mod reference;
pub mod replay;
pub mod stats;
pub mod trace;
