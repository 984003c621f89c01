//! Benchmark of the paper's six-method synthesis flow.
//!
//! One process runs a workload as a closed-loop batch of `(circuit,
//! method)` cells: an untraced pass through the real `lowpower::flow` entry
//! points for the end-to-end metrics ([`pass`]), and a serial traced pass
//! that calls each layer from here for the per-layer metrics
//! ([`traced`]). See `README.md` in this directory for the workloads and
//! metrics.

pub mod crosscheck;
pub mod pass;
pub mod run;
pub mod stats;
pub mod traced;
pub mod workload;
