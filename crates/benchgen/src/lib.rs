//! Benchmark circuits for the experiments.
//!
//! The paper evaluates on ISCAS-89 combinational cores and MCNC-91
//! circuits, which cannot be redistributed here. This crate provides
//! functionally meaningful stand-ins (see `DESIGN.md` for the substitution
//! rationale):
//!
//! * [`structured`] — exact constructions of classic circuit shapes:
//!   decoders (the real `cm42a` is a 4→10 decoder), ripple-carry adders,
//!   ALU slices, parity trees and mux trees;
//! * [`random_net`] — a seeded random multi-level network generator with
//!   controlled size, depth and reconvergence;
//! * [`suite`] — the named benchmark list mirroring the paper's Table 2/3
//!   circuits, each with a PI/PO/size profile matched to the original.

pub mod random_net;
pub mod structured;
pub mod suite;

pub use random_net::{random_network, RandomNetConfig};
pub use suite::{paper_suite, suite_circuit, SuiteEntry};
