//! Boolean networks, sum-of-products algebra and BLIF I/O.
//!
//! This crate is the structural substrate of the `lowpower` workspace: every
//! other crate (probability propagation, optimization, decomposition,
//! mapping) operates on [`Network`]s built from [`Sop`] node functions.
//!
//! # Example
//!
//! ```
//! use netlist::parse_blif;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let blif = "\
//! .model and2
//! .inputs a b
//! .outputs f
//! .names a b f
//! 11 1
//! .end
//! ";
//! let net = parse_blif(blif)?.network;
//! assert_eq!(net.eval_outputs(&[true, true]), vec![true]);
//! assert_eq!(net.eval_outputs(&[true, false]), vec![false]);
//! # Ok(())
//! # }
//! ```

pub mod blif;
pub mod cube;
pub mod network;
pub mod sop;
pub mod traversal;

pub use blif::{parse_blif, write_blif, BlifModel, ParseBlifError};
pub use cube::{Cube, Lit};
pub use network::{Network, NetworkError, Node, NodeId};
pub use sop::Sop;
