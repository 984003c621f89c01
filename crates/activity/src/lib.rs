//! Switching-activity analysis for Boolean networks.
//!
//! Implements the paper's power model (Section 1.2–1.4):
//!
//! * signal probabilities by global-BDD traversal (eq. 2),
//! * zero-delay transition probabilities for static CMOS (eqs. 3–4, 10–11)
//!   and domino dynamic CMOS (eqs. 5–6),
//! * pairwise correlation bookkeeping for correlated inputs (eqs. 7–9),
//! * a Monte-Carlo logic simulator used to cross-validate the analytic
//!   numbers, and
//! * the electrical environment (`Vdd`, clock period, capacitance unit) that
//!   converts switching activity into average power in µW.
//!
//! # Example
//!
//! ```
//! use netlist::parse_blif;
//! use activity::{analyze, TransitionModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = parse_blif(".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n")?
//!     .network;
//! let act = analyze(&net, &[0.5, 0.5], TransitionModel::StaticCmos);
//! let f = net.find("f").expect("node exists");
//! assert!((act.p_one(f) - 0.25).abs() < 1e-12);
//! assert!((act.switching(f) - 2.0 * 0.25 * 0.75).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod correlation;
pub mod env;
pub mod prob;
pub mod sim;
pub mod transition;

pub use correlation::CorrelationMatrix;
pub use env::PowerEnv;
pub use prob::{analyze, ActivityMap, NetworkBdds};
pub use sim::{simulate_activity_seeded, SimActivity};
pub use transition::{TransProbs, TransitionModel};
