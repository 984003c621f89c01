//! Technology-independent multi-level logic optimization.
//!
//! A self-contained stand-in for the SIS `rugged` script (Savoj/Wang), which
//! the paper uses to prepare every benchmark before technology decomposition
//! and mapping. The pieces:
//!
//! * [`sweep`] — constant propagation, buffer/inverter collapsing, removal
//!   of dangling logic;
//! * [`simplify`] — per-node two-level minimization (expand against the
//!   off-set + irredundant cover, an "espresso-lite");
//! * [`division`] — algebraic (weak) division of covers;
//! * [`kernels`] — kernel/co-kernel enumeration;
//! * [`extract`](mod@extract) — greedy common-divisor extraction (kernel
//!   intersections and common cubes), the `fast_extract` analogue, plus the
//!   power-aware variant of the paper's §5 future work;
//! * [`eliminate`] — value-based node collapsing;
//! * [`script::rugged_like`] — the composition used by the experiments.
//!
//! All passes preserve network function; the test-suite checks functional
//! equivalence by exhaustive or randomized simulation after every pass.

pub mod division;
pub mod eliminate;
pub mod extract;
pub mod kernels;
#[cfg(test)]
mod reference;
pub mod script;
pub mod simplify;
pub mod sweep;

pub use extract::{extract, extract_power_aware, ExtractReport};
pub use script::{rugged_like, rugged_like_with, ScriptReport};

/// `true` when `a` and `b` agree on every input vector (exhaustive, so
/// for small networks only).
#[cfg(test)]
fn equivalent(a: &netlist::Network, b: &netlist::Network) -> bool {
    let n = a.inputs().len();
    assert!(n <= 10, "exhaustive check only for small nets");
    for bits in 0..(1u64 << n) {
        let v: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        if a.eval_outputs(&v) != b.eval_outputs(&v) {
            return false;
        }
    }
    true
}
