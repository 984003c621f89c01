//! Power-efficient technology mapping (Section 3 of the paper).
//!
//! The mapper follows the Chaudhary–Pedram curve paradigm with the paper's
//! power objective:
//!
//! 1. [`subject`] — the decomposed network is converted to a subject AIG
//!    (2-input AND nodes + complemented edges); every node carries its
//!    exact zero-delay signal probability.
//! 2. [`pattern`] — library gates are compiled into AIG pattern trees by
//!    enumerating the binary shapes of their AND/OR expressions.
//! 3. [`matcher`] — structural matching of patterns at subject nodes with
//!    phase bookkeeping: non-inverting-root patterns contribute to a node's
//!    positive curve, inverting-root patterns to its negative curve.
//! 4. [`curve`] — monotone non-increasing (arrival, cost) curves of
//!    non-inferior points with ε-pruning (§3.1).
//! 5. [`mapper`] — postorder curve computation (`Method 1` power
//!    bookkeeping, eq. 15; pin-dependent delays, eq. 14; unknown-load
//!    default with drive-based recalculation), preorder gate selection
//!    under required times, and the §3.3 DAG heuristics (fanout-count cost
//!    division, remapping on timing violation).
//!
//! The same machinery with an area cost function is the `ad-map` baseline
//! (methods I–III of the experiments).

pub mod curve;
pub mod mapper;
pub mod matcher;
pub mod output;
pub mod pattern;
pub mod subject;

pub use curve::{BindingRange, Curve, Point};
pub use mapper::{map_network, MapObjective, MapOptions, MappedNetwork, PowerMethod};
pub use matcher::{Match, Matcher};
pub use pattern::PatternSet;
pub use subject::{MapError, Signal, SubjectAig};
