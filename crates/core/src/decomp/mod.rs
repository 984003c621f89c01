//! Power-efficient technology decomposition (Section 2 of the paper).
//!
//! The MINPOWER problem: decompose a wide AND/OR node into a tree of
//! 2-input gates minimizing the *sum of switching activities of internal
//! nodes*. Depending on the merge function this is solved by
//!
//! * [`huffman`] — Huffman's algorithm, optimal for quasi-linear merge
//!   functions (domino dynamic CMOS, uncorrelated inputs; Theorem 2.2);
//! * [`modified`] — the Modified Huffman greedy (Algorithm 2.2) for general
//!   merge functions (static CMOS, correlated inputs);
//! * [`bounded`] — BOUNDED-HEIGHT MINPOWER (Section 2.2): the classic
//!   package-merge for linear weights plus a feasibility-guarded greedy for
//!   general merge functions;
//! * [`exhaustive`] — exact optimum by enumerating all merge histories
//!   (the oracle behind Table 1 and the property tests);
//! * [`network`] — the network-level NAND decomposition with slack
//!   distribution (Section 2.3).

pub mod bounded;
pub mod exhaustive;
pub mod huffman;
pub mod modified;
pub mod network;
pub mod objective;
pub mod package_merge;
pub mod tree;

pub use bounded::{bounded_minpower_tree, min_height};
pub use exhaustive::exhaustive_minpower;
pub use huffman::{huffman_tree, minpower_tree};
pub use modified::{modified_huffman_correlated, modified_huffman_tree};
pub use network::{
    decompose_network, decompose_network_with, DecompOptions, DecompStyle, DecomposedNetwork,
    SourceNode,
};
pub use objective::{DecompObjective, GateKind};
pub use package_merge::package_merge_levels;
pub use tree::DecompTree;
