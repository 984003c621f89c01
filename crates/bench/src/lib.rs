//! Shared harness for regenerating the paper's tables and figures.
//!
//! Binaries:
//! * `table1`   — Modified Huffman optimality percentages (paper Table 1).
//! * `tables23` — methods I–VI over the benchmark suite (paper Tables 2–3)
//!   plus the summary claims of Section 4.
//! * `figure1`  — the worked 4-input AND example of Figure 1.
//! * `ablation` — the design choices of §3.1 and §3.3 (power bookkeeping,
//!   fanout-count cost division, ε-pruning) switched one at a time.
//!
//! Criterion benches (in `benches/`) measure runtime scaling of the
//! decomposition algorithms, the BDD probability engine and the mapper.

pub mod args;
pub mod harness;

pub use args::{args_or_exit, parse_args, BenchArgs, Takes};
pub use harness::{summarize, SuiteRow, Summary};
