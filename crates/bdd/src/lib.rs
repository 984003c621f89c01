//! A reduced ordered binary decision diagram (ROBDD) package.
//!
//! Hash-consed unique table, memoized `ite`, and the signal-probability
//! traversal of Najm (eq. 2 of the paper): for independent inputs,
//! `P(f=1) = P(x)·P(f_x) + (1−P(x))·P(f_x̄)`, evaluated by one memoized
//! depth-first sweep of one function's DAG, or for every node of the
//! manager at once by one pass in creation order.
//!
//! # Example
//!
//! ```
//! use bdd::BddManager;
//!
//! let mut m = BddManager::new(2);
//! let a = m.var(0);
//! let b = m.var(1);
//! let f = m.and(a, b);
//! // P(a·b = 1) with P(a)=0.3, P(b)=0.4
//! let p = m.probability(f, &[0.3, 0.4]);
//! assert!((p - 0.12).abs() < 1e-12);
//! ```

pub mod hash;
pub mod manager;
pub mod prob;

pub use manager::{Bdd, BddManager};
