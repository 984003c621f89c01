//! Deterministic size guard for the static depth-first BDD variable order.
//!
//! `x3` is the suite's BDD-hostile circuit: under the declared input order
//! its optimized network's global BDDs take 364 836 nodes. The depth-first
//! order keeps them, and the equivalence check against the unoptimized
//! circuit, an order of magnitude smaller. These counts do not depend on
//! the host, so a regression of the order shows up here as a hard failure.

use activity::NetworkBdds;
use lowpower::flow::optimize;
use lowpower::verify::{check_equiv, Backend, Verdict, VerifyLevel, VerifyOptions};

#[test]
fn x3_global_bdds_stay_small() {
    let optimized = optimize(&benchgen::suite_circuit("x3"));
    let bdds = NetworkBdds::build(&optimized, &vec![0.5; optimized.inputs().len()]);
    let nodes = bdds.manager().node_count();
    assert!(nodes < 50_000, "x3 global BDDs take {nodes} nodes");
}

#[test]
fn x3_equivalence_proves_within_a_small_manager() {
    let x3 = benchgen::suite_circuit("x3");
    let optimized = optimize(&x3);
    // The check falls back to simulation as soon as the manager outgrows
    // the budget, so a BDD verdict bounds the high-water mark.
    let opts = VerifyOptions {
        bdd_node_budget: 400_000,
        ..VerifyOptions::at_level(VerifyLevel::Full)
    };
    match check_equiv(&x3, &optimized, &opts).unwrap() {
        Verdict::Equivalent(r) => {
            assert_eq!(r.backend, Backend::Bdd);
            assert!(!r.bdd_fallback);
        }
        other => panic!("expected a BDD proof, got {other:?}"),
    }
}
