//! Property-based self-tests of the lint subsystem (proptest).
//!
//! * Every logicopt pass, run on any generated network, must leave it
//!   lint-clean.
//! * Decomposition of any generated network must be lint-clean, including
//!   the DEC arity/depth rules.
//! * The full flow at [`LintLevel::Deny`] must complete for every method
//!   on any generated network — i.e. no stage ever produces an
//!   Error-severity finding.

use genlib::builtin::lib2_like;
use lowpower::core::decomp::{decompose_network, DecompOptions, DecompStyle};
use lowpower::flow::{optimize, run_methods, FlowConfig};
use lowpower::lint::{lint_decomposed, lint_network, LintConfig, LintLevel};
use proptest::prelude::*;

fn gen_net(
    inputs: usize,
    outputs: usize,
    nodes: usize,
    max_fanin: usize,
    seed: u64,
) -> netlist::Network {
    benchgen::random_network(&benchgen::RandomNetConfig {
        inputs,
        outputs,
        nodes,
        max_fanin,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The optimize passes preserve structural invariants: the network is
    /// lint-clean after each pass, in any order of application.
    #[test]
    fn passes_leave_networks_lint_clean(
        inputs in 3usize..8,
        outputs in 1usize..5,
        nodes in 4usize..30,
        seed in 0u64..1_000_000,
    ) {
        let cfg = LintConfig::new();
        let mut net = gen_net(inputs, outputs, nodes, 3, seed);
        prop_assert!(!lint_network(&net, &cfg).has_errors());

        logicopt::sweep::sweep(&mut net);
        prop_assert!(!lint_network(&net, &cfg).has_errors(), "sweep broke invariants");
        logicopt::simplify::simplify_network(&mut net);
        prop_assert!(!lint_network(&net, &cfg).has_errors(), "simplify broke invariants");
        logicopt::eliminate::eliminate(&mut net, 0);
        prop_assert!(!lint_network(&net, &cfg).has_errors(), "eliminate broke invariants");
        logicopt::extract(&mut net, 4);
        prop_assert!(!lint_network(&net, &cfg).has_errors(), "extract broke invariants");
        logicopt::rugged_like(&mut net);
        prop_assert!(!lint_network(&net, &cfg).has_errors(), "rugged broke invariants");
    }

    /// Decomposition output is lint-clean for every style: all-2-input
    /// arity (DEC001), consistent depth bookkeeping (DEC003), and the
    /// underlying network invariants.
    #[test]
    fn decomposition_is_lint_clean(
        inputs in 3usize..8,
        outputs in 1usize..4,
        nodes in 4usize..25,
        seed in 0u64..1_000_000,
        style_ix in 0usize..3,
    ) {
        let style = [
            DecompStyle::Conventional,
            DecompStyle::MinPower,
            DecompStyle::BoundedMinPower,
        ][style_ix];
        let net = gen_net(inputs, outputs, nodes, 4, seed);
        let decomposed = decompose_network(&net, &DecompOptions::new(style));
        let report = lint_decomposed(&decomposed, &LintConfig::new());
        prop_assert!(
            !report.has_errors(),
            "{style:?} decomposition fails lint:\n{}",
            report.render_text()
        );
    }
}

proptest! {
    // The full flow is expensive (6 methods x decompose + BDD activity +
    // curve mapping per case), so fewer cases here.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// All six flow methods complete at `LintLevel::Deny` on generated
    /// networks: no stage checkpoint ever reports an Error finding.
    #[test]
    fn all_methods_lint_clean_under_deny(
        inputs in 4usize..8,
        outputs in 2usize..5,
        nodes in 8usize..30,
        seed in 0u64..1_000_000,
    ) {
        let net = gen_net(inputs, outputs, nodes, 3, seed);
        let lib = lib2_like();
        let cfg = FlowConfig {
            sim_vectors: 10,
            lint: LintLevel::Deny,
            ..FlowConfig::default()
        };
        let results = run_methods(&[optimize(&net)], &lib, &cfg, 1)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for f in results.iter().flat_map(|r| &r.lint_findings) {
            prop_assert_eq!(f.report.error_count(), 0);
        }
    }
}
