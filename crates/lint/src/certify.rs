//! Debug-build pass certifier.
//!
//! [`certified_pass`] wraps a network transformation with a lint run
//! before and after, and [`certified_decomposition`] does the same for
//! network decomposition (adding the `DEC*` rules on its result). In debug
//! builds (tests, development) a pass that *introduces* an `Error`-severity
//! finding panics at its source with the rendered report — instead of
//! corrupting state that only fails three stages later in the mapper. In
//! release builds both compile to plain calls with zero overhead.

#[cfg(debug_assertions)]
use crate::{lint_decomposed, lint_network, LintConfig};
use lowpower_core::decomp::DecomposedNetwork;
use netlist::Network;

/// Panic when `net` already carries `Error`-severity findings before
/// `what` runs.
#[cfg(debug_assertions)]
fn assert_clean_input(what: &str, net: &Network) {
    let before = lint_network(net, &LintConfig::new());
    assert!(
        !before.has_errors(),
        "lint: input to {what} already violates invariants\n{}",
        before.render_text()
    );
}

/// Run `pass` over `net`, linting before and after in debug builds.
///
/// # Panics
/// In debug builds: panics if the input network already carries
/// `Error`-severity findings (the caller handed the pass a corrupt
/// network) or if the pass introduces any (the pass is buggy). Release
/// builds never lint and never panic.
pub fn certified_pass<R>(
    label: &str,
    net: &mut Network,
    pass: impl FnOnce(&mut Network) -> R,
) -> R {
    #[cfg(debug_assertions)]
    assert_clean_input(&format!("pass `{label}`"), net);
    let result = pass(net);
    #[cfg(debug_assertions)]
    {
        let after = lint_network(net, &LintConfig::new());
        assert!(
            !after.has_errors(),
            "lint: pass `{label}` introduced invariant violations\n{}",
            after.render_text()
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = label;
    result
}

/// Run `decompose` on `net`, linting the input network first and the full
/// decomposition result (network rules plus `DEC*` rules) afterwards in
/// debug builds.
///
/// # Panics
/// In debug builds, panics when either side carries `Error`-severity
/// findings; see [`certified_pass`].
pub fn certified_decomposition(
    net: &Network,
    decompose: impl FnOnce(&Network) -> DecomposedNetwork,
) -> DecomposedNetwork {
    #[cfg(debug_assertions)]
    assert_clean_input("decomposition", net);
    let decomposed = decompose(net);
    #[cfg(debug_assertions)]
    {
        let after = lint_decomposed(&decomposed, &LintConfig::new());
        assert!(
            !after.has_errors(),
            "lint: decomposition introduced invariant violations\n{}",
            after.render_text()
        );
    }
    decomposed
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::parse_blif;
    #[cfg(debug_assertions)]
    use netlist::Sop;

    fn net() -> Network {
        parse_blif(
            ".model t\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
             .names x c f\n10 1\n01 1\n.end\n",
        )
        .unwrap()
        .network
    }

    #[test]
    fn certified_passes_run_clean() {
        let mut n = net();
        certified_pass("rugged_like", &mut n, logicopt::rugged_like);
        let mut n = net();
        certified_pass("sweep", &mut n, logicopt::sweep::sweep);
        certified_pass("simplify", &mut n, logicopt::simplify::simplify_network);
        certified_pass("eliminate", &mut n, |n| {
            logicopt::eliminate::eliminate(n, -1)
        });
        certified_pass("extract", &mut n, |n| logicopt::extract(n, 0));
        let style = lowpower_core::decomp::DecompStyle::MinPower;
        certified_decomposition(&n, |n| {
            lowpower_core::decomp::decompose_network(
                n,
                &lowpower_core::decomp::DecompOptions::new(style),
            )
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "introduced invariant violations")]
    fn certifier_catches_a_corrupting_pass() {
        let mut n = net();
        certified_pass("evil", &mut n, |n| {
            let x = n.find("x").unwrap();
            let a = n.find("a").unwrap();
            // Raw overwrite: duplicate fanin + broken fanout symmetry.
            n.corrupt_function_for_test(x, vec![a, a], Sop::parse(2, &["11"]).unwrap());
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already violates invariants")]
    fn certifier_rejects_corrupt_input() {
        let mut n = net();
        let x = n.find("x").unwrap();
        let a = n.find("a").unwrap();
        n.corrupt_function_for_test(x, vec![a, a], Sop::parse(2, &["11"]).unwrap());
        certified_pass("any", &mut n, |_| ());
    }
}
