//! Flow-level lint gate: every method of the paper's experiment, on every
//! circuit of the benchmark suite, must come through the flow's lint
//! checkpoints with zero Error-severity findings at [`LintLevel::Deny`].
//! (Deny turns any Error finding into a hard `FlowError::Lint`, so merely
//! completing `optimize_checked` and `run_methods` proves the gate; we
//! additionally assert that the surviving warn-level findings of the
//! methods really carry no errors.)

use genlib::builtin::lib2_like;
use lowpower::flow::{optimize_checked, run_methods, FlowConfig, Method};
use lowpower::lint::{lint_network, LintConfig, LintLevel};

fn lint_all_methods(net: &netlist::Network) {
    let lib = lib2_like();
    let cfg = FlowConfig {
        sim_vectors: 20,
        lint: LintLevel::Deny,
        ..FlowConfig::default()
    };
    let raw = lint_network(net, &LintConfig::new());
    assert!(
        !raw.has_errors(),
        "{}: parsed network fails lint:\n{}",
        net.name(),
        raw.render_text()
    );
    let (optimized, _) =
        optimize_checked(net, &cfg).unwrap_or_else(|e| panic!("{}: {e}", net.name()));
    let results = run_methods(&[optimized], &lib, &cfg, 1).unwrap_or_else(|e| panic!("{e}"));
    for (m, r) in Method::ALL.into_iter().zip(&results) {
        for f in &r.lint_findings {
            assert_eq!(
                f.report.error_count(),
                0,
                "{} method {m} stage {}: errors slipped past deny:\n{}",
                net.name(),
                f.stage,
                f.report.render_text()
            );
        }
    }
}

macro_rules! suite_lint_clean {
    ($($test:ident => $circuit:literal),+ $(,)?) => {
        $(
            #[test]
            fn $test() {
                lint_all_methods(&benchgen::suite_circuit($circuit));
            }
        )+
    };
}

suite_lint_clean! {
    s208_all_methods_lint_clean => "s208",
    s344_all_methods_lint_clean => "s344",
    s382_all_methods_lint_clean => "s382",
    s444_all_methods_lint_clean => "s444",
    s510_all_methods_lint_clean => "s510",
    s526_all_methods_lint_clean => "s526",
    s641_all_methods_lint_clean => "s641",
    s713_all_methods_lint_clean => "s713",
    s820_all_methods_lint_clean => "s820",
    cm42a_all_methods_lint_clean => "cm42a",
    x1_all_methods_lint_clean => "x1",
    x2_all_methods_lint_clean => "x2",
    x3_all_methods_lint_clean => "x3",
    ttt2_all_methods_lint_clean => "ttt2",
    apex7_all_methods_lint_clean => "apex7",
    alu2_all_methods_lint_clean => "alu2",
    ex2_all_methods_lint_clean => "ex2",
}
