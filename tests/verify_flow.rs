//! Flow-level verification: every method of the paper's experiment, on
//! every circuit of the benchmark suite, must pass the `verify` crate's
//! equivalence checkpoints at [`VerifyLevel::Full`] — the optimize,
//! decompose, and map stages are each proved (BDD, with simulation
//! fallback) function-preserving.

use genlib::builtin::lib2_like;
use lowpower::flow::{optimize_checked, run_methods, FlowConfig};
use lowpower::verify::VerifyLevel;

fn verify_all_methods(net: &netlist::Network) {
    let lib = lib2_like();
    let cfg = FlowConfig {
        sim_vectors: 50,
        verify: VerifyLevel::Full,
        ..FlowConfig::default()
    };
    let (optimized, _) =
        optimize_checked(net, &cfg).unwrap_or_else(|e| panic!("{}: {e}", net.name()));
    run_methods(&[optimized], &lib, &cfg, 1).unwrap_or_else(|e| panic!("{e}"));
}

macro_rules! suite_verified {
    ($($test:ident => $circuit:literal),+ $(,)?) => {
        $(
            #[test]
            fn $test() {
                verify_all_methods(&benchgen::suite_circuit($circuit));
            }
        )+
    };
}

suite_verified! {
    s208_all_methods_verified => "s208",
    s344_all_methods_verified => "s344",
    s382_all_methods_verified => "s382",
    s444_all_methods_verified => "s444",
    s510_all_methods_verified => "s510",
    s526_all_methods_verified => "s526",
    s641_all_methods_verified => "s641",
    s713_all_methods_verified => "s713",
    s820_all_methods_verified => "s820",
    cm42a_all_methods_verified => "cm42a",
    x1_all_methods_verified => "x1",
    x2_all_methods_verified => "x2",
    x3_all_methods_verified => "x3",
    ttt2_all_methods_verified => "ttt2",
    apex7_all_methods_verified => "apex7",
    alu2_all_methods_verified => "alu2",
    ex2_all_methods_verified => "ex2",
}
