//! End-to-end integration tests: every method of the paper's experiment
//! must produce a mapped netlist that is functionally equivalent to the
//! source network, meets basic sanity on area/delay/power, and orders the
//! methods the way the paper's comparisons require.

use genlib::builtin::lib2_like;
use lowpower::flow::{
    optimize, run_method, run_methods, shared_required_time, strip_constant_outputs, FlowConfig,
    Method,
};
use netlist::Network;
use rand::{Rng, SeedableRng};

/// Check the mapped netlist against the original network on random vectors,
/// accounting for constant outputs that were stripped before mapping.
fn check_equivalence(original: &Network, result: &lowpower::flow::MethodResult) {
    let lib = lib2_like();
    let mut rng = rand::rngs::StdRng::seed_from_u64(12345);
    let n = original.inputs().len();
    let vectors = if n <= 10 { 1 << n } else { 512 };
    // Build the name order of mapped outputs.
    let mapped_outputs: Vec<&str> = result
        .mapped
        .outputs
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    for v in 0..vectors {
        let pis: Vec<bool> = if n <= 10 {
            (0..n).map(|i| v >> i & 1 == 1).collect()
        } else {
            (0..n).map(|_| rng.gen_bool(0.5)).collect()
        };
        let expect = original.eval_outputs(&pis);
        let got = result.mapped.eval_outputs(&lib, &pis);
        for (gi, name) in mapped_outputs.iter().enumerate() {
            let oi = original
                .outputs()
                .iter()
                .position(|(on, _)| on == name)
                .unwrap_or_else(|| panic!("output {name} not in original"));
            assert_eq!(got[gi], expect[oi], "output `{name}` differs at {pis:?}");
        }
    }
}

fn run_all_methods(net: &Network) {
    let lib = lib2_like();
    let cfg = FlowConfig {
        sim_vectors: 50,
        ..FlowConfig::default()
    };
    let optimized = optimize(net);
    let results = run_methods(std::slice::from_ref(&optimized), &lib, &cfg, 1)
        .unwrap_or_else(|e| panic!("{e}"));
    for (m, r) in Method::ALL.into_iter().zip(&results) {
        assert!(r.report.area > 0.0, "method {m}: empty mapping");
        assert!(r.report.delay > 0.0);
        assert!(r.report.power_uw >= 0.0);
        assert!(r.glitch_power_uw >= 0.0);
        check_equivalence(&optimized, r);
    }
}

#[test]
fn cm42a_all_methods_equivalent() {
    run_all_methods(&benchgen::suite_circuit("cm42a"));
}

#[test]
fn x2_all_methods_equivalent() {
    run_all_methods(&benchgen::suite_circuit("x2"));
}

#[test]
fn alu_all_methods_equivalent() {
    run_all_methods(&benchgen::structured::alu(3));
}

#[test]
fn adder_all_methods_equivalent() {
    run_all_methods(&benchgen::structured::ripple_adder(4));
}

#[test]
fn parity_all_methods_equivalent() {
    run_all_methods(&benchgen::structured::parity(6));
}

#[test]
fn mux_tree_all_methods_equivalent() {
    run_all_methods(&benchgen::structured::mux_tree(3));
}

#[test]
fn random_suite_circuits_equivalent() {
    for name in ["s208", "s344"] {
        run_all_methods(&benchgen::suite_circuit(name));
    }
}

#[test]
fn optimization_preserves_function_on_suite() {
    for name in ["cm42a", "x2", "s208"] {
        let net = benchgen::suite_circuit(name);
        let opt = optimize(&net);
        opt.check().unwrap();
        let n = net.inputs().len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..256 {
            let pis: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            assert_eq!(
                net.eval_outputs(&pis),
                opt.eval_outputs(&pis),
                "{name} diverged"
            );
        }
    }
}

#[test]
fn pd_map_power_not_worse_within_suite_geomean() {
    // Over a handful of circuits, the geometric-mean power of pd-map (IV)
    // must not exceed ad-map (I) — the paper's headline direction.
    let lib = lib2_like();
    let mut log_ratio = 0.0;
    let mut count = 0;
    for name in ["cm42a", "x2", "s208", "alu2"] {
        let net = benchgen::suite_circuit(name);
        let optimized = optimize(&net);
        let cfg = FlowConfig {
            required_time: Some(shared_required_time(&optimized, &lib).unwrap()),
            sim_vectors: 400,
            ..FlowConfig::default()
        };
        let i = run_method(&optimized, &lib, Method::I, &cfg).unwrap();
        let iv = run_method(&optimized, &lib, Method::IV, &cfg).unwrap();
        log_ratio += (iv.glitch_power_uw / i.glitch_power_uw).ln();
        count += 1;
    }
    let geo = (log_ratio / count as f64).exp();
    assert!(
        geo <= 1.02,
        "pd-map geometric-mean power ratio {geo:.3} vs ad-map"
    );
}

#[test]
fn domino_models_run_end_to_end() {
    // The decomposition theory of Section 2 is proved for domino dynamic
    // CMOS; the whole flow must run under both block types and produce
    // functionally correct, phase-sensitive results.
    use activity::TransitionModel;
    let lib = lib2_like();
    let net = benchgen::structured::alu(2);
    let optimized = optimize(&net);
    let mut powers = Vec::new();
    for model in [TransitionModel::DominoP, TransitionModel::DominoN] {
        let cfg = FlowConfig {
            model,
            sim_vectors: 50,
            ..FlowConfig::default()
        };
        let r = run_method(&optimized, &lib, Method::V, &cfg)
            .unwrap_or_else(|e| panic!("domino flow failed: {e}"));
        check_equivalence(&optimized, &r);
        assert!(r.report.power_uw > 0.0);
        powers.push(r.report.power_uw);
    }
    // p-type charges on 1s, n-type on 0s: the two powers must differ.
    assert!((powers[0] - powers[1]).abs() > 1e-6);
}

#[test]
fn correlated_flow_runs_end_to_end() {
    let lib = lib2_like();
    let net = benchgen::structured::alu(2);
    let optimized = optimize(&net);
    let cfg = FlowConfig {
        use_correlations: true,
        sim_vectors: 50,
        ..FlowConfig::default()
    };
    let r = run_method(&optimized, &lib, Method::V, &cfg).expect("correlated flow");
    check_equivalence(&optimized, &r);
}

#[test]
fn strip_constant_outputs_behaviour() {
    let net = netlist::parse_blif(
        ".model t\n.inputs a\n.outputs f one\n.names one\n1\n.names a f\n0 1\n.end\n",
    )
    .unwrap()
    .network;
    let (stripped, consts) = strip_constant_outputs(&net);
    assert_eq!(consts, vec![("one".to_string(), true)]);
    assert_eq!(stripped.outputs().len(), 1);
    assert_eq!(stripped.eval_outputs(&[true]), vec![false]);
}

#[test]
fn bounded_decomposition_never_slower_than_conventional() {
    use lowpower::core::decomp::{decompose_network, DecompOptions, DecompStyle};
    for name in ["x2", "s208", "cm42a"] {
        let net = optimize(&benchgen::suite_circuit(name));
        let conv = decompose_network(&net, &DecompOptions::new(DecompStyle::Conventional));
        let bh = decompose_network(&net, &DecompOptions::new(DecompStyle::BoundedMinPower));
        assert!(
            bh.depth <= conv.depth,
            "{name}: bounded depth {} vs conventional {}",
            bh.depth,
            conv.depth
        );
    }
}
