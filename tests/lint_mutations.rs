//! Mutation tests of the lint rules: every rule must fire on a
//! deliberately injected violation, and must stay silent on the clean
//! fixture the violation was injected into. Violations that the safe
//! construction APIs refuse to build are injected through the
//! `#[doc(hidden)]` raw mutators (`corrupt_*_for_test`, `raw_for_test`)
//! or by direct field mutation of the all-public result structs.

use activity::TransitionModel;
use genlib::{Expr, Gate, Library, Pin};
use lint::{
    lint_activity_slices, lint_decomposed, lint_library, lint_mapped, lint_network, LintConfig,
    LintReport,
};
use lowpower::core::decomp::{DecomposedNetwork, SourceNode};
use lowpower::core::map::mapper::{MappedInstance, MappedNetwork, NetRef};
use netlist::{parse_blif, Network, Sop};

fn cfg() -> LintConfig {
    LintConfig::new()
}

/// Assert `rule` fired at least once and quote the report on failure.
fn assert_fires(report: &LintReport, rule: &str) {
    assert!(
        report.by_rule(rule).count() >= 1,
        "{rule} did not fire:\n{}",
        report.render_text()
    );
}

// ---------------------------------------------------------------- networks

fn buf() -> Sop {
    Sop::parse(1, &["1"]).unwrap()
}

/// a,b,c -> x = ab -> f = x XOR c (the same clean fixture the unit tests
/// use).
fn clean_net() -> Network {
    parse_blif(
        ".model t\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
         .names x c f\n10 1\n01 1\n.end\n",
    )
    .unwrap()
    .network
}

#[test]
fn clean_network_baseline_is_clean() {
    let report = lint_network(&clean_net(), &cfg());
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn net001_fires_on_injected_cycle() {
    let mut net = Network::new("t");
    let a = net.add_input("a").unwrap();
    let x = net.add_logic("x", vec![a], buf()).unwrap();
    let y = net.add_logic("y", vec![x], buf()).unwrap();
    net.add_output("f", y);
    // Rewire x's fanin to y while keeping links symmetric, so only the
    // cycle itself is wrong: x <-> y.
    net.corrupt_function_for_test(x, vec![y], buf());
    net.corrupt_fanouts_for_test(a, vec![]);
    net.corrupt_fanouts_for_test(y, vec![x]);
    let report = lint_network(&net, &cfg());
    assert_fires(&report, "NET001");
    assert!(report.has_errors());
    let diag = report.by_rule("NET001").next().unwrap();
    assert!(
        diag.message.contains("->"),
        "cycle path not named: {}",
        diag.message
    );
}

#[test]
fn net002_fires_on_missing_fanout_edge() {
    let mut net = clean_net();
    let a = net.find("a").unwrap();
    net.corrupt_fanouts_for_test(a, vec![]); // a drives x, but says it doesn't
    let report = lint_network(&net, &cfg());
    assert_fires(&report, "NET002");
    assert!(report.has_errors());
}

#[test]
fn net003_fires_on_duplicate_fanin() {
    let mut net = clean_net();
    let a = net.find("a").unwrap();
    let x = net.find("x").unwrap();
    // add_logic would merge the duplicate; the raw mutator does not.
    net.corrupt_function_for_test(x, vec![a, a], Sop::parse(2, &["11"]).unwrap());
    let report = lint_network(&net, &cfg());
    assert_fires(&report, "NET003");
    assert!(report.has_errors());
}

#[test]
fn net004_fires_on_dangling_node() {
    let mut net = clean_net();
    let a = net.find("a").unwrap();
    net.add_logic("stray", vec![a], buf()).unwrap();
    assert_fires(&lint_network(&net, &cfg()), "NET004");
}

#[test]
fn net005_fires_on_non_minimal_cover() {
    let mut net = clean_net();
    let x = net.find("x").unwrap();
    let fanins = net.node(x).fanins().to_vec();
    // Two identical cubes: containment removal would drop one.
    net.corrupt_function_for_test(x, fanins, Sop::parse(2, &["11", "11"]).unwrap());
    assert_fires(&lint_network(&net, &cfg()), "NET005");
}

#[test]
fn net006_fires_on_unreachable_logic() {
    let mut net = clean_net();
    let a = net.find("a").unwrap();
    let u1 = net.add_logic("u1", vec![a], buf()).unwrap();
    net.add_logic("u2", vec![u1], buf()).unwrap();
    let report = lint_network(&net, &cfg());
    // u1 drives u2, so it is not dangling — but neither reaches an output.
    assert_eq!(
        report.by_rule("NET006").count(),
        2,
        "{}",
        report.render_text()
    );
}

#[test]
fn net007_fires_on_width_mismatch() {
    let mut net = clean_net();
    let a = net.find("a").unwrap();
    let x = net.find("x").unwrap();
    net.corrupt_function_for_test(x, vec![a], Sop::parse(2, &["11"]).unwrap());
    let report = lint_network(&net, &cfg());
    assert_fires(&report, "NET007");
    assert!(report.has_errors());
}

#[test]
fn net008_fires_on_output_to_dead_node() {
    let mut net = clean_net();
    let a = net.find("a").unwrap();
    let tmp = net.add_logic("tmp", vec![a], buf()).unwrap();
    net.remove_node(tmp);
    net.add_output("ghost", tmp); // no validation on add_output
    let report = lint_network(&net, &cfg());
    assert_fires(&report, "NET008");
    assert!(report.has_errors());
}

// ------------------------------------------------------- mapped netlists

fn pin(name: &str) -> Pin {
    Pin {
        name: name.to_string(),
        input_cap: 1.0,
        max_load: 10.0,
        intrinsic: 1.0,
        drive: 1.0,
    }
}

/// Two-gate library: inv (#0) and and2 (#1), electrically sane.
fn tiny_lib() -> Library {
    let inv = Gate::raw_for_test(
        "inv".to_string(),
        1.0,
        "o".to_string(),
        vec!["a".to_string()],
        Expr::Not(Box::new(Expr::Var(0))),
        vec![pin("a")],
    );
    let and2 = Gate::raw_for_test(
        "and2".to_string(),
        2.0,
        "o".to_string(),
        vec!["a".to_string(), "b".to_string()],
        Expr::And(vec![Expr::Var(0), Expr::Var(1)]),
        vec![pin("a"), pin("b")],
    );
    Library::from_gates_for_test("tiny".to_string(), vec![inv, and2])
}

/// f = and2(a, b): one instance, fully referenced, probabilities sane.
fn clean_mapped() -> MappedNetwork {
    MappedNetwork {
        instances: vec![MappedInstance {
            name: "g0".to_string(),
            gate: 1,
            inputs: vec![NetRef::Pi(0), NetRef::Pi(1)],
            p_one: 0.25,
            source: "f".to_string(),
        }],
        pi_names: vec!["a".to_string(), "b".to_string()],
        pi_p_one: vec![0.5, 0.5],
        outputs: vec![("f".to_string(), NetRef::Inst(0))],
        estimated_fastest: 1.0,
        estimated_required: 1.0,
    }
}

#[test]
fn clean_mapped_baseline_is_clean() {
    let report = lint_mapped(&clean_mapped(), &tiny_lib(), 1.0, &cfg());
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn map001_fires_on_forward_reference() {
    let mut m = clean_mapped();
    m.instances[0].inputs[0] = NetRef::Inst(0); // self-reference
    let report = lint_mapped(&m, &tiny_lib(), 1.0, &cfg());
    assert_fires(&report, "MAP001");
    assert!(report.has_errors());
}

#[test]
fn map002_fires_on_pin_arity_mismatch() {
    let mut m = clean_mapped();
    m.instances[0].gate = 0; // inv has 1 pin, instance wires 2 inputs
    let report = lint_mapped(&m, &tiny_lib(), 1.0, &cfg());
    assert_fires(&report, "MAP002");
    assert!(report.has_errors());

    let mut m = clean_mapped();
    m.instances[0].gate = 99; // out of range
    assert_fires(&lint_mapped(&m, &tiny_lib(), 1.0, &cfg()), "MAP002");
}

#[test]
fn map003_fires_on_dead_instance() {
    let mut m = clean_mapped();
    m.instances.push(MappedInstance {
        name: "g1".to_string(),
        gate: 0,
        inputs: vec![NetRef::Pi(0)],
        p_one: 0.5,
        source: "g1".to_string(),
    }); // drives nothing
    assert_fires(&lint_mapped(&m, &tiny_lib(), 1.0, &cfg()), "MAP003");
}

#[test]
fn map004_fires_on_bad_probability() {
    let mut m = clean_mapped();
    m.pi_p_one[0] = 1.5;
    let report = lint_mapped(&m, &tiny_lib(), 1.0, &cfg());
    assert_fires(&report, "MAP004");
    assert!(report.has_errors());

    let mut m = clean_mapped();
    m.instances[0].p_one = f64::NAN;
    assert_fires(&lint_mapped(&m, &tiny_lib(), 1.0, &cfg()), "MAP004");
}

#[test]
fn map005_fires_on_overload() {
    // max_load is 10.0; a 100.0 primary-output load breaks the rating.
    let report = lint_mapped(&clean_mapped(), &tiny_lib(), 100.0, &cfg());
    assert_fires(&report, "MAP005");
}

#[test]
fn map006_fires_on_duplicate_net_name() {
    let mut m = clean_mapped();
    m.instances[0].name = "a".to_string(); // collides with PI `a`
    let report = lint_mapped(&m, &tiny_lib(), 1.0, &cfg());
    assert_fires(&report, "MAP006");
    assert!(report.has_errors());
}

// ------------------------------------------------------- decompositions

/// A hand-built, already-2-input "decomposition" with honest bookkeeping.
fn clean_decomposed() -> DecomposedNetwork {
    let mut net = Network::new("d");
    let a = net.add_input("a").unwrap();
    let b = net.add_input("b").unwrap();
    let f = net
        .add_logic("f", vec![a, b], Sop::parse(2, &["11"]).unwrap())
        .unwrap();
    net.add_output("f", f);
    let depth = netlist::traversal::depth(&net);
    DecomposedNetwork {
        network: net,
        depth,
        sources: vec![SourceNode {
            id: f,
            name: "f".to_string(),
            root: f,
            level: 1,
            balanced: 1,
            bound: None,
        }],
        origin: Vec::new(),
    }
}

#[test]
fn clean_decomposed_baseline_is_clean() {
    let report = lint_decomposed(&clean_decomposed(), &cfg());
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn dec001_fires_on_wide_gate() {
    let mut net = Network::new("d");
    let a = net.add_input("a").unwrap();
    let b = net.add_input("b").unwrap();
    let c = net.add_input("c").unwrap();
    let f = net
        .add_logic("f", vec![a, b, c], Sop::parse(3, &["111"]).unwrap())
        .unwrap();
    net.add_output("f", f);
    let depth = netlist::traversal::depth(&net);
    let decomp = DecomposedNetwork {
        network: net,
        depth,
        sources: Vec::new(),
        origin: Vec::new(),
    };
    let report = lint_decomposed(&decomp, &cfg());
    assert_fires(&report, "DEC001");
    assert!(report.has_errors());
}

#[test]
fn dec002_fires_on_violated_bound() {
    let mut d = clean_decomposed();
    d.sources[0].level = 5;
    d.sources[0].balanced = 5;
    d.sources[0].bound = Some(2);
    assert_fires(&lint_decomposed(&d, &cfg()), "DEC002");
}

#[test]
fn dec003_fires_on_stale_depth() {
    let mut d = clean_decomposed();
    d.depth += 7;
    let report = lint_decomposed(&d, &cfg());
    assert_fires(&report, "DEC003");
    assert!(report.has_errors());
}

// ------------------------------------------------------------- libraries

#[test]
fn clean_library_baseline_is_clean() {
    let report = lint_library(&tiny_lib(), &cfg());
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn lib001_fires_on_pin_count_mismatch() {
    let bad = Gate::raw_for_test(
        "and2".to_string(),
        2.0,
        "o".to_string(),
        vec!["a".to_string(), "b".to_string()],
        Expr::And(vec![Expr::Var(0), Expr::Var(1)]),
        vec![pin("a")], // one pin record for two inputs
    );
    let lib = Library::from_gates_for_test("bad".to_string(), vec![bad]);
    let report = lint_library(&lib, &cfg());
    assert_fires(&report, "LIB001");
    assert!(report.has_errors());

    let oob = Gate::raw_for_test(
        "buf".to_string(),
        1.0,
        "o".to_string(),
        vec!["a".to_string()],
        Expr::Var(3), // references input 3 of 1
        vec![pin("a")],
    );
    let lib = Library::from_gates_for_test("bad2".to_string(), vec![oob]);
    assert_fires(&lint_library(&lib, &cfg()), "LIB001");
}

#[test]
fn lib002_fires_on_negative_electricals() {
    let mut p = pin("a");
    p.input_cap = -1.0;
    let bad = Gate::raw_for_test(
        "inv".to_string(),
        1.0,
        "o".to_string(),
        vec!["a".to_string()],
        Expr::Not(Box::new(Expr::Var(0))),
        vec![p],
    );
    let lib = Library::from_gates_for_test("bad".to_string(), vec![bad]);
    let report = lint_library(&lib, &cfg());
    assert_fires(&report, "LIB002");
    assert!(report.has_errors());
}

#[test]
fn lib003_fires_on_missing_inverter() {
    let and2 = Gate::raw_for_test(
        "and2".to_string(),
        2.0,
        "o".to_string(),
        vec!["a".to_string(), "b".to_string()],
        Expr::And(vec![Expr::Var(0), Expr::Var(1)]),
        vec![pin("a"), pin("b")],
    );
    let lib = Library::from_gates_for_test("noinv".to_string(), vec![and2]);
    assert_fires(&lint_library(&lib, &cfg()), "LIB003");
}

// -------------------------------------------------------------- activity

#[test]
fn clean_activity_baseline_is_clean() {
    let report = lint_activity_slices(
        &[0.0, 0.25, 0.5, 1.0],
        &[0.0, 0.375, 0.5, 0.0],
        TransitionModel::StaticCmos,
        &cfg(),
    );
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn act001_fires_on_bad_probability() {
    let report = lint_activity_slices(&[1.5], &[0.0], TransitionModel::StaticCmos, &cfg());
    assert_fires(&report, "ACT001");
    assert!(report.has_errors());
    // ACT002's bound is meaningless for an invalid p; it must stay silent.
    assert_eq!(report.by_rule("ACT002").count(), 0);
}

#[test]
fn act002_fires_on_activity_above_model_bound() {
    // Static CMOS caps switching at 2p(1-p) = 0.5 for p = 0.5.
    let report = lint_activity_slices(&[0.5], &[0.9], TransitionModel::StaticCmos, &cfg());
    assert_fires(&report, "ACT002");
    assert!(report.has_errors());

    // A domino n-type gate with p = 0.8 toggles at most 1 - p = 0.2.
    let report = lint_activity_slices(&[0.8], &[0.5], TransitionModel::DominoN, &cfg());
    assert_fires(&report, "ACT002");

    // Mismatched slice lengths are also an ACT002 finding.
    let report = lint_activity_slices(&[0.5, 0.5], &[0.3], TransitionModel::StaticCmos, &cfg());
    assert_fires(&report, "ACT002");
}
