//! The obs determinism contract, end to end.
//!
//! Everything the obs layer counts — counters, gauges, histograms, span
//! counts — must be a pure function of the work performed: byte-identical
//! across thread counts and repeated runs once wall-time fields are
//! stripped. These tests pin that contract over full flow runs, plus the
//! structural guarantees of the sinks:
//!
//! * 3 suite circuits × all 6 paper methods: the timing-stripped metrics
//!   snapshot is byte-identical at `sim_threads = 1` and `4`, and across
//!   repeated runs;
//! * a full flow run's JSONL stream and Chrome trace pass the strict
//!   checkers in `obs::check`, the stream's stripped snapshot equals
//!   the report's own timing-free snapshot, and its note events are the
//!   QoR ledger's snapshot lines;
//! * `run_flow` and `run_method` record exactly one `verify` span per
//!   transforming stage and one `lint` span per stage, in stage order, and
//!   none when both checks are off;
//! * spans opened inside `par::scope_map` workers always splice back into
//!   a well-formed tree under the span open at the fork point, for
//!   arbitrary item counts and thread counts (proptest).

use genlib::builtin::lib2_like;
use lowpower::flow::{optimize, run_flow, run_method, FlowConfig, Method};
use lowpower::lint::LintLevel;
use lowpower::obs;
use lowpower::obs::check::{check_chrome, check_jsonl, parse_json, strip_timing};
use lowpower::obs::{ObsMode, SpanNode};
use lowpower::verify::VerifyLevel;
use proptest::prelude::*;

/// Run one method under a recording session and return the
/// timing-stripped metrics snapshot.
fn stripped_snapshot(
    optimized: &netlist::Network,
    lib: &genlib::Library,
    m: Method,
    threads: usize,
) -> String {
    let cfg = FlowConfig {
        sim_vectors: 256,
        sim_threads: threads,
        ..FlowConfig::default()
    };
    let session = obs::Session::start();
    run_method(optimized, lib, m, &cfg).expect("flow runs");
    session.finish().snapshot_json(false)
}

#[test]
fn snapshots_thread_and_repeat_invariant() {
    let lib = lib2_like();
    for name in ["cm42a", "x2", "s208"] {
        let net = benchgen::suite_circuit(name);
        let optimized = optimize(&net);
        for m in Method::ALL {
            let serial = stripped_snapshot(&optimized, &lib, m, 1);
            let parallel = stripped_snapshot(&optimized, &lib, m, 4);
            let repeat = stripped_snapshot(&optimized, &lib, m, 4);
            assert_eq!(serial, parallel, "{name} {m}: 1 vs 4 threads diverged");
            assert_eq!(parallel, repeat, "{name} {m}: repeated runs diverged");
        }
    }
}

#[test]
fn full_flow_sinks_pass_strict_checkers() {
    let lib = lib2_like();
    let net = benchgen::suite_circuit("cm42a");
    let optimized = optimize(&net);
    let cfg = FlowConfig {
        sim_vectors: 256,
        sim_threads: 4,
        qor: true,
        ..FlowConfig::default()
    };
    let session = obs::Session::start();
    let r = run_method(&optimized, &lib, Method::VI, &cfg).expect("flow runs");
    let report = session.finish();

    let snap = check_jsonl(&report.render_jsonl()).expect("JSONL stream is well-formed");
    let timing_free = parse_json(&report.snapshot_json(false))
        .expect("snapshot is strict JSON")
        .render();
    assert_eq!(
        strip_timing(&snap),
        timing_free,
        "stream snapshot must strip to the report's timing-free snapshot"
    );

    check_chrome(&report.render_chrome()).expect("Chrome trace is well-formed");

    // The QoR ledger rides the stream: its note events are exactly the
    // ledger's snapshot lines, in recording order.
    let notes: Vec<String> = report
        .render_jsonl()
        .lines()
        .map(|line| parse_json(line).expect("stream line is strict JSON"))
        .filter(|event| event.get("type").and_then(|t| t.as_str()) == Some("note"))
        .map(|event| {
            event
                .get("text")
                .and_then(|t| t.as_str())
                .unwrap()
                .to_string()
        })
        .collect();
    let ledger = r.qor.expect("cfg.qor yields a ledger");
    let lines: Vec<String> = ledger
        .snapshots
        .iter()
        .map(|s| s.render_json(&ledger.circuit, &ledger.method))
        .collect();
    assert!(!lines.is_empty());
    assert_eq!(notes, lines, "obs note stream must carry the QoR ledger");
}

/// `(name, label)` of every `verify` and `lint` span, in preorder.
fn checkpoint_spans(nodes: &[SpanNode], out: &mut Vec<(String, String)>) {
    for n in nodes {
        if n.name == "verify" || n.name == "lint" {
            let label = n.label.clone().unwrap_or_default();
            out.push((n.name.to_string(), label));
        }
        checkpoint_spans(&n.children, out);
    }
}

#[test]
fn checkpoints_are_uniform_across_stages() {
    let lib = lib2_like();
    let net = benchgen::suite_circuit("cm42a");
    let optimized = optimize(&net);
    let spans = |from_raw: bool, verify: VerifyLevel, lint: LintLevel| {
        let cfg = FlowConfig {
            sim_vectors: 64,
            verify,
            lint,
            obs: ObsMode::Summary,
            ..FlowConfig::default()
        };
        let r = if from_raw {
            run_flow(&net, &lib, Method::VI, &cfg)
        } else {
            run_method(&optimized, &lib, Method::VI, &cfg)
        };
        let report = r
            .expect("flow runs")
            .obs
            .expect("the flow owns the session");
        let mut out = Vec::new();
        checkpoint_spans(&report.tree().expect("balanced spans"), &mut out);
        out
    };
    let pairs = |want: &[(&str, &str)]| -> Vec<(String, String)> {
        want.iter()
            .map(|(n, l)| (n.to_string(), l.to_string()))
            .collect()
    };
    for from_raw in [true, false] {
        assert_eq!(spans(from_raw, VerifyLevel::Off, LintLevel::Off), []);
    }
    assert_eq!(
        spans(true, VerifyLevel::Full, LintLevel::Check),
        pairs(&[
            ("lint", "library"),
            ("verify", "optimize"),
            ("lint", "optimize"),
            ("verify", "decompose"),
            ("lint", "decompose"),
            ("lint", "activity"),
            ("verify", "map"),
            ("lint", "map"),
        ])
    );
    assert_eq!(
        spans(false, VerifyLevel::Full, LintLevel::Check),
        pairs(&[
            ("lint", "library"),
            ("verify", "decompose"),
            ("lint", "decompose"),
            ("lint", "activity"),
            ("verify", "map"),
            ("lint", "map"),
        ])
    );
}

fn count_spans(nodes: &[SpanNode], name: &str) -> usize {
    nodes
        .iter()
        .map(|n| (n.name == name) as usize + count_spans(&n.children, name))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn scope_map_spans_close_into_well_formed_tree(
        items in 0usize..40,
        threads in 1usize..8,
        nested_bit in 0usize..2,
    ) {
        let nested = nested_bit == 1;
        let data: Vec<usize> = (0..items).collect();
        let session = obs::Session::start();
        {
            let _outer = obs::span!("outer");
            par::scope_map(threads, &data, |i, &x| {
                let _work = obs::span!("work");
                if nested {
                    let _inner = obs::span!("inner");
                    obs::counter!("t.det.nested");
                }
                i + x
            });
        }
        let report = session.finish();
        let forest = report.tree().expect("span buffers are balanced");
        prop_assert_eq!(forest.len(), 1, "one top-level span");
        prop_assert_eq!(forest[0].name, "outer");
        prop_assert_eq!(count_spans(&forest, "work"), items);
        prop_assert_eq!(
            count_spans(&forest, "inner"),
            if nested { items } else { 0 }
        );
        // The flattened stream must satisfy the strict checker too
        // (per-thread balance and monotone timestamps).
        check_jsonl(&report.render_jsonl()).expect("stream is well-formed");
    }
}
