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
//! * `obs-check`'s ledger check (`qor::check_ledger_notes`) passes such a
//!   stream, progress notes included, and names the line of a tampered
//!   ledger note;
//! * `run_flow` and `run_method` record exactly one `verify` span per
//!   transforming stage, one `lint` span per stage and, with the QoR
//!   ledger on, one `qor` span per ledger snapshot, in stage order, and
//!   none when those checks are off;
//! * spans opened inside `par::scope_map` workers always splice back into
//!   a well-formed tree under the span open at the fork point, for
//!   arbitrary item counts and thread counts (proptest).

use genlib::builtin::lib2_like;
use lowpower::flow::{optimize, run_flow, run_method, FlowConfig, Method};
use lowpower::lint::LintLevel;
use lowpower::obs;
use lowpower::obs::check::{check_chrome, check_jsonl, parse_json, strip_timing, Json};
use lowpower::obs::{ObsMode, SpanNode};
use lowpower::qor::check_ledger_notes;
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

    let (snap, notes) = check_jsonl(&report.render_jsonl()).expect("JSONL stream is well-formed");
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
    let notes: Vec<String> = notes.into_iter().map(|(_, text)| text).collect();
    let ledger = r.qor.expect("cfg.qor yields a ledger");
    let lines: Vec<String> = ledger
        .snapshots
        .iter()
        .map(|s| s.render_json(&ledger.circuit, &ledger.method))
        .collect();
    assert!(!lines.is_empty());
    assert_eq!(notes, lines, "obs note stream must carry the QoR ledger");
}

/// The obs JSONL stream of `run_flow` (cm42a, method V, QoR ledger on)
/// and its number of ledger snapshots. With `progress`, the caller's own
/// session records it between free-text notes, one of them JSON.
fn ledger_stream(progress: bool) -> (String, usize) {
    let net = benchgen::suite_circuit("cm42a");
    let cfg = FlowConfig {
        sim_vectors: 64,
        qor: true,
        obs: ObsMode::Json,
        ..FlowConfig::default()
    };
    let session = progress.then(obs::Session::start);
    obs::note_event!("start: {}", net.name());
    let r = run_flow(&net, &lib2_like(), Method::V, &cfg).expect("flow runs");
    obs::note_event!("{{\"type\":\"progress\",\"done\":1}}");
    let report = session.map_or_else(|| r.obs.expect("flow-owned session"), |s| s.finish());
    (
        report.render_jsonl(),
        r.qor.expect("cfg.qor yields a ledger").snapshots.len(),
    )
}

#[test]
fn ledger_notes_of_a_flow_stream_pass() {
    let (stream, snapshots) = ledger_stream(false);
    let (_, notes) = check_jsonl(&stream).expect("stream is well-formed");
    assert!(snapshots >= 5);
    assert_eq!(check_ledger_notes(&notes), Ok(snapshots));
}

#[test]
fn progress_notes_stay_free_text() {
    let (stream, snapshots) = ledger_stream(true);
    let (_, notes) = check_jsonl(&stream).expect("stream is well-formed");
    assert_eq!(notes.len(), snapshots + 2);
    assert_eq!(notes[0].1, "start: cm42a");
    assert_eq!(check_ledger_notes(&notes), Ok(snapshots));
}

/// `stream` with member `key` of its `nth` ledger note set to `value`
/// (removed when `None`), and the 1-based line of that note.
fn tamper_ledger_note(stream: &str, nth: usize, key: &str, value: Option<Json>) -> (String, usize) {
    let mut lines: Vec<String> = stream.lines().map(str::to_string).collect();
    let at = (0..lines.len())
        .filter(|&i| lines[i].contains(r#""text":"{\"type\":\"qor\""#))
        .nth(nth)
        .expect("enough ledger notes");
    let text = parse_json(&lines[at])
        .unwrap()
        .get("text")
        .cloned()
        .unwrap();
    let Ok(Json::Obj(mut snap)) = parse_json(text.as_str().unwrap()) else {
        unreachable!("a ledger note is a JSON object")
    };
    snap.retain(|(k, _)| k != key);
    snap.extend(value.map(|v| (key.to_string(), v)));
    let tampered = Json::Str(Json::Obj(snap).render()).render();
    lines[at] = lines[at].replace(&text.render(), &tampered);
    (lines.join("\n") + "\n", at + 1)
}

#[test]
fn a_tampered_ledger_note_fails_naming_its_line() {
    let (stream, snapshots) = ledger_stream(false);
    let cases = [
        (
            snapshots - 1,
            "kind",
            Some(Json::Str("gates".into())),
            "unknown kind `gates`",
        ),
        (
            0,
            "delay_ps",
            Some(Json::Num("1.5".into())),
            "`delay_ps` is not an integer",
        ),
        (snapshots / 2, "stage", None, "missing string `stage`"),
    ];
    for (nth, key, value, why) in cases {
        let (tampered, line) = tamper_ledger_note(&stream, nth, key, value);
        assert_ne!(tampered, stream);
        let (_, notes) = check_jsonl(&tampered).expect("still a well-formed stream");
        let err = check_ledger_notes(&notes).unwrap_err();
        assert!(
            err.starts_with(&format!("line {line}: ")) && err.contains(why),
            "{err}"
        );
    }
}

/// `(name, label)` of every `verify`, `lint` and `qor` span under
/// `parent`, in preorder. A `qor` span sits outside every stage and pass
/// span.
fn checkpoint_spans(nodes: &[SpanNode], parent: &str, out: &mut Vec<(String, String)>) {
    for n in nodes {
        if n.name == "verify" || n.name == "lint" || n.name == "qor" {
            let outside = ["", "rugged.round", "method"].contains(&parent);
            assert!(n.name != "qor" || outside, "a `qor` span in `{parent}`");
            let label = n.label.clone().unwrap_or_default();
            out.push((n.name.to_string(), label));
        }
        checkpoint_spans(&n.children, n.name, out);
    }
}

#[test]
fn checkpoints_are_uniform_across_stages() {
    let lib = lib2_like();
    let net = benchgen::suite_circuit("cm42a");
    let optimized = optimize(&net);
    let spans = |from_raw: bool, verify: VerifyLevel, lint: LintLevel, qor: bool| {
        let cfg = FlowConfig {
            sim_vectors: 64,
            verify,
            lint,
            obs: ObsMode::Summary,
            qor,
            ..FlowConfig::default()
        };
        let r = if from_raw {
            run_flow(&net, &lib, Method::VI, &cfg)
        } else {
            run_method(&optimized, &lib, Method::VI, &cfg)
        };
        let r = r.expect("flow runs");
        let report = r.obs.expect("the flow owns the session");
        let mut out = Vec::new();
        checkpoint_spans(&report.tree().expect("balanced spans"), "", &mut out);
        let snapshots = r.qor.map_or(0, |ledger| ledger.snapshots.len());
        assert_eq!(out.iter().filter(|(n, _)| n == "qor").count(), snapshots);
        out
    };
    let pairs = |want: &[(&str, &str)]| -> Vec<(String, String)> {
        want.iter()
            .map(|(n, l)| (n.to_string(), l.to_string()))
            .collect()
    };
    for from_raw in [true, false] {
        assert_eq!(spans(from_raw, VerifyLevel::Off, LintLevel::Off, false), []);
    }
    assert_eq!(
        spans(true, VerifyLevel::Full, LintLevel::Check, false),
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
        spans(false, VerifyLevel::Full, LintLevel::Check, false),
        pairs(&[
            ("lint", "library"),
            ("verify", "decompose"),
            ("lint", "decompose"),
            ("lint", "activity"),
            ("verify", "map"),
            ("lint", "map"),
        ])
    );
    // One `qor` span per ledger snapshot: of the input, of every pass
    // (`run_flow` only) and of the later stages.
    let passes = "sweep simplify eliminate extract resimplify resweep";
    let stages = pairs(&[("qor", "decompose"), ("qor", "strip_const"), ("qor", "map")]);
    let mut flow = pairs(&[("qor", "initial")]);
    for r in 1..=2 {
        for p in passes.split(' ') {
            flow.push(("qor".into(), format!("optimize.{r}.{p}")));
        }
    }
    flow.extend(stages.clone());
    let method = [pairs(&[("qor", "optimized")]), stages].concat();
    assert_eq!(spans(true, VerifyLevel::Off, LintLevel::Off, true), flow);
    assert_eq!(spans(false, VerifyLevel::Off, LintLevel::Off, true), method);
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
