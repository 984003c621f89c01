//! Cross-check of the benchmark-side layer times against the spans the
//! flow records itself, on one run of a workload.

use crate::traced::{run_traced, Tracer};
use crate::workload::{cells, Inputs, Workload};
use lowpower::flow::{optimize, run_method, FlowConfig};
use obs::SpanNode;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// In-program span name and the benchmark-side layers it corresponds to.
const PAIRS: &[(&str, &[&str])] = &[
    (
        "optimize",
        &[
            "logicopt.sweep",
            "logicopt.simplify",
            "logicopt.eliminate",
            "logicopt.extract",
        ],
    ),
    ("decompose", &["decomp"]),
    ("activity", &["activity"]),
    ("map", &["map"]),
    ("evaluate", &["power.evaluate"]),
    ("glitch_sim", &["power.glitch"]),
];

/// Layer shares of the suite measured by obs spans at the baseline
/// (percent of map + decompose + activity + glitch_sim).
const BASELINE_SHARES: &[(&str, f64)] = &[
    ("map", 49.0),
    ("decompose", 19.0),
    ("activity", 16.0),
    ("glitch_sim", 15.0),
];

/// Add the duration of every outermost span whose name is paired in
/// [`PAIRS`].
fn sum_spans(nodes: &[SpanNode], totals: &mut BTreeMap<&'static str, f64>) {
    for n in nodes {
        if PAIRS.iter().any(|(name, _)| *name == n.name) {
            *totals.entry(n.name).or_default() += n.duration_ns() as f64 * 1e-9;
        } else {
            sum_spans(&n.children, totals);
        }
    }
}

/// Run the workload serially once through the flow under obs sessions and
/// once through the traced driver, and render both layer splits, the
/// baseline shares and the main counter ratios as a text table.
///
/// # Panics
/// Panics when a cell fails: the cross-check needs complete runs.
pub fn crosscheck(workload: Workload, inputs: &Inputs, cfg: &FlowConfig) -> String {
    assert!(
        !workload.optimizes_per_cell(),
        "the cross-check covers workloads that run `run_method` cells"
    );
    let mut spans: BTreeMap<&'static str, f64> = BTreeMap::new();
    let optimized: Vec<_> = inputs
        .circuits
        .iter()
        .map(|net| {
            let session = obs::Session::start();
            let o = optimize(net);
            let report = session.finish();
            sum_spans(&report.tree().expect("balanced spans"), &mut spans);
            o
        })
        .collect();
    let traced_cfg = FlowConfig {
        obs: obs::ObsMode::Summary,
        ..cfg.clone()
    };
    for (ci, method) in cells(workload, inputs.circuits.len()) {
        let r = run_method(&optimized[ci], &inputs.lib, method, &traced_cfg)
            .unwrap_or_else(|e| panic!("method {method} failed: {e}"));
        let report = r.obs.expect("the flow owns its obs session");
        sum_spans(&report.tree().expect("balanced spans"), &mut spans);
    }
    let mut tracer = Tracer::default();
    run_traced(&mut tracer, workload, inputs, cfg);

    let bench = |layers: &[&str]| layers.iter().map(|l| tracer.time(l)).sum::<f64>();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>8}",
        "span", "in-flow s", "bench s", "diff %"
    );
    for (name, layers) in PAIRS {
        let (a, b) = (spans.get(name).copied().unwrap_or(0.0), bench(layers));
        let _ = writeln!(
            out,
            "{name:<12} {a:>10.3} {b:>10.3} {:>8.1}",
            100.0 * (b - a) / a
        );
    }
    let share_base =
        |get: &dyn Fn(&str) -> f64| BASELINE_SHARES.iter().map(|(n, _)| get(n)).sum::<f64>();
    let span_of = |n: &str| spans.get(n).copied().unwrap_or(0.0);
    let bench_of = |n: &str| {
        let (_, layers) = PAIRS.iter().find(|(p, _)| *p == n).expect("paired span");
        bench(layers)
    };
    let (span_total, bench_total) = (share_base(&span_of), share_base(&bench_of));
    let _ = writeln!(
        out,
        "\n{:<12} {:>10} {:>10} {:>10}",
        "share", "in-flow %", "bench %", "baseline %"
    );
    for (name, baseline) in BASELINE_SHARES {
        let _ = writeln!(
            out,
            "{name:<12} {:>10.1} {:>10.1} {baseline:>10.1}",
            100.0 * span_of(name) / span_total,
            100.0 * bench_of(name) / bench_total
        );
    }
    let drops = tracer.counter("map.curve.dominated_drops") as f64;
    let pushes = tracer.counter("map.curve.pushes") as f64;
    let _ = writeln!(
        out,
        "\ndominated share of curve candidates: {:.1} % of {:.0} (baseline 85 % of 14.9 M)",
        100.0 * drops / (drops + pushes),
        drops + pushes
    );
    let _ = writeln!(
        out,
        "BDD ITE misses: {} (baseline 9.3 M); BDD node high-water mark: {} (baseline 374 k)",
        tracer.counter("bdd.ite.miss"),
        tracer
            .gauges
            .get("bdd.nodes.high_water")
            .copied()
            .unwrap_or(0)
    );
    out
}
