//! Tiny-size runs of every workload, traced and untraced, plus the drift
//! guard firing on a perturbed result.

use lowpower_flowbench::pass::run_pass;
use lowpower_flowbench::run::{run, Options};
use lowpower_flowbench::traced::{drift, run_traced, Tracer};
use lowpower_flowbench::workload::{setup, Size, Workload};
use obs::json::{parse_json, Json};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = parse_json(&text).expect("valid JSON");
    let Some(Json::Arr(items)) = json.get(section) else {
        panic!("`{section}` is not a list");
    };
    let field = |m: &Json, key| m.get(key).and_then(Json::as_str).expect(key).to_string();
    items
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn every_workload_runs_correctly_and_reports_the_declared_metrics() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(&Options {
                workload,
                seed: 7,
                seconds: 0.001,
                trace,
                size: Size::Tiny,
            })
            .expect("run");
            let what = format!("{} trace={trace}: {:?}", workload.name(), outcome.notes);
            assert!(outcome.correct, "{what}");
            assert_eq!(outcome.failed, 0, "{what}");
            assert!(outcome.attempted > 0, "{what}");
            let reported: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(reported, declared(section), "{what}");
            let json = parse_json(&outcome.to_json()).expect("result line is JSON");
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            if trace {
                let glue = outcome.metric("flow.glue_s").unwrap();
                let traced = outcome.metric("flow.traced_wall_s").unwrap();
                assert!(glue < 0.5 * traced, "{what}: glue {glue} of {traced}");
            } else {
                for name in ["wall_s", "setup_s", "cell_ms_p50", "peak_rss_mb"] {
                    assert!(outcome.metric(name).unwrap() > 0.0, "{what}: {name}");
                }
            }
        }
    }
}

#[test]
fn drift_guard_flags_a_result_the_flow_did_not_compute() {
    for workload in Workload::ALL {
        let inputs = setup(workload, Size::Tiny);
        let cfg = workload.config(3);
        let untraced = run_pass(workload, &inputs, &cfg, 2);
        let mut traced = run_traced(&mut Tracer::default(), workload, &inputs, &cfg);
        assert!(drift(&inputs, &untraced, &traced).is_empty());
        let cell = traced.cells[0].as_mut().expect("cell ran");
        cell.area += 1.0;
        let found = drift(&inputs, &untraced, &traced);
        assert_eq!(found.len(), 1, "{}: {found:?}", workload.name());
    }
}
