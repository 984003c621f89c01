//! Ablation studies for the design choices the paper argues for:
//!
//! 1. **Method 1 vs Method 2** power bookkeeping during mapping (§3.1):
//!    the paper adopts Method 1 because the unknown-load term of Method 2
//!    distorts the DAG fanout heuristic.
//! 2. **Fanout-count cost division** during DAG mapping (§3.3): dividing a
//!    multi-fanout input's accumulated cost by its fanout count favours
//!    solutions that preserve shared nodes.
//! 3. **ε-pruning** of the power-delay curves (§3.1): coarser ε trades
//!    mapping quality for runtime.
//!
//! Usage:
//!   `cargo run --release -p lowpower-bench --bin ablation [circuits] [--threads N]`
//!
//! Circuits are independent and fan out over the workers; each circuit's
//! block is rendered to a buffer and printed in order, so everything but
//! the per-variant wall times is identical at any thread count.

use genlib::builtin::lib2_like;
use lowpower::flow::{decompose, optimize, shared_required_time, FlowConfig};
use lowpower_bench::{args_or_exit, Takes};
use lowpower_core::decomp::DecompStyle;
use lowpower_core::map::{map_network, MapOptions, PowerMethod};
use lowpower_core::power::{evaluate, simulate_glitch_power};
use std::fmt::Write;
use std::time::Instant;

struct Variant {
    label: &'static str,
    power_method: PowerMethod,
    fanout_division: bool,
    epsilon: f64,
}

const VARIANTS: &[Variant] = &[
    Variant {
        label: "method1 +fanout-div eps=0.05 (paper)",
        power_method: PowerMethod::InputLoads,
        fanout_division: true,
        epsilon: 0.05,
    },
    Variant {
        label: "method2 +fanout-div eps=0.05",
        power_method: PowerMethod::OutputLoad,
        fanout_division: true,
        epsilon: 0.05,
    },
    Variant {
        label: "method1 -fanout-div eps=0.05",
        power_method: PowerMethod::InputLoads,
        fanout_division: false,
        epsilon: 0.05,
    },
    Variant {
        label: "method1 +fanout-div eps=0.5",
        power_method: PowerMethod::InputLoads,
        fanout_division: true,
        epsilon: 0.5,
    },
    Variant {
        label: "method1 +fanout-div eps=0.0",
        power_method: PowerMethod::InputLoads,
        fanout_division: true,
        epsilon: 0.0,
    },
];

fn main() {
    let args = args_or_exit("ablation [circuit ...] [--threads N]", Takes::CircuitNames);
    let circuits = args.circuits.unwrap_or_else(|| {
        ["x2", "s344", "s510", "alu2"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    });
    let threads = par::thread_count(args.threads);
    let lib = lib2_like();

    let blocks = par::scope_map(threads, &circuits, |_, name| run_circuit(name, &lib));
    for block in blocks {
        print!("{block}");
    }
}

fn run_circuit(name: &str, lib: &genlib::Library) -> String {
    let net = benchgen::suite_circuit(name);
    let optimized = optimize(&net);
    let cfg = FlowConfig::default();
    let required = shared_required_time(&optimized, lib).expect("probe");

    let d = decompose(&optimized, lib, DecompStyle::MinPower, &cfg).expect("decomposition");
    let pi_probs = vec![0.5; optimized.inputs().len()];

    let mut out = String::new();
    writeln!(out, "\n=== {name} (pd-map, minpower decomposition) ===").unwrap();
    writeln!(
        out,
        "{:<40} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "variant", "area", "delay", "P0 µW", "Pg µW", "time"
    )
    .unwrap();
    for v in VARIANTS {
        let opts = MapOptions {
            power_method: v.power_method,
            dag_fanout_division: v.fanout_division,
            epsilon: v.epsilon,
            required_time: Some(required),
            ..MapOptions::power()
        };
        let t = Instant::now();
        // Coarse ε can prune the very points that meet the timing target
        // (s510 at ε = 0.5): report the variant as infeasible, that IS the
        // ablation's finding.
        let mapped = match map_network(d.subject(), lib, &opts) {
            Ok(m) => m,
            Err(e) => {
                writeln!(out, "{:<40} infeasible at target: {e}", v.label).unwrap();
                continue;
            }
        };
        let elapsed = t.elapsed();
        let rep = evaluate(&mapped, lib, &cfg.env, cfg.model, cfg.po_load);
        let g = simulate_glitch_power(
            &mapped,
            lib,
            &cfg.env,
            &pi_probs,
            cfg.sim_vectors,
            cfg.sim_seed,
            cfg.po_load,
            cfg.sim_threads,
        );
        writeln!(
            out,
            "{:<40} {:>8.1} {:>8.2} {:>9.1} {:>9.1} {:>8.1?}",
            v.label, rep.area, rep.delay, rep.power_uw, g.power_uw, elapsed
        )
        .unwrap();
    }
    out
}
