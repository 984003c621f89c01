//! Run the six paper methods end-to-end on one benchmark circuit and show
//! the resulting gate mixes — the workload the paper's intro motivates
//! (synthesizing a battery-powered design under timing constraints).
//!
//! Usage: `cargo run --release --example map_benchmark [circuit]`
//! (default circuit: `alu2`; any name from the paper suite works.)

use genlib::builtin::lib2_like;
use lowpower::flow::{optimize, run_methods, shared_required_time, FlowConfig, Method};
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "alu2".to_string());
    let net = benchgen::suite_circuit(&name);
    let lib = lib2_like();
    println!(
        "{name}: {} inputs, {} outputs, {} nodes, {} literals",
        net.inputs().len(),
        net.outputs().len(),
        net.logic_count(),
        net.literal_count()
    );

    let optimized = optimize(&net);
    println!(
        "after rugged-like optimization: {} nodes, {} literals\n",
        optimized.logic_count(),
        optimized.literal_count()
    );

    let cfg = FlowConfig {
        required_time: Some(shared_required_time(&optimized, &lib)?),
        ..FlowConfig::default()
    };
    let results = run_methods(&[optimized], &lib, &cfg, par::thread_count(None))?;

    println!(
        "{:<7} {:>8} {:>8} {:>10} {:>12}   gate mix",
        "method", "area", "delay", "power µW", "decomp SR"
    );
    for (m, r) in Method::ALL.into_iter().zip(&results) {
        let mut mix: BTreeMap<&str, usize> = BTreeMap::new();
        for inst in &r.mapped.instances {
            *mix.entry(lib.gates()[inst.gate].name()).or_insert(0) += 1;
        }
        let mix_str: Vec<String> = mix.iter().map(|(g, c)| format!("{g}×{c}")).collect();
        println!(
            "{:<7} {:>8.1} {:>8.2} {:>10.1} {:>12.2}   {}",
            m.to_string(),
            r.report.area,
            r.report.delay,
            r.glitch_power_uw,
            r.decomp_switching,
            mix_str.join(" ")
        );
    }
    Ok(())
}
