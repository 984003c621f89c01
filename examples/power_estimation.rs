//! Power estimation three ways on a mapped circuit:
//!
//! 1. exact zero-delay analysis (global BDD signal probabilities, eq. 2),
//! 2. Monte-Carlo zero-delay logic simulation (cross-validation),
//! 3. event-driven glitch-aware simulation with the library delay model
//!    (the stand-in for the Ghosh et al. estimator the paper reports with).
//!
//! Run with: `cargo run --release --example power_estimation`

use activity::{analyze, simulate_activity_seeded, PowerEnv, TransitionModel};
use benchgen::structured::ripple_adder;
use genlib::builtin::lib2_like;
use lowpower::core::decomp::{decompose_network, DecompOptions, DecompStyle};
use lowpower::core::map::{map_network, MapOptions, SubjectAig};
use lowpower::core::power::{evaluate, simulate_glitch_power};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = ripple_adder(8);
    let pi_probs = vec![0.5; net.inputs().len()];

    // Zero-delay analytic vs Monte-Carlo on the unmapped network.
    let act = analyze(&net, &pi_probs, TransitionModel::StaticCmos);
    let sim = simulate_activity_seeded(&net, &pi_probs, 20_000, 2024, 1);
    let mut worst = 0.0f64;
    for id in net.node_ids() {
        worst = worst.max((act.switching(id) - sim.switching(id)).abs());
    }
    println!("8-bit ripple adder, {} logic nodes", net.logic_count());
    println!("max |BDD − MonteCarlo| switching deviation: {worst:.4} (20k vectors)");

    // Map it and compare the three power numbers.
    let d = decompose_network(&net, &DecompOptions::new(DecompStyle::MinPower));
    let act_d = analyze(&d.network, &pi_probs, TransitionModel::StaticCmos);
    let aig = SubjectAig::from_network(&d.network, &act_d)?;
    let lib = lib2_like();
    let mapped = map_network(&aig, &lib, &MapOptions::power())?;
    let env = PowerEnv::new();
    let zero = evaluate(&mapped, &lib, &env, TransitionModel::StaticCmos, 1.0);
    let glitch = simulate_glitch_power(&mapped, &lib, &env, &pi_probs, 5_000, 7, 1.0, 1);

    println!(
        "\nmapped: {} gates, area {:.1}, delay {:.2} ns",
        zero.gate_count, zero.area, zero.delay
    );
    println!("zero-delay power:   {:>8.1} µW", zero.power_uw);
    println!(
        "glitch-aware power: {:>8.1} µW  ({:+.0} % — carry chains glitch)",
        glitch.power_uw,
        (glitch.power_uw / zero.power_uw - 1.0) * 100.0
    );
    Ok(())
}
