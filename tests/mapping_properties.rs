//! Property-based tests of the full decompose→map pipeline: functional
//! equivalence on randomized networks under every style/objective, mapper
//! feasibility across ε and required times, BLIF roundtrips of mapped
//! netlists, and timing-model consistency.

use activity::{analyze, TransitionModel};
use benchgen::{random_network, RandomNetConfig};
use genlib::builtin::lib2_like;
use genlib::Library;
use lowpower::core::decomp::{decompose_network, DecompOptions, DecompStyle};
use lowpower::core::map::SubjectAig;
use lowpower::core::map::{map_network, MapOptions, MappedNetwork};
use lowpower::flow::strip_constant_outputs;
use netlist::Network;
use proptest::prelude::*;

/// The 7-input random network of `seed`, decomposed in `style`, as a
/// subject graph, with the names of the outputs that decomposed to
/// constants; `None` when every output is constant.
fn subject_of(seed: u64, style: DecompStyle) -> (Network, Option<(SubjectAig, Vec<String>)>) {
    let net = random_network(&RandomNetConfig {
        inputs: 7,
        outputs: 3,
        nodes: 18,
        max_fanin: 3,
        seed,
    });
    let d = decompose_network(&net, &DecompOptions::new(style));
    let (mappable, consts) = strip_constant_outputs(&d.network);
    if mappable.outputs().is_empty() {
        return (net, None); // everything constant — nothing to map
    }
    let probs = vec![0.5; mappable.inputs().len()];
    let act = analyze(&mappable, &probs, TransitionModel::StaticCmos);
    let aig = SubjectAig::from_network(&mappable, &act).expect("mappable network");
    let const_names = consts.into_iter().map(|(n, _)| n).collect();
    (net, Some((aig, const_names)))
}

fn pipeline_equivalence(seed: u64, style: DecompStyle, power: bool) -> Result<(), TestCaseError> {
    let (net, Some((aig, const_names))) = subject_of(seed, style) else {
        return Ok(());
    };
    let lib = lib2_like();
    let opts = if power {
        MapOptions::power()
    } else {
        MapOptions::area()
    };
    let mapped = map_network(&aig, &lib, &opts).expect("maps");
    equivalent_to_source(&net, &mapped, &const_names, &lib)
}

/// Exhaustive functional check of a mapping of `net`'s non-constant
/// outputs against the ORIGINAL network.
fn equivalent_to_source(
    net: &Network,
    mapped: &MappedNetwork,
    const_names: &[String],
    lib: &Library,
) -> Result<(), TestCaseError> {
    for bits in 0..(1u64 << 7) {
        let pis: Vec<bool> = (0..7).map(|i| bits >> i & 1 == 1).collect();
        let expect = net.eval_outputs(&pis);
        let got = mapped.eval_outputs(lib, &pis);
        for (gi, (name, _)) in mapped.outputs.iter().enumerate() {
            prop_assert!(!const_names.contains(name));
            let oi = net
                .outputs()
                .iter()
                .position(|(on, _)| on == name)
                .expect("output exists in original");
            prop_assert_eq!(got[gi], expect[oi], "output {} at {:?}", name, pis);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conventional_area_pipeline_equivalent(seed in 0u64..1000) {
        pipeline_equivalence(seed, DecompStyle::Conventional, false)?;
    }

    #[test]
    fn minpower_power_pipeline_equivalent(seed in 0u64..1000) {
        pipeline_equivalence(seed, DecompStyle::MinPower, true)?;
    }

    #[test]
    fn bounded_power_pipeline_equivalent(seed in 0u64..1000) {
        pipeline_equivalence(seed, DecompStyle::BoundedMinPower, true)?;
    }

    /// The mapper stays feasible off its defaults: at any ε in [0, 1] and
    /// any required time from the fastest achievable arrival to 50 %
    /// above it, both objectives map every output, correctly.
    #[test]
    fn mapper_feasible_across_epsilon_and_required_time(
        seed in 0u64..1000,
        epsilon in 0.0f64..=1.0,
        slack in 0.0f64..=0.5,
    ) {
        let (net, Some((aig, const_names))) = subject_of(seed, DecompStyle::MinPower) else {
            return Ok(());
        };
        let lib = lib2_like();
        for base in [MapOptions::power(), MapOptions::area()] {
            let opts = MapOptions { epsilon, ..base };
            let fastest = map_network(&aig, &lib, &opts);
            prop_assert!(fastest.is_ok(), "ε {}: {:?}", epsilon, fastest.err());
            let required = fastest.expect("checked").estimated_fastest * (1.0 + slack);
            let opts = MapOptions { required_time: Some(required), ..opts };
            let mapped = map_network(&aig, &lib, &opts);
            prop_assert!(mapped.is_ok(), "ε {}, required {}: {:?}", epsilon, required, mapped.err());
            equivalent_to_source(&net, &mapped.expect("checked"), &const_names, &lib)?;
        }
    }

    #[test]
    fn mapped_blif_roundtrips(seed in 0u64..1000) {
        let net = random_network(&RandomNetConfig {
            inputs: 6, outputs: 2, nodes: 12, max_fanin: 3, seed,
        });
        let d = decompose_network(&net, &DecompOptions::new(DecompStyle::MinPower));
        let (mappable, _) = strip_constant_outputs(&d.network);
        if mappable.outputs().is_empty() {
            return Ok(());
        }
        let probs = vec![0.5; mappable.inputs().len()];
        let act = analyze(&mappable, &probs, TransitionModel::StaticCmos);
        let aig = SubjectAig::from_network(&mappable, &act).expect("mappable");
        let lib = lib2_like();
        let mapped = map_network(&aig, &lib, &MapOptions::power()).expect("maps");
        let text = mapped.to_blif(&lib, "roundtrip");
        let back = netlist::parse_blif(&text).expect("valid blif").network;
        for bits in 0..(1u64 << 6) {
            let pis: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            prop_assert_eq!(back.eval_outputs(&pis), mapped.eval_outputs(&lib, &pis));
        }
    }
}

#[test]
fn estimated_timing_tracks_evaluated_timing() {
    // The mapper's estimated arrivals (default load) must correlate with
    // the evaluated STA delay: over a set of seeds, evaluated ≥ estimated
    // fastest (actual loads are never lighter than the default on the
    // critical path) and within a sane factor.
    let lib = lib2_like();
    for seed in [1u64, 2, 3, 4, 5] {
        let net = random_network(&RandomNetConfig {
            inputs: 8,
            outputs: 4,
            nodes: 25,
            max_fanin: 3,
            seed,
        });
        let d = decompose_network(&net, &DecompOptions::new(DecompStyle::MinPower));
        let (mappable, _) = strip_constant_outputs(&d.network);
        let probs = vec![0.5; mappable.inputs().len()];
        let act = analyze(&mappable, &probs, TransitionModel::StaticCmos);
        let aig = SubjectAig::from_network(&mappable, &act).expect("mappable");
        let mapped = map_network(&aig, &lib, &MapOptions::area()).expect("maps");
        let rep = lowpower::core::power::evaluate(
            &mapped,
            &lib,
            &activity::PowerEnv::new(),
            TransitionModel::StaticCmos,
            1.0,
        );
        assert!(
            rep.delay >= mapped.estimated_fastest * 0.5,
            "seed {seed}: evaluated {} vs estimated {}",
            rep.delay,
            mapped.estimated_fastest
        );
        assert!(
            rep.delay <= mapped.estimated_fastest * 6.0,
            "seed {seed}: evaluated {} wildly above estimate {}",
            rep.delay,
            mapped.estimated_fastest
        );
    }
}
