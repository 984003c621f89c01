//! Cross-validation of the activity engines: exact BDD analysis vs
//! Monte-Carlo simulation, correlation heuristics vs exact joints, and the
//! decomposition's probability bookkeeping vs the re-analyzed network.

use activity::{analyze, simulate_activity_seeded, NetworkBdds, TransitionModel};
use benchgen::{random_network, RandomNetConfig};
use lowpower::core::decomp::{decompose_network, DecompOptions, DecompStyle};

#[test]
fn bdd_matches_simulation_on_random_networks() {
    for seed in [3u64, 17, 99] {
        let net = random_network(&RandomNetConfig {
            inputs: 8,
            outputs: 4,
            nodes: 30,
            max_fanin: 3,
            seed,
        });
        let probs: Vec<f64> = (0..8).map(|i| 0.2 + 0.08 * i as f64).collect();
        let act = analyze(&net, &probs, TransitionModel::StaticCmos);
        let sim = simulate_activity_seeded(&net, &probs, 40_000, seed + 1, 1);
        for id in net.node_ids() {
            let dp = (act.p_one(id) - sim.p_one(id)).abs();
            let ds = (act.switching(id) - sim.switching(id)).abs();
            assert!(
                dp < 0.02,
                "seed {seed}: p_one off by {dp} at {}",
                net.node(id).name()
            );
            assert!(
                ds < 0.02,
                "seed {seed}: switching off by {ds} at {}",
                net.node(id).name()
            );
        }
    }
}

#[test]
fn decomposition_preserves_exact_probabilities() {
    // Probabilities stored during decomposition use the independence
    // heuristic, but re-analysis of the decomposed network must agree with
    // the original network at the node roots (same global functions).
    let net = random_network(&RandomNetConfig {
        inputs: 7,
        outputs: 3,
        nodes: 20,
        max_fanin: 3,
        seed: 5,
    });
    let probs = vec![0.3; 7];
    let act = analyze(&net, &probs, TransitionModel::StaticCmos);
    let d = decompose_network(
        &net,
        &DecompOptions {
            style: DecompStyle::MinPower,
            model: TransitionModel::StaticCmos,
            pi_probs: Some(probs.clone()),
            required_time: None,
            use_correlations: false,
        },
    );
    let act_d = analyze(&d.network, &probs, TransitionModel::StaticCmos);
    for id in net.logic_ids() {
        let name = net.node(id).name();
        let Some(root) = d.network.find(name) else {
            continue;
        };
        let (p0, p1) = (act.p_one(id), act_d.p_one(root));
        assert!(
            (p0 - p1).abs() < 1e-9,
            "node {name}: original P={p0} vs decomposed P={p1}"
        );
    }
}

#[test]
fn exact_joints_respect_frechet_bounds() {
    let net = random_network(&RandomNetConfig {
        inputs: 6,
        outputs: 3,
        nodes: 15,
        max_fanin: 3,
        seed: 11,
    });
    let probs = vec![0.5; 6];
    let mut bdds = NetworkBdds::build(&net, &probs);
    let ids: Vec<_> = net.logic_ids().collect();
    for &a in ids.iter().take(6) {
        for &b in ids.iter().take(6) {
            if a == b {
                continue;
            }
            let j = bdds.joint(a, b);
            let (pa, pb) = (bdds.p_one(a), bdds.p_one(b));
            assert!(j <= pa.min(pb) + 1e-9, "joint above Fréchet upper bound");
            assert!(
                j >= (pa + pb - 1.0).max(0.0) - 1e-9,
                "joint below lower bound"
            );
        }
    }
}

#[test]
fn domino_activity_is_phase_asymmetric() {
    let net = random_network(&RandomNetConfig {
        inputs: 6,
        outputs: 2,
        nodes: 12,
        max_fanin: 3,
        seed: 23,
    });
    let probs = vec![0.3; 6];
    let p = analyze(&net, &probs, TransitionModel::DominoP);
    let n = analyze(&net, &probs, TransitionModel::DominoN);
    for id in net.logic_ids() {
        let sum = p.switching(id) + n.switching(id);
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "E_p + E_n must be 1 for domino pairs"
        );
    }
}
