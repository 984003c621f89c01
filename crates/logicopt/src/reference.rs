//! The clone-based `eliminate` and the unindexed divisor scoring that
//! local pricing replaced, kept as the oracle for them: every eliminate
//! trial collapses a copy of the whole network and recounts its literals,
//! and every extract candidate is scored on every node. The tests below
//! check that [`crate::eliminate::eliminate`], [`crate::extract`] and
//! [`crate::extract_power_aware`] give the same networks and reports,
//! byte for byte.

use crate::eliminate::{collapse_node, plan_collapse, EliminateReport, Pricer};
use crate::extract::{
    candidate_divisors, division_saving_weighted, divisor_weights, extract_rounds, from_gcubes,
    to_gcubes, weight_of, ExtractReport, GCube,
};
use netlist::{Network, NodeId};

/// Literal delta of collapsing `victim`, read from a collapsed and swept
/// copy, and that copy.
fn trial(net: &Network, victim: NodeId) -> (i64, Network) {
    let before = net.literal_count() as i64;
    let mut trial = net.clone();
    collapse_node(&mut trial, victim);
    (trial.literal_count() as i64 - before, trial)
}

/// [`crate::eliminate::eliminate`] with every candidate priced on a copy.
fn eliminate(net: &mut Network, threshold: i64) -> EliminateReport {
    let mut report = EliminateReport::default();
    loop {
        let mut collapsed_any = false;
        let ids: Vec<NodeId> = net.logic_ids().collect();
        for id in ids {
            if !net.node_ids().any(|x| x == id) {
                continue; // already removed
            }
            if net.outputs().iter().any(|(_, o)| *o == id) {
                continue; // keep output nodes
            }
            if net.node(id).fanouts().is_empty() {
                continue;
            }
            let (delta, collapsed) = trial(net, id);
            if delta <= threshold {
                *net = collapsed;
                report.nodes_eliminated += 1;
                collapsed_any = true;
            }
        }
        if !collapsed_any {
            return report;
        }
    }
}

/// `extract::best_divisor` scoring every candidate on every node.
fn best_divisor(net: &Network, weights: Option<&[f64]>) -> Option<(Vec<GCube>, f64)> {
    let ids: Vec<NodeId> = net.logic_ids().collect();
    let gcovers: Vec<Vec<GCube>> = ids.iter().map(|&id| to_gcubes(net, id)).collect();
    let weight = |n: NodeId| weight_of(weights, n);
    let mut best: Option<(Vec<GCube>, f64)> = None;
    for div in candidate_divisors(net, &ids, &gcovers) {
        let (divisor_weight, div_cost) = divisor_weights(&div, weights);
        let mut saving_total = 0.0;
        for cubes in &gcovers {
            saving_total +=
                division_saving_weighted(&from_gcubes(cubes), &div, &weight, divisor_weight);
        }
        let net_saving = saving_total - div_cost;
        if net_saving > 0.0 && best.as_ref().is_none_or(|(_, s)| net_saving > *s) {
            best = Some((div, net_saving));
        }
    }
    best
}

/// [`crate::extract`] with the unindexed scoring.
fn extract(net: &mut Network, max_rounds: usize) -> ExtractReport {
    extract_rounds(net, None, max_rounds, best_divisor)
}

/// [`crate::extract_power_aware`] with the unindexed scoring.
fn extract_power_aware(net: &mut Network, pi_probs: &[f64], max_rounds: usize) -> ExtractReport {
    extract_rounds(net, Some(pi_probs), max_rounds, best_divisor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::{paper_suite, random_network, suite_circuit, RandomNetConfig};
    use netlist::{parse_blif, write_blif, Sop};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every eliminate candidate of `net` is priced as its collapsed copy
    /// reads.
    fn assert_priced_like_copies(net: &Network) {
        let mut pricer = Pricer::new(net);
        for id in net.logic_ids() {
            let outputs = net.outputs().iter().any(|(_, o)| *o == id);
            if outputs || net.node(id).fanouts().is_empty() {
                continue;
            }
            let priced = pricer.literal_delta(net, &plan_collapse(net, id));
            assert_eq!(
                priced,
                trial(net, id).0,
                "delta of collapsing `{}`",
                net.node(id).name()
            );
        }
    }

    /// Both eliminates at `threshold` give the same network and report.
    fn assert_eliminate_matches(net: &Network, threshold: i64) -> Network {
        let (mut fast, mut slow) = (net.clone(), net.clone());
        let report = crate::eliminate::eliminate(&mut fast, threshold);
        assert_eq!(
            report,
            eliminate(&mut slow, threshold),
            "threshold {threshold}"
        );
        assert_eq!(
            write_blif(&fast),
            write_blif(&slow),
            "threshold {threshold}"
        );
        fast
    }

    /// Both extracts, plain and power-aware at `probs`, give the same
    /// network and report.
    fn assert_extract_matches(net: &Network, probs: &[f64]) {
        let (mut fast, mut slow) = (net.clone(), net.clone());
        assert_eq!(crate::extract(&mut fast, 0), extract(&mut slow, 0));
        assert_eq!(write_blif(&fast), write_blif(&slow));
        let (mut fast, mut slow) = (net.clone(), net.clone());
        assert_eq!(
            crate::extract_power_aware(&mut fast, probs, 0),
            extract_power_aware(&mut slow, probs, 0)
        );
        assert_eq!(write_blif(&fast), write_blif(&slow));
    }

    /// Collapsing `v` into `f2` drops `f2`'s cube `f1·a·b`, the only use of
    /// `f1`, which is itself a fanout of `v`. So `f1` is swept with its
    /// new cover `a·b·c·d·e`, and the collapse saves 8 literals, where an
    /// old-cover or a no-sweep count of `f1` would see 7 or 3.
    const DYING_FANOUT: &str = ".model t\n.inputs a b c d e\n.outputs f2\n\
        .names a b v\n11 1\n\
        .names v c d e f1\n1111 1\n\
        .names v f1 a b f2\n1--- 1\n-111 1\n.end\n";

    #[test]
    fn a_fanout_dropped_by_another_fanout_is_priced_with_its_new_cover() {
        let net = parse_blif(DYING_FANOUT).unwrap().network;
        let v = net.find("v").unwrap();
        assert_eq!(trial(&net, v).0, -8);
        assert_priced_like_copies(&net);
        // At threshold −8 only the exact price accepts `v`.
        for threshold in [-8, -1, 0, 2] {
            let out = assert_eliminate_matches(&net, threshold);
            out.check().unwrap();
        }
    }

    #[test]
    fn logic_dangling_on_entry_counts_toward_every_trial_until_swept() {
        // `d1 → d2` reaches no output; every trial's sweep removed both,
        // so every delta includes their 4 literals until one is accepted.
        let net = parse_blif(
            ".model t\n.inputs a b c\n.outputs f g\n\
             .names a b x\n11 1\n\
             .names x c f\n11 1\n.names x c g\n10 1\n\
             .names a c d1\n11 1\n.names d1 b d2\n11 1\n.end\n",
        )
        .unwrap()
        .network;
        let x = net.find("x").unwrap();
        assert_eq!(trial(&net, x).0, 2 - 2 - 4);
        assert_priced_like_copies(&net);
        for threshold in [-4, -1, 0, 2] {
            assert_eliminate_matches(&net, threshold).check().unwrap();
        }
    }

    /// A random network; with `prepare`, first run the script's passes
    /// before eliminate, and with `dangling`, add a two-node chain that
    /// reaches no output.
    fn network(seed: u64, nodes: usize, fanin: usize, prepare: bool, dangling: bool) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = random_network(&RandomNetConfig {
            inputs: rng.gen_range(2..9),
            outputs: rng.gen_range(1..5),
            nodes,
            max_fanin: fanin,
            seed,
        });
        if prepare {
            crate::sweep::sweep(&mut net);
            crate::simplify::simplify_network(&mut net);
        }
        if dangling {
            let ids: Vec<NodeId> = net.node_ids().collect();
            let mut pick = || ids[rng.gen_range(0..ids.len())];
            let (a, b, c) = (pick(), pick(), pick());
            let and2 = Sop::parse(2, &["11"]).unwrap();
            let d1 = net.add_logic("dangling1", vec![a, b], and2.clone());
            net.add_logic("dangling2", vec![d1.unwrap(), c], and2)
                .unwrap();
        }
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Local pricing and the signal index change nothing: on random
        /// networks, before and after the script's first passes and with
        /// logic dangling on entry, eliminate at thresholds −1, 0 and 2 and
        /// both extracts match the oracle.
        #[test]
        fn local_pricing_matches_the_clone_based_passes(
            (seed, nodes, fanin) in (0u64..1_000_000, 6usize..48, 2usize..5),
            (prepare, dangling) in (0u8..2, 0u8..2),
        ) {
            let net = network(seed, nodes, fanin, prepare == 1, dangling == 1);
            assert_priced_like_copies(&net);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let probs: Vec<f64> =
                (0..net.inputs().len()).map(|_| rng.gen_range(0.05..0.95)).collect();
            for threshold in [-1, 0, 2] {
                let eliminated = assert_eliminate_matches(&net, threshold);
                assert_extract_matches(&eliminated, &probs);
            }
        }
    }

    #[test]
    fn local_pricing_matches_on_prepared_suite_circuits() {
        for entry in paper_suite() {
            let mut net = suite_circuit(entry.name);
            crate::sweep::sweep(&mut net);
            crate::simplify::simplify_network(&mut net);
            assert_priced_like_copies(&net);
            let eliminated = assert_eliminate_matches(&net, -1);
            let probs = vec![0.5; net.inputs().len()];
            assert_extract_matches(&eliminated, &probs);
        }
    }
}
