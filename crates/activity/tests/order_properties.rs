//! Properties of the static depth-first BDD variable order: the order is
//! invisible in the results. At uniform 0.5 inputs every activity equals
//! the declared-order BDDs' bit for bit; under non-uniform inputs every
//! query agrees with weighted truth-table enumeration.

use activity::{analyze, NetworkBdds, TransitionModel};
use bdd::{Bdd, BddManager};
use benchgen::{random_network, RandomNetConfig};
use netlist::{Lit, Network};
use proptest::prelude::*;

const MODEL: TransitionModel = TransitionModel::StaticCmos;

/// Global BDDs of every node under the declared input order (input `i` is
/// variable `i`), indexed by [`netlist::NodeId::index`].
fn declared_order_bdds(net: &Network) -> (BddManager, Vec<Bdd>) {
    let mut m = BddManager::new(net.inputs().len());
    let mut f = vec![Bdd::ZERO; net.arena_len()];
    for (i, &pi) in net.inputs().iter().enumerate() {
        f[pi.index()] = m.var(i);
    }
    for id in net.topo_order().unwrap() {
        let node = net.node(id);
        let Some(sop) = node.sop() else { continue };
        let mut acc = Bdd::ZERO;
        for cube in sop.cubes() {
            let mut product = Bdd::ONE;
            for (pos, lit) in cube.bound_lits() {
                let v = f[node.fanins()[pos].index()];
                let v = if lit == Lit::Pos { v } else { m.not(v) };
                product = m.and(product, v);
            }
            acc = m.or(acc, product);
        }
        f[id.index()] = acc;
    }
    (m, f)
}

fn is_declared_order(net: &Network) -> bool {
    net.input_dfs_order().into_iter().eq(0..net.inputs().len())
}

/// Weighted truth-table enumeration: `P(node = 1)` per node and
/// `P(a = 1 ∧ b = 1)` for every pair of nodes, both indexed by arena slot.
fn enumerate(net: &Network, probs: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = net.inputs().len();
    let len = net.arena_len();
    let (mut p, mut joint) = (vec![0.0; len], vec![vec![0.0; len]; len]);
    for bits in 0u32..1 << n {
        let a: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        let w: f64 = (0..n)
            .map(|i| if a[i] { probs[i] } else { 1.0 - probs[i] })
            .product();
        let values = net.eval(&a);
        let ones: Vec<usize> = net
            .node_ids()
            .map(|id| id.index())
            .filter(|&k| values[k])
            .collect();
        for &x in &ones {
            p[x] += w;
            for &y in &ones {
                joint[x][y] += w;
            }
        }
    }
    (p, joint)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn uniform_activity_is_bit_identical_to_declared_order(
        seed in 0u64..1_000_000,
        inputs in 2usize..=53,
        nodes in 10usize..120,
    ) {
        let net = random_network(&RandomNetConfig {
            inputs,
            outputs: 1 + inputs / 4,
            nodes,
            max_fanin: 4,
            seed,
        });
        let probs = vec![0.5; net.inputs().len()];
        let act = analyze(&net, &probs, MODEL);
        let (m, f) = declared_order_bdds(&net);
        let all = m.probabilities(&probs);
        for id in net.node_ids() {
            let p = all[f[id.index()].index()];
            prop_assert_eq!(act.p_one(id).to_bits(), p.to_bits(), "P at {}", net.node(id).name());
            prop_assert_eq!(
                act.switching(id).to_bits(),
                MODEL.switching(p).to_bits(),
                "switching at {}",
                net.node(id).name()
            );
        }
    }

    #[test]
    fn nonuniform_queries_match_enumeration(
        seed in 0u64..1_000_000,
        inputs in 3usize..=10,
        raw in proptest::collection::vec(0.05f64..0.95, 10),
    ) {
        let net = random_network(&RandomNetConfig {
            inputs,
            outputs: 3,
            nodes: 25,
            max_fanin: 3,
            seed,
        });
        if is_declared_order(&net) {
            return Ok(());
        }
        let probs = &raw[..net.inputs().len()];
        let (p, joint) = enumerate(&net, probs);
        let mut bdds = NetworkBdds::build(&net, probs);
        let act = bdds.activity(&net, MODEL);
        let close = |x: f64, y: f64| (x - y).abs() < 1e-12;
        let ids: Vec<_> = net.node_ids().collect();
        for &a in &ids {
            let name = net.node(a).name();
            prop_assert!(close(bdds.p_one(a), p[a.index()]), "p_one at {name}");
            prop_assert!(close(act.p_one(a), p[a.index()]), "activity P at {name}");
            prop_assert!(
                close(act.switching(a), MODEL.switching(p[a.index()])),
                "switching at {name}"
            );
            for &b in ids.iter().step_by(3) {
                let j = joint[a.index()][b.index()];
                prop_assert!(close(bdds.joint(a, b), j), "joint({name}, {})", net.node(b).name());
                let c = bdds.conditional(a, b);
                if p[b.index()] > 0.0 {
                    prop_assert!(
                        c.is_some_and(|c| (c - j / p[b.index()]).abs() < 1e-12),
                        "conditional({name} | {})",
                        net.node(b).name()
                    );
                }
            }
        }
    }
}

#[test]
fn random_networks_mostly_leave_the_declared_order() {
    // The enumeration property skips networks whose depth-first order is
    // the declared one; make sure it is not vacuous.
    let permuted = (0..32)
        .filter(|&seed| {
            !is_declared_order(&random_network(&RandomNetConfig {
                inputs: 8,
                outputs: 3,
                nodes: 25,
                max_fanin: 3,
                seed,
            }))
        })
        .count();
    assert!(
        permuted >= 24,
        "only {permuted} of 32 networks are permuted"
    );
}
