//! Network-wide signal probability and switching activity via global BDDs.

use crate::transition::TransitionModel;
use bdd::{Bdd, BddManager};
use netlist::{Network, NodeId};

/// Global BDDs for every node of a network, over the primary inputs.
///
/// Holds the manager so that exact joint/conditional probabilities between
/// arbitrary internal signals can be queried (used for correlation-aware
/// decomposition and for validating the heuristic of eq. 9). The BDDs can
/// be carried over to a restructured copy of the network
/// ([`NetworkBdds::rebase`]), which builds only the nodes the copy adds.
///
/// Variables follow the network's static depth-first input order
/// ([`Network::input_dfs_order`]), not the declared one. At uniform 0.5
/// input probabilities with at most 53 inputs every probability is a
/// dyadic fraction that an `f64` holds exactly, so the order cannot change
/// any result. Under non-uniform input probabilities the sweep multiplies
/// in a different sequence, and a value may move in its last ulp.
#[derive(Debug)]
pub struct NetworkBdds {
    manager: BddManager,
    node_bdd: Vec<Option<Bdd>>,
    /// Manager variable of each primary input, in [`Network::inputs`] order.
    var_of_input: Vec<usize>,
    /// `P(x = 1)` of each manager variable.
    var_probs: Vec<f64>,
}

impl NetworkBdds {
    /// Build global BDDs for all nodes. `pi_probs[i]` is `P(input_i = 1)` in
    /// [`Network::inputs`] order.
    ///
    /// # Panics
    /// Panics if `pi_probs.len()` differs from the input count or the
    /// network is cyclic.
    pub fn build(net: &Network, pi_probs: &[f64]) -> NetworkBdds {
        assert_eq!(
            pi_probs.len(),
            net.inputs().len(),
            "PI probability count mismatch"
        );
        obs::counter!("activity.bdd.builds");
        let var_of_input = net.input_dfs_order();
        let mut var_probs = vec![0.0; pi_probs.len()];
        for (&v, &p) in var_of_input.iter().zip(pi_probs) {
            var_probs[v] = p;
        }
        let mut bdds = NetworkBdds {
            manager: BddManager::new(net.inputs().len()),
            node_bdd: Vec::new(),
            var_of_input,
            var_probs,
        };
        bdds.rebase(net, std::iter::empty());
        bdds
    }

    /// Re-target the BDDs at `net`, a network over the same primary inputs
    /// (in the same order) as the one they describe now, and keep using
    /// the same manager and variable order.
    ///
    /// `carried` pairs a node of the current network with the node of `net`
    /// that computes the same global function. Each such `net` node takes
    /// over the existing BDD. Every other logic node of `net` is built from
    /// its fanins. In debug builds the carried nodes are built too, and
    /// their handles must equal the carried ones.
    ///
    /// # Panics
    /// Panics if the input counts differ or `net` is cyclic.
    pub fn rebase(&mut self, net: &Network, carried: impl IntoIterator<Item = (NodeId, NodeId)>) {
        assert_eq!(
            net.inputs().len(),
            self.manager.num_vars(),
            "rebase target has a different input count"
        );
        let mut node_bdd: Vec<Option<Bdd>> = vec![None; net.arena_len()];
        for (old, new) in carried {
            node_bdd[new.index()] = self.node_bdd[old.index()];
        }
        for (i, &pi) in net.inputs().iter().enumerate() {
            node_bdd[pi.index()] = Some(self.manager.var(self.var_of_input[i]));
        }
        for id in net.topo_order().expect("network must be acyclic") {
            let node = net.node(id);
            let Some(sop) = node.sop() else { continue };
            if cfg!(not(debug_assertions)) && node_bdd[id.index()].is_some() {
                continue;
            }
            let mut f = Bdd::ZERO;
            for cube in sop.cubes() {
                let mut c = Bdd::ONE;
                for (pos, lit) in cube.bound_lits() {
                    let v =
                        node_bdd[node.fanins()[pos].index()].expect("fanin processed before node");
                    let v = match lit {
                        netlist::Lit::Pos => v,
                        netlist::Lit::Neg => self.manager.not(v),
                        netlist::Lit::Free => unreachable!(),
                    };
                    c = self.manager.and(c, v);
                }
                f = self.manager.or(f, c);
            }
            let slot = &mut node_bdd[id.index()];
            debug_assert!(
                slot.is_none_or(|g| g == f),
                "carried BDD of `{}` is not its function",
                node.name()
            );
            *slot = Some(f);
        }
        self.node_bdd = node_bdd;
    }

    /// The BDD of a node's global function.
    ///
    /// # Panics
    /// Panics if the node has no BDD (removed node).
    pub fn bdd(&self, node: NodeId) -> Bdd {
        self.node_bdd[node.index()].expect("node has a BDD")
    }

    /// Exact `P(node = 1)`.
    pub fn p_one(&self, node: NodeId) -> f64 {
        self.manager.probability(self.bdd(node), &self.var_probs)
    }

    /// Exact joint probability `P(a = 1 ∧ b = 1)`.
    pub fn joint(&mut self, a: NodeId, b: NodeId) -> f64 {
        let (fa, fb) = (self.bdd(a), self.bdd(b));
        self.manager.joint_probability(fa, fb, &self.var_probs)
    }

    /// Exact conditional probability `P(a = 1 | b = 1)`; `None` when
    /// `P(b = 1) = 0`.
    pub fn conditional(&mut self, a: NodeId, b: NodeId) -> Option<f64> {
        let (fa, fb) = (self.bdd(a), self.bdd(b));
        self.manager
            .conditional_probability(fa, fb, &self.var_probs)
    }

    /// Exact zero-delay activities of every node of `net`, the network the
    /// BDDs were built for or last rebased onto, from one probability
    /// sweep over the manager.
    ///
    /// # Panics
    /// Panics if `net` is not that network's size.
    pub fn activity(&self, net: &Network, model: TransitionModel) -> ActivityMap {
        assert_eq!(
            net.arena_len(),
            self.node_bdd.len(),
            "activity asked for a network the BDDs do not describe"
        );
        let probs = self.manager.probabilities(&self.var_probs);
        let mut p_one = vec![0.0; net.arena_len()];
        for id in net.node_ids() {
            p_one[id.index()] = probs[self.bdd(id).index()];
        }
        ActivityMap::from_p_one(p_one, model)
    }

    /// Underlying manager (e.g. for size statistics).
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }
}

/// Per-node signal probability and switching activity under a given
/// [`TransitionModel`], indexed by [`NodeId`].
#[derive(Debug, Clone)]
pub struct ActivityMap {
    p_one: Vec<f64>,
    switching: Vec<f64>,
    model: TransitionModel,
}

impl ActivityMap {
    /// `P(node = 1)`.
    pub fn p_one(&self, node: NodeId) -> f64 {
        self.p_one[node.index()]
    }

    /// Expected transitions per cycle at the node output.
    pub fn switching(&self, node: NodeId) -> f64 {
        self.switching[node.index()]
    }

    /// The transition model the activities were computed under.
    pub fn model(&self) -> TransitionModel {
        self.model
    }

    /// Sum of switching over the given nodes (the MINPOWER cost of §2).
    pub fn total_switching<I: IntoIterator<Item = NodeId>>(&self, nodes: I) -> f64 {
        nodes.into_iter().map(|n| self.switching(n)).sum()
    }

    /// Construct directly from a probability vector indexed by
    /// [`NodeId::index`] (useful for tests and synthetic scenarios).
    pub fn from_p_one(p_one: Vec<f64>, model: TransitionModel) -> ActivityMap {
        let switching = p_one.iter().map(|&p| model.switching(p)).collect();
        ActivityMap {
            p_one,
            switching,
            model,
        }
    }
}

/// Compute exact zero-delay activities for every node of `net`.
///
/// `pi_probs[i]` is `P(input_i = 1)`; inputs are assumed mutually
/// independent (the paper's default, §1.4).
pub fn analyze(net: &Network, pi_probs: &[f64], model: TransitionModel) -> ActivityMap {
    NetworkBdds::build(net, pi_probs).activity(net, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::parse_blif;

    fn reconv() -> Network {
        // f = a·b + a·c — reconvergent fanout of `a`.
        parse_blif(
            ".model r\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
             .names a c y\n11 1\n.names x y f\n1- 1\n-1 1\n.end\n",
        )
        .unwrap()
        .network
    }

    #[test]
    fn exact_probability_with_reconvergence() {
        let net = reconv();
        let act = analyze(&net, &[0.5, 0.5, 0.5], TransitionModel::StaticCmos);
        let f = net.find("f").unwrap();
        // P(f) = P(a)·P(b+c) = 0.5·0.75
        assert!((act.p_one(f) - 0.375).abs() < 1e-12);
        assert!((act.switching(f) - 2.0 * 0.375 * 0.625).abs() < 1e-12);
    }

    #[test]
    fn domino_models() {
        let net = reconv();
        let p = analyze(&net, &[0.5, 0.5, 0.5], TransitionModel::DominoP);
        let n = analyze(&net, &[0.5, 0.5, 0.5], TransitionModel::DominoN);
        let f = net.find("f").unwrap();
        assert!((p.switching(f) - 0.375).abs() < 1e-12);
        assert!((n.switching(f) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn joint_and_conditional() {
        let net = reconv();
        let mut bdds = NetworkBdds::build(&net, &[0.5, 0.5, 0.5]);
        let x = net.find("x").unwrap();
        let y = net.find("y").unwrap();
        // P(x∧y) = P(a·b·c) = 0.125; P(x|y) = 0.125/0.25 = 0.5.
        assert!((bdds.joint(x, y) - 0.125).abs() < 1e-12);
        assert!((bdds.conditional(x, y).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pi_probability_is_identity() {
        let net = reconv();
        let act = analyze(&net, &[0.2, 0.7, 0.9], TransitionModel::StaticCmos);
        let a = net.find("a").unwrap();
        assert!((act.p_one(a) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn total_switching_sums() {
        let net = reconv();
        let act = analyze(&net, &[0.5, 0.5, 0.5], TransitionModel::DominoP);
        let total = act.total_switching(net.logic_ids());
        // x: 0.25, y: 0.25, f: 0.375
        assert!((total - 0.875).abs() < 1e-12);
    }
}
