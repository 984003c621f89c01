//! The full-rebuild decomposition the planner replaced, kept as the
//! oracle for it: every §2.3 round builds the whole decomposed network
//! and reads its slacks with `netlist::traversal`. The tests below check
//! that [`super::decompose_network_with`] gives the same result, byte for
//! byte, with the same round counts.

use super::{
    balanced_height_estimate, balanced_tree, correlated_and_tree, DecompOptions, DecompStyle,
    DecomposedNetwork, NodePolicy, SourceNode,
};
use crate::decomp::bounded::{bounded_minpower_tree_with_heights, min_height};
use crate::decomp::huffman::minpower_tree;
use crate::decomp::objective::{DecompObjective, GateKind};
use crate::decomp::tree::{DecompTree, TreeNode};
use activity::{ActivityMap, NetworkBdds, TransitionModel};
use netlist::traversal::{unit_arrival_times, unit_slacks};
use netlist::{Lit, Network, NodeId, Sop};
use std::collections::{HashMap, HashSet};

/// [`super::decompose_network_with`] as a direct build: every style, and
/// every §2.3 round, builds the whole network.
fn decompose_network_with(
    net: &Network,
    opts: &DecompOptions,
    bdds: &mut NetworkBdds,
) -> DecomposedNetwork {
    let act = bdds.activity(net, opts.model);
    let corr = opts.use_correlations.then_some(bdds);

    match opts.style {
        DecompStyle::Conventional => build(net, &act, opts.model, corr, &|_| NodePolicy::Balanced),
        DecompStyle::MinPower => build(net, &act, opts.model, corr, &|_| NodePolicy::MinPower),
        DecompStyle::BoundedMinPower => bounded_decompose(net, &act, corr, opts),
    }
}

/// The §2.3 loop: unrestricted MINPOWER first; while the unit-delay
/// requirement is violated, re-decompose the most negative-slack original
/// node with its root's exact required time as the arrival bound.
fn bounded_decompose(
    net: &Network,
    act: &ActivityMap,
    mut corr: Option<&mut NetworkBdds>,
    opts: &DecompOptions,
) -> DecomposedNetwork {
    let balanced = build(net, act, opts.model, None, &|_| NodePolicy::Balanced);
    let required = opts.required_time.unwrap_or(balanced.depth);

    let mut bounds: HashMap<NodeId, usize> = HashMap::new();
    let mut redecomposed: HashSet<NodeId> = HashSet::new();
    let mut current = build(
        net,
        act,
        opts.model,
        corr.as_deref_mut(),
        &policy_fn(&bounds),
    );

    loop {
        if current.depth <= required {
            break;
        }
        obs::counter!("decomp.slack.iterations");
        let zeros = vec![0i64; current.network.inputs().len()];
        let reqs = vec![required; current.network.outputs().len()];
        let slack = unit_slacks(&current.network, &zeros, &reqs);
        let arrival = unit_arrival_times(&current.network, &zeros);

        // Most negative slack at an original node's root, among nodes not
        // yet re-decomposed; ties broken toward higher fanout (the paper:
        // "the node shared by a maximum number of paths is processed
        // first").
        let roots: HashMap<NodeId, NodeId> =
            current.sources.iter().map(|s| (s.id, s.root)).collect();
        let mut cand: Option<(i64, i64, NodeId)> = None;
        for id in net.logic_ids() {
            if redecomposed.contains(&id) {
                continue;
            }
            let root = roots[&id];
            let s = slack[root.index()];
            if s >= 0 || s == i64::MAX {
                continue;
            }
            let key = (s, -(net.node(id).fanouts().len() as i64));
            if cand.is_none() || (key.0, key.1) < (cand.expect("some").0, cand.expect("some").1) {
                cand = Some((key.0, key.1, id));
            }
        }
        let Some((_, _, n)) = cand else { break };
        obs::counter!("decomp.redecomp.rounds");
        redecomposed.insert(n);
        let root = roots[&n];
        // Exact required arrival level at this node's root.
        let bound = (arrival[root.index()] + slack[root.index()]).max(0) as usize;
        bounds.insert(n, bound);
        current = build(
            net,
            act,
            opts.model,
            corr.as_deref_mut(),
            &policy_fn(&bounds),
        );
    }

    for s in &mut current.sources {
        s.bound = bounds.get(&s.id).copied();
    }
    current
}

fn policy_fn(bounds: &HashMap<NodeId, usize>) -> impl Fn(NodeId) -> NodePolicy + '_ {
    move |id| match bounds.get(&id) {
        Some(&b) => NodePolicy::Bounded(b),
        None => NodePolicy::MinPower,
    }
}

const AND2: &[&str] = &["11"];
const OR2: &[&str] = &["1-", "-1"];
const INV: &[&str] = &["0"];

/// Build the decomposed network with a per-original-node policy. With
/// `corr`, AND trees of MinPower-policy nodes use the correlation-aware
/// Modified Huffman construction (eqs. 7–9) seeded with exact joint
/// probabilities from the original network's global BDDs.
fn build(
    net: &Network,
    act: &ActivityMap,
    model: TransitionModel,
    mut corr: Option<&mut NetworkBdds>,
    policy: &dyn Fn(NodeId) -> NodePolicy,
) -> DecomposedNetwork {
    let mut e = Emitter {
        out: Network::new(format!("{}_decomp", net.name())),
        level: HashMap::new(),
        created: Vec::new(),
        source: net,
    };
    // original node -> node in `out` carrying its function
    let mut root: HashMap<NodeId, NodeId> = HashMap::new();
    // inverter cache in `out`
    let mut inv_cache: HashMap<NodeId, NodeId> = HashMap::new();
    // logic node -> (root level, balanced height), in topological order
    let mut heights: Vec<(NodeId, usize, usize)> = Vec::new();
    // `out` node -> original node it descends from (provenance)
    let mut prov: HashMap<NodeId, NodeId> = HashMap::new();

    for &pi in net.inputs() {
        let id = e
            .out
            .add_input(net.node(pi).name().to_string())
            .expect("unique input name");
        root.insert(pi, id);
        e.level.insert(id, 0);
        prov.insert(id, pi);
    }

    let and_obj = DecompObjective::new(model, GateKind::And);
    let or_obj = DecompObjective::new(model, GateKind::Or);

    for id in net.topo_order().expect("acyclic") {
        let node = net.node(id);
        let Some(sop) = node.sop() else { continue };
        let pol = policy(id);
        let fanins = node.fanins();

        // Constants.
        if sop.is_zero() || sop.has_tautology_cube() {
            let w = if sop.is_zero() {
                Sop::zero(0)
            } else {
                Sop::one(0)
            };
            let nid = e
                .out
                .add_logic(node.name().to_string(), vec![], w)
                .expect("unique node name");
            root.insert(id, nid);
            e.level.insert(nid, 0);
            prov.insert(nid, id);
            heights.push((id, 0, 0));
            continue;
        }

        // Split the arrival budget between the cube AND trees and the OR
        // tree above them (bounded style only).
        let (and_pol, or_pol) = match pol {
            NodePolicy::Bounded(l) => {
                let m = sop.cube_count();
                let or_levels = if m <= 1 {
                    0
                } else {
                    (m as f64).log2().ceil() as usize
                };
                (
                    NodePolicy::Bounded(l.saturating_sub(or_levels)),
                    NodePolicy::Bounded(l),
                )
            }
            p => (p, p),
        };

        // Literal leaves per cube: (out node, p_one, arrival level), plus
        // the original source signal for correlation lookups.
        let mut cube_roots: Vec<(NodeId, f64, usize)> = Vec::new();
        for cube in sop.cubes() {
            let mut leaves: Vec<(NodeId, f64, usize)> = Vec::new();
            let mut sources: Vec<(NodeId, bool)> = Vec::new();
            for (pos, lit) in cube.bound_lits() {
                let src_orig = fanins[pos];
                let src = root[&src_orig];
                let p_src = act.p_one(src_orig);
                match lit {
                    Lit::Pos => {
                        leaves.push((src, p_src, e.level[&src]));
                        sources.push((src_orig, true));
                    }
                    Lit::Neg => {
                        let inv = *inv_cache.entry(src).or_insert_with(|| {
                            let name = e.fresh_name("inv_");
                            let inv = e
                                .out
                                .add_logic(name, vec![src], Sop::parse(1, INV).expect("inv sop"))
                                .expect("fresh name");
                            e.level.insert(inv, e.level[&src] + 1);
                            // Shared across consumers: attributed to the
                            // driver, not the node being decomposed.
                            prov.insert(inv, src_orig);
                            inv
                        });
                        leaves.push((inv, 1.0 - p_src, e.level[&inv]));
                        sources.push((src_orig, false));
                    }
                    Lit::Free => unreachable!(),
                }
            }
            let correlated = match (&mut corr, and_pol) {
                (Some(bdds), NodePolicy::MinPower) if leaves.len() >= 3 => {
                    Some(correlated_and_tree(bdds, act, &sources, and_obj))
                }
                _ => None,
            };
            let (cube_node, p_cube, l_cube) = match correlated {
                Some(tree) => {
                    let p = tree.p_root();
                    let (root_node, lv) = e.instantiate(&tree, tree.root(), &leaves, AND2);
                    (root_node, p, lv)
                }
                None => e.emit_tree(&leaves, and_obj, and_pol, AND2),
            };
            cube_roots.push((cube_node, p_cube, l_cube));
        }

        // OR tree over cube roots.
        let (node_root, _p, _l_root) = e.emit_tree(&cube_roots, or_obj, or_pol, OR2);

        // Rename / alias the root to the original node's name.
        let final_id = e.alias_with_name(node_root, node.name());
        root.insert(id, final_id);
        for c in e.created.drain(..) {
            prov.insert(c, id);
        }
        prov.insert(final_id, id);

        // Balanced-height reference of this node in isolation (for the
        // depth_surplus report).
        let hb = balanced_height_estimate(sop);
        heights.push((id, e.level[&final_id], hb));
    }

    let mut out = e.out;
    for (name, o) in net.outputs() {
        out.add_output(name.clone(), root[o]);
    }
    out.check()
        .expect("decomposed network must be structurally sound");
    obs::counter!("decomp.nodes.emitted", out.logic_ids().count() as u64);
    let depth = netlist::traversal::depth(&out);
    // Inputs first, then the logic nodes; an input is its own origin.
    let sources: Vec<SourceNode> = net
        .inputs()
        .iter()
        .map(|&pi| (pi, 0, 0))
        .chain(heights)
        .map(|(id, level, balanced)| SourceNode {
            id,
            name: net.node(id).name().to_string(),
            root: root[&id],
            level,
            balanced,
            bound: None,
        })
        .collect();
    let position: HashMap<NodeId, usize> =
        sources.iter().enumerate().map(|(k, s)| (s.id, k)).collect();
    // Nothing is removed from `out`, so its ids run in arena order.
    let origin = out.node_ids().map(|id| position[&prov[&id]]).collect();
    DecomposedNetwork {
        network: out,
        depth,
        sources,
        origin,
    }
}

/// The decomposed network under construction, with the per-node state
/// the builder tracks.
struct Emitter<'s> {
    out: Network,
    /// Absolute unit-delay arrival level of every `out` node.
    level: HashMap<NodeId, usize>,
    /// Fresh tree gates of the original node currently being decomposed.
    created: Vec<NodeId>,
    /// The network being decomposed. Fresh names avoid its node names,
    /// which the roots of its nodes take.
    source: &'s Network,
}

impl Emitter<'_> {
    /// A name with `prefix` that is unused in `out` and that no node of
    /// the source network claims later.
    fn fresh_name(&mut self, prefix: &str) -> String {
        loop {
            let name = self.out.fresh_name(prefix);
            if self.source.find(&name).is_none() {
                return name;
            }
        }
    }

    /// Emit a tree over `leaves` (node, probability, arrival level);
    /// returns `(root node, root probability, root arrival level)`.
    fn emit_tree(
        &mut self,
        leaves: &[(NodeId, f64, usize)],
        obj: DecompObjective,
        pol: NodePolicy,
        gate_sop: &[&str],
    ) -> (NodeId, f64, usize) {
        assert!(!leaves.is_empty(), "tree needs leaves");
        if leaves.len() == 1 {
            return leaves[0];
        }
        let probs: Vec<f64> = leaves.iter().map(|&(_, p, _)| p).collect();
        let heights: Vec<usize> = leaves.iter().map(|&(_, _, h)| h).collect();
        let tree = match pol {
            NodePolicy::Balanced => balanced_tree(&probs, &heights, obj),
            NodePolicy::MinPower => minpower_tree(&probs, obj),
            NodePolicy::Bounded(bound) => {
                let feasible = min_height(&heights).max(bound);
                bounded_minpower_tree_with_heights(&probs, &heights, obj, feasible)
                    .expect("bound made feasible by construction")
            }
        };
        let (root, root_level) = self.instantiate(&tree, tree.root(), leaves, gate_sop);
        (root, tree.p_root(), root_level)
    }

    /// Materialize the subtree of a [`DecompTree`] at `idx` as 2-input
    /// gates; returns `(root, level)`.
    fn instantiate(
        &mut self,
        tree: &DecompTree,
        idx: usize,
        leaves: &[(NodeId, f64, usize)],
        gate_sop: &[&str],
    ) -> (NodeId, usize) {
        match tree.nodes()[idx] {
            TreeNode::Leaf { input, .. } => (leaves[input].0, leaves[input].2),
            TreeNode::Internal { left, right, .. } => {
                let (l, ll) = self.instantiate(tree, left, leaves, gate_sop);
                let (r, lr) = self.instantiate(tree, right, leaves, gate_sop);
                let name = self.fresh_name("d_");
                let sop = Sop::parse(2, gate_sop).expect("gate sop");
                let id = self
                    .out
                    .add_logic(name, vec![l, r], sop)
                    .expect("fresh name");
                let lv = ll.max(lr) + 1;
                self.level.insert(id, lv);
                self.created.push(id);
                (id, lv)
            }
        }
    }

    /// Give `node` the name `name`. A fresh tree gate of the node being
    /// decomposed is renamed in place; shared nodes (inputs, cached
    /// inverters, other nodes' roots) get an aliasing buffer instead, since
    /// they may serve several original nodes.
    fn alias_with_name(&mut self, node: NodeId, name: &str) -> NodeId {
        if self.created.contains(&node) {
            self.out
                .rename_node(node, name)
                .expect("original names are unique");
            return node;
        }
        let sop = Sop::parse(1, &["1"]).expect("buffer sop");
        let buf = self
            .out
            .add_logic(name.to_string(), vec![node], sop)
            .expect("original names are unique");
        self.level.insert(buf, self.level[&node] + 1);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::super::decompose_network_with as planned;
    use super::*;
    use benchgen::{random_network, RandomNetConfig};
    use netlist::write_blif;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Decompose = fn(&Network, &DecompOptions, &mut NetworkBdds) -> DecomposedNetwork;

    /// Decompose with `f` on fresh BDDs in a fresh obs session; returns the
    /// result and its `decomp.slack.iterations` / `decomp.redecomp.rounds`.
    fn run(net: &Network, opts: &DecompOptions, f: Decompose) -> (DecomposedNetwork, [u64; 2]) {
        let probs = opts
            .pi_probs
            .clone()
            .unwrap_or_else(|| vec![0.5; net.inputs().len()]);
        let mut bdds = NetworkBdds::build(net, &probs);
        let session = obs::Session::start();
        let d = f(net, opts, &mut bdds);
        let counters = session.finish().metrics.counters;
        let count = |k: &str| counters.get(k).copied().unwrap_or(0);
        (
            d,
            [
                count("decomp.slack.iterations"),
                count("decomp.redecomp.rounds"),
            ],
        )
    }

    /// Panics unless the planner and the full-rebuild reference give the
    /// same decomposition, byte for byte, in the same number of rounds.
    fn assert_matches_reference(net: &Network, opts: &DecompOptions) {
        let (new, new_rounds) = run(net, opts, planned);
        let (old, old_rounds) = run(net, opts, decompose_network_with);
        let case = format!("{} under {opts:?}", net.name());
        assert_eq!(
            write_blif(&new.network),
            write_blif(&old.network),
            "{case}: network"
        );
        assert_eq!(new.sources, old.sources, "{case}: source records");
        assert_eq!(new.origin, old.origin, "{case}: origins");
        assert_eq!(new.depth, old.depth, "{case}: depth");
        assert_eq!(new_rounds, old_rounds, "{case}: §2.3 iterations and rounds");
    }

    /// `net` with constants on its paths: a constant-1 literal joins the
    /// cubes of `count` random nodes and a constant output is added, so
    /// that a constant's unit-delay arrival (1, against its tree level 0)
    /// decides slacks.
    fn with_constants(mut net: Network, count: usize, rng: &mut StdRng) -> Network {
        if count == 0 {
            return net;
        }
        let one = net
            .add_logic("k_one", vec![], Sop::one(0))
            .expect("fresh name");
        net.add_output("k_out", one);
        let logic: Vec<NodeId> = net.logic_ids().filter(|&id| id != one).collect();
        for _ in 0..count {
            let id = logic[rng.gen_range(0..logic.len())];
            let node = net.node(id);
            let (mut fanins, sop) = (node.fanins().to_vec(), node.sop().expect("logic").clone());
            if fanins.contains(&one) {
                continue;
            }
            let w = fanins.len();
            let cubes = sop
                .cubes()
                .iter()
                .map(|c| {
                    let mut c = c.widen(1);
                    c.set_lit(w, Lit::Pos);
                    c
                })
                .collect();
            fanins.push(one);
            net.replace_function(id, fanins, Sop::from_cubes(w + 1, cubes));
        }
        net.check().expect("constants keep the network sound");
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The planner matches the full rebuild on random networks across
        /// input probabilities, transition models, correlations and
        /// required times from infeasible to loose, for every style.
        #[test]
        fn planner_matches_full_rebuild_on_random_networks(
            (seed, nodes, fanin) in (0u64..1_000_000, 6usize..48, 2usize..5),
            (constants, model, correlations) in (0usize..4, 0u8..3, 0u8..2),
            slack in -4i64..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = RandomNetConfig {
                inputs: rng.gen_range(2..9),
                outputs: rng.gen_range(1..5),
                nodes,
                max_fanin: fanin,
                seed,
            };
            let net = with_constants(random_network(&cfg), constants, &mut rng);
            let probs = (0..net.inputs().len()).map(|_| rng.gen_range(0.05..0.95)).collect();
            let model = [
                TransitionModel::StaticCmos,
                TransitionModel::DominoP,
                TransitionModel::DominoN,
            ][model as usize];
            let mut opts = DecompOptions {
                style: DecompStyle::Conventional,
                model,
                pi_probs: Some(probs),
                required_time: None,
                use_correlations: correlations == 1,
            };
            for style in DecompStyle::ALL {
                assert_matches_reference(&net, &DecompOptions { style, ..opts.clone() });
            }
            // -4 keeps the balanced depth as the target; -3..=3 offsets it.
            if slack > -4 {
                let (balanced, _) = run(&net, &opts, planned);
                opts.style = DecompStyle::BoundedMinPower;
                opts.required_time = Some(balanced.depth + slack);
                assert_matches_reference(&net, &opts);
            }
        }
    }

    #[test]
    fn planner_matches_full_rebuild_on_the_optimized_suite() {
        for entry in benchgen::paper_suite() {
            let mut net = benchgen::suite_circuit(entry.name);
            logicopt::rugged_like(&mut net);
            for use_correlations in [false, true] {
                let opts = DecompOptions {
                    use_correlations,
                    ..DecompOptions::new(DecompStyle::BoundedMinPower)
                };
                assert_matches_reference(&net, &opts);
            }
        }
    }
}
