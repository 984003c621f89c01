//! Network-level power-efficient technology decomposition (Section 2.3).
//!
//! Converts an optimized Boolean network into a network of 2-input AND/OR
//! gates and inverters (the pre-mapping "NAND decomposition" — the mapper's
//! subject graph builder performs the mechanical AND/OR→NAND2/INV
//! conversion). Each node's SOP is decomposed as an OR tree of AND trees;
//! tree shapes are chosen per [`DecompStyle`]:
//!
//! * `Conventional` — arrival-balanced trees (the SIS `tech_decomp`
//!   analogue: merge the two earliest-arriving signals first),
//! * `MinPower` — unrestricted MINPOWER trees (§2.1),
//! * `BoundedMinPower` — MINPOWER followed by the slack-driven
//!   re-decomposition loop of §2.3 under the unit-delay model.
//!
//! Unit-delay arrival levels are tracked through the whole build: every
//! tree leaf carries the absolute arrival level of its signal, so balanced
//! trees are balanced *in time* (not merely in shape) and height bounds are
//! bounds on the root arrival. The §2.3 loop computes exact slacks on the
//! decomposed network and re-decomposes the most negative-slack node with
//! its root's required time as the bound; this subsumes the paper's
//! `depth_surplus`-proportional slack distribution (which estimates the
//! same per-node budget without exact timing — see DESIGN.md §5), and the
//! surplus values are still reported in [`DecomposedNetwork::node_heights`].

use crate::decomp::bounded::{bounded_minpower_tree_with_heights, min_height};
use crate::decomp::huffman::minpower_tree;
use crate::decomp::modified::modified_huffman_correlated;
use crate::decomp::objective::{DecompObjective, GateKind};
use crate::decomp::tree::{DecompTree, TreeNode};
use activity::{ActivityMap, CorrelationMatrix, NetworkBdds, TransitionModel};
use netlist::traversal::{unit_arrival_times, unit_slacks};
use netlist::{Lit, Network, NodeId, Sop};
use std::collections::{HashMap, HashSet};

/// Tree-shape policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompStyle {
    /// Arrival-balanced trees, power-oblivious (conventional `tech_decomp`).
    Conventional,
    /// Unrestricted MINPOWER decomposition.
    MinPower,
    /// MINPOWER with the §2.3 bounded-height timing recovery loop.
    BoundedMinPower,
}

impl DecompStyle {
    /// The three styles in the column order of the paper's tables.
    pub const ALL: [DecompStyle; 3] = [
        DecompStyle::Conventional,
        DecompStyle::MinPower,
        DecompStyle::BoundedMinPower,
    ];
}

/// Options for [`decompose_network`].
#[derive(Debug, Clone)]
pub struct DecompOptions {
    /// Tree-shape policy.
    pub style: DecompStyle,
    /// Transition model used for switching costs.
    pub model: TransitionModel,
    /// `P(input = 1)` per primary input; `None` means 0.5 everywhere.
    pub pi_probs: Option<Vec<f64>>,
    /// Required time (in unit-delay levels) at every primary output for the
    /// bounded style. `None` uses the depth of the conventional balanced
    /// decomposition — i.e. "no slower than the conventional result".
    pub required_time: Option<i64>,
    /// Use exact pairwise signal correlations (global-BDD joints) and the
    /// Modified Huffman algorithm of eqs. 7–9 when building the AND trees,
    /// instead of the independence assumption. Applies to the MinPower
    /// style (OR trees and bounded re-decomposition keep independence).
    pub use_correlations: bool,
}

impl DecompOptions {
    /// Options with the given style, static CMOS model, uniform input
    /// probabilities and default timing target.
    pub fn new(style: DecompStyle) -> DecompOptions {
        DecompOptions {
            style,
            model: TransitionModel::StaticCmos,
            pi_probs: None,
            required_time: None,
            use_correlations: false,
        }
    }
}

/// Result of network decomposition.
#[derive(Debug)]
pub struct DecomposedNetwork {
    /// The AND/OR/INV network (every logic node has ≤ 2 inputs).
    pub network: Network,
    /// Per-original-node `(name, root arrival level, balanced-height
    /// estimate)` — the difference of the last two is the paper's
    /// `depth_surplus`.
    pub node_heights: Vec<(String, usize, usize)>,
    /// Root-arrival bounds applied by the bounded pass (empty otherwise).
    pub applied_bounds: HashMap<String, usize>,
    /// Depth (unit-delay levels) of the decomposed network.
    pub depth: i64,
    /// Provenance: decomposed logic-node name → name of the original node
    /// whose decomposition emitted it. Tree gates (`d_*`, later possibly
    /// renamed) and aliasing buffers map to the node being decomposed;
    /// shared inverters (`inv_*`) map to the node that *drives* them.
    /// Primary inputs are their own provenance and are omitted.
    pub provenance: HashMap<String, String>,
    /// Source node → the node of [`DecomposedNetwork::network`] computing
    /// its function (its tree root, aliasing buffer, constant or input).
    /// Holds every input and logic node of the source network.
    pub roots: HashMap<NodeId, NodeId>,
}

/// Per-node tree policy used by the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodePolicy {
    Balanced,
    MinPower,
    /// Bound on the *absolute arrival level* of the node's root.
    Bounded(usize),
}

/// Decompose `net` according to `opts`.
///
/// # Panics
/// Panics if the network is cyclic or `pi_probs` has the wrong length.
pub fn decompose_network(net: &Network, opts: &DecompOptions) -> DecomposedNetwork {
    let pi_probs = opts
        .pi_probs
        .clone()
        .unwrap_or_else(|| vec![0.5; net.inputs().len()]);
    decompose_network_with(net, opts, &mut NetworkBdds::build(net, &pi_probs))
}

/// [`decompose_network`] with the caller's global BDDs of `net`, built
/// under the input probabilities of `opts`. The activities and, with
/// [`DecompOptions::use_correlations`], the exact joints come from `bdds`;
/// the nodes the joints create stay in its manager, and the BDDs still
/// describe `net` afterwards.
///
/// # Panics
/// Panics if the network is cyclic or `bdds` were built for another
/// network.
pub fn decompose_network_with(
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
        let mut cand: Option<(i64, i64, NodeId)> = None;
        for id in net.logic_ids() {
            if redecomposed.contains(&id) {
                continue;
            }
            let root = current.roots[&id];
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
        let root = current.roots[&n];
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

    current.applied_bounds = bounds
        .iter()
        .map(|(id, b)| (net.node(*id).name().to_string(), *b))
        .collect();
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
    let mut node_heights = Vec::new();
    // `out` node -> original node it descends from (provenance)
    let mut prov: HashMap<NodeId, NodeId> = HashMap::new();

    for &pi in net.inputs() {
        let id = e
            .out
            .add_input(net.node(pi).name().to_string())
            .expect("unique input name");
        root.insert(pi, id);
        e.level.insert(id, 0);
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
            node_heights.push((node.name().to_string(), 0, 0));
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
        node_heights.push((node.name().to_string(), e.level[&final_id], hb));
    }

    let mut out = e.out;
    for (name, o) in net.outputs() {
        out.add_output(name.clone(), root[o]);
    }
    out.check()
        .expect("decomposed network must be structurally sound");
    obs::counter!("decomp.nodes.emitted", out.logic_ids().count() as u64);
    let depth = netlist::traversal::depth(&out);
    // Renames are done: freeze the provenance map under final names.
    let provenance = prov
        .iter()
        .map(|(nid, orig)| {
            (
                out.node(*nid).name().to_string(),
                net.node(*orig).name().to_string(),
            )
        })
        .collect();
    DecomposedNetwork {
        network: out,
        node_heights,
        applied_bounds: HashMap::new(),
        depth,
        provenance,
        roots: root,
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

/// Build a correlation-aware AND tree over literal signals using the
/// Modified Huffman algorithm with exact pairwise joints (eqs. 7–9). Each
/// source is `(original node, phase)`; phase `false` means the literal is
/// the complement of the node signal.
fn correlated_and_tree(
    bdds: &mut NetworkBdds,
    act: &ActivityMap,
    sources: &[(NodeId, bool)],
    obj: DecompObjective,
) -> DecompTree {
    let n = sources.len();
    let p: Vec<f64> = sources
        .iter()
        .map(|&(s, phase)| {
            let ps = act.p_one(s);
            if phase {
                ps
            } else {
                1.0 - ps
            }
        })
        .collect();
    let mut joint = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                joint[i][j] = p[i];
                continue;
            }
            let (si, phi) = sources[i];
            let (sj, phj) = sources[j];
            let pi_pos = act.p_one(si);
            let pj_pos = act.p_one(sj);
            let j_pos = bdds.joint(si, sj); // P(si=1 ∧ sj=1)
                                            // Transform through the literal phases.
            let v = match (phi, phj) {
                (true, true) => j_pos,
                (true, false) => pi_pos - j_pos,
                (false, true) => pj_pos - j_pos,
                (false, false) => 1.0 - pi_pos - pj_pos + j_pos,
            };
            joint[i][j] = v.clamp(0.0, p[i].min(p[j]));
        }
    }
    let matrix = CorrelationMatrix::new(p, joint);
    modified_huffman_correlated(&matrix, obj)
}

/// Balanced reference height `H_n` of a node's decomposition in isolation
/// (AND trees of each cube + OR tree), counting inverters as one level.
fn balanced_height_estimate(sop: &Sop) -> usize {
    let mut max_cube = 0usize;
    for cube in sop.cubes() {
        let hs: Vec<usize> = cube
            .bound_lits()
            .map(|(_, l)| if l == Lit::Neg { 1 } else { 0 })
            .collect();
        if !hs.is_empty() {
            max_cube = max_cube.max(min_height(&hs));
        }
    }
    let m = sop.cube_count();
    if m <= 1 {
        max_cube
    } else {
        let cube_heights = vec![max_cube; m];
        min_height(&cube_heights)
    }
}

/// Arrival-balanced (power-oblivious) tree: repeatedly merge the two
/// earliest-arriving items — minimizes the root arrival (`F(x,y) =
/// max(x,y)+1` is quasi-linear, §2.1).
fn balanced_tree(probs: &[f64], heights: &[usize], obj: DecompObjective) -> DecompTree {
    let mut items: Vec<(DecompTree, usize)> = probs
        .iter()
        .zip(heights)
        .enumerate()
        .map(|(i, (&p, &h))| (DecompTree::leaf(i, p), h))
        .collect();
    while items.len() > 1 {
        let mut i0 = 0;
        for i in 1..items.len() {
            if items[i].1 < items[i0].1 {
                i0 = i;
            }
        }
        let (a, ha) = items.remove(i0);
        let mut i1 = 0;
        for i in 1..items.len() {
            if items[i].1 < items[i1].1 {
                i1 = i;
            }
        }
        let (b, hb) = items.remove(i1);
        items.push((DecompTree::merge(a, b, obj), ha.max(hb) + 1));
    }
    items.pop().expect("one tree").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use activity::analyze;
    use netlist::parse_blif;

    fn equivalent(a: &Network, b: &Network) -> bool {
        let n = a.inputs().len();
        for bits in 0..(1u64 << n) {
            let v: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            if a.eval_outputs(&v) != b.eval_outputs(&v) {
                return false;
            }
        }
        true
    }

    fn sample() -> Network {
        parse_blif(
            ".model s\n.inputs a b c d e\n.outputs f g\n\
             .names a b c d x\n1111 1\n\
             .names x e f\n10 1\n01 1\n\
             .names a b c d e g\n11--- 1\n--111 1\n.end\n",
        )
        .unwrap()
        .network
    }

    #[test]
    fn all_styles_preserve_function() {
        let net = sample();
        for style in [
            DecompStyle::Conventional,
            DecompStyle::MinPower,
            DecompStyle::BoundedMinPower,
        ] {
            let d = decompose_network(&net, &DecompOptions::new(style));
            d.network.check().unwrap();
            assert!(
                equivalent(&net, &d.network),
                "style {style:?} broke function"
            );
        }
    }

    #[test]
    fn all_nodes_have_at_most_two_inputs() {
        let net = sample();
        let d = decompose_network(&net, &DecompOptions::new(DecompStyle::MinPower));
        for id in d.network.logic_ids() {
            assert!(d.network.node(id).fanins().len() <= 2);
        }
    }

    #[test]
    fn minpower_beats_or_ties_conventional_on_switching() {
        let net = sample();
        let probs = vec![0.2, 0.8, 0.3, 0.9, 0.5];
        let mk = |style| DecompOptions {
            style,
            model: TransitionModel::StaticCmos,
            pi_probs: Some(probs.clone()),
            required_time: None,
            use_correlations: false,
        };
        let conv = decompose_network(&net, &mk(DecompStyle::Conventional));
        let mp = decompose_network(&net, &mk(DecompStyle::MinPower));
        let total = |d: &DecomposedNetwork| {
            let a = analyze(&d.network, &probs, TransitionModel::StaticCmos);
            a.total_switching(d.network.logic_ids())
        };
        let (tc, tm) = (total(&conv), total(&mp));
        assert!(
            tm <= tc + 1e-9,
            "minpower total switching {tm} must not exceed conventional {tc}"
        );
    }

    #[test]
    fn bounded_meets_balanced_depth() {
        let net = sample();
        let conv = decompose_network(&net, &DecompOptions::new(DecompStyle::Conventional));
        let bounded = decompose_network(&net, &DecompOptions::new(DecompStyle::BoundedMinPower));
        assert!(
            bounded.depth <= conv.depth,
            "bounded depth {} must meet conventional depth {}",
            bounded.depth,
            conv.depth
        );
    }

    #[test]
    fn bounded_recovers_skewed_timing_on_wide_nodes() {
        // A wide AND node whose minpower tree is a chain: the bounded pass
        // must pull the depth back to the conventional level.
        let mut blif = String::from(".model w\n.inputs ");
        for i in 0..8 {
            blif.push_str(&format!("x{i} "));
        }
        blif.push_str("\n.outputs o\n.names ");
        for i in 0..8 {
            blif.push_str(&format!("x{i} "));
        }
        blif.push_str("o\n11111111 1\n.end\n");
        let net = parse_blif(&blif).unwrap().network;
        // Non-uniform probabilities force a skewed minpower chain.
        let probs: Vec<f64> = (0..8).map(|i| 0.1 + 0.1 * i as f64).collect();
        let mk = |style| DecompOptions {
            style,
            model: TransitionModel::StaticCmos,
            pi_probs: Some(probs.clone()),
            required_time: None,
            use_correlations: false,
        };
        let conv = decompose_network(&net, &mk(DecompStyle::Conventional));
        let mp = decompose_network(&net, &mk(DecompStyle::MinPower));
        let bh = decompose_network(&net, &mk(DecompStyle::BoundedMinPower));
        assert!(mp.depth > conv.depth, "test premise: minpower is deeper");
        assert!(bh.depth <= conv.depth, "bounded must recover timing");
        assert!(equivalent(&net, &bh.network));
    }

    #[test]
    fn explicit_required_time_is_respected_when_feasible() {
        let net = sample();
        let conv = decompose_network(&net, &DecompOptions::new(DecompStyle::Conventional));
        let opts = DecompOptions {
            style: DecompStyle::BoundedMinPower,
            model: TransitionModel::StaticCmos,
            pi_probs: None,
            required_time: Some(conv.depth),
            use_correlations: false,
        };
        let d = decompose_network(&net, &opts);
        assert!(d.depth <= conv.depth);
        d.network.check().unwrap();
    }

    #[test]
    fn constants_survive_decomposition() {
        let net = parse_blif(
            ".model c\n.inputs a\n.outputs f one\n.names one\n1\n\
             .names a one f\n11 1\n.end\n",
        )
        .unwrap()
        .network;
        let d = decompose_network(&net, &DecompOptions::new(DecompStyle::MinPower));
        d.network.check().unwrap();
        assert_eq!(d.network.eval_outputs(&[true]), vec![true, true]);
        assert_eq!(d.network.eval_outputs(&[false]), vec![false, true]);
    }

    #[test]
    fn wide_single_cube_becomes_and_tree() {
        let net = parse_blif(
            ".model w\n.inputs a b c d e f g h\n.outputs o\n\
             .names a b c d e f g h o\n11111111 1\n.end\n",
        )
        .unwrap()
        .network;
        let d = decompose_network(&net, &DecompOptions::new(DecompStyle::MinPower));
        assert!(equivalent(&net, &d.network));
        // 8-input AND => 7 AND2 gates.
        let and2 = d
            .network
            .logic_ids()
            .filter(|&id| d.network.node(id).fanins().len() == 2)
            .count();
        assert_eq!(and2, 7);
    }

    #[test]
    fn correlated_decomposition_pairs_anticorrelated_signals() {
        // x = a·b and y = a·!b are mutually exclusive: P(x ∧ y) = 0. A
        // correlation-aware AND tree must merge them first, making the
        // subtree output constant-0-probability; the independence-based
        // tree cannot see this.
        let net = parse_blif(
            ".model c\n.inputs a b c d\n.outputs f\n\
             .names a b x\n11 1\n.names a b y\n10 1\n\
             .names x y c d f\n1111 1\n.end\n",
        )
        .unwrap()
        .network;
        let probs = vec![0.5; 4];
        let base = DecompOptions {
            style: DecompStyle::MinPower,
            model: TransitionModel::StaticCmos,
            pi_probs: Some(probs.clone()),
            required_time: None,
            use_correlations: false,
        };
        let indep = decompose_network(&net, &base);
        let corr = decompose_network(
            &net,
            &DecompOptions {
                use_correlations: true,
                ..base.clone()
            },
        );
        assert!(equivalent(&net, &indep.network));
        assert!(equivalent(&net, &corr.network));
        // Exact switching of the correlated result must not exceed the
        // independent result (it can exploit the mutual exclusion).
        let total = |d: &DecomposedNetwork| {
            let a = analyze(&d.network, &probs, TransitionModel::StaticCmos);
            a.total_switching(d.network.logic_ids())
        };
        assert!(
            total(&corr) <= total(&indep) + 1e-9,
            "correlated {} vs independent {}",
            total(&corr),
            total(&indep)
        );
    }

    #[test]
    fn fresh_names_avoid_source_names() {
        // `g` needs an inverter and a gate before `inv_0` and `d_0` are
        // decomposed; their fresh names must not take the source names.
        let net = parse_blif(
            ".model clash\n.inputs a b c d\n.outputs g inv_0 d_0\n\
             .names a b g\n01 1\n.names a c d inv_0\n111 1\n\
             .names b c d d_0\n0-1 1\n1-0 1\n.end\n",
        )
        .unwrap()
        .network;
        for style in [
            DecompStyle::Conventional,
            DecompStyle::MinPower,
            DecompStyle::BoundedMinPower,
        ] {
            let d = decompose_network(&net, &DecompOptions::new(style));
            assert!(equivalent(&net, &d.network), "style {style:?}");
            for id in net.node_ids() {
                let root = d.network.node(d.roots[&id]);
                assert_eq!(root.name(), net.node(id).name(), "style {style:?}");
            }
        }
    }

    #[test]
    fn conventional_is_arrival_balanced() {
        // Wide AND fed by another AND: the late signal must be merged last.
        let net = parse_blif(
            ".model t\n.inputs a b c d\n.outputs o\n.names a b x\n11 1\n\
             .names x c d o\n111 1\n.end\n",
        )
        .unwrap()
        .network;
        let d = decompose_network(&net, &DecompOptions::new(DecompStyle::Conventional));
        // depth must be 3: c·d at level 1, (c·d)·x at level 2... x itself is
        // level 1, so ((c·d)·x) = level 2 and o is that root => total 2? The
        // x tree root is the `x`-named node at level 1; merging (c,d) first
        // gives level 2, then with x gives level 3.
        assert!(d.depth <= 3, "arrival-balanced depth {} too deep", d.depth);
    }
}
