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
//! surplus values are still reported per source node ([`SourceNode`]).
//!
//! A decomposition is first a [`Plan`]: the gates to create, in creation
//! order, with their fanins and levels, and no names. The §2.3 loop runs
//! on the plan — a round rebuilds only the trees its new bound reaches and
//! re-times the plan's gates — and every style emits its network once.

use crate::decomp::bounded::{bounded_minpower_tree_with_heights, min_height};
use crate::decomp::huffman::minpower_tree;
use crate::decomp::modified::modified_huffman_correlated;
use crate::decomp::objective::{DecompObjective, GateKind};
use crate::decomp::tree::{DecompTree, TreeNode};
use activity::{ActivityMap, CorrelationMatrix, NetworkBdds, TransitionModel};
use netlist::{Lit, Network, NodeId, Sop};
use std::ops::Range;

#[cfg(test)]
mod reference;

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
    /// Depth (unit-delay levels) of the decomposed network.
    pub depth: i64,
    /// One record per node of the source network: its primary inputs in
    /// order, then its logic nodes in topological order.
    pub sources: Vec<SourceNode>,
    /// Provenance: per node of [`DecomposedNetwork::network`], by
    /// [`NodeId::index`], the position in `sources` of the node whose
    /// decomposition emitted it. Tree gates and aliasing buffers belong to
    /// the node being decomposed, shared inverters (`inv_*`) to the node
    /// that *drives* them, and an input to itself.
    pub origin: Vec<usize>,
}

/// What the decomposition made of one source node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceNode {
    /// The node in the source network.
    pub id: NodeId,
    /// Its name, which its root carries too.
    pub name: String,
    /// The node of [`DecomposedNetwork::network`] computing its function:
    /// its tree root, aliasing buffer, constant or input.
    pub root: NodeId,
    /// The unit-delay level of `root`, with constants at 0.
    pub level: usize,
    /// The balanced height of the node's decomposition in isolation (0
    /// for an input or a constant); `level` minus this is the paper's
    /// `depth_surplus`.
    pub balanced: usize,
    /// The root-level bound the §2.3 loop applied (bounded style only).
    pub bound: Option<usize>,
}

/// Per-node tree policy used by the planner.
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
        DecompStyle::Conventional => {
            Plan::new(net, &act, opts.model, corr, NodePolicy::Balanced).emit()
        }
        DecompStyle::MinPower => {
            Plan::new(net, &act, opts.model, corr, NodePolicy::MinPower).emit()
        }
        DecompStyle::BoundedMinPower => bounded_decompose(net, &act, corr, opts),
    }
}

/// The §2.3 loop: unrestricted MINPOWER first; while the unit-delay
/// requirement is violated, re-decompose the most negative-slack original
/// node with its root's exact required time as the arrival bound. Slacks
/// are those of the network the plan emits; it is emitted once, at the end.
fn bounded_decompose(
    net: &Network,
    act: &ActivityMap,
    corr: Option<&mut NetworkBdds>,
    opts: &DecompOptions,
) -> DecomposedNetwork {
    let required = opts.required_time.unwrap_or_else(|| {
        let balanced = Plan::new(net, act, opts.model, None, NodePolicy::Balanced);
        balanced.depth(&balanced.arrivals())
    });
    let mut plan = Plan::new(net, act, opts.model, corr, NodePolicy::MinPower);
    let mut redecomposed = vec![false; net.arena_len()];

    loop {
        let arrival = plan.arrivals();
        if plan.depth(&arrival) <= required {
            break;
        }
        obs::counter!("decomp.slack.iterations");
        let req = plan.required_times(required);

        // Most negative slack at an original node's root, among nodes not
        // yet re-decomposed; ties broken toward higher fanout (the paper:
        // "the node shared by a maximum number of paths is processed
        // first").
        let mut cand: Option<(i64, i64, NodeId)> = None;
        for id in net.logic_ids() {
            let root = plan.root[id.index()];
            if redecomposed[id.index()] || req[root] == i64::MAX {
                continue;
            }
            let s = req[root] - arrival[root] as i64;
            if s >= 0 {
                continue;
            }
            let key = (s, -(net.node(id).fanouts().len() as i64));
            if cand.is_none_or(|(s0, f0, _)| key < (s0, f0)) {
                cand = Some((key.0, key.1, id));
            }
        }
        let Some((_, _, n)) = cand else { break };
        obs::counter!("decomp.redecomp.rounds");
        // Exact required arrival level at this node's root.
        let bound = req[plan.root[n.index()]].max(0) as usize;
        redecomposed[n.index()] = true;
        plan.rebound(n, bound);
    }

    let d = plan.emit();
    if d.depth > required {
        obs::counter!("decomp.required.unmet");
        obs::note_event!(
            "decomp: {} misses its unit-delay target: depth {} > required {}",
            net.name(),
            d.depth,
            required
        );
    }
    d
}

/// What a planned gate computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// A primary input.
    Input,
    /// A fanin-less constant node: 1 when `true`.
    Const(bool),
    /// The inverter of a source signal, shared by its negative literals.
    Inv,
    /// A gate of a cube's AND tree.
    And,
    /// A gate of a node's OR tree over its cubes.
    Or,
    /// A buffer giving a node's name to a signal that is not its own (a
    /// node whose function is a single literal).
    Buf,
}

impl Op {
    fn arity(self) -> usize {
        match self {
            Op::Input | Op::Const(_) => 0,
            Op::Inv | Op::Buf => 1,
            Op::And | Op::Or => 2,
        }
    }
}

/// A decomposition before it is a network: the gates the emitter creates,
/// in creation order (every fanin precedes its consumer), with their
/// fanins and levels, and no names. Which gates exist and in what order
/// depends on the source network alone; a node's policy only shapes its
/// trees, that is how the AND and OR gates it reserves are wired.
struct Plan<'a> {
    net: &'a Network,
    act: &'a ActivityMap,
    and_obj: DecompObjective,
    or_obj: DecompObjective,
    /// Per gate: what it computes, its fanin gates (the first
    /// [`Op::arity`]), its unit-delay level with constants at 0 (the level
    /// tree leaves are placed at), and the source node whose decomposition
    /// emits it (for an inverter, the node it inverts).
    op: Vec<Op>,
    fanin: Vec<[usize; 2]>,
    level: Vec<usize>,
    owner: Vec<NodeId>,
    /// Per source node, by [`NodeId::index`]: the gate computing its
    /// function.
    root: Vec<usize>,
    /// Logic nodes in topological order.
    nodes: Vec<NodePlan>,
    /// Cubes of all nodes, node by node.
    cubes: Vec<CubePlan>,
    /// Literal leaves of all cubes, cube by cube.
    leaves: Vec<Leaf>,
}

/// One logic node of the source network.
struct NodePlan {
    id: NodeId,
    policy: NodePolicy,
    /// Its gates: the inverters it is the first to need, its AND gates,
    /// then its OR gates and its buffer, or its constant. The last one is
    /// its root.
    gates: Range<usize>,
    /// Its cubes (none for a constant) and their leaves.
    cubes: Range<usize>,
    leaves: Range<usize>,
}

/// One cube: its leaves and its first AND gate.
struct CubePlan {
    leaves: Range<usize>,
    and_start: usize,
}

/// A literal of a cube.
struct Leaf {
    /// The gate it reads: the source signal's root or its inverter.
    gate: usize,
    /// The source signal and the literal's phase (`true` = positive).
    src: NodeId,
    phase: bool,
    /// `P(literal = 1)`.
    p: f64,
    /// The gate's level when the cube's tree was last built.
    built_at: usize,
}

impl<'a> Plan<'a> {
    /// Lay out the gates of `net` and build every node's trees under
    /// `policy`; with `corr`, MINPOWER AND trees are correlation-aware
    /// (Modified Huffman, eqs. 7–9, seeded with exact joint probabilities
    /// from the source network's global BDDs).
    fn new(
        net: &'a Network,
        act: &'a ActivityMap,
        model: TransitionModel,
        mut corr: Option<&mut NetworkBdds>,
        policy: NodePolicy,
    ) -> Plan<'a> {
        let mut plan = Plan {
            net,
            act,
            and_obj: DecompObjective::new(model, GateKind::And),
            or_obj: DecompObjective::new(model, GateKind::Or),
            op: Vec::new(),
            fanin: Vec::new(),
            level: Vec::new(),
            owner: Vec::new(),
            root: vec![usize::MAX; net.arena_len()],
            nodes: Vec::new(),
            cubes: Vec::new(),
            leaves: Vec::new(),
        };
        let mut inverter = vec![usize::MAX; net.arena_len()];
        for &pi in net.inputs() {
            plan.root[pi.index()] = plan.push(Op::Input, 0, pi);
        }
        for id in net.topo_order().expect("acyclic") {
            let node = net.node(id);
            let Some(sop) = node.sop() else { continue };
            let (gates, cubes, leaves) = (plan.op.len(), plan.cubes.len(), plan.leaves.len());
            if sop.is_zero() || sop.has_tautology_cube() {
                plan.push(Op::Const(!sop.is_zero()), 0, id);
            } else {
                for cube in sop.cubes() {
                    let first = plan.leaves.len();
                    for (pos, lit) in cube.bound_lits() {
                        let src = node.fanins()[pos];
                        let phase = lit == Lit::Pos;
                        let mut gate = plan.root[src.index()];
                        if !phase {
                            if inverter[src.index()] == usize::MAX {
                                inverter[src.index()] = plan.push(Op::Inv, gate, src);
                            }
                            gate = inverter[src.index()];
                        }
                        let p = act.p_one(src);
                        plan.leaves.push(Leaf {
                            gate,
                            src,
                            phase,
                            p: if phase { p } else { 1.0 - p },
                            built_at: 0,
                        });
                    }
                    let and_start = plan.reserve(Op::And, plan.leaves.len() - first - 1, id);
                    plan.cubes.push(CubePlan {
                        leaves: first..plan.leaves.len(),
                        and_start,
                    });
                }
                plan.reserve(Op::Or, sop.cube_count() - 1, id);
                if sop.cube_count() == 1 && sop.literal_count() == 1 {
                    let leaf = plan.leaves[leaves].gate;
                    plan.push(Op::Buf, leaf, id);
                }
            }
            plan.root[id.index()] = plan.op.len() - 1;
            plan.nodes.push(NodePlan {
                id,
                policy,
                gates: gates..plan.op.len(),
                cubes: cubes..plan.cubes.len(),
                leaves: leaves..plan.leaves.len(),
            });
            plan.grow(plan.nodes.len() - 1, corr.as_deref_mut());
        }
        plan
    }

    /// Append `n` gates for `owner`, to be wired by [`Plan::wire`]; returns
    /// the first.
    fn reserve(&mut self, op: Op, n: usize, owner: NodeId) -> usize {
        let first = self.op.len();
        for _ in 0..n {
            self.op.push(op);
            self.fanin.push([0, 0]);
            self.level.push(0);
            self.owner.push(owner);
        }
        first
    }

    /// Append a gate with at most one fanin (inputs and constants ignore
    /// `fanin`); returns it.
    fn push(&mut self, op: Op, fanin: usize, owner: NodeId) -> usize {
        let g = self.reserve(op, 1, owner);
        self.fanin[g] = [fanin, fanin];
        self.settle(g..g + 1);
        g
    }

    /// Build node `k`'s trees under its policy over the current levels of
    /// its leaves, and wire them into its gates.
    fn grow(&mut self, k: usize, mut corr: Option<&mut NetworkBdds>) {
        let node = &self.nodes[k];
        let (policy, cubes, gates_end) = (node.policy, node.cubes.clone(), node.gates.end);
        // Split the arrival budget between the cube AND trees and the OR
        // tree above them (bounded style only).
        let (and_pol, or_pol) = match policy {
            NodePolicy::Bounded(l) => {
                let m = cubes.len();
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
        // (root gate, P(root = 1)) of every cube.
        let mut cube_roots: Vec<(usize, f64)> = Vec::with_capacity(cubes.len());
        for c in cubes {
            let CubePlan {
                ref leaves,
                and_start,
            } = self.cubes[c];
            let leaves = &mut self.leaves[leaves.clone()];
            for leaf in leaves.iter_mut() {
                leaf.built_at = self.level[leaf.gate];
            }
            if let [leaf] = leaves {
                cube_roots.push((leaf.gate, leaf.p));
                continue;
            }
            let gates: Vec<usize> = leaves.iter().map(|l| l.gate).collect();
            let tree = match (&mut corr, and_pol) {
                (Some(bdds), NodePolicy::MinPower) if leaves.len() >= 3 => {
                    let sources: Vec<(NodeId, bool)> =
                        leaves.iter().map(|l| (l.src, l.phase)).collect();
                    correlated_and_tree(bdds, self.act, &sources, self.and_obj)
                }
                _ => {
                    let probs: Vec<f64> = leaves.iter().map(|l| l.p).collect();
                    let heights: Vec<usize> = leaves.iter().map(|l| l.built_at).collect();
                    grow_tree(&probs, &heights, self.and_obj, and_pol)
                }
            };
            let mut next = and_start;
            let root = self.wire(&tree, tree.root(), &gates, &mut next);
            cube_roots.push((root, tree.p_root()));
        }
        if cube_roots.len() > 1 {
            let gates: Vec<usize> = cube_roots.iter().map(|&(g, _)| g).collect();
            let probs: Vec<f64> = cube_roots.iter().map(|&(_, p)| p).collect();
            let heights: Vec<usize> = gates.iter().map(|&g| self.level[g]).collect();
            let tree = grow_tree(&probs, &heights, self.or_obj, or_pol);
            // The OR gates close the node's range.
            let mut next = gates_end + 1 - gates.len();
            self.wire(&tree, tree.root(), &gates, &mut next);
        }
    }

    /// Wire the subtree of `tree` at `idx` over the leaf gates `leaves`
    /// into the reserved gates from `next` on, in the order the emitter
    /// creates them (left subtree, right subtree, gate), and settle their
    /// levels; returns the subtree's root gate.
    fn wire(&mut self, tree: &DecompTree, idx: usize, leaves: &[usize], next: &mut usize) -> usize {
        match tree.nodes()[idx] {
            TreeNode::Leaf { input, .. } => leaves[input],
            TreeNode::Internal { left, right, .. } => {
                let l = self.wire(tree, left, leaves, next);
                let r = self.wire(tree, right, leaves, next);
                let g = *next;
                *next += 1;
                self.fanin[g] = [l, r];
                self.settle(g..g + 1);
                g
            }
        }
    }

    /// Recompute the levels of `gates` from their fanins' levels.
    fn settle(&mut self, gates: Range<usize>) {
        for g in gates {
            self.level[g] = self.level_of(g, &self.level, 0);
        }
    }

    /// The unit-delay level of gate `g` over `lv`, the levels of the gates
    /// before it, with a constant at level `constant`.
    fn level_of(&self, g: usize, lv: &[usize], constant: usize) -> usize {
        let [a, b] = self.fanin[g];
        match self.op[g] {
            Op::Input => 0,
            Op::Const(_) => constant,
            Op::Inv | Op::Buf => lv[a] + 1,
            Op::And | Op::Or => lv[a].max(lv[b]) + 1,
        }
    }

    /// Unit-delay arrival times of the gates, as
    /// [`netlist::traversal::unit_arrival_times`] gives them on the emitted
    /// network: there a fanin-less constant arrives at 1, not 0.
    fn arrivals(&self) -> Vec<usize> {
        let mut arrival = vec![0; self.op.len()];
        for g in 0..arrival.len() {
            arrival[g] = self.level_of(g, &arrival, 1);
        }
        arrival
    }

    /// Depth of the emitted network: its latest output arrival.
    fn depth(&self, arrival: &[usize]) -> i64 {
        self.net
            .outputs()
            .iter()
            .map(|(_, o)| arrival[self.root[o.index()]] as i64)
            .max()
            .unwrap_or(0)
    }

    /// Unit-delay required times of the gates for outputs required at
    /// `required`, as [`netlist::traversal::unit_required_times`] gives
    /// them: the minimum over a gate's consumers, `i64::MAX` for a gate
    /// that reaches no output.
    fn required_times(&self, required: i64) -> Vec<i64> {
        let mut req = vec![i64::MAX; self.op.len()];
        for (_, o) in self.net.outputs() {
            req[self.root[o.index()]] = required;
        }
        for g in (0..req.len()).rev() {
            if req[g] == i64::MAX {
                continue;
            }
            for &f in &self.fanin[g][..self.op[g].arity()] {
                req[f] = req[f].min(req[g] - 1);
            }
        }
        req
    }

    /// Bound the root arrival of source node `n` by `bound` and re-plan:
    /// rebuild its trees, then re-level every later node, rebuilding the
    /// trees of a bounded node whose leaf levels moved. MINPOWER trees
    /// depend on probabilities alone and are kept.
    fn rebound(&mut self, n: NodeId, bound: usize) {
        let k = self
            .nodes
            .iter()
            .position(|p| p.id == n)
            .expect("logic node");
        self.nodes[k].policy = NodePolicy::Bounded(bound);
        self.grow(k, None);
        for j in k + 1..self.nodes.len() {
            let node = &self.nodes[j];
            let (gates, leaves) = (node.gates.clone(), node.leaves.clone());
            self.settle(gates);
            let moved = self.leaves[leaves]
                .iter()
                .any(|l| self.level[l.gate] != l.built_at);
            if moved && matches!(self.nodes[j].policy, NodePolicy::Bounded(_)) {
                self.grow(j, None);
            }
        }
    }

    /// Emit the planned network. Gates are created in plan order and draw
    /// their fresh names in that order; a node's root tree gate takes the
    /// node's name as soon as it exists.
    fn emit(&self) -> DecomposedNetwork {
        let net = self.net;
        let mut out = Network::new(format!("{}_decomp", net.name()));
        let sop = |width, rows: &[&str]| Sop::parse(width, rows).expect("gate sop");
        let (and2, or2) = (sop(2, &["11"]), sop(2, &["1-", "-1"]));
        let (inv, buf) = (sop(1, &["0"]), sop(1, &["1"]));
        // The source nodes in record order, and each one's position in it.
        let order: Vec<(NodeId, Option<&NodePlan>)> = net
            .inputs()
            .iter()
            .map(|&pi| (pi, None))
            .chain(self.nodes.iter().map(|n| (n.id, Some(n))))
            .collect();
        let mut position = vec![usize::MAX; net.arena_len()];
        for (k, &(id, _)) in order.iter().enumerate() {
            position[id.index()] = k;
        }
        let mut ids: Vec<NodeId> = Vec::with_capacity(self.op.len());
        let mut origin = vec![usize::MAX; self.op.len()];
        for (g, &op) in self.op.iter().enumerate() {
            let owner = self.owner[g];
            let name = net.node(owner).name();
            let fanins: Vec<NodeId> = self.fanin[g][..op.arity()]
                .iter()
                .map(|&f| ids[f])
                .collect();
            let id = match op {
                Op::Input => out.add_input(name),
                Op::Const(one) => {
                    let value = if one { Sop::one(0) } else { Sop::zero(0) };
                    out.add_logic(name, fanins, value)
                }
                Op::Inv => {
                    let fresh = fresh_name(&mut out, net, "inv_");
                    out.add_logic(fresh, fanins, inv.clone())
                }
                Op::And | Op::Or => {
                    let fresh = fresh_name(&mut out, net, "d_");
                    let gate = if op == Op::And { &and2 } else { &or2 };
                    out.add_logic(fresh, fanins, gate.clone())
                }
                Op::Buf => out.add_logic(name, fanins, buf.clone()),
            }
            .expect("planned names are unique");
            if self.root[owner.index()] == g && matches!(op, Op::And | Op::Or) {
                out.rename_node(id, name)
                    .expect("original names are unique");
            }
            origin[id.index()] = position[owner.index()];
            ids.push(id);
        }
        for (name, o) in net.outputs() {
            out.add_output(name.clone(), ids[self.root[o.index()]]);
        }
        out.check()
            .expect("decomposed network must be structurally sound");
        obs::counter!("decomp.nodes.emitted", out.logic_ids().count() as u64);

        let sources = order
            .into_iter()
            .map(|(id, plan)| {
                let (node, root) = (net.node(id), self.root[id.index()]);
                SourceNode {
                    id,
                    name: node.name().to_string(),
                    root: ids[root],
                    level: self.level[root],
                    balanced: plan
                        .filter(|n| !n.cubes.is_empty())
                        .and(node.sop())
                        .map_or(0, balanced_height_estimate),
                    bound: match plan.map(|n| n.policy) {
                        Some(NodePolicy::Bounded(b)) => Some(b),
                        _ => None,
                    },
                }
            })
            .collect();
        DecomposedNetwork {
            depth: netlist::traversal::depth(&out),
            network: out,
            sources,
            origin,
        }
    }
}

/// A name with `prefix` that is unused in `out` and that no node of
/// `source` claims later (the roots of its nodes take their names).
fn fresh_name(out: &mut Network, source: &Network, prefix: &str) -> String {
    loop {
        let name = out.fresh_name(prefix);
        if source.find(&name).is_none() {
            return name;
        }
    }
}

/// Build a tree over leaves with the given 1-probabilities and arrival
/// levels under `pol`.
fn grow_tree(
    probs: &[f64],
    heights: &[usize],
    obj: DecompObjective,
    pol: NodePolicy,
) -> DecompTree {
    obs::counter!("decomp.trees.built");
    match pol {
        NodePolicy::Balanced => balanced_tree(probs, heights, obj),
        NodePolicy::MinPower => minpower_tree(probs, obj),
        NodePolicy::Bounded(bound) => {
            let feasible = min_height(heights).max(bound);
            bounded_minpower_tree_with_heights(probs, heights, obj, feasible)
                .expect("bound made feasible by construction")
        }
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
    obs::counter!("decomp.trees.built");
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
    fn an_unmet_unit_delay_target_is_counted_and_noted() {
        let net = sample();
        let conv = decompose_network(&net, &DecompOptions::new(DecompStyle::Conventional));
        for (required, unmet) in [(None, false), (Some(conv.depth - 1), true)] {
            let opts = DecompOptions {
                required_time: required,
                ..DecompOptions::new(DecompStyle::BoundedMinPower)
            };
            let session = obs::Session::start();
            let d = decompose_network(&net, &opts);
            let report = session.finish();
            let (_, notes) = obs::check::check_jsonl(&report.render_jsonl()).unwrap();
            let count = report.metrics.counters.get("decomp.required.unmet");
            if unmet {
                assert!(
                    d.depth > conv.depth - 1,
                    "test premise: the target is infeasible"
                );
                assert_eq!(count, Some(&1));
                let text = format!(
                    "decomp: s misses its unit-delay target: depth {} > required {}",
                    d.depth,
                    conv.depth - 1
                );
                assert_eq!(notes.iter().map(|n| &n.1).collect::<Vec<_>>(), [&text]);
            } else {
                assert_eq!((count, notes.len()), (None, 0));
            }
        }
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
            assert_eq!(d.sources.len(), net.node_ids().count(), "style {style:?}");
            for s in &d.sources {
                assert_eq!(d.network.node(s.root).name(), s.name, "style {style:?}");
                assert_eq!(net.node(s.id).name(), s.name, "style {style:?}");
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
