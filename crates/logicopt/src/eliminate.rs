//! Value-based node elimination (collapsing).
//!
//! A node is collapsed into its fanouts when doing so does not increase the
//! network literal count by more than a threshold — the SIS `eliminate`
//! operation. Collapsing duplicates logic at multi-fanout points, so the
//! value function guards against blow-up.

use netlist::{Cube, Lit, Network, NodeId, Sop};

/// Substitute cover `g` (and its complement) for variable `pos` of `f`.
///
/// Variable convention of the result: `f`'s variables keep their positions
/// (position `pos` becomes unused), `g`'s variables are appended after them.
pub fn compose(f: &Sop, pos: usize, g: &Sop) -> Sop {
    let gw = g.width();
    let fw = f.width();
    let shift: Vec<usize> = (0..gw).map(|i| fw + i).collect();
    let g_pos = g.remap(&shift, fw + gw);
    let g_neg = g.complement().remap(&shift, fw + gw);
    let mut out = Sop::zero(fw + gw);
    for cube in f.cubes() {
        let mut base = cube.clone();
        let phase = base.lit(pos);
        base.set_lit(pos, Lit::Free);
        let base_sop = Sop::from_cubes(fw, vec![base]).remap(&(0..fw).collect::<Vec<_>>(), fw + gw);
        let term = match phase {
            Lit::Free => base_sop,
            Lit::Pos => base_sop.and(&g_pos),
            Lit::Neg => base_sop.and(&g_neg),
        };
        out = out.or(&term);
    }
    out.make_scc_minimal();
    out
}

/// The new function of one fanout once the victim is collapsed into it:
/// `(fanout, fanins, cover)`.
pub(crate) type Rewrite = (NodeId, Vec<NodeId>, Sop);

/// The rewrites that collapsing `victim` makes, one per fanout in the
/// victim's fanout order. The network is left as it is.
///
/// # Panics
/// Panics if `victim` is a primary input.
pub(crate) fn plan_collapse(net: &Network, victim: NodeId) -> Vec<Rewrite> {
    assert!(
        !net.node(victim).is_input(),
        "cannot collapse a primary input"
    );
    let g = net.node(victim).sop().expect("logic node");
    let g_fanins = net.node(victim).fanins();
    let mut plan = Vec::new();
    for &fo in net.node(victim).fanouts() {
        let f = net.node(fo).sop().expect("logic node");
        let f_fanins = net.node(fo).fanins();
        let pos = f_fanins
            .iter()
            .position(|&x| x == victim)
            .expect("fanin present");
        let composed = compose(f, pos, g);
        // Build merged fanin list: f's fanins then g's fanins, deduped,
        // dropping the victim position.
        let mut all: Vec<NodeId> = f_fanins.to_vec();
        all.extend(g_fanins.iter().copied());
        let mut merged: Vec<NodeId> = Vec::new();
        for (i, &n) in all.iter().enumerate() {
            if i == pos {
                continue;
            }
            if !merged.contains(&n) {
                merged.push(n);
            }
        }
        let perm: Vec<usize> = all
            .iter()
            .enumerate()
            .map(|(i, n)| {
                if i == pos {
                    usize::MAX // never bound: compose freed this position
                } else {
                    merged.iter().position(|m| m == n).expect("present")
                }
            })
            .collect();
        let cubes: Vec<Cube> = composed
            .cubes()
            .iter()
            .filter_map(|c| c.remap(&perm, merged.len()))
            .collect();
        let mut sop = Sop::from_cubes(merged.len(), cubes);
        sop.make_scc_minimal();
        let (shrunk, kept) = sop.shrink_support();
        let kept_fanins: Vec<NodeId> = kept.iter().map(|&i| merged[i]).collect();
        plan.push((fo, kept_fanins, shrunk));
    }
    plan
}

/// Apply a [`plan_collapse`] result and sweep the logic it leaves dangling.
fn apply_collapse(net: &mut Network, plan: Vec<Rewrite>) {
    for (fo, fanins, sop) in plan {
        net.replace_function(fo, fanins, sop);
    }
    net.sweep_dangling();
}

/// Collapse node `victim` into every fanout. The victim must not be a
/// primary input. After the call the victim is dangling (removed by the
/// internal sweep) unless it drives a primary output.
///
/// # Panics
/// Panics if `victim` is a primary input.
pub fn collapse_node(net: &mut Network, victim: NodeId) {
    let plan = plan_collapse(net, victim);
    apply_collapse(net, plan);
}

/// Report of an eliminate pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EliminateReport {
    /// Nodes collapsed.
    pub nodes_eliminated: usize,
}

/// Per-node scratch of one priced collapse, valid where `epoch` is the
/// trial's.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    epoch: u32,
    /// Fanouts left in the collapsed network that sweep would keep.
    live_fanouts: u32,
    /// Swept by this collapse.
    dies: bool,
    /// Index into the plan when the node is a rewritten fanout.
    rewrite: Option<u32>,
}

/// Prices a collapse from its cone: the literal delta equals that of
/// collapsing a copy of the network and sweeping it.
pub(crate) struct Pricer {
    is_output: Vec<bool>,
    /// Logic that reaches no output on entry. A collapse's delta is that
    /// of collapsing and then sweeping the whole network, so this logic's
    /// literals count toward every delta until the first accepted collapse
    /// sweeps it.
    dead_on_entry: Vec<bool>,
    dead_on_entry_lits: i64,
    epoch: u32,
    slots: Vec<Slot>,
}

impl Pricer {
    pub(crate) fn new(net: &Network) -> Pricer {
        let n = net.arena_len();
        let mut is_output = vec![false; n];
        let mut reached = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        for &(_, o) in net.outputs() {
            is_output[o.index()] = true;
            if !reached[o.index()] {
                reached[o.index()] = true;
                stack.push(o);
            }
        }
        while let Some(id) = stack.pop() {
            for &f in net.node(id).fanins() {
                if !reached[f.index()] {
                    reached[f.index()] = true;
                    stack.push(f);
                }
            }
        }
        let mut dead_on_entry = vec![false; n];
        let mut dead_on_entry_lits = 0;
        for id in net.logic_ids().filter(|id| !reached[id.index()]) {
            dead_on_entry[id.index()] = true;
            dead_on_entry_lits += net.node(id).literal_count() as i64;
        }
        Pricer {
            is_output,
            dead_on_entry,
            dead_on_entry_lits,
            epoch: 0,
            slots: vec![Slot::default(); n],
        }
    }

    /// The accepted collapse swept every node that reached no output.
    fn swept(&mut self) {
        self.dead_on_entry.fill(false);
        self.dead_on_entry_lits = 0;
    }

    /// This trial's slot of `x`, initialised from the network on first use.
    fn slot(&mut self, net: &Network, x: NodeId) -> &mut Slot {
        let epoch = self.epoch;
        let dead = &self.dead_on_entry;
        let slot = &mut self.slots[x.index()];
        if slot.epoch != epoch {
            let live = net.node(x).fanouts().iter().filter(|y| !dead[y.index()]);
            *slot = Slot {
                epoch,
                live_fanouts: live.count() as u32,
                dies: false,
                rewrite: None,
            };
        }
        slot
    }

    /// Add `by` to the live fanout count of `x`, unless it is an input.
    fn relink(&mut self, net: &Network, x: NodeId, by: i32) {
        if !net.node(x).is_input() {
            let slot = self.slot(net, x);
            slot.live_fanouts = (slot.live_fanouts.checked_add_signed(by))
                .expect("a fanout edge is removed at most once");
        }
    }

    /// True when `x` is logic that sweep would newly remove; marks it, so
    /// that each node is reported once.
    fn newly_dead(&mut self, net: &Network, x: NodeId) -> bool {
        let i = x.index();
        if net.node(x).is_input() || self.is_output[i] || self.dead_on_entry[i] {
            return false;
        }
        let slot = &mut self.slots[i];
        if slot.live_fanouts != 0 || slot.dies {
            return false;
        }
        slot.dies = true;
        true
    }

    /// Literal delta of applying `plan`, the collapse of one node, and then
    /// sweeping: the rewritten fanouts' change minus the literals of every
    /// node left dangling. A rewritten fanout can itself be left dangling
    /// when another fanout drops it; then its new cover and fanins count.
    pub(crate) fn literal_delta(&mut self, net: &Network, plan: &[Rewrite]) -> i64 {
        self.epoch += 1;
        let mut read = 0u64;
        let mut delta = -self.dead_on_entry_lits;
        let mut touched: Vec<NodeId> = Vec::new();
        for (i, (fo, new_fanins, sop)) in plan.iter().enumerate() {
            self.slot(net, *fo).rewrite = Some(i as u32);
            if self.dead_on_entry[fo.index()] {
                continue; // swept either way; already in `dead_on_entry_lits`
            }
            let node = net.node(*fo);
            let (old, new) = (node.literal_count(), sop.literal_count());
            read += (old + new) as u64;
            delta += new as i64 - old as i64;
            for &x in node.fanins() {
                if !new_fanins.contains(&x) {
                    self.relink(net, x, -1);
                    touched.push(x);
                }
            }
            for &x in new_fanins {
                if !node.fanins().contains(&x) {
                    self.relink(net, x, 1);
                    touched.push(x);
                }
            }
        }
        // A count can reach zero and rise again within the edits above, so
        // read the deaths only once all edits are in.
        let mut dying: Vec<NodeId> = touched
            .into_iter()
            .filter(|&x| self.newly_dead(net, x))
            .collect();
        while let Some(y) = dying.pop() {
            let (fanins, lits) = match self.slots[y.index()].rewrite {
                Some(i) => {
                    let (_, fanins, sop) = &plan[i as usize];
                    (fanins.as_slice(), sop.literal_count())
                }
                None => (net.node(y).fanins(), net.node(y).literal_count()),
            };
            read += lits as u64;
            delta -= lits as i64;
            for &x in fanins {
                self.relink(net, x, -1);
                if self.newly_dead(net, x) {
                    dying.push(x);
                }
            }
        }
        obs::counter!("logicopt.eliminate.trials");
        obs::counter!("logicopt.eliminate.literals_priced", read);
        delta
    }
}

/// Eliminate every node whose collapse increases the literal count by at
/// most `threshold` (SIS convention: `eliminate -1` removes only nodes whose
/// collapse strictly decreases literals). Iterates to a fixed point.
pub fn eliminate(net: &mut Network, threshold: i64) -> EliminateReport {
    let mut report = EliminateReport::default();
    let mut pricer = Pricer::new(net);
    loop {
        let mut collapsed_any = false;
        let ids: Vec<NodeId> = net.logic_ids().collect();
        for id in ids {
            let Some(node) = net.try_node(id) else {
                continue; // already removed
            };
            if pricer.is_output[id.index()] || node.fanouts().is_empty() {
                continue; // keep output nodes; nothing to collapse into
            }
            let plan = plan_collapse(net, id);
            if pricer.literal_delta(net, &plan) <= threshold {
                apply_collapse(net, plan);
                pricer.swept();
                report.nodes_eliminated += 1;
                collapsed_any = true;
            }
        }
        if !collapsed_any {
            return report;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalent;
    use netlist::parse_blif;

    #[test]
    fn compose_positive_and_negative() {
        let f = Sop::parse(2, &["1-"]).unwrap(); // f = x (width 2: x, c)
        let g = Sop::parse(2, &["11"]).unwrap(); // g = a·b
        let r = compose(&f, 0, &g);
        // result over [x(dead), c, a, b] = a·b
        assert_eq!(r.width(), 4);
        for bits in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(r.eval(&v), v[2] && v[3]);
        }
        let fneg = Sop::parse(2, &["0-"]).unwrap(); // !x
        let rn = compose(&fneg, 0, &g);
        for bits in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(rn.eval(&v), !(v[2] && v[3]));
        }
    }

    #[test]
    fn collapse_preserves_function() {
        let mut net = parse_blif(
            ".model t\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
             .names x c f\n10 1\n01 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        let x = net.find("x").unwrap();
        collapse_node(&mut net, x);
        net.check().unwrap();
        assert!(equivalent(&orig, &net));
        assert_eq!(net.logic_count(), 1);
    }

    #[test]
    fn collapse_with_shared_fanin_merges() {
        // x = a·b ; f = x·a — collapse must merge the two `a` positions.
        let mut net = parse_blif(
            ".model t\n.inputs a b\n.outputs f\n.names a b x\n11 1\n\
             .names x a f\n11 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        let x = net.find("x").unwrap();
        collapse_node(&mut net, x);
        net.check().unwrap();
        assert!(equivalent(&orig, &net));
        let f = net.find("f").unwrap();
        assert_eq!(net.node(f).fanins().len(), 2);
    }

    #[test]
    fn collapse_conflicting_phases_drops_cube() {
        // x = a ; f = x·!a ≡ 0.
        let mut net = parse_blif(
            ".model t\n.inputs a\n.outputs f\n.names a x\n1 1\n\
             .names x a f\n10 1\n.end\n",
        )
        .unwrap()
        .network;
        let x = net.find("x").unwrap();
        collapse_node(&mut net, x);
        net.check().unwrap();
        assert_eq!(net.eval_outputs(&[true]), vec![false]);
        assert_eq!(net.eval_outputs(&[false]), vec![false]);
    }

    #[test]
    fn eliminate_reduces_literals_only() {
        // y = a·b used once: collapsing saves the node.
        let mut net = parse_blif(
            ".model t\n.inputs a b c\n.outputs f\n.names a b y\n11 1\n\
             .names y c f\n11 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        let rep = eliminate(&mut net, -1);
        net.check().unwrap();
        assert_eq!(rep.nodes_eliminated, 1);
        assert!(equivalent(&orig, &net));
        assert!(net.literal_count() < orig.literal_count());
    }

    #[test]
    fn eliminate_keeps_valuable_shared_nodes() {
        // x = a·b·c·d shared by 3 fanouts: collapsing would grow literals.
        let mut net = parse_blif(
            ".model t\n.inputs a b c d e\n.outputs f g h\n\
             .names a b c d x\n1111 1\n\
             .names x e f\n11 1\n.names x e g\n10 1\n.names x e h\n01 1\n.end\n",
        )
        .unwrap()
        .network;
        let rep = eliminate(&mut net, -1);
        net.check().unwrap();
        assert_eq!(rep.nodes_eliminated, 0);
        assert!(net.find("x").is_some());
    }
}
