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

/// Collapse node `victim` into every fanout. The victim must not be a
/// primary input. After the call the victim is dangling (removed by the
/// internal sweep) unless it drives a primary output.
///
/// # Panics
/// Panics if `victim` is a primary input.
pub fn collapse_node(net: &mut Network, victim: NodeId) {
    assert!(
        !net.node(victim).is_input(),
        "cannot collapse a primary input"
    );
    let g = net.node(victim).sop().expect("logic node").clone();
    let g_fanins = net.node(victim).fanins().to_vec();
    let fanouts: Vec<NodeId> = net.node(victim).fanouts().to_vec();
    for fo in fanouts {
        let f = net.node(fo).sop().expect("logic node").clone();
        let f_fanins = net.node(fo).fanins().to_vec();
        let pos = f_fanins
            .iter()
            .position(|&x| x == victim)
            .expect("fanin present");
        let composed = compose(&f, pos, &g);
        // Build merged fanin list: f's fanins then g's fanins, deduped,
        // dropping the victim position.
        let mut all: Vec<NodeId> = f_fanins.clone();
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
        net.replace_function(fo, kept_fanins, shrunk);
    }
    net.sweep_dangling();
}

/// Report of an eliminate pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EliminateReport {
    /// Nodes collapsed.
    pub nodes_eliminated: usize,
}

/// Eliminate every node whose collapse increases the literal count by at
/// most `threshold` (SIS convention: `eliminate -1` removes only nodes whose
/// collapse strictly decreases literals). Iterates to a fixed point.
pub fn eliminate(net: &mut Network, threshold: i64) -> EliminateReport {
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
            // Trial collapse on a clone to compute the exact literal delta.
            let before = net.literal_count() as i64;
            let mut trial = net.clone();
            collapse_node(&mut trial, id);
            let after = trial.literal_count() as i64;
            if after - before <= threshold {
                *net = trial;
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
