//! Sweep: constant propagation, buffer/inverter collapsing, dead logic
//! removal.

use netlist::{Cube, Lit, Network, NodeId, Sop};

/// Result summary of a sweep pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Constant nodes folded into their fanouts.
    pub constants_folded: usize,
    /// Buffer nodes bypassed.
    pub buffers_bypassed: usize,
    /// Inverter chains (pairs) collapsed.
    pub inverters_collapsed: usize,
    /// Dangling nodes removed.
    pub dangling_removed: usize,
}

/// Run sweep to a fixed point. Preserves network function at the outputs.
pub fn sweep(net: &mut Network) -> SweepReport {
    let mut report = SweepReport::default();
    loop {
        let mut changed = false;

        // Fold constant nodes into fanouts by cofactoring.
        let const_nodes: Vec<(NodeId, bool)> = net
            .logic_ids()
            .filter_map(|id| {
                let sop = net.node(id).sop().expect("logic node");
                if sop.is_zero() {
                    Some((id, false))
                } else if sop.is_tautology() {
                    Some((id, true))
                } else {
                    None
                }
            })
            .collect();
        for (id, value) in const_nodes {
            if fold_constant(net, id, value) {
                report.constants_folded += 1;
                changed = true;
            }
        }

        // Bypass buffers (single positive literal) and collapse inverter
        // feeding into fanouts (rewrite fanout covers with flipped phase).
        let simple: Vec<(NodeId, NodeId, bool)> = net
            .logic_ids()
            .filter_map(|id| {
                let node = net.node(id);
                let sop = node.sop().expect("logic node");
                if sop.cube_count() == 1 && sop.literal_count() == 1 && node.fanins().len() == 1 {
                    let phase = sop.cubes()[0].bound_lits().next().expect("one literal").1;
                    Some((id, node.fanins()[0], phase == Lit::Pos))
                } else {
                    None
                }
            })
            .collect();
        for (id, src, positive) in simple {
            if net.try_node(id).is_none() {
                continue; // removed by an earlier rewrite this round
            }
            if positive {
                if is_output_node(net, id) && is_output_node(net, src) {
                    continue; // keep a buffer between two named outputs
                }
                net.substitute(id, src);
                report.buffers_bypassed += 1;
                changed = true;
            } else if collapse_inverter(net, id, src) {
                report.inverters_collapsed += 1;
                changed = true;
            }
        }

        report.dangling_removed += net.sweep_dangling();
        if !changed {
            break;
        }
    }
    report
}

fn is_output_node(net: &Network, id: NodeId) -> bool {
    net.outputs().iter().any(|(_, o)| *o == id)
}

/// Replace uses of constant node `id` by cofactoring each fanout's cover.
/// Returns false when the node drives a primary output directly (kept).
fn fold_constant(net: &mut Network, id: NodeId, value: bool) -> bool {
    if is_output_node(net, id) && net.node(id).fanouts().is_empty() {
        return false;
    }
    let fanouts: Vec<NodeId> = net.node(id).fanouts().to_vec();
    for fo in fanouts {
        let node = net.node(fo);
        let pos = node
            .fanins()
            .iter()
            .position(|&f| f == id)
            .expect("fanin present");
        let sop = node.sop().expect("logic node").clone();
        let mut fanins = node.fanins().to_vec();
        let cof = sop.cofactor(pos, value);
        // Drop the now-unused variable position.
        fanins.remove(pos);
        let perm: Vec<usize> = (0..sop.width())
            .map(|i| match i.cmp(&pos) {
                std::cmp::Ordering::Less => i,
                std::cmp::Ordering::Equal => usize::MAX, // never bound after cofactor
                std::cmp::Ordering::Greater => i - 1,
            })
            .collect();
        let cubes: Vec<Cube> = cof
            .cubes()
            .iter()
            .map(|c| {
                let mut lits = vec![Lit::Free; fanins.len()];
                for (i, l) in c.bound_lits() {
                    lits[perm[i]] = l;
                }
                Cube::new(lits)
            })
            .collect();
        let mut new_sop = Sop::from_cubes(fanins.len(), cubes);
        new_sop.make_scc_minimal();
        net.replace_function(fo, fanins, new_sop);
    }
    true
}

/// Collapse inverter node `id` (= !src) into each of its fanouts by flipping
/// the phase of the corresponding literal in their covers. Returns false if
/// the inverter must be kept (drives a primary output).
fn collapse_inverter(net: &mut Network, id: NodeId, src: NodeId) -> bool {
    if is_output_node(net, id) {
        return false;
    }
    let fanouts: Vec<NodeId> = net.node(id).fanouts().to_vec();
    for fo in fanouts {
        let node = net.node(fo);
        let pos = node
            .fanins()
            .iter()
            .position(|&f| f == id)
            .expect("fanin present");
        let sop = node.sop().expect("logic node").clone();
        let fanins = node.fanins().to_vec();
        // Flip the phase of position `pos` in every cube.
        let cubes: Vec<Cube> = sop
            .cubes()
            .iter()
            .map(|c| {
                let mut c2 = c.clone();
                match c2.lit(pos) {
                    Lit::Pos => c2.set_lit(pos, Lit::Neg),
                    Lit::Neg => c2.set_lit(pos, Lit::Pos),
                    Lit::Free => {}
                }
                c2
            })
            .collect();
        // Rewire position `pos` from the inverter to its source, merging
        // duplicates.
        let mut new_fanins: Vec<NodeId> = Vec::with_capacity(fanins.len());
        let mut with_src = fanins.clone();
        with_src[pos] = src;
        for &f in &with_src {
            if !new_fanins.contains(&f) {
                new_fanins.push(f);
            }
        }
        let perm: Vec<usize> = with_src
            .iter()
            .map(|f| new_fanins.iter().position(|g| g == f).expect("present"))
            .collect();
        let mut new_sop = Sop::from_cubes(sop.width(), cubes).remap(&perm, new_fanins.len());
        new_sop.make_scc_minimal();
        net.replace_function(fo, new_fanins, new_sop);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalent;
    use netlist::parse_blif;

    #[test]
    fn constants_fold() {
        let mut net = parse_blif(
            ".model t\n.inputs a b\n.outputs f\n.names one\n1\n\
             .names a one x\n11 1\n.names x b f\n11 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        let rep = sweep(&mut net);
        net.check().unwrap();
        assert!(rep.constants_folded >= 1);
        assert!(equivalent(&orig, &net));
        // `one` and `x` should be gone: f = a·b directly or via buffer path.
        assert!(net.logic_count() <= 1);
    }

    #[test]
    fn buffers_bypass() {
        let mut net = parse_blif(
            ".model t\n.inputs a b\n.outputs f\n.names a x\n1 1\n\
             .names x b f\n11 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        let rep = sweep(&mut net);
        net.check().unwrap();
        assert_eq!(rep.buffers_bypassed, 1);
        assert!(equivalent(&orig, &net));
        assert_eq!(net.logic_count(), 1);
    }

    #[test]
    fn inverter_chains_collapse() {
        let mut net = parse_blif(
            ".model t\n.inputs a b\n.outputs f\n.names a x\n0 1\n\
             .names x y\n0 1\n.names y b f\n11 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        sweep(&mut net);
        net.check().unwrap();
        assert!(equivalent(&orig, &net));
        // both inverters disappear: f = a·b.
        assert_eq!(net.logic_count(), 1);
    }

    #[test]
    fn output_constants_kept() {
        let mut net = parse_blif(".model t\n.inputs a\n.outputs k\n.names k\n1\n.end\n")
            .unwrap()
            .network;
        sweep(&mut net);
        net.check().unwrap();
        assert_eq!(net.eval_outputs(&[false]), vec![true]);
    }

    #[test]
    fn inverter_driving_output_kept() {
        let mut net = parse_blif(".model t\n.inputs a\n.outputs f\n.names a f\n0 1\n.end\n")
            .unwrap()
            .network;
        let orig = net.clone();
        sweep(&mut net);
        net.check().unwrap();
        assert!(equivalent(&orig, &net));
        assert_eq!(net.logic_count(), 1);
    }

    #[test]
    fn duplicate_pin_with_inverter_collapses_correctly() {
        // Mapped-netlist shape: a cell instance may list one net on two
        // pins, making some cover cubes contradictory (dead). Collapsing
        // the inverter feeding such a node merges fanin positions; the
        // dead cubes must stay dead, not be resurrected by the merge.
        let mut net = parse_blif(
            ".model t\n.inputs a b c\n.outputs f\n.names c x\n0 1\n\
             .names a b a x f\n1100 1\n0011 1\n1111 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        sweep(&mut net);
        net.check().unwrap();
        assert!(equivalent(&orig, &net));
    }

    #[test]
    fn fixpoint_reaches_stability() {
        let mut net = parse_blif(
            ".model t\n.inputs a b c\n.outputs f g\n.names zero\n\
             .names a zero x\n1- 1\n.names x y\n1 1\n.names y b z\n11 1\n\
             .names z c f\n1- 1\n-1 1\n.names c g\n0 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        sweep(&mut net);
        net.check().unwrap();
        assert!(equivalent(&orig, &net));
        let mut again = net.clone();
        let rep2 = sweep(&mut again);
        assert_eq!(rep2, SweepReport::default(), "second sweep must be a no-op");
    }
}
