//! Traversal utilities: unit-delay timing and depth.
//!
//! The unit-delay model here is the one §2.3 of the paper prescribes for
//! technology decomposition: every logic node costs one level and timing is
//! measured in integer levels.

use crate::network::Network;

/// Unit-delay arrival times, indexed by [`NodeId::index`].
///
/// `pi_arrival` gives arrival times in [`Network::inputs`] order (commonly
/// all zeros). Each logic node adds one unit.
pub fn unit_arrival_times(net: &Network, pi_arrival: &[i64]) -> Vec<i64> {
    assert_eq!(
        pi_arrival.len(),
        net.inputs().len(),
        "PI arrival count mismatch"
    );
    let mut arr = vec![0i64; net.arena_len()];
    for (i, &pi) in net.inputs().iter().enumerate() {
        arr[pi.index()] = pi_arrival[i];
    }
    for id in net.topo_order().expect("acyclic") {
        let node = net.node(id);
        if !node.is_input() {
            arr[id.index()] = node
                .fanins()
                .iter()
                .map(|f| arr[f.index()])
                .max()
                .unwrap_or(0)
                + 1;
        }
    }
    arr
}

/// Unit-delay required times, indexed by [`NodeId::index`].
///
/// `po_required` gives required times in [`Network::outputs`] order. Nodes
/// that reach no output get `i64::MAX`.
pub fn unit_required_times(net: &Network, po_required: &[i64]) -> Vec<i64> {
    assert_eq!(
        po_required.len(),
        net.outputs().len(),
        "PO required count mismatch"
    );
    let mut req = vec![i64::MAX; net.arena_len()];
    for (i, (_, o)) in net.outputs().iter().enumerate() {
        req[o.index()] = req[o.index()].min(po_required[i]);
    }
    let order = net.topo_order().expect("acyclic");
    for &id in order.iter().rev() {
        let node = net.node(id);
        if node.is_input() {
            continue;
        }
        let r = req[id.index()];
        if r == i64::MAX {
            continue;
        }
        for &f in node.fanins() {
            req[f.index()] = req[f.index()].min(r - 1);
        }
    }
    req
}

/// Per-node slack = required − arrival (saturating; `i64::MAX` when the node
/// reaches no constrained output).
pub fn unit_slacks(net: &Network, pi_arrival: &[i64], po_required: &[i64]) -> Vec<i64> {
    let arr = unit_arrival_times(net, pi_arrival);
    let req = unit_required_times(net, po_required);
    arr.iter()
        .zip(&req)
        .map(|(&a, &r)| if r == i64::MAX { i64::MAX } else { r - a })
        .collect()
}

/// Network depth in logic levels (maximum unit-delay arrival at any output).
pub fn depth(net: &Network) -> i64 {
    let arr = unit_arrival_times(net, &vec![0; net.inputs().len()]);
    net.outputs()
        .iter()
        .map(|&(_, o)| arr[o.index()])
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NodeId;
    use crate::sop::Sop;

    fn chain3() -> (Network, Vec<NodeId>) {
        // a -> n1 -> n2 -> n3 (buffers); f = n3
        let mut net = Network::new("chain");
        let a = net.add_input("a").unwrap();
        let buf = |s: &str| Sop::parse(1, &[s]).unwrap();
        let n1 = net.add_logic("n1", vec![a], buf("1")).unwrap();
        let n2 = net.add_logic("n2", vec![n1], buf("1")).unwrap();
        let n3 = net.add_logic("n3", vec![n2], buf("1")).unwrap();
        net.add_output("f", n3);
        (net, vec![a, n1, n2, n3])
    }

    #[test]
    fn arrivals_count_levels() {
        let (net, ids) = chain3();
        let arr = unit_arrival_times(&net, &[0]);
        assert_eq!(arr[ids[0].index()], 0);
        assert_eq!(arr[ids[3].index()], 3);
        assert_eq!(depth(&net), 3);
    }

    #[test]
    fn required_and_slack() {
        let (net, ids) = chain3();
        let req = unit_required_times(&net, &[5]);
        assert_eq!(req[ids[3].index()], 5);
        assert_eq!(req[ids[0].index()], 2);
        let slack = unit_slacks(&net, &[0], &[3]);
        for id in &ids {
            assert_eq!(slack[id.index()], 0);
        }
        let slack = unit_slacks(&net, &[0], &[2]);
        assert!(slack.iter().take(4).all(|&s| s == -1));
    }

    #[test]
    fn unconstrained_nodes_get_max_slack() {
        let mut net = Network::new("u");
        let a = net.add_input("a").unwrap();
        let f = net
            .add_logic("f", vec![a], Sop::parse(1, &["1"]).unwrap())
            .unwrap();
        let _dangling = net
            .add_logic("d", vec![a], Sop::parse(1, &["0"]).unwrap())
            .unwrap();
        net.add_output("f", f);
        let slack = unit_slacks(&net, &[0], &[10]);
        let d = net.find("d").unwrap();
        assert_eq!(slack[d.index()], i64::MAX);
    }
}
