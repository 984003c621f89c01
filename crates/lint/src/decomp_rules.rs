//! `DEC*` rules over [`lowpower_core::decomp::DecomposedNetwork`].

use crate::diag::{LintReport, Provenance};
use crate::{lint_network, severity_of, LintConfig};
use lowpower_core::decomp::DecomposedNetwork;

/// Run all `DEC*` rules over a decomposition result, plus every `NET*`
/// rule over the underlying network (a decomposed network is still a
/// network and must satisfy all its invariants).
pub fn lint_decomposed(decomp: &DecomposedNetwork, cfg: &LintConfig) -> LintReport {
    let net = &decomp.network;
    let mut report = LintReport::new(format!("decomposition `{}`", net.name()));
    report.merge(lint_network(net, cfg));

    // DEC001: technology decomposition emits 2-input gates only (plus
    // inverters and width-0 constants).
    for id in net.logic_ids() {
        let node = net.try_node(id).expect("live id");
        if node.fanins().len() > 2 {
            report.push(
                "DEC001",
                severity_of("DEC001"),
                Provenance::node(node.name(), id.index()),
                format!(
                    "{} fanins; decomposition must emit gates of arity <= 2",
                    node.fanins().len()
                ),
            );
        }
    }

    // DEC002: when bounded decomposition applied a height bound to a node
    // (§2.3), the node root's recorded arrival level must honor it.
    for s in &decomp.sources {
        let (level, Some(bound)) = (s.level, s.bound) else {
            continue;
        };
        if level > bound {
            report.push(
                "DEC002",
                severity_of("DEC002"),
                Provenance {
                    node: Some(s.name.clone()),
                    id: None,
                    slot: None,
                },
                format!("root at level {level} exceeds the applied bound {bound}"),
            );
        }
    }

    // DEC003: the recorded depth must match a fresh recomputation. Skipped
    // on cyclic networks (NET001 already fired; `depth` would panic).
    if net.find_cycle().is_none() {
        let recomputed = netlist::traversal::depth(net);
        if decomp.depth != recomputed {
            report.push(
                "DEC003",
                severity_of("DEC003"),
                Provenance::none(),
                format!(
                    "recorded depth {} but the network's depth is {recomputed}",
                    decomp.depth
                ),
            );
        }
    }

    report
}
