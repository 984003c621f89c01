//! `NET*` rules over [`netlist::Network`].
//!
//! Every rule here must be robust to *corrupted* networks: no
//! `Network::node` (panics on dead ids), no `topo_order` (trusts fanout
//! symmetry). Structure is probed through `try_node` and fanin-only walks.

use crate::diag::{LintReport, Provenance};
use crate::{severity_of, LintConfig};
use netlist::{Network, NodeId};

/// Run all `NET*` rules over a network.
pub fn lint_network(net: &Network, _cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::new(format!("network `{}`", net.name()));
    check_cycles(net, &mut report);
    check_link_symmetry(net, &mut report);
    check_duplicate_fanins(net, &mut report);
    check_dangling(net, &mut report);
    check_cover_minimality(net, &mut report);
    check_reachability(net, &mut report);
    check_widths(net, &mut report);
    check_name_map(net, &mut report);
    report
}

/// NET001: acyclicity, reporting the full cycle path.
fn check_cycles(net: &Network, report: &mut LintReport) {
    if let Some(cycle) = net.find_cycle() {
        let names: Vec<&str> = cycle
            .iter()
            .filter_map(|&id| net.try_node(id).map(|n| n.name()))
            .collect();
        let head = cycle.first().map_or(0, |id| id.index());
        report.push(
            "NET001",
            severity_of("NET001"),
            Provenance::node(names.first().copied().unwrap_or("?"), head),
            format!("combinational cycle: {}", names.join(" -> ")),
        );
    }
}

/// NET002: every fanin edge has a matching fanout edge and vice versa, and
/// neither side references a dead or out-of-range node.
fn check_link_symmetry(net: &Network, report: &mut LintReport) {
    let sev = severity_of("NET002");
    for id in net.node_ids() {
        let node = net.try_node(id).expect("live id from node_ids");
        for (slot, &f) in node.fanins().iter().enumerate() {
            match net.try_node(f) {
                None => report.push(
                    "NET002",
                    sev,
                    Provenance::slot(node.name(), id.index(), slot),
                    format!("fanin slot {slot} references a dead or missing node"),
                ),
                Some(src) if !src.fanouts().contains(&id) => report.push(
                    "NET002",
                    sev,
                    Provenance::slot(node.name(), id.index(), slot),
                    format!(
                        "fanin `{}` has no matching fanout edge back to `{}`",
                        src.name(),
                        node.name()
                    ),
                ),
                Some(_) => {}
            }
        }
        for &fo in node.fanouts() {
            match net.try_node(fo) {
                None => report.push(
                    "NET002",
                    sev,
                    Provenance::node(node.name(), id.index()),
                    "fanout list references a dead or missing node".to_string(),
                ),
                Some(dst) if !dst.fanins().contains(&id) => report.push(
                    "NET002",
                    sev,
                    Provenance::node(node.name(), id.index()),
                    format!(
                        "fanout edge to `{}` has no matching fanin entry",
                        dst.name()
                    ),
                ),
                Some(_) => {}
            }
        }
    }
}

/// NET003: no node may list the same fanin at two SOP positions — the
/// construction hole behind the PR-1 `Cube::remap` bug.
fn check_duplicate_fanins(net: &Network, report: &mut LintReport) {
    for id in net.node_ids() {
        let node = net.try_node(id).expect("live id");
        let fanins = node.fanins();
        for (slot, f) in fanins.iter().enumerate() {
            if let Some(first) = fanins[..slot].iter().position(|g| g == f) {
                let fanin_name = net.try_node(*f).map_or("?", |n| n.name());
                report.push(
                    "NET003",
                    severity_of("NET003"),
                    Provenance::slot(node.name(), id.index(), slot),
                    format!("fanin `{fanin_name}` appears at SOP positions {first} and {slot}"),
                );
            }
        }
    }
}

/// NET004: logic nodes with no fanouts that are not primary outputs.
fn check_dangling(net: &Network, report: &mut LintReport) {
    for id in net.logic_ids() {
        let node = net.try_node(id).expect("live id");
        let is_po = net.outputs().iter().any(|(_, o)| *o == id);
        if node.fanouts().is_empty() && !is_po {
            report.push(
                "NET004",
                severity_of("NET004"),
                Provenance::node(node.name(), id.index()),
                "dangling: drives nothing and is not a primary output",
            );
        }
    }
}

/// NET005: the cover should be single-cube-containment minimal — no
/// duplicate or contained cubes.
fn check_cover_minimality(net: &Network, report: &mut LintReport) {
    for id in net.logic_ids() {
        let node = net.try_node(id).expect("live id");
        let Some(sop) = node.sop() else { continue };
        let mut minimal = sop.clone();
        minimal.make_scc_minimal();
        if minimal.cube_count() != sop.cube_count() {
            report.push(
                "NET005",
                severity_of("NET005"),
                Provenance::node(node.name(), id.index()),
                format!(
                    "cover is not SCC-minimal: {} cube(s), {} after containment removal",
                    sop.cube_count(),
                    minimal.cube_count()
                ),
            );
        }
    }
}

/// NET006: logic nodes not in the transitive fanin of any primary output.
///
/// Walks fanin edges only (no reliance on fanout symmetry).
fn check_reachability(net: &Network, report: &mut LintReport) {
    let mut reachable = vec![false; net.arena_len()];
    let mut stack: Vec<NodeId> = Vec::new();
    for (_, o) in net.outputs() {
        if net.try_node(*o).is_some() && !reachable[o.index()] {
            reachable[o.index()] = true;
            stack.push(*o);
        }
    }
    while let Some(id) = stack.pop() {
        let Some(node) = net.try_node(id) else {
            continue;
        };
        for &f in node.fanins() {
            if f.index() < reachable.len() && !reachable[f.index()] && net.try_node(f).is_some() {
                reachable[f.index()] = true;
                stack.push(f);
            }
        }
    }
    for id in net.logic_ids() {
        if !reachable[id.index()] {
            let node = net.try_node(id).expect("live id");
            report.push(
                "NET006",
                severity_of("NET006"),
                Provenance::node(node.name(), id.index()),
                "unreachable from every primary output",
            );
        }
    }
}

/// NET007: SOP width must equal the fanin count.
fn check_widths(net: &Network, report: &mut LintReport) {
    for id in net.logic_ids() {
        let node = net.try_node(id).expect("live id");
        let Some(sop) = node.sop() else { continue };
        if sop.width() != node.fanins().len() {
            report.push(
                "NET007",
                severity_of("NET007"),
                Provenance::node(node.name(), id.index()),
                format!(
                    "SOP width {} but {} fanin(s)",
                    sop.width(),
                    node.fanins().len()
                ),
            );
        }
    }
}

/// NET008: the name map must resolve every live node's name back to it,
/// and the output list must reference live nodes.
fn check_name_map(net: &Network, report: &mut LintReport) {
    let sev = severity_of("NET008");
    for id in net.node_ids() {
        let node = net.try_node(id).expect("live id");
        if net.find(node.name()) != Some(id) {
            report.push(
                "NET008",
                sev,
                Provenance::node(node.name(), id.index()),
                "name map does not resolve this node's name back to it",
            );
        }
    }
    for (name, o) in net.outputs() {
        if net.try_node(*o).is_none() {
            report.push(
                "NET008",
                sev,
                Provenance::node(name.clone(), o.index()),
                format!("primary output `{name}` references a dead or missing node"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::parse_blif;

    fn clean_net() -> Network {
        parse_blif(
            ".model t\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
             .names x c f\n10 1\n01 1\n.end\n",
        )
        .unwrap()
        .network
    }

    #[test]
    fn clean_network_is_clean() {
        let report = lint_network(&clean_net(), &LintConfig::new());
        assert!(report.is_clean(), "{}", report.render_text());
    }
}
