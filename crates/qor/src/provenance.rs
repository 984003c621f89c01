//! Node provenance: from mapped gates back to the optimized source
//! network, with per-origin power attribution.
//!
//! The chain has two hops, both recorded by the producing stages:
//!
//! 1. every [`MappedInstance`](lowpower_core::map::mapper::MappedInstance)
//!    carries `source`, the subject-network (decomposed) node it covers;
//! 2. every [`DecomposedNetwork`](lowpower_core::decomp::DecomposedNetwork)
//!    carries `provenance`, mapping each decomposition-emitted node back
//!    to the optimized-network node whose tree produced it.
//!
//! [`Provenance::resolve`] composes the hops (identity for primary inputs
//! and nodes the decomposition passed through unchanged), so every mapped
//! gate attributes its power to a node the designer can actually find in
//! the optimized network.

use crate::Ctx;
use genlib::Library;
use lowpower_core::decomp::DecomposedNetwork;
use lowpower_core::map::MappedNetwork;
use lowpower_core::power::per_instance_power;
use std::collections::HashMap;

/// Provenance data of one decomposition, queryable by node name.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    map: HashMap<String, String>,
    /// origin node → (root arrival level, balanced-height estimate).
    heights: HashMap<String, (usize, usize)>,
    /// origin node → applied root-arrival bound (bounded style only).
    bounds: HashMap<String, usize>,
}

/// One mapped gate with its resolved origin and power share.
#[derive(Debug, Clone, PartialEq)]
pub struct GateShare {
    /// Instance name in the mapped netlist.
    pub instance: String,
    /// Library gate name.
    pub gate: String,
    /// Subject-network (decomposed) node the instance covers.
    pub subject: String,
    /// Optimized-network origin node ([`Provenance::resolve`]d).
    pub origin: String,
    /// Zero-delay average power of the instance, µW.
    pub power_uw: f64,
}

impl Provenance {
    /// Capture the provenance of a decomposition result.
    pub fn from_decomposed(d: &DecomposedNetwork) -> Provenance {
        Provenance {
            map: d.provenance.clone(),
            heights: d
                .node_heights
                .iter()
                .map(|(name, root, balanced)| (name.clone(), (*root, *balanced)))
                .collect(),
            bounds: d.applied_bounds.clone(),
        }
    }

    /// Resolve a subject-network node name to its optimized-network
    /// origin. Names the decomposition did not emit (primary inputs,
    /// untouched nodes) resolve to themselves.
    pub fn resolve<'a>(&'a self, subject: &'a str) -> &'a str {
        self.map.get(subject).map(String::as_str).unwrap_or(subject)
    }

    /// Number of recorded subject → origin edges.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no edges are recorded (identity provenance).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of subject-network nodes the decomposition emitted for an
    /// origin node (tree gates, buffers, and its shared inverters).
    pub fn subject_count(&self, origin: &str) -> usize {
        self.map.values().filter(|v| v.as_str() == origin).count()
    }

    /// `(root arrival level, balanced-height estimate)` of an origin node,
    /// if the decomposition recorded one. The difference is the paper's
    /// `depth_surplus` — the slack the bounded style spends on power.
    pub fn height(&self, origin: &str) -> Option<(usize, usize)> {
        self.heights.get(origin).copied()
    }

    /// The root-arrival bound the bounded pass applied to an origin node.
    pub fn bound(&self, origin: &str) -> Option<usize> {
        self.bounds.get(origin).copied()
    }

    /// Per-gate power shares with resolved origins, in instance order.
    /// The shares sum to `evaluate(..).power_uw` exactly (same estimator).
    pub fn gate_shares(&self, m: &MappedNetwork, lib: &Library, ctx: &Ctx) -> Vec<GateShare> {
        let powers = per_instance_power(m, lib, &ctx.env, ctx.model, ctx.po_load);
        m.instances
            .iter()
            .zip(powers)
            .map(|(inst, power_uw)| GateShare {
                instance: inst.name.clone(),
                gate: lib.gates()[inst.gate].name().to_string(),
                subject: inst.source.clone(),
                origin: self.resolve(&inst.source).to_string(),
                power_uw,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activity::{analyze, TransitionModel};
    use lowpower_core::decomp::{decompose_network, DecompOptions, DecompStyle};
    use lowpower_core::map::{map_network, MapOptions, SubjectAig};
    use lowpower_core::power::evaluate;
    use netlist::parse_blif;

    const SAMPLE: &str = ".model t\n.inputs a b c d\n.outputs f g\n\
                          .names a b c x\n111 1\n100 1\n\
                          .names x d f\n11 1\n\
                          .names x c g\n1- 1\n-1 1\n.end\n";

    fn flow() -> (Provenance, MappedNetwork, Library, Vec<String>) {
        let net = parse_blif(SAMPLE).unwrap().network;
        let opts = DecompOptions {
            style: DecompStyle::MinPower,
            model: TransitionModel::StaticCmos,
            pi_probs: None,
            required_time: None,
            use_correlations: false,
        };
        let d = decompose_network(&net, &opts);
        let prov = Provenance::from_decomposed(&d);
        let act = analyze(&d.network, &[0.5; 4], TransitionModel::StaticCmos);
        let aig = SubjectAig::from_network(&d.network, &act).unwrap();
        let lib = genlib::builtin::lib2_like();
        let m = map_network(&aig, &lib, &MapOptions::power()).unwrap();
        let originals: Vec<String> = net
            .node_ids()
            .map(|id| net.node(id).name().to_string())
            .collect();
        (prov, m, lib, originals)
    }

    #[test]
    fn every_gate_resolves_to_an_original_node() {
        let (prov, m, lib, originals) = flow();
        let shares = prov.gate_shares(&m, &lib, &Ctx::default());
        assert_eq!(shares.len(), m.instances.len());
        for s in &shares {
            assert!(
                originals.iter().any(|o| o == &s.origin),
                "gate {} (subject {}) resolved to unknown origin {}",
                s.instance,
                s.subject,
                s.origin
            );
        }
    }

    #[test]
    fn shares_sum_to_evaluate_power() {
        let (prov, m, lib, _) = flow();
        let ctx = Ctx::default();
        let shares = prov.gate_shares(&m, &lib, &ctx);
        let total: f64 = shares.iter().map(|s| s.power_uw).sum();
        let rep = evaluate(&m, &lib, &ctx.env, ctx.model, ctx.po_load);
        assert!(
            (total - rep.power_uw).abs() < 1e-12,
            "shares {total} vs evaluate {}",
            rep.power_uw
        );
    }

    #[test]
    fn identity_provenance_resolves_to_self() {
        let prov = Provenance::default();
        assert!(prov.is_empty());
        assert_eq!(prov.resolve("anything"), "anything");
    }

    #[test]
    fn heights_and_bounds_query_by_origin() {
        let net = parse_blif(SAMPLE).unwrap().network;
        let opts = DecompOptions {
            style: DecompStyle::BoundedMinPower,
            model: TransitionModel::StaticCmos,
            pi_probs: None,
            required_time: None,
            use_correlations: false,
        };
        let d = decompose_network(&net, &opts);
        let prov = Provenance::from_decomposed(&d);
        for (name, root, balanced) in &d.node_heights {
            assert_eq!(prov.height(name), Some((*root, *balanced)));
        }
        for (name, b) in &d.applied_bounds {
            assert_eq!(prov.bound(name), Some(*b));
        }
    }
}
