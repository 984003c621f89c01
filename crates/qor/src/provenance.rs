//! Node provenance: from mapped gates back to the optimized source
//! network, with per-origin power attribution.
//!
//! The chain has two hops, both recorded by the producing stages:
//!
//! 1. every [`MappedInstance`](lowpower_core::map::mapper::MappedInstance)
//!    carries `source`, the subject-network (decomposed) node it covers;
//! 2. every [`DecomposedNetwork`] carries `origin`, the optimized-network
//!    node whose decomposition emitted each of its nodes, as a position in
//!    its per-source-node record (`sources`).
//!
//! [`Provenance`] is a view of the decomposition that reads both in place.
//! [`Provenance::resolve`] composes the hops (identity for names the
//! decomposition did not emit), so every mapped gate attributes its power
//! to a node the designer can actually find in the optimized network.

use crate::Ctx;
use genlib::Library;
use lowpower_core::decomp::DecomposedNetwork;
use lowpower_core::map::MappedNetwork;
use lowpower_core::power::per_instance_power;

/// The provenance of one decomposition, queryable by node name: a view of
/// the [`DecomposedNetwork`].
#[derive(Debug, Clone, Copy)]
pub struct Provenance<'d> {
    d: &'d DecomposedNetwork,
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

impl<'d> Provenance<'d> {
    /// The provenance of a decomposition result.
    pub fn from_decomposed(d: &'d DecomposedNetwork) -> Provenance<'d> {
        Provenance { d }
    }

    /// The position of an origin node's record.
    fn position(&self, origin: &str) -> Option<usize> {
        self.d.sources.iter().position(|s| s.name == origin)
    }

    /// Resolve a subject-network node name to its optimized-network
    /// origin. Names the decomposition did not emit resolve to themselves.
    pub fn resolve<'a>(&'a self, subject: &'a str) -> &'a str {
        let id = self.d.network.find(subject);
        let k = id.and_then(|id| self.d.origin.get(id.index()));
        k.map_or(subject, |&k| &self.d.sources[k].name)
    }

    /// Number of recorded subject → origin edges: the emitted nodes other
    /// than primary inputs.
    pub fn len(&self) -> usize {
        self.d.network.logic_count()
    }

    /// `true` when no edges are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of subject-network nodes the decomposition emitted for an
    /// origin node (tree gates, buffers, and its shared inverters).
    pub fn subject_count(&self, origin: &str) -> usize {
        let Some(k) = self.position(origin) else {
            return 0;
        };
        let emitted = self.d.network.logic_ids();
        emitted
            .filter(|id| self.d.origin.get(id.index()) == Some(&k))
            .count()
    }

    /// `(root arrival level, balanced-height estimate)` of a logic origin
    /// node. The difference is the paper's `depth_surplus` — the slack the
    /// bounded style spends on power.
    pub fn height(&self, origin: &str) -> Option<(usize, usize)> {
        let s = &self.d.sources[self.position(origin)?];
        let logic = !self.d.network.node(s.root).is_input();
        logic.then_some((s.level, s.balanced))
    }

    /// The root-arrival bound the bounded pass applied to an origin node.
    pub fn bound(&self, origin: &str) -> Option<usize> {
        self.d.sources[self.position(origin)?].bound
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

    fn flow() -> (DecomposedNetwork, MappedNetwork, Library, Vec<String>) {
        let net = parse_blif(SAMPLE).unwrap().network;
        let opts = DecompOptions {
            style: DecompStyle::MinPower,
            model: TransitionModel::StaticCmos,
            pi_probs: None,
            required_time: None,
            use_correlations: false,
        };
        let d = decompose_network(&net, &opts);
        let act = analyze(&d.network, &[0.5; 4], TransitionModel::StaticCmos);
        let aig = SubjectAig::from_network(&d.network, &act).unwrap();
        let lib = genlib::builtin::lib2_like();
        let m = map_network(&aig, &lib, &MapOptions::power()).unwrap();
        let originals: Vec<String> = net
            .node_ids()
            .map(|id| net.node(id).name().to_string())
            .collect();
        (d, m, lib, originals)
    }

    #[test]
    fn every_gate_resolves_to_an_original_node() {
        let (d, m, lib, originals) = flow();
        let shares = Provenance::from_decomposed(&d).gate_shares(&m, &lib, &Ctx::default());
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
        let (d, m, lib, _) = flow();
        let ctx = Ctx::default();
        let shares = Provenance::from_decomposed(&d).gate_shares(&m, &lib, &ctx);
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
        let (d, ..) = flow();
        let prov = Provenance::from_decomposed(&d);
        assert!(!prov.is_empty());
        assert_eq!(prov.resolve("anything"), "anything");
        for &pi in d.network.inputs() {
            let name = d.network.node(pi).name();
            assert_eq!((prov.resolve(name), prov.height(name)), (name, None));
        }
    }

    #[test]
    fn heights_and_bounds_query_by_origin() {
        // An 8-input AND over skewed probabilities: its MINPOWER tree is a
        // chain, so the bounded pass must bound it.
        let net = parse_blif(
            ".model w\n.inputs a b c d e f g h\n.outputs o\n\
             .names a b c d e f g h o\n11111111 1\n.end\n",
        )
        .unwrap()
        .network;
        let opts = DecompOptions {
            style: DecompStyle::BoundedMinPower,
            model: TransitionModel::StaticCmos,
            pi_probs: Some((0..8).map(|i| 0.1 + 0.1 * i as f64).collect()),
            required_time: None,
            use_correlations: false,
        };
        let d = decompose_network(&net, &opts);
        let prov = Provenance::from_decomposed(&d);
        assert!(d.sources.iter().any(|s| s.bound.is_some()));
        let arrival = netlist::traversal::unit_arrival_times(&d.network, &[0; 8]);
        for s in &d.sources {
            assert_eq!(prov.bound(&s.name), s.bound, "{}", s.name);
            if d.network.node(s.root).is_input() {
                assert_eq!(prov.height(&s.name), None, "{}", s.name);
                continue;
            }
            assert_eq!(prov.height(&s.name), Some((s.level, s.balanced)));
            assert_eq!(s.level as i64, arrival[s.root.index()], "{}", s.name);
            assert!(s.level <= s.bound.unwrap_or(usize::MAX), "{}", s.name);
        }
    }
}
