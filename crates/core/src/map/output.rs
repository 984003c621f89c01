//! Output formats for mapped netlists.

use crate::map::mapper::{MappedNetwork, NetRef};
use genlib::Library;
use netlist::{Cube, Lit, Network, NodeId, Sop};
use std::collections::BTreeMap;
use std::fmt::Write as _;

impl MappedNetwork {
    /// Histogram of library cells used, by cell name.
    pub fn gate_histogram(&self, lib: &Library) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for inst in &self.instances {
            *h.entry(lib.gates()[inst.gate].name().to_string())
                .or_insert(0) += 1;
        }
        h
    }

    /// Serialize the mapped netlist as structural BLIF: one `.names` block
    /// per gate instance (minterm cover of the cell function), preserving
    /// instance names and output names. The result parses back through
    /// [`netlist::parse_blif`] with identical function.
    ///
    /// # Panics
    /// Panics if a cell has more than 16 inputs ([`genlib::Gate::truth_table`]).
    pub fn to_blif(&self, lib: &Library, model_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, ".model {model_name}");
        let _ = writeln!(out, ".inputs {}", self.pi_names.join(" "));
        let po_names: Vec<&str> = self.outputs.iter().map(|(n, _)| n.as_str()).collect();
        let _ = writeln!(out, ".outputs {}", po_names.join(" "));
        let net_name = |r: &NetRef| -> String {
            match r {
                NetRef::Pi(i) => self.pi_names[*i].clone(),
                NetRef::Inst(i) => self.instances[*i].name.clone(),
            }
        };
        for inst in &self.instances {
            let gate = &lib.gates()[inst.gate];
            let k = gate.inputs().len();
            let ins: Vec<String> = inst.inputs.iter().map(&net_name).collect();
            let _ = writeln!(out, "# cell {}", gate.name());
            let _ = writeln!(out, ".names {} {}", ins.join(" "), inst.name);
            for x in minterms(&gate.truth_table(), k) {
                let row: String = (0..k)
                    .map(|j| if x >> j & 1 == 1 { '1' } else { '0' })
                    .collect();
                let _ = writeln!(out, "{row} 1");
            }
        }
        for (name, r) in &self.outputs {
            let src = net_name(r);
            if src != *name {
                let _ = writeln!(out, ".names {src} {name}\n1 1");
            }
        }
        out.push_str(".end\n");
        out
    }

    /// Reconstruct a [`Network`] view of the mapped netlist: one SOP node
    /// per gate instance (minterm cover of the cell function), preserving
    /// primary-input, instance, and output names. The result computes the
    /// same function as [`MappedNetwork::eval_outputs`] and is the bridge
    /// into the `verify` equivalence checker.
    ///
    /// # Panics
    /// Panics if a cell has more than 16 inputs ([`genlib::Gate::truth_table`])
    /// or if instance/input names collide — both indicate a corrupt mapped
    /// netlist.
    pub fn to_network(&self, lib: &Library, model_name: &str) -> Network {
        let mut net = Network::new(model_name);
        let pis: Vec<NodeId> = self
            .pi_names
            .iter()
            .map(|n| {
                net.add_input(n)
                    .expect("duplicate PI name in mapped netlist")
            })
            .collect();
        let mut insts: Vec<NodeId> = Vec::with_capacity(self.instances.len());
        for inst in &self.instances {
            let gate = &lib.gates()[inst.gate];
            let k = gate.inputs().len();
            let fanins: Vec<NodeId> = inst
                .inputs
                .iter()
                .map(|r| match r {
                    NetRef::Pi(i) => pis[*i],
                    NetRef::Inst(i) => insts[*i],
                })
                .collect();
            let cubes = minterms(&gate.truth_table(), k)
                .map(|x| {
                    let lits = (0..k)
                        .map(|j| if x >> j & 1 == 1 { Lit::Pos } else { Lit::Neg })
                        .collect();
                    Cube::new(lits)
                })
                .collect();
            let sop = Sop::from_cubes(k, cubes);
            insts.push(
                net.add_logic(&inst.name, fanins, sop)
                    .expect("duplicate instance name in mapped netlist"),
            );
        }
        for (name, r) in &self.outputs {
            let node = match r {
                NetRef::Pi(i) => pis[*i],
                NetRef::Inst(i) => insts[*i],
            };
            net.add_output(name, node);
        }
        net
    }
}

/// The assignments `x` of a `k`-input cell whose packed truth `table`
/// ([`genlib::Gate::truth_table`]) outputs 1, in increasing order.
fn minterms(table: &[u64], k: usize) -> impl Iterator<Item = usize> + '_ {
    (0..1usize << k).filter(move |x| table[x / 64] >> (x % 64) & 1 == 1)
}

#[cfg(test)]
mod tests {
    use crate::map::mapper::{map_network, MapOptions};
    use crate::map::subject::SubjectAig;
    use activity::{analyze, TransitionModel};
    use genlib::builtin::lib2_like;
    use netlist::parse_blif;

    #[test]
    fn blif_roundtrip_preserves_function() {
        let blif = ".model t\n.inputs a b c d\n.outputs f g\n.names a b x\n11 1\n\
                    .names c d y\n1- 1\n-1 1\n.names x y f\n11 1\n.names x c g\n0- 1\n-0 1\n.end\n";
        let net = parse_blif(blif).unwrap().network;
        let act = analyze(&net, &[0.5; 4], TransitionModel::StaticCmos);
        let aig = SubjectAig::from_network(&net, &act).unwrap();
        let lib = lib2_like();
        let mapped = map_network(&aig, &lib, &MapOptions::power()).unwrap();

        let text = mapped.to_blif(&lib, "t_mapped");
        let back = parse_blif(&text).unwrap().network;
        for bits in 0..16u32 {
            let pis: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                back.eval_outputs(&pis),
                mapped.eval_outputs(&lib, &pis),
                "at {pis:?}"
            );
            assert_eq!(back.eval_outputs(&pis), net.eval_outputs(&pis));
        }
    }

    #[test]
    fn network_view_matches_mapped_eval() {
        let blif = ".model t\n.inputs a b c\n.outputs f g\n.names a b x\n11 1\n\
                    .names x c f\n1- 1\n-1 1\n.names a c g\n0- 1\n-0 1\n.end\n";
        let net = parse_blif(blif).unwrap().network;
        let act = analyze(&net, &[0.5; 3], TransitionModel::StaticCmos);
        let aig = SubjectAig::from_network(&net, &act).unwrap();
        let lib = lib2_like();
        let mapped = map_network(&aig, &lib, &MapOptions::power()).unwrap();

        let view = mapped.to_network(&lib, "t_mapped");
        assert_eq!(view.inputs().len(), mapped.pi_names.len());
        assert_eq!(view.outputs().len(), mapped.outputs.len());
        for bits in 0..8u32 {
            let pis: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                view.eval_outputs(&pis),
                mapped.eval_outputs(&lib, &pis),
                "at {pis:?}"
            );
        }
    }

    #[test]
    fn histogram_counts_cells() {
        let blif = ".model t\n.inputs a b\n.outputs f\n.names a b x\n11 1\n.names x f\n0 1\n.end\n";
        let net = parse_blif(blif).unwrap().network;
        let act = analyze(&net, &[0.5; 2], TransitionModel::StaticCmos);
        let aig = SubjectAig::from_network(&net, &act).unwrap();
        let lib = lib2_like();
        let mapped = map_network(&aig, &lib, &MapOptions::area()).unwrap();
        let h = mapped.gate_histogram(&lib);
        let total: usize = h.values().sum();
        assert_eq!(total, mapped.instances.len());
        assert!(total >= 1);
    }
}
