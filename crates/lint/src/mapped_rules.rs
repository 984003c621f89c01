//! `MAP*` rules over [`lowpower_core::map::MappedNetwork`].

use crate::diag::{LintReport, Provenance};
use crate::{severity_of, LintConfig};
use genlib::Library;
use lowpower_core::map::mapper::{MappedNetwork, NetRef};
use std::collections::HashMap;

/// Run all `MAP*` rules over a mapped netlist.
///
/// `po_load` is the capacitive load assumed at every primary output (the
/// flow's `FlowConfig::po_load`), used by the MAP005 load check.
pub fn lint_mapped(
    mapped: &MappedNetwork,
    lib: &Library,
    po_load: f64,
    _cfg: &LintConfig,
) -> LintReport {
    let mut report = LintReport::new("mapped netlist".to_string());
    check_refs(mapped, &mut report);
    check_pin_arity(mapped, lib, &mut report);
    check_dead_instances(mapped, &mut report);
    check_probabilities(mapped, &mut report);
    check_loads(mapped, lib, po_load, &mut report);
    check_duplicate_names(mapped, &mut report);
    report
}

/// Is a reference resolvable *before* instance `at` (instances are stored
/// in topological order: drivers strictly precede consumers)?
fn ref_ok(r: NetRef, at: usize, mapped: &MappedNetwork) -> bool {
    match r {
        NetRef::Pi(k) => k < mapped.pi_names.len(),
        NetRef::Inst(j) => j < at,
    }
}

/// MAP001: instance inputs may only reference earlier instances or valid
/// primary inputs; outputs may reference any valid instance or PI.
fn check_refs(mapped: &MappedNetwork, report: &mut LintReport) {
    let sev = severity_of("MAP001");
    for (i, inst) in mapped.instances.iter().enumerate() {
        for (slot, &r) in inst.inputs.iter().enumerate() {
            if !ref_ok(r, i, mapped) {
                let what = match r {
                    NetRef::Pi(k) => {
                        format!("primary input #{k} (only {} exist)", mapped.pi_names.len())
                    }
                    NetRef::Inst(j) if j == i => "itself".to_string(),
                    NetRef::Inst(j) => format!("instance #{j} (not before #{i})"),
                };
                report.push(
                    "MAP001",
                    sev,
                    Provenance::slot(inst.name.clone(), i, slot),
                    format!("input references {what}; instances must be topologically ordered"),
                );
            }
        }
    }
    for (name, &r) in mapped.outputs.iter().map(|(n, r)| (n, r)) {
        if !ref_ok(r, mapped.instances.len(), mapped) {
            report.push(
                "MAP001",
                sev,
                Provenance {
                    node: Some(name.clone()),
                    id: None,
                    slot: None,
                },
                format!("primary output `{name}` references a nonexistent net"),
            );
        }
    }
}

/// MAP002: the instance's input count must equal its gate's pin count, and
/// the gate index must be valid.
fn check_pin_arity(mapped: &MappedNetwork, lib: &Library, report: &mut LintReport) {
    let sev = severity_of("MAP002");
    for (i, inst) in mapped.instances.iter().enumerate() {
        match lib.gates().get(inst.gate) {
            None => report.push(
                "MAP002",
                sev,
                Provenance::node(inst.name.clone(), i),
                format!(
                    "gate index {} is out of range (library has {} gates)",
                    inst.gate,
                    lib.gates().len()
                ),
            ),
            Some(g) if g.inputs().len() != inst.inputs.len() => report.push(
                "MAP002",
                sev,
                Provenance::node(inst.name.clone(), i),
                format!(
                    "bound to `{}` with {} pin(s) but wired with {} input(s)",
                    g.name(),
                    g.inputs().len(),
                    inst.inputs.len()
                ),
            ),
            Some(_) => {}
        }
    }
}

/// MAP003: every instance should drive another instance or a primary
/// output.
fn check_dead_instances(mapped: &MappedNetwork, report: &mut LintReport) {
    let mut used = vec![false; mapped.instances.len()];
    for inst in &mapped.instances {
        for &r in &inst.inputs {
            if let NetRef::Inst(j) = r {
                if j < used.len() {
                    used[j] = true;
                }
            }
        }
    }
    for (_, r) in &mapped.outputs {
        if let NetRef::Inst(j) = *r {
            if j < used.len() {
                used[j] = true;
            }
        }
    }
    for (i, inst) in mapped.instances.iter().enumerate() {
        if !used[i] {
            report.push(
                "MAP003",
                severity_of("MAP003"),
                Provenance::node(inst.name.clone(), i),
                "drives no instance and no primary output",
            );
        }
    }
}

/// MAP004: probabilities must lie in [0, 1] and the PI probability table
/// must align with the PI name table.
fn check_probabilities(mapped: &MappedNetwork, report: &mut LintReport) {
    let sev = severity_of("MAP004");
    if mapped.pi_p_one.len() != mapped.pi_names.len() {
        report.push(
            "MAP004",
            sev,
            Provenance::none(),
            format!(
                "{} primary input name(s) but {} probability value(s)",
                mapped.pi_names.len(),
                mapped.pi_p_one.len()
            ),
        );
    }
    for (k, (&p, name)) in mapped.pi_p_one.iter().zip(&mapped.pi_names).enumerate() {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            report.push(
                "MAP004",
                sev,
                Provenance::node(name.clone(), k),
                format!("primary input probability {p} outside [0, 1]"),
            );
        }
    }
    for (i, inst) in mapped.instances.iter().enumerate() {
        if !(0.0..=1.0).contains(&inst.p_one) || inst.p_one.is_nan() {
            report.push(
                "MAP004",
                sev,
                Provenance::node(inst.name.clone(), i),
                format!("signal probability {} outside [0, 1]", inst.p_one),
            );
        }
    }
}

/// MAP005: the load on each instance output (sum of driven pin caps plus
/// `po_load` per primary output driven) must not exceed the driving gate's
/// tightest pin `max_load` rating.
fn check_loads(mapped: &MappedNetwork, lib: &Library, po_load: f64, report: &mut LintReport) {
    let mut load = vec![0.0f64; mapped.instances.len()];
    for inst in &mapped.instances {
        let Some(gate) = lib.gates().get(inst.gate) else {
            continue; // MAP002 reports the broken gate index
        };
        for (slot, &r) in inst.inputs.iter().enumerate() {
            if let (NetRef::Inst(j), Some(pin)) = (r, gate.pins().get(slot)) {
                if j < load.len() {
                    load[j] += pin.input_cap;
                }
            }
        }
    }
    for (_, r) in &mapped.outputs {
        if let NetRef::Inst(j) = *r {
            if j < load.len() {
                load[j] += po_load;
            }
        }
    }
    for (i, inst) in mapped.instances.iter().enumerate() {
        let Some(gate) = lib.gates().get(inst.gate) else {
            continue;
        };
        let max_load = gate
            .pins()
            .iter()
            .map(|p| p.max_load)
            .fold(f64::INFINITY, f64::min);
        if max_load.is_finite() && load[i] > max_load + 1e-9 {
            report.push(
                "MAP005",
                severity_of("MAP005"),
                Provenance::node(inst.name.clone(), i),
                format!(
                    "output load {:.3} exceeds `{}` max_load {:.3}",
                    load[i],
                    gate.name(),
                    max_load
                ),
            );
        }
    }
}

/// MAP006: net names (primary inputs plus instance outputs) must be unique.
fn check_duplicate_names(mapped: &MappedNetwork, report: &mut LintReport) {
    let mut seen: HashMap<&str, String> = HashMap::new();
    let names = mapped
        .pi_names
        .iter()
        .enumerate()
        .map(|(k, n)| (n.as_str(), format!("primary input #{k}")))
        .chain(
            mapped
                .instances
                .iter()
                .enumerate()
                .map(|(i, inst)| (inst.name.as_str(), format!("instance #{i}"))),
        );
    for (name, what) in names {
        if let Some(prev) = seen.insert(name, what.clone()) {
            report.push(
                "MAP006",
                severity_of("MAP006"),
                Provenance {
                    node: Some(name.to_string()),
                    id: None,
                    slot: None,
                },
                format!("net name `{name}` used by both {prev} and {what}"),
            );
        }
    }
}
