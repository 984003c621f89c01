//! `ACT*` rules over [`activity::ActivityMap`] annotations.
//!
//! The paper bounds per-node switching activity by the transition model
//! (eqs. 10–11): static CMOS toggles at most `2p(1−p)` per cycle, a
//! precharged p-type domino gate at most `p`, an n-type one at most
//! `1−p`. Activities above the bound (or below zero) mean the power cost
//! driving decomposition and mapping is garbage.

use crate::diag::{LintReport, Provenance};
use crate::{severity_of, LintConfig};
use activity::{ActivityMap, TransitionModel};
use netlist::Network;

/// Absolute slack allowed over the model bound, absorbing f64 rounding in
/// BDD probability computation.
const TOL: f64 = 1e-9;

/// Model-specific upper bound on switching activity for a signal with
/// probability `p`.
fn bound(model: TransitionModel, p: f64) -> f64 {
    match model {
        TransitionModel::StaticCmos => 2.0 * p * (1.0 - p),
        TransitionModel::DominoP => p,
        TransitionModel::DominoN => 1.0 - p,
    }
}

/// Check one (probability, switching) pair; push findings into `report`.
fn check_pair(
    p: f64,
    e: f64,
    model: TransitionModel,
    provenance: &Provenance,
    report: &mut LintReport,
) {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        report.push(
            "ACT001",
            severity_of("ACT001"),
            provenance.clone(),
            format!("signal probability {p} outside [0, 1]"),
        );
        return; // the bound below is meaningless for an invalid p
    }
    let max = bound(model, p);
    if e.is_nan() || e < -TOL || e > max + TOL {
        report.push(
            "ACT002",
            severity_of("ACT002"),
            provenance.clone(),
            format!("switching {e} outside the {model:?} bound [0, {max:.6}] for p = {p}"),
        );
    }
}

/// Run all `ACT*` rules over a network's activity annotations.
pub fn lint_activity(net: &Network, act: &ActivityMap, _cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::new(format!("activity of `{}`", net.name()));
    for id in net.node_ids() {
        let node = net.try_node(id).expect("live id");
        let provenance = Provenance::node(node.name(), id.index());
        check_pair(
            act.p_one(id),
            act.switching(id),
            act.model(),
            &provenance,
            &mut report,
        );
    }
    report
}

/// Raw-slice entry point: lint parallel probability / switching arrays
/// under a model, without a network (indices stand in for node names).
/// Used by synthetic scenarios and the mutation tests, which need to
/// present inconsistent pairs that [`ActivityMap::from_p_one`] cannot
/// produce.
pub fn lint_activity_slices(
    p_one: &[f64],
    switching: &[f64],
    model: TransitionModel,
    _cfg: &LintConfig,
) -> LintReport {
    let mut report = LintReport::new(format!("activity slices ({} entries)", p_one.len()));
    if p_one.len() != switching.len() {
        report.push(
            "ACT002",
            severity_of("ACT002"),
            Provenance::none(),
            format!(
                "{} probability value(s) but {} switching value(s)",
                p_one.len(),
                switching.len()
            ),
        );
    }
    for (i, (&p, &e)) in p_one.iter().zip(switching).enumerate() {
        let provenance = Provenance {
            node: None,
            id: Some(i),
            slot: None,
        };
        check_pair(p, e, model, &provenance, &mut report);
    }
    report
}
