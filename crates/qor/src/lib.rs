//! QoR ledger: per-stage power/delay attribution, node provenance, and
//! baseline regression gating for the synthesis flow.
//!
//! Three concerns, one crate:
//!
//! * **Ledger** ([`LedgerReport`]) — a plain value owned by one
//!   `circuit × method` run: the flow driver measures its artifact after
//!   each optimization pass, the decomposition, and the mapping
//!   ([`measure_network`], [`measure_mapped`]) and appends one
//!   deterministic [`Snapshot`] per stage ([`LedgerReport::record`]), so
//!   every stage gets its QoR delta attributed by name. All metrics are
//!   **fixed-point integers** ([`Metrics`]): per-stage deltas are
//!   consecutive integer differences, so they telescope — the sum of all
//!   deltas equals `final − initial` *exactly*, and reports render
//!   byte-identically on every run and thread count.
//! * **Provenance** ([`Provenance`]) — a view borrowing a decomposition
//!   result that reads its per-source-node record in place: it resolves
//!   every mapped gate instance back to the node of the optimized source
//!   network whose decomposition produced it, and attributes per-gate
//!   power shares to those origins.
//! * **Baselines** ([`Baseline`], [`baseline::diff`]) — canonical QoR
//!   snapshots per `circuit × method`, serialized as strict JSON, diffed
//!   with one relative tolerance so CI can fail on QoR drift.
//!
//! The obs JSONL stream is the ledger's only machine-readable form: when
//! an `obs` session is live, every recorded snapshot rides it as a silent
//! note event ([`obs::note_event()`]) carrying its ledger line, so one trace
//! file carries both timing spans and QoR waterfalls, and
//! [`check_ledger_notes`] validates those lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod ledger;
pub mod provenance;

pub use baseline::{Baseline, BaselineEntry, Diff, DiffLine};
pub use ledger::{check_ledger_notes, fmt_milli, milli, LedgerReport, Metrics, SnapKind, Snapshot};
pub use provenance::{GateShare, Provenance};

use genlib::Library;
use lowpower_core::map::MappedNetwork;
use lowpower_core::power::{evaluate, MappedReport};
use netlist::Network;

use activity::{ActivityMap, PowerEnv, TransitionModel};

/// Measurement context: everything a QoR snapshot needs besides the
/// artifact itself. Matches the flow configuration so ledger numbers agree
/// exactly with the flow's own evaluation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// `P(pi = 1)` per primary input; `None` (or a length mismatch with
    /// the measured network, e.g. after a pass dropped dead inputs) falls
    /// back to 0.5 everywhere.
    pub pi_probs: Option<Vec<f64>>,
    /// Transition model for switching-activity estimation.
    pub model: TransitionModel,
    /// Electrical environment (voltage/frequency) for power numbers.
    pub env: PowerEnv,
    /// Capacitive load on every primary output of a mapped netlist.
    pub po_load: f64,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            pi_probs: None,
            model: TransitionModel::StaticCmos,
            env: PowerEnv::new(),
            po_load: 1.0,
        }
    }
}

impl Ctx {
    fn probs_for(&self, n_pi: usize) -> Vec<f64> {
        match &self.pi_probs {
            Some(p) if p.len() == n_pi => p.clone(),
            _ => vec![0.5; n_pi],
        }
    }
}

/// Measure an unmapped logic network.
///
/// Power is the activity-weighted proxy of eqs. 5–11: total switching of
/// all logic nodes under `ctx`, each node charged one unit of capacitance
/// (before mapping there are no real gate loads yet). Area is the
/// SOP literal count, delay the unit-delay depth. Everything lands in
/// fixed-point [`Metrics`] units.
pub fn measure_network(net: &Network, ctx: &Ctx) -> Metrics {
    let probs = ctx.probs_for(net.inputs().len());
    measure_network_with(net, &activity::analyze(net, &probs, ctx.model), ctx)
}

/// [`measure_network`] from activities the caller already computed for
/// `net` under `ctx` (its input probabilities and transition model), so a
/// snapshot of a network the flow has just analysed costs no BDD work.
pub fn measure_network_with(net: &Network, act: &ActivityMap, ctx: &Ctx) -> Metrics {
    debug_assert_eq!(act.model(), ctx.model, "activities under another model");
    let total_switching = act.total_switching(net.logic_ids());
    Metrics {
        power_muw: milli(ctx.env.average_power_uw(1.0, total_switching)),
        area_milli: net.literal_count() as i64 * 1000,
        delay_ps: netlist::traversal::depth(net) * 1000,
        nodes: net.logic_count() as i64,
        literals: net.literal_count() as i64,
    }
}

/// Measure a mapped netlist: the numbers of
/// [`evaluate`](lowpower_core::power::evaluate) (zero-delay power, cell
/// area, library-model delay, gate count) in fixed-point [`Metrics`]
/// units; `literals` counts total gate input pins.
pub fn measure_mapped(m: &MappedNetwork, lib: &Library, ctx: &Ctx) -> Metrics {
    mapped_metrics(m, &evaluate(m, lib, &ctx.env, ctx.model, ctx.po_load))
}

/// [`measure_mapped`] from `rep`, the evaluation of `m` the caller already
/// made under `ctx`'s environment, model and output load.
pub fn mapped_metrics(m: &MappedNetwork, rep: &MappedReport) -> Metrics {
    Metrics {
        power_muw: milli(rep.power_uw),
        area_milli: milli(rep.area),
        delay_ps: milli(rep.delay),
        nodes: rep.gate_count as i64,
        literals: m.instances.iter().map(|i| i.inputs.len() as i64).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::parse_blif;

    const SAMPLE: &str = ".model t\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
                          .names x c f\n1- 1\n-1 1\n.end\n";

    #[test]
    fn measure_network_is_deterministic() {
        let net = parse_blif(SAMPLE).unwrap().network;
        let ctx = Ctx::default();
        assert_eq!(measure_network(&net, &ctx), measure_network(&net, &ctx));
    }

    #[test]
    fn pi_prob_length_mismatch_falls_back() {
        let net = parse_blif(SAMPLE).unwrap().network;
        let bad = Ctx {
            pi_probs: Some(vec![0.9]), // 3 PIs in SAMPLE
            ..Ctx::default()
        };
        let a = measure_network(&net, &bad);
        let b = measure_network(&net, &Ctx::default());
        assert_eq!(a, b);
    }
}
