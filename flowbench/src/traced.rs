//! The traced pass: the same cells, run serially, with every call into a
//! layer's public function made from here, timed, and wrapped in its own
//! `obs::Session` so the layer's built-in counters are captured per call.
//!
//! The cell body follows `lowpower::flow::run_flow` / `run_method` step for
//! step. [`drift`] compares its results with the untraced pass, so the
//! benchmark fails instead of timing a pipeline the flow no longer runs.

use crate::pass::{CellQor, Pass};
use crate::workload::{cells, Inputs, Workload};
use activity::analyze;
use lint::{lint_activity, lint_decomposed, lint_library, lint_mapped, lint_network};
use lint::{LintConfig, LintLevel, LintReport};
use lowpower::flow::{strip_constant_outputs, FlowConfig, FlowError, Method};
use lowpower_core::decomp::{decompose_network, DecompOptions};
use lowpower_core::map::{map_network, MapOptions, SubjectAig};
use lowpower_core::power::{evaluate, simulate_glitch_power};
use netlist::Network;
use std::collections::BTreeMap;
use std::time::Instant;
use verify::{check_equiv, OutputPolicy, Verdict, VerifyError, VerifyLevel, VerifyOptions};

/// Layer key of the standalone BDD probe, which runs outside the flow.
pub const PROBE: &str = "decomp.bdd_probe";

/// Per-layer time, call counts and obs metrics, accumulated over calls.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Seconds spent in each layer's calls.
    pub time_s: BTreeMap<&'static str, f64>,
    /// Calls made into each layer.
    pub calls: BTreeMap<&'static str, u64>,
    /// Summed obs counters of every call.
    pub counters: BTreeMap<String, u64>,
    /// Max-merged obs gauges of every call.
    pub gauges: BTreeMap<String, u64>,
    /// Summed literal count of the optimized networks.
    pub literals_out: u64,
    /// Summed logic-node count of the optimized networks.
    pub nodes_out: u64,
}

impl Tracer {
    /// Run one layer call under its own obs session, adding its time and
    /// metrics to `layer`.
    pub fn call<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let session = obs::Session::start();
        let t = Instant::now();
        let r = f();
        let dt = t.elapsed().as_secs_f64();
        let report = session.finish();
        self.add_time(layer, dt);
        *self.calls.entry(layer).or_default() += 1;
        for (name, n) in report.metrics.counters {
            *self.counters.entry(name).or_default() += n;
        }
        for (name, v) in report.metrics.gauges {
            let g = self.gauges.entry(name).or_default();
            *g = (*g).max(v);
        }
        r
    }

    fn add_time(&mut self, layer: &'static str, seconds: f64) {
        *self.time_s.entry(layer).or_default() += seconds;
    }

    /// Seconds spent in `layer`.
    pub fn time(&self, layer: &str) -> f64 {
        self.time_s.get(layer).copied().unwrap_or(0.0)
    }

    /// Total of the obs counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Seconds covered by layer calls of the flow (the probe excluded).
    pub fn covered_s(&self) -> f64 {
        self.time_s
            .iter()
            .filter(|(layer, _)| **layer != PROBE)
            .map(|(_, s)| s)
            .sum()
    }

    /// The rugged script with each pass timed between successive hook
    /// calls; with a QoR context, the hook also takes the ledger snapshot
    /// `optimize` records after every pass.
    fn optimize(
        &mut self,
        net: &Network,
        qor: Option<&qor::Ctx>,
        ledger: &mut Vec<qor::Metrics>,
    ) -> Network {
        let mut n = net.clone();
        let mut last = Instant::now();
        logicopt::rugged_like_with(&mut n, &mut |label, after| {
            let pass = label.split_once('.').map_or(label, |(_, pass)| pass);
            let layer = match pass {
                "sweep" | "resweep" => "logicopt.sweep",
                "simplify" | "resimplify" => "logicopt.simplify",
                "eliminate" => "logicopt.eliminate",
                "extract" => "logicopt.extract",
                other => panic!("rugged script ran an unknown pass `{other}`"),
            };
            self.add_time(layer, last.elapsed().as_secs_f64());
            if let Some(ctx) = qor {
                ledger.push(self.call("qor", || qor::measure_network(after, ctx)));
            }
            last = Instant::now();
        });
        self.literals_out += n.literal_count() as u64;
        self.nodes_out += n.logic_count() as u64;
        n
    }

    /// A verification checkpoint, as the flow applies it.
    fn verify(
        &mut self,
        stage: &str,
        cfg: &FlowConfig,
        check: impl FnOnce(&VerifyOptions) -> Result<Verdict, VerifyError>,
    ) -> Result<(), String> {
        if cfg.verify == VerifyLevel::Off {
            return Ok(());
        }
        let opts = VerifyOptions::at_level(cfg.verify).with_outputs(OutputPolicy::Exact);
        match self.call("verify", || check(&opts)) {
            Ok(Verdict::NotEquivalent(cex)) => {
                Err(format!("{stage} is not function-preserving: {cex}"))
            }
            Err(e) => Err(format!("{stage} verification impossible: {e}")),
            Ok(_) => Ok(()),
        }
    }

    /// A lint checkpoint, as the flow applies it.
    fn lint(
        &mut self,
        stage: &str,
        cfg: &FlowConfig,
        run: impl FnOnce() -> LintReport,
    ) -> Result<(), String> {
        if cfg.lint == LintLevel::Off {
            return Ok(());
        }
        let report = self.call("lint", run);
        if cfg.lint == LintLevel::Deny && report.has_errors() {
            return Err(format!(
                "{stage} failed lint with {} error(s)",
                report.error_count()
            ));
        }
        Ok(())
    }

    /// One cell, layer by layer. `shared` is the circuit's optimized
    /// network when the workload optimizes once per circuit; otherwise the
    /// cell optimizes (and checks) the raw circuit itself, as `run_flow`.
    fn cell(
        &mut self,
        net: &Network,
        shared: Option<&Network>,
        lib: &genlib::Library,
        method: Method,
        cfg: &FlowConfig,
    ) -> Result<CellQor, String> {
        let lint_cfg = LintConfig::new();
        let qctx = cfg.qor.then(|| qor::Ctx {
            pi_probs: cfg.pi_probs.clone(),
            model: cfg.model,
            env: cfg.env,
            po_load: cfg.po_load,
        });
        let qctx = qctx.as_ref();
        let mut ledger = Vec::new();
        let own;
        let optimized = match shared {
            Some(o) => o,
            None => {
                if let Some(ctx) = qctx {
                    ledger.push(self.call("qor", || qor::measure_network(net, ctx)));
                }
                own = self.optimize(net, qctx, &mut ledger);
                self.verify("optimize", cfg, |o| check_equiv(net, &own, o))?;
                self.lint("optimize", cfg, || lint_network(&own, &lint_cfg))?;
                &own
            }
        };
        let pi_probs = cfg
            .pi_probs
            .clone()
            .unwrap_or_else(|| vec![0.5; optimized.inputs().len()]);
        self.lint("library", cfg, || lint_library(lib, &lint_cfg))?;
        let dopts = DecompOptions {
            style: method.decomp_style(),
            model: cfg.model,
            pi_probs: Some(pi_probs.clone()),
            required_time: None,
            use_correlations: cfg.use_correlations,
        };
        // The analyze call decompose makes internally, timed on its own.
        let probe = Instant::now();
        let session = obs::Session::start();
        analyze(optimized, &pi_probs, cfg.model);
        drop(session.finish());
        self.add_time(PROBE, probe.elapsed().as_secs_f64());

        let decomposed = self.call("decomp", || decompose_network(optimized, &dopts));
        if let Some(ctx) = qctx {
            ledger.push(self.call("qor", || qor::measure_network(&decomposed.network, ctx)));
        }
        self.verify("decompose", cfg, |o| {
            check_equiv(optimized, &decomposed.network, o)
        })?;
        self.lint("decompose", cfg, || lint_decomposed(&decomposed, &lint_cfg))?;
        // Unused results the flow computes too, so the cells do equal work.
        let _provenance = qor::Provenance::from_decomposed(&decomposed);
        let (mappable, _const_outputs) = strip_constant_outputs(&decomposed.network);
        if let Some(ctx) = qctx {
            ledger.push(self.call("qor", || qor::measure_network(&mappable, ctx)));
        }
        let act = self.call("activity", || analyze(&mappable, &pi_probs, cfg.model));
        self.lint("activity", cfg, || {
            lint_activity(&mappable, &act, &lint_cfg)
        })?;
        let _switching = act.total_switching(mappable.logic_ids());
        let aig = self
            .call("map.subject", || SubjectAig::from_network(&mappable, &act))
            .map_err(|e| FlowError::from(e).to_string())?;
        let mopts = MapOptions {
            objective: method.map_objective(),
            epsilon: cfg.epsilon,
            model: cfg.model,
            env: cfg.env,
            po_load: cfg.po_load,
            required_time: cfg.required_time,
            ..MapOptions::power()
        };
        let mapped = self
            .call("map", || map_network(&aig, lib, &mopts))
            .map_err(|e| FlowError::from(e).to_string())?;
        if let Some(ctx) = qctx {
            ledger.push(self.call("qor", || qor::measure_mapped(&mapped, lib, ctx)));
        }
        self.verify("map", cfg, |o| {
            check_equiv(&mappable, &mapped.to_network(lib, mappable.name()), o)
        })?;
        self.lint("map", cfg, || {
            lint_mapped(&mapped, lib, cfg.po_load, &lint_cfg)
        })?;
        let report = self.call("power.evaluate", || {
            evaluate(&mapped, lib, &cfg.env, cfg.model, cfg.po_load)
        });
        let glitch = self.call("power.glitch", || {
            simulate_glitch_power(
                &mapped,
                lib,
                &cfg.env,
                &pi_probs,
                cfg.sim_vectors,
                cfg.sim_seed,
                cfg.po_load,
                cfg.sim_threads,
            )
        });
        Ok(CellQor {
            area: report.area,
            delay: report.delay,
            power_uw: glitch.power_uw,
            mapped,
            ledger,
        })
    }
}

/// One traced pass over a workload.
pub struct TracedPass {
    /// Wall time of the pass, the probe included.
    pub wall_s: f64,
    /// Cell results, in table order.
    pub cells: Vec<Result<CellQor, String>>,
}

/// Run the workload once, serially, layer by layer, adding every layer
/// call to `tracer`.
pub fn run_traced(
    tracer: &mut Tracer,
    workload: Workload,
    inputs: &Inputs,
    cfg: &FlowConfig,
) -> TracedPass {
    let t0 = Instant::now();
    let shared: Vec<Network> = if workload.optimizes_per_cell() {
        Vec::new()
    } else {
        inputs
            .circuits
            .iter()
            .map(|net| tracer.optimize(net, None, &mut Vec::new()))
            .collect()
    };
    let cells = cells(workload, inputs.circuits.len())
        .into_iter()
        .map(|(ci, method)| {
            crate::pass::guarded(|| {
                tracer.cell(
                    &inputs.circuits[ci],
                    shared.get(ci),
                    &inputs.lib,
                    method,
                    cfg,
                )
            })
        })
        .collect();
    TracedPass {
        wall_s: t0.elapsed().as_secs_f64(),
        cells,
    }
}

/// Drift guard: one line per cell whose traced result differs from the
/// untraced pass in area, delay, power, mapped BLIF or QoR ledger.
pub fn drift(inputs: &Inputs, untraced: &Pass, traced: &TracedPass) -> Vec<String> {
    untraced
        .cells
        .iter()
        .zip(&traced.cells)
        .filter_map(|(u, t)| {
            let name = inputs.circuits[u.circuit].name();
            let tag = format!("{name} method {}", u.method);
            match (&u.outcome, t) {
                (Ok(a), Ok(b)) => {
                    let same_numbers = [
                        (a.area, b.area),
                        (a.delay, b.delay),
                        (a.power_uw, b.power_uw),
                    ]
                    .iter()
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                    let same_blif =
                        a.mapped.to_blif(&inputs.lib, name) == b.mapped.to_blif(&inputs.lib, name);
                    (!(same_numbers && same_blif && a.ledger == b.ledger))
                        .then(|| format!("{tag}: traced result differs from the flow's"))
                }
                (Err(_), Err(_)) => None,
                (Ok(_), Err(e)) => Some(format!("{tag}: only the traced run failed: {e}")),
                (Err(e), Ok(_)) => Some(format!("{tag}: only the flow failed: {e}")),
            }
        })
        .collect()
}
