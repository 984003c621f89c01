//! The end-to-end synthesis flow of the paper's experiments.
//!
//! `BLIF → rugged-like optimization → power-efficient NAND decomposition →
//! power-efficient technology mapping → area/delay/power report`.
//!
//! The six method combinations of Tables 2 and 3 are the cross product of
//! three [`DecompStyle`]s and two
//! `MapObjective`s; [`run_method`] runs
//! one of them end to end on an already-optimized network so that all six
//! share the identical starting point, exactly as in the paper.

use activity::{analyze, PowerEnv, TransitionModel};
use genlib::Library;
use lint::{lint_activity, lint_decomposed, lint_library, lint_mapped, lint_network};
use lint::{LintConfig, LintLevel, LintReport};
use lowpower_core::decomp::{decompose_network, DecompOptions, DecompStyle};
use lowpower_core::map::{map_network, MapObjective, MapOptions, SubjectAig};
use lowpower_core::power::{evaluate, MappedReport};
use netlist::Network;
use std::fmt;
use verify::{check_equiv, OutputPolicy, Verdict, VerifyLevel, VerifyOptions};

/// One of the paper's six synthesis method combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Area-delay mapping, conventional (balanced) decomposition.
    I,
    /// Area-delay mapping, MINPOWER decomposition.
    II,
    /// Area-delay mapping, bounded-height MINPOWER decomposition.
    III,
    /// Power-delay mapping, conventional decomposition.
    IV,
    /// Power-delay mapping, MINPOWER decomposition.
    V,
    /// Power-delay mapping, bounded-height MINPOWER decomposition.
    VI,
}

impl Method {
    /// All six methods in table order.
    pub const ALL: [Method; 6] = [
        Method::I,
        Method::II,
        Method::III,
        Method::IV,
        Method::V,
        Method::VI,
    ];

    /// The decomposition style of this method.
    pub fn decomp_style(self) -> DecompStyle {
        match self {
            Method::I | Method::IV => DecompStyle::Conventional,
            Method::II | Method::V => DecompStyle::MinPower,
            Method::III | Method::VI => DecompStyle::BoundedMinPower,
        }
    }

    /// The mapping objective of this method.
    pub fn map_objective(self) -> MapObjective {
        match self {
            Method::I | Method::II | Method::III => MapObjective::Area,
            Method::IV | Method::V | Method::VI => MapObjective::Power,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Method::I => "I",
            Method::II => "II",
            Method::III => "III",
            Method::IV => "IV",
            Method::V => "V",
            Method::VI => "VI",
        };
        write!(f, "{s}")
    }
}

/// Flow configuration shared by all methods.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// `P(pi = 1)` per input; `None` = 0.5 everywhere (the paper's
    /// independent-input default).
    pub pi_probs: Option<Vec<f64>>,
    /// Transition model.
    pub model: TransitionModel,
    /// Electrical environment (5 V / 20 MHz by default).
    pub env: PowerEnv,
    /// Capacitive load on each primary output, in load units.
    pub po_load: f64,
    /// ε for curve pruning.
    pub epsilon: f64,
    /// Required time at every primary output (estimated-arrival space);
    /// `None` targets each run's fastest achievable arrival.
    pub required_time: Option<f64>,
    /// Use exact pairwise correlations (eqs. 7–9) during decomposition.
    pub use_correlations: bool,
    /// Vectors for the glitch-aware power simulation (the Ghosh-estimator
    /// stand-in used for the reported power numbers).
    pub sim_vectors: usize,
    /// Seed for the glitch simulation.
    pub sim_seed: u64,
    /// Worker threads for the glitch simulation (1 = serial). The result
    /// is identical at every thread count; outer drivers that already
    /// parallelize across circuits or methods should leave this at 1.
    pub sim_threads: usize,
    /// Post-pass equivalence checking: every transforming stage
    /// (optimize, decompose, map) is checked against its input at this
    /// level. [`VerifyLevel::Off`] skips the checks entirely.
    pub verify: VerifyLevel,
    /// Structural lint checkpoints at every stage (library, optimize,
    /// decompose, activity, map), mirroring `verify`. At
    /// [`LintLevel::Check`] findings accumulate in
    /// [`MethodResult::lint_findings`]; at [`LintLevel::Deny`] any
    /// `Error`-severity finding aborts the flow with [`FlowError::Lint`].
    pub lint: LintLevel,
    /// Observability mode. Any value other than [`obs::ObsMode::Off`]
    /// records spans and metrics for the run: [`run_method`] /
    /// [`run_flow`] start a recording session (unless the caller already
    /// has one live on this thread, in which case events flow into it)
    /// and attach the finished [`obs::Report`] to
    /// [`MethodResult::obs`]. The mode value itself selects the sink used
    /// by CLI drivers; the flow records identically for all three.
    pub obs: obs::ObsMode,
    /// Record a QoR ledger for the run: [`run_flow`] / [`run_method`] open
    /// a [`qor::LedgerReport`] with a snapshot of their input and append a
    /// deterministic snapshot after every stage — each rugged-script pass,
    /// the decomposition, the constant-output strip, and the mapping. The
    /// run owns the ledger and returns it in [`MethodResult::qor`].
    pub qor: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            pi_probs: None,
            model: TransitionModel::StaticCmos,
            env: PowerEnv::new(),
            po_load: 1.0,
            epsilon: 0.05,
            required_time: None,
            use_correlations: false,
            sim_vectors: 600,
            sim_seed: 0xC0FFEE,
            sim_threads: 1,
            verify: VerifyLevel::Off,
            lint: LintLevel::Off,
            obs: obs::ObsMode::Off,
            qor: false,
        }
    }
}

impl FlowConfig {
    /// The QoR measurement context matching this flow configuration, so
    /// ledger numbers agree exactly with the flow's own evaluation.
    pub fn qor_ctx(&self) -> qor::Ctx {
        qor::Ctx {
            pi_probs: self.pi_probs.clone(),
            model: self.model,
            env: self.env,
            po_load: self.po_load,
        }
    }
}

/// Error from the end-to-end flow.
#[derive(Debug)]
pub enum FlowError {
    /// Mapping failed.
    Map(lowpower_core::map::MapError),
    /// A verification checkpoint found a functional difference.
    Verify {
        /// Stage that broke the function (`"optimize"`, `"decompose"`,
        /// `"map"`).
        stage: &'static str,
        /// The minimized witness.
        counterexample: Box<verify::Counterexample>,
    },
    /// A verification checkpoint could not compare the networks at all
    /// (e.g. mismatched outputs) — itself a sign of a broken pass.
    VerifySetup {
        /// Stage at which comparison failed.
        stage: &'static str,
        /// The structural problem.
        error: verify::VerifyError,
    },
    /// A lint checkpoint found `Error`-severity findings while
    /// [`FlowConfig::lint`] is [`LintLevel::Deny`].
    Lint {
        /// Stage whose result failed the lint (`"library"`, `"optimize"`,
        /// `"decompose"`, `"activity"`, `"map"`).
        stage: &'static str,
        /// The full report, including any non-error findings.
        report: Box<LintReport>,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Map(e) => write!(f, "mapping failed: {e}"),
            FlowError::Verify {
                stage,
                counterexample,
            } => {
                write!(f, "{stage} is not function-preserving: {counterexample}")
            }
            FlowError::VerifySetup { stage, error } => {
                write!(f, "{stage} verification impossible: {error}")
            }
            FlowError::Lint { stage, report } => {
                write!(
                    f,
                    "{stage} failed lint with {} error(s):\n{}",
                    report.error_count(),
                    report.render_text()
                )
            }
        }
    }
}

impl std::error::Error for FlowError {}

impl From<lowpower_core::map::MapError> for FlowError {
    fn from(e: lowpower_core::map::MapError) -> Self {
        FlowError::Map(e)
    }
}

/// Lint findings of one flow stage.
#[derive(Debug, Clone)]
pub struct StageLint {
    /// Stage the report belongs to (`"library"`, `"optimize"`,
    /// `"decompose"`, `"activity"`, `"map"`).
    pub stage: &'static str,
    /// The findings.
    pub report: LintReport,
}

/// An equivalence check of one stage's result against its input, run at
/// the given options.
type EquivCheck<'a> = &'a dyn Fn(&VerifyOptions) -> Result<Verdict, verify::VerifyError>;

/// The cross-cutting checks of one run, applied the same way after every
/// stage, plus what the run records along the way: the lint findings and,
/// when [`FlowConfig::qor`] is set, the QoR ledger with its measurement
/// context.
struct Checkpoints<'c> {
    cfg: &'c FlowConfig,
    lint_cfg: LintConfig,
    findings: Vec<StageLint>,
    ledger: Option<(qor::Ctx, qor::LedgerReport)>,
}

impl<'c> Checkpoints<'c> {
    fn new(cfg: &'c FlowConfig) -> Self {
        Checkpoints {
            cfg,
            lint_cfg: LintConfig::new(),
            findings: Vec::new(),
            ledger: None,
        }
    }

    /// The checkpoints of a whole `method` run on `input`. When
    /// [`FlowConfig::qor`] is set, the ledger opens with a snapshot of
    /// `input` labelled `opening`.
    fn for_run(cfg: &'c FlowConfig, input: &Network, opening: &str, method: Method) -> Self {
        let mut checks = Checkpoints::new(cfg);
        if cfg.qor {
            let ledger = qor::LedgerReport::new(input.name(), &method.to_string());
            checks.ledger = Some((cfg.qor_ctx(), ledger));
            checks.snapshot_network(opening, input);
        }
        checks
    }

    /// Record the QoR snapshot after `stage` when the run keeps a ledger.
    fn snapshot(
        &mut self,
        stage: &str,
        kind: qor::SnapKind,
        measure: impl FnOnce(&qor::Ctx) -> qor::Metrics,
    ) {
        if let Some((ctx, ledger)) = &mut self.ledger {
            ledger.record(stage, kind, measure(ctx));
        }
    }

    fn snapshot_network(&mut self, stage: &str, net: &Network) {
        self.snapshot(stage, qor::SnapKind::Network, |ctx| {
            qor::measure_network(net, ctx)
        });
    }

    /// The checkpoint after `stage`. When `cfg.verify` is not
    /// [`VerifyLevel::Off`], `equiv` (if the stage transforms a network)
    /// runs under a `verify` span and any disagreement aborts the flow.
    /// When `cfg.lint` is not [`LintLevel::Off`], `lint` runs under a
    /// `lint` span: at [`LintLevel::Deny`] `Error`-severity findings abort
    /// the flow; otherwise a non-empty report is kept.
    fn check(
        &mut self,
        stage: &'static str,
        equiv: Option<EquivCheck<'_>>,
        lint: impl FnOnce(&LintConfig) -> LintReport,
    ) -> Result<(), FlowError> {
        if let Some(equiv) = equiv.filter(|_| self.cfg.verify != VerifyLevel::Off) {
            let _span = obs::span!("verify", "{stage}");
            let opts = VerifyOptions::at_level(self.cfg.verify).with_outputs(OutputPolicy::Exact);
            match equiv(&opts) {
                Ok(Verdict::NotEquivalent(counterexample)) => {
                    return Err(FlowError::Verify {
                        stage,
                        counterexample,
                    })
                }
                Ok(_) => {}
                Err(error) => return Err(FlowError::VerifySetup { stage, error }),
            }
        }
        if self.cfg.lint == LintLevel::Off {
            return Ok(());
        }
        let report = {
            let _span = obs::span!("lint", "{stage}");
            lint(&self.lint_cfg)
        };
        if self.cfg.lint == LintLevel::Deny && report.has_errors() {
            return Err(FlowError::Lint {
                stage,
                report: Box::new(report),
            });
        }
        if !report.is_clean() {
            self.findings.push(StageLint { stage, report });
        }
        Ok(())
    }

    /// The optimize stage, with a ledger snapshot after every pass, and its
    /// checkpoint.
    fn optimize(&mut self, net: &Network) -> Result<Network, FlowError> {
        let optimized = optimize_with(net, &mut |label, after| {
            self.snapshot_network(&format!("optimize.{label}"), after);
        });
        self.check(
            "optimize",
            Some(&|o| check_equiv(net, &optimized, o)),
            |c| lint_network(&optimized, c),
        )?;
        Ok(optimized)
    }
}

/// Optimize a network with the rugged-like script (shared starting point of
/// all methods, as in the paper's Section 4). In debug builds the script
/// runs under the lint certifier and panics if it corrupts a structural
/// invariant.
pub fn optimize(net: &Network) -> Network {
    optimize_with(net, &mut |_, _| {})
}

/// [`optimize`] with `hook(label, net)` run after every pass of the script
/// (labels `<round>.<pass>`, see [`logicopt::rugged_like_with`]).
fn optimize_with(net: &Network, hook: &mut dyn FnMut(&str, &Network)) -> Network {
    let _span = obs::span!("optimize");
    let mut n = net.clone();
    lint::certify::certified_pass("rugged_like", &mut n, |n| {
        logicopt::rugged_like_with(n, hook)
    });
    n
}

/// [`optimize`] followed by the flow's optimize checkpoint: verification
/// against `net` and lint at the levels of `cfg`. Returns the optimized
/// network and the checkpoint's lint findings, so a caller running several
/// methods on one optimized network checks it once.
///
/// # Errors
/// Returns [`FlowError`] when the checkpoint fails.
pub fn optimize_checked(
    net: &Network,
    cfg: &FlowConfig,
) -> Result<(Network, Vec<StageLint>), FlowError> {
    let mut checks = Checkpoints::new(cfg);
    let optimized = checks.optimize(net)?;
    Ok((optimized, checks.findings))
}

/// Split constant-driven primary outputs from a decomposed network: the
/// mapper has no tie cells, and a constant net dissipates no dynamic power
/// anyway. Returns the mappable network and the `(name, value)` constant
/// outputs.
///
/// # Panics
/// Panics if a constant node still has logic fanouts (run the optimizer's
/// sweep first — it folds internal constants).
pub fn strip_constant_outputs(net: &Network) -> (Network, Vec<(String, bool)>) {
    let is_const = |id: netlist::NodeId| {
        net.node(id)
            .sop()
            .map(|s| s.is_zero() || s.has_tautology_cube())
            .unwrap_or(false)
    };
    let const_outputs: Vec<(String, bool)> = net
        .outputs()
        .iter()
        .filter(|(_, o)| is_const(*o))
        .map(|(n, o)| {
            (
                n.clone(),
                net.node(*o).sop().expect("logic").has_tautology_cube(),
            )
        })
        .collect();
    if const_outputs.is_empty() {
        return (net.clone(), Vec::new());
    }
    let mut out = Network::new(net.name().to_string());
    let mut map = std::collections::HashMap::new();
    for &pi in net.inputs() {
        map.insert(
            pi,
            out.add_input(net.node(pi).name().to_string())
                .expect("fresh"),
        );
    }
    for id in net.topo_order().expect("acyclic") {
        let node = net.node(id);
        let Some(sop) = node.sop() else { continue };
        if is_const(id) {
            assert!(
                node.fanouts().is_empty(),
                "constant node `{}` feeds logic; sweep the network first",
                node.name()
            );
            continue;
        }
        let fanins = node.fanins().iter().map(|f| map[f]).collect();
        let nid = out
            .add_logic(node.name().to_string(), fanins, sop.clone())
            .expect("names stay unique");
        map.insert(id, nid);
    }
    for (name, o) in net.outputs() {
        if !is_const(*o) {
            out.add_output(name.clone(), map[o]);
        }
    }
    (out, const_outputs)
}

/// Result of one method run.
#[derive(Debug)]
pub struct MethodResult {
    /// Mapped-netlist evaluation (area / delay / zero-delay power).
    pub report: MappedReport,
    /// Glitch-aware average power in µW (event-driven simulation with the
    /// library delay model — the measurement the paper's tables report).
    pub glitch_power_uw: f64,
    /// Depth (unit-delay levels) of the decomposed network.
    pub decomp_depth: i64,
    /// Total switching activity of the decomposed network's logic nodes
    /// (the MINPOWER objective value).
    pub decomp_switching: f64,
    /// The mapped netlist.
    pub mapped: lowpower_core::map::MappedNetwork,
    /// Lint findings per stage, when [`FlowConfig::lint`] is not
    /// [`LintLevel::Off`]. Stages with no findings are omitted; with
    /// [`LintLevel::Deny`] this can only hold `Warn`/`Info` findings
    /// (errors abort the flow instead).
    pub lint_findings: Vec<StageLint>,
    /// Observability report of the run, when [`FlowConfig::obs`] is not
    /// [`obs::ObsMode::Off`] **and** the flow owned the recording session.
    /// `None` when a caller-owned session was already live (the caller
    /// finishes it and holds the report) or when observability is off.
    pub obs: Option<obs::Report>,
    /// QoR ledger of the run, when [`FlowConfig::qor`] is set: the opening
    /// snapshot (`initial` from [`run_flow`], `optimized` from
    /// [`run_method`]) followed by one snapshot per stage.
    pub qor: Option<qor::LedgerReport>,
    /// Provenance of the decomposition: resolves every mapped gate's
    /// source node back to the optimized network
    /// ([`qor::Provenance::resolve`]). Always populated — provenance
    /// recording is free.
    pub provenance: qor::Provenance,
}

/// Run one method on an **already optimized** network.
///
/// # Errors
/// Returns [`FlowError`] when the network cannot be mapped (e.g. constant
/// outputs survive optimization) or a checkpoint fails.
pub fn run_method(
    optimized: &Network,
    lib: &Library,
    method: Method,
    cfg: &FlowConfig,
) -> Result<MethodResult, FlowError> {
    with_obs(cfg, || {
        let mut checks = Checkpoints::for_run(cfg, optimized, "optimized", method);
        checks.check("library", None, |c| lint_library(lib, c))?;
        method_stages(optimized, lib, method, checks)
    })
}

/// Optimize, then run a single method from raw BLIF-level input.
///
/// # Errors
/// See [`run_method`].
pub fn run_flow(
    net: &Network,
    lib: &Library,
    method: Method,
    cfg: &FlowConfig,
) -> Result<MethodResult, FlowError> {
    with_obs(cfg, || {
        let mut checks = Checkpoints::for_run(cfg, net, "initial", method);
        checks.check("library", None, |c| lint_library(lib, c))?;
        let optimized = checks.optimize(net)?;
        method_stages(&optimized, lib, method, checks)
    })
}

/// Run `body` under an obs session when [`FlowConfig::obs`] is not
/// [`obs::ObsMode::Off`] and the caller has none live on this thread
/// (otherwise events flow into the caller's session); the report of a
/// session started here lands in the result.
fn with_obs(
    cfg: &FlowConfig,
    body: impl FnOnce() -> Result<MethodResult, FlowError>,
) -> Result<MethodResult, FlowError> {
    let session = (cfg.obs != obs::ObsMode::Off && !obs::active()).then(obs::Session::start);
    let result = body();
    let obs = session.map(obs::Session::finish);
    let mut result = result?;
    result.obs = obs;
    Ok(result)
}

/// The stages of one method after optimization: decompose, activity, map,
/// evaluate, each followed by its checkpoint.
fn method_stages(
    optimized: &Network,
    lib: &Library,
    method: Method,
    mut checks: Checkpoints<'_>,
) -> Result<MethodResult, FlowError> {
    let cfg = checks.cfg;
    let _method_span = obs::span!("method", "{method}");
    obs::counter!("flow.methods");
    let pi_probs = cfg
        .pi_probs
        .clone()
        .unwrap_or_else(|| vec![0.5; optimized.inputs().len()]);
    let dopts = DecompOptions {
        style: method.decomp_style(),
        model: cfg.model,
        pi_probs: Some(pi_probs.clone()),
        required_time: None,
        use_correlations: cfg.use_correlations,
    };
    let decomposed = {
        let _s = obs::span!("decompose");
        let d = lint::certify::certified_decomposition(optimized, |n| decompose_network(n, &dopts));
        checks.snapshot_network("decompose", &d.network);
        d
    };
    checks.check(
        "decompose",
        Some(&|o| check_equiv(optimized, &decomposed.network, o)),
        |c| lint_decomposed(&decomposed, c),
    )?;
    let provenance = qor::Provenance::from_decomposed(&decomposed);
    let (mappable, _const_outputs) = strip_constant_outputs(&decomposed.network);
    checks.snapshot_network("strip_const", &mappable);
    let act = {
        let _s = obs::span!("activity");
        analyze(&mappable, &pi_probs, cfg.model)
    };
    checks.check("activity", None, |c| lint_activity(&mappable, &act, c))?;
    let decomp_switching = act.total_switching(mappable.logic_ids());
    let aig = SubjectAig::from_network(&mappable, &act)?;
    let mopts = MapOptions {
        objective: method.map_objective(),
        epsilon: cfg.epsilon,
        model: cfg.model,
        env: cfg.env,
        po_load: cfg.po_load,
        required_time: cfg.required_time,
        ..MapOptions::power()
    };
    let mapped = {
        let _s = obs::span!("map");
        map_network(&aig, lib, &mopts)?
    };
    checks.snapshot("map", qor::SnapKind::Mapped, |ctx| {
        qor::measure_mapped(&mapped, lib, ctx)
    });
    checks.check(
        "map",
        Some(&|o| check_equiv(&mappable, &mapped.to_network(lib, mappable.name()), o)),
        |c| lint_mapped(&mapped, lib, cfg.po_load, c),
    )?;
    let report = {
        let _s = obs::span!("evaluate");
        evaluate(&mapped, lib, &cfg.env, cfg.model, cfg.po_load)
    };
    let glitch = {
        let _s = obs::span!("glitch_sim");
        lowpower_core::power::simulate_glitch_power(
            &mapped,
            lib,
            &cfg.env,
            &pi_probs,
            cfg.sim_vectors,
            cfg.sim_seed,
            cfg.po_load,
            cfg.sim_threads,
        )
    };
    Ok(MethodResult {
        report,
        glitch_power_uw: glitch.power_uw,
        decomp_depth: decomposed.depth,
        decomp_switching,
        mapped,
        lint_findings: checks.findings,
        obs: None,
        qor: checks.ledger.map(|(_, ledger)| ledger),
        provenance,
    })
}
