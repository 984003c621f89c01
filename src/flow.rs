//! The end-to-end synthesis flow of the paper's experiments.
//!
//! `BLIF → rugged-like optimization → power-efficient NAND decomposition →
//! power-efficient technology mapping → area/delay/power report`.
//!
//! The six method combinations of Tables 2 and 3 are the cross product of
//! three [`DecompStyle`]s and two [`MapObjective`]s; [`run_method`] runs
//! one of them end to end on an already-optimized network so that all six
//! share the identical starting point, exactly as in the paper. The
//! decomposition does not depend on the objective: [`decompose`] runs the
//! stages a style's methods share and [`map`] finishes one method from
//! them, so a caller running both objectives decomposes once.
//! [`run_methods`] runs all six methods of many circuits that way, and
//! [`shared_required_time`] is their common timing target.

use activity::{ActivityMap, NetworkBdds, PowerEnv, TransitionModel};
use genlib::Library;
use lint::{lint_activity, lint_decomposed, lint_library, lint_mapped, lint_network};
use lint::{LintConfig, LintLevel, LintReport};
use lowpower_core::decomp::{
    decompose_network_with, DecompOptions, DecompStyle, DecomposedNetwork,
};
use lowpower_core::map::{map_network, MapObjective, MapOptions, SubjectAig};
use lowpower_core::power::{evaluate, MappedReport};
use netlist::{Network, NodeId};
use std::collections::HashMap;
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
    /// The method combining decomposition `style` with mapping
    /// `objective`.
    pub fn new(style: DecompStyle, objective: MapObjective) -> Method {
        Method::ALL
            .into_iter()
            .find(|m| m.decomp_style() == style && m.map_objective() == objective)
            .expect("every style and objective make a method")
    }

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

/// The method's numeral, as the tables print it.
impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Flow configuration shared by all methods.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// `P(pi = 1)` per input, one entry per primary input; `None` = 0.5
    /// everywhere (the paper's independent-input default).
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
    /// stand-in used for the reported power numbers); at least 2.
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
    /// [`MethodResult::obs`]. They are the only entry points that start
    /// one: [`run_methods`], [`decompose`], [`map`] and
    /// [`optimize_checked`] record into the caller's session, if any,
    /// whatever this field says. The mode value itself selects the sink
    /// used by CLI drivers; the flow records identically for all three.
    pub obs: obs::ObsMode,
    /// Record a QoR ledger for the run: [`run_flow`] / [`run_method`] open
    /// a [`qor::LedgerReport`] with a snapshot of their input and append a
    /// deterministic snapshot after every stage — each rugged-script pass,
    /// the decomposition, the constant-output strip, and the mapping —
    /// each under a `qor` span labelled with its ledger stage. The run
    /// owns the ledger and returns it in [`MethodResult::qor`].
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
    /// Check the values a run on a network with `inputs` primary inputs
    /// relies on, before any stage starts.
    fn check(&self, inputs: usize) -> Result<(), FlowError> {
        if self.sim_vectors < 2 {
            return Err(FlowError::Config {
                field: "sim_vectors",
                problem: format!(
                    "is {}, but the glitch simulation needs at least two vectors",
                    self.sim_vectors
                ),
            });
        }
        match &self.pi_probs {
            Some(p) if p.len() != inputs => Err(FlowError::Config {
                field: "pi_probs",
                problem: format!("has {} entries for a network with {inputs} inputs", p.len()),
            }),
            _ => Ok(()),
        }
    }

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
    /// A [`FlowConfig`] value cannot be used for the run.
    Config {
        /// The offending field.
        field: &'static str,
        /// What is wrong with its value.
        problem: String,
    },
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
            FlowError::Config { field, problem } => {
                write!(f, "invalid flow configuration: `{field}` {problem}")
            }
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

/// The checkpoints of one run — verify, lint and the QoR snapshot, each
/// under a span of its name labelled with its stage — and what they
/// record: the lint findings and, when the run keeps a QoR ledger, its
/// measurement context, circuit and snapshots.
#[derive(Debug, Clone)]
struct Checkpoints<'c> {
    cfg: &'c FlowConfig,
    findings: Vec<StageLint>,
    qor: Option<(qor::Ctx, String)>,
    snapshots: Vec<qor::Snapshot>,
}

impl<'c> Checkpoints<'c> {
    /// Open a run on `input`: check `cfg` against it, and in a debug build
    /// panic if `input` already breaks a lint invariant, which the first
    /// checkpoint would blame on its stage. A run that maps passes its
    /// opening snapshot's label, taken under [`FlowConfig::qor`], and its
    /// library, whose checkpoint follows.
    fn open(
        cfg: &'c FlowConfig,
        input: &Network,
        mapping: Option<(&str, &Library)>,
    ) -> Result<Self, FlowError> {
        cfg.check(input.inputs().len())?;
        if cfg!(debug_assertions) {
            let report = lint_network(input, &LintConfig::new());
            assert!(
                !report.has_errors(),
                "lint: the input network already violates invariants\n{}",
                report.render_text()
            );
        }
        let mut checks = Checkpoints {
            cfg,
            findings: Vec::new(),
            qor: (cfg.qor && mapping.is_some()).then(|| (cfg.qor_ctx(), input.name().to_string())),
            snapshots: Vec::new(),
        };
        if let Some((opening, lib)) = mapping {
            checks.snapshot(opening, qor::SnapKind::Network, |ctx| {
                qor::measure_network(input, ctx)
            });
            checks.check("library", None, |c| lint_library(lib, c))?;
        }
        Ok(checks)
    }

    /// The QoR snapshot after `stage`, under a `qor` span, when the run
    /// keeps a ledger.
    fn snapshot(
        &mut self,
        stage: &str,
        kind: qor::SnapKind,
        measure: impl FnOnce(&qor::Ctx) -> qor::Metrics,
    ) {
        if let Some((ctx, _)) = &self.qor {
            let _span = obs::span!("qor", "{stage}");
            let metrics = measure(ctx);
            self.snapshots.push(qor::Snapshot {
                stage: stage.to_string(),
                kind,
                metrics,
            });
        }
    }

    /// The run's QoR ledger under `method`'s label: its snapshots passed
    /// to [`qor::LedgerReport::record`] in the order they were taken, which
    /// counts them and emits their obs notes.
    fn ledger(&self, method: Method) -> Option<qor::LedgerReport> {
        let (_, circuit) = self.qor.as_ref()?;
        let mut ledger = qor::LedgerReport::new(circuit, &method.to_string());
        for snap in &self.snapshots {
            ledger.record(&snap.stage, snap.kind, snap.metrics);
        }
        Some(ledger)
    }

    /// The checkpoint after `stage`. When `cfg.verify` is not
    /// [`VerifyLevel::Off`], `equiv` (if the stage transforms a network)
    /// runs under a `verify` span and any disagreement aborts the flow.
    /// When `cfg.lint` is not [`LintLevel::Off`], `lint` runs under a
    /// `lint` span: at [`LintLevel::Deny`] `Error`-severity findings abort
    /// the flow; otherwise a non-empty report is kept. At
    /// [`LintLevel::Off`] a debug build still runs `lint`, with no span and
    /// no record, so a stage that breaks an invariant fails at its source.
    ///
    /// # Panics
    /// In a debug build at [`LintLevel::Off`], panics naming `stage` when
    /// `lint` reports an `Error`-severity finding.
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
            if cfg!(debug_assertions) {
                let report = lint(&LintConfig::new());
                assert!(
                    !report.has_errors(),
                    "lint: the {stage} stage broke invariants\n{}",
                    report.render_text()
                );
            }
            return Ok(());
        }
        let report = {
            let _span = obs::span!("lint", "{stage}");
            lint(&LintConfig::new())
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

    /// The optimize stage, with a QoR snapshot after every pass of the
    /// rugged-like script (labels `optimize.<round>.<pass>`, see
    /// [`logicopt::rugged_like_with`]), and its checkpoint.
    fn optimize(&mut self, net: &Network) -> Result<Network, FlowError> {
        let optimized = {
            let _span = obs::span!("optimize");
            let mut n = net.clone();
            logicopt::rugged_like_with(&mut n, &mut |pass, after| {
                self.snapshot(&format!("optimize.{pass}"), qor::SnapKind::Network, |ctx| {
                    qor::measure_network(after, ctx)
                });
            });
            n
        };
        self.check(
            "optimize",
            Some(&|o| check_equiv(net, &optimized, o)),
            |c| lint_network(&optimized, c),
        )?;
        Ok(optimized)
    }
}

/// Optimize a network with the rugged-like script (shared starting point of
/// all methods, as in the paper's Section 4), followed by the optimize
/// checkpoint at the default [`FlowConfig`]. So in a debug build it lints
/// its input and its result, and panics if either breaks a structural
/// invariant; a release build runs the script alone.
pub fn optimize(net: &Network) -> Network {
    let (optimized, _) = optimize_checked(net, &FlowConfig::default())
        .expect("the default configuration neither verifies nor denies");
    optimized
}

/// [`optimize`] followed by the flow's optimize checkpoint: verification
/// against `net` and lint at the levels of `cfg`. Returns the optimized
/// network and the checkpoint's lint findings, so a caller running several
/// methods on one optimized network checks it once.
///
/// # Errors
/// Returns [`FlowError::Config`] when `cfg` cannot be used for `net`, and
/// another [`FlowError`] when the checkpoint fails.
pub fn optimize_checked(
    net: &Network,
    cfg: &FlowConfig,
) -> Result<(Network, Vec<StageLint>), FlowError> {
    let mut checks = Checkpoints::open(cfg, net, None)?;
    let optimized = checks.optimize(net)?;
    Ok((optimized, checks.findings))
}

/// Split constant-driven primary outputs from a decomposed network: the
/// mapper has no tie cells, and a constant net dissipates no dynamic power
/// anyway. Returns the mappable network and the `(name, value)` constant
/// outputs. A constant node that also feeds logic stays in the network (the
/// optimizer's sweep folds such nodes); the mapper then rejects it.
///
/// # Panics
/// Panics if `net` fails [`Network::check`], for instance if it is cyclic.
/// The flow only passes it decompositions, which are checked when built.
pub fn strip_constant_outputs(net: &Network) -> (Network, Vec<(String, bool)>) {
    let (out, const_outputs, _) = strip_constants(net);
    (out, const_outputs)
}

/// [`strip_constant_outputs`], also returning the map from each kept node
/// of `net` to its copy.
fn strip_constants(net: &Network) -> (Network, Vec<(String, bool)>, HashMap<NodeId, NodeId>) {
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
        return (
            net.clone(),
            Vec::new(),
            net.node_ids().map(|id| (id, id)).collect(),
        );
    }
    let mut out = Network::new(net.name().to_string());
    let mut map = HashMap::new();
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
        if is_const(id) && node.fanouts().is_empty() {
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
    (out, const_outputs, map)
}

/// The activity stage: carry `bdds`, the global BDDs of the network
/// `decomposed` was built from, over to `mappable` (its network with the
/// constant outputs stripped, `stripped` mapping the kept nodes) in the
/// same manager, and sweep their probabilities once. Consumes the BDDs,
/// which the later stages do not need.
fn mappable_activity(
    mut bdds: NetworkBdds,
    decomposed: &DecomposedNetwork,
    stripped: &HashMap<NodeId, NodeId>,
    mappable: &Network,
    model: TransitionModel,
) -> ActivityMap {
    let carried = decomposed
        .sources
        .iter()
        .filter_map(|s| Some((s.id, *stripped.get(&s.root)?)));
    bdds.rebase(mappable, carried);
    bdds.activity(mappable, model)
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
    /// finishes it and holds the report), when observability is off, and
    /// for every result of [`map`] and [`run_methods`], which start no
    /// session.
    pub obs: Option<obs::Report>,
    /// QoR ledger of the run, when [`FlowConfig::qor`] is set: the opening
    /// snapshot (`initial` from [`run_flow`], `optimized` from
    /// [`run_method`] and [`decompose`]) followed by one snapshot per
    /// stage.
    pub qor: Option<qor::LedgerReport>,
}

/// One decomposition style applied to an optimized network: everything
/// the methods of that style share, ready to be mapped under either
/// objective by [`map`].
///
/// Its checkpoints keep the [`FlowConfig`] it was built under, so every
/// mapping of it runs under that configuration, and the lint findings and
/// QoR snapshots of its stages, which [`map`] replays into each method's
/// result.
#[derive(Debug)]
pub struct Decomposition<'c> {
    style: DecompStyle,
    pi_probs: Vec<f64>,
    decomposed: DecomposedNetwork,
    mappable: Network,
    switching: f64,
    subject: SubjectAig,
    checks: Checkpoints<'c>,
}

impl Decomposition<'_> {
    /// The decomposition style.
    pub fn style(&self) -> DecompStyle {
        self.style
    }

    /// The decomposed network, constant outputs included.
    pub fn network(&self) -> &DecomposedNetwork {
        &self.decomposed
    }

    /// The subject graph the mapper covers: the decomposed network without
    /// its constant outputs, annotated with signal probabilities.
    pub fn subject(&self) -> &SubjectAig {
        &self.subject
    }

    /// Total switching activity of the decomposed network's logic nodes
    /// (the MINPOWER objective value).
    pub fn switching(&self) -> f64 {
        self.switching
    }
}

/// The stages every method of `style` shares, on an **already optimized**
/// network: the library checkpoint, decomposition, constant-output strip,
/// activity and subject graph, each with its checkpoint. With
/// [`FlowConfig::qor`] the snapshots open with `optimized`, as in
/// [`run_method`].
///
/// # Errors
/// See [`run_method`].
pub fn decompose<'c>(
    optimized: &Network,
    lib: &Library,
    style: DecompStyle,
    cfg: &'c FlowConfig,
) -> Result<Decomposition<'c>, FlowError> {
    let checks = Checkpoints::open(cfg, optimized, Some(("optimized", lib)))?;
    decompose_stages(optimized, style, checks)
}

/// Run one method on an **already optimized** network: [`decompose`]
/// under its style, then [`map`] under its objective.
///
/// # Errors
/// Returns [`FlowError::Config`] when `cfg` cannot be used for
/// `optimized` (see [`FlowConfig::sim_vectors`] and
/// [`FlowConfig::pi_probs`]), and another [`FlowError`] when the network
/// cannot be mapped (e.g. constant nodes feed logic) or a checkpoint
/// fails.
pub fn run_method(
    optimized: &Network,
    lib: &Library,
    method: Method,
    cfg: &FlowConfig,
) -> Result<MethodResult, FlowError> {
    with_obs(cfg, || {
        let _method_span = obs::span!("method", "{method}");
        let d = decompose(optimized, lib, method.decomp_style(), cfg)?;
        map(&d, lib, method.map_objective())
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
        let mut checks = Checkpoints::open(cfg, net, Some(("initial", lib)))?;
        let optimized = checks.optimize(net)?;
        let _method_span = obs::span!("method", "{method}");
        let d = decompose_stages(&optimized, method.decomp_style(), checks)?;
        map(&d, lib, method.map_objective())
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

/// Decompose, strip constant outputs, carry the activity over and build
/// the subject graph, each followed by its checkpoint.
fn decompose_stages<'c>(
    optimized: &Network,
    style: DecompStyle,
    mut checks: Checkpoints<'c>,
) -> Result<Decomposition<'c>, FlowError> {
    let cfg = checks.cfg;
    let pi_probs = cfg
        .pi_probs
        .clone()
        .unwrap_or_else(|| vec![0.5; optimized.inputs().len()]);
    let dopts = DecompOptions {
        style,
        model: cfg.model,
        pi_probs: Some(pi_probs.clone()),
        required_time: None,
        use_correlations: cfg.use_correlations,
    };
    let (decomposed, bdds) = {
        let _s = obs::span!("decompose");
        let mut bdds = {
            let _s = obs::span!("bdd.build");
            NetworkBdds::build(optimized, &pi_probs)
        };
        (decompose_network_with(optimized, &dopts, &mut bdds), bdds)
    };
    checks.snapshot("decompose", qor::SnapKind::Network, |ctx| {
        qor::measure_network(&decomposed.network, ctx)
    });
    checks.check(
        "decompose",
        Some(&|o| check_equiv(optimized, &decomposed.network, o)),
        |c| lint_decomposed(&decomposed, c),
    )?;
    let (mappable, _const_outputs, stripped) = strip_constants(&decomposed.network);
    let act = {
        let _s = obs::span!("activity");
        mappable_activity(bdds, &decomposed, &stripped, &mappable, cfg.model)
    };
    checks.snapshot("strip_const", qor::SnapKind::Network, |ctx| {
        qor::measure_network_with(&mappable, &act, ctx)
    });
    checks.check("activity", None, |c| lint_activity(&mappable, &act, c))?;
    let switching = act.total_switching(mappable.logic_ids());
    let subject = SubjectAig::from_network(&mappable, &act)?;
    Ok(Decomposition {
        style,
        pi_probs,
        decomposed,
        mappable,
        switching,
        subject,
        checks,
    })
}

/// Map `d` under `objective`, then evaluate and simulate the result: the
/// last stages of the method combining `d`'s style with `objective`. The
/// result carries `d`'s lint findings and QoR snapshots followed by the
/// map stage's, so it equals that method's [`run_method`] result.
///
/// # Errors
/// Returns [`FlowError`] when mapping or the map checkpoint fails.
pub fn map(
    d: &Decomposition<'_>,
    lib: &Library,
    objective: MapObjective,
) -> Result<MethodResult, FlowError> {
    let mut checks = d.checks.clone();
    let cfg = d.checks.cfg;
    obs::counter!("flow.methods");
    let mopts = MapOptions {
        objective,
        epsilon: cfg.epsilon,
        model: cfg.model,
        env: cfg.env,
        po_load: cfg.po_load,
        required_time: cfg.required_time,
        ..MapOptions::power()
    };
    let mapped = {
        let _s = obs::span!("map");
        map_network(&d.subject, lib, &mopts)?
    };
    checks.check(
        "map",
        Some(&|o| check_equiv(&d.mappable, &mapped.to_network(lib, d.mappable.name()), o)),
        |c| lint_mapped(&mapped, lib, cfg.po_load, c),
    )?;
    let report = {
        let _s = obs::span!("evaluate");
        evaluate(&mapped, lib, &cfg.env, cfg.model, cfg.po_load)
    };
    // The flow evaluates under its `qor_ctx`, so this equals `measure_mapped`.
    checks.snapshot("map", qor::SnapKind::Mapped, |_| {
        qor::mapped_metrics(&mapped, &report)
    });
    let glitch = {
        let _s = obs::span!("glitch_sim");
        lowpower_core::power::simulate_glitch_power(
            &mapped,
            lib,
            &cfg.env,
            &d.pi_probs,
            cfg.sim_vectors,
            cfg.sim_seed,
            cfg.po_load,
            cfg.sim_threads,
        )
    };
    Ok(MethodResult {
        report,
        glitch_power_uw: glitch.power_uw,
        decomp_depth: d.decomposed.depth,
        decomp_switching: d.switching,
        mapped,
        qor: checks.ledger(Method::new(d.style, objective)),
        lint_findings: checks.findings,
        obs: None,
    })
}

/// The first failed cell of [`run_methods`], with its circuit's name.
#[derive(Debug)]
pub enum CellError {
    /// The decomposition of a style failed.
    Decompose(String, DecompStyle, FlowError),
    /// The mapping of a method from its style's decomposition failed.
    Map(String, Method, FlowError),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Decompose(circuit, style, e) => {
                write!(f, "{circuit}: {style:?} decomposition: {e}")
            }
            CellError::Map(circuit, method, e) => write!(f, "{circuit}: method {method}: {e}"),
        }
    }
}

impl std::error::Error for CellError {}

/// Run all six methods on every **already optimized** network, as Tables 2
/// and 3 do: each (circuit, style) cell is decomposed once, then each
/// (circuit, method) cell maps its style's decomposition, both stages on
/// `threads` workers. The results come in (circuit, [`Method::ALL`])
/// order, each equal to that method's [`run_method`] result, and are
/// identical at any thread count. It starts no obs session, whatever
/// [`FlowConfig::obs`] says: its workers record into the caller's, if any,
/// and every [`MethodResult::obs`] is `None`.
///
/// # Errors
/// Returns the first failed decomposition in (circuit, style) order, else
/// the first failed mapping in (circuit, method) order.
pub fn run_methods(
    optimized: &[Network],
    lib: &Library,
    cfg: &FlowConfig,
    threads: usize,
) -> Result<Vec<MethodResult>, CellError> {
    let name = |ci: usize| optimized[ci].name().to_string();
    let styles: Vec<(usize, DecompStyle)> = (0..optimized.len())
        .flat_map(|ci| DecompStyle::ALL.map(|style| (ci, style)))
        .collect();
    let decomps = par::scope_map(threads, &styles, |_, &(ci, style)| {
        decompose(&optimized[ci], lib, style, cfg)
            .map_err(|e| CellError::Decompose(name(ci), style, e))
    });
    let decomps = decomps.into_iter().collect::<Result<Vec<_>, _>>()?;
    let cells: Vec<(usize, Method)> = (0..optimized.len())
        .flat_map(|ci| Method::ALL.map(|m| (ci, m)))
        .collect();
    par::scope_map(threads, &cells, |_, &(ci, m)| {
        // Circuit `ci`'s decompositions start at this offset.
        let d = decomps[ci * DecompStyle::ALL.len()..]
            .iter()
            .find(|d| d.style() == m.decomp_style())
            .expect("every style is decomposed");
        map(d, lib, m.map_objective()).map_err(|e| CellError::Map(name(ci), m, e))
    })
    .into_iter()
    .collect()
}

/// The timing target the methods share under the paper's "given timing
/// constraints": 1.10 × method I's fastest estimated arrival on
/// `optimized`. It maps the conventional decomposition under
/// [`MapOptions::area`], as method I maps it at the default
/// configuration, without the evaluation and glitch simulation of a whole
/// method run.
///
/// # Errors
/// Returns [`FlowError`] when the decomposition or the mapping fails.
pub fn shared_required_time(optimized: &Network, lib: &Library) -> Result<f64, FlowError> {
    let _probe = obs::span!("probe");
    let cfg = FlowConfig::default();
    let d = decompose(optimized, lib, DecompStyle::Conventional, &cfg)?;
    Ok(map_network(d.subject(), lib, &MapOptions::area())?.estimated_fastest * 1.10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use activity::analyze;

    /// For every decomposition style, the activity stage's carried
    /// activities of the mappable network equal a fresh analysis bit for
    /// bit.
    fn assert_carried_activity_exact(net: &Network, use_correlations: bool) {
        let model = TransitionModel::StaticCmos;
        let probs = vec![0.5; net.inputs().len()];
        for style in DecompStyle::ALL {
            let dopts = DecompOptions {
                pi_probs: Some(probs.clone()),
                use_correlations,
                ..DecompOptions::new(style)
            };
            let mut bdds = NetworkBdds::build(net, &probs);
            let decomposed = decompose_network_with(net, &dopts, &mut bdds);
            let (mappable, _, stripped) = strip_constants(&decomposed.network);
            let carried = mappable_activity(bdds, &decomposed, &stripped, &mappable, model);
            let fresh = analyze(&mappable, &probs, model);
            for id in mappable.node_ids() {
                assert_eq!(
                    (carried.p_one(id).to_bits(), carried.switching(id).to_bits()),
                    (fresh.p_one(id).to_bits(), fresh.switching(id).to_bits()),
                    "{} {style:?}: node `{}`",
                    net.name(),
                    mappable.node(id).name()
                );
            }
        }
    }

    #[test]
    fn carried_activity_is_exact_on_the_suite() {
        for entry in benchgen::paper_suite() {
            let net = optimize(&benchgen::suite_circuit(entry.name));
            assert_carried_activity_exact(&net, false);
        }
    }

    #[test]
    fn a_method_run_builds_global_bdds_once() {
        let net = optimize(&benchgen::suite_circuit("cm42a"));
        let lib = genlib::builtin::lib2_like();
        for use_correlations in [false, true] {
            let cfg = FlowConfig {
                sim_vectors: 20,
                use_correlations,
                obs: obs::ObsMode::Summary,
                ..FlowConfig::default()
            };
            for method in Method::ALL {
                let r = run_method(&net, &lib, method, &cfg).unwrap();
                let counters = r.obs.unwrap().metrics.counters;
                assert_eq!(counters["activity.bdd.builds"], 1, "method {method}");
            }
            // `run_methods` decomposes each style once and maps it under
            // both objectives.
            let session = obs::Session::start();
            run_methods(&[net.clone(), net.clone()], &lib, &cfg, 2).unwrap();
            let counters = session.finish().metrics.counters;
            assert_eq!(counters["activity.bdd.builds"], 3 * 2);
            assert_eq!(counters["flow.methods"], 6 * 2);
        }
    }

    /// Everything a method result reports, with every float as its bits.
    fn fingerprint(r: &MethodResult, lib: &Library) -> impl PartialEq + fmt::Debug {
        let floats = [
            r.report.area,
            r.report.delay,
            r.report.power_uw,
            r.glitch_power_uw,
            r.decomp_switching,
        ];
        let findings: Vec<_> = r
            .lint_findings
            .iter()
            .map(|f| (f.stage, f.report.render_text()))
            .collect();
        (
            floats.map(f64::to_bits),
            (r.report.gate_count, r.decomp_depth),
            r.mapped.to_blif(lib, "mapped"),
            findings,
            r.qor.clone(),
        )
    }

    #[test]
    fn a_shared_decomposition_maps_like_run_method() {
        let lib = genlib::builtin::lib2_like();
        let mut nets: Vec<Network> = ["cm42a", "x2", "s344"]
            .iter()
            .map(|name| optimize(&benchgen::suite_circuit(name)))
            .collect();
        nets.push(clash_network());
        for net in &nets {
            for use_correlations in [false, true] {
                let cfg = FlowConfig {
                    sim_vectors: 64,
                    use_correlations,
                    verify: VerifyLevel::Sim,
                    lint: LintLevel::Check,
                    qor: true,
                    ..FlowConfig::default()
                };
                let alone: Vec<_> = Method::ALL
                    .into_iter()
                    .map(|method| {
                        let r = run_method(net, &lib, method, &cfg).unwrap();
                        assert!(r.qor.is_some());
                        fingerprint(&r, &lib)
                    })
                    .collect();
                // `run_methods` decomposes each style once and maps it under
                // both objectives.
                for threads in [1, 2] {
                    let all = run_methods(std::slice::from_ref(net), &lib, &cfg, threads).unwrap();
                    let all: Vec<_> = all.iter().map(|r| fingerprint(r, &lib)).collect();
                    assert_eq!(
                        all,
                        alone,
                        "{}, correlations {use_correlations}, {threads} threads",
                        net.name()
                    );
                }
            }
        }
    }

    #[test]
    fn the_shared_target_is_method_i_fastest_plus_ten_percent() {
        let lib = genlib::builtin::lib2_like();
        for name in ["cm42a", "x2"] {
            let net = optimize(&benchgen::suite_circuit(name));
            let i = run_method(&net, &lib, Method::I, &FlowConfig::default()).unwrap();
            assert_eq!(
                shared_required_time(&net, &lib).unwrap().to_bits(),
                (i.mapped.estimated_fastest * 1.10).to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn the_timing_probe_runs_under_its_own_span() {
        let lib = genlib::builtin::lib2_like();
        let net = optimize(&benchgen::suite_circuit("cm42a"));
        let session = obs::Session::start();
        shared_required_time(&net, &lib).unwrap();
        let forest = session.finish().tree().unwrap();
        let names = |nodes: &[obs::SpanNode]| nodes.iter().map(|n| n.name).collect::<Vec<_>>();
        assert_eq!(names(&forest), ["probe"]);
        let stages = [
            "decompose",
            "activity",
            "map.postorder",
            "map.preorder",
            "map.build",
        ];
        assert_eq!(names(&forest[0].children), stages);
    }

    #[test]
    fn constant_nodes_feeding_logic_are_typed_errors() {
        let lib = genlib::builtin::lib2_like();
        let cfg = FlowConfig {
            sim_vectors: 20,
            ..FlowConfig::default()
        };
        // The constant `c` feeds `f`, with and without being an output.
        for outputs in ["f g c", "f g"] {
            let net = netlist::parse_blif(&format!(
                ".model k\n.inputs a b\n.outputs {outputs}\n.names c\n1\n\
                 .names a c f\n11 1\n.names a b g\n11 1\n.end\n"
            ))
            .unwrap()
            .network;
            for method in Method::ALL {
                match run_method(&net, &lib, method, &cfg) {
                    Err(FlowError::Map(lowpower_core::map::MapError::UnsupportedNode(node))) => {
                        assert_eq!(node, "c", "outputs `{outputs}`, method {method}")
                    }
                    other => panic!("outputs `{outputs}`, method {method}: got {other:?}"),
                }
            }
            // Every style fails; `run_methods` reports the first in table order.
            let e = run_methods(&[net], &lib, &cfg, 2).unwrap_err().to_string();
            assert!(
                e.starts_with("k: Conventional decomposition: mapping failed"),
                "{e}"
            );
        }
    }

    #[test]
    fn unusable_configs_are_typed_errors() {
        let net = benchgen::suite_circuit("cm42a");
        let lib = genlib::builtin::lib2_like();
        let too_few_vectors = FlowConfig {
            sim_vectors: 1,
            ..FlowConfig::default()
        };
        let short_probs = FlowConfig {
            pi_probs: Some(vec![0.5; net.inputs().len() - 1]),
            ..FlowConfig::default()
        };
        for (cfg, want) in [(too_few_vectors, "sim_vectors"), (short_probs, "pi_probs")] {
            for result in [
                run_flow(&net, &lib, Method::V, &cfg).map(drop),
                run_method(&net, &lib, Method::V, &cfg).map(drop),
                optimize_checked(&net, &cfg).map(drop),
            ] {
                match result {
                    Err(FlowError::Config { field, .. }) => assert_eq!(field, want),
                    other => panic!("expected a `{want}` config error, got {other:?}"),
                }
            }
        }
    }

    /// Source nodes named like the decomposer's fresh nodes, a constant
    /// output to strip, and correlated AND trees adding joint nodes to the
    /// BDD manager.
    fn clash_network() -> Network {
        netlist::parse_blif(
            ".model clash\n.inputs a b c d\n.outputs g inv_0 d_0 one\n\
             .names a b g\n01 1\n.names a c d inv_0\n111 1\n\
             .names b c d d_0\n0-1 1\n1-0 1\n.names one\n1\n.end\n",
        )
        .unwrap()
        .network
    }

    /// A network whose node `x` lists fanin `a` twice (NET003) without the
    /// fanout edges to match (NET002).
    #[cfg(debug_assertions)]
    fn corrupt_network() -> Network {
        let mut net = netlist::parse_blif(
            ".model t\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
             .names x c f\n10 1\n01 1\n.end\n",
        )
        .unwrap()
        .network;
        let (x, a) = (net.find("x").unwrap(), net.find("a").unwrap());
        net.corrupt_function_for_test(x, vec![a, a], netlist::Sop::parse(2, &["11"]).unwrap());
        net
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the optimize stage broke invariants")]
    fn an_error_finding_panics_at_lint_off_in_debug_builds() {
        let cfg = FlowConfig::default();
        let net = corrupt_network();
        let mut checks = Checkpoints::open(&cfg, &clash_network(), None).unwrap();
        let _ = checks.check("optimize", None, |c| lint_network(&net, c));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the input network already violates invariants")]
    fn a_corrupt_input_panics_in_debug_builds() {
        let lib = genlib::builtin::lib2_like();
        let _ = run_flow(&corrupt_network(), &lib, Method::I, &FlowConfig::default());
    }

    #[test]
    fn carried_activity_is_exact_with_clashing_names_and_constants() {
        for use_correlations in [false, true] {
            assert_carried_activity_exact(&clash_network(), use_correlations);
        }
    }
}
