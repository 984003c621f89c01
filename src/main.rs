//! `lowpower` — command-line front end for the synthesis flow.
//!
//! ```text
//! lowpower synth  --blif CIRCUIT.blif [--lib LIB.genlib] [--method VI]
//!                 [--required NS] [--out MAPPED.blif] [--correlations]
//!                 [--verify[=sim|full]] [--lint[=check|deny|off]]
//! lowpower report --blif CIRCUIT.blif [--lib LIB.genlib] [--verify[=sim|full]]
//!                 [--lint[=check|deny|off]]
//! lowpower decomp --blif CIRCUIT.blif [--style minpower|conventional|bounded]
//! lowpower lint   --blif CIRCUIT.blif [--lib LIB.genlib] [--method VI]
//!                 [--style …] [--lint=deny] [--json]
//! lowpower obs-check [--file TRACE] [--chrome] [--strip]
//! lowpower explain --blif CIRCUIT.blif --node NAME [--method VI] [--lib LIB.genlib]
//! lowpower qor-baseline --blif A.blif [--blif B.blif ...] [--out FILE]
//! lowpower qor-diff --baseline FILE --against FILE [--tol REL]
//! lowpower qor-check [--file LEDGER.jsonl]
//! ```
//!
//! `synth` runs optimize → decompose → map → evaluate for one method and
//! prints area / delay / power (zero-delay and glitch-aware); with `--out`
//! it writes the mapped netlist as structural BLIF. `report` runs all six
//! paper methods and prints a comparison table. `decomp` stops after
//! technology decomposition and prints network statistics.
//!
//! `--verify` adds an equivalence checkpoint after every transforming
//! stage (optimize, decompose, map): `--verify` / `--verify=full` proves
//! equivalence with BDDs (falling back to simulation over a node budget),
//! `--verify=sim` uses bit-parallel random simulation only. A failing
//! checkpoint aborts with a minimized counterexample.
//!
//! `--lint` adds structural rule checkpoints at every stage (library,
//! optimize, decompose, activity annotations, mapped netlist); findings
//! print to stderr. `--lint=deny` turns any `Error`-severity finding into
//! a flow failure. The `lint` subcommand runs the same pipeline purely for
//! its diagnostics — it lints the raw input, the library, and every stage
//! result, prints all findings (`--json` for machine-readable output), and
//! with `--lint=deny` exits non-zero when errors were found.
//!
//! `--obs[=summary|json|chrome]` records the run: hierarchical spans with
//! wall times plus deterministic counters/gauges/histograms. `summary`
//! prints a human digest to stderr, `json` streams one event per line
//! ending in a metrics snapshot, `chrome` writes a Chrome trace-event
//! file for `chrome://tracing` / Perfetto. `--obs-out FILE` redirects the
//! sink to a file (`-` forces stdout). When a machine sink (json, chrome)
//! owns stdout, the ordinary result lines move to stderr so the stream
//! stays clean. `obs-check` validates a recorded stream (`--chrome` for
//! traces) and with `--strip` prints the timing-stripped snapshot used
//! for determinism diffs.
//!
//! `--qor[=text|json|gate]` records a QoR ledger for `synth`: one
//! deterministic snapshot after every optimization pass, the
//! decomposition, and the mapping, each stage's power/area/delay delta
//! attributed by name. `text` prints the waterfall, `json` emits strict
//! JSONL (validated by `qor-check`), and `gate` additionally compares the
//! final QoR against the committed baseline (`--qor-baseline FILE`,
//! default `results/qor_baseline.json`) with relative tolerance `--tol`
//! (default 0) and fails on drift. `--qor-out FILE` redirects the ledger.
//! `qor-baseline` runs all six methods on each `--blif` and writes the
//! canonical baseline JSON; `qor-diff` compares two baseline files.
//! `explain` resolves one optimized-network node: its slack, its
//! decomposition choice (height, applied bound, emitted nodes), and the
//! mapped gates — with power shares — that trace back to it.

use genlib::{builtin::lib2_like, Library};
use lowpower::flow::{
    optimize, optimize_checked, run_flow, run_method, FlowConfig, Method, StageLint,
};
use lowpower::lint::LintLevel;
use lowpower::obs::ObsMode;
use lowpower::verify::VerifyLevel;
use std::process::ExitCode;

/// Print one line of ordinary result output: stdout, or stderr when an obs
/// machine sink owns stdout (see [`stdout_owned_by_obs`]).
macro_rules! say {
    ($o:expr, $($arg:tt)+) => {
        if stdout_owned_by_obs($o) {
            eprintln!($($arg)+)
        } else {
            println!($($arg)+)
        }
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  lowpower synth  --blif FILE [--lib FILE] [--method I..VI] [--required NS] [--out FILE] [--correlations] [--verify[=sim|full]] [--lint[=check|deny|off]] [--obs[=summary|json|chrome]] [--obs-out FILE]");
            eprintln!("  lowpower report --blif FILE [--lib FILE] [--verify[=sim|full]] [--lint[=check|deny|off]] [--obs[=...]] [--obs-out FILE]");
            eprintln!("  lowpower decomp --blif FILE [--style conventional|minpower|bounded]");
            eprintln!("  lowpower lint   --blif FILE [--lib FILE] [--method I..VI] [--style ...] [--lint=deny] [--json] [--obs[=...]] [--obs-out FILE]");
            eprintln!("  lowpower obs-check [--file TRACE] [--chrome] [--strip]");
            eprintln!("  lowpower explain --blif FILE --node NAME [--method I..VI] [--lib FILE]");
            eprintln!("  lowpower qor-baseline --blif FILE [--blif FILE ...] [--out FILE]");
            eprintln!("  lowpower qor-diff --baseline FILE --against FILE [--tol REL]");
            eprintln!("  lowpower qor-check [--file LEDGER.jsonl]");
            eprintln!("  synth also accepts: --qor[=text|json|gate] [--qor-out FILE] [--qor-baseline FILE] [--tol REL]");
            ExitCode::from(2)
        }
    }
}

/// QoR ledger mode of the `synth` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QorMode {
    Off,
    /// Print the per-stage waterfall.
    Text,
    /// Emit the ledger as strict JSONL (`qor-check` validates it).
    Json,
    /// `Text`, plus fail the run when the final QoR drifts from the
    /// committed baseline.
    Gate,
}

struct Opts {
    blif: Option<String>,
    /// Every `--blif` in order (the subcommands that take one use the
    /// first; `qor-baseline` uses all).
    blifs: Vec<String>,
    lib: Option<String>,
    method: Method,
    required: Option<f64>,
    out: Option<String>,
    style: String,
    correlations: bool,
    verify: VerifyLevel,
    lint: LintLevel,
    json: bool,
    obs: ObsMode,
    obs_out: Option<String>,
    file: Option<String>,
    chrome: bool,
    strip: bool,
    qor: QorMode,
    qor_out: Option<String>,
    baseline: Option<String>,
    against: Option<String>,
    tol: Option<f64>,
    node: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        blif: None,
        blifs: Vec::new(),
        lib: None,
        method: Method::VI,
        required: None,
        out: None,
        style: "minpower".to_string(),
        correlations: false,
        verify: VerifyLevel::Off,
        lint: LintLevel::Off,
        json: false,
        obs: ObsMode::Off,
        obs_out: None,
        file: None,
        chrome: false,
        strip: false,
        qor: QorMode::Off,
        qor_out: None,
        baseline: None,
        against: None,
        tol: None,
        node: None,
    };
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("`{}` needs a value", args[i]))
        };
        match args[i].as_str() {
            "--blif" => {
                let v = need(i)?.clone();
                o.blif.get_or_insert_with(|| v.clone());
                o.blifs.push(v);
                i += 1;
            }
            "--lib" => {
                o.lib = Some(need(i)?.clone());
                i += 1;
            }
            "--method" => {
                o.method = match need(i)?.as_str() {
                    "I" | "1" => Method::I,
                    "II" | "2" => Method::II,
                    "III" | "3" => Method::III,
                    "IV" | "4" => Method::IV,
                    "V" | "5" => Method::V,
                    "VI" | "6" => Method::VI,
                    other => return Err(format!("unknown method `{other}`")),
                };
                i += 1;
            }
            "--required" => {
                o.required = Some(
                    need(i)?
                        .parse()
                        .map_err(|_| "bad --required value".to_string())?,
                );
                i += 1;
            }
            "--out" => {
                o.out = Some(need(i)?.clone());
                i += 1;
            }
            "--style" => {
                o.style = need(i)?.clone();
                i += 1;
            }
            "--correlations" => o.correlations = true,
            "--verify" => o.verify = VerifyLevel::Full,
            "--lint" => o.lint = LintLevel::Check,
            "--json" => o.json = true,
            "--obs" => o.obs = ObsMode::Summary,
            "--obs-out" => {
                o.obs_out = Some(need(i)?.clone());
                i += 1;
            }
            "--file" => {
                o.file = Some(need(i)?.clone());
                i += 1;
            }
            "--chrome" => o.chrome = true,
            "--strip" => o.strip = true,
            "--qor" => o.qor = QorMode::Text,
            "--qor-out" => {
                o.qor_out = Some(need(i)?.clone());
                i += 1;
            }
            "--qor-baseline" | "--baseline" => {
                o.baseline = Some(need(i)?.clone());
                i += 1;
            }
            "--against" => {
                o.against = Some(need(i)?.clone());
                i += 1;
            }
            "--tol" => {
                o.tol = Some(
                    need(i)?
                        .parse()
                        .map_err(|_| "bad --tol value".to_string())?,
                );
                i += 1;
            }
            "--node" => {
                o.node = Some(need(i)?.clone());
                i += 1;
            }
            other => {
                if let Some(level) = other.strip_prefix("--verify=") {
                    o.verify = level.parse()?;
                } else if let Some(level) = other.strip_prefix("--lint=") {
                    o.lint = level.parse()?;
                } else if let Some(mode) = other.strip_prefix("--obs=") {
                    o.obs = mode.parse()?;
                } else if let Some(mode) = other.strip_prefix("--qor=") {
                    o.qor = match mode {
                        "text" => QorMode::Text,
                        "json" => QorMode::Json,
                        "gate" => QorMode::Gate,
                        "off" => QorMode::Off,
                        other => return Err(format!("unknown qor mode `{other}`")),
                    };
                } else {
                    return Err(format!("unknown option `{other}`"));
                }
            }
        }
        i += 1;
    }
    Ok(o)
}

fn load_lib(o: &Opts) -> Result<Library, String> {
    match &o.lib {
        Some(lp) => {
            let lt = std::fs::read_to_string(lp).map_err(|e| format!("reading {lp}: {e}"))?;
            Library::parse(&lt).map_err(|e| format!("{lp}: {e}"))
        }
        None => Ok(lib2_like()),
    }
}

fn load_blif(path: &str) -> Result<netlist::Network, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(netlist::parse_blif(&text)
        .map_err(|e| format!("{path}: {e}"))?
        .network)
}

fn load_inputs(o: &Opts) -> Result<(netlist::Network, Library), String> {
    let path = o.blif.as_ref().ok_or("--blif is required")?;
    Ok((load_blif(path)?, load_lib(o)?))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".to_string());
    };
    let o = parse_opts(&args[1..])?;
    if cmd == "obs-check" {
        return obs_check(&o);
    }
    if cmd == "qor-check" {
        return qor_check(&o);
    }
    if cmd == "qor-diff" {
        return qor_diff(&o);
    }
    // The CLI owns the obs session so one recording covers the whole
    // subcommand (including the multi-method `report` loop); `flow` sees
    // it active and does not start its own.
    let session = (o.obs != ObsMode::Off).then(lowpower::obs::Session::start);
    let outcome = match cmd.as_str() {
        "synth" => synth(&o),
        "report" => report(&o),
        "decomp" => decomp(&o),
        "lint" => lint_cmd(&o),
        "explain" => explain(&o),
        "qor-baseline" => qor_baseline(&o),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    if let Some(session) = session {
        write_obs_report(&o, &session.finish())?;
    }
    outcome
}

/// `true` when the obs sink is a machine format writing to stdout, so
/// ordinary result output must move to stderr to keep the stream clean.
fn stdout_owned_by_obs(o: &Opts) -> bool {
    matches!(o.obs, ObsMode::Json | ObsMode::Chrome)
        && matches!(o.obs_out.as_deref(), None | Some("-"))
}

/// Write rendered `text` per an `--*-out` option: `-` forces stdout, any
/// other value names a file, and without one it goes to stdout when
/// `default_stdout` holds and to stderr otherwise.
fn write_out(text: &str, out: Option<&str>, default_stdout: bool) -> Result<(), String> {
    match out {
        Some("-") => print!("{text}"),
        Some(path) => std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?,
        None if default_stdout => print!("{text}"),
        None => eprint!("{text}"),
    }
    Ok(())
}

/// The text of `--file`, or of stdin when it is absent or `-`.
fn read_input(o: &Opts) -> Result<String, String> {
    match o.file.as_deref() {
        None | Some("-") => {
            use std::io::Read as _;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            Ok(buf)
        }
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}")),
    }
}

/// Render the finished session per `--obs` and write it per `--obs-out`:
/// summaries default to stderr, machine sinks (JSONL, Chrome) to stdout.
fn write_obs_report(o: &Opts, report: &lowpower::obs::Report) -> Result<(), String> {
    let text = match o.obs {
        ObsMode::Off => return Ok(()),
        ObsMode::Summary => report.render_summary(),
        ObsMode::Json => report.render_jsonl(),
        ObsMode::Chrome => report.render_chrome(),
    };
    write_out(&text, o.obs_out.as_deref(), o.obs != ObsMode::Summary)
}

/// `obs-check`: strictly validate an obs JSONL stream (default) or a
/// Chrome trace (`--chrome`) read from `--file` (default: stdin).
/// `--strip` prints the timing-stripped snapshot used for determinism
/// diffs instead of the ok line.
fn obs_check(o: &Opts) -> Result<(), String> {
    use lowpower::obs::check;
    let text = read_input(o)?;
    if o.chrome {
        check::check_chrome(&text)?;
        eprintln!("chrome trace ok");
        return Ok(());
    }
    let snapshot = check::check_jsonl(&text)?;
    if o.strip {
        println!("{}", check::strip_timing(&snapshot));
    } else {
        eprintln!("obs stream ok");
    }
    Ok(())
}

/// Print accumulated per-stage lint findings to stderr (text) or, per
/// [`say!`], stdout (JSON).
fn print_findings(o: &Opts, findings: &[StageLint], json: bool) {
    for f in findings {
        if json {
            say!(
                o,
                "{{\"stage\":\"{}\",\"report\":{}}}",
                f.stage,
                f.report.render_json()
            );
        } else {
            eprintln!("[lint:{}] {}", f.stage, f.report.render_text().trim_end());
        }
    }
}

fn synth(o: &Opts) -> Result<(), String> {
    let (net, lib) = load_inputs(o)?;
    let cfg = FlowConfig {
        required_time: o.required,
        use_correlations: o.correlations,
        verify: o.verify,
        lint: o.lint,
        obs: o.obs,
        qor: o.qor != QorMode::Off,
        ..FlowConfig::default()
    };
    let r = run_flow(&net, &lib, o.method, &cfg).map_err(|e| e.to_string())?;
    if let Some(ledger) = &r.qor {
        write_qor_ledger(o, ledger)?;
        if o.qor == QorMode::Gate {
            qor_gate(o, ledger)?;
        }
    }
    print_findings(o, &r.lint_findings, false);
    say!(
        o,
        "circuit   : {} ({} PIs, {} POs)",
        net.name(),
        net.inputs().len(),
        net.outputs().len()
    );
    say!(
        o,
        "method    : {} ({:?} decomposition, {:?} mapping)",
        o.method,
        o.method.decomp_style(),
        o.method.map_objective()
    );
    say!(o, "gates     : {}", r.report.gate_count);
    say!(o, "area      : {:.1}", r.report.area);
    say!(o, "delay     : {:.2} ns", r.report.delay);
    say!(
        o,
        "power     : {:.1} µW (zero-delay), {:.1} µW (glitch-aware)",
        r.report.power_uw,
        r.glitch_power_uw
    );
    if let Some(out) = &o.out {
        let text = r.mapped.to_blif(&lib, &format!("{}_mapped", net.name()));
        std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
        say!(o, "wrote mapped netlist to {out}");
    }
    Ok(())
}

fn report(o: &Opts) -> Result<(), String> {
    let (net, lib) = load_inputs(o)?;
    let mut cfg = FlowConfig {
        use_correlations: o.correlations,
        verify: o.verify,
        lint: o.lint,
        obs: o.obs,
        ..FlowConfig::default()
    };
    let (optimized, findings) = optimize_checked(&net, &cfg).map_err(|e| e.to_string())?;
    print_findings(o, &findings, false);
    // Shared timing target: the conventional ad-map flow's fastest + 10 %.
    let probe = run_method(&optimized, &lib, Method::I, &FlowConfig::default())
        .map_err(|e| e.to_string())?;
    cfg.required_time = Some(o.required.unwrap_or(probe.mapped.estimated_fastest * 1.10));
    say!(
        o,
        "{:<7} {:>8} {:>9} {:>12} {:>12}",
        "method",
        "area",
        "delay",
        "power µW",
        "glitch µW"
    );
    for m in Method::ALL {
        let r = run_method(&optimized, &lib, m, &cfg).map_err(|e| e.to_string())?;
        print_findings(o, &r.lint_findings, false);
        say!(
            o,
            "{:<7} {:>8.1} {:>9.2} {:>12.1} {:>12.1}",
            m.to_string(),
            r.report.area,
            r.report.delay,
            r.report.power_uw,
            r.glitch_power_uw
        );
    }
    Ok(())
}

fn decomp(o: &Opts) -> Result<(), String> {
    use lowpower::core::decomp::{decompose_network, DecompOptions, DecompStyle};
    let (net, _lib) = load_inputs(o)?;
    let style = match o.style.as_str() {
        "conventional" => DecompStyle::Conventional,
        "minpower" => DecompStyle::MinPower,
        "bounded" => DecompStyle::BoundedMinPower,
        other => return Err(format!("unknown style `{other}`")),
    };
    let optimized = optimize(&net);
    let d = decompose_network(
        &optimized,
        &DecompOptions {
            use_correlations: o.correlations,
            ..DecompOptions::new(style)
        },
    );
    let probs = vec![0.5; optimized.inputs().len()];
    let act = lowpower::activity::analyze(
        &d.network,
        &probs,
        lowpower::activity::TransitionModel::StaticCmos,
    );
    println!("style            : {style:?}");
    println!("nodes            : {}", d.network.logic_count());
    println!("depth            : {} levels", d.depth);
    println!(
        "total switching  : {:.3} transitions/cycle",
        act.total_switching(d.network.logic_ids())
    );
    if !d.applied_bounds.is_empty() {
        println!("height bounds applied to {} nodes", d.applied_bounds.len());
    }
    println!("{}", netlist::write_blif(&d.network));
    Ok(())
}

/// The `lint` subcommand: run the whole pipeline purely for diagnostics.
///
/// Lints the raw input network, then runs the flow for `--method` at
/// [`LintLevel::Check`], which lints the library, the optimized network,
/// the decomposition, the activity annotations, and the mapped netlist.
/// Findings are printed as text (default) or JSON (`--json`). Exit is
/// non-zero when `--lint=deny` (the default for this subcommand is
/// `check`) and an `Error`-severity finding exists.
fn lint_cmd(o: &Opts) -> Result<(), String> {
    use lowpower::lint::{lint_network, LintConfig};
    // The raw input plus the flow's five checkpoints.
    const STAGES: usize = 6;
    let (net, lib) = load_inputs(o)?;
    let cfg = FlowConfig {
        use_correlations: o.correlations,
        lint: LintLevel::Check,
        ..FlowConfig::default()
    };
    let mut findings = Vec::new();
    let input = lint_network(&net, &LintConfig::new());
    if !input.is_clean() {
        findings.push(StageLint {
            stage: "input",
            report: input,
        });
    }
    let r = run_flow(&net, &lib, o.method, &cfg).map_err(|e| e.to_string())?;
    findings.extend(r.lint_findings);

    print_findings(o, &findings, o.json);
    let errors: usize = findings.iter().map(|f| f.report.error_count()).sum();
    let warnings: usize = findings.iter().map(|f| f.report.warn_count()).sum();
    if !o.json {
        say!(
            o,
            "lint: {STAGES} stage(s) checked, {errors} error(s), {warnings} warning(s)"
        );
    }
    if o.lint == LintLevel::Deny && errors > 0 {
        return Err(format!("lint found {errors} error-severity finding(s)"));
    }
    Ok(())
}

/// Write the finished ledger per `--qor` / `--qor-out`: the text waterfall
/// defaults to stderr (it is diagnostics, like the obs summary), JSONL to
/// stdout unless an obs machine sink owns it.
fn write_qor_ledger(o: &Opts, ledger: &lowpower::qor::LedgerReport) -> Result<(), String> {
    let text = match o.qor {
        QorMode::Off => return Ok(()),
        QorMode::Json => ledger.render_jsonl(),
        QorMode::Text | QorMode::Gate => ledger.render_text(),
    };
    let default_stdout = o.qor == QorMode::Json && !stdout_owned_by_obs(o);
    write_out(&text, o.qor_out.as_deref(), default_stdout)
}

/// The `--qor=gate` check of `synth`: compare the run's final QoR against
/// the committed baseline entry for this `circuit × method` with relative
/// tolerance `--tol` (default 0, exact) and fail on drift.
fn qor_gate(o: &Opts, ledger: &lowpower::qor::LedgerReport) -> Result<(), String> {
    use lowpower::qor::{baseline, Baseline, Tolerance};
    let path = o.baseline.as_deref().unwrap_or("results/qor_baseline.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let base = Baseline::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = ledger
        .final_metrics()
        .ok_or("qor gate: the ledger recorded no snapshots")?;
    let entry = base.get(&ledger.circuit, &ledger.method).ok_or_else(|| {
        format!(
            "qor gate: no baseline entry for {} × {} in {path} (regenerate with `lowpower qor-baseline`)",
            ledger.circuit, ledger.method
        )
    })?;
    let mut want = Baseline::new();
    want.insert(&ledger.circuit, &ledger.method, *entry);
    let mut got = Baseline::new();
    got.insert(&ledger.circuit, &ledger.method, metrics);
    let d = baseline::diff(&want, &got, &Tolerance::uniform(o.tol.unwrap_or(0.0)));
    if !d.passed() {
        return Err(format!("qor gate failed vs {path}:\n{}", d.render_text()));
    }
    eprintln!(
        "qor gate ok: {} × {} matches {path}",
        ledger.circuit, ledger.method
    );
    Ok(())
}

/// `qor-baseline`: run all six methods on every `--blif` and write the
/// canonical baseline JSON (final mapped QoR per `circuit × method`).
fn qor_baseline(o: &Opts) -> Result<(), String> {
    use lowpower::flow::run_flow;
    use lowpower::qor::Baseline;
    if o.blifs.is_empty() {
        return Err("--blif is required (repeat it for several circuits)".to_string());
    }
    let lib = load_lib(o)?;
    let cfg = FlowConfig {
        required_time: o.required,
        use_correlations: o.correlations,
        ..FlowConfig::default()
    };
    let ctx = cfg.qor_ctx();
    let mut baseline = Baseline::new();
    for path in &o.blifs {
        let net = load_blif(path)?;
        for m in Method::ALL {
            let r = run_flow(&net, &lib, m, &cfg)
                .map_err(|e| format!("{}: method {m}: {e}", net.name()))?;
            let metrics = lowpower::qor::measure_mapped(&r.mapped, &lib, &ctx);
            baseline.insert(net.name(), &m.to_string(), metrics);
        }
        eprintln!("measured {} (6 methods)", net.name());
    }
    let out = o.out.as_deref().unwrap_or("results/qor_baseline.json");
    std::fs::write(out, baseline.render_json()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {} entries to {out}", baseline.entries.len());
    Ok(())
}

/// `qor-diff`: compare two baseline files with a relative tolerance.
fn qor_diff(o: &Opts) -> Result<(), String> {
    use lowpower::qor::{baseline, Baseline, Tolerance};
    let bpath = o.baseline.as_deref().ok_or("--baseline is required")?;
    let apath = o.against.as_deref().ok_or("--against is required")?;
    let read = |p: &str| -> Result<Baseline, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Baseline::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let base = read(bpath)?;
    let against = read(apath)?;
    let d = baseline::diff(&base, &against, &Tolerance::uniform(o.tol.unwrap_or(0.0)));
    eprint!("{}", d.render_text());
    if !d.passed() {
        return Err(format!("qor drift detected ({} problem(s))", d.failures()));
    }
    Ok(())
}

/// `qor-check`: strictly validate a QoR ledger JSONL stream from `--file`
/// (default: stdin), including the telescoping identity of every summary.
fn qor_check(o: &Opts) -> Result<(), String> {
    let stats = lowpower::qor::check::check_jsonl(&read_input(o)?)?;
    eprintln!(
        "qor ledger ok: {} line(s), {} snapshot(s), {} run(s)",
        stats.lines, stats.snapshot_lines, stats.runs
    );
    Ok(())
}

/// `explain`: resolve one optimized-network node — slack, decomposition
/// choice, and the mapped gates (with power shares) that trace back to it.
fn explain(o: &Opts) -> Result<(), String> {
    let node = o.node.as_deref().ok_or("--node is required")?;
    let (net, lib) = load_inputs(o)?;
    let cfg = FlowConfig {
        required_time: o.required,
        use_correlations: o.correlations,
        ..FlowConfig::default()
    };
    let optimized = optimize(&net);
    let Some(id) = optimized.find(node) else {
        return Err(format!(
            "node `{node}` not found in the optimized network of `{}` \
             (it may have been swept or collapsed by the rugged script)",
            net.name()
        ));
    };
    let is_pi = optimized.node(id).is_input();
    let depth = netlist::traversal::depth(&optimized);
    let pi_arrival = vec![0i64; optimized.inputs().len()];
    let po_required = vec![depth; optimized.outputs().len()];
    let arrivals = netlist::traversal::unit_arrival_times(&optimized, &pi_arrival);
    let slacks = netlist::traversal::unit_slacks(&optimized, &pi_arrival, &po_required);

    let r = run_method(&optimized, &lib, o.method, &cfg).map_err(|e| e.to_string())?;
    let prov = &r.provenance;
    let shares = prov.gate_shares(&r.mapped, &lib, &cfg.qor_ctx());
    let total_power: f64 = shares.iter().map(|s| s.power_uw).sum();
    let mine: Vec<_> = shares.iter().filter(|s| s.origin == node).collect();
    let mine_power: f64 = mine.iter().map(|s| s.power_uw).sum();

    println!(
        "node      : {node} ({})",
        if is_pi { "primary input" } else { "logic" }
    );
    println!(
        "method    : {} ({:?} decomposition, {:?} mapping)",
        o.method,
        o.method.decomp_style(),
        o.method.map_objective()
    );
    let slack = slacks[id.index()];
    if slack == i64::MAX {
        println!(
            "timing    : arrival level {}, unconstrained (reaches no output)",
            arrivals[id.index()]
        );
    } else {
        println!(
            "timing    : arrival level {} of {depth}, slack {slack}",
            arrivals[id.index()]
        );
    }
    if let Some((root, balanced)) = prov.height(node) {
        println!(
            "decomp    : root arrival {root}, balanced height {balanced}, surplus {}",
            root.saturating_sub(balanced)
        );
    } else if !is_pi {
        println!("decomp    : passed through undecomposed");
    }
    if let Some(bound) = prov.bound(node) {
        println!("bound     : root arrival bounded to {bound} levels");
    }
    let emitted = prov.subject_count(node);
    if emitted > 0 {
        println!("emitted   : {emitted} subject node(s) in the decomposed network");
    }
    if mine.is_empty() {
        println!("gates     : none (absorbed into neighbouring gates' covers)");
    } else {
        println!("gates     : {}", mine.len());
        for s in &mine {
            println!(
                "  {:<16} {:<10} covers {:<16} {:>9.3} µW",
                s.instance, s.gate, s.subject, s.power_uw
            );
        }
    }
    let pct = if total_power > 0.0 {
        100.0 * mine_power / total_power
    } else {
        0.0
    };
    println!("power     : {mine_power:.3} µW of {total_power:.3} µW total ({pct:.1}%)");
    Ok(())
}
