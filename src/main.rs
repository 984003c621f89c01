//! `lowpower` — command-line front end for the synthesis flow.
//!
//! [`COMMANDS`] lists the subcommands and the options each one reads;
//! the same lists print the usage lines (run `lowpower` with no
//! arguments), and a subcommand rejects any option not in its list.
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
//! traces), including every QoR ledger line riding it as a note, and with
//! `--strip` prints the timing-stripped snapshot used for determinism
//! diffs.
//!
//! `--qor` records a QoR ledger for `synth`: one deterministic snapshot
//! after every optimization pass, the decomposition, and the mapping,
//! each stage's power/area/delay delta attributed by name, printed as a
//! waterfall to stderr. Under `--obs=json` every snapshot also rides the
//! event stream as a ledger line, which is the ledger's machine-readable
//! form. `qor-baseline` runs all six methods on each `--blif` and writes
//! the canonical baseline JSON; `qor-diff` compares two baseline files
//! with relative tolerance `--tol` (default 0) and fails on drift.
//! `explain` resolves one optimized-network node: its slack, its
//! decomposition choice (height, applied bound, emitted nodes), and the
//! mapped gates — with power shares — that trace back to it.

use genlib::{builtin::lib2_like, Library};
use lowpower::core::decomp::DecompStyle;
use lowpower::flow::{
    decompose, map, optimize, optimize_checked, run_flow, run_methods, shared_required_time,
    FlowConfig, Method, StageLint,
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
            for cmd in COMMANDS {
                eprintln!("  {}", cmd.usage());
            }
            ExitCode::from(2)
        }
    }
}

/// A subcommand and the options it reads, as the usage fragments of its
/// usage line: the flag, its value, and brackets when it is optional. The
/// flags the fragments name are the only ones the subcommand accepts.
struct Command {
    name: &'static str,
    run: fn(&Opts) -> Result<(), String>,
    options: &'static str,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "synth",
        run: synth,
        options: "--blif FILE [--lib FILE] [--method I..VI] [--required NS] [--out FILE] [--correlations] [--verify[=sim|full]] [--lint[=check|deny|off]] [--qor] [--obs[=summary|json|chrome]] [--obs-out FILE]",
    },
    Command {
        name: "report",
        run: report,
        options: "--blif FILE [--lib FILE] [--required NS] [--correlations] [--verify[=sim|full]] [--lint[=check|deny|off]] [--obs[=summary|json|chrome]] [--obs-out FILE]",
    },
    Command {
        name: "decomp",
        run: decomp,
        options: "--blif FILE [--lib FILE] [--style conventional|minpower|bounded] [--correlations]",
    },
    Command {
        name: "lint",
        run: lint_cmd,
        options: "--blif FILE [--lib FILE] [--method I..VI] [--correlations] [--lint=deny] [--json] [--obs[=summary|json|chrome]] [--obs-out FILE]",
    },
    Command {
        name: "obs-check",
        run: obs_check,
        options: "[--file TRACE] [--chrome] [--strip]",
    },
    Command {
        name: "explain",
        run: explain,
        options: "--blif FILE --node NAME [--method I..VI] [--lib FILE] [--required NS] [--correlations]",
    },
    Command {
        name: "qor-baseline",
        run: qor_baseline,
        options: "--blif FILE [--blif FILE ...] [--lib FILE] [--required NS] [--correlations] [--out FILE]",
    },
    Command {
        name: "qor-diff",
        run: qor_diff,
        options: "--baseline FILE --against FILE [--tol REL]",
    },
];

impl Command {
    /// `lowpower NAME` and the usage fragments of its options.
    fn usage(&self) -> String {
        format!("lowpower {:<6} {}", self.name, self.options)
    }

    /// The flags of the options, in usage order: `--verify` for the
    /// fragment `[--verify[=sim|full]]`.
    fn flags(&self) -> impl Iterator<Item = &'static str> {
        self.options.split(' ').filter_map(|word| {
            let word = word.trim_start_matches('[');
            let end = word.find(['[', '=', ']']).unwrap_or(word.len());
            word.starts_with("--").then(|| &word[..end])
        })
    }
}

#[derive(Default)]
struct Opts {
    /// Every `--blif` in order (the subcommands that take one use the
    /// first; `qor-baseline` uses all).
    blifs: Vec<String>,
    lib: Option<String>,
    method: Option<Method>,
    required: Option<f64>,
    out: Option<String>,
    style: Option<String>,
    correlations: bool,
    verify: VerifyLevel,
    lint: LintLevel,
    json: bool,
    obs: ObsMode,
    obs_out: Option<String>,
    file: Option<String>,
    chrome: bool,
    strip: bool,
    qor: bool,
    baseline: Option<String>,
    against: Option<String>,
    tol: Option<f64>,
    node: Option<String>,
}

impl Opts {
    /// `--method`, VI by default.
    fn method(&self) -> Method {
        self.method.unwrap_or(Method::VI)
    }

    /// The flow configuration the options ask for. [`parse_opts`] rejects
    /// any option a subcommand does not read, so the fields it does not
    /// read keep their defaults.
    fn flow_config(&self) -> FlowConfig {
        FlowConfig {
            required_time: self.required,
            use_correlations: self.correlations,
            verify: self.verify,
            lint: self.lint,
            qor: self.qor,
            ..FlowConfig::default()
        }
    }
}

/// Parse the options of `cmd`, rejecting any it does not read.
fn parse_opts(cmd: &Command, args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let flag = arg.split('=').next().unwrap_or(arg);
        if !cmd.flags().any(|f| f == flag) {
            return Err(format!("`{}` does not take `{flag}`", cmd.name));
        }
        let mut value = || args.next().cloned().ok_or(format!("`{arg}` needs a value"));
        let number = |v: String| v.parse().map_err(|_| format!("bad {arg} value"));
        match arg.as_str() {
            "--blif" => o.blifs.push(value()?),
            "--lib" => o.lib = Some(value()?),
            "--method" => {
                let v = value()?;
                let (_, m) = (1..)
                    .zip(Method::ALL)
                    .find(|(k, m)| v == m.to_string() || v == k.to_string())
                    .ok_or(format!("unknown method `{v}`"))?;
                o.method = Some(m);
            }
            "--required" => o.required = Some(number(value()?)?),
            "--out" => o.out = Some(value()?),
            "--style" => o.style = Some(value()?),
            "--correlations" => o.correlations = true,
            "--verify" => o.verify = VerifyLevel::Full,
            "--lint" => o.lint = LintLevel::Check,
            "--json" => o.json = true,
            "--obs" => o.obs = ObsMode::Summary,
            "--obs-out" => o.obs_out = Some(value()?),
            "--file" => o.file = Some(value()?),
            "--chrome" => o.chrome = true,
            "--strip" => o.strip = true,
            "--qor" => o.qor = true,
            "--baseline" => o.baseline = Some(value()?),
            "--against" => o.against = Some(value()?),
            "--tol" => o.tol = Some(number(value()?)?),
            "--node" => o.node = Some(value()?),
            other => {
                if let Some(level) = other.strip_prefix("--verify=") {
                    o.verify = level.parse()?;
                } else if let Some(level) = other.strip_prefix("--lint=") {
                    o.lint = level.parse()?;
                } else if let Some(mode) = other.strip_prefix("--obs=") {
                    o.obs = mode.parse()?;
                } else {
                    return Err(format!("unknown option `{other}`"));
                }
            }
        }
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
    let path = o.blifs.first().ok_or("--blif is required")?;
    Ok((load_blif(path)?, load_lib(o)?))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".to_string());
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == cmd)
        .ok_or(format!("unknown subcommand `{cmd}`"))?;
    let o = parse_opts(command, &args[1..])?;
    // The CLI owns the obs session so one recording covers the whole
    // subcommand (including the multi-method `report` loop); `flow` sees
    // it active and does not start its own.
    let session = (o.obs != ObsMode::Off).then(lowpower::obs::Session::start);
    let outcome = (command.run)(&o);
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

/// Render the finished session per `--obs` and write it per `--obs-out`
/// (`-` forces stdout, any other value names a file): without it,
/// summaries go to stderr and machine sinks (JSONL, Chrome) to stdout.
fn write_obs_report(o: &Opts, report: &lowpower::obs::Report) -> Result<(), String> {
    let text = match o.obs {
        ObsMode::Off => return Ok(()),
        ObsMode::Summary => report.render_summary(),
        ObsMode::Json => report.render_jsonl(),
        ObsMode::Chrome => report.render_chrome(),
    };
    match o.obs_out.as_deref() {
        Some("-") => print!("{text}"),
        Some(path) => std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?,
        None if o.obs == ObsMode::Summary => eprint!("{text}"),
        None => print!("{text}"),
    }
    Ok(())
}

/// `obs-check`: strictly validate an obs JSONL stream (default) or a
/// Chrome trace (`--chrome`) read from `--file` (default: stdin). In a
/// stream, every note carrying a QoR ledger line must parse as one.
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
    let (snapshot, notes) = check::check_jsonl(&text)?;
    let ledger_lines = lowpower::qor::check_ledger_notes(&notes)?;
    if o.strip {
        println!("{}", check::strip_timing(&snapshot));
    } else {
        eprintln!("obs stream ok: {ledger_lines} QoR ledger line(s) checked");
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
    let cfg = o.flow_config();
    let r = run_flow(&net, &lib, o.method(), &cfg).map_err(|e| e.to_string())?;
    if let Some(ledger) = &r.qor {
        eprint!("{}", ledger.render_text());
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
        o.method(),
        o.method().decomp_style(),
        o.method().map_objective()
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
    let mut cfg = o.flow_config();
    let (optimized, findings) = optimize_checked(&net, &cfg).map_err(|e| e.to_string())?;
    print_findings(o, &findings, false);
    if cfg.required_time.is_none() {
        let target = shared_required_time(&optimized, &lib).map_err(|e| e.to_string())?;
        cfg.required_time = Some(target);
    }
    let results =
        run_methods(std::slice::from_ref(&optimized), &lib, &cfg, 1).map_err(|e| e.to_string())?;
    say!(
        o,
        "{:<7} {:>8} {:>9} {:>12} {:>12}",
        "method",
        "area",
        "delay",
        "power µW",
        "glitch µW"
    );
    for (m, r) in Method::ALL.into_iter().zip(&results) {
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
    let (net, lib) = load_inputs(o)?;
    let style = match o.style.as_deref().unwrap_or("minpower") {
        "conventional" => DecompStyle::Conventional,
        "minpower" => DecompStyle::MinPower,
        "bounded" => DecompStyle::BoundedMinPower,
        other => return Err(format!("unknown style `{other}`")),
    };
    let cfg = o.flow_config();
    let d = decompose(&optimize(&net), &lib, style, &cfg).map_err(|e| e.to_string())?;
    let decomposed = d.network();
    println!("style            : {style:?}");
    println!("nodes            : {}", decomposed.network.logic_count());
    println!("depth            : {} levels", decomposed.depth);
    println!("total switching  : {:.3} transitions/cycle", d.switching());
    let bounded = decomposed.sources.iter().filter_map(|s| s.bound).count();
    if bounded > 0 {
        println!("height bounds applied to {bounded} nodes");
    }
    println!("{}", netlist::write_blif(&decomposed.network));
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
        lint: LintLevel::Check,
        ..o.flow_config()
    };
    let mut findings = Vec::new();
    let input = lint_network(&net, &LintConfig::new());
    if !input.is_clean() {
        findings.push(StageLint {
            stage: "input",
            report: input,
        });
    }
    let r = run_flow(&net, &lib, o.method(), &cfg).map_err(|e| e.to_string())?;
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

/// `qor-baseline`: run all six methods on every `--blif` and write the
/// canonical baseline JSON (final mapped QoR per `circuit × method`).
fn qor_baseline(o: &Opts) -> Result<(), String> {
    use lowpower::qor::Baseline;
    if o.blifs.is_empty() {
        return Err("--blif is required (repeat it for several circuits)".to_string());
    }
    let lib = load_lib(o)?;
    let cfg = o.flow_config();
    let optimized = o.blifs.iter().map(|path| Ok(optimize(&load_blif(path)?)));
    let optimized: Vec<netlist::Network> = optimized.collect::<Result<_, String>>()?;
    let results = run_methods(&optimized, &lib, &cfg, 1).map_err(|e| e.to_string())?;
    let mut baseline = Baseline::new();
    for (net, results) in optimized.iter().zip(results.chunks(Method::ALL.len())) {
        for (m, r) in Method::ALL.into_iter().zip(results) {
            // `r.report` is the flow's evaluation under `cfg.qor_ctx()`.
            let metrics = lowpower::qor::mapped_metrics(&r.mapped, &r.report);
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
    use lowpower::qor::{baseline, Baseline};
    let bpath = o.baseline.as_deref().ok_or("--baseline is required")?;
    let apath = o.against.as_deref().ok_or("--against is required")?;
    let read = |p: &str| -> Result<Baseline, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Baseline::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let base = read(bpath)?;
    let against = read(apath)?;
    let d = baseline::diff(&base, &against, o.tol.unwrap_or(0.0));
    eprint!("{}", d.render_text());
    if !d.passed() {
        return Err(format!("qor drift detected ({} problem(s))", d.failures()));
    }
    Ok(())
}

/// `explain`: resolve one optimized-network node — slack, decomposition
/// choice, and the mapped gates (with power shares) that trace back to it.
fn explain(o: &Opts) -> Result<(), String> {
    let node = o.node.as_deref().ok_or("--node is required")?;
    let (net, lib) = load_inputs(o)?;
    let cfg = o.flow_config();
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

    let method = o.method();
    let d = decompose(&optimized, &lib, method.decomp_style(), &cfg).map_err(|e| e.to_string())?;
    let r = map(&d, &lib, method.map_objective()).map_err(|e| e.to_string())?;
    let prov = lowpower::qor::Provenance::from_decomposed(d.network());
    let shares = prov.gate_shares(&r.mapped, &lib, &cfg.qor_ctx());
    let total_power: f64 = shares.iter().map(|s| s.power_uw).sum();
    let mine: Vec<_> = shares.iter().filter(|s| s.origin == node).collect();
    let mine_power: f64 = mine.iter().map(|s| s.power_uw).sum();

    println!(
        "node      : {node} ({})",
        if is_pi { "primary input" } else { "logic" }
    );
    println!(
        "method    : {method} ({:?} decomposition, {:?} mapping)",
        method.decomp_style(),
        method.map_objective()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Arguments setting `flag` to a valid value.
    fn sample(flag: &str) -> Vec<String> {
        match flag {
            "--method" => args("--method V"),
            "--required" | "--tol" => args(&format!("{flag} 0.5")),
            "--style" => args("--style bounded"),
            "--verify" => args("--verify=sim"),
            "--lint" => args("--lint=deny"),
            "--obs" => args("--obs=json"),
            "--blif" | "--lib" | "--out" | "--obs-out" | "--file" | "--node" | "--baseline"
            | "--against" => args(&format!("{flag} x")),
            _ => args(flag),
        }
    }

    #[test]
    fn every_listed_option_parses() {
        for cmd in COMMANDS {
            let mut all = Vec::new();
            for flag in cmd.flags() {
                let one = sample(flag);
                let parsed = parse_opts(cmd, &one);
                assert!(parsed.is_ok(), "{} {one:?}: {:?}", cmd.name, parsed.err());
                all.extend(one);
            }
            assert!(parse_opts(cmd, &all).is_ok(), "{} {all:?}", cmd.name);
        }
    }

    #[test]
    fn options_a_subcommand_does_not_read_are_rejected() {
        for (line, flag) in [
            ("report --blif examples/blif/mux4.blif --qor", "--qor"),
            ("decomp --verify --method II", "--verify"),
            ("lint --blif f.blif --style bounded", "--style"),
            ("obs-check --obs=json", "--obs"),
            ("synth --blif f.blif --bogus", "--bogus"),
        ] {
            let cmd = line.split(' ').next().unwrap();
            let err = run(&args(line)).unwrap_err();
            assert_eq!(err, format!("`{cmd}` does not take `{flag}`"), "{line}");
        }
    }
}
