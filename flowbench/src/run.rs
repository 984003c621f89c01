//! One benchmark run: set-up, the measured passes, the output checks, and
//! the metrics they yield.

use crate::pass::{check_outputs, digest, run_pass, Cell, CellQor, Pass};
use crate::stats::{busy_share, gmean, median, percentile, ratio};
use crate::traced::{drift, run_traced, Tracer, PROBE};
use crate::workload::{setup, Size, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// Worker threads of the untraced pass (fewer if the machine has fewer
/// cores).
const THREADS: usize = 2;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Minimum measured time: passes repeat until their walls add up to it.
    pub seconds: f64,
    /// `false`: untraced passes, end-to-end metrics. `true`: one untraced
    /// pass at the fixed thread count, one serial untraced pass, then
    /// serial traced passes; per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Cells attempted.
    pub attempted: usize,
    /// Cells that failed: flow errors, panics, inequivalent netlists.
    pub failed: usize,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: digest, sample counts, failures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident memory of this process in MiB (Linux `VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(THREADS))
}

/// Run the benchmark once.
///
/// # Errors
/// When peak memory cannot be read.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        Ok(run_traced_metrics(opts))
    } else {
        run_end_to_end(opts)
    }
}

fn run_end_to_end(opts: &Options) -> Result<Outcome, String> {
    let cfg = opts.workload.config(opts.seed);
    let inputs = setup(opts.workload, opts.size);
    // Each pass is checked and dropped before the next, so the peak memory
    // is that of one pass, however many passes fit in the run.
    let mut walls = Vec::new();
    let mut optimize_walls = Vec::new();
    let mut durations: Vec<Vec<f64>> = Vec::new();
    let mut digests = Vec::new();
    let mut notes = Vec::new();
    let mut attempted = 0;
    let mut qor = None;
    while walls.is_empty() || walls.iter().sum::<f64>() < opts.seconds {
        let pass = run_pass(opts.workload, &inputs, &cfg, threads());
        notes.extend(check_outputs(&inputs, &pass));
        digests.push(digest(&pass));
        walls.push(pass.wall_s);
        optimize_walls.push(pass.wall_s - pass.cells_wall_s);
        durations.push(pass.cells.iter().map(Cell::duration_s).collect());
        attempted += pass.cells.len();
        qor.get_or_insert_with(|| qor_gmeans(&pass));
    }
    let failed = notes.len();
    let [power, area, delay] = qor.expect("a pass ran");
    // Set-up takes milliseconds; timed right at process start it would
    // mostly measure how fast the idle core clocks up.
    let setup_s: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(setup(opts.workload, opts.size));
            t.elapsed().as_secs_f64()
        })
        .collect();

    let consistent = digests.windows(2).all(|w| w[0] == w[1]);
    if !consistent {
        notes.push("passes computed different numbers".to_string());
    }
    notes.push(format!(
        "digest {:016x} over {} cells x {} passes",
        digests[0],
        durations[0].len(),
        walls.len()
    ));
    // Each cell's latency is its median over the passes, which takes the
    // host's pass-to-pass noise out before the percentiles over cells.
    let cell_ms: Vec<f64> = (0..durations[0].len())
        .map(|i| {
            let runs: Vec<f64> = durations.iter().map(|d| d[i]).collect();
            median(&runs).expect("passes ran") * 1e3
        })
        .collect();
    let p50 = median(&cell_ms).expect("cells ran");
    let p90 = percentile(&cell_ms, 90.0).expect("cells ran");
    notes.push(format!(
        "cell latency percentiles over {} cells, each the median of {} passes",
        p90.samples,
        walls.len()
    ));
    notes.push(format!(
        "pass walls {walls:.3?} s; shared optimize stage median {:.3} s",
        median(&optimize_walls).expect("passes ran")
    ));
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(Outcome {
        correct: failed == 0 && consistent,
        attempted,
        failed,
        metrics: vec![
            metric("wall_s", median(&walls).expect("passes ran"), "s"),
            metric("setup_s", median(&setup_s).expect("set-ups ran"), "s"),
            metric("cell_ms_p50", p50, "ms"),
            metric("cell_ms_p90", p90.value, "ms"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
            metric("power_uw_gmean", power, "uW"),
            metric("area_gmean", area, "lib_area"),
            metric("delay_ns_gmean", delay, "model_ns"),
        ],
        notes,
    })
}

/// Geometric means of (power, area, delay) over the pass's successful
/// cells; 0 where no cell succeeded.
fn qor_gmeans(pass: &Pass) -> [f64; 3] {
    let ok: Vec<&CellQor> = pass
        .cells
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok())
        .collect();
    let mean =
        |f: fn(&CellQor) -> f64| gmean(&ok.iter().map(|q| f(q)).collect::<Vec<_>>()).unwrap_or(0.0);
    [mean(|q| q.power_uw), mean(|q| q.area), mean(|q| q.delay)]
}

fn run_traced_metrics(opts: &Options) -> Outcome {
    let cfg = opts.workload.config(opts.seed);
    let threads = threads();
    let inputs = setup(opts.workload, opts.size);
    let untraced = run_pass(opts.workload, &inputs, &cfg, threads);
    let mut notes = check_outputs(&inputs, &untraced);
    let failed = notes.len();
    // The tracing overhead compares serial with serial: on a two-way host
    // parallel cells slow each other, which would hide the overhead.
    let serial = run_pass(opts.workload, &inputs, &cfg, 1);
    let deterministic = digest(&serial) == digest(&untraced);
    if !deterministic {
        notes.push(format!(
            "the pass at {threads} threads computed other numbers than the serial pass"
        ));
    }

    let mut tracer = Tracer::default();
    let mut traced_walls = Vec::new();
    let mut drifted = 0;
    let untraced_s = untraced.wall_s + serial.wall_s;
    while traced_walls.is_empty() || untraced_s + traced_walls.iter().sum::<f64>() < opts.seconds {
        let traced = run_traced(&mut tracer, opts.workload, &inputs, &cfg);
        let diffs = drift(&inputs, &untraced, &traced);
        drifted += diffs.len();
        notes.extend(diffs);
        traced_walls.push(traced.wall_s);
    }
    let passes = traced_walls.len() as f64;
    let per_pass = |seconds: f64| seconds / passes;
    let time = |layer: &str| per_pass(tracer.time(layer));
    let count = |name: &str| tracer.counter(name) as f64 / passes;
    let traced_wall = per_pass(traced_walls.iter().sum());
    let glue = traced_wall - per_pass(tracer.covered_s()) - time(PROBE);

    let durations: Vec<f64> = untraced.cells.iter().map(|c| c.duration_s()).collect();
    let tail_ms = durations.iter().copied().fold(0.0, f64::max) * 1e3;
    let ite = ratio(
        count("bdd.ite.hit"),
        count("bdd.ite.hit") + count("bdd.ite.miss"),
    );
    let accept = ratio(
        count("map.curve.pushes"),
        count("map.curve.pushes") + count("map.curve.dominated_drops"),
    );
    let matched = ratio(count("map.matcher.matches"), count("map.matcher.attempts"));
    let fallback = ratio(count("verify.bdd.fallbacks"), count("verify.checks"));
    notes.push(format!(
        "traced pass {traced_wall:.3} s, layer calls cover {:.1} % of it; {} traced pass(es)",
        100.0 * (traced_wall - time(PROBE) - glue) / (traced_wall - time(PROBE)),
        traced_walls.len()
    ));
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("logicopt.sweep_s", time("logicopt.sweep"), "s"),
        metric("logicopt.simplify_s", time("logicopt.simplify"), "s"),
        metric("logicopt.eliminate_s", time("logicopt.eliminate"), "s"),
        metric("logicopt.extract_s", time("logicopt.extract"), "s"),
        metric(
            "logicopt.literals_out",
            tracer.literals_out as f64 / passes,
            "count",
        ),
        metric(
            "logicopt.nodes_out",
            tracer.nodes_out as f64 / passes,
            "count",
        ),
        metric("decomp.s", time("decomp"), "s"),
        metric("decomp.bdd_probe_s", time(PROBE), "s"),
        metric(
            "decomp.nodes.emitted",
            count("decomp.nodes.emitted"),
            "count",
        ),
        metric(
            "decomp.huffman.merges",
            count("decomp.huffman.merges"),
            "count",
        ),
        metric("activity.s", time("activity"), "s"),
        metric("bdd.ite.miss", count("bdd.ite.miss"), "count"),
        metric("bdd.ite.hit_ratio", ite.value, "ratio"),
        metric("bdd.ite.hit_ratio.base", ite.base, "count"),
        metric("bdd.unique.miss", count("bdd.unique.miss"), "count"),
        metric(
            "bdd.nodes.high_water",
            tracer
                .gauges
                .get("bdd.nodes.high_water")
                .copied()
                .unwrap_or(0) as f64,
            "count",
        ),
        metric("map.subject_s", time("map.subject"), "s"),
        metric("map.s", time("map"), "s"),
        metric("map.curve.pushes", count("map.curve.pushes"), "count"),
        metric(
            "map.curve.dominated_drops",
            count("map.curve.dominated_drops"),
            "count",
        ),
        metric("map.curve.accept_ratio", accept.value, "ratio"),
        metric("map.curve.accept_ratio.base", accept.base, "count"),
        metric(
            "map.matcher.attempts",
            count("map.matcher.attempts"),
            "count",
        ),
        metric("map.matcher.match_ratio", matched.value, "ratio"),
        metric("map.matcher.match_ratio.base", matched.base, "count"),
        metric("power.evaluate_s", time("power.evaluate"), "s"),
        metric("power.glitch_s", time("power.glitch"), "s"),
        metric("power.glitch.events", count("power.glitch.events"), "count"),
        metric("verify.s", time("verify"), "s"),
        metric("verify.checks", count("verify.checks"), "count"),
        metric("verify.sim.words", count("verify.sim.words"), "count"),
        metric("verify.bdd.fallback_ratio", fallback.value, "ratio"),
        metric("verify.bdd.fallback_ratio.base", fallback.base, "count"),
        metric("lint.s", time("lint"), "s"),
        metric("qor.s", time("qor"), "s"),
        metric(
            "qor.snapshots",
            tracer.calls.get("qor").copied().unwrap_or(0) as f64 / passes,
            "count",
        ),
        metric(
            "par.busy_share",
            busy_share(&durations, threads, untraced.cells_wall_s),
            "ratio",
        ),
        metric("par.tail_cell_ms", tail_ms, "ms"),
        metric("flow.glue_s", glue, "s"),
        metric("flow.traced_wall_s", traced_wall, "s"),
        metric(
            "trace.overhead_pct",
            100.0 * ((traced_wall - time(PROBE)) / serial.wall_s - 1.0),
            "%",
        ),
        metric(
            "fail_rate",
            ratio(failed as f64, untraced.cells.len() as f64).value,
            "ratio",
        ),
    ];
    Outcome {
        correct: failed == 0 && drifted == 0 && deterministic,
        attempted: untraced.cells.len(),
        failed,
        metrics,
        notes,
    }
}
