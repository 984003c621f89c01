//! The untraced pass: the real `lowpower::flow` entry points, fanned over
//! `par::scope_map`, with per-cell timestamps; and the output check run
//! after it.

use crate::workload::{cells, Inputs, Workload};
use lowpower::flow::{optimize, run_flow, run_method, FlowConfig, Method, MethodResult};
use lowpower_core::map::MappedNetwork;
use netlist::{Network, Sop};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use verify::{check_equiv, OutputPolicy, Verdict, VerifyLevel, VerifyOptions};

/// What a successful cell produced.
#[derive(Debug)]
pub struct CellQor {
    /// Cell area of the mapped netlist.
    pub area: f64,
    /// Critical-path delay (library model, ns).
    pub delay: f64,
    /// Glitch-aware average power, µW.
    pub power_uw: f64,
    /// The mapped netlist.
    pub mapped: MappedNetwork,
    /// QoR ledger metrics in recording order (empty unless the workload
    /// records a ledger).
    pub ledger: Vec<qor::Metrics>,
}

impl CellQor {
    pub(crate) fn from_result(r: MethodResult) -> CellQor {
        CellQor {
            area: r.report.area,
            delay: r.report.delay,
            power_uw: r.glitch_power_uw,
            ledger: r
                .qor
                .map(|l| l.snapshots.into_iter().map(|s| s.metrics).collect())
                .unwrap_or_default(),
            mapped: r.mapped,
        }
    }
}

/// One `(circuit, method)` run.
#[derive(Debug)]
pub struct Cell {
    /// Index into the workload's circuits.
    pub circuit: usize,
    /// The method.
    pub method: Method,
    /// Start, seconds since the pass began.
    pub start_s: f64,
    /// End, seconds since the pass began.
    pub end_s: f64,
    /// The result, or why the cell failed (a `FlowError` or a panic).
    pub outcome: Result<CellQor, String>,
}

impl Cell {
    /// Cell latency in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// One untraced pass over a workload.
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Wall time of the parallel cell section alone; the rest of the pass
    /// optimizes the circuits shared by their cells.
    pub cells_wall_s: f64,
    /// The cells, in table order.
    pub cells: Vec<Cell>,
}

/// Run `f`, turning a panic into an error message.
pub(crate) fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "unknown panic".to_string());
        Err(format!("panic: {msg}"))
    })
}

/// Run the workload once through the flow entry points on `threads`
/// workers, closed loop: a worker picks the next cell when its last one
/// finishes.
pub fn run_pass(workload: Workload, inputs: &Inputs, cfg: &FlowConfig, threads: usize) -> Pass {
    let t0 = Instant::now();
    let optimized: Vec<Network> = if workload.optimizes_per_cell() {
        Vec::new()
    } else {
        par::scope_map(threads, &inputs.circuits, |_, net| optimize(net))
    };
    let c0 = t0.elapsed().as_secs_f64();
    let cells = par::scope_map(
        threads,
        &cells(workload, inputs.circuits.len()),
        |_, &(ci, method)| {
            let start_s = t0.elapsed().as_secs_f64();
            let outcome = guarded(|| {
                let r = if workload.optimizes_per_cell() {
                    run_flow(&inputs.circuits[ci], &inputs.lib, method, cfg)
                } else {
                    run_method(&optimized[ci], &inputs.lib, method, cfg)
                };
                r.map(CellQor::from_result).map_err(|e| e.to_string())
            });
            Cell {
                circuit: ci,
                method,
                start_s,
                end_s: t0.elapsed().as_secs_f64(),
                outcome,
            }
        },
    );
    let wall_s = t0.elapsed().as_secs_f64();
    Pass {
        wall_s,
        cells_wall_s: wall_s - c0,
        cells,
    }
}

/// Check every successful cell's mapped netlist against its circuit by
/// random simulation. Returns one line per failed cell (flow errors,
/// panics and inequivalent netlists alike).
pub fn check_outputs(inputs: &Inputs, pass: &Pass) -> Vec<String> {
    let opts = VerifyOptions::at_level(VerifyLevel::Sim).with_outputs(OutputPolicy::Exact);
    pass.cells
        .iter()
        .filter_map(|cell| {
            let circuit = &inputs.circuits[cell.circuit];
            let tag = format!("{} method {}", circuit.name(), cell.method);
            let qor = match &cell.outcome {
                Ok(q) => q,
                Err(e) => return Some(format!("{tag}: {e}")),
            };
            let view = qor.mapped.to_network(&inputs.lib, circuit.name());
            let view = match with_constant_outputs(circuit, view) {
                Ok(v) => v,
                Err(e) => return Some(format!("{tag}: {e}")),
            };
            match check_equiv(circuit, &view, &opts) {
                Ok(Verdict::NotEquivalent(cex)) => Some(format!("{tag}: not equivalent: {cex}")),
                Err(e) => Some(format!("{tag}: cannot compare: {e}")),
                Ok(_) => None,
            }
        })
        .collect()
}

/// The flow maps no constant outputs (the library has no tie cells). Give
/// the netlist a constant node for each circuit output it lacks, valued as
/// that output under the all-zero input vector, so the equivalence check
/// also proves the dropped outputs constant.
fn with_constant_outputs(circuit: &Network, mut view: Network) -> Result<Network, String> {
    let present: HashSet<String> = view.outputs().iter().map(|(n, _)| n.clone()).collect();
    let at_zero = circuit.eval_outputs(&vec![false; circuit.inputs().len()]);
    for ((name, _), value) in circuit.outputs().iter().zip(at_zero) {
        if !present.contains(name) {
            let sop = if value { Sop::one(0) } else { Sop::zero(0) };
            let id = view
                .add_logic(format!("{name}$const"), Vec::new(), sop)
                .map_err(|e| e.to_string())?;
            view.add_output(name.clone(), id);
        }
    }
    Ok(view)
}

/// FNV-1a digest over every cell's (area, delay, power) bit patterns in
/// table order; failed cells hash as a marker. Two runs that print the
/// same digest computed the same numbers.
pub fn digest(pass: &Pass) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for cell in &pass.cells {
        match &cell.outcome {
            Ok(q) => {
                for v in [q.area, q.delay, q.power_uw] {
                    eat(&v.to_bits().to_le_bytes());
                }
            }
            Err(_) => eat(b"failed"),
        }
    }
    h
}
