//! The three workloads, their flow configuration and their inputs.

use benchgen::{paper_suite, random_network, suite_circuit, RandomNetConfig};
use genlib::builtin::lib2_like;
use genlib::Library;
use lint::LintLevel;
use lowpower::flow::{FlowConfig, Method};
use netlist::Network;
use verify::VerifyLevel;

/// The one suite circuit the `checked` workload leaves out: its global
/// BDDs overflow the verifier's node budget, and its checked flow takes
/// about five times as long as the other sixteen circuits together, so it
/// would measure the fallback instead of the checkpoints.
const CHECKED_EXCLUDED: &str = "x3";

/// Generated nodes per `scale_opt` network. At this size the rugged
/// script's superlinear passes take more than two thirds of the workload.
const SCALE_NODES: usize = 2000;

/// Generator seed of the `scale_opt` network. It is fixed like the
/// suite's: the optimized size of a generated network swings by a factor
/// of six from seed to seed, which would bury any change under the spread
/// between runs. One network keeps the optimize stage a single serial
/// call, the least disturbed by the other worker on a two-way host.
const SCALE_SEED: u64 = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's experiment: 17 suite circuits, optimized once, × 6
    /// methods through `run_method` (the `tables23` flow).
    Suite,
    /// A large generated network, optimized, then methods I and V: the
    /// rugged script dominates.
    ScaleOpt,
    /// The suite without `x3` × 6 methods through `run_flow` with full
    /// verification, lint denial and the QoR ledger.
    Checked,
}

/// Input size: the benchmark proper, or a tiny variant for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload as benchmarked.
    Full,
    /// A few small circuits, for tests.
    Tiny,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists all but `scale_opt`, whose
    /// timings spread too widely between runs on a shared two-core host.
    pub const ALL: [Workload; 3] = [Workload::Suite, Workload::ScaleOpt, Workload::Checked];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::ScaleOpt => "scale_opt",
            Workload::Checked => "checked",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when every cell runs the whole flow (`run_flow`, which
    /// optimizes inside the cell); otherwise each circuit is optimized
    /// once and its cells run `run_method` on the shared result.
    pub fn optimizes_per_cell(self) -> bool {
        self == Workload::Checked
    }

    /// Methods run on every circuit.
    pub fn methods(self) -> &'static [Method] {
        match self {
            Workload::ScaleOpt => &[Method::I, Method::V],
            Workload::Suite | Workload::Checked => &Method::ALL,
        }
    }

    /// Flow configuration. The workload seed moves the glitch-simulation
    /// vectors; seed 0 keeps the default stream, so `suite` at seed 0
    /// computes exactly the numbers `tables23` prints.
    pub fn config(self, seed: u64) -> FlowConfig {
        let base = FlowConfig::default();
        let cfg = FlowConfig {
            sim_seed: base.sim_seed ^ seed,
            ..base
        };
        match self {
            Workload::Suite | Workload::ScaleOpt => cfg,
            Workload::Checked => FlowConfig {
                verify: VerifyLevel::Full,
                lint: LintLevel::Deny,
                qor: true,
                ..cfg
            },
        }
    }

    /// Generate the workload's circuits.
    pub fn circuits(self, size: Size) -> Vec<Network> {
        let suite = |keep: &dyn Fn(&str) -> bool| -> Vec<Network> {
            paper_suite()
                .iter()
                .filter(|e| keep(e.name))
                .map(|e| suite_circuit(e.name))
                .collect()
        };
        match (self, size) {
            (Workload::Suite, Size::Full) => suite(&|_| true),
            (Workload::Checked, Size::Full) => suite(&|name| name != CHECKED_EXCLUDED),
            (Workload::Suite | Workload::Checked, Size::Tiny) => {
                suite(&|name| matches!(name, "cm42a" | "x2"))
            }
            (Workload::ScaleOpt, size) => vec![random_network(&RandomNetConfig {
                inputs: 32,
                outputs: 16,
                nodes: if size == Size::Full { SCALE_NODES } else { 60 },
                max_fanin: 3,
                seed: SCALE_SEED,
            })],
        }
    }
}

/// Everything a pass needs: the circuits and the cell library.
pub struct Inputs {
    /// The workload's circuits.
    pub circuits: Vec<Network>,
    /// The cell library.
    pub lib: Library,
}

/// Set-up: generate the circuits and build the library.
pub fn setup(workload: Workload, size: Size) -> Inputs {
    Inputs {
        circuits: workload.circuits(size),
        lib: lib2_like(),
    }
}

/// The `(circuit index, method)` cells of one pass, in table order.
pub fn cells(workload: Workload, circuits: usize) -> Vec<(usize, Method)> {
    (0..circuits)
        .flat_map(|ci| workload.methods().iter().map(move |&m| (ci, m)))
        .collect()
}
