//! Regenerates **Tables 2 and 3** of the paper: gate area, delay and
//! average power of the six method combinations over the benchmark suite,
//! plus the Section 4 summary claims.
//!
//! Methods:
//!   I/II/III — area-delay mapping with conventional / MINPOWER /
//!              bounded-height MINPOWER decomposition,
//!   IV/V/VI  — the same decompositions with power-delay mapping.
//!
//! Usage:
//!   cargo run --release -p lowpower-bench --bin tables23 [-- options]
//! Options:
//!   --circuits a,b,c     subset of suite circuits
//!   --threads N          worker threads for the circuits' optimization
//!                        and for `flow::run_methods`' (circuit × style)
//!                        and (circuit × method) cells
//!                        (default: PAR_THREADS or the machine's cores);
//!                        the output is byte-identical at any setting
//!
//! The §3.1 power bookkeeping and §3.3 fanout-division switches are
//! measured by the `ablation` bin.

use benchgen::{paper_suite, suite_circuit};
use genlib::builtin::lib2_like;
use lowpower::flow::{optimize, run_methods, FlowConfig, Method};
use lowpower_bench::{args_or_exit, summarize, SuiteRow, Takes};

fn main() {
    let args = args_or_exit(
        "tables23 [--circuits a,b,c] [--threads N]",
        Takes::CircuitList,
    );
    let lib = lib2_like();
    let cfg = FlowConfig::default();
    let threads = par::thread_count(args.threads);
    let selected: Vec<&str> = match &args.circuits {
        Some(list) => list.iter().map(String::as_str).collect(),
        None => paper_suite().iter().map(|e| e.name).collect(),
    };

    // Stage 1: the optimized network is shared by all six methods of a
    // circuit, so optimize each circuit once, concurrently.
    let optimized = par::scope_map(threads, &selected, |_, n| optimize(&suite_circuit(n)));

    // Stage 2: each circuit's three decompositions and six mappings, in
    // (circuit, method) order at any thread count.
    let results = run_methods(&optimized, &lib, &cfg, threads).unwrap_or_else(|e| panic!("{e}"));
    let rows: Vec<SuiteRow> = selected
        .iter()
        .zip(results.chunks(Method::ALL.len()))
        .map(|(name, results)| SuiteRow {
            name: name.to_string(),
            methods: results
                .iter()
                .map(|r| (r.report.area, r.report.delay, r.glitch_power_uw))
                .collect(),
        })
        .collect();

    print_table(
        "Table 2: area-delay mapping (ad-map)",
        &rows,
        &[(0, "I conv"), (1, "II minpower"), (2, "III bh-minpower")],
    );
    print_table(
        "Table 3: power-delay mapping (pd-map)",
        &rows,
        &[(3, "IV conv"), (4, "V minpower"), (5, "VI bh-minpower")],
    );

    let s = summarize(&rows);
    println!("\nSection 4 summary (geometric-mean changes)        measured   paper");
    println!(
        "  minpower decomp power (II/I, V/IV):            {:>7.1} %   -3.7 %",
        s.minpower_decomp_power_pct
    );
    println!(
        "  bounded-height power (III/II, VI/V):           {:>7.1} %   -1.6 %",
        s.bounded_power_pct
    );
    println!(
        "  bounded-height delay (III/II, VI/V):           {:>7.1} %   -1.6 %",
        s.bounded_delay_pct
    );
    println!(
        "  pd-map power (IV-VI vs I-III):                 {:>7.1} %  -22   %",
        s.pdmap_power_pct
    );
    println!(
        "  pd-map area  (IV-VI vs I-III):                 {:>7.1} %  +12.4 %",
        s.pdmap_area_pct
    );
    println!(
        "  pd-map delay (IV-VI vs I-III):                 {:>7.1} %   -1.1 %",
        s.pdmap_delay_pct
    );
}

fn print_table(title: &str, rows: &[SuiteRow], cols: &[(usize, &str)]) {
    println!("\n{title}");
    print!("{:<8}", "circuit");
    for (_, label) in cols {
        print!(" | {:^26}", label);
    }
    println!();
    print!("{:-<8}", "");
    for _ in cols {
        print!("-+-{:-<26}", "");
    }
    println!();
    print!("{:<8}", "");
    for _ in cols {
        print!(" | {:>8} {:>8} {:>8}", "area", "delay", "power");
    }
    println!();
    for r in rows {
        print!("{:<8}", r.name);
        for &(m, _) in cols {
            let (a, d, p) = r.methods[m];
            print!(" | {a:>8.1} {d:>8.2} {p:>8.1}");
        }
        println!();
    }
}
