//! Regenerates **Table 1** of the paper: percentage of trials in which the
//! Modified Huffman algorithm finds the true minimum-power static-CMOS AND
//! decomposition, against exhaustive enumeration of all merge histories.
//!
//! Paper protocol (§4): for each input count `n ∈ {3,4,5,6}`, 500 random
//! probability patterns; all possible AND decompositions enumerated to find
//! the optimum. Paper result: 100 / 96 / 93 / 88 %.
//!
//! Usage:
//!   `cargo run --release -p lowpower-bench --bin table1 [trials] [--threads N]`
//!
//! Each row (input count) draws from its own seeded stream, so the rows
//! run concurrently and the table is identical at any thread count.

use activity::TransitionModel;
use lowpower_bench::{args_or_exit, Takes};
use lowpower_core::decomp::{
    exhaustive_minpower, modified_huffman_tree, DecompObjective, GateKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = args_or_exit("table1 [trials] [--threads N]", Takes::Trials);
    let trials = args.trials.unwrap_or(500);
    let threads = par::thread_count(args.threads);
    let obj = DecompObjective::new(TransitionModel::StaticCmos, GateKind::And);
    println!("Table 1: Modified Huffman optimality (static CMOS AND decomposition)");
    println!("{trials} random input patterns per row, exhaustive oracle\n");
    println!(
        "{:>17} | {:>28} | {:>6}",
        "numbers of input", "% of getting optimal result", "paper"
    );
    println!("{:-<17}-+-{:-<28}-+-{:-<6}", "", "", "");
    let paper = [100, 96, 93, 88];
    let ns: Vec<usize> = (3..=6).collect();
    // Each row owns an independent seeded stream — fan the rows out.
    let pcts: Vec<f64> = par::scope_map(threads, &ns, |_, &n| {
        let mut rng = StdRng::seed_from_u64(0xF00D + n as u64);
        let mut optimal = 0usize;
        for _ in 0..trials {
            let probs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..0.99)).collect();
            let greedy = modified_huffman_tree(&probs, obj).internal_cost(obj);
            let (best, _) = exhaustive_minpower(&probs, obj);
            if greedy <= best + 1e-9 {
                optimal += 1;
            }
        }
        100.0 * optimal as f64 / trials as f64
    });
    for (row, (&n, pct)) in ns.iter().zip(pcts).enumerate() {
        println!("{n:>17} | {pct:>28.1} | {:>6}", paper[row]);
    }
}
