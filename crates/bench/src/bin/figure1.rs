//! Regenerates **Figure 1** of the paper: the effect of technology
//! decomposition on total switching activity for a 4-input AND gate with
//! `P(a)=0.3, P(b)=0.4, P(c)=0.7, P(d)=0.5` under p-type domino logic.
//!
//! Paper values: SR(A) = 2.146 (chain ((a·b)·c)·d), SR(B) = 2.412
//! (balanced (a·b)·(c·d)). Huffman's optimum is better than both.
//!
//! Usage: `cargo run -p lowpower-bench --bin figure1 [--threads N]`
//!
//! The three configurations are independent and run concurrently; the
//! output is identical at any thread count.

use activity::TransitionModel;
use lowpower_bench::{args_or_exit, Takes};
use lowpower_core::decomp::{minpower_tree, DecompObjective, DecompTree, GateKind};

fn main() {
    let threads = par::thread_count(args_or_exit("figure1 [--threads N]", Takes::Nothing).threads);
    let obj = DecompObjective::new(TransitionModel::DominoP, GateKind::And);
    let p = [0.3, 0.4, 0.7, 0.5];

    let configs: Vec<usize> = vec![0, 1, 2];
    let mut trees = par::scope_map(threads, &configs, |_, &which| match which {
        // Configuration A: ((a·b)·c)·d
        0 => {
            let ab = DecompTree::merge(DecompTree::leaf(0, p[0]), DecompTree::leaf(1, p[1]), obj);
            let abc = DecompTree::merge(ab, DecompTree::leaf(2, p[2]), obj);
            DecompTree::merge(abc, DecompTree::leaf(3, p[3]), obj)
        }
        // Configuration B: (a·b)·(c·d)
        1 => {
            let ab = DecompTree::merge(DecompTree::leaf(0, p[0]), DecompTree::leaf(1, p[1]), obj);
            let cd = DecompTree::merge(DecompTree::leaf(2, p[2]), DecompTree::leaf(3, p[3]), obj);
            DecompTree::merge(ab, cd, obj)
        }
        // MINPOWER (Huffman, optimal for domino + uncorrelated — Theorem 2.2)
        _ => minpower_tree(&p, obj),
    });
    let h = trees.pop().expect("three configs");
    let b = trees.pop().expect("three configs");
    let a = trees.pop().expect("three configs");

    println!("Figure 1: 4-input AND, P = (0.3, 0.4, 0.7, 0.5), p-type domino\n");
    println!(
        "{:<34} {:>8} {:>8} {:>8}",
        "configuration", "SR", "internal", "paper SR"
    );
    println!("{:-<34} {:-<8} {:-<8} {:-<8}", "", "", "", "");
    println!(
        "{:<34} {:>8.3} {:>8.3} {:>8}",
        "A: chain ((a*b)*c)*d",
        a.total_cost(obj),
        a.internal_cost(obj),
        "2.146"
    );
    println!(
        "{:<34} {:>8.3} {:>8.3} {:>8}",
        "B: balanced (a*b)*(c*d)",
        b.total_cost(obj),
        b.internal_cost(obj),
        "2.412"
    );
    println!(
        "{:<34} {:>8.3} {:>8.3} {:>8}",
        format!("Huffman optimum {}", h.canonical_string()),
        h.total_cost(obj),
        h.internal_cost(obj),
        "-"
    );
}
