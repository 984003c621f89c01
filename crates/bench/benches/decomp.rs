//! Runtime scaling of the decomposition algorithms (Section 2):
//! Huffman (`O(n log n)`-class), Modified Huffman (`O(n² log n)`, Algorithm
//! 2.2), the feasibility-guarded bounded greedy, the Larmore–Hirschberg
//! package-merge, the Figure-1-sized exhaustive oracle, and whole-network
//! decomposition in each style, including the §2.3 bounded-height loop.

use activity::TransitionModel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lowpower_core::decomp::{
    bounded_minpower_tree, exhaustive_minpower, huffman_tree, modified_huffman_tree,
    package_merge_levels, DecompObjective, GateKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_probs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0.01..0.99)).collect()
}

fn bench_tree_builders(c: &mut Criterion) {
    let domino = DecompObjective::new(TransitionModel::DominoP, GateKind::And);
    let stat = DecompObjective::new(TransitionModel::StaticCmos, GateKind::And);
    let mut g = c.benchmark_group("tree_decomposition");
    for &n in &[8usize, 16, 32, 64] {
        let probs = random_probs(n, 42);
        g.bench_with_input(BenchmarkId::new("huffman_domino", n), &probs, |b, p| {
            b.iter(|| black_box(huffman_tree(p, domino)))
        });
        g.bench_with_input(
            BenchmarkId::new("modified_huffman_static", n),
            &probs,
            |b, p| b.iter(|| black_box(modified_huffman_tree(p, stat))),
        );
        let bound = (n as f64).log2().ceil() as usize + 1;
        g.bench_with_input(BenchmarkId::new("bounded_minpower", n), &probs, |b, p| {
            b.iter(|| black_box(bounded_minpower_tree(p, stat, bound)))
        });
        g.bench_with_input(BenchmarkId::new("package_merge", n), &probs, |b, p| {
            b.iter(|| black_box(package_merge_levels(p, bound)))
        });
    }
    g.finish();
}

fn bench_exhaustive_oracle(c: &mut Criterion) {
    let stat = DecompObjective::new(TransitionModel::StaticCmos, GateKind::And);
    let mut g = c.benchmark_group("exhaustive_oracle");
    for &n in &[4usize, 5, 6] {
        let probs = random_probs(n, 7);
        g.bench_with_input(BenchmarkId::from_parameter(n), &probs, |b, p| {
            b.iter(|| black_box(exhaustive_minpower(p, stat)))
        });
    }
    g.finish();
}

fn bench_network_decomposition(c: &mut Criterion) {
    use activity::NetworkBdds;
    use lowpower::flow::optimize;
    use lowpower_core::decomp::{
        decompose_network, decompose_network_with, DecompOptions, DecompStyle,
    };
    let net = optimize(&benchgen::suite_circuit("s510"));
    let mut g = c.benchmark_group("network_decomposition_s510");
    for (label, style) in [
        ("conventional", DecompStyle::Conventional),
        ("minpower", DecompStyle::MinPower),
        ("bounded", DecompStyle::BoundedMinPower),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| black_box(decompose_network(&net, &DecompOptions::new(style))))
        });
    }
    g.finish();

    // s510 meets its timing target after the MINPOWER pass; optimized x3
    // runs the §2.3 loop for 74 rounds. Its BDDs are built once, outside
    // the measurement (without correlations the decomposition only reads
    // them).
    let net = optimize(&benchgen::suite_circuit("x3"));
    let mut bdds = NetworkBdds::build(&net, &vec![0.5; net.inputs().len()]);
    let opts = DecompOptions::new(DecompStyle::BoundedMinPower);
    let mut g = c.benchmark_group("network_decomposition_x3");
    g.bench_function("bounded", |b| {
        b.iter(|| black_box(decompose_network_with(&net, &opts, &mut bdds)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tree_builders,
    bench_exhaustive_oracle,
    bench_network_decomposition
);
criterion_main!(benches);
