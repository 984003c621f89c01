//! Runtime of the BDD substrate: global-BDD construction and the
//! signal-probability traversal (eq. 2) on structured and random circuits.

use activity::{analyze, NetworkBdds, TransitionModel};
use benchgen::structured::ripple_adder;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lowpower::flow::optimize;
use std::hint::black_box;

fn bench_adder_bdds(c: &mut Criterion) {
    // The adder declares its inputs a0..an b0..bn, the bad order for adder
    // BDDs. The depth-first variable order interleaves each bit's operands
    // instead, so the BDDs grow quadratically with width, not
    // exponentially.
    let mut g = c.benchmark_group("network_bdds_adder");
    g.sample_size(20);
    for &bits in &[8usize, 16, 32] {
        let net = ripple_adder(bits);
        let probs = vec![0.5; net.inputs().len()];
        g.bench_with_input(BenchmarkId::from_parameter(bits), &net, |b, net| {
            b.iter(|| black_box(NetworkBdds::build(net, &probs)))
        });
    }
    g.finish();
}

fn bench_x3_bdds(c: &mut Criterion) {
    // The suite's BDD-hostile circuit, as the flow sees it after optimize.
    let net = optimize(&benchgen::suite_circuit("x3"));
    let probs = vec![0.5; net.inputs().len()];
    c.bench_function("network_bdds_x3_optimized", |b| {
        b.iter(|| black_box(NetworkBdds::build(&net, &probs)))
    });
}

fn bench_analyze_suite(c: &mut Criterion) {
    let mut g = c.benchmark_group("analyze_activity");
    for name in ["cm42a", "x2", "s344"] {
        let net = benchgen::suite_circuit(name);
        let probs = vec![0.5; net.inputs().len()];
        g.bench_with_input(BenchmarkId::from_parameter(name), &net, |b, net| {
            b.iter(|| black_box(analyze(net, &probs, TransitionModel::StaticCmos)))
        });
    }
    g.finish();
}

fn bench_probability_traversal(c: &mut Criterion) {
    let net = ripple_adder(8);
    let probs = vec![0.5; net.inputs().len()];
    let bdds = NetworkBdds::build(&net, &probs);
    let cout = net.find("c8").expect("carry out exists");
    c.bench_function("probability_traversal_adder8_cout", |b| {
        b.iter(|| black_box(bdds.p_one(cout)))
    });
}

criterion_group!(
    benches,
    bench_adder_bdds,
    bench_x3_bdds,
    bench_analyze_suite,
    bench_probability_traversal
);
criterion_main!(benches);
