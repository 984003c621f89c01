//! Runtime of the technology-independent optimizer (the rugged-like
//! script and its component passes) on suite circuits, and of the script
//! on a 2 000-node generated network, where superlinear passes show.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_rugged(c: &mut Criterion) {
    let mut g = c.benchmark_group("rugged_like");
    g.sample_size(10);
    let mut nets: Vec<(&str, netlist::Network)> = ["x2", "s344", "alu2"]
        .into_iter()
        .map(|name| (name, benchgen::suite_circuit(name)))
        .collect();
    // The 2 000-node network of flowbench's `scale_opt` workload.
    let scale = benchgen::RandomNetConfig {
        inputs: 32,
        outputs: 16,
        nodes: 2000,
        max_fanin: 3,
        seed: 3,
    };
    nets.push(("random2000", benchgen::random_network(&scale)));
    for (name, net) in &nets {
        g.bench_with_input(BenchmarkId::from_parameter(name), net, |b, net| {
            b.iter(|| {
                let mut n = net.clone();
                logicopt::rugged_like(&mut n);
                black_box(n)
            })
        });
    }
    g.finish();
}

fn bench_passes(c: &mut Criterion) {
    let net = benchgen::suite_circuit("s344");
    let mut g = c.benchmark_group("logicopt_passes_s344");
    g.sample_size(20);
    g.bench_function("sweep", |b| {
        b.iter(|| {
            let mut n = net.clone();
            black_box(logicopt::sweep::sweep(&mut n))
        })
    });
    g.bench_function("simplify", |b| {
        b.iter(|| {
            let mut n = net.clone();
            black_box(logicopt::simplify::simplify_network(&mut n))
        })
    });
    g.bench_function("eliminate", |b| {
        b.iter(|| {
            let mut n = net.clone();
            black_box(logicopt::eliminate::eliminate(&mut n, -1))
        })
    });
    g.bench_function("extract", |b| {
        b.iter(|| {
            let mut n = net.clone();
            black_box(logicopt::extract::extract(&mut n, 0))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_rugged, bench_passes);
criterion_main!(benches);
