//! Runtime of the mapper's curve building (§3.1) where it dominates: the
//! suite's largest subject graph, optimized `x3` after MINPOWER
//! decomposition, mapped under both objectives. The match sweep builds
//! every point of every curve, so this measures it with the matcher,
//! phase repair and the preorder around it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genlib::builtin::lib2_like;
use lowpower::flow::{decompose, optimize, FlowConfig};
use lowpower_core::decomp::DecompStyle;
use lowpower_core::map::{map_network, MapOptions};
use std::hint::black_box;

fn bench_map_x3(c: &mut Criterion) {
    let lib = lib2_like();
    let net = optimize(&benchgen::suite_circuit("x3"));
    let cfg = FlowConfig::default();
    let d = decompose(&net, &lib, DecompStyle::MinPower, &cfg).expect("x3 decomposes");
    let aig = d.subject();
    let mut g = c.benchmark_group("map_network_x3_minpower");
    g.sample_size(10);
    for (name, opts) in [("power", MapOptions::power()), ("area", MapOptions::area())] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, opts| {
            b.iter(|| black_box(map_network(black_box(aig), &lib, opts).expect("maps")))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_map_x3);
criterion_main!(benches);
