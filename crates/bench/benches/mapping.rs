//! Runtime of the technology-mapping pipeline (Section 3): pattern
//! compilation, subject-graph construction, and the full ad-map / pd-map
//! passes over benchmark circuits.

use activity::{analyze, TransitionModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genlib::builtin::lib2_like;
use lowpower::flow::{decompose, optimize, FlowConfig};
use lowpower_core::decomp::{decompose_network, DecompOptions, DecompStyle};
use lowpower_core::map::{map_network, MapOptions, PatternSet, SubjectAig};
use std::hint::black_box;

fn bench_pattern_compilation(c: &mut Criterion) {
    let lib = lib2_like();
    c.bench_function("pattern_set_from_library", |b| {
        b.iter(|| black_box(PatternSet::from_library(&lib)))
    });
}

fn prepared(name: &str) -> SubjectAig {
    let net = optimize(&benchgen::suite_circuit(name));
    let cfg = FlowConfig::default();
    let d = decompose(&net, &lib2_like(), DecompStyle::MinPower, &cfg).expect("mappable");
    d.subject().clone()
}

fn bench_subject_construction(c: &mut Criterion) {
    let net = optimize(&benchgen::suite_circuit("s510"));
    let d = decompose_network(&net, &DecompOptions::new(DecompStyle::MinPower));
    let (mappable, _) = lowpower::flow::strip_constant_outputs(&d.network);
    let probs = vec![0.5; mappable.inputs().len()];
    let act = analyze(&mappable, &probs, TransitionModel::StaticCmos);
    c.bench_function("subject_aig_s510", |b| {
        b.iter(|| black_box(SubjectAig::from_network(&mappable, &act).expect("mappable")))
    });
}

fn bench_mapping(c: &mut Criterion) {
    let lib = lib2_like();
    let mut g = c.benchmark_group("map_network");
    g.sample_size(20);
    for name in ["x2", "s344", "s510"] {
        let aig = prepared(name);
        g.bench_with_input(BenchmarkId::new("ad_map", name), &aig, |b, aig| {
            b.iter(|| black_box(map_network(aig, &lib, &MapOptions::area()).expect("maps")))
        });
        g.bench_with_input(BenchmarkId::new("pd_map", name), &aig, |b, aig| {
            b.iter(|| black_box(map_network(aig, &lib, &MapOptions::power()).expect("maps")))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_pattern_compilation,
    bench_subject_construction,
    bench_mapping
);
criterion_main!(benches);
