//! Micro-benchmarks of the hot-path kernels the perf work targets:
//! seeded activity simulation (1, 2 and 4 threads), structural matching
//! with a reused scratch [`Matcher`], incremental curve
//! insertion + finalize, technology decomposition, and the glitch-power
//! simulation of a mapped netlist (1 and 2 threads).

use activity::sim::simulate_activity_seeded;
use activity::{analyze, TransitionModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lowpower::flow::{optimize, run_method, FlowConfig, Method};
use lowpower_core::decomp::{decompose_network, DecompOptions, DecompStyle};
use lowpower_core::map::{BindingRange, Curve, Matcher, PatternSet, Point, SubjectAig};
use lowpower_core::power::simulate_glitch_power;
use std::hint::black_box;

fn decomposed(name: &str) -> netlist::Network {
    let net = optimize(&benchgen::suite_circuit(name));
    let d = decompose_network(&net, &DecompOptions::new(DecompStyle::MinPower));
    lowpower::flow::strip_constant_outputs(&d.network).0
}

fn bench_activity_sim(c: &mut Criterion) {
    let net = decomposed("s344");
    let probs = vec![0.5; net.inputs().len()];
    let mut g = c.benchmark_group("simulate_activity_s344_4096v");
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("seeded", threads),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(simulate_activity_seeded(&net, &probs, 4096, 7, threads)))
            },
        );
    }
    g.finish();
}

fn bench_matcher(c: &mut Criterion) {
    let lib = genlib::builtin::lib2_like();
    let ps = PatternSet::from_library(&lib);
    let net = decomposed("s510");
    let probs = vec![0.5; net.inputs().len()];
    let act = analyze(&net, &probs, TransitionModel::StaticCmos);
    let aig = SubjectAig::from_network(&net, &act).expect("mappable");
    c.bench_function("matches_at_s510_all_nodes/reused_scratch", |b| {
        b.iter(|| {
            let mut matcher = Matcher::new();
            let mut total = 0usize;
            for node in 0..aig.len() as u32 {
                total += matcher.matches_at(&aig, &ps, node).len();
            }
            black_box(total)
        })
    });
}

/// Deterministic pseudo-random point stream (no RNG state to carry).
fn point(i: u64) -> Point {
    let h = par::split_seed(0xC0FFEE, i);
    Point {
        arrival: (h & 0xFFFF) as f64 / 655.36,
        cost: (h >> 16 & 0xFFFF) as f64 / 655.36,
        drive: 1.0,
        gate: None,
        inputs: BindingRange::EMPTY,
    }
}

fn bench_curve(c: &mut Criterion) {
    let mut g = c.benchmark_group("curve_push_finalize_1000pts");
    g.bench_function("incremental", |b| {
        b.iter(|| {
            let mut curve = Curve::new();
            for i in 0..1000 {
                curve.push(point(i));
            }
            curve.finalize(0.05);
            black_box(curve.points().len())
        })
    });
    g.finish();
}

fn bench_decompose(c: &mut Criterion) {
    let net = optimize(&benchgen::suite_circuit("s344"));
    let mut g = c.benchmark_group("decompose_network_s344");
    for style in [DecompStyle::Conventional, DecompStyle::MinPower] {
        g.bench_with_input(
            BenchmarkId::new("style", format!("{style:?}")),
            &style,
            |b, &style| b.iter(|| black_box(decompose_network(&net, &DecompOptions::new(style)))),
        );
    }
    g.finish();
}

fn bench_glitch_sim(c: &mut Criterion) {
    let lib = genlib::builtin::lib2_like();
    let cfg = FlowConfig::default();
    let net = optimize(&benchgen::suite_circuit("s344"));
    let mapped = run_method(&net, &lib, Method::V, &cfg)
        .expect("s344 maps")
        .mapped;
    let probs = vec![0.5; mapped.pi_names.len()];
    let mut g = c.benchmark_group("simulate_glitch_power_s344_v_600v");
    for threads in [1usize, 2] {
        g.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| {
                black_box(simulate_glitch_power(
                    &mapped,
                    &lib,
                    &cfg.env,
                    &probs,
                    600,
                    cfg.sim_seed,
                    cfg.po_load,
                    t,
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_activity_sim,
    bench_matcher,
    bench_curve,
    bench_decompose,
    bench_glitch_sim
);
criterion_main!(benches);
