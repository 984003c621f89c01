//! Thread-count invariance of the parallel execution layer.
//!
//! The contract of `crates/par` and the chunked kernels built on it is
//! that results depend **only on inputs** — never on the thread count or
//! the scheduling of chunks. These tests pin that contract end to end:
//!
//! * full six-method flow runs on suite circuits render byte-identical
//!   reports serially and with 2 `run_methods` workers at
//!   `sim_threads = 4`;
//! * the chunked seeded activity simulation matches an independently
//!   written serial reference exactly, for arbitrary vector counts
//!   (including non-multiples of 64) at any thread count;
//! * the verify crate's parallel random-sim backend reports the same
//!   verdict — and the same counterexample — at any thread count.

use activity::sim::bernoulli_word;
use genlib::builtin::lib2_like;
use lowpower::flow::{optimize, run_methods, FlowConfig, Method, MethodResult};
use lowpower::verify::{check_equiv, Verdict, VerifyLevel, VerifyOptions};
use netlist::{parse_blif, Network};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Render everything observable about a method run. `{:?}` on the floats
/// prints the shortest exact round-trip representation, so string equality
/// is bit equality.
fn render(r: &MethodResult, lib: &genlib::Library) -> String {
    format!(
        "report={:?}\nglitch={:?}\ndepth={}\nswitching={:?}\nblif:\n{}",
        r.report,
        r.glitch_power_uw,
        r.decomp_depth,
        r.decomp_switching,
        r.mapped.to_blif(lib, "m")
    )
}

#[test]
fn six_methods_thread_invariant_on_suite_circuits() {
    let lib = lib2_like();
    let names = ["s208", "cm42a", "x2"];
    let optimized: Vec<Network> = names
        .iter()
        .map(|name| optimize(&benchgen::suite_circuit(name)))
        .collect();
    let renders = |sim_threads, threads| -> Vec<String> {
        let cfg = FlowConfig {
            sim_vectors: 256,
            sim_threads,
            ..FlowConfig::default()
        };
        let results = run_methods(&optimized, &lib, &cfg, threads);
        let results = results.unwrap_or_else(|e| panic!("{e}"));
        results.iter().map(|r| render(r, &lib)).collect()
    };
    let cells = names.iter().flat_map(|name| Method::ALL.map(|m| (name, m)));
    for ((a, b), (name, m)) in renders(1, 1).iter().zip(renders(4, 2)).zip(cells) {
        assert_eq!(a, &b, "{name} method {m}: serial and parallel differ");
    }
}

/// Repeated in-process runs exercise fresh hash seeds for every std
/// `HashMap` the passes create (the per-thread `RandomState` counter
/// advances each time), so this catches results that leak hash iteration
/// order — the exact failure mode once found in `fast_extract`'s candidate
/// scoring, where a hash-ordered tie-break picked different divisors in
/// different processes.
#[test]
fn optimize_is_hash_seed_invariant() {
    for name in ["cm42a", "x2", "s208"] {
        let net = benchgen::suite_circuit(name);
        let runs: Vec<String> = (0..3)
            .map(|_| netlist::write_blif(&optimize(&net)))
            .collect();
        assert!(
            runs.windows(2).all(|w| w[0] == w[1]),
            "{name}: optimize produced different networks across repeated runs"
        );
    }
}

/// Independent serial reference for the seeded activity simulation: one
/// plain loop over words, drawing word `w` from a generator seeded with
/// `par::split_seed(master_seed, w)` — the same stream contract as the
/// chunked kernel, without any chunking.
fn reference_seeded_sim(
    net: &Network,
    pi_probs: &[f64],
    vectors: usize,
    master_seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    let arena = net.arena_len();
    let words = vectors.div_ceil(64);
    let mut ones = vec![0u64; arena];
    let mut transitions = vec![0u64; arena];
    let mut last_bits = vec![0u64; arena];
    let mut pi_words = vec![0u64; pi_probs.len()];
    for w in 0..words {
        let mut rng = SmallRng::seed_from_u64(par::split_seed(master_seed, w as u64));
        for (word, &p) in pi_words.iter_mut().zip(pi_probs) {
            *word = bernoulli_word(&mut rng, p.clamp(0.0, 1.0));
        }
        let values = net.eval_words(&pi_words);
        let lanes = if w + 1 == words { vectors - w * 64 } else { 64 };
        let mask = if lanes == 64 {
            !0u64
        } else {
            (1u64 << lanes) - 1
        };
        for i in 0..arena {
            let v = values[i] & mask;
            ones[i] += v.count_ones() as u64;
            transitions[i] += ((v ^ (v >> 1)) & (mask >> 1)).count_ones() as u64;
            if w > 0 && last_bits[i] != (v & 1) {
                transitions[i] += 1;
            }
            last_bits[i] = v >> (lanes - 1) & 1;
        }
    }
    (
        ones.iter().map(|&c| c as f64 / vectors as f64).collect(),
        transitions
            .iter()
            .map(|&c| c as f64 / (vectors - 1) as f64)
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn chunked_activity_sim_matches_serial_reference(
        inputs in 2usize..6,
        nodes in 1usize..20,
        vectors in 2usize..400,
        threads in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let net = benchgen::random_network(&benchgen::RandomNetConfig {
            inputs,
            outputs: 2,
            nodes,
            max_fanin: 3,
            seed,
        });
        let probs = vec![0.5; net.inputs().len()];
        let (ref_p, ref_s) = reference_seeded_sim(&net, &probs, vectors, seed);
        let sim = activity::sim::simulate_activity_seeded(&net, &probs, vectors, seed, threads);
        for id in net.node_ids() {
            prop_assert_eq!(sim.p_one(id), ref_p[id.index()], "p_one at {:?}", id);
            prop_assert_eq!(sim.switching(id), ref_s[id.index()], "switching at {:?}", id);
        }
    }
}

#[test]
fn verify_sim_backend_thread_invariant() {
    // f = a·b vs f = a+b: inequivalent, so the sim backend must find —
    // and minimize — the same counterexample at every thread count.
    let and2 = parse_blif(".model a\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n")
        .unwrap()
        .network;
    let or2 = parse_blif(".model o\n.inputs a b\n.outputs f\n.names a b f\n1- 1\n-1 1\n.end\n")
        .unwrap()
        .network;
    let opts = |t: usize| VerifyOptions::at_level(VerifyLevel::Sim).with_threads(t);
    let serial = check_equiv(&and2, &or2, &opts(1)).expect("comparable");
    let Verdict::NotEquivalent(base) = serial else {
        panic!("AND vs OR must be caught")
    };
    for t in [2usize, 4, 7] {
        let v = check_equiv(&and2, &or2, &opts(t)).expect("comparable");
        let Verdict::NotEquivalent(cex) = v else {
            panic!("AND vs OR must be caught at {t} threads")
        };
        assert_eq!(format!("{base}"), format!("{cex}"), "{t} threads");
    }
    // Equivalent pair: same verdict and vector count at any thread count.
    let same = check_equiv(&and2, &and2, &opts(5)).expect("comparable");
    assert!(same.is_ok());
}
