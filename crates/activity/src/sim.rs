//! Monte-Carlo switching-activity estimation by logic simulation.
//!
//! Applies independent random vectors drawn from the primary-input
//! probabilities and counts zero-delay transitions between consecutive
//! vectors. Used to cross-validate the analytic BDD numbers — under the
//! zero-delay, temporally independent model the two must agree within
//! sampling error.
//!
//! Simulation is bit-parallel: 64 vectors are packed per machine word and
//! one [`Network::eval_words`] pass evaluates all of them. The same kernel
//! (word evaluation plus [`bernoulli_word`] input generation) backs the
//! `verify` crate's random-simulation equivalence backend.

use netlist::{Network, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One 64-lane word of independent Bernoulli samples: each bit of the
/// result is 1 with probability `p` (clamped to `[0, 1]`).
///
/// `p = 0.5` takes the one-draw fast path; degenerate probabilities are
/// exact (all-ones / all-zeros), so deterministic inputs never switch.
pub fn bernoulli_word<R: Rng>(rng: &mut R, p: f64) -> u64 {
    if p >= 1.0 {
        return !0;
    }
    if p <= 0.0 {
        return 0;
    }
    if p == 0.5 {
        return rng.next_u64();
    }
    let mut w = 0u64;
    for bit in 0..64 {
        if rng.gen_bool(p) {
            w |= 1 << bit;
        }
    }
    w
}

/// Estimated activities from logic simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimActivity {
    p_one: Vec<f64>,
    switching: Vec<f64>,
    vectors: usize,
}

impl SimActivity {
    /// Estimated `P(node = 1)`.
    pub fn p_one(&self, node: NodeId) -> f64 {
        self.p_one[node.index()]
    }

    /// Estimated transitions per cycle at the node (static CMOS model).
    pub fn switching(&self, node: NodeId) -> f64 {
        self.switching[node.index()]
    }

    /// Number of vectors simulated.
    pub fn vectors(&self) -> usize {
        self.vectors
    }
}

/// Per-node statistics of one contiguous word range of the seeded
/// simulation: enough to stitch ranges back together exactly.
struct WordRangeStats {
    /// Ones per node over the range's (masked) lanes.
    ones: Vec<u64>,
    /// Transitions per node, counting only adjacencies *inside* the range
    /// (within words and across the range's internal word boundaries).
    transitions: Vec<u64>,
    /// Per node: lane 0 of the range's first word.
    first_bits: Vec<bool>,
    /// Per node: last valid lane of the range's last word.
    last_bits: Vec<bool>,
}

/// Simulate one word range `[range.start, range.end)` of the seeded vector
/// stream. Word `w` draws its primary-input words from a fresh generator
/// seeded with `par::split_seed(master_seed, w)`, so the stream is a pure
/// function of the global word index.
fn simulate_word_range(
    net: &Network,
    pi_probs: &[f64],
    vectors: usize,
    master_seed: u64,
    range: std::ops::Range<usize>,
) -> WordRangeStats {
    let arena = net.arena_len();
    let words = vectors.div_ceil(64);
    obs::counter!("activity.sim.words", range.len() as u64);
    let mut stats = WordRangeStats {
        ones: vec![0; arena],
        transitions: vec![0; arena],
        first_bits: vec![false; arena],
        last_bits: vec![false; arena],
    };
    let mut pi_words = vec![0u64; pi_probs.len()];
    for w in range.clone() {
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
        for id in net.node_ids() {
            let i = id.index();
            let v = values[i] & mask;
            stats.ones[i] += v.count_ones() as u64;
            let adjacent = (v ^ (v >> 1)) & (mask >> 1);
            stats.transitions[i] += adjacent.count_ones() as u64;
            if w > range.start && stats.last_bits[i] != (v & 1 == 1) {
                stats.transitions[i] += 1;
            }
            if w == range.start {
                stats.first_bits[i] = v & 1 == 1;
            }
            stats.last_bits[i] = v >> (lanes - 1) & 1 == 1;
        }
    }
    stats
}

/// Simulate `vectors` random input vectors and estimate per-node activity.
///
/// The `vectors`-long stream is cut into 64-lane words (bit `k` of word `w`
/// is vector `64·w + k`; transition counting follows that order, including
/// across word boundaries), each word's inputs are drawn from a generator
/// seeded by `par::split_seed(master_seed, word_index)`, and word ranges
/// are simulated on up to `threads` workers. Per-range `ones` /
/// `transitions` tallies are stitched in range order (adding the boundary
/// transition between one range's last lane and the next range's first),
/// so the estimate is **bit-identical at every thread count** — including
/// `threads = 1`, which is the serial reference the determinism proptests
/// compare against.
///
/// # Panics
/// Panics if `pi_probs.len()` differs from the input count, or if
/// `vectors < 2`.
pub fn simulate_activity_seeded(
    net: &Network,
    pi_probs: &[f64],
    vectors: usize,
    master_seed: u64,
    threads: usize,
) -> SimActivity {
    assert_eq!(
        pi_probs.len(),
        net.inputs().len(),
        "PI probability count mismatch"
    );
    assert!(vectors >= 2, "need at least two vectors");
    let words = vectors.div_ceil(64);
    let ranges = par::split_ranges(words, threads.max(1) * 4);
    let stats = par::scope_map(threads, &ranges, |_, r| {
        simulate_word_range(net, pi_probs, vectors, master_seed, r.clone())
    });
    let arena = net.arena_len();
    let mut ones = vec![0u64; arena];
    let mut transitions = vec![0u64; arena];
    let mut prev_last: Option<Vec<bool>> = None;
    for s in stats {
        for i in 0..arena {
            ones[i] += s.ones[i];
            transitions[i] += s.transitions[i];
            if let Some(last) = &prev_last {
                if last[i] != s.first_bits[i] {
                    transitions[i] += 1;
                }
            }
        }
        prev_last = Some(s.last_bits);
    }
    let p_one = ones.iter().map(|&c| c as f64 / vectors as f64).collect();
    let switching = transitions
        .iter()
        .map(|&c| c as f64 / (vectors - 1) as f64)
        .collect();
    SimActivity {
        p_one,
        switching,
        vectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::analyze;
    use crate::transition::TransitionModel;
    use netlist::parse_blif;
    use rand::SeedableRng;

    #[test]
    fn simulation_agrees_with_bdd_analysis() {
        let net = parse_blif(
            ".model r\n.inputs a b c d\n.outputs f g\n.names a b x\n11 1\n\
             .names c d y\n1- 1\n-1 1\n.names x y f\n10 1\n01 1\n.names x c g\n11 1\n.end\n",
        )
        .unwrap()
        .network;
        let probs = [0.3, 0.6, 0.5, 0.8];
        let act = analyze(&net, &probs, TransitionModel::StaticCmos);
        let sim = simulate_activity_seeded(&net, &probs, 60_000, 42, 1);
        for id in net.node_ids() {
            let dp = (act.p_one(id) - sim.p_one(id)).abs();
            let ds = (act.switching(id) - sim.switching(id)).abs();
            assert!(dp < 0.01, "p_one mismatch at {}: {dp}", net.node(id).name());
            assert!(
                ds < 0.01,
                "switching mismatch at {}: {ds}",
                net.node(id).name()
            );
        }
    }

    #[test]
    fn partial_final_word_statistics_are_sane() {
        // A vector count far from a multiple of 64 must still normalize
        // correctly (the masked tail lanes must not count).
        let net = parse_blif(".model t\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n")
            .unwrap()
            .network;
        let sim = simulate_activity_seeded(&net, &[0.5], 100_001, 5, 1);
        let f = net.find("f").unwrap();
        assert!((sim.p_one(f) - 0.5).abs() < 0.01, "p_one {}", sim.p_one(f));
        assert!(
            (sim.switching(f) - 0.5).abs() < 0.01,
            "sw {}",
            sim.switching(f)
        );
    }

    #[test]
    fn deterministic_inputs_never_switch() {
        let net = parse_blif(".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n")
            .unwrap()
            .network;
        let sim = simulate_activity_seeded(&net, &[1.0, 1.0], 100, 1, 1);
        let f = net.find("f").unwrap();
        assert_eq!(sim.p_one(f), 1.0);
        assert_eq!(sim.switching(f), 0.0);
    }

    #[test]
    fn bernoulli_word_extremes_and_bias() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert_eq!(bernoulli_word(&mut rng, 1.0), !0);
        assert_eq!(bernoulli_word(&mut rng, 0.0), 0);
        let mut ones = 0u32;
        for _ in 0..2000 {
            ones += bernoulli_word(&mut rng, 0.25).count_ones();
        }
        let freq = ones as f64 / (2000.0 * 64.0);
        assert!((freq - 0.25).abs() < 0.01, "frequency {freq}");
    }

    #[test]
    fn seeded_simulation_thread_invariant() {
        let net = parse_blif(
            ".model r\n.inputs a b c d\n.outputs f g\n.names a b x\n11 1\n\
             .names c d y\n1- 1\n-1 1\n.names x y f\n10 1\n01 1\n.names x c g\n11 1\n.end\n",
        )
        .unwrap()
        .network;
        let probs = [0.3, 0.6, 0.5, 0.8];
        // Off-multiple-of-64 vector counts stress range boundaries.
        for vectors in [2usize, 63, 64, 65, 1000, 1001] {
            let base = simulate_activity_seeded(&net, &probs, vectors, 0xFEED, 1);
            for threads in [2usize, 4, 7] {
                let par = simulate_activity_seeded(&net, &probs, vectors, 0xFEED, threads);
                for id in net.node_ids() {
                    assert_eq!(base.p_one(id), par.p_one(id), "p_one @ {vectors}v");
                    assert_eq!(
                        base.switching(id),
                        par.switching(id),
                        "switching @ {vectors}v"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_simulation_agrees_with_bdd_analysis() {
        let net = parse_blif(
            ".model r\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
             .names x c f\n1- 1\n-1 1\n.end\n",
        )
        .unwrap()
        .network;
        let probs = [0.3, 0.6, 0.5];
        let act = analyze(&net, &probs, TransitionModel::StaticCmos);
        let sim = simulate_activity_seeded(&net, &probs, 60_000, 42, 4);
        for id in net.node_ids() {
            assert!((act.p_one(id) - sim.p_one(id)).abs() < 0.01);
            assert!((act.switching(id) - sim.switching(id)).abs() < 0.01);
        }
    }

    #[test]
    #[should_panic]
    fn too_few_vectors_panics() {
        let net = parse_blif(".model t\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n")
            .unwrap()
            .network;
        simulate_activity_seeded(&net, &[0.5], 1, 1, 1);
    }
}
