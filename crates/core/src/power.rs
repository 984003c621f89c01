//! Post-mapping evaluation: area, delay, average power of a mapped netlist.
//!
//! This is the reporting stage of the experiments (the Ghosh-style power
//! estimation under the zero-delay model): exact signal probabilities are
//! carried through the mapper, actual pin loads replace the unknown-load
//! default, and static timing uses the pin-dependent library delay model
//! (eq. 14).

use crate::map::mapper::{MappedNetwork, NetRef};
use activity::{PowerEnv, TransitionModel};
use genlib::Library;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Evaluation of one mapped netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappedReport {
    /// Total cell area.
    pub area: f64,
    /// Critical-path delay, ns (pin-dependent model, actual loads).
    pub delay: f64,
    /// Average power, µW (eq. 1, summed over all nets).
    pub power_uw: f64,
    /// Number of gate instances.
    pub gate_count: usize,
}

/// Evaluate a mapped netlist.
///
/// `po_load` is the capacitive load (in load units) attached to every
/// primary output net.
pub fn evaluate(
    m: &MappedNetwork,
    lib: &Library,
    env: &PowerEnv,
    model: TransitionModel,
    po_load: f64,
) -> MappedReport {
    let n_pi = m.pi_names.len();
    let n_inst = m.instances.len();
    // loads[0..n_pi] = PI nets, loads[n_pi..] = instance output nets.
    let slot = |r: &NetRef| match r {
        NetRef::Pi(i) => *i,
        NetRef::Inst(i) => n_pi + *i,
    };
    let mut load = vec![0.0f64; n_pi + n_inst];
    for inst in &m.instances {
        let gate = &lib.gates()[inst.gate];
        for (pin_idx, r) in inst.inputs.iter().enumerate() {
            load[slot(r)] += gate.pin(pin_idx).input_cap;
        }
    }
    for (_, r) in &m.outputs {
        load[slot(r)] += po_load;
    }

    // Static timing: instances are in topological order.
    let mut arrival = vec![0.0f64; n_pi + n_inst];
    for (i, inst) in m.instances.iter().enumerate() {
        let gate = &lib.gates()[inst.gate];
        let out_load = load[n_pi + i];
        let mut t = 0.0f64;
        for (pin_idx, r) in inst.inputs.iter().enumerate() {
            let pin = gate.pin(pin_idx);
            t = t.max(arrival[slot(r)] + pin.intrinsic + pin.drive * out_load);
        }
        arrival[n_pi + i] = t;
    }
    let delay = m
        .outputs
        .iter()
        .map(|(_, r)| arrival[slot(r)])
        .fold(0.0, f64::max);

    // Power: every gate-output net switches its load (eq. 1). Primary-input
    // nets are excluded — their charge is dissipated in the external
    // drivers, as in the paper's estimator, which reports the power of the
    // synthesized gates.
    // Both totals fold from +0.0: `f64`'s empty `sum` is -0.0, which a
    // gate-free mapping would print as `-0.0`.
    let power_uw = per_instance_power(m, lib, env, model, po_load)
        .iter()
        .fold(0.0, |acc, p| acc + p);

    let area = m
        .instances
        .iter()
        .fold(0.0, |acc, i| acc + lib.gates()[i.gate].area());
    MappedReport {
        area,
        delay,
        power_uw,
        gate_count: m.instances.len(),
    }
}

/// Zero-delay average power of each gate instance, µW, in instance order.
///
/// The same eq. 1 estimator as [`evaluate`] — `evaluate`'s `power_uw` is
/// exactly the sum of this vector — exposed separately so per-gate power
/// can be attributed back to source nodes (QoR provenance breakdowns).
pub fn per_instance_power(
    m: &MappedNetwork,
    lib: &Library,
    env: &PowerEnv,
    model: TransitionModel,
    po_load: f64,
) -> Vec<f64> {
    let n_pi = m.pi_names.len();
    let slot = |r: &NetRef| match r {
        NetRef::Pi(i) => *i,
        NetRef::Inst(i) => n_pi + *i,
    };
    let mut load = vec![0.0f64; n_pi + m.instances.len()];
    for inst in &m.instances {
        let gate = &lib.gates()[inst.gate];
        for (pin_idx, r) in inst.inputs.iter().enumerate() {
            load[slot(r)] += gate.pin(pin_idx).input_cap;
        }
    }
    for (_, r) in &m.outputs {
        load[slot(r)] += po_load;
    }
    m.instances
        .iter()
        .enumerate()
        .map(|(i, inst)| env.average_power_uw(load[n_pi + i], model.switching(inst.p_one)))
        .collect()
}

/// Result of glitch-aware power simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlitchReport {
    /// Average power in µW including glitch transitions.
    pub power_uw: f64,
    /// Average transitions per net per cycle (glitches included).
    pub avg_transitions: f64,
    /// Number of vector pairs simulated.
    pub vector_pairs: usize,
}

/// Immutable per-run context of the glitch simulation, shared by every
/// worker thread.
struct GlitchCtx<'a> {
    m: &'a MappedNetwork,
    lib: &'a Library,
    pi_probs: &'a [f64],
    seed: u64,
    n_pi: usize,
    n_net: usize,
    /// Capacitive load per net (PI nets first, then instance outputs).
    load: Vec<f64>,
    /// `(instance, pin)` consumers per net.
    consumers: Vec<Vec<(usize, usize)>>,
}

impl GlitchCtx<'_> {
    fn slot(&self, r: &NetRef) -> usize {
        match r {
            NetRef::Pi(i) => *i,
            NetRef::Inst(i) => self.n_pi + *i,
        }
    }

    /// Input vector `v` of the seeded stream: a pure function of
    /// `(seed, v)`, so any worker can draw any vector independently.
    fn vector(&self, v: usize) -> Vec<bool> {
        let mut rng = SmallRng::seed_from_u64(par::split_seed(self.seed, v as u64));
        self.pi_probs
            .iter()
            .map(|&p| rng.gen_bool(p.clamp(0.0, 1.0)))
            .collect()
    }

    /// Settled zero-delay evaluation for a pair's initial state.
    fn eval_settled(&self, pis: &[bool]) -> Vec<bool> {
        let mut v = vec![false; self.n_net];
        v[..self.n_pi].copy_from_slice(pis);
        for (ii, inst) in self.m.instances.iter().enumerate() {
            let ins: Vec<bool> = inst.inputs.iter().map(|r| v[self.slot(r)]).collect();
            v[self.n_pi + ii] = self.lib.gates()[inst.gate].eval(&ins);
        }
        v
    }

    /// Event-driven simulation of vector pairs `[range.start, range.end)`
    /// (pair `p` transitions from vector `p` to vector `p + 1`), counting
    /// transitions per net. Pairs are independent — the serial algorithm
    /// re-settles the state between pairs anyway — so any partition of the
    /// pair space counts exactly the same transitions.
    fn simulate_pairs(&self, range: std::ops::Range<usize>) -> Vec<u64> {
        let mut transitions = vec![0u64; self.n_net];
        if range.is_empty() {
            return transitions;
        }
        // Pair and event tallies are per-range sums, so the totals are
        // invariant under any partition of the pair space (thread counts).
        obs::counter!("power.glitch.pairs", range.len() as u64);
        // femtosecond integer timestamps keep the heap totally ordered
        let to_fs = |t_ns: f64| -> u64 { (t_ns * 1.0e6) as u64 };
        let event_cap = 200 * self.n_net; // runaway guard (oscillation is
                                          // impossible in a DAG, but glitch
                                          // trains can be long)
        let mut cur = self.eval_settled(&self.vector(range.start));
        let mut heap: BinaryHeap<Reverse<(u64, usize, bool)>> = BinaryHeap::new();
        for p in range {
            let next = self.vector(p + 1);
            heap.clear();
            for (i, (&nv, cv)) in next.iter().zip(cur[..self.n_pi].to_vec()).enumerate() {
                if nv != cv {
                    heap.push(Reverse((0, i, nv)));
                }
            }
            let mut budget = event_cap;
            while let Some(Reverse((t, net, value))) = heap.pop() {
                if cur[net] == value {
                    continue;
                }
                cur[net] = value;
                transitions[net] += 1;
                budget -= 1;
                if budget == 0 {
                    break;
                }
                for &(ii, pin_idx) in &self.consumers[net] {
                    let inst = &self.m.instances[ii];
                    let gate = &self.lib.gates()[inst.gate];
                    let ins: Vec<bool> = inst.inputs.iter().map(|r| cur[self.slot(r)]).collect();
                    let out = gate.eval(&ins);
                    let pin = gate.pin(pin_idx);
                    let d = pin.intrinsic + pin.drive * self.load[self.n_pi + ii];
                    heap.push(Reverse((t + to_fs(d), self.n_pi + ii, out)));
                }
            }
            // make sure the state is fully settled before the next pair
            cur = self.eval_settled(&next);
        }
        obs::counter!("power.glitch.events", transitions.iter().sum::<u64>());
        transitions
    }
}

/// Estimate average power by **event-driven timing simulation** with the
/// pin-dependent library delay model — the stand-in for the Ghosh et al.
/// estimator the paper uses for its reported numbers ("a general delay
/// model which correctly computes the Boolean conditions that cause
/// glitchings"). Unlike [`evaluate`] (zero-delay), this counts glitch
/// transitions caused by unequal path delays, which power-aware mapping
/// reduces by hiding unbalanced logic inside complex gates.
///
/// Transport-delay semantics: every input event propagates with its pin's
/// `τ + R·C_load`; output events that do not change the settled net value
/// are dropped at delivery time (approximate inertial filtering).
///
/// The vector stream is seed-split per vector index
/// ([`par::split_seed`]), and the `vectors - 1` pairs run chunked on up to
/// `threads` workers with the integer transition tallies merged in chunk
/// order — the report is bit-identical at every thread count.
///
/// # Panics
/// Panics if `pi_probs.len()` differs from the PI count or `vectors < 2`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_glitch_power(
    m: &MappedNetwork,
    lib: &Library,
    env: &PowerEnv,
    pi_probs: &[f64],
    vectors: usize,
    seed: u64,
    po_load: f64,
    threads: usize,
) -> GlitchReport {
    assert_eq!(
        pi_probs.len(),
        m.pi_names.len(),
        "PI probability count mismatch"
    );
    assert!(vectors >= 2, "need at least two vectors");
    let n_pi = m.pi_names.len();
    let n_net = n_pi + m.instances.len();
    let mut ctx = GlitchCtx {
        m,
        lib,
        pi_probs,
        seed,
        n_pi,
        n_net,
        load: vec![0.0f64; n_net],
        consumers: vec![Vec::new(); n_net],
    };
    for (ii, inst) in m.instances.iter().enumerate() {
        let gate = &lib.gates()[inst.gate];
        for (pin_idx, r) in inst.inputs.iter().enumerate() {
            let s = ctx.slot(r);
            ctx.load[s] += gate.pin(pin_idx).input_cap;
            ctx.consumers[s].push((ii, pin_idx));
        }
    }
    for (_, r) in &m.outputs {
        let s = ctx.slot(r);
        ctx.load[s] += po_load;
    }

    let pairs = vectors - 1;
    let ranges = par::split_ranges(pairs, threads.max(1) * 4);
    let transitions = par::chunked_reduce(
        threads,
        ranges.len(),
        |i| ctx.simulate_pairs(ranges[i].clone()),
        |acc, chunk| {
            for (a, c) in acc.iter_mut().zip(chunk) {
                *a += c;
            }
        },
    )
    .unwrap_or_else(|| vec![0u64; n_net]);

    let mut power_uw = 0.0;
    let mut total_e = 0.0;
    // Gate-output nets only; PI nets are charged to their external drivers.
    for (i, &c) in transitions.iter().enumerate().skip(n_pi) {
        let e = c as f64 / pairs as f64;
        total_e += e;
        power_uw += env.average_power_uw(ctx.load[i], e);
    }
    let gate_nets = (n_net - n_pi).max(1);
    GlitchReport {
        power_uw,
        avg_transitions: total_e / gate_nets as f64,
        vector_pairs: pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::mapper::{map_network, MapOptions};
    use crate::map::subject::SubjectAig;
    use activity::analyze;
    use genlib::builtin::lib2_like;
    use netlist::parse_blif;

    fn mapped(blif: &str, probs: &[f64], opts: &MapOptions) -> (MappedNetwork, Library) {
        let net = parse_blif(blif).unwrap().network;
        let act = analyze(&net, probs, TransitionModel::StaticCmos);
        let aig = SubjectAig::from_network(&net, &act).unwrap();
        let lib = lib2_like();
        let m = map_network(&aig, &lib, opts).unwrap();
        (m, lib)
    }

    use genlib::Library;

    const SAMPLE: &str = ".model t\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
                          .names x c f\n1- 1\n-1 1\n.end\n";

    #[test]
    fn report_is_positive_and_consistent() {
        let (m, lib) = mapped(SAMPLE, &[0.5; 3], &MapOptions::power());
        let rep = evaluate(&m, &lib, &PowerEnv::new(), TransitionModel::StaticCmos, 1.0);
        assert!(rep.area > 0.0);
        assert!(rep.delay > 0.0);
        assert!(rep.power_uw > 0.0);
        assert_eq!(rep.gate_count, m.instances.len());
    }

    #[test]
    fn gate_free_mapping_totals_are_positive_zero() {
        // A buffer maps to a wire: no gates, and the empty sums must be
        // +0.0 (f64's `Iterator::sum` of nothing is -0.0).
        let buffer = ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n";
        let (m, lib) = mapped(buffer, &[0.5], &MapOptions::power());
        let rep = evaluate(&m, &lib, &PowerEnv::new(), TransitionModel::StaticCmos, 1.0);
        assert_eq!(rep.gate_count, 0);
        assert_eq!(rep.area.to_bits(), 0.0f64.to_bits());
        assert_eq!(rep.power_uw.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn zero_activity_inputs_give_near_zero_power() {
        // P(pi)=1 for all inputs: static switching = 0 everywhere.
        let (m, lib) = mapped(SAMPLE, &[1.0, 1.0, 1.0], &MapOptions::power());
        let rep = evaluate(&m, &lib, &PowerEnv::new(), TransitionModel::StaticCmos, 1.0);
        assert!(rep.power_uw.abs() < 1e-9, "power {}", rep.power_uw);
    }

    #[test]
    fn heavier_po_load_means_more_power_and_delay() {
        let (m, lib) = mapped(SAMPLE, &[0.5; 3], &MapOptions::power());
        let env = PowerEnv::new();
        let light = evaluate(&m, &lib, &env, TransitionModel::StaticCmos, 1.0);
        let heavy = evaluate(&m, &lib, &env, TransitionModel::StaticCmos, 5.0);
        assert!(heavy.power_uw > light.power_uw);
        assert!(heavy.delay >= light.delay);
    }

    #[test]
    fn glitch_power_at_least_zero_delay_power() {
        // Unequal path depths feed an AND: glitches add transitions, so the
        // simulated power must be >= (approximately) the zero-delay power.
        let blif = ".model t\n.inputs a b c d\n.outputs f\n\
                    .names a b x\n11 1\n.names x c y\n1- 1\n-1 1\n\
                    .names y d f\n11 1\n.end\n";
        let (m, lib) = mapped(blif, &[0.5; 4], &MapOptions::area());
        let env = PowerEnv::new();
        let zero = evaluate(&m, &lib, &env, TransitionModel::StaticCmos, 1.0);
        let g = simulate_glitch_power(&m, &lib, &env, &[0.5; 4], 4000, 17, 1.0, 1);
        assert!(
            g.power_uw > zero.power_uw * 0.9,
            "glitch {} vs zero-delay {}",
            g.power_uw,
            zero.power_uw
        );
        assert_eq!(g.vector_pairs, 3999);
    }

    #[test]
    fn glitch_power_deterministic_in_seed() {
        let (m, lib) = mapped(SAMPLE, &[0.5; 3], &MapOptions::power());
        let env = PowerEnv::new();
        let a = simulate_glitch_power(&m, &lib, &env, &[0.5; 3], 500, 5, 1.0, 1);
        let b = simulate_glitch_power(&m, &lib, &env, &[0.5; 3], 500, 5, 1.0, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn glitch_power_thread_invariant() {
        let (m, lib) = mapped(SAMPLE, &[0.4, 0.5, 0.6], &MapOptions::power());
        let env = PowerEnv::new();
        // Off-multiple pair counts stress the range partitioning.
        for vectors in [2usize, 5, 500, 601] {
            let base = simulate_glitch_power(&m, &lib, &env, &[0.4, 0.5, 0.6], vectors, 9, 1.0, 1);
            for threads in [2usize, 4, 7] {
                let par = simulate_glitch_power(
                    &m,
                    &lib,
                    &env,
                    &[0.4, 0.5, 0.6],
                    vectors,
                    9,
                    1.0,
                    threads,
                );
                assert_eq!(base, par, "{vectors} vectors, {threads} threads");
            }
        }
    }

    #[test]
    fn constant_inputs_no_glitch_power() {
        let (m, lib) = mapped(SAMPLE, &[1.0, 1.0, 1.0], &MapOptions::power());
        let env = PowerEnv::new();
        let g = simulate_glitch_power(&m, &lib, &env, &[1.0; 3], 100, 7, 1.0, 2);
        assert_eq!(g.power_uw, 0.0);
    }

    #[test]
    fn domino_models_change_power() {
        let (m, lib) = mapped(SAMPLE, &[0.3, 0.3, 0.3], &MapOptions::power());
        let env = PowerEnv::new();
        let p = evaluate(&m, &lib, &env, TransitionModel::DominoP, 1.0);
        let n = evaluate(&m, &lib, &env, TransitionModel::DominoN, 1.0);
        assert!(p.power_uw != n.power_uw);
    }
}
