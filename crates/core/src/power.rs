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
    let load = net_loads(m, lib, po_load);

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
    let power_uw = instance_powers(m, &load, env, model)
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
    instance_powers(m, &net_loads(m, lib, po_load), env, model)
}

/// Capacitive load per net, primary-input nets first and then one net per
/// instance output: every reading pin's input capacitance in instance then
/// pin order, then `po_load` once per primary output. Evaluation, per-gate
/// power and glitch simulation all sum loads through this one rule, so
/// their figures agree bit for bit.
fn net_loads(m: &MappedNetwork, lib: &Library, po_load: f64) -> Vec<f64> {
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
    load
}

/// Eq. 1 power of each instance output net under the per-net `load`.
fn instance_powers(
    m: &MappedNetwork,
    load: &[f64],
    env: &PowerEnv,
    model: TransitionModel,
) -> Vec<f64> {
    let n_pi = m.pi_names.len();
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
    /// Vector pairs whose event train hit the per-pair event budget and
    /// stopped early; their remaining transitions are not counted.
    pub truncated_pairs: usize,
}

/// Events one vector pair may deliver, per net: a runaway guard
/// (oscillation is impossible in a DAG, but glitch trains can be long).
const EVENTS_PER_NET: usize = 200;

/// Transition tallies of a range of vector pairs.
struct Tally {
    /// Transitions per net (PI nets first, then instance outputs).
    transitions: Vec<u64>,
    /// Pairs that exhausted the event budget.
    truncated_pairs: usize,
}

/// Femtosecond integer timestamps keep the event order total.
fn to_fs(t_ns: f64) -> u64 {
    (t_ns * 1.0e6) as u64
}

/// An event `(t_fs, net, value)` packed into one integer whose order is
/// the tuple's lexicographic order: time in the high 64 bits, then the net
/// and the value in the low 64. `net << 1` cannot overflow them: `net`
/// indexes a `Vec<f64>` of per-net loads, so `net < isize::MAX / 8`. The
/// time keeps all 64 bits, so every timestamp the simulation can produce
/// fits.
fn event_key(t_fs: u64, net: usize, value: bool) -> u128 {
    (u128::from(t_fs) << 64) | ((net as u128) << 1) | u128::from(value)
}

/// The `(t_fs, net, value)` of an [`event_key`].
fn event_of(key: u128) -> (u64, usize, bool) {
    ((key >> 64) as u64, (key as u64 >> 1) as usize, key & 1 == 1)
}

/// The mapped netlist compiled for glitch simulation, built once per run
/// and shared by every worker thread.
///
/// Nets are numbered PI nets first, then instance outputs in instance
/// (topological) order. Every cell is a truth table and every arc carries
/// its delay already in femtoseconds, so the event loop reads a gate's
/// output with one lookup and schedules it with one addition.
struct GlitchSim<'a> {
    pi_probs: &'a [f64],
    seed: u64,
    n_pi: usize,
    /// Capacitive load per net.
    load: Vec<f64>,
    /// Fanin nets of instance `i`, in pin order:
    /// `fanins[fanin_start[i]..fanin_start[i + 1]]`.
    fanin_start: Vec<usize>,
    fanins: Vec<usize>,
    /// Start of instance `i`'s cell truth table in `tables`.
    table_of: Vec<usize>,
    /// Truth tables of the cells in use: bit `x` of a `k`-input cell's
    /// table is its output when pin `j` carries bit `j` of `x`.
    tables: Vec<u64>,
    /// Consumers of net `n` as `(instance, pin, arc delay in fs)`, one per
    /// consuming pin: `consumers[consumer_start[n]..consumer_start[n + 1]]`.
    consumer_start: Vec<usize>,
    consumers: Vec<(usize, usize, u64)>,
}

impl<'a> GlitchSim<'a> {
    /// Compile `m` with `po_load` on every primary output net.
    ///
    /// # Panics
    /// Panics if an instance's input count differs from its cell's, or a
    /// cell used by the netlist has more than 16 inputs
    /// ([`genlib::Gate::truth_table`]).
    fn compile(
        m: &MappedNetwork,
        lib: &Library,
        pi_probs: &'a [f64],
        seed: u64,
        po_load: f64,
    ) -> Self {
        let n_pi = m.pi_names.len();
        let n_net = n_pi + m.instances.len();
        let slot = |r: &NetRef| match r {
            NetRef::Pi(i) => *i,
            NetRef::Inst(i) => n_pi + *i,
        };
        let mut fanin_start = Vec::with_capacity(m.instances.len() + 1);
        let mut fanins = Vec::new();
        let mut table_at = vec![None; lib.gates().len()];
        let mut table_of = Vec::with_capacity(m.instances.len());
        let mut tables = Vec::new();
        // `(instance, pin)` consumers per net, in instance then pin order.
        let mut reads = vec![Vec::new(); n_net];
        for (ii, inst) in m.instances.iter().enumerate() {
            let gate = &lib.gates()[inst.gate];
            let k = gate.inputs().len();
            assert_eq!(inst.inputs.len(), k, "gate input width mismatch");
            fanin_start.push(fanins.len());
            for (pin_idx, r) in inst.inputs.iter().enumerate() {
                let s = slot(r);
                reads[s].push((ii, pin_idx));
                fanins.push(s);
            }
            let at = *table_at[inst.gate].get_or_insert_with(|| {
                let at = tables.len();
                tables.extend(gate.truth_table());
                at
            });
            table_of.push(at);
        }
        fanin_start.push(fanins.len());
        let load = net_loads(m, lib, po_load);
        let mut consumer_start = vec![0];
        let mut consumers = Vec::with_capacity(fanins.len());
        for net_reads in &reads {
            for &(ii, pin_idx) in net_reads {
                let pin = lib.gates()[m.instances[ii].gate].pin(pin_idx);
                let d = pin.intrinsic + pin.drive * load[n_pi + ii];
                consumers.push((ii, pin_idx, to_fs(d)));
            }
            consumer_start.push(consumers.len());
        }
        GlitchSim {
            pi_probs,
            seed,
            n_pi,
            load,
            fanin_start,
            fanins,
            table_of,
            tables,
            consumer_start,
            consumers,
        }
    }

    /// Draw input vector `v` of the seeded stream into `pis`: a pure
    /// function of `(seed, v)`, so any worker can draw any vector
    /// independently.
    fn draw(&self, v: usize, pis: &mut [bool]) {
        let mut rng = SmallRng::seed_from_u64(par::split_seed(self.seed, v as u64));
        for (x, &p) in pis.iter_mut().zip(self.pi_probs) {
            *x = rng.gen_bool(p.clamp(0.0, 1.0));
        }
    }

    /// Output of instance `ii` when pin `j` carries bit `j` of `x`.
    fn lookup(&self, ii: usize, x: usize) -> bool {
        self.tables[self.table_of[ii] + x / 64] >> (x % 64) & 1 == 1
    }

    /// Settle every instance output under the PI values in
    /// `state[..n_pi]` (zero-delay evaluation in topological order), and
    /// pack each instance's input values into `inputs`.
    fn settle(&self, state: &mut [bool], inputs: &mut [usize]) {
        for (ii, x) in inputs.iter_mut().enumerate() {
            let fanins = &self.fanins[self.fanin_start[ii]..self.fanin_start[ii + 1]];
            *x = fanins
                .iter()
                .enumerate()
                .fold(0, |x, (j, &f)| x | usize::from(state[f]) << j);
            state[self.n_pi + ii] = self.lookup(ii, *x);
        }
    }

    /// Event-driven simulation of vector pairs `[range.start, range.end)`
    /// (pair `p` transitions from vector `p` to vector `p + 1`), counting
    /// transitions per net. Pairs are independent — the state is
    /// re-settled between pairs — so any partition of the pair space
    /// counts exactly the same transitions. A pair stops after
    /// `event_cap` delivered events.
    fn simulate_pairs(&self, range: std::ops::Range<usize>, event_cap: usize) -> Tally {
        let n_net = self.load.len();
        let mut tally = Tally {
            transitions: vec![0u64; n_net],
            truncated_pairs: 0,
        };
        if range.is_empty() {
            return tally;
        }
        // Pair and event tallies are per-range sums, so the totals are
        // invariant under any partition of the pair space (thread counts).
        obs::counter!("power.glitch.pairs", range.len() as u64);
        let mut cur = vec![false; n_net];
        let mut next = vec![false; self.n_pi];
        let mut inputs = vec![0usize; self.table_of.len()];
        let mut heap: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
        self.draw(range.start, &mut cur[..self.n_pi]);
        self.settle(&mut cur, &mut inputs);
        for p in range {
            self.draw(p + 1, &mut next);
            heap.clear();
            for (i, (&nv, &cv)) in next.iter().zip(&cur[..self.n_pi]).enumerate() {
                if nv != cv {
                    heap.push(Reverse(event_key(0, i, nv)));
                }
            }
            let mut budget = event_cap;
            while let Some(Reverse(key)) = heap.pop() {
                let (t, net, value) = event_of(key);
                if cur[net] == value {
                    continue;
                }
                cur[net] = value;
                tally.transitions[net] += 1;
                budget -= 1;
                if budget == 0 {
                    tally.truncated_pairs += 1;
                    break;
                }
                let consumers =
                    &self.consumers[self.consumer_start[net]..self.consumer_start[net + 1]];
                // Flip every consuming pin before evaluating: an instance
                // may read `net` on several pins.
                for &(ii, pin, _) in consumers {
                    inputs[ii] ^= 1 << pin;
                }
                for &(ii, _, d) in consumers {
                    let out = self.lookup(ii, inputs[ii]);
                    heap.push(Reverse(event_key(t + d, self.n_pi + ii, out)));
                }
            }
            // make sure the state is fully settled before the next pair
            cur[..self.n_pi].copy_from_slice(&next);
            self.settle(&mut cur, &mut inputs);
        }
        obs::counter!("power.glitch.events", tally.transitions.iter().sum::<u64>());
        if tally.truncated_pairs > 0 {
            obs::counter!(
                "power.glitch.budget_exhausted",
                tally.truncated_pairs as u64
            );
        }
        tally
    }

    /// Simulate `pairs >= 1` vector pairs chunked on up to `threads`
    /// workers, merging the integer tallies in chunk order.
    fn tally(&self, pairs: usize, threads: usize, event_cap: usize) -> Tally {
        let ranges = par::split_ranges(pairs, threads.max(1) * 4);
        par::chunked_reduce(
            threads,
            ranges.len(),
            |i| self.simulate_pairs(ranges[i].clone(), event_cap),
            |acc, chunk| {
                for (a, c) in acc.transitions.iter_mut().zip(chunk.transitions) {
                    *a += c;
                }
                acc.truncated_pairs += chunk.truncated_pairs;
            },
        )
        .expect("at least one vector pair")
    }

    /// The power report of a tally over `pairs` vector pairs.
    fn report(&self, env: &PowerEnv, pairs: usize, tally: &Tally) -> GlitchReport {
        let mut power_uw = 0.0;
        let mut total_e = 0.0;
        // Gate-output nets only; PI nets are charged to their external drivers.
        for (i, &c) in tally.transitions.iter().enumerate().skip(self.n_pi) {
            let e = c as f64 / pairs as f64;
            total_e += e;
            power_uw += env.average_power_uw(self.load[i], e);
        }
        let gate_nets = (self.load.len() - self.n_pi).max(1);
        GlitchReport {
            power_uw,
            avg_transitions: total_e / gate_nets as f64,
            vector_pairs: pairs,
            truncated_pairs: tally.truncated_pairs,
        }
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
/// are dropped at delivery time (approximate inertial filtering). Each
/// vector pair delivers at most 200 events per net; pairs that reach the
/// budget are counted in [`GlitchReport::truncated_pairs`].
///
/// The vector stream is seed-split per vector index
/// ([`par::split_seed`]), and the `vectors - 1` pairs run chunked on up to
/// `threads` workers with the integer transition tallies merged in chunk
/// order — the report is bit-identical at every thread count.
///
/// # Panics
/// Panics if `pi_probs.len()` differs from the PI count, `vectors < 2`, or
/// a cell used by the netlist has more than 16 inputs.
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
    let sim = GlitchSim::compile(m, lib, pi_probs, seed, po_load);
    let pairs = vectors - 1;
    let tally = sim.tally(pairs, threads, EVENTS_PER_NET * sim.load.len());
    sim.report(env, pairs, &tally)
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

    /// The interpreting event loop the compiled [`GlitchSim`] replaced:
    /// per-event input vectors, `Gate::eval` on the cell expression, arc
    /// delays recomputed per event, and a `(t_fs, net, value)` tuple heap.
    /// Kept as the oracle for the compiled simulator.
    struct ReferenceCtx<'a> {
        m: &'a MappedNetwork,
        lib: &'a Library,
        pi_probs: &'a [f64],
        seed: u64,
        n_pi: usize,
        n_net: usize,
        load: Vec<f64>,
        consumers: Vec<Vec<(usize, usize)>>,
    }

    impl<'a> ReferenceCtx<'a> {
        fn new(
            m: &'a MappedNetwork,
            lib: &'a Library,
            pi_probs: &'a [f64],
            seed: u64,
            po_load: f64,
        ) -> Self {
            let n_pi = m.pi_names.len();
            let n_net = n_pi + m.instances.len();
            let mut ctx = ReferenceCtx {
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
            ctx
        }

        fn slot(&self, r: &NetRef) -> usize {
            match r {
                NetRef::Pi(i) => *i,
                NetRef::Inst(i) => self.n_pi + *i,
            }
        }

        fn vector(&self, v: usize) -> Vec<bool> {
            let mut rng = SmallRng::seed_from_u64(par::split_seed(self.seed, v as u64));
            self.pi_probs
                .iter()
                .map(|&p| rng.gen_bool(p.clamp(0.0, 1.0)))
                .collect()
        }

        fn eval_settled(&self, pis: &[bool]) -> Vec<bool> {
            let mut v = vec![false; self.n_net];
            v[..self.n_pi].copy_from_slice(pis);
            for (ii, inst) in self.m.instances.iter().enumerate() {
                let ins: Vec<bool> = inst.inputs.iter().map(|r| v[self.slot(r)]).collect();
                v[self.n_pi + ii] = self.lib.gates()[inst.gate].eval(&ins);
            }
            v
        }

        /// Per-net transitions and truncated pairs of `range`.
        fn simulate_pairs_reference(
            &self,
            range: std::ops::Range<usize>,
            event_cap: usize,
        ) -> (Vec<u64>, usize) {
            let mut transitions = vec![0u64; self.n_net];
            let mut truncated = 0;
            let to_fs = |t_ns: f64| -> u64 { (t_ns * 1.0e6) as u64 };
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
                        truncated += 1;
                        break;
                    }
                    for &(ii, pin_idx) in &self.consumers[net] {
                        let inst = &self.m.instances[ii];
                        let gate = &self.lib.gates()[inst.gate];
                        let ins: Vec<bool> =
                            inst.inputs.iter().map(|r| cur[self.slot(r)]).collect();
                        let out = gate.eval(&ins);
                        let pin = gate.pin(pin_idx);
                        let d = pin.intrinsic + pin.drive * self.load[self.n_pi + ii];
                        heap.push(Reverse((t + to_fs(d), self.n_pi + ii, out)));
                    }
                }
                cur = self.eval_settled(&next);
            }
            (transitions, truncated)
        }

        /// The report of `pairs` pairs at the production event budget.
        fn report(&self, env: &PowerEnv, pairs: usize) -> GlitchReport {
            let (transitions, truncated_pairs) =
                self.simulate_pairs_reference(0..pairs, 200 * self.n_net);
            let mut power_uw = 0.0;
            let mut total_e = 0.0;
            for (i, &c) in transitions.iter().enumerate().skip(self.n_pi) {
                let e = c as f64 / pairs as f64;
                total_e += e;
                power_uw += env.average_power_uw(self.load[i], e);
            }
            let gate_nets = (self.n_net - self.n_pi).max(1);
            GlitchReport {
                power_uw,
                avg_transitions: total_e / gate_nets as f64,
                vector_pairs: pairs,
                truncated_pairs,
            }
        }
    }

    fn report_bits(r: &GlitchReport) -> (u64, u64, usize, usize) {
        (
            r.power_uw.to_bits(),
            r.avg_transitions.to_bits(),
            r.vector_pairs,
            r.truncated_pairs,
        )
    }

    /// The compiled simulator counts exactly the reference's transitions
    /// per net, truncates exactly the same pairs, and reports bit-identical
    /// numbers, on random mapped netlists at several thread counts.
    #[test]
    fn compiled_simulation_matches_reference_on_random_netlists() {
        use crate::decomp::{decompose_network, DecompOptions, DecompStyle};
        let lib = lib2_like();
        let env = PowerEnv::new();
        let mut rng = SmallRng::seed_from_u64(0x611C);
        let mut checked = 0;
        for seed in 0..24u64 {
            let net = benchgen::random_network(&benchgen::RandomNetConfig {
                inputs: rng.gen_range(3..10),
                outputs: rng.gen_range(1..5),
                nodes: rng.gen_range(6..60),
                max_fanin: rng.gen_range(2..5),
                seed,
            });
            let style = [
                DecompStyle::Conventional,
                DecompStyle::MinPower,
                DecompStyle::BoundedMinPower,
            ][seed as usize % 3];
            let d = decompose_network(&net, &DecompOptions::new(style));
            let probs: Vec<f64> = (0..d.network.inputs().len())
                .map(|_| [0.0, 1.0, 0.5, rng.gen_range(0.05..0.95)][rng.gen_range(0..4usize)])
                .collect();
            let act = analyze(&d.network, &probs, TransitionModel::StaticCmos);
            // Constant outputs have no cell to map to.
            let Ok(aig) = SubjectAig::from_network(&d.network, &act) else {
                continue;
            };
            let opts = if seed % 2 == 0 {
                MapOptions::power()
            } else {
                MapOptions::area()
            };
            let Ok(m) = map_network(&aig, &lib, &opts) else {
                continue;
            };
            let vectors = rng.gen_range(2..200);
            let sim_seed = rng.gen_range(0..u64::MAX);
            let po_load = [0.5, 1.0, 3.0][rng.gen_range(0..3usize)];
            let reference = ReferenceCtx::new(&m, &lib, &probs, sim_seed, po_load);
            let sim = GlitchSim::compile(&m, &lib, &probs, sim_seed, po_load);
            let want = report_bits(&reference.report(&env, vectors - 1));
            for cap in [EVENTS_PER_NET * reference.n_net, rng.gen_range(1..6)] {
                let (transitions, truncated) =
                    reference.simulate_pairs_reference(0..vectors - 1, cap);
                for threads in [1usize, 2, 4] {
                    let tally = sim.tally(vectors - 1, threads, cap);
                    assert_eq!(
                        (&tally.transitions, tally.truncated_pairs),
                        (&transitions, truncated),
                        "seed {seed}, cap {cap}, {threads} threads"
                    );
                }
            }
            for threads in [1usize, 2, 4] {
                let got = simulate_glitch_power(
                    &m, &lib, &env, &probs, vectors, sim_seed, po_load, threads,
                );
                assert_eq!(report_bits(&got), want, "seed {seed}, {threads} threads");
            }
            checked += 1;
        }
        assert!(checked >= 16, "only {checked} netlists mapped");
    }

    #[test]
    fn exhausted_event_budget_is_reported() {
        let blif = ".model t\n.inputs a b c d\n.outputs f\n\
                    .names a b x\n11 1\n.names x c y\n1- 1\n-1 1\n\
                    .names y d f\n11 1\n.end\n";
        let probs = [0.5; 4];
        let (m, lib) = mapped(blif, &probs, &MapOptions::area());
        let sim = GlitchSim::compile(&m, &lib, &probs, 3, 1.0);
        let session = obs::Session::start();
        let tally = sim.tally(99, 1, 2);
        let counters = session.finish().metrics.counters;
        let rep = sim.report(&PowerEnv::new(), 99, &tally);
        assert!(rep.truncated_pairs > 0);
        assert_eq!(
            counters["power.glitch.budget_exhausted"],
            rep.truncated_pairs as u64
        );
        // At the production budget nothing is cut, and the counter is
        // absent rather than zero.
        let session = obs::Session::start();
        let full = simulate_glitch_power(&m, &lib, &PowerEnv::new(), &probs, 100, 3, 1.0, 1);
        let counters = session.finish().metrics.counters;
        assert_eq!(full.truncated_pairs, 0);
        assert!(!counters.contains_key("power.glitch.budget_exhausted"));
    }

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
