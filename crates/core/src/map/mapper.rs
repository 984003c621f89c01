//! The mapping engine: postorder curve computation, preorder selection,
//! mapped-netlist construction (§3.2–3.3).

use crate::map::curve::{BindingRange, Curve, LoadIndex, Point};
use crate::map::matcher::Matcher;
use crate::map::pattern::PatternSet;
use crate::map::subject::{AigNode, MapError, Signal, SubjectAig};
use activity::{PowerEnv, TransitionModel};
use genlib::{Gate, Library};
use std::collections::HashMap;

/// What the mapper minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapObjective {
    /// Average power under delay constraints (`pd-map`, the paper's
    /// contribution).
    Power,
    /// Area under delay constraints (`ad-map`, the Chaudhary–Pedram
    /// baseline of methods I–III).
    Area,
}

/// Power bookkeeping during mapping (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerMethod {
    /// Method 1 (eq. 15): accumulate the power of a match's *input* nets;
    /// the node's own output net is charged at its mapped parent. The
    /// paper's choice.
    InputLoads,
    /// Method 2 (eq. 16): charge the node's own output net with the
    /// default load. Provided for the ablation study.
    OutputLoad,
}

/// Mapper options.
#[derive(Debug, Clone)]
pub struct MapOptions {
    /// Cost objective.
    pub objective: MapObjective,
    /// Power bookkeeping method.
    pub power_method: PowerMethod,
    /// ε for curve pruning (arrival units, ns).
    pub epsilon: f64,
    /// Required time at every primary output; `None` targets the fastest
    /// achievable arrival of the slowest output (no performance
    /// degradation).
    pub required_time: Option<f64>,
    /// Transition model for switching activities.
    pub model: TransitionModel,
    /// Electrical environment.
    pub env: PowerEnv,
    /// §3.3 DAG heuristic: divide an input's accumulated cost by its fanout
    /// count at multi-fanout nodes.
    pub dag_fanout_division: bool,
    /// Capacitive load (load units) on each primary output.
    pub po_load: f64,
}

impl MapOptions {
    /// Power-objective defaults (the paper's pd-map).
    pub fn power() -> MapOptions {
        MapOptions {
            objective: MapObjective::Power,
            power_method: PowerMethod::InputLoads,
            epsilon: 0.05,
            required_time: None,
            model: TransitionModel::StaticCmos,
            env: PowerEnv::new(),
            dag_fanout_division: true,
            po_load: 1.0,
        }
    }

    /// Area-objective defaults (the ad-map baseline).
    pub fn area() -> MapOptions {
        MapOptions {
            objective: MapObjective::Area,
            ..MapOptions::power()
        }
    }
}

/// Reference to a net driver in a mapped netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetRef {
    /// Primary input by position.
    Pi(usize),
    /// Instance output by position in [`MappedNetwork::instances`].
    Inst(usize),
}

/// One mapped gate instance.
#[derive(Debug, Clone)]
pub struct MappedInstance {
    /// Instance name.
    pub name: String,
    /// Library gate index.
    pub gate: usize,
    /// Driver of each input pin, aligned with the gate's input order.
    pub inputs: Vec<NetRef>,
    /// Probability that the instance output is 1 (zero-delay, exact).
    pub p_one: f64,
    /// Provenance: name of the subject-network node whose cone this gate
    /// implements (see [`SubjectAig::source`]). Composed with the
    /// decomposition provenance map, it resolves every instance back to a
    /// node of the original optimized network.
    pub source: String,
}

/// A technology-mapped netlist.
#[derive(Debug, Clone)]
pub struct MappedNetwork {
    /// Gate instances in topological order (drivers precede consumers).
    pub instances: Vec<MappedInstance>,
    /// Primary input names.
    pub pi_names: Vec<String>,
    /// `P(pi = 1)` per primary input.
    pub pi_p_one: Vec<f64>,
    /// Primary outputs.
    pub outputs: Vec<(String, NetRef)>,
    /// Fastest achievable arrival of the slowest output in the mapper's
    /// estimated (default-load) timing space. Useful for choosing a common
    /// `required_time` across several mapping runs.
    pub estimated_fastest: f64,
    /// The required time actually targeted (estimated space).
    pub estimated_required: f64,
}

impl MappedNetwork {
    /// Evaluate the mapped netlist on a primary-input assignment.
    ///
    /// # Panics
    /// Panics if `pis.len()` differs from the PI count.
    pub fn eval_outputs(&self, lib: &Library, pis: &[bool]) -> Vec<bool> {
        assert_eq!(pis.len(), self.pi_names.len(), "PI count mismatch");
        let mut vals: Vec<bool> = Vec::with_capacity(self.instances.len());
        for inst in &self.instances {
            let ins: Vec<bool> = inst
                .inputs
                .iter()
                .map(|r| match r {
                    NetRef::Pi(i) => pis[*i],
                    NetRef::Inst(i) => vals[*i],
                })
                .collect();
            vals.push(lib.gates()[inst.gate].eval(&ins));
        }
        self.outputs
            .iter()
            .map(|(_, r)| match r {
                NetRef::Pi(i) => pis[*i],
                NetRef::Inst(i) => vals[*i],
            })
            .collect()
    }
}

/// A required-time demand on a signal: `(required, load, from_same_node_aug)`.
type Demand = (f64, f64, bool);

/// Map a subject AIG onto a library.
///
/// # Errors
/// Returns [`MapError::NoInverter`] for libraries without an inverter, or
/// [`MapError::UnmappedOutput`] when some output cone admits no cover
/// (pathological libraries).
pub fn map_network(
    aig: &SubjectAig,
    lib: &Library,
    opts: &MapOptions,
) -> Result<MappedNetwork, MapError> {
    let ps = PatternSet::from_library(lib);
    if ps.inverters().is_empty() {
        return Err(MapError::NoInverter);
    }
    let c_def = lib.default_load();
    let mut curves: Vec<[Curve; 2]> = Vec::with_capacity(aig.len());
    let mut matcher = Matcher::new();
    let mut sweep = SweepScratch::default();
    // Every point's pin bindings, written once per match or phase repair.
    let mut arena: Vec<Signal> = Vec::new();
    // Phase-repair points of the node at hand, reused across nodes.
    let (mut aug_neg, mut aug_pos) = (Vec::new(), Vec::new());

    // ---- postorder: curve computation -------------------------------
    let postorder_span = obs::span!("map.postorder");
    for idx in 0..aig.len() as u32 {
        let mut pos = Curve::new();
        let mut neg = Curve::new();
        match aig.nodes()[idx as usize] {
            AigNode::Pi { .. } => {
                pos.push(Point {
                    arrival: 0.0,
                    cost: 0.0,
                    drive: 0.0,
                    gate: None,
                    inputs: BindingRange::EMPTY,
                });
            }
            AigNode::And { .. } => {
                for m in matcher.matches_at(aig, &ps, idx) {
                    let target = if m.root_compl { &mut neg } else { &mut pos };
                    add_match_points(
                        aig,
                        lib,
                        opts,
                        c_def,
                        &curves,
                        idx,
                        m.gate,
                        &m.pin_bindings,
                        target,
                        &mut sweep,
                        &mut arena,
                    );
                }
            }
        }
        pos.finalize(opts.epsilon);
        neg.finalize(opts.epsilon);
        // Phase repair: inverters bridge phases; buffers strengthen within
        // a phase. Built from the raw curves only (no inv-of-inv).
        let raw_pos = pos.cheapest().map(|(_, p)| p.clone());
        let raw_neg = neg.cheapest().map(|(_, p)| p.clone());
        let invs = ps.inverters();
        phase_aug_points(
            aig,
            lib,
            opts,
            c_def,
            &pos,
            idx,
            true,
            invs,
            &mut arena,
            &mut aug_neg,
        );
        phase_aug_points(
            aig,
            lib,
            opts,
            c_def,
            &neg,
            idx,
            false,
            invs,
            &mut arena,
            &mut aug_pos,
        );
        for p in aug_neg.drain(..) {
            neg.push(p);
        }
        for p in aug_pos.drain(..) {
            pos.push(p);
        }
        pos.finalize(opts.epsilon);
        neg.finalize(opts.epsilon);
        // Pruning exemption: at coarse ε the merge can leave a phase with
        // only phase-repair (aug) points; a raw-only demand on that phase
        // would then dead-end and the output cone would be unmappable
        // (seen on s510 at ε = 0.5). Keep the least-power raw point alive.
        restore_raw_point(&mut pos, raw_pos);
        restore_raw_point(&mut neg, raw_neg);
        if pos.is_empty() && neg.is_empty() {
            let name = format!("aig_node_{idx}");
            return Err(MapError::UnmappedOutput(name));
        }
        obs::hist!("map.curve.points_after_prune", pos.points().len() as u64);
        obs::hist!("map.curve.points_after_prune", neg.points().len() as u64);
        curves.push([pos, neg]);
    }
    drop(postorder_span);

    // ---- required times ----------------------------------------------
    let fastest_of = |s: &Signal| -> Option<f64> {
        curves[s.node as usize][s.compl as usize]
            .fastest(opts.po_load, c_def)
            .map(|(_, p)| p.arrival_at_load(opts.po_load, c_def))
    };
    let mut worst = 0.0f64;
    for (name, s) in aig.outputs() {
        let f = fastest_of(s).ok_or_else(|| MapError::UnmappedOutput(name.clone()))?;
        worst = worst.max(f);
    }
    let required = opts.required_time.unwrap_or(worst);

    // ---- preorder: gate selection under demands -----------------------
    let preorder_span = obs::span!("map.preorder");
    let mut demands: HashMap<(u32, bool), Vec<Demand>> = HashMap::new();
    for (_, s) in aig.outputs() {
        demands.entry((s.node, s.compl)).or_default().push((
            required.max(fastest_of(s).expect("checked")),
            opts.po_load,
            false,
        ));
    }
    let mut chosen: HashMap<(u32, bool), usize> = HashMap::new();
    for idx in (0..aig.len() as u32).rev() {
        // A few phase iterations resolve same-node inverter demands.
        for _ in 0..4 {
            let mut progressed = false;
            for phase in [false, true] {
                let key = (idx, phase);
                let Some(ds) = demands.get(&key).cloned() else {
                    continue;
                };
                if ds.is_empty() {
                    continue;
                }
                let curve = &curves[idx as usize][phase as usize];
                let pick = select_point(curve, &ds, c_def);
                let Some(pick) = pick else {
                    continue;
                };
                let prev = chosen.insert(key, pick);
                if prev == Some(pick) {
                    continue;
                }
                progressed = true;
                // Emit demands for the chosen point's inputs.
                let point = &curve.points()[pick];
                if let Some(gi) = point.gate {
                    let gate = &lib.gates()[gi];
                    // Tightest requirement in default-load terms.
                    let req_def = ds
                        .iter()
                        .map(|&(r, l, _)| r - point.drive * (l - c_def))
                        .fold(f64::INFINITY, f64::min);
                    for (pin_idx, s_in) in point.inputs.of(&arena).iter().enumerate() {
                        let pin = gate.pin(pin_idx);
                        let r_in = req_def - (pin.intrinsic + pin.drive * c_def);
                        let same_node_aug = s_in.node == idx;
                        demands.entry((s_in.node, s_in.compl)).or_default().push((
                            r_in,
                            pin.input_cap,
                            same_node_aug,
                        ));
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        demands.remove(&(idx, false));
        demands.remove(&(idx, true));
    }
    drop(preorder_span);

    // ---- netlist construction -----------------------------------------
    let _build_span = obs::span!("map.build");
    let mut built: HashMap<(u32, bool), NetRef> = HashMap::new();
    let mut instances: Vec<MappedInstance> = Vec::new();
    fn build(
        s: Signal,
        aig: &SubjectAig,
        curves: &[[Curve; 2]],
        arena: &[Signal],
        chosen: &HashMap<(u32, bool), usize>,
        built: &mut HashMap<(u32, bool), NetRef>,
        instances: &mut Vec<MappedInstance>,
    ) -> Result<NetRef, MapError> {
        let key = (s.node, s.compl);
        if let Some(&r) = built.get(&key) {
            return Ok(r);
        }
        if let AigNode::Pi { input } = aig.nodes()[s.node as usize] {
            if !s.compl {
                let r = NetRef::Pi(input);
                built.insert(key, r);
                return Ok(r);
            }
        }
        let pick = *chosen
            .get(&key)
            .ok_or_else(|| MapError::UnmappedOutput(format!("signal {s:?}")))?;
        // Borrow, don't clone: the curve store outlives the recursion and
        // is never mutated during netlist construction.
        let point = &curves[s.node as usize][s.compl as usize].points()[pick];
        let gi = point
            .gate
            .ok_or_else(|| MapError::UnmappedOutput(format!("signal {s:?}")))?;
        let mut ins = Vec::with_capacity(point.inputs.len());
        for &s_in in point.inputs.of(arena) {
            ins.push(build(s_in, aig, curves, arena, chosen, built, instances)?);
        }
        let name = format!(
            "g{}_{}{}",
            instances.len(),
            s.node,
            if s.compl { "n" } else { "p" }
        );
        instances.push(MappedInstance {
            name,
            gate: gi,
            inputs: ins,
            p_one: aig.p_signal(s),
            source: aig.source(s.node).to_string(),
        });
        let r = NetRef::Inst(instances.len() - 1);
        built.insert(key, r);
        Ok(r)
    }

    let mut outputs = Vec::new();
    for (name, s) in aig.outputs() {
        let r = build(
            *s,
            aig,
            &curves,
            &arena,
            &chosen,
            &mut built,
            &mut instances,
        )?;
        outputs.push((name.clone(), r));
    }
    let pi_p_one: Vec<f64> = aig
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match n {
            AigNode::Pi { .. } => Some(aig.p_one(i as u32)),
            AigNode::And { .. } => None,
        })
        .collect();
    Ok(MappedNetwork {
        instances,
        pi_names: aig.pi_names().to_vec(),
        pi_p_one,
        outputs,
        estimated_fastest: worst,
        estimated_required: required,
    })
}

/// Re-insert the cheapest raw point (captured before the phase-repair
/// push) into a curve whose surviving points are all same-node aug points,
/// so [`select_point`]'s raw-only filter always has a candidate. A no-op
/// when any raw point survived or when the phase never had one.
fn restore_raw_point(curve: &mut Curve, cheapest_raw: Option<Point>) {
    let Some(p) = cheapest_raw else { return };
    if curve.points().iter().any(|q| !q.is_same_node_aug()) {
        return;
    }
    curve.insert_exempt(p);
}

/// Cheapest point satisfying every demand; when none does, the point
/// minimizing the worst violation. Demands flagged `from_same_node_aug`
/// restrict the choice to raw (non-phase-augmented) points, preventing
/// inverter ping-pong between the two phases of one node.
fn select_point(curve: &Curve, demands: &[Demand], c_def: f64) -> Option<usize> {
    if curve.is_empty() {
        return None;
    }
    let raw_only = demands.iter().any(|&(_, _, aug)| aug);
    let mut best: Option<(usize, f64)> = None; // (idx, cost) among feasible
    let mut fallback: Option<(usize, f64)> = None; // (idx, worst violation)
    for (i, p) in curve.points().iter().enumerate() {
        if raw_only && p.is_same_node_aug() {
            continue;
        }
        let mut worst_violation = 0.0f64;
        for &(r, l, _) in demands {
            let arr = p.arrival_at_load(l, c_def);
            worst_violation = worst_violation.max(arr - r);
        }
        if worst_violation <= 1e-9 {
            if best.is_none() || p.cost < best.expect("some").1 {
                best = Some((i, p.cost));
            }
        } else if fallback.is_none() || worst_violation < fallback.expect("some").1 {
            fallback = Some((i, worst_violation));
        }
    }
    best.or(fallback).map(|(i, _)| i)
}

/// Per-pin state of the match sweep in [`add_match_points`].
#[derive(Debug, Default)]
struct PinSweep {
    /// The pin's fanin curve in order of arrival at the pin's load.
    index: LoadIndex,
    /// The pin's intrinsic delay.
    intrinsic: f64,
    /// The pin's load-dependent delay at the default output load,
    /// `drive · c_def`.
    load_delay: f64,
    /// Pin delay at the default output load, `intrinsic + drive · c_def`.
    delay: f64,
    /// How the pin prices its fanin points.
    price: PinPrice,
    /// Merge cursor: position in `index` of the pin's next candidate.
    next: usize,
    /// The candidate at `next`; infinite once the pin is exhausted.
    head: f64,
    /// Points meeting the current candidate's requirement, a prefix of
    /// `index`.
    admitted: usize,
    /// Selected point: the cheapest admitted one.
    sel: Option<usize>,
    /// Output arrival through this pin from the selected point.
    out_t: f64,
    /// Cost contribution of the selected point.
    term: f64,
}

/// The cost of a match before its pins' terms: the gate's area, or under
/// Method 2 the power of its own output net, of probability `p_out`, at
/// the default load `c_def`.
fn gate_cost(opts: &MapOptions, gate: &Gate, c_def: f64, p_out: f64) -> f64 {
    match opts.objective {
        MapObjective::Area => gate.area(),
        MapObjective::Power => match opts.power_method {
            PowerMethod::InputLoads => 0.0,
            PowerMethod::OutputLoad => opts
                .env
                .average_power_uw(c_def, opts.model.switching(p_out)),
        },
    }
}

/// How one gate pin prices the fanin points of the signal it consumes.
#[derive(Debug, Default, Clone, Copy)]
struct PinPrice {
    /// §3.3 fanout divisor of the fanin's accumulated cost.
    div: f64,
    /// Power of the pin's input net (Power objective only).
    load_pw: f64,
}

impl PinPrice {
    /// The price of a pin of input capacitance `input_cap` driven by `s`.
    fn new(opts: &MapOptions, aig: &SubjectAig, s: Signal, input_cap: f64) -> PinPrice {
        let div = if opts.dag_fanout_division {
            aig.fanout_count(s.node).max(1) as f64
        } else {
            1.0
        };
        let load_pw = match opts.objective {
            MapObjective::Area => 0.0,
            MapObjective::Power => {
                let e_in = opts.model.switching(aig.p_signal(s));
                opts.env.average_power_uw(input_cap, e_in)
            }
        };
        PinPrice { div, load_pw }
    }

    /// The cost this pin adds when its fanin point costs `point_cost`.
    /// Non-decreasing in `point_cost`: each form only adds to it or
    /// divides it by a positive divisor, and rounding keeps the order.
    fn term(&self, opts: &MapOptions, point_cost: f64) -> f64 {
        match opts.objective {
            MapObjective::Area => point_cost / self.div,
            MapObjective::Power => match opts.power_method {
                // Method 1: the input-net load belongs to this gate
                // alone — only the accumulated cone power is shared.
                PowerMethod::InputLoads => self.load_pw + point_cost / self.div,
                // Method 2: everything downstream was already
                // charged; share the whole contribution.
                PowerMethod::OutputLoad => (self.load_pw + point_cost) / self.div,
            },
        }
    }
}

impl PinSweep {
    /// The output arrival through this pin from a fanin point arriving
    /// at `arrival_at_load` at the pin. Non-decreasing in its argument:
    /// adding a constant is monotone under rounding.
    fn out_arrival(&self, arrival_at_load: f64) -> f64 {
        arrival_at_load + self.intrinsic + self.load_delay
    }

    /// The candidate at merge position `n`, or infinity past the end.
    fn candidate(&self, n: usize) -> f64 {
        if n < self.index.len() {
            self.out_arrival(self.index.arrival(n))
        } else {
            f64::INFINITY
        }
    }
}

/// Scratch of [`add_match_points`], reused across every match of a
/// mapping run so the sweep allocates nothing per match.
#[derive(Debug, Default)]
struct SweepScratch {
    /// One entry per gate pin (grown to the widest gate seen).
    pins: Vec<PinSweep>,
}

/// Compute and push the curve points of one match.
///
/// Every output arrival some fanin point can produce is a candidate `t`;
/// for each, every pin takes its cheapest fanin point meeting the pin's
/// requirement `t - delay`, and the resulting point is pushed. The
/// candidates are swept in increasing order, so each pin's requirement
/// only rises: its admitted points grow as a prefix of its [`LoadIndex`]
/// and its selection only moves to a later, cheaper point. Candidates
/// that select the same points as the previous one would re-push an
/// identical point, which changes nothing, and are skipped.
///
/// The candidates are generated lazily: each pin's index lists them in
/// order, so a k-way merge of the pins' streams yields them sorted. The
/// merge starts just below the first feasible candidate, at a boundary
/// of the 1e-12 dedup, and stops at the early exit.
#[allow(clippy::too_many_arguments)]
fn add_match_points(
    aig: &SubjectAig,
    lib: &Library,
    opts: &MapOptions,
    c_def: f64,
    curves: &[[Curve; 2]],
    node: u32,
    gate_idx: usize,
    bindings: &[Signal],
    out: &mut Curve,
    scratch: &mut SweepScratch,
    arena: &mut Vec<Signal>,
) {
    let gate = &lib.gates()[gate_idx];
    // Leaf curves must exist and be below this node (guaranteed: bindings
    // reference strictly lower nodes, or the node itself never — patterns
    // are rooted here).
    let pin_curve = |s: &Signal| &curves[s.node as usize][s.compl as usize];
    if bindings.iter().any(|s| pin_curve(s).is_empty()) {
        return;
    }
    let drive = gate.pins().iter().map(|p| p.drive).fold(0.0, f64::max);
    let base = gate_cost(opts, gate, c_def, aig.p_one(node));
    if scratch.pins.len() < bindings.len() {
        scratch.pins.resize_with(bindings.len(), PinSweep::default);
    }
    let pins = &mut scratch.pins[..bindings.len()];
    // `c_min`: the cost of selecting every pin's cheapest point, summed in
    // the same order as a candidate's cost, so no candidate costs less.
    let mut c_min = base;
    // `a_lo`: no candidate arrives before every pin's fastest point does.
    let mut a_lo = 0.0f64;
    for (pin_idx, (s, ps)) in bindings.iter().zip(pins.iter_mut()).enumerate() {
        let pin = gate.pin(pin_idx);
        let curve = pin_curve(s);
        ps.intrinsic = pin.intrinsic;
        ps.load_delay = pin.drive * c_def;
        ps.delay = ps.intrinsic + ps.load_delay;
        ps.price = PinPrice::new(opts, aig, *s, pin.input_cap);
        let (_, cheapest) = curve.cheapest().expect("non-empty");
        c_min += ps.price.term(opts, cheapest.cost);
        let (_, fastest) = curve.fastest(pin.input_cap, c_def).expect("non-empty");
        a_lo = a_lo.max(ps.out_arrival(fastest.arrival_at_load(pin.input_cap, c_def)));
    }
    // The early exit below, taken before any candidate: when `out`
    // rejects (a_lo, c_min), it rejects every candidate of this match.
    if out.insert_slot(a_lo, c_min).is_none() {
        obs::counter!("map.sweep.early_exits");
        return;
    }
    // Every candidate below `start` leaves the pin that sets `a_lo` with
    // no admitted point: admission allows 1e-9 of slack, and the rest of
    // the margin covers the rounding of the sums on either side (admission
    // is monotone in the candidate, so the largest one below `start`
    // decides for all). Each pin's stream starts at its first candidate
    // from `start` on.
    let start = a_lo - 2e-9 - a_lo.abs() * 1e-12;
    for (pin_idx, (s, ps)) in bindings.iter().zip(pins.iter_mut()).enumerate() {
        ps.index
            .rebuild(pin_curve(s), gate.pin(pin_idx).input_cap, c_def);
        ps.next = ps.index.count_while(|x| ps.out_arrival(x) < start);
        ps.admitted = 0;
        ps.sel = None;
    }
    // The dedup keeps a candidate unless it lies within 1e-12 of the last
    // candidate it kept, so a chain of closer steps crossing the start
    // would keep a different representative than the full sorted list
    // does. Back the start up until the merged predecessor of the first
    // candidate lies at least 1e-12 below it: the full dedup keeps that
    // candidate too, and from there both make the same decisions.
    loop {
        let first = pins
            .iter()
            .map(|ps| ps.candidate(ps.next))
            .fold(f64::INFINITY, f64::min);
        let prev = pins
            .iter()
            .filter(|ps| ps.next > 0)
            .map(|ps| ps.candidate(ps.next - 1))
            .fold(f64::NEG_INFINITY, f64::max);
        if first - prev >= 1e-12 {
            break;
        }
        for ps in pins.iter_mut() {
            if ps.next > 0 && ps.candidate(ps.next - 1) == prev {
                ps.next -= 1;
            }
        }
    }
    for ps in pins.iter_mut() {
        ps.head = ps.candidate(ps.next);
    }

    let mut inputs: Option<BindingRange> = None;
    let (mut pushes, mut drops, mut visited) = (0u64, 0u64, 0u64);
    let mut last = f64::NEG_INFINITY;
    // Each step takes the smallest head of the merge.
    while let Some(from) = (0..pins.len())
        .min_by(|&a, &b| pins[a].head.total_cmp(&pins[b].head))
        .filter(|&j| pins[j].head.is_finite())
    {
        let ps = &mut pins[from];
        let t = ps.head;
        ps.next += 1;
        ps.head = ps.candidate(ps.next);
        // The 1e-12 dedup of the sorted list, against the last kept one.
        if t - last < 1e-12 {
            continue;
        }
        last = t;
        visited += 1;
        let mut changed = false;
        let mut ok = true;
        for (pin_idx, (s, ps)) in bindings.iter().zip(pins.iter_mut()).enumerate() {
            ps.admitted = ps.index.admitted(t - ps.delay, ps.admitted);
            let sel = ps.index.cheapest_of(ps.admitted);
            if sel != ps.sel {
                changed = true;
                ps.sel = sel;
                if let Some(i) = sel {
                    let p = &pin_curve(s).points()[i];
                    ps.out_t =
                        ps.out_arrival(p.arrival_at_load(gate.pin(pin_idx).input_cap, c_def));
                    ps.term = ps.price.term(opts, p.cost);
                }
            }
            ok &= sel.is_some();
        }
        if !ok || !changed {
            continue;
        }
        let mut cost = base;
        let mut actual_t = 0.0f64;
        for ps in pins.iter() {
            actual_t = actual_t.max(ps.out_t);
            cost += ps.term;
        }
        if let Some(slot) = out.insert_slot(actual_t, cost) {
            pushes += 1;
            let inputs = *inputs.get_or_insert_with(|| BindingRange::append(arena, bindings));
            out.insert_at(
                slot,
                Point {
                    arrival: actual_t,
                    cost,
                    drive,
                    gate: Some(gate_idx),
                    inputs,
                },
            );
            continue;
        }
        drops += 1;
        // Exact early exit. Every later candidate selects the same or
        // later points in each pin's load order, so its `actual_t` is no
        // smaller than this one; its cost is a sum of non-decreasing
        // per-pin terms in the same order as `c_min`, so it is no smaller
        // than `c_min`. While matches are added, `out` holds only pushed
        // points (prune-exempt inserts come after the second `finalize`),
        // so it is strictly monotone and the point `push` compares against
        // is the cheapest no-later one: if it rejects (actual_t, c_min),
        // it rejects every (arrival, cost) at least as late and as costly.
        // A rejected candidate leaves `out` unchanged, so by induction
        // every remaining candidate of this match would be dropped.
        if out.insert_slot(actual_t, c_min).is_none() {
            obs::counter!("map.sweep.early_exits");
            break;
        }
    }
    if visited > 0 {
        obs::counter!("map.sweep.candidates", visited);
    }
    if pushes > 0 {
        obs::counter!("map.curve.pushes", pushes);
    }
    if drops > 0 {
        obs::counter!("map.curve.dominated_drops", drops);
    }
}

/// Write into `out` the points obtained by applying each inverter cell to
/// the other phase's raw curve.
#[allow(clippy::too_many_arguments)]
fn phase_aug_points(
    aig: &SubjectAig,
    lib: &Library,
    opts: &MapOptions,
    c_def: f64,
    source: &Curve,
    node: u32,
    source_is_pos: bool,
    inverters: &[usize],
    arena: &mut Vec<Signal>,
    out: &mut Vec<Point>,
) {
    out.clear();
    if source.is_empty() {
        return;
    }
    // The inverter consumes the source-phase signal.
    let in_sig = Signal {
        node,
        compl: !source_is_pos,
    };
    let inputs = BindingRange::append(arena, &[in_sig]);
    let p_out = aig.p_signal(in_sig.not());
    for &gi in inverters {
        let gate = &lib.gates()[gi];
        let pin = gate.pin(0);
        let base = gate_cost(opts, gate, c_def, p_out);
        let price = PinPrice::new(opts, aig, in_sig, pin.input_cap);
        for p in source.points() {
            let arr = p.arrival_at_load(pin.input_cap, c_def) + pin.intrinsic + pin.drive * c_def;
            let cost = base + price.term(opts, p.cost);
            out.push(Point {
                arrival: arr,
                cost,
                drive: pin.drive,
                gate: Some(gi),
                inputs,
            });
        }
    }
}

impl Point {
    /// True when the point is a single-input (phase-repair inverter or
    /// buffer) point, whose input is by construction the same node's other
    /// phase.
    fn is_same_node_aug(&self) -> bool {
        self.inputs.len() == 1 && self.gate.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::evaluate;
    use activity::analyze;
    use genlib::builtin::lib2_like;
    use netlist::parse_blif;

    fn subject(blif: &str, probs: &[f64]) -> (netlist::Network, SubjectAig) {
        let net = parse_blif(blif).unwrap().network;
        let act = analyze(&net, probs, TransitionModel::StaticCmos);
        let aig = SubjectAig::from_network(&net, &act).unwrap();
        (net, aig)
    }

    fn check_function(net: &netlist::Network, m: &MappedNetwork, lib: &Library) {
        let n = net.inputs().len();
        assert!(n <= 12);
        for bits in 0..(1u64 << n) {
            let pis: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            // evaluate mapped netlist
            let mut vals: Vec<bool> = Vec::with_capacity(m.instances.len());
            for inst in &m.instances {
                let ins: Vec<bool> = inst
                    .inputs
                    .iter()
                    .map(|r| match r {
                        NetRef::Pi(i) => pis[*i],
                        NetRef::Inst(i) => vals[*i],
                    })
                    .collect();
                vals.push(lib.gates()[inst.gate].eval(&ins));
            }
            let got: Vec<bool> = m
                .outputs
                .iter()
                .map(|(_, r)| match r {
                    NetRef::Pi(i) => pis[*i],
                    NetRef::Inst(i) => vals[*i],
                })
                .collect();
            assert_eq!(got, net.eval_outputs(&pis), "mismatch at {pis:?}");
        }
    }

    const AND_OR: &str = ".model t\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
                          .names x c f\n1- 1\n-1 1\n.end\n";

    #[test]
    fn maps_small_network_correctly() {
        let lib = lib2_like();
        let (net, aig) = subject(AND_OR, &[0.5; 3]);
        let m = map_network(&aig, &lib, &MapOptions::power()).unwrap();
        assert!(!m.instances.is_empty());
        check_function(&net, &m, &lib);
    }

    #[test]
    fn area_map_correct_too() {
        let lib = lib2_like();
        let (net, aig) = subject(AND_OR, &[0.5; 3]);
        let m = map_network(&aig, &lib, &MapOptions::area()).unwrap();
        check_function(&net, &m, &lib);
    }

    #[test]
    fn single_gate_cover_preferred_by_area() {
        // f = ab + c should map to ao21 (area 4) rather than and2+or2
        // (area 6) under the area objective.
        let lib = lib2_like();
        let (net, aig) = subject(AND_OR, &[0.5; 3]);
        let m = map_network(&aig, &lib, &MapOptions::area()).unwrap();
        check_function(&net, &m, &lib);
        let total_area: f64 = m.instances.iter().map(|i| lib.gates()[i.gate].area()).sum();
        assert!(total_area <= 4.0 + 1e-9, "area {total_area} too big");
    }

    #[test]
    fn xor_maps_to_xor_cell() {
        let lib = lib2_like();
        let (net, aig) = subject(
            ".model t\n.inputs a b\n.outputs f\n.names b bn\n0 1\n.names a an\n0 1\n\
             .names a bn x\n11 1\n.names an b y\n11 1\n.names x y f\n1- 1\n-1 1\n.end\n",
            &[0.5, 0.5],
        );
        let m = map_network(&aig, &lib, &MapOptions::area()).unwrap();
        check_function(&net, &m, &lib);
        let names: Vec<&str> = m
            .instances
            .iter()
            .map(|i| lib.gates()[i.gate].name())
            .collect();
        assert!(
            names.contains(&"xor2") || names.contains(&"xnor2"),
            "expected an xor cell, got {names:?}"
        );
    }

    #[test]
    fn inverted_output_gets_inverter_or_inverting_gate() {
        let lib = lib2_like();
        let (net, aig) = subject(
            ".model t\n.inputs a b\n.outputs f\n.names a b x\n11 1\n.names x f\n0 1\n.end\n",
            &[0.5, 0.5],
        );
        let m = map_network(&aig, &lib, &MapOptions::power()).unwrap();
        check_function(&net, &m, &lib);
        // best cover is a single 2-input NAND (either drive strength)
        assert_eq!(m.instances.len(), 1);
        let g = &lib.gates()[m.instances[0].gate];
        assert!(g.name().starts_with("nand2"), "got {}", g.name());
    }

    #[test]
    fn power_map_no_slower_than_its_own_target() {
        let lib = lib2_like();
        let blif = ".model t\n.inputs a b c d e\n.outputs f\n\
                    .names a b x\n11 1\n.names c d y\n11 1\n\
                    .names x y z\n1- 1\n-1 1\n.names z e f\n11 1\n.end\n";
        let (net, aig) = subject(blif, &[0.5; 5]);
        let popt = MapOptions::power();
        let m = map_network(&aig, &lib, &popt).unwrap();
        check_function(&net, &m, &lib);
        let rep = evaluate(&m, &lib, &popt.env, popt.model, popt.po_load);
        // delay target was "fastest achievable at default load" — the real
        // delay (actual loads) should be in the same ballpark; sanity only:
        assert!(rep.delay > 0.0 && rep.delay < 100.0);
    }

    #[test]
    fn pd_map_spends_area_to_save_power() {
        // High-activity internal node: pd-map should hide it inside a
        // complex gate even at an area premium. Compare total power.
        let lib = lib2_like();
        let blif = ".model t\n.inputs a b c d\n.outputs f\n\
                    .names a b x\n11 1\n.names c d y\n1- 1\n-1 1\n\
                    .names x y f\n1- 1\n-1 1\n.end\n";
        let probs = [0.5, 0.5, 0.5, 0.5];
        let (net, aig) = subject(blif, &probs);
        let pm = map_network(&aig, &lib, &MapOptions::power()).unwrap();
        let am = map_network(&aig, &lib, &MapOptions::area()).unwrap();
        check_function(&net, &pm, &lib);
        check_function(&net, &am, &lib);
        let env = PowerEnv::new();
        let pr = evaluate(&pm, &lib, &env, TransitionModel::StaticCmos, 1.0);
        let ar = evaluate(&am, &lib, &env, TransitionModel::StaticCmos, 1.0);
        assert!(
            pr.power_uw <= ar.power_uw + 1e-9,
            "pd-map power {} must not exceed ad-map power {}",
            pr.power_uw,
            ar.power_uw
        );
    }

    /// The cross-scan `add_match_points` the sweep replaced: every
    /// candidate re-scans every pin's curve and pushes its point. Kept as
    /// the oracle for the sweep.
    #[allow(clippy::too_many_arguments)]
    fn add_match_points_reference(
        aig: &SubjectAig,
        lib: &Library,
        opts: &MapOptions,
        c_def: f64,
        curves: &[[Curve; 2]],
        node: u32,
        gate_idx: usize,
        bindings: &[Signal],
        out: &mut Curve,
        arena: &mut Vec<Signal>,
    ) {
        fn best_within(c: &Curve, required: f64, load: f64, c_def: f64) -> Option<&Point> {
            c.points()
                .iter()
                .filter(|p| p.arrival_at_load(load, c_def) <= required + 1e-9)
                .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite"))
        }
        let gate = &lib.gates()[gate_idx];
        let pin_curve = |s: &Signal| &curves[s.node as usize][s.compl as usize];
        if bindings.iter().any(|s| pin_curve(s).is_empty()) {
            return;
        }
        let mut cands = Vec::new();
        for (pin_idx, s) in bindings.iter().enumerate() {
            let pin = gate.pin(pin_idx);
            for p in pin_curve(s).points() {
                cands.push(
                    p.arrival_at_load(pin.input_cap, c_def) + pin.intrinsic + pin.drive * c_def,
                );
            }
        }
        cands.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        cands.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let drive = gate.pins().iter().map(|p| p.drive).fold(0.0, f64::max);
        for &t in cands.iter() {
            let mut cost = match opts.objective {
                MapObjective::Area => gate.area(),
                MapObjective::Power => match opts.power_method {
                    PowerMethod::InputLoads => 0.0,
                    PowerMethod::OutputLoad => {
                        let p_out = aig.p_one(node);
                        opts.env
                            .average_power_uw(c_def, opts.model.switching(p_out))
                    }
                },
            };
            let mut actual_t = 0.0f64;
            let mut ok = true;
            for (pin_idx, s) in bindings.iter().enumerate() {
                let pin = gate.pin(pin_idx);
                let s = *s;
                let req = t - (pin.intrinsic + pin.drive * c_def);
                let Some(p) = best_within(pin_curve(&s), req, pin.input_cap, c_def) else {
                    ok = false;
                    break;
                };
                actual_t = actual_t.max(
                    p.arrival_at_load(pin.input_cap, c_def) + pin.intrinsic + pin.drive * c_def,
                );
                let div = if opts.dag_fanout_division {
                    aig.fanout_count(s.node).max(1) as f64
                } else {
                    1.0
                };
                cost += match opts.objective {
                    MapObjective::Area => p.cost / div,
                    MapObjective::Power => {
                        let e_in = opts.model.switching(aig.p_signal(s));
                        let load_pw = opts.env.average_power_uw(pin.input_cap, e_in);
                        match opts.power_method {
                            PowerMethod::InputLoads => load_pw + p.cost / div,
                            PowerMethod::OutputLoad => (load_pw + p.cost) / div,
                        }
                    }
                };
            }
            if !ok {
                continue;
            }
            out.push(Point {
                arrival: actual_t,
                cost,
                drive,
                gate: Some(gate_idx),
                inputs: BindingRange::append(arena, bindings),
            });
        }
    }

    /// A random fanin curve. Coarse grids make equal arrivals, costs and
    /// drives common; about every third curve also holds a prune-exempt
    /// point, which breaks monotonicity and may tie an ordinary point's
    /// cost.
    fn random_curve(rng: &mut rand::rngs::StdRng, epsilon: f64) -> Curve {
        use rand::Rng;
        let coarse = rng.gen_bool(0.5);
        let mut c = Curve::new();
        for _ in 0..rng.gen_range(1usize..16) {
            let (arrival, cost, drive) = if coarse {
                (
                    rng.gen_range(0..24) as f64 * 0.25,
                    rng.gen_range(0..10) as f64,
                    rng.gen_range(0..4) as f64 * 0.5,
                )
            } else {
                (
                    rng.gen_range(0.0..6.0),
                    rng.gen_range(0.0..20.0),
                    rng.gen_range(0.0..2.0),
                )
            };
            c.push(Point {
                arrival,
                cost,
                drive,
                gate: None,
                inputs: BindingRange::EMPTY,
            });
        }
        c.finalize(epsilon);
        if rng.gen_range(0..3) == 0 {
            let q = c.points()[rng.gen_range(0..c.points().len())].clone();
            let mut exempt = q.clone();
            exempt.arrival += rng.gen_range(0..3) as f64 * 0.25;
            if rng.gen_bool(0.5) {
                exempt.cost += 1.0;
            }
            c.insert_exempt(exempt);
        }
        c
    }

    #[test]
    fn match_sweep_matches_cross_scan_reference() {
        use rand::{Rng, SeedableRng};
        // Reconvergent fanout, so fanout counts (the §3.3 divisor) differ.
        let blif = ".model t\n.inputs a b c d e\n.outputs f g\n\
                    .names a b x\n11 1\n.names x c y\n1- 1\n-1 1\n\
                    .names x d z\n11 1\n.names y z w\n11 1\n\
                    .names w e f\n11 1\n.names y z g\n1- 1\n-1 1\n.end\n";
        let (_, aig) = subject(blif, &[0.5, 0.3, 0.8, 0.5, 0.1]);
        let lib = lib2_like();
        let c_def = lib.default_load();
        let node = aig.len() as u32 - 1;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EE9);
        let mut scratch = SweepScratch::default();
        let (mut want_arena, mut got_arena) = (Vec::new(), Vec::new());
        let session = obs::Session::start();
        let mut pushed = 0;
        for case in 0..400 {
            let epsilon = [0.0, 0.05, 0.5][case % 3];
            let opts = MapOptions {
                objective: [MapObjective::Power, MapObjective::Area][case % 2],
                power_method: [PowerMethod::InputLoads, PowerMethod::OutputLoad][case / 2 % 2],
                dag_fanout_division: case / 4 % 2 == 0,
                epsilon,
                ..MapOptions::power()
            };
            let mut curves: Vec<[Curve; 2]> = (0..node)
                .map(|_| {
                    [
                        random_curve(&mut rng, epsilon),
                        random_curve(&mut rng, epsilon),
                    ]
                })
                .collect();
            // The target curve starts with points of earlier matches.
            let mut seeded = Curve::new();
            for _ in 0..rng.gen_range(0..6) {
                seeded.push(Point {
                    arrival: rng.gen_range(2.0..12.0),
                    cost: rng.gen_range(0.0..40.0),
                    drive: 1.0,
                    gate: Some(0),
                    inputs: BindingRange::EMPTY,
                });
            }
            let (mut want, mut got) = (seeded.clone(), seeded);
            for _ in 0..rng.gen_range(1..4) {
                let gate_idx = rng.gen_range(0..lib.gates().len());
                let gate = &lib.gates()[gate_idx];
                let k = gate.pins().len();
                // Repeated signals are allowed: two pins may share a curve.
                let bindings: Vec<Signal> = (0..k)
                    .map(|_| Signal {
                        node: rng.gen_range(0..node),
                        compl: rng.gen_bool(0.5),
                    })
                    .collect();
                if k > 1 && rng.gen_bool(0.5) {
                    // Put a point of pin `a` within ±2e-9 of the
                    // requirement a candidate from pin `b` sets for it.
                    let (a, b) = (rng.gen_range(0..k), rng.gen_range(0..k));
                    let (pa, pb) = (gate.pin(a), gate.pin(b));
                    let sb = bindings[b];
                    let cb = &curves[sb.node as usize][sb.compl as usize];
                    let q = &cb.points()[rng.gen_range(0..cb.points().len())];
                    let t =
                        q.arrival_at_load(pb.input_cap, c_def) + pb.intrinsic + pb.drive * c_def;
                    let req = t - (pa.intrinsic + pa.drive * c_def);
                    let delta =
                        [-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9][rng.gen_range(0..7usize)];
                    let drive = rng.gen_range(0..4) as f64 * 0.5;
                    let p = Point {
                        arrival: req + delta - drive * (pa.input_cap - c_def),
                        cost: rng.gen_range(0..10) as f64,
                        drive,
                        gate: None,
                        inputs: BindingRange::EMPTY,
                    };
                    let sa = bindings[a];
                    let ca = &mut curves[sa.node as usize][sa.compl as usize];
                    if rng.gen_bool(0.5) {
                        ca.push(p);
                    } else {
                        ca.insert_exempt(p);
                    }
                }
                add_match_points_reference(
                    &aig,
                    &lib,
                    &opts,
                    c_def,
                    &curves,
                    node,
                    gate_idx,
                    &bindings,
                    &mut want,
                    &mut want_arena,
                );
                add_match_points(
                    &aig,
                    &lib,
                    &opts,
                    c_def,
                    &curves,
                    node,
                    gate_idx,
                    &bindings,
                    &mut got,
                    &mut scratch,
                    &mut got_arena,
                );
            }
            // Bit patterns, so even a sign-of-zero difference fails.
            let bits = |c: &Curve, arena: &[Signal]| -> Vec<String> {
                c.points()
                    .iter()
                    .map(|p| {
                        let (a, c, d) = (p.arrival.to_bits(), p.cost.to_bits(), p.drive.to_bits());
                        format!("{a:x} {c:x} {d:x} {:?} {:?}", p.gate, p.inputs.of(arena))
                    })
                    .collect()
            };
            assert_eq!(
                bits(&got, &got_arena),
                bits(&want, &want_arena),
                "case {case}"
            );
            pushed += got.points().len();
        }
        let report = session.finish();
        // The cases reach the early exit, not just the plain sweep.
        let exits = report.metrics.counters.get("map.sweep.early_exits");
        assert!(exits.is_some_and(|&n| n > 0), "no early exit taken");
        assert!(pushed > 0);
    }

    #[test]
    fn match_sweep_start_keeps_the_dedup_representatives() {
        // and3's pins have equal delays, so equal fanin arrivals give
        // equal candidates on every pin.
        let blif = ".model t\n.inputs a b c\n.outputs f\n.names a b x\n11 1\n\
                    .names x c f\n11 1\n.end\n";
        let (_, aig) = subject(blif, &[0.5, 0.3, 0.8]);
        let lib = lib2_like();
        let c_def = lib.default_load();
        let gate_idx = lib.gates().iter().position(|g| g.name() == "and3").unwrap();
        let node = aig.len() as u32 - 1;
        let bindings: Vec<Signal> = (0..3)
            .map(|n| Signal {
                node: n,
                compl: false,
            })
            .collect();
        let point = |arrival: f64, cost: f64| Point {
            arrival,
            cost,
            drive: 0.0,
            gate: None,
            inputs: BindingRange::EMPTY,
        };
        // Pins 0 and 2 are fastest at `x0`, so their candidates tie
        // exactly at `a_lo`; pin 1 has a point there too.
        let x0 = 3.0;
        // Pin 1 also has a chain of arrivals `step` apart, from well below
        // the merge's start to past `a_lo`: the dedup keeps every other
        // chain candidate, and a merge starting at the first candidate at
        // or above its bound keeps the other half for one of the offsets.
        let step = 0.9e-12;
        for offset in [0.0, step] {
            for objective in [MapObjective::Power, MapObjective::Area] {
                let opts = MapOptions {
                    objective,
                    ..MapOptions::power()
                };
                let mut curves: Vec<[Curve; 2]> =
                    (0..node).map(|_| [Curve::new(), Curve::new()]).collect();
                curves[0][0].push(point(x0, 50.0));
                curves[0][0].push(point(x0 + 2e-9, 40.0));
                curves[2][0].push(point(x0, 30.0));
                let mut chain: Vec<f64> = (0..4444)
                    .map(|k| x0 - 3e-9 + offset + k as f64 * step)
                    .chain([x0])
                    .collect();
                chain.sort_by(f64::total_cmp);
                chain.dedup();
                for (k, &a) in chain.iter().enumerate() {
                    curves[1][0].push(point(a, 1e4 - k as f64));
                }
                let (mut want, mut got) = (Curve::new(), Curve::new());
                let (mut want_arena, mut got_arena) = (Vec::new(), Vec::new());
                add_match_points_reference(
                    &aig,
                    &lib,
                    &opts,
                    c_def,
                    &curves,
                    node,
                    gate_idx,
                    &bindings,
                    &mut want,
                    &mut want_arena,
                );
                add_match_points(
                    &aig,
                    &lib,
                    &opts,
                    c_def,
                    &curves,
                    node,
                    gate_idx,
                    &bindings,
                    &mut got,
                    &mut SweepScratch::default(),
                    &mut got_arena,
                );
                let bits = |c: &Curve, arena: &[Signal]| -> Vec<String> {
                    c.points()
                        .iter()
                        .map(|p| {
                            let (a, c) = (p.arrival.to_bits(), p.cost.to_bits());
                            format!("{a:x} {c:x} {:?}", p.inputs.of(arena))
                        })
                        .collect()
                };
                assert!(
                    want.points().len() > 100,
                    "the chain reaches the feasible candidates"
                );
                assert_eq!(
                    bits(&got, &got_arena),
                    bits(&want, &want_arena),
                    "offset {offset:e}, {objective:?}"
                );
            }
        }
    }

    #[test]
    fn shared_node_mapped_once() {
        let lib = lib2_like();
        let blif = ".model t\n.inputs a b c\n.outputs f g\n.names a b x\n11 1\n\
                    .names x c f\n11 1\n.names x c g\n1- 1\n-1 1\n.end\n";
        let (net, aig) = subject(blif, &[0.5; 3]);
        let m = map_network(&aig, &lib, &MapOptions::power()).unwrap();
        check_function(&net, &m, &lib);
    }
}
