//! Greedy common-divisor extraction (`fast_extract` analogue).
//!
//! Candidate divisors are (a) kernels shared between node covers and
//! (b) common cubes (literal pairs). The best candidate by literal savings
//! is materialized as a new network node, all covers are rewritten through
//! it, and the search repeats until no candidate saves literals.

use crate::division::divide;
use crate::kernels::kernels;
use netlist::{Cube, Lit, Network, NodeId, Sop};
use std::collections::{BTreeSet, HashMap};

/// A literal over a *network node* rather than a local position.
pub(crate) type GLit = (NodeId, bool);

/// A cube as a sorted set of global literals.
pub(crate) type GCube = Vec<GLit>;

pub(crate) fn to_gcubes(net: &Network, id: NodeId) -> Vec<GCube> {
    let node = net.node(id);
    sop_gcubes(node.sop().expect("logic node"), node.fanins())
}

/// The cubes of `sop` over the global literals of `fanins`.
fn sop_gcubes(sop: &Sop, fanins: &[NodeId]) -> Vec<GCube> {
    sop.cubes()
        .iter()
        .map(|c| {
            let mut v: GCube = c
                .bound_lits()
                .map(|(i, l)| (fanins[i], l == Lit::Pos))
                .collect();
            v.sort();
            v
        })
        .collect()
}

pub(crate) fn from_gcubes(gcubes: &[GCube]) -> (Vec<NodeId>, Sop) {
    let mut fanins: Vec<NodeId> = Vec::new();
    for c in gcubes {
        for &(n, _) in c {
            if !fanins.contains(&n) {
                fanins.push(n);
            }
        }
    }
    fanins.sort();
    let width = fanins.len();
    let cubes: Vec<Cube> = gcubes
        .iter()
        .map(|c| {
            let mut cube = Cube::tautology(width);
            for &(n, phase) in c {
                let pos = fanins.binary_search(&n).expect("fanin present");
                cube.set_lit(pos, if phase { Lit::Pos } else { Lit::Neg });
            }
            cube
        })
        .collect();
    let mut sop = Sop::from_cubes(width, cubes);
    sop.make_scc_minimal();
    (fanins, sop)
}

/// Canonical key of a divisor (sorted cube set).
fn divisor_key(cubes: &[GCube]) -> Vec<GCube> {
    let mut k = cubes.to_vec();
    k.sort();
    k.dedup();
    k
}

/// Divide a cover built by [`from_gcubes`] by divisor `d`, expressed over
/// the cover's fanins: the quotient and remainder, or `None` when `d` uses
/// another signal or does not divide the cover.
fn divide_cover((fanins, f): (&[NodeId], &Sop), d: &[GCube]) -> Option<(Sop, Sop)> {
    let mut dcubes = Vec::with_capacity(d.len());
    for c in d {
        let mut cube = Cube::tautology(fanins.len());
        for &(n, phase) in c {
            let pos = fanins.binary_search(&n).ok()?;
            cube.set_lit(pos, if phase { Lit::Pos } else { Lit::Neg });
        }
        dcubes.push(cube);
    }
    let (q, r) = divide(f, &Sop::from_cubes(fanins.len(), dcubes));
    (!q.is_zero()).then_some((q, r))
}

/// Weighted literal savings of rewriting a cover built by [`from_gcubes`]
/// through divisor `d` (multi-cube case, via algebraic division in the
/// global-literal space): each removed literal of signal `s` saves
/// `weight(s)`; each created reference to the new divisor node costs
/// `divisor_weight`. Returns the (possibly fractional) weighted saving, 0
/// when the divisor does not divide the cover.
pub(crate) fn division_saving_weighted(
    (fanins, f): &(Vec<NodeId>, Sop),
    d: &[GCube],
    weight: &dyn Fn(NodeId) -> f64,
    divisor_weight: f64,
) -> f64 {
    divide_cover((fanins, f), d).map_or(0.0, |qr| {
        quotient_saving((fanins, f), &qr, weight, divisor_weight)
    })
}

/// Weighted literal savings of rewriting cover `(fanins, f)` as `q·d + r`
/// (see [`division_saving_weighted`]).
fn quotient_saving(
    (fanins, f): (&[NodeId], &Sop),
    (q, r): &(Sop, Sop),
    weight: &dyn Fn(NodeId) -> f64,
    divisor_weight: f64,
) -> f64 {
    let lits_weight = |s: &Sop| -> f64 {
        s.cubes()
            .iter()
            .map(|c| c.bound_lits().map(|(i, _)| weight(fanins[i])).sum::<f64>())
            .sum()
    };
    let old = lits_weight(f);
    let new = lits_weight(q) + q.cube_count() as f64 * divisor_weight + lits_weight(r);
    (old - new).max(0.0)
}

/// Report of an extraction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractReport {
    /// New divisor nodes created.
    pub divisors_created: usize,
    /// Total literals saved (estimated by the greedy metric).
    pub literals_saved: usize,
}

/// Run greedy extraction until no divisor saves literals.
///
/// `max_rounds` bounds the number of extracted divisors (0 = unlimited).
pub fn extract(net: &mut Network, max_rounds: usize) -> ExtractReport {
    extract_rounds(net, None, max_rounds, best_divisor)
}

/// **Power-aware extraction** — the paper's §5 future-work direction
/// ("the idea of generating nodes with minimum switching activity can be
/// extended to the technology independent phase"): divisor candidates are
/// scored by *switching-activity-weighted* literal savings. Removing a
/// literal of signal `s` saves a net load toggling `E(s)` times per cycle;
/// referencing the new divisor node costs its own activity. Activities are
/// exact (global BDDs) and recomputed after every extraction.
///
/// # Panics
/// Panics if `pi_probs.len()` differs from the input count.
pub fn extract_power_aware(
    net: &mut Network,
    pi_probs: &[f64],
    max_rounds: usize,
) -> ExtractReport {
    assert_eq!(
        pi_probs.len(),
        net.inputs().len(),
        "PI probability count mismatch"
    );
    extract_rounds(net, Some(pi_probs), max_rounds, best_divisor)
}

/// Picks one round's divisor: [`best_divisor`]'s signature.
pub(crate) type Scorer = fn(&Network, Option<&[f64]>) -> Option<(Vec<GCube>, f64)>;

/// The greedy loop of [`extract`] (`pi_probs` = None) and
/// [`extract_power_aware`]: extract `best`'s divisor until it saves
/// nothing or `max_rounds` divisors exist (0 = unlimited).
pub(crate) fn extract_rounds(
    net: &mut Network,
    pi_probs: Option<&[f64]>,
    max_rounds: usize,
    best: Scorer,
) -> ExtractReport {
    use activity::{analyze, TransitionModel};
    let mut report = ExtractReport::default();
    while max_rounds == 0 || report.divisors_created < max_rounds {
        // Per-net switching weights (phase-independent: literals of either
        // polarity load the same net), indexed by arena position.
        let weights = pi_probs.map(|probs| {
            let act = analyze(net, probs, TransitionModel::StaticCmos);
            let mut weights = vec![0.0f64; net.arena_len()];
            for id in net.node_ids() {
                weights[id.index()] = act.switching(id);
            }
            weights
        });
        let Some((divisor, saving)) = best(net, weights.as_deref()) else {
            break;
        };
        // Weighted savings are fractional: below 1e-12 they are noise.
        let floor = if weights.is_some() { 1e-12 } else { 0.0 };
        if saving <= floor {
            break;
        }
        apply_divisor(net, &divisor);
        report.divisors_created += 1;
        report.literals_saved += if weights.is_some() {
            saving.round() as usize
        } else {
            saving as usize
        };
    }
    net.sweep_dangling();
    report
}

/// Every candidate divisor of one round, in the deterministic order the
/// scoring loop visits them: kernels of the covers in `ids` and literal
/// pairs that occur in at least two cubes.
pub(crate) fn candidate_divisors(
    net: &Network,
    ids: &[NodeId],
    gcovers: &[Vec<GCube>],
) -> Vec<Vec<GCube>> {
    // BTreeSet, not HashSet: the scoring loop keeps the first-seen
    // candidate on ties, so the iteration order must not depend on the
    // process's hash seeds.
    let mut candidates: BTreeSet<Vec<GCube>> = BTreeSet::new();

    // Kernel candidates.
    for &id in ids {
        let node = net.node(id);
        let sop = node.sop().expect("logic node");
        if sop.cube_count() < 2 || sop.cube_count() > 20 {
            continue; // cap kernel enumeration on huge covers
        }
        for k in kernels(sop) {
            if k.kernel.cube_count() < 2 {
                continue;
            }
            candidates.insert(divisor_key(&sop_gcubes(&k.kernel, node.fanins())));
        }
    }

    // Literal-pair (common cube) candidates.
    let mut pair_count: HashMap<(GLit, GLit), usize> = HashMap::new();
    for cubes in gcovers {
        for c in cubes {
            for i in 0..c.len() {
                for j in i + 1..c.len() {
                    *pair_count.entry((c[i], c[j])).or_insert(0) += 1;
                }
            }
        }
    }
    for (&(a, b), &count) in &pair_count {
        if count >= 2 {
            candidates.insert(vec![vec![a, b]]);
        }
    }
    candidates.into_iter().collect()
}

/// Scoring weights of one candidate divisor: the weight of each literal
/// reference to the new node, and the cost of the divisor's own literals.
pub(crate) fn divisor_weights(div: &[GCube], weights: Option<&[f64]>) -> (f64, f64) {
    // Estimate the new node's own activity for the weighted case: the
    // divisor output probability over independent literal probabilities
    // is unknown here, so use the mean weight of its literals as a
    // conservative stand-in (exact activities are recomputed after the
    // divisor is materialized).
    let div_lits: Vec<f64> = div
        .iter()
        .flat_map(|c| c.iter().map(|&(n, _)| weight_of(weights, n)))
        .collect();
    let divisor_weight = if weights.is_some() {
        div_lits.iter().copied().sum::<f64>() / div_lits.len().max(1) as f64
    } else {
        1.0
    };
    (divisor_weight, div_lits.iter().sum())
}

/// Per-literal weight of signal `n` (1 when unweighted).
pub(crate) fn weight_of(weights: Option<&[f64]>, n: NodeId) -> f64 {
    weights.map_or(1.0, |w| w[n.index()])
}

/// Find the best candidate divisor and its total (possibly weighted)
/// literal saving. `weights` maps arena index → per-literal weight (None =
/// unweighted).
fn best_divisor(net: &Network, weights: Option<&[f64]>) -> Option<(Vec<GCube>, f64)> {
    let ids: Vec<NodeId> = net.logic_ids().collect();
    let gcovers: Vec<Vec<GCube>> = ids.iter().map(|&id| to_gcubes(net, id)).collect();
    let candidates = candidate_divisors(net, &ids, &gcovers);
    // Each node's cover over the signals it uses, built once per round, and
    // the nodes using each signal, as positions in `ids` (so in node order).
    let covers: Vec<(Vec<NodeId>, Sop)> = gcovers.iter().map(|c| from_gcubes(c)).collect();
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); net.arena_len()];
    for (k, (fanins, _)) in covers.iter().enumerate() {
        for f in fanins {
            users[f.index()].push(k);
        }
    }

    // Score every candidate by total saving across nodes, minus the cost of
    // instantiating the divisor node itself.
    let weight = |n: NodeId| weight_of(weights, n);
    let mut best: Option<(Vec<GCube>, f64)> = None;
    for div in candidates {
        let (divisor_weight, div_cost) = divisor_weights(&div, weights);
        // Only a node that uses every signal of `div` can be divided by it;
        // every other node saves exactly 0.0. So the users of its rarest
        // signal give the same sum, still added in node order: float
        // addition is not associative, and another order would let
        // rounding perturb the candidate ranking.
        let Some(scored) = div
            .iter()
            .flatten()
            .map(|&(n, _)| &users[n.index()])
            .min_by_key(|u| u.len())
        else {
            continue; // no literal: divides nothing
        };
        obs::counter!("logicopt.extract.divisions", scored.len() as u64);
        let mut saving_total = 0.0;
        for &k in scored {
            saving_total += division_saving_weighted(&covers[k], &div, &weight, divisor_weight);
        }
        let net_saving = saving_total - div_cost;
        if net_saving > 0.0 && best.as_ref().is_none_or(|(_, s)| net_saving > *s) {
            best = Some((div, net_saving));
        }
    }
    best
}

/// Materialize the divisor as a node and rewrite all covers through it.
pub(crate) fn apply_divisor(net: &mut Network, divisor: &[GCube]) {
    let (d_fanins, d_sop) = from_gcubes(divisor);
    let name = net.fresh_name("ext_");
    let d_id = net
        .add_logic(name, d_fanins, d_sop)
        .expect("fresh divisor name is unique");

    // Only a node that uses every signal of the divisor can be divided by
    // it, so the fanouts of its rarest signal are the only candidates; the
    // divisor node itself is among them.
    let signals = divisor.iter().flatten().map(|&(n, _)| n);
    let rarest = signals.min_by_key(|&n| net.node(n).fanouts().len());
    let mut ids: Vec<NodeId> = rarest.map_or_else(Vec::new, |n| net.node(n).fanouts().to_vec());
    ids.retain(|&id| id != d_id);
    ids.sort();
    for id in ids {
        let (fanins, f) = from_gcubes(&to_gcubes(net, id));
        let Some(qr) = divide_cover((&fanins, &f), divisor) else {
            continue;
        };
        if quotient_saving((&fanins, &f), &qr, &|_| 1.0, 1.0) as usize == 0 {
            continue;
        }
        let (q, r) = qr;
        // new cover = q·x + r over fanins + [d_id]
        let mut new_fanins = fanins;
        new_fanins.push(d_id);
        let nw = new_fanins.len();
        let mut new_cubes: Vec<Cube> = Vec::new();
        for qc in q.cubes() {
            let mut c = qc.widen(1);
            c.set_lit(nw - 1, Lit::Pos);
            new_cubes.push(c);
        }
        for rc in r.cubes() {
            new_cubes.push(rc.widen(1));
        }
        let mut new_sop = Sop::from_cubes(nw, new_cubes);
        new_sop.make_scc_minimal();
        let (shrunk, kept) = new_sop.shrink_support();
        let kept_fanins: Vec<NodeId> = kept.iter().map(|&i| new_fanins[i]).collect();
        net.replace_function(id, kept_fanins, shrunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalent;
    use netlist::parse_blif;

    #[test]
    fn shared_kernel_is_extracted() {
        // f = a·c + b·c, g = a·d + b·d: shared kernel (a+b).
        let mut net = parse_blif(
            ".model t\n.inputs a b c d\n.outputs f g\n\
             .names a b c f\n1-1 1\n-11 1\n\
             .names a b d g\n1-1 1\n-11 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        let rep = extract(&mut net, 0);
        net.check().unwrap();
        assert!(rep.divisors_created >= 1);
        assert!(equivalent(&orig, &net));
        // literal count must drop: 8 literals -> (a+b)=2, f=2, g=2 => 6.
        assert!(net.literal_count() < orig.literal_count());
    }

    #[test]
    fn common_cube_is_extracted() {
        // f = a·b·c, g = a·b·d, h = a·b·!d — common cube a·b appears three
        // times (twice would save zero net literals).
        let mut net = parse_blif(
            ".model t\n.inputs a b c d\n.outputs f g h\n\
             .names a b c f\n111 1\n\
             .names a b d g\n111 1\n\
             .names a b d h\n110 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        let rep = extract(&mut net, 0);
        net.check().unwrap();
        assert!(equivalent(&orig, &net));
        assert!(rep.divisors_created >= 1);
        assert!(net.literal_count() <= orig.literal_count());
    }

    #[test]
    fn no_sharing_no_extraction() {
        let mut net =
            parse_blif(".model t\n.inputs a b c\n.outputs f\n.names a b c f\n111 1\n.end\n")
                .unwrap()
                .network;
        let rep = extract(&mut net, 0);
        assert_eq!(rep.divisors_created, 0);
    }

    #[test]
    fn extraction_respects_round_cap() {
        let mut net = parse_blif(
            ".model t\n.inputs a b c d e\n.outputs f g h\n\
             .names a b c f\n1-1 1\n-11 1\n\
             .names a b d g\n1-1 1\n-11 1\n\
             .names a b e h\n1-1 1\n-11 1\n.end\n",
        )
        .unwrap()
        .network;
        let rep = extract(&mut net, 1);
        assert_eq!(rep.divisors_created, 1);
        net.check().unwrap();
    }

    #[test]
    fn randomized_functional_preservation() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for trial in 0..10 {
            // random 2-level nodes over 5 inputs
            let mut blif = String::from(".model r\n.inputs a b c d e\n.outputs f g\n");
            for out in ["f", "g"] {
                blif.push_str(&format!(".names a b c d e {out}\n"));
                for _ in 0..rng.gen_range(2..5) {
                    let row: String = (0..5)
                        .map(|_| ['0', '1', '-'][rng.gen_range(0..3usize)])
                        .collect();
                    blif.push_str(&format!("{row} 1\n"));
                }
            }
            blif.push_str(".end\n");
            let mut net = parse_blif(&blif).unwrap().network;
            let orig = net.clone();
            extract(&mut net, 0);
            net.check().unwrap();
            assert!(equivalent(&orig, &net), "trial {trial} diverged:\n{blif}");
        }
    }
}

#[cfg(test)]
mod power_aware_tests {
    use super::*;
    use crate::equivalent;
    use activity::{analyze, TransitionModel};
    use netlist::parse_blif;

    #[test]
    fn power_aware_extraction_preserves_function() {
        let mut net = parse_blif(
            ".model t\n.inputs a b c d e\n.outputs f g h\n\
             .names a b c f\n1-1 1\n-11 1\n\
             .names a b d g\n1-1 1\n-11 1\n\
             .names a b e h\n1-1 1\n-11 1\n.end\n",
        )
        .unwrap()
        .network;
        let orig = net.clone();
        let probs = vec![0.5; 5];
        let rep = extract_power_aware(&mut net, &probs, 0);
        net.check().unwrap();
        assert!(rep.divisors_created >= 1);
        assert!(equivalent(&orig, &net));
    }

    /// Switched-load estimate: every literal occurrence loads its signal's
    /// net, so cost = Σ over literal occurrences of the signal's switching.
    /// This is the quantity power-aware extraction minimizes (net loads
    /// materialize as gate input capacitances after mapping).
    fn switched_load(net: &Network, probs: &[f64]) -> f64 {
        let act = analyze(net, probs, TransitionModel::StaticCmos);
        let mut total = 0.0;
        for id in net.logic_ids() {
            let node = net.node(id);
            let sop = node.sop().expect("logic");
            for c in sop.cubes() {
                for (i, _) in c.bound_lits() {
                    total += act.switching(node.fanins()[i]);
                }
            }
        }
        total
    }

    #[test]
    fn power_aware_prefers_unloading_active_nets() {
        // Common cube a·b over near-constant signals (P = 0.95 ⇒
        // switching 0.095) shared FOUR times vs cube c·d over maximally
        // active signals (P = 0.5 ⇒ switching 0.5) shared three times.
        // Plain extraction must pick a·b (larger literal saving); the
        // power-aware pass must pick c·d (unloading the active nets is
        // worth far more switched capacitance).
        let blif = ".model t\n.inputs a b c d e5 e6 e7 e8\n.outputs f1 f2 f3 f4 g1 g2 g3\n\
             .names a b e5 f1\n111 1\n\
             .names a b e6 f2\n111 1\n\
             .names a b e7 f3\n111 1\n.names a b e8 f4\n111 1\n\
             .names c d e5 g1\n111 1\n\
             .names c d e6 g2\n111 1\n\
             .names c d e7 g3\n111 1\n.end\n";
        let probs = vec![0.95, 0.95, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
        let mut area_net = parse_blif(blif).unwrap().network;
        let mut power_net = area_net.clone();
        extract(&mut area_net, 1);
        extract_power_aware(&mut power_net, &probs, 1);
        power_net.check().unwrap();
        assert_eq!(power_net.logic_count(), 8, "one divisor extracted");
        let la = switched_load(&area_net, &probs);
        let lp = switched_load(&power_net, &probs);
        assert!(lp < la - 1e-9, "power-aware {lp} must beat plain {la}");
        // Plain extraction must have chosen the quiet cube (more literals).
        let adiv = area_net
            .logic_ids()
            .find(|&id| area_net.node(id).name().starts_with("ext_"))
            .expect("plain divisor exists");
        let a_fanins: Vec<&str> = area_net
            .node(adiv)
            .fanins()
            .iter()
            .map(|&f| area_net.node(f).name())
            .collect();
        assert_eq!(a_fanins, vec!["a", "b"], "plain pass maximizes literals");
        // And the power-aware choice must be the active cube c·d: the
        // divisor node's fanins are c and d.
        let div = power_net
            .logic_ids()
            .find(|&id| power_net.node(id).name().starts_with("ext_"))
            .expect("divisor exists");
        let fanin_names: Vec<&str> = power_net
            .node(div)
            .fanins()
            .iter()
            .map(|&f| power_net.node(f).name())
            .collect();
        assert_eq!(fanin_names, vec!["c", "d"], "must extract the active cube");
    }

    #[test]
    fn power_aware_stops_when_no_gain() {
        let mut net =
            parse_blif(".model t\n.inputs a b c\n.outputs f\n.names a b c f\n111 1\n.end\n")
                .unwrap()
                .network;
        let rep = extract_power_aware(&mut net, &[0.5; 3], 0);
        assert_eq!(rep.divisors_created, 0);
    }
}
