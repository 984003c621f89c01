//! Exact MINPOWER by exhaustive enumeration of merge histories.
//!
//! There are `(2n−3)!! = 1, 3, 15, 105, 945, …` distinct unordered binary
//! trees over `n` labelled leaves; for the small `n` used in node
//! decomposition (and in the paper's Table 1, `n ≤ 6`) full enumeration is
//! cheap. This is the oracle against which the Huffman and Modified Huffman
//! algorithms are scored.

use crate::decomp::objective::DecompObjective;
use crate::decomp::tree::DecompTree;

/// Return `(optimal internal cost, an optimal tree)`: the search of
/// [`exhaustive_bounded_minpower`] with no height bound.
///
/// # Panics
/// Panics if `probs` is empty or `probs.len() > 10` (enumeration explodes).
pub fn exhaustive_minpower(probs: &[f64], obj: DecompObjective) -> (f64, DecompTree) {
    exhaustive_bounded_minpower(probs, obj, usize::MAX).expect("an unbounded tree always fits")
}

/// Exact optimum among trees whose height does not exceed `height_bound` —
/// the oracle for BOUNDED-HEIGHT MINPOWER. Returns `None` when no tree fits
/// (bound below `ceil(log2 n)`).
pub fn exhaustive_bounded_minpower(
    probs: &[f64],
    obj: DecompObjective,
    height_bound: usize,
) -> Option<(f64, DecompTree)> {
    assert!(!probs.is_empty(), "need at least one leaf");
    assert!(
        probs.len() <= 10,
        "exhaustive enumeration capped at 10 leaves"
    );
    let items: Vec<DecompTree> = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| DecompTree::leaf(i, p))
        .collect();
    let mut best: Option<(f64, DecompTree)> = None;
    search(items, 0.0, obj, height_bound, &mut best);
    best
}

fn search(
    items: Vec<DecompTree>,
    cost_so_far: f64,
    obj: DecompObjective,
    bound: usize,
    best: &mut Option<(f64, DecompTree)>,
) {
    if items.len() == 1 {
        let tree = items.into_iter().next().expect("one item");
        if tree.height() <= bound && best.as_ref().is_none_or(|(c, _)| cost_so_far < *c) {
            *best = Some((cost_so_far, tree));
        }
        return;
    }
    if best.as_ref().is_some_and(|(c, _)| cost_so_far >= *c) {
        return;
    }
    // Prune: if even the balanced completion overflows the bound, stop.
    if crate::decomp::bounded::min_height(&items.iter().map(DecompTree::height).collect::<Vec<_>>())
        > bound
    {
        return;
    }
    for i in 0..items.len() {
        for j in i + 1..items.len() {
            let mut next: Vec<DecompTree> = Vec::with_capacity(items.len() - 1);
            for (k, t) in items.iter().enumerate() {
                if k != i && k != j {
                    next.push(t.clone());
                }
            }
            let merged = DecompTree::merge(items[i].clone(), items[j].clone(), obj);
            let step = obj.cost(merged.p_root());
            next.push(merged);
            search(next, cost_so_far + step, obj, bound, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::objective::GateKind;
    use activity::TransitionModel;

    #[test]
    fn figure1_optimum() {
        let obj = DecompObjective::new(TransitionModel::DominoP, GateKind::And);
        let (best, tree) = exhaustive_minpower(&[0.3, 0.4, 0.7, 0.5], obj);
        assert!((best - 0.222).abs() < 1e-12);
        assert!((tree.internal_cost(obj) - best).abs() < 1e-12);
    }

    #[test]
    fn two_leaves_trivial() {
        let obj = DecompObjective::new(TransitionModel::StaticCmos, GateKind::And);
        let (best, tree) = exhaustive_minpower(&[0.5, 0.5], obj);
        assert!((best - obj.pair_cost(0.5, 0.5)).abs() < 1e-12);
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn bounded_matches_unbounded_when_loose() {
        let obj = DecompObjective::new(TransitionModel::DominoP, GateKind::And);
        let probs = [0.3, 0.4, 0.7, 0.5];
        let (u, _) = exhaustive_minpower(&probs, obj);
        let (b, t) = exhaustive_bounded_minpower(&probs, obj, 3).expect("feasible");
        assert!((u - b).abs() < 1e-12);
        assert!(t.height() <= 3);
    }

    #[test]
    fn bounded_height_2_forces_balanced() {
        let obj = DecompObjective::new(TransitionModel::DominoP, GateKind::And);
        let probs = [0.3, 0.4, 0.7, 0.5];
        let (b, t) = exhaustive_bounded_minpower(&probs, obj, 2).expect("feasible");
        assert_eq!(t.height(), 2);
        // The best balanced pairing: min over the 3 pairings.
        // (ab)(cd): 0.12+0.35+0.042  = 0.512
        // (ac)(bd): 0.21+0.20+0.042  = 0.452
        // (ad)(bc): 0.15+0.28+0.042  = 0.472
        assert!((b - 0.452).abs() < 1e-12);
    }

    #[test]
    fn infeasible_bound_returns_none() {
        let obj = DecompObjective::new(TransitionModel::DominoP, GateKind::And);
        assert!(exhaustive_bounded_minpower(&[0.5; 4], obj, 1).is_none());
    }

    #[test]
    fn bounded_cost_monotone_in_bound() {
        let obj = DecompObjective::new(TransitionModel::StaticCmos, GateKind::And);
        let probs = [0.9, 0.8, 0.2, 0.3, 0.6];
        let mut last = f64::INFINITY;
        for bound in [3usize, 4, 5] {
            let (c, _) = exhaustive_bounded_minpower(&probs, obj, bound).expect("feasible");
            assert!(c <= last + 1e-12, "cost must not grow as the bound loosens");
            last = c;
        }
    }
}
