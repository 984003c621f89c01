//! The Larmore–Hirschberg package-merge algorithm (Algorithm 2.3).
//!
//! Solves the length-limited Huffman problem exactly for *linear* weights:
//! given `n` weights and a height bound `L`, find leaf levels `l_i ≤ L`
//! satisfying Kraft equality and minimizing `Σ w_i·l_i`. This is the
//! BOUNDED-HEIGHT MINSUM primitive of Section 2.2; the paper's generalized
//! (heuristic) variant for non-linear merge functions is realized by
//! [`crate::decomp::bounded::bounded_minpower_tree`].

/// An item of the Coin Collector's instance: width `2^(-level)` and the
/// accumulated weight of the leaves packaged inside it.
#[derive(Debug, Clone)]
struct Item {
    weight: f64,
    /// Leaf indices packaged in this item (each occurrence deepens the leaf).
    leaves: Vec<usize>,
}

/// Compute optimal leaf levels for the length-limited Huffman problem.
///
/// Returns `None` when the bound is infeasible (`2^L < n`); otherwise
/// `levels[i]` is the depth of leaf `i` in an optimal tree: the levels
/// satisfy the Kraft equality `Σ 2^(−l_i) = 1` and minimize `Σ w_i·l_i`.
///
/// # Panics
/// Panics if `weights` is empty or `max_level == 0` with more than one leaf.
pub fn package_merge_levels(weights: &[f64], max_level: usize) -> Option<Vec<usize>> {
    let n = weights.len();
    assert!(n > 0, "need at least one leaf");
    if n == 1 {
        return Some(vec![0]);
    }
    if max_level >= 64 || (1usize << max_level.min(63)) < n {
        if max_level >= 64 {
            // effectively unbounded; cap at n-1 which any Huffman tree meets
            return package_merge_levels(weights, n - 1);
        }
        return None;
    }

    // Package-merge: build lists level by level from the deepest (width
    // 2^-L) to width 2^-1, packaging pairs and merging with the fresh leaf
    // items of the next width. Selecting the first 2n−2 items of the final
    // width-2^-1 list yields the optimal nodeset; each time leaf i appears
    // in the selection, its level increases by one.
    let mut levels = vec![0usize; n];
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[a].partial_cmp(&weights[b]).expect("finite weights"));
    let fresh_items = || -> Vec<Item> {
        order
            .iter()
            .map(|&i| Item {
                weight: weights[i],
                leaves: vec![i],
            })
            .collect()
    };

    let mut list: Vec<Item> = fresh_items(); // width 2^-L
    for _ in 1..max_level {
        // PACKAGE: combine consecutive pairs.
        let mut packaged: Vec<Item> = Vec::with_capacity(list.len() / 2);
        let mut it = list.into_iter();
        while let (Some(a), Some(b)) = (it.next(), it.next()) {
            let mut leaves = a.leaves;
            leaves.extend(b.leaves);
            obs::counter!("decomp.package_merge.packages");
            packaged.push(Item {
                weight: a.weight + b.weight,
                leaves,
            });
        }
        // MERGE with fresh leaf items of the shallower width.
        let mut merged = fresh_items();
        merged.extend(packaged);
        merged.sort_by(|a, b| a.weight.partial_cmp(&b.weight).expect("finite weights"));
        list = merged;
    }

    // Take the 2n−2 smallest items of the width-2^-1 list.
    if list.len() < 2 * n - 2 {
        return None;
    }
    for item in list.iter().take(2 * n - 2) {
        for &leaf in &item.leaves {
            levels[leaf] += 1;
        }
    }
    debug_assert!({
        let kraft: f64 = levels.iter().map(|&l| 0.5f64.powi(l as i32)).sum();
        (kraft - 1.0).abs() < 1e-9
    });
    Some(levels)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Σ w_i·l_i` for a level assignment.
    fn weighted_path_length(weights: &[f64], levels: &[usize]) -> f64 {
        weights
            .iter()
            .zip(levels)
            .map(|(&w, &l)| w * l as f64)
            .sum()
    }

    /// Brute-force optimal bounded-height MINSUM by enumerating all merge
    /// histories with a height cap.
    fn brute(weights: &[f64], bound: usize) -> Option<f64> {
        #[derive(Clone)]
        struct T {
            w: f64,
            h: usize,
            sum: f64, // Σ w_i l_i accumulated as merges happen
        }
        fn rec(items: Vec<T>, bound: usize, best: &mut Option<f64>) {
            if items.len() == 1 {
                if items[0].h <= bound {
                    let s = items[0].sum;
                    if best.is_none() || s < best.expect("some") {
                        *best = Some(s);
                    }
                }
                return;
            }
            for i in 0..items.len() {
                for j in i + 1..items.len() {
                    let mut next: Vec<T> = items
                        .iter()
                        .enumerate()
                        .filter(|&(k, _)| k != i && k != j)
                        .map(|(_, t)| t.clone())
                        .collect();
                    let merged = T {
                        w: items[i].w + items[j].w,
                        h: items[i].h.max(items[j].h) + 1,
                        // every leaf inside gains one level => add merged weight
                        sum: items[i].sum + items[j].sum + items[i].w + items[j].w,
                    };
                    if merged.h <= bound {
                        next.push(merged);
                        rec(next, bound, best);
                    }
                }
            }
        }
        let items: Vec<T> = weights.iter().map(|&w| T { w, h: 0, sum: 0.0 }).collect();
        let mut best = None;
        rec(items, bound, &mut best);
        best
    }

    #[test]
    fn unbounded_matches_huffman() {
        // L = n-1 never constrains; result must equal classic Huffman cost.
        let w = [0.1, 0.2, 0.3, 0.4];
        let levels = package_merge_levels(&w, 3).expect("feasible");
        let cost = weighted_path_length(&w, &levels);
        // Huffman: merge .1+.2=.3, then .3+.3=.6, then .6+.4=1.0 →
        // levels (3,3,2,1)? cost = .1*3+.2*3+.3*2+.4*1 = 1.9
        assert!((cost - 1.9).abs() < 1e-12);
    }

    #[test]
    fn tight_bound_forces_balanced() {
        let w = [0.05, 0.05, 0.4, 0.5];
        let levels = package_merge_levels(&w, 2).expect("feasible");
        assert_eq!(levels, vec![2, 2, 2, 2]);
    }

    #[test]
    fn infeasible_bound() {
        assert!(package_merge_levels(&[1.0; 5], 2).is_none());
    }

    #[test]
    fn matches_bruteforce_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        for _ in 0..60 {
            let n = rng.gen_range(2..=6);
            let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
            let min_l = (n as f64).log2().ceil() as usize;
            let bound = rng.gen_range(min_l..=n);
            let levels = package_merge_levels(&w, bound).expect("feasible bound");
            assert!(levels.iter().all(|&l| l <= bound));
            let cost = weighted_path_length(&w, &levels);
            let opt = brute(&w, bound).expect("feasible");
            assert!(
                (cost - opt).abs() < 1e-9,
                "package-merge {cost} vs brute {opt} for w={w:?} L={bound}"
            );
        }
    }

    #[test]
    fn kraft_equality_holds() {
        let w = [0.3, 0.1, 0.2, 0.15, 0.25];
        for bound in 3..=4 {
            let levels = package_merge_levels(&w, bound).expect("feasible");
            let kraft: f64 = levels.iter().map(|&l| 0.5f64.powi(l as i32)).sum();
            assert!((kraft - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_leaf() {
        assert_eq!(package_merge_levels(&[0.7], 0).expect("trivial"), vec![0]);
    }
}
