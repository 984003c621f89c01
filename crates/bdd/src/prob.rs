//! Signal probability by linear BDD traversal (Najm; eq. 2 of the paper).
//!
//! [`BddManager::probability`] walks the cone of one function;
//! [`BddManager::probabilities`] evaluates every node of the manager in one
//! pass. Both evaluate the same expression on the same operands, so they
//! agree bit for bit.

use crate::hash::FastMap;
use crate::manager::{Bdd, BddManager};

impl BddManager {
    /// Probability that `f` evaluates to 1 when variable `i` independently
    /// assumes 1 with probability `var_probs[i]`.
    ///
    /// One memoized depth-first sweep:
    /// `P(f) = P(x)·P(f_x) + (1−P(x))·P(f_x̄)` at every node.
    ///
    /// # Panics
    /// Panics if `var_probs.len()` differs from the variable count.
    pub fn probability(&self, f: Bdd, var_probs: &[f64]) -> f64 {
        assert_eq!(
            var_probs.len(),
            self.num_vars(),
            "probability vector width mismatch"
        );
        let mut memo: FastMap<Bdd, f64> = FastMap::default();
        self.prob_rec(f, var_probs, &mut memo)
    }

    /// Probability of every node of the manager, indexed by
    /// [`Bdd::index`], under the same independent-input model as
    /// [`BddManager::probability`].
    ///
    /// One pass in creation order: a node is only created after both its
    /// children, so their probabilities are ready when it is reached.
    ///
    /// # Panics
    /// Panics if `var_probs.len()` differs from the variable count.
    pub fn probabilities(&self, var_probs: &[f64]) -> Vec<f64> {
        assert_eq!(
            var_probs.len(),
            self.num_vars(),
            "probability vector width mismatch"
        );
        let mut p = Vec::with_capacity(self.node_count());
        p.extend([0.0, 1.0]);
        for i in 2..self.node_count() {
            let (var, lo, hi) = self.node(Bdd(i as u32));
            let pv = var_probs[var as usize];
            p.push(pv * p[hi.index()] + (1.0 - pv) * p[lo.index()]);
        }
        p
    }

    fn prob_rec(&self, f: Bdd, probs: &[f64], memo: &mut FastMap<Bdd, f64>) -> f64 {
        if f == Bdd::ZERO {
            return 0.0;
        }
        if f == Bdd::ONE {
            return 1.0;
        }
        if let Some(&p) = memo.get(&f) {
            return p;
        }
        let (var, lo, hi) = self.node(f);
        let pv = probs[var as usize];
        let p = pv * self.prob_rec(hi, probs, memo) + (1.0 - pv) * self.prob_rec(lo, probs, memo);
        memo.insert(f, p);
        p
    }

    /// Joint probability `P(f=1 ∧ g=1)` under independent inputs.
    pub fn joint_probability(&mut self, f: Bdd, g: Bdd, var_probs: &[f64]) -> f64 {
        let fg = self.and(f, g);
        self.probability(fg, var_probs)
    }

    /// Conditional probability `P(f=1 | g=1)`; returns `None` when
    /// `P(g=1) = 0`.
    pub fn conditional_probability(&mut self, f: Bdd, g: Bdd, var_probs: &[f64]) -> Option<f64> {
        let pg = self.probability(g, var_probs);
        if pg == 0.0 {
            return None;
        }
        Some(self.joint_probability(f, g, var_probs) / pg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force probability by weighted truth-table enumeration.
    fn brute_prob(m: &BddManager, f: Bdd, probs: &[f64]) -> f64 {
        let n = m.num_vars();
        let mut total = 0.0;
        for bits in 0..(1u32 << n) {
            let a: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            if m.eval(f, &a) {
                let w: f64 = a
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if v { probs[i] } else { 1.0 - probs[i] })
                    .product();
                total += w;
            }
        }
        total
    }

    #[test]
    fn and_or_probabilities() {
        let mut m = BddManager::new(2);
        let (a, b) = (m.var(0), m.var(1));
        let f = m.and(a, b);
        let g = m.or(a, b);
        let p = [0.3, 0.4];
        assert!((m.probability(f, &p) - 0.12).abs() < 1e-12);
        assert!((m.probability(g, &p) - (0.3 + 0.4 - 0.12)).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_random_functions() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let n = 4;
            let mut m = BddManager::new(n);
            // random function from random connective tree
            let mut f = m.var(0);
            for _ in 0..6 {
                let v = m.var(rng.gen_range(0..n));
                let v = if rng.gen_bool(0.5) { m.not(v) } else { v };
                f = match rng.gen_range(0..3) {
                    0 => m.and(f, v),
                    1 => m.or(f, v),
                    _ => m.xor(f, v),
                };
            }
            let probs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let exact = m.probability(f, &probs);
            let brute = brute_prob(&m, f, &probs);
            assert!(
                (exact - brute).abs() < 1e-9,
                "exact {exact} vs brute {brute}"
            );
        }
    }

    #[test]
    fn reconvergent_fanout_handled_exactly() {
        // f = a·b + a·c : naive independent multiplication at the OR would be
        // wrong; BDD traversal must give the exact value.
        let mut m = BddManager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let f = m.or(ab, ac);
        let p = [0.5, 0.5, 0.5];
        // P = P(a)·P(b+c) = 0.5 · 0.75
        assert!((m.probability(f, &p) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn conditional_probability_works() {
        let mut m = BddManager::new(2);
        let (a, b) = (m.var(0), m.var(1));
        let f = m.and(a, b);
        let p = [0.5, 0.5];
        // P(ab=1 | a=1) = P(b) = 0.5
        let c = m.conditional_probability(f, a, &p).unwrap();
        assert!((c - 0.5).abs() < 1e-12);
        // Conditioning on an impossible event yields None.
        let zero = Bdd::ZERO;
        assert!(m.conditional_probability(f, zero, &p).is_none());
    }

    #[test]
    fn sweep_matches_traversal_on_every_node() {
        let mut m = BddManager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let ab = m.and(a, b);
        let f = m.xor(ab, c);
        let p = [0.3, 0.6, 0.9];
        let all = m.probabilities(&p);
        assert_eq!(all.len(), m.node_count());
        for g in [Bdd::ZERO, Bdd::ONE, a, b, c, ab, f] {
            assert_eq!(all[g.index()].to_bits(), m.probability(g, &p).to_bits());
        }
    }

    #[test]
    fn xor_probability() {
        let mut m = BddManager::new(2);
        let (a, b) = (m.var(0), m.var(1));
        let f = m.xor(a, b);
        let p = [0.25, 0.75];
        let expect = 0.25 * 0.25 + 0.75 * 0.75; // P(a)·P(!b) + P(!a)·P(b)
        assert!((m.probability(f, &p) - expect).abs() < 1e-12);
    }
}
