//! The BDD manager: unique table, `ite`, and derived Boolean operations.

use crate::hash::{FastMap, FastSet};

/// Handle to a BDD function owned by a [`BddManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-0 function.
    pub const ZERO: Bdd = Bdd(0);
    /// The constant-1 function.
    pub const ONE: Bdd = Bdd(1);

    /// True if this handle is a terminal (constant) node.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Position of the node in its manager's creation order, the index into
    /// [`BddManager::probabilities`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: Bdd,
    hi: Bdd,
}

const TERMINAL_VAR: u32 = u32::MAX;

/// ROBDD manager with a fixed variable count and the natural variable order
/// `0 < 1 < … < n−1` (index 0 closest to the root).
#[derive(Debug, Clone)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: FastMap<(u32, Bdd, Bdd), Bdd>,
    ite_cache: FastMap<(Bdd, Bdd, Bdd), Bdd>,
    num_vars: usize,
}

impl BddManager {
    /// Create a manager over `num_vars` variables.
    pub fn new(num_vars: usize) -> BddManager {
        BddManager {
            nodes: vec![
                Node {
                    var: TERMINAL_VAR,
                    lo: Bdd::ZERO,
                    hi: Bdd::ZERO,
                },
                Node {
                    var: TERMINAL_VAR,
                    lo: Bdd::ONE,
                    hi: Bdd::ONE,
                },
            ],
            unique: FastMap::default(),
            ite_cache: FastMap::default(),
            num_vars,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total number of live nodes (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The single-variable function `x_i`.
    ///
    /// # Panics
    /// Panics if `i >= num_vars`.
    pub fn var(&mut self, i: usize) -> Bdd {
        assert!(i < self.num_vars, "variable {i} out of range");
        self.mk(i as u32, Bdd::ZERO, Bdd::ONE)
    }

    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        if let Some(&n) = self.unique.get(&(var, lo, hi)) {
            obs::counter!("bdd.unique.hit");
            return n;
        }
        obs::counter!("bdd.unique.miss");
        let capacity = self.unique.capacity();
        let id = Bdd(self.nodes.len() as u32);
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), id);
        if self.unique.capacity() != capacity {
            obs::counter!("bdd.unique.resize");
        }
        obs::gauge!("bdd.nodes.high_water", self.nodes.len() as u64);
        id
    }

    fn var_of(&self, f: Bdd) -> u32 {
        self.nodes[f.0 as usize].var
    }

    fn cofactors(&self, f: Bdd, var: u32) -> (Bdd, Bdd) {
        let n = self.nodes[f.0 as usize];
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// If-then-else: `ite(f, g, h) = f·g + !f·h`. All Boolean connectives are
    /// derived from this single memoized operation.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        if f == Bdd::ONE {
            return g;
        }
        if f == Bdd::ZERO {
            return h;
        }
        if g == h {
            return g;
        }
        if g == Bdd::ONE && h == Bdd::ZERO {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            obs::counter!("bdd.ite.hit");
            return r;
        }
        obs::counter!("bdd.ite.miss");
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo, hi);
        let capacity = self.ite_cache.capacity();
        self.ite_cache.insert((f, g, h), r);
        if self.ite_cache.capacity() != capacity {
            obs::counter!("bdd.ite.resize");
        }
        r
    }

    /// Complement.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        self.ite(f, Bdd::ZERO, Bdd::ONE)
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::ZERO)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd::ONE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Cofactor of `f` with respect to `x_i = phase`.
    pub fn restrict(&mut self, f: Bdd, i: usize, phase: bool) -> Bdd {
        assert!(i < self.num_vars, "variable {i} out of range");
        self.restrict_rec(f, i as u32, phase, &mut FastMap::default())
    }

    fn restrict_rec(&mut self, f: Bdd, var: u32, phase: bool, memo: &mut FastMap<Bdd, Bdd>) -> Bdd {
        if f.is_const() || self.var_of(f) > var {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let n = self.nodes[f.0 as usize];
        let r = if n.var == var {
            if phase {
                n.hi
            } else {
                n.lo
            }
        } else {
            let lo = self.restrict_rec(n.lo, var, phase, memo);
            let hi = self.restrict_rec(n.hi, var, phase, memo);
            self.mk(n.var, lo, hi)
        };
        memo.insert(f, r);
        r
    }

    /// Evaluate `f` on a complete variable assignment.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.num_vars, "assignment width mismatch");
        let mut cur = f;
        while !cur.is_const() {
            let n = self.nodes[cur.0 as usize];
            cur = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
        cur == Bdd::ONE
    }

    /// Number of DAG nodes reachable from `f` (excluding terminals).
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = FastSet::default();
        let mut stack = vec![f];
        while let Some(x) = stack.pop() {
            if x.is_const() || !seen.insert(x) {
                continue;
            }
            let n = self.nodes[x.0 as usize];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        seen.len()
    }

    /// One satisfying assignment of `f`, as a complete `num_vars`-wide
    /// vector with unconstrained variables set to `false`. Returns `None`
    /// iff `f` is the constant-0 function.
    ///
    /// In a reduced BDD every non-`ZERO` node has a path to `ONE`, so
    /// greedily descending into any non-`ZERO` child terminates at `ONE`.
    pub fn sat_one(&self, f: Bdd) -> Option<Vec<bool>> {
        if f == Bdd::ZERO {
            return None;
        }
        let mut assignment = vec![false; self.num_vars];
        let mut cur = f;
        while !cur.is_const() {
            let n = self.nodes[cur.0 as usize];
            if n.lo == Bdd::ZERO {
                assignment[n.var as usize] = true;
                cur = n.hi;
            } else {
                cur = n.lo;
            }
        }
        Some(assignment)
    }

    pub(crate) fn node(&self, f: Bdd) -> (u32, Bdd, Bdd) {
        let n = self.nodes[f.0 as usize];
        (n.var, n.lo, n.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_check(m: &BddManager, f: Bdd, truth: impl Fn(&[bool]) -> bool) {
        let n = m.num_vars();
        for bits in 0..(1u32 << n) {
            let a: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m.eval(f, &a), truth(&a), "mismatch at {a:?}");
        }
    }

    #[test]
    fn connectives_match_truth_tables() {
        let mut m = BddManager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        brute_check(&m, f, |v| (v[0] && v[1]) || v[2]);
        let g = m.xor(a, b);
        brute_check(&m, g, |v| v[0] ^ v[1]);
        let h = m.not(f);
        brute_check(&m, h, |v| !((v[0] && v[1]) || v[2]));
    }

    #[test]
    fn canonical_hash_consing() {
        let mut m = BddManager::new(2);
        let (a, b) = (m.var(0), m.var(1));
        let f1 = m.and(a, b);
        let f2 = {
            let na = m.not(a);
            let nb = m.not(b);
            let o = m.or(na, nb);
            m.not(o)
        };
        assert_eq!(f1, f2, "De Morgan must hash-cons to the same node");
    }

    #[test]
    fn restrict_is_cofactor() {
        let mut m = BddManager::new(2);
        let (a, b) = (m.var(0), m.var(1));
        let f = m.xor(a, b);
        let f_a1 = m.restrict(f, 0, true);
        brute_check(&m, f_a1, |v| !v[1]);
        let f_a0 = m.restrict(f, 0, false);
        brute_check(&m, f_a0, |v| v[1]);
    }

    #[test]
    fn ite_terminal_rules() {
        let mut m = BddManager::new(1);
        let a = m.var(0);
        assert_eq!(m.ite(Bdd::ONE, a, Bdd::ZERO), a);
        assert_eq!(m.ite(Bdd::ZERO, a, Bdd::ONE), Bdd::ONE);
        assert_eq!(m.ite(a, Bdd::ONE, Bdd::ZERO), a);
        assert_eq!(m.ite(a, a, a), a);
    }

    #[test]
    fn size_counts_dag_nodes() {
        let mut m = BddManager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let ab = m.and(a, b);
        let f = m.and(ab, c);
        assert_eq!(m.size(f), 3);
        assert_eq!(m.size(Bdd::ONE), 0);
    }

    #[test]
    fn sat_one_finds_witness() {
        let mut m = BddManager::new(3);
        let (a, b) = (m.var(0), m.var(1));
        let nb = m.not(b);
        let f = m.and(a, nb);
        let w = m.sat_one(f).unwrap();
        assert!(m.eval(f, &w));
        assert_eq!(w, vec![true, false, false]);
        assert_eq!(m.sat_one(Bdd::ZERO), None);
        assert!(m.eval(Bdd::ONE, &m.sat_one(Bdd::ONE).unwrap()));
        let g = m.xor(a, b);
        let wg = m.sat_one(g).unwrap();
        assert!(m.eval(g, &wg));
    }
}
