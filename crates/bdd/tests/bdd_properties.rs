//! Property-based tests of the ROBDD package: canonicity, Boolean laws,
//! probability linearity, the all-node probability sweep and cofactor
//! semantics on random expression trees.

use bdd::{Bdd, BddManager};
use proptest::prelude::*;

const N: usize = 5;

/// A random Boolean expression tree evaluated both ways.
#[derive(Debug, Clone)]
enum Expr {
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0..N).prop_map(Expr::Var);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

impl Expr {
    fn eval(&self, a: &[bool]) -> bool {
        match self {
            Expr::Var(i) => a[*i],
            Expr::Not(e) => !e.eval(a),
            Expr::And(x, y) => x.eval(a) && y.eval(a),
            Expr::Or(x, y) => x.eval(a) || y.eval(a),
            Expr::Xor(x, y) => x.eval(a) ^ y.eval(a),
        }
    }

    fn build(&self, m: &mut BddManager) -> Bdd {
        match self {
            Expr::Var(i) => m.var(*i),
            Expr::Not(e) => {
                let x = e.build(m);
                m.not(x)
            }
            Expr::And(x, y) => {
                let (a, b) = (x.build(m), y.build(m));
                m.and(a, b)
            }
            Expr::Or(x, y) => {
                let (a, b) = (x.build(m), y.build(m));
                m.or(a, b)
            }
            Expr::Xor(x, y) => {
                let (a, b) = (x.build(m), y.build(m));
                m.xor(a, b)
            }
        }
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << N)).map(|bits| (0..N).map(|i| bits >> i & 1 == 1).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bdd_matches_expression(e in arb_expr()) {
        let mut m = BddManager::new(N);
        let f = e.build(&mut m);
        for a in assignments() {
            prop_assert_eq!(m.eval(f, &a), e.eval(&a));
        }
    }

    #[test]
    fn canonicity_semantic_equality_is_pointer_equality(
        e1 in arb_expr(), e2 in arb_expr()
    ) {
        let mut m = BddManager::new(N);
        let f1 = e1.build(&mut m);
        let f2 = e2.build(&mut m);
        let same = assignments().all(|a| e1.eval(&a) == e2.eval(&a));
        prop_assert_eq!(f1 == f2, same);
    }

    #[test]
    fn probability_equals_weighted_minterm_count(
        e in arb_expr(),
        probs in proptest::collection::vec(0.0f64..1.0, N..=N)
    ) {
        let mut m = BddManager::new(N);
        let f = e.build(&mut m);
        let exact = m.probability(f, &probs);
        let mut brute = 0.0;
        for a in assignments() {
            if e.eval(&a) {
                let w: f64 = a
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if v { probs[i] } else { 1.0 - probs[i] })
                    .product();
                brute += w;
            }
        }
        prop_assert!((exact - brute).abs() < 1e-9);
    }

    #[test]
    fn sweep_matches_traversal_bit_for_bit(
        e1 in arb_expr(),
        e2 in arb_expr(),
        v in 0usize..N,
        probs in proptest::collection::vec(0.0f64..1.0, N..=N)
    ) {
        let mut m = BddManager::new(N);
        let f1 = e1.build(&mut m);
        let f2 = e2.build(&mut m);
        let hi = m.restrict(f1, v, true);
        let lo = m.restrict(f2, v, false);
        let x = m.xor(hi, lo);
        let all = m.probabilities(&probs);
        prop_assert_eq!(all.len(), m.node_count());
        for f in [Bdd::ZERO, Bdd::ONE, f1, f2, hi, lo, x] {
            prop_assert_eq!(all[f.index()].to_bits(), m.probability(f, &probs).to_bits());
        }
    }

    #[test]
    fn restrict_matches_semantic_cofactor(e in arb_expr(), v in 0usize..N) {
        let mut m = BddManager::new(N);
        let f = e.build(&mut m);
        let hi = m.restrict(f, v, true);
        let lo = m.restrict(f, v, false);
        for mut a in assignments() {
            a[v] = true;
            let expect_hi = e.eval(&a);
            a[v] = false;
            let expect_lo = e.eval(&a);
            prop_assert_eq!(m.eval(hi, &a), expect_hi);
            prop_assert_eq!(m.eval(lo, &a), expect_lo);
        }
    }

    #[test]
    fn shannon_recombination(e in arb_expr(), v in 0usize..N) {
        // f == ite(x_v, f_x, f_x̄)
        let mut m = BddManager::new(N);
        let f = e.build(&mut m);
        let hi = m.restrict(f, v, true);
        let lo = m.restrict(f, v, false);
        let x = m.var(v);
        let recombined = m.ite(x, hi, lo);
        prop_assert_eq!(recombined, f);
    }

    #[test]
    fn de_morgan(e1 in arb_expr(), e2 in arb_expr()) {
        let mut m = BddManager::new(N);
        let a = e1.build(&mut m);
        let b = e2.build(&mut m);
        let and_ab = m.and(a, b);
        let lhs = m.not(and_ab);
        let na = m.not(a);
        let nb = m.not(b);
        let rhs = m.or(na, nb);
        prop_assert_eq!(lhs, rhs);
    }
}
