//! Sum-of-products covers and the Boolean operations on them.
//!
//! A [`Sop`] is a disjunction of [`Cube`]s of uniform width. The empty cover
//! of width `w` is the constant-0 function; a cover containing a tautology
//! cube is constant 1.

use crate::cube::{Cube, Lit};
use std::fmt;

/// A sum-of-products cover over a fixed number of local variables.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Sop {
    width: usize,
    cubes: Vec<Cube>,
}

impl Sop {
    /// The constant-0 cover of the given width.
    pub fn zero(width: usize) -> Sop {
        Sop {
            width,
            cubes: Vec::new(),
        }
    }

    /// The constant-1 cover of the given width.
    pub fn one(width: usize) -> Sop {
        Sop {
            width,
            cubes: vec![Cube::tautology(width)],
        }
    }

    /// Single-literal cover.
    pub fn literal(width: usize, pos: usize, phase: bool) -> Sop {
        Sop {
            width,
            cubes: vec![Cube::literal(width, pos, phase)],
        }
    }

    /// Build from cubes.
    ///
    /// # Panics
    /// Panics if any cube's width differs from `width`.
    pub fn from_cubes(width: usize, cubes: Vec<Cube>) -> Sop {
        for c in &cubes {
            assert_eq!(c.width(), width, "cube width mismatch in Sop");
        }
        Sop { width, cubes }
    }

    /// Parse from PLA-style rows, e.g. `Sop::parse(3, &["01-", "--1"])`.
    pub fn parse(width: usize, rows: &[&str]) -> Option<Sop> {
        let cubes = rows
            .iter()
            .map(|r| Cube::parse(r))
            .collect::<Option<Vec<_>>>()?;
        if cubes.iter().any(|c| c.width() != width) {
            return None;
        }
        Some(Sop { width, cubes })
    }

    /// Number of local variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    /// Total literal count over all cubes (the classic SIS cost measure).
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// True if the cover is syntactically the constant 0 (no cubes).
    pub fn is_zero(&self) -> bool {
        self.cubes.is_empty()
    }

    /// True if the cover contains a tautology cube (sufficient, not
    /// necessary, condition for constant 1; see [`Sop::is_tautology`]).
    pub fn has_tautology_cube(&self) -> bool {
        self.cubes.iter().any(Cube::is_tautology)
    }

    /// Evaluate the cover on a full assignment of its local variables.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.cubes.iter().any(|c| c.eval(assignment))
    }

    /// Bit-parallel evaluation on 64 assignments at once (see
    /// [`Cube::eval_words`]): the result's bit `k` is the cover's value on
    /// the `k`-th assignment.
    pub fn eval_words(&self, assignment: &[u64]) -> u64 {
        self.cubes
            .iter()
            .fold(0u64, |acc, c| acc | c.eval_words(assignment))
    }

    /// Add a cube.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.width(), self.width, "cube width mismatch");
        self.cubes.push(cube);
    }

    /// Disjunction of two covers of equal width.
    pub fn or(&self, other: &Sop) -> Sop {
        assert_eq!(self.width, other.width, "sop width mismatch");
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().cloned());
        Sop {
            width: self.width,
            cubes,
        }
    }

    /// Conjunction of two covers of equal width (cross product of cubes).
    pub fn and(&self, other: &Sop) -> Sop {
        assert_eq!(self.width, other.width, "sop width mismatch");
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.and(b) {
                    cubes.push(c);
                }
            }
        }
        let mut s = Sop {
            width: self.width,
            cubes,
        };
        s.make_scc_minimal();
        s
    }

    /// Cofactor of the cover with respect to `var = phase`.
    pub fn cofactor(&self, pos: usize, phase: bool) -> Sop {
        let cubes = self
            .cubes
            .iter()
            .filter_map(|c| c.cofactor(pos, phase))
            .collect();
        Sop {
            width: self.width,
            cubes,
        }
    }

    /// Pick a good Shannon splitting variable: the most binate one (appears
    /// in both phases), falling back to the most frequently bound one.
    /// Returns `None` when no cube binds any variable.
    pub fn binate_split_var(&self) -> Option<usize> {
        let mut pos_ct = vec![0usize; self.width];
        let mut neg_ct = vec![0usize; self.width];
        for c in &self.cubes {
            for (i, l) in c.bound_lits() {
                match l {
                    Lit::Pos => pos_ct[i] += 1,
                    Lit::Neg => neg_ct[i] += 1,
                    Lit::Free => unreachable!(),
                }
            }
        }
        (0..self.width)
            .filter(|&i| pos_ct[i] + neg_ct[i] > 0)
            .max_by_key(|&i| (pos_ct[i].min(neg_ct[i]), pos_ct[i] + neg_ct[i]))
    }

    /// Exact tautology check (unate reduction + Shannon expansion).
    pub fn is_tautology(&self) -> bool {
        if self.has_tautology_cube() {
            return true;
        }
        if self.cubes.is_empty() {
            return false;
        }
        match self.binate_split_var() {
            None => self.has_tautology_cube(),
            Some(v) => {
                self.cofactor(v, true).is_tautology() && self.cofactor(v, false).is_tautology()
            }
        }
    }

    /// Exact complement via Shannon expansion.
    pub fn complement(&self) -> Sop {
        if self.cubes.is_empty() {
            return Sop::one(self.width);
        }
        if self.has_tautology_cube() {
            return Sop::zero(self.width);
        }
        if self.cubes.len() == 1 {
            // De Morgan on a single cube: one cube per bound literal.
            let c = &self.cubes[0];
            let cubes = c
                .bound_lits()
                .map(|(i, l)| Cube::literal(self.width, i, l == Lit::Neg))
                .collect();
            return Sop {
                width: self.width,
                cubes,
            };
        }
        let v = self
            .binate_split_var()
            .expect("non-trivial cover must bind a variable");
        let ct = self.cofactor(v, true).complement();
        let cf = self.cofactor(v, false).complement();
        let lit_t = Sop::literal(self.width, v, true);
        let lit_f = Sop::literal(self.width, v, false);
        let mut r = lit_t.and(&ct).or(&lit_f.and(&cf));
        r.make_scc_minimal();
        r
    }

    /// True if the cover covers the given cube (i.e. cube implies cover).
    /// Implemented as a tautology check of the cofactor against the cube.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        assert_eq!(cube.width(), self.width, "cube width mismatch");
        // Cofactor the cover against the cube: keep cubes compatible with it,
        // freeing positions bound by `cube`.
        let mut reduced = Vec::new();
        'outer: for c in &self.cubes {
            let mut r = c.clone();
            for (i, l) in cube.bound_lits() {
                match (r.lit(i), l) {
                    (a, b) if a == b => r.set_lit(i, Lit::Free),
                    (Lit::Free, _) => {}
                    _ => continue 'outer,
                }
            }
            reduced.push(r);
        }
        Sop {
            width: self.width,
            cubes: reduced,
        }
        .is_tautology()
    }

    /// Semantic equivalence check via two containment tests.
    pub fn equivalent(&self, other: &Sop) -> bool {
        assert_eq!(self.width, other.width, "sop width mismatch");
        self.cubes.iter().all(|c| other.covers_cube(c))
            && other.cubes.iter().all(|c| self.covers_cube(c))
    }

    /// Remove duplicate cubes and cubes single-cube-contained in another cube.
    pub fn make_scc_minimal(&mut self) {
        self.cubes.sort();
        self.cubes.dedup();
        let cubes = std::mem::take(&mut self.cubes);
        let mut keep: Vec<Cube> = Vec::with_capacity(cubes.len());
        'outer: for (i, c) in cubes.iter().enumerate() {
            for (j, d) in cubes.iter().enumerate() {
                if i != j && d.covers(c) && !(c.covers(d) && j < i) {
                    continue 'outer;
                }
            }
            keep.push(c.clone());
        }
        self.cubes = keep;
    }

    /// Phase usage per variable: `(appears positive, appears negative)`.
    pub fn phase_usage(&self) -> Vec<(bool, bool)> {
        let mut usage = vec![(false, false); self.width];
        for c in &self.cubes {
            for (i, l) in c.bound_lits() {
                match l {
                    Lit::Pos => usage[i].0 = true,
                    Lit::Neg => usage[i].1 = true,
                    Lit::Free => unreachable!(),
                }
            }
        }
        usage
    }

    /// Variables actually used by the cover (either phase).
    pub fn support(&self) -> Vec<usize> {
        self.phase_usage()
            .iter()
            .enumerate()
            .filter(|(_, &(p, n))| p || n)
            .map(|(i, _)| i)
            .collect()
    }

    /// Rewrite the cover over a narrower variable set, dropping unused
    /// positions. Returns the new cover and the kept old positions in order.
    pub fn shrink_support(&self) -> (Sop, Vec<usize>) {
        let support = self.support();
        let mut perm = vec![usize::MAX; self.width];
        for (new, &old) in support.iter().enumerate() {
            perm[old] = new;
        }
        let cubes = self
            .cubes
            .iter()
            .map(|c| {
                let mut lits = vec![Lit::Free; support.len()];
                for (i, l) in c.bound_lits() {
                    lits[perm[i]] = l;
                }
                Cube::new(lits)
            })
            .collect();
        (
            Sop {
                width: support.len(),
                cubes,
            },
            support,
        )
    }

    /// Re-index the cover through `perm` (old position -> new position) into
    /// width `new_width`. Cubes made contradictory by merging two positions
    /// with opposite phases are dropped (they covered nothing).
    pub fn remap(&self, perm: &[usize], new_width: usize) -> Sop {
        let cubes = self
            .cubes
            .iter()
            .filter_map(|c| c.remap(perm, new_width))
            .collect();
        Sop {
            width: new_width,
            cubes,
        }
    }
}

impl fmt::Debug for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sop[{}]{{", self.width)?;
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor2() -> Sop {
        Sop::parse(2, &["01", "10"]).unwrap()
    }

    #[test]
    fn eval_xor() {
        let f = xor2();
        assert!(!f.eval(&[false, false]));
        assert!(f.eval(&[true, false]));
        assert!(f.eval(&[false, true]));
        assert!(!f.eval(&[true, true]));
    }

    #[test]
    fn complement_is_semantic_negation() {
        let f = xor2();
        let g = f.complement();
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(f.eval(&[a, b]), !g.eval(&[a, b]));
            }
        }
    }

    #[test]
    fn tautology_checks() {
        assert!(Sop::one(3).is_tautology());
        assert!(!Sop::zero(3).is_tautology());
        assert!(!xor2().is_tautology());
        // x + !x is a tautology without containing a tautology cube.
        let f = Sop::parse(1, &["1", "0"]).unwrap();
        assert!(f.is_tautology());
        // a + !a*b + !b covers everything.
        let g = Sop::parse(2, &["1-", "01", "-0"]).unwrap();
        assert!(g.is_tautology());
    }

    #[test]
    fn and_or_semantics() {
        let a = Sop::literal(2, 0, true);
        let b = Sop::literal(2, 1, true);
        let and = a.and(&b);
        let or = a.or(&b);
        for x in [false, true] {
            for y in [false, true] {
                assert_eq!(and.eval(&[x, y]), x && y);
                assert_eq!(or.eval(&[x, y]), x || y);
            }
        }
    }

    #[test]
    fn scc_minimal_removes_contained() {
        let mut f = Sop::parse(2, &["11", "1-", "11"]).unwrap();
        f.make_scc_minimal();
        assert_eq!(f.cube_count(), 1);
        assert_eq!(f.cubes()[0].to_string(), "1-");
    }

    #[test]
    fn covers_cube_and_equivalence() {
        let f = Sop::parse(2, &["1-", "-1"]).unwrap(); // a + b
        assert!(f.covers_cube(&Cube::parse("11").unwrap()));
        assert!(f.covers_cube(&Cube::parse("10").unwrap()));
        assert!(!f.covers_cube(&Cube::parse("0-").unwrap()));
        let g = Sop::parse(2, &["-1", "10"]).unwrap(); // b + a!b == a + b
        assert!(f.equivalent(&g));
        assert!(!f.equivalent(&xor2()));
    }

    #[test]
    fn support_and_shrink() {
        let f = Sop::parse(4, &["1--1", "0--1"]).unwrap();
        assert_eq!(f.support(), vec![0, 3]);
        let (g, kept) = f.shrink_support();
        assert_eq!(kept, vec![0, 3]);
        assert_eq!(g.width(), 2);
        assert!(g.equivalent(&Sop::parse(2, &["11", "01"]).unwrap()));
    }

    #[test]
    fn complement_of_constants() {
        assert!(Sop::zero(2).complement().is_tautology());
        assert!(Sop::one(2).complement().is_zero());
    }
}
