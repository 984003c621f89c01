//! Cubes: conjunctions of literals over a fixed-width variable set.
//!
//! A [`Cube`] stores one literal state per variable position. Positions are
//! local to the node whose function the cube belongs to (position `i` refers
//! to the node's `i`-th fanin).

use std::fmt;

/// State of one variable inside a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lit {
    /// Variable appears complemented (`0` in PLA notation).
    Neg,
    /// Variable appears uncomplemented (`1` in PLA notation).
    Pos,
    /// Variable does not appear (`-` in PLA notation).
    Free,
}

impl Lit {
    /// PLA character for this literal state.
    pub fn to_char(self) -> char {
        match self {
            Lit::Neg => '0',
            Lit::Pos => '1',
            Lit::Free => '-',
        }
    }

    /// Parse a PLA character (`0`, `1` or `-`).
    pub fn from_char(c: char) -> Option<Lit> {
        match c {
            '0' => Some(Lit::Neg),
            '1' => Some(Lit::Pos),
            '-' => Some(Lit::Free),
            _ => None,
        }
    }
}

/// A product term over `width` variables.
///
/// The empty-width cube represents the constant-1 function.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    lits: Vec<Lit>,
}

impl Cube {
    /// The tautology cube of the given width (all positions free).
    pub fn tautology(width: usize) -> Cube {
        Cube {
            lits: vec![Lit::Free; width],
        }
    }

    /// Build a cube from explicit literal states.
    pub fn new(lits: Vec<Lit>) -> Cube {
        Cube { lits }
    }

    /// Single-literal cube of the given width.
    ///
    /// # Panics
    /// Panics if `pos >= width`.
    pub fn literal(width: usize, pos: usize, phase: bool) -> Cube {
        assert!(pos < width, "literal position {pos} out of width {width}");
        let mut lits = vec![Lit::Free; width];
        lits[pos] = if phase { Lit::Pos } else { Lit::Neg };
        Cube { lits }
    }

    /// Parse from PLA notation, e.g. `"01-"`.
    pub fn parse(s: &str) -> Option<Cube> {
        s.chars()
            .map(Lit::from_char)
            .collect::<Option<Vec<_>>>()
            .map(|lits| Cube { lits })
    }

    /// Number of variable positions.
    pub fn width(&self) -> usize {
        self.lits.len()
    }

    /// Literal state at `pos`.
    pub fn lit(&self, pos: usize) -> Lit {
        self.lits[pos]
    }

    /// Set the literal state at `pos`.
    pub fn set_lit(&mut self, pos: usize, lit: Lit) {
        self.lits[pos] = lit;
    }

    /// Iterator over `(position, Lit)` for non-free positions.
    pub fn bound_lits(&self) -> impl Iterator<Item = (usize, Lit)> + '_ {
        self.lits
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, l)| l != Lit::Free)
    }

    /// Number of literals (non-free positions).
    pub fn literal_count(&self) -> usize {
        self.lits.iter().filter(|&&l| l != Lit::Free).count()
    }

    /// True if the cube is the tautology (no bound literal).
    pub fn is_tautology(&self) -> bool {
        self.lits.iter().all(|&l| l == Lit::Free)
    }

    /// Conjunction of two cubes; `None` if they conflict (empty intersection).
    ///
    /// # Panics
    /// Panics if widths differ.
    pub fn and(&self, other: &Cube) -> Option<Cube> {
        assert_eq!(self.width(), other.width(), "cube width mismatch");
        let mut lits = Vec::with_capacity(self.width());
        for (&a, &b) in self.lits.iter().zip(&other.lits) {
            let l = match (a, b) {
                (Lit::Free, x) | (x, Lit::Free) => x,
                (x, y) if x == y => x,
                _ => return None,
            };
            lits.push(l);
        }
        Some(Cube { lits })
    }

    /// True if `self` covers `other` (every minterm of `other` is in `self`).
    pub fn covers(&self, other: &Cube) -> bool {
        assert_eq!(self.width(), other.width(), "cube width mismatch");
        self.lits
            .iter()
            .zip(&other.lits)
            .all(|(&a, &b)| a == Lit::Free || a == b)
    }

    /// Cofactor with respect to `var = phase`. Returns `None` if the cube
    /// vanishes under the assignment; otherwise the cube with that position
    /// freed.
    pub fn cofactor(&self, pos: usize, phase: bool) -> Option<Cube> {
        match (self.lits[pos], phase) {
            (Lit::Pos, false) | (Lit::Neg, true) => None,
            _ => {
                let mut c = self.clone();
                c.lits[pos] = Lit::Free;
                Some(c)
            }
        }
    }

    /// Evaluate the cube on a full assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.width(), "assignment width mismatch");
        self.lits.iter().zip(assignment).all(|(&l, &v)| match l {
            Lit::Free => true,
            Lit::Pos => v,
            Lit::Neg => !v,
        })
    }

    /// Bit-parallel evaluation on 64 assignments at once: bit `k` of
    /// `assignment[i]` is the value of variable `i` in the `k`-th
    /// assignment, and bit `k` of the result is the cube's value there.
    ///
    /// # Panics
    /// Panics if `assignment.len()` differs from the cube width.
    pub fn eval_words(&self, assignment: &[u64]) -> u64 {
        assert_eq!(assignment.len(), self.width(), "assignment width mismatch");
        self.lits
            .iter()
            .zip(assignment)
            .fold(!0u64, |acc, (&l, &w)| match l {
                Lit::Free => acc,
                Lit::Pos => acc & w,
                Lit::Neg => acc & !w,
            })
    }

    /// Widen the cube by appending `extra` free positions.
    pub fn widen(&self, extra: usize) -> Cube {
        let mut lits = self.lits.clone();
        lits.extend(std::iter::repeat_n(Lit::Free, extra));
        Cube { lits }
    }

    /// Re-index the cube through `perm`, where `perm[i]` gives the new
    /// position of old variable `i`, into a cube of width `new_width`.
    ///
    /// When `perm` maps two bound positions onto one slot (fanin merging),
    /// the literals intersect: equal phases merge, opposite phases make the
    /// whole cube contradictory and `None` is returned.
    pub fn remap(&self, perm: &[usize], new_width: usize) -> Option<Cube> {
        let mut lits = vec![Lit::Free; new_width];
        for (i, &l) in self.lits.iter().enumerate() {
            if l != Lit::Free {
                let slot = &mut lits[perm[i]];
                if *slot != Lit::Free && *slot != l {
                    return None;
                }
                *slot = l;
            }
        }
        Some(Cube { lits })
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({self})")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &l in &self.lits {
            write!(f, "{}", l.to_char())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let c = Cube::parse("01-").unwrap();
        assert_eq!(c.to_string(), "01-");
        assert_eq!(c.lit(0), Lit::Neg);
        assert_eq!(c.lit(1), Lit::Pos);
        assert_eq!(c.lit(2), Lit::Free);
        assert!(Cube::parse("01x").is_none());
    }

    #[test]
    fn and_conflict() {
        let a = Cube::parse("1-").unwrap();
        let b = Cube::parse("0-").unwrap();
        assert!(a.and(&b).is_none());
        let c = Cube::parse("-1").unwrap();
        assert_eq!(a.and(&c).unwrap().to_string(), "11");
    }

    #[test]
    fn covers() {
        let big = Cube::parse("1--").unwrap();
        let small = Cube::parse("101").unwrap();
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
    }

    #[test]
    fn cofactor_behaviour() {
        let c = Cube::parse("1-0").unwrap();
        assert_eq!(c.cofactor(0, true).unwrap().to_string(), "--0");
        assert!(c.cofactor(0, false).is_none());
        assert_eq!(c.cofactor(1, false).unwrap().to_string(), "1-0");
    }

    #[test]
    fn eval_matches_literals() {
        let c = Cube::parse("10-").unwrap();
        assert!(c.eval(&[true, false, true]));
        assert!(c.eval(&[true, false, false]));
        assert!(!c.eval(&[false, false, true]));
    }

    #[test]
    fn tautology_and_literal() {
        assert!(Cube::tautology(3).is_tautology());
        let l = Cube::literal(3, 1, false);
        assert_eq!(l.to_string(), "-0-");
        assert_eq!(l.literal_count(), 1);
    }

    #[test]
    fn remap_permutes() {
        let c = Cube::parse("1--0").unwrap();
        let r = c.remap(&[3, 2, 1, 0], 4).unwrap();
        assert_eq!(r.to_string(), "0--1");
    }

    #[test]
    fn remap_intersects_merged_positions() {
        // Identifying two positions: equal phases merge…
        let c = Cube::parse("1-1").unwrap();
        assert_eq!(c.remap(&[0, 1, 0], 2).unwrap().to_string(), "1-");
        // …opposite phases contradict (x·!x): the cube vanishes.
        let c = Cube::parse("1-0").unwrap();
        assert_eq!(c.remap(&[0, 1, 0], 2), None);
    }
}
