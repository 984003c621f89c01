//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// A length specification for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy for `Vec<T>` with element strategy `element` and a length drawn
/// from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.lo..=self.size.hi);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::rng_for_test;

    #[test]
    fn vec_respects_size_specs() {
        let mut rng = rng_for_test("vec_respects_size_specs");
        for _ in 0..50 {
            assert_eq!(vec(0u8..5, 3usize..=3).generate(&mut rng).len(), 3);
            let open = vec(0u8..5, 1usize..4).generate(&mut rng);
            assert!((1..4).contains(&open.len()));
            let empty_ok = vec(0u8..5, 0usize..2).generate(&mut rng);
            assert!(empty_ok.len() < 2);
        }
    }
}
