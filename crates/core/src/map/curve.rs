//! Power-delay (and area-delay) curves of non-inferior points (§3.1).

use crate::map::subject::Signal;

/// One mapping solution at a node: arrival time at the node output under
/// the default load, accumulated cost (average power in µW, or area) of the
/// mapped transitive fanin *excluding* the node's own output net
/// (Method 1), the drive resistance of the producing gate (for unknown-load
/// recalculation), and enough bookkeeping to rebuild the mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Arrival time at the output, computed with the default load.
    pub arrival: f64,
    /// Accumulated cost of the mapped cone (µW or area units).
    pub cost: f64,
    /// Drive resistance of the gate producing this point (ns per load
    /// unit); arrival shifts by `drive · Δload` when the real load differs
    /// from the default (§3.2.3).
    pub drive: f64,
    /// Library gate index; `None` for primary-input source points.
    pub gate: Option<usize>,
    /// For each gate pin: the bound subject signal, as a range of the
    /// mapping run's binding arena. The concrete point on each input curve
    /// is re-selected during the preorder pass from the propagated
    /// required time (§3.2.2), so no index is stored.
    pub inputs: BindingRange,
}

impl Point {
    /// Arrival as seen through a pin of capacitance `load` when the curve
    /// was computed assuming `default_load`.
    pub fn arrival_at_load(&self, load: f64, default_load: f64) -> f64 {
        self.arrival + self.drive * (load - default_load)
    }
}

/// A point's pin bindings: a range of a `Vec<Signal>` arena that one
/// mapping run owns. Every point a match pushes shares the range the
/// match wrote once, so a point carries no allocation of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BindingRange {
    start: u32,
    len: u32,
}

impl BindingRange {
    /// No bindings (primary-input source points).
    pub const EMPTY: BindingRange = BindingRange { start: 0, len: 0 };

    /// Append `signals` to `arena` and return their range.
    pub(crate) fn append(arena: &mut Vec<Signal>, signals: &[Signal]) -> BindingRange {
        let index = |i: usize| u32::try_from(i).expect("binding arena fits u32 indices");
        let start = index(arena.len());
        arena.extend_from_slice(signals);
        BindingRange {
            start,
            len: index(signals.len()),
        }
    }

    /// The bound signals, one per gate pin, read from the arena the range
    /// was appended to.
    pub(crate) fn of<'a>(&self, arena: &'a [Signal]) -> &'a [Signal] {
        &arena[self.start as usize..][..self.len as usize]
    }

    /// Number of bound pins.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }
}

/// A monotone non-increasing curve of non-inferior `(arrival, cost)` points,
/// sorted by increasing arrival and strictly decreasing cost.
#[derive(Debug, Clone, Default)]
pub struct Curve {
    points: Vec<Point>,
}

impl Curve {
    /// Empty curve.
    pub fn new() -> Curve {
        Curve { points: Vec::new() }
    }

    /// The points, sorted by arrival.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// True when the curve has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Add a candidate point, maintaining the non-inferior invariant by
    /// **dominance-pruned insertion**: a binary search finds the arrival
    /// position, the candidate is dropped when an existing no-later point
    /// is already no-costlier, and any existing points the candidate
    /// dominates are removed. The curve stays sorted by strictly
    /// increasing arrival / strictly decreasing cost at all times, so
    /// [`Curve::finalize`] no longer needs to sort or Pareto-prune.
    pub fn push(&mut self, p: Point) {
        match self.insert_slot(p.arrival, p.cost) {
            None => obs::counter!("map.curve.dominated_drops"),
            Some(slot) => {
                obs::counter!("map.curve.pushes");
                self.insert_at(slot, p);
            }
        }
    }

    /// Where [`Curve::push`] would insert a point with this arrival and
    /// cost, or `None` when `push` would drop it as dominated. Lets a
    /// caller skip building a `Point` that would only be dropped.
    pub(crate) fn insert_slot(&self, arrival: f64, cost: f64) -> Option<usize> {
        // First index whose (arrival, cost) is lexicographically >= the
        // candidate's: everything before it is strictly earlier-or-cheaper.
        let slot = self
            .points
            .partition_point(|q| (q.arrival, q.cost) < (arrival, cost));
        // Dominated by a predecessor (no-later arrival, no-cheaper cost
        // within the dedup margin): drop. The predecessor check suffices —
        // costs before `slot` decrease, so its cost is the minimum so far.
        match slot.checked_sub(1).map(|i| &self.points[i]) {
            Some(prev) if cost >= prev.cost - 1e-12 => None,
            _ => Some(slot),
        }
    }

    /// Insert `p` at a slot [`Curve::insert_slot`] returned for it (with
    /// no mutation in between), removing the successors it dominates.
    /// Counts nothing: `push` counts for its callers, and the mapper's
    /// match sweep tallies its own.
    pub(crate) fn insert_at(&mut self, slot: usize, p: Point) {
        // The dominated successors arrive no earlier and cost at least
        // `p.cost - 1e-12`. Costs decrease with index, so they form a
        // prefix of the suffix.
        let mut end = slot;
        while end < self.points.len() && self.points[end].cost >= p.cost - 1e-12 {
            end += 1;
        }
        if end == slot {
            self.points.insert(slot, p);
        } else {
            self.points[slot] = p;
            self.points.drain(slot + 1..end);
        }
    }

    /// Insert a point at its sorted arrival position, **exempt from
    /// dominance pruning** — the point stays even when an existing point
    /// dominates it, and no existing point is removed. The pruning
    /// exemption of §3.1 (see `map_network`): when ε-merging leaves a
    /// phase with only phase-repair inverter points, the least-power raw
    /// point is re-inserted through this so raw-only demands always have
    /// a candidate. The exempt point never displaces an ordinary
    /// selection: every query scans all points and it costs at least as
    /// much as the survivor that pruned it.
    pub fn insert_exempt(&mut self, p: Point) {
        let pos = self
            .points
            .partition_point(|q| (q.arrival, q.cost) < (p.arrival, p.cost));
        obs::counter!("map.curve.exempt_inserts");
        self.points.insert(pos, p);
    }

    /// Hard cap on curve size after pruning; beyond it the curve is thinned
    /// by keeping the fastest point, the cheapest point and an evenly
    /// spread selection in between. Keeps the postorder pass near-linear.
    pub const MAX_POINTS: usize = 24;

    /// Prune inferior points and ε-merge near-duplicates (§3.1): a point is
    /// dropped when another point has both no-worse arrival and no-worse
    /// cost; afterwards points within `epsilon` in arrival keep only the
    /// cheapest representative; finally the curve is thinned to
    /// [`Curve::MAX_POINTS`].
    pub fn finalize(&mut self, epsilon: f64) {
        if self.points.is_empty() {
            return;
        }
        // Dominance pruning already happened incrementally in `push`
        // (sorted, strictly decreasing cost), so only the ε-merge and the
        // thinning remain — both run in place, allocation-free.
        //
        // ε-merge: within an arrival window keep the last (cheapest)
        // point — replacing loses a little speed, never power.
        if epsilon > 0.0 {
            let mut write = 0;
            for read in 0..self.points.len() {
                if write > 0 && self.points[read].arrival - self.points[write - 1].arrival < epsilon
                {
                    self.points.swap(write - 1, read);
                } else {
                    self.points.swap(write, read);
                    write += 1;
                }
            }
            self.points.truncate(write);
        }
        if self.points.len() > Self::MAX_POINTS {
            // Keep the fastest and cheapest endpoints plus an even spread:
            // source indices grow at least as fast as destinations, so the
            // compaction never reads an overwritten slot.
            let n = self.points.len();
            for k in 0..Self::MAX_POINTS {
                let idx = k * (n - 1) / (Self::MAX_POINTS - 1);
                self.points.swap(k, idx);
            }
            self.points.truncate(Self::MAX_POINTS);
            self.points
                .dedup_by(|a, b| a.arrival == b.arrival && a.cost == b.cost);
        }
        debug_assert!(
            self.invariant_violation().is_none(),
            "finalize broke the curve invariant: {:?}",
            self.invariant_violation()
        );
    }

    /// The first violation of the non-inferiority invariant that must
    /// hold after [`Curve::finalize`], as text: every field finite,
    /// arrivals strictly increasing, costs strictly decreasing (so no
    /// point dominates another). `None` when the curve is well-formed.
    fn invariant_violation(&self) -> Option<String> {
        if let Some((i, p)) =
            self.points.iter().enumerate().find(|(_, p)| {
                !p.arrival.is_finite() || !p.cost.is_finite() || !p.drive.is_finite()
            })
        {
            return Some(format!(
                "point {i} has a non-finite field (arrival {}, cost {}, drive {})",
                p.arrival, p.cost, p.drive
            ));
        }
        self.points.windows(2).zip(1..).find_map(|(w, i)| {
            if w[1].arrival <= w[0].arrival {
                Some(format!(
                    "arrivals not strictly increasing at point {i}: {} after {}",
                    w[1].arrival, w[0].arrival
                ))
            } else if w[1].cost >= w[0].cost {
                Some(format!(
                    "costs not strictly decreasing at point {i}: {} after {} (point is dominated)",
                    w[1].cost, w[0].cost
                ))
            } else {
                None
            }
        })
    }

    /// The fastest point (minimum arrival at the given load).
    pub fn fastest(&self, load: f64, default_load: f64) -> Option<(usize, &Point)> {
        self.points.iter().enumerate().min_by(|a, b| {
            a.1.arrival_at_load(load, default_load)
                .partial_cmp(&b.1.arrival_at_load(load, default_load))
                .expect("finite")
        })
    }

    /// The cheapest point irrespective of timing.
    pub fn cheapest(&self) -> Option<(usize, &Point)> {
        self.points
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cost.partial_cmp(&b.1.cost).expect("finite"))
    }
}

/// A curve's points ordered by their arrival as seen through one gate
/// pin, with a running cheapest point, so "the cheapest point whose
/// arrival at this load meets `required`" is a binary search plus a
/// lookup instead of a scan. The order is also the order of the pin's
/// candidate output arrivals, which the match sweep merges.
///
/// The order is by arrival at the pin's load (`Point::arrival_at_load`),
/// ties broken by point index; drives differ between points, so this can
/// differ from the curve's own order. Nothing assumes the curve is
/// monotone, so curves holding a prune-exempt point
/// ([`Curve::insert_exempt`]) index correctly. The buffers are reused
/// across [`LoadIndex::rebuild`] calls.
#[derive(Debug, Default)]
pub(crate) struct LoadIndex {
    /// `(arrival at the load, point index)`, sorted.
    order: Vec<(f64, u32)>,
    /// `cheapest[n]`: index of the cheapest point among `order[..=n]`,
    /// the lowest index on cost ties.
    cheapest: Vec<u32>,
}

impl LoadIndex {
    /// Index `curve` as seen through a pin of capacitance `load`, the
    /// curve having been computed at `default_load`.
    pub(crate) fn rebuild(&mut self, curve: &Curve, load: f64, default_load: f64) {
        let points = curve.points();
        self.order.clear();
        self.order.extend(
            points
                .iter()
                .enumerate()
                .map(|(i, p)| (p.arrival_at_load(load, default_load), i as u32)),
        );
        self.order
            .sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        self.cheapest.clear();
        let mut best = self.order.first().map_or(0, |&(_, i)| i);
        for &(_, i) in &self.order {
            let (c, cb) = (points[i as usize].cost, points[best as usize].cost);
            if c < cb || (c == cb && i < best) {
                best = i;
            }
            self.cheapest.push(best);
        }
    }

    /// How many points meet `required` at the indexed load (`arrival <=
    /// required + 1e-9`); they are the first ones in load order. `known`
    /// is a count already established for a no-larger `required` (0 when
    /// there is none), and the search starts past it.
    pub(crate) fn admitted(&self, required: f64, known: usize) -> usize {
        let limit = required + 1e-9;
        known + self.order[known..].partition_point(|&(arrival, _)| arrival <= limit)
    }

    /// Index into [`Curve::points`] of the cheapest of the first `n`
    /// points in load order (lowest index on cost ties); `None` for
    /// `n == 0`.
    pub(crate) fn cheapest_of(&self, n: usize) -> Option<usize> {
        n.checked_sub(1).map(|last| self.cheapest[last] as usize)
    }

    /// Number of indexed points.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Arrival at the indexed load of the `n`-th point in load order.
    pub(crate) fn arrival(&self, n: usize) -> f64 {
        self.order[n].0
    }

    /// How many points, in load order, have an arrival for which `below`
    /// holds; `below` must hold for a prefix of the order.
    pub(crate) fn count_while(&self, mut below: impl FnMut(f64) -> bool) -> usize {
        self.order.partition_point(|&(arrival, _)| below(arrival))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(arrival: f64, cost: f64) -> Point {
        Point {
            arrival,
            cost,
            drive: 1.0,
            gate: None,
            inputs: BindingRange::EMPTY,
        }
    }

    #[test]
    fn finalize_keeps_pareto_frontier() {
        let mut c = Curve::new();
        c.push(pt(1.0, 10.0));
        c.push(pt(2.0, 5.0));
        c.push(pt(1.5, 12.0)); // inferior: slower than 1.0 and costlier
        c.push(pt(3.0, 5.0)); // inferior: same cost as 2.0 but slower
        c.push(pt(4.0, 1.0));
        c.finalize(0.0);
        let arr: Vec<f64> = c.points().iter().map(|p| p.arrival).collect();
        assert_eq!(arr, vec![1.0, 2.0, 4.0]);
        // strictly decreasing costs
        let costs: Vec<f64> = c.points().iter().map(|p| p.cost).collect();
        assert!(costs.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn epsilon_merges_close_points() {
        let mut c = Curve::new();
        c.push(pt(1.00, 10.0));
        c.push(pt(1.05, 9.0));
        c.push(pt(2.0, 5.0));
        c.finalize(0.1);
        assert_eq!(c.points().len(), 2);
        assert_eq!(c.points()[0].cost, 9.0);
    }

    #[test]
    fn best_within_respects_load_shift() {
        let mut c = Curve::new();
        let mut fast = pt(1.0, 10.0);
        fast.drive = 2.0;
        let mut slow = pt(2.0, 5.0);
        slow.drive = 0.1;
        c.push(fast);
        c.push(slow);
        c.finalize(0.0);
        let mut idx = LoadIndex::default();
        let best_within = |idx: &LoadIndex, required: f64| {
            idx.cheapest_of(idx.admitted(required, 0))
                .map(|i| c.points()[i].cost)
        };
        // at default load: cheapest within 2.0 is the slow point
        idx.rebuild(&c, 1.0, 1.0);
        assert_eq!(best_within(&idx, 2.0), Some(5.0));
        // heavy load (Δ=2): fast point shifts to 1+2·2=5, slow to 2+0.2=2.2;
        // requirement 2.3 still admits the slow point only.
        idx.rebuild(&c, 3.0, 1.0);
        assert_eq!(best_within(&idx, 2.3), Some(5.0));
        // requirement 2.0 at heavy load admits nothing.
        assert_eq!(best_within(&idx, 2.0), None);
        // the order flips at heavy load: slow (2.2) before fast (5.0).
        assert_eq!(idx.admitted(2.3, 0), 1);
        assert_eq!(idx.admitted(5.0, 1), 2);
    }

    #[test]
    fn invariant_violation_detects_breaks() {
        let mut good = Curve::new();
        good.push(pt(1.0, 10.0));
        good.push(pt(2.0, 5.0));
        assert!(good.invariant_violation().is_none());

        // Bad curves are built directly: `push` would prune them.
        let violation = |points: Vec<Point>| Curve { points }.invariant_violation().unwrap();
        // slower, not cheaper
        assert!(violation(vec![pt(1.0, 10.0), pt(2.0, 10.0)]).contains("dominated"));
        assert!(violation(vec![pt(2.0, 5.0), pt(1.0, 10.0)]).contains("strictly increasing"));
        assert!(violation(vec![pt(2.0, 5.0), pt(2.0, 3.0)]).contains("strictly increasing"));
        assert!(violation(vec![pt(f64::NAN, 1.0)]).contains("non-finite"));
    }

    /// The pre-insertion-pruning `finalize`: sort, batch Pareto prune,
    /// ε-merge, thin. Kept as the oracle for the incremental rewrite.
    fn finalize_reference(mut points: Vec<Point>, epsilon: f64) -> Vec<Point> {
        if points.is_empty() {
            return points;
        }
        points.sort_by(|a, b| {
            (a.arrival, a.cost)
                .partial_cmp(&(b.arrival, b.cost))
                .expect("finite")
        });
        let mut kept: Vec<Point> = Vec::with_capacity(points.len());
        let mut best_cost = f64::INFINITY;
        for p in points {
            if p.cost < best_cost - 1e-12 {
                best_cost = p.cost;
                kept.push(p);
            }
        }
        if epsilon > 0.0 {
            let mut merged: Vec<Point> = Vec::with_capacity(kept.len());
            for p in kept {
                if let Some(last) = merged.last() {
                    if p.arrival - last.arrival < epsilon {
                        merged.pop();
                    }
                }
                merged.push(p);
            }
            kept = merged;
        }
        if kept.len() > Curve::MAX_POINTS {
            let n = kept.len();
            let mut thinned: Vec<Point> = Vec::with_capacity(Curve::MAX_POINTS);
            for k in 0..Curve::MAX_POINTS {
                let idx = k * (n - 1) / (Curve::MAX_POINTS - 1);
                thinned.push(kept[idx].clone());
            }
            thinned.dedup_by(|a, b| a.arrival == b.arrival && a.cost == b.cost);
            kept = thinned;
        }
        kept
    }

    #[test]
    fn push_finalize_matches_batch_reference_on_random_curves() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xCA11ED);
        for case in 0..300 {
            let n = rng.gen_range(0usize..80);
            let epsilon = [0.0, 0.05, 0.5][case % 3];
            let pts: Vec<Point> = (0..n)
                .map(|_| pt(rng.gen_range(0.0..10.0), rng.gen_range(0.0..100.0)))
                .collect();
            let mut c = Curve::new();
            for p in &pts {
                c.push(p.clone());
            }
            c.finalize(epsilon);
            let want = finalize_reference(pts, epsilon);
            let got: Vec<(f64, f64)> = c.points().iter().map(|p| (p.arrival, p.cost)).collect();
            let want: Vec<(f64, f64)> = want.iter().map(|p| (p.arrival, p.cost)).collect();
            assert_eq!(got, want, "case {case} (n={n}, ε={epsilon})");
        }
    }

    #[test]
    fn push_prunes_incrementally() {
        let mut c = Curve::new();
        c.push(pt(2.0, 5.0));
        c.push(pt(1.0, 10.0)); // out-of-order insert: lands first
        c.push(pt(1.5, 12.0)); // dominated by (1.0, 10.0): dropped
        c.push(pt(3.0, 5.0)); // dominated by (2.0, 5.0): dropped
        c.push(pt(0.5, 4.0)); // dominates everything: curve collapses
        let got: Vec<(f64, f64)> = c.points().iter().map(|p| (p.arrival, p.cost)).collect();
        assert_eq!(got, vec![(0.5, 4.0)]);
        assert!(c.invariant_violation().is_none());
    }

    #[test]
    fn fastest_and_cheapest() {
        let mut c = Curve::new();
        c.push(pt(1.0, 10.0));
        c.push(pt(2.0, 5.0));
        c.finalize(0.0);
        assert_eq!(c.fastest(1.0, 1.0).unwrap().1.arrival, 1.0);
        assert_eq!(c.cheapest().unwrap().1.cost, 5.0);
    }
}
