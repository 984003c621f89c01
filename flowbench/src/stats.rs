//! Summary statistics of the benchmark: percentiles that carry their
//! sample count, geometric means, ratios that carry their base, and the
//! busy share of a parallel section.

/// A percentile of a sample, with the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples the value was taken from.
    pub samples: usize,
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `xs`: the smallest
/// sample with at least `p` % of the samples at or below it. `None` for an
/// empty sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<Percentile> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(Percentile {
        value: sorted[rank.clamp(1, sorted.len()) - 1],
        samples: sorted.len(),
    })
}

/// Median of `xs` (mean of the middle pair for an even count). `None` for
/// an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Geometric mean of strictly positive values. `None` when `xs` is empty
/// or holds a value that is not positive and finite.
pub fn gmean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x > 0.0 && x.is_finite())) {
        return None;
    }
    let mean_ln = xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64;
    Some(mean_ln.exp())
}

/// A ratio reported together with its base (denominator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// `part / base`, or 0 when the base is 0.
    pub value: f64,
    /// The denominator.
    pub base: f64,
}

/// `part / base`, keeping the base; an empty base gives a ratio of 0.
pub fn ratio(part: f64, base: f64) -> Ratio {
    Ratio {
        value: if base > 0.0 { part / base } else { 0.0 },
        base,
    }
}

/// Share of the available worker time a parallel section kept busy: the
/// summed item durations over `threads × section_wall_s`.
pub fn busy_share(durations_s: &[f64], threads: usize, section_wall_s: f64) -> f64 {
    ratio(durations_s.iter().sum(), threads as f64 * section_wall_s).value
}
