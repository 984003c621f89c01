//! Table 2/3 harness: per-circuit result rows and the Section 4 summaries.

/// The six (area, delay, power) triples of one circuit, in method order.
#[derive(Debug, Clone)]
pub struct SuiteRow {
    /// Circuit name.
    pub name: String,
    /// Per-method `(gate area, delay ns, average power µW)`.
    pub methods: Vec<(f64, f64, f64)>,
}

/// The Section 4 summary claims, as geometric-mean ratios in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Power change of minpower decomp vs conventional (II/I and V/IV
    /// averaged), percent (negative = improvement). Paper: ≈ −3.7 %.
    pub minpower_decomp_power_pct: f64,
    /// Power change of bounded-height vs minpower decomp (III/II, VI/V),
    /// percent. Paper: ≈ −1.6 %.
    pub bounded_power_pct: f64,
    /// Delay change of bounded-height vs minpower decomp, percent.
    /// Paper: ≈ −1.6 %.
    pub bounded_delay_pct: f64,
    /// Power change of pd-map vs ad-map (IV–VI vs I–III), percent.
    /// Paper: ≈ −22 %.
    pub pdmap_power_pct: f64,
    /// Area change of pd-map vs ad-map, percent. Paper: ≈ +12.4 %.
    pub pdmap_area_pct: f64,
    /// Delay change of pd-map vs ad-map, percent. Paper: ≈ −1.1 %.
    pub pdmap_delay_pct: f64,
}

fn geo_mean_ratio_pct(pairs: &[(f64, f64)]) -> f64 {
    let pairs: Vec<&(f64, f64)> = pairs
        .iter()
        .filter(|(num, den)| *num > 0.0 && *den > 0.0)
        .collect();
    if pairs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = pairs.iter().map(|(num, den)| (num / den).ln()).sum();
    ((log_sum / pairs.len() as f64).exp() - 1.0) * 100.0
}

/// Compute the Section 4 summary from full six-method rows.
///
/// # Panics
/// Panics if any row has fewer than six method entries.
pub fn summarize(rows: &[SuiteRow]) -> Summary {
    let mut mp_power = Vec::new();
    let mut bh_power = Vec::new();
    let mut bh_delay = Vec::new();
    let mut pd_power = Vec::new();
    let mut pd_area = Vec::new();
    let mut pd_delay = Vec::new();
    for r in rows {
        assert!(r.methods.len() >= 6, "need all six methods");
        let m = &r.methods;
        // minpower decomp effect: II vs I, V vs IV
        for (num, den) in [(1, 0), (4, 3)] {
            mp_power.push((m[num].2, m[den].2));
        }
        // bounded-height effect: III vs II, VI vs V
        for (num, den) in [(2, 1), (5, 4)] {
            bh_power.push((m[num].2, m[den].2));
            bh_delay.push((m[num].1, m[den].1));
        }
        // pd-map effect: IV vs I, V vs II, VI vs III
        for (num, den) in [(3, 0), (4, 1), (5, 2)] {
            pd_power.push((m[num].2, m[den].2));
            pd_area.push((m[num].0, m[den].0));
            pd_delay.push((m[num].1, m[den].1));
        }
    }
    Summary {
        minpower_decomp_power_pct: geo_mean_ratio_pct(&mp_power),
        bounded_power_pct: geo_mean_ratio_pct(&bh_power),
        bounded_delay_pct: geo_mean_ratio_pct(&bh_delay),
        pdmap_power_pct: geo_mean_ratio_pct(&pd_power),
        pdmap_area_pct: geo_mean_ratio_pct(&pd_area),
        pdmap_delay_pct: geo_mean_ratio_pct(&pd_delay),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_math() {
        let rows = vec![SuiteRow {
            name: "x".into(),
            methods: vec![
                (100.0, 10.0, 100.0),
                (100.0, 10.0, 96.0),
                (100.0, 10.0, 95.0),
                (112.0, 10.0, 78.0),
                (112.0, 10.0, 75.0),
                (112.0, 10.0, 74.0),
            ],
        }];
        let s = summarize(&rows);
        assert!(s.minpower_decomp_power_pct < 0.0);
        assert!(s.pdmap_power_pct < -20.0);
        assert!(s.pdmap_area_pct > 10.0);
    }
}
