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
    let get = |r: &SuiteRow, m: usize| r.methods[m];
    let mut mp_power = Vec::new();
    let mut bh_power = Vec::new();
    let mut bh_delay = Vec::new();
    let mut pd_power = Vec::new();
    let mut pd_area = Vec::new();
    let mut pd_delay = Vec::new();
    for r in rows {
        assert!(r.methods.len() >= 6, "need all six methods");
        let (a1, d1, p1) = get(r, 0);
        let (a2, d2, p2) = get(r, 1);
        let (_a3, d3, p3) = get(r, 2);
        let (a4, d4, p4) = get(r, 3);
        let (a5, d5, p5) = get(r, 4);
        let (a6, d6, p6) = get(r, 5);
        // minpower decomp effect: II vs I, V vs IV
        mp_power.push((p2, p1));
        mp_power.push((p5, p4));
        // bounded-height effect: III vs II, VI vs V
        bh_power.push((p3, p2));
        bh_power.push((p6, p5));
        bh_delay.push((d3, d2));
        bh_delay.push((d6, d5));
        // pd-map effect: IV vs I, V vs II, VI vs III
        pd_power.push((p4, p1));
        pd_power.push((p5, p2));
        pd_power.push((p6, p3));
        pd_area.push((a4, a1));
        pd_area.push((a5, a2));
        pd_area.push((a6, get(r, 2).0));
        pd_delay.push((d4, d1));
        pd_delay.push((d5, d2));
        pd_delay.push((d6, d3));
        let _ = (a2, a5, a6, d1, d4);
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
