//! `CRV*` rules over [`lowpower_core::map::Curve`].
//!
//! The predicate itself lives in `Curve::invariant_defects` — shared with
//! the `debug_assert!` inside `Curve::finalize` so the lint rule and the
//! runtime assertion can never drift apart. This module only maps defects
//! to rule ids and provenance.

use crate::diag::{LintReport, Provenance};
use crate::{severity_of, LintConfig};
use lowpower_core::map::{Curve, CurveDefect};

/// Run all `CRV*` rules over a finalized power-delay curve.
pub fn lint_curve(curve: &Curve, _cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::new(format!("curve ({} points)", curve.points().len()));
    for defect in curve.invariant_defects() {
        let (rule, point, message) = match defect {
            CurveDefect::ArrivalNotIncreasing { point } => (
                "CRV001",
                point,
                format!(
                    "arrival {} at point {point} is not greater than {} at point {}",
                    curve.points()[point].arrival,
                    curve.points()[point - 1].arrival,
                    point - 1
                ),
            ),
            CurveDefect::CostNotDecreasing { point } => (
                "CRV002",
                point,
                format!(
                    "cost {} at point {point} is not below {} at point {} — the point is dominated",
                    curve.points()[point].cost,
                    curve.points()[point - 1].cost,
                    point - 1
                ),
            ),
            CurveDefect::NonFinite { point } => {
                let p = &curve.points()[point];
                (
                    "CRV003",
                    point,
                    format!(
                        "non-finite field at point {point}: arrival {}, cost {}, drive {}",
                        p.arrival, p.cost, p.drive
                    ),
                )
            }
        };
        report.push(
            rule,
            severity_of(rule),
            Provenance {
                node: None,
                id: Some(point),
                slot: None,
            },
            message,
        );
    }
    report
}
