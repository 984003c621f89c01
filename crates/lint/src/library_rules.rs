//! `LIB*` rules over [`genlib::Library`].

use crate::diag::{LintReport, Provenance};
use crate::{severity_of, LintConfig};
use genlib::{Expr, Library};

/// Run all `LIB*` rules over a gate library.
pub fn lint_library(lib: &Library, _cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::new(format!("library `{}`", lib.name()));

    for (gi, gate) in lib.gates().iter().enumerate() {
        // LIB001: the function may only reference declared inputs, and
        // there must be exactly one pin record per input.
        if gate.inputs().len() != gate.pins().len() {
            report.push(
                "LIB001",
                severity_of("LIB001"),
                Provenance::node(gate.name(), gi),
                format!(
                    "{} input(s) but {} pin record(s)",
                    gate.inputs().len(),
                    gate.pins().len()
                ),
            );
        }
        if let Some(var) = max_var(gate.function()) {
            if var >= gate.inputs().len() {
                report.push(
                    "LIB001",
                    severity_of("LIB001"),
                    Provenance::node(gate.name(), gi),
                    format!(
                        "function references variable {var} but only {} input(s) exist",
                        gate.inputs().len()
                    ),
                );
            }
        }

        // LIB002: electrical values must be finite; area and caps
        // non-negative; delays non-negative.
        let sev = severity_of("LIB002");
        if !gate.area().is_finite() || gate.area() < 0.0 {
            report.push(
                "LIB002",
                sev,
                Provenance::node(gate.name(), gi),
                format!("area {} is negative or non-finite", gate.area()),
            );
        }
        for (pi, pin) in gate.pins().iter().enumerate() {
            let fields = [
                ("input_cap", pin.input_cap),
                ("max_load", pin.max_load),
                ("intrinsic", pin.intrinsic),
                ("drive", pin.drive),
            ];
            for (what, v) in fields {
                if !v.is_finite() || v < 0.0 {
                    report.push(
                        "LIB002",
                        sev,
                        Provenance::slot(gate.name(), gi, pi),
                        format!("pin `{}` {what} {v} is negative or non-finite", pin.name),
                    );
                }
            }
        }
    }

    // LIB003: mapping needs an inverter (decomposed literals are emitted
    // with explicit inversions); a library without one will fail with
    // `MapError::NoInverter`. `Gate::is_inverter` evaluates the function,
    // which panics when it references out-of-range variables (a LIB001
    // violation), so only well-formed gates are probed.
    let has_inverter = lib.gates().iter().any(|g| {
        g.inputs().len() == 1
            && max_var(g.function()).is_none_or(|v| v < g.inputs().len())
            && g.is_inverter()
    });
    if !has_inverter {
        report.push(
            "LIB003",
            severity_of("LIB003"),
            Provenance::none(),
            "library has no inverter; technology mapping will fail",
        );
    }

    report
}

/// Largest `Expr::Var` index in an expression, if any.
fn max_var(e: &Expr) -> Option<usize> {
    match e {
        Expr::Zero | Expr::One => None,
        Expr::Var(i) => Some(*i),
        Expr::Not(inner) => max_var(inner),
        Expr::And(kids) | Expr::Or(kids) => kids.iter().filter_map(max_var).max(),
    }
}
