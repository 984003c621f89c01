//! Rule-based structural analysis ("lint") for every IR in the workspace.
//!
//! PR 1's equivalence checker catches functional corruption only after the
//! fact, by simulation or BDDs. Most of the bug class it was built for —
//! duplicate fanin pins resurrecting contradictory cubes, dangling fanout
//! links, dominated points on a power-delay curve — is detectable
//! *structurally*, in linear time, with no reference network. This crate
//! is that detector: a registry of rules with stable ids and severities,
//! one analysis entry point per IR:
//!
//! * [`lint_network`] — [`netlist::Network`]: acyclicity (with the cycle
//!   path named), fanin/fanout link symmetry, duplicate fanin pins,
//!   dangling and unreachable logic, non-minimal covers, width mismatches,
//!   name-map consistency.
//! * [`lint_mapped`] — [`lowpower_core::map::MappedNetwork`]: reference
//!   well-formedness (topological instance order), pin arity against the
//!   library, probability sanity, load versus pin `max_load`.
//! * [`lint_decomposed`] — [`lowpower_core::decomp::DecomposedNetwork`]:
//!   2-input gate arity, height bounds honored when bounded decomposition
//!   was requested (paper §2.3), recorded depth consistency — plus all
//!   network rules on the underlying network.
//! * [`lint_curve`] — [`lowpower_core::map::Curve`]: the §3.1
//!   non-inferiority invariant (arrivals strictly increasing, costs
//!   strictly decreasing, finite), shared with `Curve::finalize`'s debug
//!   assertion.
//! * [`lint_library`] — [`genlib::Library`]: expression/pin arity,
//!   non-negative electrical values, inverter availability.
//! * [`lint_activity`] — [`activity::ActivityMap`]: probabilities in
//!   [0, 1] and switching within the transition-model bound
//!   0 ≤ E ≤ 2p(1−p) for static CMOS (paper eqs. 10–11).
//!
//! The crate only analyses: the flow's checkpoints decide when each IR is
//! linted and what a finding does to the run.

#![warn(missing_docs)]

pub mod diag;

mod activity_rules;
mod curve_rules;
mod decomp_rules;
mod library_rules;
mod mapped_rules;
mod network_rules;

pub use activity_rules::{lint_activity, lint_activity_slices};
pub use curve_rules::lint_curve;
pub use decomp_rules::lint_decomposed;
pub use diag::{Diagnostic, LintReport, Provenance, Severity};
pub use library_rules::lint_library;
pub use mapped_rules::lint_mapped;
pub use network_rules::lint_network;

use std::str::FromStr;

/// Every rule's id and severity, grouped by IR. Analysis code looks
/// severities up here; each rule's summary is its check's doc comment.
const SEVERITIES: &[(&str, Severity)] = &[
    ("NET001", Severity::Error),
    ("NET002", Severity::Error),
    ("NET003", Severity::Error),
    ("NET004", Severity::Warn),
    ("NET005", Severity::Warn),
    ("NET006", Severity::Warn),
    ("NET007", Severity::Error),
    ("NET008", Severity::Error),
    ("MAP001", Severity::Error),
    ("MAP002", Severity::Error),
    ("MAP003", Severity::Warn),
    ("MAP004", Severity::Error),
    ("MAP005", Severity::Warn),
    ("MAP006", Severity::Error),
    ("DEC001", Severity::Error),
    ("DEC002", Severity::Warn),
    ("DEC003", Severity::Error),
    ("CRV001", Severity::Error),
    ("CRV002", Severity::Error),
    ("CRV003", Severity::Error),
    ("LIB001", Severity::Error),
    ("LIB002", Severity::Error),
    ("LIB003", Severity::Warn),
    ("ACT001", Severity::Error),
    ("ACT002", Severity::Error),
];

/// Severity of a rule.
///
/// # Panics
/// Panics on an id missing from the registry — that is a bug in this crate.
fn severity_of(id: &str) -> Severity {
    SEVERITIES
        .iter()
        .find(|(rule, _)| *rule == id)
        .unwrap_or_else(|| panic!("unregistered lint rule id {id}"))
        .1
}

/// Options of a lint run. Every rule always runs, so there are none yet;
/// the type keeps the `lint_*` signatures stable.
#[derive(Debug, Clone, Default)]
pub struct LintConfig;

impl LintConfig {
    /// The default options.
    pub fn new() -> LintConfig {
        LintConfig
    }
}

/// How lint findings gate a flow run, mirroring `verify::VerifyLevel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintLevel {
    /// No linting.
    #[default]
    Off,
    /// Lint and report findings, but never fail.
    Check,
    /// Lint; any `Error`-severity finding fails the flow.
    Deny,
}

impl FromStr for LintLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<LintLevel, String> {
        match s {
            "off" => Ok(LintLevel::Off),
            "check" => Ok(LintLevel::Check),
            "deny" => Ok(LintLevel::Deny),
            other => Err(format!(
                "unknown lint level `{other}` (expected off|check|deny)"
            )),
        }
    }
}

impl std::fmt::Display for LintLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LintLevel::Off => "off",
            LintLevel::Check => "check",
            LintLevel::Deny => "deny",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (id, _) in SEVERITIES {
            assert!(seen.insert(id), "duplicate rule id {id}");
        }
        assert_eq!(severity_of("NET004"), Severity::Warn);
    }

    #[test]
    fn lint_level_parses() {
        assert_eq!("deny".parse::<LintLevel>().unwrap(), LintLevel::Deny);
        assert_eq!("check".parse::<LintLevel>().unwrap(), LintLevel::Check);
        assert_eq!("off".parse::<LintLevel>().unwrap(), LintLevel::Off);
        assert!("loud".parse::<LintLevel>().is_err());
    }
}
