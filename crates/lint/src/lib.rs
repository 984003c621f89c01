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
//! The [`certify`] module wraps a network pass or a decomposition with
//! before/after lint runs in debug builds, so a pass that corrupts an
//! invariant fails loudly at its source instead of three stages later.

#![warn(missing_docs)]

pub mod certify;
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

use std::collections::BTreeSet;
use std::str::FromStr;

/// Which IR a rule analyzes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrTarget {
    /// [`netlist::Network`].
    Network,
    /// [`lowpower_core::map::MappedNetwork`].
    Mapped,
    /// [`lowpower_core::decomp::DecomposedNetwork`].
    Decomp,
    /// [`lowpower_core::map::Curve`].
    Curve,
    /// [`genlib::Library`].
    Library,
    /// [`activity::ActivityMap`].
    Activity,
}

impl std::fmt::Display for IrTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IrTarget::Network => "network",
            IrTarget::Mapped => "mapped",
            IrTarget::Decomp => "decomp",
            IrTarget::Curve => "curve",
            IrTarget::Library => "library",
            IrTarget::Activity => "activity",
        })
    }
}

/// A registered rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id, e.g. `NET003`. Never renumbered.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// IR the rule analyzes.
    pub target: IrTarget,
    /// One-line description.
    pub summary: &'static str,
}

/// Every rule this crate knows, in id order. The table is the single
/// source of truth for ids and default severities; analysis code looks
/// severities up here.
pub const RULES: &[Rule] = &[
    Rule {
        id: "NET001",
        severity: Severity::Error,
        target: IrTarget::Network,
        summary: "network contains a combinational cycle (path reported)",
    },
    Rule {
        id: "NET002",
        severity: Severity::Error,
        target: IrTarget::Network,
        summary: "fanin/fanout links are asymmetric or reference dead nodes",
    },
    Rule {
        id: "NET003",
        severity: Severity::Error,
        target: IrTarget::Network,
        summary: "a node lists the same fanin at two SOP positions",
    },
    Rule {
        id: "NET004",
        severity: Severity::Warn,
        target: IrTarget::Network,
        summary: "dangling logic node: no fanouts and not a primary output",
    },
    Rule {
        id: "NET005",
        severity: Severity::Warn,
        target: IrTarget::Network,
        summary: "SOP cover is not single-cube-containment minimal",
    },
    Rule {
        id: "NET006",
        severity: Severity::Warn,
        target: IrTarget::Network,
        summary: "logic node unreachable from every primary output",
    },
    Rule {
        id: "NET007",
        severity: Severity::Error,
        target: IrTarget::Network,
        summary: "SOP width differs from the fanin count",
    },
    Rule {
        id: "NET008",
        severity: Severity::Error,
        target: IrTarget::Network,
        summary: "name map or output list references a missing node",
    },
    Rule {
        id: "MAP001",
        severity: Severity::Error,
        target: IrTarget::Mapped,
        summary: "instance input references a later instance, itself, or an invalid id",
    },
    Rule {
        id: "MAP002",
        severity: Severity::Error,
        target: IrTarget::Mapped,
        summary: "instance pin count differs from its library gate's pin count",
    },
    Rule {
        id: "MAP003",
        severity: Severity::Warn,
        target: IrTarget::Mapped,
        summary: "instance drives no other instance and no primary output",
    },
    Rule {
        id: "MAP004",
        severity: Severity::Error,
        target: IrTarget::Mapped,
        summary: "signal probability outside [0, 1] or probability table misaligned",
    },
    Rule {
        id: "MAP005",
        severity: Severity::Warn,
        target: IrTarget::Mapped,
        summary: "output load exceeds the driving gate's max_load rating",
    },
    Rule {
        id: "MAP006",
        severity: Severity::Error,
        target: IrTarget::Mapped,
        summary: "duplicate net name among primary inputs and instances",
    },
    Rule {
        id: "DEC001",
        severity: Severity::Error,
        target: IrTarget::Decomp,
        summary: "decomposed node has more than 2 fanins",
    },
    Rule {
        id: "DEC002",
        severity: Severity::Warn,
        target: IrTarget::Decomp,
        summary: "node root exceeds its applied height bound (§2.3)",
    },
    Rule {
        id: "DEC003",
        severity: Severity::Error,
        target: IrTarget::Decomp,
        summary: "recorded depth differs from the recomputed network depth",
    },
    Rule {
        id: "CRV001",
        severity: Severity::Error,
        target: IrTarget::Curve,
        summary: "curve arrivals are not strictly increasing",
    },
    Rule {
        id: "CRV002",
        severity: Severity::Error,
        target: IrTarget::Curve,
        summary: "curve costs are not strictly decreasing (dominated point)",
    },
    Rule {
        id: "CRV003",
        severity: Severity::Error,
        target: IrTarget::Curve,
        summary: "curve point has a non-finite arrival, cost or drive",
    },
    Rule {
        id: "LIB001",
        severity: Severity::Error,
        target: IrTarget::Library,
        summary: "gate function references a variable beyond its pin count",
    },
    Rule {
        id: "LIB002",
        severity: Severity::Error,
        target: IrTarget::Library,
        summary: "gate has a negative or non-finite area/cap/delay value",
    },
    Rule {
        id: "LIB003",
        severity: Severity::Warn,
        target: IrTarget::Library,
        summary: "library has no inverter (mapping will fail)",
    },
    Rule {
        id: "ACT001",
        severity: Severity::Error,
        target: IrTarget::Activity,
        summary: "signal probability outside [0, 1]",
    },
    Rule {
        id: "ACT002",
        severity: Severity::Error,
        target: IrTarget::Activity,
        summary: "switching activity outside the transition-model bound",
    },
];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Default severity of a rule. Internal helper for the analysis modules.
///
/// # Panics
/// Panics on an id missing from [`RULES`] — that is a bug in this crate.
pub(crate) fn severity_of(id: &str) -> Severity {
    rule(id)
        .unwrap_or_else(|| panic!("unregistered lint rule id {id}"))
        .severity
}

/// Per-run rule selection. All rules are enabled by default.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    disabled: BTreeSet<&'static str>,
}

impl LintConfig {
    /// All rules enabled.
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Disable a rule by id. Unknown ids are ignored (forward
    /// compatibility with configs naming rules from newer versions).
    pub fn disable(mut self, id: &str) -> LintConfig {
        if let Some(r) = rule(id) {
            self.disabled.insert(r.id);
        }
        self
    }

    /// Is the rule enabled in this run?
    pub fn enabled(&self, id: &str) -> bool {
        !self.disabled.contains(id)
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
    fn rule_ids_unique_and_sorted_by_family() {
        let mut seen = BTreeSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            assert!(!r.summary.is_empty());
        }
    }

    #[test]
    fn lookup_and_config() {
        assert_eq!(rule("NET001").unwrap().severity, Severity::Error);
        assert!(rule("XXX999").is_none());
        let cfg = LintConfig::new().disable("NET004").disable("bogus");
        assert!(!cfg.enabled("NET004"));
        assert!(cfg.enabled("NET001"));
    }

    #[test]
    fn lint_level_parses() {
        assert_eq!("deny".parse::<LintLevel>().unwrap(), LintLevel::Deny);
        assert_eq!("check".parse::<LintLevel>().unwrap(), LintLevel::Check);
        assert_eq!("off".parse::<LintLevel>().unwrap(), LintLevel::Off);
        assert!("loud".parse::<LintLevel>().is_err());
    }
}
