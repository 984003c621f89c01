//! Diagnostics: severities, provenance, and report rendering.

use obs::json::Json;
use std::fmt;

/// How serious a finding is.
///
/// `Error` findings mark structures the rest of the workspace is entitled
/// to assume never exist (they cause panics, wrong logic, or wrong cost
/// accounting downstream); `Warn` findings are suspicious but legal; `Info`
/// is purely informational.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational only; never affects exit status.
    Info,
    /// Suspicious but not invariant-breaking.
    Warn,
    /// Invariant violation; fails `--lint=deny` and, in debug builds, the
    /// flow's checkpoints at every lint level.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// Where in the analyzed IR a diagnostic points.
///
/// All fields are optional: a library finding has no node, a whole-network
/// finding has no slot. `id` is the arena index ([`netlist::NodeId::index`]
/// for networks, the instance index for mapped netlists, the gate index
/// for libraries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Name of the node / instance / gate the finding is about.
    pub node: Option<String>,
    /// Arena / instance / point index.
    pub id: Option<usize>,
    /// Fanin slot or pin position inside the node, when relevant.
    pub slot: Option<usize>,
}

impl Provenance {
    /// Empty provenance (whole-IR finding).
    pub fn none() -> Provenance {
        Provenance::default()
    }

    /// Provenance naming a node.
    pub fn node(name: impl Into<String>, id: usize) -> Provenance {
        Provenance {
            node: Some(name.into()),
            id: Some(id),
            slot: None,
        }
    }

    /// Provenance naming a fanin slot of a node.
    pub fn slot(name: impl Into<String>, id: usize, slot: usize) -> Provenance {
        Provenance {
            node: Some(name.into()),
            id: Some(id),
            slot: Some(slot),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule id, e.g. `NET003`.
    pub rule: &'static str,
    /// The rule's registered severity.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// Where the violation is.
    pub provenance: Provenance,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.rule, self.message)?;
        if let Some(node) = &self.provenance.node {
            write!(f, " (at `{node}`")?;
            if let Some(id) = self.provenance.id {
                write!(f, " #{id}")?;
            }
            if let Some(slot) = self.provenance.slot {
                write!(f, " slot {slot}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// All findings from one lint run over one IR value.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// What was analyzed, e.g. `network `alu2`` or `library `lib2``.
    pub subject: String,
    /// The findings, in rule order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Empty report for a subject.
    pub fn new(subject: impl Into<String>) -> LintReport {
        LintReport {
            subject: subject.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Record a finding.
    pub fn push(
        &mut self,
        rule: &'static str,
        severity: Severity,
        provenance: Provenance,
        message: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            rule,
            severity,
            message: message.into(),
            provenance,
        });
    }

    /// Append another report's findings (e.g. network findings into a
    /// decomposition report).
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of `Error`-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of `Warn`-severity findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// True when at least one `Error`-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// True when no findings at all were recorded.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings carrying a given rule id.
    pub fn by_rule<'a>(&'a self, rule: &str) -> impl Iterator<Item = &'a Diagnostic> {
        let rule = rule.to_string();
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }

    /// Render as human-readable text, one finding per line, with a summary
    /// tail line.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "lint: {}", self.subject);
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        let _ = writeln!(
            out,
            "  {} error(s), {} warning(s), {} finding(s) total",
            self.error_count(),
            self.warn_count(),
            self.diagnostics.len()
        );
        out
    }

    /// The report as a JSON value (render it with [`Json::render`]):
    /// `{"subject": …, "errors": n, "warnings": n,
    /// "diagnostics": [{rule, severity, message, node?, id?, slot?}…]}`.
    pub fn to_json(&self) -> Json {
        let diagnostics = self.diagnostics.iter().map(|d| {
            let mut members = vec![
                ("rule", Json::str(d.rule)),
                ("severity", Json::str(d.severity.to_string())),
                ("message", Json::str(&d.message)),
            ];
            let p = &d.provenance;
            members.extend(p.node.as_deref().map(|n| ("node", Json::str(n))));
            members.extend(p.id.map(|id| ("id", Json::num(id))));
            members.extend(p.slot.map(|slot| ("slot", Json::num(slot))));
            Json::obj(members)
        });
        Json::obj([
            ("subject", Json::str(&self.subject)),
            ("errors", Json::num(self.error_count())),
            ("warnings", Json::num(self.warn_count())),
            ("diagnostics", Json::Arr(diagnostics.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rendered `to_json` of the report in `json_rendering_is_pinned`, byte
    /// for byte.
    const GOLDEN: &str = r#"{"subject":"network `t\"1`","errors":1,"warnings":2,"diagnostics":[{"rule":"NET003","severity":"error","message":"duplicate fanin \"a\"\tat\\pin\n\u0001end","node":"f","id":3,"slot":1},{"rule":"NET004","severity":"warn","message":"dangling","node":"g","id":7},{"rule":"LIB003","severity":"warn","message":"no inverter"}]}"#;

    #[test]
    fn text_rendering_includes_provenance() {
        let mut r = LintReport::new("network `t`");
        r.push(
            "NET003",
            Severity::Error,
            Provenance::slot("f", 3, 1),
            "duplicate fanin",
        );
        let text = r.render_text();
        assert!(text.contains("error[NET003]"));
        assert!(text.contains("`f` #3 slot 1"));
        assert!(text.contains("1 error(s)"));
        assert!(r.has_errors());
        assert!(!r.is_clean());
    }

    #[test]
    fn json_rendering_is_pinned() {
        let mut r = LintReport::new("network `t\"1`");
        r.push(
            "NET003",
            Severity::Error,
            Provenance::slot("f", 3, 1),
            "duplicate fanin \"a\"\tat\\pin\n\u{1}end",
        );
        r.push(
            "NET004",
            Severity::Warn,
            Provenance::node("g", 7),
            "dangling",
        );
        r.push("LIB003", Severity::Warn, Provenance::none(), "no inverter");
        let json = r.to_json().render();
        assert_eq!(json, GOLDEN, "rendered:\n{json}");
        let parsed = obs::json::parse_json(&json).expect("to_json renders valid JSON");
        assert_eq!(parsed.render(), json);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
    }
}
