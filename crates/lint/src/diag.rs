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

    /// Render as a JSON object through [`obs::json::Json`]:
    /// `{"subject": …, "errors": n, "warnings": n,
    /// "diagnostics": [{rule, severity, message, node?, id?, slot?}…]}`.
    pub fn render_json(&self) -> String {
        let text = |s: &str| Json::Str(s.to_string());
        let num = |n: usize| Json::Num(n.to_string());
        let diagnostics = self.diagnostics.iter().map(|d| {
            let mut members = vec![
                ("rule".to_string(), text(d.rule)),
                ("severity".to_string(), text(&d.severity.to_string())),
                ("message".to_string(), text(&d.message)),
            ];
            let p = &d.provenance;
            members.extend(p.node.as_deref().map(|n| ("node".to_string(), text(n))));
            members.extend(p.id.map(|id| ("id".to_string(), num(id))));
            members.extend(p.slot.map(|slot| ("slot".to_string(), num(slot))));
            Json::Obj(members)
        });
        Json::Obj(vec![
            ("subject".to_string(), text(&self.subject)),
            ("errors".to_string(), num(self.error_count())),
            ("warnings".to_string(), num(self.warn_count())),
            ("diagnostics".to_string(), Json::Arr(diagnostics.collect())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `render_json` of the report in `json_rendering_is_pinned`, byte
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
        let json = r.render_json();
        assert_eq!(json, GOLDEN, "rendered:\n{json}");
        let parsed = obs::json::parse_json(&json).expect("render_json emits valid JSON");
        assert_eq!(parsed.render(), json);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
    }
}
