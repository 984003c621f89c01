//! Canonical QoR baselines and regression diffing.
//!
//! A [`Baseline`] is the committed QoR truth for a set of
//! `circuit × method` runs. [`diff`] compares a freshly measured baseline
//! against it with one **relative** tolerance; CI runs at zero tolerance
//! so any drift — better *or* worse — fails loudly and must be
//! re-baselined intentionally.

use crate::ledger::Metrics;
use obs::json::{parse_json, Json};
use std::fmt::Write as _;

/// One baseline row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Circuit name.
    pub circuit: String,
    /// Method label.
    pub method: String,
    /// Final-stage QoR of the run.
    pub metrics: Metrics,
}

/// A set of baseline rows, kept sorted by `(circuit, method)` so the JSON
/// rendering is canonical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// The rows, sorted by `(circuit, method)`.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// An empty baseline.
    pub fn new() -> Baseline {
        Baseline::default()
    }

    /// Insert (or replace) the row for `circuit × method`.
    pub fn insert(&mut self, circuit: &str, method: &str, metrics: Metrics) {
        let key = (circuit.to_string(), method.to_string());
        match self
            .entries
            .binary_search_by(|e| (e.circuit.clone(), e.method.clone()).cmp(&key))
        {
            Ok(i) => self.entries[i].metrics = metrics,
            Err(i) => self.entries.insert(
                i,
                BaselineEntry {
                    circuit: key.0,
                    method: key.1,
                    metrics,
                },
            ),
        }
    }

    /// Look up the row for `circuit × method`.
    pub fn get(&self, circuit: &str, method: &str) -> Option<&Metrics> {
        self.entries
            .iter()
            .find(|e| e.circuit == circuit && e.method == method)
            .map(|e| &e.metrics)
    }

    /// Render as canonical pretty JSON (sorted rows, fixed field order) —
    /// the committed `results/qor_baseline.json` format.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let mut row = Vec::with_capacity(7);
            row.push(("circuit".to_string(), Json::Str(e.circuit.clone())));
            row.push(("method".to_string(), Json::Str(e.method.clone())));
            for (k, v) in e.metrics.fields() {
                row.push((k.to_string(), Json::Num(v.to_string())));
            }
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{comma}", Json::Obj(row).render());
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse the strict-JSON baseline format (accepts any member order and
    /// whitespace; [`Baseline::render_json`] output round-trips).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let j = parse_json(text)?;
        match j.get("version") {
            Some(Json::Num(v)) if v == "1" => {}
            Some(_) => return Err("unsupported baseline version".to_string()),
            None => return Err("missing `version`".to_string()),
        }
        let Some(Json::Arr(rows)) = j.get("entries") else {
            return Err("missing `entries` array".to_string());
        };
        let mut baseline = Baseline::new();
        for (i, row) in rows.iter().enumerate() {
            let s = |key: &str| -> Result<String, String> {
                row.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("entry {i}: missing string `{key}`"))
            };
            let circuit = s("circuit")?;
            let method = s("method")?;
            let metrics = Metrics::from_json(row).map_err(|e| format!("entry {i}: {e}"))?;
            if baseline.get(&circuit, &method).is_some() {
                return Err(format!("entry {i}: duplicate {circuit} × {method}"));
            }
            baseline.insert(&circuit, &method, metrics);
        }
        Ok(baseline)
    }
}

/// One compared metric of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffLine {
    /// Circuit name.
    pub circuit: String,
    /// Method label.
    pub method: String,
    /// Metric name (one of the [`Metrics::fields`] names).
    pub metric: &'static str,
    /// Baseline value.
    pub base: i64,
    /// Measured value.
    pub new: i64,
    /// Within tolerance?
    pub ok: bool,
}

/// Result of [`diff`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diff {
    /// Every compared metric, in baseline order.
    pub lines: Vec<DiffLine>,
    /// `circuit × method` keys present in the baseline but missing from
    /// the measurement (always a failure).
    pub missing: Vec<String>,
    /// Keys measured but absent from the baseline (always a failure: the
    /// baseline must be regenerated to cover them).
    pub extra: Vec<String>,
}

impl Diff {
    /// `true` when every metric is within tolerance and the run sets match.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.extra.is_empty() && self.lines.iter().all(|l| l.ok)
    }

    /// Number of failing metric comparisons.
    pub fn failures(&self) -> usize {
        self.lines.iter().filter(|l| !l.ok).count() + self.missing.len() + self.extra.len()
    }

    /// Human-readable report: failing metrics first, then a one-line
    /// verdict.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for key in &self.missing {
            let _ = writeln!(out, "MISSING  {key} (in baseline, not measured)");
        }
        for key in &self.extra {
            let _ = writeln!(out, "EXTRA    {key} (measured, not in baseline)");
        }
        for l in self.lines.iter().filter(|l| !l.ok) {
            let _ = writeln!(
                out,
                "DRIFT    {} × {} {}: baseline {} -> measured {}",
                l.circuit, l.method, l.metric, l.base, l.new
            );
        }
        if self.passed() {
            let _ = writeln!(
                out,
                "qor-diff OK: {} metric(s) across {} run(s) within tolerance",
                self.lines.len(),
                self.lines.len() / 5
            );
        } else {
            let _ = writeln!(out, "qor-diff FAILED: {} problem(s)", self.failures());
        }
        out
    }
}

/// Compare `measured` against `base` with the relative tolerance `tol`:
/// a metric passes when `|new − base| ≤ tol × max(|base|, 1)`.
pub fn diff(base: &Baseline, measured: &Baseline, tol: f64) -> Diff {
    let within = |b: i64, n: i64| -> bool {
        let err = (n - b).abs() as f64;
        err <= tol * (b.abs().max(1)) as f64
    };
    let mut out = Diff::default();
    for e in &base.entries {
        let Some(m) = measured.get(&e.circuit, &e.method) else {
            out.missing.push(format!("{} × {}", e.circuit, e.method));
            continue;
        };
        for ((name, b), (_, n)) in e.metrics.fields().iter().zip(m.fields().iter()) {
            out.lines.push(DiffLine {
                circuit: e.circuit.clone(),
                method: e.method.clone(),
                metric: name,
                base: *b,
                new: *n,
                ok: within(*b, *n),
            });
        }
    }
    for e in &measured.entries {
        if base.get(&e.circuit, &e.method).is_none() {
            out.extra.push(format!("{} × {}", e.circuit, e.method));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(p: i64, a: i64, d: i64) -> Metrics {
        Metrics {
            power_muw: p,
            area_milli: a,
            delay_ps: d,
            nodes: 3,
            literals: 5,
        }
    }

    #[test]
    fn baseline_json_round_trips() {
        let mut b = Baseline::new();
        b.insert("s510", "V", m(123456, 78000, 4200));
        b.insert("cm42a", "I", m(-1, 0, 1));
        let text = b.render_json();
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed, b);
        // canonical: render is a fixed point
        assert_eq!(parsed.render_json(), text);
    }

    #[test]
    fn entries_stay_sorted_and_insert_replaces() {
        let mut b = Baseline::new();
        b.insert("z", "I", m(1, 1, 1));
        b.insert("a", "V", m(2, 2, 2));
        b.insert("a", "I", m(3, 3, 3));
        let keys: Vec<_> = b
            .entries
            .iter()
            .map(|e| (e.circuit.as_str(), e.method.as_str()))
            .collect();
        assert_eq!(keys, vec![("a", "I"), ("a", "V"), ("z", "I")]);
        b.insert("a", "V", m(9, 9, 9));
        assert_eq!(b.entries.len(), 3);
        assert_eq!(b.get("a", "V").unwrap().power_muw, 9);
    }

    #[test]
    fn zero_tolerance_catches_one_milli_unit() {
        let mut base = Baseline::new();
        base.insert("c", "I", m(1000, 2000, 3000));
        let mut moved = base.clone();
        moved.insert("c", "I", m(1001, 2000, 3000));
        assert!(diff(&base, &base, 0.0).passed());
        let d = diff(&base, &moved, 0.0);
        assert!(!d.passed());
        assert_eq!(d.failures(), 1);
        assert!(d.render_text().contains("power_muw"));
    }

    #[test]
    fn relative_tolerance_scales_with_baseline() {
        let mut base = Baseline::new();
        base.insert("c", "I", m(10000, 2000, 3000));
        let mut moved = base.clone();
        moved.insert("c", "I", m(10100, 2000, 3000)); // +1%
        assert!(diff(&base, &moved, 0.02).passed());
        assert!(!diff(&base, &moved, 0.005).passed());
    }

    #[test]
    fn missing_and_extra_runs_fail() {
        let mut base = Baseline::new();
        base.insert("c", "I", m(1, 1, 1));
        let mut other = Baseline::new();
        other.insert("c", "V", m(1, 1, 1));
        let d = diff(&base, &other, 1.0);
        assert!(!d.passed());
        assert_eq!(d.missing, vec!["c × I"]);
        assert_eq!(d.extra, vec!["c × V"]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{\"version\": 2, \"entries\": []}").is_err());
        assert!(Baseline::parse("{\"version\": 1}").is_err());
        let dup = "{\"version\": 1, \"entries\": [\
                   {\"circuit\":\"c\",\"method\":\"I\",\"power_muw\":1,\"area_milli\":1,\"delay_ps\":1,\"nodes\":1,\"literals\":1},\
                   {\"circuit\":\"c\",\"method\":\"I\",\"power_muw\":2,\"area_milli\":1,\"delay_ps\":1,\"nodes\":1,\"literals\":1}]}";
        assert!(Baseline::parse(dup).unwrap_err().contains("duplicate"));
    }
}
