//! The ledger itself: fixed-point metrics, per-stage snapshots, the text
//! waterfall, and the JSON ledger line with its parser and stream check.

use obs::json::{parse_json, Json};

/// Convert a floating quantity to fixed-point milli-units (round half away
/// from zero, the default of `f64::round`).
pub fn milli(x: f64) -> i64 {
    (x * 1000.0).round() as i64
}

/// Render a milli-unit fixed-point value as a decimal string with exactly
/// three fractional digits (`-1234` → `"-1.234"`).
pub fn fmt_milli(v: i64) -> String {
    let sign = if v < 0 { "-" } else { "" };
    let a = v.unsigned_abs();
    format!("{sign}{}.{:03}", a / 1000, a % 1000)
}

/// One QoR measurement in fixed-point integer units.
///
/// Integer units are the point: consecutive-snapshot deltas telescope, so
/// per-stage attribution sums to the end-to-end change *exactly* — no
/// float accumulation error, and byte-identical renderings everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Average power in milli-µW. For unmapped networks this is the
    /// activity proxy (total switching at unit load); for mapped netlists
    /// it is the zero-delay estimate with real pin loads.
    pub power_muw: i64,
    /// Area in milli-units: `1000 ×` SOP literals (unmapped) or cell area
    /// (mapped).
    pub area_milli: i64,
    /// Delay in picoseconds: unit-delay depth `× 1000` (unmapped) or the
    /// library-model critical path (mapped).
    pub delay_ps: i64,
    /// Logic-node count (unmapped) or gate-instance count (mapped).
    pub nodes: i64,
    /// SOP literal count (unmapped) or total gate input pins (mapped).
    pub literals: i64,
}

impl Metrics {
    /// The all-zero metrics (also the delta of two identical snapshots).
    pub const ZERO: Metrics = Metrics {
        power_muw: 0,
        area_milli: 0,
        delay_ps: 0,
        nodes: 0,
        literals: 0,
    };

    /// Element-wise difference `self − other`.
    pub fn delta(&self, other: &Metrics) -> Metrics {
        Metrics {
            power_muw: self.power_muw - other.power_muw,
            area_milli: self.area_milli - other.area_milli,
            delay_ps: self.delay_ps - other.delay_ps,
            nodes: self.nodes - other.nodes,
            literals: self.literals - other.literals,
        }
    }

    /// Element-wise sum `self + other`.
    pub fn plus(&self, other: &Metrics) -> Metrics {
        Metrics {
            power_muw: self.power_muw + other.power_muw,
            area_milli: self.area_milli + other.area_milli,
            delay_ps: self.delay_ps + other.delay_ps,
            nodes: self.nodes + other.nodes,
            literals: self.literals + other.literals,
        }
    }

    /// `(name, value)` pairs in canonical order, for serialization.
    pub fn fields(&self) -> [(&'static str, i64); 5] {
        [
            ("power_muw", self.power_muw),
            ("area_milli", self.area_milli),
            ("delay_ps", self.delay_ps),
            ("nodes", self.nodes),
            ("literals", self.literals),
        ]
    }

    /// Parse from a JSON object carrying the five canonical fields.
    pub fn from_json(j: &Json) -> Result<Metrics, String> {
        let int = |key: &str| -> Result<i64, String> {
            match j.get(key) {
                Some(Json::Num(raw)) => raw
                    .parse::<i64>()
                    .map_err(|_| format!("`{key}` is not an integer: {raw}")),
                Some(_) => Err(format!("`{key}` is not a number")),
                None => Err(format!("missing `{key}`")),
            }
        };
        Ok(Metrics {
            power_muw: int("power_muw")?,
            area_milli: int("area_milli")?,
            delay_ps: int("delay_ps")?,
            nodes: int("nodes")?,
            literals: int("literals")?,
        })
    }
}

/// What kind of artifact a snapshot measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapKind {
    /// An unmapped logic network (optimization / decomposition stages).
    Network,
    /// A mapped netlist.
    Mapped,
}

impl SnapKind {
    /// Serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            SnapKind::Network => "network",
            SnapKind::Mapped => "mapped",
        }
    }
}

/// One ledger entry: the QoR of the flow state right after `stage` ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Stage label, e.g. `"initial"`, `"optimize.1.sweep"`, `"decompose"`,
    /// `"map"`.
    pub stage: String,
    /// Artifact kind measured.
    pub kind: SnapKind,
    /// The measurement.
    pub metrics: Metrics,
}

impl Snapshot {
    /// Render as one strict-JSON ledger line (`"type": "qor"`).
    pub fn render_json(&self, circuit: &str, method: &str) -> String {
        let head = [
            ("type", "qor"),
            ("circuit", circuit),
            ("method", method),
            ("stage", &self.stage),
            ("kind", self.kind.as_str()),
        ];
        let head = head.map(|(k, v)| (k.to_string(), Json::Str(v.to_string())));
        let metrics = self.metrics.fields();
        let metrics = metrics.map(|(k, v)| (k.to_string(), Json::Num(v.to_string())));
        Json::Obj(head.into_iter().chain(metrics).collect()).render()
    }

    /// Parse one ledger line, the inverse of [`Snapshot::render_json`]:
    /// `(circuit, method, snapshot)`.
    ///
    /// # Errors
    /// A `type` other than `"qor"`, a missing `circuit`, `method` or
    /// `stage` string, an unknown `kind`, or a missing or non-integer
    /// metric.
    pub fn from_json(j: &Json) -> Result<(String, String, Snapshot), String> {
        let text = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let ty = text("type")?;
        if ty != "qor" {
            return Err(format!("type `{ty}` is not `qor`"));
        }
        let (circuit, method, stage) = (text("circuit")?, text("method")?, text("stage")?);
        let kind = match text("kind")?.as_str() {
            "network" => SnapKind::Network,
            "mapped" => SnapKind::Mapped,
            other => return Err(format!("unknown kind `{other}`")),
        };
        let metrics = Metrics::from_json(j)?;
        Ok((
            circuit,
            method,
            Snapshot {
                stage,
                kind,
                metrics,
            },
        ))
    }
}

/// Check the QoR ledger lines among an obs stream's notes, given as
/// `(line number, text)` the way [`obs::check::check_jsonl`] returns
/// them: every note whose text is a JSON object with `"type":"qor"` must
/// parse as a ledger line ([`Snapshot::from_json`]); any other note is
/// free text. Returns how many ledger lines were checked.
///
/// # Errors
/// The first bad ledger line, named by its line number in the stream.
pub fn check_ledger_notes(notes: &[(usize, String)]) -> Result<usize, String> {
    let mut checked = 0;
    for (line, text) in notes {
        let Ok(j) = parse_json(text) else { continue };
        if j.get("type").and_then(Json::as_str) == Some("qor") {
            Snapshot::from_json(&j).map_err(|e| format!("line {line}: QoR ledger note: {e}"))?;
            checked += 1;
        }
    }
    Ok(checked)
}

/// The finished ledger of one `circuit × method` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerReport {
    /// Circuit name.
    pub circuit: String,
    /// Method label (e.g. `"V"`).
    pub method: String,
    /// Snapshots in recording order.
    pub snapshots: Vec<Snapshot>,
}

impl LedgerReport {
    /// An empty ledger for one `circuit × method` run.
    pub fn new(circuit: &str, method: &str) -> LedgerReport {
        LedgerReport {
            circuit: circuit.to_string(),
            method: method.to_string(),
            snapshots: Vec::new(),
        }
    }

    /// Append the snapshot taken right after `stage`. Counts it
    /// (`qor.snapshots`) and, when an obs session is live, records its
    /// JSON line as a silent note event.
    pub fn record(&mut self, stage: &str, kind: SnapKind, metrics: Metrics) {
        let snap = Snapshot {
            stage: stage.to_string(),
            kind,
            metrics,
        };
        obs::counter!("qor.snapshots");
        obs::note_event!("{}", snap.render_json(&self.circuit, &self.method));
        self.snapshots.push(snap);
    }

    /// Per-stage deltas: for each snapshot after the first, `(stage,
    /// metrics − previous metrics)`. Deltas telescope by construction, so
    /// their sum equals [`LedgerReport::end_to_end`] exactly.
    pub fn deltas(&self) -> Vec<(String, Metrics)> {
        self.snapshots
            .windows(2)
            .map(|w| (w[1].stage.clone(), w[1].metrics.delta(&w[0].metrics)))
            .collect()
    }

    /// `last − first`, or `None` with fewer than two snapshots.
    pub fn end_to_end(&self) -> Option<Metrics> {
        match (self.snapshots.first(), self.snapshots.last()) {
            (Some(f), Some(l)) if self.snapshots.len() >= 2 => Some(l.metrics.delta(&f.metrics)),
            _ => None,
        }
    }

    /// Render the per-stage waterfall as an aligned text table. Power and
    /// area print in whole units (three decimals), delay in ns; Δ columns
    /// show each stage's attribution.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "QoR ledger: {} method {}", self.circuit, self.method);
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>7} {:>7}",
            "stage", "power", "Δpower", "area", "Δarea", "delay", "Δdelay", "nodes", "lits"
        );
        let mut prev: Option<Metrics> = None;
        for s in &self.snapshots {
            let d = prev.map(|p| s.metrics.delta(&p));
            let dcol = |f: fn(&Metrics) -> i64| {
                d.as_ref()
                    .map(|d| fmt_milli(f(d)))
                    .unwrap_or_else(|| "-".to_string())
            };
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>7} {:>7}",
                s.stage,
                fmt_milli(s.metrics.power_muw),
                dcol(|m| m.power_muw),
                fmt_milli(s.metrics.area_milli),
                dcol(|m| m.area_milli),
                fmt_milli(s.metrics.delay_ps),
                dcol(|m| m.delay_ps),
                s.metrics.nodes,
                s.metrics.literals,
            );
            prev = Some(s.metrics);
        }
        if let Some(e) = self.end_to_end() {
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>7} {:>7}",
                "end-to-end",
                "",
                fmt_milli(e.power_muw),
                "",
                fmt_milli(e.area_milli),
                "",
                fmt_milli(e.delay_ps),
                e.nodes,
                e.literals,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(p: i64, a: i64, d: i64, n: i64, l: i64) -> Metrics {
        Metrics {
            power_muw: p,
            area_milli: a,
            delay_ps: d,
            nodes: n,
            literals: l,
        }
    }

    fn report() -> LedgerReport {
        let mut r = LedgerReport::new("c", "V");
        r.record("initial", SnapKind::Network, m(1000, 9000, 3000, 9, 9));
        r.record("optimize", SnapKind::Network, m(800, 7000, 3000, 7, 7));
        r.record("map", SnapKind::Mapped, m(650, 12000, 2500, 5, 11));
        r
    }

    #[test]
    fn deltas_telescope_exactly() {
        let r = report();
        let sum = r
            .deltas()
            .iter()
            .fold(Metrics::ZERO, |acc, (_, d)| acc.plus(d));
        assert_eq!(sum, r.end_to_end().unwrap());
    }

    #[test]
    fn fmt_milli_handles_signs_and_padding() {
        assert_eq!(fmt_milli(0), "0.000");
        assert_eq!(fmt_milli(1), "0.001");
        assert_eq!(fmt_milli(-1), "-0.001");
        assert_eq!(fmt_milli(1234), "1.234");
        assert_eq!(fmt_milli(-12045), "-12.045");
    }

    #[test]
    fn milli_rounds_to_nearest() {
        assert_eq!(milli(1.2344), 1234);
        assert_eq!(milli(1.2345), 1235); // round half away from zero
        assert_eq!(milli(-0.0005), -1);
    }

    #[test]
    fn ledger_lines_round_trip() {
        let mut r = report();
        r.record("negative", SnapKind::Mapped, m(-5, 0, 123, 7, 9));
        for snap in &r.snapshots {
            let line = snap.render_json(&r.circuit, &r.method);
            let parsed = Snapshot::from_json(&parse_json(&line).unwrap()).unwrap();
            assert_eq!(parsed, (r.circuit.clone(), r.method.clone(), snap.clone()));
        }
    }

    #[test]
    fn garbage_rejected() {
        let parse = |text: &str| Snapshot::from_json(&parse_json(text)?);
        assert!(parse("not json").is_err());
        assert!(parse("").is_err());
        assert!(parse("{\"type\":\"mystery\"}").is_err());
        assert!(parse("{\"type\":\"qor\"}").is_err());
        assert!(parse("[1, 2]").is_err());
        let good = report().snapshots[0].render_json("c", "V");
        assert!(parse(&good).is_ok());
        for (from, to, why) in [
            ("\"type\":\"qor\"", "\"type\":\"qor_summary\"", "type"),
            ("\"circuit\":\"c\",", "", "circuit"),
            ("\"method\":\"V\",", "", "method"),
            ("\"stage\":\"initial\",", "", "stage"),
            ("\"kind\":\"network\"", "\"kind\":\"netlist\"", "netlist"),
            ("\"power_muw\":1000", "\"power_muw\":1000.5", "power_muw"),
            ("\"nodes\":9", "\"nodes\":\"9\"", "nodes"),
            (",\"literals\":9", "", "literals"),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "replacement of {from} must hit");
            let err = parse(&bad).unwrap_err();
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn render_text_mentions_every_stage() {
        let t = report().render_text();
        for stage in ["initial", "optimize", "map", "end-to-end"] {
            assert!(t.contains(stage), "missing {stage} in\n{t}");
        }
    }
}
