//! The finished-session [`Report`] and its three sinks.
//!
//! * [`Report::render_summary`] — human text: the span tree (sibling
//!   spans merged by name, with counts and wall times) plus top counters,
//!   gauges and histograms;
//! * [`Report::render_jsonl`] — one JSON object per event (`B`/`E`/
//!   `note`), ending in a single `snapshot` object with the aggregate
//!   metrics;
//! * [`Report::render_chrome`] — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! [`Report::snapshot_json`] renders the metrics snapshot alone; with
//! `with_timing = false` every wall-time field is omitted and the
//! remaining bytes are a pure function of the session's inputs. The
//! machine sinks build [`Json`] values and render them with
//! [`Json::render`].

use crate::json::Json;
use crate::metrics::Metrics;
use crate::span::{build_forest, flatten, Event, SpanNode, ThreadEvents};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one session recorded.
#[derive(Debug)]
pub struct Report {
    root: ThreadEvents,
    /// Merged metrics (deterministic; see the crate docs).
    pub metrics: Metrics,
}

/// Per-path span aggregate: how often the path ran and for how long.
struct PathAgg {
    count: u64,
    total_ns: u64,
}

impl Report {
    pub(crate) fn new(root: ThreadEvents, metrics: Metrics) -> Report {
        Report { root, metrics }
    }

    /// Reconstruct the span forest (top-level spans with their nesting).
    ///
    /// # Errors
    /// Returns a description of the first unbalanced buffer — impossible
    /// through the guard API, and pinned by a proptest.
    pub fn tree(&self) -> Result<Vec<SpanNode>, String> {
        build_forest(&self.root)
    }

    /// Span aggregates keyed by `/`-joined name path (labels excluded, so
    /// paths — and their counts — are deterministic).
    fn span_aggregates(&self) -> Result<BTreeMap<String, PathAgg>, String> {
        fn walk(nodes: &[SpanNode], prefix: &str, agg: &mut BTreeMap<String, PathAgg>) {
            for n in nodes {
                let path = if prefix.is_empty() {
                    n.name.to_string()
                } else {
                    format!("{prefix}/{}", n.name)
                };
                let e = agg.entry(path.clone()).or_insert(PathAgg {
                    count: 0,
                    total_ns: 0,
                });
                e.count += 1;
                e.total_ns += n.duration_ns();
                walk(&n.children, &path, agg);
            }
        }
        let mut agg = BTreeMap::new();
        walk(&self.tree()?, "", &mut agg);
        Ok(agg)
    }

    /// The aggregate metrics snapshot as one JSON object.
    ///
    /// With `with_timing = false`, `total_ns` fields are omitted and the
    /// output is byte-identical across thread counts and repeated runs
    /// (the determinism contract enforced by `tests/obs_determinism.rs`).
    pub fn snapshot_json(&self, with_timing: bool) -> String {
        let m = &self.metrics;
        let values =
            |map: &BTreeMap<String, u64>| Json::obj(map.iter().map(|(k, v)| (k, Json::num(v))));
        let hists = m.hists.iter().map(|(name, h)| {
            let buckets = h
                .nonzero_buckets()
                .map(|(bucket, count)| Json::Arr(vec![Json::num(bucket), Json::num(count)]));
            let hist = Json::obj([
                ("count", Json::num(h.count)),
                ("sum", Json::num(h.sum)),
                ("min", Json::num(h.min_or_zero())),
                ("max", Json::num(h.max)),
                ("buckets", Json::Arr(buckets.collect())),
            ]);
            (name, hist)
        });
        let mut members = vec![
            ("type", Json::str("snapshot")),
            ("counters", values(&m.counters)),
            ("gauges", values(&m.gauges)),
            ("hists", Json::obj(hists)),
        ];
        match self.span_aggregates() {
            Ok(agg) => {
                let spans = agg.iter().map(|(path, a)| {
                    let mut span = vec![("count", Json::num(a.count))];
                    span.extend(with_timing.then(|| ("total_ns", Json::num(a.total_ns))));
                    (path, Json::obj(span))
                });
                members.push(("spans", Json::obj(spans)));
            }
            Err(e) => {
                members.push(("spans", Json::Obj(Vec::new())));
                members.push(("span_tree_error", Json::str(e)));
            }
        }
        Json::obj(members).render()
    }

    /// JSONL sink: one JSON object per line per event, closed by exactly
    /// one `snapshot` line (with timing fields; strip with
    /// [`crate::check::strip_timing`] for determinism diffs).
    pub fn render_jsonl(&self) -> String {
        let mut s = String::new();
        flatten(&self.root, &mut |tid, event| {
            let (kind, mut members, t_ns) = match event {
                Event::Begin { name, label, t_ns } => {
                    let mut m = vec![("name", Json::str(*name))];
                    m.extend(label.as_deref().map(|l| ("label", Json::str(l))));
                    ("B", m, t_ns)
                }
                Event::End { t_ns } => ("E", vec![], t_ns),
                Event::Note { text, t_ns } => ("note", vec![("text", Json::str(&**text))], t_ns),
                Event::Splice { .. } => unreachable!("flatten expands splices"),
            };
            members.insert(0, ("type", Json::str(kind)));
            members.push(("tid", Json::num(tid)));
            members.push(("ts_ns", Json::num(t_ns)));
            s.push_str(&Json::obj(members).render());
            s.push('\n');
        });
        s.push_str(&self.snapshot_json(true));
        s.push('\n');
        s
    }

    /// Chrome trace-event sink. `ts` is microseconds (with fractional
    /// nanoseconds); every span becomes a `B`/`E` pair on its thread's
    /// `tid`, so worker activity shows as parallel tracks. Events sit one
    /// per line.
    pub fn render_chrome(&self) -> String {
        fn event(node: &SpanNode, ph: &str, ns: u64) -> Json {
            let ts = format!("{}.{:03}", ns / 1000, ns % 1000);
            let mut members = vec![
                ("name", Json::str(node.name)),
                ("cat", Json::str("obs")),
                ("ph", Json::str(ph)),
                ("ts", Json::Num(ts)),
                ("pid", Json::num(1)),
                ("tid", Json::num(node.tid)),
            ];
            if ph == "B" {
                let label = node.label.as_deref();
                let args = label.map(|l| ("args", Json::obj([("label", Json::str(l))])));
                members.extend(args);
            }
            Json::obj(members)
        }
        fn emit(events: &mut Vec<String>, node: &SpanNode) {
            events.push(event(node, "B", node.start_ns).render());
            for child in &node.children {
                emit(events, child);
            }
            events.push(event(node, "E", node.end_ns).render());
        }
        let forest = self
            .tree()
            .expect("span buffers are balanced by construction");
        let mut events = Vec::new();
        for node in &forest {
            emit(&mut events, node);
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        )
    }

    /// Human text summary: the span tree with sibling spans merged by
    /// name (wall times are this run's only — not deterministic), then
    /// the counters, gauges and histograms (deterministic).
    pub fn render_summary(&self) -> String {
        let mut s = String::from("== obs summary ==\n");
        match self.tree() {
            Ok(forest) => {
                s.push_str("spans (wall times: this run only):\n");
                render_level(&mut s, &forest, 1);
            }
            Err(e) => {
                let _ = writeln!(s, "span tree unavailable: {e}");
            }
        }
        if !self.metrics.counters.is_empty() {
            s.push_str("counters:\n");
            let mut by_value: Vec<(&String, &u64)> = self.metrics.counters.iter().collect();
            by_value.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            for (name, v) in by_value.iter().take(16) {
                let _ = writeln!(s, "  {name:<40} {v:>14}");
            }
            if by_value.len() > 16 {
                let _ = writeln!(s, "  … {} more", by_value.len() - 16);
            }
        }
        if !self.metrics.gauges.is_empty() {
            s.push_str("gauges (high-water marks):\n");
            for (name, v) in &self.metrics.gauges {
                let _ = writeln!(s, "  {name:<40} {v:>14}");
            }
        }
        if !self.metrics.hists.is_empty() {
            s.push_str("histograms:\n");
            for (name, h) in &self.metrics.hists {
                let _ = writeln!(
                    s,
                    "  {name:<40} n={} min={} mean={:.1} max={}",
                    h.count,
                    h.min_or_zero(),
                    h.mean(),
                    h.max
                );
            }
        }
        s
    }
}

/// One summary line per distinct span name per level, merged over
/// same-name siblings, in first-appearance order.
fn render_level(s: &mut String, nodes: &[SpanNode], depth: usize) {
    let refs: Vec<&SpanNode> = nodes.iter().collect();
    render_level_refs(s, &refs, depth);
}

fn render_level_refs(s: &mut String, nodes: &[&SpanNode], depth: usize) {
    let mut order: Vec<&'static str> = Vec::new();
    let mut merged: BTreeMap<&'static str, (u64, u64, Vec<&SpanNode>)> = BTreeMap::new();
    for &n in nodes {
        if !merged.contains_key(n.name) {
            order.push(n.name);
        }
        let e = merged.entry(n.name).or_insert((0, 0, Vec::new()));
        e.0 += 1;
        e.1 += n.duration_ns();
        e.2.push(n);
    }
    for name in order {
        let (count, total_ns, members) = &merged[name];
        let label = match (count, &members[0].label) {
            (1, Some(label)) => format!(" [{label}]"),
            _ => String::new(),
        };
        let times = if *count > 1 {
            format!("×{count}")
        } else {
            String::new()
        };
        let head = format!("{:indent$}{name}{label} {times}", "", indent = depth * 2);
        let _ = writeln!(s, "{head:<46} {:>10.3} ms", *total_ns as f64 / 1e6);
        let all_children: Vec<&SpanNode> = members.iter().flat_map(|m| &m.children).collect();
        if !all_children.is_empty() && depth < 8 {
            render_level_refs(s, &all_children, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every escape the JSON writer handles: quote, backslash, newline,
    /// carriage return, tab and a bare control character.
    const NASTY: &str = "q\"b\\n\nr\rt\tc\u{1}é";

    fn begin(name: &'static str, label: Option<&str>, t_ns: u64) -> Event {
        Event::Begin {
            name,
            label: label.map(Into::into),
            t_ns,
        }
    }

    /// A hand-built session: a labelled root span holding a note and a
    /// `map` span into which two worker buffers were spliced, plus one
    /// counter, gauge and histogram each.
    fn sample() -> Report {
        let worker = |tid, t_ns| ThreadEvents {
            tid,
            events: vec![
                begin("cell", Some("w"), t_ns),
                Event::Note {
                    text: "worker".into(),
                    t_ns: t_ns + 50,
                },
                Event::End { t_ns: t_ns + 700 },
            ],
        };
        let root = ThreadEvents {
            tid: 0,
            events: vec![
                begin("flow", Some(NASTY), 1_000),
                Event::Note {
                    text: NASTY.into(),
                    t_ns: 1_500,
                },
                begin("sp\"an", None, 2_000),
                Event::Splice {
                    children: vec![worker(1, 2_100), worker(2, 2_200)],
                },
                Event::End { t_ns: 3_500 },
                Event::End { t_ns: 1_234_567 },
            ],
        };
        let mut metrics = Metrics::default();
        metrics.counters.insert("a.count".into(), 3);
        metrics.counters.insert("b\"q".into(), 1);
        metrics.gauges.insert("g".into(), 7);
        let mut h = crate::metrics::Hist::default();
        for v in [0, 5, 1000] {
            h.record(v);
        }
        metrics.hists.insert("h".into(), h);
        Report::new(root, metrics)
    }

    /// Every sink's exact bytes, escapes and layout included.
    #[test]
    fn sinks_are_pinned() {
        let r = sample();
        assert_eq!(
            r.render_jsonl(),
            r#"{"type":"B","name":"flow","label":"q\"b\\n\nr\rt\tc\u0001é","tid":0,"ts_ns":1000}
{"type":"note","text":"q\"b\\n\nr\rt\tc\u0001é","tid":0,"ts_ns":1500}
{"type":"B","name":"sp\"an","tid":0,"ts_ns":2000}
{"type":"B","name":"cell","label":"w","tid":1,"ts_ns":2100}
{"type":"note","text":"worker","tid":1,"ts_ns":2150}
{"type":"E","tid":1,"ts_ns":2800}
{"type":"B","name":"cell","label":"w","tid":2,"ts_ns":2200}
{"type":"note","text":"worker","tid":2,"ts_ns":2250}
{"type":"E","tid":2,"ts_ns":2900}
{"type":"E","tid":0,"ts_ns":3500}
{"type":"E","tid":0,"ts_ns":1234567}
{"type":"snapshot","counters":{"a.count":3,"b\"q":1},"gauges":{"g":7},"hists":{"h":{"count":3,"sum":1005,"min":0,"max":1000,"buckets":[[0,1],[3,1],[10,1]]}},"spans":{"flow":{"count":1,"total_ns":1233567},"flow/sp\"an":{"count":1,"total_ns":1500},"flow/sp\"an/cell":{"count":2,"total_ns":1400}}}
"#
        );
        assert_eq!(
            r.render_chrome(),
            r#"{"traceEvents":[
{"name":"flow","cat":"obs","ph":"B","ts":1.000,"pid":1,"tid":0,"args":{"label":"q\"b\\n\nr\rt\tc\u0001é"}},
{"name":"sp\"an","cat":"obs","ph":"B","ts":2.000,"pid":1,"tid":0},
{"name":"cell","cat":"obs","ph":"B","ts":2.100,"pid":1,"tid":1,"args":{"label":"w"}},
{"name":"cell","cat":"obs","ph":"E","ts":2.800,"pid":1,"tid":1},
{"name":"cell","cat":"obs","ph":"B","ts":2.200,"pid":1,"tid":2,"args":{"label":"w"}},
{"name":"cell","cat":"obs","ph":"E","ts":2.900,"pid":1,"tid":2},
{"name":"sp\"an","cat":"obs","ph":"E","ts":3.500,"pid":1,"tid":0},
{"name":"flow","cat":"obs","ph":"E","ts":1234.567,"pid":1,"tid":0}
],"displayTimeUnit":"ms"}
"#
        );
        assert_eq!(
            r.snapshot_json(true),
            r#"{"type":"snapshot","counters":{"a.count":3,"b\"q":1},"gauges":{"g":7},"hists":{"h":{"count":3,"sum":1005,"min":0,"max":1000,"buckets":[[0,1],[3,1],[10,1]]}},"spans":{"flow":{"count":1,"total_ns":1233567},"flow/sp\"an":{"count":1,"total_ns":1500},"flow/sp\"an/cell":{"count":2,"total_ns":1400}}}"#
        );
        assert_eq!(
            r.snapshot_json(false),
            r#"{"type":"snapshot","counters":{"a.count":3,"b\"q":1},"gauges":{"g":7},"hists":{"h":{"count":3,"sum":1005,"min":0,"max":1000,"buckets":[[0,1],[3,1],[10,1]]}},"spans":{"flow":{"count":1},"flow/sp\"an":{"count":1},"flow/sp\"an/cell":{"count":2}}}"#
        );
        // An unclosed span takes the `span_tree_error` branch.
        let unbalanced = Report::new(
            ThreadEvents {
                tid: 0,
                events: vec![begin("open", None, 10)],
            },
            Metrics::default(),
        );
        assert_eq!(
            unbalanced.snapshot_json(true),
            r#"{"type":"snapshot","counters":{},"gauges":{},"hists":{},"spans":{},"span_tree_error":"tid 0: 1 span(s) never closed"}"#
        );
    }
}
