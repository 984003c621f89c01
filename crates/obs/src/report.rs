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
//! remaining bytes are a pure function of the session's inputs.

use crate::json::escape_json;
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
        let mut s = String::from("{\"type\":\"snapshot\",\"counters\":{");
        for (i, (name, v)) in self.metrics.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{v}", escape_json(name));
        }
        s.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.metrics.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{v}", escape_json(name));
        }
        s.push_str("},\"hists\":{");
        for (i, (name, h)) in self.metrics.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                escape_json(name),
                h.count,
                h.sum,
                h.min_or_zero(),
                h.max
            );
            for (j, (bucket, count)) in h.nonzero_buckets().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{bucket},{count}]");
            }
            s.push_str("]}");
        }
        s.push_str("},\"spans\":{");
        match self.span_aggregates() {
            Ok(agg) => {
                for (i, (path, a)) in agg.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{}\":{{\"count\":{}", escape_json(path), a.count);
                    if with_timing {
                        let _ = write!(s, ",\"total_ns\":{}", a.total_ns);
                    }
                    s.push('}');
                }
                s.push_str("}}");
            }
            Err(e) => {
                let _ = write!(s, "}},\"span_tree_error\":\"{}\"}}", escape_json(&e));
            }
        }
        s
    }

    /// JSONL sink: one JSON object per line per event, closed by exactly
    /// one `snapshot` line (with timing fields; strip with
    /// [`crate::check::strip_timing`] for determinism diffs).
    pub fn render_jsonl(&self) -> String {
        let mut s = String::new();
        flatten(&self.root, &mut |tid, event| match event {
            Event::Begin { name, label, t_ns } => {
                let _ = write!(s, "{{\"type\":\"B\",\"name\":\"{}\"", escape_json(name));
                if let Some(label) = label {
                    let _ = write!(s, ",\"label\":\"{}\"", escape_json(label));
                }
                let _ = writeln!(s, ",\"tid\":{tid},\"ts_ns\":{t_ns}}}");
            }
            Event::End { t_ns } => {
                let _ = writeln!(s, "{{\"type\":\"E\",\"tid\":{tid},\"ts_ns\":{t_ns}}}");
            }
            Event::Note { text, t_ns } => {
                let _ = writeln!(
                    s,
                    "{{\"type\":\"note\",\"text\":\"{}\",\"tid\":{tid},\"ts_ns\":{t_ns}}}",
                    escape_json(text)
                );
            }
            Event::Splice { .. } => unreachable!("flatten expands splices"),
        });
        s.push_str(&self.snapshot_json(true));
        s.push('\n');
        s
    }

    /// Chrome trace-event sink. `ts` is microseconds (with fractional
    /// nanoseconds); every span becomes a `B`/`E` pair on its thread's
    /// `tid`, so worker activity shows as parallel tracks.
    pub fn render_chrome(&self) -> String {
        fn us(ns: u64) -> String {
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }
        fn emit(s: &mut String, first: &mut bool, node: &SpanNode) {
            let sep = if *first { "" } else { ",\n" };
            *first = false;
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":{}",
                escape_json(node.name),
                us(node.start_ns),
                node.tid
            );
            if let Some(label) = &node.label {
                let _ = write!(s, ",\"args\":{{\"label\":\"{}\"}}", escape_json(label));
            }
            s.push('}');
            for child in &node.children {
                emit(s, first, child);
            }
            let _ = write!(
                s,
                ",\n{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
                escape_json(node.name),
                us(node.end_ns),
                node.tid
            );
        }
        let forest = self
            .tree()
            .expect("span buffers are balanced by construction");
        let mut s = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for node in &forest {
            emit(&mut s, &mut first, node);
        }
        s.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        s
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
