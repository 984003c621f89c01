//! Strict validators for the machine sinks, plus timing-stripping for
//! determinism diffs. Used by `tests/obs_determinism.rs`, the
//! `lowpower obs-check` subcommand, and the `ci.sh` obs gate.

pub use crate::json::{parse_json, Json};

/// Object keys that carry wall-time (non-deterministic) data in any sink.
pub const TIMING_KEYS: &[&str] = &["ts_ns", "total_ns", "ts", "dur_ns", "wall_ms"];

/// Validate a JSONL event stream as written by
/// [`Report::render_jsonl`](crate::Report::render_jsonl):
///
/// * every non-empty line parses as strict JSON and is an object with a
///   `type` of `B`, `E`, `note`, or `snapshot`;
/// * per thread, `B`/`E` events balance and `ts_ns` never decreases in
///   file order;
/// * exactly one `snapshot` object exists and it is the last line.
///
/// Returns the parsed snapshot object and every note's `(1-based line
/// number, text)` in stream order. Note texts are free text here; the QoR
/// ledger lines among them are checked by `qor::check_ledger_notes`.
///
/// # Errors
/// A description of the first violation, with its line number.
pub fn check_jsonl(text: &str) -> Result<(Json, Vec<(usize, String)>), String> {
    let mut snapshot: Option<Json> = None;
    let mut notes = Vec::new();
    let mut threads = Threads::default();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if snapshot.is_some() {
            return Err(format!("line {n}: content after the snapshot line"));
        }
        let v = parse_json(line).map_err(|e| format!("line {n}: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {n}: missing `type`"))?
            .to_string();
        match ty.as_str() {
            "B" | "E" | "note" => {
                let tid = v
                    .get("tid")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("line {n}: missing numeric `tid`"))?;
                let ts = v
                    .get("ts_ns")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("line {n}: missing numeric `ts_ns`"))?;
                threads
                    .event("ts_ns", &ty, tid, ts)
                    .map_err(|e| format!("line {n}: {e}"))?;
                if ty == "B" && v.get("name").and_then(Json::as_str).is_none() {
                    return Err(format!("line {n}: B event without `name`"));
                }
                if ty == "note" {
                    let text = v
                        .get("text")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {n}: note event without `text`"))?;
                    notes.push((n, text.to_string()));
                }
            }
            "snapshot" => {
                for key in ["counters", "gauges", "hists", "spans"] {
                    if v.get(key).is_none() {
                        return Err(format!("line {n}: snapshot missing `{key}`"));
                    }
                }
                snapshot = Some(v);
            }
            other => return Err(format!("line {n}: unknown event type `{other}`")),
        }
    }
    threads.all_closed("span(s)")?;
    let snapshot = snapshot.ok_or_else(|| "no snapshot line".to_string())?;
    Ok((snapshot, notes))
}

/// Validate Chrome trace-event JSON as written by
/// [`Report::render_chrome`](crate::Report::render_chrome):
///
/// * the whole input parses as strict JSON — either a bare event array or
///   an object with a `traceEvents` array;
/// * every event has `ph` ∈ {`B`, `E`, `i`}, numeric `ts`/`pid`/`tid`,
///   and `B`/`i` events have a `name`;
/// * per `tid`, `B`/`E` events balance (in array order) and `ts` never
///   decreases.
///
/// # Errors
/// A description of the first violation, with the event index.
pub fn check_chrome(text: &str) -> Result<(), String> {
    let v = parse_json(text)?;
    let events = match (&v, v.get("traceEvents")) {
        (_, Some(Json::Arr(events))) => events,
        (Json::Arr(events), _) => events,
        _ => return Err("expected a traceEvents array".to_string()),
    };
    let mut threads = Threads::default();
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| -> Result<f64, String> {
            ev.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i}: missing numeric `{key}`"))
        };
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if !matches!(ph, "B" | "E" | "i") {
            return Err(format!("event {i}: unsupported phase `{ph}`"));
        }
        let ts = field("ts")?;
        field("pid")?;
        let tid = field("tid")?;
        if matches!(ph, "B" | "i") && ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: `{ph}` event without `name`"));
        }
        threads
            .event("ts", ph, tid, ts)
            .map_err(|e| format!("event {i}: {e}"))?;
    }
    threads.all_closed("B event(s)")
}

/// The per-thread discipline both sinks share: in stream order, each
/// `tid`'s timestamps never decrease and its `B`/`E` events balance.
#[derive(Default)]
struct Threads {
    /// `(tid, last timestamp, open spans)`, in first-seen order.
    state: Vec<(f64, f64, i64)>,
}

impl Threads {
    /// Record one event of phase `ph` (`B` opens a span, `E` closes one,
    /// anything else only advances time). `ts_key` names the timestamp
    /// field in the error, which the caller prefixes with the position.
    fn event(&mut self, ts_key: &str, ph: &str, tid: f64, ts: f64) -> Result<(), String> {
        let slot = match self.state.iter().position(|t| t.0 == tid) {
            Some(slot) => slot,
            None => {
                self.state.push((tid, f64::NEG_INFINITY, 0));
                self.state.len() - 1
            }
        };
        let (_, last, open) = &mut self.state[slot];
        if ts < *last {
            return Err(format!("{ts_key} decreases on tid {tid} ({ts} < {last})"));
        }
        *last = ts;
        match ph {
            "B" => *open += 1,
            "E" => {
                *open -= 1;
                if *open < 0 {
                    return Err(format!("E without matching B on tid {tid}"));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Fail on the first thread left with open spans, counted as `what`.
    fn all_closed(&self, what: &str) -> Result<(), String> {
        match self.state.iter().find(|t| t.2 != 0) {
            Some(&(tid, _, open)) => Err(format!("tid {tid}: {open} {what} never closed")),
            None => Ok(()),
        }
    }
}

/// Remove every wall-time field ([`TIMING_KEYS`]) from a parsed value and
/// re-render it canonically. Applied to two runs' snapshots, the results
/// must be byte-identical — that is the determinism contract.
pub fn strip_timing(v: &Json) -> String {
    let mut v = v.clone();
    v.strip_keys(TIMING_KEYS);
    v.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, span, Session};

    fn sample_report() -> crate::Report {
        let s = Session::start();
        {
            let _a = span!("stage", "c{}", 1);
            counter!("t.check.events", 5);
            let _b = span!("kernel");
        }
        crate::note_event("progress".to_string());
        s.finish()
    }

    #[test]
    fn jsonl_sink_passes_checker() {
        let r = sample_report();
        let jsonl = r.render_jsonl();
        let (snap, notes) = check_jsonl(&jsonl).expect("valid JSONL");
        assert!(snap.get("counters").is_some());
        let progress = jsonl.lines().position(|l| l.contains("progress")).unwrap();
        assert_eq!(notes, [(progress + 1, "progress".to_string())]);
        assert_eq!(strip_timing(&snap), strip_timing(&snap));
    }

    #[test]
    fn chrome_sink_passes_checker() {
        let r = sample_report();
        check_chrome(&r.render_chrome()).expect("valid chrome trace");
    }

    #[test]
    fn checker_rejects_broken_streams() {
        // stray non-JSON line
        assert!(check_jsonl("hello\n").is_err());
        // unbalanced E
        assert!(check_jsonl("{\"type\":\"E\",\"tid\":0,\"ts_ns\":1}\n").is_err());
        // unclosed B (and no snapshot)
        assert!(check_jsonl("{\"type\":\"B\",\"name\":\"x\",\"tid\":0,\"ts_ns\":1}\n").is_err());
        // decreasing timestamps
        let bad = "{\"type\":\"B\",\"name\":\"x\",\"tid\":0,\"ts_ns\":5}\n\
                   {\"type\":\"E\",\"tid\":0,\"ts_ns\":4}\n";
        assert!(check_jsonl(bad).is_err());
        // chrome: E without B
        assert!(
            check_chrome("[{\"ph\":\"E\",\"name\":\"x\",\"ts\":1,\"pid\":1,\"tid\":0}]").is_err()
        );
        // chrome: decreasing ts
        let bad = "[{\"ph\":\"B\",\"name\":\"x\",\"ts\":2,\"pid\":1,\"tid\":0},\
                    {\"ph\":\"E\",\"name\":\"x\",\"ts\":1,\"pid\":1,\"tid\":0}]";
        assert!(check_chrome(bad).is_err());
    }

    #[test]
    fn snapshot_stripping_removes_only_timing() {
        let r = sample_report();
        let with = parse_json(&r.snapshot_json(true)).expect("valid");
        let without = parse_json(&r.snapshot_json(false)).expect("valid");
        assert_eq!(strip_timing(&with), without.render());
    }
}
