//! Event buffers and span-tree construction.
//!
//! Every recording thread appends [`Event`]s to a flat buffer; guards
//! guarantee each `Begin` eventually gets its `End` on the same thread.
//! When `par` workers rejoin their parent, their whole buffers are
//! inserted as a single [`Event::Splice`] at the parent's current
//! position — in spawn order — so the nested structure is preserved
//! without any cross-thread synchronization during recording.

/// One recorded event. Timestamps are nanoseconds since session start,
/// from a monotonic clock; they are **not** part of the determinism
/// contract.
#[derive(Debug)]
pub(crate) enum Event {
    /// A span opened.
    Begin {
        name: &'static str,
        label: Option<Box<str>>,
        t_ns: u64,
    },
    /// The innermost open span of this thread closed.
    End { t_ns: u64 },
    /// An instant note event.
    Note { text: Box<str>, t_ns: u64 },
    /// Worker buffers merged here, in spawn order.
    Splice { children: Vec<ThreadEvents> },
}

/// One thread's event buffer.
#[derive(Debug)]
pub(crate) struct ThreadEvents {
    pub(crate) tid: u32,
    pub(crate) events: Vec<Event>,
}

/// One node of the reconstructed span tree.
#[derive(Debug)]
pub struct SpanNode {
    /// Static span name (the first `span!` argument).
    pub name: &'static str,
    /// Formatted label, if the span had one.
    pub label: Option<String>,
    /// Thread the span ran on (0 = the session's root thread).
    pub tid: u32,
    /// Start, nanoseconds since session start (wall time — not
    /// deterministic).
    pub start_ns: u64,
    /// End, nanoseconds since session start.
    pub end_ns: u64,
    /// Nested spans: same-thread children plus any worker spans spliced
    /// while this span was open.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Build the span forest of one thread buffer, recursing into splices.
/// Errors on unbalanced buffers (an `End` without a `Begin`, or a `Begin`
/// never closed) — impossible through the guard API, but checked rather
/// than assumed because the proptest in `tests/obs_determinism.rs` pins
/// exactly this property.
pub(crate) fn build_forest(buffer: &ThreadEvents) -> Result<Vec<SpanNode>, String> {
    let mut out = Vec::new();
    build_into(&mut out, buffer)?;
    Ok(out)
}

fn build_into(out: &mut Vec<SpanNode>, buffer: &ThreadEvents) -> Result<(), String> {
    let mut stack: Vec<SpanNode> = Vec::new();
    for event in &buffer.events {
        match event {
            Event::Begin { name, label, t_ns } => stack.push(SpanNode {
                name,
                label: label.as_ref().map(|l| l.to_string()),
                tid: buffer.tid,
                start_ns: *t_ns,
                end_ns: *t_ns,
                children: Vec::new(),
            }),
            Event::End { t_ns } => {
                let mut top = stack
                    .pop()
                    .ok_or_else(|| format!("tid {}: End without a Begin", buffer.tid))?;
                top.end_ns = *t_ns;
                match stack.last_mut() {
                    Some(parent) => parent.children.push(top),
                    None => out.push(top),
                }
            }
            Event::Note { .. } => {}
            Event::Splice { children } => {
                // Worker spans nest under whatever span was open at the
                // moment the fork rejoined.
                for child in children {
                    let sink: &mut Vec<SpanNode> = match stack.last_mut() {
                        Some(parent) => &mut parent.children,
                        None => out,
                    };
                    build_into(sink, child)?;
                }
            }
        }
    }
    if stack.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "tid {}: {} span(s) never closed",
            buffer.tid,
            stack.len()
        ))
    }
}

/// Visit the flattened event stream depth-first: the parent's events in
/// order, with each splice's buffers expanded in place. Within any single
/// tid the visit order is chronological, which is what the JSONL checker
/// verifies per thread.
pub(crate) fn flatten<'a>(buffer: &'a ThreadEvents, visit: &mut impl FnMut(u32, &'a Event)) {
    for event in &buffer.events {
        if let Event::Splice { children } = event {
            for child in children {
                flatten(child, visit);
            }
        } else {
            visit(buffer.tid, event);
        }
    }
}
