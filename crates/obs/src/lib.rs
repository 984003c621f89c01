//! Observability for the synthesis workspace: hierarchical spans,
//! deterministic metrics, and profile export.
//!
//! The crate is hand-rolled with zero dependencies (the workspace builds
//! offline) and is wired through every layer of the flow. Three ideas
//! carry the whole design:
//!
//! * **Sessions gate everything.** Nothing records until a thread installs
//!   a [`Session`]; with no session active anywhere in the process, every
//!   macro is one relaxed atomic load and a branch (the disabled path is
//!   measured by `crates/bench/benches/obs_overhead.rs`). Sessions are
//!   thread-local, so concurrently running tests never observe each
//!   other's counts.
//!
//! * **Per-thread buffers, merged in spawn order.** Worker threads created
//!   by `crates/par` join a session through a [`Fork`]: each worker gets
//!   its own event buffer and metrics accumulator, and [`Fork::join`]
//!   splices the buffers back into the parent's event stream in worker
//!   index (= spawn) order. Span events therefore always close into a
//!   well-formed tree, no matter how items were scheduled.
//!
//! * **Counts are deterministic, wall times are not.** Counters,
//!   histograms, and max-gauges merge with commutative operations (sum,
//!   sum-per-bucket, max), so their totals are a pure function of the
//!   inputs — byte-identical across thread counts and repeated runs, like
//!   everything else in this repo. Timestamps and durations are explicitly
//!   **excluded** from that contract; [`Report::snapshot_json`] with
//!   `with_timing = false` renders exactly the deterministic subset.
//!
//! # Recording
//!
//! ```
//! let session = obs::Session::start();
//! {
//!     let _stage = obs::span!("decompose", "{} nodes", 42);
//!     obs::counter!("decomp.huffman.merges", 3);
//!     obs::hist!("curve.points_after_prune", 7);
//! }
//! let report = session.finish();
//! assert!(report.metrics.counters["decomp.huffman.merges"] == 3);
//! println!("{}", report.render_summary());
//! ```
//!
//! # Sinks
//!
//! [`Report`] renders three ways: a human text summary
//! ([`Report::render_summary`]), a JSONL event stream ending in an
//! aggregate metrics snapshot ([`Report::render_jsonl`]), and Chrome
//! trace-event JSON loadable in `chrome://tracing` or Perfetto
//! ([`Report::render_chrome`]). The [`json`] module holds the strict
//! hand-rolled JSON value, parser and canonical writer, which `lint`'s
//! JSON reports also render through, and [`check`] holds validators for
//! both machine formats.

#![warn(missing_docs)]

pub mod json;
mod metrics;
mod report;
mod span;

pub mod check;

pub use metrics::{Hist, Metrics};
pub use report::Report;
pub use span::SpanNode;

use metrics::LocalMetrics;
use span::{Event, ThreadEvents};
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::str::FromStr;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of live sessions in the whole process. The fast gate every
/// macro checks first: zero means nothing can possibly be recording.
static ACTIVE_SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// Monotone session id source, used to detect stale guards.
static NEXT_SESSION_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// True if any session is live anywhere in the process (fast, racy gate).
#[inline]
pub fn enabled() -> bool {
    ACTIVE_SESSIONS.load(Ordering::Relaxed) != 0
}

/// True if the **current thread** is recording into a session.
pub fn active() -> bool {
    enabled() && RECORDER.with(|r| r.borrow().is_some())
}

/// State shared by every thread recording into one session.
struct Shared {
    id: usize,
    t0: Instant,
    merged: Mutex<Metrics>,
    next_tid: AtomicU32,
}

/// Per-thread recording state: an event buffer and local metric
/// accumulators, flushed into [`Shared`] when the thread leaves the
/// session.
struct Recorder {
    shared: Arc<Shared>,
    tid: u32,
    events: Vec<Event>,
    metrics: LocalMetrics,
    open_spans: usize,
}

impl Recorder {
    fn new(shared: Arc<Shared>, tid: u32) -> Recorder {
        Recorder {
            shared,
            tid,
            events: Vec::new(),
            metrics: LocalMetrics::default(),
            open_spans: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.shared.t0.elapsed().as_nanos() as u64
    }

    /// Flush this thread's contribution: metrics into the shared merge,
    /// leaked-open spans closed so the event buffer is always balanced.
    fn into_events(mut self) -> Vec<Event> {
        let close_at = self.now_ns();
        for _ in 0..self.open_spans {
            self.events.push(Event::End { t_ns: close_at });
        }
        self.metrics
            .merge_into(&mut self.shared.merged.lock().expect("obs metrics lock"));
        self.events
    }
}

// ---------------------------------------------------------------------------
// Sessions

/// A live recording session, owned by the thread that started it.
///
/// Starting a session turns the macros on for this thread (and for any
/// `par` workers joined through a [`Fork`]); [`Session::finish`] turns
/// them off and returns the [`Report`]. Dropping a session without
/// finishing tears it down and discards the data (so a panicking test
/// cannot leave the thread wedged).
///
/// # Panics
/// [`Session::start`] panics if the current thread is already recording —
/// nested sessions on one thread are not supported.
#[must_use = "finish() the session to obtain its Report"]
pub struct Session {
    shared: Arc<Shared>,
    finished: bool,
}

impl Session {
    /// Start recording on the current thread.
    pub fn start() -> Session {
        let shared = Arc::new(Shared {
            id: NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed),
            t0: Instant::now(),
            merged: Mutex::new(Metrics::default()),
            next_tid: AtomicU32::new(1),
        });
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            assert!(
                r.is_none(),
                "obs: a session is already active on this thread"
            );
            *r = Some(Recorder::new(shared.clone(), 0));
        });
        ACTIVE_SESSIONS.fetch_add(1, Ordering::SeqCst);
        Session {
            shared,
            finished: false,
        }
    }

    /// Stop recording and build the report. Must be called on the thread
    /// that started the session.
    ///
    /// # Panics
    /// Panics if called on a different thread, or if that thread's
    /// recorder belongs to another session.
    pub fn finish(mut self) -> Report {
        self.finished = true;
        ACTIVE_SESSIONS.fetch_sub(1, Ordering::SeqCst);
        let rec = RECORDER
            .with(|r| r.borrow_mut().take())
            .expect("obs: Session::finish on a thread that is not recording");
        assert!(
            Arc::ptr_eq(&rec.shared, &self.shared),
            "obs: Session::finish called for a different session"
        );
        let events = rec.into_events();
        let metrics = std::mem::take(&mut *self.shared.merged.lock().expect("obs metrics lock"));
        Report::new(ThreadEvents { tid: 0, events }, metrics)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        ACTIVE_SESSIONS.fetch_sub(1, Ordering::SeqCst);
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            if matches!(&*r, Some(rec) if Arc::ptr_eq(&rec.shared, &self.shared)) {
                *r = None;
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Spans

/// RAII guard returned by [`span!`]: records the span's end event on drop.
///
/// The guard is `!Send` — a span must end on the thread that began it, or
/// the per-thread buffers could not close into a tree.
pub struct SpanGuard {
    /// Session id this guard recorded into; 0 = disarmed (not recording).
    session: usize,
    _not_send: PhantomData<*const ()>,
}

const DISARMED: SpanGuard = SpanGuard {
    session: 0,
    _not_send: PhantomData,
};

/// Record the begin event of an unlabeled span. Prefer the [`span!`] macro.
#[inline]
pub fn span_enter(name: &'static str) -> SpanGuard {
    if !enabled() {
        return DISARMED;
    }
    span_begin(name, None)
}

/// Record the begin event of a labeled span; `label` is only evaluated
/// when the current thread is recording. Prefer the [`span!`] macro.
#[inline]
pub fn span_enter_labeled(name: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    if !active() {
        return DISARMED;
    }
    span_begin(name, Some(label().into_boxed_str()))
}

fn span_begin(name: &'static str, label: Option<Box<str>>) -> SpanGuard {
    RECORDER.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => {
            let t_ns = rec.now_ns();
            rec.events.push(Event::Begin { name, label, t_ns });
            rec.open_spans += 1;
            SpanGuard {
                session: rec.shared.id,
                _not_send: PhantomData,
            }
        }
        None => DISARMED,
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.session == 0 {
            return;
        }
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                // A stale guard (its session already finished) must not
                // push an unmatched End into a newer session's buffer.
                if rec.shared.id == self.session {
                    let t_ns = rec.now_ns();
                    rec.events.push(Event::End { t_ns });
                    rec.open_spans = rec.open_spans.saturating_sub(1);
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Metrics

/// Add `n` to the named counter. Prefer the [`counter!`] macro.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.metrics.counter_add(name, n);
        }
    });
}

/// Raise the named max-gauge to at least `v`. Prefer the [`gauge!`] macro.
#[inline]
pub fn gauge_max(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.metrics.gauge_max(name, v);
        }
    });
}

/// Record one sample into the named histogram. Prefer the [`hist!`] macro.
#[inline]
pub fn hist_record(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.metrics.hist_record(name, v);
        }
    });
}

/// Record an instant note event, printed nowhere: used by structured
/// emitters (the QoR ledger) whose lines ride the JSONL sink but stay
/// silent in ordinary text output. A no-op when the current thread is not
/// recording. Prefer the [`note_event!`] macro.
pub fn note_event(line: String) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let t_ns = rec.now_ns();
            rec.events.push(Event::Note {
                text: line.into_boxed_str(),
                t_ns,
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Fork: carrying a session into par's worker threads

/// Hands the current thread's session to a fixed number of worker threads
/// and splices their buffers back **in worker-index order**.
///
/// Protocol (what `par::scope_map` does):
/// 1. parent: `let fork = obs::fork(workers);` before spawning;
/// 2. worker `w`: `let _g = fork.worker(w);` first thing in the thread —
///    the guard flushes the worker's buffer into its slot on drop;
/// 3. parent: `fork.join()` after all workers have been joined.
///
/// When the parent thread is not recording, every step is a no-op.
pub struct Fork(Option<ForkInner>);

struct ForkInner {
    shared: Arc<Shared>,
    base_tid: u32,
    slots: Vec<Mutex<Option<ThreadEvents>>>,
}

/// Create a [`Fork`] for `workers` threads (no-op if not recording).
pub fn fork(workers: usize) -> Fork {
    if !enabled() {
        return Fork(None);
    }
    let shared = RECORDER.with(|r| r.borrow().as_ref().map(|rec| rec.shared.clone()));
    let Some(shared) = shared else {
        return Fork(None);
    };
    // Pre-allocating the tid range keeps worker tids deterministic per
    // fork (worker w gets base + w), even though workers start racily.
    let base_tid = shared.next_tid.fetch_add(workers as u32, Ordering::Relaxed);
    let slots = (0..workers).map(|_| Mutex::new(None)).collect();
    Fork(Some(ForkInner {
        shared,
        base_tid,
        slots,
    }))
}

impl Fork {
    /// Join worker `index` to the session; call first thing on the worker
    /// thread and hold the guard for the thread's whole lifetime.
    ///
    /// # Panics
    /// Panics if `index` is out of range or the worker thread is somehow
    /// already recording.
    pub fn worker(&self, index: usize) -> Option<WorkerGuard<'_>> {
        let inner = self.0.as_ref()?;
        let tid = inner.base_tid + index as u32;
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            assert!(r.is_none(), "obs: worker thread already recording");
            *r = Some(Recorder::new(inner.shared.clone(), tid));
        });
        Some(WorkerGuard { fork: inner, index })
    }

    /// Splice the worker buffers into the parent's event stream, in
    /// worker-index order. Call after every worker has been joined.
    pub fn join(self) {
        let Some(inner) = self.0 else { return };
        let children: Vec<ThreadEvents> = inner
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("obs fork slot lock").take())
            .filter(|buf| !buf.events.is_empty())
            .collect();
        if children.is_empty() {
            return;
        }
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                if Arc::ptr_eq(&rec.shared, &inner.shared) {
                    rec.events.push(Event::Splice { children });
                }
            }
        });
    }
}

/// Guard installed on a worker thread by [`Fork::worker`]; flushes the
/// worker's events and metrics into the fork on drop.
pub struct WorkerGuard<'a> {
    fork: &'a ForkInner,
    index: usize,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        let Some(rec) = RECORDER.with(|r| r.borrow_mut().take()) else {
            return;
        };
        let tid = rec.tid;
        let events = rec.into_events();
        *self.fork.slots[self.index]
            .lock()
            .expect("obs fork slot lock") = Some(ThreadEvents { tid, events });
    }
}

// ---------------------------------------------------------------------------
// Output mode (shared by FlowConfig and the CLI)

/// How (and whether) a flow run records and renders observability data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// No session: macros stay near-no-ops.
    #[default]
    Off,
    /// Human text summary (per-stage tree with times + top counters).
    Summary,
    /// JSONL event stream ending in an aggregate metrics snapshot.
    Json,
    /// Chrome trace-event JSON (`chrome://tracing` / Perfetto).
    Chrome,
}

impl FromStr for ObsMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ObsMode, String> {
        match s {
            "off" => Ok(ObsMode::Off),
            "summary" => Ok(ObsMode::Summary),
            "json" => Ok(ObsMode::Json),
            "chrome" => Ok(ObsMode::Chrome),
            other => Err(format!(
                "unknown obs mode `{other}` (expected off|summary|json|chrome)"
            )),
        }
    }
}

impl fmt::Display for ObsMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ObsMode::Off => "off",
            ObsMode::Summary => "summary",
            ObsMode::Json => "json",
            ObsMode::Chrome => "chrome",
        })
    }
}

// ---------------------------------------------------------------------------
// Macros

/// Open a hierarchical span; the returned guard closes it on drop.
///
/// `span!("map")` or `span!("map", "{circuit} method {m}")` — the label is
/// formatted lazily, only when the current thread is recording. Bind the
/// guard (`let _s = span!(…);`), not `_` (which drops immediately).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
    ($name:expr, $($arg:tt)+) => {
        $crate::span_enter_labeled($name, || ::std::format!($($arg)+))
    };
}

/// Bump a named counter: `counter!("bdd.unique.hit")` adds 1,
/// `counter!("activity.sim.words", n)` adds `n` (a `u64`).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter_add($name, 1)
    };
    ($name:expr, $n:expr) => {
        $crate::counter_add($name, $n)
    };
}

/// Raise a named max-gauge: `gauge!("bdd.nodes.high_water", count)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {
        $crate::gauge_max($name, $v)
    };
}

/// Record one sample in a named histogram:
/// `hist!("map.curve.points_after_prune", len)`.
#[macro_export]
macro_rules! hist {
    ($name:expr, $v:expr) => {
        $crate::hist_record($name, $v)
    };
}

/// Silent instant event: recorded in the event stream (JSONL `note` lines)
/// when a session is live, printed nowhere. The format arguments are only
/// evaluated when the process has a live session.
#[macro_export]
macro_rules! note_event {
    ($($arg:tt)+) => {
        if $crate::enabled() {
            $crate::note_event(::std::format!($($arg)+))
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_macros_are_inert() {
        // No session on this thread: nothing must panic or record.
        counter!("t.noop", 3);
        hist!("t.noop.h", 9);
        gauge!("t.noop.g", 9);
        let _s = span!("noop");
        let _l = span!("noop", "label {}", 1);
    }

    #[test]
    fn counters_hists_and_gauges_merge() {
        let s = Session::start();
        counter!("t.a");
        counter!("t.a", 4);
        counter!("t.b", 2);
        gauge!("t.g", 3);
        gauge!("t.g", 7);
        gauge!("t.g", 5);
        for v in [0u64, 1, 1, 7, 1024] {
            hist!("t.h", v);
        }
        let r = s.finish();
        assert_eq!(r.metrics.counters["t.a"], 5);
        assert_eq!(r.metrics.counters["t.b"], 2);
        assert_eq!(r.metrics.gauges["t.g"], 7);
        let h = &r.metrics.hists["t.h"];
        assert_eq!((h.count, h.sum, h.min, h.max), (5, 1033, 0, 1024));
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let s = Session::start();
        {
            let _a = span!("outer", "run {}", 1);
            {
                let _b = span!("inner");
            }
            {
                let _c = span!("inner");
            }
        }
        let _d = span!("tail");
        drop(_d);
        let r = s.finish();
        let tree = r.tree().expect("balanced");
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].name, "outer");
        assert_eq!(tree[0].label.as_deref(), Some("run 1"));
        assert_eq!(tree[0].children.len(), 2);
        assert_eq!(tree[1].name, "tail");
        assert!(tree[1].children.is_empty());
    }

    #[test]
    fn fork_splices_workers_in_spawn_order() {
        let s = Session::start();
        let _root = span!("root");
        let fork = fork(3);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|w| {
                    let fork = &fork;
                    scope.spawn(move || {
                        let _g = fork.worker(w);
                        let _s = span!("work");
                        counter!("t.fork.items");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        fork.join();
        drop(_root);
        let r = s.finish();
        assert_eq!(r.metrics.counters["t.fork.items"], 3);
        let tree = r.tree().expect("balanced");
        assert_eq!(tree.len(), 1);
        let root = &tree[0];
        assert_eq!(root.name, "root");
        // All three worker spans nest under the span open at the fork.
        assert_eq!(root.children.len(), 3);
        assert!(root.children.iter().all(|c| c.name == "work"));
        // Spawn order: worker w got tid base + w.
        let tids: Vec<u32> = root.children.iter().map(|c| c.tid).collect();
        let mut sorted = tids.clone();
        sorted.sort_unstable();
        assert_eq!(tids, sorted);
    }

    #[test]
    fn dropping_a_session_unwedges_the_thread() {
        {
            let _s = Session::start();
            counter!("t.dropped", 1);
            // dropped without finish()
        }
        let s = Session::start();
        counter!("t.second", 1);
        let r = s.finish();
        assert!(!r.metrics.counters.contains_key("t.dropped"));
        assert_eq!(r.metrics.counters["t.second"], 1);
    }

    #[test]
    fn stale_guard_does_not_corrupt_next_session() {
        let s1 = Session::start();
        let leaked = span!("leaked");
        let r1 = s1.finish(); // closes the leaked span in the report
        assert!(r1.tree().is_ok());
        let s2 = Session::start();
        drop(leaked); // stale: must not push an End into s2
        let _ok = span!("ok");
        drop(_ok);
        let r2 = s2.finish();
        let tree = r2.tree().expect("stale guard ignored");
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "ok");
    }
}
