//! Hierarchical spans with monotonic timings.
//!
//! A [`Tracer`] owns a [`Recorder`] and a
//! [`Registry`]; [`Tracer::span`] opens a root [`Span`], [`Span::child`]
//! nests, and finishing a root (explicitly via [`Span::finish`] or
//! implicitly on drop) delivers the whole [`SpanRecord`] tree to the
//! recorder. All timestamps come from [`std::time::Instant`], so they are
//! monotonic: a child's window always sits inside its parent's.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::Registry;
use crate::record::{MemoryRecorder, Recorder};

/// A span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (counts, sizes).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (scores, ratios).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form string (routes, modes, names).
    Str(String),
}

impl AttrValue {
    /// The value as a `u64`, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `&str`, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Creates root spans and owns the metrics [`Registry`] that every span
/// (and its children) report counters into.
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<TracerShared>,
}

struct TracerShared {
    epoch: Instant,
    recorder: Arc<dyn Recorder>,
    registry: Registry,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer delivering finished root spans to `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Tracer {
        Tracer {
            shared: Arc::new(TracerShared {
                epoch: Instant::now(),
                recorder,
                registry: Registry::new(),
            }),
        }
    }

    /// A tracer plus a handle to its in-memory recorder — the usual
    /// setup for tests and per-answer profiles.
    pub fn in_memory() -> (Tracer, Arc<MemoryRecorder>) {
        let recorder = Arc::new(MemoryRecorder::new());
        (
            Tracer::new(Arc::clone(&recorder) as Arc<dyn Recorder>),
            recorder,
        )
    }

    /// Open a root span.
    pub fn span(&self, name: &str) -> Span {
        Span {
            inner: Some(Arc::new(SpanInner {
                name: name.to_string(),
                tracer: Arc::clone(&self.shared),
                parent: None,
                start: Instant::now(),
                start_ns: self.shared.epoch.elapsed().as_nanos() as u64,
                state: Mutex::new(SpanState::default()),
            })),
        }
    }

    /// The tracer's metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }
}

#[derive(Debug, Default)]
struct SpanState {
    attrs: Vec<(String, AttrValue)>,
    children: Vec<SpanRecord>,
    finished: bool,
}

struct SpanInner {
    name: String,
    tracer: Arc<TracerShared>,
    parent: Option<Arc<SpanInner>>,
    start: Instant,
    /// Nanoseconds since the tracer's epoch — a monotonic clock shared by
    /// every span of one tracer, so sibling ordering is meaningful.
    start_ns: u64,
    state: Mutex<SpanState>,
}

impl SpanInner {
    fn finish(self: &Arc<Self>) {
        let record = {
            let mut state = self.state.lock().expect("span poisoned");
            if state.finished {
                return;
            }
            state.finished = true;
            SpanRecord {
                name: self.name.clone(),
                start_ns: self.start_ns,
                elapsed_ns: self.start.elapsed().as_nanos() as u64,
                attrs: std::mem::take(&mut state.attrs),
                children: std::mem::take(&mut state.children),
            }
        };
        match &self.parent {
            Some(parent) => parent
                .state
                .lock()
                .expect("span poisoned")
                .children
                .push(record),
            None => self.tracer.recorder.record(&record),
        }
    }
}

/// A live span handle.
///
/// Dropping the handle finishes the span: children fold their records
/// into the parent, roots deliver the full tree to the tracer's recorder.
/// Finish children before their parent (natural with lexical scoping) —
/// a child finished after its parent is silently dropped.
///
/// The [`Span::disabled`] handle makes every operation a no-op, so
/// instrumented code needs no `if observing { … }` branches.
#[derive(Debug)]
pub struct Span {
    inner: Option<Arc<SpanInner>>,
}

impl std::fmt::Debug for SpanInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanInner")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl Span {
    /// The no-op span: every method does nothing, cheaply.
    ///
    /// ```
    /// let span = obs::Span::disabled();
    /// span.set("ignored", 1u64); // no-op
    /// assert!(!span.enabled());
    /// ```
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// Whether this handle actually records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a child span (disabled parent ⇒ disabled child).
    pub fn child(&self, name: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span::disabled();
        };
        Span {
            inner: Some(Arc::new(SpanInner {
                name: name.to_string(),
                tracer: Arc::clone(&inner.tracer),
                parent: Some(Arc::clone(inner)),
                start: Instant::now(),
                start_ns: inner.tracer.epoch.elapsed().as_nanos() as u64,
                state: Mutex::new(SpanState::default()),
            })),
        }
    }

    /// Set an attribute, replacing any previous value under the key.
    pub fn set(&self, key: &str, value: impl Into<AttrValue>) {
        let Some(inner) = &self.inner else { return };
        let value = value.into();
        let mut state = inner.state.lock().expect("span poisoned");
        match state.attrs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => state.attrs.push((key.to_string(), value)),
        }
    }

    /// Add `n` to a numeric attribute (creating it at zero) — for
    /// accumulating work across repeated operations under one span.
    pub fn add(&self, key: &str, n: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock().expect("span poisoned");
        match state.attrs.iter_mut().find(|(k, _)| k == key) {
            Some((_, AttrValue::U64(v))) => *v += n,
            Some((_, v)) => *v = AttrValue::U64(n),
            None => state.attrs.push((key.to_string(), AttrValue::U64(n))),
        }
    }

    /// Bump a named counter in the tracer's [`Registry`].
    pub fn count(&self, counter: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.tracer.registry.incr(counter, n);
        }
    }

    /// Record one observation into a named histogram in the tracer's
    /// [`Registry`].
    pub fn observe(&self, histogram: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.tracer.registry.observe(histogram, value);
        }
    }

    /// Finish explicitly (equivalent to dropping the handle).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.finish();
        }
    }
}

/// The immutable record of one finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (dotted, e.g. `"sparql.execute"`).
    pub name: String,
    /// Start time in nanoseconds since the tracer's epoch (monotonic).
    pub start_ns: u64,
    /// Wall time from open to finish, in nanoseconds.
    pub elapsed_ns: u64,
    /// Attributes in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
    /// Finished children, in finish order.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An attribute as `u64`, when present and numeric.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attr(key).and_then(AttrValue::as_u64)
    }

    /// Depth-first search for the first descendant (or self) with `name`.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_produces_a_tree_in_finish_order() {
        let (tracer, recorder) = Tracer::in_memory();
        let root = tracer.span("root");
        {
            let a = root.child("a");
            let aa = a.child("aa");
            aa.finish();
            a.finish();
        }
        root.child("b").finish();
        root.finish();
        let spans = recorder.take();
        assert_eq!(spans.len(), 1);
        let root = &spans[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "a");
        assert_eq!(root.children[0].children[0].name, "aa");
        assert_eq!(root.children[1].name, "b");
        assert!(root.find("aa").is_some());
        assert!(root.find("zz").is_none());
    }

    #[test]
    fn timings_are_monotonic_and_nested() {
        let (tracer, recorder) = Tracer::in_memory();
        let root = tracer.span("root");
        let first = root.child("first");
        std::thread::sleep(std::time::Duration::from_millis(2));
        first.finish();
        let second = root.child("second");
        second.finish();
        root.finish();
        let root = recorder.take().pop().expect("one root");
        let (first, second) = (&root.children[0], &root.children[1]);
        // children start no earlier than the parent
        assert!(first.start_ns >= root.start_ns);
        // sequential siblings start in order: second after first ended
        assert!(second.start_ns >= first.start_ns + first.elapsed_ns);
        // a child's window fits inside the parent's
        assert!(first.elapsed_ns <= root.elapsed_ns);
        assert!(
            first.start_ns + first.elapsed_ns <= root.start_ns + root.elapsed_ns,
            "child must end before its parent"
        );
        // the sleep really showed up
        assert!(first.elapsed_ns >= 1_000_000);
    }

    #[test]
    fn attrs_set_add_and_counters() {
        let (tracer, recorder) = Tracer::in_memory();
        let span = tracer.span("s");
        span.set("route", "kg");
        span.set("route", "llm"); // replaces
        span.add("rows", 2);
        span.add("rows", 3); // accumulates
        span.count("turns", 1);
        span.observe("latency_ms", 1.25);
        span.finish();
        let rec = recorder.take().pop().unwrap();
        assert_eq!(rec.attr("route").and_then(AttrValue::as_str), Some("llm"));
        assert_eq!(rec.attr_u64("rows"), Some(5));
        assert_eq!(tracer.registry().counter("turns"), 1);
        assert_eq!(
            tracer.registry().snapshot().histograms["latency_ms"].count,
            1
        );
    }

    #[test]
    fn drop_finishes_and_double_finish_is_harmless() {
        let (tracer, recorder) = Tracer::in_memory();
        {
            let root = tracer.span("implicit");
            let _child = root.child("c");
            // both dropped here, child first (reverse declaration order)
        }
        let spans = recorder.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].children.len(), 1);
    }

    #[test]
    fn disabled_spans_do_nothing() {
        let span = Span::disabled();
        assert!(!span.enabled());
        let child = span.child("x");
        assert!(!child.enabled());
        child.set("a", 1u64);
        child.add("b", 1);
        child.count("c", 1);
        child.observe("d", 1.0);
        child.finish();
        span.finish();
    }
}
