//! Where finished spans go: the [`Recorder`] trait and its sinks.

use std::sync::Mutex;

use crate::span::SpanRecord;

/// Receives every finished *root* span (children arrive inside it).
pub trait Recorder: Send + Sync {
    /// Deliver one finished span tree.
    fn record(&self, span: &SpanRecord);
}

/// Keeps finished spans in memory — the sink behind tests and
/// per-answer profiles.
///
/// ```
/// let (tracer, recorder) = obs::Tracer::in_memory();
/// tracer.span("unit").finish();
/// assert_eq!(recorder.take()[0].name, "unit");
/// assert!(recorder.take().is_empty()); // take drains
/// ```
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    spans: Mutex<Vec<SpanRecord>>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// Drain and return every span recorded so far.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans.lock().expect("recorder poisoned"))
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("recorder poisoned").len()
    }

    /// Whether no spans have been recorded (or all were taken).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, span: &SpanRecord) {
        self.spans
            .lock()
            .expect("recorder poisoned")
            .push(span.clone());
    }
}

/// Discards everything — for tracers whose only purpose is counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _span: &SpanRecord) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;
    use std::sync::Arc;

    #[test]
    fn memory_recorder_accumulates_then_drains() {
        let (tracer, recorder) = Tracer::in_memory();
        tracer.span("one").finish();
        tracer.span("two").finish();
        assert_eq!(recorder.len(), 2);
        let spans = recorder.take();
        assert_eq!(spans[0].name, "one");
        assert_eq!(spans[1].name, "two");
        assert!(recorder.is_empty());
    }

    #[test]
    fn null_recorder_still_counts() {
        let tracer = Tracer::new(Arc::new(NullRecorder));
        let span = tracer.span("s");
        span.count("n", 2);
        span.finish();
        assert_eq!(tracer.registry().counter("n"), 2);
    }
}
