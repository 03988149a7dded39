//! # obs — the `llmkg` observability substrate
//!
//! A zero-dependency tracing/metrics layer for the workspace: hierarchical
//! [`Span`]s with monotonic timings, named counters and histograms in a
//! thread-safe [`Registry`], and a [`Recorder`] trait that receives every
//! finished root span (in memory for tests and profiles, or discarded when
//! only the counters matter).
//!
//! The design optimizes for *instrumentation that costs nothing when
//! nobody is watching*: a [`Span::disabled`] handle is a `None` and every
//! operation on it is a no-op, so library code takes `&Span` parameters
//! unconditionally and callers opt in by passing a real span from a
//! [`Tracer`].
//!
//! ```
//! use obs::Tracer;
//!
//! let (tracer, recorder) = Tracer::in_memory();
//! {
//!     let turn = tracer.span("chatbot.turn");
//!     turn.set("route", "kg-query");
//!     {
//!         let exec = turn.child("sparql.execute");
//!         exec.set("rows", 3u64);
//!         exec.count("exec.queries", 1);
//!     } // children finish (and fold into the parent) on drop
//! } // the root finishes and reaches the recorder
//! let spans = recorder.take();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].children[0].name, "sparql.execute");
//! assert_eq!(tracer.registry().counter("exec.queries"), 1);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod record;
pub mod span;

pub use metrics::{HistogramSnapshot, MetricsSnapshot, Registry};
pub use record::{MemoryRecorder, NullRecorder, Recorder};
pub use span::{AttrValue, Span, SpanRecord, Tracer};
