//! Per-answer, end-to-end profiles: one [`AnswerProfile`] per question,
//! covering retrieval, executor, and generation work plus the full span
//! tree and counter snapshot captured while the answer was produced.
//!
//! The workbench builds these by running an answering path (chatbot or
//! RAG) under a fresh in-memory [`obs::Tracer`], then distilling the
//! recorded spans and counters into a small typed summary. The typed
//! fields answer the common questions directly (`how many rows?`, `how
//! much context?`, `did it hallucinate?`); the raw `spans`/`counters`
//! keep the full evidence for drill-down or JSON export.

use kgquery::ExecStats;
use obs::{AttrValue, MetricsSnapshot, SpanRecord};
use serde_json::{json, Map, Value};

/// Retrieval-stage counters of one answered question.
///
/// On the chatbot's KG route the "retriever" is the graph itself:
/// `candidates`/`retrieved` are the rows the SPARQL query returned and
/// `context_chars` is the size of the KG-derived text handed to the
/// user. On RAG paths these mirror [`kgrag::RagAnswer`].
#[derive(Debug, Clone, Default)]
pub struct RetrievalProfile {
    /// Which module produced the context (`"kg-query"`, `"llm-chat"`,
    /// `"vector"`, `"kg-lookup"`, `"parametric"`).
    pub module: String,
    /// Candidates considered before selection.
    pub candidates: usize,
    /// Items actually injected into generation.
    pub retrieved: usize,
    /// Characters of injected context.
    pub context_chars: usize,
    /// Vectors scored by the arena index while answering
    /// (`retrieval.vectors_scanned`; zero on non-vector routes).
    pub vectors_scanned: u64,
    /// Top-k heap insertions across those scans
    /// (`retrieval.heap_pushes`).
    pub heap_pushes: u64,
}

/// Executor-stage counters of one answered question — the
/// [`kgquery::ExecStats`]-derived slice of the profile.
#[derive(Debug, Clone, Default)]
pub struct ExecutorProfile {
    /// SPARQL queries issued while answering (zero on pure-LM routes).
    pub queries_issued: usize,
    /// Total rows those queries returned.
    pub rows: usize,
    /// Merged executor work counters across all issued queries.
    pub stats: ExecStats,
}

/// Generation-stage counters of one answered question.
#[derive(Debug, Clone, Default)]
pub struct GenerationProfile {
    /// Whether an answer was produced (vs. abstained / empty).
    pub answered: bool,
    /// Whether the LM answered without evidence (measurable
    /// hallucination; always `false` on grounded KG routes).
    pub hallucinated: bool,
    /// Evidence confidence (1.0 for KG-grounded answers).
    pub confidence: f64,
    /// Characters of answer text.
    pub answer_chars: usize,
}

/// Resilience-stage summary of one answered question: whether the
/// answer degraded off its primary route, and why (see
/// `docs/resilience.md`).
#[derive(Debug, Clone, Default)]
pub struct ResilienceProfile {
    /// Whether any fallback rung was taken.
    pub degraded: bool,
    /// Rendered degradation trace (`"rung(reason) -> … => served_by"`),
    /// empty when the primary route answered.
    pub degradation: String,
    /// Number of fallback steps taken.
    pub fallbacks: usize,
    /// Faults injected by a chaos schedule (always 0 in production).
    pub faults_injected: u64,
}

/// An end-to-end profile of one answered question.
#[derive(Debug, Clone)]
pub struct AnswerProfile {
    /// The question asked.
    pub question: String,
    /// The answer produced.
    pub answer: String,
    /// Answering path (`"chatbot"` or `"rag"`).
    pub path: String,
    /// Route taken inside the path (e.g. `"kg-query"`, `"vector"`).
    pub route: String,
    /// Wall time of the whole answer, in nanoseconds.
    pub wall_ns: u64,
    /// Retrieval-stage summary.
    pub retrieval: RetrievalProfile,
    /// Executor-stage summary.
    pub executor: ExecutorProfile,
    /// Generation-stage summary.
    pub generation: GenerationProfile,
    /// Resilience-stage summary: degradation ladder steps and injected
    /// faults.
    pub resilience: ResilienceProfile,
    /// Every counter incremented while answering.
    pub counters: MetricsSnapshot,
    /// The recorded span trees (one root per answer).
    pub spans: Vec<SpanRecord>,
}

impl AnswerProfile {
    /// The profile as a JSON value, spans and counters included.
    pub fn to_json(&self) -> Value {
        let mut counters = Map::new();
        for (name, v) in &self.counters.counters {
            counters.insert(name.clone(), Value::from(*v));
        }
        json!({
            "question": self.question,
            "answer": self.answer,
            "path": self.path,
            "route": self.route,
            "wall_ns": self.wall_ns,
            "retrieval": {
                "module": self.retrieval.module,
                "candidates": self.retrieval.candidates,
                "retrieved": self.retrieval.retrieved,
                "context_chars": self.retrieval.context_chars,
                "vectors_scanned": self.retrieval.vectors_scanned,
                "heap_pushes": self.retrieval.heap_pushes,
            },
            "executor": {
                "queries_issued": self.executor.queries_issued,
                "rows": self.executor.rows,
                "patterns_scanned": self.executor.stats.patterns_scanned,
                "index_probes": self.executor.stats.index_probes,
                "intermediate_bindings": self.executor.stats.intermediate_bindings,
                "path_cache_hits": self.executor.stats.path_cache_hits,
                "merge_joins": self.executor.stats.merge_joins,
            },
            "generation": {
                "answered": self.generation.answered,
                "hallucinated": self.generation.hallucinated,
                "confidence": self.generation.confidence,
                "answer_chars": self.generation.answer_chars,
            },
            "resilience": {
                "degraded": self.resilience.degraded,
                "degradation": self.resilience.degradation,
                "fallbacks": self.resilience.fallbacks,
                "faults_injected": self.resilience.faults_injected,
            },
            "counters": Value::Object(counters),
            "spans": Value::Array(self.spans.iter().map(span_to_value).collect()),
        })
    }
}

fn attr_to_value(v: &AttrValue) -> Value {
    match v {
        AttrValue::U64(n) => Value::from(*n),
        AttrValue::I64(n) => Value::from(*n),
        AttrValue::F64(n) => Value::from(*n),
        AttrValue::Bool(b) => Value::from(*b),
        AttrValue::Str(s) => Value::from(s.as_str()),
    }
}

fn span_to_value(s: &SpanRecord) -> Value {
    let mut attrs = Map::new();
    for (k, v) in &s.attrs {
        attrs.insert(k.clone(), attr_to_value(v));
    }
    json!({
        "name": s.name,
        "start_ns": s.start_ns,
        "elapsed_ns": s.elapsed_ns,
        "attrs": Value::Object(attrs),
        "children": Value::Array(s.children.iter().map(span_to_value).collect()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_serializes_spans_and_counters() {
        let (tracer, recorder) = obs::Tracer::in_memory();
        {
            let root = tracer.span("answer");
            root.set("route", "kg-query");
            root.count("exec.queries", 1);
            let child = root.child("sparql.execute");
            child.set("rows", 3u64);
        }
        let profile = AnswerProfile {
            question: "who directed \"it\"?".into(),
            answer: "someone".into(),
            path: "chatbot".into(),
            route: "kg-query".into(),
            wall_ns: 1234,
            retrieval: RetrievalProfile {
                module: "kg-query".into(),
                candidates: 3,
                retrieved: 3,
                context_chars: 7,
                ..Default::default()
            },
            executor: ExecutorProfile {
                queries_issued: 1,
                rows: 3,
                stats: ExecStats {
                    patterns_scanned: 2,
                    index_probes: 4,
                    intermediate_bindings: 5,
                    path_cache_hits: 0,
                    merge_joins: 0,
                },
            },
            generation: GenerationProfile {
                answered: true,
                hallucinated: false,
                confidence: 1.0,
                answer_chars: 7,
            },
            resilience: ResilienceProfile::default(),
            counters: tracer.registry().snapshot(),
            spans: recorder.take(),
        };
        let text = serde_json::to_string(&profile.to_json()).unwrap();
        assert!(text.contains("\"index_probes\":4"), "{text}");
        assert!(text.contains("\"exec.queries\":1"), "{text}");
        assert!(text.contains("\"sparql.execute\""), "{text}");
        assert!(text.contains("who directed \\\"it\\\"?"), "{text}");
    }
}
