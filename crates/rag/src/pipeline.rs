//! The RAG ladder: closed-book → Naive → Advanced → Modular (paper §3).
//!
//! Orthogonally to the *capability* ladder above, every answer walks a
//! *degradation* ladder (see `docs/resilience.md`): KG lookup → vector
//! retrieval → closed-book generation → diagnostic apology. Rungs knocked
//! out by a seeded [`resilience::FaultInjector`] or returning nothing are
//! recorded in the answer's [`resilience::DegradationTrace`] and as
//! `resilience.*` counters.

use kg::namespace as ns;
use kg::Graph;
use resilience::{DegradationTrace, FaultInjector, FaultPoint, NoFaults};
use slm::Slm;

use crate::chunk::Chunk;
use crate::vector::{Hit, VectorIndex};

/// The production default injector.
static NO_FAULTS: NoFaults = NoFaults;

/// Which rung of the RAG ladder to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RagMode {
    /// No retrieval: the LM answers from parametric knowledge alone.
    ClosedBook,
    /// Index → embed query → top-k chunks → generate \[30\].
    Naive,
    /// Naive plus query expansion from a first retrieval round and
    /// lexical+semantic reranking \[30\].
    Advanced,
    /// Router: structured KG lookup (KnowledgeGPT-style search program)
    /// when the query mentions a KG entity, vector retrieval otherwise
    /// \[30, 84\].
    Modular,
}

impl RagMode {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            RagMode::ClosedBook => "closed-book",
            RagMode::Naive => "naive-rag",
            RagMode::Advanced => "advanced-rag",
            RagMode::Modular => "modular-rag",
        }
    }

    /// All modes.
    pub fn all() -> [RagMode; 4] {
        [
            RagMode::ClosedBook,
            RagMode::Naive,
            RagMode::Advanced,
            RagMode::Modular,
        ]
    }
}

/// A RAG answer with provenance.
#[derive(Debug, Clone)]
pub struct RagAnswer {
    /// The answer text (empty = abstained).
    pub text: String,
    /// Chunk ids used as context.
    pub retrieved: Vec<usize>,
    /// How many retrieval candidates were considered before selection
    /// (≥ `retrieved.len()`; reranking modes consider more than they keep,
    /// KG lookup counts the entity's facts).
    pub candidates: usize,
    /// Characters of retrieved context injected into the generation
    /// prompt (0 for closed-book).
    pub context_chars: usize,
    /// Whether the LM answered without evidence (measurable hallucination).
    pub hallucinated: bool,
    /// Evidence confidence.
    pub confidence: f64,
    /// Which module produced the answer (`"vector"`, `"kg-lookup"`, `"parametric"`).
    pub module: &'static str,
    /// For the modular mode: the generated search program (KnowledgeGPT's
    /// "search code"), for observability.
    pub search_program: Option<String>,
    /// The fallback rungs this answer walked down, and why. Empty when
    /// the mode's primary route answered.
    pub degradation: DegradationTrace,
}

/// The argument of [`RagPipeline::with_coalescing`]; it configures
/// nothing. Kept only because the `perfbench` replay still passes
/// `BatchWindow::default()` (ROADMAP item 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchWindow;

/// A configured RAG pipeline over a chunked corpus and (optionally) a KG.
pub struct RagPipeline<'a> {
    slm: &'a Slm,
    chunks: Vec<Chunk>,
    index: VectorIndex,
    graph: Option<&'a Graph>,
    faults: &'a dyn FaultInjector,
    /// Top-k chunks to retrieve.
    pub k: usize,
}

impl<'a> RagPipeline<'a> {
    /// Build: embeds every chunk with the LM's embedder.
    pub fn new(slm: &'a Slm, chunks: Vec<Chunk>, graph: Option<&'a Graph>) -> Self {
        let vectors = chunks.iter().map(|c| slm.embed(&c.text)).collect();
        let index = VectorIndex::build(vectors);
        RagPipeline {
            slm,
            chunks,
            index,
            graph,
            faults: &NO_FAULTS,
            k: 4,
        }
    }

    /// Inject a fault schedule (chaos testing). Production code keeps the
    /// [`NoFaults`] default.
    pub fn with_faults(mut self, faults: &'a dyn FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Returns the pipeline unchanged: every retrieval runs its own
    /// kernel pass on the caller's thread. Kept only because the
    /// `perfbench` replay still calls it (ROADMAP item 2).
    pub fn with_coalescing(self, _window: BatchWindow) -> Self {
        self
    }

    /// The pipeline's vector index: serve reports its size in `stats`
    /// replies, and the `perfbench` replay searches it directly.
    pub fn vector_index(&self) -> &VectorIndex {
        &self.index
    }

    /// Answer a question under a mode.
    pub fn answer(&self, mode: RagMode, question: &str) -> RagAnswer {
        self.answer_observed(mode, question, &obs::Span::disabled())
    }

    /// Answer a question under a mode, recording retrieval work on an
    /// observability span: a `rag.answer` child carries the mode, chunk
    /// counts, retrieval candidates, and injected-context size, and the
    /// tracer's `rag.*` counters accumulate across answers (catalogue in
    /// `docs/observability.md`). With a disabled span this is exactly
    /// [`RagPipeline::answer`].
    pub fn answer_observed(&self, mode: RagMode, question: &str, parent: &obs::Span) -> RagAnswer {
        let span = parent.child("rag.answer");
        span.set("mode", mode.name());
        span.set("chunks_indexed", self.chunks.len());
        span.set("k", self.k);
        span.count("rag.answers", 1);
        let mut trace = DegradationTrace::new();
        let mut answer = self.answer_inner(mode, question, &span, &mut trace);
        if trace.degraded() {
            span.set("degraded", true);
            span.set("degradation", trace.render());
        }
        answer.degradation = trace;
        span.set("module", answer.module);
        span.set("candidates", answer.candidates);
        span.set("retrieved", answer.retrieved.len());
        span.set("context_chars", answer.context_chars);
        span.set("hallucinated", answer.hallucinated);
        span.set("confidence", answer.confidence);
        span.count("rag.retrieval_candidates", answer.candidates as u64);
        span.count("rag.chunks_injected", answer.retrieved.len() as u64);
        span.count("rag.context_chars", answer.context_chars as u64);
        if answer.hallucinated {
            span.count("rag.hallucinations", 1);
        }
        if answer.module == "kg-lookup" {
            span.count("rag.kg_lookups", 1);
        }
        answer
    }

    fn answer_inner(
        &self,
        mode: RagMode,
        question: &str,
        span: &obs::Span,
        trace: &mut DegradationTrace,
    ) -> RagAnswer {
        match mode {
            RagMode::ClosedBook => self.closed_book_rung(question, span, trace),
            RagMode::Naive => {
                if self.fault(span, FaultPoint::Exec) {
                    fall(span, trace, "vector", "fault injected: exec");
                    return self.closed_book_rung(question, span, trace);
                }
                let hits = self.retrieve(&self.slm.embed(question), self.k, span);
                let candidates = hits.len();
                self.vector_rung(question, &hits, candidates, span, trace)
            }
            RagMode::Advanced => {
                if self.fault(span, FaultPoint::Exec) {
                    fall(span, trace, "vector", "fault injected: exec");
                    return self.closed_book_rung(question, span, trace);
                }
                // round 1: retrieve, harvest expansion terms (the question
                // embedding is reused for the semantic rerank leg below)
                let q_vec = self.slm.embed(question);
                let first = self.retrieve(&q_vec, self.k, span);
                let mut expanded = question.to_string();
                for &(id, _) in first.iter().take(2) {
                    for term in slm::task::capitalized_spans(&self.chunks[id].text) {
                        if !expanded.contains(&term) {
                            expanded.push(' ');
                            expanded.push_str(&term);
                        }
                    }
                }
                span.set("expanded_query_chars", expanded.len());
                // round 2: retrieve with the expanded query, then rerank by
                // blended semantic + lexical score against the ORIGINAL query
                let candidates = self.retrieve(&self.slm.embed(&expanded), self.k * 2, span);
                let lexical = slm::EvidenceIndex::from_sentences(
                    candidates
                        .iter()
                        .map(|&(id, _)| self.chunks[id].text.as_str()),
                );
                // lexical pass once for the whole pool (it was previously
                // re-run per candidate, an O(N²) inner loop) …
                let mut lex = vec![0.0f32; candidates.len()];
                for r in lexical.retrieve(question, candidates.len()) {
                    lex[r.id] = r.score as f32;
                }
                // … and the semantic leg against the ORIGINAL question in
                // one gathered-row batched kernel call (the round-2 scores
                // measure similarity to the expanded query, not the one
                // the user asked)
                let ids: Vec<usize> = candidates.iter().map(|&(id, _)| id).collect();
                let sem = self.index.score_docs(&q_vec, &ids);
                let mut reranked: Vec<(usize, f32)> = ids
                    .iter()
                    .zip(&sem)
                    .zip(&lex)
                    .map(|((&id, &s), &l)| (id, 0.5 * s + 0.5 * l))
                    .collect();
                // total-order comparator: a NaN blended score (zero-vector
                // embedding) ranks deterministically instead of leaking
                // the candidate iteration order
                reranked.sort_by(crate::vector::cmp_hits);
                let candidates = reranked.len();
                reranked.truncate(self.k);
                self.vector_rung(question, &reranked, candidates, span, trace)
            }
            RagMode::Modular => {
                // rung 1: structured KG lookup, when the question mentions
                // a KG entity
                if self.fault(span, FaultPoint::Retrieval) {
                    fall(span, trace, "kg-lookup", "fault injected: retrieval");
                } else if let Some(graph) = self.graph {
                    if let Some(entity) = graph.entity_names().longest_mention(question) {
                        let name = graph.display_name(entity);
                        let program = format!("Search(\"{name}\")");
                        span.set("search_program", program.as_str());
                        let mut context = Vec::new();
                        for (p, o) in graph.outgoing(entity) {
                            let Some(p_iri) = graph.resolve(p).as_iri() else {
                                continue;
                            };
                            if !p_iri.starts_with(ns::SYNTH_VOCAB) {
                                continue;
                            }
                            let obj = match graph.resolve(o) {
                                kg::Term::Literal(l) => l.lexical.clone(),
                                _ => graph.display_name(o),
                            };
                            context.push(format!(
                                "{} {} {}",
                                name,
                                ns::humanize(ns::local_name(p_iri)),
                                obj
                            ));
                        }
                        let context_chars = context.iter().map(String::len).sum();
                        let a = self.slm.answer(question, &context);
                        // When the LM abstains over non-empty facts, serve
                        // the facts themselves (template QA) rather than
                        // falling: the lookup did find structured knowledge.
                        let text = if a.text.is_empty() {
                            context.join(". ")
                        } else {
                            a.text
                        };
                        if text.is_empty() {
                            fall(span, trace, "kg-lookup", "no facts for entity");
                        } else {
                            trace.serve("kg-lookup");
                            return RagAnswer {
                                text,
                                retrieved: Vec::new(),
                                candidates: context.len(),
                                context_chars,
                                hallucinated: a.hallucinated,
                                confidence: a.confidence,
                                module: "kg-lookup",
                                search_program: Some(program),
                                degradation: DegradationTrace::new(),
                            };
                        }
                    } else {
                        fall(span, trace, "kg-lookup", "no KG entity mentioned");
                    }
                } else {
                    fall(span, trace, "kg-lookup", "no KG attached");
                }
                // rung 2: vector retrieval
                if self.fault(span, FaultPoint::Exec) {
                    fall(span, trace, "vector", "fault injected: exec");
                    return self.closed_book_rung(question, span, trace);
                }
                let hits = self.retrieve(&self.slm.embed(question), self.k, span);
                let candidates = hits.len();
                self.vector_rung(question, &hits, candidates, span, trace)
            }
        }
    }

    /// Exact top-`k` chunks for one query embedding.
    fn retrieve(&self, query: &[f32], k: usize, span: &obs::Span) -> Vec<Hit> {
        self.index.search(query, k, span).0
    }

    /// The vector-retrieval rung: generate over the retrieved chunks,
    /// falling to closed-book if the LM abstains.
    fn vector_rung(
        &self,
        question: &str,
        hits: &[(usize, f32)],
        candidates: usize,
        span: &obs::Span,
        trace: &mut DegradationTrace,
    ) -> RagAnswer {
        let a = self.answer_with_chunks(question, hits, candidates, "vector", None);
        if a.text.is_empty() {
            fall(span, trace, "vector", "abstained");
            return self.closed_book_rung(question, span, trace);
        }
        trace.serve("vector");
        a
    }

    /// Rungs 3 and 4 of the degradation ladder: closed-book generation,
    /// then a diagnostic apology naming every failed rung.
    fn closed_book_rung(
        &self,
        question: &str,
        span: &obs::Span,
        trace: &mut DegradationTrace,
    ) -> RagAnswer {
        if self.fault(span, FaultPoint::Generation) {
            fall(span, trace, "closed-book", "fault injected: generation");
            return self.apology_rung(span, trace);
        }
        let a = self.slm.answer(question, &[]);
        if a.text.is_empty() {
            fall(span, trace, "closed-book", "abstained");
            return self.apology_rung(span, trace);
        }
        trace.serve("closed-book");
        RagAnswer {
            text: a.text,
            retrieved: Vec::new(),
            candidates: 0,
            context_chars: 0,
            hallucinated: a.hallucinated,
            confidence: a.confidence,
            module: "parametric",
            search_program: None,
            degradation: DegradationTrace::new(),
        }
    }

    /// The bottom rung: a diagnostic apology naming every failed rung.
    fn apology_rung(&self, span: &obs::Span, trace: &mut DegradationTrace) -> RagAnswer {
        trace.serve("apology");
        span.count("rag.apologies", 1);
        RagAnswer {
            text: format!(
                "Sorry — I could not answer that. Attempts: {}.",
                trace.render()
            ),
            retrieved: Vec::new(),
            candidates: 0,
            context_chars: 0,
            hallucinated: false,
            confidence: 0.0,
            module: "apology",
            search_program: None,
            degradation: DegradationTrace::new(),
        }
    }

    /// Consult the fault injector, counting injected faults.
    fn fault(&self, span: &obs::Span, point: FaultPoint) -> bool {
        if self.faults.should_fail(point) {
            span.count("resilience.faults_injected", 1);
            true
        } else {
            false
        }
    }

    fn answer_with_chunks(
        &self,
        question: &str,
        hits: &[(usize, f32)],
        candidates: usize,
        module: &'static str,
        search_program: Option<String>,
    ) -> RagAnswer {
        let context: Vec<String> = hits
            .iter()
            .map(|&(id, _)| self.chunks[id].text.clone())
            .collect();
        let context_chars = context.iter().map(String::len).sum();
        let a = self.slm.answer(question, &context);
        RagAnswer {
            text: a.text,
            retrieved: hits.iter().map(|&(id, _)| id).collect(),
            candidates,
            context_chars,
            hallucinated: a.hallucinated,
            confidence: a.confidence,
            module,
            search_program,
            degradation: DegradationTrace::new(),
        }
    }
}

/// Record one ladder fall: append it to the trace and bump the
/// `resilience.*` fallback counters.
fn fall(
    span: &obs::Span,
    trace: &mut DegradationTrace,
    rung: &'static str,
    reason: impl Into<String>,
) {
    span.count("resilience.fallbacks", 1);
    span.count(&format!("resilience.fallback.{rung}"), 1);
    trace.fall(rung, reason);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::chunk_sentences;
    use kg::synth::{movies, Scale};
    use kgextract::testgen::{corpus_sentences, entity_surface_forms};

    struct Fixture {
        kg: kg::synth::SynthKg,
        slm: Slm,
        corpus_text: String,
        question: String,
        gold: String,
    }

    /// The LM's parametric corpus EXCLUDES the documents, so closed-book
    /// answers about corpus facts must hallucinate or abstain — the
    /// measurable setup for "RAG mitigates hallucination".
    fn fixture() -> Fixture {
        let kg = movies(141, Scale::tiny());
        let sentences = corpus_sentences(&kg.graph, &kg.ontology);
        let corpus_text = sentences.join(". ");
        let slm = Slm::builder()
            .corpus(["films are a kind of art", "directors make films"]) // generic only
            .entity_names(entity_surface_forms(&kg.graph).iter().map(String::as_str))
            .hallucinate(true)
            .build();
        // gold: a directedBy fact
        let g = &kg.graph;
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", ns::SYNTH_VOCAB))
            .unwrap();
        let film = g.instances_of(film_class)[0];
        let directed = g
            .pool()
            .get_iri(&format!("{}directedBy", ns::SYNTH_VOCAB))
            .unwrap();
        let director = g.objects(film, directed)[0];
        let question = format!("Who is {} directed by?", g.display_name(film));
        let gold = g.display_name(director);
        Fixture {
            kg,
            slm,
            corpus_text,
            question,
            gold,
        }
    }

    #[test]
    fn closed_book_hallucinates_but_rag_answers_correctly() {
        let f = fixture();
        let chunks = chunk_sentences(&f.corpus_text, 2, 0);
        let rag = RagPipeline::new(&f.slm, chunks, Some(&f.kg.graph));

        let closed = rag.answer(RagMode::ClosedBook, &f.question);
        assert!(
            closed.hallucinated || !closed.text.contains(&f.gold),
            "closed book should not know: {closed:?}"
        );

        for mode in [RagMode::Naive, RagMode::Advanced, RagMode::Modular] {
            let a = rag.answer(mode, &f.question);
            assert!(
                a.text.contains(&f.gold),
                "{} failed: {:?} (gold {})",
                mode.name(),
                a,
                f.gold
            );
            assert!(!a.hallucinated, "{}", mode.name());
        }
    }

    #[test]
    fn modular_routes_entity_questions_to_kg() {
        let f = fixture();
        let chunks = chunk_sentences(&f.corpus_text, 2, 0);
        let rag = RagPipeline::new(&f.slm, chunks, Some(&f.kg.graph));
        let a = rag.answer(RagMode::Modular, &f.question);
        assert_eq!(a.module, "kg-lookup");
        assert!(a
            .search_program
            .as_deref()
            .unwrap_or("")
            .starts_with("Search("));
    }

    #[test]
    fn modular_without_entity_falls_back_to_vector() {
        let f = fixture();
        let chunks = chunk_sentences(&f.corpus_text, 2, 0);
        let rag = RagPipeline::new(&f.slm, chunks, Some(&f.kg.graph));
        let a = rag.answer(RagMode::Modular, "what do directors do?");
        assert_eq!(a.module, "vector");
    }

    #[test]
    fn observed_answer_records_retrieval_span_and_counters() {
        let f = fixture();
        let chunks = chunk_sentences(&f.corpus_text, 2, 0);
        let rag = RagPipeline::new(&f.slm, chunks, Some(&f.kg.graph));
        let (tracer, recorder) = obs::Tracer::in_memory();
        let root = tracer.span("test");
        let a = rag.answer_observed(RagMode::Naive, &f.question, &root);
        root.finish();
        let span = recorder.take().pop().expect("root span recorded");
        let rag_span = span.find("rag.answer").expect("rag.answer child");
        assert_eq!(
            rag_span.attr("mode").and_then(obs::AttrValue::as_str),
            Some("naive-rag")
        );
        assert_eq!(
            rag_span.attr_u64("retrieved"),
            Some(a.retrieved.len() as u64)
        );
        assert!(rag_span.attr_u64("candidates").unwrap() >= a.retrieved.len() as u64);
        assert!(rag_span.attr_u64("context_chars").unwrap() > 0);
        assert_eq!(
            a.context_chars,
            rag_span.attr_u64("context_chars").unwrap() as usize
        );
        assert_eq!(tracer.registry().counter("rag.answers"), 1);
        assert_eq!(
            tracer.registry().counter("rag.chunks_injected"),
            a.retrieved.len() as u64
        );
        assert!(tracer.registry().counter("rag.context_chars") > 0);
    }

    #[test]
    fn candidates_and_context_sizes_are_populated_per_mode() {
        let f = fixture();
        let chunks = chunk_sentences(&f.corpus_text, 2, 0);
        let rag = RagPipeline::new(&f.slm, chunks, Some(&f.kg.graph));
        let closed = rag.answer(RagMode::ClosedBook, &f.question);
        assert_eq!((closed.candidates, closed.context_chars), (0, 0));
        let advanced = rag.answer(RagMode::Advanced, &f.question);
        // reranking considered up to 2k candidates, kept at most k
        assert!(advanced.candidates >= advanced.retrieved.len());
        assert!(advanced.context_chars > 0);
        let modular = rag.answer(RagMode::Modular, &f.question);
        assert_eq!(modular.module, "kg-lookup");
        assert!(modular.candidates > 0, "KG facts count as candidates");
        assert!(modular.context_chars > 0);
    }

    #[test]
    fn advanced_rerank_orders_by_blend_against_original_question() {
        let f = fixture();
        let chunks = chunk_sentences(&f.corpus_text, 2, 0);
        let rag = RagPipeline::new(&f.slm, chunks, Some(&f.kg.graph));
        let a = rag.answer(RagMode::Advanced, &f.question);
        assert_eq!(a.module, "vector");
        assert!(a.text.contains(&f.gold), "{a:?}");
        // the kept set is a subset of the candidate pool, ranked
        assert!(a.retrieved.len() <= rag.k);
        assert!(a.candidates >= a.retrieved.len());
    }

    #[test]
    fn naive_retrieves_k_chunks() {
        let f = fixture();
        let chunks = chunk_sentences(&f.corpus_text, 2, 0);
        let n = chunks.len();
        let rag = RagPipeline::new(&f.slm, chunks, None);
        let a = rag.answer(RagMode::Naive, &f.question);
        assert!(a.retrieved.len() <= 4);
        assert!(a.retrieved.iter().all(|&id| id < n));
    }
}
