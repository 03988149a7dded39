//! The [`Workbench`]: one object wiring a KG, a simulated LLM trained on
//! its verbalization, and every interplay engine of the paper.

use crate::profile::{
    AnswerProfile, ExecutorProfile, GenerationProfile, ResilienceProfile, RetrievalProfile,
};
use kg::synth::{academic, biomed, geo, movies, Scale, SynthKg};
use kg::Graph;
use kgqa::chatbot::{ChatBot, RouterDecision};
use kgqa::hybrid::HybridExecutor;
use kgqa::text2sparql::TextToSparql;
use kgquery::exec::{self, ExecOptions};
use kgquery::{execute_sparql_with, QueryError, ResultSet};
use kgrag::{GraphRag, RagMode, RagPipeline};
use slm::Slm;

/// Which synthetic domain to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Films / actors / directors (the classic KGQA domain).
    Movies,
    /// Universities / researchers / papers.
    Academic,
    /// Countries / cities / rivers.
    Geo,
    /// Diseases / drugs / genes.
    Biomed,
}

impl Domain {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Movies => "movies",
            Domain::Academic => "academic",
            Domain::Geo => "geo",
            Domain::Biomed => "biomed",
        }
    }
}

/// Workbench configuration.
#[derive(Debug, Clone)]
pub struct WorkbenchConfig {
    /// The synthetic domain.
    pub domain: Domain,
    /// Seed for KG generation and all downstream stochastic components.
    pub seed: u64,
    /// KG scale (entities per class).
    pub entities_per_class: usize,
    /// Whether the LM fabricates answers without evidence.
    pub hallucinate: bool,
}

impl Default for WorkbenchConfig {
    fn default() -> Self {
        WorkbenchConfig {
            domain: Domain::Movies,
            seed: 42,
            entities_per_class: 40,
            hallucinate: false,
        }
    }
}

/// The assembled interplay workbench.
pub struct Workbench {
    /// The knowledge graph + its ontology.
    pub kg: SynthKg,
    /// The simulated LLM, trained on the KG's verbalized triples.
    pub slm: Slm,
    /// The verbalized corpus the LM was trained on.
    pub corpus: Vec<String>,
    /// Shared prepared-query plan cache: every chatbot session this
    /// workbench spawns prepares its templated queries through it, so
    /// repeated question shapes are planned once across sessions.
    pub plan_cache: std::sync::Arc<kgquery::PlanCache>,
}

impl Workbench {
    /// Build: generate the KG, verbalize it, train the LM on the
    /// verbalization, register all entity names.
    pub fn build(config: &WorkbenchConfig) -> Self {
        let scale = Scale {
            entities_per_class: config.entities_per_class,
        };
        let kg = match config.domain {
            Domain::Movies => movies(config.seed, scale),
            Domain::Academic => academic(config.seed, scale),
            Domain::Geo => geo(config.seed, scale),
            Domain::Biomed => biomed(config.seed, scale),
        };
        let corpus = kgextract::testgen::corpus_sentences(&kg.graph, &kg.ontology);
        let names = kgextract::testgen::entity_surface_forms(&kg.graph);
        let slm = Slm::builder()
            .corpus(corpus.iter().map(String::as_str))
            .entity_names(names.iter().map(String::as_str))
            .hallucinate(config.hallucinate)
            .seed(config.seed)
            .build();
        Workbench {
            kg,
            slm,
            corpus,
            plan_cache: std::sync::Arc::new(kgquery::PlanCache::default()),
        }
    }

    /// The instance graph.
    pub fn graph(&self) -> &Graph {
        &self.kg.graph
    }

    /// Run a SPARQL query. The result carries the executor's work
    /// counters (patterns scanned, index probes, intermediate bindings,
    /// path-cache hits, merge joins) — the workbench's lightweight
    /// profiling surface.
    ///
    /// ```
    /// use llmkg::{Workbench, WorkbenchConfig};
    ///
    /// let wb = Workbench::build(&WorkbenchConfig::default());
    /// let stats = wb
    ///     .sparql(
    ///         "PREFIX v: <http://llmkg.dev/vocab/>
    ///          SELECT ?film ?who WHERE { ?film v:directedBy ?who }",
    ///     )
    ///     .unwrap()
    ///     .stats;
    /// assert!(stats.index_probes > 0);
    /// assert!(stats.intermediate_bindings > 0);
    /// ```
    pub fn sparql(&self, query: &str) -> Result<ResultSet<'_>, QueryError> {
        execute_sparql_with(&self.kg.graph, query, &ExecOptions::default())
    }

    /// Run a Cypher-lite query.
    pub fn cypher(&self, query: &str) -> Result<ResultSet<'_>, QueryError> {
        let query = kgquery::cypher::parse(query)?;
        exec::execute(
            &self.kg.graph,
            &query,
            &ExecOptions::default(),
            &obs::Span::disabled(),
        )
    }

    /// Answer a natural-language question via text-to-SPARQL + execution
    /// (the cooperation pipeline); falls back to LM answering.
    pub fn ask(&self, question: &str) -> String {
        let t2s = TextToSparql::new(&self.kg.graph, &self.slm);
        if let Some(q) = t2s.generate(kgqa::Text2SparqlMethod::SgptSim, question) {
            if let Ok(rs) = self.sparql(&q) {
                let names: Vec<String> = rs
                    .values("answer")
                    .iter()
                    .map(|t| self.kg.graph.display_term(t))
                    .collect();
                if !names.is_empty() {
                    return names.join(", ");
                }
            }
        }
        let a = self.slm.answer(question, &[]);
        if a.is_answered() {
            a.text
        } else {
            "unknown".to_string()
        }
    }

    /// Verify a claim against the LM's knowledge (fact-checking surface).
    pub fn verify(&self, claim: &str) -> slm::VerdictLabel {
        self.slm.verify(claim, &[]).label
    }

    /// Describe an entity by name (KG-to-text surface).
    pub fn describe(&self, entity_name: &str) -> Option<String> {
        let g = &self.kg.graph;
        let entity = g
            .entities()
            .into_iter()
            .find(|&e| g.display_name(e).eq_ignore_ascii_case(entity_name))?;
        Some(kgtext::generate::describe_entity(
            g,
            &self.kg.ontology,
            &self.slm,
            kgtext::GenMethod::Template,
            entity,
            &[],
        ))
    }

    /// Start a chatbot session over this workbench. Sessions share the
    /// workbench's [`kgquery::PlanCache`], so the second session asking a
    /// question shape the first already asked skips planning entirely.
    pub fn chatbot(&self) -> ChatBot<'_> {
        ChatBot::new(&self.kg.graph, &self.slm)
            .with_plan_cache(std::sync::Arc::clone(&self.plan_cache))
    }

    /// Build a RAG pipeline over this workbench's verbalized corpus,
    /// with the KG attached for structured lookup.
    pub fn rag(&self) -> RagPipeline<'_> {
        // The verbalizer emits sentences without terminal punctuation;
        // join with ". " so the chunker sees sentence boundaries instead
        // of one corpus-sized chunk (which made retrieval degenerate).
        let chunks = kgrag::chunk_sentences(&self.corpus.join(". "), 3, 1);
        RagPipeline::new(&self.slm, chunks, Some(&self.kg.graph))
    }

    /// Answer a question through the chatbot path under a fresh tracer
    /// and return the end-to-end [`AnswerProfile`]: route, rows, merged
    /// executor counters, generation outcome, plus the raw span tree and
    /// counter snapshot.
    ///
    /// ```
    /// use llmkg::{Workbench, WorkbenchConfig};
    ///
    /// let wb = Workbench::build(&WorkbenchConfig::default());
    /// let film = wb.graph().display_name(wb.graph().entities()[0]);
    /// let profile = wb.profile_answer(&format!("Who directed {film}?"));
    /// assert_eq!(profile.path, "chatbot");
    /// assert!(profile.wall_ns > 0);
    /// assert_eq!(profile.counters.counter("chatbot.turns"), 1);
    /// ```
    pub fn profile_answer(&self, question: &str) -> AnswerProfile {
        let (tracer, recorder) = obs::Tracer::in_memory();
        let reply = {
            let root = tracer.span("answer.chatbot");
            let mut bot = self.chatbot();
            bot.handle_observed(question, &root)
        };
        let spans = recorder.take();
        let counters = tracer.registry().snapshot();
        let route = reply.decision.label();
        let grounded = matches!(
            reply.decision,
            RouterDecision::KgQuery | RouterDecision::EntityLookup
        );
        AnswerProfile {
            question: question.to_string(),
            path: "chatbot".to_string(),
            route: route.to_string(),
            wall_ns: spans.first().map(|s| s.elapsed_ns).unwrap_or(0),
            retrieval: RetrievalProfile {
                // On the KG route the graph is the retriever: the rows the
                // query returned are both candidates and injected context.
                module: route.to_string(),
                candidates: reply.rows,
                retrieved: reply.rows,
                context_chars: if grounded { reply.text.len() } else { 0 },
                vectors_scanned: counters.counter("retrieval.vectors_scanned"),
                heap_pushes: counters.counter("retrieval.heap_pushes"),
            },
            executor: ExecutorProfile {
                queries_issued: counters.counter("exec.queries") as usize,
                rows: reply.rows,
                stats: reply.exec,
            },
            generation: GenerationProfile {
                answered: !reply.text.is_empty(),
                hallucinated: false,
                confidence: if grounded && reply.rows > 0 { 1.0 } else { 0.0 },
                answer_chars: reply.text.len(),
            },
            resilience: ResilienceProfile {
                degraded: reply.degradation.degraded(),
                degradation: if reply.degradation.degraded() {
                    reply.degradation.render()
                } else {
                    String::new()
                },
                fallbacks: reply.degradation.falls(),
                faults_injected: counters.counter("resilience.faults_injected"),
            },
            answer: reply.text,
            counters,
            spans,
        }
    }

    /// Answer a question through the RAG path (over the verbalized
    /// corpus, KG attached) under a fresh tracer and return the
    /// end-to-end [`AnswerProfile`]. The executor section is all-zero
    /// here — RAG retrieval probes the vector index or the KG's fact
    /// store directly, never the SPARQL executor.
    pub fn profile_rag_answer(&self, mode: RagMode, question: &str) -> AnswerProfile {
        let pipeline = self.rag();
        let (tracer, recorder) = obs::Tracer::in_memory();
        let answer = {
            let root = tracer.span("answer.rag");
            pipeline.answer_observed(mode, question, &root)
        };
        let spans = recorder.take();
        let counters = tracer.registry().snapshot();
        AnswerProfile {
            question: question.to_string(),
            path: "rag".to_string(),
            route: answer.module.to_string(),
            wall_ns: spans.first().map(|s| s.elapsed_ns).unwrap_or(0),
            retrieval: RetrievalProfile {
                module: answer.module.to_string(),
                candidates: answer.candidates,
                retrieved: answer.retrieved.len(),
                context_chars: answer.context_chars,
                vectors_scanned: counters.counter("retrieval.vectors_scanned"),
                heap_pushes: counters.counter("retrieval.heap_pushes"),
            },
            executor: ExecutorProfile::default(),
            generation: GenerationProfile {
                answered: !answer.text.is_empty(),
                hallucinated: answer.hallucinated,
                confidence: answer.confidence,
                answer_chars: answer.text.len(),
            },
            resilience: ResilienceProfile {
                degraded: answer.degradation.degraded(),
                degradation: if answer.degradation.degraded() {
                    answer.degradation.render()
                } else {
                    String::new()
                },
                fallbacks: answer.degradation.falls(),
                faults_injected: counters.counter("resilience.faults_injected"),
            },
            answer: answer.text,
            counters,
            spans,
        }
    }

    /// Run a SPARQL query through the hybrid executor (virtual predicates
    /// answered by the LM, the rest by the store — see
    /// [`kgqa::HybridExecutor`]) under a fresh tracer and return the
    /// end-to-end [`AnswerProfile`]. The retrieval section accounts the
    /// LM side (`candidates` = LLM calls, `retrieved` = surviving rows);
    /// the executor section carries the store side's `exec.*` counters.
    pub fn profile_hybrid_answer(
        &self,
        sparql: &str,
        virtual_preds: impl IntoIterator<Item = String>,
    ) -> Result<AnswerProfile, QueryError> {
        let exec = HybridExecutor::new(
            &self.kg.graph,
            &self.slm,
            virtual_preds.into_iter().collect(),
        );
        let (tracer, recorder) = obs::Tracer::in_memory();
        let result = {
            let root = tracer.span("answer.hybrid");
            exec.execute(sparql, &root)
        };
        let (rs, stats) = result?;
        let spans = recorder.take();
        let counters = tracer.registry().snapshot();
        let answer = rs
            .rows()
            .flat_map(|row| row.iter())
            .flatten()
            .map(|t| self.kg.graph.display_term(t))
            .collect::<Vec<_>>()
            .join(", ");
        Ok(AnswerProfile {
            question: sparql.to_string(),
            path: "hybrid".to_string(),
            route: if stats.llm_calls > 0 {
                "store+llm".to_string()
            } else {
                "store".to_string()
            },
            wall_ns: spans.first().map(|s| s.elapsed_ns).unwrap_or(0),
            retrieval: RetrievalProfile {
                module: "hybrid".to_string(),
                candidates: stats.llm_calls,
                retrieved: rs.len(),
                context_chars: answer.len(),
                vectors_scanned: counters.counter("retrieval.vectors_scanned"),
                heap_pushes: counters.counter("retrieval.heap_pushes"),
            },
            executor: ExecutorProfile {
                queries_issued: counters.counter("exec.queries") as usize,
                rows: rs.len(),
                stats: kgquery::ExecStats {
                    patterns_scanned: counters.counter("exec.patterns_scanned") as usize,
                    index_probes: counters.counter("exec.index_probes") as usize,
                    intermediate_bindings: counters.counter("exec.intermediate_bindings") as usize,
                    path_cache_hits: counters.counter("exec.path_cache_hits") as usize,
                    merge_joins: counters.counter("exec.merge_joins") as usize,
                },
            },
            generation: GenerationProfile {
                answered: !rs.is_empty(),
                hallucinated: false,
                confidence: if stats.llm_misses == 0 { 1.0 } else { 0.0 },
                answer_chars: answer.len(),
            },
            resilience: ResilienceProfile {
                degraded: stats.llm_misses > 0,
                degradation: if stats.llm_misses > 0 {
                    format!("{} virtual bindings unanswered by the LM", stats.llm_misses)
                } else {
                    String::new()
                },
                fallbacks: stats.llm_misses,
                faults_injected: counters.counter("resilience.faults_injected"),
            },
            answer,
            counters,
            spans,
        })
    }

    /// Build the Graph RAG engine over this KG.
    pub fn graph_rag(&self) -> GraphRag<'_> {
        GraphRag::build(&self.kg.graph, &self.slm)
    }

    /// Validate the KG against its own ontology (inconsistency surface).
    pub fn validate(&self) -> Vec<kgvalidate::Violation> {
        kgvalidate::detect_violations(&self.kg.graph, &self.kg.ontology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wb() -> Workbench {
        Workbench::build(&WorkbenchConfig {
            entities_per_class: 10,
            ..Default::default()
        })
    }

    #[test]
    fn workbench_builds_all_parts() {
        let w = wb();
        assert!(w.graph().len() > 50);
        assert!(!w.corpus.is_empty());
        assert!(w.slm.knowledge().len() == w.corpus.len());
    }

    #[test]
    fn sparql_and_cypher_work() {
        let w = wb();
        let rs = w
            .sparql("PREFIX v: <http://llmkg.dev/vocab/> SELECT ?f WHERE { ?f a v:Film }")
            .unwrap();
        assert!(!rs.is_empty());
        let rc = w.cypher("MATCH (f:Film) RETURN f").unwrap();
        assert_eq!(rs.len(), rc.len());
    }

    #[test]
    fn profile_reports_executor_work() {
        let w = wb();
        let stats = w
            .sparql(
                "PREFIX v: <http://llmkg.dev/vocab/> \
                 SELECT ?f ?d WHERE { ?f a v:Film . ?f v:directedBy ?d }",
            )
            .unwrap()
            .stats;
        assert_eq!(stats.patterns_scanned, 2);
        assert!(stats.index_probes >= 2, "{stats:?}");
        assert!(stats.intermediate_bindings > 0, "{stats:?}");
    }

    #[test]
    fn ask_answers_entity_questions() {
        let w = wb();
        let g = w.graph();
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let film = g.instances_of(film_class)[0];
        let directed = g
            .pool()
            .get_iri(&format!("{}directedBy", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let director = g.objects(film, directed)[0];
        let answer = w.ask(&format!("What is {} directed by?", g.display_name(film)));
        assert!(answer.contains(&g.display_name(director)), "{answer}");
    }

    #[test]
    fn verify_and_describe_and_validate() {
        let w = wb();
        assert_eq!(w.verify(&w.corpus[0]), slm::VerdictLabel::Supported);
        let g = w.graph();
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let film = g.instances_of(film_class)[0];
        let desc = w.describe(&g.display_name(film)).expect("describable");
        assert!(desc.contains("directed by"));
        assert!(w.validate().is_empty(), "clean KG validates clean");
        assert!(w.describe("no such entity zzz").is_none());
    }

    #[test]
    fn chatbot_sessions_share_the_workbench_plan_cache() {
        let w = wb();
        let g = w.graph();
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let films = g.instances_of(film_class);
        for film in films.iter().take(3) {
            let mut bot = w.chatbot();
            bot.handle(&format!("What is {} directed by?", g.display_name(*film)));
        }
        let stats = w.plan_cache.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert!(stats.hits >= 2, "{stats:?}");
    }

    #[test]
    fn all_domains_build() {
        for domain in [
            Domain::Movies,
            Domain::Academic,
            Domain::Geo,
            Domain::Biomed,
        ] {
            let w = Workbench::build(&WorkbenchConfig {
                domain,
                entities_per_class: 8,
                ..Default::default()
            });
            assert!(w.graph().len() > 30, "{}", domain.name());
        }
    }
}
