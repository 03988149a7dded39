//! Query generation from natural text (§4.1.3, RQ6): NL → SPARQL.

use std::collections::HashSet;

use kg::term::Sym;
use kg::Graph;
use kgextract::align::EntityLinker;
use kgquery::exec::ExecOptions;
use kgquery::execute_sparql_with;
use slm::Slm;

use crate::datasets::{rel_phrase, QaItem};

/// The three generation strategies compared in experiment E13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Text2SparqlMethod {
    /// SGPT-sim \[71\]: grammar-constrained generation — link the anchor,
    /// detect relation phrases in the question, order them into a
    /// property path by their position relative to the anchor mention.
    SgptSim,
    /// SPARQLGEN-sim \[51\]: one-shot — copy the structure (hop count) of
    /// a single example query and fill the slots by embedding similarity.
    SparqlGenSim,
    /// SPARQLGEN-sim plus subgraph context \[69\]: candidate relations are
    /// restricted to those actually present around the linked anchor.
    RetrievalEnhanced,
}

impl Text2SparqlMethod {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Text2SparqlMethod::SgptSim => "sgpt-sim",
            Text2SparqlMethod::SparqlGenSim => "sparqlgen-sim",
            Text2SparqlMethod::RetrievalEnhanced => "retrieval-enhanced",
        }
    }

    /// All methods.
    pub fn all() -> [Text2SparqlMethod; 3] {
        [
            Text2SparqlMethod::SgptSim,
            Text2SparqlMethod::SparqlGenSim,
            Text2SparqlMethod::RetrievalEnhanced,
        ]
    }
}

/// A generated query with the linked anchor factored out as a bindable
/// parameter, so repeated questions over the same relation chain share
/// one plan-cache entry instead of compiling a fresh query per anchor.
///
/// [`SparqlTemplate::text`] is the parameterized form (anchor as
/// `?anchor`, suitable for [`kgquery::PlanCache::prepare_with_params`]),
/// [`SparqlTemplate::inline`] is the classic fully-inlined query —
/// byte-identical to what [`TextToSparql::generate`] returns — and
/// [`SparqlTemplate::values_form`] is the textual `VALUES`-injected
/// equivalent used by differential tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlTemplate {
    /// Rendered property path (`<p1>/<p2>/…`) between anchor and answer.
    path: String,
    /// IRI of the linked anchor entity.
    anchor_iri: String,
}

impl SparqlTemplate {
    /// Name of the bindable anchor variable in [`SparqlTemplate::text`].
    pub const ANCHOR_VAR: &'static str = "anchor";

    /// Parameterized query text: `SELECT ?answer WHERE { ?anchor <p…> ?answer }`.
    pub fn text(&self) -> String {
        format!("SELECT ?answer WHERE {{ ?anchor {} ?answer }}", self.path)
    }

    /// Fully-inlined query text (anchor IRI substituted in place).
    pub fn inline(&self) -> String {
        format!(
            "SELECT ?answer WHERE {{ <{}> {} ?answer }}",
            self.anchor_iri, self.path
        )
    }

    /// Textual `VALUES`-injection equivalent of binding the anchor.
    pub fn values_form(&self) -> String {
        format!(
            "SELECT ?answer WHERE {{ VALUES ?anchor {{ <{}> }} ?anchor {} ?answer }}",
            self.anchor_iri, self.path
        )
    }

    /// The anchor as a bindable [`kg::Term`].
    pub fn anchor_term(&self) -> kg::Term {
        kg::Term::iri(self.anchor_iri.clone())
    }

    /// IRI of the linked anchor entity.
    pub fn anchor_iri(&self) -> &str {
        &self.anchor_iri
    }
}

/// The NL → SPARQL generator.
pub struct TextToSparql<'a> {
    graph: &'a Graph,
    slm: &'a Slm,
    linker: EntityLinker<'a>,
    /// `(relation, phrase)` inventory.
    relations: Vec<(Sym, String)>,
    /// The one-shot example for SPARQLGEN-sim: `(question, sparql, hops)`.
    pub example: Option<(String, String, usize)>,
}

impl<'a> TextToSparql<'a> {
    /// Build over a graph and LM.
    pub fn new(graph: &'a Graph, slm: &'a Slm) -> Self {
        let relations: Vec<(Sym, String)> = graph
            .predicates()
            .into_iter()
            .map(|(p, _)| p)
            .filter(|&p| {
                graph
                    .resolve(p)
                    .as_iri()
                    .is_some_and(|i| i.starts_with(kg::namespace::SYNTH_VOCAB))
            })
            .map(|p| (p, rel_phrase(graph, p)))
            .collect();
        TextToSparql {
            graph,
            slm,
            linker: EntityLinker::new(graph),
            relations,
            example: None,
        }
    }

    /// Provide the one-shot demonstration.
    pub fn with_example(mut self, question: &str, sparql: &str, hops: usize) -> Self {
        self.example = Some((question.to_string(), sparql.to_string(), hops));
        self
    }

    /// Generate SPARQL for a question, or `None` when no anchor links.
    pub fn generate(&self, method: Text2SparqlMethod, question: &str) -> Option<String> {
        self.generate_template(method, question, &obs::Span::disabled())
            .map(|t| t.inline())
    }

    /// Generate the parameterized form of a question's query, or `None`
    /// when no anchor links. `template.inline()` reproduces exactly what
    /// [`TextToSparql::generate`] returns for the same inputs.
    ///
    /// Under an enabled `parent`, a `t2s.generate` child records the
    /// method, whether a query came out, and its size; `t2s.*` counters
    /// accumulate generation attempts.
    pub fn generate_template(
        &self,
        method: Text2SparqlMethod,
        question: &str,
        parent: &obs::Span,
    ) -> Option<SparqlTemplate> {
        let span = parent.child("t2s.generate");
        span.set("method", method.name());
        span.count("t2s.calls", 1);
        let template = self.build_template(method, question);
        span.set("generated", template.is_some());
        match &template {
            Some(t) => {
                if span.enabled() {
                    span.set("sparql_chars", t.inline().len());
                }
                span.count("t2s.generated", 1);
            }
            None => span.count("t2s.misses", 1),
        }
        template
    }

    /// [`TextToSparql::generate_template`]'s work, unobserved.
    fn build_template(&self, method: Text2SparqlMethod, question: &str) -> Option<SparqlTemplate> {
        let anchor = self.link_anchor(question)?;
        let anchor_name = self.graph.display_name(anchor);
        let anchor_iri = self.graph.resolve(anchor).as_iri()?.to_string();
        let chain: Vec<Sym> = match method {
            Text2SparqlMethod::SgptSim => self.phrase_chain(question, &anchor_name),
            Text2SparqlMethod::SparqlGenSim => {
                let hops = self.example.as_ref().map(|(_, _, h)| *h).unwrap_or(1);
                self.similarity_chain(question, hops, None)
            }
            Text2SparqlMethod::RetrievalEnhanced => {
                let hops = self.example.as_ref().map(|(_, _, h)| *h).unwrap_or(1);
                self.similarity_chain(question, hops, Some(anchor))
            }
        };
        if chain.is_empty() {
            return None;
        }
        let path = chain
            .iter()
            .map(|&r| format!("<{}>", self.graph.resolve(r).as_iri().unwrap_or_default()))
            .collect::<Vec<_>>()
            .join("/");
        Some(SparqlTemplate { path, anchor_iri })
    }

    /// The question's anchor entity: the longest entity name occurring
    /// verbatim, else the first capitalized span the fuzzy linker accepts.
    /// Linking is a pure function of the span, so each distinct span is
    /// tried once.
    fn link_anchor(&self, question: &str) -> Option<Sym> {
        if let Some(e) = self.graph.entity_names().longest_mention(question) {
            return Some(e);
        }
        let spans = slm::task::capitalized_spans(question);
        let mut tried = HashSet::new();
        spans
            .iter()
            .filter(|span| tried.insert(span.as_str()))
            .find_map(|span| self.linker.link(span))
            .map(|l| l.entity)
    }

    /// SGPT-sim ordering: relations whose phrase occurs in the question,
    /// ordered by distance from the anchor mention (after-anchor phrases
    /// first, then before-anchor phrases right-to-left — matching how the
    /// question templates nest hops).
    fn phrase_chain(&self, question: &str, anchor_name: &str) -> Vec<Sym> {
        let lower = question.to_lowercase();
        let anchor_pos = lower.find(&anchor_name.to_lowercase()).unwrap_or(0);
        let mut after: Vec<(usize, Sym)> = Vec::new();
        let mut before: Vec<(usize, Sym)> = Vec::new();
        for (r, phrase) in &self.relations {
            if let Some(pos) = lower.find(&phrase.to_lowercase()) {
                if pos >= anchor_pos {
                    after.push((pos, *r));
                } else {
                    before.push((pos, *r));
                }
            }
        }
        after.sort_by_key(|&(pos, _)| pos);
        before.sort_by_key(|&(pos, _)| std::cmp::Reverse(pos));
        after.into_iter().chain(before).map(|(_, r)| r).collect()
    }

    /// SPARQLGEN-sim slot filling: pick the `hops` most question-similar
    /// relations; with an anchor, restrict to relations reachable in a
    /// forward walk (the subgraph-context enhancement).
    fn similarity_chain(&self, question: &str, hops: usize, anchor: Option<Sym>) -> Vec<Sym> {
        let mut chain = Vec::new();
        let mut frontier: Vec<Sym> = anchor.into_iter().collect();
        for _ in 0..hops.max(1) {
            let candidates: Vec<(Sym, &str)> = match (&anchor, frontier.is_empty()) {
                (Some(_), false) => {
                    let mut reachable = Vec::new();
                    for &n in &frontier {
                        for (p, o) in self.graph.outgoing(n) {
                            if self.graph.resolve(o).is_iri()
                                && self.relations.iter().any(|(r, _)| *r == p)
                                && !reachable.iter().any(|&(r, _)| r == p)
                            {
                                let phrase = self
                                    .relations
                                    .iter()
                                    .find(|(r, _)| *r == p)
                                    .map(|(_, s)| s.as_str())
                                    .unwrap_or("");
                                reachable.push((p, phrase));
                            }
                        }
                    }
                    reachable
                }
                _ => self
                    .relations
                    .iter()
                    .map(|(r, s)| (*r, s.as_str()))
                    .collect(),
            };
            let best = candidates.into_iter().max_by(|a, b| {
                let sa = self.slm.similarity(question, a.1);
                let sb = self.slm.similarity(question, b.1);
                sa.partial_cmp(&sb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.0.cmp(&a.0))
            });
            let Some((r, _)) = best else { break };
            chain.push(r);
            // advance the frontier for subgraph-restricted mode
            if anchor.is_some() {
                let mut next = Vec::new();
                for &n in &frontier {
                    next.extend(
                        self.graph
                            .objects(n, r)
                            .into_iter()
                            .filter(|&o| self.graph.resolve(o).is_iri()),
                    );
                }
                frontier = next;
            }
        }
        chain
    }
}

/// Normalized exact-match between two SPARQL strings.
pub fn exact_match(a: &str, b: &str) -> bool {
    let norm = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    norm(a) == norm(b)
}

/// Execution accuracy: both queries run and return identical answer sets.
pub fn execution_match(graph: &Graph, generated: &str, gold: &str) -> bool {
    let run = |q| execute_sparql_with(graph, q, &ExecOptions::default());
    let (Ok(a), Ok(b)) = (run(generated), run(gold)) else {
        return false;
    };
    let answers = |rs: &kgquery::ResultSet| -> Vec<String> {
        let mut v: Vec<String> = rs.values("answer").iter().map(|t| format!("{t}")).collect();
        v.sort();
        v.dedup();
        v
    };
    answers(&a) == answers(&b)
}

/// Evaluate a method over QA items: returns `(exact-match rate,
/// execution-accuracy rate)`.
pub fn evaluate(
    t2s: &TextToSparql<'_>,
    graph: &Graph,
    method: Text2SparqlMethod,
    items: &[QaItem],
) -> (f64, f64) {
    if items.is_empty() {
        return (0.0, 0.0);
    }
    let mut exact = 0usize;
    let mut exec = 0usize;
    for item in items {
        if let Some(q) = t2s.generate(method, &item.question) {
            if exact_match(&q, &item.sparql) {
                exact += 1;
            }
            if execution_match(graph, &q, &item.sparql) {
                exec += 1;
            }
        }
    }
    (
        exact as f64 / items.len() as f64,
        exec as f64 / items.len() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::generate_dataset;
    use kg::synth::{movies, Scale};
    use kgextract::testgen::{corpus_sentences, entity_surface_forms};

    fn fixture() -> (kg::synth::SynthKg, Slm, Vec<QaItem>) {
        let kg = movies(191, Scale::default());
        let corpus = corpus_sentences(&kg.graph, &kg.ontology);
        let slm = Slm::builder()
            .corpus(corpus.iter().map(String::as_str))
            .entity_names(entity_surface_forms(&kg.graph).iter().map(String::as_str))
            .build();
        let items = generate_dataset(&kg.graph, 9, 6, 2);
        (kg, slm, items)
    }

    #[test]
    fn sgpt_sim_reconstructs_gold_queries_on_one_hop() {
        let (kg, slm, items) = fixture();
        let t2s = TextToSparql::new(&kg.graph, &slm);
        let one_hop: Vec<QaItem> = items.iter().filter(|i| i.hops == 1).cloned().collect();
        let (exact, exec) = evaluate(&t2s, &kg.graph, Text2SparqlMethod::SgptSim, &one_hop);
        assert!(exact > 0.7, "1-hop exact match {exact}");
        assert!(exec >= exact, "execution accuracy {exec} < exact {exact}");
    }

    #[test]
    fn subgraph_context_improves_over_blind_oneshot() {
        // the SPARQLGEN-improvement claim of [69]
        let (kg, slm, items) = fixture();
        let example = &items[0];
        let t2s = TextToSparql::new(&kg.graph, &slm).with_example(
            &example.question,
            &example.sparql,
            example.hops,
        );
        let test: Vec<QaItem> = items[1..].to_vec();
        let (_, exec_blind) = evaluate(&t2s, &kg.graph, Text2SparqlMethod::SparqlGenSim, &test);
        let (_, exec_ctx) = evaluate(&t2s, &kg.graph, Text2SparqlMethod::RetrievalEnhanced, &test);
        assert!(
            exec_ctx >= exec_blind,
            "subgraph context should help: {exec_ctx} vs {exec_blind}"
        );
    }

    #[test]
    fn unlinkable_question_returns_none() {
        let (kg, slm, _) = fixture();
        let t2s = TextToSparql::new(&kg.graph, &slm);
        assert!(t2s
            .generate(Text2SparqlMethod::SgptSim, "what is the meaning of zzz?")
            .is_none());
    }

    #[test]
    fn template_forms_agree_with_inline_generation() {
        let (kg, slm, items) = fixture();
        let t2s = TextToSparql::new(&kg.graph, &slm);
        let mut checked = 0;
        for item in items.iter().take(8) {
            let Some(tpl) = t2s.generate_template(
                Text2SparqlMethod::SgptSim,
                &item.question,
                &obs::Span::disabled(),
            ) else {
                continue;
            };
            // inline() is byte-identical to the classic generate() output
            assert_eq!(
                Some(tpl.inline()),
                t2s.generate(Text2SparqlMethod::SgptSim, &item.question)
            );
            // all three textual forms return the same answers
            let answers = |q: &str| {
                let rs = execute_sparql_with(&kg.graph, q, &ExecOptions::default()).unwrap();
                let mut v: Vec<String> =
                    rs.values("answer").iter().map(|t| format!("{t}")).collect();
                v.sort();
                v
            };
            assert_eq!(answers(&tpl.inline()), answers(&tpl.values_form()));
            // the parameterized form binds through the prepared-query API
            let prepared =
                kgquery::PreparedQuery::prepare(&kg.graph, &tpl.text(), &["anchor"]).unwrap();
            let rs = prepared
                .run_with(
                    &kg.graph,
                    &[(SparqlTemplate::ANCHOR_VAR, tpl.anchor_term())],
                    &ExecOptions::default(),
                    &obs::Span::disabled(),
                )
                .unwrap();
            let mut bound: Vec<String> =
                rs.values("answer").iter().map(|t| format!("{t}")).collect();
            bound.sort();
            assert_eq!(bound, answers(&tpl.inline()));
            checked += 1;
        }
        assert!(checked > 0, "fixture produced no templatable questions");
    }

    #[test]
    fn exact_match_normalizes_whitespace() {
        assert!(exact_match(
            "SELECT ?a  WHERE { ?s ?p ?a }",
            "SELECT ?a WHERE { ?s ?p ?a }"
        ));
        assert!(!exact_match(
            "SELECT ?a WHERE { ?s ?p ?a }",
            "SELECT ?b WHERE { ?s ?p ?b }"
        ));
    }

    #[test]
    fn generated_queries_parse_and_execute() {
        let (kg, slm, items) = fixture();
        let t2s = TextToSparql::new(&kg.graph, &slm);
        for item in items.iter().take(5) {
            if let Some(q) = t2s.generate(Text2SparqlMethod::SgptSim, &item.question) {
                assert!(
                    execute_sparql_with(&kg.graph, &q, &ExecOptions::default()).is_ok(),
                    "generated query must be valid SPARQL: {q}"
                );
            }
        }
    }
}
