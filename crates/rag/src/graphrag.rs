//! Graph RAG (\[26\]): entity graph → communities → summaries →
//! map-reduce query answering.
//!
//! Naive RAG retrieves *pointwise*: top-k chunks. Global sensemaking
//! questions ("what is the most common genre?") need evidence from the
//! whole corpus. Graph RAG pre-aggregates: detect entity communities,
//! summarize each, then answer global queries by mapping over community
//! summaries and reducing partial results.

use std::collections::BTreeMap;

use kg::namespace as ns;
use kg::term::Sym;
use kg::Graph;
use slm::Slm;

use crate::vector::VectorIndex;

/// A community of entities with its generated summary.
#[derive(Debug, Clone)]
pub struct Community {
    /// Member entities (sorted).
    pub members: Vec<Sym>,
    /// Generated natural-language summary.
    pub summary: String,
    /// Per-relation object counts within the community (the map-side
    /// aggregate used by global queries).
    pub relation_object_counts: BTreeMap<String, BTreeMap<String, usize>>,
}

/// The Graph RAG engine.
pub struct GraphRag<'a> {
    graph: &'a Graph,
    slm: &'a Slm,
    /// Detected communities with summaries.
    pub communities: Vec<Community>,
    /// Arena index over the community summary embeddings (community i is
    /// doc i), so local-mode routing is one top-1 retrieval instead of a
    /// re-embedding linear scan per question.
    summary_index: VectorIndex,
}

impl<'a> GraphRag<'a> {
    /// Build: label-propagation community detection over the entity graph
    /// (synthetic-vocabulary edges, undirected), then summarize each
    /// community from its internal facts.
    pub fn build(graph: &'a Graph, slm: &'a Slm) -> Self {
        let entities: Vec<Sym> = graph
            .entities()
            .into_iter()
            .filter(|&e| {
                graph
                    .resolve(e)
                    .as_iri()
                    .is_some_and(|i| i.starts_with(ns::SYNTH_ENTITY))
            })
            .collect();
        // label propagation: deterministic (sorted nodes, smallest-label
        // tiebreak), bounded iterations
        let mut label: BTreeMap<Sym, Sym> = entities.iter().map(|&e| (e, e)).collect();
        for _ in 0..20 {
            let mut changed = false;
            for &e in &entities {
                let mut votes: BTreeMap<Sym, usize> = BTreeMap::new();
                for (p, o) in graph.outgoing(e) {
                    if is_relation(graph, p) && label.contains_key(&o) {
                        *votes.entry(label[&o]).or_insert(0) += 1;
                    }
                }
                for (s, p) in graph.incoming(e) {
                    if is_relation(graph, p) && label.contains_key(&s) {
                        *votes.entry(label[&s]).or_insert(0) += 1;
                    }
                }
                if let Some((&best, _)) =
                    votes.iter().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                {
                    if label[&e] != best {
                        label.insert(e, best);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut groups: BTreeMap<Sym, Vec<Sym>> = BTreeMap::new();
        for (&e, &l) in &label {
            groups.entry(l).or_default().push(e);
        }
        let communities: Vec<Community> = groups
            .into_values()
            .map(|members| summarize(graph, members))
            .collect();
        let summary_index =
            VectorIndex::build(communities.iter().map(|c| slm.embed(&c.summary)).collect());
        GraphRag {
            graph,
            slm,
            communities,
            summary_index,
        }
    }

    /// Answer a *global* aggregate question: `"what is the most common
    /// <relation phrase>?"`-style. Maps over community aggregates and
    /// reduces to the global winner. Returns `(answer, count)`.
    ///
    /// Under an enabled `parent`, a `graphrag.global` child records the
    /// routed relation and how many community aggregates the map-reduce
    /// merged.
    pub fn answer_global(&self, question: &str, parent: &obs::Span) -> Option<(String, usize)> {
        let span = parent.child("graphrag.global");
        span.set("communities", self.communities.len());
        span.count("graphrag.global_questions", 1);
        // route: find the relation whose phrase occurs in the question
        let lower = question.to_lowercase();
        let mut target: Option<String> = None;
        for c in &self.communities {
            for rel in c.relation_object_counts.keys() {
                if lower.contains(&rel.to_lowercase()) {
                    target = Some(rel.clone());
                }
            }
            if target.is_some() {
                break;
            }
        }
        let Some(target) = target else {
            span.set("routed", false);
            return None;
        };
        span.set("routed", true);
        span.set("relation", target.as_str());
        // map-reduce over communities
        let mut merged: BTreeMap<String, usize> = BTreeMap::new();
        let mut aggregates_merged = 0usize;
        for c in &self.communities {
            if let Some(counts) = c.relation_object_counts.get(&target) {
                aggregates_merged += 1;
                for (obj, n) in counts {
                    *merged.entry(obj.clone()).or_insert(0) += n;
                }
            }
        }
        span.set("aggregates_merged", aggregates_merged);
        span.count("graphrag.aggregates_merged", aggregates_merged as u64);
        merged
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Answer a *local* question using the best-matching community
    /// summary as context (the Graph RAG local mode).
    ///
    /// Under an enabled `parent`, a `graphrag.local` child records
    /// communities scanned, the facts injected as context, and whether the
    /// LM answered from them.
    pub fn answer_local(&self, question: &str, parent: &obs::Span) -> slm::Answer {
        let span = parent.child("graphrag.local");
        span.set("communities", self.communities.len());
        span.count("graphrag.local_questions", 1);
        // top-1 retrieval over pre-embedded summaries; ties go to the
        // lowest community id, matching the seed's first-wins scan
        let best = self
            .summary_index
            .search(&self.slm.embed(question), 1, &span)
            .0
            .first()
            .map(|&(ci, sim)| (sim, &self.communities[ci]));
        match best {
            Some((sim, c)) => {
                // context: the community's verbalized facts
                let facts = community_facts(self.graph, &c.members);
                span.set("best_similarity", f64::from(sim));
                span.set("community_size", c.members.len());
                span.set("facts_injected", facts.len());
                span.set(
                    "context_chars",
                    facts.iter().map(String::len).sum::<usize>(),
                );
                span.count("graphrag.facts_injected", facts.len() as u64);
                let answer = self.slm.answer(question, &facts);
                span.set("answered", answer.is_answered());
                answer
            }
            None => slm::Answer::unknown(),
        }
    }

    /// Total number of communities.
    pub fn community_count(&self) -> usize {
        self.communities.len()
    }
}

fn is_relation(graph: &Graph, p: Sym) -> bool {
    graph
        .resolve(p)
        .as_iri()
        .is_some_and(|i| i.starts_with(ns::SYNTH_VOCAB))
}

fn community_facts(graph: &Graph, members: &[Sym]) -> Vec<String> {
    let mut out = Vec::new();
    for &e in members {
        for (p, o) in graph.outgoing(e) {
            if !is_relation(graph, p) {
                continue;
            }
            let obj = match graph.resolve(o) {
                kg::Term::Literal(l) => l.lexical.clone(),
                _ => graph.display_name(o),
            };
            out.push(format!(
                "{} {} {}",
                graph.display_name(e),
                ns::humanize(ns::local_name(graph.resolve(p).as_iri().unwrap_or("p"))),
                obj
            ));
        }
    }
    out
}

fn summarize(graph: &Graph, mut members: Vec<Sym>) -> Community {
    members.sort();
    let mut relation_object_counts: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for &e in &members {
        for (p, o) in graph.outgoing(e) {
            if !is_relation(graph, p) {
                continue;
            }
            let rel = ns::humanize(ns::local_name(graph.resolve(p).as_iri().unwrap_or("p")));
            let obj = match graph.resolve(o) {
                kg::Term::Literal(l) => l.lexical.clone(),
                _ => graph.display_name(o),
            };
            *relation_object_counts
                .entry(rel)
                .or_default()
                .entry(obj)
                .or_insert(0) += 1;
        }
    }
    // summary text: hubs + dominant relations
    let mut hubs: Vec<(usize, String)> = members
        .iter()
        .map(|&e| (graph.degree(e), graph.display_name(e)))
        .collect();
    hubs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let hub_names: Vec<String> = hubs.iter().take(5).map(|(_, n)| n.clone()).collect();
    let mut rel_lines = Vec::new();
    for (rel, counts) in &relation_object_counts {
        let total: usize = counts.values().sum();
        let top = counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(o, n)| format!("{o} ({n})"))
            .unwrap_or_default();
        rel_lines.push(format!("{rel}: {total} facts, most often {top}"));
    }
    let summary = format!(
        "This community has {} entities, centered on {}. Relations: {}.",
        members.len(),
        hub_names.join(", "),
        rel_lines.join("; ")
    );
    Community {
        members,
        summary,
        relation_object_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::synth::{movies, Scale};
    use kgextract::testgen::entity_surface_forms;

    fn fixture() -> (kg::synth::SynthKg, Slm) {
        let kg = movies(151, Scale::default());
        let slm = Slm::builder()
            .entity_names(entity_surface_forms(&kg.graph).iter().map(String::as_str))
            .build();
        (kg, slm)
    }

    #[test]
    fn communities_partition_the_entities() {
        let (kg, slm) = fixture();
        let gr = GraphRag::build(&kg.graph, &slm);
        assert!(gr.community_count() >= 1);
        let total: usize = gr.communities.iter().map(|c| c.members.len()).sum();
        let entities = kg
            .graph
            .entities()
            .into_iter()
            .filter(|&e| {
                kg.graph
                    .resolve(e)
                    .as_iri()
                    .is_some_and(|i| i.starts_with(ns::SYNTH_ENTITY))
            })
            .count();
        assert_eq!(total, entities, "communities must partition entities");
    }

    #[test]
    fn global_question_gets_the_exact_modal_answer() {
        let (kg, slm) = fixture();
        let g = &kg.graph;
        let gr = GraphRag::build(g, &slm);
        let (answer, count) = gr
            .answer_global(
                "What is the most common has genre value?",
                &obs::Span::disabled(),
            )
            .expect("aggregate answered");
        // ground truth: modal genre over the whole graph
        let has_genre = g
            .pool()
            .get_iri(&format!("{}hasGenre", ns::SYNTH_VOCAB))
            .unwrap();
        let mut truth: BTreeMap<String, usize> = BTreeMap::new();
        for t in g.match_pattern(kg::TriplePattern {
            s: None,
            p: Some(has_genre),
            o: None,
        }) {
            *truth.entry(g.display_name(t.o)).or_insert(0) += 1;
        }
        let (gold, gold_n) = truth
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap();
        assert_eq!(answer, gold);
        assert_eq!(count, gold_n);
    }

    #[test]
    fn unroutable_global_question_is_none() {
        let (kg, slm) = fixture();
        let gr = GraphRag::build(&kg.graph, &slm);
        assert!(gr
            .answer_global("what is the airspeed of a swallow?", &obs::Span::disabled())
            .is_none());
    }

    #[test]
    fn local_answers_use_community_facts() {
        let (kg, slm) = fixture();
        let g = &kg.graph;
        let gr = GraphRag::build(g, &slm);
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
        let q = format!("Who is {} directed by?", g.display_name(film));
        let a = gr.answer_local(&q, &obs::Span::disabled());
        assert!(
            a.text.contains(&g.display_name(director)),
            "{a:?} vs {}",
            g.display_name(director)
        );
    }

    #[test]
    fn observed_local_and_global_record_spans() {
        let (kg, slm) = fixture();
        let gr = GraphRag::build(&kg.graph, &slm);
        let (tracer, recorder) = obs::Tracer::in_memory();
        let root = tracer.span("test");
        gr.answer_global("What is the most common has genre value?", &root)
            .expect("routable aggregate");
        gr.answer_local("who directed anything?", &root);
        root.finish();
        let span = recorder.take().pop().expect("root recorded");
        let global = span.find("graphrag.global").expect("global span");
        assert_eq!(global.attr("routed"), Some(&obs::AttrValue::Bool(true)));
        assert!(global.attr_u64("aggregates_merged").unwrap() > 0);
        let local = span.find("graphrag.local").expect("local span");
        assert!(local.attr_u64("facts_injected").unwrap() > 0);
        assert!(tracer.registry().counter("graphrag.facts_injected") > 0);
        assert_eq!(tracer.registry().counter("graphrag.global_questions"), 1);
    }

    #[test]
    fn summaries_mention_sizes_and_relations() {
        let (kg, slm) = fixture();
        let gr = GraphRag::build(&kg.graph, &slm);
        for c in &gr.communities {
            assert!(c.summary.contains("entities"));
        }
    }
}
