//! Complex / multi-hop question answering (§4.1.2).

use std::collections::BTreeSet;

use kg::term::Sym;
use kg::Graph;
use slm::Slm;

use crate::datasets::{rel_phrase, QaItem};

/// The QA method families compared in experiment E11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QaMethod {
    /// Closed-book LLM: no KG access at answer time.
    LlmOnly,
    /// KAPING \[5\]: retrieve the facts most similar to the question and
    /// prepend them to the prompt.
    Kaping,
    /// ReLMKG-sim \[10\]: textualize the anchor's neighborhood, then walk
    /// relation-by-relation, at each hop choosing the relation whose
    /// phrase best matches the question (the path-centric reasoning
    /// module, instructed by the LM).
    RelmkgSim,
    /// Ensemble \[74\]: combine the symbolic path answer with the LM
    /// answer — symbolic wins when it is confident (non-empty), LM
    /// otherwise.
    Ensemble,
}

impl QaMethod {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            QaMethod::LlmOnly => "llm-only",
            QaMethod::Kaping => "kaping",
            QaMethod::RelmkgSim => "relmkg-sim",
            QaMethod::Ensemble => "ensemble",
        }
    }

    /// All methods.
    pub fn all() -> [QaMethod; 4] {
        [
            QaMethod::LlmOnly,
            QaMethod::Kaping,
            QaMethod::RelmkgSim,
            QaMethod::Ensemble,
        ]
    }
}

/// Answer a QA item, returning predicted entities (possibly empty).
pub fn answer_question(graph: &Graph, slm: &Slm, method: QaMethod, item: &QaItem) -> BTreeSet<Sym> {
    match method {
        QaMethod::LlmOnly => {
            let a = slm.answer(&item.question, &[]);
            link_names(graph, &a.text)
        }
        QaMethod::Kaping => {
            let facts = verbalized_khop(graph, item.anchor, item.hops.max(1));
            let index = slm::EvidenceIndex::from_sentences(facts.iter().map(String::as_str));
            let context: Vec<String> = index
                .retrieve(&item.question, 8)
                .into_iter()
                .map(|r| r.text)
                .collect();
            let a = slm.answer(&item.question, &context);
            link_names(graph, &a.text)
        }
        QaMethod::RelmkgSim => relmkg_walk(graph, slm, item),
        QaMethod::Ensemble => {
            let symbolic = relmkg_walk(graph, slm, item);
            if !symbolic.is_empty() {
                symbolic
            } else {
                let a = slm.answer(&item.question, &[]);
                link_names(graph, &a.text)
            }
        }
    }
}

/// The path-guided walk: from the anchor, repeatedly pick the outgoing
/// relation whose phrase best matches the question, following it, for the
/// item's hop count.
fn relmkg_walk(graph: &Graph, slm: &Slm, item: &QaItem) -> BTreeSet<Sym> {
    let question_words = slm::tokenizer::stemmed_content_words(&item.question);
    // lexical grounding: how much of the relation phrase the question
    // actually mentions — the primary signal; dense similarity only
    // breaks ties between equally-mentioned relations
    let grounding = |r: Sym| -> f32 {
        let words = slm::tokenizer::stemmed_content_words(&rel_phrase(graph, r));
        if words.is_empty() {
            return 0.0;
        }
        words.iter().filter(|w| question_words.contains(w)).count() as f32 / words.len() as f32
    };
    let mut frontier = BTreeSet::from([item.anchor]);
    for _ in 0..item.hops {
        // candidate relations = outgoing relations of the frontier
        let mut rels = BTreeSet::new();
        for &n in &frontier {
            for (p, o) in graph.outgoing(n) {
                if graph.resolve(o).is_iri()
                    && graph
                        .resolve(p)
                        .as_iri()
                        .is_some_and(|i| i.starts_with(kg::namespace::SYNTH_VOCAB))
                {
                    rels.insert(p);
                }
            }
        }
        let best = rels.into_iter().max_by(|&a, &b| {
            let (ga, gb) = (grounding(a), grounding(b));
            let sa = slm.similarity(&item.question, &rel_phrase(graph, a));
            let sb = slm.similarity(&item.question, &rel_phrase(graph, b));
            ga.partial_cmp(&gb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal))
                .then(b.cmp(&a))
        });
        let Some(r) = best else {
            return BTreeSet::new();
        };
        let mut next = BTreeSet::new();
        for &n in &frontier {
            for o in graph.objects(n, r) {
                if graph.resolve(o).is_iri() {
                    next.insert(o);
                }
            }
        }
        if next.is_empty() {
            return BTreeSet::new();
        }
        frontier = next;
    }
    frontier
}

fn verbalized_khop(graph: &Graph, anchor: Sym, hops: usize) -> Vec<String> {
    kg::analysis::khop_subgraph(graph, anchor, hops)
        .into_iter()
        .filter_map(|t| {
            let p_iri = graph.resolve(t.p).as_iri()?;
            if !p_iri.starts_with(kg::namespace::SYNTH_VOCAB) || !graph.resolve(t.o).is_iri() {
                return None;
            }
            Some(format!(
                "{} {} {}",
                graph.display_name(t.s),
                kg::namespace::humanize(kg::namespace::local_name(p_iri)),
                graph.display_name(t.o)
            ))
        })
        .collect()
}

/// Link every known entity name occurring in a text back to ids.
fn link_names(graph: &Graph, text: &str) -> BTreeSet<Sym> {
    if text.trim().is_empty() {
        return BTreeSet::new();
    }
    graph
        .entity_names()
        .mentions(text)
        .into_iter()
        .filter(|e| e.lower.len() >= 3)
        .map(|e| e.sym)
        .collect()
}

/// Hits@1-style evaluation: an item counts as correct when the prediction
/// set is non-empty and its best element is a gold answer (we treat the
/// whole set as tied-top, so: correct ⇔ any predicted ∈ gold ∧ |pred| ≤
/// |gold| × 2 — over-broad predictions don't get credit).
pub fn evaluate(graph: &Graph, slm: &Slm, method: QaMethod, items: &[QaItem]) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for item in items {
        let pred = answer_question(graph, slm, method, item);
        let gold: BTreeSet<Sym> = item.answers.iter().copied().collect();
        if !pred.is_empty() && !pred.is_disjoint(&gold) && pred.len() <= gold.len().max(1) * 2 {
            correct += 1;
        }
    }
    correct as f64 / items.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::generate_dataset;
    use kg::synth::{academic, Scale};
    use kgextract::testgen::{corpus_sentences, entity_surface_forms};

    fn fixture() -> (kg::synth::SynthKg, Slm, Vec<QaItem>) {
        let kg = academic(171, Scale::default());
        let corpus = corpus_sentences(&kg.graph, &kg.ontology);
        let slm = Slm::builder()
            .corpus(corpus.iter().map(String::as_str))
            .entity_names(entity_surface_forms(&kg.graph).iter().map(String::as_str))
            .build();
        let items = generate_dataset(&kg.graph, 7, 6, 3);
        (kg, slm, items)
    }

    #[test]
    fn relmkg_walk_answers_one_hop_exactly() {
        let (kg, slm, items) = fixture();
        let one_hop: Vec<QaItem> = items.iter().filter(|i| i.hops == 1).cloned().collect();
        let acc = evaluate(&kg.graph, &slm, QaMethod::RelmkgSim, &one_hop);
        assert!(acc > 0.6, "1-hop RelmKG accuracy {acc}");
    }

    #[test]
    fn cooperation_beats_llm_only() {
        // the central cooperation claim of §4
        let (kg, slm, items) = fixture();
        let llm_only = evaluate(&kg.graph, &slm, QaMethod::LlmOnly, &items);
        let relmkg = evaluate(&kg.graph, &slm, QaMethod::RelmkgSim, &items);
        let ensemble = evaluate(&kg.graph, &slm, QaMethod::Ensemble, &items);
        assert!(
            relmkg >= llm_only,
            "KG cooperation must not lose to closed book: {relmkg} vs {llm_only}"
        );
        assert!(ensemble >= relmkg * 0.95, "{ensemble} vs {relmkg}");
    }

    #[test]
    fn accuracy_degrades_with_hops() {
        let (kg, slm, items) = fixture();
        let acc_by_hop: Vec<f64> = (1..=3)
            .map(|h| {
                let subset: Vec<QaItem> = items.iter().filter(|i| i.hops == h).cloned().collect();
                evaluate(&kg.graph, &slm, QaMethod::RelmkgSim, &subset)
            })
            .collect();
        assert!(
            acc_by_hop[0] >= acc_by_hop[2],
            "1-hop should beat 3-hop: {acc_by_hop:?}"
        );
    }

    #[test]
    fn kaping_runs_and_links_entities() {
        let (kg, slm, items) = fixture();
        let pred = answer_question(&kg.graph, &slm, QaMethod::Kaping, &items[0]);
        // may or may not be correct, but must be well-formed entity ids
        for &e in &pred {
            assert!(kg.graph.resolve(e).is_iri());
        }
    }

    #[test]
    fn empty_items_evaluate_to_zero() {
        let (kg, slm, _) = fixture();
        assert_eq!(evaluate(&kg.graph, &slm, QaMethod::LlmOnly, &[]), 0.0);
    }
}
