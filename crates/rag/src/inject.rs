//! Knowledge injection into prompts (K-BERT \[60\], Dict-BERT \[93\]).

use kg::namespace as ns;
use kg::term::Sym;
use kg::Graph;

/// K-BERT-sim: find KG entities mentioned in the sentence and splice
/// their most relevant triples into the prompt as context — the
/// "sentence tree" flattened to context lines (the soft-visibility
/// matrix becomes: injected lines are context, not part of the sentence).
///
/// Returns `(augmented context lines, entities found)`.
pub fn inject_knowledge(
    graph: &Graph,
    sentence: &str,
    max_triples_per_entity: usize,
) -> (Vec<String>, Vec<Sym>) {
    let mut context = Vec::new();
    let mut found = Vec::new();
    for mention in graph.entity_names().mentions(sentence) {
        if mention.name.len() < 3 {
            continue;
        }
        found.push(mention.sym);
        for (p, o) in graph
            .outgoing(mention.sym)
            .into_iter()
            .take(max_triples_per_entity)
        {
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
                mention.name,
                ns::humanize(ns::local_name(p_iri)),
                obj
            ));
        }
    }
    (context, found)
}

/// Dict-BERT-sim: definitions for rare terms. A term is "rare" when it
/// appears in the vocabulary map (class labels → comments) and not in the
/// common-words list. Returns `term: definition` lines.
pub fn rare_term_definitions(definitions: &[(String, String)], sentence: &str) -> Vec<String> {
    let lower = sentence.to_lowercase();
    definitions
        .iter()
        .filter(|(term, _)| lower.contains(&term.to_lowercase()))
        .map(|(term, def)| format!("{term}: {def}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::synth::{movies, Scale};

    #[test]
    fn injection_finds_mentions_and_adds_facts() {
        let kg = movies(131, Scale::tiny());
        let g = &kg.graph;
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", ns::SYNTH_VOCAB))
            .unwrap();
        let film = g.instances_of(film_class)[0];
        let name = g.display_name(film);
        let sentence = format!("I watched {name} yesterday");
        let (context, found) = inject_knowledge(g, &sentence, 5);
        assert!(found.contains(&film));
        assert!(!context.is_empty());
        assert!(context.iter().all(|c| c.starts_with(&name)));
    }

    #[test]
    fn no_mentions_no_injection() {
        let kg = movies(131, Scale::tiny());
        let (context, found) = inject_knowledge(&kg.graph, "nothing relevant here", 5);
        assert!(context.is_empty());
        assert!(found.is_empty());
    }

    #[test]
    fn rare_terms_get_definitions() {
        let defs = vec![
            (
                "Ontology".to_string(),
                "a formal specification of concepts".to_string(),
            ),
            ("Zamboni".to_string(), "an ice resurfacer".to_string()),
        ];
        let lines = rare_term_definitions(&defs, "We built an ontology for films");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("Ontology:"));
    }
}
