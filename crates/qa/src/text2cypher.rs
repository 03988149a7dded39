//! NL → Cypher-lite generation (the "or Cypher" half of §4.1.3).
//!
//! Reuses the SGPT-sim analysis (anchor linking + relation-phrase
//! chaining) but emits Cypher `MATCH` patterns, which parse with
//! [`kgquery::cypher::parse`] and run on [`kgquery::exec::execute`].

use kg::Graph;

use crate::text2sparql::{Text2SparqlMethod, TextToSparql};

/// Generate a Cypher-lite query for a question (SGPT-sim analysis).
pub fn generate_cypher(t2s: &TextToSparql<'_>, graph: &Graph, question: &str) -> Option<String> {
    // reuse the SPARQL generator, then transcribe the property path into
    // a Cypher MATCH chain
    let sparql = t2s.generate(Text2SparqlMethod::SgptSim, question)?;
    sparql_chain_to_cypher(graph, &sparql)
}

/// Transcribe our chain-shaped SPARQL (`SELECT ?answer WHERE { <a> <r1>/<r2> ?answer }`)
/// into Cypher-lite.
pub fn sparql_chain_to_cypher(graph: &Graph, sparql: &str) -> Option<String> {
    let body = sparql.split('{').nth(1)?.split('}').next()?.trim();
    let mut parts = body.split_whitespace();
    let anchor = parts.next()?.trim_start_matches('<').trim_end_matches('>');
    let path = parts.next()?;
    let anchor_sym = graph.pool().get_iri(anchor)?;
    let anchor_name = graph.display_name(anchor_sym);
    // the path is `<iri1>/<iri2>/…` — split on the `>/<` separators so
    // slashes inside IRIs survive
    let trimmed = path.trim_start_matches('<').trim_end_matches('>');
    let rels: Vec<&str> = trimmed.split(">/<").collect();
    let mut pattern = format!("(a {{name: \"{anchor_name}\"}})");
    for (i, rel) in rels.iter().enumerate() {
        let local = kg::namespace::local_name(rel);
        let var = (b'b' + i as u8) as char;
        pattern.push_str(&format!("-[:{local}]->({var})"));
    }
    let last = (b'b' + rels.len() as u8 - 1) as char;
    Some(format!("MATCH {pattern} RETURN {last}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::generate_dataset;
    use kg::synth::{movies, Scale};
    use kgextract::testgen::{corpus_sentences, entity_surface_forms};
    use kgquery::exec::{execute, ExecOptions};
    use kgquery::execute_sparql_with;
    use slm::Slm;

    #[test]
    fn cypher_and_sparql_agree_on_answers() {
        let kg = movies(201, Scale::default());
        let corpus = corpus_sentences(&kg.graph, &kg.ontology);
        let slm = Slm::builder()
            .corpus(corpus.iter().map(String::as_str))
            .entity_names(entity_surface_forms(&kg.graph).iter().map(String::as_str))
            .build();
        let t2s = TextToSparql::new(&kg.graph, &slm);
        let items = generate_dataset(&kg.graph, 11, 4, 2);
        let mut compared = 0;
        for item in &items {
            let Some(cypher) = generate_cypher(&t2s, &kg.graph, &item.question) else {
                continue;
            };
            let Some(sparql) = t2s.generate(Text2SparqlMethod::SgptSim, &item.question) else {
                continue;
            };
            let opts = ExecOptions::default();
            let parsed = kgquery::cypher::parse(&cypher).expect("cypher parses");
            let c =
                execute(&kg.graph, &parsed, &opts, &obs::Span::disabled()).expect("cypher runs");
            let s = execute_sparql_with(&kg.graph, &sparql, &opts).expect("sparql runs");
            // compare result multiplicities loosely: same number of rows
            assert_eq!(c.len(), s.len(), "cypher {cypher} vs sparql {sparql}");
            compared += 1;
        }
        assert!(compared >= 3, "too few comparable items: {compared}");
    }

    #[test]
    fn transcription_shape() {
        let kg = movies(201, Scale::tiny());
        let g = &kg.graph;
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let film = g.instances_of(film_class)[0];
        let film_iri = g.resolve(film).as_iri().unwrap();
        let sparql = format!(
            "SELECT ?answer WHERE {{ <{film_iri}> <{}directedBy> ?answer }}",
            kg::namespace::SYNTH_VOCAB
        );
        let cypher = sparql_chain_to_cypher(g, &sparql).unwrap();
        assert!(cypher.starts_with("MATCH (a {name:"), "{cypher}");
        assert!(cypher.contains("-[:directedBy]->(b)"), "{cypher}");
        assert!(cypher.ends_with("RETURN b"), "{cypher}");
    }
}
