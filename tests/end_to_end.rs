//! End-to-end integration tests spanning the whole workspace: the full
//! LLM⟷KG loop the paper describes, exercised as one system.

use std::collections::BTreeMap;

use llmkg::kg::corrupt::{corrupt, CorruptionPlan, DefectKind};
use llmkg::kgextract::pipeline::ExtractionPipeline;
use llmkg::kgextract::testgen::annotate_graph;
use llmkg::kgqa::datasets::generate_dataset;
use llmkg::kgqa::multihop::{evaluate, QaMethod};
use llmkg::kgvalidate::factcheck::{FactCheckMethod, FactChecker};
use llmkg::{Domain, Workbench, WorkbenchConfig};

fn workbench() -> Workbench {
    Workbench::build(&WorkbenchConfig {
        entities_per_class: 20,
        ..Default::default()
    })
}

/// Text → KG → validate: triples extracted from verbalized text land in a
/// graph that conforms to the original ontology.
#[test]
fn construction_round_trip_preserves_schema() {
    let wb = workbench();
    let kg = &wb.kg;
    let relations: BTreeMap<String, String> = kg
        .ontology
        .properties()
        .filter_map(|(iri, d)| d.label.clone().map(|l| (iri.to_string(), l)))
        .collect();
    let training = annotate_graph(&kg.graph, &kg.ontology);
    let pipeline = ExtractionPipeline::for_kg(&kg.graph, &wb.slm, relations, &training);
    let text: String = training[..20]
        .iter()
        .map(|s| format!("{}.", s.text))
        .collect::<Vec<_>>()
        .join(" ");
    let constructed = pipeline.build_graph(&text);
    assert!(constructed.len() >= 20, "{}", constructed.len());
    // every extracted relation triple also exists in the source KG
    let mut checked = 0;
    for t in constructed.iter() {
        let p_iri = constructed.resolve(t.p).as_iri().unwrap_or("");
        if !p_iri.starts_with(llmkg::kg::namespace::SYNTH_VOCAB) {
            continue;
        }
        let s = kg
            .graph
            .pool()
            .get(constructed.resolve(t.s))
            .expect("linked subject");
        let p = kg
            .graph
            .pool()
            .get(constructed.resolve(t.p))
            .expect("known relation");
        let o = kg
            .graph
            .pool()
            .get(constructed.resolve(t.o))
            .expect("linked object");
        assert!(kg.graph.contains(s, p, o), "extracted a non-fact");
        checked += 1;
    }
    assert!(checked >= 15, "only {checked} relation triples extracted");
}

/// KG → LLM → fact-check: an LM trained on the clean KG detects
/// misinformation injected into a copy.
#[test]
fn validation_loop_catches_misinformation() {
    let wb = workbench();
    let kg = &wb.kg;
    let mut corrupted = kg.graph.clone();
    let plan = CorruptionPlan {
        seed: 5,
        misinformation: 10,
        functional: 0,
        range: 0,
        domain: 0,
        disjoint: 0,
        irreflexive: 0,
    };
    let defects = corrupt(&mut corrupted, &kg.ontology, &plan);
    let mis: Vec<_> = defects
        .iter()
        .filter(|d| d.kind == DefectKind::Misinformation)
        .map(|d| d.triple)
        .collect();
    assert!(!mis.is_empty());
    let checker = FactChecker::new(&wb.slm, &kg.ontology).with_reference(&kg.graph);
    let mut caught = 0;
    for &t in &mis {
        if !checker.check(FactCheckMethod::ToolAugmented, &corrupted, t) {
            caught += 1;
        }
    }
    assert!(
        caught as f64 / mis.len() as f64 > 0.7,
        "caught {caught}/{}",
        mis.len()
    );
}

/// KG → QA: the cooperation pipeline answers generated questions better
/// than the closed-book LM across the whole dataset.
#[test]
fn cooperation_pipeline_beats_closed_book() {
    let wb = Workbench::build(&WorkbenchConfig {
        domain: Domain::Academic,
        entities_per_class: 30,
        ..Default::default()
    });
    let items = generate_dataset(wb.graph(), 3, 8, 2);
    assert!(!items.is_empty());
    let closed = evaluate(wb.graph(), &wb.slm, QaMethod::LlmOnly, &items);
    let coop = evaluate(wb.graph(), &wb.slm, QaMethod::RelmkgSim, &items);
    assert!(coop > closed, "cooperation {coop} vs closed-book {closed}");
    assert!(coop > 0.4, "cooperation should be useful: {coop}");
}

/// The LM's knowledge is exactly the corpus: every corpus sentence is
/// known, perturbed ones are not.
#[test]
fn slm_knowledge_is_enumerable() {
    let wb = workbench();
    for s in wb.corpus.iter().take(30) {
        assert!(wb.slm.knows(s), "LM must know its corpus: {s}");
    }
    assert!(!wb.slm.knows("Zorblax the Unseen is directed by Nobody"));
}

/// Reasoning-derived triples become queryable: materialize the ontology
/// entailments, then SPARQL over the derived types.
#[test]
fn materialized_entailments_are_queryable() {
    let wb = workbench();
    let mut g = wb.graph().clone();
    let derived = llmkg::kgreason::rules::materialize(&mut g, &wb.kg.ontology);
    assert!(derived > 0);
    // actors are Persons only via subclass entailment
    let persons = |g: &llmkg::kg::Graph| {
        llmkg::kgquery::execute_sparql_with(
            g,
            "PREFIX v: <http://llmkg.dev/vocab/> SELECT ?p WHERE { ?p a v:Person }",
            &llmkg::kgquery::exec::ExecOptions::default(),
        )
        .expect("query runs")
        .len()
    };
    assert!(persons(&g) > 0, "derived types must be visible to SPARQL");
    // and the original graph has no explicit Person types
    assert_eq!(persons(wb.graph()), 0);
}

/// Turtle serialization round-trips the whole generated KG.
#[test]
fn full_kg_survives_turtle_round_trip() {
    let wb = workbench();
    let nt = llmkg::kg::turtle::to_ntriples(wb.graph());
    let parsed = llmkg::kg::turtle::parse_ntriples(&nt).expect("round trip parses");
    assert_eq!(parsed.len(), wb.graph().len());
    // line order depends on interning order, so compare as sorted sets
    let nt2 = llmkg::kg::turtle::to_ntriples(&parsed);
    let sorted = |s: &str| {
        let mut v: Vec<&str> = s.lines().collect();
        v.sort_unstable();
        v.join("\n")
    };
    assert_eq!(
        sorted(&nt),
        sorted(&nt2),
        "triple sets must round-trip exactly"
    );
}

/// Determinism across the stack: two identically-configured workbenches
/// agree on everything observable.
#[test]
fn workbench_is_fully_deterministic() {
    let a = workbench();
    let b = workbench();
    assert_eq!(
        llmkg::kg::turtle::to_ntriples(a.graph()),
        llmkg::kg::turtle::to_ntriples(b.graph())
    );
    assert_eq!(a.corpus, b.corpus);
    let q = "PREFIX v: <http://llmkg.dev/vocab/> SELECT ?f WHERE { ?f a v:Film } LIMIT 5";
    assert_eq!(a.sparql(q).unwrap(), b.sparql(q).unwrap());
    let film = a.graph().display_name(a.graph().entities()[3]);
    assert_eq!(
        a.ask(&format!("What is {film} directed by?")),
        b.ask(&format!("What is {film} directed by?"))
    );
}

/// Graph RAG's map-reduce aggregate agrees with a SPARQL COUNT/GROUP BY
/// over the same KG — two independent aggregation paths, one answer.
#[test]
fn graph_rag_agrees_with_sparql_aggregate() {
    let wb = workbench();
    let rag = wb.graph_rag();
    let (gr_answer, gr_count) = rag
        .answer_global(
            "what is the most common has genre value?",
            &llmkg::obs::Span::disabled(),
        )
        .expect("routable aggregate");
    let rs = wb
        .sparql(
            "PREFIX v: <http://llmkg.dev/vocab/> \
             SELECT ?g (COUNT(*) AS ?n) WHERE { ?f v:hasGenre ?g } \
             GROUP BY ?g ORDER BY DESC(?n) LIMIT 1",
        )
        .expect("aggregate query runs");
    assert_eq!(rs.len(), 1);
    let sparql_count = rs
        .get(0, 1)
        .and_then(|t| t.as_literal())
        .and_then(|l| l.as_integer())
        .expect("count literal");
    let sparql_genre_iri = rs.get(0, 0).and_then(|t| t.as_iri()).expect("genre iri");
    let genre_sym = wb
        .graph()
        .pool()
        .get_iri(sparql_genre_iri)
        .expect("known genre");
    assert_eq!(gr_count as i64, sparql_count);
    assert_eq!(gr_answer, wb.graph().display_name(genre_sym));
}
