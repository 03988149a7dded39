//! **E13 + E14** — Query generation from text and querying LLMs with
//! SPARQL (paper §4.1.3–4.1.4, RQ6).

use std::collections::BTreeSet;

use kg::namespace as ns;
use kg::synth::{movies, Scale};
use kgextract::testgen::{corpus_sentences, entity_surface_forms};
use kgqa::datasets::generate_dataset;
use kgqa::hybrid::HybridExecutor;
use kgqa::text2sparql::{evaluate, Text2SparqlMethod, TextToSparql};
use llmkg_bench::EXP_SEED;
use slm::Slm;

fn main() {
    let kg = movies(EXP_SEED, Scale::medium());
    let g = &kg.graph;
    let corpus = corpus_sentences(g, &kg.ontology);
    let slm = Slm::builder()
        .corpus(corpus.iter().map(String::as_str))
        .entity_names(entity_surface_forms(g).iter().map(String::as_str))
        .build();
    let items = generate_dataset(g, EXP_SEED ^ 7, 20, 2);

    llmkg_bench::header("E13 — Text-to-SPARQL: exact-match and execution accuracy (RQ6)");
    let example = &items[0];
    let t2s =
        TextToSparql::new(g, &slm).with_example(&example.question, &example.sparql, example.hops);
    let test: Vec<_> = items[1..].to_vec();
    println!("{:22} {:>12} {:>12}", "method", "exact-match", "exec-acc");
    let mut report = serde_json::Map::new();
    for method in Text2SparqlMethod::all() {
        let (exact, exec) = evaluate(&t2s, g, method, &test);
        println!("{:22} {:>12.3} {:>12.3}", method.name(), exact, exec);
        report.insert(
            method.name().to_string(),
            serde_json::json!({"exact": exact, "exec": exec}),
        );
    }
    println!("\nShape check ([69]): retrieval/subgraph context ≥ blind one-shot;");
    println!("execution accuracy ≥ exact match (different-but-equivalent queries count).");

    llmkg_bench::header("E14 — Querying LLMs with SPARQL: hybrid execution (§4.1.4)");
    // the famousFor relation exists only in the LM's world knowledge
    let film_class = g
        .pool()
        .get_iri(&format!("{}Film", ns::SYNTH_VOCAB))
        .expect("Film");
    let films = g.instances_of(film_class);
    let extra: Vec<String> = films
        .iter()
        .enumerate()
        .map(|(i, &f)| format!("{} is famous for scene {}", g.display_name(f), i % 7))
        .collect();
    let hybrid_slm = Slm::builder()
        .corpus(corpus.iter().map(String::as_str))
        .corpus(extra.iter().map(String::as_str))
        .entity_names(entity_surface_forms(g).iter().map(String::as_str))
        .build();
    let vpred = format!("{}famousFor", ns::SYNTH_VOCAB);
    let exec = HybridExecutor::new(g, &hybrid_slm, BTreeSet::from([vpred.clone()]));
    let q = format!(
        "SELECT ?f ?y WHERE {{ ?f a <{}Film> . ?f <{vpred}> ?y }} ",
        ns::SYNTH_VOCAB
    );
    let (rs, stats) = exec
        .execute(&q, &obs::Span::disabled())
        .expect("hybrid query runs");
    println!(
        "hybrid query answered {} rows with {} LLM calls ({} misses)",
        rs.len(),
        stats.llm_calls,
        stats.llm_misses
    );
    // pure-KG baseline: the same query without the LLM returns nothing
    let pure = kgquery::execute_sparql_with(g, &q, &kgquery::exec::ExecOptions::default())
        .expect("query parses");
    println!(
        "pure-KG baseline rows: {} (relation absent from the store)",
        pure.len()
    );
    println!(
        "\nShape check ([72]): the hybrid plan surfaces {} facts a pure DB plan cannot.",
        rs.len()
    );
    report.insert(
        "hybrid".into(),
        serde_json::json!({
            "rows": rs.len(),
            "llm_calls": stats.llm_calls,
            "pure_rows": pure.len()
        }),
    );
    llmkg_bench::write_report("E13-E14", &serde_json::Value::Object(report));
}
