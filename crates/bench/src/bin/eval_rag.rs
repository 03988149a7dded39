//! **E10** — The RAG ablation (paper §3): closed-book vs Naive vs
//! Advanced vs Modular vs Graph RAG, on local and global questions.
//!
//! Setup: the LM's parametric corpus deliberately EXCLUDES the document
//! corpus (its knowledge is generic), so closed-book answers about
//! corpus facts are hallucinations by construction — the measurable
//! version of "RAG mitigates hallucination".

use kg::namespace as ns;
use kg::synth::{movies, Scale};
use kgextract::testgen::{corpus_sentences, entity_surface_forms};
use kgrag::chunk::chunk_sentences;
use kgrag::pipeline::{RagMode, RagPipeline};
use kgrag::GraphRag;
use llmkg_bench::EXP_SEED;
use slm::Slm;
use std::collections::BTreeMap;

fn main() {
    let kg = movies(EXP_SEED, Scale::medium());
    let g = &kg.graph;
    let sentences = corpus_sentences(g, &kg.ontology);
    let corpus_text = sentences.join(". ");
    let slm = Slm::builder()
        .corpus([
            "films are a kind of art",
            "directors make films",
            "actors star in films",
        ])
        .entity_names(entity_surface_forms(g).iter().map(String::as_str))
        .hallucinate(true)
        .build();
    let chunks = chunk_sentences(&corpus_text, 3, 1);
    println!(
        "corpus: {} sentences → {} chunks",
        sentences.len(),
        chunks.len()
    );
    let rag = RagPipeline::new(&slm, chunks, Some(g));

    // local questions: who directed film X?
    let film_class = g
        .pool()
        .get_iri(&format!("{}Film", ns::SYNTH_VOCAB))
        .expect("Film");
    let directed = g
        .pool()
        .get_iri(&format!("{}directedBy", ns::SYNTH_VOCAB))
        .expect("directedBy");
    let films: Vec<_> = g.instances_of(film_class).into_iter().take(30).collect();
    let questions: Vec<(String, String)> = films
        .iter()
        .map(|&f| {
            (
                format!("Who is {} directed by?", g.display_name(f)),
                g.display_name(g.objects(f, directed)[0]),
            )
        })
        .collect();

    llmkg_bench::header("E10 — Local questions: accuracy and hallucination rate");
    println!(
        "{:14} {:>10} {:>14} {:>10}",
        "mode", "accuracy", "hallucinated", "abstained"
    );
    let mut report = serde_json::Map::new();
    for mode in RagMode::all() {
        let mut correct = 0usize;
        let mut hallucinated = 0usize;
        let mut abstained = 0usize;
        for (q, gold) in &questions {
            let a = rag.answer(mode, q);
            if a.text.contains(gold) {
                correct += 1;
            }
            if a.hallucinated {
                hallucinated += 1;
            }
            if a.text.is_empty() {
                abstained += 1;
            }
        }
        let n = questions.len() as f64;
        println!(
            "{:14} {:>10.3} {:>14.3} {:>10.3}",
            mode.name(),
            correct as f64 / n,
            hallucinated as f64 / n,
            abstained as f64 / n
        );
        report.insert(
            mode.name().to_string(),
            serde_json::json!({
                "accuracy": correct as f64 / n,
                "hallucination": hallucinated as f64 / n
            }),
        );
    }

    llmkg_bench::header("E10b — Global question: Graph RAG vs pointwise retrieval");
    let graph_rag = GraphRag::build(g, &slm);
    println!(
        "Graph RAG built {} communities",
        graph_rag.community_count()
    );
    // ground truth: modal genre
    let has_genre = g
        .pool()
        .get_iri(&format!("{}hasGenre", ns::SYNTH_VOCAB))
        .expect("hasGenre");
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
        .expect("genres exist");
    let global_q = "What is the most common has genre value?";
    let gr_answer = graph_rag.answer_global(global_q, &obs::Span::disabled());
    let naive_answer = rag.answer(RagMode::Naive, global_q);
    println!("gold: {gold} ({gold_n} films)");
    println!("Graph RAG: {:?}", gr_answer);
    println!(
        "Naive RAG: {:?} (pointwise top-k cannot aggregate)",
        naive_answer.text
    );
    let gr_correct = gr_answer.as_ref().is_some_and(|(a, _)| *a == gold);
    let naive_correct = naive_answer.text.contains(&gold) && !naive_answer.hallucinated;
    println!(
        "\nShape check (Graph RAG paper [26]): global question — Graph RAG correct: {gr_correct}, \
         Naive correct: {naive_correct}"
    );
    report.insert(
        "global".into(),
        serde_json::json!({
            "graph_rag_correct": gr_correct,
            "naive_correct": naive_correct,
            "communities": graph_rag.community_count()
        }),
    );
    llmkg_bench::write_report("E10", &serde_json::Value::Object(report));
}
