//! **Ablations** — sensitivity of the design choices the per-task systems
//! make: RAG retrieval depth, embedding dimensionality, negative-sampling
//! rate, and retrieval context size for QA.

use kg::namespace as ns;
use kg::synth::{academic, freebase_like, movies, FreebaseLikeConfig, Scale};
use kgembed::data::TripleSet;
use kgembed::eval::evaluate_scored_parallel;
use kgembed::model::{KgeModel, TransE};
use kgembed::train::{train, TrainConfig};
use kgextract::testgen::{corpus_sentences, entity_surface_forms};
use kgqa::datasets::generate_dataset;
use kgqa::multihop::{evaluate as qa_evaluate, QaMethod};
use kgrag::chunk::chunk_sentences;
use kgrag::pipeline::{RagMode, RagPipeline};
use llmkg_bench::EXP_SEED;
use slm::Slm;

fn main() {
    let mut report = serde_json::Map::new();

    // ── A1: RAG retrieval depth k ──────────────────────────────────
    llmkg_bench::header("A1 — Naive RAG accuracy vs retrieval depth k");
    let kg = movies(EXP_SEED, Scale::medium());
    let g = &kg.graph;
    let sentences = corpus_sentences(g, &kg.ontology);
    let slm = Slm::builder()
        .corpus(["films are art"])
        .entity_names(entity_surface_forms(g).iter().map(String::as_str))
        .hallucinate(true)
        .build();
    let film_class = g
        .pool()
        .get_iri(&format!("{}Film", ns::SYNTH_VOCAB))
        .expect("Film");
    let directed = g
        .pool()
        .get_iri(&format!("{}directedBy", ns::SYNTH_VOCAB))
        .expect("directedBy");
    let questions: Vec<(String, String)> = g
        .instances_of(film_class)
        .into_iter()
        .take(25)
        .map(|f| {
            (
                format!("Who is {} directed by?", g.display_name(f)),
                g.display_name(g.objects(f, directed)[0]),
            )
        })
        .collect();
    println!("{:>4} {:>10}", "k", "accuracy");
    for k in [1usize, 2, 4, 8] {
        let mut rag = RagPipeline::new(&slm, chunk_sentences(&sentences.join(". "), 3, 1), None);
        rag.k = k;
        let correct = questions
            .iter()
            .filter(|(q, gold)| rag.answer(RagMode::Naive, q).text.contains(gold))
            .count();
        let acc = correct as f64 / questions.len() as f64;
        println!("{k:>4} {acc:>10.3}");
        report.insert(format!("rag_k/{k}"), serde_json::json!(acc));
    }

    // ── A3: embedding dimension & negatives sweep ──────────────────
    llmkg_bench::header("A3 — TransE MRR vs dimension and negative-sampling rate");
    let cfg = FreebaseLikeConfig {
        n_entities: 200,
        n_relations: 8,
        n_triples: 1_500,
        zipf_exponent: 1.0,
        with_labels: true,
    };
    let fkg = freebase_like(EXP_SEED, &cfg).expect("valid config");
    let data = TripleSet::from_graph(&fkg.graph, EXP_SEED, TripleSet::default_keep);
    println!("{:>5} {:>5} {:>8}", "dim", "neg", "MRR");
    for dim in [8usize, 16, 32, 64] {
        for negatives in [1usize, 2, 4] {
            let mut m = TransE::new(1, data.n_entities(), data.n_relations(), dim);
            train(
                &mut m,
                &data,
                &TrainConfig {
                    epochs: 40,
                    lr: 0.05,
                    margin: 1.0,
                    negatives,
                    seed: EXP_SEED,
                },
            );
            let metrics = evaluate_scored_parallel(|h, r, t| m.score(h, r, t), &data, 4);
            println!("{dim:>5} {negatives:>5} {:>8.3}", metrics.mrr);
            report.insert(
                format!("transe/dim{dim}_neg{negatives}"),
                serde_json::json!(metrics.mrr),
            );
        }
    }

    // ── A4: KAPING context size ────────────────────────────────────
    llmkg_bench::header("A4 — QA accuracy vs retrieval method (context ablation)");
    let akg = academic(EXP_SEED, Scale::medium());
    let corpus = corpus_sentences(&akg.graph, &akg.ontology);
    let aslm = Slm::builder()
        .corpus(corpus.iter().map(String::as_str))
        .entity_names(entity_surface_forms(&akg.graph).iter().map(String::as_str))
        .build();
    let items = generate_dataset(&akg.graph, EXP_SEED, 10, 2);
    for method in [QaMethod::LlmOnly, QaMethod::Kaping, QaMethod::RelmkgSim] {
        let acc = qa_evaluate(&akg.graph, &aslm, method, &items);
        println!("{:12} {acc:.3}", method.name());
        report.insert(format!("qa/{}", method.name()), serde_json::json!(acc));
    }

    llmkg_bench::write_report("ablations", &serde_json::Value::Object(report));
}
