//! End-to-end observability: workbench answer profiles must report the
//! real retrieval, executor, and generation work behind each answer.

use llmkg::kg;
use llmkg::kgrag::RagMode;
use llmkg::{Workbench, WorkbenchConfig};

fn wb() -> Workbench {
    Workbench::build(&WorkbenchConfig {
        entities_per_class: 10,
        ..Default::default()
    })
}

/// A `(film, director)` pair from the seeded KG, by display name.
fn seeded_film(w: &Workbench) -> (String, String) {
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
    (g.display_name(film), g.display_name(director))
}

#[test]
fn chatbot_profile_reports_executor_and_retrieval_work() {
    let w = wb();
    let (film, director) = seeded_film(&w);
    let profile = w.profile_answer(&format!("What is {film} directed by?"));

    assert_eq!(profile.path, "chatbot");
    assert_eq!(profile.route, "kg-query");
    assert!(profile.answer.contains(&director), "{}", profile.answer);
    assert!(profile.wall_ns > 0);

    // Executor: the KGQA route really ran a SPARQL query.
    assert_eq!(profile.executor.queries_issued, 1);
    assert!(profile.executor.rows >= 1);
    assert!(profile.executor.stats.index_probes > 0, "{profile:?}");
    assert!(profile.executor.stats.patterns_scanned > 0);

    // Retrieval: the rows are the injected context.
    assert!(profile.retrieval.retrieved >= 1);
    assert!(profile.retrieval.context_chars > 0);

    // Generation: grounded answer.
    assert!(profile.generation.answered);
    assert!(!profile.generation.hallucinated);
    assert_eq!(profile.generation.confidence, 1.0);

    // Counters mirror the typed fields.
    assert_eq!(profile.counters.counter("chatbot.turns"), 1);
    assert_eq!(profile.counters.counter("chatbot.kg_answers"), 1);
    assert_eq!(profile.counters.counter("exec.queries"), 1);
    assert!(profile.counters.counter("exec.index_probes") > 0);
    assert_eq!(
        profile.counters.counter("exec.index_probes"),
        profile.executor.stats.index_probes as u64
    );

    // Span tree: root → chatbot.turn → t2s.generate + sparql.execute.
    assert_eq!(profile.spans.len(), 1);
    let root = &profile.spans[0];
    assert_eq!(root.name, "answer.chatbot");
    let turn = root.find("chatbot.turn").expect("turn span");
    assert!(turn.find("t2s.generate").is_some());
    let exec = turn.find("sparql.execute").expect("executor span");
    assert!(exec.attr_u64("index_probes").unwrap() > 0);
}

#[test]
fn rag_profile_reports_retrieval_and_generation_work() {
    let w = wb();
    let (film, _) = seeded_film(&w);
    let profile = w.profile_rag_answer(RagMode::Naive, &format!("Who directed {film}?"));

    assert_eq!(profile.path, "rag");
    assert_eq!(profile.route, "vector");
    assert!(profile.wall_ns > 0);

    // Retrieval: the vector index produced candidates and context.
    assert!(profile.retrieval.candidates >= 1, "{profile:?}");
    assert!(profile.retrieval.retrieved >= 1);
    assert!(profile.retrieval.context_chars > 0);

    // Generation happened (answered or honestly abstained, never both
    // answered and zero-length).
    assert_eq!(profile.generation.answered, !profile.answer.is_empty());
    assert_eq!(profile.generation.answer_chars, profile.answer.len());

    // No SPARQL on this path.
    assert_eq!(profile.executor.queries_issued, 0);
    assert_eq!(profile.executor.stats.index_probes, 0);

    // Retrieval kernel: the arena scan's work counters reached the
    // typed profile and mirror the registry.
    assert!(profile.retrieval.vectors_scanned > 0, "{profile:?}");
    assert!(profile.retrieval.heap_pushes > 0);
    assert_eq!(
        profile.retrieval.vectors_scanned,
        profile.counters.counter("retrieval.vectors_scanned")
    );

    // Counters and spans.
    assert_eq!(profile.counters.counter("rag.answers"), 1);
    assert!(profile.counters.counter("rag.retrieval_candidates") >= 1);
    assert!(profile.counters.counter("rag.chunks_injected") >= 1);
    let root = &profile.spans[0];
    assert_eq!(root.name, "answer.rag");
    let answer = root.find("rag.answer").expect("rag span");
    assert!(answer.attr_u64("candidates").unwrap() >= 1);
    let search = answer.find("retrieval.search").expect("retrieval span");
    assert!(search.attr_u64("vectors_scanned").unwrap() > 0);
}

#[test]
fn hybrid_profile_reports_llm_and_store_work() {
    let w = wb();
    let vpred = format!("{}directedBy", kg::namespace::SYNTH_VOCAB);
    let profile = w
        .profile_hybrid_answer(
            &format!(
                "SELECT ?f ?y WHERE {{ ?f a <{}Film> . ?f <{vpred}> ?y }}",
                kg::namespace::SYNTH_VOCAB
            ),
            [vpred],
        )
        .expect("hybrid query runs");

    assert_eq!(profile.path, "hybrid");
    assert_eq!(profile.route, "store+llm");
    assert!(profile.wall_ns > 0);

    // The LM was consulted for the virtual predicate and the store ran
    // the non-virtual part.
    assert!(profile.retrieval.candidates >= 1, "{profile:?}");
    assert!(profile.executor.queries_issued >= 1);
    assert!(profile.executor.stats.index_probes > 0);
    assert_eq!(
        profile.counters.counter("hybrid.llm_calls"),
        profile.retrieval.candidates as u64
    );

    // Span tree: root → hybrid.execute → sparql.execute.
    let root = &profile.spans[0];
    assert_eq!(root.name, "answer.hybrid");
    let hybrid = root.find("hybrid.execute").expect("hybrid span");
    assert!(hybrid.find("sparql.execute").is_some());
}

#[test]
fn rag_kg_lookup_route_is_profiled() {
    let w = wb();
    let (film, _) = seeded_film(&w);
    let profile = w.profile_rag_answer(RagMode::Modular, &format!("Tell me about {film}"));
    // The modular router sends entity questions to the KG fact store.
    assert_eq!(profile.route, "kg-lookup");
    assert!(profile.retrieval.candidates >= 1, "{profile:?}");
    assert!(profile.counters.counter("rag.kg_lookups") >= 1);
}

#[test]
fn profiles_export_valid_json() {
    let w = wb();
    let (film, _) = seeded_film(&w);
    let chat = w.profile_answer(&format!("What is {film} directed by?"));
    let rag = w.profile_rag_answer(RagMode::Naive, &format!("Who directed {film}?"));
    for profile in [&chat, &rag] {
        let text = llmkg::serde_json::to_string_pretty(&profile.to_json()).unwrap();
        assert!(text.contains("\"index_probes\""), "{text}");
        assert!(text.contains("\"retrieval\""), "{text}");
        assert!(text.contains("\"vectors_scanned\""), "{text}");
        assert!(text.contains("\"spans\""), "{text}");
        assert!(text.contains(&film), "{text}");
    }
}
