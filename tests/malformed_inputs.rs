//! Panic audit regression suite: every input-driven serving path must
//! turn malformed or adversarial input into a typed error or a degraded
//! reply — never a panic (see `docs/resilience.md`).

use llmkg::kgquery::parser;
use llmkg::{Workbench, WorkbenchConfig};

fn wb() -> Workbench {
    Workbench::build(&WorkbenchConfig {
        entities_per_class: 4,
        ..Default::default()
    })
}

/// Malformed SPARQL the parser must reject with a typed error.
const BAD_QUERIES: &[&str] = &[
    "",
    "   \t\n  ",
    "SELECT",
    "SELECT ?x",
    "SELECT ?x WHERE",
    "SELECT ?x WHERE {",
    "SELECT ?x WHERE { ?x ?p ?o",
    "SELECT ?x WHERE { ?x ?p }",
    "SELECT ?x WHERE { { { ?x ?p ?o } }",
    "ASK { ?x",
    "PREFIX v: SELECT ?x WHERE { ?x a v:Film }",
    "SELECT ?x WHERE { ?x <unclosed ?o }",
    "}} WHERE SELECT {{",
    "SELECT ?x WHERE { ?x <http://v/p>++* ?y }",
    "ORDER BY ?x SELECT ?x WHERE { ?x ?p ?o }",
];

#[test]
fn parser_rejects_malformed_queries_with_typed_errors() {
    for q in BAD_QUERIES {
        match parser::parse(q) {
            Err(e) => {
                // the error renders without panicking, too
                let _ = e.to_string();
            }
            Ok(parsed) => panic!("malformed query parsed: {q:?} -> {parsed:?}"),
        }
    }
}

#[test]
fn parser_survives_non_utf8_ish_junk() {
    // Control characters, lone surrogate-ish escapes, BOMs, emoji, RTL
    // marks, NULs: anything a confused client might send.
    let junk = [
        "\u{0}\u{1}\u{2}SELECT\u{0} ?x",
        "\u{feff}SELECT ?x WHERE { ?x ?p ?o }",
        "SELECT ?\u{202e}x WHERE { ?x ?p ?o }",
        "🦀🦀🦀 { } SELECT 🦀",
        "SELECT ?x WHERE { ?x <http://é.example/ü> \"\u{0}\" }",
        "ＳＥＬＥＣＴ ?x",
    ];
    for q in junk {
        // Err or Ok are both acceptable — panicking is not.
        let _ = parser::parse(q);
    }
}

#[test]
fn parser_survives_pathologically_long_input() {
    // 10k triple patterns, and a 10k-deep unclosed brace nest.
    let mut big = String::from("SELECT ?x WHERE { ");
    for i in 0..10_000 {
        big.push_str(&format!("?x <http://v/p{i}> ?o{i} . "));
    }
    big.push('}');
    let _ = parser::parse(&big);

    let nest = format!("SELECT ?x WHERE {}", "{ ".repeat(10_000));
    assert!(parser::parse(&nest).is_err());
}

#[test]
fn chatbot_survives_adversarial_utterances() {
    let wb = wb();
    let mut bot = wb.chatbot();
    let utterances = [
        String::new(),
        "   ".to_string(),
        "?".to_string(),
        "it".to_string(),
        "it it it it it?".to_string(),
        "\u{0}\u{202e}🦀 SELECT } { ?x".to_string(),
        "What is \"; DROP TABLE films; -- directed by?".to_string(),
        // a 10k-term utterance
        vec!["what"; 10_000].join(" ") + "?",
        // a 10k-term utterance that mentions a real entity at the end
        format!(
            "{} What is {} directed by?",
            vec!["pad"; 10_000].join(" "),
            wb.graph().display_name(wb.graph().entities()[0])
        ),
    ];
    for u in &utterances {
        let reply = bot.handle(u);
        assert!(!reply.text.is_empty(), "empty reply for {:.60}...", u);
    }
}

#[test]
fn text2sparql_survives_adversarial_utterances() {
    let wb = wb();
    let t2s = llmkg::kgqa::text2sparql::TextToSparql::new(wb.graph(), &wb.slm);
    for u in [
        "",
        "????",
        "\u{0}\u{1}junk",
        "SELECT ?x WHERE { ?x ?p ?o }", // SPARQL as an utterance
        &(vec!["term"; 10_000].join(" ")),
        // thousands of capitalized spans, two distinct: the fuzzy fallback
        // links each distinct span once
        &"… Alice meets Bob ".repeat(2_000),
        // a thousand distinct capitalized spans: the fuzzy fallback tries
        // only the first few
        &(0..1_000)
            .map(|i| format!("Zq{i}x."))
            .collect::<Vec<_>>()
            .join(" "),
    ] {
        // None or Some — never a panic; generated queries must parse.
        for method in llmkg::kgqa::text2sparql::Text2SparqlMethod::all() {
            if let Some(q) = t2s.generate(method, u) {
                parser::parse(&q).expect("generated SPARQL parses");
            }
        }
    }
}

#[test]
fn rag_survives_adversarial_questions() {
    let wb = wb();
    let rag = wb.rag();
    for q in ["", "\u{0}🦀", &(vec!["x"; 10_000].join(" "))] {
        for mode in llmkg::kgrag::RagMode::all() {
            // degraded or apologetic replies are fine; panics are not
            let _ = rag.answer(mode, q);
        }
    }
}
