//! Graph RAG (paper §3, \[26\]): build communities over the KG, print
//! their summaries, then contrast a *global* sensemaking question (which
//! needs whole-corpus aggregation) with a *local* factoid question.
//!
//! Run with: `cargo run --example graph_rag_report`

use llmkg::obs::Span;
use llmkg::{Workbench, WorkbenchConfig};

fn main() {
    let wb = Workbench::build(&WorkbenchConfig::default());
    let rag = wb.graph_rag();

    println!("Detected {} communities:\n", rag.community_count());
    for (i, c) in rag.communities.iter().enumerate().take(6) {
        println!("community {i}: {}\n", c.summary);
    }

    // global question: requires aggregating over the whole corpus
    let global_q = "What is the most common has genre value?";
    match rag.answer_global(global_q, &Span::disabled()) {
        Some((answer, count)) => {
            println!("GLOBAL  {global_q}\n        → {answer} ({count} films)")
        }
        None => println!("GLOBAL  {global_q}\n        → (unroutable)"),
    }

    // local question: answered from one community's facts
    let g = wb.graph();
    let film_class = g
        .pool()
        .get_iri("http://llmkg.dev/vocab/Film")
        .expect("Film class");
    let film = g.instances_of(film_class)[0];
    let local_q = format!("Who is {} directed by?", g.display_name(film));
    let a = rag.answer_local(&local_q, &Span::disabled());
    println!(
        "\nLOCAL   {local_q}\n        → {} (confidence {:.2})",
        a.text, a.confidence
    );
}
