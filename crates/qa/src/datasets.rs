//! Multi-hop QA dataset generation.
//!
//! Samples forward paths from the KG and templates them into natural
//! questions whose gold answers, gold SPARQL, and reasoning paths are all
//! known — mirroring how WebQSP / CWQ ground questions to Freebase paths.

use kg::analysis::sample_paths;
use kg::namespace as ns;
use kg::store::Triple;
use kg::term::Sym;
use kg::Graph;

/// One QA item with full ground truth.
#[derive(Debug, Clone)]
pub struct QaItem {
    /// The natural-language question.
    pub question: String,
    /// Gold SPARQL that answers it.
    pub sparql: String,
    /// The anchor entity the question starts from.
    pub anchor: Sym,
    /// The gold reasoning path.
    pub path: Vec<Triple>,
    /// Gold answer entities (all endpoints reachable by the path's
    /// relation chain from the anchor).
    pub answers: Vec<Sym>,
    /// Number of hops.
    pub hops: usize,
}

/// Generate `per_hop` items for each hop count in `1..=max_hops`.
pub fn generate_dataset(graph: &Graph, seed: u64, per_hop: usize, max_hops: usize) -> Vec<QaItem> {
    let mut out = Vec::new();
    for hops in 1..=max_hops {
        let paths = sample_paths(graph, hops, per_hop, seed ^ (hops as u64) << 8, |p| {
            graph
                .resolve(p)
                .as_iri()
                .is_some_and(|i| i.starts_with(ns::SYNTH_VOCAB))
        });
        for path in paths {
            let anchor = path[0].s;
            let relations: Vec<Sym> = path.iter().map(|t| t.p).collect();
            // gold answers: all chain endpoints (not just the sampled one)
            let mut frontier = vec![anchor];
            for &r in &relations {
                let mut next = Vec::new();
                for &n in &frontier {
                    next.extend(
                        graph
                            .objects(n, r)
                            .into_iter()
                            .filter(|&o| graph.resolve(o).is_iri()),
                    );
                }
                next.sort();
                next.dedup();
                frontier = next;
            }
            let question = template_question(graph, anchor, &relations);
            let sparql = gold_sparql(graph, anchor, &relations);
            out.push(QaItem {
                question,
                sparql,
                anchor,
                path,
                answers: frontier,
                hops,
            });
        }
    }
    out
}

/// The relation's human phrase.
pub fn rel_phrase(graph: &Graph, r: Sym) -> String {
    ns::humanize(ns::local_name(graph.label(r)))
}

/// Template a question for a relation chain:
/// 1 hop: `"What is the directed by of The Big Chill?"` →
/// phrased as `"Who or what is <X> directed by?"` for fluency.
fn template_question(graph: &Graph, anchor: Sym, relations: &[Sym]) -> String {
    let name = graph.display_name(anchor);
    match relations {
        [r] => format!("What is {} {}?", name, rel_phrase(graph, *r)),
        [r1, r2] => format!(
            "What is the {} of what {} is {}?",
            rel_phrase(graph, *r2),
            name,
            rel_phrase(graph, *r1)
        ),
        [r1, r2, r3] => format!(
            "What is the {} of the {} of what {} is {}?",
            rel_phrase(graph, *r3),
            rel_phrase(graph, *r2),
            name,
            rel_phrase(graph, *r1)
        ),
        _ => format!("What is {} connected to?", name),
    }
}

/// The gold SPARQL for a chain (property-path form).
fn gold_sparql(graph: &Graph, anchor: Sym, relations: &[Sym]) -> String {
    let anchor_iri = graph.resolve(anchor).as_iri().unwrap_or_default();
    let path = relations
        .iter()
        .map(|&r| format!("<{}>", graph.resolve(r).as_iri().unwrap_or_default()))
        .collect::<Vec<_>>()
        .join("/");
    format!("SELECT ?answer WHERE {{ <{anchor_iri}> {path} ?answer }}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::synth::{academic, Scale};
    use kgquery::exec::ExecOptions;
    use kgquery::execute_sparql_with;

    #[test]
    fn dataset_items_have_consistent_ground_truth() {
        let kg = academic(161, Scale::default());
        let items = generate_dataset(&kg.graph, 5, 5, 3);
        assert!(items.len() >= 10);
        for item in &items {
            assert!(!item.answers.is_empty(), "{}", item.question);
            assert_eq!(item.path.len(), item.hops);
            assert!(item.question.contains(&kg.graph.display_name(item.anchor)));
        }
    }

    #[test]
    fn gold_sparql_executes_to_gold_answers() {
        let kg = academic(161, Scale::default());
        let items = generate_dataset(&kg.graph, 5, 4, 2);
        for item in &items {
            let rs = execute_sparql_with(&kg.graph, &item.sparql, &ExecOptions::default())
                .expect("gold SPARQL runs");
            let mut got: Vec<&str> = rs
                .values("answer")
                .iter()
                .filter_map(|t| t.as_iri())
                .collect();
            got.sort_unstable();
            got.dedup();
            let mut expected: Vec<String> = item
                .answers
                .iter()
                .filter_map(|&a| kg.graph.resolve(a).as_iri().map(str::to_string))
                .collect();
            expected.sort();
            assert_eq!(
                got.len(),
                expected.len(),
                "{} / {}",
                item.question,
                item.sparql
            );
        }
    }

    #[test]
    fn hops_are_represented() {
        let kg = academic(161, Scale::default());
        let items = generate_dataset(&kg.graph, 5, 3, 3);
        for h in 1..=3 {
            assert!(
                items.iter().any(|i| i.hops == h),
                "no {h}-hop items generated"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let kg = academic(161, Scale::tiny());
        let a = generate_dataset(&kg.graph, 5, 3, 2);
        let b = generate_dataset(&kg.graph, 5, 3, 2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.question, y.question);
            assert_eq!(x.answers, y.answers);
        }
    }
}
