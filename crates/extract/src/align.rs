//! Entity linking and cross-KG entity alignment (§2.1.2, \[59\]).

use kg::term::Sym;
use kg::Graph;
use slm::Slm;

/// A mention linked to a KG entity.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedMention {
    /// The surface form from the text.
    pub mention: String,
    /// The linked entity.
    pub entity: Sym,
    /// Link confidence in `[0, 1]`.
    pub confidence: f64,
}

/// Levenshtein edit distance (iterative two-row).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalized string similarity in `[0,1]` (1 = identical, case-folded).
pub fn string_similarity(a: &str, b: &str) -> f64 {
    let (la, lb) = (a.to_lowercase(), b.to_lowercase());
    let max_len = la.chars().count().max(lb.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - edit_distance(&la, &lb) as f64 / max_len as f64
}

/// Links textual mentions to the entities a target KG indexes by name
/// ([`Graph::entity_names`]).
pub struct EntityLinker<'a> {
    graph: &'a Graph,
    /// Optional LM for embedding-based disambiguation.
    slm: Option<&'a Slm>,
}

impl<'a> EntityLinker<'a> {
    /// Build a linker over all synthetic-namespace entities of a graph.
    pub fn new(graph: &'a Graph) -> Self {
        EntityLinker { graph, slm: None }
    }

    /// Attach an LM for embedding-assisted disambiguation.
    pub fn with_slm(mut self, slm: &'a Slm) -> Self {
        self.slm = Some(slm);
        self
    }

    /// The backing graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Link a mention: exact match first, then fuzzy string similarity,
    /// optionally blended with LM embedding similarity. Returns `None`
    /// below the 0.55 confidence floor.
    pub fn link(&self, mention: &str) -> Option<LinkedMention> {
        // exact (case-insensitive)
        let entries = self.graph.entity_names().entries();
        if let Some(e) = entries
            .iter()
            .find(|e| e.name.eq_ignore_ascii_case(mention))
        {
            return Some(LinkedMention {
                mention: mention.to_string(),
                entity: e.sym,
                confidence: 1.0,
            });
        }
        let mut best: Option<(f64, Sym)> = None;
        for e in entries {
            let mut score = string_similarity(mention, &e.name);
            if let Some(m) = self.slm {
                score = 0.7 * score + 0.3 * f64::from(m.similarity(mention, &e.name));
            }
            match best {
                Some((b, _)) if score <= b => {}
                _ => best = Some((score, e.sym)),
            }
        }
        best.filter(|&(s, _)| s >= 0.55)
            .map(|(confidence, entity)| LinkedMention {
                mention: mention.to_string(),
                entity,
                confidence,
            })
    }
}

/// One proposed cross-KG correspondence.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentPair {
    /// Entity in the left graph.
    pub left: Sym,
    /// Entity in the right graph.
    pub right: Sym,
    /// Combined label + neighborhood score.
    pub score: f64,
}

/// Align entities across two graphs: candidate pairs by label similarity,
/// re-scored with neighborhood (shared neighbor-label) evidence — the
/// label+structure recipe of LLM-assisted alignment \[59\].
pub fn align_graphs(left: &Graph, right: &Graph, threshold: f64) -> Vec<AlignmentPair> {
    let mut out = Vec::new();
    for l in left.entity_names().entries() {
        let mut best: Option<(f64, Sym)> = None;
        for r in right.entity_names().entries() {
            let label_sim = string_similarity(&l.name, &r.name);
            if label_sim < 0.5 {
                continue;
            }
            let neigh = neighborhood_overlap(left, l.sym, right, r.sym);
            let score = 0.7 * label_sim + 0.3 * neigh;
            match best {
                Some((b, _)) if score <= b => {}
                _ => best = Some((score, r.sym)),
            }
        }
        if let Some((score, re)) = best {
            if score >= threshold {
                out.push(AlignmentPair {
                    left: l.sym,
                    right: re,
                    score,
                });
            }
        }
    }
    out
}

/// Jaccard overlap of neighbor display names.
fn neighborhood_overlap(lg: &Graph, le: Sym, rg: &Graph, re: Sym) -> f64 {
    let ln: Vec<String> = lg
        .outgoing(le)
        .iter()
        .map(|&(_, o)| lg.display_name(o))
        .collect();
    let rn: Vec<String> = rg
        .outgoing(re)
        .iter()
        .map(|&(_, o)| rg.display_name(o))
        .collect();
    if ln.is_empty() && rn.is_empty() {
        return 0.0;
    }
    let shared = ln.iter().filter(|n| rn.contains(n)).count();
    let union = ln.len() + rn.len() - shared;
    if union == 0 {
        0.0
    } else {
        shared as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::synth::{movies, Scale};

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }

    #[test]
    fn string_similarity_ranges() {
        assert_eq!(string_similarity("Alice", "alice"), 1.0);
        assert!(string_similarity("Alice", "Alicia") > 0.6);
        assert!(string_similarity("Alice", "Zorblax") < 0.4);
    }

    #[test]
    fn linker_exact_and_fuzzy() {
        let kg = movies(31, Scale::tiny());
        let linker = EntityLinker::new(&kg.graph);
        let first = &kg.graph.entity_names().entries()[0];
        let (name, entity) = (first.name.clone(), first.sym);
        let exact = linker.link(&name).expect("exact link");
        assert_eq!(exact.entity, entity);
        assert_eq!(exact.confidence, 1.0);
        // typo: drop last char
        let typo: String = name.chars().take(name.chars().count() - 1).collect();
        let fuzzy = linker.link(&typo).expect("fuzzy link");
        assert_eq!(fuzzy.entity, entity);
        assert!(fuzzy.confidence < 1.0 && fuzzy.confidence > 0.55);
    }

    #[test]
    fn linker_rejects_garbage() {
        let kg = movies(31, Scale::tiny());
        let linker = EntityLinker::new(&kg.graph);
        assert!(linker.link("qqqqzzzz xxxxyyy").is_none());
    }

    #[test]
    fn aligning_a_graph_with_itself_is_perfect() {
        let kg = movies(31, Scale::tiny());
        let pairs = align_graphs(&kg.graph, &kg.graph, 0.9);
        assert!(!pairs.is_empty());
        for p in &pairs {
            assert_eq!(
                kg.graph.display_name(p.left),
                kg.graph.display_name(p.right)
            );
        }
    }

    #[test]
    fn alignment_is_robust_to_small_perturbations() {
        let kg = movies(31, Scale::tiny());
        // same seed twice = identical graphs with identical pools; align a
        // clone where nothing changed but the pool object
        let kg2 = movies(31, Scale::tiny());
        let pairs = align_graphs(&kg.graph, &kg2.graph, 0.8);
        let entities = kg.graph.entity_names().entries().len();
        assert!(
            pairs.len() >= entities * 9 / 10,
            "aligned {} of {}",
            pairs.len(),
            entities
        );
    }
}
