//! Graph analysis utilities: statistics, components, paths, neighborhoods.
//!
//! These back the evaluation harnesses (degree distributions for the
//! generator sanity checks, path sampling for multi-hop question
//! generation, k-hop neighborhoods for subgraph retrieval à la LARK).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::store::{Graph, Triple};
use crate::term::Sym;

/// Summary statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Total triples.
    pub triples: usize,
    /// Distinct IRI entities (subject or object position).
    pub entities: usize,
    /// Distinct predicates.
    pub predicates: usize,
    /// Maximum total degree over entities.
    pub max_degree: usize,
    /// Mean total degree over entities.
    pub mean_degree: f64,
}

/// Compute summary statistics.
pub fn stats(g: &Graph) -> GraphStats {
    let entities = g.entities();
    let mut max_degree = 0;
    let mut total = 0usize;
    for &e in &entities {
        let d = g.degree(e);
        max_degree = max_degree.max(d);
        total += d;
    }
    GraphStats {
        triples: g.len(),
        entities: entities.len(),
        predicates: g.predicates().len(),
        max_degree,
        mean_degree: if entities.is_empty() {
            0.0
        } else {
            total as f64 / entities.len() as f64
        },
    }
}

/// Weakly connected components over entities (edges treated as undirected).
/// Returns components sorted by decreasing size, each sorted by id.
pub fn connected_components(g: &Graph) -> Vec<Vec<Sym>> {
    let entities = g.entities();
    let mut seen: BTreeSet<Sym> = BTreeSet::new();
    let mut components = Vec::new();
    for &start in &entities {
        if seen.contains(&start) {
            continue;
        }
        let mut comp = Vec::new();
        let mut queue = VecDeque::from([start]);
        seen.insert(start);
        while let Some(n) = queue.pop_front() {
            comp.push(n);
            for (_, o) in g.outgoing(n) {
                if g.resolve(o).is_iri() && seen.insert(o) {
                    queue.push_back(o);
                }
            }
            for (s, _) in g.incoming(n) {
                if g.resolve(s).is_iri() && seen.insert(s) {
                    queue.push_back(s);
                }
            }
        }
        comp.sort();
        components.push(comp);
    }
    components.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    components
}

/// A directed path of triples, head-to-tail connected.
pub type Path = Vec<Triple>;

/// Sample up to `count` simple forward paths of exactly `hops` edges,
/// starting from random entities, following only predicates for which
/// `follow` returns true. Deterministic under `seed`.
pub fn sample_paths(
    g: &Graph,
    hops: usize,
    count: usize,
    seed: u64,
    follow: impl Fn(Sym) -> bool,
) -> Vec<Path> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entities = g.entities();
    entities.shuffle(&mut rng);
    let mut out = Vec::new();
    for &start in entities.iter().cycle().take(entities.len() * 4) {
        if out.len() >= count {
            break;
        }
        let mut path = Vec::with_capacity(hops);
        let mut visited = BTreeSet::from([start]);
        let mut node = start;
        for _ in 0..hops {
            let mut edges: Vec<(Sym, Sym)> = g
                .outgoing(node)
                .into_iter()
                .filter(|&(p, o)| follow(p) && g.resolve(o).is_iri() && !visited.contains(&o))
                .collect();
            if edges.is_empty() {
                break;
            }
            edges.shuffle(&mut rng);
            let (p, o) = edges[0];
            path.push(Triple::new(node, p, o));
            visited.insert(o);
            node = o;
        }
        if path.len() == hops {
            out.push(path);
        }
    }
    out
}

/// The triples within `k` hops (undirected) of `center`, as a subgraph
/// triple list. This is the subgraph-retrieval primitive used by the
/// LARK-style reasoning and RAG pipelines.
pub fn khop_subgraph(g: &Graph, center: Sym, k: usize) -> Vec<Triple> {
    let mut frontier = BTreeSet::from([center]);
    let mut seen_nodes = frontier.clone();
    let mut triples = BTreeSet::new();
    for _ in 0..k {
        let mut next = BTreeSet::new();
        for &n in &frontier {
            for (p, o) in g.outgoing(n) {
                triples.insert((n, p, o));
                if g.resolve(o).is_iri() && seen_nodes.insert(o) {
                    next.insert(o);
                }
            }
            for (s, p) in g.incoming(n) {
                triples.insert((s, p, n));
                if seen_nodes.insert(s) {
                    next.insert(s);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    triples
        .into_iter()
        .map(|(s, p, o)| Triple::new(s, p, o))
        .collect()
}

/// Shortest undirected path between two entities (BFS), as a triple list,
/// or `None` if disconnected. Edges may be traversed in either direction.
pub fn shortest_path(g: &Graph, from: Sym, to: Sym) -> Option<Vec<Triple>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut prev: BTreeMap<Sym, Triple> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        let mut neighbors: Vec<(Sym, Triple)> = Vec::new();
        for (p, o) in g.outgoing(n) {
            if g.resolve(o).is_iri() {
                neighbors.push((o, Triple::new(n, p, o)));
            }
        }
        for (s, p) in g.incoming(n) {
            neighbors.push((s, Triple::new(s, p, n)));
        }
        for (next, t) in neighbors {
            if seen.insert(next) {
                prev.insert(next, t);
                if next == to {
                    // reconstruct
                    let mut path = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let t = prev[&cur];
                        cur = if t.s == cur { t.o } else { t.s };
                        path.push(t);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{movies, Scale};

    fn chain() -> Graph {
        let mut g = Graph::new();
        g.insert_iri("http://e/a", "http://v/p", "http://e/b");
        g.insert_iri("http://e/b", "http://v/p", "http://e/c");
        g.insert_iri("http://e/c", "http://v/p", "http://e/d");
        g.insert_iri("http://e/x", "http://v/p", "http://e/y"); // second component
        g
    }

    #[test]
    fn stats_counts_things() {
        let g = chain();
        let s = stats(&g);
        assert_eq!(s.triples, 4);
        assert_eq!(s.entities, 6);
        assert_eq!(s.predicates, 1);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn components_found() {
        let g = chain();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 4);
        assert_eq!(comps[1].len(), 2);
    }

    #[test]
    fn sample_paths_connect_head_to_tail() {
        let kg = movies(2, Scale::default());
        let g = &kg.graph;
        let label = g.pool().get_iri(crate::namespace::RDFS_LABEL);
        let ty = g.pool().get_iri(crate::namespace::RDF_TYPE);
        let paths = sample_paths(g, 2, 10, 9, |p| Some(p) != label && Some(p) != ty);
        assert!(!paths.is_empty());
        for path in &paths {
            assert_eq!(path.len(), 2);
            assert_eq!(path[0].o, path[1].s, "hops must chain");
        }
    }

    #[test]
    fn sample_paths_deterministic() {
        let kg = movies(2, Scale::tiny());
        let p1 = sample_paths(&kg.graph, 2, 5, 3, |_| true);
        let p2 = sample_paths(&kg.graph, 2, 5, 3, |_| true);
        assert_eq!(p1, p2);
    }

    #[test]
    fn khop_grows_with_k() {
        let g = chain();
        let a = g.pool().get_iri("http://e/a").unwrap();
        let k1 = khop_subgraph(&g, a, 1);
        let k2 = khop_subgraph(&g, a, 2);
        let k3 = khop_subgraph(&g, a, 3);
        assert_eq!(k1.len(), 1);
        assert_eq!(k2.len(), 2);
        assert_eq!(k3.len(), 3);
    }

    #[test]
    fn shortest_path_works_both_directions() {
        let g = chain();
        let a = g.pool().get_iri("http://e/a").unwrap();
        let d = g.pool().get_iri("http://e/d").unwrap();
        let x = g.pool().get_iri("http://e/x").unwrap();
        let p = shortest_path(&g, a, d).unwrap();
        assert_eq!(p.len(), 3);
        let back = shortest_path(&g, d, a).unwrap();
        assert_eq!(back.len(), 3);
        assert!(shortest_path(&g, a, x).is_none());
        assert_eq!(shortest_path(&g, a, a).unwrap().len(), 0);
    }
}
