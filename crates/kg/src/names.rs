//! The entity-name index: which entities a text mentions by name.
//!
//! [`EntityNames`] holds the display name of every synthetic-namespace
//! entity ([`SYNTH_ENTITY`] IRIs) of a graph, in [`Sym`] order, together
//! with an Aho–Corasick automaton over the lowercase names. One pass over
//! a lowercased text then finds every name it contains:
//! `O(text bytes + matches)`, independent of how many entities the graph
//! has. [`Graph::entity_names`] owns the index; see
//! `docs/storage.md` for its layout and lifetime.

use std::collections::HashSet;

use crate::namespace::SYNTH_ENTITY;
use crate::store::Graph;
use crate::term::Sym;

/// The root of the trie.
const ROOT: u32 = 0;
/// "No node": the end of an output-link chain.
const NONE: u32 = u32::MAX;

/// Shortest display name, in bytes, that [`EntityNames::longest_mention`]
/// links.
const MIN_NAME_BYTES: usize = 3;

/// One indexed entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityName {
    /// The entity.
    pub sym: Sym,
    /// Its display name, as [`Graph::display_name`] renders it.
    pub name: String,
    /// `name.to_lowercase()`, the form texts are matched against.
    pub lower: String,
}

/// Display names of a graph's synthetic-namespace entities, indexed for
/// mention lookup. Built by [`Graph::entity_names`].
///
/// Both sides of a match are lowercased with [`str::to_lowercase`]: an
/// entity is mentioned when its lowercase name occurs in the lowercased
/// text. The automaton is a byte trie stored in flat arrays: nodes are
/// numbered breadth-first, so each node's children have consecutive ids
/// and one edge-byte array plus one offset per node describes every edge.
#[derive(Debug, Clone)]
pub struct EntityNames {
    /// Indexed entities in ascending [`Sym`] order.
    entries: Vec<EntityName>,
    /// Node `n`'s children are the ids `first_child[n]..first_child[n + 1]`,
    /// sorted by edge byte. One longer than the node count.
    first_child: Vec<u32>,
    /// The byte on the edge into each node (`0` for the root).
    edge: Vec<u8>,
    /// Failure link: the node spelling the longest proper suffix of this
    /// node's string that is also a trie path.
    fail: Vec<u32>,
    /// Output link: the nearest node along the failure chain (excluding
    /// this one) at which some name ends, or `NONE`.
    out: Vec<u32>,
    /// The entries whose lowercase name ends at node `n` are
    /// `ends[ends_at[n]..ends_at[n + 1]]`, ascending. One longer than the
    /// node count.
    ends_at: Vec<u32>,
    /// Entry indices grouped by the node their lowercase name ends at.
    ends: Vec<u32>,
}

impl EntityNames {
    /// Index the synthetic-namespace entities of `graph`. Entities whose
    /// lowercase name is empty are listed but can never be mentioned.
    pub(crate) fn build(graph: &Graph) -> Self {
        let entries: Vec<EntityName> = graph
            .entities()
            .into_iter()
            .filter(|&e| {
                graph
                    .resolve(e)
                    .as_iri()
                    .is_some_and(|i| i.starts_with(SYNTH_ENTITY))
            })
            .map(|sym| {
                let name = graph.display_name(sym);
                let lower = name.to_lowercase();
                EntityName { sym, name, lower }
            })
            .collect();
        let mut names = Self::trie(entries);
        names.link_failures();
        names
    }

    /// Build the trie breadth-first over the entries sorted by lowercase
    /// name: a node is the run of sorted names sharing its prefix, and its
    /// children are that run's sub-runs grouped by the next byte. Failure
    /// and output links are left for [`EntityNames::link_failures`].
    fn trie(entries: Vec<EntityName>) -> Self {
        let lower = |i: u32| entries[i as usize].lower.as_bytes();
        let mut sorted: Vec<u32> = (0..entries.len() as u32)
            .filter(|&i| !lower(i).is_empty())
            .collect();
        sorted.sort_by(|&a, &b| lower(a).cmp(lower(b)).then(a.cmp(&b)));
        // (run start, run end, depth) per node, in id order
        let mut runs: Vec<(usize, usize, usize)> = vec![(0, sorted.len(), 0)];
        let mut edge = vec![0u8];
        let mut first_child = Vec::new();
        let mut ends_at = vec![0u32];
        let mut ends = Vec::new();
        let mut n = 0;
        while n < runs.len() {
            let (mut i, hi, depth) = runs[n];
            // names ending here sort first in the run
            while i < hi && lower(sorted[i]).len() == depth {
                ends.push(sorted[i]);
                i += 1;
            }
            ends_at.push(ends.len() as u32);
            first_child.push(runs.len() as u32);
            while i < hi {
                let byte = lower(sorted[i])[depth];
                let start = i;
                while i < hi && lower(sorted[i])[depth] == byte {
                    i += 1;
                }
                runs.push((start, i, depth + 1));
                edge.push(byte);
            }
            n += 1;
        }
        first_child.push(runs.len() as u32);
        EntityNames {
            entries,
            first_child,
            edge,
            fail: Vec::new(),
            out: Vec::new(),
            ends_at,
            ends,
        }
    }

    /// Compute failure and output links in breadth-first order, so every
    /// shallower node's links are final before a deeper node reads them.
    fn link_failures(&mut self) {
        let nodes = self.edge.len();
        self.fail = vec![ROOT; nodes];
        self.out = vec![NONE; nodes];
        for n in 0..nodes as u32 {
            for c in self.children(n) {
                let f = if n == ROOT {
                    ROOT
                } else {
                    self.step(self.fail[n as usize], self.edge[c as usize])
                };
                self.fail[c as usize] = f;
                self.out[c as usize] = if self.ends_here(f).is_empty() {
                    self.out[f as usize]
                } else {
                    f
                };
            }
        }
    }

    /// Child ids of a node.
    fn children(&self, n: u32) -> std::ops::Range<u32> {
        self.first_child[n as usize]..self.first_child[n as usize + 1]
    }

    /// The entries whose lowercase name ends at a node.
    fn ends_here(&self, n: u32) -> &[u32] {
        &self.ends[self.ends_at[n as usize] as usize..self.ends_at[n as usize + 1] as usize]
    }

    /// The automaton transition: follow failure links until some node
    /// has an edge for `byte`, falling back to the root.
    fn step(&self, mut n: u32, byte: u8) -> u32 {
        loop {
            let kids = self.children(n);
            let labels = &self.edge[kids.start as usize..kids.end as usize];
            if let Ok(i) = labels.binary_search(&byte) {
                return kids.start + i as u32;
            }
            if n == ROOT {
                return ROOT;
            }
            n = self.fail[n as usize];
        }
    }

    /// Indices of every entry whose lowercase name occurs in the
    /// lowercased text, unordered. A node is reported at most once, and
    /// the output chain is cut at the first node already reported (its
    /// whole chain was reported with it), so the cost is linear in the
    /// text plus the names found.
    fn matches(&self, text: &str) -> Vec<u32> {
        let mut reported = HashSet::new();
        let mut found = Vec::new();
        let mut n = ROOT;
        for &byte in text.to_lowercase().as_bytes() {
            n = self.step(n, byte);
            let mut hit = if self.ends_here(n).is_empty() {
                self.out[n as usize]
            } else {
                n
            };
            while hit != NONE && reported.insert(hit) {
                found.extend_from_slice(self.ends_here(hit));
                hit = self.out[hit as usize];
            }
        }
        found
    }

    /// Every indexed entity, in ascending [`Sym`] order.
    pub fn entries(&self) -> &[EntityName] {
        &self.entries
    }

    /// Every entity whose non-empty lowercase name occurs in
    /// `text.to_lowercase()`, in ascending [`Sym`] order. Names of any
    /// length match; callers apply their own minimum length.
    pub fn mentions(&self, text: &str) -> Vec<&EntityName> {
        let mut found = self.matches(text);
        found.sort_unstable();
        found.iter().map(|&i| &self.entries[i as usize]).collect()
    }

    /// The entity a text names most specifically: among the mentioned
    /// entities whose display name is at least 3 bytes long, the one with
    /// the longest display name (in bytes), ties going to the smallest
    /// [`Sym`].
    pub fn longest_mention(&self, text: &str) -> Option<Sym> {
        self.matches(text)
            .into_iter()
            .map(|i| &self.entries[i as usize])
            .filter(|e| e.name.len() >= MIN_NAME_BYTES)
            .max_by(|a, b| a.name.len().cmp(&b.name.len()).then(b.sym.cmp(&a.sym)))
            .map(|e| e.sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namespace::{RDFS_LABEL, SYNTH_VOCAB};
    use crate::term::Term;

    fn entity(local: &str) -> Term {
        Term::iri(format!("{SYNTH_ENTITY}{local}"))
    }

    fn labelled(g: &mut Graph, local: &str, label: &str) {
        g.insert_terms(entity(local), Term::iri(RDFS_LABEL), Term::lit(label));
    }

    /// The answer a freshly built index gives for `g`.
    fn fresh(g: &Graph, text: &str) -> (Vec<EntityName>, Option<Sym>) {
        let names = EntityNames::build(g);
        (names.entries().to_vec(), names.longest_mention(text))
    }

    fn cached(g: &Graph, text: &str) -> (Vec<EntityName>, Option<Sym>) {
        let names = g.entity_names();
        (names.entries().to_vec(), names.longest_mention(text))
    }

    #[test]
    fn mentions_follow_the_longest_name_rule() {
        let mut g = Graph::new();
        labelled(&mut g, "a", "Ann");
        labelled(&mut g, "b", "Ann Lee");
        labelled(&mut g, "c", "ANN LEE");
        labelled(&mut g, "d", "Lee");
        labelled(&mut g, "e", "Al");
        g.insert_terms(
            Term::iri("http://other/x"),
            Term::iri(RDFS_LABEL),
            Term::lit("Ann Lee Jr"),
        );
        let names = g.entity_names();
        assert_eq!(
            names.entries().len(),
            5,
            "only synthetic-namespace entities"
        );
        let sym = |local: &str| g.pool().get_iri(&format!("{SYNTH_ENTITY}{local}")).unwrap();
        let text = "Did ann lee Jr meet AL?";
        let found: Vec<Sym> = names.mentions(text).iter().map(|e| e.sym).collect();
        let mut want = vec![sym("a"), sym("b"), sym("c"), sym("d"), sym("e")];
        want.sort();
        assert_eq!(found, want, "every name of any length, in Sym order");
        // "Ann Lee" and "ANN LEE" tie on length: the smaller Sym wins, and
        // the two-byte "Al" never links
        assert_eq!(names.longest_mention(text), Some(sym("b")));
        assert_eq!(names.longest_mention("just al"), None);
        assert!(names.mentions("").is_empty());
    }

    #[test]
    fn index_follows_every_triple_mutation() {
        let text = "a question about Zed Quill and Yara Moss";
        let mut g = Graph::new();
        labelled(&mut g, "zed", "Zed");
        assert_eq!(cached(&g, text), fresh(&g, text));

        // insert a newly labelled entity
        labelled(&mut g, "zq", "Zed Quill");
        g.insert_terms(
            entity("zq"),
            Term::iri(format!("{SYNTH_VOCAB}p")),
            entity("zed"),
        );
        assert_eq!(cached(&g, text), fresh(&g, text));
        assert_eq!(cached(&g, text).0.len(), 2);

        // remove a label: the display name falls back to the local name
        let zq = g.pool().get_iri(&format!("{SYNTH_ENTITY}zq")).unwrap();
        let label = g.pool().get_iri(RDFS_LABEL).unwrap();
        let lit = g.objects(zq, label)[0];
        g.remove(zq, label, lit);
        assert_eq!(cached(&g, text), fresh(&g, text));
        assert_eq!(
            g.entity_names().longest_mention(text),
            g.pool().get_iri(&format!("{SYNTH_ENTITY}zed"))
        );

        // bulk load
        let ym = g.intern(entity("ym"));
        let lit = g.intern(Term::lit("Yara Moss"));
        g.bulk_load([(ym, label, lit)]);
        assert_eq!(cached(&g, text), fresh(&g, text));
        assert_eq!(g.entity_names().longest_mention(text), Some(ym));

        // merge
        let mut other = Graph::new();
        labelled(&mut other, "ymq", "Yara Moss and");
        g.merge(&other);
        assert_eq!(cached(&g, text), fresh(&g, text));
        assert_eq!(cached(&g, text).0.len(), 4);

        // extend
        g.extend([(
            entity("q"),
            Term::iri(RDFS_LABEL),
            Term::lit("question about Zed Quill"),
        )]);
        assert_eq!(cached(&g, text), fresh(&g, text));
        assert_eq!(
            g.entity_names().longest_mention(text),
            g.pool().get_iri(&format!("{SYNTH_ENTITY}q"))
        );
    }
}
