//! Ontology / schema model.
//!
//! An [`Ontology`] describes the vocabulary of a KG: classes with a
//! subsumption hierarchy, properties with domains/ranges and characteristic
//! axioms (functional, symmetric, …), class disjointness, and cardinality
//! restrictions. It is the contract that `kgvalidate` checks instance data
//! against and that `kgonto` learns from text.
//!
//! The model is string-keyed (full IRIs) so it is independent of any
//! particular [`Graph`]'s id space; [`Ontology::to_graph`] /
//! [`Ontology::from_graph`] convert to and from an RDF representation.

use std::collections::{BTreeMap, BTreeSet};

use crate::namespace as ns;
use crate::store::Graph;
use crate::term::Term;

/// A class declaration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassDecl {
    /// Human-readable label.
    pub label: Option<String>,
    /// Documentation comment.
    pub comment: Option<String>,
}

/// Characteristic axioms a property may carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropertyTraits {
    /// At most one object per subject.
    pub functional: bool,
    /// At most one subject per object.
    pub inverse_functional: bool,
    /// `p(x,y) ⇒ p(y,x)`.
    pub symmetric: bool,
    /// `p(x,y) ∧ p(y,z) ⇒ p(x,z)`.
    pub transitive: bool,
    /// `p(x,x)` is forbidden.
    pub irreflexive: bool,
    /// `p(x,y) ⇒ ¬p(y,x)` for `x ≠ y`.
    pub asymmetric: bool,
}

/// A property declaration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropertyDecl {
    /// Expected subject class (IRI), if constrained.
    pub domain: Option<String>,
    /// Expected object class (IRI) — `None` for literal-valued properties.
    pub range: Option<String>,
    /// Whether the object is a literal rather than an entity.
    pub literal_valued: bool,
    /// Characteristic axioms.
    pub traits: PropertyTraits,
    /// Human-readable label.
    pub label: Option<String>,
    /// Inverse property IRI, if declared.
    pub inverse_of: Option<String>,
}

/// A max-cardinality restriction: subjects of `class` may have at most
/// `max` values of `property`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CardinalityRestriction {
    /// Class the restriction applies to.
    pub class: String,
    /// Restricted property.
    pub property: String,
    /// Maximum number of values allowed.
    pub max: usize,
}

/// A full schema: classes, hierarchy, properties, disjointness, cardinality.
#[derive(Debug, Clone, Default)]
pub struct Ontology {
    classes: BTreeMap<String, ClassDecl>,
    /// child → set of direct parents
    parents: BTreeMap<String, BTreeSet<String>>,
    properties: BTreeMap<String, PropertyDecl>,
    /// child property → direct super-properties
    prop_parents: BTreeMap<String, BTreeSet<String>>,
    disjoint: BTreeSet<(String, String)>,
    cardinality: Vec<CardinalityRestriction>,
}

impl Ontology {
    /// An empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a class (idempotent).
    pub fn add_class(&mut self, iri: impl Into<String>) -> &mut ClassDecl {
        self.classes.entry(iri.into()).or_default()
    }

    /// Declare a class with a label.
    pub fn add_labeled_class(&mut self, iri: impl Into<String>, label: impl Into<String>) {
        self.add_class(iri).label = Some(label.into());
    }

    /// Declare `child rdfs:subClassOf parent` (classes are auto-declared).
    pub fn add_subclass(&mut self, child: impl Into<String>, parent: impl Into<String>) {
        let (c, p) = (child.into(), parent.into());
        self.add_class(c.clone());
        self.add_class(p.clone());
        self.parents.entry(c).or_default().insert(p);
    }

    /// Declare a property.
    pub fn add_property(&mut self, iri: impl Into<String>, decl: PropertyDecl) {
        self.properties.insert(iri.into(), decl);
    }

    /// Declare `child rdfs:subPropertyOf parent`.
    pub fn add_subproperty(&mut self, child: impl Into<String>, parent: impl Into<String>) {
        let (c, p) = (child.into(), parent.into());
        self.properties.entry(c.clone()).or_default();
        self.properties.entry(p.clone()).or_default();
        self.prop_parents.entry(c).or_default().insert(p);
    }

    /// Declare two classes disjoint (stored symmetrically-normalized).
    pub fn add_disjoint(&mut self, a: impl Into<String>, b: impl Into<String>) {
        let (a, b) = (a.into(), b.into());
        self.add_class(a.clone());
        self.add_class(b.clone());
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.disjoint.insert(pair);
    }

    /// Add a max-cardinality restriction.
    pub fn add_cardinality(&mut self, r: CardinalityRestriction) {
        self.cardinality.push(r);
    }

    /// Declared classes, sorted.
    pub fn classes(&self) -> impl Iterator<Item = (&str, &ClassDecl)> {
        self.classes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Declared properties, sorted.
    pub fn properties(&self) -> impl Iterator<Item = (&str, &PropertyDecl)> {
        self.properties.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Property declaration lookup.
    pub fn property(&self, iri: &str) -> Option<&PropertyDecl> {
        self.properties.get(iri)
    }

    /// Class declaration lookup.
    pub fn class(&self, iri: &str) -> Option<&ClassDecl> {
        self.classes.get(iri)
    }

    /// Cardinality restrictions.
    pub fn cardinalities(&self) -> &[CardinalityRestriction] {
        &self.cardinality
    }

    /// Direct superclasses of a class.
    pub fn direct_superclasses(&self, class: &str) -> Vec<&str> {
        self.parents
            .get(class)
            .map(|s| s.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// All (transitive) superclasses, excluding the class itself.
    pub fn superclasses(&self, class: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut stack = vec![class.to_string()];
        while let Some(c) = stack.pop() {
            if let Some(ps) = self.parents.get(&c) {
                for p in ps {
                    if out.insert(p.clone()) {
                        stack.push(p.clone());
                    }
                }
            }
        }
        out
    }

    /// All (transitive) subclasses, excluding the class itself.
    pub fn subclasses(&self, class: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut changed = true;
        while changed {
            changed = false;
            for (child, parents) in &self.parents {
                if out.contains(child) {
                    continue;
                }
                if parents.iter().any(|p| p == class || out.contains(p)) {
                    out.insert(child.clone());
                    changed = true;
                }
            }
        }
        out
    }

    /// Reflexive-transitive subsumption test.
    pub fn is_subclass_of(&self, child: &str, parent: &str) -> bool {
        child == parent || self.superclasses(child).contains(parent)
    }

    /// All (transitive) super-properties, excluding the property itself.
    pub fn superproperties(&self, prop: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut stack = vec![prop.to_string()];
        while let Some(c) = stack.pop() {
            if let Some(ps) = self.prop_parents.get(&c) {
                for p in ps {
                    if out.insert(p.clone()) {
                        stack.push(p.clone());
                    }
                }
            }
        }
        out
    }

    /// Are two classes disjoint, considering inheritance? (A subclass of a
    /// disjoint class inherits the disjointness.)
    pub fn are_disjoint(&self, a: &str, b: &str) -> bool {
        let mut ancestors_a: BTreeSet<String> = self.superclasses(a);
        ancestors_a.insert(a.to_string());
        let mut ancestors_b: BTreeSet<String> = self.superclasses(b);
        ancestors_b.insert(b.to_string());
        for x in &ancestors_a {
            for y in &ancestors_b {
                let pair = if x <= y {
                    (x.clone(), y.clone())
                } else {
                    (y.clone(), x.clone())
                };
                if x != y && self.disjoint.contains(&pair) {
                    return true;
                }
            }
        }
        false
    }

    /// Declared disjoint pairs (normalized order).
    pub fn disjoint_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.disjoint.iter().map(|(a, b)| (a.as_str(), b.as_str()))
    }

    /// Serialize the schema into RDF triples.
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new();
        for (iri, decl) in &self.classes {
            g.insert_iri(iri, ns::RDF_TYPE, ns::OWL_CLASS);
            if let Some(l) = &decl.label {
                g.insert_terms(
                    Term::iri(iri),
                    Term::iri(ns::RDFS_LABEL),
                    Term::lit(l.clone()),
                );
            }
            if let Some(c) = &decl.comment {
                g.insert_terms(
                    Term::iri(iri),
                    Term::iri(ns::RDFS_COMMENT),
                    Term::lit(c.clone()),
                );
            }
        }
        for (child, parents) in &self.parents {
            for p in parents {
                g.insert_iri(child, ns::RDFS_SUBCLASS_OF, p);
            }
        }
        for (child, parents) in &self.prop_parents {
            for p in parents {
                g.insert_iri(child, ns::RDFS_SUBPROPERTY_OF, p);
            }
        }
        for (iri, decl) in &self.properties {
            if let Some(d) = &decl.domain {
                g.insert_iri(iri, ns::RDFS_DOMAIN, d);
            }
            if let Some(r) = &decl.range {
                g.insert_iri(iri, ns::RDFS_RANGE, r);
            }
            if let Some(l) = &decl.label {
                g.insert_terms(
                    Term::iri(iri),
                    Term::iri(ns::RDFS_LABEL),
                    Term::lit(l.clone()),
                );
            }
            if let Some(inv) = &decl.inverse_of {
                g.insert_iri(iri, ns::OWL_INVERSE_OF, inv);
            }
            if decl.traits.functional {
                g.insert_iri(iri, ns::RDF_TYPE, ns::OWL_FUNCTIONAL);
            }
            if decl.traits.inverse_functional {
                g.insert_iri(iri, ns::RDF_TYPE, ns::OWL_INVERSE_FUNCTIONAL);
            }
            if decl.traits.symmetric {
                g.insert_iri(iri, ns::RDF_TYPE, ns::OWL_SYMMETRIC);
            }
            if decl.traits.transitive {
                g.insert_iri(iri, ns::RDF_TYPE, ns::OWL_TRANSITIVE);
            }
        }
        for (a, b) in &self.disjoint {
            g.insert_iri(a, ns::OWL_DISJOINT_WITH, b);
        }
        g
    }

    /// Reconstruct a schema from RDF triples (inverse of [`to_graph`] for
    /// the vocabulary it emits; cardinality restrictions are not round-
    /// tripped since OWL restriction blank-node encoding is out of scope).
    ///
    /// [`to_graph`]: Ontology::to_graph
    pub fn from_graph(g: &Graph) -> Self {
        let mut onto = Ontology::new();
        let iri_of = |g: &Graph, s: crate::term::Sym| -> Option<String> {
            g.resolve(s).as_iri().map(str::to_string)
        };
        for t in g.iter() {
            let p_iri = match g.resolve(t.p).as_iri() {
                Some(p) => p.to_string(),
                None => continue,
            };
            let s_iri = match iri_of(g, t.s) {
                Some(s) => s,
                None => continue,
            };
            match p_iri.as_str() {
                ns::RDF_TYPE => match g.resolve(t.o).as_iri() {
                    Some(ns::OWL_CLASS) => {
                        onto.add_class(s_iri);
                    }
                    Some(ns::OWL_FUNCTIONAL) => {
                        onto.properties.entry(s_iri).or_default().traits.functional = true;
                    }
                    Some(ns::OWL_INVERSE_FUNCTIONAL) => {
                        onto.properties
                            .entry(s_iri)
                            .or_default()
                            .traits
                            .inverse_functional = true;
                    }
                    Some(ns::OWL_SYMMETRIC) => {
                        onto.properties.entry(s_iri).or_default().traits.symmetric = true;
                    }
                    Some(ns::OWL_TRANSITIVE) => {
                        onto.properties.entry(s_iri).or_default().traits.transitive = true;
                    }
                    _ => {}
                },
                ns::RDFS_SUBCLASS_OF => {
                    if let Some(o) = iri_of(g, t.o) {
                        onto.add_subclass(s_iri, o);
                    }
                }
                ns::RDFS_SUBPROPERTY_OF => {
                    if let Some(o) = iri_of(g, t.o) {
                        onto.add_subproperty(s_iri, o);
                    }
                }
                ns::RDFS_DOMAIN => {
                    if let Some(o) = iri_of(g, t.o) {
                        onto.properties.entry(s_iri).or_default().domain = Some(o);
                    }
                }
                ns::RDFS_RANGE => {
                    if let Some(o) = iri_of(g, t.o) {
                        onto.properties.entry(s_iri).or_default().range = Some(o);
                    }
                }
                ns::OWL_INVERSE_OF => {
                    if let Some(o) = iri_of(g, t.o) {
                        onto.properties.entry(s_iri).or_default().inverse_of = Some(o);
                    }
                }
                ns::OWL_DISJOINT_WITH => {
                    if let Some(o) = iri_of(g, t.o) {
                        onto.add_disjoint(s_iri, o);
                    }
                }
                ns::RDFS_LABEL => {
                    if let Term::Literal(l) = g.resolve(t.o) {
                        if let Some(c) = onto.classes.get_mut(&s_iri) {
                            c.label = Some(l.lexical.clone());
                        } else if let Some(p) = onto.properties.get_mut(&s_iri) {
                            p.label = Some(l.lexical.clone());
                        }
                    }
                }
                _ => {}
            }
        }
        onto
    }

    /// Number of declared classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of declared properties.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Ontology {
        let mut o = Ontology::new();
        o.add_subclass("http://v/Student", "http://v/Person");
        o.add_subclass("http://v/Professor", "http://v/Person");
        o.add_subclass("http://v/PhdStudent", "http://v/Student");
        o.add_disjoint("http://v/Person", "http://v/Organization");
        o.add_property(
            "http://v/advisor",
            PropertyDecl {
                domain: Some("http://v/Student".into()),
                range: Some("http://v/Professor".into()),
                traits: PropertyTraits {
                    functional: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        o
    }

    #[test]
    fn transitive_subsumption() {
        let o = people();
        assert!(o.is_subclass_of("http://v/PhdStudent", "http://v/Person"));
        assert!(o.is_subclass_of("http://v/Person", "http://v/Person"));
        assert!(!o.is_subclass_of("http://v/Person", "http://v/Student"));
        assert_eq!(o.superclasses("http://v/PhdStudent").len(), 2);
        assert_eq!(o.subclasses("http://v/Person").len(), 3);
    }

    #[test]
    fn disjointness_is_inherited() {
        let o = people();
        assert!(o.are_disjoint("http://v/Person", "http://v/Organization"));
        assert!(o.are_disjoint("http://v/PhdStudent", "http://v/Organization"));
        assert!(!o.are_disjoint("http://v/Student", "http://v/Professor"));
        assert!(!o.are_disjoint("http://v/Person", "http://v/Person"));
    }

    #[test]
    fn graph_round_trip_preserves_schema() {
        let o = people();
        let g = o.to_graph();
        let o2 = Ontology::from_graph(&g);
        assert_eq!(o2.class_count(), o.class_count());
        assert!(o2.is_subclass_of("http://v/PhdStudent", "http://v/Person"));
        assert!(o2.are_disjoint("http://v/Student", "http://v/Organization"));
        let adv = o2.property("http://v/advisor").unwrap();
        assert_eq!(adv.domain.as_deref(), Some("http://v/Student"));
        assert!(adv.traits.functional);
    }

    #[test]
    fn subproperty_closure() {
        let mut o = Ontology::new();
        o.add_subproperty("http://v/mother", "http://v/parent");
        o.add_subproperty("http://v/parent", "http://v/ancestor");
        let sup = o.superproperties("http://v/mother");
        assert!(sup.contains("http://v/parent"));
        assert!(sup.contains("http://v/ancestor"));
        assert_eq!(sup.len(), 2);
    }

    #[test]
    fn labels_and_comments_serialize() {
        let mut o = Ontology::new();
        o.add_labeled_class("http://v/Film", "Film");
        o.add_class("http://v/Film").comment = Some("A motion picture".into());
        let g = o.to_graph();
        let film = g.pool().get_iri("http://v/Film").unwrap();
        assert_eq!(g.display_name(film), "Film");
        assert_eq!(g.len(), 3); // type, label, comment
    }
}
