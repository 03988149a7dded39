//! # kg — knowledge-graph substrate
//!
//! The storage and data-model layer that every other crate in the `llmkg`
//! workspace builds on. It provides:
//!
//! * interned RDF-style terms ([`Term`], [`Sym`], [`TermPool`]),
//! * an indexed in-memory triple store ([`Graph`]) with pattern matching
//!   over all eight subject/predicate/object binding shapes,
//! * an entity-name index ([`EntityNames`]) that finds the entities a text
//!   mentions in one pass over the text,
//! * an ontology / schema model ([`ontology::Ontology`]) with the constraint
//!   vocabulary needed for KG validation (domain/range, disjointness,
//!   functional properties, cardinality, …),
//! * a Turtle-subset and N-Triples parser and serializer ([`turtle`]),
//! * seeded synthetic KG generators ([`synth`]) standing in for Freebase /
//!   Wikidata-scale dumps, and error injection ([`corrupt`]) for the
//!   validation experiments.
//!
//! Everything is deterministic: generators take explicit seeds and all
//! outputs iterate in stable (interning or sorted) order.

pub mod analysis;
pub mod baseline;
pub mod corrupt;
pub mod error;
pub mod names;
pub mod namespace;
pub mod ontology;
pub mod store;
pub mod synth;
pub mod term;
pub mod turtle;

pub use baseline::BaselineGraph;
pub use error::KgError;
pub use names::{EntityName, EntityNames};
pub use ontology::Ontology;
pub use store::{
    Graph, MergeMatches, MergeProbe, PatternScan, PredicateCard, Triple, TriplePattern,
};
pub use term::{Sym, Term, TermPool};
