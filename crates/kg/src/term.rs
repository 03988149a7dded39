//! RDF-style terms and the interning pool.
//!
//! All IRIs, literals, and blank nodes are interned into a [`TermPool`],
//! yielding compact [`Sym`] ids (`u32`). Hot paths throughout the workspace
//! (indexes, joins, embedding training) operate on `Sym` only; the string
//! forms are resolved at the edges (parsing, serialization, verbalization).

use std::collections::HashMap;
use std::fmt;

use crate::error::{KgError, Result};

/// An interned term id. Cheap to copy, hash, and compare; ordered by
/// interning sequence, which is stable for a deterministically built pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The raw index into the owning pool.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A literal value with optional datatype or language tag.
///
/// Exactly one of `datatype` / `language` may be set; a plain string literal
/// has neither.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The lexical form, e.g. `"42"` or `"Berlin"`.
    pub lexical: String,
    /// Datatype IRI, e.g. `http://www.w3.org/2001/XMLSchema#integer`.
    pub datatype: Option<String>,
    /// BCP-47 language tag, e.g. `en`.
    pub language: Option<String>,
}

impl Literal {
    /// A plain (untyped, untagged) string literal.
    pub fn string(lexical: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: None,
            language: None,
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Literal {
            lexical: value.to_string(),
            datatype: Some(crate::namespace::XSD_INTEGER.to_string()),
            language: None,
        }
    }

    /// An `xsd:double` literal.
    pub fn double(value: f64) -> Self {
        Literal {
            lexical: format!("{value}"),
            datatype: Some(crate::namespace::XSD_DOUBLE.to_string()),
            language: None,
        }
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Self {
        Literal {
            lexical: value.to_string(),
            datatype: Some(crate::namespace::XSD_BOOLEAN.to_string()),
            language: None,
        }
    }

    /// A language-tagged string literal.
    pub fn lang(lexical: impl Into<String>, tag: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: None,
            language: Some(tag.into()),
        }
    }

    /// Parse the lexical form as an integer if the datatype says so.
    pub fn as_integer(&self) -> Option<i64> {
        match self.datatype.as_deref() {
            Some(crate::namespace::XSD_INTEGER) => self.lexical.parse().ok(),
            _ => None,
        }
    }

    /// Parse the lexical form as a double for numeric datatypes.
    pub fn as_double(&self) -> Option<f64> {
        match self.datatype.as_deref() {
            Some(crate::namespace::XSD_DOUBLE) | Some(crate::namespace::XSD_INTEGER) => {
                self.lexical.parse().ok()
            }
            _ => None,
        }
    }
}

/// An RDF term: IRI, literal, or blank node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored in full form.
    Iri(String),
    /// A literal with optional datatype / language tag.
    Literal(Literal),
    /// A blank node with a local label.
    Blank(String),
}

impl Term {
    /// Shorthand for an IRI term.
    pub fn iri(s: impl Into<String>) -> Self {
        Term::Iri(s.into())
    }

    /// Shorthand for a plain string literal term.
    pub fn lit(s: impl Into<String>) -> Self {
        Term::Literal(Literal::string(s))
    }

    /// Shorthand for an integer literal term.
    pub fn int(v: i64) -> Self {
        Term::Literal(Literal::integer(v))
    }

    /// Is this term an IRI?
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// The IRI string, if this is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The literal, if this is a literal.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// A human-readable label: the IRI local name, the literal lexical form,
    /// or the blank label. Used heavily by verbalization.
    pub fn label(&self) -> &str {
        match self {
            Term::Iri(s) => crate::namespace::local_name(s),
            Term::Literal(l) => &l.lexical,
            Term::Blank(b) => b,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(s) => write!(f, "<{s}>"),
            Term::Literal(l) => {
                write!(f, "{:?}", l.lexical)?;
                if let Some(dt) = &l.datatype {
                    write!(f, "^^<{dt}>")?;
                } else if let Some(tag) = &l.language {
                    write!(f, "@{tag}")?;
                }
                Ok(())
            }
            Term::Blank(b) => write!(f, "_:{b}"),
        }
    }
}

/// An interning pool mapping [`Term`]s to dense [`Sym`] ids and back.
///
/// Interning order is deterministic given a deterministic insertion order,
/// which the rest of the workspace relies on for reproducible outputs.
#[derive(Debug, Default, Clone)]
pub struct TermPool {
    terms: Vec<Term>,
    lookup: HashMap<Term, Sym>,
}

impl TermPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id (existing or fresh).
    pub fn intern(&mut self, term: Term) -> Sym {
        if let Some(&sym) = self.lookup.get(&term) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.terms.len()).expect("term pool overflow"));
        self.terms.push(term.clone());
        self.lookup.insert(term, sym);
        sym
    }

    /// Intern an IRI given as a string.
    pub fn intern_iri(&mut self, iri: impl Into<String>) -> Sym {
        self.intern(Term::Iri(iri.into()))
    }

    /// Look up a term without interning it.
    pub fn get(&self, term: &Term) -> Option<Sym> {
        self.lookup.get(term).copied()
    }

    /// Look up an IRI without interning it.
    pub fn get_iri(&self, iri: &str) -> Option<Sym> {
        self.lookup.get(&Term::Iri(iri.to_string())).copied()
    }

    /// Resolve an id back to its term. Panics on a foreign id; use
    /// [`TermPool::try_resolve`] for fallible resolution.
    pub fn resolve(&self, sym: Sym) -> &Term {
        &self.terms[sym.index()]
    }

    /// Fallible resolution of an id to its term.
    pub fn try_resolve(&self, sym: Sym) -> Result<&Term> {
        self.terms
            .get(sym.index())
            .ok_or(KgError::UnknownSym(sym.0))
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate `(Sym, &Term)` in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (Sym(i as u32), t))
    }

    /// Human-readable label for an id (local name / lexical form).
    pub fn label(&self, sym: Sym) -> &str {
        self.resolve(sym).label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut pool = TermPool::new();
        let a = pool.intern_iri("http://ex.org/a");
        let b = pool.intern_iri("http://ex.org/b");
        let a2 = pool.intern_iri("http://ex.org/a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut pool = TermPool::new();
        let t = Term::lit("hello");
        let s = pool.intern(t.clone());
        assert_eq!(pool.resolve(s), &t);
        assert_eq!(pool.get(&t), Some(s));
    }

    #[test]
    fn try_resolve_rejects_foreign_ids() {
        let pool = TermPool::new();
        assert_eq!(pool.try_resolve(Sym(0)), Err(KgError::UnknownSym(0)));
    }

    #[test]
    fn literals_distinguish_datatype_and_language() {
        let mut pool = TermPool::new();
        let plain = pool.intern(Term::lit("x"));
        let tagged = pool.intern(Term::Literal(Literal::lang("x", "en")));
        let typed = pool.intern(Term::Literal(Literal {
            lexical: "x".into(),
            datatype: Some("http://ex.org/dt".into()),
            language: None,
        }));
        assert_ne!(plain, tagged);
        assert_ne!(plain, typed);
        assert_ne!(tagged, typed);
    }

    #[test]
    fn integer_literal_parses_back() {
        let l = Literal::integer(-42);
        assert_eq!(l.as_integer(), Some(-42));
        assert_eq!(l.as_double(), Some(-42.0));
        assert_eq!(Literal::string("7").as_integer(), None);
    }

    #[test]
    fn labels_use_local_names() {
        assert_eq!(Term::iri("http://ex.org/vocab#Person").label(), "Person");
        assert_eq!(Term::iri("http://ex.org/people/alice").label(), "alice");
        assert_eq!(Term::lit("Alice").label(), "Alice");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://e/a").to_string(), "<http://e/a>");
        assert_eq!(Term::lit("hi").to_string(), "\"hi\"");
        assert_eq!(Term::Blank("b0".into()).to_string(), "_:b0");
        let tagged = Term::Literal(Literal::lang("hi", "en"));
        assert_eq!(tagged.to_string(), "\"hi\"@en");
    }

    #[test]
    fn pool_iteration_in_interning_order() {
        let mut pool = TermPool::new();
        pool.intern_iri("http://e/1");
        pool.intern_iri("http://e/2");
        let ids: Vec<u32> = pool.iter().map(|(s, _)| s.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
