//! Prepared queries and the statistics-epoch plan cache.
//!
//! Production KG+LLM loops re-issue the same *templated* query shapes
//! every turn — the chatbot's text2sparql output and the serving tier's
//! sparql scenario differ only in the anchor entity. [`PreparedQuery`]
//! amortizes the per-turn optimizer work (parse + algebra lowering +
//! variable interning + join ordering) into a one-time compilation that
//! can be run many times with fresh parameter bindings, and
//! [`PlanCache`] shares those artifacts across turns:
//!
//! * cache keys are **normalized** query text ([`crate::parser::normalize`]):
//!   whitespace, comments, and variable *names* vanish, so two templates
//!   that differ only in formatting or variable spelling share one entry;
//! * cached plans are invalidated on the graph's **statistics epoch**
//!   ([`kg::Graph::stats_epoch`]): the graph bumps the epoch once
//!   cumulative [`kg::PredicateCard`] drift crosses a threshold, and a
//!   lookup whose entry carries a stale epoch recompiles instead of
//!   serving a join order planned under dead statistics — additionally,
//!   a plan that compiled a constant as *absent from the term pool*
//!   (statically empty) is invalidated the moment that constant gets
//!   interned, an exact check ([`PreparedQuery::is_current`]) because
//!   that transition changes results, not just plan quality;
//! * parameters bind via the same semantics as a `VALUES ?param { term }`
//!   clause — [`values_clause`] renders the textual equivalent, and
//!   [`PreparedQuery::run_with`] seeds the compiled slot directly, so the
//!   two routes return bit-identical rows.
//!
//! Cache traffic surfaces as `plan_cache.{hits,misses,invalidations}`
//! counters (see `docs/observability.md`); callers record them from
//! [`CacheOutcome`] via [`obs::Span::count`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use kg::term::{Sym, Term};
use kg::Graph;

use crate::error::QueryError;
use crate::exec::{compile_query_with_params, execute_compiled, CompiledQuery, ExecOptions};
use crate::parser::{normalize, parse};
use crate::results::ResultSet;

/// A query prepared against one graph: parsed, compiled, and join-ordered
/// once, runnable many times with fresh parameter bindings.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    key: String,
    compiled: CompiledQuery,
    epoch: u64,
    /// Constant terms the compiler resolved to "absent from the pool"
    /// (statically-empty patterns / dropped `VALUES` entries). Unlike
    /// join-order staleness — which only costs performance and is
    /// tolerated until the drift-thresholded epoch bump — an
    /// absent→present transition for one of these changes *results*, so
    /// [`is_current`](PreparedQuery::is_current) re-probes them on every
    /// cache lookup. Almost always empty: queries over live vocabulary
    /// resolve every constant.
    unresolved: Vec<Term>,
}

impl PreparedQuery {
    /// Parse and compile a query whose `params` variables receive values
    /// per execution ([`run_with`](PreparedQuery::run_with)); pass `&[]`
    /// for a query without parameters. The parameters are treated as
    /// bound for join ordering, so the plan matches what a
    /// `VALUES ?param { … }` clause at the head of the group would
    /// produce.
    pub fn prepare(
        graph: &Graph,
        text: &str,
        params: &[&str],
    ) -> Result<PreparedQuery, QueryError> {
        let key = cache_key(text, params)?;
        let query = parse(text)?;
        let compiled = compile_query_with_params(graph, &query, params);
        let mut unresolved = Vec::new();
        collect_unresolved(graph, &query.pattern, &mut unresolved);
        Ok(PreparedQuery {
            key,
            compiled,
            epoch: graph.stats_epoch(),
            unresolved,
        })
    }

    /// The normalized cache key this query is stored under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The graph statistics epoch the plan was compiled under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this plan is still valid against `graph`: compiled at the
    /// current statistics epoch, and every constant the compiler found
    /// absent from the term pool is still absent. The second check is a
    /// correctness requirement, not a cost-model one — an absent
    /// constant compiles to a statically-empty pattern (or a dropped
    /// `VALUES` entry), so interning it later would make the cached plan
    /// return different rows than a fresh compile.
    pub fn is_current(&self, graph: &Graph) -> bool {
        self.epoch == graph.stats_epoch()
            && self
                .unresolved
                .iter()
                .all(|t| graph.pool().get(t).is_none())
    }

    /// Run with no parameter bindings and no span.
    pub fn run<'g>(
        &self,
        graph: &'g Graph,
        opts: &ExecOptions,
    ) -> Result<ResultSet<'g>, QueryError> {
        self.run_with(graph, &[], opts, &obs::Span::disabled())
    }

    /// Run with parameter bindings, by variable name, under an
    /// observability span: the same `sparql.execute` span and `exec.*`
    /// counters as [`crate::exec::execute`], which shares this runner.
    ///
    /// A parameter term that is not interned in the graph's pool yields
    /// an empty (fully projected) result — the same subset semantics as
    /// a textual `VALUES` clause listing that term. An unknown variable
    /// name is a [`QueryError::UnboundVariable`].
    pub fn run_with<'g>(
        &self,
        graph: &'g Graph,
        params: &[(&str, Term)],
        opts: &ExecOptions,
        parent: &obs::Span,
    ) -> Result<ResultSet<'g>, QueryError> {
        let bindings = self.bindings(graph, params)?;
        execute_compiled(graph, &self.compiled, opts, &bindings, parent)
    }

    fn bindings(
        &self,
        graph: &Graph,
        params: &[(&str, Term)],
    ) -> Result<Vec<(usize, Option<Sym>)>, QueryError> {
        params
            .iter()
            .map(|(name, term)| {
                let slot = self
                    .compiled
                    .var_slot(name)
                    .ok_or_else(|| QueryError::UnboundVariable((*name).to_string()))?;
                Ok((slot, graph.pool().get(term)))
            })
            .collect()
    }
}

/// Collect the constant terms of `group` that the compiler pre-resolves
/// against the term pool and currently finds absent — the exact set
/// [`PreparedQuery::is_current`] must re-probe. Mirrors the compile
/// sites in `exec`: triple-pattern constant subjects/objects, predicate
/// IRIs (plain or anywhere inside a composite property path), and
/// `VALUES` terms. `FILTER` constants are excluded on purpose: filters
/// compare terms by value, so they cannot go stale.
fn collect_unresolved(graph: &Graph, group: &crate::ast::GroupPattern, out: &mut Vec<Term>) {
    use crate::ast::{NodeRef, PatternElem};
    let node = |n: &NodeRef, out: &mut Vec<Term>| {
        if let NodeRef::Const(term) = n {
            if graph.pool().get(term).is_none() {
                out.push(term.clone());
            }
        }
    };
    for elem in &group.elems {
        match elem {
            PatternElem::Triple(t) => {
                node(&t.s, out);
                collect_unresolved_path(graph, &t.p, out);
                node(&t.o, out);
            }
            PatternElem::Filter(_) => {}
            PatternElem::Optional(inner) => collect_unresolved(graph, inner, out),
            PatternElem::Union(l, r) => {
                collect_unresolved(graph, l, out);
                collect_unresolved(graph, r, out);
            }
            PatternElem::Values(_, terms) => {
                for term in terms {
                    if graph.pool().get(term).is_none() {
                        out.push(term.clone());
                    }
                }
            }
        }
    }
}

/// The predicate IRIs of a property path that the pool lacks.
fn collect_unresolved_path(graph: &Graph, path: &crate::ast::PropPath, out: &mut Vec<Term>) {
    use crate::ast::PropPath;
    match path {
        PropPath::Iri(iri) => {
            if graph.pool().get_iri(iri).is_none() {
                out.push(Term::iri(iri.clone()));
            }
        }
        PropPath::Var(_) => {}
        PropPath::Inverse(inner) | PropPath::OneOrMore(inner) | PropPath::ZeroOrMore(inner) => {
            collect_unresolved_path(graph, inner, out)
        }
        PropPath::Seq(l, r) | PropPath::Alt(l, r) => {
            collect_unresolved_path(graph, l, out);
            collect_unresolved_path(graph, r, out);
        }
    }
}

/// The cache key for a query text + parameter list: normalized text, so
/// whitespace/comment/variable-name differences collapse, with the
/// parameter names appended (the same text prepared with different
/// parameter sets has different plans).
/// The raw-text memo key: the request text verbatim, with the parameter
/// signature appended when present (borrowing in the common no-params
/// case keeps the fast path allocation-free).
fn raw_memo_key<'a>(text: &'a str, params: &[&str]) -> std::borrow::Cow<'a, str> {
    if params.is_empty() {
        std::borrow::Cow::Borrowed(text)
    } else {
        std::borrow::Cow::Owned(format!("{text}|params={params:?}"))
    }
}

fn cache_key(text: &str, params: &[&str]) -> Result<String, QueryError> {
    let norm = normalize(text)?;
    if params.is_empty() {
        Ok(norm)
    } else {
        Ok(format!("{norm}|params={params:?}"))
    }
}

/// How a [`PlanCache`] lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache with a current statistics epoch.
    Hit,
    /// Not cached; compiled and inserted.
    Miss,
    /// Cached but planned under a stale statistics epoch; recompiled
    /// and replaced.
    Invalidated,
}

/// A point-in-time snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served from the cache at the current epoch.
    pub hits: u64,
    /// Lookups that compiled a new entry.
    pub misses: u64,
    /// Lookups that recompiled a stale entry.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl PlanCacheStats {
    /// Hit rate over every lookup that consulted the cache — the
    /// "warmth" gauge the serve `stats` reply surfaces. `0.0` before any
    /// traffic; invalidations count against warmth (a stale plan did
    /// not save the compile).
    pub fn warmth(&self) -> f64 {
        let total = self.hits + self.misses + self.invalidations;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident plan plus its second-chance bit.
struct CacheEntry {
    plan: Arc<PreparedQuery>,
    /// Set on every hit; the eviction hand clears it and grants one more
    /// round instead of evicting, so hot templates survive cold churn.
    referenced: bool,
}

struct CacheInner {
    map: HashMap<String, CacheEntry>,
    /// Clock queue for second-chance eviction: candidates pop from the
    /// front; a referenced candidate is unmarked and requeued, an
    /// unreferenced one is evicted.
    order: VecDeque<String>,
    /// Raw-text memo: exact request text (plus parameter signature) →
    /// canonical normalized key. Serving workloads repeat byte-identical
    /// query texts (templated clients, dashboards, retries), and
    /// normalization re-lexes the whole text — this memo turns those
    /// repeats into two hash lookups. Entries may dangle after an
    /// eviction (the fast path then falls through to the slow path) and
    /// the memo is cleared wholesale when it outgrows its bound.
    raw: HashMap<String, String>,
}

/// A shared, thread-safe cache of [`PreparedQuery`] artifacts keyed on
/// normalized query text, invalidated lazily per entry when the graph's
/// statistics epoch moves past the epoch the plan was compiled under.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

/// Default entry capacity for a [`PlanCache`]: generous for the handful
/// of templates a chatbot or tenant class cycles through, small enough
/// that a scan of pathological one-off queries cannot hold real memory.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// An empty cache holding at most `capacity` entries (second-chance
    /// eviction: hot entries survive cold-query churn).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                raw: HashMap::new(),
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Look up (or compile and insert) a prepared query for `text`.
    pub fn prepare(
        &self,
        graph: &Graph,
        text: &str,
    ) -> Result<(Arc<PreparedQuery>, CacheOutcome), QueryError> {
        self.prepare_with_params(graph, text, &[])
    }

    /// Look up (or compile and insert) a parameterized prepared query.
    ///
    /// A cached entry is served only while it
    /// [`is_current`](PreparedQuery::is_current) — compile-time
    /// statistics epoch matching [`Graph::stats_epoch`] and every
    /// compile-time-absent constant still un-interned; a stale entry is
    /// recompiled in place and reported as
    /// [`CacheOutcome::Invalidated`]. Entries for other keys are
    /// untouched — the check evicts exactly the plans actually consulted
    /// after the statistics moved.
    pub fn prepare_with_params(
        &self,
        graph: &Graph,
        text: &str,
        params: &[&str],
    ) -> Result<(Arc<PreparedQuery>, CacheOutcome), QueryError> {
        // Fast path: a byte-identical text seen before skips
        // normalization (which re-lexes the whole query) — the dominant
        // cost of a hit, and the common case for templated clients that
        // resend the exact same text.
        let raw_key = raw_memo_key(text, params);
        {
            let mut inner = self.inner.lock().expect("plan cache lock");
            if let Some(key) = inner.raw.get(raw_key.as_ref()).cloned() {
                if let Some(entry) = inner.map.get_mut(&key) {
                    if entry.plan.is_current(graph) {
                        entry.referenced = true;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((Arc::clone(&entry.plan), CacheOutcome::Hit));
                    }
                }
            }
        }
        let key = cache_key(text, params)?;
        let stale = {
            let mut inner = self.inner.lock().expect("plan cache lock");
            self.memoize_raw(&mut inner, raw_key.as_ref(), &key);
            match inner.map.get_mut(&key) {
                Some(entry) if entry.plan.is_current(graph) => {
                    entry.referenced = true;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((Arc::clone(&entry.plan), CacheOutcome::Hit));
                }
                Some(_) => true,
                None => false,
            }
        };
        // compile outside the lock: planning can be arbitrarily slower
        // than a lookup and must not serialize unrelated cache traffic
        let prepared = Arc::new(PreparedQuery::prepare(graph, text, params)?);
        let mut inner = self.inner.lock().expect("plan cache lock");
        let outcome = if stale || inner.map.contains_key(&key) {
            // treat a racing insert like a stale entry: replace it
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            CacheOutcome::Invalidated
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            CacheOutcome::Miss
        };
        if !inner.map.contains_key(&key) {
            // Second-chance eviction: a candidate whose referenced bit is
            // set since it was last considered gets the bit cleared and
            // one more lap instead of eviction. Bounded: each lap clears
            // bits, so after at most one full cycle a victim exists.
            while inner.map.len() >= self.capacity {
                let Some(victim) = inner.order.pop_front() else {
                    break;
                };
                match inner.map.get_mut(&victim) {
                    Some(entry) if entry.referenced => {
                        entry.referenced = false;
                        inner.order.push_back(victim);
                    }
                    Some(_) => {
                        inner.map.remove(&victim);
                    }
                    // dangling queue entry for an already-removed key
                    None => {}
                }
            }
            inner.order.push_back(key.clone());
        }
        // new and recompiled entries start cold: they must be hit again
        // to earn a second chance
        inner.map.insert(
            key,
            CacheEntry {
                plan: Arc::clone(&prepared),
                referenced: false,
            },
        );
        Ok((prepared, outcome))
    }

    /// Record a raw-text → canonical-key memo entry, clearing the memo
    /// wholesale when it outgrows its bound (it is only a shortcut — a
    /// cleared memo costs one re-normalization per distinct text).
    fn memoize_raw(&self, inner: &mut CacheInner, raw_key: &str, key: &str) {
        if inner.raw.len() >= self.capacity.saturating_mul(8) {
            inner.raw.clear();
        }
        if inner.raw.get(raw_key).map(String::as_str) != Some(key) {
            inner.raw.insert(raw_key.to_string(), key.to_string());
        }
    }

    /// Current counters and entry count.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("plan cache lock").map.len(),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache lock").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Render a term in subset-SPARQL syntax, if and only if it round-trips
/// through the parser unchanged. Returns `None` for anything the subset
/// grammar cannot re-read — blank nodes, negative numbers, non-finite
/// doubles, typed literals beyond integer/double/boolean, and IRIs
/// containing delimiter or whitespace characters (which is what makes
/// this helper injection-safe: a hostile "IRI" like `http://x> } ?s ?p
/// ?o #` is rejected instead of splicing new syntax into the query).
pub fn render_term(term: &Term) -> Option<String> {
    match term {
        Term::Iri(iri) => {
            if kg::namespace::is_valid_iri(iri) {
                Some(format!("<{iri}>"))
            } else {
                None
            }
        }
        Term::Blank(_) => None,
        Term::Literal(l) => match l.datatype.as_deref() {
            None => {
                // plain string: escape the delimiters the lexer unescapes
                let mut out = String::with_capacity(l.lexical.len() + 2);
                out.push('"');
                for c in l.lexical.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        other => out.push(other),
                    }
                }
                out.push('"');
                Some(out)
            }
            Some(kg::namespace::XSD_INTEGER) => {
                let v = l.as_integer()?;
                // the lexer has no sign token, so negatives cannot re-read
                (v >= 0).then(|| v.to_string())
            }
            Some(kg::namespace::XSD_DOUBLE) => {
                let v = l.as_double()?;
                // {:?} is shortest-roundtrip; accept only renderings the
                // digits-and-dot lexer can re-read (no sign, no exponent)
                let s = format!("{v:?}");
                (v.is_finite() && s.chars().all(|c| c.is_ascii_digit() || c == '.')).then_some(s)
            }
            Some(kg::namespace::XSD_BOOLEAN) => match l.lexical.as_str() {
                "true" => Some("true".to_string()),
                "false" => Some("false".to_string()),
                _ => None,
            },
            Some(_) => None,
        },
    }
}

/// Render a `VALUES ?var { … }` clause binding `var` to `terms`, or
/// `None` if the variable name or any term cannot round-trip through the
/// parser. Splicing the returned clause at the head of a `WHERE` group
/// is the textual equivalent of [`PreparedQuery::run_with`].
pub fn values_clause(var: &str, terms: &[Term]) -> Option<String> {
    if var.is_empty() || !var.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    let mut out = format!("VALUES ?{var} {{");
    for t in terms {
        out.push(' ');
        out.push_str(&render_term(t)?);
    }
    out.push_str(" }");
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_sparql_with;

    fn movie_graph() -> Graph {
        let mut g = Graph::new();
        for (film, who) in [("f1", "d1"), ("f2", "d2"), ("f3", "d1")] {
            g.insert_iri(
                &format!("http://e/{film}"),
                "http://v/directedBy",
                &format!("http://e/{who}"),
            );
        }
        g
    }

    const TEMPLATE: &str = "SELECT ?answer WHERE { ?anchor <http://v/directedBy> ?answer }";

    #[test]
    fn prepared_run_with_matches_values_injected_text() {
        let g = movie_graph();
        let prep = PreparedQuery::prepare(&g, TEMPLATE, &["anchor"]).unwrap();
        let opts = ExecOptions::default();
        for film in ["http://e/f1", "http://e/f2", "http://e/f3"] {
            let term = Term::iri(film);
            let values = values_clause("anchor", std::slice::from_ref(&term)).unwrap();
            let textual = format!(
                "SELECT ?answer WHERE {{ {values} ?anchor <http://v/directedBy> ?answer }}"
            );
            let via_text = execute_sparql_with(&g, &textual, &opts).unwrap();
            let via_params = prep
                .run_with(&g, &[("anchor", term)], &opts, &obs::Span::disabled())
                .unwrap();
            assert_eq!(via_text.vars, via_params.vars, "{film}");
            assert_eq!(via_text.to_terms(), via_params.to_terms(), "{film}");
        }
    }

    #[test]
    fn uninterned_param_is_empty_not_error() {
        let g = movie_graph();
        let prep = PreparedQuery::prepare(&g, TEMPLATE, &["anchor"]).unwrap();
        let rs = prep
            .run_with(
                &g,
                &[("anchor", Term::iri("http://e/never-seen"))],
                &ExecOptions::default(),
                &obs::Span::disabled(),
            )
            .unwrap();
        assert!(rs.is_empty());
        assert_eq!(rs.vars, vec!["answer"]);
        // same as the textual VALUES route
        let textual = "SELECT ?answer WHERE { VALUES ?anchor { <http://e/never-seen> } \
                       ?anchor <http://v/directedBy> ?answer }";
        let via_text = execute_sparql_with(&g, textual, &ExecOptions::default()).unwrap();
        assert_eq!(via_text.to_terms(), rs.to_terms());
    }

    #[test]
    fn unknown_param_name_errors() {
        let g = movie_graph();
        let prep = PreparedQuery::prepare(&g, TEMPLATE, &["anchor"]).unwrap();
        assert!(matches!(
            prep.run_with(
                &g,
                &[("nope", Term::iri("http://e/f1"))],
                &ExecOptions::default(),
                &obs::Span::disabled(),
            ),
            Err(QueryError::UnboundVariable(v)) if v == "nope"
        ));
    }

    #[test]
    fn cache_hits_across_whitespace_and_var_renames() {
        let g = movie_graph();
        let cache = PlanCache::default();
        let (_, o1) = cache
            .prepare(&g, "SELECT ?x WHERE { ?x <http://v/directedBy> ?y }")
            .unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        // same shape: more whitespace, a comment, different variable names
        let (_, o2) = cache
            .prepare(
                &g,
                "SELECT ?film  WHERE {\n  ?film <http://v/directedBy> ?who . # hi\n}",
            )
            .unwrap();
        assert_eq!(o2, CacheOutcome::Hit);
        assert_eq!(cache.len(), 1);
        // a different constant is a different plan
        let (_, o3) = cache
            .prepare(&g, "SELECT ?x WHERE { ?x <http://v/other> ?y }")
            .unwrap();
        assert_eq!(o3, CacheOutcome::Miss);
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (1, 2, 0));
    }

    #[test]
    fn params_partition_the_key_space() {
        let g = movie_graph();
        let cache = PlanCache::default();
        let (_, o1) = cache
            .prepare_with_params(&g, TEMPLATE, &["anchor"])
            .unwrap();
        let (_, o2) = cache.prepare(&g, TEMPLATE).unwrap();
        assert_eq!((o1, o2), (CacheOutcome::Miss, CacheOutcome::Miss));
        let (_, o3) = cache
            .prepare_with_params(&g, TEMPLATE, &["anchor"])
            .unwrap();
        assert_eq!(o3, CacheOutcome::Hit);
    }

    #[test]
    fn epoch_bump_invalidates_exactly_consulted_entries() {
        let mut g = movie_graph();
        let cache = PlanCache::default();
        let q1 = "SELECT ?x WHERE { ?x <http://v/directedBy> ?y }";
        let q2 = "SELECT ?y WHERE { ?x <http://v/directedBy> ?y } LIMIT 1";
        cache.prepare(&g, q1).unwrap();
        cache.prepare(&g, q2).unwrap();
        let before = g.stats_epoch();
        g.bump_stats_epoch();
        assert_ne!(g.stats_epoch(), before);
        // consulting q1 recompiles it; q2 stays resident untouched
        let (p1, o1) = cache.prepare(&g, q1).unwrap();
        assert_eq!(o1, CacheOutcome::Invalidated);
        assert_eq!(p1.epoch(), g.stats_epoch());
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 2);
        // next consult of either is a hit at the new epoch
        let (_, o1b) = cache.prepare(&g, q1).unwrap();
        let (_, o2b) = cache.prepare(&g, q2).unwrap();
        assert_eq!(o1b, CacheOutcome::Hit);
        assert_eq!(o2b, CacheOutcome::Invalidated);
    }

    #[test]
    fn interning_a_compile_time_absent_constant_invalidates() {
        let mut g = movie_graph();
        let cache = PlanCache::default();
        // <http://e/f9> is not in the pool: compiles statically empty
        let q = "SELECT ?y WHERE { <http://e/f9> <http://v/directedBy> ?y }";
        let (p1, o1) = cache.prepare(&g, q).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        assert!(p1.run(&g, &ExecOptions::default()).unwrap().is_empty());
        // inserting one triple is far below the epoch drift threshold…
        let epoch = g.stats_epoch();
        g.insert_iri("http://e/f9", "http://v/directedBy", "http://e/d1");
        assert_eq!(g.stats_epoch(), epoch);
        // …but the constant now resolves, so the entry must recompile
        assert!(!p1.is_current(&g));
        let (p2, o2) = cache.prepare(&g, q).unwrap();
        assert_eq!(o2, CacheOutcome::Invalidated);
        let rs = p2.run(&g, &ExecOptions::default()).unwrap();
        assert_eq!(rs.len(), 1);
        // and the recompiled entry (no absent constants left) hits again
        let (_, o3) = cache.prepare(&g, q).unwrap();
        assert_eq!(o3, CacheOutcome::Hit);
    }

    #[test]
    fn interning_a_path_leg_absent_at_compile_time_invalidates() {
        let mut g = movie_graph();
        let cache = PlanCache::default();
        // the second leg's predicate is not in the pool yet: the compiled
        // path matches nothing
        let q = "SELECT ?f ?s WHERE { ?f <http://v/directedBy>/<http://v/spouse> ?s }";
        let (p1, o1) = cache.prepare(&g, q).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        assert!(p1.run(&g, &ExecOptions::default()).unwrap().is_empty());
        let epoch = g.stats_epoch();
        g.insert_iri("http://e/d1", "http://v/spouse", "http://e/s1");
        assert_eq!(g.stats_epoch(), epoch);
        // the leg now resolves, so the cached plan must not be reused
        assert!(!p1.is_current(&g));
        let (p2, o2) = cache.prepare(&g, q).unwrap();
        assert_eq!(o2, CacheOutcome::Invalidated);
        let rs = p2.run(&g, &ExecOptions::default()).unwrap();
        let rows = rs.to_terms();
        let row = |f: &str| vec![Some(Term::iri(f)), Some(Term::iri("http://e/s1"))];
        assert_eq!(rows, vec![row("http://e/f1"), row("http://e/f3")]);
        let fresh = execute_sparql_with(&g, q, &ExecOptions::default()).unwrap();
        assert_eq!(rs, fresh);
    }

    #[test]
    fn second_chance_eviction_spares_hot_entries() {
        let g = movie_graph();
        let cache = PlanCache::new(2);
        let qa = "SELECT ?x WHERE { ?x <http://v/a> ?y }";
        let qb = "SELECT ?x WHERE { ?x <http://v/b> ?y }";
        let qc = "SELECT ?x WHERE { ?x <http://v/c> ?y }";
        cache.prepare(&g, qa).unwrap();
        cache.prepare(&g, qb).unwrap();
        // hit A: its referenced bit now grants one second chance
        let (_, o) = cache.prepare(&g, qa).unwrap();
        assert_eq!(o, CacheOutcome::Hit);
        // inserting C must evict B (A is oldest but referenced: the hand
        // clears its bit and requeues it; B, unreferenced, is the victim)
        cache.prepare(&g, qc).unwrap();
        assert_eq!(cache.len(), 2);
        let (_, oa) = cache.prepare(&g, qa).unwrap();
        assert_eq!(oa, CacheOutcome::Hit, "hot entry survived the churn");
        let (_, ob) = cache.prepare(&g, qb).unwrap();
        assert_eq!(ob, CacheOutcome::Miss, "cold entry was evicted");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_respects_capacity_under_cold_churn() {
        let g = movie_graph();
        let cache = PlanCache::new(2);
        // never-rehit entries degrade to FIFO: oldest goes first
        for p in ["a", "b", "c", "d"] {
            cache
                .prepare(&g, &format!("SELECT ?x WHERE {{ ?x <http://v/{p}> ?y }}"))
                .unwrap();
            assert!(cache.len() <= 2);
        }
        assert_eq!(cache.len(), 2);
        let (_, o) = cache
            .prepare(&g, "SELECT ?x WHERE { ?x <http://v/a> ?y }")
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn warmth_tracks_hit_rate() {
        let g = movie_graph();
        let cache = PlanCache::default();
        assert_eq!(cache.stats().warmth(), 0.0);
        let q = "SELECT ?x WHERE { ?x <http://v/directedBy> ?y }";
        cache.prepare(&g, q).unwrap(); // miss
        cache.prepare(&g, q).unwrap(); // hit
        cache.prepare(&g, q).unwrap(); // hit
        cache.prepare(&g, q).unwrap(); // hit
        let w = cache.stats().warmth();
        assert!((w - 0.75).abs() < 1e-9, "warmth {w}");
    }

    #[test]
    fn render_term_rejects_injection_vectors() {
        // IRI smuggling a closing delimiter + extra pattern
        assert_eq!(render_term(&Term::iri("http://x/> } ?s ?p ?o . #")), None);
        assert_eq!(render_term(&Term::iri("http://x/a b")), None);
        assert_eq!(render_term(&Term::iri("")), None);
        assert_eq!(render_term(&Term::Blank("b0".into())), None);
        // negative / non-finite numerics cannot re-lex
        assert_eq!(render_term(&Term::int(-1)), None);
        assert_eq!(
            render_term(&Term::Literal(kg::term::Literal::double(f64::NAN))),
            None
        );
        assert_eq!(
            render_term(&Term::Literal(kg::term::Literal::double(1e300))),
            None
        );
        // a hostile string literal stays one quoted token
        let evil = Term::lit("\" } ?s ?p ?o . FILTER(\"x\" = \"x");
        let rendered = render_term(&evil).unwrap();
        let clause = values_clause("v", std::slice::from_ref(&evil)).unwrap();
        assert!(clause.contains(&rendered));
        let q = format!("SELECT ?v WHERE {{ {clause} }}");
        let parsed = crate::parser::parse(&q).expect("escaped literal parses");
        match &parsed.pattern.elems[0] {
            crate::ast::PatternElem::Values(_, terms) => assert_eq!(terms[0], evil),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn values_clause_rejects_bad_var_names() {
        assert_eq!(values_clause("", &[Term::int(1)]), None);
        assert_eq!(values_clause("x } ?s ?p ?o", &[Term::int(1)]), None);
        assert!(values_clause("ok_name3", &[Term::int(1)]).is_some());
    }

    #[test]
    fn render_term_round_trips_supported_terms() {
        use kg::term::Literal;
        for t in [
            Term::iri("http://e/a"),
            Term::lit("plain"),
            Term::lit("with \"quotes\" and \\ and \n and \t"),
            Term::int(42),
            Term::Literal(Literal::double(1.5)),
            Term::Literal(Literal::boolean(true)),
            Term::Literal(Literal::boolean(false)),
        ] {
            let clause = values_clause("v", std::slice::from_ref(&t)).expect("renders");
            let q = format!("SELECT ?v WHERE {{ {clause} }}");
            let parsed = crate::parser::parse(&q).expect("round-trips");
            match &parsed.pattern.elems[0] {
                crate::ast::PatternElem::Values(v, terms) => {
                    assert_eq!(v, "v");
                    assert_eq!(terms.as_slice(), std::slice::from_ref(&t));
                }
                other => panic!("{other:?}"),
            }
        }
    }
}
