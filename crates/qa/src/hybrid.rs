//! Querying LLMs with SPARQL (§4.1.4, after Saeed et al. \[72\]).
//!
//! A DB-first hybrid executor: the query runs normally against the store,
//! except that *virtual predicates* — declared by the caller — are
//! answered by the LLM instead. For each solution of the non-virtual part
//! of the query, the executor asks the LLM for the virtual property of
//! the bound subject and binds the answer as a literal. LLM calls are
//! counted, mirroring the cost accounting the hybrid-execution literature
//! cares about.

use std::collections::{BTreeSet, HashSet};

use kg::term::Term;
use kg::Graph;
use kgquery::ast::{GroupPattern, NodeRef, PatternElem, PropPath, Query, QueryKind};
use kgquery::exec::{execute, ExecOptions};
use kgquery::results::ResultSet;
use kgquery::QueryError;
use resilience::{FaultInjector, FaultPoint, NoFaults, ResourceLimits};
use slm::Slm;

static NO_FAULTS: NoFaults = NoFaults;

/// Execution statistics for one hybrid query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Number of LLM invocations made.
    pub llm_calls: usize,
    /// Number of virtual bindings that the LLM could not answer.
    pub llm_misses: usize,
}

/// The hybrid executor.
pub struct HybridExecutor<'a> {
    graph: &'a Graph,
    slm: &'a Slm,
    virtual_preds: BTreeSet<String>,
    faults: &'a dyn FaultInjector,
    limits: ResourceLimits,
}

impl<'a> HybridExecutor<'a> {
    /// Build with the set of predicate IRIs the LLM answers.
    pub fn new(graph: &'a Graph, slm: &'a Slm, virtual_preds: BTreeSet<String>) -> Self {
        HybridExecutor {
            graph,
            slm,
            virtual_preds,
            faults: &NO_FAULTS,
            limits: ResourceLimits::unlimited(),
        }
    }

    /// Inject a fault schedule (chaos testing). An injected generation
    /// fault makes the LLM call for that virtual binding fail, which
    /// degrades gracefully: the row is dropped and counted as a miss.
    pub fn with_faults(mut self, faults: &'a dyn FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Budget the store-side query execution.
    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Execute a SPARQL string under hybrid semantics. Virtual patterns
    /// must be simple `(subject, <virtualPred>, object)` triples at the
    /// top level of the `WHERE` group, each with a constant subject or one
    /// that a top-level store triple or `VALUES` binds in every row. Any
    /// other shape the split below would answer wrongly is
    /// [`QueryError::Unsupported`]: a virtual predicate inside `OPTIONAL`,
    /// a `UNION` branch or a composite property path (the store would
    /// answer it), a subject bound only inside `OPTIONAL` or `UNION` (rows
    /// that leave it unbound would be dropped), and a `FILTER` over a
    /// variable only a virtual pattern binds (the store would drop every
    /// row).
    ///
    /// Solution modifiers hold as in plain SPARQL. `ORDER BY` runs on the
    /// store side, so a key bound only by a virtual pattern is
    /// [`QueryError::Unsupported`] too. Projection, `DISTINCT` (first
    /// occurrence) and `OFFSET`/`LIMIT` apply after the LLM stage, which
    /// stops asking once `OFFSET + LIMIT` output rows (one for `ASK`) are
    /// kept.
    ///
    /// Under an enabled `parent`, a `hybrid.execute` child records
    /// virtual-pattern count, LLM calls and misses (the cost accounting
    /// this executor exists for), and the store part's executor counters
    /// via a nested `sparql.execute` span.
    pub fn execute(
        &self,
        sparql: &str,
        parent: &obs::Span,
    ) -> Result<(ResultSet<'a>, HybridStats), QueryError> {
        let query = kgquery::parser::parse(sparql)?;
        let span = parent.child("hybrid.execute");
        let result = self.execute_query(&query, &span);
        if let Ok((rs, stats)) = &result {
            span.set("rows", rs.len());
            span.set("llm_calls", stats.llm_calls);
            span.set("llm_misses", stats.llm_misses);
            span.count("hybrid.queries", 1);
            span.count("hybrid.llm_calls", stats.llm_calls as u64);
            span.count("hybrid.llm_misses", stats.llm_misses as u64);
        }
        result
    }

    fn execute_query(
        &self,
        query: &Query,
        span: &obs::Span,
    ) -> Result<(ResultSet<'a>, HybridStats), QueryError> {
        self.reject_nested_virtuals(&query.pattern)?;
        // split the pattern into store-answered and LLM-answered parts
        let mut base = query.clone();
        // object spec of a virtual pattern: bind a variable, or check a constant
        let mut virtuals: Vec<(NodeRef, String, NodeRef)> = Vec::new();
        base.pattern.elems.retain(|elem| {
            if let PatternElem::Triple(t) = elem {
                if let PropPath::Iri(p) = &t.p {
                    if self.virtual_preds.contains(p) {
                        virtuals.push((t.s.clone(), p.clone(), t.o.clone()));
                        return false;
                    }
                }
            }
            true
        });
        span.set("virtual_patterns", virtuals.len());
        let opts = ExecOptions::with_limits(self.limits.clone());
        if virtuals.is_empty() {
            return Ok((
                execute(self.graph, query, &opts, span)?,
                HybridStats::default(),
            ));
        }
        // the LLM is asked per store row, so every row must bind each
        // virtual subject; FILTER and ORDER BY run on the store side, so
        // none of their variables may be bound by a virtual pattern alone
        let always_bound = always_bound_vars(&base.pattern);
        for (subject, _, _) in &virtuals {
            if let Some(v) = subject.as_var().filter(|v| !always_bound.contains(v)) {
                return Err(QueryError::Unsupported(format!(
                    "virtual pattern subject ?{v}: no top-level store triple or VALUES binds it"
                )));
            }
        }
        let store_bound = base.pattern.bound_vars();
        let store_binds = |v: &str| store_bound.iter().any(|b| b == v);
        let virtual_only =
            |v: &str| !store_binds(v) && virtuals.iter().any(|(_, _, o)| o.as_var() == Some(v));
        let mut filter_vars = Vec::new();
        collect_filter_vars(&query.pattern, &mut filter_vars);
        if let Some(v) = filter_vars.into_iter().find(|v| virtual_only(v)) {
            return Err(QueryError::Unsupported(format!(
                "FILTER over ?{v}: only a virtual pattern binds it"
            )));
        }
        if let Some((key, _)) = query.order_by.iter().find(|(k, _)| virtual_only(k)) {
            return Err(QueryError::Unsupported(format!(
                "ORDER BY ?{key}: only a virtual pattern binds it"
            )));
        }
        // project everything from the base query so we can resolve
        // subjects; rows arrive in ORDER BY order, which the LLM stage
        // keeps
        let mut inner = base;
        inner.kind = QueryKind::Select {
            vars: Vec::new(),
            distinct: false,
        };
        inner.limit = None;
        inner.offset = 0;
        let inner_rs = execute(self.graph, &inner, &opts, span)?;

        let mut stats = HybridStats::default();
        // output vars: inner vars + virtual object *variables* (constant
        // objects are filters, not outputs)
        let mut vars = inner_rs.vars.clone();
        for (_, _, o) in &virtuals {
            if let NodeRef::Var(v) = o {
                if !vars.contains(v) {
                    vars.push(v.clone());
                }
            }
        }
        // the requested projection, if the query names its variables
        let out_vars = match &query.kind {
            QueryKind::Select { vars: wanted, .. } if !wanted.is_empty() => wanted.clone(),
            _ => vars.clone(),
        };
        let cols: Vec<Option<usize>> = out_vars
            .iter()
            .map(|w| vars.iter().position(|v| v == w))
            .collect();
        // DISTINCT keeps first occurrences; the LLM is asked only until
        // OFFSET + LIMIT output rows (one for ASK) are kept
        let (distinct, needed) = match &query.kind {
            QueryKind::Ask => (false, Some(1)),
            QueryKind::Select { distinct, .. } => (
                *distinct,
                query.limit.map(|l| query.offset.saturating_add(l)),
            ),
        };
        let mut seen: HashSet<Vec<Option<Term>>> = HashSet::new();
        let mut kept: Vec<Vec<Option<Term>>> = Vec::new();
        for row in inner_rs.rows() {
            if needed.is_some_and(|k| kept.len() >= k) {
                break;
            }
            let mut extended: Vec<Option<Term>> = row.iter().map(|t| t.cloned()).collect();
            let mut ok = true;
            for (subject, pred, object) in &virtuals {
                let subject_term: Option<Term> = match subject {
                    NodeRef::Const(t) => Some(t.clone()),
                    NodeRef::Var(v) => inner_rs.column(v).and_then(|i| extended[i].clone()),
                };
                let Some(st) = subject_term else {
                    ok = false;
                    break;
                };
                let subject_label = self.graph.display_term(&st);
                let phrase = kg::namespace::humanize(kg::namespace::local_name(pred));
                let question = format!("What is {subject_label} {phrase}?");
                stats.llm_calls += 1;
                // an injected generation fault degrades like an LLM that
                // cannot answer: the row is dropped and counted as a miss
                if self.faults.should_fail(FaultPoint::Generation) {
                    span.count("resilience.faults_injected", 1);
                    stats.llm_misses += 1;
                    ok = false;
                    break;
                }
                let answer = self.slm.answer(&question, &[]);
                if !answer.is_answered() || answer.hallucinated {
                    stats.llm_misses += 1;
                    ok = false;
                    break;
                }
                // a constant object, or a variable the row already binds,
                // filters: the LLM answer must match it
                let col = match object {
                    NodeRef::Var(v) => vars.iter().position(|x| x == v),
                    NodeRef::Const(_) => None,
                };
                let expected = match object {
                    NodeRef::Var(_) => col.and_then(|c| extended.get(c)).and_then(Option::as_ref),
                    NodeRef::Const(t) => Some(t),
                };
                if let Some(expected) = expected {
                    let want = self.graph.display_term(expected);
                    if !answer.text.eq_ignore_ascii_case(&want) {
                        ok = false;
                        break;
                    }
                } else if let Some(col) = col {
                    let term = Some(Term::lit(answer.text));
                    if col < extended.len() {
                        extended[col] = term;
                    } else {
                        extended.push(term);
                    }
                }
            }
            if !ok {
                continue;
            }
            let out: Vec<Option<Term>> = cols
                .iter()
                .map(|c| c.and_then(|c| extended.get(c).cloned().flatten()))
                .collect();
            if !distinct || seen.insert(out.clone()) {
                kept.push(out);
            }
        }
        let rs = match &query.kind {
            QueryKind::Ask => ResultSet::ask(!kept.is_empty()),
            QueryKind::Select { .. } => {
                // the loop above kept at most OFFSET + LIMIT rows
                kept.drain(..query.offset.min(kept.len()));
                ResultSet::select(out_vars, kept)
            }
        };
        Ok((rs, stats))
    }

    /// Reject a virtual predicate anywhere but a top-level plain triple:
    /// the split only lifts those out, so the store would answer any other.
    fn reject_nested_virtuals(&self, group: &GroupPattern) -> Result<(), QueryError> {
        for elem in &group.elems {
            let shape = match elem {
                PatternElem::Triple(t)
                    if !matches!(t.p, PropPath::Iri(_)) && self.names_virtual(&t.p) =>
                {
                    "a property path"
                }
                PatternElem::Optional(g) if self.group_names_virtual(g) => "OPTIONAL",
                PatternElem::Union(l, r)
                    if self.group_names_virtual(l) || self.group_names_virtual(r) =>
                {
                    "UNION"
                }
                _ => continue,
            };
            return Err(QueryError::Unsupported(format!(
                "a virtual predicate inside {shape}"
            )));
        }
        Ok(())
    }

    /// Does any triple of `group`, at any depth, name a virtual predicate?
    fn group_names_virtual(&self, group: &GroupPattern) -> bool {
        group.elems.iter().any(|elem| match elem {
            PatternElem::Triple(t) => self.names_virtual(&t.p),
            PatternElem::Optional(g) => self.group_names_virtual(g),
            PatternElem::Union(l, r) => self.group_names_virtual(l) || self.group_names_virtual(r),
            PatternElem::Filter(_) | PatternElem::Values(..) => false,
        })
    }

    /// Does `path` name a virtual predicate anywhere?
    fn names_virtual(&self, path: &PropPath) -> bool {
        match path {
            PropPath::Iri(p) => self.virtual_preds.contains(p),
            PropPath::Var(_) => false,
            PropPath::Inverse(p) | PropPath::OneOrMore(p) | PropPath::ZeroOrMore(p) => {
                self.names_virtual(p)
            }
            PropPath::Seq(a, b) | PropPath::Alt(a, b) => {
                self.names_virtual(a) || self.names_virtual(b)
            }
        }
    }
}

/// The variables every solution of `group` binds: those of its top-level
/// triples and `VALUES`. A variable bound only inside `OPTIONAL` or one
/// `UNION` branch may be unbound in some rows.
fn always_bound_vars(group: &GroupPattern) -> Vec<&str> {
    let mut out = Vec::new();
    for elem in &group.elems {
        match elem {
            PatternElem::Triple(t) => {
                out.extend(t.s.as_var());
                out.extend(t.p.vars());
                out.extend(t.o.as_var());
            }
            PatternElem::Values(v, _) => out.push(v.as_str()),
            PatternElem::Filter(_) | PatternElem::Optional(_) | PatternElem::Union(..) => {}
        }
    }
    out
}

/// The variables of every `FILTER` in `group`, at any depth.
fn collect_filter_vars(group: &GroupPattern, out: &mut Vec<String>) {
    for elem in &group.elems {
        match elem {
            PatternElem::Filter(e) => out.extend(e.vars().into_iter().map(str::to_string)),
            PatternElem::Optional(g) => collect_filter_vars(g, out),
            PatternElem::Union(l, r) => {
                collect_filter_vars(l, out);
                collect_filter_vars(r, out);
            }
            PatternElem::Triple(_) | PatternElem::Values(..) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::synth::{movies, Scale};
    use kgextract::testgen::entity_surface_forms;

    /// KG lacks `famousFor` edges entirely; the LLM knows them from its
    /// training corpus — the "hidden relations in unstructured data" the
    /// paper says hybrid querying could surface.
    fn fixture() -> (kg::synth::SynthKg, Slm, String) {
        let kg = movies(211, Scale::tiny());
        let g = &kg.graph;
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let films: Vec<_> = g.instances_of(film_class);
        let sentences: Vec<String> = films
            .iter()
            .enumerate()
            .map(|(i, &f)| format!("{} is famous for scene {}", g.display_name(f), i))
            .collect();
        let slm = Slm::builder()
            .corpus(sentences.iter().map(String::as_str))
            .entity_names(entity_surface_forms(g).iter().map(String::as_str))
            .build();
        let vpred = format!("{}famousFor", kg::namespace::SYNTH_VOCAB);
        (kg, slm, vpred)
    }

    #[test]
    fn virtual_predicate_is_answered_by_the_llm() {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]));
        let q = format!(
            "SELECT ?f ?y WHERE {{ ?f a <{}Film> . ?f <{vpred}> ?y }}",
            kg::namespace::SYNTH_VOCAB
        );
        let (rs, stats) = exec
            .execute(&q, &obs::Span::disabled())
            .expect("hybrid query runs");
        assert!(!rs.is_empty(), "LLM should answer the virtual predicate");
        assert!(stats.llm_calls >= rs.len());
        // every answer mentions "scene" (from the LLM corpus)
        for row in rs.rows() {
            let y = row
                .get(1)
                .and_then(|t| t.as_literal())
                .expect("literal answer");
            assert!(y.lexical.contains("scene"), "{y:?}");
        }
    }

    #[test]
    fn repeated_virtual_variable_joins_instead_of_widening_rows() {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]));
        let film = format!("{}Film", kg::namespace::SYNTH_VOCAB);
        let once = format!("SELECT ?f ?y WHERE {{ ?f a <{film}> . ?f <{vpred}> ?y }}");
        let twice =
            format!("SELECT ?f ?y WHERE {{ ?f a <{film}> . ?f <{vpred}> ?y . ?f <{vpred}> ?y }}");
        let (one, one_stats) = exec.execute(&once, &obs::Span::disabled()).unwrap();
        let (two, two_stats) = exec.execute(&twice, &obs::Span::disabled()).unwrap();
        assert!(!one.is_empty());
        // the second pattern checks ?y against the first answer: same
        // rows, two columns each, twice the LLM calls
        assert_eq!(two, one);
        assert_eq!(two_stats.llm_calls, 2 * one_stats.llm_calls);
    }

    #[test]
    fn pure_kg_query_makes_no_llm_calls() {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred]));
        let q = format!(
            "SELECT ?f WHERE {{ ?f a <{}Film> }}",
            kg::namespace::SYNTH_VOCAB
        );
        let (rs, stats) = exec
            .execute(&q, &obs::Span::disabled())
            .expect("query runs");
        assert!(!rs.is_empty());
        assert_eq!(stats.llm_calls, 0);
    }

    #[test]
    fn constant_object_filters_by_llm_answer() {
        let (kg, slm, vpred) = fixture();
        let g = &kg.graph;
        // gold: film 0 is famous for "scene 0" (from the fixture corpus)
        let film_class = g
            .pool()
            .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
            .unwrap();
        let films = g.instances_of(film_class);
        let exec = HybridExecutor::new(g, &slm, BTreeSet::from([vpred.clone()]));
        let q = format!(
            "SELECT ?f WHERE {{ ?f a <{}Film> . ?f <{vpred}> \"scene 0\" }}",
            kg::namespace::SYNTH_VOCAB
        );
        let (rs, _) = exec
            .execute(&q, &obs::Span::disabled())
            .expect("hybrid query runs");
        // exactly the films whose LLM-known fact is "scene 0" survive
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(
            rs.get(0, 0).and_then(|t| t.as_iri()),
            g.resolve(films[0]).as_iri()
        );
        // a value the LLM never asserts filters everything out
        let q2 = format!(
            "SELECT ?f WHERE {{ ?f a <{}Film> . ?f <{vpred}> \"scene 99\" }}",
            kg::namespace::SYNTH_VOCAB
        );
        let (rs2, _) = exec
            .execute(&q2, &obs::Span::disabled())
            .expect("hybrid query runs");
        assert!(rs2.is_empty());
    }

    #[test]
    fn observed_hybrid_query_reports_llm_cost_accounting() {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]));
        let q = format!(
            "SELECT ?f ?y WHERE {{ ?f a <{}Film> . ?f <{vpred}> ?y }}",
            kg::namespace::SYNTH_VOCAB
        );
        let (tracer, recorder) = obs::Tracer::in_memory();
        let root = tracer.span("test");
        let (rs, stats) = exec.execute(&q, &root).expect("hybrid runs");
        root.finish();
        let span = recorder.take().pop().expect("root recorded");
        let hybrid = span.find("hybrid.execute").expect("hybrid span");
        assert_eq!(hybrid.attr_u64("llm_calls"), Some(stats.llm_calls as u64));
        assert_eq!(hybrid.attr_u64("rows"), Some(rs.len() as u64));
        assert_eq!(hybrid.attr_u64("virtual_patterns"), Some(1));
        // the store part of the split query ran under the same span
        assert!(hybrid.find("sparql.execute").is_some());
        assert_eq!(
            tracer.registry().counter("hybrid.llm_calls"),
            stats.llm_calls as u64
        );
    }

    #[test]
    fn injected_generation_faults_degrade_to_misses_not_errors() {
        let (kg, slm, vpred) = fixture();
        let plan = resilience::FaultPlan::always(&[resilience::FaultPoint::Generation]);
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]))
            .with_faults(&plan);
        let q = format!(
            "SELECT ?f ?y WHERE {{ ?f a <{}Film> . ?f <{vpred}> ?y }}",
            kg::namespace::SYNTH_VOCAB
        );
        let (rs, stats) = exec
            .execute(&q, &obs::Span::disabled())
            .expect("degrades, does not error");
        assert!(rs.is_empty());
        assert_eq!(stats.llm_misses, stats.llm_calls);
        assert!(stats.llm_calls > 0);
        assert!(plan.injected() > 0);
    }

    #[test]
    fn store_side_honors_resource_limits() {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]))
            .with_limits(resilience::ResourceLimits::unlimited().with_max_rows(0));
        let q = format!(
            "SELECT ?f ?y WHERE {{ ?f a <{}Film> . ?f <{vpred}> ?y }}",
            kg::namespace::SYNTH_VOCAB
        );
        match exec.execute(&q, &obs::Span::disabled()) {
            Err(QueryError::LimitExceeded { limit, .. }) => {
                assert_eq!(limit, resilience::Limit::Rows(0));
            }
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
    }

    /// Run `{head} WHERE { ?f a v:Film . {extra} ?f <famousFor> ?y }
    /// {modifiers}` through the fixture's hybrid executor.
    fn films<'a>(
        exec: &HybridExecutor<'a>,
        vpred: &str,
        head: &str,
        extra: &str,
        modifiers: &str,
    ) -> Result<(ResultSet<'a>, HybridStats), QueryError> {
        let v = kg::namespace::SYNTH_VOCAB;
        exec.execute(
            &format!("{head} WHERE {{ ?f a <{v}Film> . {extra} ?f <{vpred}> ?y }} {modifiers}"),
            &obs::Span::disabled(),
        )
    }

    #[test]
    fn limit_stops_calling_the_llm() {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]));
        let (all, all_stats) = films(&exec, &vpred, "SELECT ?f ?y", "", "").unwrap();
        assert!(all.len() > 2, "{all:?}");
        assert_eq!(all_stats.llm_calls, all.len());
        let (one, stats) = films(&exec, &vpred, "SELECT ?f ?y", "", "LIMIT 1").unwrap();
        assert_eq!(one.to_terms(), all.to_terms()[..1].to_vec());
        assert_eq!(stats.llm_calls, 1);
        let (none, stats) = films(&exec, &vpred, "SELECT ?f ?y", "", "LIMIT 0").unwrap();
        assert!(none.is_empty());
        assert_eq!(stats.llm_calls, 0);
    }

    #[test]
    fn offset_skips_answered_rows() {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]));
        let (all, _) = films(&exec, &vpred, "SELECT ?f ?y", "", "").unwrap();
        let (rest, _) = films(&exec, &vpred, "SELECT ?f ?y", "", "OFFSET 2").unwrap();
        assert_eq!(rest.to_terms(), all.to_terms()[2..].to_vec());
        let (window, stats) = films(&exec, &vpred, "SELECT ?f ?y", "", "OFFSET 1 LIMIT 1").unwrap();
        assert_eq!(window.to_terms(), all.to_terms()[1..2].to_vec());
        assert_eq!(stats.llm_calls, 2);
    }

    #[test]
    fn distinct_dedups_the_projection() {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]));
        let genre = format!("?f <{}hasGenre> ?g .", kg::namespace::SYNTH_VOCAB);
        let (all, _) = films(&exec, &vpred, "SELECT ?g", &genre, "").unwrap();
        let mut first: Vec<Vec<Option<Term>>> = Vec::new();
        for row in all.to_terms() {
            if !first.contains(&row) {
                first.push(row);
            }
        }
        assert!(first.len() < all.len(), "fixture needs a repeated genre");
        let (distinct, _) = films(&exec, &vpred, "SELECT DISTINCT ?g", &genre, "").unwrap();
        assert_eq!(distinct.to_terms(), first);
        let (sliced, _) = films(
            &exec,
            &vpred,
            "SELECT DISTINCT ?g",
            &genre,
            "OFFSET 1 LIMIT 2",
        )
        .unwrap();
        assert_eq!(sliced.to_terms(), first[1..3].to_vec());
    }

    #[test]
    fn ask_stops_at_the_first_answer() {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]));
        let (rs, stats) = films(&exec, &vpred, "ASK", "", "").unwrap();
        assert_eq!(rs.ask, Some(true));
        assert_eq!(stats.llm_calls, 1);
    }

    #[test]
    fn order_by_a_store_variable_orders_the_answer() {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]));
        let (all, _) = films(&exec, &vpred, "SELECT ?f ?y", "", "").unwrap();
        let mut want = all.to_terms();
        want.sort_by(|a, b| b[0].cmp(&a[0]));
        let (desc, stats) = films(&exec, &vpred, "SELECT ?f ?y", "", "ORDER BY DESC(?f)").unwrap();
        assert_eq!(desc.to_terms(), want);
        assert_eq!(stats.llm_calls, all.len());
        let (top, stats) = films(
            &exec,
            &vpred,
            "SELECT ?f ?y",
            "",
            "ORDER BY DESC(?f) LIMIT 1",
        )
        .unwrap();
        assert_eq!(top.to_terms(), want[..1].to_vec());
        assert_eq!(stats.llm_calls, 1);
    }

    #[test]
    fn order_by_a_virtual_variable_is_unsupported() {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]));
        match films(&exec, &vpred, "SELECT ?f ?y", "", "ORDER BY ?y") {
            Err(QueryError::Unsupported(msg)) => assert!(msg.contains("?y"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    /// Run `query` (with `{film}` and `{vpred}` substituted) and return
    /// the message of the `Unsupported` error it must fail with.
    fn unsupported_shape(query: &str) -> String {
        let (kg, slm, vpred) = fixture();
        let exec = HybridExecutor::new(&kg.graph, &slm, BTreeSet::from([vpred.clone()]));
        let v = kg::namespace::SYNTH_VOCAB;
        let q = query
            .replace("{film}", &format!("<{v}Film>"))
            .replace("{vpred}", &format!("<{vpred}>"))
            .replace("{v}", v);
        match exec.execute(&q, &obs::Span::disabled()) {
            Err(QueryError::Unsupported(msg)) => msg,
            other => panic!("expected Unsupported for {q}, got {other:?}"),
        }
    }

    #[test]
    fn virtual_triple_inside_optional_is_unsupported() {
        let msg =
            unsupported_shape("SELECT ?f ?y WHERE { ?f a {film} . OPTIONAL { ?f {vpred} ?y } }");
        assert!(msg.contains("OPTIONAL"), "{msg}");
    }

    #[test]
    fn virtual_triple_inside_union_is_unsupported() {
        let msg = unsupported_shape(
            "SELECT ?f ?y WHERE { ?f a {film} . { ?f {vpred} ?y } UNION { ?f <{v}hasGenre> ?y } }",
        );
        assert!(msg.contains("UNION"), "{msg}");
    }

    #[test]
    fn virtual_predicate_inside_a_path_is_unsupported() {
        let msg =
            unsupported_shape("SELECT ?f ?s WHERE { ?f a {film} . ?f {vpred}/<{v}spouse> ?s }");
        assert!(msg.contains("property path"), "{msg}");
    }

    #[test]
    fn filter_over_a_virtual_variable_is_unsupported() {
        let msg = unsupported_shape(
            r#"SELECT ?f ?y WHERE { ?f a {film} . ?f {vpred} ?y FILTER(CONTAINS(?y, "a")) }"#,
        );
        assert!(msg.contains("FILTER") && msg.contains("?y"), "{msg}");
    }

    #[test]
    fn virtual_subject_no_store_pattern_binds_is_unsupported() {
        // bound nowhere, or only inside OPTIONAL, which leaves some rows
        // without it
        for query in [
            "SELECT ?f ?y WHERE { ?f {vpred} ?y }",
            "SELECT ?f ?y WHERE { ?d a <{v}Person> . OPTIONAL { ?f <{v}directedBy> ?d } ?f {vpred} ?y }",
        ] {
            let msg = unsupported_shape(query);
            assert!(msg.contains("subject ?f"), "{msg}");
        }
    }

    #[test]
    fn unanswerable_virtual_rows_are_dropped_and_counted() {
        let (kg, _, vpred) = fixture();
        // an LM that knows nothing
        let empty_slm = Slm::builder().build();
        let exec = HybridExecutor::new(&kg.graph, &empty_slm, BTreeSet::from([vpred.clone()]));
        let q = format!(
            "SELECT ?f ?y WHERE {{ ?f a <{}Film> . ?f <{vpred}> ?y }}",
            kg::namespace::SYNTH_VOCAB
        );
        let (rs, stats) = exec
            .execute(&q, &obs::Span::disabled())
            .expect("query runs");
        assert!(rs.is_empty());
        assert_eq!(stats.llm_misses, stats.llm_calls);
        assert!(stats.llm_calls > 0);
    }
}
