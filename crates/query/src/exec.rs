//! Compiled, slot-based evaluation of query plans over a [`kg::Graph`].
//!
//! The executor compiles each query once before touching any data:
//!
//! * every variable name is interned into a `usize` slot, so a solution
//!   is a flat `Vec<Option<Sym>>` instead of an ordered map keyed by
//!   strings;
//! * constant terms and predicate IRIs are resolved against the graph's
//!   term pool up front (an unknown constant makes its pattern statically
//!   impossible);
//! * triple patterns inside each BGP are join-ordered **once**, greedily,
//!   cheapest-first under the graph's per-predicate cardinality
//!   histograms ([`kg::PredicateCard`]), propagating which slots are
//!   bound statically — the seed executor re-derived the order for every
//!   intermediate binding.
//!
//! Evaluation then threads a vector of slot bindings through the compiled
//! plan. A BGP runs through one stage kernel and two drivers (see
//! `docs/query-executor.md` for the full architecture):
//!
//! * **the stage kernel** is the only code that turns a pattern match
//!   into an extended binding: the last match takes the binding, earlier
//!   matches clone it;
//! * **the staged driver** extends the whole frontier one pattern at a
//!   time, each stage by per-binding index probes or by one sorted-merge
//!   pass over a compacted predicate index;
//! * **the depth-first driver** serves row budgets: `ORDER BY`-free
//!   `LIMIT k` queries (and `ASK`) stop after producing exactly the first
//!   `k` solutions of the staged order.
//!
//! A query runs on the thread that calls it; a server gets its
//! parallelism across requests, not inside one.
//!
//! Property-path evaluations (including the BFS closure frontiers of
//! `p+`/`p*`) are memoized per `(path, endpoints)` within one query; hits
//! surface as [`ExecStats::path_cache_hits`]. Work counters
//! ([`ExecStats`]) are threaded through evaluation and surface on the
//! returned [`ResultSet`]; they depend only on the query and the graph.
//!
//! The seed map-based evaluator is preserved as [`crate::reference`] and
//! serves as the differential-testing oracle and benchmark baseline.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::rc::Rc;

use kg::store::TriplePattern;
use kg::term::{Sym, Term};
use kg::Graph;

use resilience::{ExecContext, LimitViolation, ResourceLimits};

use crate::algebra::{compile, Plan};
use crate::ast::{Expr, NodeRef, Order, PropPath, Query, QueryKind, TriplePatternAst};
use crate::error::QueryError;
use crate::results::{Cell, ExecStats, ResultSet, Terms};

/// A solution mapping: one cell per compiled variable slot.
pub type Binding = Vec<Option<Sym>>;

/// Binding-vector size at which an eligible BGP extension stage (see
/// [`merge_plan`]) switches from per-binding index probes to one
/// sorted-merge pass over the predicate's index. Small on purpose: the
/// merge costs one sort of the frontier keys plus a single monotone index
/// walk, which already beats `n` independent binary searches at modest
/// `n`. Results are bit-identical to the probe loop; only
/// [`ExecStats::index_probes`] (counted per distinct key) and
/// [`ExecStats::merge_joins`] differ.
const MERGE_THRESHOLD: usize = 16;

/// What a caller may set when [`execute`] evaluates a query: budgets,
/// cancellation and the clock. How a query is evaluated follows from its
/// shape and the graph alone (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Resource budgets (rows, wall-clock, path expansions) enforced
    /// cooperatively during evaluation. Default: unlimited.
    pub limits: ResourceLimits,
    /// Caller-held cancellation token, polled at the same checkpoints as
    /// the deadline. `None` means execution cannot be cancelled.
    pub cancel: Option<resilience::CancelToken>,
    /// Clock used for the wall-clock budget; `None` uses the real
    /// monotonic clock. Tests inject a [`resilience::ManualClock`] here to
    /// make deadline behavior deterministic.
    pub clock: Option<resilience::Clock>,
}

impl ExecOptions {
    /// Default options with the given resource budgets attached.
    ///
    /// ```
    /// use std::time::Duration;
    /// use kgquery::exec::ExecOptions;
    /// use resilience::ResourceLimits;
    ///
    /// let opts = ExecOptions::with_limits(
    ///     ResourceLimits::unlimited()
    ///         .with_max_rows(10_000)
    ///         .with_wall(Duration::from_millis(250)),
    /// );
    /// assert_eq!(opts.limits.max_rows, Some(10_000));
    /// assert!(opts.cancel.is_none());
    /// ```
    pub fn with_limits(limits: ResourceLimits) -> Self {
        ExecOptions {
            limits,
            ..ExecOptions::default()
        }
    }

    /// Build the enforcement context these options describe.
    fn exec_context(&self) -> ExecContext {
        ExecContext::with_clock(
            self.limits.clone(),
            self.clock.clone().unwrap_or_default(),
            self.cancel.clone().unwrap_or_default(),
        )
    }
}

/// Execute a parsed query against a graph under an observability span.
///
/// This is the one way to run a parsed query; a prepared plan runs
/// through [`crate::PreparedQuery::run_with`], and both share one runner.
/// With an enabled `parent` it opens a `sparql.execute` child and adapts
/// the returned [`ExecStats`] into span attributes plus `exec.*` registry
/// counters (see `docs/observability.md` for the catalogue); pass
/// [`obs::Span::disabled`] to run without recording anything.
///
/// When [`ExecOptions::limits`] carries budgets, evaluation checks them
/// cooperatively at stage boundaries and inside the depth-first driver. A
/// tripped budget surfaces as [`QueryError::LimitExceeded`] — except for
/// query shapes whose prefix is meaningful (`ASK` and `ORDER BY`-free,
/// non-`DISTINCT` `LIMIT` selects), which instead return the rows produced
/// so far with [`ResultSet::truncated`] set and the violation recorded in
/// [`ResultSet::truncation`].
///
/// ```
/// use kgquery::{exec, parser};
///
/// let graph = kg::turtle::parse_turtle(
///     "@prefix e: <http://e/> . @prefix v: <http://v/> .
///      e:a v:knows e:b . e:b v:knows e:c .",
/// )?;
/// let query = parser::parse(
///     "PREFIX v: <http://v/> SELECT ?x ?z WHERE { ?x v:knows ?y . ?y v:knows ?z }",
/// )?;
/// let opts = exec::ExecOptions::default();
/// let results = exec::execute(&graph, &query, &opts, &obs::Span::disabled())?;
/// assert_eq!(results.len(), 1); // a knows b knows c
/// assert!(results.stats.index_probes > 0); // work counters come along
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Under a live span the same call records its work:
///
/// ```
/// let graph = kg::turtle::parse_turtle(
///     "@prefix e: <http://e/> . @prefix v: <http://v/> . e:a v:knows e:b .",
/// )?;
/// let query = kgquery::parser::parse("SELECT ?x WHERE { ?x <http://v/knows> ?y }")?;
/// let (tracer, recorder) = obs::Tracer::in_memory();
/// let root = tracer.span("answer");
/// let rs = kgquery::exec::execute(
///     &graph,
///     &query,
///     &kgquery::exec::ExecOptions::default(),
///     &root,
/// )?;
/// root.finish();
/// assert_eq!(rs.len(), 1);
/// let span = recorder.take().pop().unwrap();
/// let exec = span.find("sparql.execute").unwrap();
/// assert_eq!(exec.attr_u64("rows"), Some(1));
/// assert!(exec.attr_u64("index_probes").unwrap() > 0);
/// assert!(tracer.registry().counter("exec.queries") == 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn execute<'g>(
    graph: &'g Graph,
    query: &Query,
    opts: &ExecOptions,
    parent: &obs::Span,
) -> Result<ResultSet<'g>, QueryError> {
    execute_compiled(graph, &compile_query(graph, query), opts, &[], parent)
}

/// The runner behind [`execute`] and [`crate::PreparedQuery::run_with`]:
/// evaluate a compiled query, seeding parameter slots from `bindings`,
/// and record a `sparql.execute` child of an enabled `parent` — so a
/// cache hit is indistinguishable downstream from a freshly planned
/// execution.
pub(crate) fn execute_compiled<'g>(
    graph: &'g Graph,
    compiled: &CompiledQuery,
    opts: &ExecOptions,
    bindings: &[(usize, Option<Sym>)],
    parent: &obs::Span,
) -> Result<ResultSet<'g>, QueryError> {
    if !parent.enabled() {
        return evaluate(graph, compiled, opts, bindings);
    }
    let span = parent.child("sparql.execute");
    let result = evaluate(graph, compiled, opts, bindings);
    record_exec_span(&span, &result);
    result
}

/// Adapt an execution outcome into `sparql.execute` span attributes and
/// `exec.*` / `resilience.*` registry counters (the catalogue lives in
/// `docs/observability.md`).
fn record_exec_span(span: &obs::Span, result: &Result<ResultSet<'_>, QueryError>) {
    match result {
        Ok(rs) => {
            span.set("rows", rs.len());
            span.count("exec.queries", 1);
            span.count("exec.rows", rs.len() as u64);
            if rs.truncated {
                span.set("truncated", true);
                if let Some(v) = rs.truncation {
                    span.set("truncated_by", v.limit.label());
                }
                span.count("resilience.limit_hits", 1);
                span.count("resilience.truncated", 1);
            }
            rs.stats.record_into(span);
        }
        Err(e) => {
            span.set("error", true);
            span.count("exec.errors", 1);
            if let QueryError::LimitExceeded { limit, .. } = e {
                span.set("limit_exceeded", limit.label());
                span.count("resilience.limit_hits", 1);
            }
        }
    }
}

/// A query compiled against one graph snapshot: variables interned to
/// slots, constants pre-resolved against the term pool, and every BGP
/// join-ordered once under the graph's cardinality histograms.
///
/// Build one with [`compile_query`]; [`crate::PreparedQuery`] compiles
/// one with parameter slots and runs it any number of times. The artifact
/// reflects the graph *statistics* it was planned under;
/// [`crate::prepared`] layers query text normalization and
/// statistics-epoch invalidation on top so cached artifacts stay honest
/// as the graph mutates.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    query: Query,
    cplan: CPlan,
    vars: VarTable,
    /// Every property path of the plan, compiled; `SlotPath::Path` and
    /// sub-paths refer into it by id.
    paths: Vec<CPath>,
}

impl CompiledQuery {
    /// The slot a variable was interned to, if it occurs in the plan
    /// (or was declared as a parameter at compile time).
    pub(crate) fn var_slot(&self, name: &str) -> Option<usize> {
        self.vars.lookup(name)
    }
}

/// Compile a parsed query against a graph: algebra lowering, variable
/// interning, constant resolution, and per-BGP join ordering — the
/// planning half of [`execute`].
pub fn compile_query(graph: &Graph, query: &Query) -> CompiledQuery {
    compile_query_with_params(graph, query, &[])
}

/// Compile with parameter variables pre-interned and treated as bound
/// for join ordering. `params` names variables whose values arrive at
/// execution time via [`execute_compiled`]'s `bindings`. Interning them
/// first gives them the same slots — and the ordering heuristic the same
/// bound-slot view — as a textual `VALUES ?param { … }` clause at the
/// head of the group, so a parameterized plan matches its
/// `VALUES`-injected equivalent.
pub(crate) fn compile_query_with_params(
    graph: &Graph,
    query: &Query,
    params: &[&str],
) -> CompiledQuery {
    let plan = compile(&query.pattern);
    let mut vars = VarTable::default();
    let mut bound_slots = BTreeSet::new();
    for p in params {
        bound_slots.insert(vars.intern(p));
    }
    let mut paths = PathTable::default();
    let cplan = compile_plan(graph, &plan, &mut vars, &mut paths, &mut bound_slots);
    CompiledQuery {
        query: query.clone(),
        cplan,
        vars,
        paths: paths.nodes,
    }
}

/// Evaluate a pre-compiled query, optionally seeding parameter slots.
///
/// `bindings` pairs slot indices (from [`CompiledQuery::var_slot`]) with
/// values. A `None` value means the caller's term is not interned in the
/// graph's pool: matching the `VALUES` subset semantics, the query then
/// runs over zero input rows and returns an empty (but fully projected)
/// result.
fn evaluate<'g>(
    graph: &'g Graph,
    compiled: &CompiledQuery,
    opts: &ExecOptions,
    bindings: &[(usize, Option<Sym>)],
) -> Result<ResultSet<'g>, QueryError> {
    let query = &compiled.query;
    let vars = &compiled.vars;
    let mut input = vec![vec![None; vars.len()]];
    for &(slot, sym) in bindings {
        match sym {
            Some(s) => input[0][slot] = Some(s),
            None => {
                input.clear();
                break;
            }
        }
    }
    let mut stats = ExecStats::default();
    let rc = opts.exec_context();
    let budget = row_budget(query);
    let ctx = EvalCtx {
        graph,
        paths: &compiled.paths,
        path_memo: PathCache::default(),
        rc: &rc,
        // only prefix-meaningful shapes may absorb a violation by truncating
        truncate_ok: budget.is_some(),
    };
    let eval_result = rc
        .check_now()
        .and_then(|()| eval(&ctx, &compiled.cplan, input, budget, &mut stats));
    let solutions = match eval_result {
        Ok(rows) => rows,
        Err(v) if ctx.truncate_ok => {
            rc.record_truncation(v);
            Vec::new()
        }
        Err(v) => return Err(v.into()),
    };
    stats.path_cache_hits = ctx.path_memo.hits();
    let truncation = rc.take_truncation();
    let finish = |rs: ResultSet<'g>| match truncation {
        Some(v) => rs.with_truncation(v),
        None => rs,
    };

    match &query.kind {
        QueryKind::Ask => Ok(finish(
            ResultSet::ask(!solutions.is_empty()).with_stats(stats),
        )),
        QueryKind::Select {
            vars: sel,
            distinct,
        } => {
            if let Some(agg) = &query.aggregate {
                return aggregate(graph, query, agg, sel, solutions, vars, stats);
            }
            let bound = query.pattern.bound_vars();
            let projected: Vec<String> = if sel.is_empty() {
                bound.clone()
            } else {
                for v in sel {
                    if !bound.contains(v) {
                        return Err(QueryError::UnboundVariable(v.clone()));
                    }
                }
                sel.clone()
            };
            // ORDER BY
            for (v, _) in &query.order_by {
                if !bound.contains(v) {
                    return Err(QueryError::UnboundVariable(v.clone()));
                }
            }
            let order = if query.order_by.is_empty() {
                None
            } else {
                // stage boundary: don't start a large sort past the deadline
                rc.check_now()?;
                let keys: Vec<(usize, Order)> = query
                    .order_by
                    .iter()
                    .map(|(v, d)| (vars.lookup(v).expect("order key is a pattern var"), *d))
                    .collect();
                Some(sort_order(solutions.len(), &keys, |row, slot| {
                    solutions[row][slot].map(|s| graph.resolve(s))
                }))
            };
            let slots: Vec<usize> = projected
                .iter()
                .map(|v| vars.lookup(v).expect("projected var is a pattern var"))
                .collect();
            let width = slots.len();
            // without a dedup, only the rows that survive LIMIT/OFFSET are
            // projected; a dedup must see every row before slicing
            let window = if *distinct {
                0..solutions.len()
            } else {
                let (start, end) = slice_bounds(query, solutions.len());
                start..end
            };
            let mut len = window.len();
            let mut cells: Vec<Cell> = Vec::with_capacity(len * width);
            for i in window {
                let b = &solutions[order.as_ref().map_or(i, |o| o[i] as usize)];
                cells.extend(slots.iter().map(|&slot| Cell::from(b[slot])));
            }
            if *distinct {
                let distinct_rows = match width {
                    0 => len.min(1),
                    _ => dedup_rows(&mut cells, width),
                };
                let (start, end) = slice_bounds(query, distinct_rows);
                cells.truncate(end * width);
                cells.drain(..start * width);
                len = end - start;
            }
            Ok(finish(
                ResultSet::interned(projected, graph.pool(), len, cells, Vec::new())
                    .with_stats(stats),
            ))
        }
    }
}

/// The `[start, end)` row window `OFFSET`/`LIMIT` keep out of `n` rows.
fn slice_bounds(query: &Query, n: usize) -> (usize, usize) {
    let start = query.offset.min(n);
    let end = query
        .limit
        .map_or(n, |l| query.offset.saturating_add(l).min(n));
    (start, end.max(start))
}

/// Keep the first occurrence of each distinct row of a flat
/// `width`-cell row vector, in order, and return the row count left.
/// Rows are keyed by their borrowed fixed-width cell slices, so no row is
/// copied into a key of its own; two pooled cells are equal exactly when
/// their terms are (the pool is a bijection).
fn dedup_rows(cells: &mut Vec<Cell>, width: usize) -> usize {
    let mut seen: HashSet<&[Cell]> = HashSet::new();
    let mut kept: Vec<Cell> = Vec::with_capacity(cells.len());
    for row in cells.chunks(width) {
        if seen.insert(row) {
            kept.extend_from_slice(row);
        }
    }
    *cells = kept;
    cells.len() / width
}

/// An `ORDER BY` key: one cell's [`term_rank`], computed once per row
/// instead of once per comparison.
type RankKey<'t> = Option<(u8, Option<f64>, &'t str)>;

/// The stable `ORDER BY` permutation of `n` rows: row indices sorted by
/// the `keys` (column, direction) under [`compare_terms`]'s order.
/// `term(row, column)` reads a cell; each is ranked once up front, so a
/// comparison never resolves a term or re-parses a number.
fn sort_order<'t>(
    n: usize,
    keys: &[(usize, Order)],
    term: impl Fn(usize, usize) -> Option<&'t Term>,
) -> Vec<u32> {
    let k = keys.len();
    let ranks: Vec<RankKey<'t>> = (0..n)
        .flat_map(|row| keys.iter().map(move |&(col, _)| (row, col)))
        .map(|(row, col)| term(row, col).map(term_rank))
        .collect();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (a as usize * k, b as usize * k);
        for (j, &(_, dir)) in keys.iter().enumerate() {
            let ord = compare_ranks(&ranks[a + j], &ranks[b + j]);
            let ord = match dir {
                Order::Asc => ord,
                Order::Desc => ord.reverse(),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    order
}

/// Evaluate a `COUNT` aggregate with optional `GROUP BY`.
fn aggregate<'g>(
    graph: &'g Graph,
    query: &Query,
    agg: &crate::ast::CountAgg,
    projected: &[String],
    solutions: Vec<Binding>,
    vars: &VarTable,
    stats: ExecStats,
) -> Result<ResultSet<'g>, QueryError> {
    let bound = query.pattern.bound_vars();
    for v in query.group_by.iter().chain(agg.var.iter()) {
        if !bound.contains(v) {
            return Err(QueryError::UnboundVariable(v.clone()));
        }
    }
    for v in projected {
        if *v != agg.alias && !query.group_by.contains(v) {
            return Err(QueryError::Unsupported(format!(
                "projected variable ?{v} must appear in GROUP BY"
            )));
        }
    }
    let group_slots: Vec<usize> = query
        .group_by
        .iter()
        .map(|v| vars.lookup(v).expect("group key is a pattern var"))
        .collect();
    let agg_slot = agg
        .var
        .as_ref()
        .map(|v| vars.lookup(v).expect("counted var is a pattern var"));
    // group solutions by the GROUP BY key
    let mut groups: BTreeMap<Vec<Option<Sym>>, Vec<&Binding>> = BTreeMap::new();
    for b in &solutions {
        let key: Vec<Option<Sym>> = group_slots.iter().map(|&i| b[i]).collect();
        groups.entry(key).or_default().push(b);
    }
    if query.group_by.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), Vec::new()); // COUNT over zero solutions = 0
    }
    let width = projected.len();
    let mut cells: Vec<Cell> = Vec::with_capacity(groups.len() * width);
    let mut owned: Vec<Term> = Vec::with_capacity(groups.len());
    for (key, members) in &groups {
        let count = match agg_slot {
            None => members.len(),
            Some(slot) => {
                let mut values: Vec<Sym> = members.iter().filter_map(|b| b[slot]).collect();
                if agg.distinct {
                    values.sort_unstable();
                    values.dedup();
                }
                values.len()
            }
        };
        for v in projected {
            let cell = if *v == agg.alias {
                Cell::own(&mut owned, Term::int(count as i64))
            } else {
                let idx = query.group_by.iter().position(|g| g == v);
                Cell::from(idx.and_then(|i| key[i]))
            };
            cells.push(cell);
        }
    }
    let mut len = groups.len();
    // ORDER BY over the aggregated rows (keys must be projected)
    if !query.order_by.is_empty() {
        for (v, _) in &query.order_by {
            if !projected.contains(v) {
                return Err(QueryError::UnboundVariable(v.clone()));
            }
        }
        let keys: Vec<(usize, Order)> = query
            .order_by
            .iter()
            .map(|(v, d)| (projected.iter().position(|p| p == v).expect("checked"), *d))
            .collect();
        let terms = Terms {
            pool: Some(graph.pool()),
            owned: &owned,
        };
        let order = sort_order(len, &keys, |row, col| {
            terms.resolve(cells[row * width + col])
        });
        cells = order
            .iter()
            .flat_map(|&r| &cells[r as usize * width..(r as usize + 1) * width])
            .copied()
            .collect();
    }
    let (start, end) = slice_bounds(query, len);
    cells.truncate(end * width);
    cells.drain(..start * width);
    len = end - start;
    Ok(ResultSet::interned(projected.to_vec(), graph.pool(), len, cells, owned).with_stats(stats))
}

/// Numeric-aware term comparison for ORDER BY and filters.
///
/// The order is total. Terms compare by stratum — blanks < IRIs <
/// numeric-typed literals < other literals — then within their stratum:
/// numerically (under [`compare_f64_total`], so `NaN` has one
/// deterministic position) for the numeric stratum, lexically elsewhere.
///
/// Ranking numeric literals as their own stratum is what keeps the
/// comparator transitive when typed and plain literals mix: comparing
/// `"5"^^xsd:integer` to a plain `"3"` numerically-when-possible but
/// lexically-otherwise produced cycles (`10 > 5`, `"5" > "3"`,
/// `"3" > "10"`), and a cyclic comparator makes `sort_by` output
/// seed-dependent — or, under a future sort implementation, panic.
pub(crate) fn compare_terms(a: Option<&Term>, b: Option<&Term>) -> Ordering {
    compare_ranks(&a.map(term_rank), &b.map(term_rank))
}

/// [`compare_terms`] on ranked terms: unbound first, then by stratum,
/// then by value within the stratum.
fn compare_ranks(a: &RankKey, b: &RankKey) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some((ra, na, ka)), Some((rb, nb, kb))) => ra.cmp(rb).then_with(|| match (na, nb) {
            (Some(a), Some(b)) => compare_f64_total(*a, *b),
            _ => ka.cmp(kb),
        }),
    }
}

/// Total order on doubles: `NaN == NaN`, `NaN >` any number.
///
/// Introduced for `ORDER BY` (where `partial_cmp(..).unwrap_or(Equal)`
/// makes the comparator intransitive and the sort seed-dependent once a
/// `NaN` appears) and shared with every other float ranking in the
/// workspace — notably the retrieval layer's hit ordering, where a
/// zero-vector or garbage embedding must not be able to perturb the
/// relative order of the real hits.
///
/// ```
/// use std::cmp::Ordering;
/// use kgquery::exec::compare_f64_total;
///
/// assert_eq!(compare_f64_total(f64::NAN, f64::NAN), Ordering::Equal);
/// assert_eq!(compare_f64_total(f64::NAN, f64::INFINITY), Ordering::Greater);
/// assert_eq!(compare_f64_total(1.0, 2.0), Ordering::Less);
/// ```
pub fn compare_f64_total(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("both non-NaN"),
    }
}

/// Allocation-free sort key: the stratum (blanks < IRIs < numeric
/// literals < other literals), the parsed value for the numeric stratum,
/// and the inner string for the rest. Numeric literals never fall back to
/// the lexical string — two values in the numeric stratum are always
/// comparable by value, and cross-stratum pairs are decided by the
/// stratum alone.
fn term_rank(t: &Term) -> (u8, Option<f64>, &str) {
    match t {
        Term::Blank(b) => (0, None, b.as_str()),
        Term::Iri(i) => (1, None, i.as_str()),
        Term::Literal(l) => match l.as_double() {
            Some(v) => (2, Some(v), ""),
            None => (3, None, l.lexical.as_str()),
        },
    }
}

// ---------------------------------------------------------------------------
// Compilation: names → slots, constants → syms, BGPs → join order
// ---------------------------------------------------------------------------

/// Interner mapping variable names to dense slot indices.
#[derive(Debug, Default, Clone)]
struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    fn intern(&mut self, name: &str) -> usize {
        match self.lookup(name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        }
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// A subject/object position after compilation.
#[derive(Debug, Clone, Copy)]
enum SlotNode {
    /// A constant, pre-resolved against the term pool (`None` = the term
    /// is not interned, so the pattern can never match).
    Const(Option<Sym>),
    /// A variable slot.
    Var(usize),
}

/// A predicate position after compilation.
#[derive(Debug, Clone)]
enum SlotPath {
    /// A plain predicate IRI, pre-resolved (`None` = unknown predicate).
    Pred(Option<Sym>),
    /// A predicate variable slot.
    Var(usize),
    /// A composite property path: its id in the query's path table.
    Path(PathId),
}

/// One compiled triple pattern.
#[derive(Debug, Clone)]
struct SlotPattern {
    s: SlotNode,
    p: SlotPath,
    o: SlotNode,
}

/// The compiled plan: mirrors [`Plan`] with BGPs already join-ordered.
#[derive(Debug, Clone)]
enum CPlan {
    Unit,
    /// Patterns in execution order.
    Bgp(Vec<SlotPattern>),
    Sequence(Vec<CPlan>),
    LeftJoin(Box<CPlan>, Box<CPlan>),
    Union(Box<CPlan>, Box<CPlan>),
    Filter(CExpr, Box<CPlan>),
    /// Inline data: the slot and the pre-resolved values, in syntactic
    /// order. Terms not interned in the graph's pool are dropped at
    /// compile time — they can never join with any triple, and a `Sym`
    /// cannot represent them (see `docs/query-executor.md` for this
    /// documented subset semantics, mirrored by [`crate::reference`]).
    Values(usize, Vec<Sym>),
}

/// A filter expression over slots.
#[derive(Debug, Clone)]
enum CExpr {
    Var(usize),
    Const(Term),
    Eq(Box<CExpr>, Box<CExpr>),
    Ne(Box<CExpr>, Box<CExpr>),
    Lt(Box<CExpr>, Box<CExpr>),
    Le(Box<CExpr>, Box<CExpr>),
    Gt(Box<CExpr>, Box<CExpr>),
    Ge(Box<CExpr>, Box<CExpr>),
    And(Box<CExpr>, Box<CExpr>),
    Or(Box<CExpr>, Box<CExpr>),
    Not(Box<CExpr>),
    Bound(usize),
    Contains(Box<CExpr>, String),
}

/// Compile a plan, interning variables and join-ordering each BGP once.
///
/// `bound` tracks which slots are statically bound when a node runs; it
/// drives the ordering heuristic only — the evaluator re-checks per
/// binding, so an optimistic approximation (e.g. counting `OPTIONAL` /
/// `UNION` vars as bound downstream) can never affect correctness.
fn compile_plan(
    graph: &Graph,
    plan: &Plan,
    vars: &mut VarTable,
    paths: &mut PathTable,
    bound: &mut BTreeSet<usize>,
) -> CPlan {
    match plan {
        Plan::Unit => CPlan::Unit,
        Plan::Bgp(patterns) => CPlan::Bgp(order_bgp(graph, patterns, vars, paths, bound)),
        Plan::Sequence(parts) => CPlan::Sequence(
            parts
                .iter()
                .map(|p| compile_plan(graph, p, vars, paths, bound))
                .collect(),
        ),
        Plan::LeftJoin(left, right) => {
            let cl = compile_plan(graph, left, vars, paths, bound);
            // the right side always starts from a left solution, so left
            // slots count as bound for its ordering
            let cr = compile_plan(graph, right, vars, paths, bound);
            CPlan::LeftJoin(Box::new(cl), Box::new(cr))
        }
        Plan::Union(l, r) => {
            let mut bl = bound.clone();
            let cl = compile_plan(graph, l, vars, paths, &mut bl);
            let mut br = bound.clone();
            let cr = compile_plan(graph, r, vars, paths, &mut br);
            bound.extend(bl);
            bound.extend(br);
            CPlan::Union(Box::new(cl), Box::new(cr))
        }
        Plan::Filter(e, inner) => {
            let ce = compile_expr(e, vars);
            let ci = compile_plan(graph, inner, vars, paths, bound);
            CPlan::Filter(ce, Box::new(ci))
        }
        Plan::Values(v, terms) => {
            let slot = vars.intern(v);
            // every solution leaving this node has the slot bound, so
            // downstream join ordering may count on it
            bound.insert(slot);
            let syms: Vec<Sym> = terms.iter().filter_map(|t| graph.pool().get(t)).collect();
            CPlan::Values(slot, syms)
        }
    }
}

/// Greedy selectivity-driven join ordering, run once per BGP: repeatedly
/// take the cheapest remaining pattern under the current bound-slot set.
fn order_bgp(
    graph: &Graph,
    patterns: &[TriplePatternAst],
    vars: &mut VarTable,
    paths: &mut PathTable,
    bound: &mut BTreeSet<usize>,
) -> Vec<SlotPattern> {
    let mut remaining: Vec<SlotPattern> = patterns
        .iter()
        .map(|t| compile_pattern(graph, t, vars, paths))
        .collect();
    let mut ordered = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, p)| (i, estimate_pattern(graph, p, bound)))
            .min_by_key(|&(_, est)| est)
            .expect("non-empty remaining");
        let chosen = remaining.remove(idx);
        for slot in pattern_slots(&chosen) {
            bound.insert(slot);
        }
        ordered.push(chosen);
    }
    ordered
}

fn compile_pattern(
    graph: &Graph,
    t: &TriplePatternAst,
    vars: &mut VarTable,
    paths: &mut PathTable,
) -> SlotPattern {
    SlotPattern {
        s: compile_node(graph, &t.s, vars),
        p: compile_path(graph, &t.p, vars, paths),
        o: compile_node(graph, &t.o, vars),
    }
}

fn compile_node(graph: &Graph, n: &NodeRef, vars: &mut VarTable) -> SlotNode {
    match n {
        NodeRef::Var(v) => SlotNode::Var(vars.intern(v)),
        NodeRef::Const(term) => SlotNode::Const(graph.pool().get(term)),
    }
}

fn compile_path(
    graph: &Graph,
    p: &PropPath,
    vars: &mut VarTable,
    paths: &mut PathTable,
) -> SlotPath {
    match p {
        PropPath::Iri(iri) => SlotPath::Pred(graph.pool().get_iri(iri)),
        PropPath::Var(v) => SlotPath::Var(vars.intern(v)),
        other => SlotPath::Path(paths.intern(graph, other)),
    }
}

/// A property path compiled against the term pool: each IRI resolved to
/// its `Sym` once, sub-paths referenced by [`PathTable`] id.
#[derive(Debug, Clone, Copy)]
enum CPath {
    /// A predicate IRI (`None` = not interned, so it matches nothing).
    Pred(Option<Sym>),
    /// A predicate variable inside a composite path: unsupported, so it
    /// matches nothing.
    Var,
    Inverse(PathId),
    Seq(PathId, PathId),
    Alt(PathId, PathId),
    OneOrMore(PathId),
    ZeroOrMore(PathId),
}

impl CPath {
    /// A bare predicate costs one index probe: cheaper than a memo lookup.
    fn is_simple(self) -> bool {
        matches!(self, CPath::Pred(_) | CPath::Var)
    }
}

/// An index into a query's compiled path table.
type PathId = usize;

/// The compiled property paths of one query. Structurally equal
/// sub-paths get one id, so they share memo entries exactly as the path
/// expressions they come from compare equal.
#[derive(Default)]
struct PathTable {
    nodes: Vec<CPath>,
    ids: HashMap<PropPath, PathId>,
}

impl PathTable {
    fn intern(&mut self, graph: &Graph, path: &PropPath) -> PathId {
        if let Some(&id) = self.ids.get(path) {
            return id;
        }
        let node = match path {
            PropPath::Iri(iri) => CPath::Pred(graph.pool().get_iri(iri)),
            PropPath::Var(_) => CPath::Var,
            PropPath::Inverse(inner) => CPath::Inverse(self.intern(graph, inner)),
            PropPath::Seq(l, r) => CPath::Seq(self.intern(graph, l), self.intern(graph, r)),
            PropPath::Alt(l, r) => CPath::Alt(self.intern(graph, l), self.intern(graph, r)),
            PropPath::OneOrMore(inner) => CPath::OneOrMore(self.intern(graph, inner)),
            PropPath::ZeroOrMore(inner) => CPath::ZeroOrMore(self.intern(graph, inner)),
        };
        self.nodes.push(node);
        self.ids.insert(path.clone(), self.nodes.len() - 1);
        self.nodes.len() - 1
    }
}

fn compile_expr(e: &Expr, vars: &mut VarTable) -> CExpr {
    let bin = |l: &Expr, r: &Expr, vars: &mut VarTable| {
        (
            Box::new(compile_expr(l, vars)),
            Box::new(compile_expr(r, vars)),
        )
    };
    match e {
        Expr::Var(v) => CExpr::Var(vars.intern(v)),
        Expr::Const(t) => CExpr::Const(t.clone()),
        Expr::Eq(l, r) => {
            let (l, r) = bin(l, r, vars);
            CExpr::Eq(l, r)
        }
        Expr::Ne(l, r) => {
            let (l, r) = bin(l, r, vars);
            CExpr::Ne(l, r)
        }
        Expr::Lt(l, r) => {
            let (l, r) = bin(l, r, vars);
            CExpr::Lt(l, r)
        }
        Expr::Le(l, r) => {
            let (l, r) = bin(l, r, vars);
            CExpr::Le(l, r)
        }
        Expr::Gt(l, r) => {
            let (l, r) = bin(l, r, vars);
            CExpr::Gt(l, r)
        }
        Expr::Ge(l, r) => {
            let (l, r) = bin(l, r, vars);
            CExpr::Ge(l, r)
        }
        Expr::And(l, r) => {
            let (l, r) = bin(l, r, vars);
            CExpr::And(l, r)
        }
        Expr::Or(l, r) => {
            let (l, r) = bin(l, r, vars);
            CExpr::Or(l, r)
        }
        Expr::Not(i) => CExpr::Not(Box::new(compile_expr(i, vars))),
        Expr::Bound(v) => CExpr::Bound(vars.intern(v)),
        Expr::Contains(i, needle) => {
            CExpr::Contains(Box::new(compile_expr(i, vars)), needle.clone())
        }
    }
}

/// The variable slots a pattern binds.
fn pattern_slots(p: &SlotPattern) -> Vec<usize> {
    let mut out = Vec::new();
    if let SlotNode::Var(i) = p.s {
        out.push(i);
    }
    if let SlotPath::Var(i) = &p.p {
        out.push(*i);
    }
    if let SlotNode::Var(i) = p.o {
        out.push(i);
    }
    out
}

/// Cardinality estimate of a compiled pattern given bound slots.
/// Estimate the result cardinality of one pattern given the set of
/// already-bound variable slots.
///
/// Estimates come from the per-predicate histograms that [`Graph`]
/// maintains incrementally ([`kg::PredicateCard`]): for a known
/// predicate, a half-bound pattern costs its average subject/object
/// fanout (`triples / distinct subjects-or-objects`); for an unknown
/// predicate or a composite path, the graph-wide distinct-subject /
/// distinct-object counts play the same role. This replaces the old
/// fixed `base / 8` guess, so join ordering now reacts to the actual
/// shape of the data (e.g. a functional predicate with fanout 1 is
/// ordered before a many-to-many one).
fn estimate_pattern(graph: &Graph, t: &SlotPattern, bound: &BTreeSet<usize>) -> usize {
    let node_known = |n: SlotNode| match n {
        SlotNode::Const(_) => true,
        SlotNode::Var(i) => bound.contains(&i),
    };
    let s_known = node_known(t.s);
    let o_known = node_known(t.o);
    if s_known && o_known {
        return 1;
    }
    let total = graph.len().max(1);
    match &t.p {
        // Known predicate: use its histogram entry directly.
        SlotPath::Pred(Some(p)) => {
            let card = graph.predicate_card(*p);
            if card.triples == 0 {
                // Predicate absent from the graph (or literal not interned):
                // the pattern matches nothing, so schedule it first.
                return 0;
            }
            match (s_known, o_known) {
                (true, false) => card.subject_fanout().max(1),
                (false, true) => card.object_fanout().max(1),
                (false, false) => card.triples,
                (true, true) => unreachable!("handled above"),
            }
        }
        // Constant predicate that is not in the term pool: matches nothing.
        SlotPath::Pred(None) => 0,
        // Predicate variable: fall back to graph-wide distinct-term counts.
        SlotPath::Var(_) => match (s_known, o_known) {
            (true, false) => avg_fanout(total, graph.subject_cardinality()),
            (false, true) => avg_fanout(total, graph.object_cardinality()),
            (false, false) => total,
            (true, true) => unreachable!("handled above"),
        },
        // Composite path: can traverse any predicate, possibly repeatedly.
        // Use the graph-wide fanout as a floor but never claim it is
        // cheaper than a simple pattern with both endpoints free.
        SlotPath::Path(_) => match (s_known, o_known) {
            (true, false) => avg_fanout(total, graph.subject_cardinality()),
            (false, true) => avg_fanout(total, graph.object_cardinality()),
            (false, false) => total,
            (true, true) => unreachable!("handled above"),
        },
    }
}

/// Average fanout: `total / distinct`, rounded up, at least 1.
fn avg_fanout(total: usize, distinct: usize) -> usize {
    if distinct == 0 {
        total.max(1)
    } else {
        total.div_ceil(distinct).max(1)
    }
}

// ---------------------------------------------------------------------------
// Evaluation over slot bindings
// ---------------------------------------------------------------------------

/// Per-query evaluation state: the graph, the path memo table, and the
/// resource-governance context that evaluation checks cooperatively. The
/// memo table is single-threaded (`RefCell`), so an `EvalCtx` cannot be
/// shared across threads.
struct EvalCtx<'a> {
    graph: &'a Graph,
    /// The query's compiled property paths.
    paths: &'a [CPath],
    path_memo: PathCache,
    rc: &'a ExecContext,
    /// May a budget violation be absorbed by truncating the result instead
    /// of failing the query? True exactly when the shape carries a row
    /// budget (`ASK`, `ORDER BY`-free non-`DISTINCT` `LIMIT`).
    truncate_ok: bool,
}

/// Memo key for one path evaluation: the compiled path's id plus its
/// fixed endpoints.
type PathKey = (PathId, Option<Sym>, Option<Sym>);

/// Shared, immutable result of one path evaluation.
type SharedPairs = Rc<Vec<(Sym, Sym)>>;

/// Per-query memo table for property-path evaluation.
///
/// Keyed by the path's id plus the (optional) fixed endpoints, so both
/// whole-path evaluations repeated across bindings and the per-node
/// frontier expansions inside a transitive-closure BFS hit the cache.
#[derive(Default)]
struct PathCache {
    map: RefCell<HashMap<PathKey, SharedPairs>>,
    hits: std::cell::Cell<usize>,
}

impl PathCache {
    fn get(&self, key: &PathKey) -> Option<SharedPairs> {
        let hit = self.map.borrow().get(key).cloned();
        if hit.is_some() {
            self.hits.set(self.hits.get() + 1);
        }
        hit
    }

    fn put(&self, key: PathKey, value: SharedPairs) {
        self.map.borrow_mut().insert(key, value);
    }

    fn hits(&self) -> usize {
        self.hits.get()
    }
}

/// The number of solutions the evaluator actually needs, when the query
/// shape allows stopping early: `ASK` needs one, `ORDER BY`-free `LIMIT`
/// needs `offset + limit`. `ORDER BY` must see every solution before
/// sorting, an aggregate must see every solution before counting, and
/// `DISTINCT` may collapse any number of solutions into one row, so all
/// three disable the budget.
fn row_budget(query: &Query) -> Option<usize> {
    if query.aggregate.is_some() || !query.order_by.is_empty() {
        return None;
    }
    match &query.kind {
        QueryKind::Ask => Some(1),
        QueryKind::Select { distinct: true, .. } => None,
        QueryKind::Select { .. } => query.limit.map(|l| l.saturating_add(query.offset)),
    }
}

/// Evaluate a plan node. `budget` is an upper bound on how many output
/// rows the caller will consume: when `Some(k)`, the node returns exactly
/// the first `min(n, k)` rows of its unbudgeted output, in the same
/// order — the invariant that makes budgeted `LIMIT` slicing exact.
///
/// `Err` means a resource budget tripped mid-evaluation; the partial rows
/// are discarded and the violation propagates to [`execute`], except
/// in the depth-first BGP driver, which can absorb it (see
/// [`eval_bgp_depth_first`]).
fn eval(
    ctx: &EvalCtx,
    plan: &CPlan,
    input: Vec<Binding>,
    budget: Option<usize>,
    stats: &mut ExecStats,
) -> Result<Vec<Binding>, LimitViolation> {
    match plan {
        CPlan::Unit => Ok(match budget {
            Some(k) if input.len() > k => input.into_iter().take(k).collect(),
            _ => input,
        }),
        CPlan::Bgp(patterns) => match budget {
            Some(k) => eval_bgp_depth_first(ctx, patterns, input, k, stats),
            None => eval_bgp(ctx, patterns, input, stats),
        },
        CPlan::Sequence(parts) => {
            let mut acc = input;
            for (i, p) in parts.iter().enumerate() {
                // stage boundary between sequence parts
                ctx.rc.check_now()?;
                // only the last part's output is the node's output, so
                // only it may stop early
                let part_budget = if i + 1 == parts.len() { budget } else { None };
                acc = eval(ctx, p, acc, part_budget, stats)?;
                if acc.is_empty() {
                    break;
                }
            }
            Ok(acc)
        }
        CPlan::LeftJoin(left, right) => {
            // every left solution yields at least one output row, so the
            // budget caps the left side too
            let lefts = eval(ctx, left, input, budget, stats)?;
            let mut out = Vec::new();
            for b in lefts {
                ctx.rc.checkpoint()?;
                // remaining is ≥ 1 here: we break as soon as the budget
                // fills, so a budgeted right side can never return an
                // artificially empty (→ spurious unmatched-left) result
                let remaining = budget.map(|k| k - out.len());
                let rs = eval(ctx, right, vec![b.clone()], remaining, stats)?;
                if rs.is_empty() {
                    out.push(b);
                } else {
                    out.extend(rs);
                }
                ctx.rc.check_rows(out.len())?;
                if budget.is_some_and(|k| out.len() >= k) {
                    break;
                }
            }
            Ok(out)
        }
        CPlan::Union(l, r) => {
            let mut out = eval(ctx, l, input.clone(), budget, stats)?;
            let remaining = budget.map(|k| k.saturating_sub(out.len()));
            if remaining != Some(0) {
                out.extend(eval(ctx, r, input, remaining, stats)?);
            }
            ctx.rc.check_rows(out.len())?;
            Ok(out)
        }
        CPlan::Filter(e, inner) => {
            // the filter may reject any row, so no budget can be pushed
            // into the inner plan; it still bounds how much gets filtered
            let sols = eval(ctx, inner, input, None, stats)?;
            let mut out = Vec::new();
            for b in sols {
                ctx.rc.checkpoint()?;
                if eval_expr(ctx.graph, e, &b).unwrap_or(false) {
                    out.push(b);
                    if budget.is_some_and(|k| out.len() >= k) {
                        break;
                    }
                }
            }
            Ok(out)
        }
        CPlan::Values(slot, syms) => {
            let mut out = Vec::new();
            'rows: for b in input {
                ctx.rc.checkpoint()?;
                match b[*slot] {
                    // already bound (self-join through the slot): the
                    // inline data acts as a membership filter
                    Some(existing) => {
                        if syms.contains(&existing) {
                            out.push(b);
                        }
                    }
                    None => {
                        for &s in syms {
                            if budget.is_some_and(|k| out.len() >= k) {
                                break 'rows;
                            }
                            let mut nb = b.clone();
                            nb[*slot] = Some(s);
                            stats.intermediate_bindings += 1;
                            out.push(nb);
                        }
                    }
                }
                ctx.rc.check_rows(out.len())?;
                if budget.is_some_and(|k| out.len() >= k) {
                    break;
                }
            }
            Ok(out)
        }
    }
}

/// The staged driver: every binding is extended through pattern `i`
/// before pattern `i + 1` runs. Each stage is one sorted-merge pass when
/// [`merge_plan`] allows it, else the per-binding [`probe_stage`].
fn eval_bgp(
    ctx: &EvalCtx,
    patterns: &[SlotPattern],
    input: Vec<Binding>,
    stats: &mut ExecStats,
) -> Result<Vec<Binding>, LimitViolation> {
    let mut current = input;
    for pat in patterns {
        if current.is_empty() {
            break;
        }
        // stage boundary: poll cancellation/deadline before each pass
        ctx.rc.check_now()?;
        stats.patterns_scanned += 1;
        let next = match merge_plan(ctx, pat, &current) {
            Some(plan) => extend_stage_merge(ctx, &plan, current, stats)?,
            None => probe_stage(ctx, pat, current, stats)?,
        };
        stats.intermediate_bindings += next.len();
        current = next;
    }
    Ok(current)
}

/// The probe loop: one index probe per binding, whose matches extend it
/// through [`extend_binding`]. One checkpoint per input binding, then an
/// exact row check, so a cross-product stage trips the budget long before
/// it materializes.
fn probe_stage(
    ctx: &EvalCtx,
    pat: &SlotPattern,
    bindings: Vec<Binding>,
    stats: &mut ExecStats,
) -> Result<Vec<Binding>, LimitViolation> {
    let mut next = Vec::new();
    for b in bindings {
        ctx.rc.checkpoint()?;
        if let Some(m) = resolve_pattern(ctx, pat, &b, stats)? {
            extend_binding(b, m.at, m.rows.into_iter(), None, |nb| {
                next.push(nb);
                Ok(true)
            })?;
        }
        ctx.rc.check_rows(next.len())?;
    }
    Ok(next)
}

/// A BGP extension stage that qualifies for sorted-merge evaluation: a
/// constant, interned predicate joining a key slot (bound in every input
/// binding) to a free slot (unbound in every input binding).
struct MergePlan {
    p: Sym,
    key_slot: usize,
    free_slot: usize,
    /// `true` when the key slot sits in subject position (objects are
    /// enumerated), `false` when it sits in object position.
    key_on_subject: bool,
}

/// Decide whether a stage can run as one sorted-merge pass (see
/// `docs/storage.md` for the conditions and why each one is required).
///
/// The bound-in-all / free-in-all checks are per-stage `O(n)` scans over
/// the frontier — noise next to the per-binding probes they stand in for.
/// `OPTIONAL` and `UNION` branches can leave a slot bound in some rows
/// and free in others; such mixed stages fall back to the probe loop.
fn merge_plan(ctx: &EvalCtx, pat: &SlotPattern, bindings: &[Binding]) -> Option<MergePlan> {
    if bindings.len() < MERGE_THRESHOLD || !ctx.graph.is_compacted() {
        return None;
    }
    let SlotPath::Pred(Some(p)) = &pat.p else {
        return None;
    };
    let (SlotNode::Var(s_slot), SlotNode::Var(o_slot)) = (pat.s, pat.o) else {
        return None;
    };
    if s_slot == o_slot {
        return None;
    }
    let all = |slot: usize, bound: bool| bindings.iter().all(|b| b[slot].is_some() == bound);
    let (key_slot, free_slot, key_on_subject) = if all(s_slot, true) && all(o_slot, false) {
        (s_slot, o_slot, true)
    } else if all(o_slot, true) && all(s_slot, false) {
        (o_slot, s_slot, false)
    } else {
        return None;
    };
    Some(MergePlan {
        p: *p,
        key_slot,
        free_slot,
        key_on_subject,
    })
}

/// Evaluate one eligible stage as a sorted-merge join: sort the frontier
/// by its key symbol, walk the predicate's index once with a monotone
/// [`kg::MergeProbe`] (one shrinking-window search per *distinct* key),
/// then emit through [`extend_binding`] in the original frontier order,
/// so rows come out bit-identical to the per-binding probe loop.
///
/// Work accounting: [`ExecStats::index_probes`] counts distinct keys
/// (duplicate keys reuse the previous seek's matches) and
/// [`ExecStats::merge_joins`] counts the stage itself.
fn extend_stage_merge(
    ctx: &EvalCtx,
    plan: &MergePlan,
    bindings: Vec<Binding>,
    stats: &mut ExecStats,
) -> Result<Vec<Binding>, LimitViolation> {
    let keys: Vec<Sym> = bindings
        .iter()
        .map(|b| b[plan.key_slot].expect("merge key bound in every row"))
        .collect();
    let mut order: Vec<u32> = (0..bindings.len() as u32).collect();
    order.sort_unstable_by_key(|&i| keys[i as usize]);
    let mut probe = ctx
        .graph
        .merge_probe(plan.p, plan.key_on_subject)
        .expect("merge stage gated on a compacted graph");
    // matches per original binding index; duplicate keys share one seek
    let mut per: Vec<Vec<Sym>> = vec![Vec::new(); bindings.len()];
    let mut prev: Option<(Sym, u32)> = None;
    let mut distinct = 0usize;
    for &oi in &order {
        let i = oi as usize;
        let key = keys[i];
        match prev {
            Some((pk, pi)) if pk == key => per[i] = per[pi as usize].clone(),
            _ => {
                distinct += 1;
                per[i] = probe.seek(key).collect();
                prev = Some((key, oi));
            }
        }
    }
    stats.index_probes += distinct;
    stats.merge_joins += 1;
    let mut next = Vec::new();
    for ((binding, key), matches) in bindings.into_iter().zip(keys).zip(per) {
        ctx.rc.checkpoint()?;
        let (known, free) = (Pos::Known(key), Pos::Free(plan.free_slot));
        let (s, o) = if plan.key_on_subject {
            (known, free)
        } else {
            (free, known)
        };
        let at = Positions { s, o, p_slot: None };
        // a match fills both endpoints: the known one ignores it
        extend_binding(
            binding,
            at,
            matches.into_iter().map(|v| (v, v, None)),
            None,
            |b| {
                next.push(b);
                Ok(true)
            },
        )?;
        ctx.rc.check_rows(next.len())?;
    }
    Ok(next)
}

/// The depth-first driver, for row budgets: enumerates solutions of a
/// pre-ordered BGP in exactly the staged order but one full solution at a
/// time, stopping after `budget` rows instead of materializing the whole
/// join frontier.
fn eval_bgp_depth_first(
    ctx: &EvalCtx,
    patterns: &[SlotPattern],
    input: Vec<Binding>,
    budget: usize,
    stats: &mut ExecStats,
) -> Result<Vec<Binding>, LimitViolation> {
    let mut out = Vec::new();
    if budget == 0 || input.is_empty() {
        return Ok(out);
    }
    // one stage per pattern, mirroring the staged evaluator's counter
    stats.patterns_scanned += patterns.len();
    for b in input {
        match dfs_extend(ctx, patterns, b, budget, &mut out, stats) {
            Ok(()) => {}
            // a prefix of the staged order is a correct answer for the
            // budgeted shapes this evaluator serves, so a tripped budget
            // truncates instead of failing
            Err(v) if ctx.truncate_ok => {
                ctx.rc.record_truncation(v);
                return Ok(out);
            }
            Err(v) => return Err(v),
        }
        if out.len() >= budget {
            break;
        }
    }
    Ok(out)
}

/// Recursive step of [`eval_bgp_depth_first`]: extend `binding` through
/// `patterns[0]`, recursing on the rest, appending completed solutions to
/// `out` until the budget fills.
fn dfs_extend(
    ctx: &EvalCtx,
    patterns: &[SlotPattern],
    binding: Binding,
    budget: usize,
    out: &mut Vec<Binding>,
    stats: &mut ExecStats,
) -> Result<(), LimitViolation> {
    let Some((pat, rest)) = patterns.split_first() else {
        out.push(binding);
        return Ok(());
    };
    let Some(m) = resolve_pattern(ctx, pat, &binding, stats)? else {
        return Ok(());
    };
    // per-match checkpoint: the DFS can spin through many failed
    // extensions without ever emitting a row
    extend_binding(binding, m.at, m.rows.into_iter(), Some(ctx.rc), |b| {
        stats.intermediate_bindings += 1;
        ctx.rc.check_rows(stats.intermediate_bindings)?;
        dfs_extend(ctx, rest, b, budget, out, stats)?;
        Ok(out.len() < budget)
    })
}

/// A pattern position resolved under one binding.
#[derive(Debug, Clone, Copy)]
enum Pos {
    Known(Sym),
    Free(usize),
}

impl Pos {
    fn known(self) -> Option<Sym> {
        match self {
            Pos::Known(s) => Some(s),
            Pos::Free(_) => None,
        }
    }
}

/// Write `value` into a free slot, or check consistency against what is
/// already there (`?x p ?x` must see the same value at both positions).
fn bind_slot(b: &mut Binding, pos: Pos, value: Sym) -> bool {
    match pos {
        Pos::Known(_) => true,
        Pos::Free(i) => match b[i] {
            Some(existing) => existing == value,
            None => {
                b[i] = Some(value);
                true
            }
        },
    }
}

/// Where a pattern resolved under one binding writes its matches: the
/// endpoint positions and the slot an unbound predicate variable binds.
#[derive(Debug, Clone, Copy)]
struct Positions {
    s: Pos,
    o: Pos,
    p_slot: Option<usize>,
}

/// The stage kernel, the only code that turns a pattern match into an
/// extended binding. Each `(subject, object, predicate)` match is written
/// into the free positions of `at`; a match that disagrees with a slot an
/// earlier position of the same match set (`?x p ?x`) is skipped. The
/// last match takes `binding`, earlier matches clone it. `emit` receives
/// each extended binding and returns whether to go on.
///
/// With `poll`, the kernel checkpoints before every match, extended or
/// not: the depth-first driver's budget check. The staged driver's probe
/// and merge stages pass `None` and check once per input binding instead.
// Inlined into each caller so `emit` and the positions fold into the
// caller's loop: called out of line, it made the merge-stage joins of
// `query_bench` about 3 % slower.
#[inline(always)]
fn extend_binding(
    binding: Binding,
    at: Positions,
    matches: impl ExactSizeIterator<Item = (Sym, Sym, Option<Sym>)>,
    poll: Option<&ExecContext>,
    mut emit: impl FnMut(Binding) -> Result<bool, LimitViolation>,
) -> Result<(), LimitViolation> {
    let total = matches.len();
    let mut source = Some(binding);
    for (i, (ms, mo, mp)) in matches.enumerate() {
        if let Some(rc) = poll {
            rc.checkpoint()?;
        }
        let mut b = if i + 1 == total {
            source.take().expect("moved once, on the last match")
        } else {
            source
                .as_ref()
                .expect("still owned before the last match")
                .clone()
        };
        if !bind_slot(&mut b, at.s, ms) {
            continue;
        }
        if let (Some(slot), Some(p_val)) = (at.p_slot, mp) {
            if !bind_slot(&mut b, Pos::Free(slot), p_val) {
                continue;
            }
        }
        if !bind_slot(&mut b, at.o, mo) {
            continue;
        }
        if !emit(b)? {
            break;
        }
    }
    Ok(())
}

/// A pattern resolved under one binding: where its matches write, and the
/// matching rows as `(subject, object, predicate-to-bind)` triples.
struct PatternMatches {
    at: Positions,
    rows: Vec<(Sym, Sym, Option<Sym>)>,
}

/// Resolve a compiled pattern against one binding and probe the graph for
/// its matches. `Ok(None)` means the pattern is unsatisfiable under this
/// binding (an un-interned constant) — not merely matchless; `Err` means a
/// resource budget tripped during property-path evaluation.
fn resolve_pattern(
    ctx: &EvalCtx,
    t: &SlotPattern,
    binding: &Binding,
    stats: &mut ExecStats,
) -> Result<Option<PatternMatches>, LimitViolation> {
    let resolve = |n: SlotNode| -> Option<Pos> {
        match n {
            SlotNode::Var(i) => Some(match binding[i] {
                Some(s) => Pos::Known(s),
                None => Pos::Free(i),
            }),
            SlotNode::Const(Some(s)) => Some(Pos::Known(s)),
            SlotNode::Const(None) => None, // unknown constant: no match
        }
    };
    let (Some(s), Some(o)) = (resolve(t.s), resolve(t.o)) else {
        return Ok(None);
    };

    let mut rows: Vec<(Sym, Sym, Option<Sym>)> = Vec::new();
    let mut p_slot = None;
    match &t.p {
        SlotPath::Pred(p) => {
            let Some(p) = *p else {
                return Ok(None);
            };
            stats.index_probes += 1;
            let pat = TriplePattern {
                s: s.known(),
                p: Some(p),
                o: o.known(),
            };
            // zero-copy: stream straight off the index scan instead of
            // materializing an intermediate Vec<Triple>
            rows.extend(ctx.graph.scan_pattern(pat).map(|m| (m.s, m.o, None)));
        }
        SlotPath::Var(pv) => {
            let p_bound = binding[*pv];
            if p_bound.is_none() {
                p_slot = Some(*pv);
            }
            stats.index_probes += 1;
            let pat = TriplePattern {
                s: s.known(),
                p: p_bound,
                o: o.known(),
            };
            rows.extend(
                ctx.graph
                    .scan_pattern(pat)
                    .map(|m| (m.s, m.o, p_bound.is_none().then_some(m.p))),
            );
        }
        SlotPath::Path(path) => {
            stats.index_probes += 1;
            let pairs = PathEval {
                graph: ctx.graph,
                table: ctx.paths,
                cache: Some(&ctx.path_memo),
                rc: Some(ctx.rc),
            }
            .memo(*path, s.known(), o.known())?;
            rows.extend(pairs.iter().map(|&(ms, mo)| (ms, mo, None)));
        }
    }
    Ok(Some(PatternMatches {
        at: Positions { s, o, p_slot },
        rows,
    }))
}

/// Evaluate a property path, returning `(start, end)` pairs consistent
/// with the optional endpoint constraints. Deterministic (sorted) order.
///
/// This entry point is uncached — it is what [`crate::reference`] (the
/// differential-testing oracle) uses, so the baseline's cost profile
/// stays honest. The compiled executor runs the same recursion over the
/// paths it compiled with the query, with a per-query memo table (see
/// [`ExecStats::path_cache_hits`]).
pub fn eval_path(
    graph: &Graph,
    path: &PropPath,
    s: Option<Sym>,
    o: Option<Sym>,
) -> Vec<(Sym, Sym)> {
    let mut table = PathTable::default();
    let root = table.intern(graph, path);
    PathEval {
        graph,
        table: &table.nodes,
        cache: None,
        rc: None,
    }
    .compute(root, s, o)
    .expect("unlimited path evaluation cannot trip a budget")
}

/// Pairs from a sub-path evaluation: owned when computed directly,
/// shared when answered by the memo table. Lets cheap uncached legs skip
/// the `Rc` allocation entirely.
enum Pairs {
    Owned(Vec<(Sym, Sym)>),
    Shared(SharedPairs),
}

impl std::ops::Deref for Pairs {
    type Target = [(Sym, Sym)];
    fn deref(&self) -> &[(Sym, Sym)] {
        match self {
            Pairs::Owned(v) => v,
            Pairs::Shared(a) => a,
        }
    }
}

/// The property-path evaluator: compiled paths of one query over one
/// graph, with the per-query memo table (`None` for uncached
/// evaluation) and the budget context (`None` for unlimited).
#[derive(Clone, Copy)]
struct PathEval<'a> {
    graph: &'a Graph,
    table: &'a [CPath],
    cache: Option<&'a PathCache>,
    rc: Option<&'a ExecContext>,
}

impl PathEval<'_> {
    /// Memoizing wrapper around [`PathEval::compute`]: consult the
    /// per-query cache (when one is supplied) before recomputing, and
    /// share results via `Rc` so hits cost one pointer clone.
    ///
    /// Simple paths (a bare IRI or predicate variable) bypass the cache:
    /// they cost one index probe, which is cheaper than the hash a lookup
    /// would take. The cache pays off on composite paths — above
    /// all transitive closures, whose BFS is the expensive part.
    fn memo(
        self,
        path: PathId,
        s: Option<Sym>,
        o: Option<Sym>,
    ) -> Result<SharedPairs, LimitViolation> {
        match self.cache {
            Some(c) if !self.table[path].is_simple() => {
                let key = (path, s, o);
                if let Some(hit) = c.get(&key) {
                    return Ok(hit);
                }
                let computed = Rc::new(self.compute(path, s, o)?);
                c.put(key, computed.clone());
                Ok(computed)
            }
            _ => Ok(Rc::new(self.compute(path, s, o)?)),
        }
    }

    /// Evaluate one leg of a composite path: simple legs (and everything
    /// when no cache is in play) go straight to [`PathEval::compute`] and
    /// return an owned `Vec`; composite legs route through the memo
    /// table.
    fn leg(self, path: PathId, s: Option<Sym>, o: Option<Sym>) -> Result<Pairs, LimitViolation> {
        if self.cache.is_none() || self.table[path].is_simple() {
            Ok(Pairs::Owned(self.compute(path, s, o)?))
        } else {
            Ok(Pairs::Shared(self.memo(path, s, o)?))
        }
    }

    /// The recursive evaluator shared by the cached and uncached entry
    /// points. Composite sub-paths route back through the memo table (via
    /// [`PathEval::leg`]), so every expensive level of a path can hit the
    /// cache.
    fn compute(
        self,
        path: PathId,
        s: Option<Sym>,
        o: Option<Sym>,
    ) -> Result<Vec<(Sym, Sym)>, LimitViolation> {
        Ok(match self.table[path] {
            CPath::Pred(Some(p)) => self
                .graph
                .scan_pattern(TriplePattern { s, p: Some(p), o })
                .map(|t| (t.s, t.o))
                .collect(),
            // an unknown predicate, or a predicate variable (handled in
            // resolve_pattern as a whole path; inside a composite path it
            // is unsupported), matches nothing
            CPath::Pred(None) | CPath::Var => Vec::new(),
            CPath::Inverse(inner) => self
                .leg(inner, o, s)?
                .iter()
                .map(|&(a, b)| (b, a))
                .collect(),
            CPath::Alt(l, r) => {
                let mut out: Vec<(Sym, Sym)> = self.leg(l, s, o)?.to_vec();
                out.extend(self.leg(r, s, o)?.iter().copied());
                out.sort_unstable();
                out.dedup();
                out
            }
            CPath::Seq(l, r) => {
                let mut out = Vec::new();
                // drive from the more constrained side
                if s.is_some() || o.is_none() {
                    for &(a, mid) in self.leg(l, s, None)?.iter() {
                        for &(_, b) in self.leg(r, Some(mid), o)?.iter() {
                            out.push((a, b));
                        }
                    }
                } else {
                    for &(mid, b) in self.leg(r, None, o)?.iter() {
                        for &(a, _) in self.leg(l, s, Some(mid))?.iter() {
                            out.push((a, b));
                        }
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            CPath::OneOrMore(inner) => self.closure(inner, s, o, false)?,
            CPath::ZeroOrMore(inner) => self.closure(inner, s, o, true)?,
        })
    }

    /// Transitive closure of a path via BFS, optionally reflexive.
    ///
    /// Whole-closure results are what the memo table caches (one entry
    /// per `(path, start)` — the repeated per-binding evaluations that
    /// made `property_path` queries gain the least from the compiled
    /// executor). Frontier expansions with a *composite* inner path also
    /// hit the cache via [`PathEval::leg`]; simple inners go straight to
    /// the index.
    fn closure(
        self,
        inner: PathId,
        s: Option<Sym>,
        o: Option<Sym>,
        reflexive: bool,
    ) -> Result<Vec<(Sym, Sym)>, LimitViolation> {
        let starts: Vec<Sym> = match (s, o) {
            (Some(x), _) => vec![x],
            (None, _) => {
                // all nodes with any outgoing inner-path edge; for
                // reflexive paths additionally every node in the graph
                let mut set: BTreeSet<Sym> = self
                    .leg(inner, None, None)?
                    .iter()
                    .map(|&(a, _)| a)
                    .collect();
                if reflexive {
                    for e in self.graph.entities() {
                        set.insert(e);
                    }
                }
                set.into_iter().collect()
            }
        };
        let mut out: Vec<(Sym, Sym)> = Vec::new();
        for start in starts {
            let mut reach: BTreeSet<Sym> = BTreeSet::new();
            let mut queue = VecDeque::from([start]);
            let mut visited: BTreeSet<Sym> = BTreeSet::from([start]);
            while let Some(n) = queue.pop_front() {
                let edges = self.leg(inner, Some(n), None)?;
                if let Some(rc) = self.rc {
                    // charge every frontier expansion, so a pathological
                    // closure trips the budget instead of flooding the BFS
                    rc.note_path_expansions(edges.len().max(1) as u64)?;
                    rc.checkpoint()?;
                }
                for &(_, next) in edges.iter() {
                    if visited.insert(next) {
                        queue.push_back(next);
                    }
                    reach.insert(next);
                }
            }
            if reflexive {
                reach.insert(start);
            }
            for r in reach {
                if o.is_none() || o == Some(r) {
                    out.push((start, r));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

/// Three-valued filter evaluation: `None` = error (treated as false).
fn eval_expr(graph: &Graph, e: &CExpr, b: &Binding) -> Option<bool> {
    match e {
        CExpr::And(l, r) => match (eval_expr(graph, l, b), eval_expr(graph, r, b)) {
            (Some(true), Some(true)) => Some(true),
            (Some(false), _) | (_, Some(false)) => Some(false),
            _ => None,
        },
        CExpr::Or(l, r) => match (eval_expr(graph, l, b), eval_expr(graph, r, b)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        CExpr::Not(i) => eval_expr(graph, i, b).map(|v| !v),
        CExpr::Bound(i) => Some(b[*i].is_some()),
        CExpr::Contains(inner, needle) => eval_term(graph, inner, b).map(|term| {
            let hay = match term {
                Term::Iri(i) => i.as_str(),
                Term::Literal(l) => l.lexical.as_str(),
                Term::Blank(x) => x.as_str(),
            };
            hay.to_lowercase().contains(&needle.to_lowercase())
        }),
        CExpr::Eq(l, r) => binary_cmp(graph, l, r, b, |o| o == Ordering::Equal),
        CExpr::Ne(l, r) => binary_cmp(graph, l, r, b, |o| o != Ordering::Equal),
        CExpr::Lt(l, r) => binary_cmp(graph, l, r, b, |o| o == Ordering::Less),
        CExpr::Le(l, r) => binary_cmp(graph, l, r, b, |o| o != Ordering::Greater),
        CExpr::Gt(l, r) => binary_cmp(graph, l, r, b, |o| o == Ordering::Greater),
        CExpr::Ge(l, r) => binary_cmp(graph, l, r, b, |o| o != Ordering::Less),
        CExpr::Var(i) => Some(b[*i].is_some()),
        CExpr::Const(t) => t.as_literal().map(|l| l.lexical == "true"),
    }
}

/// The term an expression denotes under a binding, borrowed — no clone
/// per comparison.
fn eval_term<'a>(graph: &'a Graph, e: &'a CExpr, b: &Binding) -> Option<&'a Term> {
    match e {
        CExpr::Var(i) => b[*i].map(|s| graph.resolve(s)),
        CExpr::Const(t) => Some(t),
        _ => None,
    }
}

fn binary_cmp(
    graph: &Graph,
    l: &CExpr,
    r: &CExpr,
    b: &Binding,
    pred: impl Fn(Ordering) -> bool,
) -> Option<bool> {
    let lt = eval_term(graph, l, b)?;
    let rt = eval_term(graph, r, b)?;
    Some(pred(compare_terms(Some(lt), Some(rt))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use kg::term::Literal;

    fn run_with_opts<'g>(
        g: &'g Graph,
        q: &Query,
        opts: &ExecOptions,
    ) -> Result<ResultSet<'g>, QueryError> {
        execute(g, q, opts, &obs::Span::disabled())
    }

    fn run_default<'g>(g: &'g Graph, q: &Query) -> Result<ResultSet<'g>, QueryError> {
        run_with_opts(g, q, &ExecOptions::default())
    }

    fn graph() -> Graph {
        kg::turtle::parse_turtle(
            r#"
            @prefix e: <http://e/> .
            @prefix v: <http://v/> .
            e:a v:knows e:b . e:b v:knows e:c . e:c v:knows e:d .
            e:a a v:Person ; v:age 30 ; v:name "Alice" .
            e:b a v:Person ; v:age 25 .
            e:c a v:Robot .
            e:x v:likes e:a .
            "#,
        )
        .expect("fixture parses")
    }

    /// One shared read-only copy of [`graph`] for [`run`]'s results to
    /// borrow.
    fn fixture() -> &'static Graph {
        static GRAPH: std::sync::OnceLock<Graph> = std::sync::OnceLock::new();
        GRAPH.get_or_init(graph)
    }

    fn run(q: &str) -> ResultSet<'static> {
        run_default(fixture(), &parse(q).expect("query parses")).expect("query executes")
    }

    #[test]
    fn basic_select() {
        let rs = run("PREFIX v: <http://v/> SELECT ?x ?y WHERE { ?x v:knows ?y }");
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.vars, vec!["x", "y"]);
    }

    #[test]
    fn join_two_patterns() {
        let rs = run("PREFIX v: <http://v/> SELECT ?x WHERE { ?x v:knows ?y . ?y v:knows ?z }");
        assert_eq!(rs.len(), 2); // a->b->c, b->c->d
    }

    #[test]
    fn ask_true_and_false() {
        assert_eq!(
            run("PREFIX e: <http://e/> PREFIX v: <http://v/> ASK { e:a v:knows e:b }").ask,
            Some(true)
        );
        assert_eq!(
            run("PREFIX e: <http://e/> PREFIX v: <http://v/> ASK { e:b v:knows e:a }").ask,
            Some(false)
        );
    }

    #[test]
    fn filter_numeric() {
        let rs = run("PREFIX v: <http://v/> SELECT ?x WHERE { ?x v:age ?a FILTER(?a > 26) }");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.first("x").and_then(|t| t.as_iri()), Some("http://e/a"));
    }

    #[test]
    fn optional_keeps_unmatched() {
        let rs = run(
            "PREFIX v: <http://v/> SELECT ?x ?n WHERE { ?x a v:Person OPTIONAL { ?x v:name ?n } }",
        );
        assert_eq!(rs.len(), 2);
        let bound = rs.rows().filter(|r| r.get(1).is_some()).count();
        assert_eq!(bound, 1);
    }

    #[test]
    fn union_merges() {
        let rs = run(
            "PREFIX v: <http://v/> SELECT ?x WHERE { { ?x a v:Person } UNION { ?x a v:Robot } }",
        );
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn path_sequence() {
        let rs = run(
            "PREFIX v: <http://v/> PREFIX e: <http://e/> SELECT ?z WHERE { e:a v:knows/v:knows ?z }",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.first("z").and_then(|t| t.as_iri()), Some("http://e/c"));
    }

    #[test]
    fn path_one_or_more() {
        let rs =
            run("PREFIX v: <http://v/> PREFIX e: <http://e/> SELECT ?z WHERE { e:a v:knows+ ?z }");
        let mut got: Vec<&str> = rs.values("z").iter().filter_map(|t| t.as_iri()).collect();
        got.sort_unstable();
        assert_eq!(got, vec!["http://e/b", "http://e/c", "http://e/d"]);
    }

    #[test]
    fn path_zero_or_more_includes_self() {
        let rs =
            run("PREFIX v: <http://v/> PREFIX e: <http://e/> SELECT ?z WHERE { e:a v:knows* ?z }");
        assert_eq!(rs.len(), 4); // a, b, c, d
    }

    #[test]
    fn path_inverse() {
        let rs =
            run("PREFIX v: <http://v/> PREFIX e: <http://e/> SELECT ?x WHERE { e:a ^v:likes ?x }");
        assert_eq!(rs.first("x").and_then(|t| t.as_iri()), Some("http://e/x"));
    }

    #[test]
    fn path_alternative() {
        let rs = run(
            "PREFIX v: <http://v/> PREFIX e: <http://e/> SELECT ?y WHERE { ?x v:likes|v:knows ?y }",
        );
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn predicate_variable() {
        let rs = run("PREFIX e: <http://e/> SELECT ?p WHERE { e:a ?p ?o }");
        assert!(rs.len() >= 4); // knows, type, age, name
    }

    #[test]
    fn order_by_limit_offset() {
        let rs = run(
            "PREFIX v: <http://v/> SELECT ?x ?a WHERE { ?x v:age ?a } ORDER BY DESC(?a) LIMIT 1",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(
            rs.first("a")
                .and_then(|t| t.as_literal())
                .and_then(|l| l.as_integer()),
            Some(30)
        );
        let rs2 =
            run("PREFIX v: <http://v/> SELECT ?x ?a WHERE { ?x v:age ?a } ORDER BY ?a OFFSET 1");
        assert_eq!(rs2.len(), 1);
    }

    #[test]
    fn distinct_dedups() {
        let rs = run("PREFIX v: <http://v/> SELECT DISTINCT ?p WHERE { ?s v:knows ?o . ?s ?p ?o }");
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn distinct_is_structural_not_textual() {
        // rows that differ only in literal datatype must both survive:
        // dedup keys are interned term rows, not formatted strings
        let mut g = Graph::new();
        g.insert_terms(
            Term::iri("http://e/a"),
            Term::iri("http://v/p"),
            Term::int(1),
        );
        g.insert_terms(
            Term::iri("http://e/b"),
            Term::iri("http://v/p"),
            Term::Literal(Literal::string("1")),
        );
        let q = parse("SELECT DISTINCT ?v WHERE { ?x <http://v/p> ?v }").unwrap();
        assert_eq!(run_default(&g, &q).unwrap().len(), 2);
    }

    #[test]
    fn projecting_unknown_var_errors() {
        let g = graph();
        let q = parse("SELECT ?zzz WHERE { ?x <http://v/knows> ?y }").unwrap();
        assert!(matches!(
            run_default(&g, &q),
            Err(QueryError::UnboundVariable(_))
        ));
    }

    #[test]
    fn unknown_constant_yields_empty() {
        let rs = run("PREFIX v: <http://v/> SELECT ?x WHERE { ?x v:knows <http://e/never-seen> }");
        assert!(rs.is_empty());
    }

    #[test]
    fn contains_filter_on_literal() {
        let rs = run(
            r#"PREFIX v: <http://v/> SELECT ?x WHERE { ?x v:name ?n FILTER(CONTAINS(STR(?n), "lic")) }"#,
        );
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn filter_on_never_bound_var_is_unsatisfied() {
        // ?zzz appears only in the filter: it gets a slot that is never
        // written, so comparisons error out (→ false) and BOUND is false
        let rs = run("PREFIX v: <http://v/> SELECT ?x WHERE { ?x v:age ?a FILTER(?zzz > 1) }");
        assert!(rs.is_empty());
        let rs2 = run("PREFIX v: <http://v/> SELECT ?x WHERE { ?x v:age ?a FILTER(!BOUND(?zzz)) }");
        assert_eq!(rs2.len(), 2);
    }

    #[test]
    fn same_variable_twice_in_pattern() {
        let mut g = graph();
        g.insert_iri("http://e/loop", "http://v/knows", "http://e/loop");
        let q = parse("PREFIX v: <http://v/> SELECT ?x WHERE { ?x v:knows ?x }").unwrap();
        let rs = run_default(&g, &q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(
            rs.first("x").and_then(|t| t.as_iri()),
            Some("http://e/loop")
        );
    }

    #[test]
    fn count_star_counts_solutions() {
        let rs = run("PREFIX v: <http://v/> SELECT (COUNT(*) AS ?n) WHERE { ?x v:knows ?y }");
        assert_eq!(rs.vars, vec!["n"]);
        assert_eq!(
            rs.first("n")
                .and_then(|t| t.as_literal())
                .and_then(|l| l.as_integer()),
            Some(3)
        );
    }

    #[test]
    fn count_group_by() {
        let rs = run("SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n)");
        assert_eq!(rs.len(), 5); // knows, type, age, name, likes
                                 // `knows` has 3 triples and must rank first
        assert_eq!(
            rs.get(0, 0).and_then(|t| t.as_iri()),
            Some("http://v/knows")
        );
        assert_eq!(
            rs.get(0, 1)
                .and_then(|t| t.as_literal())
                .and_then(|l| l.as_integer()),
            Some(3)
        );
    }

    #[test]
    fn count_distinct() {
        let rs = run("PREFIX v: <http://v/> SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?s ?p ?o }");
        let n = rs
            .first("n")
            .and_then(|t| t.as_literal())
            .and_then(|l| l.as_integer());
        assert_eq!(n, Some(5)); // knows, type, age, name, likes
    }

    #[test]
    fn count_over_empty_pattern_is_zero() {
        let rs = run("PREFIX v: <http://v/> SELECT (COUNT(*) AS ?n) WHERE { ?x v:never ?y }");
        assert_eq!(
            rs.first("n")
                .and_then(|t| t.as_literal())
                .and_then(|l| l.as_integer()),
            Some(0)
        );
    }

    #[test]
    fn projecting_non_grouped_var_is_an_error() {
        let g = graph();
        let q = parse(
            "PREFIX v: <http://v/> SELECT ?y (COUNT(*) AS ?n) WHERE { ?x v:knows ?y } GROUP BY ?x",
        )
        .unwrap();
        assert!(matches!(
            run_default(&g, &q),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn filter_eq_on_iri() {
        let rs = run(
            "PREFIX v: <http://v/> PREFIX e: <http://e/> SELECT ?y WHERE { ?x v:knows ?y FILTER(?x = e:a) }",
        );
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn order_by_nan_sorts_last() {
        let mut g = Graph::new();
        let p = Term::iri("http://v/val");
        g.insert_terms(
            Term::iri("http://e/a"),
            p.clone(),
            Term::Literal(Literal::double(1.5)),
        );
        g.insert_terms(
            Term::iri("http://e/b"),
            p.clone(),
            Term::Literal(Literal::double(f64::NAN)),
        );
        g.insert_terms(
            Term::iri("http://e/c"),
            p,
            Term::Literal(Literal::double(-2.0)),
        );
        let q = parse("SELECT ?x ?v WHERE { ?x <http://v/val> ?v } ORDER BY ?v").unwrap();
        let rs = run_default(&g, &q).unwrap();
        let xs: Vec<&str> = rs.values("x").iter().filter_map(|t| t.as_iri()).collect();
        assert_eq!(xs, vec!["http://e/c", "http://e/a", "http://e/b"]);
        // DESC is the exact reverse — the comparator is total, so NaN has
        // one deterministic position instead of freezing wherever it sat
        let qd = parse("SELECT ?x WHERE { ?x <http://v/val> ?v } ORDER BY DESC(?v)").unwrap();
        let rsd = run_default(&g, &qd).unwrap();
        let xsd: Vec<&str> = rsd.values("x").iter().filter_map(|t| t.as_iri()).collect();
        assert_eq!(xsd, vec!["http://e/b", "http://e/a", "http://e/c"]);
    }

    #[test]
    fn compare_terms_nan_is_total() {
        let nan = Term::Literal(Literal::double(f64::NAN));
        let one = Term::Literal(Literal::double(1.0));
        assert_eq!(compare_terms(Some(&nan), Some(&nan)), Ordering::Equal);
        assert_eq!(compare_terms(Some(&nan), Some(&one)), Ordering::Greater);
        assert_eq!(compare_terms(Some(&one), Some(&nan)), Ordering::Less);
    }

    #[test]
    fn order_by_mixed_typed_and_plain_literals() {
        // regression: "10"^^xsd:integer vs "5"^^xsd:integer compared
        // numerically while either against plain "3" compared lexically,
        // so 10 > 5, "5" > "3", "3" > "10" — a cycle. The stratified
        // comparator puts the numeric literals first (by value), then the
        // plain literal, deterministically.
        let mut g = Graph::new();
        let p = Term::iri("http://v/val");
        g.insert_terms(
            Term::iri("http://e/a"),
            p.clone(),
            Term::Literal(Literal::integer(10)),
        );
        g.insert_terms(
            Term::iri("http://e/b"),
            p.clone(),
            Term::Literal(Literal::integer(5)),
        );
        g.insert_terms(
            Term::iri("http://e/c"),
            p,
            Term::Literal(Literal::string("3")),
        );
        let q = parse("SELECT ?v WHERE { ?x <http://v/val> ?v } ORDER BY ?v").unwrap();
        let sorted: Vec<String> = run_default(&g, &q)
            .unwrap()
            .values("v")
            .iter()
            .filter_map(|t| t.as_literal())
            .map(|l| l.lexical.clone())
            .collect();
        assert_eq!(sorted, vec!["5", "10", "3"]);
        let qd = parse("SELECT ?v WHERE { ?x <http://v/val> ?v } ORDER BY DESC(?v)").unwrap();
        let reversed: Vec<String> = run_default(&g, &qd)
            .unwrap()
            .values("v")
            .iter()
            .filter_map(|t| t.as_literal())
            .map(|l| l.lexical.clone())
            .collect();
        assert_eq!(reversed, vec!["3", "10", "5"]);
    }

    #[test]
    fn compare_terms_is_transitive_across_strata() {
        // exhaustive antisymmetry + transitivity over every mixed triple
        let terms = [
            Term::Blank("b1".into()),
            Term::iri("http://e/a"),
            Term::Literal(Literal::integer(10)),
            Term::Literal(Literal::integer(5)),
            Term::Literal(Literal::double(7.5)),
            Term::Literal(Literal::double(f64::NAN)),
            Term::Literal(Literal::string("3")),
            Term::Literal(Literal::string("zebra")),
        ];
        for x in &terms {
            for y in &terms {
                let xy = compare_terms(Some(x), Some(y));
                let yx = compare_terms(Some(y), Some(x));
                assert_eq!(xy, yx.reverse(), "antisymmetry: {x} vs {y}");
                for z in &terms {
                    let yz = compare_terms(Some(y), Some(z));
                    let xz = compare_terms(Some(x), Some(z));
                    if xy != Ordering::Greater && yz != Ordering::Greater {
                        assert_ne!(xz, Ordering::Greater, "transitivity: {x} {y} {z}");
                    }
                }
            }
        }
    }

    /// Twenty people, each knowing the next and the third next: a 40-row
    /// first stage, so the second stage of a two-hop `knows` join is past
    /// the merge threshold.
    fn knows_ring() -> Graph {
        let mut g = Graph::new();
        for i in 0..20 {
            for step in [1, 3] {
                g.insert_iri(
                    &format!("http://e/n{i}"),
                    "http://v/knows",
                    &format!("http://e/n{}", (i + step) % 20),
                );
            }
        }
        g
    }

    const TWO_HOPS: &str =
        "PREFIX v: <http://v/> SELECT ?x ?z WHERE { ?x v:knows ?y . ?y v:knows ?z }";

    #[test]
    fn merge_join_matches_probe_loop() {
        let mut g = knows_ring();
        g.compact();
        let merged = run_with_opts(&g, &parse(TWO_HOPS).unwrap(), &ExecOptions::default()).unwrap();
        // the same BGP under a LIMIT that covers every row runs the
        // depth-first probe driver
        let limited = format!("{TWO_HOPS} LIMIT {}", merged.len());
        let probed = run_default(&g, &parse(&limited).unwrap()).unwrap();
        assert!(merged.stats.merge_joins > 0, "{:?}", merged.stats);
        assert_eq!(probed.stats.merge_joins, 0, "{:?}", probed.stats);
        assert_eq!(merged.vars, probed.vars);
        assert_eq!(merged.len(), 80);
        assert_eq!(merged.to_terms(), probed.to_terms());
    }

    #[test]
    fn merge_join_requires_compacted_graph() {
        // insert_iri builds through the delta overlay, so the graph is
        // uncompacted and the stage must fall back to probes
        let g = knows_ring();
        assert!(!g.is_compacted());
        let q = parse(TWO_HOPS).unwrap();
        let rs = run_default(&g, &q).unwrap();
        assert_eq!(rs.stats.merge_joins, 0, "{:?}", rs.stats);
        let mut compacted = knows_ring();
        compacted.compact();
        let merged = run_default(&compacted, &q).unwrap();
        assert!(merged.stats.merge_joins > 0, "{:?}", merged.stats);
        let sorted = |rs: &ResultSet| {
            let mut rows = rs.to_terms();
            rows.sort();
            rows
        };
        assert_eq!(sorted(&rs), sorted(&merged));
    }

    #[test]
    fn stats_count_executor_work() {
        let rs = run("PREFIX v: <http://v/> SELECT ?x WHERE { ?x v:knows ?y . ?y v:knows ?z }");
        assert_eq!(rs.stats.patterns_scanned, 2);
        assert!(rs.stats.index_probes >= 2, "{:?}", rs.stats);
        assert!(rs.stats.intermediate_bindings >= rs.len(), "{:?}", rs.stats);
        // an unknown predicate short-circuits before probing any index
        let empty = run("PREFIX v: <http://v/> SELECT ?x WHERE { ?x v:never ?y }");
        assert_eq!(empty.stats.index_probes, 0);
        assert_eq!(empty.stats.intermediate_bindings, 0);
    }

    #[test]
    fn row_limit_errors_on_materializing_shape() {
        // ORDER BY disables the row budget, so the violation must surface
        // as a typed error rather than a silently partial table
        let g = graph();
        let q = parse("SELECT ?x ?y WHERE { ?x ?p ?y } ORDER BY ?x").unwrap();
        let opts = ExecOptions::with_limits(ResourceLimits::unlimited().with_max_rows(2));
        match run_with_opts(&g, &q, &opts) {
            Err(QueryError::LimitExceeded { limit, observed }) => {
                assert_eq!(limit, resilience::Limit::Rows(2));
                assert!(observed > 2);
            }
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn row_budget_trips_within_one_fanout_on_a_wide_stage() {
        // 2,400 films, each starring one of 200 actors: the second stage
        // of the self-join takes 2,400 bindings and emits 12 rows for
        // each (28,800 in all). The budget must trip within one binding's
        // fan-out of `max_rows`, under the serving options, on either
        // stage method (probe loop on the delta, merge join compacted).
        let (films, actors) = (2_400, 200);
        let fanout = films / actors;
        let max_rows = 20_000;
        let mut g = Graph::new();
        for f in 0..films {
            g.insert_iri(
                &format!("http://e/film{f}"),
                "http://v/starring",
                &format!("http://e/actor{}", f % actors),
            );
        }
        let q = parse(
            "PREFIX v: <http://v/> SELECT ?f ?a ?f2 WHERE { ?f v:starring ?a . ?f2 v:starring ?a }",
        )
        .unwrap();
        let opts = ExecOptions::with_limits(ResourceLimits::unlimited().with_max_rows(max_rows));
        for compacted in [false, true] {
            if compacted {
                g.compact();
            }
            match run_with_opts(&g, &q, &opts) {
                Err(QueryError::LimitExceeded { limit, observed }) => {
                    assert_eq!(limit, resilience::Limit::Rows(max_rows));
                    assert!(
                        observed > max_rows && observed <= max_rows + fanout as u64,
                        "compacted {compacted}: observed {observed}"
                    );
                }
                other => panic!("expected LimitExceeded, got {other:?}"),
            }
        }
    }

    #[test]
    fn row_limit_truncates_limit_shape() {
        // a LIMIT query's prefix is meaningful, so the budget trims the
        // answer and flags it instead of failing
        let g = graph();
        let q = parse("SELECT ?x ?y WHERE { ?x ?p ?y . ?a ?q ?b } LIMIT 500").unwrap();
        let opts = ExecOptions::with_limits(ResourceLimits::unlimited().with_max_rows(3));
        let rs = run_with_opts(&g, &q, &opts).expect("truncated, not failed");
        assert!(rs.truncated);
        let v = rs.truncation.expect("reason recorded");
        assert_eq!(v.limit, resilience::Limit::Rows(3));
        assert!(rs.len() <= 4);
    }

    #[test]
    fn zero_wall_budget_is_deterministic_with_manual_clock() {
        // the deadline anchors at execution start, so a zero budget is the
        // deterministic way to exercise the expiry path: it is already
        // expired at the first check, regardless of host speed
        let g = graph();
        let clock = resilience::ManualClock::new();
        let mut opts = ExecOptions::with_limits(
            ResourceLimits::unlimited().with_wall(std::time::Duration::ZERO),
        );
        opts.clock = Some(resilience::Clock::Manual(clock.clone()));
        let q = parse("SELECT ?x WHERE { ?x ?p ?y } ORDER BY ?x").unwrap();
        match run_with_opts(&g, &q, &opts) {
            Err(QueryError::LimitExceeded { limit, observed }) => {
                assert_eq!(limit, resilience::Limit::WallMs(0));
                assert_eq!(observed, 0);
            }
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
        // a budgeted (ASK) shape degrades to a truncated result instead
        let ask = parse("ASK { ?x ?p ?y }").unwrap();
        let rs = run_with_opts(&g, &ask, &opts).expect("truncated, not failed");
        assert!(rs.truncated);
        assert_eq!(rs.truncation.unwrap().limit, resilience::Limit::WallMs(0));
    }

    #[test]
    fn cancel_token_stops_execution() {
        let g = graph();
        let cancel = resilience::CancelToken::new();
        let opts = ExecOptions {
            cancel: Some(cancel.clone()),
            ..Default::default()
        };
        cancel.cancel();
        let q = parse("SELECT ?x WHERE { ?x ?p ?y } ORDER BY ?x").unwrap();
        match run_with_opts(&g, &q, &opts) {
            Err(QueryError::LimitExceeded { limit, .. }) => {
                assert_eq!(limit, resilience::Limit::Cancelled);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn path_expansion_budget_trips_closure() {
        let g = graph();
        let q = parse("PREFIX v: <http://v/> SELECT ?x ?z WHERE { ?x v:knows+ ?z } ORDER BY ?x ?z")
            .unwrap();
        // the knows-chain closure needs several BFS expansions; budget 1
        // cannot cover it
        let opts =
            ExecOptions::with_limits(ResourceLimits::unlimited().with_max_path_expansions(1));
        match run_with_opts(&g, &q, &opts) {
            Err(QueryError::LimitExceeded { limit, .. }) => {
                assert_eq!(limit, resilience::Limit::PathExpansions(1));
            }
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
        // a generous budget leaves the answer untouched
        let opts =
            ExecOptions::with_limits(ResourceLimits::unlimited().with_max_path_expansions(10_000));
        let rs = run_with_opts(&g, &q, &opts).expect("within budget");
        assert!(!rs.truncated);
        assert_eq!(rs, run_default(&g, &q).unwrap());
    }

    #[test]
    fn limits_do_not_change_unconstrained_answers() {
        let g = graph();
        let generous = ExecOptions::with_limits(
            ResourceLimits::unlimited()
                .with_max_rows(1_000_000)
                .with_wall(std::time::Duration::from_secs(60))
                .with_max_path_expansions(1_000_000),
        );
        for q in [
            "PREFIX v: <http://v/> SELECT ?x ?y WHERE { ?x v:knows ?y } ORDER BY ?x",
            "PREFIX v: <http://v/> SELECT ?x WHERE { ?x a v:Person } LIMIT 1",
            "PREFIX e: <http://e/> PREFIX v: <http://v/> ASK { e:a v:knows e:b }",
        ] {
            let parsed = parse(q).unwrap();
            let limited = run_with_opts(&g, &parsed, &generous).expect("runs");
            assert!(!limited.truncated, "spurious truncation on {q}");
            assert_eq!(
                limited,
                run_default(&g, &parsed).unwrap(),
                "divergence on {q}"
            );
        }
    }

    #[test]
    fn agrees_with_reference_evaluator() {
        let g = graph();
        for q in [
            "PREFIX v: <http://v/> SELECT ?x ?y WHERE { ?x v:knows ?y . ?y v:knows ?z } ORDER BY ?x ?y",
            "PREFIX v: <http://v/> SELECT ?x ?n WHERE { ?x a v:Person OPTIONAL { ?x v:name ?n } } ORDER BY ?x",
            "PREFIX v: <http://v/> SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p",
            "PREFIX v: <http://v/> SELECT ?x WHERE { ?x v:age ?a FILTER(?a > 26) }",
            "PREFIX v: <http://v/> PREFIX e: <http://e/> SELECT ?z WHERE { e:a v:knows+ ?z } ORDER BY ?z",
            "PREFIX v: <http://v/> PREFIX e: <http://e/> SELECT ?y WHERE { VALUES ?x { e:a e:b } ?x v:knows ?y } ORDER BY ?y",
            "PREFIX v: <http://v/> SELECT ?x WHERE { { ?x a v:Person } UNION { ?x a v:Robot } FILTER(BOUND(?x)) } ORDER BY ?x",
            "PREFIX v: <http://v/> SELECT ?x ?n WHERE { ?x a v:Person OPTIONAL { ?x v:name ?n } FILTER(BOUND(?x)) } ORDER BY ?x",
        ] {
            let parsed = parse(q).expect("parses");
            let fast = run_default(&g, &parsed).expect("compiled runs");
            let slow = crate::reference::execute(&g, &parsed).expect("reference runs");
            assert_eq!(fast, slow, "divergence on {q}");
        }
    }

    #[test]
    fn values_binds_inline_data() {
        let rs = run("PREFIX v: <http://v/> PREFIX e: <http://e/> \
             SELECT ?y WHERE { VALUES ?x { e:a e:b } ?x v:knows ?y }");
        let mut got: Vec<&str> = rs.values("y").iter().filter_map(|t| t.as_iri()).collect();
        got.sort_unstable();
        assert_eq!(got, vec!["http://e/b", "http://e/c"]);
    }

    #[test]
    fn values_uninterned_terms_contribute_nothing() {
        // documented subset semantics: terms outside the pool are dropped
        let rs = run("PREFIX v: <http://v/> PREFIX e: <http://e/> \
             SELECT ?y WHERE { VALUES ?x { e:a <http://e/neverseen> } ?x v:knows ?y }");
        assert_eq!(rs.len(), 1);
        // all terms unknown: empty result, vars still projected
        let empty = run("PREFIX v: <http://v/> \
             SELECT ?y WHERE { VALUES ?x { <http://e/none> } ?x v:knows ?y }");
        assert!(empty.is_empty());
        assert_eq!(empty.vars, vec!["y"]);
    }

    #[test]
    fn values_acts_as_filter_on_bound_slot() {
        // the slot is already bound when VALUES runs (syntactically after
        // the triple): inline data restricts, not multiplies
        let rs = run("PREFIX v: <http://v/> PREFIX e: <http://e/> \
             SELECT ?x WHERE { ?x v:knows ?y VALUES ?x { e:a } }");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.first("x").and_then(|t| t.as_iri()), Some("http://e/a"));
    }

    #[test]
    fn live_span_records_one_execute_span_with_identical_results() {
        let g = graph();
        let q = parse("PREFIX v: <http://v/> SELECT ?x ?z WHERE { ?x v:knows ?y . ?y v:knows ?z }")
            .unwrap();
        let opts = ExecOptions::default();
        let plain = execute(&g, &q, &opts, &obs::Span::disabled()).unwrap();
        let (tracer, recorder) = obs::Tracer::in_memory();
        let root = tracer.span("answer");
        let traced = execute(&g, &q, &opts, &root).unwrap();
        root.finish();
        assert_eq!(traced, plain);
        let answer = recorder.take().pop().expect("root recorded");
        assert_eq!(answer.children.len(), 1, "one span per execution");
        let span = &answer.children[0];
        assert_eq!(span.name, "sparql.execute");
        assert_eq!(span.attr_u64("rows"), Some(plain.len() as u64));
        let reg = tracer.registry();
        assert_eq!(reg.counter("exec.queries"), 1);
        assert_eq!(reg.counter("exec.rows"), plain.len() as u64);
        for (name, value) in [
            ("patterns_scanned", plain.stats.patterns_scanned),
            ("index_probes", plain.stats.index_probes),
            ("intermediate_bindings", plain.stats.intermediate_bindings),
        ] {
            assert!(value > 0, "{name}");
            assert_eq!(span.attr_u64(name), Some(value as u64), "{name}");
            assert_eq!(reg.counter(&format!("exec.{name}")), value as u64, "{name}");
        }
    }

    #[test]
    fn compiled_query_reruns_with_fresh_bindings() {
        let g = graph();
        let q = parse("PREFIX v: <http://v/> SELECT ?y WHERE { ?x v:knows ?y }").unwrap();
        let compiled = compile_query_with_params(&g, &q, &["x"]);
        let slot = compiled.var_slot("x").expect("param interned");
        let run = |sym| {
            let (opts, off) = (ExecOptions::default(), obs::Span::disabled());
            execute_compiled(&g, &compiled, &opts, &[(slot, sym)], &off).unwrap()
        };
        let ra = run(g.pool().get(&Term::iri("http://e/a")));
        let rb = run(g.pool().get(&Term::iri("http://e/b")));
        assert_eq!(ra.first("y").and_then(|t| t.as_iri()), Some("http://e/b"));
        assert_eq!(rb.first("y").and_then(|t| t.as_iri()), Some("http://e/c"));
        // an un-interned binding term runs over zero input rows
        let rn = run(None);
        assert!(rn.is_empty());
        assert_eq!(rn.vars, vec!["y"]);
    }

    #[test]
    fn distinct_shortcircuit_respects_offset_and_limit() {
        let mut g = Graph::new();
        for i in 0..50 {
            g.insert_iri(
                &format!("http://e/s{i}"),
                "http://v/p",
                &format!("http://e/o{}", i % 10),
            );
        }
        let all = "SELECT DISTINCT ?o WHERE { ?s <http://v/p> ?o }";
        let sliced = run_default(&g, &parse(&format!("{all} OFFSET 2 LIMIT 3")).unwrap()).unwrap();
        let every = run_default(&g, &parse(all).unwrap()).unwrap();
        assert_eq!(every.len(), 10);
        assert_eq!(sliced.to_terms(), every.to_terms()[2..5].to_vec());
    }

    #[test]
    fn distinct_shortcircuit_ineligible_shapes_still_agree() {
        let g = graph();
        // composite path / predicate variable: DISTINCT keeps the first
        // occurrence of each row of the same query without DISTINCT
        for q in [
            "PREFIX v: <http://v/> PREFIX e: <http://e/> SELECT DISTINCT ?z WHERE { e:a v:knows+ ?z }",
            "SELECT DISTINCT ?p WHERE { ?s ?p ?o }",
        ] {
            let distinct = run_default(&g, &parse(q).unwrap()).unwrap();
            let all = run_default(&g, &parse(&q.replace("DISTINCT ", "")).unwrap()).unwrap();
            let mut first: Vec<Vec<Option<Term>>> = Vec::new();
            for row in all.to_terms() {
                if !first.contains(&row) {
                    first.push(row);
                }
            }
            assert_eq!(distinct.to_terms(), first, "divergence on {q}");
        }
    }

    #[test]
    fn exec_stats_are_pinned_per_route() {
        // Every work counter of every evaluation route, pinned exactly
        // (`DISTINCT` takes the staged route, as an unlimited query does).
        // Counters: patterns_scanned, index_probes, intermediate_bindings,
        // path_cache_hits, merge_joins.
        let mut synth = kg::synth::movies(
            11,
            kg::synth::Scale {
                entities_per_class: 30,
            },
        )
        .graph;
        synth.compact();
        let mut looped = graph();
        looped.insert_iri("http://e/loop", "http://v/knows", "http://e/loop");
        let seq = ExecOptions::default();
        let capped = ExecOptions::with_limits(ResourceLimits::unlimited().with_max_rows(3));
        let e = "PREFIX v: <http://v/> PREFIX e: <http://e/> ";
        let v = "PREFIX v: <http://llmkg.dev/vocab/> ";
        let join = format!("{v}SELECT ?a ?d WHERE {{ ?f v:starring ?a . ?f v:directedBy ?d }}");
        let knows_self = format!("{e}SELECT ?x WHERE {{ ?x v:knows ?x . ?x ?p ?o }}");
        let cases = [
            (
                "probe loop",
                fixture(),
                format!("{e}SELECT ?x ?z WHERE {{ ?x v:knows ?y . ?y v:knows ?z }}"),
                &seq,
                2,
                [2, 4, 5, 0, 0],
            ),
            (
                "merge stage",
                &synth,
                format!("{v}SELECT ?g ?a WHERE {{ ?f v:hasGenre ?g . ?f v:starring ?a }}"),
                &seq,
                130,
                [2, 31, 171, 0, 1],
            ),
            (
                "limit dfs",
                &synth,
                format!("{join} LIMIT 7"),
                &seq,
                7,
                [2, 4, 10, 0, 0],
            ),
            (
                "ask",
                &synth,
                format!("{v}ASK {{ ?f v:starring ?a . ?f v:directedBy ?d }}"),
                &seq,
                0,
                [2, 2, 2, 0, 0],
            ),
            (
                "optional",
                fixture(),
                format!("{e}SELECT ?x ?n WHERE {{ ?x a v:Person OPTIONAL {{ ?x v:name ?n }} }}"),
                &seq,
                2,
                [3, 3, 3, 0, 0],
            ),
            (
                "union",
                fixture(),
                format!("{e}SELECT ?x WHERE {{ {{ ?x a v:Person }} UNION {{ ?x a v:Robot }} }}"),
                &seq,
                3,
                [2, 2, 3, 0, 0],
            ),
            (
                "values",
                fixture(),
                format!("{e}SELECT ?y WHERE {{ VALUES ?x {{ e:a e:b }} ?x v:knows ?y }}"),
                &seq,
                2,
                [1, 2, 4, 0, 0],
            ),
            (
                "filter",
                fixture(),
                format!("{e}SELECT ?x WHERE {{ ?x v:age ?a FILTER(?a > 26) }}"),
                &seq,
                1,
                [1, 1, 2, 0, 0],
            ),
            (
                "composite path",
                &synth,
                format!("{v}SELECT ?f ?x WHERE {{ ?f v:directedBy ?d . ?d v:spouse* ?x }}"),
                &seq,
                36,
                [2, 31, 66, 20, 0],
            ),
            (
                "predicate variable",
                fixture(),
                format!("{e}SELECT ?p ?o WHERE {{ e:a ?p ?o }}"),
                &seq,
                4,
                [1, 1, 4, 0, 0],
            ),
            (
                "?x p ?x",
                &looped,
                knows_self.clone(),
                &seq,
                1,
                [2, 2, 2, 0, 0],
            ),
            (
                "?x p ?x, limit",
                &looped,
                format!("{knows_self} LIMIT 2"),
                &seq,
                1,
                [2, 2, 2, 0, 0],
            ),
            (
                "truncated limit",
                fixture(),
                "SELECT ?x ?y WHERE { ?x ?p ?y . ?a ?q ?b } LIMIT 500".to_string(),
                &capped,
                2,
                [2, 2, 4, 0, 0],
            ),
            (
                "distinct",
                &synth,
                format!("{v}SELECT DISTINCT ?g WHERE {{ ?f v:hasGenre ?g . ?f v:starring ?a }}"),
                &seq,
                7,
                [2, 31, 171, 0, 1],
            ),
            (
                "distinct, sliced",
                &synth,
                format!(
                    "{v}SELECT DISTINCT ?d WHERE {{ ?f v:hasGenre ?g . ?f v:directedBy ?d }} \
                     OFFSET 1 LIMIT 3"
                ),
                &seq,
                3,
                [2, 31, 71, 0, 1],
            ),
        ];
        for (route, g, q, opts, rows, want) in cases {
            let rs = run_with_opts(g, &parse(&q).expect("parses"), opts).expect("runs");
            let s = rs.stats;
            let got = [
                s.patterns_scanned,
                s.index_probes,
                s.intermediate_bindings,
                s.path_cache_hits,
                s.merge_joins,
            ];
            assert_eq!((rs.len(), got), (rows, want), "{route}: {q}");
            assert_eq!(rs.truncated, route == "truncated limit", "{route}");
        }
    }
}
