//! Tabular query results.

use std::fmt;

use kg::{Sym, Term, TermPool};

/// Counters describing how much work one query execution performed.
///
/// Populated by the compiled executor ([`crate::exec`]) and exposed on
/// every [`ResultSet`] so callers can profile queries without a separate
/// EXPLAIN surface. All counters are zero for results not produced by an
/// executor (e.g. hand-built tables).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Pattern-evaluation stages run (one per triple pattern per BGP
    /// pass; a BGP re-entered under `OPTIONAL`/`UNION` counts again).
    pub patterns_scanned: usize,
    /// Index lookups issued against the graph (`match_pattern` calls and
    /// property-path evaluations).
    pub index_probes: usize,
    /// Intermediate bindings produced across all BGP stages — the size of
    /// the join frontier the executor actually materialized.
    pub intermediate_bindings: usize,
    /// Property-path memo-table hits: evaluations of a `(path, endpoints)`
    /// pair answered from the per-query cache instead of recomputed.
    pub path_cache_hits: usize,
    /// BGP extension stages evaluated as sorted-merge joins against a
    /// compacted graph's predicate index instead of per-binding probes
    /// (an eligible stage of at least 16 bindings; see
    /// `docs/query-executor.md`). Each merged stage counts its *distinct*
    /// join keys under [`ExecStats::index_probes`], so probe counts can
    /// differ from the depth-first run of the same query.
    pub merge_joins: usize,
}

impl ExecStats {
    /// Record these work counters on an observability span and in its
    /// tracer's counter registry — the adapter between the executor's
    /// typed counters and the `obs` substrate.
    ///
    /// Span attributes accumulate ([`obs::Span::add`]), so several query
    /// executions under one span report their combined work; the registry
    /// counters use the `exec.*` names catalogued in
    /// `docs/observability.md`. A disabled span makes this free.
    pub fn record_into(&self, span: &obs::Span) {
        if !span.enabled() {
            return;
        }
        for (name, value) in [
            ("patterns_scanned", self.patterns_scanned),
            ("index_probes", self.index_probes),
            ("intermediate_bindings", self.intermediate_bindings),
            ("path_cache_hits", self.path_cache_hits),
            ("merge_joins", self.merge_joins),
        ] {
            span.add(name, value as u64);
            span.count(&format!("exec.{name}"), value as u64);
        }
    }

    /// Accumulate another set of counters into `self`, e.g. to total the
    /// work of several queries.
    pub fn merge(&mut self, other: &ExecStats) {
        self.patterns_scanned += other.patterns_scanned;
        self.index_probes += other.index_probes;
        self.intermediate_bindings += other.intermediate_bindings;
        self.path_cache_hits += other.path_cache_hits;
        self.merge_joins += other.merge_joins;
    }
}

/// One result cell: unbound, a term interned in the graph's pool, or an
/// index into the result's own term list (terms the pool does not hold:
/// `COUNT` values and the rows given to [`ResultSet::select`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Cell {
    Unbound,
    Pooled(Sym),
    Owned(u32),
}

impl From<Option<Sym>> for Cell {
    fn from(sym: Option<Sym>) -> Cell {
        sym.map_or(Cell::Unbound, Cell::Pooled)
    }
}

impl Cell {
    /// Append `term` to a result's owned term list and return its cell.
    pub(crate) fn own(owned: &mut Vec<Term>, term: Term) -> Cell {
        owned.push(term);
        Cell::Owned(u32::try_from(owned.len() - 1).expect("owned term count fits u32"))
    }
}

/// Where a result's cells resolve: the graph's term pool for pooled
/// cells, the result's own list for owned ones.
#[derive(Clone, Copy)]
pub(crate) struct Terms<'a> {
    pub(crate) pool: Option<&'a TermPool>,
    pub(crate) owned: &'a [Term],
}

impl<'a> Terms<'a> {
    pub(crate) fn resolve(self, cell: Cell) -> Option<&'a Term> {
        match cell {
            Cell::Unbound => None,
            Cell::Pooled(sym) => Some(
                self.pool
                    .expect("a pooled cell comes with its pool")
                    .resolve(sym),
            ),
            Cell::Owned(i) => Some(&self.owned[i as usize]),
        }
    }
}

/// The result of executing a query: either an ASK boolean or a table of
/// variable bindings (cells are unbound when a variable is unbound in a
/// row, e.g. under `OPTIONAL`).
///
/// Rows are stored as one flat vector of interned cells, `len ×
/// vars.len()`, that borrow the graph's term pool: a term is resolved
/// only when a caller reads it ([`ResultSet::get`], [`ResultSet::rows`]
/// and the accessors built on them), so a caller that reads five rows of
/// a ten-thousand-row answer resolves five rows.
#[derive(Clone)]
pub struct ResultSet<'g> {
    /// Projected variable names (empty for ASK).
    pub vars: Vec<String>,
    /// For ASK queries: the boolean answer.
    pub ask: Option<bool>,
    /// Work counters from the execution that produced this result.
    pub stats: ExecStats,
    /// True when a resource budget cut evaluation short and the rows are a
    /// (deterministic-prefix) subset of the full answer. Only set for query
    /// shapes where partial output is meaningful (`LIMIT`-style SELECTs and
    /// ASK); other shapes fail with `QueryError::LimitExceeded` instead.
    pub truncated: bool,
    /// Which budget caused the truncation, when [`ResultSet::truncated`].
    pub truncation: Option<resilience::LimitViolation>,
    /// Row count (kept apart from `cells`, which is empty when no
    /// variable is projected).
    len: usize,
    /// `len` rows of `vars.len()` cells, row-major.
    cells: Vec<Cell>,
    pool: Option<&'g TermPool>,
    owned: Vec<Term>,
}

/// Equality compares resolved terms and ignores [`ResultSet::stats`]: two
/// result sets are equal when they hold the same answer, regardless of
/// how much work produced it or whether a term is pooled or owned (so
/// differential tests can compare executors directly). Truncation *is*
/// part of the answer, so it participates in equality.
impl<'b> PartialEq<ResultSet<'b>> for ResultSet<'_> {
    fn eq(&self, other: &ResultSet<'b>) -> bool {
        self.vars == other.vars
            && self.ask == other.ask
            && self.truncated == other.truncated
            && self.len == other.len
            && self
                .rows()
                .zip(other.rows())
                .all(|(a, b)| a.iter().eq(b.iter()))
    }
}

/// Prints resolved rows, never the pool.
impl fmt::Debug for ResultSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultSet")
            .field("vars", &self.vars)
            .field("rows", &self.rows().collect::<Vec<_>>())
            .field("ask", &self.ask)
            .field("stats", &self.stats)
            .field("truncated", &self.truncated)
            .field("truncation", &self.truncation)
            .finish()
    }
}

/// One row of a [`ResultSet`], resolving its cells on read.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    cells: &'a [Cell],
    terms: Terms<'a>,
}

impl<'a> Row<'a> {
    /// The term in column `col`; `None` when unbound or out of range.
    pub fn get(&self, col: usize) -> Option<&'a Term> {
        self.terms.resolve(*self.cells.get(col)?)
    }

    /// The row's cells in column order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&'a Term>> + 'a {
        let terms = self.terms;
        self.cells.iter().map(move |&c| terms.resolve(c))
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'g> ResultSet<'g> {
    fn empty(vars: Vec<String>, ask: Option<bool>) -> Self {
        ResultSet {
            vars,
            ask,
            stats: ExecStats::default(),
            truncated: false,
            truncation: None,
            len: 0,
            cells: Vec::new(),
            pool: None,
            owned: Vec::new(),
        }
    }

    /// An ASK result.
    pub fn ask(value: bool) -> Self {
        Self::empty(Vec::new(), Some(value))
    }

    /// A SELECT result from owned rows, each aligned with `vars`.
    ///
    /// # Panics
    ///
    /// When a row's width differs from `vars.len()`.
    pub fn select(vars: Vec<String>, rows: Vec<Vec<Option<Term>>>) -> Self {
        let mut rs = Self::empty(vars, None);
        rs.len = rows.len();
        for row in rows {
            assert_eq!(row.len(), rs.vars.len(), "row width must match vars");
            for term in row {
                let cell = match term {
                    Some(t) => Cell::own(&mut rs.owned, t),
                    None => Cell::Unbound,
                };
                rs.cells.push(cell);
            }
        }
        rs
    }

    /// A SELECT result over interned cells: `len` rows of `vars.len()`
    /// cells, pooled cells resolving through `pool`, owned ones indexing
    /// `owned`.
    pub(crate) fn interned(
        vars: Vec<String>,
        pool: &'g TermPool,
        len: usize,
        cells: Vec<Cell>,
        owned: Vec<Term>,
    ) -> Self {
        debug_assert_eq!(cells.len(), len * vars.len());
        ResultSet {
            len,
            cells,
            pool: Some(pool),
            owned,
            ..Self::empty(vars, None)
        }
    }

    /// Attach execution statistics.
    pub fn with_stats(mut self, stats: ExecStats) -> Self {
        self.stats = stats;
        self
    }

    /// Mark this result as truncated by the given budget violation.
    pub fn with_truncation(mut self, violation: resilience::LimitViolation) -> Self {
        self.truncated = true;
        self.truncation = Some(violation);
        self
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows (ASK results count as empty tables).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn terms(&self) -> Terms<'_> {
        Terms {
            pool: self.pool,
            owned: &self.owned,
        }
    }

    /// The term at (`row`, `col`); `None` when unbound or out of range.
    pub fn get(&self, row: usize, col: usize) -> Option<&Term> {
        let width = self.vars.len();
        if row >= self.len || col >= width {
            return None;
        }
        self.terms().resolve(self.cells[row * width + col])
    }

    /// The rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> + '_ {
        let width = self.vars.len();
        let terms = self.terms();
        (0..self.len).map(move |r| Row {
            cells: &self.cells[r * width..(r + 1) * width],
            terms,
        })
    }

    /// An owned copy of every row, each cell resolved.
    pub fn to_terms(&self) -> Vec<Vec<Option<Term>>> {
        self.rows()
            .map(|row| row.iter().map(|t| t.cloned()).collect())
            .collect()
    }

    /// The column index of a variable.
    pub fn column(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// Iterate the values of one variable across rows (skipping unbound).
    pub fn values(&self, var: &str) -> Vec<&Term> {
        match self.column(var) {
            Some(i) => self.rows().filter_map(|r| r.get(i)).collect(),
            None => Vec::new(),
        }
    }

    /// First value of a variable, if any row binds it.
    pub fn first(&self, var: &str) -> Option<&Term> {
        let i = self.column(var)?;
        self.rows().find_map(|r| r.get(i))
    }

    /// Render as a simple aligned text table (for examples and debugging).
    pub fn to_table(&self) -> String {
        if let Some(b) = self.ask {
            return format!("ASK → {b}\n");
        }
        let mut widths: Vec<usize> = self.vars.iter().map(|v| v.len() + 1).collect();
        let cells: Vec<Vec<String>> = self
            .rows()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let s = c.map(term_short).unwrap_or_default();
                        widths[i] = widths[i].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        for (i, v) in self.vars.iter().enumerate() {
            out.push_str(&format!("{:width$}  ", format!("?{v}"), width = widths[i]));
        }
        out.push('\n');
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:width$}  ", c, width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

fn term_short(t: &Term) -> String {
    match t {
        Term::Iri(i) => kg::namespace::local_name(i).to_string(),
        Term::Literal(l) => l.lexical.clone(),
        Term::Blank(b) => format!("_:{b}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_accessors() {
        let rs = ResultSet::select(
            vec!["x".into(), "y".into()],
            vec![
                vec![Some(Term::iri("http://e/a")), Some(Term::int(1))],
                vec![Some(Term::iri("http://e/b")), None],
            ],
        );
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.column("y"), Some(1));
        assert_eq!(rs.values("y").len(), 1);
        assert_eq!(rs.first("x"), Some(&Term::iri("http://e/a")));
        assert!(rs.first("z").is_none());
    }

    #[test]
    fn ask_renders() {
        let rs = ResultSet::ask(true);
        assert_eq!(rs.ask, Some(true));
        assert!(rs.to_table().contains("true"));
    }

    #[test]
    fn equality_ignores_stats() {
        let a = ResultSet::select(vec!["x".into()], vec![vec![Some(Term::int(1))]]);
        let b = a.clone().with_stats(ExecStats {
            patterns_scanned: 3,
            index_probes: 7,
            intermediate_bindings: 9,
            path_cache_hits: 2,
            merge_joins: 1,
        });
        assert_eq!(a, b);
        assert_ne!(a.stats, b.stats);
    }

    #[test]
    fn stats_merge_sums_all_counters() {
        let mut a = ExecStats {
            patterns_scanned: 1,
            index_probes: 2,
            intermediate_bindings: 3,
            path_cache_hits: 4,
            merge_joins: 6,
        };
        a.merge(&ExecStats {
            patterns_scanned: 10,
            index_probes: 20,
            intermediate_bindings: 30,
            path_cache_hits: 40,
            merge_joins: 60,
        });
        assert_eq!(
            a,
            ExecStats {
                patterns_scanned: 11,
                index_probes: 22,
                intermediate_bindings: 33,
                path_cache_hits: 44,
                merge_joins: 66,
            }
        );
    }

    #[test]
    fn truncation_participates_in_equality() {
        let a = ResultSet::select(vec!["x".into()], vec![vec![Some(Term::int(1))]]);
        let b = a.clone().with_truncation(resilience::LimitViolation {
            limit: resilience::Limit::Rows(1),
            observed: 2,
        });
        assert!(b.truncated);
        assert_eq!(b.truncation.unwrap().limit, resilience::Limit::Rows(1));
        assert_ne!(a, b);
    }

    /// A pool holding `http://e/a`, `http://e/b` and the integer 1.
    fn pool() -> TermPool {
        let mut pool = TermPool::new();
        for t in [
            Term::iri("http://e/a"),
            Term::iri("http://e/b"),
            Term::int(1),
        ] {
            pool.intern(t);
        }
        pool
    }

    fn owned_rows() -> Vec<Vec<Option<Term>>> {
        vec![
            vec![Some(Term::iri("http://e/a")), Some(Term::int(1))],
            vec![Some(Term::iri("http://e/b")), None],
        ]
    }

    /// The rows of [`owned_rows`] as pooled cells.
    fn pooled(pool: &TermPool) -> ResultSet<'_> {
        let sym = |t: Term| Cell::Pooled(pool.get(&t).unwrap());
        let cells = vec![
            sym(Term::iri("http://e/a")),
            sym(Term::int(1)),
            sym(Term::iri("http://e/b")),
            Cell::Unbound,
        ];
        ResultSet::interned(vec!["x".into(), "y".into()], pool, 2, cells, Vec::new())
    }

    #[test]
    fn pooled_and_owned_cells_compare_and_render_alike() {
        let pool = pool();
        let pooled = pooled(&pool);
        let owned = ResultSet::select(vec!["x".into(), "y".into()], owned_rows());
        assert_eq!(pooled, owned);
        assert_eq!(owned, pooled);
        assert_eq!(pooled.to_table(), owned.to_table());
        assert_eq!(format!("{pooled:?}"), format!("{owned:?}"));
        assert_eq!(pooled.to_terms(), owned_rows());
        // one differing cell breaks equality
        let mut rows = owned_rows();
        rows[1][1] = Some(Term::int(1));
        assert_ne!(
            pooled,
            ResultSet::select(vec!["x".into(), "y".into()], rows)
        );
    }

    #[test]
    fn accessors_read_pooled_cells() {
        let pool = pool();
        let rs = pooled(&pool);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.get(0, 0), Some(&Term::iri("http://e/a")));
        assert_eq!(rs.get(0, 1), Some(&Term::int(1)));
        assert_eq!(rs.get(1, 1), None, "unbound");
        assert_eq!(rs.get(2, 0), None, "row out of range");
        assert_eq!(rs.get(0, 2), None, "column out of range");
        assert_eq!(rs.values("x").len(), 2);
        assert_eq!(rs.values("y"), vec![&Term::int(1)]);
        assert_eq!(rs.first("y"), Some(&Term::int(1)));
        assert!(rs.first("z").is_none());
        let second = rs.rows().nth(1).unwrap();
        assert_eq!(second.get(0), Some(&Term::iri("http://e/b")));
        assert_eq!(
            second.iter().collect::<Vec<_>>(),
            vec![Some(&Term::iri("http://e/b")), None]
        );
    }

    #[test]
    fn count_group_by_mixes_pooled_keys_with_owned_counts() {
        let g = kg::turtle::parse_turtle(
            "@prefix e: <http://e/> . @prefix v: <http://v/> .
             e:a v:knows e:b . e:b v:knows e:c . e:a v:age 30 .",
        )
        .unwrap();
        let rs = crate::execute_sparql_with(
            &g,
            "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n)",
            &crate::exec::ExecOptions::default(),
        )
        .unwrap();
        // group keys stay pooled; the counts are terms the pool lacks
        assert!(rs
            .cells
            .chunks(2)
            .all(|c| matches!(c, [Cell::Pooled(_), Cell::Owned(_)])));
        let row = |p: &str, n: i64| vec![Some(Term::iri(p)), Some(Term::int(n))];
        let expected = vec![row("http://v/knows", 2), row("http://v/age", 1)];
        assert_eq!(rs.to_terms(), expected);
        assert_eq!(rs, ResultSet::select(rs.vars.clone(), expected));
    }

    #[test]
    fn table_renders_header_and_rows() {
        let rs = ResultSet::select(
            vec!["x".into()],
            vec![vec![Some(Term::iri("http://e/alpha"))]],
        );
        let t = rs.to_table();
        assert!(t.contains("?x"));
        assert!(t.contains("alpha"));
    }
}
