//! # kgquery — declarative query substrate (SPARQL subset + Cypher-lite)
//!
//! The survey's LLM-KG cooperation tasks (text-to-SPARQL, querying LLMs
//! with SPARQL, KGQA) need an actual query engine to execute against. This
//! crate provides one, built DataFusion-style as parser → algebra →
//! optimizer → volcano executor:
//!
//! * [`parser`] — a recursive-descent parser for a practical SPARQL subset:
//!   `PREFIX`, `SELECT [DISTINCT]` / `ASK`, basic graph patterns, `FILTER`,
//!   `OPTIONAL`, `UNION`, property paths (`p/q`, `p|q`, `^p`, `p+`, `p*`),
//!   `ORDER BY`, `LIMIT` / `OFFSET`;
//! * [`algebra`] — the logical plan plus a greedy selectivity-driven
//!   reordering of triple patterns (cheapest-first with bound-variable
//!   propagation);
//! * [`exec`] — the compiled slot-based executor: variables are interned
//!   into slots, each BGP is join-ordered once using the per-predicate
//!   cardinality histograms [`kg::Graph`] maintains, and evaluation
//!   threads flat `Vec<Option<Sym>>` bindings over the graph. ORDER-BY-free
//!   `LIMIT` queries stream (stop after the budgeted number of rows),
//!   transitive path operators are BFS-evaluated through a per-query memo
//!   table, and work counters surface as [`ExecStats`] on every result.
//!   See `docs/query-executor.md` for the architecture;
//! * [`prepared`] — prepared queries (parse + compile + join-order once,
//!   run many times with fresh bindings) and the [`PlanCache`] keyed on
//!   normalized query text, invalidated on the graph's statistics epoch;
//! * [`mod@reference`] — the seed map-based evaluator, kept as the
//!   differential-testing oracle and benchmark baseline;
//! * [`cypher`] — a Cypher-lite front-end (`MATCH … WHERE … RETURN`)
//!   compiled onto the same algebra, covering the survey's "SPARQL or
//!   Cypher" framing of query generation;
//! * [`results`] — a tabular result set with deterministic ordering.

#![warn(missing_docs)]

pub mod algebra;
pub mod ast;
pub mod cypher;
pub mod error;
pub mod exec;
pub mod parser;
pub mod prepared;
pub mod reference;
pub mod results;

pub use ast::{Query, QueryKind};
pub use error::QueryError;
pub use prepared::{CacheOutcome, PlanCache, PlanCacheStats, PreparedQuery};
pub use results::{ExecStats, ResultSet};

use kg::Graph;

/// Parse and execute a SPARQL query with explicit [`exec::ExecOptions`]
/// (resource limits, cancellation, evaluation knobs). To record the run
/// on an observability span, parse and call [`exec::execute`].
pub fn execute_sparql_with<'g>(
    graph: &'g Graph,
    query: &str,
    opts: &exec::ExecOptions,
) -> Result<ResultSet<'g>, QueryError> {
    exec::execute(graph, &parser::parse(query)?, opts, &obs::Span::disabled())
}
