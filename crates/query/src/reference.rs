//! The seed map-based evaluator, preserved as a differential-testing
//! oracle and benchmarking baseline for the compiled executor in
//! [`crate::exec`].
//!
//! Bindings here are ordered maps `variable → Sym`, and each BGP re-runs
//! the greedy join ordering for every input binding — exactly the shape
//! the slot-based rewrite replaced. Property-path evaluation and term
//! comparison are shared with [`crate::exec`], so the two executors can
//! only diverge in the parts that were actually rewritten.

use std::collections::{BTreeMap, BTreeSet};

use kg::store::TriplePattern;
use kg::term::{Sym, Term};
use kg::Graph;

use crate::algebra::{compile, Plan};
use crate::ast::{Expr, NodeRef, Order, PropPath, Query, QueryKind, TriplePatternAst};
use crate::error::QueryError;
use crate::exec::{compare_terms, eval_path};
use crate::results::ResultSet;

/// A solution mapping.
pub type Binding = BTreeMap<String, Sym>;

/// Execute a parsed query against a graph (reference semantics).
pub fn execute(graph: &Graph, query: &Query) -> Result<ResultSet<'static>, QueryError> {
    let plan = compile(&query.pattern);
    let mut solutions = eval(graph, &plan, vec![Binding::new()])?;

    match &query.kind {
        QueryKind::Ask => Ok(ResultSet::ask(!solutions.is_empty())),
        QueryKind::Select { vars, distinct } => {
            if let Some(agg) = &query.aggregate {
                return aggregate(graph, query, agg, vars, solutions);
            }
            let bound = query.pattern.bound_vars();
            let projected: Vec<String> = if vars.is_empty() {
                bound.clone()
            } else {
                for v in vars {
                    if !bound.contains(v) {
                        return Err(QueryError::UnboundVariable(v.clone()));
                    }
                }
                vars.clone()
            };
            // ORDER BY
            for (v, _) in &query.order_by {
                if !bound.contains(v) {
                    return Err(QueryError::UnboundVariable(v.clone()));
                }
            }
            if !query.order_by.is_empty() {
                let keys = query.order_by.clone();
                solutions.sort_by(|a, b| {
                    for (v, dir) in &keys {
                        let ta = a.get(v).map(|&s| graph.resolve(s));
                        let tb = b.get(v).map(|&s| graph.resolve(s));
                        let ord = compare_terms(ta, tb);
                        let ord = match dir {
                            Order::Asc => ord,
                            Order::Desc => ord.reverse(),
                        };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
            }
            let mut rows: Vec<Vec<Option<Term>>> = solutions
                .iter()
                .map(|b| {
                    projected
                        .iter()
                        .map(|v| b.get(v).map(|&s| graph.resolve(s).clone()))
                        .collect()
                })
                .collect();
            if *distinct {
                let mut seen: BTreeSet<Vec<Option<Term>>> = BTreeSet::new();
                rows.retain(|r| seen.insert(r.clone()));
            }
            let end = query
                .limit
                .map(|l| (query.offset + l).min(rows.len()))
                .unwrap_or(rows.len());
            let start = query.offset.min(rows.len());
            let rows = rows[start..end.max(start)].to_vec();
            Ok(ResultSet::select(projected, rows))
        }
    }
}

/// Evaluate a `COUNT` aggregate with optional `GROUP BY`.
fn aggregate(
    graph: &Graph,
    query: &Query,
    agg: &crate::ast::CountAgg,
    projected: &[String],
    solutions: Vec<Binding>,
) -> Result<ResultSet<'static>, QueryError> {
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
    // group solutions by the GROUP BY key
    let mut groups: BTreeMap<Vec<Option<Sym>>, Vec<&Binding>> = BTreeMap::new();
    for b in &solutions {
        let key: Vec<Option<Sym>> = query.group_by.iter().map(|v| b.get(v).copied()).collect();
        groups.entry(key).or_default().push(b);
    }
    if query.group_by.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), Vec::new()); // COUNT over zero solutions = 0
    }
    let mut rows: Vec<Vec<Option<Term>>> = Vec::new();
    for (key, members) in &groups {
        let count = match &agg.var {
            None => members.len(),
            Some(v) => {
                let mut values: Vec<Sym> =
                    members.iter().filter_map(|b| b.get(v).copied()).collect();
                if agg.distinct {
                    values.sort_unstable();
                    values.dedup();
                }
                values.len()
            }
        };
        let row: Vec<Option<Term>> = projected
            .iter()
            .map(|v| {
                if *v == agg.alias {
                    Some(Term::int(count as i64))
                } else {
                    let idx = query.group_by.iter().position(|g| g == v)?;
                    key[idx].map(|s| graph.resolve(s).clone())
                }
            })
            .collect();
        rows.push(row);
    }
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
        rows.sort_by(|a, b| {
            for &(i, dir) in &keys {
                let ord = compare_terms(a[i].as_ref(), b[i].as_ref());
                let ord = match dir {
                    Order::Asc => ord,
                    Order::Desc => ord.reverse(),
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let end = query
        .limit
        .map(|l| (query.offset + l).min(rows.len()))
        .unwrap_or(rows.len());
    let start = query.offset.min(rows.len());
    Ok(ResultSet::select(
        projected.to_vec(),
        rows[start..end.max(start)].to_vec(),
    ))
}

fn eval(graph: &Graph, plan: &Plan, input: Vec<Binding>) -> Result<Vec<Binding>, QueryError> {
    match plan {
        Plan::Unit => Ok(input),
        Plan::Bgp(patterns) => eval_bgp(graph, patterns, input),
        Plan::Sequence(parts) => {
            let mut acc = input;
            for p in parts {
                acc = eval(graph, p, acc)?;
                if acc.is_empty() {
                    break;
                }
            }
            Ok(acc)
        }
        Plan::LeftJoin(left, right) => {
            let lefts = eval(graph, left, input)?;
            let mut out = Vec::new();
            for b in lefts {
                let rs = eval(graph, right, vec![b.clone()])?;
                if rs.is_empty() {
                    out.push(b);
                } else {
                    out.extend(rs);
                }
            }
            Ok(out)
        }
        Plan::Union(l, r) => {
            let mut out = eval(graph, l, input.clone())?;
            out.extend(eval(graph, r, input)?);
            Ok(out)
        }
        Plan::Filter(e, inner) => {
            let sols = eval(graph, inner, input)?;
            let mut out = Vec::new();
            for b in sols {
                if eval_expr(graph, e, &b)?.unwrap_or(false) {
                    out.push(b);
                }
            }
            Ok(out)
        }
        Plan::Values(var, terms) => {
            // Subset semantics (mirrored by the compiled executor, which
            // cannot represent un-interned terms as Syms): only terms
            // present in the graph's pool contribute solutions.
            let syms: Vec<Sym> = terms.iter().filter_map(|t| graph.pool().get(t)).collect();
            let mut out = Vec::new();
            for b in input {
                match b.get(var) {
                    Some(existing) => {
                        if syms.contains(existing) {
                            out.push(b);
                        }
                    }
                    None => {
                        for &s in &syms {
                            let mut nb = b.clone();
                            nb.insert(var.clone(), s);
                            out.push(nb);
                        }
                    }
                }
            }
            Ok(out)
        }
    }
}

/// Greedy join ordering + nested-loop evaluation of a BGP — note the
/// ordering runs again for **every** input binding (the hot-path cost the
/// compiled executor removes).
fn eval_bgp(
    graph: &Graph,
    patterns: &[TriplePatternAst],
    input: Vec<Binding>,
) -> Result<Vec<Binding>, QueryError> {
    let mut out = Vec::new();
    for binding in input {
        // order patterns greedily per input binding
        let mut remaining: Vec<&TriplePatternAst> = patterns.iter().collect();
        let mut bound: BTreeSet<String> = binding.keys().cloned().collect();
        let mut ordered: Vec<&TriplePatternAst> = Vec::new();
        while !remaining.is_empty() {
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, t)| (i, estimate_pattern(graph, t, &bound)))
                .min_by_key(|&(_, est)| est)
                .expect("non-empty remaining");
            let chosen = remaining.remove(idx);
            for v in pattern_vars(chosen) {
                bound.insert(v);
            }
            ordered.push(chosen);
        }
        // nested-loop evaluation
        let mut current = vec![binding];
        for pat in ordered {
            let mut next = Vec::new();
            for b in &current {
                extend_with_pattern(graph, pat, b, &mut next)?;
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        out.extend(current);
    }
    Ok(out)
}

fn pattern_vars(t: &TriplePatternAst) -> Vec<String> {
    let mut v = Vec::new();
    if let Some(x) = t.s.as_var() {
        v.push(x.to_string());
    }
    for x in t.p.vars() {
        v.push(x.to_string());
    }
    if let Some(x) = t.o.as_var() {
        v.push(x.to_string());
    }
    v
}

/// Cardinality estimate of a pattern given already-bound variables.
fn estimate_pattern(graph: &Graph, t: &TriplePatternAst, bound: &BTreeSet<String>) -> usize {
    let node_known = |n: &NodeRef| match n {
        NodeRef::Const(_) => true,
        NodeRef::Var(v) => bound.contains(v),
    };
    let s_known = node_known(&t.s);
    let o_known = node_known(&t.o);
    let p_known = match &t.p {
        PropPath::Iri(_) => true,
        PropPath::Var(v) => bound.contains(v),
        _ => true, // complex paths: treat predicate as known
    };
    // use graph-wide statistics with a representative pattern
    let p_sym = match &t.p {
        PropPath::Iri(i) => graph.pool().get_iri(i),
        _ => None,
    };
    let pat = TriplePattern {
        s: None,
        p: if p_known { p_sym } else { None },
        o: None,
    };
    let base = graph.estimate(pat).max(1);
    match (s_known, o_known) {
        (true, true) => 1,
        (true, false) | (false, true) => (base / 8).max(1),
        (false, false) => base,
    }
}

/// Extend one binding with all matches of a pattern.
fn extend_with_pattern(
    graph: &Graph,
    t: &TriplePatternAst,
    binding: &Binding,
    out: &mut Vec<Binding>,
) -> Result<(), QueryError> {
    // resolve endpoints under the binding
    let resolve_node = |n: &NodeRef| -> Resolved {
        match n {
            NodeRef::Var(v) => match binding.get(v) {
                Some(&s) => Resolved::Known(s),
                None => Resolved::Free(v.clone()),
            },
            NodeRef::Const(term) => match graph.pool().get(term) {
                Some(s) => Resolved::Known(s),
                None => Resolved::Impossible,
            },
        }
    };
    let s = resolve_node(&t.s);
    let o = resolve_node(&t.o);
    if matches!(s, Resolved::Impossible) || matches!(o, Resolved::Impossible) {
        return Ok(());
    }

    match &t.p {
        PropPath::Iri(iri) => {
            let Some(p) = graph.pool().get_iri(iri) else {
                return Ok(());
            };
            let pat = TriplePattern {
                s: s.known(),
                p: Some(p),
                o: o.known(),
            };
            for m in graph.match_pattern(pat) {
                let mut b = binding.clone();
                if let Resolved::Free(v) = &s {
                    b.insert(v.clone(), m.s);
                }
                if let Resolved::Free(v) = &o {
                    // same-var subject/object (e.g. ?x p ?x) must agree
                    if let Some(&existing) = b.get(v) {
                        if existing != m.o {
                            continue;
                        }
                    } else {
                        b.insert(v.clone(), m.o);
                    }
                }
                out.push(b);
            }
        }
        PropPath::Var(pv) => {
            let p_sym = binding.get(pv).copied();
            let pat = TriplePattern {
                s: s.known(),
                p: p_sym,
                o: o.known(),
            };
            for m in graph.match_pattern(pat) {
                let mut b = binding.clone();
                if let Resolved::Free(v) = &s {
                    b.insert(v.clone(), m.s);
                }
                if p_sym.is_none() {
                    if let Some(&existing) = b.get(pv) {
                        if existing != m.p {
                            continue;
                        }
                    } else {
                        b.insert(pv.clone(), m.p);
                    }
                }
                if let Resolved::Free(v) = &o {
                    if let Some(&existing) = b.get(v) {
                        if existing != m.o {
                            continue;
                        }
                    } else {
                        b.insert(v.clone(), m.o);
                    }
                }
                out.push(b);
            }
        }
        path => {
            for (ms, mo) in eval_path(graph, path, s.known(), o.known()) {
                let mut b = binding.clone();
                let mut ok = true;
                if let Resolved::Free(v) = &s {
                    match b.get(v) {
                        Some(&e) if e != ms => ok = false,
                        _ => {
                            b.insert(v.clone(), ms);
                        }
                    }
                }
                if ok {
                    if let Resolved::Free(v) = &o {
                        match b.get(v) {
                            Some(&e) if e != mo => ok = false,
                            _ => {
                                b.insert(v.clone(), mo);
                            }
                        }
                    }
                }
                if ok {
                    out.push(b);
                }
            }
        }
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum Resolved {
    Known(Sym),
    Free(String),
    Impossible,
}

impl Resolved {
    fn known(&self) -> Option<Sym> {
        match self {
            Resolved::Known(s) => Some(*s),
            _ => None,
        }
    }
}

/// Three-valued filter evaluation: `None` = error (treated as false).
fn eval_expr(graph: &Graph, e: &Expr, b: &Binding) -> Result<Option<bool>, QueryError> {
    Ok(match e {
        Expr::And(l, r) => match (eval_expr(graph, l, b)?, eval_expr(graph, r, b)?) {
            (Some(true), Some(true)) => Some(true),
            (Some(false), _) | (_, Some(false)) => Some(false),
            _ => None,
        },
        Expr::Or(l, r) => match (eval_expr(graph, l, b)?, eval_expr(graph, r, b)?) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Expr::Not(i) => eval_expr(graph, i, b)?.map(|v| !v),
        Expr::Bound(v) => Some(b.contains_key(v)),
        Expr::Contains(inner, needle) => {
            let t = eval_term(graph, inner, b);
            t.map(|term| {
                let hay = match &term {
                    Term::Iri(i) => i.as_str(),
                    Term::Literal(l) => l.lexical.as_str(),
                    Term::Blank(x) => x.as_str(),
                };
                hay.to_lowercase().contains(&needle.to_lowercase())
            })
        }
        Expr::Eq(l, r) => binary_cmp(graph, l, r, b, |o| o == std::cmp::Ordering::Equal),
        Expr::Ne(l, r) => binary_cmp(graph, l, r, b, |o| o != std::cmp::Ordering::Equal),
        Expr::Lt(l, r) => binary_cmp(graph, l, r, b, |o| o == std::cmp::Ordering::Less),
        Expr::Le(l, r) => binary_cmp(graph, l, r, b, |o| o != std::cmp::Ordering::Greater),
        Expr::Gt(l, r) => binary_cmp(graph, l, r, b, |o| o == std::cmp::Ordering::Greater),
        Expr::Ge(l, r) => binary_cmp(graph, l, r, b, |o| o != std::cmp::Ordering::Less),
        Expr::Var(v) => Some(b.contains_key(v)),
        Expr::Const(t) => t.as_literal().map(|l| l.lexical == "true"),
    })
}

fn eval_term(graph: &Graph, e: &Expr, b: &Binding) -> Option<Term> {
    match e {
        Expr::Var(v) => b.get(v).map(|&s| graph.resolve(s).clone()),
        Expr::Const(t) => Some(t.clone()),
        _ => None,
    }
}

fn binary_cmp(
    graph: &Graph,
    l: &Expr,
    r: &Expr,
    b: &Binding,
    pred: impl Fn(std::cmp::Ordering) -> bool,
) -> Option<bool> {
    let lt = eval_term(graph, l, b)?;
    let rt = eval_term(graph, r, b)?;
    Some(pred(compare_terms(Some(&lt), Some(&rt))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn reference_still_answers_the_basics() {
        let g = kg::turtle::parse_turtle(
            r#"
            @prefix e: <http://e/> .
            @prefix v: <http://v/> .
            e:a v:knows e:b . e:b v:knows e:c .
            e:a v:age 30 . e:b v:age 25 .
            "#,
        )
        .expect("fixture parses");
        let q = parse("PREFIX v: <http://v/> SELECT ?x WHERE { ?x v:knows ?y . ?y v:knows ?z }")
            .unwrap();
        assert_eq!(execute(&g, &q).unwrap().len(), 1);
        let ask =
            parse("PREFIX e: <http://e/> PREFIX v: <http://v/> ASK { e:a v:knows e:b }").unwrap();
        assert_eq!(execute(&g, &ask).unwrap().ask, Some(true));
        // reference results carry no stats — they are the plain baseline
        assert_eq!(
            execute(&g, &q).unwrap().stats,
            crate::results::ExecStats::default()
        );
    }
}
