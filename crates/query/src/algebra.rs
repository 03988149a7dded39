//! Logical algebra and plan construction.
//!
//! A [`GroupPattern`] compiles into a [`Plan`] tree: runs of adjacent
//! triple patterns become a [`Plan::Bgp`] (whose patterns the executor
//! reorders greedily by estimated selectivity), `OPTIONAL` becomes a left
//! join, `UNION` a union, `VALUES` an inline-data node, and each `FILTER`
//! of a group applies to the whole group, per SPARQL semantics.
//!
//! Filters are *pushed down* rather than wrapped around the whole group:
//! [`push_filter`] sinks a filter to the earliest subplan where all of its
//! variables are **definitely** bound ([`definite_vars`]). Because the
//! executor threads bindings left-to-right and evaluates filters with
//! three-valued logic, pushing a filter below a join never changes the
//! result rows — it only lets row budgets engage earlier.

use std::collections::BTreeSet;

use kg::Term;

use crate::ast::{Expr, GroupPattern, PatternElem, TriplePatternAst, Var};

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// The unit plan: one empty binding.
    Unit,
    /// A basic graph pattern (conjunction of triple patterns).
    Bgp(Vec<TriplePatternAst>),
    /// Join of consecutive parts (bindings flow left to right).
    Sequence(Vec<Plan>),
    /// Left outer join: keep left bindings even when right fails.
    LeftJoin(Box<Plan>, Box<Plan>),
    /// Union of two alternatives.
    Union(Box<Plan>, Box<Plan>),
    /// Filter over an inner plan.
    Filter(Expr, Box<Plan>),
    /// Inline data: one solution per term, bound to the variable.
    Values(Var, Vec<Term>),
}

/// Variables that are **definitely** bound in every solution a plan
/// produces (as opposed to *maybe* bound — e.g. vars introduced only on
/// the optional side of a [`Plan::LeftJoin`] or in one [`Plan::Union`]
/// branch).
pub fn definite_vars(plan: &Plan) -> BTreeSet<String> {
    match plan {
        Plan::Unit => BTreeSet::new(),
        Plan::Bgp(pats) => {
            let mut out = BTreeSet::new();
            for t in pats {
                if let Some(v) = t.s.as_var() {
                    out.insert(v.to_string());
                }
                for v in t.p.vars() {
                    out.insert(v.to_string());
                }
                if let Some(v) = t.o.as_var() {
                    out.insert(v.to_string());
                }
            }
            out
        }
        Plan::Values(v, _) => std::iter::once(v.clone()).collect(),
        Plan::Sequence(parts) => {
            let mut out = BTreeSet::new();
            for p in parts {
                out.extend(definite_vars(p));
            }
            out
        }
        // The optional side may fail, leaving its vars unbound.
        Plan::LeftJoin(l, _) => definite_vars(l),
        // Only vars bound by *both* branches are definite.
        Plan::Union(l, r) => {
            let lv = definite_vars(l);
            let rv = definite_vars(r);
            lv.intersection(&rv).cloned().collect()
        }
        Plan::Filter(_, inner) => definite_vars(inner),
    }
}

/// Push a filter as deep into `plan` as is provably safe.
///
/// Rules (all exact, never heuristic):
/// - `Union`: distributing into both branches is always equivalent, since
///   each branch sees the same threaded input bindings.
/// - `LeftJoin`: push into the left side only when every filter variable
///   is definitely bound there — then the filter cannot observe a
///   right-side binding, so filtering before the join is identical.
/// - `Sequence`: sink into the earliest part after which all filter
///   variables are definitely bound (conservatively treating threaded
///   bindings as available to that part's recursion).
/// - Otherwise wrap the plan in a [`Plan::Filter`].
pub fn push_filter(expr: Expr, plan: Plan) -> Plan {
    let fvars: BTreeSet<String> = expr.vars().iter().map(|v| v.to_string()).collect();
    match plan {
        Plan::Union(l, r) => Plan::Union(
            Box::new(push_filter(expr.clone(), *l)),
            Box::new(push_filter(expr, *r)),
        ),
        Plan::LeftJoin(l, r) => {
            if fvars.is_subset(&definite_vars(&l)) {
                Plan::LeftJoin(Box::new(push_filter(expr, *l)), r)
            } else {
                Plan::Filter(expr, Box::new(Plan::LeftJoin(l, r)))
            }
        }
        Plan::Sequence(mut parts) => {
            let mut seen: BTreeSet<String> = BTreeSet::new();
            let mut target: Option<usize> = None;
            for (i, p) in parts.iter().enumerate() {
                seen.extend(definite_vars(p));
                if fvars.is_subset(&seen) {
                    target = Some(i);
                    break;
                }
            }
            match target {
                Some(i) => {
                    let part = parts.remove(i);
                    parts.insert(i, push_filter(expr, part));
                    Plan::Sequence(parts)
                }
                None => Plan::Filter(expr, Box::new(Plan::Sequence(parts))),
            }
        }
        other => Plan::Filter(expr, Box::new(other)),
    }
}

/// Compile a group pattern to a plan.
pub fn compile(group: &GroupPattern) -> Plan {
    let mut parts: Vec<Plan> = Vec::new();
    let mut bgp: Vec<TriplePatternAst> = Vec::new();
    let mut filters: Vec<Expr> = Vec::new();

    let flush_bgp = |bgp: &mut Vec<TriplePatternAst>, parts: &mut Vec<Plan>| {
        if !bgp.is_empty() {
            parts.push(Plan::Bgp(std::mem::take(bgp)));
        }
    };

    for elem in &group.elems {
        match elem {
            PatternElem::Triple(t) => bgp.push(t.clone()),
            PatternElem::Filter(e) => filters.push(e.clone()),
            PatternElem::Optional(g) => {
                flush_bgp(&mut bgp, &mut parts);
                let left = if parts.is_empty() {
                    Plan::Unit
                } else if parts.len() == 1 {
                    parts.pop().expect("len checked")
                } else {
                    Plan::Sequence(std::mem::take(&mut parts))
                };
                parts.push(Plan::LeftJoin(Box::new(left), Box::new(compile(g))));
            }
            PatternElem::Union(l, r) => {
                flush_bgp(&mut bgp, &mut parts);
                parts.push(Plan::Union(Box::new(compile(l)), Box::new(compile(r))));
            }
            PatternElem::Values(v, terms) => {
                flush_bgp(&mut bgp, &mut parts);
                parts.push(Plan::Values(v.clone(), terms.clone()));
            }
        }
    }
    flush_bgp(&mut bgp, &mut parts);

    let mut plan = match parts.len() {
        0 => Plan::Unit,
        1 => parts.pop().expect("len checked"),
        _ => Plan::Sequence(parts),
    };
    for f in filters {
        plan = push_filter(f, plan);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{NodeRef, PropPath};

    fn tp(s: &str, p: &str, o: &str) -> PatternElem {
        PatternElem::Triple(TriplePatternAst {
            s: NodeRef::var(s),
            p: PropPath::Iri(p.into()),
            o: NodeRef::var(o),
        })
    }

    #[test]
    fn adjacent_triples_fuse_into_one_bgp() {
        let g = GroupPattern {
            elems: vec![tp("a", "p", "b"), tp("b", "q", "c")],
        };
        match compile(&g) {
            Plan::Bgp(pats) => assert_eq!(pats.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filters_apply_to_the_whole_group() {
        // With a single BGP there is nowhere deeper to push: the filter
        // wraps the group exactly as before.
        let g = GroupPattern {
            elems: vec![
                PatternElem::Filter(Expr::Bound("a".into())),
                tp("a", "p", "b"),
            ],
        };
        match compile(&g) {
            Plan::Filter(_, inner) => assert!(matches!(*inner, Plan::Bgp(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn optional_becomes_left_join_over_prefix() {
        let g = GroupPattern {
            elems: vec![
                tp("a", "p", "b"),
                PatternElem::Optional(GroupPattern {
                    elems: vec![tp("b", "q", "c")],
                }),
            ],
        };
        match compile(&g) {
            Plan::LeftJoin(l, r) => {
                assert!(matches!(*l, Plan::Bgp(_)));
                assert!(matches!(*r, Plan::Bgp(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_group_is_unit() {
        assert_eq!(compile(&GroupPattern::default()), Plan::Unit);
    }

    #[test]
    fn union_after_triples_sequences() {
        let g = GroupPattern {
            elems: vec![
                tp("a", "p", "b"),
                PatternElem::Union(
                    GroupPattern {
                        elems: vec![tp("b", "q", "c")],
                    },
                    GroupPattern {
                        elems: vec![tp("b", "r", "c")],
                    },
                ),
            ],
        };
        match compile(&g) {
            Plan::Sequence(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Plan::Union(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn values_becomes_inline_data_node() {
        let g = GroupPattern {
            elems: vec![
                PatternElem::Values("x".into(), vec![Term::iri("http://e/a")]),
                tp("x", "p", "y"),
            ],
        };
        match compile(&g) {
            Plan::Sequence(parts) => {
                assert!(matches!(parts[0], Plan::Values(_, _)));
                assert!(matches!(parts[1], Plan::Bgp(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filter_pushes_into_left_side_of_left_join() {
        // FILTER on ?a (bound by the required part) sinks below OPTIONAL.
        let g = GroupPattern {
            elems: vec![
                tp("a", "p", "b"),
                PatternElem::Optional(GroupPattern {
                    elems: vec![tp("b", "q", "c")],
                }),
                PatternElem::Filter(Expr::Bound("a".into())),
            ],
        };
        match compile(&g) {
            Plan::LeftJoin(l, _) => assert!(matches!(*l, Plan::Filter(_, _))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filter_on_optional_var_stays_above_left_join() {
        // FILTER mentions ?c, bound only by the optional side: it must
        // stay above the join so it can observe (un)bound ?c.
        let g = GroupPattern {
            elems: vec![
                tp("a", "p", "b"),
                PatternElem::Optional(GroupPattern {
                    elems: vec![tp("b", "q", "c")],
                }),
                PatternElem::Filter(Expr::Bound("c".into())),
            ],
        };
        match compile(&g) {
            Plan::Filter(_, inner) => assert!(matches!(*inner, Plan::LeftJoin(_, _))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filter_distributes_into_both_union_branches() {
        let g = GroupPattern {
            elems: vec![
                PatternElem::Union(
                    GroupPattern {
                        elems: vec![tp("x", "p", "y")],
                    },
                    GroupPattern {
                        elems: vec![tp("x", "q", "y")],
                    },
                ),
                PatternElem::Filter(Expr::Bound("x".into())),
            ],
        };
        match compile(&g) {
            Plan::Union(l, r) => {
                assert!(matches!(*l, Plan::Filter(_, _)));
                assert!(matches!(*r, Plan::Filter(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filter_sinks_to_earliest_satisfying_sequence_part() {
        // ?b is definite after the first Bgp; the filter lands on
        // parts[0], before the union runs.
        let g = GroupPattern {
            elems: vec![
                tp("a", "p", "b"),
                PatternElem::Union(
                    GroupPattern {
                        elems: vec![tp("b", "q", "c")],
                    },
                    GroupPattern {
                        elems: vec![tp("b", "r", "c")],
                    },
                ),
                PatternElem::Filter(Expr::Bound("b".into())),
            ],
        };
        match compile(&g) {
            Plan::Sequence(parts) => {
                assert!(matches!(parts[0], Plan::Filter(_, _)), "{parts:?}");
                assert!(matches!(parts[1], Plan::Union(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn definite_vars_tracks_maybe_bound() {
        let lj = Plan::LeftJoin(
            Box::new(Plan::Bgp(vec![TriplePatternAst {
                s: NodeRef::var("a"),
                p: PropPath::Iri("p".into()),
                o: NodeRef::var("b"),
            }])),
            Box::new(Plan::Bgp(vec![TriplePatternAst {
                s: NodeRef::var("b"),
                p: PropPath::Iri("q".into()),
                o: NodeRef::var("c"),
            }])),
        );
        let dv = definite_vars(&lj);
        assert!(dv.contains("a") && dv.contains("b"));
        assert!(!dv.contains("c"));

        let un = Plan::Union(
            Box::new(Plan::Bgp(vec![TriplePatternAst {
                s: NodeRef::var("x"),
                p: PropPath::Iri("p".into()),
                o: NodeRef::var("y"),
            }])),
            Box::new(Plan::Bgp(vec![TriplePatternAst {
                s: NodeRef::var("x"),
                p: PropPath::Iri("q".into()),
                o: NodeRef::var("z"),
            }])),
        );
        let dv = definite_vars(&un);
        assert!(dv.contains("x"));
        assert!(!dv.contains("y") && !dv.contains("z"));
    }
}
