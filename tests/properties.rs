//! Property-based tests (proptest) over core invariants of the substrates.

use proptest::prelude::*;

use llmkg::kg::term::{Literal, Term};
use llmkg::kg::turtle::{parse_ntriples, to_ntriples};
use llmkg::kg::{Graph, TriplePattern};
use llmkg::kgquery::ast::{
    Expr, GroupPattern, NodeRef, Order, PatternElem, PropPath, Query, QueryKind, TriplePatternAst,
};
use llmkg::kgquery::exec::ExecOptions;
use llmkg::kgquery::{exec, execute_sparql_with, reference, QueryError, ResultSet};
use llmkg::kgtext::metrics::{bleu4, rouge_l};
use llmkg::obs::Span;
use llmkg::slm::embedding::{cosine, Embedder};
use llmkg::slm::evidence::EvidenceIndex;
use llmkg::slm::tokenizer::tokenize;

// a tiny vocabulary keeps triple collisions likely (more interesting graphs)
fn entity_strategy() -> impl Strategy<Value = String> {
    (0u8..20).prop_map(|i| format!("http://e/n{i}"))
}

fn predicate_strategy() -> impl Strategy<Value = String> {
    (0u8..5).prop_map(|i| format!("http://p/r{i}"))
}

/// `len` triples over 20 entities and 5 predicates. At 200 to 400 draws
/// (40 to 80 triples per predicate) a join stage often reaches the
/// executor's merge threshold of 16 bindings.
fn triples_strategy(
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(String, String, String)>> {
    proptest::collection::vec(
        (entity_strategy(), predicate_strategy(), entity_strategy()),
        len,
    )
}

// --- random BGP/filter queries for the executor differential test ------

/// Subject/object position: a variable from a small shared pool (so joins
/// actually happen) or an entity constant (sometimes absent from the
/// graph, exercising the impossible-constant path).
fn node_strategy() -> impl Strategy<Value = NodeRef> {
    (0u8..8, 0u8..24).prop_map(|(kind, e)| {
        if kind < 5 {
            NodeRef::Var(format!("v{kind}"))
        } else {
            NodeRef::Const(Term::iri(format!("http://e/n{e}")))
        }
    })
}

/// Mostly a concrete predicate, occasionally a predicate variable.
fn predicate_path_strategy() -> impl Strategy<Value = PropPath> {
    (0u8..6).prop_map(|p| {
        if p < 5 {
            PropPath::Iri(format!("http://p/r{p}"))
        } else {
            PropPath::Var("vp".into())
        }
    })
}

/// A join pattern: variables at both ends (from a pool of four, so
/// patterns chain) — the shape a merge stage serves once the frontier
/// binds one end.
fn join_pattern_strategy() -> impl Strategy<Value = TriplePatternAst> {
    (0u8..4, predicate_path_strategy(), 0u8..4).prop_map(|(s, p, o)| TriplePatternAst {
        s: NodeRef::Var(format!("v{s}")),
        p,
        o: NodeRef::Var(format!("v{o}")),
    })
}

fn bgp_pattern_strategy() -> impl Strategy<Value = TriplePatternAst> {
    (node_strategy(), predicate_path_strategy(), node_strategy())
        .prop_map(|(s, p, o)| TriplePatternAst { s, p, o })
}

/// Execute a parsed query with `opts` and no span.
fn run<'g>(g: &'g Graph, q: &Query, opts: &ExecOptions) -> Result<ResultSet<'g>, QueryError> {
    exec::execute(g, q, opts, &Span::disabled())
}

/// Rows as a sorted multiset, so executors may enumerate in any order.
fn normalized_rows(rs: &ResultSet) -> Vec<Vec<Option<Term>>> {
    let mut rows = rs.to_terms();
    rows.sort();
    rows
}

proptest! {
    /// The compiled slot-based executor agrees with the reference
    /// (map-based) evaluator on arbitrary graphs and BGP/filter queries.
    #[test]
    fn compiled_executor_agrees_with_reference(
        triples in triples_strategy(0..60),
        patterns in proptest::collection::vec(bgp_pattern_strategy(), 1..4),
        shape in 0u8..6,
    ) {
        let mut g = Graph::new();
        for (s, p, o) in &triples {
            g.insert_iri(s, p, o);
        }
        let mut elems: Vec<PatternElem> =
            patterns.into_iter().map(PatternElem::Triple).collect();
        match shape {
            0 => elems.push(PatternElem::Filter(Expr::Bound("v0".into()))),
            1 => elems.push(PatternElem::Filter(Expr::Ne(
                Box::new(Expr::Var("v0".into())),
                Box::new(Expr::Var("v1".into())),
            ))),
            2 => elems.push(PatternElem::Filter(Expr::Not(Box::new(Expr::Bound(
                "v9".into(), // never bound by any pattern
            ))))),
            _ => {}
        }
        let mut q = Query::select_all(GroupPattern { elems });
        if shape == 3 {
            q.kind = QueryKind::Select { vars: Vec::new(), distinct: true };
        }
        let fast = run(&g, &q, &ExecOptions::default()).expect("compiled executor runs");
        let slow = reference::execute(&g, &q).expect("reference executor runs");
        prop_assert_eq!(&fast.vars, &slow.vars);
        prop_assert_eq!(normalized_rows(&fast), normalized_rows(&slow));
    }

    /// `SELECT DISTINCT` dedups exactly once, after staged evaluation
    /// (the name recalls a histogram short-circuit that once skipped the
    /// dedup): it keeps the first occurrence of each row the same query
    /// without `DISTINCT` projects, and agrees with the reference oracle
    /// — also under `LIMIT`/`OFFSET`, and under an `ORDER BY` on every
    /// projected variable, where the answer's order is unique.
    #[test]
    fn distinct_agrees_with_reference_with_and_without_shortcircuit(
        triples in triples_strategy(0..60),
        patterns in proptest::collection::vec(bgp_pattern_strategy(), 1..4),
        width in 0usize..3,
        order in 0u8..3,
        limit in 0usize..8,
        offset in 0usize..3,
    ) {
        let mut g = Graph::new();
        for (s, p, o) in &triples {
            g.insert_iri(s, p, o);
        }
        let elems: Vec<PatternElem> =
            patterns.into_iter().map(PatternElem::Triple).collect();
        let mut q = Query::select_all(GroupPattern { elems });
        let bound = q.pattern.bound_vars();
        // width 0 projects every bound variable (SELECT DISTINCT *)
        let vars: Vec<String> = bound.iter().take(width).cloned().collect();
        let keys = if width == 0 { bound.clone() } else { vars.clone() };
        q.kind = QueryKind::Select { vars: vars.clone(), distinct: true };
        let opts = ExecOptions::default();
        let mut sliced = q.clone();
        sliced.limit = Some(limit);
        sliced.offset = offset;
        let all = run(&g, &q, &opts).expect("unsliced run");
        // same staged enumeration as without DISTINCT, first occurrences kept
        let mut plain = q.clone();
        plain.kind = QueryKind::Select { vars, distinct: false };
        let mut first: Vec<Vec<Option<Term>>> = Vec::new();
        for row in run(&g, &plain, &opts).expect("non-distinct run").to_terms() {
            if !first.contains(&row) {
                first.push(row);
            }
        }
        prop_assert_eq!(all.to_terms(), first);
        let oracle = reference::execute(&g, &q).expect("reference runs");
        prop_assert_eq!(&all.vars, &oracle.vars);
        prop_assert_eq!(normalized_rows(&all), normalized_rows(&oracle));
        let window = run(&g, &sliced, &opts).expect("sliced run");
        let rows = all.to_terms();
        let end = offset.saturating_add(limit).min(rows.len());
        prop_assert_eq!(window.to_terms(), rows[offset.min(end)..end].to_vec());
        if order > 0 && !keys.is_empty() {
            let mut ordered = sliced.clone();
            ordered.order_by = keys
                .iter()
                .enumerate()
                .map(|(i, k)| (k.clone(), if i == 0 && order == 2 { Order::Desc } else { Order::Asc }))
                .collect();
            let compiled = run(&g, &ordered, &ExecOptions::default()).expect("ordered run");
            let oracle = reference::execute(&g, &ordered).expect("ordered reference run");
            prop_assert_eq!(&compiled, &oracle);
        }
    }

    /// An `ORDER BY`-free `LIMIT`/`OFFSET` query, which runs the
    /// depth-first driver, returns exactly the matching slice of the rows
    /// the unlimited query materializes through the staged driver, never
    /// does more join work, obeys the count law, and only ever emits rows
    /// the reference oracle also produces.
    #[test]
    fn streaming_limit_agrees_with_full_evaluation(
        triples in triples_strategy(0..60),
        patterns in proptest::collection::vec(bgp_pattern_strategy(), 1..4),
        limit in 0usize..12,
        offset in 0usize..6,
    ) {
        let mut g = Graph::new();
        for (s, p, o) in &triples {
            g.insert_iri(s, p, o);
        }
        let elems: Vec<PatternElem> =
            patterns.into_iter().map(PatternElem::Triple).collect();
        let unlimited = Query::select_all(GroupPattern { elems });
        let mut q = unlimited.clone();
        q.limit = Some(limit);
        q.offset = offset;
        let opts = ExecOptions::default();
        let streamed = run(&g, &q, &opts).expect("streamed run");
        let all = run(&g, &unlimited, &opts).expect("unlimited run");
        // identical answer, row for row: the depth-first driver enumerates
        // solutions in exactly the staged order, so the LIMIT slice matches
        prop_assert_eq!(&streamed.vars, &all.vars);
        let rows = all.to_terms();
        let end = offset.saturating_add(limit).min(rows.len());
        prop_assert_eq!(streamed.to_terms(), rows[offset.min(end)..end].to_vec());
        // streaming never does more join work than full materialization
        prop_assert!(
            streamed.stats.intermediate_bindings <= all.stats.intermediate_bindings,
            "streamed {} > full {}",
            streamed.stats.intermediate_bindings,
            all.stats.intermediate_bindings,
        );
        // count law against the unlimited query
        prop_assert_eq!(streamed.len(), all.len().saturating_sub(offset).min(limit));
        // every streamed row exists in the reference oracle's full result
        // (with multiplicity): LIMIT without ORDER BY may pick different
        // rows per executor, but never rows that aren't real solutions
        let oracle = reference::execute(&g, &unlimited).expect("oracle run");
        let mut pool = normalized_rows(&oracle);
        for row in streamed.to_terms() {
            let i = pool.binary_search(&row);
            prop_assert!(i.is_ok(), "streamed row missing from oracle: {row:?}");
            pool.remove(i.unwrap());
        }
    }
}

proptest! {
    /// Every pattern shape agrees with the naive filter over all triples.
    #[test]
    fn pattern_matching_agrees_with_naive_filter(triples in triples_strategy(0..60)) {
        let mut g = Graph::new();
        for (s, p, o) in &triples {
            g.insert_iri(s, p, o);
        }
        let all: Vec<_> = g.iter().collect();
        // build a few patterns from the first triple (if any)
        let mut patterns = vec![TriplePattern::any()];
        if let Some(t) = all.first() {
            patterns.push(TriplePattern { s: Some(t.s), p: None, o: None });
            patterns.push(TriplePattern { s: None, p: Some(t.p), o: None });
            patterns.push(TriplePattern { s: None, p: None, o: Some(t.o) });
            patterns.push(TriplePattern { s: Some(t.s), p: Some(t.p), o: None });
            patterns.push(TriplePattern { s: Some(t.s), p: Some(t.p), o: Some(t.o) });
        }
        for pat in patterns {
            let fast = g.match_pattern(pat);
            let slow: Vec<_> = all.iter().filter(|t| pat.matches(t)).copied().collect();
            prop_assert_eq!(fast.len(), slow.len());
            for t in &fast {
                prop_assert!(slow.contains(t));
            }
        }
    }

    /// Insert/remove keeps all indexes consistent: removing everything
    /// empties the graph.
    #[test]
    fn insert_remove_is_clean(triples in triples_strategy(0..60)) {
        let mut g = Graph::new();
        let mut inserted = Vec::new();
        for (s, p, o) in &triples {
            inserted.push(g.insert_iri(s, p, o));
        }
        for t in &inserted {
            g.remove(t.s, t.p, t.o);
        }
        prop_assert_eq!(g.len(), 0);
        prop_assert!(g.predicates().is_empty());
        prop_assert!(g.match_pattern(TriplePattern::any()).is_empty());
    }

    /// N-Triples round-trip is lossless for IRI triples and integer /
    /// string literals.
    #[test]
    fn ntriples_round_trip(
        triples in triples_strategy(0..60),
        lit_num in -1000i64..1000,
        lit_str in "[a-zA-Z ]{0,20}",
    ) {
        let mut g = Graph::new();
        for (s, p, o) in &triples {
            g.insert_iri(s, p, o);
        }
        g.insert_terms(
            Term::iri("http://e/lit"),
            Term::iri("http://p/v"),
            Term::int(lit_num),
        );
        g.insert_terms(
            Term::iri("http://e/lit"),
            Term::iri("http://p/s"),
            Term::Literal(Literal::string(lit_str.clone())),
        );
        let nt = to_ntriples(&g);
        let g2 = parse_ntriples(&nt).expect("round trip parses");
        prop_assert_eq!(g2.len(), g.len());
        // line order depends on interning order; compare as sorted sets
        let sorted = |s: &str| {
            let mut v: Vec<&str> = s.lines().collect();
            v.sort_unstable();
            v.join("\n")
        };
        prop_assert_eq!(sorted(&to_ntriples(&g2)), sorted(&nt));
    }

    /// Cosine similarity is bounded and symmetric; embeddings are finite.
    #[test]
    fn embedding_cosine_properties(a in "[a-z ]{1,40}", b in "[a-z ]{1,40}") {
        let e = Embedder::new();
        let va = e.embed(&a);
        let vb = e.embed(&b);
        prop_assert!(va.iter().all(|x| x.is_finite()));
        let s_ab = cosine(&va, &vb);
        let s_ba = cosine(&vb, &va);
        prop_assert!((s_ab - s_ba).abs() < 1e-5);
        prop_assert!((-1.0001..=1.0001).contains(&s_ab));
        // self-similarity is 1 (or 0 for empty embedding)
        let s_aa = cosine(&va, &va);
        prop_assert!(s_aa == 0.0 || (s_aa - 1.0).abs() < 1e-4);
    }

    /// Evidence support is bounded in [0,1]; indexed sentences support
    /// themselves fully.
    #[test]
    fn evidence_support_bounds(sentences in proptest::collection::vec("[a-z]{2,8}( [a-z]{2,8}){1,6}", 1..15)) {
        let idx = EvidenceIndex::from_sentences(sentences.iter().map(String::as_str));
        for s in &sentences {
            let sup = idx.support(s);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&sup));
            prop_assert!(sup > 0.99, "self-support {sup} for {s}");
        }
        prop_assert_eq!(idx.support("zzzzqqqq xxxx"), 0.0);
    }

    /// Text metrics are bounded in [0,1] and identity-maximal.
    #[test]
    fn text_metrics_bounds(a in "[a-z]{2,6}( [a-z]{2,6}){0,8}", b in "[a-z]{2,6}( [a-z]{2,6}){0,8}") {
        for m in [bleu4(&a, &b), rouge_l(&a, &b)] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&m));
        }
        prop_assert!(rouge_l(&a, &a) > 0.999);
        // BLEU-4 identity needs at least one 4-gram to reach 1.0
        if a.split_whitespace().count() >= 4 {
            prop_assert!(bleu4(&a, &a) > 0.999);
        }
    }

    /// Tokenization never produces empty tokens and covers all
    /// alphanumerics.
    #[test]
    fn tokenizer_invariants(text in ".{0,80}") {
        let toks = tokenize(&text);
        for t in &toks {
            prop_assert!(!t.is_empty());
        }
        let alnum_in: usize = text.chars().filter(|c| c.is_alphanumeric()).count();
        let alnum_out: usize = toks
            .iter()
            .flat_map(|t| t.chars())
            .filter(|c| c.is_alphanumeric())
            .count();
        prop_assert_eq!(alnum_in, alnum_out);
    }
}

/// On a compacted graph, the sorted-merge join path engages for an
/// eligible stage and produces rows bit-identical to the per-binding
/// probe loop it replaces: the same BGP under a `LIMIT` that covers every
/// row runs the depth-first probe driver.
#[test]
fn merge_join_engages_and_preserves_results() {
    let kg = llmkg::kg::synth::movies(7, llmkg::kg::synth::Scale::default());
    assert!(
        kg.graph.is_compacted(),
        "synth generators compact on finish"
    );
    let q = "PREFIX v: <http://llmkg.dev/vocab/>
         SELECT ?a ?f ?d WHERE { ?f v:starring ?a . ?f v:directedBy ?d }";
    let parse = llmkg::kgquery::parser::parse;
    let merged = run(&kg.graph, &parse(q).unwrap(), &ExecOptions::default()).unwrap();
    let limited = format!("{q} LIMIT {}", merged.len());
    let probed = run(
        &kg.graph,
        &parse(&limited).unwrap(),
        &ExecOptions::default(),
    )
    .unwrap();
    assert!(
        merged.stats.merge_joins > 0,
        "eligible stage should merge: {:?}",
        merged.stats
    );
    assert_eq!(probed.stats.merge_joins, 0);
    assert_eq!(merged.vars, probed.vars);
    assert_eq!(
        merged.to_terms(),
        probed.to_terms(),
        "merge join must be bit-identical"
    );
}

/// The deterministic companion of `merge_join_agrees_with_reference`: on
/// a dense compacted graph the default threshold engages the merge join
/// for a two-hop join, and the merged rows agree with the oracle.
#[test]
fn merge_join_engages_on_a_dense_graph() {
    let mut g = Graph::new();
    for i in 0..200u32 {
        let (s, p, o) = (i % 20, i % 5, (i * 7 + i / 20) % 20);
        g.insert_iri(
            &format!("http://e/n{s}"),
            &format!("http://p/r{p}"),
            &format!("http://e/n{o}"),
        );
    }
    g.compact();
    let q = llmkg::kgquery::parser::parse(
        "SELECT * WHERE { ?a <http://p/r1> ?b . ?b <http://p/r2> ?c }",
    )
    .unwrap();
    let merged = run(&g, &q, &ExecOptions::default()).unwrap();
    assert!(merged.stats.merge_joins > 0, "{:?}", merged.stats);
    assert!(!merged.is_empty());
    let oracle = reference::execute(&g, &q).unwrap();
    assert_eq!(normalized_rows(&merged), normalized_rows(&oracle));
}

/// From-scratch statistics recount over a triple list, for comparing
/// against the incrementally-maintained histograms.
fn recount(
    triples: &[llmkg::kg::Triple],
) -> (
    std::collections::BTreeMap<llmkg::kg::Sym, llmkg::kg::PredicateCard>,
    usize,
    usize,
) {
    use std::collections::{BTreeMap, BTreeSet};
    let mut cards: BTreeMap<llmkg::kg::Sym, (usize, BTreeSet<_>, BTreeSet<_>)> = BTreeMap::new();
    let mut subjects = BTreeSet::new();
    let mut objects = BTreeSet::new();
    for t in triples {
        let e = cards.entry(t.p).or_default();
        e.0 += 1;
        e.1.insert(t.s);
        e.2.insert(t.o);
        subjects.insert(t.s);
        objects.insert(t.o);
    }
    let cards = cards
        .into_iter()
        .map(|(p, (n, ss, os))| {
            (
                p,
                llmkg::kg::PredicateCard {
                    triples: n,
                    distinct_subjects: ss.len(),
                    distinct_objects: os.len(),
                },
            )
        })
        .collect();
    (cards, subjects.len(), objects.len())
}

proptest! {
    /// The flat-arena engine agrees with the seed's BTreeSet engine under
    /// arbitrary insert/remove/compact interleavings: same membership,
    /// same results for every pattern shape (in the same order), and
    /// incremental statistics equal to both the oracle's and a
    /// from-scratch recount.
    #[test]
    fn flat_arena_agrees_with_baseline_engine(
        ops in proptest::collection::vec((0u8..5, 0u8..12, 0u8..4, 0u8..12), 1..80),
    ) {
        use llmkg::kg::BaselineGraph;
        let mut g = Graph::new();
        let mut bg = BaselineGraph::new();
        for (kind, si, pi, oi) in ops {
            let (s, p, o) = (
                format!("http://e/n{si}"),
                format!("http://p/r{pi}"),
                format!("http://e/n{oi}"),
            );
            match kind {
                0..=2 => {
                    let t = g.insert_iri(&s, &p, &o);
                    bg.insert(t.s, t.p, t.o);
                }
                3 => {
                    let ids = (
                        g.pool().get_iri(&s),
                        g.pool().get_iri(&p),
                        g.pool().get_iri(&o),
                    );
                    if let (Some(s), Some(p), Some(o)) = ids {
                        prop_assert_eq!(g.remove(s, p, o), bg.remove(s, p, o));
                    }
                }
                _ => g.compact(),
            }
        }
        prop_assert_eq!(g.len(), bg.len());
        let all: Vec<_> = bg.iter().collect();
        prop_assert_eq!(g.iter().collect::<Vec<_>>(), all.clone());
        // every pattern shape, seeded from a real triple when one exists
        let mut shapes = vec![TriplePattern::any()];
        if let Some(t) = all.first() {
            for (s, p, o) in [
                (Some(t.s), None, None),
                (None, Some(t.p), None),
                (None, None, Some(t.o)),
                (Some(t.s), Some(t.p), None),
                (None, Some(t.p), Some(t.o)),
                (Some(t.s), None, Some(t.o)),
                (Some(t.s), Some(t.p), Some(t.o)),
            ] {
                shapes.push(TriplePattern { s, p, o });
            }
        }
        for pat in shapes {
            prop_assert_eq!(g.match_pattern(pat), bg.match_pattern(pat));
        }
        // statistics: incremental == oracle == from-scratch recount
        let (cards, subj, obj) = recount(&all);
        prop_assert_eq!(g.subject_cardinality(), subj);
        prop_assert_eq!(g.object_cardinality(), obj);
        prop_assert_eq!(bg.subject_cardinality(), subj);
        prop_assert_eq!(bg.object_cardinality(), obj);
        prop_assert_eq!(
            g.predicates(),
            cards.iter().map(|(&p, c)| (p, c.triples)).collect::<Vec<_>>()
        );
        for (&p, card) in &cards {
            prop_assert_eq!(g.predicate_card(p), *card);
            prop_assert_eq!(bg.predicate_card(p), *card);
        }
    }

    /// The executor agrees with the reference oracle on compacted graphs,
    /// for two draws per case. A sparse graph (possibly empty) under one
    /// to three BGP patterns, some with constants absent from the graph,
    /// covers the arena's probe path. A dense graph under two to four
    /// variable-only joins often reaches the merge threshold (in 24 of
    /// the 64 cases), so eligible stages take the merged path
    /// (`merge_join_engages_on_a_dense_graph` pins that it engages).
    #[test]
    fn merge_join_agrees_with_reference(
        sparse in triples_strategy(0..60),
        bgp in proptest::collection::vec(bgp_pattern_strategy(), 1..4),
        dense in triples_strategy(200..400),
        joins in proptest::collection::vec(join_pattern_strategy(), 2..5),
    ) {
        for (triples, patterns) in [(sparse, bgp), (dense, joins)] {
            let mut g = Graph::new();
            for (s, p, o) in &triples {
                g.insert_iri(s, p, o);
            }
            g.compact();
            let elems: Vec<PatternElem> =
                patterns.into_iter().map(PatternElem::Triple).collect();
            let q = Query::select_all(GroupPattern { elems });
            let fast = run(&g, &q, &ExecOptions::default()).expect("executor runs");
            let slow = reference::execute(&g, &q).expect("reference executor runs");
            prop_assert_eq!(&fast.vars, &slow.vars);
            prop_assert_eq!(normalized_rows(&fast), normalized_rows(&slow));
        }
    }

    /// A plan prepared through the cache returns exactly what a fresh
    /// parse + plan of the same text returns — before and after graph
    /// mutations that may bump the statistics epoch. The query goes in
    /// as *text* so the whole prepared path (normalize → cache → compile
    /// at the recorded epoch) is under test, and the cache outcome must
    /// agree with whether the epoch actually moved.
    #[test]
    fn prepared_query_agrees_with_fresh_planning_across_epochs(
        triples in triples_strategy(0..60),
        patterns in proptest::collection::vec(bgp_pattern_strategy(), 1..4),
        extra in triples_strategy(0..60),
    ) {
        use llmkg::kgquery::{parser, CacheOutcome, PlanCache};

        let mut g = Graph::new();
        for (s, p, o) in &triples {
            g.insert_iri(s, p, o);
        }
        let text = render_select_all(&patterns);
        let opts = ExecOptions::default();
        let cache = PlanCache::default();

        let (prepared, outcome) = cache.prepare(&g, &text).expect("prepare");
        prop_assert_eq!(outcome, CacheOutcome::Miss);
        let fresh =
            run(&g, &parser::parse(&text).expect("parse"), &opts)
                .expect("fresh run");
        prop_assert_eq!(&prepared.run(&g, &opts).expect("prepared run"), &fresh);

        // mutate, then re-prepare from the same cache: the entry must be
        // revalidated (Hit) or recompiled (Invalidated) to match exactly
        // what cold planning sees now — a constant the first compile
        // found un-interned may have just been inserted, which must
        // invalidate even when the epoch has not drifted
        for (s, p, o) in &extra {
            g.insert_iri(s, p, o);
        }
        let still_valid = prepared.is_current(&g);
        let (prepared2, outcome2) = cache.prepare(&g, &text).expect("re-prepare");
        prop_assert_eq!(
            outcome2,
            if still_valid { CacheOutcome::Hit } else { CacheOutcome::Invalidated }
        );
        // compare as multisets: a Hit legitimately keeps a join order
        // planned under sub-threshold statistics drift, which enumerates
        // the same solutions in a different order
        let fresh2 =
            run(&g, &parser::parse(&text).expect("parse"), &opts)
                .expect("fresh run after mutation");
        let rerun = prepared2.run(&g, &opts).expect("prepared rerun");
        prop_assert_eq!(&rerun.vars, &fresh2.vars);
        prop_assert_eq!(normalized_rows(&rerun), normalized_rows(&fresh2));
    }
}

/// Render fuzzed BGP patterns as `SELECT *` query text (full IRIs, no
/// prefixes) for the prepared-query differential.
fn render_select_all(patterns: &[TriplePatternAst]) -> String {
    let node = |n: &NodeRef| match n {
        NodeRef::Var(v) => format!("?{v}"),
        NodeRef::Const(Term::Iri(i)) => format!("<{i}>"),
        NodeRef::Const(other) => unreachable!("strategy only emits IRIs: {other:?}"),
    };
    let pats: Vec<String> = patterns
        .iter()
        .map(|t| {
            let p = match &t.p {
                PropPath::Iri(i) => format!("<{i}>"),
                PropPath::Var(v) => format!("?{v}"),
                other => unreachable!("strategy only emits iri/var predicates: {other:?}"),
            };
            format!("{} {} {}", node(&t.s), p, node(&t.o))
        })
        .collect();
    format!("SELECT * WHERE {{ {} }}", pats.join(" . "))
}

/// SPARQL LIMIT/OFFSET laws on a concrete graph (not fuzzed inputs — the
/// query text is fixed; the law must hold for any limit/offset).
#[test]
fn sparql_limit_offset_laws() {
    let kg = llmkg::kg::synth::movies(77, llmkg::kg::synth::Scale::tiny());
    let base = "PREFIX v: <http://llmkg.dev/vocab/> SELECT ?f WHERE { ?f a v:Film } ORDER BY ?f";
    let all = execute_sparql_with(&kg.graph, base, &ExecOptions::default()).unwrap();
    let n = all.len();
    for limit in [0usize, 1, 3, n, n + 5] {
        for offset in [0usize, 1, n / 2, n, n + 3] {
            let q = format!("{base} LIMIT {limit} OFFSET {offset}");
            let rs = execute_sparql_with(&kg.graph, &q, &ExecOptions::default()).unwrap();
            let expected = n.saturating_sub(offset).min(limit);
            assert_eq!(rs.len(), expected, "limit {limit} offset {offset}");
            // the slice agrees with the unmodified query
            for (i, row) in rs.to_terms().iter().enumerate() {
                assert_eq!(row, &all.to_terms()[offset + i]);
            }
        }
    }
}

/// The chatbot runs every turn query through a prepared plan bound to the
/// anchor. Its reply must still be what the reply's own SPARQL text
/// returns when parsed and planned from scratch: over generated 1–3-hop
/// questions plus pronoun follow-ups on every domain, each KG-answered
/// turn names exactly the rows of `reply.sparql` executed fresh.
#[test]
fn chatbot_replies_match_their_sparql_executed_fresh() {
    use llmkg::kgqa::datasets::{generate_dataset, rel_phrase};
    use llmkg::kgqa::{ChatBot, RouterDecision};
    use llmkg::{Domain, Workbench, WorkbenchConfig};

    let mut kg_turns = 0;
    for domain in [
        Domain::Movies,
        Domain::Academic,
        Domain::Geo,
        Domain::Biomed,
    ] {
        let wb = Workbench::build(&WorkbenchConfig {
            domain,
            entities_per_class: 24,
            ..WorkbenchConfig::default()
        });
        let g = wb.graph();
        let mut bot = ChatBot::new(g, &wb.slm);
        for item in generate_dataset(g, 5, 12, 3) {
            // the question names its anchor; the follow-ups reach it only
            // through the bot's focus entity
            let follow_ups = g
                .outgoing(item.anchor)
                .into_iter()
                .take(3)
                .map(|(p, _)| format!("And what is it {}?", rel_phrase(g, p)));
            for utterance in std::iter::once(item.question.clone()).chain(follow_ups) {
                let reply = bot.handle(&utterance);
                if reply.decision != RouterDecision::KgQuery {
                    continue;
                }
                let sparql = reply.sparql.as_deref().expect("KG replies carry SPARQL");
                let fresh = execute_sparql_with(g, sparql, &ExecOptions::default())
                    .expect("a reply's SPARQL runs");
                let names: Vec<String> = fresh
                    .values("answer")
                    .iter()
                    .map(|t| g.display_term(t))
                    .collect();
                assert_eq!(
                    reply.text,
                    names.join(", "),
                    "{}: {utterance}",
                    domain.name()
                );
                assert_eq!(reply.rows, fresh.len(), "{}: {utterance}", domain.name());
                kg_turns += 1;
            }
        }
    }
    assert!(kg_turns >= 200, "too few KG-answered turns: {kg_turns}");
}

// --- retrieval: flat-arena index vs the seed brute-force ---------------

const RETR_DIM: usize = 8;

/// Random document sets including exact zero vectors (the embedder emits
/// those for empty text), which is where the seed's `unwrap_or(Equal)`
/// comparator used to make hit order scan-dependent.
fn doc_vectors_strategy() -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(vector_strategy(), 0..32)
}

fn vector_strategy() -> impl Strategy<Value = Vec<f32>> {
    (proptest::collection::vec(-1.0f64..1.0, RETR_DIM), 0u8..8).prop_map(|(v, tag)| {
        if tag == 0 {
            vec![0.0; RETR_DIM]
        } else {
            v.into_iter().map(|x| x as f32).collect()
        }
    })
}

proptest! {
    /// The arena index (pre-normalized rows, dot kernel, bounded-heap
    /// top-k) returns the seed brute-force's hits in the seed's order.
    /// The two pipelines round differently (sequential cosine vs chunked
    /// dot over normalized rows), so where ids disagree at a position the
    /// scores must be a floating-point near-tie — any larger divergence
    /// is a real ranking bug.
    #[test]
    fn arena_search_matches_seed_brute_force(
        vectors in doc_vectors_strategy(),
        query in vector_strategy(),
        k in 0usize..12,
    ) {
        use llmkg::kgrag::reference::seed_search_exact;
        use llmkg::kgrag::VectorIndex;
        let index = VectorIndex::build(vectors.clone());
        let (arena, _) = index.search(&query, k, &llmkg::obs::Span::disabled());
        let seed = seed_search_exact(&vectors, &query, k);
        prop_assert_eq!(arena.len(), seed.len());
        for (pos, (a, s)) in arena.iter().zip(&seed).enumerate() {
            if a.0 != s.0 {
                prop_assert!(
                    (a.1 - s.1).abs() < 1e-5,
                    "rank {} diverged beyond rounding: arena {:?} vs seed {:?}",
                    pos, a, s
                );
            }
        }
    }

    /// `search` is bit-identical to the sequential per-row scan in
    /// `kgrag::reference` — same ids, same score bit patterns — for
    /// every query of a generated set, over corpora that include exact
    /// zero vectors and queries that include NaN components. The search
    /// scores tiles through `matmul_tile` and fast-rejects against a
    /// cached heap floor, so any rounding or comparator drift shows up
    /// here as a bit mismatch rather than a near-tie.
    #[test]
    fn search_matches_reference_scan_bitwise(
        vectors in doc_vectors_strategy(),
        queries in proptest::collection::vec(query_strategy(), 0..6),
        k in 0usize..10,
    ) {
        use llmkg::kgrag::reference::scan_exact;
        use llmkg::kgrag::VectorIndex;
        let index = VectorIndex::build(vectors);
        for (qi, q) in queries.iter().enumerate() {
            let (hits, _) = index.search(q, k, &llmkg::obs::Span::disabled());
            let want: Vec<(usize, u32)> = scan_exact(&index, q, k)
                .into_iter()
                .map(|(i, s)| (i, s.to_bits()))
                .collect();
            let got: Vec<(usize, u32)> =
                hits.iter().map(|&(i, s)| (i, s.to_bits())).collect();
            prop_assert!(
                want == got,
                "query {} diverged: scan {:?} vs search {:?}",
                qi, want, got
            );
        }
    }

    /// Every SIMD path the host can run produces the scalar kernel's
    /// exact bit pattern for the single-pair dot product, across vector
    /// lengths that exercise full 8-lane blocks, the scalar tail, and
    /// length 0, with NaN and zero inputs included.
    #[test]
    fn simd_dot_paths_match_scalar_bitwise(
        pair in kernel_pair_strategy(),
    ) {
        use llmkg::slm::kernel::{dot_scalar, dot_with_path, DispatchPath};
        let (a, b) = pair;
        let want = dot_scalar(&a, &b).to_bits();
        for path in DispatchPath::available() {
            let got = dot_with_path(path, &a, &b).to_bits();
            prop_assert!(
                want == got,
                "path {} diverged from scalar on len {}: {:#010x} vs {:#010x}",
                path.label(), a.len(), want, got
            );
        }
    }

    /// Every SIMD path computes the full Q×D score tile bit-identically
    /// to the scalar kernel — same mul/add order, same reduction tree —
    /// for arbitrary query/row counts and dims (including 0). Row counts
    /// reach past eight (the AVX2 register block plus a remainder), and
    /// dims include 64, the embedding width the AVX2 kernel unrolls.
    #[test]
    fn simd_matmul_paths_match_scalar_bitwise(
        n_q in 0usize..5,
        n_rows in 0usize..20,
        dim in (0usize..24).prop_map(|d| if d < 20 { d } else { 64 }),
        seed_cells in proptest::collection::vec(kernel_cell_strategy(), 0..140),
        keep_nan in 0u8..2,
    ) {
        use llmkg::slm::kernel::{matmul_tile_with_path, DispatchPath};
        // half the cases replace NaN cells: a NaN anywhere in a wide row
        // makes every dot with it NaN, which would leave NaN-free sums
        // in wide tiles almost untested
        let fill = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|i| seed_cells.get(i % seed_cells.len().max(1)).copied().unwrap_or(0.0))
                .map(|x| if keep_nan == 0 && x.is_nan() { 0.5 } else { x })
                .collect()
        };
        let queries = fill(n_q * dim);
        let rows = fill(n_rows * dim);
        let mut want = vec![0.0f32; n_q * n_rows];
        matmul_tile_with_path(DispatchPath::Scalar, &queries, n_q, &rows, n_rows, dim, &mut want);
        for path in DispatchPath::available() {
            let mut got = vec![0.0f32; n_q * n_rows];
            matmul_tile_with_path(path, &queries, n_q, &rows, n_rows, dim, &mut got);
            let want_bits: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            let got_bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            prop_assert!(
                want_bits == got_bits,
                "path {} diverged on {}x{}x{}",
                path.label(), n_q, n_rows, dim
            );
        }
    }
}

/// Queries for the search differential test: the document distribution
/// plus an occasional NaN component, which must flow through the scan's
/// fast-reject without reordering hits (NaN fails `<=`, so poisoned
/// scores always take the slow comparator path).
fn query_strategy() -> impl Strategy<Value = Vec<f32>> {
    (vector_strategy(), 0u8..6).prop_map(|(mut v, tag)| {
        if tag == 1 {
            v[0] = f32::NAN;
        }
        v
    })
}

/// Scalar cells for the raw-kernel differential tests: finite values
/// plus exact zero and NaN.
fn kernel_cell_strategy() -> impl Strategy<Value = f32> {
    (-1.0f64..1.0, 0u8..8).prop_map(|(x, tag)| match tag {
        0 => 0.0,
        1 => f32::NAN,
        _ => x as f32,
    })
}

/// Slice pairs for the dot-product differential test: equal lengths
/// spanning sub-lane tails, exact 8-lane blocks, and multi-block spans
/// (generated at max length and truncated, since the vendored proptest
/// has no `prop_flat_map`).
fn kernel_pair_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (
        proptest::collection::vec(kernel_cell_strategy(), 40),
        proptest::collection::vec(kernel_cell_strategy(), 40),
        0usize..=40,
    )
        .prop_map(|(mut a, mut b, len)| {
            a.truncate(len);
            b.truncate(len);
            (a, b)
        })
}

// --- entity-name index vs the per-entity scan it replaced --------------

/// Characters whose case mappings are hazards for byte-offset code:
/// 'İ' lowercases to two chars (2 → 3 bytes), the Kelvin sign 'K' to a
/// one-byte 'k', 'Σ' to 'σ' or word-final 'ς' depending on context, and
/// 'ß' uppercases to "SS".
const NAME_ALPHABET: &[char] = &[
    'a', 'b', 'k', 'i', 's', 'A', 'B', ' ', 'İ', 'Σ', 'ς', 'σ', '\u{212A}', 'ß',
];

/// A short name fragment over [`NAME_ALPHABET`] (often empty or 1–2
/// bytes, so duplicate and too-short labels are common).
fn name_fragment() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..NAME_ALPHABET.len(), 0..5)
        .prop_map(|ix| ix.into_iter().map(|i| NAME_ALPHABET[i]).collect())
}

/// One entity: `(namespace kind, local-name fragment, label kind,
/// label fragment, appears as object)`. Kinds 0–2 are `SYNTH_ENTITY`
/// IRIs, 3 another namespace; label kinds 0–1 add no label.
fn named_entity_strategy() -> impl Strategy<Value = (u8, String, u8, String, bool)> {
    (0u8..4, name_fragment(), 0u8..4, name_fragment(), 0u8..2)
        .prop_map(|(ns, local, lk, label, obj)| (ns, local, lk, label, obj == 1))
}

/// A text piece: `(kind, entity pick, case-flip mask, filler)`. Kinds
/// 0–2 copy an entity's display name with flipped case, 3 inserts the
/// filler fragment.
fn text_piece_strategy() -> impl Strategy<Value = (u8, usize, u64, String)> {
    (0u8..4, 0usize..64, 0u64..u64::MAX, name_fragment())
}

/// Flip the case of the chars whose bit is set in `mask`.
fn flip_case(s: &str, mask: u64) -> String {
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if mask >> (i % 64) & 1 == 0 {
            out.push(c);
        } else if c.is_lowercase() {
            out.extend(c.to_uppercase());
        } else {
            out.extend(c.to_lowercase());
        }
    }
    out
}

/// The scan every linking site ran before the index: walk every entity,
/// keep the synthetic-namespace ones, and test each lowercase display
/// name against the lowercased text. Returns `(entity, display name,
/// lowercase name)` for every non-empty lowercase name that occurs, in
/// entity order.
fn scan_mentions(g: &Graph, text: &str) -> Vec<(llmkg::kg::Sym, String, String)> {
    let lower = text.to_lowercase();
    let mut out = Vec::new();
    for e in g.entities() {
        let Some(iri) = g.resolve(e).as_iri() else {
            continue;
        };
        if !iri.starts_with(llmkg::kg::namespace::SYNTH_ENTITY) {
            continue;
        }
        let name = g.display_name(e);
        let lname = name.to_lowercase();
        if !lname.is_empty() && lower.contains(&lname) {
            out.push((e, name, lname));
        }
    }
    out
}

/// The longest-mention loop of the old anchor linkers.
fn scan_longest(g: &Graph, text: &str) -> Option<llmkg::kg::Sym> {
    let mut best: Option<(usize, llmkg::kg::Sym)> = None;
    for (e, name, _) in scan_mentions(g, text) {
        if name.len() >= 3 {
            match best {
                Some((len, _)) if name.len() <= len => {}
                _ => best = Some((name.len(), e)),
            }
        }
    }
    best.map(|(_, e)| e)
}

proptest! {
    /// `EntityNames` answers exactly as the per-entity scan: the same
    /// catalog, the same longest mention (display name ≥ 3 bytes, longest
    /// in bytes, smallest `Sym` on ties), and the same mention sets under
    /// both the display-length filter (`kgrag::inject_knowledge`) and the
    /// lowercase-length filter (`kgqa` multi-hop linking), over labels
    /// with case-folding hazards and texts built from their fragments.
    #[test]
    fn entity_name_index_agrees_with_scan(
        entities in proptest::collection::vec(named_entity_strategy(), 0..24),
        texts in proptest::collection::vec(
            proptest::collection::vec(text_piece_strategy(), 0..6),
            1..6,
        ),
    ) {
        use llmkg::kg::namespace::{RDFS_LABEL, SYNTH_ENTITY};
        let mut g = Graph::new();
        for (i, (ns, local, label_kind, label, as_object)) in entities.iter().enumerate() {
            let iri = if *ns < 3 {
                format!("{SYNTH_ENTITY}{local}")
            } else {
                format!("http://other/{local}")
            };
            let hub = Term::iri(format!("http://other/hub{}", i % 3));
            let p = Term::iri("http://p/r0");
            if *as_object {
                g.insert_terms(hub, p, Term::iri(iri.clone()));
            } else {
                g.insert_terms(Term::iri(iri.clone()), p, hub);
            }
            if *label_kind >= 2 {
                g.insert_terms(Term::iri(iri), Term::iri(RDFS_LABEL), Term::lit(label.clone()));
            }
        }
        let index = g.entity_names();
        let catalog: Vec<(llmkg::kg::Sym, String)> = g
            .entities()
            .into_iter()
            .filter(|&e| g.resolve(e).as_iri().is_some_and(|i| i.starts_with(SYNTH_ENTITY)))
            .map(|e| (e, g.display_name(e)))
            .collect();
        let indexed: Vec<(llmkg::kg::Sym, String)> =
            index.entries().iter().map(|e| (e.sym, e.name.clone())).collect();
        prop_assert_eq!(&indexed, &catalog);
        for pieces in &texts {
            let mut text = String::new();
            for (kind, pick, mask, filler) in pieces {
                match (*kind < 3, catalog.get(pick % catalog.len().max(1))) {
                    (true, Some((_, name))) => text.push_str(&flip_case(name, *mask)),
                    _ => text.push_str(filler),
                }
            }
            let scanned = scan_mentions(&g, &text);
            let found = index.mentions(&text);
            let found_triples: Vec<_> =
                found.iter().map(|e| (e.sym, e.name.clone(), e.lower.clone())).collect();
            prop_assert!(found_triples == scanned, "text {:?}: {:?} vs {:?}", text, found_triples, scanned);
            let by_display = |f: &dyn Fn(&str, &str) -> bool| -> Vec<llmkg::kg::Sym> {
                scanned.iter().filter(|m| f(&m.1, &m.2)).map(|m| m.0).collect()
            };
            let indexed_by = |f: &dyn Fn(&str, &str) -> bool| -> Vec<llmkg::kg::Sym> {
                found.iter().filter(|e| f(&e.name, &e.lower)).map(|e| e.sym).collect()
            };
            let display_len = |name: &str, _: &str| name.len() >= 3;
            let lower_len = |_: &str, lower: &str| lower.len() >= 3;
            prop_assert_eq!(indexed_by(&display_len), by_display(&display_len));
            prop_assert_eq!(indexed_by(&lower_len), by_display(&lower_len));
            let (longest, want) = (index.longest_mention(&text), scan_longest(&g, &text));
            prop_assert!(longest == want, "text {:?}: {:?} vs {:?}", text, longest, want);
        }
    }
}
