//! Before/after benchmark for the executor rewrite.
//!
//! Five series, all correctness-gated, all written to
//! `reports/query_bench.json`:
//!
//! 1. the seed's reference evaluator (map-based bindings, per-binding
//!    join ordering, preserved in `kgquery::reference`) vs the compiled
//!    slot-based executor on the standard query workload;
//! 2. `ORDER BY`-free `LIMIT k` queries: full materialization (the PR 1
//!    compiled executor, `streaming: false`) vs row-budget streaming;
//! 3. `encoded_join` — the flat sorted-arena store vs the seed's
//!    BTreeSet index graph at million-triple scale: bytes per triple
//!    (live-heap deltas) and two-hop join throughput (per-binding
//!    probes vs one sorted-merge pass), gated by an order-sensitive
//!    checksum proving bit-identical output;
//! 4. `prepared_repeat` — plan-once-run-many through the
//!    [`kgquery::PlanCache`]: per-iteration planning overhead of a
//!    cache hit vs cold parse+compile (gated ≥5× in full mode), two
//!    passes over one cache with per-pass hit/miss counts and the
//!    second-pass hit rate, and bit-identical gates for cached-vs-fresh
//!    results and parameter-bound vs `VALUES`-injected execution;
//! 5. `result_allocs` — heap allocations per result row of one wide
//!    SELECT run through a prepared plan, counted by the global
//!    allocator: a deterministic work counter CI gates exactly.
//!
//! Flags:
//!
//! * `--smoke` — CI mode: tiny graphs, single-iteration timings, report
//!   written to `reports/query_bench_smoke.json`. Validates that the
//!   harness runs and the JSON schema holds, not the numbers.
//! * `--obs` — additionally answer seeded questions through the
//!   workbench's chatbot and RAG paths under a tracer and embed the
//!   per-answer [`llmkg::AnswerProfile`]s in the report's `profiles`
//!   section.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};

use kg::synth::{movies, FreebaseLikeConfig, Scale};
use kg::{BaselineGraph, Graph, Sym, TriplePattern};
use kgquery::ast::Query;
use kgquery::exec::ExecOptions;
use kgquery::{exec, parser, reference, QueryError, ResultSet};
use kgrag::RagMode;
use llmkg::{Workbench, WorkbenchConfig};
use llmkg_bench::{calibrate, header, time_ns, write_report, Timing};
use serde_json::{json, Value};

/// Heap meter: every allocation and free updates one relaxed live-bytes
/// counter, so the delta across an index build is the bytes that build
/// retains (transient allocations — sort scratch, growth slack — cancel
/// out by the time the build returns; the `encoded_join` memory
/// comparison). A second counter counts allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc`; the `result_allocs` series).
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers all allocation to `System`; only the bookkeeping is ours.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

fn allocations() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

const QUERIES: [(&str, &str); 6] = [
    (
        "bgp_join",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?a ?d WHERE { ?f v:starring ?a . ?f v:directedBy ?d }",
    ),
    (
        "property_path",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?x WHERE { ?f v:directedBy/v:spouse ?x }",
    ),
    // evaluates the closure once per bound ?d — the per-query path memo
    // answers repeated directors from cache (reference recomputes each)
    (
        "path_closure_reuse",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?f ?x WHERE { ?f v:directedBy ?d . ?d v:spouse+ ?x }",
    ),
    (
        "filter_order_limit",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?f ?y WHERE { ?f v:releaseYear ?y FILTER(?y > 2000) } \
         ORDER BY DESC(?y) LIMIT 10",
    ),
    (
        "distinct_group",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT DISTINCT ?g WHERE { ?f v:hasGenre ?g . ?f v:starring ?a }",
    ),
    // non-DISTINCT twin of distinct_group: the second stage keeps a wide
    // sorted frontier keyed on ?f, so both take the merge-join path; the
    // twin prices the join without the dedup
    (
        "genre_star_join",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?g ?a WHERE { ?f v:hasGenre ?g . ?f v:starring ?a }",
    ),
];

/// `ORDER BY`-free `LIMIT k`: any k solutions are a correct answer, so
/// the streaming evaluator may stop after k extension chains instead of
/// materializing the full join frontier.
const LIMIT_QUERIES: [(&str, &str); 3] = [
    (
        "limit_join",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?a ?d WHERE { ?f v:starring ?a . ?f v:directedBy ?d } LIMIT 10",
    ),
    (
        "limit_offset_scan",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?f ?a WHERE { ?f v:starring ?a } LIMIT 5 OFFSET 20",
    ),
    (
        "ask_exists",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         ASK { ?f v:starring ?a . ?f v:directedBy ?d }",
    ),
];

/// The `result_allocs` query: one pattern, one row per film, an IRI and
/// a typed literal per row.
const RESULT_ALLOCS_QUERY: &str = "PREFIX v: <http://llmkg.dev/vocab/> \
     SELECT ?f ?y WHERE { ?f v:releaseYear ?y }";

/// Target wall time of one timed pass ([`calibrate`]): 200 ms.
const PASS_NS: u128 = 200_000_000;
/// Bounds on the iteration count of one timed pass.
const PASS_ITERS: RangeInclusive<u32> = 5..=500;

/// Execute a parsed query with no span attached.
fn run<'g>(g: &'g Graph, q: &Query, opts: &ExecOptions) -> Result<ResultSet<'g>, QueryError> {
    exec::execute(g, q, opts, &obs::Span::disabled())
}

/// Measure one evaluation mode of the compiled executor.
fn time_exec(smoke: bool, g: &Graph, q: &Query, opts: &ExecOptions) -> Timing {
    let iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
        black_box(run(g, q, opts).expect("compiled runs"));
    });
    time_ns(iters, || {
        black_box(run(g, q, opts).expect("compiled runs"));
    })
}

/// Answer seeded questions through the chatbot and RAG paths under a
/// tracer; returns their `AnswerProfile`s as JSON for the report, plus
/// the summed (fallbacks, faults_injected) resilience counters — zeros
/// on every healthy run.
fn answer_profiles(smoke: bool) -> (Vec<Value>, u64, u64) {
    let wb = Workbench::build(&WorkbenchConfig {
        entities_per_class: if smoke { 10 } else { 40 },
        ..Default::default()
    });
    let g = wb.graph();
    let film_class = g
        .pool()
        .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
        .expect("movies domain has films");
    let film = g.display_name(g.instances_of(film_class)[0]);

    // Warm the workbench's shared plan cache with the question shape the
    // profiled turn will ask: the recorded chatbot profile then shows the
    // steady-state serving path (`plan_cache.hits` ≥ 1), not a cold cache.
    wb.chatbot().handle(&format!("What is {film} directed by?"));

    let runs: Vec<(&str, llmkg::AnswerProfile)> = vec![
        (
            "chatbot",
            wb.profile_answer(&format!("What is {film} directed by?")),
        ),
        (
            "rag_naive",
            wb.profile_rag_answer(RagMode::Naive, &format!("Who directed {film}?")),
        ),
        (
            "rag_modular",
            wb.profile_rag_answer(RagMode::Modular, &format!("Tell me about {film}")),
        ),
        ("hybrid", {
            let vpred = format!("{}directedBy", kg::namespace::SYNTH_VOCAB);
            wb.profile_hybrid_answer(
                &format!(
                    "SELECT ?f ?y WHERE {{ ?f a <{}Film> . ?f <{vpred}> ?y }}",
                    kg::namespace::SYNTH_VOCAB
                ),
                [vpred],
            )
            .expect("hybrid profile query runs")
        }),
    ];
    println!(
        "{:<14} {:<10} {:>10} {:>12} {:>12} {:>14}",
        "profile", "route", "rows", "candidates", "ctx chars", "index probes"
    );
    let fallbacks = runs
        .iter()
        .map(|(_, p)| p.resilience.fallbacks as u64)
        .sum();
    let faults = runs.iter().map(|(_, p)| p.resilience.faults_injected).sum();
    let values = runs
        .iter()
        .map(|(name, p)| {
            println!(
                "{name:<14} {:<10} {:>10} {:>12} {:>12} {:>14}",
                p.route,
                p.executor.rows,
                p.retrieval.candidates,
                p.retrieval.context_chars,
                p.executor.stats.index_probes,
            );
            json!({"name": name, "profile": p.to_json()})
        })
        .collect();
    (values, fallbacks, faults)
}

fn stats_json(stats: &kgquery::ExecStats) -> Value {
    json!({
        "patterns_scanned": stats.patterns_scanned,
        "index_probes": stats.index_probes,
        "intermediate_bindings": stats.intermediate_bindings,
        "path_cache_hits": stats.path_cache_hits,
        "merge_joins": stats.merge_joins,
    })
}

/// Order-sensitive FNV-style fold over one joined `(a, c)` pair: equal
/// checksums prove both join strategies emitted the same rows in the
/// same order, not merely the same multiset.
fn fold(h: u64, a: Sym, c: Sym) -> u64 {
    h.wrapping_mul(0x0000_0100_0000_01b3)
        .wrapping_add((u64::from(a.0) << 32) | u64::from(c.0))
}

/// Two-hop join `?a p1 ?b . ?b p2 ?c` the seed engine's way: walk the
/// `p1` frontier, then issue one SPO range probe per binding (a fresh
/// BTree descent each time). Returns `(rows, checksum)`.
fn probe_join(g: &BaselineGraph, p1: Sym, p2: Sym) -> (u64, u64) {
    let mut rows = 0u64;
    let mut checksum = 0u64;
    let frontier = TriplePattern {
        s: None,
        p: Some(p1),
        o: None,
    };
    for t in g.match_pattern(frontier) {
        for c in g.objects(t.o, p2) {
            rows += 1;
            checksum = fold(checksum, t.s, c);
        }
    }
    (rows, checksum)
}

/// The same join as a single sorted-merge pass over the flat arena: a
/// bound-predicate [`Graph::scan_pattern`] walks the POS permutation, so
/// the frontier arrives already sorted by the join key `?b` with zero
/// sort work, and one monotone [`Graph::merge_probe`] seek per distinct
/// key answers every duplicate from the cached matches.
fn merge_join(g: &Graph, p1: Sym, p2: Sym) -> (u64, u64) {
    let mut probe = g
        .merge_probe(p2, true)
        .expect("encoded_join graph is compacted");
    let mut rows = 0u64;
    let mut checksum = 0u64;
    let mut cached: Option<(Sym, Vec<Sym>)> = None;
    let frontier = TriplePattern {
        s: None,
        p: Some(p1),
        o: None,
    };
    for t in g.scan_pattern(frontier) {
        if cached.as_ref().map(|(k, _)| *k) != Some(t.o) {
            let matches: Vec<Sym> = probe.seek(t.o).collect();
            cached = Some((t.o, matches));
        }
        let (_, matches) = cached.as_ref().expect("seeded above");
        for &c in matches {
            rows += 1;
            checksum = fold(checksum, t.s, c);
        }
    }
    (rows, checksum)
}

/// The `encoded_join` series: the flat sorted-arena store against the
/// seed's three-BTreeSet graph at scale. Two measurements, one gate:
///
/// * memory — live-heap deltas (via the counting allocator) of building
///   each index structure from the same interned rows; neither side
///   owns a term pool, so the deltas are triple/index storage only;
/// * join throughput — the two-hop join above, per-binding probes vs
///   one sorted-merge pass, after asserting both produce bit-identical
///   output (count and order-sensitive checksum).
fn encoded_join_series(smoke: bool) -> Value {
    // zipf 0.6 keeps the scale-free shape but bounds hub fan-out, so the
    // timed work is index lookups (what the arena changes) rather than
    // emission of a hub×hub cross product (identical on both sides).
    let config = FreebaseLikeConfig {
        n_entities: if smoke { 3_000 } else { 120_000 },
        n_relations: if smoke { 8 } else { 24 },
        n_triples: if smoke { 30_000 } else { 1_200_000 },
        zipf_exponent: 0.6,
        with_labels: false,
    };
    let fb = kg::synth::freebase_like(7, &config).expect("freebase_like generates");
    let source = fb.graph;
    let rows: Vec<(Sym, Sym, Sym)> = source.iter().map(|t| (t.s, t.p, t.o)).collect();
    let n = rows.len() as f64;

    let before = live_bytes();
    let mut flat = Graph::new();
    flat.bulk_load(rows.iter().copied());
    let flat_bytes = live_bytes().saturating_sub(before);
    assert!(
        flat.is_compacted(),
        "bulk_load must yield a compacted arena"
    );

    let before = live_bytes();
    let mut btree = BaselineGraph::new();
    for &(s, p, o) in &rows {
        btree.insert(s, p, o);
    }
    let btree_bytes = live_bytes().saturating_sub(before);
    assert_eq!(flat.len(), btree.len(), "stores disagree on triple count");

    // Join predicates: the two busiest multi-object relations. rdf:type
    // is excluded by the distinct-object filter — its single shared
    // object would turn the hop into a cross product.
    let mut preds: Vec<(Sym, usize)> = source
        .predicates()
        .into_iter()
        .filter(|&(p, _)| source.predicate_card(p).distinct_objects > 1)
        .collect();
    preds.sort_by_key(|&(p, count)| (std::cmp::Reverse(count), p));
    assert!(preds.len() >= 2, "need two relations for the two-hop join");
    let (p1, p2) = (preds[0].0, preds[1].0);

    // correctness gate: bit-identical rows in bit-identical order
    let (probe_rows, probe_sum) = probe_join(&btree, p1, p2);
    let (merge_rows, merge_sum) = merge_join(&flat, p1, p2);
    assert_eq!(
        (merge_rows, merge_sum),
        (probe_rows, probe_sum),
        "merge join must emit the probe join's rows in the probe join's order"
    );

    let probe_iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
        black_box(probe_join(&btree, p1, p2));
    });
    let probe = time_ns(probe_iters, || {
        black_box(probe_join(&btree, p1, p2));
    });
    let merge_iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
        black_box(merge_join(&flat, p1, p2));
    });
    let merge = time_ns(merge_iters, || {
        black_box(merge_join(&flat, p1, p2));
    });

    let mem_ratio = btree_bytes as f64 / flat_bytes.max(1) as f64;
    let join_speedup = probe.median / merge.median;
    println!(
        "\nencoded join: freebase_like(7), {} triples, {} ⨝ {} = {} rows",
        rows.len(),
        source.pool().label(p1),
        source.pool().label(p2),
        probe_rows,
    );
    println!(
        "{:<22} {:>14} {:>14} {:>9}",
        "encoded_join", "btree", "flat", "ratio"
    );
    println!(
        "{:<22} {:>14.1} {:>14.1} {:>8.2}x",
        "bytes per triple",
        btree_bytes as f64 / n,
        flat_bytes as f64 / n,
        mem_ratio,
    );
    println!(
        "{:<22} {:>14.0} {:>14.0} {:>8.2}x",
        "two-hop join ns", probe.median, merge.median, join_speedup,
    );

    json!({
        "graph": {
            "generator": "freebase_like",
            "seed": 7,
            "entities": config.n_entities,
            "relations": config.n_relations,
            "triples": rows.len(),
        },
        "note": "term pool excluded on both sides; byte deltas cover triple/index storage only",
        "memory": {
            "flat_bytes": flat_bytes,
            "btree_bytes": btree_bytes,
            "flat_bytes_per_triple": flat_bytes as f64 / n,
            "btree_bytes_per_triple": btree_bytes as f64 / n,
            "ratio": mem_ratio,
        },
        "join": {
            "pattern": "?a p1 ?b . ?b p2 ?c",
            "p1": source.pool().label(p1),
            "p2": source.pool().label(p2),
            "rows": probe_rows,
            "checksum": format!("{merge_sum:016x}"),
            "probe_ns": probe.median,
            "probe_ns_quartiles": probe.quartiles(),
            "merge_ns": merge.median,
            "merge_ns_quartiles": merge.quartiles(),
            "speedup": join_speedup,
        },
    })
}

/// The `prepared_repeat` series: prepared queries + plan cache vs cold
/// parse-and-plan every execution.
///
/// * planning overhead — nanoseconds to obtain an executable plan, cold
///   (`parse` + `compile_query` each time) vs through a warm
///   [`kgquery::PlanCache`] (one normalize + map lookup). Full runs gate
///   the ratio at ≥5×; smoke runs record it only.
/// * two passes — the whole workload prepared twice against one cache:
///   pass 1 is all misses, pass 2 must be all hits (`hit_rate` = 1.0).
/// * correctness gates — every cached plan's result must be bit-identical
///   to a freshly parsed and planned execution, and running the
///   parameterized template with bound anchors must be bit-identical to
///   executing the textual `VALUES`-injected equivalent.
fn prepared_repeat_series(smoke: bool, g: &Graph) -> Value {
    use kgquery::{CacheOutcome, PlanCache};

    let cache = PlanCache::default();

    // pass 1: cold — every workload query misses and is compiled
    for (name, text) in QUERIES {
        let (_, outcome) = cache.prepare(g, text).expect("query prepares");
        assert_eq!(outcome, CacheOutcome::Miss, "first pass must miss {name}");
    }
    let pass1 = cache.stats();

    // pass 2: warm — every lookup hits, and cached plans reproduce the
    // fresh-planned results bit for bit
    for (name, text) in QUERIES {
        let (prepared, outcome) = cache.prepare(g, text).expect("query prepares");
        assert_eq!(outcome, CacheOutcome::Hit, "second pass must hit {name}");
        let cached = prepared
            .run(g, &ExecOptions::default())
            .expect("cached plan runs");
        let parsed = parser::parse(text).expect("query parses");
        let fresh = run(g, &parsed, &ExecOptions::default()).expect("fresh plan runs");
        assert_eq!(cached, fresh, "cached plan diverges on {name}");
    }
    let pass2 = cache.stats();
    let pass2_hits = pass2.hits - pass1.hits;
    let hit_rate = pass2_hits as f64 / QUERIES.len() as f64;
    assert!(
        hit_rate > 0.0,
        "second pass over an untouched graph must hit the cache"
    );

    // parameterized template ≡ VALUES-injected text, anchor by anchor
    let directed = format!("{}directedBy", kg::namespace::SYNTH_VOCAB);
    let template = format!("SELECT ?answer WHERE {{ ?anchor <{directed}> ?answer }}");
    let (prepared, _) = cache
        .prepare_with_params(g, &template, &["anchor"])
        .expect("template prepares");
    let directed_sym = g.pool().get_iri(&directed).expect("movies graph has it");
    let anchors: Vec<String> = g
        .scan_pattern(TriplePattern {
            s: None,
            p: Some(directed_sym),
            o: None,
        })
        .take(3)
        .filter_map(|t| g.resolve(t.s).as_iri().map(str::to_string))
        .collect();
    assert!(!anchors.is_empty(), "no anchors with the template relation");
    for iri in &anchors {
        let bound = prepared
            .run_with(
                g,
                &[("anchor", kg::Term::iri(iri.clone()))],
                &ExecOptions::default(),
                &obs::Span::disabled(),
            )
            .expect("bound template runs");
        let injected = format!(
            "SELECT ?answer WHERE {{ VALUES ?anchor {{ <{iri}> }} ?anchor <{directed}> ?answer }}"
        );
        let parsed = parser::parse(&injected).expect("injected text parses");
        let textual = run(g, &parsed, &ExecOptions::default()).expect("injected text runs");
        assert_eq!(
            bound, textual,
            "bound template diverges from VALUES-injected text for {iri}"
        );
    }

    // planning overhead: cold parse+compile vs warm cache lookup
    let (_, text0) = QUERIES[0];
    let cold_iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
        let q = parser::parse(text0).expect("query parses");
        black_box(exec::compile_query(g, &q));
    });
    let cold = time_ns(cold_iters, || {
        let q = parser::parse(text0).expect("query parses");
        black_box(exec::compile_query(g, &q));
    });
    let warm_iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
        black_box(cache.prepare(g, text0).expect("query prepares"));
    });
    let warm = time_ns(warm_iters, || {
        black_box(cache.prepare(g, text0).expect("query prepares"));
    });
    let (cold_ns, warm_ns) = (cold.median, warm.median);
    let plan_speedup = cold_ns / warm_ns;
    if !smoke {
        assert!(
            plan_speedup >= 5.0,
            "plan cache must cut per-iteration planning overhead ≥5×, got {plan_speedup:.2}x \
             (cold {cold_ns:.0} ns vs cached {warm_ns:.0} ns)"
        );
    }

    println!("\nprepared queries: plan once, run many (plan cache, epoch-invalidated)");
    println!(
        "{:<22} {:>14} {:>14} {:>9}",
        "prepared_repeat", "cold plan ns", "cached ns", "speedup"
    );
    println!(
        "{:<22} {cold_ns:>14.0} {warm_ns:>14.0} {plan_speedup:>8.2}x",
        "planning overhead"
    );
    println!(
        "two passes over {} queries: pass1 {} misses, pass2 {} hits (hit rate {hit_rate:.2})",
        QUERIES.len(),
        pass1.misses,
        pass2_hits,
    );

    json!({
        "workload_queries": QUERIES.len(),
        "planning": {
            "cold_plan_ns": cold_ns,
            "cold_plan_ns_quartiles": cold.quartiles(),
            "cached_plan_ns": warm_ns,
            "cached_plan_ns_quartiles": warm.quartiles(),
            "speedup": plan_speedup,
        },
        "passes": [
            {"pass": 1, "hits": pass1.hits, "misses": pass1.misses},
            {"pass": 2, "hits": pass2_hits, "misses": pass2.misses - pass1.misses},
        ],
        "hit_rate": hit_rate,
        "cache": {
            "entries": pass2.entries,
            "hits": pass2.hits,
            "misses": pass2.misses,
            "invalidations": pass2.invalidations,
        },
        "template": {
            "text": template,
            "anchors_checked": anchors.len(),
            "gate": "bound-params result bit-identical to VALUES-injected text",
        },
    })
}

/// The `result_allocs` series: heap allocations made by one
/// [`kgquery::PreparedQuery::run`] of [`RESULT_ALLOCS_QUERY`], per result
/// row. Planning happens before the count starts; the result is dropped
/// after it ends. Single-threaded and seeded, so the count repeats
/// exactly from run to run.
fn result_allocs_series(g: &Graph) -> Value {
    let prepared =
        kgquery::PreparedQuery::prepare(g, RESULT_ALLOCS_QUERY, &[]).expect("query prepares");
    let before = allocations();
    let rs = prepared
        .run(g, &ExecOptions::default())
        .expect("query runs");
    let allocs = allocations() - before;
    let rows = rs.len();
    assert!(rows > 0, "result_allocs query returns no rows");
    let per_row = allocs as f64 / rows as f64;
    println!(
        "\nresult allocations: {rows} rows, {allocs} allocations in PreparedQuery::run \
         ({per_row:.2} per row)"
    );
    json!({
        "query": RESULT_ALLOCS_QUERY,
        "rows": rows,
        "allocations": allocs,
        "allocs_per_row": per_row,
    })
}

/// The PR 1 compiled executor: full materialization.
fn materializing() -> ExecOptions {
    ExecOptions {
        streaming: false,
        ..ExecOptions::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut obs = false;
    let mut deadline_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--obs" => obs = true,
            "--deadline-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => deadline_ms = Some(v),
                None => {
                    eprintln!("--deadline-ms requires an integer value (milliseconds)");
                    std::process::exit(2);
                }
            },
            unknown => {
                eprintln!(
                    "unknown flag {unknown}; usage: query_bench [--smoke] [--obs] [--deadline-ms <n>]"
                );
                std::process::exit(2);
            }
        }
    }

    header(if smoke {
        "Executor rewrite: reference vs compiled (SMOKE — schema only)"
    } else {
        "Executor rewrite: reference (seed) vs compiled slot-based"
    });
    let scale = if smoke {
        Scale {
            entities_per_class: 12,
        }
    } else {
        Scale::medium()
    };
    let kg = movies(11, scale);
    let g = kg.graph;
    println!(
        "graph: movies(11, n={}) — {} triples\n",
        scale.entities_per_class,
        g.len()
    );
    println!(
        "{:<22} {:>14} {:>14} {:>9}",
        "query", "reference ns", "compiled ns", "speedup"
    );

    let mut entries: Vec<Value> = Vec::new();
    for (name, text) in QUERIES {
        let q = parser::parse(text).expect("query parses");
        // correctness gate: both executors must return the same table
        let baseline = reference::execute(&g, &q).expect("reference runs");
        let compiled = run(&g, &q, &ExecOptions::default()).expect("compiled runs");
        assert_eq!(compiled, baseline, "executors diverge on {name}");

        let ref_iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
            black_box(reference::execute(&g, &q).expect("reference runs"));
        });
        let ref_t = time_ns(ref_iters, || {
            black_box(reference::execute(&g, &q).expect("reference runs"));
        });
        let new_t = time_exec(smoke, &g, &q, &ExecOptions::default());
        let (ref_ns, new_ns) = (ref_t.median, new_t.median);
        let speedup = ref_ns / new_ns;
        println!("{name:<22} {ref_ns:>14.0} {new_ns:>14.0} {speedup:>8.2}x");
        entries.push(json!({
            "query": name,
            "reference_ns": ref_ns,
            "reference_ns_quartiles": ref_t.quartiles(),
            "compiled_ns": new_ns,
            "compiled_ns_quartiles": new_t.quartiles(),
            "speedup": speedup,
            "rows": compiled.len(),
            "stats": stats_json(&compiled.stats),
        }));
    }

    // -- streaming: LIMIT k without ORDER BY stops after k extensions ----
    println!(
        "\n{:<22} {:>14} {:>14} {:>9}",
        "limit query", "materialize ns", "streamed ns", "speedup"
    );
    let streaming_only = ExecOptions::default();
    let mut limit_entries: Vec<Value> = Vec::new();
    for (name, text) in LIMIT_QUERIES {
        let q = parser::parse(text).expect("query parses");
        // gate: streaming returns exactly the materialized executor's rows
        let full = run(&g, &q, &materializing()).expect("materialized runs");
        let streamed = run(&g, &q, &streaming_only).expect("streamed runs");
        assert_eq!(streamed, full, "streaming diverges on {name}");

        let full_t = time_exec(smoke, &g, &q, &materializing());
        let stream_t = time_exec(smoke, &g, &q, &streaming_only);
        let (full_ns, stream_ns) = (full_t.median, stream_t.median);
        let speedup = full_ns / stream_ns;
        println!("{name:<22} {full_ns:>14.0} {stream_ns:>14.0} {speedup:>8.2}x");
        limit_entries.push(json!({
            "query": name,
            "materialized_ns": full_ns,
            "materialized_ns_quartiles": full_t.quartiles(),
            "streamed_ns": stream_ns,
            "streamed_ns_quartiles": stream_t.quartiles(),
            "speedup": speedup,
            "rows": streamed.len(),
            "streamed_bindings": streamed.stats.intermediate_bindings,
            "materialized_bindings": full.stats.intermediate_bindings,
        }));
    }

    // -- result_allocs: allocations per row of one wide SELECT ----------
    // One row per film: 64 rows in smoke mode, 6,000 in full mode.
    let allocs_n: usize = if smoke { 64 } else { 6000 };
    let big = movies(
        11,
        Scale {
            entities_per_class: allocs_n,
        },
    );
    let result_allocs_entry = result_allocs_series(&big.graph);

    // -- encoded_join: flat arena vs BTree storage at scale --------------
    let encoded_entry = encoded_join_series(smoke);

    // -- prepared_repeat: plan once through the cache, run many ----------
    let prepared_entry = prepared_repeat_series(smoke, &g);

    // -- --obs: per-answer profiles through the workbench ----------------
    let (profiles, fallbacks, faults_injected) = if obs {
        header("Per-answer observability profiles (--obs)");
        answer_profiles(smoke)
    } else {
        (Vec::new(), 0, 0)
    };

    // -- resilience: rerun the workload once under a wall-clock budget ---
    // With a generous deadline every query completes and all counters stay
    // zero (the happy path CI asserts on); a tiny deadline demonstrates
    // prompt LimitExceeded / truncated termination instead of a hang.
    let mut budget_completed = 0u64;
    let mut budget_limit_hits = 0u64;
    let mut budget_truncated = 0u64;
    if let Some(ms) = deadline_ms {
        let opts = ExecOptions::with_limits(
            resilience::ResourceLimits::unlimited().with_wall(std::time::Duration::from_millis(ms)),
        );
        for (name, text) in QUERIES.iter().chain(LIMIT_QUERIES.iter()) {
            let q = parser::parse(text).expect("query parses");
            match run(&g, &q, &opts) {
                Ok(rs) if rs.truncated => {
                    budget_truncated += 1;
                    budget_limit_hits += 1;
                }
                Ok(_) => budget_completed += 1,
                Err(QueryError::LimitExceeded { .. }) => budget_limit_hits += 1,
                Err(e) => panic!("unexpected error under deadline on {name}: {e}"),
            }
        }
        println!(
            "\ndeadline {ms} ms: {budget_completed} completed, \
             {budget_limit_hits} limit hits ({budget_truncated} truncated)"
        );
    }
    let resilience_entry = json!({
        "deadline_ms": deadline_ms.map(Value::from).unwrap_or(Value::Null),
        "budgeted_queries": {
            "completed": budget_completed,
            "limit_hits": budget_limit_hits,
            "truncated": budget_truncated,
        },
        "fallbacks": fallbacks,
        "faults_injected": faults_injected,
    });

    let report_name = if smoke {
        "query_bench_smoke"
    } else {
        "query_bench"
    };
    write_report(
        report_name,
        &json!({
            "experiment": report_name,
            "mode": if smoke { "smoke" } else { "full" },
            "graph": {"generator": "movies", "seed": 11, "entities_per_class": scale.entities_per_class, "triples": g.len()},
            "baseline": "reference executor (BTreeMap bindings, per-binding join ordering)",
            "candidate": "compiled executor (slot bindings, histogram join ordering, streaming LIMIT)",
            "queries": entries,
            "limit_streaming": {
                "baseline": "compiled executor, full materialization (PR 1 behavior)",
                "candidate": "compiled executor, row-budget streaming",
                "queries": limit_entries,
            },
            "encoded_join": encoded_entry,
            "prepared_repeat": prepared_entry,
            "result_allocs": result_allocs_entry,
            "resilience": resilience_entry,
            "profiles": Value::Array(profiles),
        }),
    );
    println!("\nwrote reports/{report_name}.json");
}
