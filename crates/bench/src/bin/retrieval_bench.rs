//! Before/after benchmark for the flat-arena retrieval kernel.
//!
//! Four series, all correctness-gated, all written to
//! `reports/retrieval_bench.json`:
//!
//! 1. **exact top-k**: the seed brute-force (`Vec<Vec<f32>>` storage,
//!    full cosine — both norms recomputed per pair — and a full
//!    O(n log n) sort; preserved in `kgrag::reference`) vs a one-query
//!    `VectorIndex::search` (unit-normalized rows, blocked dot kernel,
//!    bounded-heap top-k). Gated on identical hit-id lists per query.
//! 2. **IVF probe sweep**: recall@k of the k-means-quantized search
//!    against exact, per probe count, with the scanned-vector fraction.
//! 3. **batched query-matrix retrieval**: QPS of a Q-query `search` (the
//!    register-blocked `matmul_tile` kernel with runtime SIMD dispatch)
//!    vs the sequential per-query scan (`kgrag::reference::scan_exact`),
//!    across batch sizes. Recall is fixed by construction — the series
//!    gates on bit-identical hits — and the full run gates batch ≥ 3×
//!    per-query throughput at batch 16+.
//! 4. **IVF seeding**: shuffle vs k-means++ recall at fixed probes
//!    (regression-gated), plus the elbow heuristic's `build_auto` pick.
//!
//! Flags:
//!
//! * `--smoke` — CI mode: tiny corpus, single-iteration timings, report
//!   written to `reports/retrieval_bench_smoke.json`. Validates that the
//!   harness runs, the gates hold, and the JSON schema is stable — not
//!   the numbers.

use std::hint::black_box;
use std::ops::RangeInclusive;

use kgrag::reference::{scan_exact, seed_search_exact};
use kgrag::vector::Hit;
use kgrag::{IvfSeeding, SearchRequest, SearchStats, Strategy, VectorIndex};
use llmkg_bench::{calibrate, header, time_ns, write_report, EXP_SEED};
use serde_json::{json, Value};
use slm::embedding::{hash_vector, normalize, DIM};

/// Retrieval depth for every comparison (the acceptance metric is
/// recall@10, so the whole report uses k = 10).
const K: usize = 10;

/// Topic clusters planted in the synthetic corpus — and the k-means `k`
/// of the IVF series, so the quantizer can recover the true structure.
const TOPICS: usize = 16;

/// Target wall time of one timed pass ([`calibrate`]): 40 ms.
const PASS_NS: u128 = 40_000_000;
/// Bounds on the iteration count of one timed pass.
const PASS_ITERS: RangeInclusive<u32> = 3..=2_000;

/// A clustered synthetic corpus: doc i sits near topic `i % TOPICS` with
/// a per-doc perturbation, so IVF has real structure to recover while
/// exact search still has n distinct well-separated scores. Everything
/// derives from `hash_vector`, so the corpus is deterministic for a
/// given (n, tag) without any RNG state.
fn make_corpus(n: usize, tag: &str) -> Vec<Vec<f32>> {
    let topics: Vec<Vec<f32>> = (0..TOPICS)
        .map(|t| hash_vector(&format!("{tag}-topic-{t}")))
        .collect();
    (0..n)
        .map(|i| blend(&topics[i % TOPICS], &format!("{tag}-doc-{i}"), 0.35))
        .collect()
}

/// Queries near the planted topics, with their own (smaller) noise.
fn make_queries(n: usize, tag: &str) -> Vec<Vec<f32>> {
    let topics: Vec<Vec<f32>> = (0..TOPICS)
        .map(|t| hash_vector(&format!("{tag}-topic-{t}")))
        .collect();
    (0..n)
        .map(|q| blend(&topics[q % TOPICS], &format!("{tag}-query-{q}"), 0.25))
        .collect()
}

fn blend(topic: &[f32], noise_word: &str, weight: f32) -> Vec<f32> {
    let noise = hash_vector(noise_word);
    let mut v: Vec<f32> = topic
        .iter()
        .zip(&noise)
        .map(|(t, x)| t + weight * x)
        .collect();
    normalize(&mut v);
    v
}

/// One query through `VectorIndex::search`, untraced.
fn search_one(index: &VectorIndex, q: &Vec<f32>, strategy: Strategy) -> (Vec<Hit>, SearchStats) {
    let req = SearchRequest {
        queries: std::slice::from_ref(q),
        k: K,
        strategy,
    };
    index.search(&req, &obs::Span::disabled()).into_single()
}

fn exact_one(index: &VectorIndex, q: &Vec<f32>) -> Vec<Hit> {
    search_one(index, q, Strategy::Exact).0
}

fn ids(hits: &[(usize, f32)]) -> Vec<usize> {
    hits.iter().map(|&(i, _)| i).collect()
}

fn bits(hits: &[(usize, f32)]) -> Vec<(usize, u32)> {
    hits.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// Series 1: seed brute-force vs arena exact scan, per corpus size.
fn exact_series(sizes: &[usize], n_queries: usize, smoke: bool) -> Vec<Value> {
    header("Exact top-k: seed brute-force vs flat arena (single thread)");
    println!(
        "{:<10} {:>12} {:>12} {:>9} {:>16} {:>12}",
        "n_docs", "seed ns/q", "arena ns/q", "speedup", "vectors_scanned", "heap_pushes"
    );
    let mut entries = Vec::new();
    for &n in sizes {
        let vectors = make_corpus(n, "exact");
        let queries = make_queries(n_queries, "exact");
        let index = VectorIndex::build(vectors.clone(), 0, EXP_SEED);

        // correctness gate: identical hit-id lists on every query (the
        // restructured kernel rounds differently, so scores are compared
        // by rank, not bit pattern)
        let mut scanned = 0usize;
        let mut pushes = 0usize;
        for q in &queries {
            let (arena_hits, stats) = search_one(&index, q, Strategy::Exact);
            let seed_hits = seed_search_exact(&vectors, q, K);
            assert_eq!(
                ids(&arena_hits),
                ids(&seed_hits),
                "arena vs seed hit mismatch at n={n}"
            );
            scanned += stats.vectors_scanned;
            pushes += stats.heap_pushes;
        }

        let iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
            for q in &queries {
                black_box(exact_one(&index, q));
            }
        });
        let arena_ns = time_ns(iters, || {
            for q in &queries {
                black_box(exact_one(&index, q));
            }
        }) / n_queries as f64;
        let seed_iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
            for q in &queries {
                black_box(seed_search_exact(&vectors, q, K));
            }
        });
        let seed_ns = time_ns(seed_iters, || {
            for q in &queries {
                black_box(seed_search_exact(&vectors, q, K));
            }
        }) / n_queries as f64;

        let speedup = seed_ns / arena_ns;
        println!(
            "{n:<10} {seed_ns:>12.0} {arena_ns:>12.0} {speedup:>8.2}x {:>16} {:>12}",
            scanned, pushes
        );
        entries.push(json!({
            "n_docs": n,
            "dim": DIM,
            "k": K,
            "queries": n_queries,
            "seed_ns_per_query": seed_ns,
            "arena_ns_per_query": arena_ns,
            "speedup": speedup,
            "hits_identical": true,
            "vectors_scanned": scanned,
            "heap_pushes": pushes,
        }));
    }
    entries
}

/// Series 2: IVF probe sweep — recall@K against exact and the scanned
/// fraction per probe count.
fn ivf_series(n: usize, n_queries: usize, smoke: bool) -> Value {
    header("IVF probe sweep (k-means on the arena)");
    let vectors = make_corpus(n, "ivf");
    let queries = make_queries(n_queries, "ivf");
    let exact = VectorIndex::build(vectors.clone(), 0, EXP_SEED);
    let ivf = VectorIndex::build(vectors, TOPICS, EXP_SEED);
    assert!(ivf.ivf_enabled(), "bench corpus must quantize");

    let golds: Vec<Vec<usize>> = queries.iter().map(|q| ids(&exact_one(&exact, q))).collect();
    let exact_iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
        for q in &queries {
            black_box(exact_one(&exact, q));
        }
    });
    let exact_ns = time_ns(exact_iters, || {
        for q in &queries {
            black_box(exact_one(&exact, q));
        }
    }) / n_queries as f64;

    println!("n_docs: {n}, clusters: {TOPICS}, exact ns/q: {exact_ns:.0}");
    println!(
        "{:<8} {:>10} {:>12} {:>9} {:>16}",
        "n_probe", "recall@10", "ns/q", "speedup", "scanned/query"
    );
    let mut probes = Vec::new();
    for n_probe in [1usize, 2, 4, 8] {
        let mut overlap = 0usize;
        let mut scanned = 0usize;
        for (q, gold) in queries.iter().zip(&golds) {
            let (hits, stats) = search_one(&ivf, q, Strategy::Ivf { probes: n_probe });
            overlap += ids(&hits).iter().filter(|i| gold.contains(i)).count();
            scanned += stats.vectors_scanned;
        }
        let recall = overlap as f64 / (K * queries.len()) as f64;
        let ns = time_ns(exact_iters, || {
            for q in &queries {
                black_box(search_one(&ivf, q, Strategy::Ivf { probes: n_probe }));
            }
        }) / n_queries as f64;
        let speedup = exact_ns / ns;
        let per_query = scanned / queries.len();
        println!("{n_probe:<8} {recall:>10.3} {ns:>12.0} {speedup:>8.2}x {per_query:>16}");
        probes.push(json!({
            "n_probe": n_probe,
            "recall_at_10": recall,
            "ns_per_query": ns,
            "speedup_vs_exact": speedup,
            "vectors_scanned_per_query": per_query,
        }));
        // acceptance gate: probing 2 of 16 clusters already recovers the
        // exact top-10 almost entirely on the clustered corpus
        if n_probe >= 2 {
            assert!(
                recall >= 0.9,
                "IVF recall@{K} {recall:.3} < 0.9 at n_probe={n_probe}"
            );
        }
    }
    json!({
        "n_docs": n,
        "queries": n_queries,
        "n_clusters": TOPICS,
        "exact_ns_per_query": exact_ns,
        "probes": probes,
    })
}

/// Series 3: batched query-matrix retrieval vs the sequential per-query
/// scan, across batch sizes, bit-identical and therefore at *fixed*
/// recall.
fn batch_series(n: usize, smoke: bool) -> Value {
    header("Batched query-matrix kernel (QPS at fixed recall@10)");
    let vectors = make_corpus(n, "batch");
    let index = VectorIndex::build(vectors, 0, EXP_SEED);
    let dispatch = slm::dispatch_path().label();
    println!("n_docs: {n}, dispatch path: {dispatch}");
    println!(
        "{:<8} {:>14} {:>14} {:>12} {:>12} {:>9}",
        "batch", "single ns/q", "batch ns/q", "single QPS", "batch QPS", "speedup"
    );
    let mut entries = Vec::new();
    for &batch in &[1usize, 4, 16, 64] {
        let queries = make_queries(batch, "batch");
        let req = SearchRequest::exact(&queries, K);
        let untraced = obs::Span::disabled();
        // correctness gate: bit-identical to the per-query exact scan,
        // so recall@10 is equal by construction at every batch size
        let batched = index.search(&req, &untraced).hits;
        for (q, hits) in queries.iter().zip(&batched) {
            assert_eq!(
                bits(hits),
                bits(&scan_exact(&index, q, K)),
                "search diverged from the per-query scan at batch={batch}"
            );
        }
        let single_iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
            for q in &queries {
                black_box(scan_exact(&index, q, K));
            }
        });
        let single_ns = time_ns(single_iters, || {
            for q in &queries {
                black_box(scan_exact(&index, q, K));
            }
        }) / batch as f64;
        let batch_iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
            black_box(index.search(&req, &untraced));
        });
        let batch_ns = time_ns(batch_iters, || {
            black_box(index.search(&req, &untraced));
        }) / batch as f64;
        let speedup = single_ns / batch_ns;
        let single_qps = 1e9 / single_ns;
        let batch_qps = 1e9 / batch_ns;
        println!(
            "{batch:<8} {single_ns:>14.0} {batch_ns:>14.0} {single_qps:>12.0} {batch_qps:>12.0} {speedup:>8.2}x"
        );
        // acceptance gate (full mode only — smoke validates the harness,
        // not single-iteration timings): once the per-call overhead
        // amortizes, the blocked kernel must clear 3× the single-query
        // loop at identical recall
        if !smoke && batch >= 16 {
            assert!(
                speedup >= 3.0,
                "batch throughput gate failed: {speedup:.2}x < 3.0x at batch={batch}"
            );
        }
        entries.push(json!({
            "batch": batch,
            "single_ns_per_query": single_ns,
            "batch_ns_per_query": batch_ns,
            "single_qps": single_qps,
            "batch_qps": batch_qps,
            "speedup": speedup,
            "bit_identical": true,
            "recall_vs_single_at_10": 1.0,
        }));
    }
    json!({
        "n_docs": n,
        "dim": DIM,
        "k": K,
        "dispatch": dispatch,
        "gate": "batch >= 3x single-query throughput at batch >= 16, bit-identical hits",
        "batches": entries,
    })
}

/// Series 4: IVF seeding quality — shuffle vs k-means++ at fixed probe
/// count (recall regression gate) and the elbow heuristic's pick.
fn seeding_series(n: usize, n_queries: usize) -> Value {
    header("IVF seeding: shuffle vs k-means++ (recall regression gate)");
    const N_PROBE: usize = 2;
    let vectors = make_corpus(n, "seeding");
    let queries = make_queries(n_queries, "seeding");
    let exact = VectorIndex::build(vectors.clone(), 0, EXP_SEED);
    let golds: Vec<Vec<usize>> = queries.iter().map(|q| ids(&exact_one(&exact, q))).collect();
    println!("n_docs: {n}, clusters: {TOPICS}, n_probe: {N_PROBE}");
    println!(
        "{:<10} {:>10} {:>16}",
        "seeding", "recall@10", "scanned/query"
    );
    let mut seedings = Vec::new();
    let mut recalls = [0.0f64; 2];
    for (slot, (label, seeding)) in [
        ("shuffle", IvfSeeding::Shuffle),
        ("kmeanspp", IvfSeeding::KmeansPP),
    ]
    .into_iter()
    .enumerate()
    {
        let ivf = VectorIndex::build_with_seeding(vectors.clone(), TOPICS, EXP_SEED, seeding);
        assert!(ivf.ivf_enabled(), "seeding corpus must quantize");
        let mut overlap = 0usize;
        let mut scanned = 0usize;
        for (q, gold) in queries.iter().zip(&golds) {
            let (hits, stats) = search_one(&ivf, q, Strategy::Ivf { probes: N_PROBE });
            overlap += ids(&hits).iter().filter(|i| gold.contains(i)).count();
            scanned += stats.vectors_scanned;
        }
        let recall = overlap as f64 / (K * queries.len()) as f64;
        recalls[slot] = recall;
        let per_query = scanned / queries.len();
        println!("{label:<10} {recall:>10.3} {per_query:>16}");
        seedings.push(json!({
            "seeding": label,
            "recall_at_10": recall,
            "vectors_scanned_per_query": per_query,
        }));
    }
    // regression gate: the k-means++ default must not lose recall against
    // the old shuffle seeding (within noise)
    assert!(
        recalls[1] + 0.02 >= recalls[0],
        "k-means++ recall regression: {:.3} vs shuffle {:.3}",
        recalls[1],
        recalls[0]
    );
    // the elbow heuristic must land a working quantizer at a cluster
    // count in the neighborhood of the planted topic structure
    let auto = VectorIndex::build_auto(vectors, EXP_SEED);
    assert!(auto.ivf_enabled(), "build_auto must quantize this corpus");
    let chosen = auto.n_clusters();
    println!("elbow pick: {chosen} clusters ({TOPICS} topics planted)");
    let cap = (n as f64).sqrt() as usize;
    assert!(
        (2..=cap).contains(&chosen),
        "elbow pick {chosen} outside [2, √n = {cap}]"
    );
    json!({
        "n_docs": n,
        "queries": n_queries,
        "n_clusters": TOPICS,
        "n_probe": N_PROBE,
        "gate": "kmeanspp recall@10 >= shuffle recall@10 - 0.02",
        "seedings": seedings,
        "elbow_n_clusters": chosen,
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, n_queries): (Vec<usize>, usize) = if smoke {
        (vec![256], 4)
    } else {
        (vec![2048, 8192, 16384], 20)
    };
    let report_name = if smoke {
        "retrieval_bench_smoke"
    } else {
        "retrieval_bench"
    };

    let exact = exact_series(&sizes, n_queries, smoke);
    let ivf = ivf_series(*sizes.last().expect("sizes"), n_queries, smoke);
    let batch = batch_series(*sizes.last().expect("sizes"), smoke);
    let seeding = seeding_series(*sizes.last().expect("sizes"), n_queries);

    write_report(
        report_name,
        &json!({
            "experiment": "retrieval_bench",
            "mode": if smoke { "smoke" } else { "full" },
            "seed": EXP_SEED,
            "dim": DIM,
            "k": K,
            "dispatch": slm::dispatch_path().label(),
            "baseline": "seed VectorIndex (Vec<Vec<f32>> rows, full cosine per pair, full sort)",
            "candidate": "flat arena (unit-normalized rows, blocked dot kernel, bounded-heap top-k)",
            "exact": Value::Array(exact),
            "ivf": ivf,
            "batch": batch,
            "seeding": seeding,
        }),
    );
    println!("\nwrote reports/{report_name}.json");
}
