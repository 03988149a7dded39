//! Before/after benchmark for the flat-arena retrieval kernel, written
//! to `reports/retrieval_bench.json`.
//!
//! The **exact** series times, per corpus size, the seed brute force
//! (`Vec<Vec<f32>>` storage, full cosine — both norms recomputed per
//! pair — and a full O(n log n) sort; preserved in `kgrag::reference`)
//! against `VectorIndex::search` (unit-normalized rows, blocked dot
//! kernel, bounded-heap top-k). Two gates run on every query at every
//! size: the hit ids equal the seed's, and the hits (ids and score bits)
//! equal the per-row reference scan `kgrag::reference::scan_exact`'s.
//! Each timing is the median of repeated passes with its quartiles.
//!
//! Flags:
//!
//! * `--smoke` — CI mode: small corpora (one of them past a scan tile),
//!   single-iteration timings, report written to
//!   `reports/retrieval_bench_smoke.json`. Validates that the harness
//!   runs, the gates hold, and the work counters and JSON schema are
//!   stable — not the numbers.

use std::hint::black_box;
use std::ops::RangeInclusive;

use kgrag::reference::{scan_exact, seed_search_exact};
use kgrag::vector::Hit;
use kgrag::VectorIndex;
use llmkg_bench::{calibrate, header, time_ns, write_report, Timing, EXP_SEED};
use serde_json::{json, Value};
use slm::embedding::{hash_vector, normalize, DIM};

/// Retrieval depth for every comparison.
const K: usize = 10;

/// Topic clusters planted in the synthetic corpus.
const TOPICS: usize = 16;

/// Target wall time of one timed pass ([`calibrate`]): 40 ms.
const PASS_NS: u128 = 40_000_000;
/// Bounds on the iteration count of one timed pass.
const PASS_ITERS: RangeInclusive<u32> = 3..=2_000;

/// A clustered synthetic corpus: doc i sits near topic `i % TOPICS` with
/// a per-doc perturbation, so a query has a dense neighbourhood to rank
/// while exact search still has n distinct well-separated scores.
/// Everything derives from `hash_vector`, so the corpus is deterministic
/// for a given (n, tag) without any RNG state.
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
fn search(index: &VectorIndex, q: &[f32]) -> Vec<Hit> {
    index.search(q, K, &obs::Span::disabled()).0
}

fn ids(hits: &[(usize, f32)]) -> Vec<usize> {
    hits.iter().map(|&(i, _)| i).collect()
}

fn bits(hits: &[(usize, f32)]) -> Vec<(usize, u32)> {
    hits.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// The exact series: seed brute force vs arena search, per corpus size.
fn exact_series(sizes: &[usize], n_queries: usize, smoke: bool) -> Vec<Value> {
    header("Exact top-k: seed brute-force vs flat arena (single thread)");
    println!(
        "{:<10} {:>24} {:>24} {:>9} {:>16} {:>12}",
        "n_docs",
        "seed ns/q (Q1-Q3)",
        "arena ns/q (Q1-Q3)",
        "speedup",
        "vectors_scanned",
        "heap_pushes"
    );
    let mut entries = Vec::new();
    for &n in sizes {
        let vectors = make_corpus(n, "exact");
        let queries = make_queries(n_queries, "exact");
        let index = VectorIndex::build(vectors.clone());

        // correctness gates: the seed's hit ids (the restructured kernel
        // rounds differently, so seed scores are compared by rank, not
        // bit pattern), and the per-row reference scan's ids and score
        // bits
        let mut scanned = 0usize;
        let mut pushes = 0usize;
        for q in &queries {
            let (arena_hits, stats) = index.search(q, K, &obs::Span::disabled());
            assert_eq!(
                ids(&arena_hits),
                ids(&seed_search_exact(&vectors, q, K)),
                "arena vs seed hit mismatch at n={n}"
            );
            assert_eq!(
                bits(&arena_hits),
                bits(&scan_exact(&index, q, K)),
                "search diverged from the reference scan at n={n}"
            );
            scanned += stats.vectors_scanned;
            pushes += stats.heap_pushes;
        }

        let iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
            for q in &queries {
                black_box(search(&index, q));
            }
        });
        let arena = time_ns(iters, || {
            for q in &queries {
                black_box(search(&index, q));
            }
        })
        .per(n_queries);
        let seed_iters = calibrate(smoke, PASS_NS, PASS_ITERS, || {
            for q in &queries {
                black_box(seed_search_exact(&vectors, q, K));
            }
        });
        let seed = time_ns(seed_iters, || {
            for q in &queries {
                black_box(seed_search_exact(&vectors, q, K));
            }
        })
        .per(n_queries);

        let speedup = seed.median / arena.median;
        let cell = |t: Timing| format!("{:.0} ({:.0}-{:.0})", t.median, t.q1, t.q3);
        println!(
            "{n:<10} {:>24} {:>24} {speedup:>8.2}x {scanned:>16} {pushes:>12}",
            cell(seed),
            cell(arena),
        );
        entries.push(json!({
            "n_docs": n,
            "dim": DIM,
            "k": K,
            "queries": n_queries,
            "seed_ns_per_query": seed.median,
            "seed_ns_per_query_quartiles": seed.quartiles(),
            "arena_ns_per_query": arena.median,
            "arena_ns_per_query_quartiles": arena.quartiles(),
            "speedup": speedup,
            "hits_identical": true,
            "bits_identical": true,
            "vectors_scanned": scanned,
            "heap_pushes": pushes,
        }));
    }
    entries
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, n_queries): (Vec<usize>, usize) = if smoke {
        (vec![256, 2048], 4)
    } else {
        (vec![2048, 8192, 16384], 20)
    };
    let report_name = if smoke {
        "retrieval_bench_smoke"
    } else {
        "retrieval_bench"
    };

    let exact = exact_series(&sizes, n_queries, smoke);

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
        }),
    );
    println!("\nwrote reports/{report_name}.json");
}
