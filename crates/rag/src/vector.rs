//! Vector index over a flat arena with one retrieval entrypoint,
//! [`VectorIndex::search`]: exact top-k of one query, scored through the
//! register-blocked [`slm::kernel::matmul_tile`] into a bounded heap. A
//! search runs on the thread that calls it.
//!
//! # Layout
//!
//! Document vectors live in **one contiguous `Vec<f32>`** (`n_docs × dim`,
//! row-major), each row **unit-normalized at build time**. The seed
//! implementation stored `Vec<Vec<f32>>` — one heap allocation per
//! document, a pointer chase per scanned vector, and a cosine that
//! recomputed both norms on every pair (O(3d)). On the arena, cosine
//! degenerates to a plain dot product over a cache-linear slice
//! (O(d), auto-vectorized — see [`slm::embedding::dot`]).
//!
//! # Top-k
//!
//! Instead of scoring all n documents and running a full O(n log n) sort,
//! a bounded min-heap keeps the best k hits seen so far (O(n log k)).
//! Ordering is **total**: score descending under the NaN-safe
//! [`kgquery::exec::compare_f64_total`], ties broken by ascending doc id,
//! so zero-vector or garbage embeddings can never make the hit order
//! depend on scan order.
//!
//! # Exact search
//!
//! A search scores the arena tile by tile, `SCAN_TILE` (1 024) rows per
//! [`slm::kernel::matmul_tile`] call: the kernel's row-block layout beats
//! a plain dot loop, and one call amortizes its dispatch over a whole
//! tile. Every result is **bit-identical** to the sequential per-row scan
//! kept in [`crate::reference::scan_exact`]: the kernel preserves the
//! scalar accumulation order and the total-order heap makes the top-k set
//! unique regardless of offer order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use kgquery::exec::compare_f64_total;
use slm::embedding::normalize;
use slm::kernel::{first_above, matmul_tile};

/// Arena rows scored per [`slm::kernel::matmul_tile`] call: the per-tile
/// score buffer stays small (1024 floats) while each call still
/// amortizes dispatch overhead over many rows.
const SCAN_TILE: usize = 1024;

/// A (document id, score) search hit.
pub type Hit = (usize, f32);

/// Work counters of one search, surfaced as `retrieval.*` observability
/// counters by [`VectorIndex::search`] (catalogue in
/// `docs/observability.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Documents scored: every indexed document, or zero when `k` is 0.
    pub vectors_scanned: usize,
    /// Insertions into the top-k heap (pushes that displaced or grew the
    /// candidate set).
    pub heap_pushes: usize,
}

/// Ranking order of two hits, best first: score descending under the
/// total-order float comparison (NaN ranks above every number, equal to
/// itself), ties broken by ascending doc id. Never returns `Equal` for
/// distinct ids, so the top-k set and its order are unique regardless of
/// scan or merge order.
pub(crate) fn cmp_hits(a: &Hit, b: &Hit) -> Ordering {
    compare_f64_total(f64::from(b.1), f64::from(a.1)).then_with(|| a.0.cmp(&b.0))
}

fn sort_hits(hits: &mut [Hit]) {
    hits.sort_unstable_by(cmp_hits);
}

/// Heap entry ordered so the binary max-heap surfaces the *worst* hit at
/// the root — `Greater` under [`cmp_hits`] means "ranks later".
struct Worst(Hit);

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        cmp_hits(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_hits(&self.0, &other.0)
    }
}

/// A bounded top-k accumulator: O(log k) per displacing insert, O(1) per
/// rejected candidate (one comparison against the current worst).
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<Worst>,
    pushes: usize,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(1024) + 1),
            pushes: 0,
        }
    }

    pub(crate) fn offer(&mut self, hit: Hit) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Worst(hit));
            self.pushes += 1;
        } else if let Some(worst) = self.heap.peek() {
            if cmp_hits(&hit, &worst.0) == Ordering::Less {
                self.heap.pop();
                self.heap.push(Worst(hit));
                self.pushes += 1;
            }
        }
    }

    /// The worst retained score once the heap is full (`None` before
    /// that). Backs the exact scan's IEEE fast-reject: any candidate
    /// `<=` this value under plain f32 comparison is guaranteed to be
    /// rejected by [`TopK::offer`], while NaN (incomparable, ranked
    /// best by the total order) never satisfies `<=` and so always
    /// reaches the full comparison.
    fn worst_score_if_full(&self) -> Option<f32> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|w| w.0 .1)
        }
    }

    /// Drain into best-first order.
    pub(crate) fn into_sorted(self) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self.heap.into_iter().map(|w| w.0).collect();
        sort_hits(&mut hits);
        hits
    }
}

/// A vector index over document embeddings, stored as a flat arena of
/// unit-normalized rows.
#[derive(Debug, Clone)]
pub struct VectorIndex {
    /// Row-major `n_docs × dim` arena; every row unit-normalized (zero
    /// rows stay zero).
    data: Vec<f32>,
    dim: usize,
    n_docs: usize,
}

impl VectorIndex {
    /// Build from document vectors. Rows are copied into the arena and
    /// unit-normalized, so later scans score cosine with a plain dot
    /// product. Vectors shorter than the first row's dimensionality are
    /// zero-padded, longer ones truncated (all real callers embed with
    /// one model, so this is defensive only).
    pub fn build(vectors: Vec<Vec<f32>>) -> Self {
        let n_docs = vectors.len();
        let dim = vectors.first().map(Vec::len).unwrap_or(0);
        let mut data = vec![0.0f32; n_docs * dim];
        for (row, v) in data.chunks_exact_mut(dim.max(1)).zip(&vectors) {
            let n = row.len().min(v.len());
            row[..n].copy_from_slice(&v[..n]);
            normalize(row);
        }
        VectorIndex { data, dim, n_docs }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.n_docs
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.n_docs == 0
    }

    /// Embedding dimensionality of the arena (0 when empty).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The unit-normalized arena row of a document.
    pub(crate) fn row(&self, doc: usize) -> &[f32] {
        &self.data[doc * self.dim..(doc + 1) * self.dim]
    }

    /// Copy the query into a `dim`-sized unit-normalized buffer (done
    /// once per search; every scanned document then costs one dot).
    pub(crate) fn prepare_query(&self, query: &[f32]) -> Vec<f32> {
        debug_assert!(
            query.len() == self.dim || self.n_docs == 0,
            "query dim {} != index dim {}",
            query.len(),
            self.dim
        );
        let mut q = vec![0.0f32; self.dim];
        let n = self.dim.min(query.len());
        q[..n].copy_from_slice(&query[..n]);
        normalize(&mut q);
        q
    }

    /// Exact top-`k` of one query embedding, best first, with the scan's
    /// work counters — the one retrieval entrypoint. The query is
    /// unit-normalized; one of another length than the index dimension
    /// is a caller bug (debug builds assert, release builds zero-pad or
    /// truncate it). Unless `k` is 0, every document is scored. Hits are
    /// bit-identical to [`crate::reference::scan_exact`].
    ///
    /// `span` receives one `retrieval.search` child carrying the work
    /// counters, and the `retrieval.*` counters accumulate in its tracer
    /// (catalogue in `docs/observability.md`); pass
    /// [`obs::Span::disabled`] when untraced.
    ///
    /// ```
    /// use kgrag::VectorIndex;
    ///
    /// let docs = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.7, 0.7]];
    /// let index = VectorIndex::build(docs);
    /// let (hits, stats) = index.search(&[1.0, 0.1], 2, &obs::Span::disabled());
    /// let ids: Vec<usize> = hits.iter().map(|&(id, _)| id).collect();
    /// assert_eq!(ids, [0, 2]);
    /// assert_eq!(stats.vectors_scanned, 3);
    /// ```
    pub fn search(&self, query: &[f32], k: usize, span: &obs::Span) -> (Vec<Hit>, SearchStats) {
        let mut top = TopK::new(k);
        let mut stats = SearchStats::default();
        if k > 0 && self.n_docs > 0 {
            let q = self.prepare_query(query);
            let mut scores = vec![0.0f32; SCAN_TILE.min(self.n_docs)];
            let mut t0 = 0;
            while t0 < self.n_docs {
                let t1 = (t0 + SCAN_TILE).min(self.n_docs);
                let n_rows = t1 - t0;
                let rows = &self.data[t0 * self.dim..t1 * self.dim];
                let scores = &mut scores[..n_rows];
                matmul_tile(&q, 1, rows, n_rows, self.dim, scores);
                // IEEE fast-reject against the cached worst: once the heap
                // is full, a score `<=` the current worst loses under
                // `cmp_hits` too (equal scores tie-break toward the heap's
                // smaller doc id — rows arrive in ascending id order), so
                // the O(1) f32 compare skips the f64 total-order compare
                // without changing which offers succeed. NaN falls through
                // (`NaN <= w` is false) and takes the slow path, where the
                // total order ranks it. `first_above` skips a whole run of
                // losers at once, several scores per compare.
                let mut worst = top.worst_score_if_full();
                let mut r = 0;
                while r < n_rows {
                    if let Some(w) = worst {
                        match first_above(&scores[r..], w) {
                            Some(skip) => r += skip,
                            None => break,
                        }
                    }
                    top.offer((t0 + r, scores[r]));
                    worst = top.worst_score_if_full();
                    r += 1;
                }
                t0 = t1;
            }
            stats = SearchStats {
                vectors_scanned: self.n_docs,
                heap_pushes: top.pushes,
            };
        }
        let hits = top.into_sorted();
        let child = span.child("retrieval.search");
        child.set("docs_indexed", self.n_docs);
        child.set("k", k);
        child.set("hits", hits.len());
        child.set("vectors_scanned", stats.vectors_scanned);
        child.set("heap_pushes", stats.heap_pushes);
        child.count("retrieval.searches", 1);
        child.count("retrieval.vectors_scanned", stats.vectors_scanned as u64);
        child.count("retrieval.heap_pushes", stats.heap_pushes as u64);
        (hits, stats)
    }

    /// [`VectorIndex::search`] untraced, kept because the `perfbench`
    /// replay calls it (ROADMAP item 2).
    pub fn search_exact_with_stats(&self, query: &[f32], k: usize) -> (Vec<Hit>, SearchStats) {
        self.search(query, k, &obs::Span::disabled())
    }

    /// Score a gathered set of stored rows against one query in a single
    /// kernel invocation: the rows are packed into one contiguous panel
    /// and handed to [`matmul_tile`], so the dispatch overhead amortizes
    /// over the whole candidate set instead of being paid per dot. Scores
    /// are bit-identical to `dot(prepared_query, row)` — the reranking
    /// consumer in [`crate::pipeline`] relies on that to stay comparable
    /// with first-round retrieval scores.
    ///
    /// Out-of-range ids score `0.0` (nothing stored to compare against),
    /// mirroring how zero vectors are "similar to nothing".
    pub fn score_docs(&self, query: &[f32], docs: &[usize]) -> Vec<f32> {
        if docs.is_empty() || self.n_docs == 0 || self.dim == 0 {
            return vec![0.0; docs.len()];
        }
        let q = self.prepare_query(query);
        let mut rows = vec![0.0f32; docs.len() * self.dim];
        for (panel, &doc) in rows.chunks_exact_mut(self.dim).zip(docs) {
            if doc < self.n_docs {
                panel.copy_from_slice(self.row(doc));
            }
        }
        let mut out = vec![0.0f32; docs.len()];
        matmul_tile(&q, 1, &rows, docs.len(), self.dim, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::scan_exact;
    use slm::embedding::{dot, hash_vector};
    use slm::Embedder;

    fn corpus_index() -> (VectorIndex, Embedder, Vec<String>) {
        let docs: Vec<String> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    format!("film number {i} is a drama about love")
                } else {
                    format!("paper number {i} studies databases and queries")
                }
            })
            .collect();
        let e = Embedder::new();
        let vectors = docs.iter().map(|d| e.embed(d)).collect();
        (VectorIndex::build(vectors), e, docs)
    }

    /// The hits of one untraced search.
    fn exact(idx: &VectorIndex, q: &[f32], k: usize) -> Vec<Hit> {
        idx.search(q, k, &obs::Span::disabled()).0
    }

    fn ids(hits: &[Hit]) -> Vec<usize> {
        hits.iter().map(|&(i, _)| i).collect()
    }

    fn hit_bits(hits: &[Hit]) -> Vec<(usize, u32)> {
        hits.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    }

    #[test]
    fn exact_search_finds_relevant_docs() {
        let (idx, e, docs) = corpus_index();
        let hits = exact(&idx, &e.embed("a drama film about love"), 5);
        assert_eq!(hits.len(), 5);
        for (id, _) in &hits {
            assert!(docs[*id].contains("drama"), "{}", docs[*id]);
        }
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = VectorIndex::build(Vec::new());
        assert!(idx.is_empty());
        assert!(exact(&idx, &[0.0; 4], 3).is_empty());
    }

    #[test]
    fn heap_topk_equals_full_sort() {
        let (idx, e, _) = corpus_index();
        let q = idx.prepare_query(&e.embed("databases"));
        // full sort over every score, seed-style
        let mut all: Vec<Hit> = (0..idx.len()).map(|i| (i, dot(&q, idx.row(i)))).collect();
        sort_hits(&mut all);
        all.truncate(7);
        let hits = exact(&idx, &e.embed("databases"), 7);
        assert_eq!(hits, all);
    }

    #[test]
    fn k_larger_than_corpus_returns_everything_ranked() {
        let (idx, e, _) = corpus_index();
        let hits = exact(&idx, &e.embed("anything"), 1000);
        assert_eq!(hits.len(), idx.len());
        for w in hits.windows(2) {
            assert_eq!(cmp_hits(&w[0], &w[1]), Ordering::Less);
        }
    }

    #[test]
    fn zero_query_ranks_by_doc_id() {
        let (idx, _, _) = corpus_index();
        let hits = exact(&idx, &vec![0.0; idx.dim()], 5);
        assert_eq!(ids(&hits), vec![0, 1, 2, 3, 4]);
        assert!(hits.iter().all(|&(_, s)| s == 0.0));
    }

    #[test]
    fn nan_scores_order_deterministically() {
        // one doc carries NaN components: its score against any query is
        // NaN, which the total order ranks above every real score —
        // deterministically, wherever the doc sits in the corpus. At
        // k = 2 the heap is full long before a late NaN doc arrives, so
        // the scan's fast-reject must let it through.
        let nan_row = vec![f32::NAN; 4];
        let mk = |nan_at: usize| {
            let mut vs: Vec<Vec<f32>> = (0..12)
                .map(|i| vec![1.0, i as f32 * 0.1, 0.0, 0.0])
                .collect();
            vs.insert(nan_at, nan_row.clone());
            VectorIndex::build(vs)
        };
        let q = [1.0, 0.2, 0.0, 0.0];
        for k in [2, 13] {
            for nan_at in [0, 3, 9, 12] {
                let hits = exact(&mk(nan_at), &q, k);
                assert_eq!(hits.len(), k);
                assert!(hits[0].1.is_nan(), "NaN ranks first: {hits:?}");
                assert_eq!(hits[0].0, nan_at);
                // the real hits keep their relative order below it
                let rest: Vec<f32> = hits[1..].iter().map(|&(_, s)| s).collect();
                for w in rest.windows(2) {
                    assert!(w[0] >= w[1], "{hits:?}");
                }
            }
        }
    }

    #[test]
    fn search_is_bit_identical_to_reference_scan() {
        let (idx, e, _) = corpus_index();
        let mut nan_q = e.embed("drama");
        nan_q[3] = f32::NAN;
        let queries: Vec<Vec<f32>> = [
            "a drama about love",
            "databases and queries",
            "",
            "quantum flux reactor",
        ]
        .iter()
        .map(|q| e.embed(q))
        .chain([nan_q])
        .collect();
        for q in &queries {
            let (hits, stats) = idx.search(q, 6, &obs::Span::disabled());
            assert_eq!(hit_bits(&hits), hit_bits(&scan_exact(&idx, q, 6)));
            assert_eq!(stats.vectors_scanned, idx.len());
        }
    }

    #[test]
    fn search_matches_reference_scan_across_tile_edges() {
        // 2 × SCAN_TILE + 3 rows, so the scan runs two full tiles and a
        // 3-row tail. Exact score ties straddle both tile boundaries, the
        // second tile opens with a NaN row, and zero rows score 0 — each
        // a case where offer order or the fast-reject could leak into the
        // result.
        let n = 2 * SCAN_TILE + 3;
        let hot = hash_vector("tile-hot");
        let mut warm = hot.clone();
        warm[0] = -warm[0];
        let mut rows: Vec<Vec<f32>> = (0..n)
            .map(|i| hash_vector(&format!("tile-row-{i}")))
            .collect();
        let (b1, b2) = (SCAN_TILE, 2 * SCAN_TILE);
        for i in [b1 - 2, b1 - 1, b1 + 1, b2 - 1, b2, b2 + 2] {
            rows[i] = hot.clone();
        }
        for i in [b1 - 3, b1 + 2, b2 - 2, b2 + 1] {
            rows[i] = warm.clone();
        }
        rows[b1] = vec![f32::NAN; hot.len()];
        for i in [0, 7, b1 + 5, b2 - 9] {
            rows[i] = vec![0.0; hot.len()];
        }
        let idx = VectorIndex::build(rows);
        for q in [hot, hash_vector("tile-query")] {
            for k in [1, 4, 10, n] {
                let (hits, stats) = idx.search(&q, k, &obs::Span::disabled());
                assert_eq!(hit_bits(&hits), hit_bits(&scan_exact(&idx, &q, k)), "k={k}");
                assert_eq!(hits.len(), k);
                assert_eq!(stats.vectors_scanned, n);
            }
        }
    }

    #[test]
    fn search_handles_zero_k_and_empty_index() {
        let (idx, e, _) = corpus_index();
        let (none, stats) = idx.search(&e.embed("x"), 0, &obs::Span::disabled());
        assert!(none.is_empty());
        assert_eq!(stats, SearchStats::default());
        let empty = VectorIndex::build(Vec::new());
        let (hits, stats) = empty.search(&e.embed("x"), 5, &obs::Span::disabled());
        assert!(hits.is_empty());
        assert_eq!(stats.vectors_scanned, 0);
    }

    #[test]
    fn score_docs_is_bit_identical_to_exact_scores() {
        let (idx, e, _) = corpus_index();
        let q = e.embed("a drama about love");
        let exact = exact(&idx, &q, 8);
        let scores = idx.score_docs(&q, &ids(&exact));
        for ((_, s), batched) in exact.iter().zip(&scores) {
            assert_eq!(s.to_bits(), batched.to_bits());
        }
        // out-of-range ids score zero; empty set is empty
        assert_eq!(idx.score_docs(&q, &[9999]), vec![0.0]);
        assert!(idx.score_docs(&q, &[]).is_empty());
    }

    #[test]
    fn traced_search_records_counters() {
        let (idx, e, _) = corpus_index();
        let (tracer, recorder) = obs::Tracer::in_memory();
        let root = tracer.span("test");
        idx.search(&e.embed("drama"), 5, &root);
        root.finish();
        assert_eq!(tracer.registry().counter("retrieval.searches"), 1);
        assert_eq!(tracer.registry().counter("retrieval.vectors_scanned"), 40);
        assert!(tracer.registry().counter("retrieval.heap_pushes") >= 5);
        let span = recorder.take().pop().expect("root recorded");
        let search = span.find("retrieval.search").expect("search span");
        assert_eq!(search.attr_u64("vectors_scanned"), Some(40));
        assert_eq!(search.attr_u64("docs_indexed"), Some(40));
        assert_eq!(search.attr_u64("k"), Some(5));
        assert_eq!(search.attr_u64("hits"), Some(5));
    }
}
