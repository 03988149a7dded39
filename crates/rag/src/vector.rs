//! Vector index over a flat arena with one retrieval entrypoint,
//! [`VectorIndex::search`]: exact top-k through a register-blocked
//! batched kernel (optionally sharded across crossbeam-scoped threads),
//! or an IVF-lite approximate variant (seeded k-means coarse quantizer,
//! probe-nearest-clusters) sharing the same arena.
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
//! An exact [`SearchRequest`] of Q queries is serviced in **one arena
//! pass**: the queries are packed into a flat Q×dim matrix and scored
//! tile-by-tile through the SIMD-dispatched
//! [`slm::kernel::matmul_tile`], so each arena cache line is touched once
//! per query *group* instead of once per query. A single query takes the
//! same route — the kernel's row-block layout beats a plain dot loop even
//! with nothing to share. Every per-query result is **bit-identical** to
//! the sequential per-query scan kept in [`crate::reference::scan_exact`]:
//! the kernel preserves the scalar accumulation order and the total-order
//! heap makes the top-k set unique regardless of offer order.
//!
//! # Parallelism
//!
//! Above [`SearchOptions::parallel_threshold`] documents, the exact pass
//! shards the **arena** (not the query set) across crossbeam-scoped
//! threads: every query visits every shard, each shard keeps one top-k
//! heap per query, and the ≤ `shards × k` survivors per query merge under
//! the same total-order comparator — so the parallel result is
//! bit-identical to the sequential pass. The default threshold is derived
//! from the host's core count exactly like
//! `kgquery::exec::default_parallel_threshold` (`None` on a single core —
//! sharding is pure overhead there).
//!
//! # IVF
//!
//! [`Strategy::Ivf`] runs the probe loop once per query: score the
//! centroids, then the members of the `probes` nearest clusters through
//! one heap. It falls back to the exact pass when the index has no
//! quantizer.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use kgquery::exec::compare_f64_total;
use slm::embedding::{dot, normalize};
use slm::kernel::{first_above, matmul_tile};

/// Arena rows scored per [`slm::kernel::matmul_tile`] call in exact
/// scans: the per-tile score buffer stays small (`Q × 1024` floats)
/// while each call still amortizes dispatch overhead over many rows.
const BATCH_TILE: usize = 1024;

/// A (document id, score) search hit.
pub type Hit = (usize, f32);

/// Baseline document count at which an exact scan shards across threads,
/// calibrated for a two-core host. One document costs one `dim`-wide dot
/// product (~tens of nanoseconds at `dim = 64`), so a scan below the
/// (scaled) threshold finishes before spawned workers would.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 16_384;

/// Never shard a scan smaller than this, no matter how many cores exist.
const MIN_PARALLEL_THRESHOLD: usize = 4_096;

/// The sharding threshold for this host, derived at runtime from
/// [`std::thread::available_parallelism`] with the same shape as
/// `kgquery::exec::default_parallel_threshold`:
///
/// * single core ⇒ `None` — no second core can pick the work up;
/// * `n > 1` cores ⇒ [`DEFAULT_PARALLEL_THRESHOLD`] scaled down as cores
///   grow (`2·16384 / n`, floored at 4096).
pub fn default_parallel_threshold() -> Option<usize> {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores <= 1 {
        None
    } else {
        Some((DEFAULT_PARALLEL_THRESHOLD * 2 / cores).max(MIN_PARALLEL_THRESHOLD))
    }
}

/// Knobs controlling how searches run; mirrors the shape of
/// `kgquery::exec::ExecOptions`' parallel knobs.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Shard an exact scan across scoped threads once the scanned
    /// document count reaches this size; `None` disables parallelism.
    pub parallel_threshold: Option<usize>,
    /// Worker count for sharded scans; `None` uses
    /// [`std::thread::available_parallelism`]. Pinning this lets tests
    /// exercise the threaded path deterministically on any host.
    pub shard_count: Option<usize>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            parallel_threshold: default_parallel_threshold(),
            shard_count: None,
        }
    }
}

impl SearchOptions {
    /// Options that never shard — the deterministic single-thread scan.
    pub fn sequential() -> Self {
        SearchOptions {
            parallel_threshold: None,
            shard_count: None,
        }
    }
}

/// Why an IVF search fell back to an exact scan. Carried on
/// [`SearchStats`] (and queryable via [`VectorIndex::ivf_fallback`]) so
/// the condition is diagnosable from serve `stats` replies instead of
/// only visible as the anonymous `retrieval.ivf_disabled` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IvfFallback {
    /// IVF was requested at build time but the corpus held fewer than
    /// `min_docs` (= `n_clusters × 2`) documents, so quantization was
    /// skipped and every search scans exactly.
    CorpusTooSmall {
        /// Documents actually indexed.
        n_docs: usize,
        /// Minimum corpus size that would have enabled IVF.
        min_docs: usize,
    },
}

impl IvfFallback {
    /// Stable machine-readable reason tag.
    pub fn reason(&self) -> &'static str {
        match self {
            IvfFallback::CorpusTooSmall { .. } => "corpus_too_small",
        }
    }

    /// Human-readable description with the concrete sizes.
    pub fn describe(&self) -> String {
        match self {
            IvfFallback::CorpusTooSmall { n_docs, min_docs } => {
                format!("corpus_too_small: {n_docs} docs < {min_docs} required")
            }
        }
    }
}

/// Work counters of one search, surfaced as `retrieval.*` observability
/// counters by [`VectorIndex::search`] (catalogue in
/// `docs/observability.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Vectors scored (documents plus, for IVF, centroids), summed over
    /// the request's queries: an exact pass counts each document once
    /// **per query**.
    pub vectors_scanned: usize,
    /// Insertions into a top-k heap (pushes that displaced or grew the
    /// candidate set). Scheduling-sensitive: a sharded scan keeps one
    /// heap per shard, so this may exceed the sequential count while the
    /// returned hits are bit-identical.
    pub heap_pushes: usize,
    /// Worker shards spawned; zero for sequential scans.
    pub parallel_shards: usize,
    /// Clusters probed by an IVF search; zero for exact scans.
    pub ivf_probes: usize,
    /// Queries serviced by the batched kernel invocation this request
    /// ran: Q for an exact request, zero for IVF probing.
    pub batch_queries: usize,
    /// Structured reason when an IVF search fell back to exact;
    /// `None` for exact searches and healthy IVF searches.
    pub ivf_fallback: Option<IvfFallback>,
}

/// How a [`SearchRequest`] finds its hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Score every document in one batched kernel pass.
    Exact,
    /// Score the members of the `probes` nearest IVF clusters, per query
    /// (at least one cluster). Runs exactly when the index has no
    /// quantizer, recording [`SearchStats::ivf_fallback`].
    Ivf {
        /// Clusters probed per query.
        probes: usize,
    },
}

/// One retrieval call: 1..Q query embeddings, a depth `k`, a strategy.
/// Queries are zero-padded or truncated to the index dimension and
/// unit-normalized before scoring.
#[derive(Debug, Clone, Copy)]
pub struct SearchRequest<'a> {
    /// The query embeddings, answered in order.
    pub queries: &'a [Vec<f32>],
    /// Hits to return per query.
    pub k: usize,
    /// Exact or IVF.
    pub strategy: Strategy,
}

impl<'a> SearchRequest<'a> {
    /// Exact top-`k` for every query.
    pub fn exact(queries: &'a [Vec<f32>], k: usize) -> Self {
        SearchRequest {
            queries,
            k,
            strategy: Strategy::Exact,
        }
    }

    /// Approximate top-`k` for every query, probing `probes` IVF
    /// clusters each.
    pub fn ivf(queries: &'a [Vec<f32>], k: usize, probes: usize) -> Self {
        SearchRequest {
            queries,
            k,
            strategy: Strategy::Ivf { probes },
        }
    }
}

/// The answer to a [`SearchRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// One best-first hit list per query, in request order.
    pub hits: Vec<Vec<Hit>>,
    /// The request's work counters.
    pub stats: SearchStats,
}

impl SearchResult {
    /// The hits and work counters of a one-query request.
    pub fn into_single(self) -> (Vec<Hit>, SearchStats) {
        (self.hits.into_iter().next().unwrap_or_default(), self.stats)
    }
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

    /// Drain into best-first order alongside the heap pushes it cost.
    pub(crate) fn into_scan(self) -> (Vec<Hit>, usize) {
        let pushes = self.pushes;
        (self.into_sorted(), pushes)
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
    /// IVF state: flat `n_clusters × dim` centroid arena (unit rows) and
    /// per-cluster member lists.
    centroids: Vec<f32>,
    clusters: Vec<Vec<usize>>,
    /// IVF was requested (`n_clusters > 0`) but impossible; searches fall
    /// back to exact and say so via the `retrieval.ivf_disabled` counter
    /// plus this structured reason.
    ivf_fallback: Option<IvfFallback>,
    options: SearchOptions,
}

impl VectorIndex {
    /// Build from document vectors. `n_clusters = 0` disables IVF (exact
    /// search only). Rows are copied into the arena and unit-normalized,
    /// so later scans score cosine with a plain dot product. Vectors
    /// shorter than the first row's dimensionality are zero-padded,
    /// longer ones truncated (all real callers embed with one model, so
    /// this is defensive only). IVF centroids are seeded with k-means++
    /// ([`IvfSeeding::KmeansPP`]); use [`VectorIndex::build_with_seeding`]
    /// to pin the baseline shuffle seeding.
    pub fn build(vectors: Vec<Vec<f32>>, n_clusters: usize, seed: u64) -> Self {
        Self::build_with_seeding(vectors, n_clusters, seed, IvfSeeding::KmeansPP)
    }

    /// [`VectorIndex::build`] with an explicit centroid-seeding strategy.
    pub fn build_with_seeding(
        vectors: Vec<Vec<f32>>,
        n_clusters: usize,
        seed: u64,
        seeding: IvfSeeding,
    ) -> Self {
        let n_docs = vectors.len();
        let dim = vectors.first().map(Vec::len).unwrap_or(0);
        let mut data = vec![0.0f32; n_docs * dim];
        for (row, v) in data.chunks_exact_mut(dim.max(1)).zip(&vectors) {
            let n = row.len().min(v.len());
            row[..n].copy_from_slice(&v[..n]);
            normalize(row);
        }
        let ivf_possible = n_clusters > 0 && n_docs >= n_clusters * 2;
        let (centroids, clusters) = if ivf_possible {
            kmeans(&data, dim, n_docs, n_clusters, seed, seeding)
        } else {
            (Vec::new(), Vec::new())
        };
        let ivf_fallback = if n_clusters > 0 && !ivf_possible {
            Some(IvfFallback::CorpusTooSmall {
                n_docs,
                min_docs: n_clusters * 2,
            })
        } else {
            None
        };
        VectorIndex {
            data,
            dim,
            n_docs,
            centroids,
            clusters,
            ivf_fallback,
            options: SearchOptions::default(),
        }
    }

    /// Build with `n_clusters` chosen by an elbow heuristic: sweep `k`
    /// over powers of two (while `k × 2 ≤ n_docs`, capped at 256), run a
    /// short quantization pass per candidate, and keep the largest `k`
    /// whose doubling still cut inertia by at least 10% relative —
    /// diminishing returns past the corpus's natural cluster count. A
    /// corpus with no exploitable structure (every doubling below the
    /// threshold) gets the smallest candidate rather than a large `k`
    /// that would only fragment recall. Falls back to exact-only when
    /// the corpus is too small for any candidate.
    pub fn build_auto(vectors: Vec<Vec<f32>>, seed: u64) -> Self {
        let n_docs = vectors.len();
        let dim = vectors.first().map(Vec::len).unwrap_or(0);
        if n_docs < 4 || dim == 0 {
            return Self::build(vectors, 0, seed);
        }
        let mut data = vec![0.0f32; n_docs * dim];
        for (row, v) in data.chunks_exact_mut(dim).zip(&vectors) {
            let n = row.len().min(v.len());
            row[..n].copy_from_slice(&v[..n]);
            normalize(row);
        }
        let chosen = elbow_n_clusters(&data, dim, n_docs, seed);
        Self::build(vectors, chosen, seed)
    }

    /// Number of IVF clusters in use (0 when IVF is disabled).
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Replace the search options (parallelism knobs).
    pub fn with_options(mut self, options: SearchOptions) -> Self {
        self.options = options;
        self
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

    /// Whether IVF was requested at build time but silently impossible
    /// (corpus smaller than `n_clusters * 2`).
    pub fn ivf_disabled(&self) -> bool {
        self.ivf_fallback.is_some()
    }

    /// The structured reason IVF is falling back to exact scans, if it
    /// is (surfaced in serve `stats` replies).
    pub fn ivf_fallback(&self) -> Option<IvfFallback> {
        self.ivf_fallback
    }

    /// Whether IVF search is active.
    pub fn ivf_enabled(&self) -> bool {
        !self.centroids.is_empty()
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

    /// Run a [`SearchRequest`] — the one retrieval entrypoint.
    ///
    /// [`Strategy::Exact`] scores every query in one batched kernel
    /// pass; [`Strategy::Ivf`] probes per query, falling back
    /// to the exact pass when the index has no quantizer. Exact hits are
    /// bit-identical to [`crate::reference::scan_exact`] on every query.
    ///
    /// `span` receives one `retrieval.search` child carrying the request
    /// shape and work counters, and the `retrieval.*` counters accumulate
    /// in its tracer (catalogue in `docs/observability.md`); pass
    /// [`obs::Span::disabled`] when untraced.
    ///
    /// ```
    /// use kgrag::{SearchRequest, VectorIndex};
    ///
    /// let docs = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.7, 0.7]];
    /// let index = VectorIndex::build(docs, 0, 7);
    /// let queries = [vec![1.0, 0.1]];
    /// let result = index.search(&SearchRequest::exact(&queries, 2), &obs::Span::disabled());
    /// let ids: Vec<usize> = result.hits[0].iter().map(|&(id, _)| id).collect();
    /// assert_eq!(ids, [0, 2]);
    /// assert_eq!(result.stats.vectors_scanned, 3);
    /// ```
    pub fn search(&self, req: &SearchRequest<'_>, span: &obs::Span) -> SearchResult {
        let ivf_probes = match req.strategy {
            Strategy::Ivf { probes } if self.ivf_enabled() => Some(probes),
            _ => None,
        };
        let mut result = match ivf_probes {
            Some(probes) => self.ivf_search(req.queries, req.k, probes),
            None => self.exact_search(req.queries, req.k),
        };
        if matches!(req.strategy, Strategy::Ivf { .. }) {
            result.stats.ivf_fallback = self.ivf_fallback;
        }
        let kind = if ivf_probes.is_some() { "ivf" } else { "exact" };
        record_search(span, kind, self, req, &result);
        result
    }

    /// Exact top-k of one query, with the scan's work counters: a
    /// one-query [`VectorIndex::search`], kept because the `perfbench`
    /// replay calls it.
    pub fn search_exact_with_stats(&self, query: &[f32], k: usize) -> (Vec<Hit>, SearchStats) {
        self.search(
            &SearchRequest::exact(&[query.to_vec()], k),
            &obs::Span::disabled(),
        )
        .into_single()
    }

    /// Score a gathered set of stored rows against one query in a single
    /// batched kernel invocation: the rows are packed into one contiguous
    /// panel and handed to [`matmul_tile`], so the dispatch overhead
    /// amortizes over the whole candidate set instead of being paid per
    /// dot. Scores are bit-identical to `dot(prepared_query, row)` — the
    /// reranking consumer in [`crate::pipeline`] relies on that to stay
    /// comparable with first-round retrieval scores.
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

    /// An exact request: one kernel pass for all queries, the per-query
    /// counters summed.
    fn exact_search(&self, queries: &[Vec<f32>], k: usize) -> SearchResult {
        let (scans, shards) = self.exact_scan(queries, k);
        let scanned = if k == 0 { 0 } else { self.n_docs };
        let mut stats = SearchStats {
            parallel_shards: shards,
            batch_queries: queries.len(),
            ..SearchStats::default()
        };
        let hits = scans
            .into_iter()
            .map(|(hits, pushes)| {
                stats.vectors_scanned += scanned;
                stats.heap_pushes += pushes;
                hits
            })
            .collect();
        SearchResult { hits, stats }
    }

    /// Exact top-k of every query in **one arena pass**, tile-sharded
    /// across threads past the parallel threshold. Returns each query's
    /// hits with its heap pushes, plus the worker shards the pass spawned
    /// (zero when it ran sequentially). Unless `k` is 0, every query
    /// scanned all `n_docs` rows.
    fn exact_scan(&self, queries: &[Vec<f32>], k: usize) -> (Vec<(Vec<Hit>, usize)>, usize) {
        if self.n_docs == 0 || k == 0 || queries.is_empty() {
            return (vec![(Vec::new(), 0); queries.len()], 0);
        }
        let qmat = self.prepare_batch(queries);
        let n_q = queries.len();
        let shards = self.scan_shards();
        if shards > 1 {
            (self.batch_scan_parallel(&qmat, n_q, k, shards), shards)
        } else {
            let tops = self.batch_scan_range(&qmat, n_q, 0, self.n_docs, k);
            (tops.into_iter().map(TopK::into_scan).collect(), 0)
        }
    }

    /// Worker count for an exact pass over the whole arena: 1 (run
    /// sequentially) below the parallel threshold, otherwise the pinned
    /// or available worker count, capped at the document count.
    fn scan_shards(&self) -> usize {
        let parallel = self
            .options
            .parallel_threshold
            .is_some_and(|threshold| self.n_docs >= threshold.max(1));
        if !parallel {
            return 1;
        }
        let workers = self.options.shard_count.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        workers.min(self.n_docs)
    }

    /// Pack queries into a flat row-major `Q × dim` matrix, each row
    /// prepared exactly like [`VectorIndex::prepare_query`] (zero-pad /
    /// truncate to `dim`, unit-normalize).
    fn prepare_batch(&self, queries: &[Vec<f32>]) -> Vec<f32> {
        let mut qmat = vec![0.0f32; queries.len() * self.dim];
        for (row, q) in qmat.chunks_exact_mut(self.dim.max(1)).zip(queries) {
            let n = row.len().min(q.len());
            row[..n].copy_from_slice(&q[..n]);
            normalize(row);
        }
        qmat
    }

    /// Score arena rows `[start, end)` against all `n_q` queries,
    /// tile-by-tile through the blocked kernel, maintaining one bounded
    /// top-k heap per query.
    fn batch_scan_range(
        &self,
        qmat: &[f32],
        n_q: usize,
        start: usize,
        end: usize,
        k: usize,
    ) -> Vec<TopK> {
        let mut tops: Vec<TopK> = (0..n_q).map(|_| TopK::new(k)).collect();
        let mut scores = vec![0.0f32; n_q * BATCH_TILE.min(end - start)];
        let mut t0 = start;
        while t0 < end {
            let t1 = (t0 + BATCH_TILE).min(end);
            let n_rows = t1 - t0;
            let rows = &self.data[t0 * self.dim..t1 * self.dim];
            matmul_tile(
                qmat,
                n_q,
                rows,
                n_rows,
                self.dim,
                &mut scores[..n_q * n_rows],
            );
            for (qi, top) in tops.iter_mut().enumerate() {
                // IEEE fast-reject against the cached worst: once the heap
                // is full, a score `<=` the current worst loses under
                // `cmp_hits` too (equal scores tie-break toward the heap's
                // smaller doc id — rows arrive in ascending id order), so
                // the O(1) f32 compare skips the f64 total-order compare
                // without changing which offers succeed. NaN falls through
                // (`NaN <= w` is false) and takes the slow path, where the
                // total order ranks it. `first_above` skips a whole run of
                // losers at once, several scores per compare.
                let row_scores = &scores[qi * n_rows..(qi + 1) * n_rows];
                let mut worst = top.worst_score_if_full();
                let mut r = 0;
                while r < n_rows {
                    if let Some(w) = worst {
                        match first_above(&row_scores[r..], w) {
                            Some(skip) => r += skip,
                            None => break,
                        }
                    }
                    top.offer((t0 + r, row_scores[r]));
                    worst = top.worst_score_if_full();
                    r += 1;
                }
            }
            t0 = t1;
        }
        tops
    }

    /// Tile-sharded exact pass: the **arena** is split into `shards`
    /// contiguous row ranges (every query visits every shard — the dual
    /// of sharding by query, which would forfeit the amortized arena
    /// pass). Per-shard, per-query top-k survivors merge under the
    /// total-order comparator, so results are bit-identical to the
    /// sequential pass; each query's pushes sum over its shard heaps.
    fn batch_scan_parallel(
        &self,
        qmat: &[f32],
        n_q: usize,
        k: usize,
        shards: usize,
    ) -> Vec<(Vec<Hit>, usize)> {
        let n = self.n_docs;
        let chunk = n.div_ceil(shards);
        let results: Vec<Vec<(Vec<Hit>, usize)>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| {
                    let lo = s * chunk;
                    let hi = (lo + chunk).min(n);
                    scope.spawn(move |_| {
                        self.batch_scan_range(qmat, n_q, lo, hi, k)
                            .into_iter()
                            .map(TopK::into_scan)
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch scan worker panicked"))
                .collect()
        })
        .expect("batch scan scope");
        let mut merged: Vec<(Vec<Hit>, usize)> = (0..n_q)
            .map(|_| (Vec::with_capacity(shards * k), 0))
            .collect();
        for shard in results {
            for ((hits, pushes), (shard_hits, shard_pushes)) in merged.iter_mut().zip(shard) {
                hits.extend(shard_hits);
                *pushes += shard_pushes;
            }
        }
        for (hits, _) in &mut merged {
            sort_hits(hits);
            hits.truncate(k);
        }
        merged
    }

    /// Approximate top-k for every query, one probe loop each.
    fn ivf_search(&self, queries: &[Vec<f32>], k: usize, n_probe: usize) -> SearchResult {
        let mut stats = SearchStats::default();
        let hits = queries
            .iter()
            .map(|q| self.ivf_probe(q, k, n_probe, &mut stats))
            .collect();
        SearchResult { hits, stats }
    }

    /// One query's IVF probe: score the centroids, then the members of
    /// the `n_probe` nearest clusters through one heap.
    fn ivf_probe(
        &self,
        query: &[f32],
        k: usize,
        n_probe: usize,
        stats: &mut SearchStats,
    ) -> Vec<Hit> {
        if self.n_docs == 0 || k == 0 {
            return Vec::new();
        }
        let q = self.prepare_query(query);
        let n_clusters = self.clusters.len();
        // coarse quantizer: nearest centroids under the same kernel
        let mut nearest = TopK::new(n_probe.max(1));
        for (ci, c) in self.centroids.chunks_exact(self.dim).enumerate() {
            nearest.offer((ci, dot(&q, c)));
        }
        stats.vectors_scanned += n_clusters;
        let probed = nearest.into_sorted();
        stats.ivf_probes += probed.len();
        // fine scan: members of the probed clusters through one heap
        let mut top = TopK::new(k);
        for &(ci, _) in &probed {
            for &doc in &self.clusters[ci] {
                top.offer((doc, dot(&q, self.row(doc))));
            }
            stats.vectors_scanned += self.clusters[ci].len();
        }
        stats.heap_pushes += top.pushes;
        top.into_sorted()
    }
}

/// Record one [`VectorIndex::search`] on a `retrieval.search` child span
/// and bump the `retrieval.*` counters (catalogue in
/// `docs/observability.md`). Kernel invocations add
/// `retrieval.batch.searches` / `retrieval.batch.queries`; IVF fallbacks
/// carry their structured reason as the `ivf_fallback` attribute.
fn record_search(
    parent: &obs::Span,
    kind: &str,
    index: &VectorIndex,
    req: &SearchRequest<'_>,
    result: &SearchResult,
) {
    let stats = &result.stats;
    let span = parent.child("retrieval.search");
    span.set("kind", kind);
    span.set("docs_indexed", index.len());
    span.set("k", req.k);
    span.set("queries", req.queries.len());
    span.set("hits", result.hits.iter().map(Vec::len).sum::<usize>());
    span.set("vectors_scanned", stats.vectors_scanned);
    span.set("heap_pushes", stats.heap_pushes);
    span.set("parallel_shards", stats.parallel_shards);
    span.count("retrieval.searches", 1);
    span.count("retrieval.vectors_scanned", stats.vectors_scanned as u64);
    span.count("retrieval.heap_pushes", stats.heap_pushes as u64);
    span.count("retrieval.parallel_shards", stats.parallel_shards as u64);
    if stats.ivf_probes > 0 {
        span.set("ivf_probes", stats.ivf_probes);
        span.count("retrieval.ivf_probes", stats.ivf_probes as u64);
    }
    if stats.batch_queries > 0 {
        span.set("batch_queries", stats.batch_queries);
        span.count("retrieval.batch.searches", 1);
        span.count("retrieval.batch.queries", stats.batch_queries as u64);
    }
    if let Some(fallback) = stats.ivf_fallback {
        span.set("ivf_disabled", true);
        span.set("ivf_fallback", fallback.reason());
        span.count("retrieval.ivf_disabled", 1);
    }
}

/// How the initial IVF centroids are chosen before Lloyd iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IvfSeeding {
    /// First `k` documents of a seeded shuffle (the previous default;
    /// kept as the regression baseline the bench gates against).
    Shuffle,
    /// k-means++: each next seed is drawn with probability proportional
    /// to its squared distance from the already-chosen set, spreading
    /// seeds across the corpus instead of landing several in one dense
    /// region. This is what rescues recall on corpora without clean
    /// cluster structure (the verbalized-KG case).
    KmeansPP,
}

/// Lloyd iterations for a full k-means build.
const KMEANS_ITERS: usize = 10;

/// Lloyd iterations per candidate `k` during the elbow sweep — enough
/// for inertia to be comparable across `k`, cheap enough to sweep.
const ELBOW_ITERS: usize = 4;

/// Minimum relative inertia improvement a doubling of `k` must deliver
/// for the elbow sweep to keep it.
const ELBOW_MIN_GAIN: f64 = 0.10;

/// Seeded Lloyd's k-means over the arena (cosine space).
///
/// Rows are unit-normalized, so assignment is a plain dot against the
/// centroid arena; centroids are normalized **once per update step**
/// (cosine is scale-invariant, so ranking is unchanged while every
/// assignment pass drops the per-pair norm recomputation the seed paid).
/// Returns the final inertia (summed cosine distance of every document
/// to its centroid) alongside the clustering, for the elbow sweep.
fn kmeans_with(
    data: &[f32],
    dim: usize,
    n_docs: usize,
    k: usize,
    seed: u64,
    seeding: IvfSeeding,
    iters: usize,
) -> (Vec<f32>, Vec<Vec<usize>>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids = vec![0.0f32; k * dim];
    match seeding {
        IvfSeeding::Shuffle => {
            let mut ids: Vec<usize> = (0..n_docs).collect();
            ids.shuffle(&mut rng);
            for (c, &i) in centroids.chunks_exact_mut(dim).zip(ids.iter().take(k)) {
                c.copy_from_slice(&data[i * dim..(i + 1) * dim]);
            }
        }
        IvfSeeding::KmeansPP => {
            let chosen = kmeanspp_seeds(data, dim, n_docs, k, &mut rng);
            for (c, &i) in centroids.chunks_exact_mut(dim).zip(&chosen) {
                c.copy_from_slice(&data[i * dim..(i + 1) * dim]);
            }
        }
    }
    let mut assignment = vec![0usize; n_docs];
    let mut inertia = 0.0f64;
    for _ in 0..iters {
        // assign: argmax dot, first centroid wins ties (seed behavior)
        inertia = 0.0;
        for (i, v) in data.chunks_exact(dim).enumerate() {
            let mut best = (0usize, f32::NEG_INFINITY);
            for (ci, c) in centroids.chunks_exact(dim).enumerate() {
                let s = dot(v, c);
                if s > best.1 {
                    best = (ci, s);
                }
            }
            assignment[i] = best.0;
            inertia += f64::from(1.0 - best.1.clamp(-1.0, 1.0));
        }
        // update: mean of members, normalized once; empty clusters keep
        // their previous centroid
        let mut sums = vec![0.0f32; k * dim];
        let mut counts = vec![0usize; k];
        for (i, v) in data.chunks_exact(dim).enumerate() {
            let c = assignment[i];
            counts[c] += 1;
            for (s, x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(v) {
                *s += x;
            }
        }
        for ci in 0..k {
            if counts[ci] > 0 {
                let c = &mut centroids[ci * dim..(ci + 1) * dim];
                c.copy_from_slice(&sums[ci * dim..(ci + 1) * dim]);
                normalize(c);
            }
        }
    }
    let mut clusters = vec![Vec::new(); k];
    for (i, &c) in assignment.iter().enumerate() {
        clusters[c].push(i);
    }
    (centroids, clusters, inertia)
}

/// The elbow sweep behind [`VectorIndex::build_auto`]: candidate `k`
/// doubles from 2; a candidate is kept while it cuts inertia at least
/// [`ELBOW_MIN_GAIN`] relative to the previous kept candidate. `k` is
/// capped at `√n_docs` (and 256): on noisy corpora the inertia keeps
/// dropping ≥ 10% per doubling essentially until `k ≈ n` — every pair
/// of documents becomes its own "cluster" — so without the cap the
/// sweep degenerates into memorization instead of structure discovery.
fn elbow_n_clusters(data: &[f32], dim: usize, n_docs: usize, seed: u64) -> usize {
    let sqrt_cap = (n_docs as f64).sqrt() as usize;
    let mut chosen = 2;
    let mut prev_inertia: Option<f64> = None;
    let mut k = 2;
    while k * 2 <= n_docs && k <= sqrt_cap.min(256) {
        let (_, _, inertia) = kmeans_with(
            data,
            dim,
            n_docs,
            k,
            seed,
            IvfSeeding::KmeansPP,
            ELBOW_ITERS,
        );
        match prev_inertia {
            None => {
                chosen = k;
                prev_inertia = Some(inertia);
            }
            Some(prev) if prev <= 0.0 => break,
            Some(prev) => {
                if (prev - inertia) / prev >= ELBOW_MIN_GAIN {
                    chosen = k;
                    prev_inertia = Some(inertia);
                } else {
                    break;
                }
            }
        }
        k *= 2;
    }
    chosen
}

/// Backwards-shaped entry point: full iterations, chosen seeding.
fn kmeans(
    data: &[f32],
    dim: usize,
    n_docs: usize,
    k: usize,
    seed: u64,
    seeding: IvfSeeding,
) -> (Vec<f32>, Vec<Vec<usize>>) {
    let (centroids, clusters, _) = kmeans_with(data, dim, n_docs, k, seed, seeding, KMEANS_ITERS);
    (centroids, clusters)
}

/// k-means++ seed selection: the first seed is drawn uniformly; each
/// subsequent seed with probability proportional to its distance from
/// the nearest already-chosen seed (`‖a−b‖² = 2(1−a·b)` on unit rows, so
/// `1 − dot` is the proportional weight). Deterministic for a given rng
/// state.
fn kmeanspp_seeds(
    data: &[f32],
    dim: usize,
    n_docs: usize,
    k: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    use rand::Rng;
    let row = |i: usize| &data[i * dim..(i + 1) * dim];
    let mut chosen = Vec::with_capacity(k);
    let first = rng.gen_range(0..n_docs);
    chosen.push(first);
    // weight[i]: cosine distance to the nearest chosen seed so far
    let mut weight: Vec<f64> = (0..n_docs)
        .map(|i| f64::from((1.0 - dot(row(i), row(first))).max(0.0)))
        .collect();
    while chosen.len() < k {
        let total: f64 = weight.iter().sum();
        let next = if total > 0.0 {
            // walk the cumulative weights to the sampled mass point
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n_docs - 1;
            for (i, w) in weight.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        } else {
            // all remaining mass is zero (duplicate rows): uniform
            rng.gen_range(0..n_docs)
        };
        chosen.push(next);
        for (i, w) in weight.iter_mut().enumerate() {
            let d = f64::from((1.0 - dot(row(i), row(next))).max(0.0));
            if d < *w {
                *w = d;
            }
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::scan_exact;
    use slm::Embedder;

    fn corpus_index(n_clusters: usize) -> (VectorIndex, Embedder, Vec<String>) {
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
        (VectorIndex::build(vectors, n_clusters, 7), e, docs)
    }

    /// A one-query request under `strategy`, untraced.
    fn search_one(idx: &VectorIndex, q: &[f32], k: usize, strategy: Strategy) -> SearchResult {
        let queries = [q.to_vec()];
        let req = SearchRequest {
            queries: &queries,
            k,
            strategy,
        };
        idx.search(&req, &obs::Span::disabled())
    }

    fn exact(idx: &VectorIndex, q: &[f32], k: usize) -> Vec<Hit> {
        search_one(idx, q, k, Strategy::Exact).into_single().0
    }

    fn ivf(idx: &VectorIndex, q: &[f32], k: usize, probes: usize) -> Vec<Hit> {
        search_one(idx, q, k, Strategy::Ivf { probes })
            .into_single()
            .0
    }

    fn ids(hits: &[Hit]) -> Vec<usize> {
        hits.iter().map(|&(i, _)| i).collect()
    }

    fn hit_bits(hits: &[Hit]) -> Vec<(usize, u32)> {
        hits.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    }

    #[test]
    fn exact_search_finds_relevant_docs() {
        let (idx, e, docs) = corpus_index(0);
        let hits = exact(&idx, &e.embed("a drama film about love"), 5);
        assert_eq!(hits.len(), 5);
        for (id, _) in &hits {
            assert!(docs[*id].contains("drama"), "{}", docs[*id]);
        }
    }

    #[test]
    fn ivf_recall_overlaps_exact() {
        let (idx, e, _) = corpus_index(4);
        let q = e.embed("database query papers");
        let exact = ids(&exact(&idx, &q, 5));
        let approx = ids(&ivf(&idx, &q, 5, 2));
        let overlap = exact.iter().filter(|i| approx.contains(i)).count();
        assert!(overlap >= 3, "IVF recall too low: {overlap}/5");
    }

    #[test]
    fn ivf_probing_more_clusters_cannot_reduce_recall() {
        let (idx, e, _) = corpus_index(4);
        let q = e.embed("drama love story");
        let exact = ids(&exact(&idx, &q, 5));
        let few = ids(&ivf(&idx, &q, 5, 1));
        let all = ids(&ivf(&idx, &q, 5, 4));
        let recall = |v: &[usize]| exact.iter().filter(|i| v.contains(i)).count();
        assert!(recall(&all) >= recall(&few));
        assert_eq!(recall(&all), 5, "probing all clusters must equal exact");
    }

    #[test]
    fn multi_query_ivf_request_probes_each_query() {
        let (idx, e, _) = corpus_index(4);
        let queries: Vec<Vec<f32>> = ["drama about love", "database query papers"]
            .iter()
            .map(|q| e.embed(q))
            .collect();
        let result = idx.search(&SearchRequest::ivf(&queries, 5, 2), &obs::Span::disabled());
        let mut summed = SearchStats::default();
        for (q, hits) in queries.iter().zip(&result.hits) {
            let (solo, stats) = search_one(&idx, q, 5, Strategy::Ivf { probes: 2 }).into_single();
            assert_eq!(hit_bits(hits), hit_bits(&solo));
            summed.vectors_scanned += stats.vectors_scanned;
            summed.ivf_probes += stats.ivf_probes;
        }
        assert_eq!(result.stats.vectors_scanned, summed.vectors_scanned);
        assert_eq!(result.stats.ivf_probes, 4);
        assert_eq!(result.stats.batch_queries, 0);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = VectorIndex::build(Vec::new(), 0, 0);
        assert!(idx.is_empty());
        assert!(exact(&idx, &[0.0; 4], 3).is_empty());
    }

    #[test]
    fn build_is_deterministic() {
        let (a, e, _) = corpus_index(4);
        let (b, _, _) = corpus_index(4);
        let q = e.embed("drama");
        assert_eq!(ivf(&a, &q, 3, 2), ivf(&b, &q, 3, 2));
    }

    #[test]
    fn heap_topk_equals_full_sort() {
        let (idx, e, _) = corpus_index(0);
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
        let (idx, e, _) = corpus_index(0);
        let hits = exact(&idx, &e.embed("anything"), 1000);
        assert_eq!(hits.len(), idx.len());
        for w in hits.windows(2) {
            assert_eq!(cmp_hits(&w[0], &w[1]), Ordering::Less);
        }
    }

    #[test]
    fn zero_query_ranks_by_doc_id() {
        let (idx, _, _) = corpus_index(0);
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
            VectorIndex::build(vs, 0, 0)
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
    fn forced_sharding_is_bit_identical_to_sequential() {
        let (idx, e, _) = corpus_index(0);
        let sequential = idx.clone().with_options(SearchOptions::sequential());
        let sharded = idx.with_options(SearchOptions {
            parallel_threshold: Some(1),
            shard_count: Some(3),
        });
        for n_q in [1, 5] {
            let queries: Vec<Vec<f32>> = (0..n_q).map(|i| e.embed(&format!("topic {i}"))).collect();
            let req = SearchRequest::exact(&queries, 4);
            let seq = sequential.search(&req, &obs::Span::disabled());
            let par = sharded.search(&req, &obs::Span::disabled());
            for (s, p) in seq.hits.iter().zip(&par.hits) {
                assert_eq!(hit_bits(s), hit_bits(p));
            }
            assert_eq!(par.stats.parallel_shards, 3);
            assert_eq!(seq.stats.parallel_shards, 0);
            assert_eq!(seq.stats.vectors_scanned, par.stats.vectors_scanned);
            assert_eq!(seq.stats.batch_queries, n_q);
        }
    }

    #[test]
    fn search_is_bit_identical_to_reference_scan() {
        let (idx, e, _) = corpus_index(0);
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
        let result = idx.search(&SearchRequest::exact(&queries, 6), &obs::Span::disabled());
        assert_eq!(result.hits.len(), queries.len());
        for (q, hits) in queries.iter().zip(&result.hits) {
            assert_eq!(hit_bits(hits), hit_bits(&scan_exact(&idx, q, 6)));
        }
        assert_eq!(result.stats.vectors_scanned, idx.len() * queries.len());
    }

    #[test]
    fn search_handles_empty_request_and_empty_index() {
        let (idx, e, _) = corpus_index(0);
        let none = idx.search(&SearchRequest::exact(&[], 5), &obs::Span::disabled());
        assert!(none.hits.is_empty());
        let empty = VectorIndex::build(Vec::new(), 0, 0);
        let out = empty.search(
            &SearchRequest::exact(&[e.embed("x")], 5),
            &obs::Span::disabled(),
        );
        assert_eq!(out.hits, vec![Vec::new()]);
        assert_eq!(out.stats.vectors_scanned, 0);
    }

    #[test]
    fn score_docs_is_bit_identical_to_exact_scores() {
        let (idx, e, _) = corpus_index(0);
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
    fn multi_query_search_records_batch_counters() {
        let (idx, e, _) = corpus_index(0);
        let (tracer, recorder) = obs::Tracer::in_memory();
        let root = tracer.span("test");
        let queries = vec![e.embed("drama"), e.embed("papers")];
        idx.search(&SearchRequest::exact(&queries, 5), &root);
        root.finish();
        assert_eq!(tracer.registry().counter("retrieval.batch.searches"), 1);
        assert_eq!(tracer.registry().counter("retrieval.batch.queries"), 2);
        assert_eq!(tracer.registry().counter("retrieval.searches"), 1);
        assert_eq!(tracer.registry().counter("retrieval.vectors_scanned"), 80);
        let span = recorder.take().pop().expect("root recorded");
        let search = span.find("retrieval.search").expect("search span");
        assert_eq!(
            search.attr("kind").and_then(obs::AttrValue::as_str),
            Some("exact")
        );
        assert_eq!(search.attr_u64("queries"), Some(2));
        assert_eq!(search.attr_u64("batch_queries"), Some(2));
    }

    #[test]
    fn kmeanspp_seeding_spreads_and_stays_deterministic() {
        let (a, e, _) = corpus_index(4);
        let q = e.embed("drama");
        // deterministic: same seed, same clustering
        let (b, _, _) = corpus_index(4);
        assert_eq!(ivf(&a, &q, 3, 2), ivf(&b, &q, 3, 2));
        // both seedings produce a working quantizer on this corpus
        let docs: Vec<String> = (0..40).map(|i| format!("doc number {i}")).collect();
        let vectors: Vec<Vec<f32>> = docs.iter().map(|d| e.embed(d)).collect();
        for seeding in [IvfSeeding::Shuffle, IvfSeeding::KmeansPP] {
            let idx = VectorIndex::build_with_seeding(vectors.clone(), 4, 7, seeding);
            assert!(idx.ivf_enabled(), "{seeding:?}");
        }
    }

    #[test]
    fn build_auto_picks_topic_count_scale() {
        // two clean topics: the elbow should stop early, not fragment
        let e = Embedder::new();
        let vectors: Vec<Vec<f32>> = (0..64)
            .map(|i| {
                if i % 2 == 0 {
                    e.embed(&format!("films drama love cinema movie {}", i % 4))
                } else {
                    e.embed(&format!("databases queries tables index {}", i % 4))
                }
            })
            .collect();
        let idx = VectorIndex::build_auto(vectors, 7);
        assert!(idx.ivf_enabled());
        assert!(
            (2..=16).contains(&idx.n_clusters()),
            "chose {}",
            idx.n_clusters()
        );
        // tiny corpora degrade to exact-only
        let tiny = VectorIndex::build_auto(vec![vec![1.0, 0.0]; 3], 7);
        assert!(!tiny.ivf_enabled());
    }

    #[test]
    fn ivf_fallback_reason_is_structured() {
        let vectors: Vec<Vec<f32>> = (0..6)
            .map(|i| slm::embedding::hash_vector(&format!("doc-{i}")))
            .collect();
        let idx = VectorIndex::build(vectors, 4, 7);
        let fallback = idx.ivf_fallback().expect("fallback recorded");
        assert_eq!(
            fallback,
            IvfFallback::CorpusTooSmall {
                n_docs: 6,
                min_docs: 8
            }
        );
        assert_eq!(fallback.reason(), "corpus_too_small");
        assert!(fallback.describe().contains("6 docs < 8"));
        let q = slm::embedding::hash_vector("q");
        let stats = search_one(&idx, &q, 3, Strategy::Ivf { probes: 2 }).stats;
        assert_eq!(stats.ivf_fallback, Some(fallback));
        // exact requests, healthy IVF searches carry no reason
        assert_eq!(
            search_one(&idx, &q, 3, Strategy::Exact).stats.ivf_fallback,
            None
        );
        let (healthy, _, _) = corpus_index(4);
        assert_eq!(healthy.ivf_fallback(), None);
        let stats = search_one(&healthy, &q, 3, Strategy::Ivf { probes: 2 }).stats;
        assert_eq!(stats.ivf_fallback, None);
    }

    #[test]
    fn ivf_disabled_fallback_is_observable() {
        // 6 docs < 4 clusters * 2: IVF silently impossible
        let vectors: Vec<Vec<f32>> = (0..6)
            .map(|i| slm::embedding::hash_vector(&format!("doc-{i}")))
            .collect();
        let idx = VectorIndex::build(vectors, 4, 7);
        assert!(idx.ivf_disabled());
        assert!(!idx.ivf_enabled());
        let (tracer, recorder) = obs::Tracer::in_memory();
        let root = tracer.span("test");
        let q = [slm::embedding::hash_vector("doc-0")];
        let result = idx.search(&SearchRequest::ivf(&q, 3, 2), &root);
        root.finish();
        assert_eq!(result.hits[0].len(), 3);
        assert_eq!(tracer.registry().counter("retrieval.ivf_disabled"), 1);
        let span = recorder.take().pop().expect("root recorded");
        let search = span.find("retrieval.search").expect("search span");
        assert_eq!(
            search.attr("ivf_disabled"),
            Some(&obs::AttrValue::Bool(true))
        );
        assert_eq!(
            search.attr("kind").and_then(obs::AttrValue::as_str),
            Some("exact")
        );
    }

    #[test]
    fn traced_search_records_counters() {
        let (idx, e, _) = corpus_index(4);
        let (tracer, recorder) = obs::Tracer::in_memory();
        let root = tracer.span("test");
        idx.search(&SearchRequest::exact(&[e.embed("drama")], 5), &root);
        idx.search(&SearchRequest::ivf(&[e.embed("papers")], 5, 2), &root);
        root.finish();
        assert_eq!(tracer.registry().counter("retrieval.searches"), 2);
        assert!(tracer.registry().counter("retrieval.vectors_scanned") >= 40);
        assert!(tracer.registry().counter("retrieval.heap_pushes") >= 5);
        assert_eq!(tracer.registry().counter("retrieval.ivf_disabled"), 0);
        assert!(tracer.registry().counter("retrieval.ivf_probes") >= 2);
        let span = recorder.take().pop().expect("root recorded");
        let search = span.find("retrieval.search").expect("search span");
        assert!(search.attr_u64("vectors_scanned").unwrap() >= 40);
    }
}
