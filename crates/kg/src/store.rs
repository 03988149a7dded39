//! The indexed in-memory triple store.
//!
//! [`Graph`] owns a [`TermPool`] and a flat columnar index: one sorted
//! arena `Vec<[Sym; 3]>` in SPO order plus two `u32` row-id permutation
//! arrays (POS, OSP), so every binding shape of a triple pattern is
//! answered by a `partition_point` binary-search range — 20 bytes per
//! triple instead of three pointer-chasing B-trees. Mutations land in a
//! small `BTreeSet` delta overlay (adds plus tombstones) merged into the
//! base by [`Graph::compact`]; reads merge the base range with the delta
//! range on the fly, so results are identical before and after
//! compaction. See `docs/storage.md` for the full layout.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use crate::names::EntityNames;
use crate::namespace;
use crate::term::{Sym, Term, TermPool};

/// Smallest possible id, used as an inclusive range bound.
const SYM_MIN: Sym = Sym(0);
/// Largest possible id, used as an inclusive range bound.
const SYM_MAX: Sym = Sym(u32::MAX);

/// Extra delta entries tolerated before an automatic [`Graph::compact`]:
/// the overlay may grow to `DELTA_SLACK + base/2` entries, making the
/// amortized cost of incremental insertion `O(log n)` probes per triple
/// plus a geometric series of merges.
const DELTA_SLACK: usize = 1024;

/// Minimum number of mutations between statistics-epoch bumps. Below
/// this, [`PredicateCard`] drift cannot have moved any join-order
/// decision enough to matter, so cached plans stay valid; see
/// [`Graph::stats_epoch`].
const EPOCH_MIN_DRIFT: usize = 64;

/// A triple of interned term ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject id.
    pub s: Sym,
    /// Predicate id.
    pub p: Sym,
    /// Object id.
    pub o: Sym,
}

impl Triple {
    /// Construct from parts.
    pub fn new(s: Sym, p: Sym, o: Sym) -> Self {
        Triple { s, p, o }
    }
}

/// A triple pattern: `None` positions are wildcards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject constraint.
    pub s: Option<Sym>,
    /// Predicate constraint.
    pub p: Option<Sym>,
    /// Object constraint.
    pub o: Option<Sym>,
}

impl TriplePattern {
    /// The fully unconstrained pattern.
    pub fn any() -> Self {
        Self::default()
    }

    /// Does a concrete triple match this pattern?
    #[inline]
    pub fn matches(&self, t: &Triple) -> bool {
        self.s.is_none_or(|s| s == t.s)
            && self.p.is_none_or(|p| p == t.p)
            && self.o.is_none_or(|o| o == t.o)
    }
}

/// Which permutation a scan runs under. Keys are the triple's components
/// rotated so the permutation's sort order is plain tuple order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Perm {
    Spo,
    Pos,
    Osp,
}

impl Perm {
    /// The permuted sort key of a base row.
    #[inline]
    fn key(self, r: [Sym; 3]) -> (Sym, Sym, Sym) {
        match self {
            Perm::Spo => (r[0], r[1], r[2]),
            Perm::Pos => (r[1], r[2], r[0]),
            Perm::Osp => (r[2], r[0], r[1]),
        }
    }

    /// Invert a permuted key back into a triple.
    #[inline]
    fn triple(self, k: (Sym, Sym, Sym)) -> Triple {
        match self {
            Perm::Spo => Triple {
                s: k.0,
                p: k.1,
                o: k.2,
            },
            Perm::Pos => Triple {
                s: k.2,
                p: k.0,
                o: k.1,
            },
            Perm::Osp => Triple {
                s: k.1,
                p: k.2,
                o: k.0,
            },
        }
    }
}

/// Per-predicate cardinality statistics, maintained incrementally.
///
/// These are the histogram buckets the query optimizer's join ordering
/// consumes: knowing how many triples a predicate has *and* over how many
/// distinct subjects/objects they spread yields the average fan-out
/// (`triples / distinct_subjects` matches per bound subject, and likewise
/// for objects) without scanning any index at plan time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PredicateCard {
    /// Total triples carrying this predicate.
    pub triples: usize,
    /// Distinct subjects appearing with this predicate.
    pub distinct_subjects: usize,
    /// Distinct objects appearing with this predicate.
    pub distinct_objects: usize,
}

impl PredicateCard {
    /// Expected matches of `(s, p, ?o)` for a known subject: the average
    /// out-fan of this predicate (at least 1 while any triple exists).
    pub fn subject_fanout(&self) -> usize {
        ratio_ceil(self.triples, self.distinct_subjects)
    }

    /// Expected matches of `(?s, p, o)` for a known object: the average
    /// in-fan of this predicate (at least 1 while any triple exists).
    pub fn object_fanout(&self) -> usize {
        ratio_ceil(self.triples, self.distinct_objects)
    }
}

/// `ceil(n / d)` with `0` for an empty numerator and `n` for a zero
/// denominator (a predicate with triples always has distinct terms, so
/// the latter only guards against inconsistent inputs).
fn ratio_ceil(n: usize, d: usize) -> usize {
    if n == 0 {
        0
    } else if d == 0 {
        n
    } else {
        n.div_ceil(d)
    }
}

/// An indexed, interning triple store.
///
/// Iteration order of all query methods is deterministic (sorted by id
/// under the permutation each method scans).
#[derive(Debug, Default, Clone)]
pub struct Graph {
    pool: TermPool,
    /// The compacted arena: all base triples as `[s, p, o]`, sorted.
    base: Vec<[Sym; 3]>,
    /// Row ids into `base`, sorted by `(p, o, s)`.
    pos_idx: Vec<u32>,
    /// Row ids into `base`, sorted by `(o, s, p)`.
    osp_idx: Vec<u32>,
    /// Delta overlay: inserted triples not yet compacted, one set per
    /// permutation so delta range scans share the base's sort orders.
    /// Invariant: disjoint from the base rows.
    d_spo: BTreeSet<(Sym, Sym, Sym)>,
    d_pos: BTreeSet<(Sym, Sym, Sym)>,
    d_osp: BTreeSet<(Sym, Sym, Sym)>,
    /// Tombstones: base rows removed since the last compaction, stored as
    /// `(s, p, o)`. Membership is permutation-agnostic, so one set filters
    /// every scan. Invariant: a subset of the base rows.
    dead: BTreeSet<(Sym, Sym, Sym)>,
    /// Per-predicate cardinality histogram, maintained incrementally on
    /// insert/remove for selectivity estimation in the query optimizer.
    pred_stats: BTreeMap<Sym, PredicateCard>,
    /// Distinct subjects across the whole graph (predicate-agnostic).
    subject_card: usize,
    /// Distinct objects across the whole graph (predicate-agnostic).
    object_card: usize,
    /// Statistics epoch: bumped whenever cumulative [`PredicateCard`]
    /// drift since the last bump crosses a threshold. Plan caches key
    /// their validity on this (see `kgquery::PlanCache`).
    stats_epoch: u64,
    /// Mutations (inserts + removes) since the last epoch bump.
    stats_drift: usize,
    /// Live triple count at the last epoch bump, the basis of the
    /// relative drift threshold.
    epoch_len: usize,
    /// Entity-name index, built on first use by [`Graph::entity_names`].
    /// Every mutation that changes a triple drops it.
    names: OnceLock<EntityNames>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Immutable access to the term pool.
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// Mutable access to the term pool (for callers that need to intern
    /// query constants against this graph's id space).
    pub fn pool_mut(&mut self) -> &mut TermPool {
        &mut self.pool
    }

    /// Intern a term in this graph's pool.
    pub fn intern(&mut self, term: Term) -> Sym {
        self.pool.intern(term)
    }

    /// Intern an IRI in this graph's pool.
    pub fn intern_iri(&mut self, iri: impl Into<String>) -> Sym {
        self.pool.intern_iri(iri)
    }

    /// Resolve an id back to its term.
    pub fn resolve(&self, sym: Sym) -> &Term {
        self.pool.resolve(sym)
    }

    /// Human-readable label for an id.
    pub fn label(&self, sym: Sym) -> &str {
        self.pool.label(sym)
    }

    /// Whether a base row exists (live or tombstoned).
    #[inline]
    fn base_contains(&self, r: [Sym; 3]) -> bool {
        self.base.binary_search(&r).is_ok()
    }

    /// The half-open range of scan positions whose permuted key lies in
    /// `lo..=hi`. Positions index `base` directly for SPO and the row-id
    /// arrays for POS/OSP.
    fn base_range(&self, perm: Perm, lo: (Sym, Sym, Sym), hi: (Sym, Sym, Sym)) -> (usize, usize) {
        match perm {
            Perm::Spo => {
                let start = self.base.partition_point(|&r| perm.key(r) < lo);
                let len = self.base[start..].partition_point(|&r| perm.key(r) <= hi);
                (start, start + len)
            }
            Perm::Pos => idx_range(&self.base, &self.pos_idx, perm, lo, hi),
            Perm::Osp => idx_range(&self.base, &self.osp_idx, perm, lo, hi),
        }
    }

    /// The base row at a scan position under a permutation.
    #[inline]
    fn row_at(&self, perm: Perm, pos: usize) -> [Sym; 3] {
        match perm {
            Perm::Spo => self.base[pos],
            Perm::Pos => self.base[self.pos_idx[pos] as usize],
            Perm::Osp => self.base[self.osp_idx[pos] as usize],
        }
    }

    /// The delta-add set sorted under a permutation.
    #[inline]
    fn delta_set(&self, perm: Perm) -> &BTreeSet<(Sym, Sym, Sym)> {
        match perm {
            Perm::Spo => &self.d_spo,
            Perm::Pos => &self.d_pos,
            Perm::Osp => &self.d_osp,
        }
    }

    /// Whether any live triple has a permuted key in `lo..=hi`.
    fn live_empty(&self, perm: Perm, lo: (Sym, Sym, Sym), hi: (Sym, Sym, Sym)) -> bool {
        PatternScan::new(self, perm, lo, hi).next().is_none()
    }

    /// Number of live triples with a permuted key in `lo..=hi`.
    fn live_count(&self, perm: Perm, lo: (Sym, Sym, Sym), hi: (Sym, Sym, Sym)) -> usize {
        if self.dead.is_empty() {
            let (start, end) = self.base_range(perm, lo, hi);
            end - start + self.delta_set(perm).range(lo..=hi).count()
        } else {
            PatternScan::new(self, perm, lo, hi).count()
        }
    }

    /// Insert a triple of already-interned ids. Returns `true` if new.
    ///
    /// The triple lands in the delta overlay (or resurrects a tombstoned
    /// base row); cardinality statistics ([`PredicateCard`] per predicate
    /// plus the graph-wide distinct subject/object counts) are maintained
    /// here with `O(log n)` range-emptiness probes, so planning never has
    /// to scan. A large overlay triggers an automatic [`Graph::compact`].
    pub fn insert(&mut self, s: Sym, p: Sym, o: Sym) -> bool {
        let in_base = self.base_contains([s, p, o]);
        let tombstoned = in_base && self.dead.contains(&(s, p, o));
        if (in_base && !tombstoned) || self.d_spo.contains(&(s, p, o)) {
            return false;
        }
        let new_sp = self.live_empty(Perm::Spo, (s, p, SYM_MIN), (s, p, SYM_MAX));
        let new_po = self.live_empty(Perm::Pos, (p, o, SYM_MIN), (p, o, SYM_MAX));
        let new_subject = self.live_empty(Perm::Spo, (s, SYM_MIN, SYM_MIN), (s, SYM_MAX, SYM_MAX));
        let new_object = self.live_empty(Perm::Osp, (o, SYM_MIN, SYM_MIN), (o, SYM_MAX, SYM_MAX));
        if tombstoned {
            self.dead.remove(&(s, p, o));
        } else {
            self.d_spo.insert((s, p, o));
            self.d_pos.insert((p, o, s));
            self.d_osp.insert((o, s, p));
        }
        let card = self.pred_stats.entry(p).or_default();
        card.triples += 1;
        card.distinct_subjects += usize::from(new_sp);
        card.distinct_objects += usize::from(new_po);
        self.subject_card += usize::from(new_subject);
        self.object_card += usize::from(new_object);
        self.names.take();
        self.note_stats_drift(1);
        self.maybe_compact();
        true
    }

    /// Intern three terms and insert the triple.
    pub fn insert_terms(&mut self, s: Term, p: Term, o: Term) -> Triple {
        let t = Triple {
            s: self.pool.intern(s),
            p: self.pool.intern(p),
            o: self.pool.intern(o),
        };
        self.insert(t.s, t.p, t.o);
        t
    }

    /// Convenience: insert `(<s>, <p>, <o>)` as IRIs.
    pub fn insert_iri(&mut self, s: &str, p: &str, o: &str) -> Triple {
        self.insert_terms(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// Remove a triple. Returns `true` if it was present.
    ///
    /// The inverse of [`Graph::insert`]: a delta add is dropped outright,
    /// a base row gains a tombstone, and the same range-emptiness probes
    /// decide whether a distinct subject/object count drops.
    pub fn remove(&mut self, s: Sym, p: Sym, o: Sym) -> bool {
        if self.d_spo.remove(&(s, p, o)) {
            self.d_pos.remove(&(p, o, s));
            self.d_osp.remove(&(o, s, p));
        } else if self.base_contains([s, p, o]) && !self.dead.contains(&(s, p, o)) {
            self.dead.insert((s, p, o));
        } else {
            return false;
        }
        let gone_sp = self.live_empty(Perm::Spo, (s, p, SYM_MIN), (s, p, SYM_MAX));
        let gone_po = self.live_empty(Perm::Pos, (p, o, SYM_MIN), (p, o, SYM_MAX));
        let gone_subject = self.live_empty(Perm::Spo, (s, SYM_MIN, SYM_MIN), (s, SYM_MAX, SYM_MAX));
        let gone_object = self.live_empty(Perm::Osp, (o, SYM_MIN, SYM_MIN), (o, SYM_MAX, SYM_MAX));
        if let Some(card) = self.pred_stats.get_mut(&p) {
            card.triples -= 1;
            card.distinct_subjects -= usize::from(gone_sp);
            card.distinct_objects -= usize::from(gone_po);
            if card.triples == 0 {
                self.pred_stats.remove(&p);
            }
        }
        self.subject_card -= usize::from(gone_subject);
        self.object_card -= usize::from(gone_object);
        self.names.take();
        self.note_stats_drift(1);
        self.maybe_compact();
        true
    }

    /// Bulk-load triples of already-interned ids, replacing the overlay
    /// with a freshly sorted arena in one pass. Returns the number newly
    /// inserted.
    ///
    /// `O((n + k) log (n + k))` total for `k` new triples over `n`
    /// existing — the path for building million-triple graphs, where
    /// per-insert incremental statistics probes would dominate. Statistics
    /// are recounted from the sorted arena, which is also linear.
    pub fn bulk_load(&mut self, triples: impl IntoIterator<Item = (Sym, Sym, Sym)>) -> usize {
        let before = self.len();
        let mut rows: Vec<[Sym; 3]> = self.iter().map(|t| [t.s, t.p, t.o]).collect();
        rows.extend(triples.into_iter().map(|(s, p, o)| [s, p, o]));
        rows.sort_unstable();
        rows.dedup();
        rows.shrink_to_fit();
        self.base = rows;
        self.d_spo.clear();
        self.d_pos.clear();
        self.d_osp.clear();
        self.dead.clear();
        self.rebuild_indexes();
        self.rebuild_stats();
        let inserted = self.len() - before;
        if inserted > 0 {
            // the recount can move every histogram at once, so any plan
            // compiled against the old statistics is stale
            self.bump_stats_epoch();
            self.names.take();
        }
        inserted
    }

    /// The current statistics epoch.
    ///
    /// Monotone; bumped when cumulative mutation drift since the last
    /// bump exceeds `max(64, live_len_at_last_bump / 8)` (or
    /// unconditionally on [`Graph::bulk_load`], which recounts every
    /// histogram). A cached query plan compiled at epoch `e` is still
    /// honest while `stats_epoch() == e`: the [`PredicateCard`]s its join
    /// order was derived from have drifted by less than the threshold.
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }

    /// Force a statistics-epoch bump, invalidating all cached plans.
    ///
    /// For callers that mutate the graph out-of-band or want deterministic
    /// invalidation in tests; normal mutation paths bump automatically.
    pub fn bump_stats_epoch(&mut self) {
        self.stats_epoch += 1;
        self.stats_drift = 0;
        self.epoch_len = self.len();
    }

    /// Account one mutation toward the epoch drift threshold.
    fn note_stats_drift(&mut self, n: usize) {
        self.stats_drift += n;
        if self.stats_drift >= EPOCH_MIN_DRIFT.max(self.epoch_len / 8) {
            self.bump_stats_epoch();
        }
    }

    /// Merge the delta overlay into the base arena.
    ///
    /// Linear in the live triple count; a no-op when already compacted.
    /// Purely a representation change: every query answers identically
    /// before and after, and statistics are untouched. Compacted graphs
    /// answer scans from contiguous memory and enable the executor's
    /// sorted-merge join path ([`Graph::merge_probe`]).
    pub fn compact(&mut self) {
        if self.is_compacted() {
            return;
        }
        let mut merged: Vec<[Sym; 3]> = Vec::with_capacity(self.len());
        let mut adds = self.d_spo.iter().peekable();
        for &row in &self.base {
            if !self.dead.is_empty() && self.dead.contains(&(row[0], row[1], row[2])) {
                continue;
            }
            while let Some(&&(a, b, c)) = adds.peek() {
                if [a, b, c] < row {
                    merged.push([a, b, c]);
                    adds.next();
                } else {
                    break;
                }
            }
            merged.push(row);
        }
        merged.extend(adds.map(|&(a, b, c)| [a, b, c]));
        self.base = merged;
        self.d_spo.clear();
        self.d_pos.clear();
        self.d_osp.clear();
        self.dead.clear();
        self.rebuild_indexes();
    }

    /// Whether the delta overlay is empty (all triples live in the base
    /// arena). Compacted graphs qualify for the merge-join fast path.
    pub fn is_compacted(&self) -> bool {
        self.d_spo.is_empty() && self.dead.is_empty()
    }

    /// Number of uncompacted overlay entries (delta adds plus tombstones).
    pub fn delta_len(&self) -> usize {
        self.d_spo.len() + self.dead.len()
    }

    /// Compact when the overlay outgrows its slack, keeping reads fast
    /// and the total merge work amortized.
    fn maybe_compact(&mut self) {
        if self.delta_len() > DELTA_SLACK + self.base.len() / 2 {
            self.compact();
        }
    }

    /// Re-sort the POS/OSP row-id permutations after the arena changed.
    fn rebuild_indexes(&mut self) {
        let n = self.base.len() as u32;
        let base = &self.base;
        self.pos_idx = (0..n).collect();
        self.pos_idx.sort_unstable_by_key(|&i| {
            let r = base[i as usize];
            (r[1], r[2], r[0])
        });
        self.osp_idx = (0..n).collect();
        self.osp_idx.sort_unstable_by_key(|&i| {
            let r = base[i as usize];
            (r[2], r[0], r[1])
        });
    }

    /// Recount all cardinality statistics from the sorted arena: distinct
    /// `(s, p)` / `(p, o)` / subject / object runs are contiguous under
    /// the matching permutation, so one linear pass per order suffices.
    fn rebuild_stats(&mut self) {
        let mut stats: BTreeMap<Sym, PredicateCard> = BTreeMap::new();
        let mut subject_card = 0usize;
        let mut prev_s = None;
        let mut prev_sp = None;
        for &r in &self.base {
            let card = stats.entry(r[1]).or_default();
            card.triples += 1;
            if prev_sp != Some((r[0], r[1])) {
                card.distinct_subjects += 1;
                prev_sp = Some((r[0], r[1]));
            }
            if prev_s != Some(r[0]) {
                subject_card += 1;
                prev_s = Some(r[0]);
            }
        }
        let mut prev_po = None;
        for &i in &self.pos_idx {
            let r = self.base[i as usize];
            if prev_po != Some((r[1], r[2])) {
                stats.entry(r[1]).or_default().distinct_objects += 1;
                prev_po = Some((r[1], r[2]));
            }
        }
        let mut object_card = 0usize;
        let mut prev_o = None;
        for &i in &self.osp_idx {
            let r = self.base[i as usize];
            if prev_o != Some(r[2]) {
                object_card += 1;
                prev_o = Some(r[2]);
            }
        }
        self.pred_stats = stats;
        self.subject_card = subject_card;
        self.object_card = object_card;
    }

    /// Membership test.
    pub fn contains(&self, s: Sym, p: Sym, o: Sym) -> bool {
        if self.d_spo.contains(&(s, p, o)) {
            return true;
        }
        self.base_contains([s, p, o]) && !self.dead.contains(&(s, p, o))
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.base.len() - self.dead.len() + self.d_spo.len()
    }

    /// Whether the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate all triples in (s, p, o) order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.scan_pattern(TriplePattern::any())
    }

    /// Zero-copy scan of a pattern: an iterator that merges the base
    /// range (a binary-searched slice of the arena, or of a row-id
    /// permutation) with the delta overlay's matching range, skipping
    /// tombstones — no intermediate `Vec` is built.
    ///
    /// Triples stream in a deterministic order: sorted under the
    /// permutation chosen for the pattern's bound positions (the same
    /// order [`Graph::match_pattern`] returns).
    pub fn scan_pattern(&self, pat: TriplePattern) -> PatternScan<'_> {
        let (perm, lo, hi) = match (pat.s, pat.p, pat.o) {
            (Some(s), Some(p), Some(o)) => (Perm::Spo, (s, p, o), (s, p, o)),
            (Some(s), Some(p), None) => (Perm::Spo, (s, p, SYM_MIN), (s, p, SYM_MAX)),
            (Some(s), None, None) => (Perm::Spo, (s, SYM_MIN, SYM_MIN), (s, SYM_MAX, SYM_MAX)),
            (None, Some(p), Some(o)) => (Perm::Pos, (p, o, SYM_MIN), (p, o, SYM_MAX)),
            (None, Some(p), None) => (Perm::Pos, (p, SYM_MIN, SYM_MIN), (p, SYM_MAX, SYM_MAX)),
            (None, None, Some(o)) => (Perm::Osp, (o, SYM_MIN, SYM_MIN), (o, SYM_MAX, SYM_MAX)),
            (Some(s), None, Some(o)) => (Perm::Osp, (o, s, SYM_MIN), (o, s, SYM_MAX)),
            (None, None, None) => (
                Perm::Spo,
                (SYM_MIN, SYM_MIN, SYM_MIN),
                (SYM_MAX, SYM_MAX, SYM_MAX),
            ),
        };
        PatternScan::new(self, perm, lo, hi)
    }

    /// Match a pattern, choosing the best index for the bound positions.
    ///
    /// Returned triples are in a deterministic order (sorted under the
    /// chosen index). Materializing convenience over
    /// [`Graph::scan_pattern`].
    pub fn match_pattern(&self, pat: TriplePattern) -> Vec<Triple> {
        self.scan_pattern(pat).collect()
    }

    /// A monotone probe cursor for sorted-merge joins over one predicate,
    /// or `None` when the graph is not compacted (overlay scans would
    /// break the cursor's contiguity) — callers fall back to per-binding
    /// probes.
    ///
    /// With `key_on_subject`, [`MergeProbe::seek`] takes ascending
    /// subjects and yields each one's objects; otherwise it takes
    /// ascending objects and yields subjects. Each seek narrows the
    /// remaining search window, so a full merge pass over `k` sorted keys
    /// costs `O(k log n)` with strictly shrinking ranges.
    pub fn merge_probe(&self, p: Sym, key_on_subject: bool) -> Option<MergeProbe<'_>> {
        if !self.is_compacted() {
            return None;
        }
        let (cursor, end) = if key_on_subject {
            (0, self.base.len())
        } else {
            self.base_range(Perm::Pos, (p, SYM_MIN, SYM_MIN), (p, SYM_MAX, SYM_MAX))
        };
        Some(MergeProbe {
            graph: self,
            p,
            key_on_subject,
            cursor,
            end,
        })
    }

    /// Estimated number of matches for a pattern, used for join ordering.
    ///
    /// Exact for the fully-bound / fully-free / predicate-bound shapes;
    /// histogram-driven (average per-predicate fan-out from
    /// [`PredicateCard`], clamped by the bound node's directional degree)
    /// for half-bound predicate shapes; degree-based elsewhere.
    pub fn estimate(&self, pat: TriplePattern) -> usize {
        match (pat.s, pat.p, pat.o) {
            (Some(s), Some(p), Some(o)) => usize::from(self.contains(s, p, o)),
            (None, None, None) => self.len(),
            (None, Some(p), None) => self.predicate_card(p).triples,
            (Some(s), Some(p), None) => {
                let card = self.predicate_card(p);
                card.subject_fanout().min(self.out_degree(s))
            }
            (None, Some(p), Some(o)) => {
                let card = self.predicate_card(p);
                card.object_fanout().min(self.in_degree(o))
            }
            (Some(s), None, None) => self.out_degree(s),
            (None, None, Some(o)) => self.in_degree(o),
            (Some(s), None, Some(o)) => self.out_degree(s).min(self.in_degree(o)),
        }
    }

    /// Cardinality histogram entry for a predicate (zeros when absent).
    pub fn predicate_card(&self, p: Sym) -> PredicateCard {
        self.pred_stats.get(&p).copied().unwrap_or_default()
    }

    /// Number of distinct subjects across the whole graph.
    pub fn subject_cardinality(&self) -> usize {
        self.subject_card
    }

    /// Number of distinct objects across the whole graph.
    pub fn object_cardinality(&self) -> usize {
        self.object_card
    }

    /// Objects `o` such that `(s, p, o)` holds.
    pub fn objects(&self, s: Sym, p: Sym) -> Vec<Sym> {
        self.scan_pattern(TriplePattern {
            s: Some(s),
            p: Some(p),
            o: None,
        })
        .map(|t| t.o)
        .collect()
    }

    /// Subjects `s` such that `(s, p, o)` holds.
    pub fn subjects(&self, p: Sym, o: Sym) -> Vec<Sym> {
        self.scan_pattern(TriplePattern {
            s: None,
            p: Some(p),
            o: Some(o),
        })
        .map(|t| t.s)
        .collect()
    }

    /// All outgoing edges `(p, o)` of a subject.
    pub fn outgoing(&self, s: Sym) -> Vec<(Sym, Sym)> {
        self.scan_pattern(TriplePattern {
            s: Some(s),
            p: None,
            o: None,
        })
        .map(|t| (t.p, t.o))
        .collect()
    }

    /// All incoming edges `(s, p)` of an object.
    pub fn incoming(&self, o: Sym) -> Vec<(Sym, Sym)> {
        self.scan_pattern(TriplePattern {
            s: None,
            p: None,
            o: Some(o),
        })
        .map(|t| (t.s, t.p))
        .collect()
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, s: Sym) -> usize {
        self.live_count(Perm::Spo, (s, SYM_MIN, SYM_MIN), (s, SYM_MAX, SYM_MAX))
    }

    /// In-degree of a node.
    pub fn in_degree(&self, o: Sym) -> usize {
        self.live_count(Perm::Osp, (o, SYM_MIN, SYM_MIN), (o, SYM_MAX, SYM_MAX))
    }

    /// Total degree (in + out) of a node.
    pub fn degree(&self, n: Sym) -> usize {
        self.out_degree(n) + self.in_degree(n)
    }

    /// Number of distinct predicates present.
    pub fn predicate_count(&self) -> usize {
        self.pred_stats.len()
    }

    /// Distinct predicates, sorted, with their triple counts.
    pub fn predicates(&self) -> Vec<(Sym, usize)> {
        self.pred_stats
            .iter()
            .map(|(&p, c)| (p, c.triples))
            .collect()
    }

    /// Distinct subjects and objects that are IRIs (entities), sorted.
    pub fn entities(&self) -> Vec<Sym> {
        let mut set = BTreeSet::new();
        for t in self.iter() {
            if self.pool.resolve(t.s).is_iri() {
                set.insert(t.s);
            }
            if self.pool.resolve(t.o).is_iri() {
                set.insert(t.o);
            }
        }
        set.into_iter().collect()
    }

    /// Entities having an `rdf:type` edge to `class`.
    pub fn instances_of(&self, class: Sym) -> Vec<Sym> {
        match self.pool.get_iri(namespace::RDF_TYPE) {
            Some(ty) => self.subjects(ty, class),
            None => Vec::new(),
        }
    }

    /// The `rdf:type` objects of an entity.
    pub fn types_of(&self, entity: Sym) -> Vec<Sym> {
        match self.pool.get_iri(namespace::RDF_TYPE) {
            Some(ty) => self.objects(entity, ty),
            None => Vec::new(),
        }
    }

    /// The first `rdfs:label` literal of an entity, if any, else the
    /// humanized local name.
    pub fn display_name(&self, entity: Sym) -> String {
        if let Some(lp) = self.pool.get_iri(namespace::RDFS_LABEL) {
            if let Some(&o) = self.objects(entity, lp).first() {
                if let Term::Literal(l) = self.pool.resolve(o) {
                    return l.lexical.clone();
                }
            }
        }
        namespace::humanize(self.pool.label(entity))
    }

    /// Reply text for a term: an IRI's [`display_name`](Graph::display_name)
    /// when the pool holds it, else its humanized local name; a literal's
    /// lexical form; a blank node's label.
    pub fn display_term(&self, term: &Term) -> String {
        match term {
            Term::Iri(iri) => self
                .pool
                .get_iri(iri)
                .map(|s| self.display_name(s))
                .unwrap_or_else(|| namespace::humanize(namespace::local_name(iri))),
            Term::Literal(l) => l.lexical.clone(),
            Term::Blank(b) => b.clone(),
        }
    }

    /// The entity-name index of this graph: built on first use, then
    /// shared until a triple changes (which drops it, so it never answers
    /// for an older graph).
    pub fn entity_names(&self) -> &EntityNames {
        self.names.get_or_init(|| EntityNames::build(self))
    }

    /// Merge all triples of `other` into `self`, translating ids across
    /// pools. Returns the number of triples newly inserted.
    pub fn merge(&mut self, other: &Graph) -> usize {
        let mut added = 0;
        for t in other.iter() {
            let s = self.pool.intern(other.resolve(t.s).clone());
            let p = self.pool.intern(other.resolve(t.p).clone());
            let o = self.pool.intern(other.resolve(t.o).clone());
            if self.insert(s, p, o) {
                added += 1;
            }
        }
        added
    }
}

/// Half-open scan range over a row-id permutation array.
fn idx_range(
    base: &[[Sym; 3]],
    idx: &[u32],
    perm: Perm,
    lo: (Sym, Sym, Sym),
    hi: (Sym, Sym, Sym),
) -> (usize, usize) {
    let start = idx.partition_point(|&i| perm.key(base[i as usize]) < lo);
    let len = idx[start..].partition_point(|&i| perm.key(base[i as usize]) <= hi);
    (start, start + len)
}

/// Streaming pattern scan: merges a binary-searched base range with the
/// delta overlay's matching range under one permutation, filtering
/// tombstones. Created by [`Graph::scan_pattern`].
pub struct PatternScan<'g> {
    graph: &'g Graph,
    perm: Perm,
    pos: usize,
    end: usize,
    delta: std::collections::btree_set::Range<'g, (Sym, Sym, Sym)>,
    /// Next live base row, as a permuted key.
    base_next: Option<(Sym, Sym, Sym)>,
    /// Next delta add, as a permuted key.
    delta_next: Option<(Sym, Sym, Sym)>,
}

impl<'g> PatternScan<'g> {
    fn new(graph: &'g Graph, perm: Perm, lo: (Sym, Sym, Sym), hi: (Sym, Sym, Sym)) -> Self {
        let (pos, end) = graph.base_range(perm, lo, hi);
        let mut delta = graph.delta_set(perm).range(lo..=hi);
        let delta_next = delta.next().copied();
        let mut scan = PatternScan {
            graph,
            perm,
            pos,
            end,
            delta,
            base_next: None,
            delta_next,
        };
        scan.advance_base();
        scan
    }

    /// Pull the next non-tombstoned base row into `base_next`.
    fn advance_base(&mut self) {
        self.base_next = None;
        while self.pos < self.end {
            let row = self.graph.row_at(self.perm, self.pos);
            self.pos += 1;
            if self.graph.dead.is_empty() || !self.graph.dead.contains(&(row[0], row[1], row[2])) {
                self.base_next = Some(self.perm.key(row));
                return;
            }
        }
    }
}

impl Iterator for PatternScan<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        // The two streams are disjoint (delta adds never shadow base
        // rows), so a strict key comparison fully orders the merge.
        let take_base = match (self.base_next, self.delta_next) {
            (Some(b), Some(d)) => b < d,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_base {
            let k = self.base_next.take().expect("checked above");
            self.advance_base();
            Some(self.perm.triple(k))
        } else {
            let k = self.delta_next.take().expect("checked above");
            self.delta_next = self.delta.next().copied();
            Some(self.perm.triple(k))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // At least the live base rows already buffered; the delta side's
        // remaining length is unknown without consuming it.
        (usize::from(self.base_next.is_some()), None)
    }
}

/// Monotone cursor for the executor's sorted-merge join: repeated
/// [`MergeProbe::seek`] calls with ascending keys walk one predicate's
/// rows in index order, never re-visiting an earlier range. Created by
/// [`Graph::merge_probe`] on compacted graphs.
pub struct MergeProbe<'g> {
    graph: &'g Graph,
    p: Sym,
    key_on_subject: bool,
    cursor: usize,
    end: usize,
}

/// First index in `rows` where `below` stops holding, found by galloping
/// from the front: double the probe distance until it overshoots, then
/// binary-search the final bracket. `O(log gap)` per call for a gap-sized
/// advance, so a merge pass whose successive keys land close together
/// pays near-linear total cost instead of a full `O(log window)` binary
/// search per key.
fn gallop<T>(rows: &[T], below: impl Fn(&T) -> bool) -> usize {
    match rows.first() {
        Some(r) if below(r) => {}
        _ => return 0,
    }
    let mut lo = 0;
    let mut step = 1;
    while lo + step < rows.len() && below(&rows[lo + step]) {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(rows.len());
    lo + 1 + rows[lo + 1..hi].partition_point(below)
}

impl<'g> MergeProbe<'g> {
    /// The values matching `key` in the free position, ascending: objects
    /// of `(key, p, ?)` in subject mode, subjects of `(?, p, key)` in
    /// object mode. Keys must arrive in ascending order — each call
    /// shrinks the remaining window, galloping forward from its front so
    /// a dense key sequence costs one near-linear pass overall.
    pub fn seek(&mut self, key: Sym) -> MergeMatches<'g> {
        if self.key_on_subject {
            let lo = (key, self.p, SYM_MIN);
            let hi = (key, self.p, SYM_MAX);
            let window = &self.graph.base[self.cursor..self.end];
            let start = gallop(window, |&r| (r[0], r[1], r[2]) < lo);
            let len = gallop(&window[start..], |&r| (r[0], r[1], r[2]) <= hi);
            self.cursor += start + len;
            MergeMatches::Objects(window[start..start + len].iter())
        } else {
            let base = self.graph.base.as_slice();
            let window = &self.graph.pos_idx[self.cursor..self.end];
            let start = gallop(window, |&i| base[i as usize][2] < key);
            let len = gallop(&window[start..], |&i| base[i as usize][2] <= key);
            self.cursor += start + len;
            MergeMatches::Subjects {
                base,
                idx: window[start..start + len].iter(),
            }
        }
    }
}

/// The free-position values one [`MergeProbe::seek`] matched, ascending.
pub enum MergeMatches<'g> {
    /// A contiguous `(key, p, ·)` arena span — yields objects.
    Objects(std::slice::Iter<'g, [Sym; 3]>),
    /// A `(·, p, key)` span of the POS row-id permutation — yields
    /// subjects.
    Subjects {
        base: &'g [[Sym; 3]],
        idx: std::slice::Iter<'g, u32>,
    },
}

impl Iterator for MergeMatches<'_> {
    type Item = Sym;

    fn next(&mut self) -> Option<Sym> {
        match self {
            MergeMatches::Objects(rows) => rows.next().map(|r| r[2]),
            MergeMatches::Subjects { base, idx } => idx.next().map(|&i| base[i as usize][0]),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            MergeMatches::Objects(rows) => rows.size_hint(),
            MergeMatches::Subjects { idx, .. } => idx.size_hint(),
        }
    }
}

impl Extend<(Term, Term, Term)> for Graph {
    fn extend<I: IntoIterator<Item = (Term, Term, Term)>>(&mut self, iter: I) {
        for (s, p, o) in iter {
            self.insert_terms(s, p, o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        let mut g = Graph::new();
        g.insert_iri("http://e/alice", "http://v/knows", "http://e/bob");
        g.insert_iri("http://e/alice", "http://v/knows", "http://e/carol");
        g.insert_iri("http://e/bob", "http://v/knows", "http://e/carol");
        g.insert_iri("http://e/alice", "http://v/age", "http://e/unused");
        g
    }

    #[test]
    fn stats_epoch_bumps_on_drift_threshold() {
        let mut g = Graph::new();
        assert_eq!(g.stats_epoch(), 0);
        // below the minimum drift: no bump
        for i in 0..EPOCH_MIN_DRIFT - 1 {
            g.insert_iri(&format!("http://e/s{i}"), "http://v/p", "http://e/o");
        }
        assert_eq!(g.stats_epoch(), 0);
        // crossing it: exactly one bump, and the drift counter resets
        g.insert_iri("http://e/last", "http://v/p", "http://e/o");
        assert_eq!(g.stats_epoch(), 1);
        g.insert_iri("http://e/extra", "http://v/p", "http://e/o");
        assert_eq!(g.stats_epoch(), 1, "drift resets after a bump");
    }

    #[test]
    fn stats_epoch_counts_removes_and_bulk_load() {
        let mut g = Graph::new();
        let mut triples = Vec::new();
        for i in 0..40 {
            triples.push(g.insert_iri(&format!("http://e/s{i}"), "http://v/p", "http://e/o"));
        }
        assert_eq!(g.stats_epoch(), 0);
        // 40 inserts + 24 removes = 64 mutations: removes drift too
        for t in triples.iter().take(24) {
            g.remove(t.s, t.p, t.o);
        }
        assert_eq!(g.stats_epoch(), 1);
        // bulk_load recounts all statistics: unconditional bump
        let s = g.intern_iri("http://e/bulk");
        let p = g.intern_iri("http://v/p");
        let o = g.intern_iri("http://e/o");
        assert_eq!(g.bulk_load([(s, p, o)]), 1);
        assert_eq!(g.stats_epoch(), 2);
        // a bulk_load that inserts nothing new leaves the epoch alone
        assert_eq!(g.bulk_load([(s, p, o)]), 0);
        assert_eq!(g.stats_epoch(), 2);
    }

    #[test]
    fn stats_epoch_threshold_scales_with_graph_size() {
        let mut g = Graph::new();
        let p = g.intern_iri("http://v/p");
        let o = g.intern_iri("http://e/o");
        let rows: Vec<_> = (0..2000)
            .map(|i| (g.intern_iri(format!("http://e/s{i}")), p, o))
            .collect();
        g.bulk_load(rows);
        let epoch = g.stats_epoch();
        // at 2000 live triples the threshold is len/8 = 250, not 64
        for i in 0..100 {
            g.insert_iri(&format!("http://e/x{i}"), "http://v/p", "http://e/o");
        }
        assert_eq!(g.stats_epoch(), epoch, "100 < 250: no bump yet");
        for i in 100..250 {
            g.insert_iri(&format!("http://e/x{i}"), "http://v/p", "http://e/o");
        }
        assert_eq!(g.stats_epoch(), epoch + 1);
    }

    #[test]
    fn insert_is_idempotent_and_indexed() {
        let mut g = Graph::new();
        let t = g.insert_iri("http://e/a", "http://v/p", "http://e/b");
        assert_eq!(g.len(), 1);
        g.insert(t.s, t.p, t.o);
        assert_eq!(g.len(), 1);
        assert!(g.contains(t.s, t.p, t.o));
    }

    #[test]
    fn remove_updates_all_indexes() {
        let mut g = tiny();
        let alice = g.pool().get_iri("http://e/alice").unwrap();
        let knows = g.pool().get_iri("http://v/knows").unwrap();
        let bob = g.pool().get_iri("http://e/bob").unwrap();
        assert!(g.remove(alice, knows, bob));
        assert!(!g.remove(alice, knows, bob));
        assert!(!g.contains(alice, knows, bob));
        assert_eq!(
            g.match_pattern(TriplePattern {
                s: None,
                p: Some(knows),
                o: None
            })
            .len(),
            2
        );
        assert_eq!(g.objects(alice, knows).len(), 1);
    }

    #[test]
    fn all_eight_pattern_shapes() {
        let g = tiny();
        let alice = g.pool().get_iri("http://e/alice").unwrap();
        let knows = g.pool().get_iri("http://v/knows").unwrap();
        let carol = g.pool().get_iri("http://e/carol").unwrap();
        let m = |s, p, o| g.match_pattern(TriplePattern { s, p, o }).len();
        assert_eq!(m(None, None, None), 4);
        assert_eq!(m(Some(alice), None, None), 3);
        assert_eq!(m(None, Some(knows), None), 3);
        assert_eq!(m(None, None, Some(carol)), 2);
        assert_eq!(m(Some(alice), Some(knows), None), 2);
        assert_eq!(m(Some(alice), None, Some(carol)), 1);
        assert_eq!(m(None, Some(knows), Some(carol)), 2);
        assert_eq!(m(Some(alice), Some(knows), Some(carol)), 1);
    }

    #[test]
    fn pattern_results_agree_with_naive_filter() {
        let g = tiny();
        let alice = g.pool().get_iri("http://e/alice").unwrap();
        let knows = g.pool().get_iri("http://v/knows").unwrap();
        for pat in [
            TriplePattern {
                s: Some(alice),
                p: None,
                o: None,
            },
            TriplePattern {
                s: None,
                p: Some(knows),
                o: None,
            },
            TriplePattern::any(),
        ] {
            let fast: Vec<_> = g.match_pattern(pat);
            let slow: Vec<_> = g.iter().filter(|t| pat.matches(t)).collect();
            assert_eq!(fast.len(), slow.len());
            for t in &fast {
                assert!(slow.contains(t));
            }
        }
    }

    #[test]
    fn degrees_and_predicates() {
        let g = tiny();
        let alice = g.pool().get_iri("http://e/alice").unwrap();
        let carol = g.pool().get_iri("http://e/carol").unwrap();
        assert_eq!(g.out_degree(alice), 3);
        assert_eq!(g.in_degree(carol), 2);
        assert_eq!(g.degree(carol), 2); // two incoming `knows` edges, no outgoing
        let preds = g.predicates();
        assert_eq!(preds.len(), 2);
        let knows = g.pool().get_iri("http://v/knows").unwrap();
        assert!(preds.contains(&(knows, 3)));
    }

    #[test]
    fn estimate_matches_reality_for_exact_shapes() {
        let g = tiny();
        let knows = g.pool().get_iri("http://v/knows").unwrap();
        assert_eq!(g.estimate(TriplePattern::any()), 4);
        assert_eq!(
            g.estimate(TriplePattern {
                s: None,
                p: Some(knows),
                o: None
            }),
            3
        );
    }

    #[test]
    fn predicate_card_tracks_distinct_terms_incrementally() {
        let mut g = Graph::new();
        g.insert_iri("http://e/a", "http://v/p", "http://e/x");
        g.insert_iri("http://e/a", "http://v/p", "http://e/y");
        g.insert_iri("http://e/b", "http://v/p", "http://e/x");
        let p = g.pool().get_iri("http://v/p").unwrap();
        let card = g.predicate_card(p);
        assert_eq!(card.triples, 3);
        assert_eq!(card.distinct_subjects, 2); // a, b
        assert_eq!(card.distinct_objects, 2); // x, y
        assert_eq!(card.subject_fanout(), 2); // ceil(3/2)
        assert_eq!(card.object_fanout(), 2);
        // removing (a p y) drops object y but keeps subject a (a p x stays)
        let a = g.pool().get_iri("http://e/a").unwrap();
        let y = g.pool().get_iri("http://e/y").unwrap();
        assert!(g.remove(a, p, y));
        let card = g.predicate_card(p);
        assert_eq!(card.triples, 2);
        assert_eq!(card.distinct_subjects, 2);
        assert_eq!(card.distinct_objects, 1);
        // draining the predicate drops its histogram entry entirely
        let b = g.pool().get_iri("http://e/b").unwrap();
        let x = g.pool().get_iri("http://e/x").unwrap();
        g.remove(a, p, x);
        g.remove(b, p, x);
        assert_eq!(g.predicate_card(p), PredicateCard::default());
        assert_eq!(g.subject_cardinality(), 0);
        assert_eq!(g.object_cardinality(), 0);
    }

    #[test]
    fn graph_wide_cardinalities_count_distinct_positions() {
        let mut g = tiny();
        // subjects: alice, bob; objects: bob, carol, unused
        assert_eq!(g.subject_cardinality(), 2);
        assert_eq!(g.object_cardinality(), 3);
        // duplicate insert changes nothing
        g.insert_iri("http://e/alice", "http://v/knows", "http://e/bob");
        assert_eq!(g.subject_cardinality(), 2);
        assert_eq!(g.object_cardinality(), 3);
    }

    #[test]
    fn estimate_uses_histogram_fanout_for_half_bound_shapes() {
        let mut g = Graph::new();
        // a star predicate: one subject, many objects
        for i in 0..10 {
            g.insert_iri("http://e/hub", "http://v/spokes", &format!("http://e/o{i}"));
        }
        let hub = g.pool().get_iri("http://e/hub").unwrap();
        let spokes = g.pool().get_iri("http://v/spokes").unwrap();
        let o0 = g.pool().get_iri("http://e/o0").unwrap();
        // bound subject: the full fan-out of the hub, not count/8
        assert_eq!(
            g.estimate(TriplePattern {
                s: Some(hub),
                p: Some(spokes),
                o: None
            }),
            10
        );
        // bound object: each object has exactly one incoming edge
        assert_eq!(
            g.estimate(TriplePattern {
                s: None,
                p: Some(spokes),
                o: Some(o0)
            }),
            1
        );
    }

    #[test]
    fn estimate_half_bound_clamps_to_directional_degree() {
        let mut g = Graph::new();
        // skewed predicate: `a` has 9 spokes, `b` has 1 → average fan-out 5
        for i in 0..9 {
            g.insert_iri("http://e/a", "http://v/spokes", &format!("http://e/o{i}"));
        }
        g.insert_iri("http://e/b", "http://v/spokes", "http://e/o0");
        // pile reverse fan-in onto `b`: its *total* degree is large, but
        // its out-degree (the only direction `(b, spokes, ?o)` can match)
        // stays 1
        for i in 0..20 {
            g.insert_iri(&format!("http://e/c{i}"), "http://v/cites", "http://e/b");
        }
        let b = g.pool().get_iri("http://e/b").unwrap();
        let spokes = g.pool().get_iri("http://v/spokes").unwrap();
        assert_eq!(g.out_degree(b), 1);
        assert!(g.degree(b) > 5, "reverse fan-in must exceed the fan-out");
        // tight bound: out-degree clamps the histogram average (a stale
        // degree() clamp would return the average, 5)
        assert_eq!(
            g.estimate(TriplePattern {
                s: Some(b),
                p: Some(spokes),
                o: None
            }),
            1
        );
        // mirrored shape: `o0` has 2 incoming spokes but heavy *outgoing*
        // fan-out must not inflate `(?s, spokes, o0)`
        for i in 0..20 {
            g.insert_iri("http://e/o0", "http://v/cites", &format!("http://e/d{i}"));
        }
        let o0 = g.pool().get_iri("http://e/o0").unwrap();
        assert_eq!(g.in_degree(o0), 2);
        assert_eq!(
            g.estimate(TriplePattern {
                s: None,
                p: Some(spokes),
                o: Some(o0)
            }),
            2
        );
    }

    #[test]
    fn types_and_instances() {
        let mut g = Graph::new();
        g.insert_iri("http://e/alice", namespace::RDF_TYPE, "http://v/Person");
        g.insert_iri("http://e/bob", namespace::RDF_TYPE, "http://v/Person");
        let person = g.pool().get_iri("http://v/Person").unwrap();
        let alice = g.pool().get_iri("http://e/alice").unwrap();
        assert_eq!(g.instances_of(person).len(), 2);
        assert_eq!(g.types_of(alice), vec![person]);
    }

    #[test]
    fn display_name_prefers_label() {
        let mut g = Graph::new();
        let a = g.intern_iri("http://e/alice_smith");
        let lbl = g.intern_iri(namespace::RDFS_LABEL);
        let lit = g.intern(Term::lit("Alice Smith"));
        assert_eq!(g.display_name(a), "alice smith");
        g.insert(a, lbl, lit);
        assert_eq!(g.display_name(a), "Alice Smith");
    }

    #[test]
    fn display_term_covers_every_term_kind() {
        let mut g = Graph::new();
        let a = g.intern_iri("http://e/alice_smith");
        let lbl = g.intern_iri(namespace::RDFS_LABEL);
        let lit = g.intern(Term::lit("Alice Smith"));
        g.insert(a, lbl, lit);
        assert_eq!(
            g.display_term(&Term::iri("http://e/alice_smith")),
            "Alice Smith"
        );
        // an IRI the pool never saw falls back to its humanized local name
        assert_eq!(
            g.display_term(&Term::iri("http://e/bob_jones")),
            "bob jones"
        );
        assert_eq!(g.display_term(&Term::int(7)), "7");
        assert_eq!(g.display_term(&Term::Blank("b0".into())), "b0");
    }

    #[test]
    fn merge_translates_ids() {
        let mut g1 = Graph::new();
        g1.insert_iri("http://e/x", "http://v/p", "http://e/y");
        let mut g2 = Graph::new();
        g2.insert_iri("http://e/z", "http://v/p", "http://e/x");
        g2.insert_iri("http://e/x", "http://v/p", "http://e/y");
        let added = g1.merge(&g2);
        assert_eq!(added, 1);
        assert_eq!(g1.len(), 2);
        let x = g1.pool().get_iri("http://e/x").unwrap();
        let p = g1.pool().get_iri("http://v/p").unwrap();
        let z = g1.pool().get_iri("http://e/z").unwrap();
        assert!(g1.contains(z, p, x));
    }

    #[test]
    fn entities_excludes_literals() {
        let mut g = Graph::new();
        g.insert_terms(
            Term::iri("http://e/a"),
            Term::iri("http://v/name"),
            Term::lit("A"),
        );
        g.insert_iri("http://e/a", "http://v/knows", "http://e/b");
        // literals never count as entities; only IRI subjects/objects do
        assert_eq!(g.entities().len(), 2);
    }

    #[test]
    fn compact_is_invisible_to_queries() {
        let mut g = tiny();
        let alice = g.pool().get_iri("http://e/alice").unwrap();
        let knows = g.pool().get_iri("http://v/knows").unwrap();
        let bob = g.pool().get_iri("http://e/bob").unwrap();
        assert!(!g.is_compacted());
        let before: Vec<Triple> = g.iter().collect();
        let knows_before = g.match_pattern(TriplePattern {
            s: None,
            p: Some(knows),
            o: None,
        });
        g.compact();
        assert!(g.is_compacted());
        assert_eq!(g.delta_len(), 0);
        assert_eq!(g.iter().collect::<Vec<_>>(), before);
        assert_eq!(
            g.match_pattern(TriplePattern {
                s: None,
                p: Some(knows),
                o: None
            }),
            knows_before
        );
        // mutations after compaction land in a fresh overlay
        assert!(g.remove(alice, knows, bob));
        assert!(!g.is_compacted());
        assert_eq!(g.len(), 3);
        g.compact();
        assert_eq!(g.len(), 3);
        assert!(!g.contains(alice, knows, bob));
    }

    #[test]
    fn tombstoned_row_resurrects_on_reinsert() {
        let mut g = tiny();
        g.compact();
        let alice = g.pool().get_iri("http://e/alice").unwrap();
        let knows = g.pool().get_iri("http://v/knows").unwrap();
        let bob = g.pool().get_iri("http://e/bob").unwrap();
        assert!(g.remove(alice, knows, bob));
        assert!(g.insert(alice, knows, bob));
        assert!(g.is_compacted(), "re-insert cancels the tombstone");
        assert!(g.contains(alice, knows, bob));
        assert_eq!(g.len(), 4);
        let knows_card = g.predicate_card(knows);
        assert_eq!(knows_card.triples, 3);
        assert_eq!(knows_card.distinct_subjects, 2);
    }

    #[test]
    fn bulk_load_matches_incremental_build() {
        let mut a = Graph::new();
        let mut triples = Vec::new();
        for i in 0..30 {
            let s = a.intern_iri(format!("http://e/s{}", i % 7));
            let p = a.intern_iri(format!("http://v/p{}", i % 3));
            let o = a.intern_iri(format!("http://e/o{}", i % 5));
            triples.push((s, p, o));
        }
        let mut b = a.clone();
        for &(s, p, o) in &triples {
            a.insert(s, p, o);
        }
        let added = b.bulk_load(triples.iter().copied());
        assert_eq!(added, b.len());
        assert!(b.is_compacted());
        assert_eq!(a.len(), b.len());
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            b.iter().collect::<Vec<_>>(),
            "bulk load and incremental insertion agree triple-for-triple"
        );
        for (p, _) in a.predicates() {
            assert_eq!(a.predicate_card(p), b.predicate_card(p));
        }
        assert_eq!(a.subject_cardinality(), b.subject_cardinality());
        assert_eq!(a.object_cardinality(), b.object_cardinality());
    }

    #[test]
    fn scan_pattern_streams_without_materializing() {
        let mut g = tiny();
        let alice = g.pool().get_iri("http://e/alice").unwrap();
        // half base, half delta: compact, then add more
        g.compact();
        g.insert_iri("http://e/alice", "http://v/knows", "http://e/dave");
        let pat = TriplePattern {
            s: Some(alice),
            p: None,
            o: None,
        };
        let streamed: Vec<Triple> = g.scan_pattern(pat).collect();
        assert_eq!(streamed, g.match_pattern(pat));
        assert_eq!(streamed.len(), 4);
        // streams ascending under the chosen (SPO) permutation
        let mut sorted = streamed.clone();
        sorted.sort();
        assert_eq!(streamed, sorted);
    }

    #[test]
    fn merge_probe_walks_ascending_keys() {
        let mut g = tiny();
        let knows = g.pool().get_iri("http://v/knows").unwrap();
        assert!(g.merge_probe(knows, true).is_none(), "uncompacted graph");
        g.compact();
        let alice = g.pool().get_iri("http://e/alice").unwrap();
        let bob = g.pool().get_iri("http://e/bob").unwrap();
        let carol = g.pool().get_iri("http://e/carol").unwrap();
        let mut by_s = g.merge_probe(knows, true).unwrap();
        let mut keys = [alice, bob];
        keys.sort();
        let mut all: Vec<Vec<Sym>> = Vec::new();
        for k in keys {
            all.push(by_s.seek(k).collect());
        }
        let expect: Vec<Vec<Sym>> = keys.iter().map(|&k| g.objects(k, knows)).collect();
        assert_eq!(all, expect);
        // object-keyed walk yields subjects
        let mut by_o = g.merge_probe(knows, false).unwrap();
        let got: Vec<Sym> = by_o.seek(carol).collect();
        assert_eq!(got, g.subjects(knows, carol));
    }
}
