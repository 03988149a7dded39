//! Request coalescing for the retrieval kernel: group-commit for
//! vector searches.
//!
//! The serve engine runs one [`crate::VectorIndex`] under many worker
//! threads, each issuing independent one-query exact searches. Every such
//! search pays a full arena pass, but the batched kernel behind
//! [`crate::VectorIndex::search`] amortizes that pass across the queries
//! of one request. On an index built
//! [`crate::VectorIndex::with_coalescing`], the crate-private coalescer
//! bridges the two: concurrent one-query exact requests that arrive
//! within one **time/size window** are collected by the first arrival
//! (the *leader*), serviced by a single kernel invocation, and handed
//! their per-query slice back.
//!
//! The protocol mirrors the WAL's group commit: the first thread into an
//! empty window becomes leader and waits up to [`BatchWindow::max_wait`]
//! for companions (leaving early the moment [`BatchWindow::max_batch`]
//! queries are pending — latency is bounded by construction); followers
//! park on a per-request slot until the leader fills it. A window with a
//! single member degenerates to a batch of one, whose cost equals the
//! uncoalesced search, so the worst case under no concurrency is one
//! `max_wait` of added latency and nothing else.
//!
//! Results are **bit-identical** to the uncoalesced search: the batch
//! runs at the window's maximum `k` and each caller's hits are the first
//! `k` of that list — a prefix, because the total-order comparator makes
//! every top-k′ for `k′ < k` a prefix of the top-k. Each caller's
//! [`crate::SearchStats`] carry its own query's share of the scan; the
//! leader's also carry the window size and the shards it spawned.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::vector::{Hit, SearchResult, SearchStats, VectorIndex};

/// Size/time bounds of one coalescing window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchWindow {
    /// Flush as soon as this many queries are pending.
    pub max_batch: usize,
    /// Flush after this long even if the window is not full — the upper
    /// bound on latency added to an uncontended request.
    pub max_wait: Duration,
}

impl Default for BatchWindow {
    /// 8 queries / 200 µs: wide enough to catch genuinely concurrent
    /// traffic, short enough to be invisible next to a millisecond-scale
    /// arena scan.
    fn default() -> Self {
        BatchWindow {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
        }
    }
}

/// How a coalesced request was serviced within its window (carried on
/// [`crate::SearchResult::role`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowRole {
    /// This caller collected the window and ran the batched kernel for
    /// it; [`crate::SearchStats::batch_queries`] carries the window size.
    Leader,
    /// Another caller's kernel invocation serviced this request.
    Follower,
}

/// One caller's parked request: filled by the leader, consumed by the
/// follower.
#[derive(Default)]
struct Slot {
    result: Mutex<Option<(Vec<Hit>, SearchStats)>>,
    ready: Condvar,
}

struct Entry {
    query: Vec<f32>,
    k: usize,
    slot: Arc<Slot>,
}

#[derive(Default)]
struct State {
    pending: Vec<Entry>,
    /// A leader is currently collecting the window.
    leader_active: bool,
}

/// The shared window state: [`VectorIndex::with_coalescing`] attaches
/// one of these behind an `Arc` so index clones coalesce together.
pub(crate) struct Coalescer {
    window: BatchWindow,
    state: Mutex<State>,
    /// Signalled when the pending window fills, releasing the leader
    /// before its timer runs out.
    arrived: Condvar,
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

impl Coalescer {
    /// A coalescer with the given window bounds (`max_batch` is clamped
    /// to at least 1).
    pub(crate) fn new(window: BatchWindow) -> Self {
        Coalescer {
            window: BatchWindow {
                max_batch: window.max_batch.max(1),
                max_wait: window.max_wait,
            },
            state: Mutex::new(State::default()),
            arrived: Condvar::new(),
        }
    }

    /// The configured window bounds.
    pub(crate) fn window(&self) -> BatchWindow {
        self.window
    }

    /// Service one exact query through the current window. Blocks the
    /// calling thread for at most `max_wait` plus one batched kernel
    /// invocation.
    pub(crate) fn run(&self, index: &VectorIndex, query: &[f32], k: usize) -> SearchResult {
        let slot = Arc::new(Slot::default());
        let mut st = self.state.lock().expect("coalescer state poisoned");
        st.pending.push(Entry {
            query: query.to_vec(),
            k,
            slot: Arc::clone(&slot),
        });
        if !st.leader_active {
            // leader: collect companions until the window fills or the
            // timer expires, then run one batched search for everyone
            st.leader_active = true;
            let deadline = Instant::now() + self.window.max_wait;
            while st.pending.len() < self.window.max_batch {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = self
                    .arrived
                    .wait_timeout(st, deadline - now)
                    .expect("coalescer state poisoned");
                st = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            let batch = std::mem::take(&mut st.pending);
            st.leader_active = false;
            drop(st);
            let window = batch.len();
            let k_max = batch.iter().map(|e| e.k).max().unwrap_or(0);
            let queries: Vec<Vec<f32>> = batch.iter().map(|e| e.query.clone()).collect();
            let (scans, shards) = index.exact_scan(&queries, k_max);
            let scanned = if k_max == 0 { 0 } else { index.len() };
            let mut own = (Vec::new(), SearchStats::default());
            for (entry, (mut hits, heap_pushes)) in batch.into_iter().zip(scans) {
                hits.truncate(entry.k);
                let stats = SearchStats {
                    vectors_scanned: scanned,
                    heap_pushes,
                    ..SearchStats::default()
                };
                if Arc::ptr_eq(&entry.slot, &slot) {
                    own = (hits, stats);
                } else {
                    *entry.slot.result.lock().expect("slot poisoned") = Some((hits, stats));
                    entry.slot.ready.notify_one();
                }
            }
            let (hits, stats) = own;
            SearchResult {
                hits: vec![hits],
                stats: SearchStats {
                    parallel_shards: shards,
                    batch_queries: window,
                    ..stats
                },
                role: Some(WindowRole::Leader),
            }
        } else {
            // follower: wake the leader if we just filled the window,
            // then park until it delivers
            if st.pending.len() >= self.window.max_batch {
                self.arrived.notify_one();
            }
            drop(st);
            let mut result = slot.result.lock().expect("slot poisoned");
            while result.is_none() {
                result = slot.ready.wait(result).expect("slot poisoned");
            }
            let (hits, stats) = result.take().expect("checked above");
            SearchResult {
                hits: vec![hits],
                stats,
                role: Some(WindowRole::Follower),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::scan_exact;
    use crate::vector::SearchRequest;

    fn index(n: usize) -> VectorIndex {
        let vectors: Vec<Vec<f32>> = (0..n)
            .map(|i| slm::embedding::hash_vector(&format!("doc-{i}")))
            .collect();
        VectorIndex::build(vectors, 0, 0)
    }

    fn bits(hits: &[Hit]) -> Vec<(usize, u32)> {
        hits.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    }

    #[test]
    fn solo_window_matches_exact_bitwise() {
        let plain = index(200);
        let idx = plain.clone().with_coalescing(BatchWindow {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
        });
        let q = [slm::embedding::hash_vector("doc-3")];
        let req = SearchRequest::exact(&q, 5);
        let direct = plain.search(&req, &obs::Span::disabled());
        let coalesced = idx.search(&req, &obs::Span::disabled());
        assert_eq!(coalesced.role, Some(WindowRole::Leader));
        assert_eq!(coalesced.stats.batch_queries, 1);
        assert_eq!(bits(&direct.hits[0]), bits(&coalesced.hits[0]));
        assert_eq!(bits(&coalesced.hits[0]), bits(&scan_exact(&idx, &q[0], 5)));
        // a solo window does exactly the direct request's work
        assert_eq!(direct.stats, coalesced.stats);
    }

    #[test]
    fn concurrent_searches_coalesce_and_match_exact() {
        let idx = std::sync::Arc::new(index(400).with_coalescing(BatchWindow {
            max_batch: 4,
            max_wait: Duration::from_millis(200),
        }));
        let threads = 8;
        let results: Vec<(usize, SearchResult)> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let idx = std::sync::Arc::clone(&idx);
                    scope.spawn(move |_| {
                        let q = [slm::embedding::hash_vector(&format!("doc-{t}"))];
                        // heterogeneous k exercises the truncation path
                        let k = 3 + t % 3;
                        (
                            t,
                            idx.search(&SearchRequest::exact(&q, k), &obs::Span::disabled()),
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        let mut windows = 0;
        for (t, result) in results {
            let q = slm::embedding::hash_vector(&format!("doc-{t}"));
            let exact = scan_exact(&idx, &q, 3 + t % 3);
            assert_eq!(bits(&exact), bits(&result.hits[0]), "thread {t}");
            assert_eq!(result.stats.vectors_scanned, idx.len(), "thread {t}");
            match result.role {
                Some(WindowRole::Leader) => windows += result.stats.batch_queries,
                Some(WindowRole::Follower) => assert_eq!(result.stats.batch_queries, 0),
                None => panic!("thread {t} bypassed the coalescer"),
            }
        }
        // every query rode exactly one window
        assert_eq!(windows, threads);
    }

    #[test]
    fn coalesced_search_records_retrieval_and_batch_counters() {
        let idx = index(64).with_coalescing(BatchWindow {
            max_batch: 2,
            max_wait: Duration::from_micros(50),
        });
        let (tracer, recorder) = obs::Tracer::in_memory();
        let root = tracer.span("test");
        for i in 0..3 {
            let q = [slm::embedding::hash_vector(&format!("doc-{i}"))];
            let result = idx.search(&SearchRequest::exact(&q, 4), &root);
            assert_eq!(result.hits[0].len(), 4);
        }
        root.finish();
        let registry = tracer.registry();
        assert_eq!(registry.counter("retrieval.searches"), 3);
        assert_eq!(registry.counter("retrieval.vectors_scanned"), 3 * 64);
        assert!(registry.counter("retrieval.heap_pushes") >= 3 * 4);
        assert_eq!(registry.counter("retrieval.batch.coalesced"), 3);
        assert_eq!(registry.counter("retrieval.batch.windows"), 3);
        assert_eq!(registry.counter("retrieval.batch.queries"), 3);
        let span = recorder.take().pop().expect("root recorded");
        let search = span.find("retrieval.search").expect("search span");
        assert_eq!(
            search.attr("batch_role").and_then(obs::AttrValue::as_str),
            Some("leader")
        );
        assert_eq!(search.attr_u64("batch_queries"), Some(1));
    }
}
