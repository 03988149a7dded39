//! Retrieval oracles: the scans the arena kernel replaced, preserved for
//! differential testing and as bench baselines.
//!
//! * [`seed_search_exact`] — the seed brute force. Vectors stay as
//!   `Vec<Vec<f32>>` (one allocation per document), every query/document
//!   pair pays a full cosine — sequential multiply-add with both norms
//!   recomputed — and top-k is a full sort over all n scores.
//!   `retrieval_bench` times it as the exact series' baseline, and the
//!   differential proptest in `tests/properties.rs` pins the arena index
//!   to its ranking.
//! * [`scan_exact`] — the arena's sequential per-query scan: one
//!   [`slm::embedding::dot`] per stored row through a bounded top-k heap.
//!   [`crate::VectorIndex::search`] must match it **bit for bit** on
//!   every query (ids and score bits); the unit tests, the differential
//!   proptest and `retrieval_bench`'s exact series all check that.
//!
//! One deliberate deviation from the seed: hits are ordered with the same
//! NaN-safe total-order comparator the arena uses, not the seed's
//! `partial_cmp(..).unwrap_or(Equal)`. Under the seed comparator a NaN
//! score compared `Equal` to everything, so the final order leaked the
//! scan order — exactly the bug the rewrite fixes. An oracle with the bug
//! could not pin the fix.

use kgquery::exec::compare_f64_total;
use slm::embedding::dot;

use crate::vector::{Hit, TopK, VectorIndex};

/// Sequential cosine similarity, written exactly as the seed kernel was:
/// one fused `zip().map().sum()` pass per norm and dot, no lane splitting.
/// Kept independent of [`slm::embedding::dot`] so the oracle cannot
/// inherit a kernel bug.
pub fn seed_cosine(a: &[f32], b: &[f32]) -> f32 {
    let d: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        d / (na * nb)
    }
}

/// Seed-style exact search: score every document with [`seed_cosine`],
/// sort all n hits (score descending, doc id ascending), truncate to k.
pub fn seed_search_exact(vectors: &[Vec<f32>], query: &[f32], k: usize) -> Vec<Hit> {
    let mut hits: Vec<Hit> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (i, seed_cosine(query, v)))
        .collect();
    hits.sort_by(|a, b| {
        compare_f64_total(f64::from(b.1), f64::from(a.1)).then_with(|| a.0.cmp(&b.0))
    });
    hits.truncate(k);
    hits
}

/// Sequential per-query exact search over the index's arena: the query
/// prepared as the index prepares it, one [`dot`] per document in id
/// order, offered to one bounded top-k heap. No kernel tiles.
pub fn scan_exact(index: &VectorIndex, query: &[f32], k: usize) -> Vec<Hit> {
    if index.is_empty() || k == 0 {
        return Vec::new();
    }
    let q = index.prepare_query(query);
    let mut top = TopK::new(k);
    for doc in 0..index.len() {
        top.offer((doc, dot(&q, index.row(doc))));
    }
    top.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_search_ranks_by_cosine_then_id() {
        let vectors = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0], // same score as doc 0 — id breaks the tie
        ];
        let hits = seed_search_exact(&vectors, &[1.0, 0.0], 3);
        let ids: Vec<usize> = hits.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![0, 2, 1]);
    }

    #[test]
    fn zero_vectors_score_zero_not_nan() {
        assert_eq!(seed_cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        let hits = seed_search_exact(&[vec![0.0, 0.0]], &[1.0, 0.0], 1);
        assert_eq!(hits, vec![(0, 0.0)]);
    }
}
