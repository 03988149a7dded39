//! The evidence index — the simulated LM's enumerable knowledge.
//!
//! Sentences (typically verbalized KG triples) are indexed with an inverted
//! word index and scored against queries by IDF-weighted word overlap. The
//! index answers two questions the task layer needs:
//!
//! * *retrieval*: which known sentences are most relevant to this query?
//! * *support*: how strongly does the known corpus support this claim?

use std::collections::HashMap;

use crate::tokenizer::{stem, stemmed_content_words, tokenize_words};

/// A retrieval hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieved {
    /// Index of the sentence in the store.
    pub id: usize,
    /// The sentence text.
    pub text: String,
    /// IDF-weighted overlap score in `[0, 1]`.
    pub score: f64,
}

/// The stemmed words a query is scored on: its content words, or every
/// word when it has none.
fn query_words(query: &str) -> Vec<String> {
    let cw = stemmed_content_words(query);
    if cw.is_empty() {
        tokenize_words(query).iter().map(|w| stem(w)).collect()
    } else {
        cw
    }
}

/// An inverted-index over sentences with IDF-weighted overlap scoring.
#[derive(Debug, Default, Clone)]
pub struct EvidenceIndex {
    sentences: Vec<String>,
    tokenized: Vec<Vec<String>>,
    inverted: HashMap<String, Vec<usize>>,
    doc_freq: HashMap<String, u32>,
}

impl EvidenceIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of sentences.
    pub fn from_sentences<'a>(sentences: impl IntoIterator<Item = &'a str>) -> Self {
        let mut idx = Self::new();
        for s in sentences {
            idx.add(s);
        }
        idx
    }

    /// Add one sentence.
    pub fn add(&mut self, sentence: &str) -> usize {
        let id = self.sentences.len();
        let words: Vec<String> = tokenize_words(sentence).iter().map(|w| stem(w)).collect();
        let mut seen: Vec<&str> = Vec::new();
        for w in &words {
            self.inverted.entry(w.clone()).or_default().push(id);
            if !seen.contains(&w.as_str()) {
                seen.push(w);
                *self.doc_freq.entry(w.clone()).or_insert(0) += 1;
            }
        }
        self.sentences.push(sentence.to_string());
        self.tokenized.push(words);
        id
    }

    /// Number of indexed sentences.
    pub fn len(&self) -> usize {
        self.sentences.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.sentences.is_empty()
    }

    /// The sentence with a given id.
    pub fn sentence(&self, id: usize) -> Option<&str> {
        self.sentences.get(id).map(String::as_str)
    }

    /// All sentences.
    pub fn sentences(&self) -> &[String] {
        &self.sentences
    }

    fn idf(&self, word: &str) -> f64 {
        let n = self.sentences.len() as f64;
        match self.doc_freq.get(word) {
            Some(&df) => ((1.0 + n) / (1.0 + f64::from(df))).ln() + 1.0,
            None => ((1.0 + n) / 1.0).ln() + 1.0,
        }
    }

    /// A query's words paired with their IDF weights, and the weights'
    /// sum in word order: computed once per query, not per candidate.
    fn weighted_query_words(&self, query: &str) -> (Vec<(String, f64)>, f64) {
        let mut total = 0.0;
        let weighted = query_words(query)
            .into_iter()
            .map(|w| {
                let idf = self.idf(&w);
                total += idf;
                (w, idf)
            })
            .collect();
        (weighted, total)
    }

    /// Score a candidate sentence against weighted query words (weights
    /// summing to `total`): IDF-weighted recall of the query words in the
    /// sentence, in `[0,1]`.
    fn overlap_score(&self, weighted: &[(String, f64)], total: f64, sentence_id: usize) -> f64 {
        if weighted.is_empty() || total == 0.0 {
            return 0.0;
        }
        let sent = &self.tokenized[sentence_id];
        let mut hit = 0.0;
        for (qw, w) in weighted {
            if sent.contains(qw) {
                hit += w;
            }
        }
        hit / total
    }

    /// Retrieve the top-`k` sentences for a query, sorted by descending
    /// score then ascending id (deterministic).
    pub fn retrieve(&self, query: &str, k: usize) -> Vec<Retrieved> {
        if k == 0 {
            return Vec::new();
        }
        let (weighted, total) = self.weighted_query_words(query);
        // candidate set: sentences sharing at least one query word
        let mut candidates: Vec<usize> = Vec::new();
        for (w, _) in &weighted {
            if let Some(ids) = self.inverted.get(w) {
                candidates.extend_from_slice(ids);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut scored: Vec<(f64, usize)> = candidates
            .into_iter()
            .map(|id| (self.overlap_score(&weighted, total, id), id))
            .filter(|&(score, _)| score > 0.0)
            .collect();
        // the filter drops NaN and ids are unique, so this order is total:
        // selecting the top k first keeps exactly the sorted prefix
        let rank = |a: &(f64, usize), b: &(f64, usize)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        if k < scored.len() {
            scored.select_nth_unstable_by(k - 1, rank);
            scored.truncate(k);
        }
        scored.sort_by(rank);
        scored
            .into_iter()
            .map(|(score, id)| Retrieved {
                id,
                text: self.sentences[id].clone(),
                score,
            })
            .collect()
    }

    /// How strongly the corpus supports a claim: the best single-sentence
    /// overlap score for the claim's content words, in `[0,1]`.
    ///
    /// This is *recall-only*: it asks whether the claim's words appear in
    /// some sentence, not whether that sentence says the same thing. Use
    /// [`verified_support`](Self::verified_support) when a near-1.0 score
    /// must mean "the corpus states this exact fact".
    pub fn support(&self, claim: &str) -> f64 {
        self.retrieve(claim, 1).first().map_or(0.0, |r| r.score)
    }

    /// Bidirectional support: IDF-weighted harmonic mean of how much of
    /// the claim the best evidence sentence covers (recall) and how much
    /// of that sentence the claim explains (precision), in `[0,1]`.
    ///
    /// Recall alone saturates on claims whose words are a subset of some
    /// sentence — e.g. evidence "H directed T" fully "supports" the false
    /// claim "H directed H". The precision term discounts evidence that
    /// asserts content the claim does not mention, so only claims that
    /// restate a known sentence score near 1.0.
    pub fn verified_support(&self, claim: &str) -> f64 {
        let Some(best) = self.best_evidence(claim) else {
            return 0.0;
        };
        let claim_words: Vec<String> = tokenize_words(claim).iter().map(|w| stem(w)).collect();
        let sent = &self.tokenized[best.id];
        let mut hit = 0.0;
        let mut total = 0.0;
        for sw in sent {
            let w = self.idf(sw);
            total += w;
            if claim_words.contains(sw) {
                hit += w;
            }
        }
        let precision = if total == 0.0 { 0.0 } else { hit / total };
        let recall = best.score;
        if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        }
    }

    /// The best supporting sentence for a claim, if any scores above zero.
    pub fn best_evidence(&self, claim: &str) -> Option<Retrieved> {
        self.retrieve(claim, 1).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> EvidenceIndex {
        EvidenceIndex::from_sentences([
            "Alice knows Bob",
            "Alice works at Acme",
            "Bob works at Initech",
            "Carol directed The Big Film",
            "The Big Film stars Bob",
        ])
    }

    /// The scoring `retrieve` replaced: every query word's IDF is
    /// recomputed for each sentence scored.
    fn overlap_score_per_sentence(idx: &EvidenceIndex, qwords: &[String], id: usize) -> f64 {
        if qwords.is_empty() {
            return 0.0;
        }
        let sent = &idx.tokenized[id];
        let mut hit = 0.0;
        let mut total = 0.0;
        for qw in qwords {
            let w = idx.idf(qw);
            total += w;
            if sent.contains(qw) {
                hit += w;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            hit / total
        }
    }

    /// The selection `retrieve` replaced: score and clone every
    /// sentence, sort them all, then truncate.
    fn sort_then_truncate(idx: &EvidenceIndex, query: &str, k: usize) -> Vec<Retrieved> {
        let qwords = query_words(query);
        let mut scored: Vec<Retrieved> = (0..idx.sentences.len())
            .map(|id| Retrieved {
                id,
                text: idx.sentences[id].clone(),
                score: overlap_score_per_sentence(idx, &qwords, id),
            })
            .filter(|r| r.score > 0.0)
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        scored.truncate(k);
        scored
    }

    #[test]
    fn retrieve_selects_the_sorted_prefix_under_ties() {
        // duplicates and same-shaped sentences tie on score
        let idx = EvidenceIndex::from_sentences([
            "Bob works at Initech",
            "Alice works at Acme",
            "Bob works at Initech",
            "Carol works at Acme",
            "Bob works at Initech",
            "Dave knows Bob",
            "Alice works at Acme",
            "nothing relevant here",
        ]);
        for query in ["Bob works at Acme", "who works", "Alice", "zzz"] {
            let n = sort_then_truncate(&idx, query, usize::MAX).len();
            for k in [0, 1, 2, n, n + 3] {
                assert_eq!(
                    idx.retrieve(query, k),
                    sort_then_truncate(&idx, query, k),
                    "query {query:?}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn retrieve_finds_most_relevant() {
        let idx = index();
        let hits = idx.retrieve("where does Alice work", 2);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].text, "Alice works at Acme");
    }

    #[test]
    fn exact_claim_has_full_support() {
        let idx = index();
        assert!((idx.support("Alice knows Bob") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn false_claim_has_partial_support() {
        let idx = index();
        let s = idx.support("Alice knows Carol");
        assert!(s < 1.0 && s > 0.0, "{s}");
    }

    #[test]
    fn unknown_topic_has_zero_support() {
        let idx = index();
        assert_eq!(idx.support("quantum flux reactors overheat"), 0.0);
        assert!(idx
            .best_evidence("quantum flux reactors overheat")
            .is_none());
    }

    #[test]
    fn retrieval_is_deterministic_and_ranked() {
        let idx = index();
        let a = idx.retrieve("Bob", 5);
        let b = idx.retrieve("Bob", 5);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn rare_words_weigh_more_than_common() {
        let mut idx = EvidenceIndex::new();
        idx.add("the cat sat on the mat");
        idx.add("the dog sat on the rug");
        idx.add("the cat chased the dog");
        // "mat" is rarer than "sat": a query with "mat" should prefer s0
        let hits = idx.retrieve("mat sat", 3);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn empty_index_supports_nothing() {
        let idx = EvidenceIndex::new();
        assert_eq!(idx.support("anything"), 0.0);
        assert!(idx.retrieve("anything", 3).is_empty());
    }
}
