//! Text embeddings: hashed random projection enriched with corpus
//! co-occurrence.
//!
//! Each word gets a deterministic pseudo-random base vector (feature
//! hashing). A word's *contextual* vector is its base vector blended with
//! the average base vector of words it co-occurs with in the training
//! corpus — a cheap stand-in for distributional semantics: words appearing
//! in similar sentences end up with similar vectors, which is exactly the
//! property the retrieval / alignment / clustering experiments need. Text
//! embeddings are IDF-weighted averages of word vectors.

use std::collections::HashMap;

use crate::tokenizer::{content_words, is_stopword, tokenize_words};

/// Embedding dimensionality used across the workspace.
pub const DIM: usize = 64;

/// Blend factor between a word's hash vector and its context vector.
const CONTEXT_BLEND: f32 = 0.5;

/// Deterministic word/text embedder.
#[derive(Debug, Clone)]
pub struct Embedder {
    /// learned co-occurrence context vectors (word → summed neighbor hash)
    context: HashMap<String, Vec<f32>>,
    /// document frequency per word, for IDF weighting
    doc_freq: HashMap<String, u32>,
    /// number of training sentences
    docs: u32,
}

/// SplitMix64, used to derive per-word hash vectors deterministically.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn word_seed(word: &str) -> u64 {
    // FNV-1a
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in word.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The deterministic base (hash) vector of a word: unit-norm, `DIM` dims.
pub fn hash_vector(word: &str) -> Vec<f32> {
    let mut state = word_seed(word);
    let mut v = Vec::with_capacity(DIM);
    for _ in 0..DIM {
        state = splitmix64(state);
        // map to [-1, 1)
        let x = (state >> 11) as f32 / (1u64 << 53) as f32;
        v.push(x * 2.0 - 1.0);
    }
    normalize(&mut v);
    v
}

/// Scale `v` to unit L2 norm in place. Zero vectors are left untouched
/// (there is no direction to normalize them toward), which is what lets
/// downstream dot products treat them as "similar to nothing" — exactly
/// the `0.0` the guarded [`cosine`] returns.
pub fn normalize(v: &mut [f32]) {
    let norm = dot(v, v).sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Dot product over equal-length slices: the portable 8-lane kernel
/// ([`crate::kernel::dot_scalar`]), which auto-vectorizes and stays the
/// fastest option for a *single* 64-dim pair — the explicit SIMD paths
/// in [`crate::kernel`] only win once their call overhead amortizes
/// over a batch, which is why the batched entry point
/// ([`crate::kernel::matmul_tile`]) dispatches and this one does not.
///
/// This is the retrieval kernel: over unit-normalized vectors the dot
/// product *is* the cosine, at a third of [`cosine`]'s arithmetic and
/// with no per-pair norm recomputation. The accumulators are reduced
/// pairwise at the end, so the result is deterministic for a given
/// input (independent of call site), and bit-identical to every SIMD
/// dispatch path — though not to a strictly sequential summation.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    crate::kernel::dot_scalar(&a[..n], &b[..n])
}

/// Cosine similarity between two equal-length vectors.
///
/// Recomputes both norms on every call (O(3d)); when one side is scanned
/// repeatedly — a retrieval loop — normalize the stored vectors once and
/// use [`dot`] directly instead.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let d = dot(a, b);
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        d / (na * nb)
    }
}

impl Default for Embedder {
    fn default() -> Self {
        Self::new()
    }
}

impl Embedder {
    /// An untrained embedder (hash vectors only).
    pub fn new() -> Self {
        Embedder {
            context: HashMap::new(),
            doc_freq: HashMap::new(),
            docs: 0,
        }
    }

    /// Train on a corpus of sentences: accumulates co-occurrence context
    /// vectors and document frequencies.
    pub fn train<'a>(&mut self, sentences: impl IntoIterator<Item = &'a str>) {
        for sent in sentences {
            let words = tokenize_words(sent);
            self.docs += 1;
            let mut seen: Vec<&str> = Vec::new();
            for w in &words {
                if !seen.contains(&w.as_str()) {
                    seen.push(w);
                    *self.doc_freq.entry(w.clone()).or_insert(0) += 1;
                }
            }
            // each content word absorbs the hash vectors of its neighbors;
            // precompute one hash vector per word instead of per pair
            let content: Vec<&String> = words.iter().filter(|w| !is_stopword(w)).collect();
            let hashed: Vec<Vec<f32>> = content.iter().map(|w| hash_vector(w)).collect();
            for (i, w) in content.iter().enumerate() {
                let entry = self
                    .context
                    .entry((*w).clone())
                    .or_insert_with(|| vec![0.0; DIM]);
                for (j, hv) in hashed.iter().enumerate() {
                    if i != j {
                        for (e, h) in entry.iter_mut().zip(hv) {
                            *e += h;
                        }
                    }
                }
            }
        }
    }

    /// IDF weight of a word (1.0 for unseen words).
    pub fn idf(&self, word: &str) -> f32 {
        match self.doc_freq.get(word) {
            Some(&df) if self.docs > 0 => ((1.0 + self.docs as f32) / (1.0 + df as f32)).ln() + 1.0,
            _ => 1.0,
        }
    }

    /// The contextual vector of a word: hash vector blended with learned
    /// context (unit-norm).
    pub fn word_vector(&self, word: &str) -> Vec<f32> {
        let mut v = hash_vector(word);
        if let Some(ctx) = self.context.get(word) {
            let mut c = ctx.clone();
            normalize(&mut c);
            for (x, y) in v.iter_mut().zip(&c) {
                *x = (1.0 - CONTEXT_BLEND) * *x + CONTEXT_BLEND * y;
            }
            normalize(&mut v);
        }
        v
    }

    /// Embed a text: IDF-weighted mean of content-word vectors (unit-norm).
    /// Falls back to all words when the text has no content words, and to
    /// the zero vector for empty text.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut words = content_words(text);
        if words.is_empty() {
            words = tokenize_words(text);
        }
        let mut v = vec![0.0f32; DIM];
        if words.is_empty() {
            return v;
        }
        for w in &words {
            let wv = self.word_vector(w);
            let idf = self.idf(w);
            for (x, y) in v.iter_mut().zip(&wv) {
                *x += idf * y;
            }
        }
        normalize(&mut v);
        v
    }

    /// Cosine similarity of two texts under this embedder.
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        cosine(&self.embed(a), &self.embed(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_vectors_are_deterministic_and_distinct() {
        assert_eq!(hash_vector("alice"), hash_vector("alice"));
        assert!(cosine(&hash_vector("alice"), &hash_vector("bob")) < 0.9);
    }

    #[test]
    fn identical_text_has_similarity_one() {
        let e = Embedder::new();
        let s = e.similarity("alice knows bob", "alice knows bob");
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn overlapping_text_beats_disjoint_text() {
        let e = Embedder::new();
        let near = e.similarity("alice knows bob", "alice knows carol");
        let far = e.similarity("alice knows bob", "quantum flux reactor");
        assert!(near > far, "{near} vs {far}");
    }

    #[test]
    fn cooccurrence_pulls_related_words_together() {
        let mut e = Embedder::new();
        // "paris" and "france" co-occur; "paris" and "reactor" never do
        let corpus = [
            "paris is the capital of france",
            "paris lies in france",
            "france contains paris",
            "the reactor powers the station",
            "the station hosts the reactor",
        ];
        e.train(corpus.iter().copied());
        let related = cosine(&e.word_vector("paris"), &e.word_vector("france"));
        let unrelated = cosine(&e.word_vector("paris"), &e.word_vector("reactor"));
        assert!(related > unrelated, "{related} vs {unrelated}");
    }

    #[test]
    fn idf_downweights_common_words() {
        let mut e = Embedder::new();
        e.train(["the cat sat", "the dog ran", "the bird flew"]);
        assert!(e.idf("the") < e.idf("cat"));
        assert_eq!(e.idf("unseen-word"), 1.0);
    }

    #[test]
    fn empty_text_embeds_to_zero() {
        let e = Embedder::new();
        let v = e.embed("");
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(cosine(&v, &v), 0.0);
    }

    #[test]
    fn dot_matches_sequential_sum_within_epsilon() {
        // odd length exercises the remainder loop past the 8-wide chunks
        let a: Vec<f32> = (0..67).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..67).map(|i| (i as f32 * 0.51).cos()).collect();
        let seq: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - seq).abs() < 1e-4, "{} vs {seq}", dot(&a, &b));
    }

    #[test]
    fn dot_on_normalized_vectors_equals_cosine() {
        let mut a = hash_vector("alpha");
        let mut b = hash_vector("beta");
        let c = cosine(&a, &b);
        normalize(&mut a);
        normalize(&mut b);
        assert!((dot(&a, &b) - c).abs() < 1e-5);
    }

    #[test]
    fn normalize_leaves_zero_vectors_alone() {
        let mut v = vec![0.0f32; 16];
        normalize(&mut v);
        assert!(v.iter().all(|&x| x == 0.0));
        let mut u = vec![3.0f32, 4.0];
        normalize(&mut u);
        assert!((dot(&u, &u).sqrt() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = Embedder::new();
        let v = e.embed("alice knows bob");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }
}
