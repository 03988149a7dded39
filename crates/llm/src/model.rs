//! The [`Slm`] — the simulated LLM facade.
//!
//! Built from a training corpus (typically verbalized KG triples plus
//! free text), it exposes the four interfaces real LLM applications use:
//! [`Slm::complete`], [`Slm::score`], [`Slm::embed`], [`Slm::chat`] — plus
//! structured equivalents ([`Slm::answer`], [`Slm::verify`]) that the task
//! crates call directly when they don't need to round-trip through prompt
//! text.
//!
//! ### Knowledge and hallucination model
//!
//! The model "knows" exactly its training sentences. [`Slm::answer`]
//! prefers prompt-supplied context (simulating that in-context evidence
//! dominates parametric memory), then falls back to parametric evidence.
//! When neither clears the confidence threshold, behaviour depends on
//! [`SlmBuilder::hallucinate`]: either abstain, or produce a fluent but
//! unsupported answer flagged `hallucinated = true` — making hallucination
//! a measurable event for the RAG / fact-checking experiments.

use crate::chat::{ChatSession, Message, Role};
use crate::embedding::Embedder;
use crate::evidence::EvidenceIndex;
use crate::generate::GenParams;
use crate::ngram::NgramLm;
use crate::prompt::{parse_prompt, ParsedPrompt};
use crate::task::{icl_extract_spans, Answer, Verdict, VerdictLabel};
use crate::tokenizer::{content_words, is_stopword, stem, stemmed_content_words, tokenize_words};

/// Confidence threshold above which evidence counts as support.
pub const SUPPORT_THRESHOLD: f64 = 0.72;
/// Overlap threshold above which near-miss evidence counts as refutation.
pub const REFUTE_THRESHOLD: f64 = 0.4;

/// Builder for [`Slm`].
#[derive(Debug, Default)]
pub struct SlmBuilder {
    corpus: Vec<String>,
    entity_names: Vec<String>,
    hallucinate: bool,
    seed: u64,
}

impl SlmBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add training sentences (the model's parametric knowledge).
    pub fn corpus<'a>(mut self, sentences: impl IntoIterator<Item = &'a str>) -> Self {
        self.corpus
            .extend(sentences.into_iter().map(str::to_string));
        self
    }

    /// Add one training sentence.
    pub fn sentence(mut self, s: impl Into<String>) -> Self {
        self.corpus.push(s.into());
        self
    }

    /// Register known entity surface forms (used as hallucination
    /// candidates and for span filtering).
    pub fn entity_names<'a>(mut self, names: impl IntoIterator<Item = &'a str>) -> Self {
        self.entity_names
            .extend(names.into_iter().map(str::to_string));
        self
    }

    /// Whether the model fabricates answers when evidence is missing
    /// (default: `false`, i.e. it abstains).
    pub fn hallucinate(mut self, yes: bool) -> Self {
        self.hallucinate = yes;
        self
    }

    /// Base seed for generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Train and freeze the model.
    pub fn build(self) -> Slm {
        let mut lm = NgramLm::new();
        lm.observe_all(self.corpus.iter().map(String::as_str));
        let mut embedder = Embedder::new();
        embedder.train(self.corpus.iter().map(String::as_str));
        let evidence = EvidenceIndex::from_sentences(self.corpus.iter().map(String::as_str));
        let mut entity_names = self.entity_names;
        entity_names.sort();
        entity_names.dedup();
        Slm {
            lm,
            embedder,
            evidence,
            entity_names,
            hallucinate: self.hallucinate,
            seed: self.seed,
        }
    }
}

/// The simulated language model. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct Slm {
    lm: NgramLm,
    embedder: Embedder,
    evidence: EvidenceIndex,
    entity_names: Vec<String>,
    hallucinate: bool,
    seed: u64,
}

impl Slm {
    /// Start building a model.
    pub fn builder() -> SlmBuilder {
        SlmBuilder::new()
    }

    /// The underlying n-gram LM (for perplexity experiments).
    pub fn lm(&self) -> &NgramLm {
        &self.lm
    }

    /// The trained embedder.
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }

    /// The parametric evidence index (the model's enumerable knowledge).
    pub fn knowledge(&self) -> &EvidenceIndex {
        &self.evidence
    }

    /// Registered entity surface forms.
    pub fn entity_names(&self) -> &[String] {
        &self.entity_names
    }

    /// Average per-token log2 likelihood of a text (the LLM "score").
    pub fn score(&self, text: &str) -> f64 {
        self.lm.log_likelihood(text)
    }

    /// Embed a text into the shared vector space.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        self.embedder.embed(text)
    }

    /// Cosine similarity of two texts.
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        self.embedder.similarity(a, b)
    }

    /// Does the model verifiably know this sentence (≈ exact support)?
    /// Uses bidirectional support so a sentence whose words merely appear
    /// inside some known sentence does not count as known.
    pub fn knows(&self, sentence: &str) -> bool {
        self.evidence.verified_support(sentence) >= 0.999
    }

    /// Complete a prompt. Structured prompts (see [`crate::prompt`]) are
    /// routed to the structured behaviours; free prompts get an n-gram
    /// continuation.
    pub fn complete(&self, prompt: &str, params: &GenParams) -> String {
        match parse_prompt(prompt) {
            ParsedPrompt::Question { context, question } => {
                let a = self.answer(&question, &context);
                if a.is_answered() {
                    a.text
                } else {
                    "unknown".to_string()
                }
            }
            ParsedPrompt::Claim { context, claim } => {
                self.verify(&claim, &context).label.name().to_string()
            }
            ParsedPrompt::FewShot {
                examples, input, ..
            } => icl_extract_spans(&examples, &input).join(", "),
            ParsedPrompt::Free(text) => self.lm.generate(
                &text,
                params.max_tokens,
                params.temperature,
                params.top_k,
                params.seed ^ self.seed,
            ),
        }
    }

    /// Chat: answers the last user message, using prior assistant/user
    /// turns as additional context sentences.
    pub fn chat(&self, session: &ChatSession, params: &GenParams) -> Message {
        let question = session
            .last_user()
            .map(|m| m.content.clone())
            .unwrap_or_default();
        let context: Vec<String> = session
            .messages()
            .iter()
            .filter(|m| m.role != Role::User || m.content != question)
            .map(|m| m.content.clone())
            .collect();
        let text = if question.trim_end().ends_with('?') {
            let a = self.answer(&question, &context);
            if a.is_answered() {
                a.text
            } else {
                "I don't know.".to_string()
            }
        } else {
            self.complete(&question, params)
        };
        Message::assistant(text)
    }

    /// Answer a question given optional in-context evidence sentences.
    ///
    /// Context evidence is preferred over parametric evidence at equal
    /// scores (a deliberate simulation of in-context dominance). The answer
    /// phrase is read off the best evidence sentence: its content words not
    /// present in the question, with original casing.
    pub fn answer(&self, question: &str, context: &[String]) -> Answer {
        let ctx_index = if context.is_empty() {
            None
        } else {
            Some(EvidenceIndex::from_sentences(
                context.iter().map(String::as_str),
            ))
        };
        let ctx_best = ctx_index.as_ref().and_then(|i| i.best_evidence(question));
        let par_best = self.evidence.best_evidence(question);

        let best = match (&ctx_best, &par_best) {
            (Some(c), Some(p)) => {
                if c.score >= p.score {
                    Some((c.text.clone(), c.score))
                } else {
                    Some((p.text.clone(), p.score))
                }
            }
            (Some(c), None) => Some((c.text.clone(), c.score)),
            (None, Some(p)) => Some((p.text.clone(), p.score)),
            (None, None) => None,
        };

        match best {
            Some((evidence, score)) if score >= REFUTE_THRESHOLD => {
                let text = extract_answer_phrase(question, &evidence);
                if text.is_empty() {
                    // evidence restates the question; treat as yes-answer
                    Answer {
                        text: "yes".to_string(),
                        confidence: score,
                        evidence: Some(evidence),
                        hallucinated: false,
                    }
                } else {
                    Answer {
                        text,
                        confidence: score,
                        evidence: Some(evidence),
                        hallucinated: false,
                    }
                }
            }
            _ if self.hallucinate => {
                // fabricate: the lexically closest entity name, else free text
                let fabricated = self
                    .closest_entity(question)
                    .unwrap_or_else(|| self.lm.generate(question, 6, 0.9, 8, self.seed));
                Answer {
                    text: fabricated,
                    confidence: 0.05,
                    evidence: None,
                    hallucinated: true,
                }
            }
            _ => Answer::unknown(),
        }
    }

    /// Verify a claim against context + parametric knowledge.
    ///
    /// * support ≥ [`SUPPORT_THRESHOLD`] → `Supported`;
    /// * otherwise, if near-miss evidence overlaps the claim's
    ///   non-answer words but disagrees on the rest → `Refuted`;
    /// * else `Unknown`.
    pub fn verify(&self, claim: &str, context: &[String]) -> Verdict {
        let ctx_index = if context.is_empty() {
            None
        } else {
            Some(EvidenceIndex::from_sentences(
                context.iter().map(String::as_str),
            ))
        };
        let mut best: Option<crate::evidence::Retrieved> = None;
        if let Some(i) = &ctx_index {
            best = i.best_evidence(claim);
        }
        if let Some(p) = self.evidence.best_evidence(claim) {
            if best.as_ref().is_none_or(|b| p.score > b.score) {
                best = Some(p);
            }
        }
        match best {
            Some(r) if r.score >= SUPPORT_THRESHOLD => Verdict {
                label: VerdictLabel::Supported,
                score: r.score,
                evidence: Some(r.text),
            },
            Some(r) if r.score >= REFUTE_THRESHOLD && contradicts(claim, &r.text) => Verdict {
                label: VerdictLabel::Refuted,
                score: r.score,
                evidence: Some(r.text),
            },
            Some(r) => Verdict {
                label: VerdictLabel::Unknown,
                score: r.score,
                evidence: Some(r.text),
            },
            None => Verdict {
                label: VerdictLabel::Unknown,
                score: 0.0,
                evidence: None,
            },
        }
    }

    /// In-context span extraction (the PromptNER-style interface).
    pub fn extract_spans(&self, examples: &[(String, String)], input: &str) -> Vec<String> {
        icl_extract_spans(examples, input)
    }

    fn closest_entity(&self, question: &str) -> Option<String> {
        let qwords = content_words(question);
        self.entity_names
            .iter()
            .map(|n| {
                let nwords = tokenize_words(n);
                let overlap = nwords.iter().filter(|w| qwords.contains(w)).count();
                (n, overlap)
            })
            .max_by_key(|&(n, overlap)| (overlap, std::cmp::Reverse(n.len())))
            .map(|(n, _)| n.clone())
    }
}

/// The content words of `evidence` that do not occur in `question`,
/// rendered with their original casing and order. Comparison is on light
/// stems so "works" in evidence matches "work" in the question.
fn extract_answer_phrase(question: &str, evidence: &str) -> String {
    let qstems: Vec<String> = tokenize_words(question).iter().map(|w| stem(w)).collect();
    let mut out: Vec<&str> = Vec::new();
    for raw in evidence.split_whitespace() {
        let clean = raw.trim_matches(|c: char| !c.is_alphanumeric());
        if clean.is_empty() {
            continue;
        }
        let lower = clean.to_lowercase();
        if !qstems.contains(&stem(&lower)) && !is_stopword(&lower) {
            out.push(clean);
        }
    }
    out.join(" ")
}

/// Does near-miss evidence *contradict* a claim? True when the two share a
/// solid anchor (≥2 stemmed content words) yet each asserts content the
/// other lacks — the shape of a verbalized triple whose object was swapped.
fn contradicts(claim: &str, evidence: &str) -> bool {
    let cw = stemmed_content_words(claim);
    let ew = stemmed_content_words(evidence);
    let shared = cw.iter().filter(|w| ew.contains(w)).count();
    let claim_only = cw.iter().filter(|w| !ew.contains(w)).count();
    let evidence_only = ew.iter().filter(|w| !cw.contains(w)).count();
    shared >= 2 && claim_only >= 1 && evidence_only >= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(hallucinate: bool) -> Slm {
        Slm::builder()
            .corpus([
                "Alice works at Acme",
                "Bob works at Initech",
                "Carol directed The Big Film",
                "The Big Film stars Bob",
                "Alice was born in Paris",
            ])
            .entity_names(["Alice", "Bob", "Carol", "Acme", "Initech", "Paris"])
            .hallucinate(hallucinate)
            .seed(7)
            .build()
    }

    #[test]
    fn answers_known_facts() {
        let m = model(false);
        let a = m.answer("Where does Alice work?", &[]);
        assert!(a.is_answered());
        assert!(a.text.contains("Acme"), "{a:?}");
        assert!(!a.hallucinated);
        assert!(a.confidence > 0.4);
    }

    #[test]
    fn abstains_on_unknown_without_hallucination() {
        let m = model(false);
        let a = m.answer("What powers the quantum reactor?", &[]);
        assert!(!a.is_answered());
        assert!(!a.hallucinated);
    }

    #[test]
    fn hallucinates_when_enabled() {
        let m = model(true);
        let a = m.answer("What is the melting point of zorblax?", &[]);
        assert!(a.is_answered());
        assert!(a.hallucinated);
        assert!(a.confidence < 0.2);
    }

    #[test]
    fn context_beats_parametric_memory() {
        let m = model(false);
        // context says Alice works at Globex (overriding parametric Acme)
        let ctx = vec!["Alice works at Globex".to_string()];
        let a = m.answer("Where does Alice work?", &ctx);
        assert!(a.text.contains("Globex"), "{a:?}");
    }

    #[test]
    fn verify_supported_refuted_unknown() {
        let m = model(false);
        assert_eq!(
            m.verify("Alice works at Acme", &[]).label,
            VerdictLabel::Supported
        );
        assert_eq!(
            m.verify("Alice works at Initech", &[]).label,
            VerdictLabel::Refuted
        );
        assert_eq!(
            m.verify("the zorblax reactor melted", &[]).label,
            VerdictLabel::Unknown
        );
    }

    #[test]
    fn knows_is_exact() {
        let m = model(false);
        assert!(m.knows("Alice works at Acme"));
        assert!(!m.knows("Alice works at Initech"));
    }

    #[test]
    fn complete_routes_structured_prompts() {
        let m = model(false);
        let qa = crate::prompt::qa_prompt(&[], "Where does Bob work?");
        let out = m.complete(&qa, &GenParams::default());
        assert!(out.contains("Initech"), "{out}");
        let v = crate::prompt::verify_prompt(&[], "Alice works at Acme");
        assert_eq!(m.complete(&v, &GenParams::default()), "supported");
    }

    #[test]
    fn complete_free_text_is_deterministic() {
        let m = model(false);
        let p = GenParams {
            seed: 3,
            ..GenParams::default()
        };
        assert_eq!(m.complete("alice", &p), m.complete("alice", &p));
    }

    #[test]
    fn chat_answers_questions_with_dialogue_context() {
        let m = model(false);
        let mut s = ChatSession::with_system("You answer from knowledge.");
        s.push(Message::user("Where does Alice work?"));
        let r = m.chat(&s, &GenParams::default());
        assert_eq!(r.role, Role::Assistant);
        assert!(r.content.contains("Acme"), "{}", r.content);
    }

    #[test]
    fn yes_answer_when_evidence_restates_question() {
        let m = model(false);
        let a = m.answer("Does Alice work at Acme?", &[]);
        assert_eq!(a.text, "yes");
    }

    #[test]
    fn builder_dedups_entity_names() {
        let m = Slm::builder().entity_names(["A", "A", "B"]).build();
        assert_eq!(m.entity_names().len(), 2);
    }
}
