//! # kgrag — KG-enhanced LLMs (paper §3)
//!
//! The survey's §3 traces a line from knowledge injection (K-BERT,
//! Dict-BERT) through Naive / Advanced / Modular RAG to Graph RAG. All of
//! it is here, against the `slm` substrate whose enumerable knowledge
//! makes "does retrieval reduce hallucination?" a measurable question:
//!
//! * [`chunk`] — sentence-window chunking with overlap,
//! * [`vector`] — a vector index over a flat pre-normalized arena behind
//!   one entrypoint, [`VectorIndex::search`]: exact top-k through a
//!   batched dot-product kernel with bounded-heap top-k (optionally
//!   sharded across threads) plus an IVF-lite variant (seeded k-means coarse
//!   quantizer with cluster probing); the seed brute force and the
//!   per-query arena scan survive in [`mod@reference`] as differential
//!   oracles,
//! * [`inject`] — K-BERT-sim \[60\] triple injection into prompts and
//!   Dict-BERT-sim \[93\] rare-term definitions,
//! * [`pipeline`] — the RAG ladder \[30\]: closed-book, Naive RAG
//!   (index → retrieve → generate), Advanced RAG (query expansion +
//!   reranking), Modular RAG with a KnowledgeGPT-style \[84\] structured
//!   KG-lookup module and vector fallback,
//! * [`graphrag`] — Graph RAG \[26\]: entity graph → community detection
//!   (label propagation) → community summaries → map-reduce answering of
//!   *global* questions that pointwise retrieval cannot serve.

pub mod chunk;
pub mod graphrag;
pub mod inject;
pub mod pipeline;
pub mod reference;
pub mod vector;

pub use chunk::{chunk_sentences, Chunk};
pub use graphrag::GraphRag;
pub use inject::{inject_knowledge, rare_term_definitions};
pub use pipeline::{BatchWindow, RagAnswer, RagMode, RagPipeline};
pub use vector::{
    IvfFallback, IvfSeeding, SearchOptions, SearchRequest, SearchResult, SearchStats, Strategy,
    VectorIndex,
};
