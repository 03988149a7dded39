//! Generation parameters.

/// Sampling parameters for free-text generation, mirroring the knobs of a
/// real LLM API (max tokens, temperature, top-k) plus an explicit seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenParams {
    /// Maximum number of word tokens to generate.
    pub max_tokens: usize,
    /// Softmax temperature; lower = greedier.
    pub temperature: f64,
    /// Top-k truncation of the candidate distribution.
    pub top_k: usize,
    /// Seed for the sampler.
    pub seed: u64,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            max_tokens: 32,
            temperature: 0.7,
            top_k: 8,
            seed: 0,
        }
    }
}
