//! Named counters and histograms behind a thread-safe [`Registry`].

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of power-of-two histogram buckets (the last one is unbounded).
const BUCKETS: usize = 32;

/// A thread-safe home for named monotonic counters and value histograms.
///
/// Names are free-form dotted strings (`"exec.index_probes"`); the
/// instrumented subsystems' catalogue lives in `docs/observability.md`.
///
/// ```
/// let reg = obs::Registry::new();
/// reg.incr("exec.queries", 2);
/// reg.observe("rag.context_chars", 120.0);
/// assert_eq!(reg.counter("exec.queries"), 2);
/// assert_eq!(reg.snapshot().histograms["rag.context_chars"].count, 1);
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

#[derive(Debug, Clone, Default)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// `buckets[i]` counts values `v` with `v < 2^i` (first matching
    /// bucket); the final bucket absorbs everything larger.
    buckets: [u64; BUCKETS],
}

impl Histogram {
    fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = (0..BUCKETS - 1)
            .find(|&i| v < f64::from(2u32).powi(i as i32))
            .unwrap_or(BUCKETS - 1);
        self.buckets[idx] += 1;
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for (i, n) in other.buckets.iter().enumerate().take(BUCKETS) {
            self.buckets[i] += n;
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `by` to the named counter (creating it at zero).
    pub fn incr(&self, name: &str, by: u64) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        *inner.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Record one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Current value of a counter (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// A consistent copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        MetricsSnapshot {
            counters: inner.counters.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistogramSnapshot::from(h)))
                .collect(),
        }
    }

    /// Fold another registry's snapshot into this one: counters add,
    /// histograms merge bucket-wise. Used to combine the metrics of
    /// independently-traced answers into one report.
    pub fn merge(&self, other: &MetricsSnapshot) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        for (k, v) in &other.counters {
            *inner.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            inner.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
    /// Power-of-two bucket counts: `buckets[i]` counts observations
    /// `< 2^i`, except the last, which is unbounded.
    pub buckets: Vec<u64>,
}

impl From<&Histogram> for HistogramSnapshot {
    fn from(h: &Histogram) -> Self {
        HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0.0 } else { h.min },
            max: if h.count == 0 { 0.0 } else { h.max },
            buckets: h.buckets.to_vec(),
        }
    }
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the power-of-two
    /// buckets, interpolating linearly inside the bucket that contains
    /// the target rank and clamping to the observed `[min, max]` range.
    ///
    /// The estimate is bounded by construction — bucket `i` spans
    /// `[2^(i-1), 2^i)` — so it is accurate to within one octave, which
    /// is what a serving `/stats` endpoint needs (a load generator that
    /// wants exact percentiles keeps its own sample vector).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // rank in [1, count]
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                // target falls inside bucket i: span [2^(i-1), 2^i)
                let hi = f64::from(2u32).powi(i as i32);
                let lo = if i == 0 { 0.0 } else { hi / 2.0 };
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo + frac * (hi - lo);
                return est.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }
}

/// Point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter in this snapshot (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let reg = Registry::new();
        reg.incr("a", 1);
        reg.incr("a", 4);
        reg.incr("b", 2);
        assert_eq!(reg.counter("a"), 5);
        assert_eq!(reg.counter("b"), 2);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max_buckets() {
        let reg = Registry::new();
        for v in [1.0, 3.0, 100.0] {
            reg.observe("h", v);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 104.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - 104.0 / 3.0).abs() < 1e-9);
        // 1.0 < 2^1 → bucket 1; 3.0 < 2^2 → bucket 2; 100.0 < 2^7 → bucket 7
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[7], 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn merge_sums_counters_and_folds_histograms() {
        let a = Registry::new();
        a.incr("shared", 1);
        a.incr("only_a", 10);
        a.observe("h", 2.0);
        let b = Registry::new();
        b.incr("shared", 2);
        b.incr("only_b", 20);
        b.observe("h", 8.0);
        b.observe("g", 1.0);

        a.merge(&b.snapshot());
        let merged = a.snapshot();
        assert_eq!(merged.counter("shared"), 3);
        assert_eq!(merged.counter("only_a"), 10);
        assert_eq!(merged.counter("only_b"), 20);
        let h = &merged.histograms["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 10.0);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 8.0);
        assert_eq!(merged.histograms["g"].count, 1);
    }

    #[test]
    fn merge_is_associative_on_counters() {
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) — the property the per-answer
        // report aggregation relies on
        let mk = |v: u64| {
            let r = Registry::new();
            r.incr("x", v);
            r.snapshot()
        };
        let (a, b, c) = (mk(1), mk(2), mk(4));
        let left = Registry::new();
        left.merge(&a);
        left.merge(&b);
        left.merge(&c);
        let bc = Registry::new();
        bc.merge(&b);
        bc.merge(&c);
        let right = Registry::new();
        right.merge(&a);
        right.merge(&bc.snapshot());
        assert_eq!(left.snapshot(), right.snapshot());
    }

    #[test]
    fn quantile_estimates_are_octave_accurate_and_clamped() {
        let reg = Registry::new();
        for v in 1..=100 {
            reg.observe("h", f64::from(v));
        }
        let h = &reg.snapshot().histograms["h"];
        // within one power-of-two bucket of the true value
        let p50 = h.quantile(0.5);
        assert!((32.0..=64.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((64.0..=100.0).contains(&p99), "p99 {p99}");
        // clamped to observed extremes
        assert!(h.quantile(0.0) >= 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
        // empty histogram
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![0; 32],
        };
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = std::sync::Arc::new(Registry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move || {
                    for _ in 0..100 {
                        reg.incr("n", 1);
                    }
                });
            }
        });
        assert_eq!(reg.counter("n"), 400);
    }
}
