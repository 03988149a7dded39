//! Shared support for the benchmark / regeneration binaries.
//!
//! Every `eval_*` binary prints its tables to stdout *and* appends a JSON
//! record to `reports/<name>.json` (relative to the workspace root when
//! run via `cargo run`), so EXPERIMENTS.md numbers can be regenerated and
//! diffed mechanically.

use std::fs;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::time::Instant;

use serde_json::Value;

/// Standard seed used by all experiment binaries.
pub const EXP_SEED: u64 = 2024;

/// Where JSON reports land.
pub fn reports_dir() -> PathBuf {
    PathBuf::from("reports")
}

/// Write a JSON report for an experiment id (e.g. `"E5"`).
pub fn write_report(experiment: &str, value: &Value) {
    let dir = reports_dir();
    if fs::create_dir_all(&dir).is_err() {
        return; // reports are best-effort; stdout is the primary artifact
    }
    let path = dir.join(format!("{experiment}.json"));
    if let Ok(s) = serde_json::to_string_pretty(value) {
        let _ = fs::write(path, s);
    }
}

/// Timed passes [`time_ns`] runs after its warmup: seven, so the median
/// and both quartiles are single passes.
const TIMED_PASSES: usize = 7;

/// The median and quartiles of repeated measurements: [`time_ns`]'s
/// seven timed passes (nanoseconds per call), or one statistic of
/// `serve_bench`'s repeated load runs. A report writes the median under
/// the field's name and `[q1, q3]` beside it ([`Spread::quartiles`]); a
/// speedup is a ratio of medians.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// The middle value (the upper middle of an even count).
    pub median: f64,
    /// The value a quarter of the way up: the median of the three
    /// smallest of seven.
    pub q1: f64,
    /// The value a quarter of the way down from the top.
    pub q3: f64,
}

impl Spread {
    /// The spread of `values`, which must not be empty.
    pub fn of(values: &[f64]) -> Spread {
        assert!(!values.is_empty(), "the spread of no values");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Spread {
            median: sorted[n / 2],
            q1: sorted[n / 4],
            q3: sorted[n - 1 - n / 4],
        }
    }

    /// Each statistic divided by `n`: the per-item cost of a pass over
    /// `n` items.
    pub fn per(self, n: usize) -> Spread {
        let n = n as f64;
        Spread {
            median: self.median / n,
            q1: self.q1 / n,
            q3: self.q3 / n,
        }
    }

    /// `[q1, q3]`, as a report writes it beside the median.
    pub fn quartiles(&self) -> Value {
        serde_json::json!([self.q1, self.q3])
    }
}

/// Exact nearest-rank percentile `q` (in `0..=1`) of an ascending
/// sample; 0 for an empty one.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    sorted[idx]
}

/// Time `f`: a warmup of a quarter of `iters` calls, then seven timed
/// passes of `iters` calls each, so scheduler noise on a shared host
/// shows as spread instead of moving a single reading.
pub fn time_ns(iters: u32, mut f: impl FnMut()) -> Spread {
    for _ in 0..iters.div_ceil(4) {
        f();
    }
    let mut passes = [0.0f64; TIMED_PASSES];
    for pass in &mut passes {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        *pass = start.elapsed().as_nanos() as f64 / f64::from(iters);
    }
    Spread::of(&passes)
}

/// Pick an iteration count so each timed pass of [`time_ns`] runs about
/// `target_ns`, whatever one call costs: one untimed call sizes the
/// pass, and the count is clamped to `iters`. In smoke mode everything
/// runs exactly once — CI validates the harness, not the numbers.
pub fn calibrate(
    smoke: bool,
    target_ns: u128,
    iters: RangeInclusive<u32>,
    mut f: impl FnMut(),
) -> u32 {
    if smoke {
        return 1;
    }
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1);
    ((target_ns / once) as u32).clamp(*iters.start(), *iters.end())
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n{}", "═".repeat(72));
    println!("{title}");
    println!("{}", "═".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_reports_ordered_quartiles() {
        let mut calls = 0u32;
        let t = time_ns(4, || calls += 1);
        // one warmup call, then seven passes of four
        assert_eq!(calls, 1 + 7 * 4);
        assert!(t.q1 <= t.median && t.median <= t.q3, "{t:?}");
        let half = t.per(2);
        assert_eq!(half.median, t.median / 2.0);
        assert_eq!(t.quartiles(), serde_json::json!([t.q1, t.q3]));
    }

    #[test]
    fn spread_picks_the_middle_and_quarter_values() {
        let s = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Spread::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 51);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn reports_are_writable() {
        write_report("selftest", &serde_json::json!({"ok": true}));
        let p = reports_dir().join("selftest.json");
        assert!(p.exists());
        let _ = std::fs::remove_file(p);
    }
}
