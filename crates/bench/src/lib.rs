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

/// Nanoseconds per call: best of three timed passes after a warmup, so
/// scheduler noise on a shared host inflates neither side of a ratio.
pub fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(4) {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
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
    fn reports_are_writable() {
        write_report("selftest", &serde_json::json!({"ok": true}));
        let p = reports_dir().join("selftest.json");
        assert!(p.exists());
        let _ = std::fs::remove_file(p);
    }
}
