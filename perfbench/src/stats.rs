//! Sample statistics and process-memory readings.

/// Nearest-rank percentile of an unsorted sample: the smallest value
/// with at least `q` of the sample at or below it. `q` is a fraction in
/// `[0, 1]`; an empty sample reads 0.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// This process's peak resident set, in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vmhwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_picks_sample_values() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // five samples: p50 is the third, p99 the fifth (no interpolation)
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&five, 0.5), 3.0);
        assert_eq!(percentile(&five, 0.99), 5.0);
        assert_eq!(percentile(&five, 0.2), 1.0);
        assert_eq!(percentile(&five, 0.21), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn ratio_handles_a_zero_denominator() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn vmhwm_is_read_from_the_status_text() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(20480));
        assert_eq!(parse_vmhwm_kib("VmRSS: 5 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\tlots kB\n"), None);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
