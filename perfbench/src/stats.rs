//! Order statistics and the naming rules every reported metric obeys.

/// Fewest samples that must lie beyond a reported percentile; a
/// percentile with fewer is not reported.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of host time per scenario that is reported.
pub const TAIL_PERCENTILE: f64 = 0.90;

/// Samples a run needs before percentile `p` has [`TAIL_SAMPLES`]
/// samples beyond it (100 for p90).
pub fn samples_needed(p: f64) -> usize {
    (TAIL_SAMPLES as f64 / (1.0 - p)).round() as usize
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a share `p` of all samples at or below it.
/// `None` when fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle two for an even
/// count); `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(samples_needed(TAIL_PERCENTILE), 100);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(percentile(&ramp(99), 0.9), None, "9 samples beyond");
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0), "10 samples beyond");
        assert_eq!(percentile(&ramp(1000), 0.9), Some(900.0));
    }

    #[test]
    fn nearest_rank_median() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(101), 0.5), Some(51.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["runs_per_s", "engine.events.vcpu_stop", "9lives", "a-b.c_d"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".dot",
            "_x",
            "has space",
            "slash/name",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "count", "%", "fraction"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
