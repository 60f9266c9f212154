//! Order statistics, the metric-name rule, and the regression verdict.
//!
//! Everything here is pure so the unit tests can pin the exact rules
//! the benchmark reports by.

/// Median, as Python's `statistics.median`: the mean of the two middle
/// values for an even count. `NaN` for no samples.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) gives them, including its extrapolation past the extreme
/// samples of small sets; one sample is its own quartiles (Python
/// refuses it).
/// `None` for no samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => return None,
        1 => return Some([s[0]; 3]),
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: the clamp can put `j * 4` above `i * m`.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread rule the
/// benchmark's bounds are judged against. 0 for fewer than two
/// samples.
pub fn relative_iqr(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) if values.len() > 1 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// The tail rule: the highest percentile with at least ten samples
/// beyond it, `100·(1 − 10/n)` by nearest rank — the 11th-largest
/// sample. Below eleven samples no percentile has ten beyond it, so
/// the tail is the maximum (reported as percentile 100). Returns
/// `(percentile, value)`; `None` for no samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        1..=10 => Some((100.0, s[n - 1])),
        _ => Some((100.0 * (1.0 - 10.0 / n as f64), s[n - 11])),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Whether `name` is a legal metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit. The metric
/// tables are static, so their tests are where this rule is enforced.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The outcome of comparing one metric across two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improved on A by more than the bound.
    Better,
    /// The medians differ by no more than the bound.
    Same,
    /// B regressed from A by more than the bound.
    Worse,
    /// A side's own spread exceeds the bound, so no call can be made.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for the comparison table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's median
/// (negative when B is better).
pub fn regression(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    }
}

/// Judges samples `b` against `a`: unresolved if either side's
/// relative interquartile range exceeds `bound`, otherwise worse or
/// better when the medians differ by more than `bound`, else same.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() || relative_iqr(a) > bound || relative_iqr(b) > bound {
        return Verdict::Unresolved;
    }
    let r = regression(a, b, better);
    if r > bound {
        Verdict::Worse
    } else if r < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Reference values from Python 3.11's
    /// `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 4.0, 2.0, 1.0]), Some([1.25, 3.0, 7.0]));
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(relative_iqr(&ten), (8.25 - 2.75) / 5.5));
        assert_eq!(relative_iqr(&[4.0]), 0.0, "one sample has no spread");
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_is_the_max_below_eleven_samples() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[1.0]), Some((100.0, 1.0)));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), Some((100.0, 10.0)));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_it() {
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let (p, v) = tail(&eleven).unwrap();
        assert_eq!(v, 1.0, "11 samples: the minimum has ten beyond it");
        assert!(close(p, 100.0 / 11.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let n = 225;
        let many: Vec<f64> = (1..=n).map(f64::from).collect();
        let (p, v) = tail(&many).unwrap();
        assert_eq!(many.iter().filter(|&&x| x > v).count(), 10);
        assert!(close(p, 100.0 * (1.0 - 10.0 / 225.0)));
    }

    #[test]
    fn names_follow_the_metric_name_rule() {
        for ok in [
            "wall_s",
            "sim.stage.event_drain_ns_per_cycle",
            "fig3_grid",
            "0x",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn verdict_respects_direction_and_bound() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let nudged: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &faster, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(&base, &nudged, Better::Lower, 0.1), Verdict::Same);
        // Throughput: bigger numbers are the improvement.
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(verdict(&base, &faster, Better::Higher, 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &base, Better::Higher, 0.05), Verdict::Same);
    }

    #[test]
    fn verdict_is_unresolved_when_a_side_is_noisier_than_the_bound() {
        let steady = [10.0, 10.0, 10.0, 10.0];
        let noisy = [5.0, 10.0, 15.0, 20.0];
        assert!(relative_iqr(&noisy) > 0.1);
        assert_eq!(
            verdict(&steady, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &steady, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[], &steady, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
