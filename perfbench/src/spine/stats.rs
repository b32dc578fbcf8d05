//! Order statistics and the run-to-run comparison rule.

/// Median of a sample (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller measures at least one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie beyond a percentile before it is reported: below
/// that the tail value is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank), or an error naming the sample
/// count when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    assert!((0.0..100.0).contains(&p), "percentile out of range");
    let n = values.len();
    let beyond = (n as f64 * (100.0 - p) / 100.0).floor() as usize;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} refused: {n} samples leave {beyond} beyond it, need {MIN_BEYOND}"
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n);
    Ok(v[rank - 1])
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (exclusive method) — the driver's spread rule uses exactly these.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Verdict of comparing one metric between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound: the comparison
    /// cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares the medians of `a` (baseline) and `b`. `worse` is the relative
/// change in the bad direction (positive = `b` is worse).
pub fn compare(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse = if lower_is_better { change } else { -change };
    let wide = |v: &[f64]| v.len() >= 2 && spread(v) > bound;
    let verdict = if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        let err = percentile(&v, 95.0).unwrap_err();
        assert!(err.contains("199 samples"), "{err}");
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0).unwrap(), 190.0);
        assert_eq!(percentile(&v, 50.0).unwrap(), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compare_marks_the_three_outcomes() {
        let base = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(compare(&base, &[104.0, 105.0, 104.0, 105.0], true, 0.1).1, Verdict::Ok);
        assert_eq!(compare(&base, &[120.0, 121.0, 120.0, 119.0], true, 0.1).1, Verdict::Regressed);
        // Higher-is-better: a drop is the bad direction.
        assert_eq!(compare(&base, &[80.0, 80.0, 81.0, 80.0], false, 0.1).1, Verdict::Regressed);
        assert_eq!(compare(&base, &[60.0, 100.0, 140.0, 180.0], true, 0.1).1, Verdict::Unresolved);
    }
}
