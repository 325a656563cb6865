//! Order statistics with the conventions the report states: quartiles
//! are Python's `statistics.quantiles(xs, n=4)` (exclusive method), and
//! a percentile is only defined when at least ten samples lie beyond it.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    /// `(q1, q3)`; `None` below three samples, where the exclusive
    /// method would extrapolate beyond the data.
    pub quartiles: Option<(f64, f64)>,
    pub n: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `None` for an empty sample.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let quartiles = (n >= 3).then(|| (exclusive_quantile(&v, 1), exclusive_quantile(&v, 3)));
    Some(Summary {
        median,
        quartiles,
        n,
    })
}

/// Python's exclusive-method cut point `i` of 4 over sorted data.
fn exclusive_quantile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Nearest-rank percentile `p` (0..1), defined only when at least ten
/// samples lie strictly beyond its rank.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let rank = (p * v.len() as f64).ceil() as usize;
    (rank >= 1 && v.len() - rank >= 10).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!(s.quartiles, Some((2.75, 8.25)));
        assert_eq!(s.median, 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(
            summarize(&[1.0, 2.0, 3.0]).unwrap().quartiles,
            Some((1.0, 3.0))
        );
        assert_eq!(summarize(&[1.0, 2.0]).unwrap().quartiles, None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
    }
}
