//! Order statistics for timings.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percent, value)`; `None` below eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 11 {
        return None;
    }
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, s[idx]))
}

/// A timing summary: sample count, extremes, median, quartiles and tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// First quartile: the order statistic at rank ⌊(n − 1)/4⌋.
    pub q1: f64,
    /// Third quartile: the order statistic at rank ⌈3(n − 1)/4⌉.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Highest percentile with ten samples beyond it, when there are
    /// enough samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        let last = s.len() - 1;
        Summary {
            n: s.len(),
            min: s[0],
            median: median(&s),
            q1: s[last / 4],
            q3: s[(3 * last).div_ceil(4)],
            max: s[last],
            tail: tail(&s),
        }
    }

    /// JSON object with every field.
    pub fn json(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("{{\"pct\": {p:.1}, \"value\": {v}}}"),
            None => "null".to_owned(),
        };
        format!(
            "{{\"n\": {}, \"min\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"max\": {}, \"tail\": {tail}}}",
            self.n, self.min, self.median, self.q1, self.q3, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, value) = tail(&v).expect("enough samples");
        assert_eq!(value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 75.0).abs() < 1e-9);
        assert_eq!(tail(&v[..10]), None);
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[2.0]);
        assert_eq!((s.n, s.min, s.median, s.q1, s.q3, s.max), (1, 2.0, 2.0, 2.0, 2.0, 2.0));
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
    }
}
