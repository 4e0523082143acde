//! Sample summaries: a timing is reported as its median together with the
//! highest percentile that still has at least ten samples beyond it.

/// Summary of one timing series.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub samples: usize,
    pub median: f64,
    /// `(percentile, value)`: the highest percentile with at least ten
    /// samples beyond it; `None` below twenty samples, where that percentile
    /// would lie under the median.
    pub tail: Option<(f64, f64)>,
    pub max: f64,
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Summarises a timing series.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let tail = (n >= 20).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]));
    Summary {
        samples: n,
        median: median(&v),
        tail,
        max: *v.last().expect("non-empty sample"),
    }
}

impl Summary {
    /// `median 1.234 ms  p99.0 2.345 ms  (n=1000)`
    pub fn render(&self, unit: &str) -> String {
        match self.tail {
            Some((p, value)) => format!(
                "median {:.4} {unit}  p{p:.1} {value:.4} {unit}  (n={})",
                self.median, self.samples
            ),
            None => format!(
                "median {:.4} {unit}  max {:.4} {unit}  (n={}, too few for a percentile)",
                self.median, self.max, self.samples
            ),
        }
    }
}
