//! Medians, quartiles and spreads.

use vf2boost_core::json::JsonObj;

use crate::num;

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Every raw sample, in the order taken.
    pub samples: Vec<f64>,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `values`, as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values; with fewer, all three cut
/// points are the single value (or NaN).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(f64::NAN); 3];
    }
    [1usize, 2, 3].map(|i| {
        // Position i·(n+1)/4 on a 1-based axis, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

impl Summary {
    /// Summarizes `samples` (nothing is discarded).
    pub fn of(samples: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(samples);
        Summary {
            samples: samples.to_vec(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: median(samples),
            q3,
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    /// The fields of this summary, appended to a JSON object.
    pub fn write(&self, o: &mut JsonObj) {
        let samples: Vec<String> = self.samples.iter().map(|v| num(*v)).collect();
        o.raw("median", num(self.median))
            .raw("q1", num(self.q1))
            .raw("q3", num(self.q3))
            .raw("min", num(self.min))
            .raw("max", num(self.max))
            .u64("n", self.samples.len() as u64)
            .raw("samples", format!("[{}]", samples.join(", ")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn summary_keeps_every_sample_and_reports_spread() {
        let s = Summary::of(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!(s.samples.len(), 5);
        assert_eq!((s.min, s.median, s.max), (9.0, 11.0, 13.0));
        assert_eq!((s.q1, s.q3), (9.5, 12.5));
        assert!((s.spread() - 3.0 / 11.0).abs() < 1e-12);
    }
}
