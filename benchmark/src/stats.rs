//! Medians, quartiles and the tail-percentile picker.

use crate::json::Json;

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let (q1, median, q3) = quartiles(samples)?;
        Some(Summary {
            median,
            q1,
            q3,
            n: samples.len(),
        })
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::obj([
            ("unit", Json::str(unit)),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ])
    }

    pub fn from_json(value: &Json) -> Option<Summary> {
        Some(Summary {
            median: value.get("median")?.as_f64()?,
            q1: value.get("q1")?.as_f64()?,
            q3: value.get("q3")?.as_f64()?,
            n: value.get("n")?.as_f64()? as usize,
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them, because that is what the
/// acceptance rule for this benchmark is written in. One sample is its own
/// quartiles.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => return None,
        1 => return Some((v[0], v[0], v[0])),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quartiles(samples).map(|(_, m, _)| m)
}

/// Nearest-rank percentile: the smallest sample with at least `pct` percent
/// of the samples at or below it.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let rank = (pct * v.len()).div_ceil(100);
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it — the most a sample of `n` can support. 200 samples
/// support p95 (ten beyond), 199 only p90.
pub fn highest_supported_percentile(n: usize) -> Option<usize> {
    [99, 95, 90, 75, 50]
        .into_iter()
        .find(|pct| n >= (pct * n).div_ceil(100) + 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn percentile_picker_honours_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(19), None);
        // And p95 of 200 really leaves ten samples above the one it returns.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&v, 95).unwrap();
        assert_eq!(v.iter().filter(|x| **x > p95).count(), 10);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = Summary::of(&[9.0, 10.0, 11.0]).unwrap();
        assert_eq!(s.median, 10.0);
        assert!((s.spread() - 0.2).abs() < 1e-12);
        assert_eq!(Summary::from_json(&s.to_json("ms")), Some(s));
    }
}
