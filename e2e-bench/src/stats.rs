//! Order statistics over pass samples, and the regression verdict.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so the spreads this benchmark
//! prints are the spreads an outside script computes from the same
//! samples.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (p25, p75) = quartiles(&v);
        Some(Summary {
            median: median_sorted(&v),
            p25,
            p75,
            n: v.len(),
        })
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// Median of an ascending slice (mean of the middle two when even).
fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile of an ascending, non-empty slice, by the
/// exclusive method (`m = n + 1`, index clamped to `1..=n-1`).
fn quartiles(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Outcome of comparing a metric between a base and a candidate run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// The run-to-run spread is wider than the bound and the two
    /// quartile ranges overlap: the samples cannot tell the sides apart.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies `bound` (a share of the base median) to two summaries.
pub fn verdict(base: &Summary, cand: &Summary, bound: f64, better: Better) -> Verdict {
    let overlap = base.p25 <= cand.p75 && cand.p25 <= base.p75;
    if (base.spread() > bound || cand.spread() > bound) && overlap {
        return Verdict::Unresolved;
    }
    let change = (cand.median - base.median) / base.median.abs();
    let gain = match better {
        Better::Lower => -change,
        Better::Higher => change,
    };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
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
    fn matches_python_exclusive_quartiles() {
        // Reference values from Python 3.11 `statistics.median` and
        // `statistics.quantiles(sorted(v), n=4)`.
        let cases: [(&[f64], f64, f64, f64); 4] = [
            (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], 5.5, 2.75, 8.25),
            (&[3., 1., 2.], 2.0, 1.0, 3.0),
            (&[5., 1.], 3.0, 0.0, 6.0),
            (&[2., 4., 4., 5., 7., 9.], 4.5, 3.5, 7.5),
        ];
        for (v, median, p25, p75) in cases {
            let s = Summary::of(v).expect("non-empty");
            assert!(close(s.median, median), "{v:?}: median {}", s.median);
            assert!(close(s.p25, p25), "{v:?}: p25 {}", s.p25);
            assert!(close(s.p75, p75), "{v:?}: p75 {}", s.p75);
            assert_eq!(s.n, v.len());
        }
    }

    #[test]
    fn single_sample_and_empty() {
        let s = Summary::of(&[4.0]).expect("one sample");
        assert_eq!((s.median, s.p25, s.p75, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            p25: median * 0.99,
            p75: median * 1.01,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_direction() {
        let base = tight(1.0);
        assert_eq!(
            verdict(&base, &tight(1.05), 0.1, Better::Lower),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &tight(1.2), 0.1, Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &tight(0.8), 0.1, Better::Lower),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &tight(1.2), 0.1, Better::Higher),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &tight(0.8), 0.1, Better::Higher),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_overlapping_spread_is_unresolved() {
        let base = Summary {
            median: 1.0,
            p25: 0.8,
            p75: 1.3,
            n: 10,
        };
        // Medians 20 % apart, but base's quartiles span 50 % and the
        // ranges overlap: the samples cannot support a verdict.
        let cand = tight(1.2);
        assert_eq!(
            verdict(&base, &cand, 0.1, Better::Lower),
            Verdict::Unresolved
        );
        // Disjoint ranges resolve even when one side is wide.
        let far = tight(1.6);
        assert_eq!(verdict(&base, &far, 0.1, Better::Lower), Verdict::Worse);
    }
}
