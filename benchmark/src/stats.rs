//! Order statistics and ratios with their bases.

/// The median of `xs` (mean of the two middle values for an even
/// count); `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The first and third quartiles of `xs` by the "exclusive" method of
/// Python's `statistics.quantiles(xs, n=4)`, so figures quoted from a
/// run agree with what a reader recomputes from the raw values. One
/// value is its own quartiles; `None` for an empty slice.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// "median of n (q1 .., q3 ..)", the note printed next to a median.
pub fn spread_note(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs).unwrap_or((0.0, 0.0));
    format!("median of {} (q1 {q1:.6}, q3 {q3:.6})", xs.len())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A ratio that keeps its base: printed as `value (num / den)` so a
/// reader can check what it was taken over.
#[derive(Clone, Debug, PartialEq)]
pub struct Ratio {
    /// Name of the numerator counter.
    pub num_name: &'static str,
    /// Numerator.
    pub num: f64,
    /// Name of the denominator counter.
    pub den_name: &'static str,
    /// Denominator.
    pub den: f64,
}

impl Ratio {
    /// `num / den`, or 0 when the denominator is 0 (the layer did no
    /// such work on this workload).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// The base, as `num_name num / den_name den`.
    pub fn base(&self) -> String {
        format!(
            "{} {} / {} {}",
            self.num_name, self.num, self.den_name, self.den
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 9, 3], n=4) == [1.5, 4.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0]), Some((1.5, 8.0)));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        // (clamped index, extrapolated)
        assert_eq!(quartiles(&[4.0, 2.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[6.0]), Some((6.0, 6.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn ratio_keeps_its_base_and_guards_zero() {
        let r = Ratio {
            num_name: "l1.retries",
            num: 3.0,
            den_name: "l1.transient",
            den: 12.0,
        };
        assert_eq!(r.value(), 0.25);
        assert_eq!(r.base(), "l1.retries 3 / l1.transient 12");
        let none = Ratio { den: 0.0, ..r };
        assert_eq!(none.value(), 0.0);
    }
}
