//! Sample sets and the summary statistics the benchmark reports.

use std::time::Duration;

/// Samples of one quantity, in the unit the caller chose.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    /// The samples in the order they were pushed.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle samples for an even count);
    /// 0 for an empty set.
    pub fn p50(&self) -> f64 {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => v[n / 2],
            _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
        }
    }

    /// Nearest-rank percentile `q` (0 < q < 1); 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// Samples strictly beyond the nearest-rank percentile `q`.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.0.len();
        if n == 0 {
            return 0;
        }
        n - ((q * n as f64).ceil() as usize).clamp(1, n)
    }

    /// The highest of p99.9, p99 and p90 with at least ten samples
    /// beyond it, as `(label, value)`; `None` below 100 samples.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
            .into_iter()
            .find(|&(_, q)| self.beyond(q) >= 10)
            .map(|(label, q)| (label, self.quantile(q)))
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = Samples::default();
        for x in 1..=100 {
            s.push(x as f64);
        }
        assert_eq!(s.p50(), 50.5);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(s.tail(), Some(("p90", 90.0)));
        s.push(101.0);
        assert_eq!(s.p50(), 51.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for x in 0..99 {
            s.push(x as f64);
        }
        assert_eq!(s.tail(), None);
        for x in 99..1000 {
            s.push(x as f64);
        }
        assert_eq!(s.tail().unwrap().0, "p99");
    }
}
