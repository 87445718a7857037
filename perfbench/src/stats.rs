//! Exact latency statistics.
//!
//! Every latency is kept as an integer nanosecond sample; percentiles are
//! nearest-rank order statistics over the full sample, never histogram
//! bucket edges. A tail percentile `q` is refused unless at least ten
//! samples lie beyond it, i.e. below `10 / (1 - q)` samples: 100 for a
//! p90, 1,000 for a p99.

/// A set of exact nanosecond samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn push_duration(&mut self, d: std::time::Duration) {
        self.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank quantile in nanoseconds: the smallest sample with at
    /// least `q * n` samples at or below it. `None` on an empty set.
    pub fn quantile_ns(&mut self, q: f64) -> Option<u64> {
        if self.ns.is_empty() {
            return None;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let n = self.ns.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.ns[rank - 1])
    }

    /// The median in µs.
    pub fn p50_us(&mut self) -> Result<f64, String> {
        self.quantile_ns(0.5)
            .map(|ns| ns as f64 / 1e3)
            .ok_or_else(|| "median of an empty sample".to_string())
    }

    /// Tail percentile `q` in µs, refused below [`min_samples`]`(q)`.
    pub fn tail_us(&mut self, q: f64) -> Result<f64, String> {
        let need = min_samples(q);
        if self.ns.len() < need {
            return Err(format!(
                "p{} needs at least {need} samples, got {}",
                q * 100.0,
                self.ns.len()
            ));
        }
        Ok(self.quantile_ns(q).expect("non-empty") as f64 / 1e3)
    }

    pub fn p99_us(&mut self) -> Result<f64, String> {
        self.tail_us(0.99)
    }

    /// Percentile `q` for the run record: `p<q> <µs> us over <n> samples`,
    /// or `p<q> n/a (<n> samples)` where [`Samples::p50_us`] or
    /// [`Samples::tail_us`] refuses it.
    pub fn describe(&mut self, q: f64) -> String {
        let label = format!("p{}", (q * 100.0).round());
        let n = self.len();
        let us = if q == 0.5 {
            self.p50_us()
        } else {
            self.tail_us(q)
        };
        match us {
            Ok(us) => format!("{label} {us:.1} us over {n} samples"),
            Err(_) => format!("{label} n/a ({n} samples)"),
        }
    }
}

/// Fewest samples that leave ten beyond percentile `q`.
pub fn min_samples(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// Steal share above the run's quietest cycle at which a cycle counts as
/// disturbed by the host.
pub const STEAL_MARGIN: f64 = 0.02;

/// Indices, in order, of the measurement cycles to keep given each
/// cycle's host CPU steal share: every cycle within [`STEAL_MARGIN`] of
/// the quietest one, and at least the `min_keep` quietest (ties keep the
/// earlier cycle). Selection looks at steal only, never at the figures.
pub fn quiet_cycles(steal: &[f64], min_keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    let floor = order.first().map_or(0.0, |&i| steal[i]);
    let mut keep: Vec<usize> = order
        .iter()
        .enumerate()
        .filter(|&(rank, &i)| rank < min_keep.max(1) || steal[i] <= floor + STEAL_MARGIN)
        .map(|(_, &i)| i)
        .collect();
    keep.sort_unstable();
    keep
}

/// Median of a non-empty list of measurements (mean of the middle two for
/// an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty list");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let mut s = samples((1..=1000).rev());
        assert_eq!(s.p50_us().unwrap(), 0.5);
        assert_eq!(s.tail_us(0.9).unwrap(), 0.9);
        assert_eq!(s.p99_us().unwrap(), 0.99);
        assert_eq!(s.quantile_ns(1.0), Some(1000));
        assert_eq!(s.quantile_ns(0.0), Some(1));
    }

    #[test]
    fn tails_are_refused_without_ten_samples_beyond_them() {
        assert_eq!(
            (min_samples(0.9), min_samples(0.95), min_samples(0.99)),
            (100, 200, 1000)
        );
        let mut s = samples(1..=999);
        let err = s.p99_us().unwrap_err();
        assert!(err.contains("1000"), "{err}");
        assert_eq!(s.tail_us(0.9).unwrap(), 0.9);
        assert_eq!(s.p50_us().unwrap(), 0.5);
        s.push(5000); // sample 1000
        assert_eq!(s.len(), 1000);
        assert_eq!(s.p99_us().unwrap(), 0.99);
        assert!(samples(1..=99).tail_us(0.9).is_err());
    }

    #[test]
    fn close_distributions_get_distinct_medians() {
        // Two runs whose medians differ by 3% must not read the same, as
        // they would in one power-of-two histogram bucket.
        let mut a = samples((0..2000).map(|i| 65_000 + i));
        let mut b = samples((0..2000).map(|i| 67_000 + i));
        assert_ne!(a.p50_us().unwrap(), b.p50_us().unwrap());
    }

    #[test]
    fn a_quiet_host_keeps_every_cycle() {
        assert_eq!(
            quiet_cycles(&[0.004, 0.01, 0.0, 0.015], 2),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn disturbed_cycles_are_dropped_by_steal_alone() {
        // Two cycles near the quietest survive; the floor of three keeps
        // the next-quietest as well.
        let steal = [0.05, 0.30, 0.01, 0.02, 0.25, 0.12];
        assert_eq!(quiet_cycles(&steal, 2), vec![2, 3]);
        assert_eq!(quiet_cycles(&steal, 3), vec![0, 2, 3]);
        // Uniformly heavy contention keeps the floor, ties to the earlier.
        assert_eq!(quiet_cycles(&[0.2, 0.2, 0.25], 1), vec![0, 1]);
        assert_eq!(quiet_cycles(&[0.1], 3), vec![0]);
    }

    #[test]
    fn empty_sample_has_no_median() {
        assert!(Samples::new().p50_us().is_err());
    }

    #[test]
    fn record_figures_short_of_samples_read_not_available() {
        let mut s = samples(1..=999);
        assert_eq!(s.describe(0.5), "p50 0.5 us over 999 samples");
        assert_eq!(s.describe(0.9), "p90 0.9 us over 999 samples");
        assert_eq!(s.describe(0.99), "p99 n/a (999 samples)");
        assert_eq!(Samples::new().describe(0.5), "p50 n/a (0 samples)");
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
