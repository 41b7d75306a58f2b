//! Integer-valued empirical distributions.
//!
//! The paper reports its headline results (Tables 1–3) as *distributions of
//! the maximum load* over trials: e.g. for `n = 2^12`, `d = 2`, "4 : 88.1%,
//! 5 : 11.8%, 6 : 0.1%". [`Counter`] collects such distributions; the
//! `geo2c-report` markdown renderer prints them in that form in
//! `EXPERIMENTS.md`.
//!
//! [`Histogram`] is the hot-path sibling: a dense `Vec<u64>` of counts
//! indexed by value, for order statistics (max, percentiles, mean) over
//! value ranges the two-choices bound keeps tiny — one counting pass, no
//! sort, no per-sample allocation.

use std::collections::BTreeMap;

/// A frequency counter over `u64` values, kept in sorted order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Counter {
    /// Creates an empty counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn add(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Records `k` observations of `value`.
    pub fn add_n(&mut self, value: u64, k: u64) {
        if k > 0 {
            *self.counts.entry(value).or_insert(0) += k;
            self.total += k;
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &Counter) {
        for (&v, &c) in &other.counts {
            self.add_n(v, c);
        }
    }

    /// Total number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of observations of exactly `value`.
    #[must_use]
    pub fn count(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Fraction of observations equal to `value` (0 if the counter is empty).
    #[must_use]
    pub fn fraction(&self, value: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }

    /// Smallest observed value, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest observed value, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Most frequent value (smallest such value on ties), if any.
    #[must_use]
    pub fn mode(&self) -> Option<u64> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&v, _)| v)
    }

    /// Mean of the observations (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self.counts.iter().map(|(&v, &c)| v as f64 * c as f64).sum();
        sum / self.total as f64
    }

    /// Iterates over `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }
}

/// A dense frequency histogram over small `u32` values.
///
/// Buckets are a flat `Vec<u64>` indexed by value, so recording is one
/// increment and every order statistic is a single forward scan of the
/// counts. Made for distributions whose support is tiny relative to the
/// sample count — live server loads under the power-of-d bound, where a
/// full sort per sample point is pure waste. Memory is
/// O(largest recorded value); do not feed it sentinel-sized values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[v]` observations of value `v`.
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`, growing the bucket array if
    /// the value exceeds the pre-sized range.
    pub fn record(&mut self, value: u32) {
        let v = value as usize;
        if v >= self.buckets.len() {
            self.buckets.resize(v + 1, 0);
        }
        self.buckets[v] += 1;
        self.total += 1;
    }

    /// Total number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of observations of exactly `value`.
    #[must_use]
    pub fn count(&self, value: u32) -> u64 {
        self.buckets.get(value as usize).copied().unwrap_or(0)
    }

    /// Largest recorded value (`0` if empty).
    #[must_use]
    pub fn max(&self) -> u32 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |v| v as u32)
    }

    /// Sum of all observations. Exact while below `u64` range — with
    /// integer observations this makes `sum() / total()` bit-identical
    /// to the mean of the sorted sample (both are the same integer sum).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum()
    }

    /// Mean of the observations (`0` if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum() as f64 / self.total as f64
        }
    }

    /// The value that would sit at `index` in the sorted sample — the
    /// percentile primitive: the smallest value whose cumulative count
    /// exceeds `index`.
    ///
    /// # Panics
    /// Panics if `index >= total()`.
    #[must_use]
    pub fn value_at_sorted_index(&self, index: u64) -> u32 {
        assert!(index < self.total, "sorted index out of range");
        let mut seen = 0u64;
        for (v, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > index {
                return v as u32;
            }
        }
        unreachable!("cumulative counts sum to total");
    }
}

impl FromIterator<u32> for Histogram {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl FromIterator<u64> for Counter {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut c = Counter::new();
        for v in iter {
            c.add(v);
        }
        c
    }
}

impl Extend<u64> for Counter {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for v in iter {
            self.add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_fractions() {
        let c: Counter = [4u64, 4, 4, 5, 5, 6].into_iter().collect();
        assert_eq!(c.total(), 6);
        assert_eq!(c.count(4), 3);
        assert_eq!(c.count(7), 0);
        assert!((c.fraction(4) - 0.5).abs() < 1e-12);
        assert_eq!(c.min(), Some(4));
        assert_eq!(c.max(), Some(6));
        assert_eq!(c.mode(), Some(4));
        assert!((c.mean() - 28.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counter() {
        let c = Counter::new();
        assert_eq!(c.total(), 0);
        assert_eq!(c.min(), None);
        assert_eq!(c.max(), None);
        assert_eq!(c.mode(), None);
        assert_eq!(c.mean(), 0.0);
        assert_eq!(c.fraction(3), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a: Counter = [1u64, 2].into_iter().collect();
        let b: Counter = [2u64, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(3), 1);
    }

    #[test]
    fn mode_prefers_smaller_on_tie() {
        let c: Counter = [7u64, 7, 9, 9].into_iter().collect();
        assert_eq!(c.mode(), Some(7));
    }

    #[test]
    fn add_n_zero_is_noop() {
        let mut c = Counter::new();
        c.add_n(5, 0);
        assert_eq!(c.total(), 0);
        assert_eq!(c.count(5), 0);
    }

    #[test]
    fn histogram_order_statistics_match_the_sorted_sample() {
        let sample = [4u32, 0, 7, 4, 4, 2, 7, 1, 0, 3];
        let hist: Histogram = sample.iter().copied().collect();
        let mut sorted = sample.to_vec();
        sorted.sort_unstable();
        assert_eq!(hist.total(), sample.len() as u64);
        assert_eq!(hist.max(), *sorted.last().unwrap());
        assert_eq!(hist.count(4), 3);
        assert_eq!(hist.count(99), 0);
        for (i, &v) in sorted.iter().enumerate() {
            assert_eq!(hist.value_at_sorted_index(i as u64), v);
        }
        let sum: u64 = sample.iter().map(|&v| u64::from(v)).sum();
        assert_eq!(hist.sum(), sum);
        assert!((hist.mean() - sum as f64 / 10.0).abs() < 1e-15);
    }

    #[test]
    fn histogram_grows_past_its_presized_range() {
        let mut hist = Histogram::new();
        hist.record(2);
        // Past the range sized by the first record.
        hist.record(9);
        assert_eq!(hist.max(), 9);
        assert_eq!(hist.total(), 2);
        assert_eq!(hist.value_at_sorted_index(1), 9);
    }

    #[test]
    fn empty_histogram() {
        let hist = Histogram::new();
        assert!(hist.is_empty());
        assert_eq!(hist.max(), 0);
        assert_eq!(hist.sum(), 0);
        assert_eq!(hist.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted index out of range")]
    fn histogram_sorted_index_bounds_are_checked() {
        let hist: Histogram = [1u32].iter().copied().collect();
        let _ = hist.value_at_sorted_index(1);
    }
}
