//! The metrics registry: named counters and histograms.
//!
//! Names are flat dotted strings (`msg.sent.Command`,
//! `repair.pass.goals`...), kept in `BTreeMap`s so snapshots list them in a
//! stable order.  The runtime reads no wall clock, so what it records here
//! repeats across seeded runs like the journal does; wall time is measured
//! from outside, by `benchmark/`.

use std::collections::BTreeMap;

/// Power-of-two-bucketed histogram of non-negative samples.
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i)` (bucket 0 counts samples
/// `< 1`); values at or beyond `2^30` land in the last bucket.  Fixed
/// storage, O(1) observe, enough resolution for latency and size
/// distributions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Log2 bucket counts (see type docs).
    pub buckets: [u64; 32],
}

impl Histogram {
    /// Record one sample (negative samples clamp to 0).
    pub fn observe(&mut self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = if v < 1.0 {
            0
        } else {
            ((v.log2().floor() as usize) + 1).min(self.buckets.len() - 1)
        };
        self.buckets[idx] += 1;
    }

    /// Mean of the observed samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Named counters and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Sample distributions.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Add `n` to the counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Record a sample into the histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, v: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::default();
            h.observe(v);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Drop every metric.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms() {
        let mut m = MetricsRegistry::default();
        m.inc("msg.sent.Command", 2);
        m.inc("msg.sent.Command", 3);
        for v in [1.0, 2.0, 4.0, 1000.0] {
            m.observe("repair.pass.goals", v);
        }
        assert_eq!(m.counter("msg.sent.Command"), 5);
        assert_eq!(m.counter("missing"), 0);
        let h = &m.histograms["repair.pass.goals"];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 1000.0);
        assert_eq!(h.mean(), Some(1007.0 / 4.0));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        h.observe(0.0); // bucket 0
        h.observe(0.5); // bucket 0
        h.observe(1.0); // [1,2) -> bucket 1
        h.observe(3.0); // [2,4) -> bucket 2
        h.observe(1024.0); // [1024,2048) -> bucket 11
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(h.count, 5);
    }
}
