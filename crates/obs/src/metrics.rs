//! Lock-free metrics: counters and log₂ histograms.
//!
//! Every cell is a single atomic, so recording from the threaded
//! engine's leader section (or from `lock_anyway`'s poison-recovery
//! path) never takes a lock. Metric *names* are a stable contract,
//! documented in `docs/observability.md`; renaming one is a breaking
//! change.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`, bucket 0 holds values `< 1`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Lock-free histogram over non-negative values with log₂ buckets, plus
/// an exact count and sum (sum accumulated via a CAS loop on f64 bits).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Histogram {
    fn bucket_of(v: f64) -> usize {
        if v < 1.0 {
            return 0;
        }
        let n = v as u64; // v >= 1, truncation keeps the exponent
        (64 - n.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Record one observation. Negative and NaN values are ignored.
    pub fn record(&self, v: f64) {
        if v.is_nan() || v < 0.0 {
            return;
        }
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of recorded observations (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: the geometric midpoint of the
    /// bucket holding the `⌈q·n⌉`-th observation.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                if i == 0 {
                    return 0.5;
                }
                let lo = (1u64 << (i - 1)) as f64;
                return lo * std::f64::consts::SQRT_2;
            }
        }
        f64::INFINITY
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| ((1u64.checked_shl(i as u32).unwrap_or(u64::MAX)) as f64, c))
            })
            .collect()
    }
}

/// A snapshot of one metric for export.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Histogram summary.
    Histogram {
        /// Observation count.
        count: u64,
        /// Observation sum.
        sum: f64,
    },
}

/// A named metric snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Stable metric name (may carry a `{label="v"}` suffix).
    pub name: String,
    /// Snapshot value.
    pub value: MetricValue,
}

/// Immutable-after-construction registry. Handles are plain indices, so
/// recording is one array index + one atomic op.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(String, Counter)>,
    histograms: Vec<(String, Histogram)>,
}

/// Handle to a registered [`Counter`].
#[derive(Debug, Clone, Copy)]
pub struct CounterId(usize);
/// Handle to a registered [`Histogram`].
#[derive(Debug, Clone, Copy)]
pub struct HistogramId(usize);

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a counter (construction time only).
    pub fn counter(&mut self, name: impl Into<String>) -> CounterId {
        self.counters.push((name.into(), Counter::default()));
        CounterId(self.counters.len() - 1)
    }

    /// Register a histogram (construction time only).
    pub fn histogram(&mut self, name: impl Into<String>) -> HistogramId {
        self.histograms.push((name.into(), Histogram::default()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Access a registered counter.
    pub fn c(&self, id: CounterId) -> &Counter {
        &self.counters[id.0].1
    }

    /// Access a registered histogram.
    pub fn h(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0].1
    }

    /// Snapshot every metric in registration order.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let mut out = Vec::new();
        for (name, c) in &self.counters {
            out.push(MetricSample {
                name: name.clone(),
                value: MetricValue::Counter(c.get()),
            });
        }
        for (name, h) in &self.histograms {
            out.push(MetricSample {
                name: name.clone(),
                value: MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                },
            });
        }
        out
    }
}

/// Render samples as `name value` lines (histograms expand to
/// `_count` / `_sum` / `_mean`), in the order given.
pub fn render_text(samples: &[MetricSample]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for s in samples {
        match s.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{} {}", s.name, v);
            }
            MetricValue::Histogram { count, sum } => {
                let _ = writeln!(out, "{}_count {}", s.name, count);
                let _ = writeln!(out, "{}_sum {}", s.name, sum);
                let mean = if count == 0 { 0.0 } else { sum / count as f64 };
                let _ = writeln!(out, "{}_mean {}", s.name, mean);
            }
        }
    }
    out
}

/// Process-wide count of mutex-poison recoveries (every time
/// `lock_anyway` in `hbsp-runtime` continues past a poisoned lock).
/// Global because poisoning happens on arbitrary worker threads with no
/// run-scoped registry in reach.
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Record one poison recovery. Called by `hbsp-runtime::lock_anyway`.
pub fn record_poison_recovery() {
    POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
}

/// Total poison recoveries in this process so far. Probes snapshot the
/// value at construction and report the delta
/// (`hbsp_poisoned_lock_recoveries_total`).
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let mut r = Registry::new();
        let c = r.counter("hbsp_steps_total");
        r.c(c).add(3);
        r.c(c).inc();
        assert_eq!(r.c(c).get(), 4);
        assert_eq!(r.snapshot()[0].value, MetricValue::Counter(4));
    }

    #[test]
    fn histogram_buckets_counts_and_sum() {
        let h = Histogram::default();
        for v in [0.25, 1.0, 1.5, 3.0, 1000.0] {
            h.record(v);
        }
        h.record(-1.0); // ignored
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 1005.75).abs() < 1e-9);
        assert!((h.mean() - 201.15).abs() < 1e-9);
        // 0.25 → bucket 0; 1.0, 1.5 → [1,2); 3.0 → [2,4); 1000 → [512,1024)
        let nz = h.nonzero_buckets();
        assert_eq!(nz.len(), 4);
        assert_eq!(nz[0], (1.0, 1));
        assert_eq!(nz[1], (2.0, 2));
        assert_eq!(nz[2], (4.0, 1));
        assert_eq!(nz[3], (1024.0, 1));
    }

    #[test]
    fn histogram_quantile_walks_buckets() {
        let h = Histogram::default();
        for _ in 0..9 {
            h.record(1.0); // bucket [1,2)
        }
        h.record(100.0); // bucket [64,128)
        let median = h.quantile(0.5);
        assert!((1.0..2.0).contains(&median), "median {median}");
        let p99 = h.quantile(0.99);
        assert!((64.0..128.0).contains(&p99), "p99 {p99}");
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn render_text_is_line_per_metric() {
        let mut r = Registry::new();
        let c = r.counter("a_total");
        let h = r.histogram("b");
        r.c(c).add(7);
        r.h(h).record(2.0);
        let text = render_text(&r.snapshot());
        assert!(text.contains("a_total 7\n"));
        assert!(text.contains("b_count 1\n"));
        assert!(text.contains("b_sum 2\n"));
    }

    #[test]
    fn poison_counter_is_monotone() {
        let before = poison_recoveries();
        record_poison_recovery();
        assert!(poison_recoveries() > before);
    }
}
