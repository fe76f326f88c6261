//! Metrics: counters and histograms of a count and a sum.
//!
//! A [`Registry`] is plain data recorded through `&mut`; its owner
//! supplies the lock (a [`crate::Recorder`] keeps it in the store it
//! takes once per superstep). Metric *names* are a stable contract,
//! documented in `docs/observability.md`; renaming one is a breaking
//! change.

use std::sync::atomic::{AtomicU64, Ordering};

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

/// Registry of named counters and histograms. Handles are plain
/// indices, so recording is one array index and one add.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, u64, f64)>,
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy)]
pub struct CounterId(usize);
/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy)]
pub struct HistogramId(usize);

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a counter (construction time only).
    pub fn counter(&mut self, name: impl Into<String>) -> CounterId {
        self.counters.push((name.into(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Register a histogram (construction time only).
    pub fn histogram(&mut self, name: impl Into<String>) -> HistogramId {
        self.histograms.push((name.into(), 0, 0.0));
        HistogramId(self.histograms.len() - 1)
    }

    /// Add `n` to a counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Record one observation in a histogram. Negative and NaN values
    /// are ignored.
    pub fn record(&mut self, id: HistogramId, v: f64) {
        if v.is_nan() || v < 0.0 {
            return;
        }
        let (_, count, sum) = &mut self.histograms[id.0];
        *count += 1;
        *sum += v;
    }

    /// Snapshot every metric in registration order.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let counters = self.counters.iter().map(|(name, v)| MetricSample {
            name: name.clone(),
            value: MetricValue::Counter(*v),
        });
        let histograms = self
            .histograms
            .iter()
            .map(|(name, count, sum)| MetricSample {
                name: name.clone(),
                value: MetricValue::Histogram {
                    count: *count,
                    sum: *sum,
                },
            });
        counters.chain(histograms).collect()
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
        r.add(c, 3);
        r.add(c, 1);
        assert_eq!(r.snapshot()[0].value, MetricValue::Counter(4));
    }

    #[test]
    fn histogram_buckets_counts_and_sum() {
        let mut r = Registry::new();
        let h = r.histogram("b");
        for v in [0.25, 1.0, 1.5, 3.0, 1000.0] {
            r.record(h, v);
        }
        r.record(h, -1.0); // ignored
        r.record(h, f64::NAN); // ignored
        let MetricValue::Histogram { count, sum } = r.snapshot()[0].value else {
            panic!("a histogram snapshots as one");
        };
        assert_eq!(count, 5);
        assert!((sum - 1005.75).abs() < 1e-9);
        assert!((sum / count as f64 - 201.15).abs() < 1e-9);
    }

    #[test]
    fn render_text_is_line_per_metric() {
        let mut r = Registry::new();
        let c = r.counter("a_total");
        let h = r.histogram("b");
        r.add(c, 7);
        r.record(h, 2.0);
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
