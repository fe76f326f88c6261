//! Per-job metrics for the multi-tenant scheduler.
//!
//! The scheduler in `hbsp-sched` runs many jobs against one shared
//! machine; engine-level telemetry ([`crate::StepTrace`]) attributes
//! time to *processors and supersteps*, not tenants. [`JobMetrics`] adds
//! the job axis: the `hbsp_jobs_*` metric family (stable names, same
//! contract as the engine metrics in `docs/observability.md`). Where
//! each job ran and when is a [`crate::CausalKind::Job`] span of the
//! scheduler's causal tree, which [`crate::chrome_trace_with_causal`]
//! renders.

use crate::metrics::{CounterId, HistogramId, MetricSample, Registry};

/// The `hbsp_jobs_*` metric family. Names are a stable contract:
///
/// * `hbsp_jobs_submitted_total` — jobs accepted into the graph;
/// * `hbsp_jobs_completed_total` — jobs that ran to completion;
/// * `hbsp_jobs_failed_total` — jobs whose execution errored;
/// * `hbsp_jobs_batches_total` — admission rounds executed;
/// * `hbsp_jobs_virtual_time` — histogram of per-job batch durations.
#[derive(Debug)]
pub struct JobMetrics {
    registry: Registry,
    submitted: CounterId,
    completed: CounterId,
    failed: CounterId,
    batches: CounterId,
    virtual_time: HistogramId,
}

impl Default for JobMetrics {
    fn default() -> Self {
        JobMetrics::new()
    }
}

impl JobMetrics {
    /// Fresh metrics with all `hbsp_jobs_*` series registered.
    pub fn new() -> JobMetrics {
        let mut registry = Registry::new();
        let submitted = registry.counter("hbsp_jobs_submitted_total");
        let completed = registry.counter("hbsp_jobs_completed_total");
        let failed = registry.counter("hbsp_jobs_failed_total");
        let batches = registry.counter("hbsp_jobs_batches_total");
        let virtual_time = registry.histogram("hbsp_jobs_virtual_time");
        JobMetrics {
            registry,
            submitted,
            completed,
            failed,
            batches,
            virtual_time,
        }
    }

    /// Record `n` submissions.
    pub fn submitted(&mut self, n: u64) {
        self.registry.add(self.submitted, n);
    }

    /// Record one completed job and its batch-window duration.
    pub fn completed(&mut self, virtual_time: f64) {
        self.registry.add(self.completed, 1);
        self.registry.record(self.virtual_time, virtual_time);
    }

    /// Record one failed job.
    pub fn failed(&mut self) {
        self.registry.add(self.failed, 1);
    }

    /// Record one admission batch.
    pub fn batch(&mut self) {
        self.registry.add(self.batches, 1);
    }

    /// Snapshot every series in registration order.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        self.registry.snapshot()
    }

    /// Render as `name value` text lines (see [`crate::metrics::render_text`]).
    pub fn render_text(&self) -> String {
        crate::metrics::render_text(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValue;

    #[test]
    fn metric_names_are_the_contract() {
        let mut m = JobMetrics::new();
        m.submitted(3);
        m.completed(10.0);
        m.completed(20.0);
        m.failed();
        m.batch();
        let text = m.render_text();
        assert!(text.contains("hbsp_jobs_submitted_total 3\n"));
        assert!(text.contains("hbsp_jobs_completed_total 2\n"));
        assert!(text.contains("hbsp_jobs_failed_total 1\n"));
        assert!(text.contains("hbsp_jobs_batches_total 1\n"));
        assert!(text.contains("hbsp_jobs_virtual_time_count 2\n"));
        assert!(text.contains("hbsp_jobs_virtual_time_sum 30\n"));
    }

    #[test]
    fn snapshot_orders_series_stably() {
        let m = JobMetrics::new();
        let names: Vec<String> = m.snapshot().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "hbsp_jobs_submitted_total",
                "hbsp_jobs_completed_total",
                "hbsp_jobs_failed_total",
                "hbsp_jobs_batches_total",
                "hbsp_jobs_virtual_time",
            ]
        );
        assert!(matches!(
            m.snapshot()[4].value,
            MetricValue::Histogram { .. }
        ));
    }
}
