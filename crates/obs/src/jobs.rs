//! Per-job telemetry for the multi-tenant scheduler.
//!
//! The scheduler in `hbsp-sched` runs many jobs against one shared
//! machine; engine-level telemetry ([`crate::StepTrace`]) attributes
//! time to *processors and supersteps*, not tenants. This module adds
//! the job axis:
//!
//! * [`JobSpan`] — one job's occupancy of its carved sub-tree over a
//!   virtual-time interval, tagged with the admission batch and the
//!   claimed leaf ranks;
//! * [`JobMetrics`] — the `hbsp_jobs_*` metric family (stable names,
//!   same contract as the engine metrics in `docs/observability.md`);
//! * [`jobs_chrome_trace`] — a Chrome trace-event document with one
//!   track per job, so a scheduler run renders as a Gantt chart of
//!   tenants next to the engines' per-processor timelines.

use crate::json::{escape, num};
use crate::metrics::{CounterId, HistogramId, MetricSample, Registry};

/// Synthetic Chrome-trace pid for the job timeline (the engine
/// exporters use pids 1 and 2; see [`crate::export`]).
pub const PID_JOBS: u64 = 3;

/// One job's occupancy of the shared machine in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpan {
    /// Job id (dense, assigned at submission).
    pub job: usize,
    /// Human-readable job name for track labels.
    pub name: String,
    /// Admission batch this job ran in (0-based).
    pub batch: usize,
    /// Virtual time the job's batch started.
    pub start: f64,
    /// Virtual time the job's batch finished.
    pub end: f64,
    /// Global leaf ranks of the claimed sub-tree.
    pub leaves: Vec<u32>,
}

impl JobSpan {
    /// Span length in virtual time units.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

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
    pub fn submitted(&self, n: u64) {
        self.registry.c(self.submitted).add(n);
    }

    /// Record one completed job and its batch-window duration.
    pub fn completed(&self, virtual_time: f64) {
        self.registry.c(self.completed).inc();
        self.registry.h(self.virtual_time).record(virtual_time);
    }

    /// Record one failed job.
    pub fn failed(&self) {
        self.registry.c(self.failed).inc();
    }

    /// Record one admission batch.
    pub fn batch(&self) {
        self.registry.c(self.batches).inc();
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

/// Render job spans as a Chrome trace-event JSON document: one process
/// (pid [`PID_JOBS`]), one thread per job, complete (`X`) events whose
/// args carry the batch index and claimed leaves. Validates under
/// [`crate::validate_chrome_trace`] and can be concatenated into a
/// combined Perfetto view with the engine trace (disjoint pids).
pub fn jobs_chrome_trace(spans: &[JobSpan]) -> String {
    let mut ordered: Vec<&JobSpan> = spans.iter().collect();
    ordered.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.job.cmp(&b.job)));

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, json: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&json);
    };
    push(
        &mut out,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID_JOBS},\"tid\":0,\
             \"args\":{{\"name\":\"jobs (virtual time as \\u00b5s)\"}}}}"
        ),
    );
    for s in spans {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID_JOBS},\"tid\":{},\
                 \"args\":{{\"name\":\"job {} {}\"}}}}",
                s.job,
                s.job,
                escape(&s.name)
            ),
        );
    }
    for s in &ordered {
        let leaves: Vec<String> = s.leaves.iter().map(|l| l.to_string()).collect();
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"job\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{PID_JOBS},\"tid\":{},\"args\":{{\"batch\":{},\"leaves\":[{}]}}}}",
                escape(&s.name),
                num(s.start),
                num(s.duration().max(0.0)),
                s.job,
                s.batch,
                leaves.join(",")
            ),
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_chrome_trace;
    use crate::metrics::MetricValue;

    fn span(job: usize, batch: usize, start: f64, end: f64) -> JobSpan {
        JobSpan {
            job,
            name: format!("j{job}"),
            batch,
            start,
            end,
            leaves: vec![job as u32 * 2, job as u32 * 2 + 1],
        }
    }

    #[test]
    fn metric_names_are_the_contract() {
        let m = JobMetrics::new();
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

    #[test]
    fn jobs_trace_validates_and_names_tracks() {
        let spans = vec![
            span(0, 0, 0.0, 5.0),
            span(1, 0, 0.0, 3.0),
            span(2, 1, 5.0, 9.0),
        ];
        let text = jobs_chrome_trace(&spans);
        let check = validate_chrome_trace(&text).expect("job trace validates");
        assert_eq!(check.complete, 3);
        assert!(text.contains("\"name\":\"job 2 j2\""));
        assert!(text.contains("\"batch\":1"));
        assert!(text.contains("\"leaves\":[4,5]"));
    }

    #[test]
    fn empty_span_set_is_a_valid_trace() {
        let text = jobs_chrome_trace(&[]);
        validate_chrome_trace(&text).expect("empty job trace validates");
    }
}
