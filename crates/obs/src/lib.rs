//! # hbsp-obs — unified telemetry for both HBSP^k engines
//!
//! Section 5 of the paper validates the HBSP^k cost model by
//! *measuring*: improvement factors over real runs, `r_j` rankings from
//! BYTEmark. This crate is the measuring apparatus for our two engines:
//!
//! * **[`Probe`]** — one observation trait consumed by the virtual-time
//!   `Simulator` and the wall-clock `ThreadedRuntime`. Both populate
//!   the same [`StepRecord`] schema; the threaded engine adds
//!   wall-clock marks. The default [`NoopProbe`] keeps the disabled
//!   path off the hot path: engines assemble nothing unless
//!   [`Probe::enabled`] returns true.
//! * **[`Recorder`]** — the one shipped probe and the only place a
//!   superstep is stored: an arena of [`StepTrace`]s read by cursor
//!   ([`Recorder::steps_since`]), the event list and a [`metrics`]
//!   registry with stable names, all behind one lock; and exporters to
//!   Chrome trace-event JSON ([`chrome_trace`], loads in Perfetto) and JSONL
//!   ([`jsonl`]). [`Recorder::new`] keeps everything.
//! * **[`DriftReport`]** — observed supersteps folded against the cost
//!   model's predictions for the same schedule: per-step and aggregate
//!   model error.
//! * **[`calibrate()`]** — least-squares back-calibration of `g`, the
//!   per-level `L`, per-processor speeds and `r` from an observed run
//!   (the closed loop on §5's benchmark-then-predict methodology).
//!
//! * **[`jobs`]** — the scheduler's tenant axis: the `hbsp_jobs_*`
//!   metric family ([`JobMetrics`]). Jobs are [`CausalKind::Job`] spans
//!   of the scheduler's causal tree, rendered by
//!   [`chrome_trace_with_causal`] like every other span.
//! * **[`FlightRecorder`]** — the same recorder built always-on: a
//!   ring of the last N step records, allocation-free once armed, with
//!   counters instead of histograms, cheap enough to leave armed in
//!   production. On a fault it freezes into a [`PostmortemBundle`]
//!   — machine tree, fault plan, last-N steps, events, decision log,
//!   metrics, and the causal span tree — serialized as JSONL and
//!   bit-identical across engines for the same seeded failure.
//!
//! [`Span`]/[`SpanKind`] live here and are re-exported by `hbsp-sim`,
//! whose timelines and Gantt chart are views over [`StepTrace::spans`],
//! the one derivation of spans from a step.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod drift;
pub mod export;
pub mod flight;
pub mod jobs;
pub mod json;
pub mod metrics;
pub mod postmortem;
pub mod probe;
pub mod record;
pub mod span;

pub use calibrate::{
    calibrate, calibrate_robust, proc_estimates, Calibration, ProcEstimates, RobustCalibration,
};
pub use drift::{DriftReport, DriftRow};
pub use export::{
    chrome_trace, chrome_trace_with_causal, jsonl, validate_chrome_trace, TraceCheck,
};
pub use flight::FlightRecorder;
pub use jobs::JobMetrics;
pub use metrics::{MetricSample, MetricValue, Registry};
pub use postmortem::{PostmortemBundle, BUNDLE_VERSION};
pub use probe::{noop, NoopProbe, ObsEvent, Probe, StepRecord, StepWall};
pub use record::{check_span_invariants, EventTrace, Recorder, StepTrace, StepsSince};
pub use span::{
    causal_depth, check_causal_spans, CausalKind, CausalSpan, CausalTree, Span, SpanKind,
};
