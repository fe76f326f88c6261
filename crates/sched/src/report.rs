//! Typed results of draining a job graph, and the scheduler's errors.

use crate::job::JobId;
use hbsp_check::Violation;
use hbsp_collectives::schedule::ScheduleState;
use hbsp_collectives::DecodeError;
use hbsp_core::{MachineId, MachineTree, NodeIdx, ProcId};
use hbsp_obs::metrics::MetricSample;
use hbsp_obs::{chrome_trace_with_causal, CausalSpan, DriftReport, PostmortemBundle};
use hbsp_sim::SimError;
use std::fmt;
use std::sync::Arc;

/// One job's outcome: where it ran, what it cost, and its final
/// per-processor states (carved-rank order) for result extraction and
/// cross-engine comparison.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job.
    pub id: JobId,
    /// Its submitted name.
    pub name: Arc<str>,
    /// Admission batch it ran in (0-based).
    pub batch: usize,
    /// Claimed node of the shared tree.
    pub node: NodeIdx,
    /// The claim's `M_{i,j}` coordinates.
    pub machine: MachineId,
    /// Global ranks of the claimed leaves, in carved-rank order.
    pub leaves: Arc<[ProcId]>,
    /// Global rank of the result root, for rooted collectives.
    pub root: Option<ProcId>,
    /// Predicted cost of the job alone on its carved machine.
    pub predicted: f64,
    /// Virtual time the job's batch started.
    pub start: f64,
    /// Virtual time the job's batch finished.
    pub end: f64,
    /// Final interpreter states of the claimed leaves, carved order.
    pub states: Vec<ScheduleState>,
}

impl JobReport {
    /// Observed virtual time: the batch window the job occupied.
    pub fn observed(&self) -> f64 {
        self.end - self.start
    }

    /// First malformed payload seen by any of the job's processors.
    pub fn error(&self) -> Option<DecodeError> {
        self.states.iter().find_map(ScheduleState::error)
    }
}

/// One admission round: the jobs that shared its barriers and the
/// predicted-vs-observed cost of the batch program.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Batch index (0-based).
    pub index: usize,
    /// Members, in admission order.
    pub jobs: Vec<JobId>,
    /// Virtual start time.
    pub start: f64,
    /// Virtual end time.
    pub end: f64,
    /// Predicted cost of the batch program on the shared tree.
    pub predicted: f64,
    /// Per-step drift of the batch program: every executed step,
    /// free drain included, against its prediction on the belief.
    /// `None` only when the engine ran a different number of steps than
    /// the batch program has.
    pub drift: Option<DriftReport>,
    /// True when this batch's drift tripped the adaptive threshold and
    /// the scheduler folded its telemetry into the belief tree (later
    /// batches were re-priced and re-placed on the updated belief).
    pub replanned: bool,
}

impl BatchReport {
    /// Observed virtual time of the round.
    pub fn observed(&self) -> f64 {
        self.end - self.start
    }
}

/// The drained graph: every job's outcome, every batch, and the run's
/// job-axis telemetry.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// Per-job outcomes in job-id order.
    pub jobs: Vec<JobReport>,
    /// Admission rounds in execution order.
    pub batches: Vec<BatchReport>,
    /// Virtual makespan: the sum of round durations.
    pub total_time: f64,
    /// Snapshot of the `hbsp_jobs_*` metrics.
    pub metrics: Vec<MetricSample>,
    /// Closed-loop re-plans performed ([`crate::RunOptions::adapt`]);
    /// always 0 for open-loop runs.
    pub replans: usize,
    /// The tree the last batches were placed on: the machine file,
    /// re-parameterized by every re-plan.
    pub belief: Arc<MachineTree>,
    /// Causal span tree of the run: one [`hbsp_obs::CausalKind::Batch`]
    /// root per admission round containing one
    /// [`hbsp_obs::CausalKind::Job`] span per member and one
    /// [`hbsp_obs::CausalKind::Superstep`] span per batch-program
    /// step, all on the scheduler's cumulative virtual clock.
    pub causal: Vec<CausalSpan>,
}

impl SchedReport {
    /// True when every job completed without a decode error.
    pub fn clean(&self) -> bool {
        self.jobs.iter().all(|j| j.error().is_none())
    }

    /// Chrome-trace rendering of the causal span tree (batch → job →
    /// superstep); loads in Perfetto.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_with_causal(&[], &self.causal)
    }

    /// Human-readable run summary.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} jobs in {} batches, makespan {:.0}{}",
            self.jobs.len(),
            self.batches.len(),
            self.total_time,
            if self.replans > 0 {
                format!(", {} re-plans", self.replans)
            } else {
                String::new()
            }
        );
        for b in &self.batches {
            let members: Vec<String> = b.jobs.iter().map(|j| j.0.to_string()).collect();
            let _ = writeln!(
                out,
                "  batch {}: jobs [{}]  T = {:.0} (predicted {:.0}){}",
                b.index,
                members.join(","),
                b.observed(),
                b.predicted,
                if b.replanned { "  [replanned]" } else { "" }
            );
        }
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "  {}: {} on {} ({} leaves), batch {}, predicted {:.0}, window {:.0}",
                j.id,
                j.name,
                j.machine,
                j.leaves.len(),
                j.batch,
                j.predicted,
                j.observed()
            );
        }
        out
    }
}

/// Why a run could not proceed.
#[derive(Debug)]
pub enum SchedError {
    /// The `blocked_by` graph is broken (cycle, self-edge, dangling
    /// dependency) — nothing ran.
    InvalidGraph(Vec<Violation>),
    /// Internal invariant breach: a batch's claims were not
    /// leaf-disjoint. Always a scheduler bug, surfaced typed instead of
    /// corrupting tenant data.
    ClaimOverlap(Vec<Violation>),
    /// A ready job fits no sub-tree of the machine even when idle.
    Unplaceable {
        /// The job.
        job: JobId,
        /// Its name.
        name: String,
        /// Leaves it needs.
        needed: usize,
        /// Leaves the whole machine has.
        available: usize,
    },
    /// A custom job's schedule is structurally invalid (empty, a drain
    /// step before the end, or a rank past its initial holdings).
    MalformedCustom {
        /// The job.
        job: JobId,
    },
    /// An engine rejected or failed the batch program. The attached
    /// [`PostmortemBundle`] (`hbsplib::ClosedLoop::run`) carries the
    /// batch's step records, events, metrics, the batch log up to the
    /// failure, and the causal span tree.
    Exec(SimError, Box<PostmortemBundle>),
}

impl SchedError {
    /// The forensics bundle captured at the failing batch, if any.
    pub fn bundle(&self) -> Option<&PostmortemBundle> {
        match self {
            SchedError::Exec(_, b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::InvalidGraph(v) | SchedError::ClaimOverlap(v) => {
                let what = match self {
                    SchedError::InvalidGraph(_) => "invalid job graph",
                    _ => "batch claims overlap",
                };
                write!(f, "{what} ({} violations):", v.len())?;
                v.iter().try_for_each(|x| write!(f, "\n  {x}"))
            }
            SchedError::Unplaceable {
                job,
                name,
                needed,
                available,
            } => write!(
                f,
                "{job} ({name}) needs {needed} processors but the machine has {available}; \
                 no sub-tree can ever host it"
            ),
            SchedError::MalformedCustom { job } => write!(
                f,
                "{job} submitted a custom schedule that is empty, has a non-final drain step \
                 or names a rank past its initial holdings"
            ),
            SchedError::Exec(e, _) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for SchedError {}
