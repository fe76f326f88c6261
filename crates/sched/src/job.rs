//! The job model: what tenants submit to the scheduler.
//!
//! A [`Job`] is either a *collective plan* — a [`CollectiveKind`] plus a
//! size hint, auto-tuned per placement by `hbsp_collectives::best_plan`
//! — or a *custom pre-lowered program*: a [`CommSchedule`] with initial
//! holdings, expressed in the local ranks of whatever sub-tree the
//! scheduler carves for it. `blocked_by` edges form the DAG the
//! scheduler drains; fork-join is the core topology (a fan-out of
//! independent jobs after a common prerequisite, joined by a job
//! blocked on all of them), and arbitrary workflow patterns compose
//! from the same edges.

use hbsp_collectives::reduce::ReduceOp;
use hbsp_collectives::schedule::ProcInit;
use hbsp_collectives::{CollectiveKind, CommSchedule};
use std::fmt;
use std::sync::Arc;

/// Dense identity of a submitted job, assigned by
/// [`crate::Scheduler::submit`] in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub usize);

impl JobId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {}", self.0)
    }
}

/// What a job executes once placed on its carved sub-tree.
#[derive(Debug, Clone)]
pub enum JobWork {
    /// A collective plan: the scheduler lowers the cheapest strategy
    /// for the carved machine via `best_plan` at placement time. `n` is
    /// the collective's size hint (total items for gather / broadcast /
    /// scatter / allgather, vector length for reduce / scan, per-pair
    /// block words for alltoall).
    Collective {
        /// The operation.
        kind: CollectiveKind,
        /// Size hint, in the same units as `rank_plans`.
        n: u64,
    },
    /// A pre-lowered schedule in carved-local ranks `0..init.len()`.
    /// The scheduler places it on a sub-tree with exactly `init.len()`
    /// leaves whose carved height covers the schedule's scopes.
    Custom {
        /// The schedule, last step a drain.
        schedule: Arc<CommSchedule>,
        /// Initial holdings, one per carved-local rank.
        init: Arc<Vec<ProcInit>>,
        /// Reduction operator, required iff the schedule sends partials.
        op: Option<ReduceOp>,
    },
}

/// One unit of schedulable work plus its DAG edges.
#[derive(Debug, Clone)]
pub struct Job {
    /// Human-readable name (reports, traces, job-graph files).
    pub name: Arc<str>,
    /// What to execute.
    pub work: JobWork,
    /// Smallest acceptable sub-tree, in leaves. Custom jobs need an
    /// exact match of `init.len()` instead.
    pub min_procs: usize,
    /// Jobs that must complete before this one may start.
    pub blocked_by: Vec<JobId>,
    /// Seed for the job's deterministic input data (collective jobs).
    /// The scheduler mixes the job id in, so the default 0 still gives
    /// every job distinct data.
    pub seed: u64,
}

impl Job {
    /// A collective job with the default minimum of two processors.
    pub fn collective(name: impl Into<Arc<str>>, kind: CollectiveKind, n: u64) -> Job {
        Job {
            name: name.into(),
            work: JobWork::Collective { kind, n },
            min_procs: 2,
            blocked_by: Vec::new(),
            seed: 0,
        }
    }

    /// A custom pre-lowered job for exactly `init.len()` processors.
    pub fn custom(
        name: impl Into<Arc<str>>,
        schedule: CommSchedule,
        init: Vec<ProcInit>,
        op: Option<ReduceOp>,
    ) -> Job {
        let procs = init.len();
        Job {
            name: name.into(),
            work: JobWork::Custom {
                schedule: Arc::new(schedule),
                init: Arc::new(init),
                op,
            },
            min_procs: procs,
            blocked_by: Vec::new(),
            seed: 0,
        }
    }

    /// Builder-style: add prerequisite jobs.
    pub fn after(mut self, deps: &[JobId]) -> Self {
        self.blocked_by.extend_from_slice(deps);
        self
    }

    /// Builder-style: require at least `p` processors (collective jobs;
    /// custom jobs always need exactly their init width).
    pub fn with_min_procs(mut self, p: usize) -> Self {
        self.min_procs = p.max(1);
        self
    }

    /// Builder-style: set the data seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The exact leaf count a custom job requires; `None` for
    /// collective jobs (any sub-tree of at least `min_procs` fits).
    pub(crate) fn exact_procs(&self) -> Option<usize> {
        match &self.work {
            JobWork::Collective { .. } => None,
            JobWork::Custom { init, .. } => Some(init.len()),
        }
    }

    /// The reduction operator this job would impose on a shared batch
    /// program (one `ReduceOp` per batch program; batches only admit
    /// jobs whose operators agree).
    pub(crate) fn op(&self) -> Option<ReduceOp> {
        match &self.work {
            JobWork::Collective { kind, .. } => match kind {
                CollectiveKind::Reduce | CollectiveKind::Scan => Some(ReduceOp::Sum),
                _ => None,
            },
            JobWork::Custom { op, .. } => *op,
        }
    }
}
