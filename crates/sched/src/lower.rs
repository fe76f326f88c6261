//! Lowering a placed job onto its carved machine: pick the cheapest
//! plan, generate the job's deterministic input data, and build the
//! initial holdings the collective's schedule expects.
//!
//! Data comes from [`seeded_inits`] under a splitmix mix of the job's
//! seed and id, so a job graph replays bit-identically on either engine
//! and across serial/batched admission.

use crate::job::{Job, JobId, JobWork};
use crate::report::SchedError;
use hbsp_collectives::predict;
use hbsp_collectives::reduce::ReduceOp;
use hbsp_collectives::schedule::{seeded_inits, ProcInit};
use hbsp_collectives::tune::best_plan;
use hbsp_collectives::CommSchedule;
use hbsp_core::{Carved, NodeIdx, ProcId};

/// One job lowered for the sub-tree it claimed this batch. Everything
/// here is in carved-local ranks; `carved.leaves` maps back to the
/// shared tree.
pub(crate) struct LoweredJob {
    /// Index of the job in the scheduler's submission order.
    pub job: usize,
    /// The claimed node of the shared tree.
    pub node: NodeIdx,
    /// The carved, renormalized machine of that node.
    pub carved: Carved,
    /// The job's schedule in carved-local ranks.
    pub schedule: CommSchedule,
    /// Initial holdings per carved-local rank.
    pub init: Vec<ProcInit>,
    /// Reduction operator, if the schedule sends partials.
    pub op: Option<ReduceOp>,
    /// Predicted cost of the schedule on the carved machine alone.
    pub predicted: f64,
    /// Carved-local root/result rank, for rooted collectives.
    pub root: Option<ProcId>,
}

/// Mix the job id into the user seed so default-seeded jobs still get
/// distinct data (splitmix64 finalizer).
pub(crate) fn job_seed(seed: u64, id: usize) -> u64 {
    let mut z = seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lower `job` (with submission index `id`) onto the machine carved at
/// `node`. The caller has already checked the sub-tree is adequate.
pub(crate) fn lower_on(
    carved: Carved,
    job: &Job,
    id: usize,
    node: NodeIdx,
) -> Result<LoweredJob, SchedError> {
    let seed = job_seed(job.seed, id);
    match &job.work {
        JobWork::Collective { kind, n } => {
            let plan =
                best_plan(&carved.tree, *kind, *n).map_err(|e| SchedError::Tune(JobId(id), e))?;
            let (init, op) = seeded_inits(&carved.tree, &plan, *n, seed);
            Ok(LoweredJob {
                job: id,
                node,
                carved,
                predicted: plan.cost,
                root: plan.root,
                schedule: plan.schedule,
                init,
                op,
            })
        }
        JobWork::Custom { schedule, init, op } => {
            let predicted = predict(&carved.tree, schedule).total();
            Ok(LoweredJob {
                job: id,
                node,
                carved,
                schedule: (**schedule).clone(),
                init: (**init).clone(),
                op: *op,
                predicted,
                root: None,
            })
        }
    }
}
