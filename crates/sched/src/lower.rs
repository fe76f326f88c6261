//! Placing and lowering a job. [`Placements`] prices jobs on carved
//! sub-trees of one belief — each node carved and each (shape, node)
//! tuned at most once — and [`lower_on`] lowers the winning price, adding
//! only the job's input data: [`seeded_inits`] under a splitmix mix of
//! the job's seed and id, so a job graph replays bit-identically on
//! either engine and across serial/batched admission.

use crate::job::{Job, JobWork};
use hbsp_collectives::predict;
use hbsp_collectives::schedule::{seeded_inits, ProcInit};
use hbsp_collectives::tune::{best_plan, PlanChoice};
use hbsp_collectives::CommSchedule;
use hbsp_core::{Carved, MachineTree, NodeIdx, ProcId};
use std::collections::HashMap;
use std::sync::Arc;

/// What a placed job runs, shared with the cache or the submission.
#[derive(Clone)]
pub(crate) enum Program {
    /// A collective's cheapest plan, and the size hint it was tuned for.
    Tuned(Arc<PlanChoice>, u64),
    /// A custom job's schedule and initial holdings.
    Custom(Arc<CommSchedule>, Arc<Vec<ProcInit>>),
}

/// A job's price on one node of the belief, and what lowering reads.
#[derive(Clone)]
pub(crate) struct Priced {
    /// Predicted cost of the job alone on the carved machine.
    pub cost: f64,
    /// The node's carved machine, shared by every job priced there.
    pub carved: Arc<Carved>,
    /// What the job runs there.
    pub program: Program,
}

impl Priced {
    /// The job's schedule in carved-local ranks.
    pub fn schedule(&self) -> &CommSchedule {
        match &self.program {
            Program::Tuned(plan, _) => &plan.schedule,
            Program::Custom(schedule, _) => schedule,
        }
    }
}

/// The placement cache on one belief: carves by node, and prices by job
/// shape and node (`None` where the carved machine cannot host the job).
pub(crate) struct Placements {
    belief: Arc<MachineTree>,
    carves: HashMap<NodeIdx, Arc<Carved>>,
    prices: HashMap<(u8, u64, u32), Option<Priced>>,
}

impl Placements {
    /// An empty cache on `belief`.
    pub fn new(belief: Arc<MachineTree>) -> Placements {
        Placements {
            belief,
            carves: HashMap::new(),
            prices: HashMap::new(),
        }
    }

    /// `job` (submission index `id`) priced on node `idx`, filled on
    /// first use.
    pub fn price(&mut self, job: &Job, id: usize, idx: NodeIdx) -> Option<&Priced> {
        // Collective jobs share entries by shape, custom jobs get per-job
        // entries (255 is no `CollectiveKind` discriminant).
        let key = match &job.work {
            JobWork::Collective { kind, n } => (*kind as u8, *n, idx.index() as u32),
            JobWork::Custom { .. } => (255, id as u64, idx.index() as u32),
        };
        let entry = self.prices.entry(key);
        let priced = entry.or_insert_with(|| fill(&self.belief, &mut self.carves, job, idx));
        priced.as_ref()
    }
}

/// The one placement site: carve node `idx` (once per belief) and price
/// `job` there, or `None` if the carved machine cannot host it (no plan,
/// or a custom schedule's scopes exceed the carved height).
fn fill(
    tree: &MachineTree,
    carves: &mut HashMap<NodeIdx, Arc<Carved>>,
    job: &Job,
    idx: NodeIdx,
) -> Option<Priced> {
    let carve = || Arc::new(tree.carve(idx));
    let carved = carves.entry(idx).or_insert_with(carve);
    let (cost, program) = match &job.work {
        JobWork::Collective { kind, n } => {
            let plan = best_plan(&carved.tree, *kind, *n).ok()?;
            (plan.cost, Program::Tuned(Arc::new(plan), *n))
        }
        JobWork::Custom { schedule, init, .. } => {
            let scopes = schedule.steps.iter().filter_map(|s| s.scope);
            if scopes.map(|sc| sc.level()).max().unwrap_or(0) > carved.tree.height() {
                return None;
            }
            let cost = predict(&carved.tree, schedule).total();
            (cost, Program::Custom(schedule.clone(), init.clone()))
        }
    };
    let carved = carved.clone();
    Some(Priced {
        cost,
        carved,
        program,
    })
}

/// One job lowered for the sub-tree it claimed this batch, in
/// carved-local ranks. Its reduction operator is the batch's: admission
/// lets only jobs whose `Job::op` agrees share a batch.
pub(crate) struct LoweredJob {
    /// Index of the job in the scheduler's submission order.
    pub job: usize,
    /// The claimed node of the shared tree.
    pub node: NodeIdx,
    /// The job's price there: carved machine, program, predicted cost.
    pub priced: Priced,
    /// Initial holdings per carved-local rank.
    pub init: Vec<ProcInit>,
    /// Carved-local root/result rank, for rooted collectives.
    pub root: Option<ProcId>,
}

/// Mix the job id into the user seed so default-seeded jobs still get
/// distinct data (splitmix64 finalizer).
fn job_seed(seed: u64, id: usize) -> u64 {
    let mut z = seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lower `job` (submission index `id`) from its winning price on `node`.
pub(crate) fn lower_on(priced: Priced, job: &Job, id: usize, node: NodeIdx) -> LoweredJob {
    let (init, root) = match &priced.program {
        Program::Tuned(plan, n) => {
            let seed = job_seed(job.seed, id);
            (
                seeded_inits(&priced.carved.tree, plan, *n, seed).0,
                plan.root,
            )
        }
        Program::Custom(_, init) => ((**init).clone(), None),
    };
    LoweredJob {
        job: id,
        node,
        priced,
        init,
        root,
    }
}
