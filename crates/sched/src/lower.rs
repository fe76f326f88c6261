//! Placing and lowering a job. [`Placements`] prices jobs on carved
//! sub-trees of one belief — each node carved and each (shape, node)
//! tuned at most once — ranks each shape's candidates once, and
//! [`Placements::claim`] lowers the first whose leaves are free. The
//! first lowering of a placement prepares it for the shared tree once
//! ([`Placed`]: remapped, compiled, laid out and priced); every lowering
//! adds only the job's input data: [`seeded_inits`] under a splitmix mix
//! of the job's seed and id, so a job graph replays bit-identically on
//! either engine and across serial/batched admission.

use crate::job::{Job, JobWork};
use hbsp_collectives::predict;
use hbsp_collectives::schedule::{seeded_inits, Placed, ProcInit};
use hbsp_collectives::tune::{best_plan, PlanChoice};
use hbsp_collectives::{CollectiveError, CommSchedule};
use hbsp_core::{Carved, MachineTree, NodeIdx, ProcId};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
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
    /// The placement on the shared tree, prepared on first lowering.
    placed: Rc<OnceCell<Result<Arc<Placed>, CollectiveError>>>,
}

/// The placement cache on one belief: carves by node, prices by job
/// shape and node (`None` where the carved machine cannot host the
/// job), and ranks by job shape and width: each adequate node that
/// prices, with its leaves' (consecutive) ranks, by cost, leaves, node.
pub(crate) struct Placements {
    belief: Arc<MachineTree>,
    carves: HashMap<NodeIdx, Arc<Carved>>,
    prices: HashMap<(u8, u64, u32), Option<Priced>>,
    ranked: HashMap<(u8, u64, usize), Ranking>,
}

/// Candidates in claim order: each node, its leaves' ranks, its price.
type Ranking = Vec<(NodeIdx, Range<usize>, Priced)>;

impl Placements {
    /// An empty cache on `belief`.
    pub fn new(belief: Arc<MachineTree>) -> Placements {
        Placements {
            belief,
            carves: HashMap::new(),
            prices: HashMap::new(),
            ranked: HashMap::new(),
        }
    }

    /// Claim for `job` (submission index `id`) the first node of its
    /// ranking, built on first use, whose leaves are all `free`: mark
    /// them taken, and lower the job there, placed on first use.
    pub fn claim(
        &mut self,
        job: &Job,
        id: usize,
        free: &mut [bool],
    ) -> Option<Result<LoweredJob, CollectiveError>> {
        // Custom jobs rank per job (255 is no `CollectiveKind` discriminant).
        let (kind, n) = match &job.work {
            JobWork::Collective { kind, n } => (*kind as u8, *n),
            JobWork::Custom { .. } => (255, id as u64),
        };
        let key = (kind, n, job.exact_procs().unwrap_or(job.min_procs));
        if !self.ranked.contains_key(&key) {
            let ranked = self.rank(job, (kind, n));
            self.ranked.insert(key, ranked);
        }
        let all_free = |c: &&(_, Range<usize>, _)| free[c.1.clone()].iter().all(|&f| f);
        let (node, ranks, priced) = self.ranked[&key].iter().find(all_free)?;
        free[ranks.clone()].fill(false);
        let (init, root, schedule) = match &priced.program {
            Program::Tuned(plan, n) => {
                let init = seeded_inits(&priced.carved.tree, plan, *n, job_seed(job.seed, id));
                (init.0, plan.root, &plan.schedule)
            }
            Program::Custom(schedule, init) => ((**init).clone(), None, &**schedule),
        };
        let (tree, leaves) = (&self.belief, &priced.carved.leaves);
        let level = tree.node(*node).level();
        let prepare = || Placed::new(tree, schedule, leaves, level, &init).map(Arc::new);
        let placed = priced.placed.get_or_init(prepare).clone();
        Some(placed.map(|placed| LoweredJob {
            job: id,
            node: *node,
            priced: priced.clone(),
            placed,
            init,
            root,
        }))
    }

    /// Every node adequate for `job`, of shape `(kind, n)`, that
    /// prices, cheapest first; each price filled on first use.
    fn rank(&mut self, job: &Job, (kind, n): (u8, u64)) -> Ranking {
        let tree = &self.belief;
        let mut ranked: Vec<_> = (tree.nodes())
            .filter_map(|node| {
                let (idx, leaves) = (node.idx(), tree.subtree_leaves(node.idx()));
                let k = job.exact_procs();
                let adequate = k.map_or(leaves.len() >= job.min_procs, |k| leaves.len() == k);
                let first = *leaves.first().filter(|_| adequate)?;
                let first = tree.node(first).proc_id()?.rank();
                let entry = self.prices.entry((kind, n, idx.index() as u32));
                let priced = entry.or_insert_with(|| fill(tree, &mut self.carves, job, idx));
                Some((idx, first..first + leaves.len(), priced.clone()?))
            })
            .collect();
        ranked.sort_by(|a, b| {
            let tie = (a.1.len(), a.0).cmp(&(b.1.len(), b.0));
            a.2.cost.total_cmp(&b.2.cost).then(tie)
        });
        ranked
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
        placed: Rc::default(),
    })
}

/// One job lowered for the sub-tree it claimed this batch. Its
/// reduction operator is the batch's: admission lets only jobs whose
/// `Job::op` agrees share a batch.
pub(crate) struct LoweredJob {
    /// Index of the job in the scheduler's submission order.
    pub job: usize,
    /// The claimed node of the shared tree.
    pub node: NodeIdx,
    /// The job's price there: carved machine, program, predicted cost.
    pub priced: Priced,
    /// Its placement on the shared tree, shared by every job lowered
    /// there.
    pub placed: Arc<Placed>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectiveKind;
    use hbsp_collectives::ScheduleStep;
    use hbsp_core::SyncScope;
    use hbsp_core::{NodeParams, TreeBuilder};
    use proptest::prelude::*;

    /// A processor's `(r, speed)`.
    fn arb_proc() -> impl Strategy<Value = (f64, f64)> {
        (1.0f64..6.0, 0.05f64..=1.0)
    }

    /// The random HBSP^1–3 machines of the root package's
    /// `tests/common` (`arb_machine`): flat of 1..=8 processors, 1..=4
    /// clusters of 1..=4, or 1..=2 campuses of 1..=2 LANs of 1..=3.
    fn arb_machine() -> impl Strategy<Value = MachineTree> {
        let flat = proptest::collection::vec(arb_proc(), 1..=8).prop_map(|mut procs| {
            procs[0].0 = 1.0;
            TreeBuilder::flat(1.0, 100.0, &procs).unwrap()
        });
        let lan = || proptest::collection::vec(arb_proc(), 1..=4);
        let hbsp2 = proptest::collection::vec((10.0f64..500.0, lan()), 1..=4).prop_map(|mut cs| {
            cs[0].1[0].0 = 1.0;
            TreeBuilder::two_level(1.0, 1000.0, &cs).unwrap()
        });
        let lans = proptest::collection::vec(proptest::collection::vec(arb_proc(), 1..=3), 1..=2);
        let hbsp3 = proptest::collection::vec(lans, 1..=2).prop_map(|mut campuses| {
            campuses[0][0][0].0 = 1.0;
            let mut b = TreeBuilder::new(1.0);
            let root = b.cluster("wan", NodeParams::cluster(5000.0));
            for (ci, lans) in campuses.into_iter().enumerate() {
                let campus = b.child_cluster(root, format!("c{ci}"), NodeParams::cluster(500.0));
                for (li, procs) in lans.into_iter().enumerate() {
                    let lan =
                        b.child_cluster(campus, format!("c{ci}l{li}"), NodeParams::cluster(50.0));
                    for (pi, (r, speed)) in procs.into_iter().enumerate() {
                        b.child_proc(lan, format!("c{ci}l{li}p{pi}"), NodeParams::proc(r, speed));
                    }
                }
            }
            b.build().unwrap()
        });
        prop_oneof![flat, hbsp2, hbsp3]
    }

    /// A custom job for exactly `width` processors: one level-1 step
    /// charging rank `r` `1 + r` units, then a drain — unplaceable on a
    /// lone leaf, whose carved machine has no level 1.
    fn custom(width: usize) -> Job {
        let mut body = ScheduleStep::at(SyncScope::Level(1));
        body.work = (0..width)
            .map(|r| (ProcId(r as u32), 1.0 + r as f64))
            .collect();
        let steps = vec![body, ScheduleStep::drain()];
        let schedule = CommSchedule {
            steps,
            ..CommSchedule::default()
        };
        Job::custom("custom", schedule, vec![ProcInit::default(); width], None)
    }

    /// The claim by exhaustive scan: every node of the belief whose
    /// leaves are adequate and free and which prices, the least by
    /// `(cost, leaves, node)` — its node and its cost's bits.
    fn scanned(tree: &MachineTree, job: &Job, free: &[bool]) -> Option<(NodeIdx, u64)> {
        let mut carves = HashMap::new();
        let mut best: Option<(f64, usize, NodeIdx)> = None;
        for node in tree.nodes() {
            let leaves = tree.subtree_leaves(node.idx());
            let ranks: Vec<usize> = (leaves.iter())
                .map(|&l| tree.node(l).proc_id().unwrap().rank())
                .collect();
            let adequate = match job.exact_procs() {
                None => ranks.len() >= job.min_procs,
                Some(k) => ranks.len() == k,
            };
            if !adequate || !ranks.iter().all(|&r| free[r]) {
                continue;
            }
            let Some(priced) = fill(tree, &mut carves, job, node.idx()) else {
                continue;
            };
            let key = (priced.cost, ranks.len(), node.idx());
            let beats = best.is_none_or(|b| {
                let tie = (key.1, key.2).cmp(&(b.1, b.2));
                key.0.total_cmp(&b.0).then(tie).is_lt()
            });
            if beats {
                best = Some(key);
            }
        }
        best.map(|(cost, _, node)| (node, cost.to_bits()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A claim from a shape's ranked list is the exhaustive scan's,
        /// node and cost bit for bit, for collective shapes of any
        /// minimum width and custom jobs of exact widths, under random
        /// free masks.
        #[test]
        fn a_ranked_claim_is_the_exhaustive_scan(
            tree in arb_machine(),
            shapes in proptest::collection::vec((0usize..9, 1u64..64, 0usize..10), 1..6),
            masks in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            let tree = Arc::new(tree);
            let p = tree.num_procs();
            let mut placements = Placements::new(tree.clone());
            for (id, &(kind, n, procs)) in shapes.iter().enumerate() {
                let job = match CollectiveKind::ALL.get(kind) {
                    Some(&kind) => Job::collective("job", kind, n).with_min_procs(procs),
                    None => custom(procs.clamp(1, p)),
                };
                for bits in masks.iter().copied().chain([u64::MAX]) {
                    let mut free: Vec<bool> = (0..p).map(|r| bits >> r & 1 == 1).collect();
                    let want = scanned(&tree, &job, &free);
                    let claimed = placements.claim(&job, id, &mut free);
                    let got = claimed.map(|l| l.map(|l| (l.node, l.priced.cost.to_bits())));
                    prop_assert_eq!(got.transpose().unwrap(), want);
                }
            }
        }
    }
}
