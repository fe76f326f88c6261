//! The one-to-all broadcast (§4.4).
//!
//! Only the source holds the `n` items; at termination every processor
//! holds a copy. The paper analyzes two flat variants —
//!
//! * **one-phase**: the root sends all `n` items to every processor
//!   (`g·n·m` at the root);
//! * **two-phase**: the root scatters `n/p` pieces, then everyone
//!   all-gathers (`g·n(1 + r_s) + 2L`) — the better performer "for
//!   reasonable values of `r_s`";
//!
//! — and the HBSP^2 algorithm: distribute across the top level (one- or
//! two-phase among the cluster coordinators), then run the HBSP^1
//! broadcast inside every cluster. [`lower_hierarchical_broadcast`]
//! generalizes that to any HBSP^k machine, top-down one level at a time.
//!
//! The paper's conclusion — broadcast *cannot* exploit heterogeneity
//! because the slowest machine must receive all `n` items — falls out of
//! the simulation; see experiments E3/E4.

use crate::data::partition_for;
use crate::error::CollectiveError;
use crate::plan::{PhasePolicy, RankOutOfRange, RootPolicy, Strategy, WorkloadPolicy};
use crate::schedule::{
    self, rep_of, share_unit, CommSchedule, ScheduleStep, Staging, Transfer, UnitId,
};
use hbsp_core::{apportion_by, Level, MachineTree, NodeIdx, ProcId, SyncScope};
use hbsp_sim::SimOutcome;
use hbsplib::Executor;

/// Configuration of a broadcast run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastPlan {
    /// Source processor (flat strategy; the hierarchical algorithm
    /// sources at the machine's fastest processor).
    pub root: RootPolicy,
    /// Flat (§4.4's HBSP^1) or hierarchical (HBSP^k).
    pub strategy: Strategy,
    /// Distribution at the top level (the super^k-step choice the paper
    /// analyzes for HBSP^2).
    pub top_phase: PhasePolicy,
    /// Distribution at every lower level (the in-cluster HBSP^1
    /// broadcast; the paper fixes this to two-phase).
    pub cluster_phase: PhasePolicy,
    /// Scatter piece sizing in two-phase distributions (Figure 4b's
    /// balanced variant).
    pub workload: WorkloadPolicy,
}

impl BroadcastPlan {
    /// The paper's recommended flat algorithm: two-phase from `P_f`.
    pub fn two_phase() -> Self {
        BroadcastPlan {
            root: RootPolicy::Fastest,
            strategy: Strategy::Flat,
            top_phase: PhasePolicy::TwoPhase,
            cluster_phase: PhasePolicy::TwoPhase,
            workload: WorkloadPolicy::Equal,
        }
    }

    /// Flat one-phase from `P_f` (the comparison point in §4.4).
    pub fn one_phase() -> Self {
        BroadcastPlan {
            top_phase: PhasePolicy::OnePhase,
            ..Self::two_phase()
        }
    }

    /// Two-phase from the slowest processor (Figure 4a's `T_s`).
    pub fn slow_root() -> Self {
        BroadcastPlan {
            root: RootPolicy::Slowest,
            ..Self::two_phase()
        }
    }

    /// Two-phase with `c_j`-balanced scatter pieces (Figure 4b's `T_b`).
    pub fn balanced() -> Self {
        BroadcastPlan {
            workload: WorkloadPolicy::Balanced,
            ..Self::two_phase()
        }
    }

    /// The HBSP^k hierarchical broadcast with the given top-level phase
    /// (§4.4's HBSP^2 analysis compares both).
    pub fn hierarchical(top_phase: PhasePolicy) -> Self {
        BroadcastPlan {
            strategy: Strategy::Hierarchical,
            top_phase,
            ..Self::two_phase()
        }
    }

    /// Builder-style: change the workload policy.
    pub fn with_workload(mut self, workload: WorkloadPolicy) -> Self {
        self.workload = workload;
        self
    }

    /// Builder-style: change the root policy.
    pub fn with_root(mut self, root: RootPolicy) -> Self {
        self.root = root;
        self
    }
}

/// One scheduled distribution phase of the hierarchical broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// One-phase distribution at this level.
    Full(Level),
    /// Two-phase distribution at this level: the scatter half…
    Scatter(Level),
    /// …and the all-gather half.
    AllGather(Level),
}

impl Stage {
    fn level(self) -> Level {
        match self {
            Stage::Full(l) | Stage::Scatter(l) | Stage::AllGather(l) => l,
        }
    }
}

/// The hierarchical broadcast's distribution stages, top level first.
fn stage_schedule(k: Level, top_phase: PhasePolicy, cluster_phase: PhasePolicy) -> Vec<Stage> {
    let mut stages = Vec::new();
    for level in (1..=k).rev() {
        let phase = if level == k { top_phase } else { cluster_phase };
        match phase {
            PhasePolicy::OnePhase => stages.push(Stage::Full(level)),
            PhasePolicy::TwoPhase => {
                stages.push(Stage::Scatter(level));
                stages.push(Stage::AllGather(level));
            }
        }
    }
    stages
}

/// The scatter units a two-phase stage deals to the coordinators of
/// `children`: `n` items apportioned by their piece weights, in child
/// order.
fn cluster_units<'a>(
    tree: &'a MachineTree,
    children: &'a [NodeIdx],
    n: u64,
    workload: WorkloadPolicy,
) -> impl Iterator<Item = UnitId> + 'a {
    let weight = |i: usize| {
        let p = tree.leaf(rep_of(tree, children[i])).params();
        match workload {
            WorkloadPolicy::Equal => 1.0,
            WorkloadPolicy::Balanced => p.speed,
            WorkloadPolicy::CommAware => (p.speed / p.r).sqrt(),
        }
    };
    let shares = apportion_by(n, children.len(), weight).into_iter();
    shares.scan(0u64, |off, s| {
        *off += s;
        Some(UnitId::new((*off - s) as u32, s as u32))
    })
}

/// Lower a broadcast plan to a communication schedule. Returns the
/// schedule and the source processor holding the data at step 0.
pub fn lower_broadcast(
    tree: &MachineTree,
    n: u64,
    plan: &BroadcastPlan,
) -> Result<(CommSchedule, ProcId), RankOutOfRange> {
    match plan.strategy {
        Strategy::Flat => {
            let root = plan.root.resolve(tree)?;
            Ok((
                lower_flat_broadcast(tree, n, root, plan.top_phase, plan.workload),
                root,
            ))
        }
        Strategy::Hierarchical => Ok((
            lower_hierarchical_broadcast(
                tree,
                n,
                plan.top_phase,
                plan.cluster_phase,
                plan.workload,
            ),
            tree.fastest_proc(),
        )),
    }
}

/// §4.4's flat (HBSP^1) broadcast as a schedule: one global superstep
/// for one-phase, scatter + all-gather supersteps for two-phase.
pub fn lower_flat_broadcast(
    tree: &MachineTree,
    n: u64,
    root: ProcId,
    phase: PhasePolicy,
    workload: WorkloadPolicy,
) -> CommSchedule {
    let mut sched = CommSchedule::new();
    let global = SyncScope::global(tree);
    let everyone: Vec<ProcId> = (0..tree.num_procs()).map(|i| ProcId(i as u32)).collect();
    match phase {
        PhasePolicy::OnePhase => {
            let mut step = ScheduleStep::at(global);
            for &q in &everyone {
                if q != root {
                    let whole = UnitId::new(0, n as u32);
                    step.transfers.push(Transfer::bundle(root, q, whole));
                }
            }
            sched.push(step);
        }
        PhasePolicy::TwoPhase => {
            let partition = partition_for(tree, n, workload);
            let mut scatter = ScheduleStep::at(global);
            for &q in &everyone {
                if q != root {
                    let unit = share_unit(&partition, q);
                    scatter.transfers.push(Transfer::bundle(root, q, unit));
                }
            }
            sched.push(scatter);
            let mut allgather = ScheduleStep::at(global);
            for &src in &everyone {
                for &dst in &everyone {
                    if dst != src {
                        let unit = share_unit(&partition, src);
                        allgather.transfers.push(Transfer::bundle(src, dst, unit));
                    }
                }
            }
            sched.push(allgather);
        }
    }
    sched.push(ScheduleStep::drain());
    sched
}

/// The HBSP^k hierarchical broadcast as a schedule: one superstep per
/// distribution stage, data flowing from the machine's fastest
/// processor down the hierarchy one level at a time.
pub fn lower_hierarchical_broadcast(
    tree: &MachineTree,
    n: u64,
    top_phase: PhasePolicy,
    cluster_phase: PhasePolicy,
    workload: WorkloadPolicy,
) -> CommSchedule {
    let mut sched = CommSchedule::new();
    let full = UnitId::new(0, n as u32);
    for stage in stage_schedule(tree.height(), top_phase, cluster_phase) {
        let level = stage.level();
        let mut step = ScheduleStep::at(SyncScope::Level(level));
        for &idx in tree.level_nodes(level).unwrap_or(&[]) {
            if tree.node(idx).is_proc() {
                continue;
            }
            let (rep, children) = (rep_of(tree, idx), tree.node(idx).children());
            let reps = children.iter().map(|&c| rep_of(tree, c));
            let units = || cluster_units(tree, children, n, workload);
            match stage {
                Stage::Full(_) => {
                    for q in reps.filter(|&q| q != rep) {
                        step.transfers.push(Transfer::bundle(rep, q, full));
                    }
                }
                Stage::Scatter(_) => {
                    for (unit, q) in units().zip(reps).filter(|&(_, q)| q != rep) {
                        step.transfers.push(Transfer::bundle(rep, q, unit));
                    }
                }
                Stage::AllGather(_) => {
                    for (unit, src) in units().zip(reps.clone()) {
                        for dst in reps.clone().filter(|&dst| dst != src) {
                            step.transfers.push(Transfer::bundle(src, dst, unit));
                        }
                    }
                }
            }
        }
        sched.push(step);
    }
    sched.push(ScheduleStep::drain());
    sched
}

/// Outcome of a broadcast run.
#[derive(Debug, Clone)]
pub struct BroadcastRun {
    /// The array as the last rank holds it; every processor's copy was
    /// compared with the input.
    pub result: Vec<u32>,
    /// Model execution time `T`.
    pub time: f64,
    /// Full virtual-time outcome.
    pub sim: SimOutcome,
}

/// Run a broadcast of `items` under `plan` on `exec`'s machine and
/// engine: lower the plan to a [`CommSchedule`], execute it, read back
/// what the processors hold.
pub fn run(
    exec: &Executor,
    items: &[u32],
    plan: BroadcastPlan,
) -> Result<BroadcastRun, CollectiveError> {
    let (sched, source) = lower_broadcast(exec.tree(), items.len() as u64, &plan)?;
    let input = Staging::AtRoot(source, items.to_vec());
    let (outcome, states) = schedule::run_staged(exec, sched, input, None)?;
    Ok(BroadcastRun {
        result: schedule::held_by_all(&states, items)?,
        time: outcome.total_time(),
        sim: outcome.sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast;
    use crate::schedule::sim;
    use hbsp_core::TreeBuilder;

    fn items(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| i ^ 0xA5A5).collect()
    }

    fn flat_machine() -> MachineTree {
        TreeBuilder::flat(
            1.0,
            100.0,
            &[(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 0.35)],
        )
        .unwrap()
    }

    fn hbsp2_machine() -> MachineTree {
        TreeBuilder::two_level(
            1.0,
            500.0,
            &[
                (50.0, vec![(1.0, 1.0), (2.0, 0.5), (2.0, 0.5)]),
                (80.0, vec![(2.5, 0.4), (3.0, 0.3)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_flat_plans_deliver_everywhere() {
        let t = flat_machine();
        let data = items(997); // odd size exercises remainder handling
        for plan in [
            BroadcastPlan::one_phase(),
            BroadcastPlan::two_phase(),
            BroadcastPlan::slow_root(),
            BroadcastPlan::balanced(),
        ] {
            let run = broadcast::run(&sim(&t), &data, plan).unwrap();
            assert_eq!(run.result, data, "{plan:?}");
        }
    }

    #[test]
    fn hierarchical_delivers_on_hbsp2() {
        let t = hbsp2_machine();
        let data = items(1200);
        for top in [PhasePolicy::OnePhase, PhasePolicy::TwoPhase] {
            let run = broadcast::run(&sim(&t), &data, BroadcastPlan::hierarchical(top)).unwrap();
            assert_eq!(run.result, data, "{top:?}");
        }
    }

    #[test]
    fn two_phase_beats_one_phase_with_enough_processors() {
        // §4.4: one-phase costs g·n·m at the root; two-phase
        // g·n(1 + r_s) + 2L. With m = 8 and r_s = 2 two-phase wins.
        let t = TreeBuilder::flat(
            1.0,
            100.0,
            &[
                (1.0, 1.0),
                (1.2, 0.9),
                (1.4, 0.8),
                (1.6, 0.7),
                (1.8, 0.6),
                (2.0, 0.5),
                (2.0, 0.5),
                (2.0, 0.5),
            ],
        )
        .unwrap();
        let data = items(16_000);
        let one = broadcast::run(&sim(&t), &data, BroadcastPlan::one_phase())
            .unwrap()
            .time;
        let two = broadcast::run(&sim(&t), &data, BroadcastPlan::two_phase())
            .unwrap()
            .time;
        assert!(
            two < one,
            "two-phase {two} should beat one-phase {one} at p=8"
        );
    }

    #[test]
    fn one_phase_wins_at_tiny_p_with_slow_peer() {
        // The crossover's other side: p = 2 with a very slow peer —
        // two-phase pays the extra superstep + the slow machine's
        // redistribution for nothing.
        let t = TreeBuilder::flat(1.0, 500.0, &[(1.0, 1.0), (6.0, 0.2)]).unwrap();
        let data = items(2_000);
        let one = broadcast::run(&sim(&t), &data, BroadcastPlan::one_phase())
            .unwrap()
            .time;
        let two = broadcast::run(&sim(&t), &data, BroadcastPlan::two_phase())
            .unwrap()
            .time;
        assert!(
            one < two,
            "one-phase {one} should beat two-phase {two} at p=2, r_s=6"
        );
    }

    #[test]
    fn root_choice_barely_matters() {
        // Figure 4(a): negligible improvement from a fast root — the
        // slowest processor must receive all n items either way.
        let t = flat_machine();
        let data = items(40_000);
        let tf = broadcast::run(&sim(&t), &data, BroadcastPlan::two_phase())
            .unwrap()
            .time;
        let ts = broadcast::run(&sim(&t), &data, BroadcastPlan::slow_root())
            .unwrap()
            .time;
        let factor = ts / tf;
        assert!(
            (0.8..1.4).contains(&factor),
            "broadcast root choice should change little: T_s/T_f = {factor}"
        );
    }

    #[test]
    fn empty_broadcast() {
        let t = flat_machine();
        let run = broadcast::run(&sim(&t), &[], BroadcastPlan::two_phase()).unwrap();
        assert!(run.result.is_empty());
    }

    #[test]
    fn single_proc_broadcast() {
        let mut b = TreeBuilder::new(1.0);
        b.proc_root("solo", hbsp_core::NodeParams::fastest());
        let t = b.build().unwrap();
        let data = items(10);
        let run = broadcast::run(
            &sim(&t),
            &data,
            BroadcastPlan::hierarchical(PhasePolicy::TwoPhase),
        )
        .unwrap();
        assert_eq!(run.result, data);
    }

    #[test]
    fn hierarchical_crosses_top_level_once_per_cluster() {
        let t = hbsp2_machine();
        let data = items(5000);
        let hier = broadcast::run(
            &sim(&t),
            &data,
            BroadcastPlan::hierarchical(PhasePolicy::OnePhase),
        )
        .unwrap();
        let flat = broadcast::run(&sim(&t), &data, BroadcastPlan::one_phase()).unwrap();
        let hier_top: u64 = hier.sim.steps.iter().map(|s| s.traffic[2].words).sum();
        let flat_top: u64 = flat.sim.steps.iter().map(|s| s.traffic[2].words).sum();
        assert!(
            hier_top < flat_top,
            "hierarchy confines traffic: {hier_top} vs flat {flat_top} words at level 2"
        );
    }
}
