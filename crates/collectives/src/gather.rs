//! The gather operation (§4.2 flat / §4.3 hierarchical).
//!
//! *Gather* collects every processor's piece at a single root. The flat
//! (HBSP^1) algorithm is one superstep: every non-root processor sends
//! its `x_j = c_j·n` items directly to the root. The hierarchical
//! (HBSP^k) algorithm runs one super^i-step per level: each level-`i`
//! cluster's coordinator collects its cluster's data, then forwards the
//! bundle upward, so only one (fast) machine per cluster talks across
//! the expensive high-level links.

use crate::data::partition_for;
use crate::error::CollectiveError;
use crate::plan::{RankOutOfRange, RootPolicy, Strategy, WorkloadPolicy};
use crate::schedule::{
    self, rep_of, subtree_units, CommSchedule, ScheduleStep, Staging, Transfer, UnitId,
};
use hbsp_core::{MachineTree, ProcId, SyncScope};
use hbsp_sim::SimOutcome;
use hbsplib::Executor;

/// Configuration of a gather run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherPlan {
    /// Destination processor (flat strategy only; the hierarchical
    /// algorithm always collects at the coordinators, ending at `P_f`).
    pub root: RootPolicy,
    /// How the input is spread over processors before the gather.
    pub workload: WorkloadPolicy,
    /// Flat (§4.2) or hierarchical (§4.3).
    pub strategy: Strategy,
}

impl GatherPlan {
    /// The model's recommendation: fastest root, equal shares
    /// (Figure 3a's `T_f` configuration).
    pub fn fast_root() -> Self {
        GatherPlan {
            root: RootPolicy::Fastest,
            workload: WorkloadPolicy::Equal,
            strategy: Strategy::Flat,
        }
    }

    /// Adversarial root: the slowest processor (Figure 3a's `T_s`).
    pub fn slow_root() -> Self {
        GatherPlan {
            root: RootPolicy::Slowest,
            workload: WorkloadPolicy::Equal,
            strategy: Strategy::Flat,
        }
    }

    /// Fastest root with speed-proportional shares (Figure 3b's `T_b`).
    pub fn balanced() -> Self {
        GatherPlan {
            root: RootPolicy::Fastest,
            workload: WorkloadPolicy::Balanced,
            strategy: Strategy::Flat,
        }
    }

    /// The HBSP^k hierarchical gather (§4.3).
    pub fn hierarchical() -> Self {
        GatherPlan {
            root: RootPolicy::Fastest,
            workload: WorkloadPolicy::Equal,
            strategy: Strategy::Hierarchical,
        }
    }

    /// What a heterogeneity-oblivious BSP program does: rank-0 root,
    /// equal shares, flat.
    pub fn bsp_baseline() -> Self {
        GatherPlan {
            root: RootPolicy::Rank(0),
            workload: WorkloadPolicy::Equal,
            strategy: Strategy::Flat,
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

/// Lower a gather plan to its communication schedule, resolving the
/// root. The flat strategy is one global superstep of direct sends; the
/// hierarchical strategy runs one super^i-step per level with each
/// cluster's coordinator forwarding its accumulated bundle upward.
pub fn lower_gather(
    tree: &MachineTree,
    n: u64,
    plan: GatherPlan,
) -> Result<(CommSchedule, ProcId), RankOutOfRange> {
    match plan.strategy {
        Strategy::Flat => {
            let root = plan.root.resolve(tree)?;
            Ok((lower_flat_gather(tree, n, root, plan.workload), root))
        }
        Strategy::Hierarchical => Ok((
            lower_hierarchical_gather(tree, n, plan.workload),
            tree.fastest_proc(),
        )),
    }
}

/// §4.2's flat gather as a schedule: every non-root sends its share to
/// `root` in one global superstep (no self-send), then the root drains.
pub fn lower_flat_gather(
    tree: &MachineTree,
    n: u64,
    root: ProcId,
    workload: WorkloadPolicy,
) -> CommSchedule {
    let partition = partition_for(tree, n, workload);
    let mut step = ScheduleStep::at(SyncScope::global(tree));
    for j in 0..tree.num_procs() {
        let pid = ProcId(j as u32);
        if pid == root {
            continue;
        }
        let unit = schedule::share_unit(&partition, pid);
        step.transfers.push(Transfer::bundle(pid, root, vec![unit]));
    }
    let mut sched = CommSchedule::new();
    sched.push(step);
    sched.push(ScheduleStep::drain());
    sched
}

/// §4.3's hierarchical gather as a schedule: at super^i-step `i`, the
/// coordinator of every level-(i−1) unit forwards its accumulated
/// bundle to its level-`i` coordinator.
pub fn lower_hierarchical_gather(
    tree: &MachineTree,
    n: u64,
    workload: WorkloadPolicy,
) -> CommSchedule {
    let partition = partition_for(tree, n, workload);
    let mut sched = CommSchedule::new();
    for level in 1..=tree.height() {
        let mut step = ScheduleStep::at(SyncScope::Level(level));
        for &cluster in tree.level_nodes(level).unwrap_or_default() {
            let node = tree.node(cluster);
            if node.is_proc() {
                continue;
            }
            let rep_pid = rep_of(tree, cluster);
            for &child in node.children() {
                let child_rep = rep_of(tree, child);
                if child_rep == rep_pid {
                    continue;
                }
                let units = subtree_units(tree, child, &partition);
                let hop = Transfer::bundle(child_rep, rep_pid, units);
                step.transfers.push(hop);
            }
        }
        sched.push(step);
    }
    sched.push(ScheduleStep::drain());
    sched
}

/// Outcome of a gather run.
#[derive(Debug, Clone)]
pub struct GatherRun {
    /// The gathered array, in item order, as held by the root.
    pub result: Vec<u32>,
    /// Model execution time `T`.
    pub time: f64,
    /// Full virtual-time outcome (per-step stats etc.).
    pub sim: SimOutcome,
    /// The processor that ended up holding the result.
    pub root: ProcId,
}

/// Run a gather of `items` under `plan` on `exec`'s machine and engine:
/// lower the plan to its schedule, execute it, read the result off the
/// root.
pub fn run(exec: &Executor, items: &[u32], plan: GatherPlan) -> Result<GatherRun, CollectiveError> {
    let (sched, root) = lower_gather(exec.tree(), items.len() as u64, plan)?;
    let input = Staging::Shares(items, plan.workload);
    let (outcome, states) = schedule::run_staged(exec, sched, input, None)?;
    Ok(GatherRun {
        result: schedule::result_at(&states, root, Some(UnitId::new(0, items.len() as u32)))?,
        time: outcome.total_time(),
        sim: outcome.sim,
        root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather;
    use crate::schedule::sim;
    use hbsp_core::TreeBuilder;

    fn items(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect()
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
                (50.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                (80.0, vec![(2.5, 0.4), (3.0, 0.35), (3.0, 0.3)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn flat_gather_collects_everything_in_order() {
        let t = flat_machine();
        let data = items(1000);
        for plan in [
            GatherPlan::fast_root(),
            GatherPlan::slow_root(),
            GatherPlan::balanced(),
            GatherPlan::bsp_baseline(),
        ] {
            let run = gather::run(&sim(&t), &data, plan).unwrap();
            assert_eq!(run.result, data, "{plan:?}");
            assert_eq!(run.sim.num_steps(), 2);
        }
    }

    #[test]
    fn hierarchical_gather_collects_on_hbsp2() {
        let t = hbsp2_machine();
        let data = items(2000);
        let run = gather::run(&sim(&t), &data, GatherPlan::hierarchical()).unwrap();
        assert_eq!(run.result, data);
        assert_eq!(run.root, t.fastest_proc());
        // k supersteps + final drain.
        assert_eq!(run.sim.num_steps(), 3);
        // The super^1-step synchronizes clusters, the super^2-step the root.
        assert_eq!(run.sim.steps[0].scope, SyncScope::Level(1));
        assert_eq!(run.sim.steps[1].scope, SyncScope::Level(2));
    }

    #[test]
    fn hierarchical_moves_less_data_across_the_top_level() {
        let t = hbsp2_machine();
        let data = items(4000);
        let hier = gather::run(&sim(&t), &data, GatherPlan::hierarchical()).unwrap();
        let flat = gather::run(&sim(&t), &data, GatherPlan::fast_root()).unwrap();
        // The hierarchical gather sends one bundle per cluster across
        // level 2; the flat gather pushes every non-root piece across it.
        assert!(hier.sim.steps[1].traffic[2].messages < flat.sim.steps[0].traffic[2].messages);
        assert_eq!(hier.result, flat.result);
    }

    #[test]
    fn fast_root_beats_slow_root_at_scale() {
        // Figure 3(a)'s headline: with several processors, rooting the
        // gather at P_f wins.
        let t = TreeBuilder::flat(
            1.0,
            100.0,
            &[
                (1.0, 1.0),
                (2.0, 0.5),
                (2.5, 0.42),
                (3.0, 0.35),
                (3.5, 0.3),
                (4.0, 0.25),
            ],
        )
        .unwrap();
        let data = items(24_000);
        let tf = gather::run(&sim(&t), &data, GatherPlan::fast_root())
            .unwrap()
            .time;
        let ts = gather::run(&sim(&t), &data, GatherPlan::slow_root())
            .unwrap()
            .time;
        assert!(ts > tf, "slow root {ts} should exceed fast root {tf}");
    }

    #[test]
    fn p2_anomaly_slow_root_wins() {
        // Figure 3(a) at p = 2: with no self-send, rooting at P_s means
        // the slow machine only unpacks, which beats it packing+sending.
        let t = TreeBuilder::flat(1.0, 100.0, &[(1.0, 1.0), (3.0, 0.33)]).unwrap();
        let data = items(10_000);
        let tf = gather::run(&sim(&t), &data, GatherPlan::fast_root())
            .unwrap()
            .time;
        let ts = gather::run(&sim(&t), &data, GatherPlan::slow_root())
            .unwrap()
            .time;
        assert!(
            ts < tf,
            "at p=2 the slow root should win: T_s={ts}, T_f={tf}"
        );
    }

    #[test]
    fn hierarchical_on_flat_machine_equals_flat_fast_root() {
        let t = flat_machine();
        let data = items(500);
        let h = gather::run(&sim(&t), &data, GatherPlan::hierarchical()).unwrap();
        let f = gather::run(&sim(&t), &data, GatherPlan::fast_root()).unwrap();
        assert_eq!(h.result, f.result);
        assert_eq!(h.root, f.root);
        assert!(
            (h.time - f.time).abs() < 1e-9,
            "same algorithm on an HBSP^1 machine"
        );
    }

    #[test]
    fn single_processor_gather_is_trivial() {
        let mut b = TreeBuilder::new(1.0);
        b.proc_root("solo", hbsp_core::NodeParams::fastest());
        let t = b.build().unwrap();
        let data = items(100);
        let run = gather::run(&sim(&t), &data, GatherPlan::hierarchical()).unwrap();
        assert_eq!(run.result, data);
        assert_eq!(run.sim.messages_delivered, 0);
    }

    #[test]
    fn empty_input_gathers_empty() {
        let t = flat_machine();
        let run = gather::run(&sim(&t), &[], GatherPlan::fast_root()).unwrap();
        assert!(run.result.is_empty());
    }
}
