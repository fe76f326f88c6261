//! All-gather: every processor ends with the concatenation of all
//! pieces. Flat variant: direct total exchange of pieces (one
//! superstep). Hierarchical variant: gather to the coordinators, then
//! broadcast back down — trading supersteps for confinement of traffic
//! to cheap links.

use crate::broadcast::lower_hierarchical_broadcast;
use crate::data::partition_for;
use crate::error::CollectiveError;
use crate::gather::lower_hierarchical_gather;
use crate::plan::{PhasePolicy, Strategy, WorkloadPolicy};
use crate::schedule::{self, share_unit, CommSchedule, ScheduleStep, Staging, Transfer};
use hbsp_core::{MachineTree, ProcId, SyncScope};
use hbsp_sim::SimOutcome;
use hbsplib::Executor;

/// Flat all-gather as a schedule: one global superstep of total
/// exchange, every processor bundling its share to every other.
pub fn lower_flat_allgather(tree: &MachineTree, n: u64, workload: WorkloadPolicy) -> CommSchedule {
    let partition = partition_for(tree, n, workload);
    let mut step = ScheduleStep::at(SyncScope::global(tree));
    let p = tree.num_procs();
    for s in 0..p {
        let src = ProcId(s as u32);
        for d in 0..p {
            let dst = ProcId(d as u32);
            if dst != src {
                let unit = share_unit(&partition, src);
                step.transfers.push(Transfer::bundle(src, dst, vec![unit]));
            }
        }
    }
    let mut sched = CommSchedule::new();
    sched.push(step);
    sched.push(ScheduleStep::drain());
    sched
}

/// Hierarchical all-gather as one schedule: the hierarchical gather's
/// upward supersteps followed by the hierarchical broadcast's downward
/// ones — what used to be two separately simulated programs glued by
/// hand is now plain step concatenation on the IR.
pub fn lower_hierarchical_allgather(
    tree: &MachineTree,
    n: u64,
    workload: WorkloadPolicy,
) -> CommSchedule {
    let mut sched = CommSchedule::new();
    let up = lower_hierarchical_gather(tree, n, workload);
    let down = lower_hierarchical_broadcast(
        tree,
        n,
        PhasePolicy::TwoPhase,
        PhasePolicy::TwoPhase,
        WorkloadPolicy::Equal,
    );
    for step in up.steps.into_iter().filter(|s| s.scope.is_some()) {
        sched.push(step);
    }
    for step in down.steps {
        sched.push(step);
    }
    sched
}

/// Outcome of an all-gather run.
#[derive(Debug, Clone)]
pub struct AllGatherRun {
    /// The assembled array as the last rank holds it; every processor's
    /// copy was compared with the input.
    pub result: Vec<u32>,
    /// Model execution time.
    pub time: f64,
    /// Full virtual-time outcome.
    pub sim: SimOutcome,
}

/// Run an all-gather of `items` (pre-split by `workload`) on `exec`'s
/// machine and engine: lower to a schedule, execute it, read back what
/// the processors hold.
pub fn run(
    exec: &Executor,
    items: &[u32],
    workload: WorkloadPolicy,
    strategy: Strategy,
) -> Result<AllGatherRun, CollectiveError> {
    let n = items.len() as u64;
    let sched = match strategy {
        Strategy::Flat => lower_flat_allgather(exec.tree(), n, workload),
        Strategy::Hierarchical => lower_hierarchical_allgather(exec.tree(), n, workload),
    };
    let input = Staging::Shares(items, workload);
    let (outcome, states) = schedule::run_staged(exec, sched, input, None)?;
    Ok(AllGatherRun {
        result: schedule::held_by_all(&states, items)?,
        time: outcome.total_time(),
        sim: outcome.sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allgather;
    use crate::schedule::sim;
    use hbsp_core::TreeBuilder;

    #[test]
    fn flat_allgather_assembles_everywhere() {
        let t = TreeBuilder::flat(1.0, 20.0, &[(1.0, 1.0), (2.0, 0.5), (3.0, 0.3)]).unwrap();
        let items: Vec<u32> = (0..99).map(|i| i * 7).collect();
        let run =
            allgather::run(&sim(&t), &items, WorkloadPolicy::Balanced, Strategy::Flat).unwrap();
        assert_eq!(run.result, items);
        assert_eq!(run.sim.num_steps(), 2);
    }

    #[test]
    fn hierarchical_allgather_on_hbsp2() {
        let t = TreeBuilder::two_level(
            1.0,
            200.0,
            &[
                (20.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                (30.0, vec![(2.0, 0.4), (3.0, 0.3)]),
            ],
        )
        .unwrap();
        let items: Vec<u32> = (0..500).collect();
        let run = allgather::run(
            &sim(&t),
            &items,
            WorkloadPolicy::Equal,
            Strategy::Hierarchical,
        )
        .unwrap();
        assert_eq!(run.result, items);
    }

    #[test]
    fn hierarchical_confines_top_level_traffic() {
        let t = TreeBuilder::two_level(
            1.0,
            100.0,
            &[
                (10.0, vec![(1.0, 1.0), (1.5, 0.6), (1.5, 0.6)]),
                (10.0, vec![(2.0, 0.5), (2.0, 0.5), (2.5, 0.4)]),
            ],
        )
        .unwrap();
        let items: Vec<u32> = (0..3000).collect();
        let flat = allgather::run(&sim(&t), &items, WorkloadPolicy::Equal, Strategy::Flat).unwrap();
        let hier = allgather::run(
            &sim(&t),
            &items,
            WorkloadPolicy::Equal,
            Strategy::Hierarchical,
        )
        .unwrap();
        let top =
            |run: &AllGatherRun| -> u64 { run.sim.steps.iter().map(|s| s.traffic[2].words).sum() };
        assert!(
            top(&hier) < top(&flat),
            "hierarchical all-gather moves less across level 2: {} vs {}",
            top(&hier),
            top(&flat)
        );
    }
}
