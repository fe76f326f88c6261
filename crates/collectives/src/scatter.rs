//! Scatter: the root distributes a distinct `c_j·n`-item piece to every
//! processor (the first phase of the two-phase broadcast, as its own
//! collective — part of the suite the paper defers to \[20\]).

use crate::data::{partition_for, Piece};
use crate::error::CollectiveError;
use crate::plan::{RootPolicy, WorkloadPolicy};
use crate::schedule::{self, share_unit, CommSchedule, ScheduleStep, Staging, Transfer};
use hbsp_core::{MachineTree, ProcId, SyncScope};
use hbsp_sim::SimOutcome;
use hbsplib::Executor;

/// Lower a scatter of `n` items from `root` to a schedule: one global
/// superstep of root → processor share bundles, then the drain.
pub fn lower_scatter(
    tree: &MachineTree,
    n: u64,
    root: ProcId,
    workload: WorkloadPolicy,
) -> CommSchedule {
    let partition = partition_for(tree, n, workload);
    let mut step = ScheduleStep::at(SyncScope::global(tree));
    for j in 0..tree.num_procs() {
        let q = ProcId(j as u32);
        if q != root {
            let unit = share_unit(&partition, q);
            step.transfers.push(Transfer::bundle(root, q, vec![unit]));
        }
    }
    let mut sched = CommSchedule::new();
    sched.push(step);
    sched.push(ScheduleStep::drain());
    sched
}

/// Outcome of a scatter run.
#[derive(Debug, Clone)]
pub struct ScatterRun {
    /// Each processor's received piece, by rank.
    pub pieces: Vec<Piece>,
    /// Model execution time.
    pub time: f64,
    /// Full virtual-time outcome.
    pub sim: SimOutcome,
}

/// Scatter `items` from the root selected by `root` under the given
/// workload policy on `exec`'s machine and engine: lower to a schedule,
/// execute it, read every processor's piece.
pub fn run(
    exec: &Executor,
    items: &[u32],
    root: RootPolicy,
    workload: WorkloadPolicy,
) -> Result<ScatterRun, CollectiveError> {
    let tree = exec.tree();
    let root = root.resolve(tree)?;
    let n = items.len() as u64;
    let sched = lower_scatter(tree, n, root, workload);
    let input = Staging::AtRoot(root, items.to_vec());
    let (outcome, states) = schedule::run_staged(exec, sched, input, None)?;
    let partition = partition_for(tree, n, workload);
    let pieces = (0..tree.num_procs())
        .map(|j| {
            let pid = ProcId(j as u32);
            let uid = share_unit(&partition, pid);
            Ok(Piece {
                offset: uid.offset,
                items: schedule::result_at(&states, pid, Some(uid))?,
            })
        })
        .collect::<Result<_, CollectiveError>>()?;
    Ok(ScatterRun {
        pieces,
        time: outcome.total_time(),
        sim: outcome.sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::reassemble;
    use crate::scatter;
    use crate::schedule::sim;
    use hbsp_core::TreeBuilder;

    #[test]
    fn scatter_partitions_the_input() {
        let t = TreeBuilder::flat(1.0, 50.0, &[(1.0, 1.0), (2.0, 0.5), (2.0, 0.4)]).unwrap();
        let items: Vec<u32> = (0..300).collect();
        for wl in [WorkloadPolicy::Equal, WorkloadPolicy::Balanced] {
            let run = scatter::run(&sim(&t), &items, RootPolicy::Fastest, wl).unwrap();
            assert_eq!(reassemble(&run.pieces), items, "{wl:?}");
        }
    }

    #[test]
    fn balanced_scatter_weights_by_speed() {
        let t = TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (3.0, 0.25)]).unwrap();
        let items: Vec<u32> = (0..100).collect();
        let run = scatter::run(
            &sim(&t),
            &items,
            RootPolicy::Fastest,
            WorkloadPolicy::Balanced,
        )
        .unwrap();
        assert_eq!(run.pieces[0].len(), 80);
        assert_eq!(run.pieces[1].len(), 20);
    }

    #[test]
    fn fast_root_scatter_is_cheaper() {
        let t = TreeBuilder::flat(
            1.0,
            50.0,
            &[(1.0, 1.0), (2.0, 0.5), (3.0, 0.35), (4.0, 0.25)],
        )
        .unwrap();
        let items: Vec<u32> = (0..8000).collect();
        let tf = scatter::run(&sim(&t), &items, RootPolicy::Fastest, WorkloadPolicy::Equal)
            .unwrap()
            .time;
        let ts = scatter::run(&sim(&t), &items, RootPolicy::Slowest, WorkloadPolicy::Equal)
            .unwrap()
            .time;
        assert!(
            tf < ts,
            "the root does all the sending: T_f={tf} < T_s={ts}"
        );
    }

    #[test]
    fn bad_root_rank_is_an_error() {
        let t = TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap();
        let err = scatter::run(
            &sim(&t),
            &[1, 2, 3],
            RootPolicy::Rank(9),
            WorkloadPolicy::Equal,
        )
        .unwrap_err();
        assert!(matches!(err, CollectiveError::Root(_)), "{err}");
    }
}
