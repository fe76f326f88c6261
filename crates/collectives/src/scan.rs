//! Scan (inclusive prefix reduction across ranks): processor `j` ends
//! with `v_0 ⊕ v_1 ⊕ … ⊕ v_j`. One superstep: each processor sends its
//! vector to every higher rank, then folds what it received in rank
//! order — the direct BSP scan of Juurlink & Wijshoff's communication
//! primitives, adapted to the heterogeneous cost model.

use crate::error::{shape, CollectiveError};
use crate::reduce::ReduceOp;
use crate::schedule::{self, CommSchedule, Role, ScheduleStep, Staging, Transfer};
use hbsp_core::{MachineTree, ProcId, SyncScope};
use hbsp_sim::SimOutcome;
use hbsplib::Executor;

/// The direct BSP scan as a schedule: one global superstep where every
/// rank sends its partial vector to all higher ranks; rank `j`'s
/// `j·veclen` folding work is charged on the drain step, where it
/// folds its contributions.
pub fn lower_scan(tree: &MachineTree, veclen: u64) -> CommSchedule {
    let p = tree.num_procs();
    let mut step = ScheduleStep::at(SyncScope::global(tree));
    let mut drain = ScheduleStep::drain();
    for i in 0..p {
        for j in i + 1..p {
            step.transfers.push(Transfer {
                src: ProcId(i as u32),
                dst: ProcId(j as u32),
                words: veclen,
                role: Role::Partial,
            });
        }
    }
    for j in 1..p {
        if veclen > 0 {
            drain
                .work
                .push((ProcId(j as u32), j as f64 * veclen as f64));
        }
    }
    let mut sched = CommSchedule::new();
    sched.push(step);
    sched.push(drain);
    sched
}

/// Outcome of a scan run.
#[derive(Debug, Clone)]
pub struct ScanRun {
    /// `prefixes[j]` = the inclusive prefix at rank `j`.
    pub prefixes: Vec<Vec<u32>>,
    /// Model execution time.
    pub time: f64,
    /// Full virtual-time outcome.
    pub sim: SimOutcome,
}

/// Run an inclusive prefix scan of `vectors[rank]` with `op` on `exec`'s
/// machine and engine: lower to a schedule, execute it, read every
/// rank's accumulator.
pub fn run(
    exec: &Executor,
    vectors: Vec<Vec<u32>>,
    op: ReduceOp,
) -> Result<ScanRun, CollectiveError> {
    let p = exec.tree().num_procs();
    shape("vectors", p, [vectors.len()])?;
    shape(
        "words in a vector",
        vectors[0].len(),
        vectors.iter().map(Vec::len),
    )?;
    let veclen = vectors[0].len() as u64;
    let sched = lower_scan(exec.tree(), veclen);
    let input = Staging::Accumulators(vectors);
    let (outcome, states) = schedule::run_staged(exec, sched, input, Some(op))?;
    let prefixes = (0..p)
        .map(|j| schedule::result_at(&states, ProcId(j as u32), None))
        .collect::<Result<_, _>>()?;
    Ok(ScanRun {
        prefixes,
        time: outcome.total_time(),
        sim: outcome.sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan;
    use crate::schedule::sim;
    use hbsp_core::TreeBuilder;

    #[test]
    fn scan_matches_sequential_prefixes() {
        let t = TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5), (2.0, 0.4), (3.0, 0.3)])
            .unwrap();
        let vs: Vec<Vec<u32>> = (0..4)
            .map(|i| (0..16).map(|j| (i * 7 + j) as u32).collect())
            .collect();
        let run = scan::run(&sim(&t), vs.clone(), ReduceOp::Sum).unwrap();
        let mut acc = vs[0].clone();
        assert_eq!(run.prefixes[0], acc);
        for (j, v) in vs.iter().enumerate().skip(1) {
            ReduceOp::Sum.fold_into(&mut acc, v);
            assert_eq!(run.prefixes[j], acc, "rank {j}");
        }
    }

    #[test]
    fn scan_with_min() {
        let t = TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (2.0, 0.5), (2.0, 0.5)]).unwrap();
        let vs = vec![vec![5, 9], vec![3, 10], vec![4, 1]];
        let run = scan::run(&sim(&t), vs, ReduceOp::Min).unwrap();
        assert_eq!(run.prefixes, vec![vec![5, 9], vec![3, 9], vec![3, 1]]);
    }

    #[test]
    fn rank_zero_keeps_its_vector() {
        let t = TreeBuilder::homogeneous(1.0, 1.0, 3).unwrap();
        let vs = vec![vec![1], vec![2], vec![3]];
        let run = scan::run(&sim(&t), vs, ReduceOp::Max).unwrap();
        assert_eq!(run.prefixes[0], vec![1]);
        assert_eq!(run.sim.messages_delivered, 3, "ranks send only upward");
    }
}
