//! Reduction: combine equal-length vectors elementwise at a root
//! (reduce) or at everyone (allreduce). The hierarchical variant
//! combines inside each cluster first, so only one already-reduced
//! vector per cluster crosses the expensive links — unlike gather, the
//! payload *shrinks* at each level, which is where hierarchy pays off
//! most.

use crate::broadcast::{self, BroadcastPlan, BroadcastRun};
use crate::error::CollectiveError;
use crate::plan::PhasePolicy;
use crate::plan::{RootPolicy, Strategy};
use crate::schedule::{self, rep_of, CommSchedule, Role, ScheduleStep, Staging, Transfer};
use hbsp_core::{MachineTree, ProcId, SyncScope};
use hbsp_sim::SimOutcome;
use hbsplib::Executor;

/// The elementwise combining operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Wrapping sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl ReduceOp {
    /// Combine two values.
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// Combine `b` into `a` elementwise.
    pub fn fold_into(self, a: &mut [u32], b: &[u32]) {
        assert_eq!(a.len(), b.len(), "reduce vectors must have equal length");
        for (x, &y) in a.iter_mut().zip(b) {
            *x = self.apply(*x, y);
        }
    }

    /// Sequential reference reduction.
    pub fn reference(self, vectors: &[Vec<u32>]) -> Vec<u32> {
        let mut acc = vectors[0].clone();
        for v in &vectors[1..] {
            self.fold_into(&mut acc, v);
        }
        acc
    }
}

/// Nominal work units for combining one element pair (used for the
/// model's `w` term).
const COMBINE_COST: f64 = 1.0;

/// Flat reduce as a schedule: one global superstep of partial vectors
/// to the root, whose combining work is charged on the drain step
/// (where the root folds them).
pub fn lower_flat_reduce(tree: &MachineTree, veclen: u64, root: ProcId) -> CommSchedule {
    let mut step = ScheduleStep::at(SyncScope::global(tree));
    let mut senders = 0u64;
    for j in 0..tree.num_procs() {
        let q = ProcId(j as u32);
        if q != root {
            step.transfers.push(Transfer {
                src: q,
                dst: root,
                words: veclen,
                role: Role::Partial,
            });
            senders += 1;
        }
    }
    let mut drain = ScheduleStep::drain();
    if senders > 0 && veclen > 0 {
        drain
            .work
            .push((root, senders as f64 * veclen as f64 * COMBINE_COST));
    }
    let mut sched = CommSchedule::new();
    sched.push(step);
    sched.push(drain);
    sched
}

/// Hierarchical reduce as a schedule: one super^i-step per level,
/// cluster coordinators folding their children's partials (charged on
/// the step after the vectors arrive) and forwarding one combined
/// vector upward — the payload shrinks at every level.
pub fn lower_hierarchical_reduce(tree: &MachineTree, veclen: u64) -> CommSchedule {
    let k = tree.height();
    let mut steps: Vec<ScheduleStep> = (1..=k)
        .map(|level| ScheduleStep::at(SyncScope::Level(level)))
        .collect();
    steps.push(ScheduleStep::drain());
    for level in 1..=k {
        let s = (level - 1) as usize;
        for &idx in tree.level_nodes(level).unwrap_or(&[]) {
            if tree.node(idx).is_proc() {
                continue;
            }
            let rep = rep_of(tree, idx);
            let mut received = 0u64;
            for &child in tree.node(idx).children() {
                let child_rep = rep_of(tree, child);
                if child_rep != rep {
                    steps[s].transfers.push(Transfer {
                        src: child_rep,
                        dst: rep,
                        words: veclen,
                        role: Role::Partial,
                    });
                    received += 1;
                }
            }
            if received > 0 && veclen > 0 {
                steps[s + 1]
                    .work
                    .push((rep, received as f64 * veclen as f64 * COMBINE_COST));
            }
        }
    }
    let mut sched = CommSchedule::new();
    for step in steps {
        sched.push(step);
    }
    sched
}

/// Outcome of a reduce run.
#[derive(Debug, Clone)]
pub struct ReduceRun {
    /// The combined vector as held by the root.
    pub result: Vec<u32>,
    /// Model execution time.
    pub time: f64,
    /// Full virtual-time outcome.
    pub sim: SimOutcome,
    /// The processor holding the result.
    pub root: ProcId,
}

/// Run a reduce of `vectors[rank]` (all equal length) with `op` on
/// `exec`'s machine and engine: lower the strategy to a schedule,
/// execute it, read the root's accumulator.
pub fn run(
    exec: &Executor,
    vectors: Vec<Vec<u32>>,
    op: ReduceOp,
    root: RootPolicy,
    strategy: Strategy,
) -> Result<ReduceRun, CollectiveError> {
    let tree = exec.tree();
    assert_eq!(vectors.len(), tree.num_procs(), "one vector per processor");
    assert!(
        vectors.windows(2).all(|w| w[0].len() == w[1].len()),
        "reduce vectors must have equal length"
    );
    let veclen = vectors[0].len() as u64;
    let (sched, root) = match strategy {
        Strategy::Flat => {
            let root = root.resolve(tree)?;
            (lower_flat_reduce(tree, veclen, root), root)
        }
        Strategy::Hierarchical => (lower_hierarchical_reduce(tree, veclen), tree.fastest_proc()),
    };
    let input = Staging::Accumulators(vectors);
    let (outcome, states) = schedule::run_staged(exec, sched, input, Some(op))?;
    Ok(ReduceRun {
        result: schedule::result_at(&states, root, None)?,
        time: outcome.total_time(),
        sim: outcome.sim,
        root,
    })
}

/// Allreduce: reduce to `P_f`, then broadcast the result (two composed
/// collectives, as in the dissertation's suite). Returns both runs: the
/// combined vector everyone holds is the broadcast's `result`, the
/// operation's time the sum of the two `time`s.
pub fn allreduce(
    exec: &Executor,
    vectors: Vec<Vec<u32>>,
    op: ReduceOp,
    strategy: Strategy,
) -> Result<(ReduceRun, BroadcastRun), CollectiveError> {
    let reduced = run(exec, vectors, op, RootPolicy::Fastest, strategy)?;
    let plan = match strategy {
        Strategy::Flat => BroadcastPlan::two_phase(),
        Strategy::Hierarchical => BroadcastPlan::hierarchical(PhasePolicy::TwoPhase),
    };
    let spread = broadcast::run(exec, &reduced.result, plan)?;
    Ok((reduced, spread))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce;
    use crate::schedule::sim;
    use hbsp_core::TreeBuilder;

    fn vectors(p: usize, len: usize) -> Vec<Vec<u32>> {
        (0..p)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 31 + j * 17) % 1000) as u32)
                    .collect()
            })
            .collect()
    }

    fn machine() -> MachineTree {
        TreeBuilder::two_level(
            1.0,
            200.0,
            &[
                (20.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                (30.0, vec![(2.0, 0.4), (3.0, 0.3)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn reduce_matches_sequential_reference() {
        let t = machine();
        let vs = vectors(4, 128);
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let want = op.reference(&vs);
            for strat in [Strategy::Flat, Strategy::Hierarchical] {
                let run =
                    reduce::run(&sim(&t), vs.clone(), op, RootPolicy::Fastest, strat).unwrap();
                assert_eq!(run.result, want, "{op:?} {strat:?}");
            }
        }
    }

    #[test]
    fn sum_wraps() {
        assert_eq!(ReduceOp::Sum.apply(u32::MAX, 2), 1);
    }

    #[test]
    fn hierarchical_reduce_shrinks_cross_cluster_traffic() {
        let t = TreeBuilder::two_level(
            1.0,
            100.0,
            &[
                (10.0, vec![(1.0, 1.0), (1.5, 0.6), (1.5, 0.6)]),
                (10.0, vec![(2.0, 0.5), (2.0, 0.5), (2.5, 0.4)]),
            ],
        )
        .unwrap();
        let vs = vectors(6, 1024);
        let flat = reduce::run(
            &sim(&t),
            vs.clone(),
            ReduceOp::Sum,
            RootPolicy::Fastest,
            Strategy::Flat,
        )
        .unwrap();
        let hier = reduce::run(
            &sim(&t),
            vs,
            ReduceOp::Sum,
            RootPolicy::Fastest,
            Strategy::Hierarchical,
        )
        .unwrap();
        let top =
            |run: &ReduceRun| -> u64 { run.sim.steps.iter().map(|s| s.traffic[2].words).sum() };
        assert!(top(&hier) < top(&flat), "{} vs {}", top(&hier), top(&flat));
        assert_eq!(flat.result, hier.result);
    }

    #[test]
    fn allreduce_delivers_same_result() {
        let t = machine();
        let vs = vectors(4, 64);
        let want = ReduceOp::Max.reference(&vs);
        for strat in [Strategy::Flat, Strategy::Hierarchical] {
            let (reduced, spread) =
                reduce::allreduce(&sim(&t), vs.clone(), ReduceOp::Max, strat).unwrap();
            assert_eq!(reduced.result, want, "{strat:?}");
            assert_eq!(spread.result, want, "{strat:?}");
            for (time, sim) in [(reduced.time, &reduced.sim), (spread.time, &spread.sim)] {
                assert_eq!(time.to_bits(), sim.total_time.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn unequal_lengths_rejected() {
        let t = TreeBuilder::homogeneous(1.0, 0.0, 2).unwrap();
        reduce::run(
            &sim(&t),
            vec![vec![1, 2], vec![3]],
            ReduceOp::Sum,
            RootPolicy::Fastest,
            Strategy::Flat,
        )
        .unwrap();
    }
}
