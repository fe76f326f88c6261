//! Static verification of [`CommSchedule`]s via `hbsp-check`.
//!
//! The checker reads the schedule IR itself; this module adds what only
//! the collectives know. [`holdings`] names the units each rank's staged
//! input starts with, [`verify`] runs all three schedule-level passes —
//! structural checks, the conservative matched-send/receive dataflow
//! analysis, and h-relation consistency between the transfers and what
//! [`crate::predict()`] charges — and [`standard_lowerings`] is the one
//! table of the 13 lowerings every machine is checked with.
//!
//! [`crate::schedule::ScheduleProgram`] overrides `SpmdProgram::preflight` with
//! [`verify`], so both engines reject fatally malformed schedules at
//! submit time (on by default in debug builds; see
//! `hbsplib::Executor::check`).

use crate::allgather::{lower_flat_allgather, lower_hierarchical_allgather};
use crate::alltoall::{lower_alltoall, lower_alltoall_hier};
use crate::broadcast::{lower_flat_broadcast, lower_hierarchical_broadcast};
use crate::gather::{lower_flat_gather, lower_hierarchical_gather};
use crate::plan::{PhasePolicy, WorkloadPolicy};
use crate::reduce::{lower_flat_reduce, lower_hierarchical_reduce, ReduceOp};
use crate::scan::lower_scan;
use crate::scatter::lower_scatter;
use crate::schedule::{stage, CommSchedule, ProcInit, Staging};
pub use hbsp_check::Violation;
use hbsp_check::{verify_dataflow, verify_hrelation, verify_schedule, ProcHoldings};
use hbsp_core::MachineTree;
use std::sync::Arc;

/// A copy of `schedule`, which the checker reads as it is. Kept only for
/// the frozen benchmark surface (`benchmark/src/api.rs`) until the
/// benchmark is re-anchored (ROADMAP item 5).
pub fn schedule_view(schedule: &CommSchedule) -> CommSchedule {
    schedule.clone()
}

/// The units and accumulators each rank starts with, as the checker's
/// dataflow pass takes them.
pub fn holdings(init: &[ProcInit]) -> Vec<ProcHoldings> {
    init.iter()
        .map(|p| ProcHoldings {
            units: p.units.iter().map(|&(uid, _)| uid).collect(),
            has_acc: p.acc.is_some(),
        })
        .collect()
}

/// Statically verify a schedule against its machine, initial
/// placements, and reduction operator: structural invariants, dataflow
/// (every transfer sends data its source holds at that superstep), and
/// h-relation consistency (the h implied by each step's transfers
/// equals the h [`crate::predict::predict`] charges via
/// [`crate::schedule::step_hrelation`]).
///
/// Returns every violation, lint-grade included; filter with
/// [`Violation::is_fatal`] for go/no-go decisions.
pub fn verify(
    tree: &MachineTree,
    schedule: &CommSchedule,
    init: &[ProcInit],
    has_op: bool,
) -> Vec<Violation> {
    let mut out = verify_schedule(tree, schedule);
    out.extend(verify_dataflow(tree, schedule, &holdings(init), has_op));
    out.extend(verify_hrelation(tree, schedule));
    out
}

/// One standard lowering on one machine, ready to verify or run.
#[derive(Debug, Clone)]
pub struct Lowering {
    /// Which collective/strategy was lowered.
    pub name: &'static str,
    /// The lowered schedule.
    pub schedule: CommSchedule,
    /// Each rank's staged input, shared by the lowerings of one kind.
    pub init: Arc<Vec<ProcInit>>,
    /// The reduction operator (reduce and scan).
    pub op: Option<ReduceOp>,
}

/// All seven collectives, flat and hierarchical — 13 lowerings — for
/// `n` items on `tree`, each with its staged input. The words tell every
/// unit and every rank's partial apart: item `i` is `7000 + i`, block
/// `i → j`'s word `x` is `1000·i + 100·j + x`, and rank `i`'s partial is
/// `1 << i` (rotated, so no machine overflows it). Reduce and scan move
/// at least one word.
pub fn standard_lowerings(tree: &MachineTree, n: u64) -> Vec<Lowering> {
    let p = tree.num_procs();
    let t = tree;
    let (root, w, m) = (t.fastest_proc(), WorkloadPolicy::Balanced, n.max(1));
    let items: Vec<u32> = (0..n as u32).map(|i| 7000 + i).collect();
    let shares = (Arc::new(stage(t, Staging::Shares(&items, w))), None);
    let rooted = (Arc::new(stage(t, Staging::AtRoot(root, items))), None);
    let partials = (0..p).map(|i| vec![1u32.rotate_left(i as u32); m as usize]);
    let accs = Arc::new(stage(t, Staging::Accumulators(partials.collect())));
    let accs = (accs, Some(ReduceOp::Sum));
    let sizes: Vec<Vec<u64>> = (0..p)
        .map(|i| (0..p).map(|j| ((i + 2 * j) % 5 + 1) as u64).collect())
        .collect();
    let block = |i: usize, j: usize| {
        let (words, base) = (0..sizes[i][j] as u32, (1000 * i + 100 * j) as u32);
        words.map(|x| base + x).collect()
    };
    let blocks = (0..p).map(|i| (0..p).map(|j| block(i, j)).collect());
    let blocks = (Arc::new(stage(t, Staging::Blocks(blocks.collect()))), None);
    let (one, two) = (PhasePolicy::OnePhase, PhasePolicy::TwoPhase);
    let case = |name, schedule, (init, op): &(Arc<Vec<ProcInit>>, _)| Lowering {
        name,
        schedule,
        init: Arc::clone(init),
        op: *op,
    };
    vec![
        case("gather/flat", lower_flat_gather(t, n, root, w), &shares),
        case("gather/hier", lower_hierarchical_gather(t, n, w), &shares),
        case(
            "broadcast/flat/one-phase",
            lower_flat_broadcast(t, n, root, one, w),
            &rooted,
        ),
        case(
            "broadcast/flat/two-phase",
            lower_flat_broadcast(t, n, root, two, w),
            &rooted,
        ),
        case(
            "broadcast/hier",
            lower_hierarchical_broadcast(t, n, two, two, w),
            &rooted,
        ),
        case("scatter", lower_scatter(t, n, root, w), &rooted),
        case("allgather/flat", lower_flat_allgather(t, n, w), &shares),
        case(
            "allgather/hier",
            lower_hierarchical_allgather(t, n, w),
            &shares,
        ),
        case("alltoall/flat", lower_alltoall(t, &sizes), &blocks),
        case("alltoall/hier", lower_alltoall_hier(t, &sizes), &blocks),
        case("reduce/flat", lower_flat_reduce(t, m, root), &accs),
        case("reduce/hier", lower_hierarchical_reduce(t, m), &accs),
        case("scan", lower_scan(t, m), &accs),
    ]
}

/// One verified lowering out of [`verify_standard_lowerings`].
#[derive(Debug, Clone)]
pub struct VerifiedLowering {
    /// Which collective/strategy was lowered.
    pub name: &'static str,
    /// Everything the verifier found (empty = clean).
    pub violations: Vec<Violation>,
}

/// [`verify`] each of the [`standard_lowerings`] for `n` items on
/// `tree`. Used by `hbsp_check --schedules` and the randomized
/// clean-verification tests.
pub fn verify_standard_lowerings(tree: &MachineTree, n: u64) -> Vec<VerifiedLowering> {
    let verified = |l: Lowering| VerifiedLowering {
        name: l.name,
        violations: verify(tree, &l.schedule, &l.init, l.op.is_some()),
    };
    standard_lowerings(tree, n)
        .into_iter()
        .map(verified)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather;
    use crate::schedule::{share_inits, Role, ScheduleStep, Transfer, UnitId};
    use hbsp_core::{ProcId, SyncScope, TreeBuilder};

    fn campus() -> MachineTree {
        TreeBuilder::two_level(
            1.0,
            500.0,
            &[
                (50.0, vec![(1.0, 1.0), (1.5, 0.8)]),
                (100.0, vec![(2.0, 0.5), (3.0, 0.4), (4.0, 0.3)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn every_standard_lowering_verifies_clean() {
        let t = campus();
        for run in verify_standard_lowerings(&t, 100) {
            assert!(
                run.violations.is_empty(),
                "{}: {:?}",
                run.name,
                run.violations
            );
        }
    }

    #[test]
    fn verify_flags_fatal_and_lint_separately() {
        let t = campus();
        let n = 50;
        let mut sched = gather::lower_flat_gather(&t, n, t.fastest_proc(), WorkloadPolicy::Equal);
        // A self-send is lint-grade; a word mismatch is fatal.
        let first = sched.steps[0].transfers[0].clone();
        sched.steps[0].transfers.push(Transfer {
            src: first.dst,
            dst: first.dst,
            words: 1,
            role: Role::Bundle(vec![UnitId::new(0, 1)].into()),
        });
        sched.steps[0].transfers[0].words += 3;
        let items: Vec<u32> = (0..n as u32).collect();
        let init = share_inits(&t, &items, WorkloadPolicy::Equal);
        let v = verify(&t, &sched, &init, false);
        assert!(v.iter().any(|x| matches!(x, Violation::SelfSend { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::WordMismatch { .. }) && x.is_fatal()));
        assert!(!v
            .iter()
            .find(|x| matches!(x, Violation::SelfSend { .. }))
            .unwrap()
            .is_fatal());
    }

    #[test]
    fn scope_escape_matches_engine_rejection() {
        let t = campus();
        // A cross-cluster transfer under a level-1 barrier: the engines
        // reject this at run time; the checker flags it statically.
        let mut step = ScheduleStep::at(SyncScope::Level(1));
        step.transfers.push(Transfer {
            src: ProcId(0),
            dst: ProcId(4),
            words: 1,
            role: Role::Bundle(vec![UnitId::new(0, 1)].into()),
        });
        let sched = CommSchedule {
            steps: vec![step, ScheduleStep::drain()],
            ..CommSchedule::default()
        };
        let mut init = vec![ProcInit::default(); t.num_procs()];
        init[0].units.push((UnitId::new(0, 1), vec![9]));
        let v = verify(&t, &sched, &init, false);
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::ScopeEscape {
                    step: 0,
                    crossing: 2,
                    scope: 1,
                    ..
                }
            )),
            "{v:?}"
        );
    }
}
