//! Static verification of [`CommSchedule`]s via `hbsp-check`.
//!
//! This module is the bridge between the collectives' schedule IR and
//! the checker's engine-neutral view: [`schedule_view`] projects a
//! schedule, [`holdings`] projects initial placements, and [`verify`]
//! runs all three schedule-level passes — structural checks, the
//! conservative matched-send/receive dataflow analysis, and h-relation
//! consistency between the transfers and what [`crate::predict()`]
//! charges.
//!
//! [`crate::schedule::ScheduleProgram`] overrides `SpmdProgram::preflight` with
//! [`verify`], so both engines reject fatally malformed schedules at
//! submit time (on by default in debug builds; see
//! `hbsplib::Executor::check`).

use crate::plan::{PhasePolicy, WorkloadPolicy};
use crate::schedule::{
    stage, step_hrelation, CommSchedule, ProcInit, Role, ScheduleStep, Staging, Transfer, UnitId,
};
use crate::{allgather, alltoall, broadcast, gather, reduce, scan, scatter};
pub use hbsp_check::Violation;
use hbsp_check::{
    implied_hrelation, verify_dataflow, verify_schedule, Payload, ProcHoldings, ScheduleView,
    StepView, TransferView,
};
use hbsp_core::MachineTree;

/// Project a [`CommSchedule`] into the checker's neutral view.
pub fn schedule_view(schedule: &CommSchedule) -> ScheduleView {
    ScheduleView {
        steps: schedule.steps.iter().map(step_view).collect(),
    }
}

fn step_view(step: &ScheduleStep) -> StepView {
    StepView {
        scope: step.scope.map(|s| s.level()),
        work: step.work.clone(),
        transfers: step.transfers.iter().map(transfer_view).collect(),
    }
}

fn transfer_view(t: &Transfer) -> TransferView {
    let payload = match &t.role {
        Role::Piece(uid) => Payload::Units(vec![unit_span(*uid)]),
        Role::Bundle(uids) => Payload::Units(uids.iter().map(|&u| unit_span(u)).collect()),
        Role::Partial => Payload::Partial,
    };
    TransferView {
        src: t.src,
        dst: t.dst,
        words: t.words,
        payload,
    }
}

fn unit_span(uid: UnitId) -> (u64, u64) {
    (uid.offset as u64, uid.len as u64)
}

/// Project initial placements into the checker's holdings.
pub fn holdings(init: &[ProcInit]) -> Vec<ProcHoldings> {
    init.iter()
        .map(|p| ProcHoldings {
            units: p.units.iter().map(|&(uid, _)| unit_span(uid)).collect(),
            has_acc: p.acc.is_some(),
        })
        .collect()
}

/// Statically verify a schedule against its machine, initial
/// placements, and reduction operator: structural invariants, dataflow
/// (every transfer sends data its source holds at that superstep), and
/// h-relation consistency (the h implied by each step's transfers
/// equals the h [`crate::predict::predict`] charges via
/// [`step_hrelation`]).
///
/// Returns every violation, lint-grade included; filter with
/// [`Violation::is_fatal`] for go/no-go decisions.
pub fn verify(
    tree: &MachineTree,
    schedule: &CommSchedule,
    init: &[ProcInit],
    has_op: bool,
) -> Vec<Violation> {
    let view = schedule_view(schedule);
    let mut out = verify_schedule(tree, &view);
    out.extend(verify_dataflow(tree, &view, &holdings(init), has_op));

    let nprocs = tree.num_procs();
    for (i, (step, view_step)) in schedule.steps.iter().zip(&view.steps).enumerate() {
        let ranks_ok = step
            .transfers
            .iter()
            .all(|t| t.src.rank() < nprocs && t.dst.rank() < nprocs);
        if !ranks_ok {
            continue; // already RankOutOfBounds; h_on would panic
        }
        let charged = step_hrelation(tree, step).h_on(tree);
        let implied = implied_hrelation(tree, view_step);
        let tol = 1e-9 * implied.abs().max(charged.abs()).max(1.0);
        if (implied - charged).abs() > tol {
            out.push(Violation::HRelationMismatch {
                step: i,
                implied,
                charged,
            });
        }
    }
    out
}

/// One verified lowering out of [`verify_standard_lowerings`].
#[derive(Debug, Clone)]
pub struct VerifiedLowering {
    /// Which collective/strategy was lowered.
    pub name: &'static str,
    /// Everything the verifier found (empty = clean).
    pub violations: Vec<Violation>,
}

/// Lower all seven collectives (flat and hierarchical strategies) for
/// `n` items on `tree` and verify each schedule. Used by `hbsp_check
/// --schedules` and the randomized clean-verification tests.
pub fn verify_standard_lowerings(tree: &MachineTree, n: u64) -> Vec<VerifiedLowering> {
    let p = tree.num_procs();
    let items: Vec<u32> = (0..n as u32).collect();
    let root = tree.fastest_proc();
    let workload = WorkloadPolicy::Balanced;
    let share_init = stage(tree, Staging::Shares(&items, workload));
    let rooted_init = stage(tree, Staging::AtRoot(root, items));
    let acc_init = stage(
        tree,
        Staging::Accumulators((0..p).map(|i| vec![i as u32; n.max(1) as usize]).collect()),
    );
    let blocks: Vec<Vec<u64>> = (0..p)
        .map(|i| (0..p).map(|j| ((i + 2 * j) % 5 + 1) as u64).collect())
        .collect();
    let zeroed = |row: &Vec<u64>| row.iter().map(|&len| vec![0; len as usize]).collect();
    let block_init = stage(tree, Staging::Blocks(blocks.iter().map(zeroed).collect()));

    let mut out = Vec::new();
    let mut case = |name: &'static str, sched: CommSchedule, init: &[ProcInit], has_op: bool| {
        out.push(VerifiedLowering {
            name,
            violations: verify(tree, &sched, init, has_op),
        });
    };

    case(
        "gather/flat",
        gather::lower_flat_gather(tree, n, root, workload),
        &share_init,
        false,
    );
    case(
        "gather/hier",
        gather::lower_hierarchical_gather(tree, n, workload),
        &share_init,
        false,
    );
    case(
        "broadcast/flat/one-phase",
        broadcast::lower_flat_broadcast(tree, n, root, PhasePolicy::OnePhase, workload),
        &rooted_init,
        false,
    );
    case(
        "broadcast/flat/two-phase",
        broadcast::lower_flat_broadcast(tree, n, root, PhasePolicy::TwoPhase, workload),
        &rooted_init,
        false,
    );
    case(
        "broadcast/hier",
        broadcast::lower_hierarchical_broadcast(
            tree,
            n,
            PhasePolicy::TwoPhase,
            PhasePolicy::TwoPhase,
            workload,
        ),
        &rooted_init,
        false,
    );
    case(
        "scatter",
        scatter::lower_scatter(tree, n, root, workload),
        &rooted_init,
        false,
    );
    case(
        "allgather/flat",
        allgather::lower_flat_allgather(tree, n, workload),
        &share_init,
        false,
    );
    case(
        "allgather/hier",
        allgather::lower_hierarchical_allgather(tree, n, workload),
        &share_init,
        false,
    );
    case(
        "alltoall/flat",
        alltoall::lower_alltoall(tree, &blocks),
        &block_init,
        false,
    );
    case(
        "alltoall/hier",
        alltoall::lower_alltoall_hier(tree, &blocks),
        &block_init,
        false,
    );
    case(
        "reduce/flat",
        reduce::lower_flat_reduce(tree, n.max(1), root),
        &acc_init,
        true,
    );
    case(
        "reduce/hier",
        reduce::lower_hierarchical_reduce(tree, n.max(1)),
        &acc_init,
        true,
    );
    case("scan", scan::lower_scan(tree, n.max(1)), &acc_init, true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::share_inits;
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
            role: Role::Bundle(vec![UnitId::new(0, 1)]),
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
            role: Role::Bundle(vec![UnitId::new(0, 1)]),
        });
        let sched = CommSchedule {
            steps: vec![step, ScheduleStep::drain()],
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
