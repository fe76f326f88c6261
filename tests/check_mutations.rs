//! Mutation harness for the static verifier: inject each defect class
//! into a real lowering and assert `hbsp_check` names it precisely;
//! conversely, every standard lowering verifies clean on randomized
//! HBSP^1–3 machines; and the engines' pre-flight rejects a malformed
//! schedule at submit time that would otherwise end in a data error.

mod common;

use common::arb_machine;
use hbsp::collectives::plan::WorkloadPolicy;
use hbsp::collectives::schedule::{
    execute, share_inits, CommSchedule, ProcInit, ScheduleProgram, ScheduleStep,
};
use hbsp::collectives::verify::{verify, verify_standard_lowerings, Violation};
use hbsp::collectives::{gather, CollectiveError, DecodeError, Role, Transfer, UnitId};
use hbsp::prelude::*;
use hbsp::sim::SimError;
use proptest::prelude::*;
use std::sync::Arc;

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

/// A known-good hierarchical gather: machine, schedule, and initial
/// placements. Every mutation below starts from this clean baseline.
fn baseline() -> (MachineTree, CommSchedule, Vec<ProcInit>) {
    let t = campus();
    let n = 120u64;
    let items: Vec<u32> = (0..n as u32).collect();
    let sched = gather::lower_hierarchical_gather(&t, n, WorkloadPolicy::Balanced);
    let init = share_inits(&t, &items, WorkloadPolicy::Balanced);
    (t, sched, init)
}

#[test]
fn baseline_is_clean() {
    let (t, sched, init) = baseline();
    let v = verify(&t, &sched, &init, false);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn rank_out_of_bounds_is_named() {
    let (t, mut sched, init) = baseline();
    sched.steps[0].transfers[0].dst = ProcId(99);
    let v = verify(&t, &sched, &init, false);
    assert!(
        v.iter().any(|x| matches!(
            x,
            Violation::RankOutOfBounds {
                step: 0,
                pid: ProcId(99),
                ..
            }
        )),
        "{v:?}"
    );
}

#[test]
fn word_mismatch_is_named() {
    let (t, mut sched, init) = baseline();
    sched.steps[0].transfers[0].words += 5;
    let v = verify(&t, &sched, &init, false);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::WordMismatch { step: 0, .. } if x.is_fatal())),
        "{v:?}"
    );
}

#[test]
fn scope_escape_is_named() {
    let (t, mut sched, init) = baseline();
    // Demote the cross-cluster stage's barrier to cluster-local: its
    // coordinator-to-root transfers now escape their sync scope.
    let stage2 = sched
        .steps
        .iter()
        .position(|s| s.scope == Some(SyncScope::global(&t)) && !s.transfers.is_empty())
        .expect("hier gather has a global exchange stage");
    sched.steps[stage2].scope = Some(SyncScope::Level(1));
    let v = verify(&t, &sched, &init, false);
    assert!(
        v.iter().any(|x| matches!(
            x,
            Violation::ScopeEscape {
                crossing: 2,
                scope: 1,
                ..
            }
        )),
        "{v:?}"
    );
}

#[test]
fn scope_out_of_range_is_named() {
    let (t, mut sched, init) = baseline();
    // A barrier above the tree: the timing layer silently degenerates
    // this to zero-cost singleton barriers; statically it is fatal.
    sched.steps[0].scope = Some(SyncScope::Level(7));
    let v = verify(&t, &sched, &init, false);
    assert!(
        v.iter().any(|x| matches!(
            x,
            Violation::ScopeOutOfRange {
                step: 0,
                scope: 7,
                height: 2,
            }
        )),
        "{v:?}"
    );
}

#[test]
fn self_send_is_named_and_lint_grade() {
    let (t, mut sched, init) = baseline();
    let mut extra = sched.steps[0].transfers[0].clone();
    extra.dst = extra.src;
    sched.steps[0].transfers.push(extra);
    let v = verify(&t, &sched, &init, false);
    let finding = v
        .iter()
        .find(|x| matches!(x, Violation::SelfSend { step: 0, .. }))
        .unwrap_or_else(|| panic!("{v:?}"));
    assert!(
        !finding.is_fatal(),
        "engines tolerate self-sends; the verifier lints them"
    );
}

#[test]
fn duplicate_transfer_is_named() {
    let (t, mut sched, init) = baseline();
    let dup = sched.steps[0].transfers[0].clone();
    sched.steps[0].transfers.push(dup);
    let v = verify(&t, &sched, &init, false);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::DuplicateTransfer { step: 0, .. })),
        "{v:?}"
    );
}

#[test]
fn dropped_stage1_transfer_is_an_unmatched_receive() {
    let (t, mut sched, init) = baseline();
    // Remove a stage-1 member-to-coordinator hop whose coordinator must
    // later forward the data: the stage-2 bundle now carries a unit its
    // sender never received.
    let root = t.fastest_proc();
    let victim = sched.steps[0]
        .transfers
        .iter()
        .position(|x| x.dst != root)
        .expect("some member reports to a non-root coordinator");
    sched.steps[0].transfers.remove(victim);
    let v = verify(&t, &sched, &init, false);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::UnmatchedReceive { .. }) && x.is_fatal()),
        "{v:?}"
    );
}

#[test]
fn popped_drain_is_named() {
    let (t, mut sched, init) = baseline();
    assert!(sched.steps.pop().expect("non-empty").is_free());
    let v = verify(&t, &sched, &init, false);
    assert!(v.contains(&Violation::MissingDrain), "{v:?}");
}

#[test]
fn partial_without_op_is_named() {
    let (t, _, init) = baseline();
    let mut step = ScheduleStep::at(SyncScope::global(&t));
    step.transfers.push(Transfer {
        src: ProcId(1),
        dst: ProcId(0),
        words: 4,
        role: Role::Partial,
    });
    let sched = CommSchedule {
        steps: vec![step, ScheduleStep::drain()],
    };
    // `init` has units but no accumulators and we pass has_op = false:
    // both halves of the partial-combine contract are broken.
    let v = verify(&t, &sched, &init, false);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::PartialWithoutOp { step: 0 })),
        "{v:?}"
    );
    assert!(
        v.iter().any(|x| matches!(
            x,
            Violation::PartialWithoutAccumulator {
                step: 0,
                pid: ProcId(1),
            }
        )),
        "{v:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All seven collectives (13 flat/hierarchical lowerings) verify
    /// clean on randomized HBSP^1, HBSP^2, and HBSP^3 machines.
    #[test]
    fn standard_lowerings_verify_clean_on_random_machines(t in arb_machine(), n in 1u64..200) {
        for run in verify_standard_lowerings(&t, n) {
            prop_assert!(
                run.violations.is_empty(),
                "{} on {}-proc HBSP^{}: {:?}",
                run.name,
                t.num_procs(),
                t.height(),
                run.violations
            );
        }
    }
}

/// A schedule whose first transfer sends a unit its source never holds:
/// the pre-flight names the defect before a superstep runs; without it
/// the run ends in a typed data error.
fn malformed_program() -> (Arc<MachineTree>, ScheduleProgram) {
    let t = Arc::new(TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap());
    let mut step = ScheduleStep::at(SyncScope::Level(1));
    step.transfers.push(Transfer {
        src: ProcId(0),
        dst: ProcId(1),
        words: 4,
        role: Role::Piece(UnitId::new(0, 4)),
    });
    let sched = CommSchedule {
        steps: vec![step, ScheduleStep::drain()],
    };
    let init = vec![ProcInit::default(); 2]; // nobody holds [0, 4)
    let prog = ScheduleProgram::new(Arc::new(sched), Arc::new(init), None);
    (t, prog)
}

#[test]
fn preflight_rejects_malformed_schedule_on_both_engines() {
    let (t, prog) = malformed_program();
    for exec in [
        Executor::simulator(Arc::clone(&t)),
        Executor::threads(Arc::clone(&t)),
    ] {
        let err = exec.check(true).run(&prog).unwrap_err();
        match err {
            SimError::Preflight { message } => {
                assert!(
                    message.contains("does not hold"),
                    "preflight should name the unmatched receive: {message}"
                );
            }
            other => panic!("expected Preflight, got {other:?}"),
        }
    }
}

#[test]
fn without_preflight_the_same_schedule_ends_in_a_typed_error() {
    let (t, prog) = malformed_program();
    // The sender cannot tell a lowering bug from a message lost
    // upstream: either way it holds no such data, records the fact and
    // goes quiet, so both engines finish and name it the same way.
    for exec in [
        Executor::simulator(Arc::clone(&t)),
        Executor::threads(Arc::clone(&t)),
    ] {
        match execute(&exec.check(false), &prog) {
            Err(CollectiveError::Decode { pid, error }) => {
                assert_eq!((pid, error), (ProcId(0), DecodeError::MissingUnit));
            }
            other => panic!("expected a Decode error, got {:?}", other.map(|r| r.1)),
        }
    }
}
