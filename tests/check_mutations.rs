//! Mutation harness for the static verifier: inject each defect class
//! into a real lowering and assert `hbsp_check` names it precisely;
//! conversely, every standard lowering verifies clean on randomized
//! HBSP^1–3 machines; and the engines' pre-flight rejects a malformed
//! schedule at submit time that would otherwise end in a data error.

mod common;

use common::arb_machine;
use hbsp::collectives::plan::WorkloadPolicy;
use hbsp::collectives::schedule::{
    execute, share_inits, stage, CommSchedule, ProcInit, ScheduleProgram, ScheduleState,
    ScheduleStep, Staging,
};
use hbsp::collectives::verify::{standard_lowerings, verify, verify_standard_lowerings, Violation};
use hbsp::collectives::{alltoall, gather, CollectiveError, DecodeError, Role, Transfer, UnitId};
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

/// All-to-all blocks of 8 words, `1000·i + 100·j + x` for the block
/// `i → j`, on `tree`: the sizes and the staged holdings.
fn eight_word_blocks(tree: &MachineTree) -> (Vec<Vec<u64>>, Vec<ProcInit>) {
    let p = tree.num_procs();
    let block = |i: usize, j: usize| (0..8).map(|x| (1000 * i + 100 * j + x) as u32).collect();
    let blocks = (0..p)
        .map(|i| (0..p).map(|j| block(i, j)).collect())
        .collect();
    (vec![vec![8; p]; p], stage(tree, Staging::Blocks(blocks)))
}

/// The hierarchical all-to-all's coordinator forwards exactly what its
/// members handed up: drop the stage-1 hand-up P1 → P0 of block 1→2,
/// and the stage-2 bundle P0 → P2 carries a block P0 never received.
/// Block ids overlap as offsets, but the words next to it are not it.
#[test]
fn dropped_alltoall_hand_up_is_an_unmatched_receive() {
    let t = TreeBuilder::two_level(
        1.0,
        100.0,
        &[
            (10.0, vec![(1.0, 1.0), (2.0, 0.5)]),
            (10.0, vec![(2.0, 0.4), (2.5, 0.35)]),
        ],
    )
    .unwrap();
    let (sizes, init) = eight_word_blocks(&t);
    let mut sched = alltoall::lower_alltoall_hier(&t, &sizes);
    let hand_up = Role::Bundle(vec![UnitId::new(6, 8)]);
    let victim = (sched.steps[0].transfers.iter())
        .position(|x| (x.src, x.dst, &x.role) == (ProcId(1), ProcId(0), &hand_up))
        .expect("P1 hands block 1→2 up to P0");
    sched.steps[0].transfers.remove(victim);
    let fatal: Vec<Violation> = (verify(&t, &sched, &init, false).into_iter())
        .filter(Violation::is_fatal)
        .collect();
    let (src, dst, unit) = (ProcId(0), ProcId(2), UnitId::new(6, 8));
    let unmatched = Violation::UnmatchedReceive {
        step: 1,
        src,
        dst,
        unit,
        whole_block: true,
    };
    assert_eq!(fatal, [unmatched]);
    let text = fatal[0].to_string();
    assert!(
        text.starts_with("step 1 transfer P0 -> P2 sends block 6 (8 words) that"),
        "{text}"
    );
}

/// The flat all-to-all has no later hop to check, so `verify` passes
/// the schedule without the direct P1 → P2 transfer. Run, P2 reads
/// block 1→2 as missing on both engines — not as the words of the
/// blocks whose ids are next to it — and every other block whole.
#[test]
fn dropped_flat_alltoall_transfer_is_a_missing_unit_on_both_engines() {
    let t = Arc::new(
        TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 0.3)]).unwrap(),
    );
    let (sizes, init) = eight_word_blocks(&t);
    let mut sched = alltoall::lower_alltoall(&t, &sizes);
    sched.steps[0]
        .transfers
        .retain(|x| (x.src, x.dst) != (ProcId(1), ProcId(2)));
    let v = verify(&t, &sched, &init, false);
    assert!(!v.iter().any(Violation::is_fatal), "{v:?}");
    let prog = ScheduleProgram::new(Arc::new(sched), Arc::new(init), None);
    for exec in [Executor::simulator, Executor::threads].map(|on| on(Arc::clone(&t))) {
        let (_, states) = execute(&exec, &prog).expect("nothing is sent that was not held");
        for (i, j) in (0..4).flat_map(|i| (0..4).map(move |j| (i, j))) {
            let read = states[j].try_unit(UnitId::new(4 * i + j as u32, 8));
            let read = read.map_err(|error| CollectiveError::Decode {
                pid: ProcId(j as u32),
                error,
            });
            let want = match (i, j) {
                (1, 2) => Err(CollectiveError::Decode {
                    pid: ProcId(2),
                    error: DecodeError::MissingUnit,
                }),
                _ if i as usize == j => continue,
                _ => Ok((0..8).map(|x| 1000 * i + 100 * j as u32 + x).collect()),
            };
            assert_eq!(read, want, "block {i}→{j} on {}", exec.engine_name());
        }
    }
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
        ..CommSchedule::default()
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
        ..CommSchedule::default()
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

/// Every single-transfer edit of `sched` on `p` ranks: dropped,
/// duplicated in its step, duplicated into the next step when that
/// step has a barrier, and redirected to each rank that is neither its
/// source nor its destination.
fn each_mutant(sched: &CommSchedule, p: usize, mut f: impl FnMut(CommSchedule)) {
    for (s, step) in sched.steps.iter().enumerate() {
        for (k, t) in step.transfers.iter().enumerate() {
            let edit = |edit: &mut dyn FnMut(&mut CommSchedule)| {
                let mut m = sched.clone();
                edit(&mut m);
                m
            };
            f(edit(&mut |m| drop(m.steps[s].transfers.remove(k))));
            f(edit(&mut |m| m.steps[s].transfers.insert(k, t.clone())));
            if sched
                .steps
                .get(s + 1)
                .is_some_and(|next| next.scope.is_some())
            {
                f(edit(&mut |m| m.steps[s + 1].transfers.push(t.clone())));
            }
            for r in (0..p as u32)
                .map(ProcId)
                .filter(|&r| r != t.src && r != t.dst)
            {
                f(edit(&mut |m| m.steps[s].transfers[k].dst = r));
            }
        }
    }
}

/// What one mutant comes to, worst last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Verdict {
    /// `verify` reports a fatal violation.
    Fatal,
    /// The run ends in a typed error.
    Refused,
    /// Every rank holds what it held in the unmutated run.
    Equivalent,
    /// A rank lacks a unit it held: reading it is `MissingUnit`.
    Short,
    /// A read returns other words, or an accumulator differs.
    Silent,
}

fn verdict(
    baseline: &[ScheduleState],
    run: Result<Vec<ScheduleState>, CollectiveError>,
) -> Verdict {
    let Ok(states) = run else {
        return Verdict::Refused;
    };
    let mut worst = Verdict::Equivalent;
    for (base, got) in baseline.iter().zip(&states) {
        if base.accumulator() != got.accumulator() {
            worst = Verdict::Silent;
        }
        for piece in base.pieces() {
            let read = got.try_unit(UnitId::new(piece.offset, piece.len() as u32));
            let seen = match read {
                Ok(words) if words == piece.items => Verdict::Equivalent,
                Ok(_) => Verdict::Silent,
                Err(_) => Verdict::Short,
            };
            worst = worst.max(seen);
        }
    }
    worst
}

/// The mutation census: every single-transfer edit of the 13 standard
/// lowerings on `campus`, the 4-processor HBSP^2 above and a flat
/// 4-processor machine, each verified and, when `verify` passes it, run
/// on the simulator (every 16th on threads too, which must end the
/// same) and compared with the unmutated run. The short and silent
/// counts per lowering are pinned: what the checker still misses.
/// Per-collective postconditions in `verify` are what would bring them
/// to 0; a change that lowers a count lowers its pin with it.
#[test]
fn mutation_census_pins_what_the_checker_misses() {
    const PINS: [(&str, usize, usize); 13] = [
        ("gather/flat", 34, 0),
        ("gather/hier", 18, 0),
        ("broadcast/flat/one-phase", 34, 0),
        ("broadcast/flat/two-phase", 118, 0),
        ("broadcast/hier", 38, 0),
        ("scatter", 34, 0),
        ("allgather/flat", 152, 0),
        ("allgather/hier", 38, 0),
        ("alltoall/flat", 152, 0),
        ("alltoall/hier", 69, 0),
        ("reduce/flat", 0, 44),
        ("reduce/hier", 0, 38),
        ("scan", 0, 98),
    ];
    let flat4 = [(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 0.3)];
    let hbsp2 = [
        (10.0, vec![(1.0, 1.0), (2.0, 0.5)]),
        (10.0, vec![(2.0, 0.4), (2.5, 0.35)]),
    ];
    let machines = [
        campus(),
        TreeBuilder::two_level(1.0, 100.0, &hbsp2).unwrap(),
        TreeBuilder::flat(1.0, 10.0, &flat4).unwrap(),
    ];
    let mut table: Vec<(&str, [usize; 5])> =
        PINS.iter().map(|&(name, ..)| (name, [0; 5])).collect();
    let mut ran = 0;
    for t in machines.map(Arc::new) {
        let p = t.num_procs();
        let [sim, threads] =
            [Executor::simulator, Executor::threads].map(|on| on(Arc::clone(&t)).check(false));
        for (row, case) in table.iter_mut().zip(standard_lowerings(&t, 24)) {
            assert_eq!(row.0, case.name);
            let run = |exec: &Executor, sched: CommSchedule| {
                let prog = ScheduleProgram::new(Arc::new(sched), Arc::clone(&case.init), case.op);
                execute(exec, &prog).map(|(_, states)| states)
            };
            let baseline = run(&sim, case.schedule.clone()).expect("the lowering runs");
            each_mutant(&case.schedule, p, |m| {
                let fatal = verify(&t, &m, &case.init, case.op.is_some())
                    .iter()
                    .any(Violation::is_fatal);
                let verdict = match fatal {
                    true => Verdict::Fatal,
                    false => {
                        ran += 1;
                        let on_sim = run(&sim, m.clone());
                        if ran % 16 == 0 {
                            assert_eq!(run(&threads, m), on_sim, "{} on threads", case.name);
                        }
                        verdict(&baseline, on_sim)
                    }
                };
                row.1[verdict as usize] += 1;
            });
        }
    }
    println!(
        "{:<26}{:>7}{:>9}{:>12}{:>7}{:>8}",
        "lowering", "fatal", "refused", "equivalent", "short", "silent"
    );
    for (name, [fatal, refused, equivalent, short, silent]) in &table {
        println!("{name:<26}{fatal:>7}{refused:>9}{equivalent:>12}{short:>7}{silent:>8}");
    }
    let missed: Vec<(&str, usize, usize)> = (table.iter())
        .map(|&(name, counts)| {
            (
                name,
                counts[Verdict::Short as usize],
                counts[Verdict::Silent as usize],
            )
        })
        .collect();
    assert_eq!(missed, PINS);
}
