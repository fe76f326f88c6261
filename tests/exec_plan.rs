//! The compiled form of a collective, pinned from three sides:
//!
//! 1. **wire format** — what `ScheduleProgram` writes into an engine's
//!    outbox is byte-for-byte `Piece::encode` / `encode_bundle` /
//!    `codec::encode_u32s`, and what it accepts on receipt is what
//!    `Piece::decode` / `decode_bundle` accept, on every byte prefix of
//!    every payload;
//! 2. **plan tables** — an `ExecPlan` is its `CommSchedule` regrouped
//!    by sender: same sends in the same posting order, same charges,
//!    wire sizes by the three layout formulas;
//! 3. **faults** — dropped and truncated messages end every kind of
//!    collective in the same typed result on both engines, never in a
//!    panic.

mod common;

use common::{arb_machine, Wire};
use hbsp::collectives::data::{decode_bundle, encode_bundle, DecodeError, Piece};
use hbsp::collectives::reduce::ReduceOp;
use hbsp::collectives::schedule::{
    self, seeded_inits, CommSchedule, ProcInit, ScheduleProgram, ScheduleState, ScheduleStep,
    SendEntry,
};
use hbsp::collectives::{best_plan, rank_plans, CollectiveError, CollectiveKind, Role};
use hbsp::collectives::{Transfer, UnitId};
use hbsp::core::{topology, MachineTree, ProcEnv, SpmdProgram};
use hbsp::prelude::*;
use hbsp_sim::FaultPlan;
use hbsplib::codec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn env(tree: &Arc<MachineTree>, pid: ProcId) -> ProcEnv {
    ProcEnv {
        pid,
        nprocs: tree.num_procs(),
        tree: Arc::clone(tree),
    }
}

/// The receiver's state after one message with `payload` arrives.
fn receive(
    prog: &ScheduleProgram,
    tree: &Arc<MachineTree>,
    tag: u32,
    payload: &[u8],
) -> ScheduleState {
    let env = env(tree, ProcId(1));
    let mut state = prog.init(&env);
    let mut wire = Wire::new(ProcId(1));
    wire.inbox.push(ProcId(0), ProcId(1), tag, payload);
    assert_eq!(prog.step(1, &env, &mut state, &mut wire), StepOutcome::Done);
    state
}

fn by_id(pieces: Vec<Piece>) -> BTreeMap<(u32, usize), Vec<u32>> {
    pieces
        .into_iter()
        .map(|p| ((p.offset, p.len()), p.items))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Processor 0 holds `items` cut into stored units of `cuts` items
    /// and posts, to processor 1: each requested span as a piece (an
    /// exact stored unit, a range assembled from covering segments, or
    /// an empty one), all of them as one bundle, and its accumulator.
    #[test]
    fn in_place_wire_path_is_the_public_codec(
        items in proptest::collection::vec(any::<u32>(), 0..40),
        cuts in proptest::collection::vec(1usize..9, 1..8),
        spans in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..5),
        acc in proptest::collection::vec(any::<u32>(), 0..12),
    ) {
        let n = items.len();
        let mut held = Vec::new();
        let mut at = 0;
        for len in cuts.iter().cycle().copied() {
            if at == n {
                break;
            }
            let end = (at + len).min(n);
            held.push((UnitId::new(at as u32, (end - at) as u32), items[at..end].to_vec()));
            at = end;
        }
        // The first stored unit verbatim (exact hit), then the random
        // ranges (mostly assembled; `a == b` is the empty unit).
        let mut wanted: Vec<UnitId> = held.first().map(|h| h.0).into_iter().collect();
        for &(a, b) in &spans {
            let (a, b) = (a as usize % (n + 1), b as usize % (n + 1));
            wanted.push(UnitId::new(a.min(b) as u32, a.abs_diff(b) as u32));
        }
        let piece = |u: UnitId| Piece {
            offset: u.offset,
            items: items[u.offset as usize..(u.offset + u.len) as usize].to_vec(),
        };

        let tree = Arc::new(TreeBuilder::homogeneous(1.0, 10.0, 2).unwrap());
        let mut step = ScheduleStep::at(SyncScope::global(&tree));
        let mut expected = Vec::new();
        for &u in &wanted {
            step.transfers.push(transfer(u.len as u64, Role::Piece(u)));
            expected.push(piece(u).encode());
        }
        step.transfers.push(transfer(0, Role::Bundle(wanted.clone())));
        expected.push(encode_bundle(&wanted.iter().map(|&u| piece(u)).collect::<Vec<_>>()));
        step.transfers.push(transfer(acc.len() as u64, Role::Partial));
        expected.push(codec::encode_u32s(&acc));
        let mut sched = CommSchedule::new();
        sched.push(step);
        sched.push(ScheduleStep::drain());
        let theirs: Vec<u32> = acc.iter().map(|v| v.rotate_left(7)).collect();
        let init = vec![
            ProcInit { units: held, acc: Some(acc.clone()) },
            ProcInit { units: Vec::new(), acc: Some(theirs.clone()) },
        ];
        let prog = ScheduleProgram::new(Arc::new(sched), Arc::new(init), Some(ReduceOp::Sum));

        // Writer: one posted message per transfer, bytes equal to the
        // allocating encoders', sized as the plan said.
        let sender = env(&tree, ProcId(0));
        let mut state = prog.init(&sender);
        let mut wire = Wire::new(ProcId(0));
        prop_assert!(matches!(
            prog.step(0, &sender, &mut state, &mut wire),
            StepOutcome::Continue(_)
        ));
        prop_assert_eq!(state.error(), None);
        let sends = &prog.plan().steps[0][0].sends;
        prop_assert_eq!(wire.outbox.len(), expected.len());
        for ((m, want), send) in wire.outbox.iter().zip(&expected).zip(sends) {
            prop_assert_eq!(m.payload, &want[..], "{:?}", send);
            prop_assert_eq!((m.dst, m.tag, m.payload.len()), (send.dst, send.tag, send.wire_len));
        }

        // Reader: every byte prefix of every payload ends in the result
        // the public decoders give for it.
        let bundle = wanted.len();
        for (i, m) in wire.outbox.iter().enumerate() {
            for cut in 0..=m.payload.len() {
                let prefix = &m.payload[..cut];
                let got = receive(&prog, &tree, m.tag, prefix);
                if i > bundle {
                    let want = if cut % 4 != 0 {
                        Err(DecodeError::RaggedPayload)
                    } else if cut != 4 * acc.len() {
                        Err(DecodeError::PartialLength)
                    } else {
                        Ok(ReduceOp::Sum.reference(&[theirs.clone(), acc.clone()]))
                    };
                    match want {
                        Err(e) => prop_assert_eq!(got.error(), Some(e)),
                        Ok(sum) => prop_assert_eq!(got.accumulator(), Some(&sum[..])),
                    }
                    continue;
                }
                let want = if i == bundle {
                    decode_bundle(prefix)
                } else {
                    Piece::decode(prefix).map(|p| vec![p])
                };
                prop_assert_eq!(got.error(), want.as_ref().err().copied(), "message {} cut {}", i, cut);
                if let Ok(pieces) = want {
                    prop_assert_eq!(by_id(got.pieces()), by_id(pieces));
                }
            }
        }
    }

    /// Every candidate plan of every kind compiles to tables that are
    /// the schedule regrouped by sender.
    #[test]
    fn exec_plan_is_the_schedule_grouped_by_sender(
        m in arb_machine(),
        n in 0u64..600,
    ) {
        let p = m.num_procs();
        for kind in CollectiveKind::ALL {
            for plan in rank_plans(&m, kind, n).expect("machine has processors") {
                let (init, op) = seeded_inits(&m, &plan, n, 1);
                let prog = ScheduleProgram::new(Arc::new(plan.schedule), Arc::new(init), op);
                let steps = &prog.schedule().steps;
                prop_assert_eq!(prog.plan().steps.len(), steps.len());
                for (step, rows) in steps.iter().zip(&prog.plan().steps) {
                    prop_assert_eq!(rows.len(), p);
                    let posted: Vec<(ProcId, &SendEntry)> = (0..p)
                        .flat_map(|j| rows[j].sends.iter().map(move |s| (ProcId(j as u32), s)))
                        .collect();
                    let mut scheduled: Vec<&Transfer> = step.transfers.iter().collect();
                    scheduled.sort_by_key(|t| t.src); // stable: posting order within a sender
                    prop_assert_eq!(posted.len(), scheduled.len());
                    for ((src, send), t) in posted.into_iter().zip(scheduled) {
                        let (units, words) = match &t.role {
                            Role::Piece(u) => (vec![*u], 1 + u.len as usize),
                            Role::Bundle(us) => (
                                us.clone(),
                                1 + us.iter().map(|u| 2 + u.len as usize).sum::<usize>(),
                            ),
                            Role::Partial => (Vec::new(), t.words as usize),
                        };
                        prop_assert_eq!((src, send.dst), (t.src, t.dst), "{} {:?}", kind, plan.strategy);
                        prop_assert_eq!(&send.units, &units);
                        prop_assert_eq!(send.wire_len, 4 * words);
                    }
                    for (j, row) in rows.iter().enumerate() {
                        let charged = (step.work.iter())
                            .filter(|w| w.0.rank() == j)
                            .fold(0.0, |sum, w| sum + w.1);
                        prop_assert_eq!(row.charge.to_bits(), charged.to_bits());
                    }
                }
            }
        }
    }
}

fn transfer(words: u64, role: Role) -> Transfer {
    Transfer {
        src: ProcId(0),
        dst: ProcId(1),
        words,
        role,
    }
}

fn campus() -> Arc<MachineTree> {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/machines/campus.hbsp"))
            .expect("campus.hbsp exists");
    Arc::new(topology::parse(&text).expect("valid machine"))
}

type Outcome = Result<(u64, Vec<ScheduleState>), CollectiveError>;

fn run_faulted(exec: Executor, faults: &FaultPlan, prog: &ScheduleProgram) -> Outcome {
    schedule::execute(&exec.faults(faults.clone()), prog)
        .map(|(out, states)| (out.total_time().to_bits(), states))
}

/// Every single drop or truncation, at every processor and step of
/// every candidate plan of every kind on the campus machine: a
/// completed run or a typed error, the same on both engines. A panic
/// in a superstep body would unwind out of the simulator and fail this
/// test outright.
#[test]
fn dropped_and_truncated_messages_end_typed_and_identically() {
    let tree = campus();
    let mut errors = 0;
    for kind in CollectiveKind::ALL {
        for plan in rank_plans(&tree, kind, 64).unwrap() {
            let label = format!("{kind} {:?}", plan.strategy);
            let (init, op) = seeded_inits(&tree, &plan, 64, 7);
            let prog = ScheduleProgram::new(Arc::new(plan.schedule), Arc::new(init), op);
            for pid in (0..tree.num_procs()).map(|j| ProcId(j as u32)) {
                for step in 0..prog.schedule().num_steps() {
                    for faults in [
                        FaultPlan::new().drop_msgs(pid, step),
                        FaultPlan::new().truncate(pid, step, 0),
                        FaultPlan::new().truncate(pid, step, 1),
                        FaultPlan::new().truncate(pid, step, 3),
                    ] {
                        let sim =
                            run_faulted(Executor::simulator(Arc::clone(&tree)), &faults, &prog);
                        let thr = run_faulted(Executor::threads(Arc::clone(&tree)), &faults, &prog);
                        assert_eq!(sim, thr, "{label} under {faults:?}");
                        match sim {
                            Err(CollectiveError::Decode { .. }) => errors += 1,
                            Err(other) => panic!("{label} under {faults:?}: {other}"),
                            Ok(_) => {}
                        }
                    }
                }
            }
        }
    }
    assert!(errors > 0, "some fault must have reached a decoder");
}

/// The issue's repro: a reduce sender truncated to one word used to
/// reach `fold_into`'s length assertion — a caller panic on the
/// simulator, `ProgramPanicked` on threads.
#[test]
fn truncated_partial_is_a_decode_error_on_both_engines() {
    let tree = campus();
    let plan = best_plan(&tree, CollectiveKind::Reduce, 64).unwrap();
    let root = plan.root.expect("reduce has a root");
    let victim = ProcId((0..8).find(|&j| ProcId(j) != root).unwrap());
    let (init, op) = seeded_inits(&tree, &plan, 64, 7);
    let prog = ScheduleProgram::new(Arc::new(plan.schedule), Arc::new(init), op);
    let faults = (0..4).fold(FaultPlan::new(), |f, step| f.truncate(victim, step, 1));
    for exec in [
        Executor::simulator(Arc::clone(&tree)),
        Executor::threads(Arc::clone(&tree)),
    ] {
        match run_faulted(exec, &faults, &prog) {
            Err(CollectiveError::Decode { error, .. }) => {
                assert_eq!(error, DecodeError::PartialLength)
            }
            other => panic!("expected a Decode error, got {other:?}"),
        }
    }
}

/// A payload that is not a whole number of words is a typed error in
/// the public decoders, not `codec::decode_u32s`'s panic.
#[test]
fn ragged_payloads_are_typed_errors() {
    let piece = Piece {
        offset: 3,
        items: vec![1, 2],
    };
    for cut in [1, 2, 3, 5, 11] {
        assert_eq!(
            Piece::decode(&piece.encode()[..cut]),
            Err(DecodeError::RaggedPayload)
        );
        assert_eq!(
            decode_bundle(&encode_bundle(std::slice::from_ref(&piece))[..cut]),
            Err(DecodeError::RaggedPayload)
        );
    }
}
