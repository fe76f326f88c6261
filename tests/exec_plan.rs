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
use hbsp::collectives::broadcast::{self, lower_broadcast, BroadcastPlan};
use hbsp::collectives::data::{decode_bundle, encode_bundle, DecodeError, Piece};
use hbsp::collectives::gather::{self, GatherPlan};
use hbsp::collectives::plan::RootPolicy;
use hbsp::collectives::reduce::{self, ReduceOp};
use hbsp::collectives::schedule::{
    seeded_inits, CommSchedule, ProcInit, ScheduleProgram, ScheduleState, ScheduleStep, SendEntry,
};
use hbsp::collectives::{allgather, alltoall, scan, scatter, tune};
use hbsp::collectives::{best_plan, rank_plans, CollectiveError, CollectiveKind, PlanChoice};
use hbsp::collectives::{Role, Transfer, UnitId};
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

/// The receiver's state after `messages` (tag, payload) arrive.
fn receive(
    prog: &ScheduleProgram,
    tree: &Arc<MachineTree>,
    messages: &[(u32, &[u8])],
) -> ScheduleState {
    let env = env(tree, ProcId(1));
    let mut state = prog.init(&env);
    let mut wire = Wire::new(ProcId(1));
    for &(tag, payload) in messages {
        wire.receive(ProcId(0), tag, payload);
    }
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

        // Reader: every byte prefix of every payload, arriving beside
        // the step's other messages (the receiver counts them: one short
        // is `MissingUnit`), ends in the result the public decoders give
        // for it.
        let whole: Vec<(u32, &[u8])> = wire.outbox.iter().map(|m| (m.tag, m.payload)).collect();
        prop_assert_eq!(receive(&prog, &tree, &whole[1..]).error(), Some(DecodeError::MissingUnit));
        let bundle = wanted.len();
        let everything = by_id(wanted.iter().map(|&u| piece(u)).collect());
        for (i, m) in wire.outbox.iter().enumerate() {
            for cut in 0..=m.payload.len() {
                let prefix = &m.payload[..cut];
                let mut arriving = whole.clone();
                arriving[i].1 = prefix;
                let got = receive(&prog, &tree, &arriving);
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
                    let mut held = everything.clone();
                    held.extend(by_id(pieces));
                    prop_assert_eq!(by_id(got.pieces()), held);
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

/// What a runner made of one run: its result and the whole run, as
/// printed (`{:?}` prints an `f64` exactly).
type Ran = Result<(String, String), CollectiveError>;
type Call = Box<dyn Fn(&Executor) -> Ran>;

/// The size the fault tests rank and run every kind at.
const N: u64 = 64;

/// A [`Call`] of the runner `$run`, whose result is the run's `$result`.
macro_rules! call {
    ($result:ident, $run:expr) => {
        Box::new(move |exec: &Executor| {
            let run = $run(exec)?;
            Ok((format!("{:?}", run.$result), format!("{run:?}")))
        }) as Call
    };
}

/// The call of its kind's runner that lowers to the ranked `plan`: its
/// root, workload and strategy, on inputs of the `N` words it was
/// ranked for.
fn runner_call(tree: &Arc<MachineTree>, plan: &PlanChoice) -> Call {
    let p = tree.num_procs();
    let items: [u32; N as usize] = std::array::from_fn(|i| i as u32 * 7 + 1);
    let vectors = move || -> Vec<Vec<u32>> {
        let vector = |i| (0..N as u32).map(|j| i * 131 + j).collect();
        (0..p as u32).map(vector).collect()
    };
    let root = plan.root.map(|root| RootPolicy::Rank(root.0));
    let (workload, strategy, sum) = (plan.workload, plan.strategy, ReduceOp::Sum);
    match plan.kind {
        CollectiveKind::Gather => {
            let plan = GatherPlan {
                root: root.unwrap(),
                workload,
                strategy,
            };
            call!(result, |exec| gather::run(exec, &items, plan))
        }
        CollectiveKind::Broadcast => {
            // A ranked entry does not keep its phase policies: it is the
            // candidate that lowers to its schedule.
            let is_it = |c: &BroadcastPlan| lower_broadcast(tree, N, c).unwrap().0 == plan.schedule;
            let plan = tune::broadcast_candidates().into_iter().find(is_it);
            let plan = plan.expect("ranked broadcasts are the candidates");
            call!(result, |exec| broadcast::run(exec, &items, plan))
        }
        CollectiveKind::Scatter => {
            call!(pieces, |exec| scatter::run(
                exec,
                &items,
                root.unwrap(),
                workload
            ))
        }
        CollectiveKind::Allgather => {
            call!(result, |exec| allgather::run(
                exec, &items, workload, strategy
            ))
        }
        CollectiveKind::Alltoall => {
            let block = move |i, j| vec![(i * p + j) as u32; N as usize];
            let row = move |i| (0..p).map(|j| block(i, j)).collect();
            call!(received, |exec| alltoall::run(
                exec,
                (0..p).map(row).collect(),
                strategy
            ))
        }
        CollectiveKind::Reduce => {
            call!(result, |exec| reduce::run(
                exec,
                vectors(),
                sum,
                root.unwrap(),
                strategy
            ))
        }
        CollectiveKind::Scan => call!(prefixes, |exec| scan::run(exec, vectors(), sum)),
    }
}

/// Every single drop or truncation, at every processor and step of
/// every candidate plan of every kind on the campus machine, seen from
/// the kind's runner: the fault-free result (which
/// `collectives_correctness.rs` holds to the sequential reference) or a
/// typed error, and the same run on both engines. A panic in a
/// superstep body, or in a runner reading its result, would fail this
/// test outright.
#[test]
fn dropped_and_truncated_messages_end_typed_and_identically() {
    let tree = campus();
    let mut errors = Vec::new();
    for kind in CollectiveKind::ALL {
        for plan in rank_plans(&tree, kind, N).unwrap() {
            let label = format!("{kind} {:?} {:?}", plan.strategy, plan.workload);
            let call = runner_call(&tree, &plan);
            let (clean, _) = call(&Executor::simulator(tree.clone())).unwrap();
            for pid in (0..tree.num_procs()).map(|j| ProcId(j as u32)) {
                for step in 0..plan.schedule.num_steps() {
                    for faults in [
                        FaultPlan::new().drop_msgs(pid, step),
                        FaultPlan::new().truncate(pid, step, 0),
                        FaultPlan::new().truncate(pid, step, 1),
                        FaultPlan::new().truncate(pid, step, 3),
                    ] {
                        let [sim, thr] = [Executor::simulator, Executor::threads]
                            .map(|on| call(&on(tree.clone()).check(false).faults(faults.clone())));
                        assert_eq!(sim, thr, "{label} under {faults:?}");
                        match sim {
                            Err(CollectiveError::Decode { error, .. }) => {
                                errors.push((kind, error))
                            }
                            Err(other) => panic!("{label} under {faults:?}: {other}"),
                            Ok((result, _)) => assert_eq!(result, clean, "{label} {faults:?}"),
                        }
                    }
                }
            }
        }
    }
    // A share, a partial or a block that never arrives is `MissingUnit`:
    // not a panic reading the result, not a sum short of a term, not a
    // block pieced together from the ids next to it.
    let seen = [
        CollectiveKind::Gather,
        CollectiveKind::Reduce,
        CollectiveKind::Alltoall,
    ];
    for kind in seen {
        assert!(errors.contains(&(kind, DecodeError::MissingUnit)), "{kind}");
    }
}

/// A reduce sender truncated to one word used to reach `fold_into`'s
/// length assertion — a caller panic on the simulator,
/// `ProgramPanicked` on threads.
#[test]
fn truncated_partial_is_a_decode_error_on_both_engines() {
    let tree = campus();
    let victim = ProcId((0..8).find(|&j| ProcId(j) != tree.fastest_proc()).unwrap());
    let faults = (0..4).fold(FaultPlan::new(), |f, step| f.truncate(victim, step, 1));
    for engine in [Executor::simulator, Executor::threads] {
        let exec = engine(tree.clone()).faults(faults.clone());
        let strategy = best_plan(&tree, CollectiveKind::Reduce, 64)
            .unwrap()
            .strategy;
        let vectors = vec![vec![7; 64]; 8];
        match reduce::run(&exec, vectors, ReduceOp::Sum, RootPolicy::Fastest, strategy) {
            Err(CollectiveError::Decode { error, .. }) => {
                assert_eq!(error, DecodeError::PartialLength)
            }
            other => panic!("expected a Decode error, got {other:?}"),
        }
    }
}

/// The two panics the receive path used to have, as typed errors: a
/// message with a tag none of the three layouts uses, and a partial at
/// a program built without a `ReduceOp`. Each goes quiet like any other
/// data error, and the message still counts as arrived.
#[test]
fn a_foreign_tag_and_a_partial_without_an_op_are_decode_errors() {
    let tree = Arc::new(TreeBuilder::homogeneous(1.0, 10.0, 2).unwrap());
    let mut step = ScheduleStep::at(SyncScope::global(&tree));
    step.transfers.push(transfer(2, Role::Partial));
    let mut sched = CommSchedule::new();
    sched.push(step);
    sched.push(ScheduleStep::drain());
    let init = vec![
        ProcInit {
            units: Vec::new(),
            acc: Some(vec![1, 2]),
        };
        2
    ];
    let build = |op| ScheduleProgram::new(Arc::new(sched.clone()), Arc::new(init.clone()), op);
    let (partial, tag) = (
        codec::encode_u32s(&[5, 6]),
        build(None).plan().steps[0][0].sends[0].tag,
    );

    let foreign = receive(
        &build(Some(ReduceOp::Sum)),
        &tree,
        &[(0xBEEF, &[1, 2, 3, 4])],
    );
    assert_eq!(foreign.error(), Some(DecodeError::ForeignTag(0xBEEF)));
    let no_op = receive(&build(None), &tree, &[(tag, &partial)]);
    assert_eq!(no_op.error(), Some(DecodeError::NoReduceOp));
    assert_eq!(no_op.accumulator(), Some(&[1, 2][..]), "nothing folded");
    let summed = receive(&build(Some(ReduceOp::Sum)), &tree, &[(tag, &partial)]);
    assert_eq!(
        summed.accumulator(),
        Some(&[6, 8][..]),
        "the same partial, with an op"
    );
}

/// The hierarchical reduce's partials compiled without a `ReduceOp` and
/// run unchecked (the release default): the simulator used to let the
/// fold's panic escape `execute`, the threaded runtime turned it into
/// `ProgramPanicked`. Both now end in the same typed decode error.
#[test]
fn partials_without_an_op_end_typed_and_identically_on_both_engines() {
    let tree = campus();
    let sched = reduce::lower_hierarchical_reduce(&tree, 16);
    let init: Vec<ProcInit> = (0..tree.num_procs() as u32)
        .map(|j| ProcInit {
            units: Vec::new(),
            acc: Some(vec![j; 16]),
        })
        .collect();
    let prog = ScheduleProgram::new(Arc::new(sched), Arc::new(init), None);
    let [sim, thr] = [Executor::simulator, Executor::threads].map(|on| {
        let exec = on(tree.clone()).check(false);
        hbsp::collectives::schedule::execute(&exec, &prog).map(|(out, _)| format!("{out:?}"))
    });
    assert_eq!(sim, thr);
    assert!(
        matches!(
            sim,
            Err(CollectiveError::Decode {
                error: DecodeError::NoReduceOp,
                ..
            })
        ),
        "{sim:?}"
    );
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
