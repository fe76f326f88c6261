//! Property test: the discrete-event simulator and the threaded runtime
//! produce bit-identical virtual times, states, and statistics for the
//! same program on the same machine — the cross-engine guarantee the
//! whole experiment suite relies on.

mod common;

use common::{arb_machine, cluster_peers, mix, RandomProgram};
use hbsp::collectives::schedule::{self, seeded_inits, ScheduleProgram};
use hbsp::collectives::{best_plan, CollectiveKind};
use hbsp::core::WireWriter;
use hbsp::lib::{ExecOutcome, Executor};
use hbsp::prelude::*;
use hbsp::runtime::{BarrierKind, ThreadedRuntime};
use hbsp::sim::Simulator;
use proptest::prelude::*;
use std::sync::Arc;

/// A randomized-but-deterministic exchange program: in each of `rounds`
/// supersteps, processor `i` sends `payload` words to `(i + shift)
/// % p` and charges `work` units; everyone records a digest of what it
/// received.
struct ShiftExchange {
    rounds: usize,
    shift: usize,
    payload: usize,
    work: f64,
}

impl Program for ShiftExchange {
    type State = u64;

    fn init(&self, _env: &ProcEnv) -> u64 {
        0xcbf2_9ce4_8422_2325
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        digest: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *digest ^= (m.src.0 as u64) << 32 | m.payload.len() as u64;
            *digest = digest.wrapping_mul(0x100000001B3);
        }
        if step == self.rounds {
            return StepOutcome::Done;
        }
        ctx.charge(self.work);
        let p = env.nprocs;
        let dst = ProcId(((env.pid.rank() + self.shift) % p) as u32);
        if dst != env.pid {
            ctx.send(dst, 0, &vec![step as u8; self.payload]);
        }
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// A generated program for what a receiver's *pull* can get wrong:
/// state left in an outbox or a pull list by an earlier step. Every
/// decision is a pure function of `(seed, step, pid)`, so every
/// processor derives the same scopes, and per step
///
/// * each rank posts 0..=4 messages to destinations in its cluster at
///   the closing scope, itself included, with empty payloads and runs
///   of several messages to one destination;
/// * one rank is *silent* (posts nothing: its outbox of that parity
///   still holds what it posted two steps earlier) and one is *deaf*
///   (nobody posts to it: its pull list must come up empty, not stale);
/// * the final `Done` step posts too, and nobody ever receives that.
///
/// The state is the whole inbox of every step, in delivery order.
struct PullProgram {
    rounds: usize,
    seed: u64,
}

/// What one rank saw through `ctx.messages()`, step by step.
type Seen = Vec<Vec<(u32, u32, Vec<u8>)>>;

impl Program for PullProgram {
    type State = Seen;

    fn init(&self, _env: &ProcEnv) -> Seen {
        Vec::new()
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        seen: &mut Seen,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        seen.push(
            ctx.messages()
                .iter()
                .map(|m| (m.src.0, m.tag, m.payload.to_vec()))
                .collect(),
        );
        let p = env.nprocs as u64;
        let step_key = mix(self.seed ^ ((step as u64) << 24));
        let level = 1 + (step_key % env.tree.height() as u64) as u32;
        let (silent, deaf) = (mix(step_key) % p, mix(step_key ^ 0xD) % p);
        let mut peers = cluster_peers(env, level);
        peers.retain(|q| q.0 as u64 != deaf);
        let base = mix(step_key ^ env.pid.0 as u64);
        if env.pid.0 as u64 != silent && !peers.is_empty() {
            let mut dst = peers[0];
            for j in 0..base % 5 {
                let h = mix(base ^ (j << 8));
                // Two in three re-roll the destination; the rest pile
                // onto the previous one.
                if !h.is_multiple_of(3) {
                    dst = peers[(mix(h) % peers.len() as u64) as usize];
                }
                let len = [0, 1, 4, 13, 96][(h >> 8) as usize % 5];
                ctx.send(dst, (h % 17) as u32, &vec![(h >> 32) as u8; len]);
            }
        }
        ctx.charge((base % 1000) as f64 / 8.0);
        if step == self.rounds {
            return StepOutcome::Done;
        }
        StepOutcome::Continue(SyncScope::Level(level))
    }
}

/// The machines of the pull property: flat with `p` in 2..=9, and the
/// two committed machine files (HBSP^2, p = 8 and HBSP^3, p = 9).
fn pull_machine() -> impl Strategy<Value = MachineTree> {
    let file = |text| hbsp::core::topology::parse(text).expect("committed machine file");
    prop_oneof![
        (2usize..=9).prop_map(|p| {
            let procs: Vec<(f64, f64)> = (0..p)
                .map(|i| (1.0 + i as f64 / 2.0, 1.0 / (1 + i) as f64))
                .collect();
            TreeBuilder::flat(1.0, 100.0, &procs).expect("valid flat machine")
        }),
        Just(file(include_str!("../machines/campus.hbsp"))),
        Just(file(include_str!("../machines/grid3.hbsp"))),
    ]
}

/// `prog` under `plan` on the simulator and on the threaded runtime
/// with either barrier: every rank's inboxes and the model time, to the
/// bit. Returns what the ranks saw.
#[expect(clippy::disallowed_methods, reason = "compares the engines themselves")]
fn pulled_like_the_simulator(
    tree: &Arc<MachineTree>,
    prog: &PullProgram,
    plan: &FaultPlan,
) -> Result<Vec<Seen>, TestCaseError> {
    let (sim, sim_seen) = Simulator::new(Arc::clone(tree))
        .faults(plan.clone())
        .run_with_states(prog)
        .unwrap();
    for kind in [BarrierKind::Central, BarrierKind::Hierarchical] {
        let (thr, thr_seen) = ThreadedRuntime::new(Arc::clone(tree))
            .barrier(kind)
            .faults(plan.clone())
            .run_with_states(prog)
            .unwrap();
        let thr = thr.virtual_outcome;
        prop_assert_eq!(&sim_seen, &thr_seen, "{:?}", kind);
        prop_assert_eq!(sim.total_time.to_bits(), thr.total_time.to_bits());
        prop_assert_eq!(sim.messages_delivered, thr.messages_delivered);
    }
    Ok(sim_seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Receiver pull against the simulator's delivery, fault-free and
    /// with a drop and a truncation landing on each outbox parity.
    #[test]
    fn pulled_inboxes_match_the_simulator(
        tree in pull_machine(),
        rounds in 4usize..8,
        seed in any::<u64>(),
    ) {
        let tree = Arc::new(tree);
        let p = tree.num_procs() as u64;
        let prog = PullProgram { rounds, seed };
        let seen = pulled_like_the_simulator(&tree, &prog, &FaultPlan::new())?;
        for (rank, steps) in seen.iter().enumerate() {
            prop_assert_eq!(steps.len(), rounds + 1, "one inbox per step, rank {}", rank);
            prop_assert!(steps[0].is_empty(), "nothing precedes step 0");
        }

        let pid = |salt: u64| ProcId((mix(seed ^ salt) % p) as u32);
        let plan = FaultPlan::new()
            .drop_msgs(pid(1), 1)
            .drop_msgs(pid(2), 2)
            .truncate(pid(3), 1, 0)
            .truncate(pid(4), 2, 1)
            .truncate(pid(5), 3, 1 << 30);
        pulled_like_the_simulator(&tree, &prog, &plan)?;
    }

    #[expect(clippy::disallowed_methods, reason = "compares the engines themselves")]
    #[test]
    fn virtual_time_and_states_match(
        tree in arb_machine(),
        rounds in 1usize..6,
        shift in 1usize..5,
        payload in 0usize..300,
        work in 0.0f64..500.0,
    ) {
        let tree = Arc::new(tree);
        let prog = ShiftExchange { rounds, shift, payload, work };
        let (sim, sim_states) =
            Simulator::new(Arc::clone(&tree)).run_with_states(&prog).unwrap();
        let (thr, thr_states) =
            ThreadedRuntime::new(Arc::clone(&tree)).run_with_states(&prog).unwrap();
        let thr = thr.virtual_outcome;

        prop_assert_eq!(sim_states, thr_states);
        prop_assert_eq!(sim.total_time, thr.total_time);
        prop_assert_eq!(sim.proc_finish, thr.proc_finish);
        prop_assert_eq!(sim.messages_delivered, thr.messages_delivered);
        prop_assert_eq!(sim.steps.len(), thr.steps.len());
        for (a, b) in sim.steps.iter().zip(&thr.steps) {
            prop_assert_eq!(a.hrelation, b.hrelation);
            prop_assert_eq!(a.finish_max, b.finish_max);
            prop_assert_eq!(a.release_max, b.release_max);
            prop_assert_eq!(a.work_units, b.work_units);
            prop_assert_eq!(&a.traffic, &b.traffic);
        }
    }

    /// Random machines x random SPMD exchange programs (random scopes,
    /// fan-outs, payloads, work): the two engines must agree on every
    /// observable — states, total time, per-proc finish times, per-step
    /// h-relations, and delivered-message counts.
    #[expect(clippy::disallowed_methods, reason = "compares the engines themselves")]
    #[test]
    fn random_programs_agree_across_engines(
        tree in arb_machine(),
        rounds in 1usize..7,
        seed in any::<u64>(),
        local_sync in any::<bool>(),
    ) {
        let tree = Arc::new(tree);
        let prog = RandomProgram { rounds, seed, local_sync };
        let (sim, sim_states) =
            Simulator::new(Arc::clone(&tree)).run_with_states(&prog).unwrap();
        let (thr, thr_states) =
            ThreadedRuntime::new(Arc::clone(&tree)).run_with_states(&prog).unwrap();
        let thr = thr.virtual_outcome;

        prop_assert_eq!(sim_states, thr_states);
        prop_assert_eq!(sim.total_time, thr.total_time);
        prop_assert_eq!(sim.proc_finish, thr.proc_finish);
        prop_assert_eq!(sim.messages_delivered, thr.messages_delivered);
        prop_assert_eq!(sim.steps.len(), thr.steps.len());
        for (a, b) in sim.steps.iter().zip(&thr.steps) {
            prop_assert_eq!(a.scope, b.scope);
            prop_assert_eq!(a.hrelation, b.hrelation);
            prop_assert_eq!(a.finish_max, b.finish_max);
            prop_assert_eq!(a.release_max, b.release_max);
            prop_assert_eq!(a.work_units, b.work_units);
            prop_assert_eq!(&a.traffic, &b.traffic);
        }
    }

    #[expect(clippy::disallowed_methods, reason = "compares the engines themselves")]
    #[test]
    fn simulator_is_deterministic(tree in arb_machine(), rounds in 1usize..5) {
        let tree = Arc::new(tree);
        let prog = ShiftExchange { rounds, shift: 1, payload: 64, work: 10.0 };
        let a = Simulator::new(Arc::clone(&tree)).run(&prog).unwrap();
        let b = Simulator::new(tree).run(&prog).unwrap();
        prop_assert_eq!(a.total_time, b.total_time);
        prop_assert_eq!(a.proc_finish, b.proc_finish);
    }
}

/// Model time and per-processor finish times to the bit, the message
/// count, and every superstep's statistics.
fn assert_same_outcome(a: &ExecOutcome, b: &ExecOutcome, what: &str) {
    let (a, b) = (&a.sim, &b.sim);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits(), "{what}");
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.proc_finish), bits(&b.proc_finish), "{what}");
    assert_eq!(a.messages_delivered, b.messages_delivered, "{what}");
    assert_eq!(a.steps.len(), b.steps.len(), "{what}");
    for (x, y) in a.steps.iter().zip(&b.steps) {
        assert_eq!(x.scope, y.scope, "{what}");
        assert_eq!(x.traffic, y.traffic, "{what}");
        let times = |s: &hbsp::sim::StepStats| {
            [
                s.start_min,
                s.finish_max,
                s.release_max,
                s.hrelation,
                s.work_units,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(times(x), times(y), "{what} step {}", x.step);
    }
}

/// An executor keeps its engine — the simulator its arenas, the
/// threaded runtime its processor threads — so a run starts in what the
/// previous program left. The seven collectives, each with its own
/// sizes and message pattern, go twice round-robin through one `kept`
/// executor; every run must be the run a fresh executor of the same
/// engine gives, and the run the `other` engine gives.
fn kept_executor_serves_like_fresh(
    engine: fn(Arc<MachineTree>) -> Executor,
    other: fn(Arc<MachineTree>) -> Executor,
) {
    let tree = Arc::new(
        hbsp::core::topology::parse(include_str!("../machines/campus.hbsp")).expect("campus"),
    );
    let programs: Vec<(CollectiveKind, ScheduleProgram)> = CollectiveKind::ALL
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let n = 3000 + 1700 * i as u64;
            let plan = best_plan(&tree, kind, n).expect("campus has processors");
            let (init, op) = seeded_inits(&tree, &plan, n, 42 + i as u64);
            let prog = ScheduleProgram::new(Arc::new(plan.schedule), Arc::new(init), op);
            (kind, prog)
        })
        .collect();
    assert_eq!(programs.len(), 7);

    let kept = engine(Arc::clone(&tree));
    for round in 0..2 {
        for (kind, prog) in &programs {
            let what = format!("{kind}, round {round}");
            let (out, states) = schedule::execute(&kept, prog).expect("kept executor");
            let (fresh_out, fresh_states) =
                schedule::execute(&engine(Arc::clone(&tree)), prog).expect("fresh");
            let (other_out, other_states) =
                schedule::execute(&other(Arc::clone(&tree)), prog).expect("other engine");
            assert_same_outcome(&out, &fresh_out, &what);
            assert_same_outcome(&out, &other_out, &what);
            assert_eq!(states, fresh_states, "{what}");
            assert_eq!(states, other_states, "{what}");
        }
    }
}

/// Regression: "cut P0's messages to at most 2^30 words" — a no-op on
/// any payload a batch can hold — became 2^32 bytes, narrowed to 0, and
/// wiped them; a larger bound overflowed the multiply, which a debug
/// build turns into a panic and the threaded leader into
/// `LeaderPanicked`. Both plans must give the fault-free run.
#[test]
fn truncating_past_any_payload_is_the_fault_free_run_on_both_engines() {
    let tree = Arc::new(
        hbsp::core::topology::parse(include_str!("../machines/campus.hbsp")).expect("campus"),
    );
    let prog = PullProgram {
        rounds: 4,
        seed: 11,
    };
    for engine in [Executor::simulator, Executor::threads] {
        let (clean, clean_seen) = engine(Arc::clone(&tree)).run(&prog).expect("fault-free");
        assert!(
            clean_seen
                .iter()
                .any(|rank| rank[1].iter().any(|m| m.0 == 0 && m.2.len() > 4)),
            "P0 posts payloads at step 0 that a truncation could cut"
        );
        for text in [
            "truncate P0 @0 w1073741824\n",
            "truncate P0 @0 w18446744073709551615\n",
        ] {
            let plan = FaultPlan::parse(text).expect("a valid plan");
            assert_eq!(plan.render(), text, "render ∘ parse");
            let exec = engine(Arc::clone(&tree)).faults(plan);
            let (out, seen) = exec.run(&prog).expect("a no-op fault");
            let what = format!("{} under {text}", exec.engine_name());
            assert_same_outcome(&out, &clean, &what);
            assert_eq!(seen, clean_seen, "{what}");
        }
    }
}

#[test]
fn one_executor_serves_the_seven_collectives_like_fresh_ones() {
    kept_executor_serves_like_fresh(Executor::simulator, Executor::threads);
}

#[test]
fn one_threaded_executor_serves_the_seven_collectives_like_fresh_ones() {
    kept_executor_serves_like_fresh(Executor::threads, Executor::simulator);
}

/// Every rank sends its successor one 8-byte message a step for four
/// steps, and `liar` (rank, step, bytes) writes `bytes` instead of the
/// 8 it promised.
struct FillLiar {
    liar: Option<(u32, usize, usize)>,
}

impl Program for FillLiar {
    type State = u64;

    fn init(&self, _env: &ProcEnv) -> u64 {
        0
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        seen: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        *seen += ctx
            .messages()
            .iter()
            .map(|m| m.payload.len() as u64)
            .sum::<u64>();
        let wrote = match self.liar {
            Some((rank, at, bytes)) if (rank, at) == (env.pid.0, step) => bytes,
            _ => 8,
        };
        let next = ProcId((env.pid.0 + 1) % env.nprocs as u32);
        ctx.send_with(&[next], 0, 8, &mut |w| w.bytes(&[step as u8; 16][..wrote]));
        if step == 3 {
            StepOutcome::Done
        } else {
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }
}

/// A `send_with` whose `fill` writes fewer or more bytes than it
/// promised fails the run on both engines with the same typed error:
/// that rank's `ProgramPanicked` for that step. The executor that saw
/// it then serves an honest run like a fresh one.
#[test]
fn a_fill_that_breaks_its_length_is_that_ranks_panic_on_both_engines() {
    let tree = Arc::new(
        hbsp::core::topology::parse(include_str!("../machines/campus.hbsp")).expect("campus"),
    );
    let honest = FillLiar { liar: None };
    let want = Executor::simulator(Arc::clone(&tree))
        .run(&honest)
        .expect("honest run");
    for (rank, step, bytes) in [(2, 0, 4), (5, 2, 12), (0, 1, 0), (7, 3, 9)] {
        for engine in [Executor::simulator, Executor::threads] {
            let exec = engine(Arc::clone(&tree));
            let liar = FillLiar {
                liar: Some((rank, step, bytes)),
            };
            let what = format!(
                "{} with P{rank} writing {bytes} at {step}",
                exec.engine_name()
            );
            assert_eq!(
                exec.run(&liar).map(|_| ()),
                Err(SimError::ProgramPanicked {
                    pid: ProcId(rank),
                    step
                }),
                "{what}"
            );
            let (out, seen) = exec.run(&honest).expect("honest run");
            assert_same_outcome(&out, &want.0, &what);
            assert_eq!(seen, want.1, "{what}");
        }
    }
}

/// Every rank posts two payloads a step, each to three destinations —
/// its successor, the rank three on, and itself: a long one that a
/// two-word truncation cuts and a four-byte one it leaves whole.
/// `fanned` posts each with one `send_with` to all three; otherwise one
/// `send_with` per destination writes it three times, in the same
/// order. `liar` (rank, step) makes that rank's long payload write one
/// byte short.
struct FanOut {
    fanned: bool,
    liar: Option<(u32, usize)>,
}

impl Program for FanOut {
    type State = Seen;

    fn init(&self, _env: &ProcEnv) -> Seen {
        Vec::new()
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        seen: &mut Seen,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        seen.push(
            ctx.messages()
                .iter()
                .map(|m| (m.src.0, m.tag, m.payload.to_vec()))
                .collect(),
        );
        let (me, p, at) = (env.pid.0, env.nprocs as u32, step as u32);
        let dsts = [ProcId((me + 1) % p), ProcId((me + 3) % p), env.pid];
        let long: Vec<u8> = (0..20 + 4 * me + at)
            .map(|i| (7 * i + me + at) as u8)
            .collect();
        let short = [me as u8, at as u8, 0xAB, 0xCD];
        for (tag, payload) in [(0, &long[..]), (1, &short[..])] {
            let lies = tag == 0 && self.liar == Some((me, step));
            let wrote = &payload[..payload.len() - usize::from(lies)];
            let fill = &mut |w: &mut WireWriter<'_>| w.bytes(wrote);
            if self.fanned {
                ctx.send_with(&dsts, tag, payload.len(), fill);
            } else {
                for dst in dsts {
                    ctx.send_with(&[dst], tag, payload.len(), fill);
                }
            }
        }
        ctx.charge(f64::from(me * 3 + at));
        if step == 4 {
            StepOutcome::Done
        } else {
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }
}

/// One payload posted to three destinations with one `send_with` is,
/// on both engines, the run that posts it three times — every inbox,
/// every state, the outcome and its step statistics to the bit — and
/// the simulator's run: fault-free, and under a truncation of one
/// sender (which cuts each of its shared rows on its own and leaves the
/// bytes they share whole) and a drop of every row of another.
#[test]
fn one_payload_to_several_destinations_is_the_messages_sent_one_by_one() {
    let tree = Arc::new(
        hbsp::core::topology::parse(include_str!("../machines/campus.hbsp")).expect("campus"),
    );
    let faulty = FaultPlan::new()
        .truncate(ProcId(2), 1, 2)
        .drop_msgs(ProcId(5), 2);
    for plan in [FaultPlan::new(), faulty.clone()] {
        let run = |engine: fn(Arc<MachineTree>) -> Executor, fanned| {
            let exec = engine(Arc::clone(&tree)).faults(plan.clone());
            let prog = FanOut { fanned, liar: None };
            let (out, seen) = exec.run(&prog).expect("fan-out run");
            (exec.engine_name(), out, seen)
        };
        let (_, want, want_seen) = run(Executor::simulator, false);
        for engine in [Executor::simulator, Executor::threads] {
            for fanned in [true, false] {
                let (name, out, seen) = run(engine, fanned);
                let what = format!("{name} fanned {fanned} under {:?}", plan.render());
                assert_same_outcome(&out, &want, &what);
                assert_eq!(seen, want_seen, "{what}");
            }
        }
    }

    let (_, seen) = Executor::simulator(Arc::clone(&tree))
        .faults(faulty)
        .run(&FanOut {
            fanned: true,
            liar: None,
        })
        .expect("fan-out run");
    let from = |rank: usize, step: usize, src: u32| -> Vec<(u32, Vec<u8>)> {
        (seen[rank][step].iter())
            .filter(|m| m.0 == src)
            .map(|m| (m.1, m.2.clone()))
            .collect()
    };
    // P2's step-1 rows reach P3, P5 and P2 at step 2: the long payload
    // cut to two words on every row, the short one whole.
    let long: Vec<u8> = (0..20 + 4 * 2 + 1).map(|i| (7 * i + 2 + 1) as u8).collect();
    for rank in [3, 5, 2] {
        let rows = vec![(0, long[..8].to_vec()), (1, vec![2, 1, 0xAB, 0xCD])];
        assert_eq!(from(rank, 2, 2), rows, "P{rank}");
    }
    for rank in 0..8 {
        assert!(from(rank, 3, 5).is_empty(), "P{rank} read a dropped row");
        assert_eq!(
            from(rank, 2, 5).len(),
            2 * usize::from(rank == 5 || rank == 6 || rank == 0)
        );
    }
}

/// A `fill` that breaks its length for a payload bound for three
/// destinations posts no row for any of them and fails the run with
/// that rank's `ProgramPanicked` on both engines, as a liar to one
/// destination does.
#[test]
fn a_broken_fill_to_several_destinations_is_that_ranks_panic_on_both_engines() {
    let tree = Arc::new(
        hbsp::core::topology::parse(include_str!("../machines/campus.hbsp")).expect("campus"),
    );
    for (rank, step) in [(2, 0), (6, 3)] {
        for engine in [Executor::simulator, Executor::threads] {
            let exec = engine(Arc::clone(&tree));
            let liar = FanOut {
                fanned: true,
                liar: Some((rank, step)),
            };
            assert_eq!(
                exec.run(&liar).map(|_| ()),
                Err(SimError::ProgramPanicked {
                    pid: ProcId(rank),
                    step
                }),
                "{} with P{rank} lying at {step}",
                exec.engine_name()
            );
        }
    }
}

/// Received units stay where their senders wrote them, past every
/// superstep that reuses those arenas. On a ring of four ranks each
/// sends its own unit on in step 0, relays the unit it received one
/// step earlier in steps 1 and 2, and sends its own unit again in step
/// 3: so the units that arrive in step 1 lie in the arenas of step 0,
/// which steps 2 and 3 post past on both parities, and are read only
/// after the run. On both engines every rank then reads every unit as
/// staged, the final states are equal, and a step-0 piece cut to its
/// offset word is the same typed error.
#[test]
fn units_read_in_the_wire_after_both_arenas_are_reused_are_the_staged_words() {
    use hbsp::collectives::schedule::{
        CommSchedule, ProcInit, Role, ScheduleState, ScheduleStep, Transfer, UnitId,
    };
    use hbsp::collectives::{CollectiveError, DecodeError};
    const P: usize = 4;
    const N: u32 = 64;
    let tree = Arc::new(TreeBuilder::homogeneous(1.0, 10.0, P).unwrap());
    let unit = |r: usize| UnitId::new(r as u32 * N, N);
    let items = |r: usize| (0..N).map(|i| 1000 * r as u32 + i).collect::<Vec<u32>>();
    let mut sched = CommSchedule::new();
    for s in 0..4 {
        let mut step = ScheduleStep::at(SyncScope::global(&tree));
        for r in 0..P {
            let role = match s {
                1 | 2 => Role::Bundle(vec![unit((r + P - s) % P)].into()),
                _ => Role::Piece(unit(r)),
            };
            step.transfers.push(Transfer {
                src: ProcId(r as u32),
                dst: ProcId(((r + 1) % P) as u32),
                words: N as u64,
                role,
            });
        }
        sched.push(step);
    }
    sched.push(ScheduleStep::drain());
    let init: Vec<ProcInit> = (0..P)
        .map(|r| ProcInit {
            units: vec![(unit(r), items(r))],
            acc: None,
        })
        .collect();
    let prog = ScheduleProgram::new(Arc::new(sched), Arc::new(init), None);
    let run = |exec: Executor| -> Vec<ScheduleState> {
        let (outcome, states) = schedule::execute(&exec, &prog).unwrap();
        assert_eq!(outcome.sim.messages_delivered, 16, "{}", exec.engine_name());
        for (d, state) in states.iter().enumerate() {
            for r in 0..P {
                assert_eq!(state.try_unit(unit(r)), Ok(items(r)), "P{d} reads unit {r}");
            }
        }
        states
    };
    let sim = run(Executor::simulator(Arc::clone(&tree)));
    let thr = run(Executor::threads(Arc::clone(&tree)));
    assert_eq!(sim, thr);
    let pieces = |states: &[ScheduleState]| states.iter().map(|s| s.pieces()).collect::<Vec<_>>();
    assert_eq!(pieces(&sim), pieces(&thr));

    // P1 receives a piece of no items, a unit the plan never sends it,
    // and goes quiet; the ranks after it on the ring then miss what it
    // would have relayed.
    let cut = FaultPlan::new().truncate(ProcId(0), 0, 1);
    let errors = [Executor::simulator, Executor::threads].map(|on| {
        let exec = on(Arc::clone(&tree)).faults(cut.clone());
        let (_, states) = exec.run(&prog).unwrap();
        let first = schedule::check_states(&states);
        (
            first,
            states.iter().map(ScheduleState::error).collect::<Vec<_>>(),
        )
    });
    assert_eq!(errors[0], errors[1]);
    let (unplanned, missing) = (
        Some(DecodeError::UnplannedUnit),
        Some(DecodeError::MissingUnit),
    );
    let (pid, error) = (ProcId(0), DecodeError::MissingUnit);
    assert_eq!(
        errors[0],
        (
            Err(CollectiveError::Decode { pid, error }),
            vec![missing, unplanned, missing, missing]
        )
    );
}
