//! Property tests for the fault-injection and recovery stack: a random
//! single-leaf crash at a random superstep on a random HBSP^1–3 machine
//! produces *identical* typed errors (fail-fast) and identical degraded
//! outcomes across the discrete-event simulator and the threaded
//! runtime.

mod common;

use common::arb_machine;
use hbsp::lib::RecoveryPolicy;
use hbsp::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// A machine-shape-agnostic gossip: every processor messages every peer
/// each superstep and digests what it hears, so the same program runs
/// unchanged on the original and the degraded machine.
struct Gossip {
    rounds: usize,
}

impl Program for Gossip {
    type State = u64;
    fn init(&self, _env: &ProcEnv) -> u64 {
        0
    }
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        digest: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *digest = digest
                .wrapping_mul(31)
                .wrapping_add(m.src.0 as u64 + m.payload.len() as u64);
        }
        if step >= self.rounds {
            return StepOutcome::Done;
        }
        for p in 0..env.nprocs {
            if p != env.pid.rank() {
                ctx.send(ProcId(p as u32), 0, &[0xA5; 8]);
            }
        }
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// A plan naming a processor the machine lacks is refused before the
/// first superstep, with the same typed error on both engines. It used
/// to split them: the simulator answered `crash P9 @1` with a crash and
/// `stall P9 @1` with a barrier timeout, while the threaded runtime,
/// whose ranks only ever ask the plan about themselves, ran both to
/// completion.
#[test]
fn a_plan_naming_a_missing_processor_is_refused_by_both_engines() {
    let tree = Arc::new(TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap());
    for (text, pid) in [
        ("crash P9 @1", 9),
        ("stall P9 @1", 9),
        ("straggle P2 @0 x3", 2),
        ("drop P0 @0\ntruncate P5 @2 w1\ncrash P7 @0", 5),
    ] {
        let plan = FaultPlan::parse(text).unwrap();
        for exec in [
            Executor::simulator(Arc::clone(&tree)),
            Executor::threads(Arc::clone(&tree)),
        ] {
            let engine = exec.engine_name();
            let err = exec.faults(plan.clone()).run(&Gossip { rounds: 3 });
            let want = SimError::NoSuchFaultTarget {
                pid: ProcId(pid),
                nprocs: 2,
            };
            assert_eq!(err.unwrap_err(), want, "{engine} under {text:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fail-fast parity: both engines surface the same
    /// `SimError::ProcCrashed` naming the same victim and superstep.
    #[test]
    fn single_leaf_crash_yields_identical_typed_errors(
        tree in arb_machine(),
        victim in 0usize..64,
        step in 0usize..3,
    ) {
        let tree = Arc::new(tree);
        let victim = ProcId((victim % tree.num_procs()) as u32);
        let plan = FaultPlan::new().crash(victim, step);
        let prog = Gossip { rounds: 3 };

        let sim_err = Executor::simulator(Arc::clone(&tree))
            .faults(plan.clone())
            .run(&prog)
            .unwrap_err();
        let thr_err = Executor::threads(Arc::clone(&tree))
            .faults(plan)
            .run(&prog)
            .unwrap_err();
        prop_assert_eq!(&sim_err, &thr_err);
        prop_assert_eq!(
            sim_err,
            SimError::ProcCrashed { pids: vec![victim], step }
        );
    }

    /// Degradation parity: under `RecoveryPolicy::Degrade` both engines
    /// reach the same verdict — the same survivor machine with the same
    /// final states and virtual time, or the identical typed refusal
    /// (e.g. the victim's cluster emptied, or a one-processor machine
    /// lost everyone).
    #[test]
    fn single_leaf_crash_degrades_identically_across_engines(
        tree in arb_machine(),
        victim in 0usize..64,
        step in 0usize..3,
    ) {
        let tree = Arc::new(tree);
        let victim = ProcId((victim % tree.num_procs()) as u32);
        let plan = FaultPlan::new().crash(victim, step);

        let run = |exec: Executor| {
            exec.faults(plan.clone())
                .recovery(RecoveryPolicy::Degrade)
                .run_recovering(|_| Ok(Gossip { rounds: 3 }))
        };
        let sim = run(Executor::simulator(Arc::clone(&tree)));
        let thr = run(Executor::threads(Arc::clone(&tree)));
        match (sim, thr) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.states, b.states);
                prop_assert_eq!(a.outcome.total_time(), b.outcome.total_time());
                prop_assert_eq!(a.tree.num_procs(), b.tree.num_procs());
                prop_assert_eq!(a.tree.num_procs(), tree.num_procs() - 1);
                prop_assert_eq!(a.report.events.len(), 1);
                prop_assert!(a.tree.validate().is_ok());
                // The degraded machine passes the same static lints the
                // `hbsp_check` CLI enforces on shipped machine files.
                prop_assert_eq!(hbsp::check::lint_machine(&a.tree, None), vec![]);
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(&a, &b);
                prop_assert!(
                    matches!(a, SimError::DegradeFailed { .. }),
                    "refusals are typed degrade errors"
                );
            }
            (a, b) => prop_assert!(false, "engines disagree: {a:?} vs {b:?}"),
        }
    }
}
