//! Stress tests for the threaded runtime's synchronization machinery.

use hbsp_core::{ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope, TreeBuilder};
use hbsp_runtime::{BarrierKind, CentralBarrier, HierBarrier, Mailbox, ThreadedRuntime};
use hbsp_sim::{FaultPlan, SimError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn barrier_survives_many_generations_with_many_threads() {
    const N: usize = 12;
    const ROUNDS: usize = 500;
    let barrier = CentralBarrier::new(N);
    let leader_runs = AtomicU64::new(0);
    let counter = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..N {
            s.spawn(|| {
                for round in 0..ROUNDS {
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier.wait_leader(|| {
                        // The leader observes every thread's increment
                        // for this generation.
                        let seen = counter.load(Ordering::SeqCst);
                        assert_eq!(seen as usize, (round + 1) * N);
                        leader_runs.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
    });
    assert_eq!(leader_runs.load(Ordering::SeqCst), ROUNDS as u64);
}

#[test]
fn hier_barrier_survives_many_generations_with_many_threads() {
    const ROUNDS: usize = 500;
    // Three clusters of 4: arrivals combine per cluster before the root.
    let tree = TreeBuilder::two_level(
        1.0,
        50.0,
        &[
            (10.0, vec![(1.0, 1.0); 4]),
            (10.0, vec![(1.5, 0.8); 4]),
            (10.0, vec![(2.0, 0.5); 4]),
        ],
    )
    .unwrap();
    let n = tree.num_procs();
    let barrier = HierBarrier::new(&tree);
    let leader_runs = AtomicU64::new(0);
    let counter = AtomicU64::new(0);
    std::thread::scope(|s| {
        for rank in 0..n {
            let barrier = &barrier;
            let leader_runs = &leader_runs;
            let counter = &counter;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier.wait_leader(rank, || {
                        // The leader observes every thread's increment
                        // for this generation.
                        let seen = counter.load(Ordering::SeqCst);
                        assert_eq!(seen as usize, (round + 1) * n);
                        leader_runs.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
    });
    assert_eq!(leader_runs.load(Ordering::SeqCst), ROUNDS as u64);
}

#[test]
fn mailbox_is_safe_under_concurrent_deposits() {
    // Deposits happen only in the leader section in production, but the
    // mailbox itself must tolerate concurrency.
    let mb = Arc::new(Mailbox::new());
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let mb = Arc::clone(&mb);
            s.spawn(move || {
                for i in 0..100u32 {
                    mb.deposit(hbsp_core::Message::new(
                        ProcId(t),
                        ProcId(0),
                        i,
                        vec![t as u8],
                    ));
                }
            });
        }
    });
    assert_eq!(mb.len(), 800);
    let msgs = mb.take();
    assert_eq!(msgs.len(), 800);
    for t in 0..8u32 {
        assert_eq!(msgs.iter().filter(|m| m.src == ProcId(t)).count(), 100);
    }
}

/// A program with many small supersteps, to shake out any ordering bug
/// between body execution, contribution deposit, and leader work.
struct Chatter {
    rounds: usize,
}
impl SpmdProgram for Chatter {
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
        if step == self.rounds {
            return StepOutcome::Done;
        }
        let p = env.nprocs;
        // Talk to two pseudo-random peers each round.
        for k in 1..=2usize {
            let dst = (env.pid.rank() + step * k + k) % p;
            if dst != env.pid.rank() {
                ctx.send(ProcId(dst as u32), 0, &vec![0u8; (step % 7 + 1) * 4]);
            }
        }
        ctx.charge((step % 5) as f64);
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// Regression: a thread that panics can race ahead of peers still in
/// the previous step's bookkeeping; publishing the error from the
/// panicking thread (instead of from the barrier leader) once let a
/// racing peer exit early and strand everyone else at the barrier.
/// Hammer the scenario; any hang fails via the harness timeout.
#[expect(clippy::disallowed_methods, reason = "stresses the engine itself")]
#[test]
fn contained_panics_never_strand_the_barrier() {
    struct Bomb;
    impl SpmdProgram for Bomb {
        type State = ();
        fn init(&self, _e: &ProcEnv) {}
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            _st: &mut (),
            _c: &mut dyn SpmdContext,
        ) -> StepOutcome {
            if step == 1 && env.pid.0 == 2 {
                panic!("boom");
            }
            if step == 3 {
                return StepOutcome::Done;
            }
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }
    // Silence the default hook's per-iteration backtrace spam.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let tree = Arc::new(
        TreeBuilder::flat(
            1.0,
            25.0,
            &[(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 0.35)],
        )
        .unwrap(),
    );
    for _ in 0..300 {
        let err = ThreadedRuntime::new(Arc::clone(&tree))
            .run(&Bomb)
            .unwrap_err();
        assert!(matches!(err, hbsp_sim::SimError::ProgramPanicked { pid, step: 1 } if pid.0 == 2));
    }
    std::panic::set_hook(prev);
}

/// A clustered machine so the hierarchical barrier actually combines
/// arrivals per cluster before the root.
#[expect(clippy::unwrap_used, reason = "a bad machine fails the test")]
fn clustered() -> Arc<hbsp_core::MachineTree> {
    Arc::new(
        TreeBuilder::two_level(
            1.0,
            100.0,
            &[
                (10.0, vec![(1.0, 1.0), (1.5, 0.7), (2.0, 0.5)]),
                (12.0, vec![(1.2, 0.9), (2.5, 0.4), (3.0, 0.3)]),
                (15.0, vec![(1.8, 0.6), (4.0, 0.2)]),
            ],
        )
        .unwrap(),
    )
}

/// Hammer every abort path — body panic, scripted crash, scripted
/// stall — under the *hierarchical* barrier, where the abort must
/// propagate through per-cluster combining nodes rather than one
/// central generation counter. Any stranding fails via the harness
/// timeout; any untyped error fails the match.
#[expect(clippy::disallowed_methods, reason = "stresses the engine itself")]
#[test]
fn abort_paths_drain_cleanly_under_the_hierarchical_barrier() {
    struct Bomb;
    impl SpmdProgram for Bomb {
        type State = ();
        fn init(&self, _e: &ProcEnv) {}
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            _st: &mut (),
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            if step == 1 && env.pid.0 == 4 {
                panic!("boom");
            }
            // Keep traffic flowing so aborts race in-flight messages.
            ctx.send(
                ProcId(((env.pid.rank() + 1) % env.nprocs) as u32),
                0,
                &[0; 8],
            );
            if step == 3 {
                return StepOutcome::Done;
            }
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let tree = clustered();
    for _ in 0..150 {
        let err = ThreadedRuntime::new(Arc::clone(&tree))
            .barrier(BarrierKind::Hierarchical)
            .run(&Bomb)
            .unwrap_err();
        assert!(matches!(err, SimError::ProgramPanicked { pid, step: 1 } if pid.0 == 4));
    }
    std::panic::set_hook(prev);

    // Scripted crashes: the dead threads never run their bodies; the
    // leader translates the markers into one typed error.
    for _ in 0..150 {
        let err = ThreadedRuntime::new(Arc::clone(&tree))
            .barrier(BarrierKind::Hierarchical)
            .faults(FaultPlan::new().crash(ProcId(2), 1).crash(ProcId(7), 1))
            .run(&Chatter { rounds: 3 })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ProcCrashed {
                pids: vec![ProcId(2), ProcId(7)],
                step: 1
            }
        );
    }

    // Scripted stalls: the internal watchdog must fire on the
    // hierarchical barrier and name the absent processors (wall-clock
    // bound, so only a handful of iterations).
    for _ in 0..5 {
        let err = ThreadedRuntime::new(Arc::clone(&tree))
            .barrier(BarrierKind::Hierarchical)
            .faults(FaultPlan::new().stall(ProcId(5), 2))
            .run(&Chatter { rounds: 4 })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::BarrierTimeout {
                missing: vec![ProcId(5)],
                step: 2
            }
        );
    }
}

#[expect(clippy::disallowed_methods, reason = "stresses the engine itself")]
#[test]
fn hundreds_of_supersteps_stay_deterministic_across_engines() {
    let tree = Arc::new(
        TreeBuilder::flat(
            1.0,
            20.0,
            &[
                (1.0, 1.0),
                (1.3, 0.8),
                (1.9, 0.55),
                (2.4, 0.4),
                (3.1, 0.3),
                (4.0, 0.22),
            ],
        )
        .unwrap(),
    );
    let prog = Chatter { rounds: 300 };
    let (thr1, states1) = ThreadedRuntime::new(Arc::clone(&tree))
        .run_with_states(&prog)
        .unwrap();
    let (thr2, states2) = ThreadedRuntime::new(Arc::clone(&tree))
        .run_with_states(&prog)
        .unwrap();
    assert_eq!(states1, states2, "threaded runs are reproducible");
    assert_eq!(
        thr1.virtual_outcome.total_time,
        thr2.virtual_outcome.total_time
    );
    let (sim, sim_states) = hbsp_sim::Simulator::new(Arc::clone(&tree))
        .run_with_states(&prog)
        .unwrap();
    assert_eq!(sim_states, states1, "and agree with the simulator");
    assert_eq!(sim.total_time, thr1.virtual_outcome.total_time);
    assert_eq!(sim.num_steps(), 301);
}

/// The hierarchical barrier costs no more per superstep than the central
/// one on the machines where they part ways: p = 16, 32 and 64 in
/// clusters of 4, 200 empty supersteps a run. Sampling is interleaved —
/// each round times every configuration once — so drift on the host
/// lands on both barriers alike, and each side is a median of 9 rounds.
/// This guarded the p = 16 spin-policy regression (+174 %) before the
/// repository benchmark existed; it reports p = 2 and 8 only.
#[expect(clippy::disallowed_methods, reason = "stresses the engine itself")]
#[test]
#[ignore = "compares wall-clock medians: run in release (CI does)"]
fn hierarchical_barrier_is_no_slower_than_central_at_scale() {
    struct Empty;
    impl SpmdProgram for Empty {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            _: &mut (),
            _: &mut dyn SpmdContext,
        ) -> StepOutcome {
            if step == 200 {
                return StepOutcome::Done;
            }
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }
    let median = |mut ns: Vec<f64>| {
        ns.sort_by(f64::total_cmp);
        ns[ns.len() / 2]
    };
    for p in [16, 32, 64] {
        let clusters: Vec<_> = (0..p / 4).map(|_| (10.0, vec![(1.0, 1.0); 4])).collect();
        let tree = Arc::new(TreeBuilder::two_level(1.0, 50.0, &clusters).unwrap());
        let [central, hier] = [BarrierKind::Central, BarrierKind::Hierarchical]
            .map(|kind| ThreadedRuntime::new(Arc::clone(&tree)).barrier(kind));
        let time = |rt: &ThreadedRuntime| rt.run(&Empty).unwrap().wall.as_nanos() as f64;
        // One untimed run each spawns the threads.
        time(&central);
        time(&hier);
        let (mut c, mut h) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            c.push(time(&central));
            h.push(time(&hier));
        }
        let (c, h) = (median(c), median(h));
        assert!(
            h <= c,
            "p = {p}: hierarchical {h:.0} ns a run against central {c:.0} ns"
        );
    }
}
