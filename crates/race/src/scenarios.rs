//! Exploration scenarios: the runtime's risky protocols packaged as
//! re-runnable closures for [`weave::explore`].
//!
//! Each function is one *execution body*: it builds fresh runtime
//! objects, spawns one model thread per party with
//! [`weave::thread::scope_join`], drives the protocol under test, and
//! asserts functional correctness (leader exclusivity, publication
//! visibility, message conservation). The model checker supplies the
//! adversarial part — every interleaving within the preemption bound,
//! with vector-clock race detection on every [`RacyCell`] access.

use crate::RacyCell;
use hbsp_core::{
    MachineTree, ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope, TreeBuilder,
};
use hbsp_runtime::{
    BarrierKind, CentralBarrier, HierBarrier, Mailbox, ThreadedRuntime, WorkerPool,
};
use std::sync::Arc;
use std::time::Duration;

/// Machine shapes the barrier scenarios run on, sized for exhaustive
/// exploration (2–3 model threads).
#[derive(Debug, Clone, Copy)]
pub enum Machine {
    /// Two processors under one cluster: one combining node, the
    /// smallest tree with real arrival contention.
    Flat2,
    /// Three processors in two clusters (2 + 1): a two-level combining
    /// tree, so the last arriver of the pair propagates upward and
    /// sense reversal crosses levels.
    Clustered3,
}

/// Build the machine tree for a scenario shape.
#[expect(clippy::unwrap_used, reason = "two fixed, valid shapes")]
pub fn machine(m: Machine) -> MachineTree {
    match m {
        Machine::Flat2 => TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (1.0, 1.0)]).unwrap(),
        Machine::Clustered3 => TreeBuilder::two_level(
            1.0,
            50.0,
            &[
                (10.0, vec![(1.0, 1.0), (1.0, 1.0)]),
                (10.0, vec![(1.0, 1.0)]),
            ],
        )
        .unwrap(),
    }
}

/// Either superstep barrier, as the engine holds them.
enum Barrier {
    Central(CentralBarrier),
    Hier(HierBarrier),
}

impl Barrier {
    fn new(kind: BarrierKind, tree: &MachineTree) -> Self {
        match kind {
            BarrierKind::Central => Barrier::Central(CentralBarrier::new(tree.num_procs())),
            BarrierKind::Hierarchical => Barrier::Hier(HierBarrier::new(tree)),
        }
    }

    fn wait_leader<R>(&self, rank: usize, leader: impl FnOnce() -> R) -> Option<R> {
        match self {
            Barrier::Central(c) => c.wait_leader(leader),
            Barrier::Hier(h) => h.wait_leader(rank, leader),
        }
    }
}

/// The core barrier protocol under race detection: every rank writes
/// its own slot cell, arrives; the leader (exclusively) sums all slots
/// into a result cell; after release every rank reads the result.
///
/// This exercises exactly the `ProcSlot` ownership protocol the engine
/// relies on: owner-phase writes must happen-before the leader's
/// reads (the arrival/combine chain), and the leader's write must
/// happen-before the owners' post-release reads (the generation flip
/// and its acquire polls). `rounds > 1` adds sense reversal: stale
/// generation values must never release a waiter early.
pub fn barrier_publish(kind: BarrierKind, m: Machine, rounds: usize) {
    let tree = machine(m);
    let p = tree.num_procs();
    let b = Barrier::new(kind, &tree);
    let slots: Vec<RacyCell> = (0..p).map(|_| RacyCell::new(0)).collect();
    let result = RacyCell::new(0);
    let tasks: Vec<_> = (0..p)
        .map(|rank| {
            let (b, slots, result) = (&b, &slots, &result);
            move || {
                for round in 0..rounds {
                    let mine = (round * p + rank + 1) as u64;
                    // SAFETY: owner phase — slot `rank` is this
                    // thread's until its barrier arrival.
                    unsafe { slots[rank].write(mine) };
                    let leader = || {
                        // SAFETY: leader section — every rank arrived,
                        // none released; all slots are the leader's.
                        let sum: u64 = (0..p).map(|i| unsafe { slots[i].read() }).sum();
                        unsafe { result.write(sum) };
                        sum
                    };
                    let led = b.wait_leader(rank, leader);
                    let expect: u64 = (0..p).map(|i| (round * p + i + 1) as u64).sum();
                    // SAFETY: read phase — the leader's write of
                    // `result` happened in this generation's leader
                    // section, before any release.
                    assert_eq!(
                        unsafe { result.read() },
                        expect,
                        "every released thread sees the leader's publication"
                    );
                    if let Some(sum) = led {
                        assert_eq!(sum, expect);
                    }
                }
            }
        })
        .collect();
    for r in weave::thread::scope_join(tasks) {
        if let Err(e) = r {
            std::panic::resume_unwind(e);
        }
    }
}

/// The engine's outbox hand-off (`docs/ordering_audit.md`), reduced to
/// its cells: per rank `outboxes` outbox cells used round-robin by step
/// — two in the engine, `out[step & 1]` — and one pull-list cell, and
/// nothing else shared, so any race reported here is on one of them.
/// Every rank posts to every other, every step:
///
/// 1. body `s`: rank `i` consumes its pull list, overwrites its outbox
///    of step `s`, and only then — at the end of the body, the far edge
///    of the engine's in-place window, since a program reads its
///    `messages()` whenever it likes — reads what every peer posted in
///    `s − 1` (shared reads);
/// 2. leader section `s`: the leader edits every outbox of the step
///    (the engine's fault truncation) and rewrites every pull list;
/// 3. body `s + 1` reads them; 4. body `s + 2` overwrites the outbox.
///
/// `rounds ≥ 3` reuses a parity. What a reader sees is asserted too, so
/// a hand-off that is ordered but wrong (a stale parity) fails as well.
/// With `outboxes == 1` the owner's overwrite in body `s + 1` meets its
/// peers' reads of step `s` in the same body, with nothing between
/// them: the negative control that makes the second buffer load-bearing.
/// (A rank's read of its own outbox — a self-send — is left out: one
/// thread's accesses cannot race each other, and with one outbox it
/// would only trip the value assertion ahead of the race.)
pub fn outbox_pull(kind: BarrierKind, m: Machine, rounds: usize, outboxes: usize) {
    let tree = machine(m);
    let p = tree.num_procs();
    let b = Barrier::new(kind, &tree);
    let out: Vec<Vec<RacyCell>> = (0..p)
        .map(|_| (0..outboxes).map(|_| RacyCell::new(0)).collect())
        .collect();
    let pull: Vec<RacyCell> = (0..p).map(|_| RacyCell::new(0)).collect();
    // What rank `i` posts in `step`, and what the leader makes of it.
    let posted = |i: usize, step: usize| (step * p + i + 1) as u64;
    const EDIT: u64 = 1_000_000;
    let tasks: Vec<_> = (0..p)
        .map(|rank| {
            let (b, out, pull) = (&b, &out, &pull);
            move || {
                for step in 0..=rounds {
                    if step > 0 {
                        // SAFETY: owner phase — the leader wrote this
                        // rank's pull list before the release.
                        let routed = unsafe { pull[rank].read() };
                        assert_eq!(routed, step as u64, "the pull list of the last step");
                    }
                    // SAFETY: phase 1 (and 4) — the owner's refill;
                    // every reader of this outbox's last use has
                    // arrived at a barrier this thread was released
                    // from.
                    unsafe { out[rank][step % outboxes].write(posted(rank, step)) };
                    if step > 0 {
                        for (src, boxes) in out.iter().enumerate().filter(|&(src, _)| src != rank) {
                            // SAFETY: phase 3 — shared read, at the end
                            // of the body, of what `src` posted in the
                            // step before.
                            let got = unsafe { boxes[(step - 1) % outboxes].read() };
                            assert_eq!(got, posted(src, step - 1) + EDIT, "read from P{src}");
                        }
                    }
                    b.wait_leader(rank, || {
                        for (i, boxes) in out.iter().enumerate() {
                            // SAFETY: phase 2 — leader section, every
                            // rank arrived, none released.
                            unsafe {
                                let cell = &boxes[step % outboxes];
                                cell.write(cell.read() + EDIT);
                                pull[i].write(step as u64 + 1);
                            }
                        }
                    });
                }
            }
        })
        .collect();
    for r in weave::thread::scope_join(tasks) {
        if let Err(e) = r {
            std::panic::resume_unwind(e);
        }
    }
}

/// The watchdog abort protocol, focused on the barrier-internal
/// happens-before edge it must provide: rank 0 never arrives for
/// generation 0, so the barrier can never complete and a timed-out
/// waiter always claims the abort (exactly once), records an error in
/// a cell, publishes `ABORT_DEAD`, and wakes everyone. Rank 0 then
/// arrives *late*: the entry check must reject it with `None`, and
/// that Acquire load of `ABORT_DEAD` is the **only** happens-before
/// edge ordering the claimant's error write before rank 0's read —
/// the same shape as the engine's drain-and-fail path, where a
/// processor that finds the barrier dead reads state the watchdog
/// wrote. (A `None` return alone proves nothing: followers of a
/// normal release return `None` too, and an abort can race a normal
/// completion — the engine covers those reads with its own
/// Release/Acquire `failed` flag.)
///
/// Run under `eager_timeouts` so deadlines race normal progress.
pub fn watchdog_races_release(m: Machine) {
    use std::sync::atomic::Ordering;
    let tree = machine(m);
    let p = tree.num_procs();
    let b = HierBarrier::new(&tree);
    let error = RacyCell::new(0);
    // Value-only gate (Relaxed on purpose): tells rank 0 *that* the
    // barrier is dead, while the happens-before edge for reading
    // `error` must come from the barrier's own abort publication.
    let dead = weave::atomic::AtomicBool::new(false);
    let claims = weave::atomic::AtomicUsize::new(0);
    let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..p)
        .map(|rank| -> Box<dyn FnOnce() + Send> {
            let (b, error, dead, claims) = (&b, &error, &dead, &claims);
            if rank == 0 {
                Box::new(move || {
                    while !dead.load(Ordering::Relaxed) {
                        weave::thread::yield_now();
                    }
                    let led = b.wait_leader_watched(0, None, || unreachable!(), || 0u64);
                    assert!(led.is_none(), "a dead barrier rejects new arrivals");
                    // SAFETY: the entry check observed `ABORT_DEAD`,
                    // which the claimant published after its writes.
                    assert_eq!(unsafe { error.read() }, 0xDEAD);
                })
            } else {
                Box::new(move || {
                    let mut claimed = false;
                    let led = b.wait_leader_watched(
                        rank,
                        Some(Duration::from_millis(10)),
                        || {
                            claims.fetch_add(1, Ordering::Relaxed);
                            claimed = true;
                            // SAFETY: the abort claim is won exactly
                            // once; `ABORT_DEAD` publishes this write.
                            unsafe { error.write(0xDEAD) };
                        },
                        || 0u64,
                    );
                    assert!(led.is_none(), "generation 0 can never complete");
                    if claimed {
                        // Only *after* the watched wait returned: by
                        // now this thread has published `ABORT_DEAD`,
                        // so the flag never leads rank 0 to an
                        // entry check that still reads `claimed`.
                        dead.store(true, Ordering::Relaxed);
                    }
                })
            }
        })
        .collect();
    for r in weave::thread::scope_join(tasks) {
        if let Err(e) = r {
            std::panic::resume_unwind(e);
        }
    }
    // Whatever the interleaving, the abort fired exactly once.
    assert_eq!(claims.into_inner(), 1, "exactly one abort claimant");
}

/// Mailbox batch circulation: a depositor moving tagged batches in
/// (exercising both the swap-when-drained and append-when-behind
/// paths of `deposit_batch`) racing a drainer that takes the whole
/// inbox each round via buffer swap. Asserts conservation and global
/// FIFO order; the model checks the lock protocol underneath.
pub fn mailbox_circulation(rounds: usize, per_round: u32) {
    let mb = Mailbox::new();
    let produced = rounds as u32 * per_round;
    let tasks: Vec<Box<dyn FnOnce() -> Vec<u64> + Send>> = vec![
        Box::new({
            let mb = &mb;
            move || {
                let mut batch = hbsp_core::MsgBatch::new();
                let mut tag = 0u32;
                for _ in 0..rounds {
                    for _ in 0..per_round {
                        batch.push(ProcId(0), ProcId(1), tag, &tag.to_le_bytes());
                        tag += 1;
                    }
                    mb.deposit_batch(&mut batch);
                    assert!(batch.is_empty(), "deposit hands the buffer back empty");
                }
                Vec::new()
            }
        }),
        Box::new({
            let mb = &mb;
            move || {
                let mut inbox = hbsp_core::MsgBatch::new();
                let mut seen = Vec::new();
                for _ in 0..rounds + 1 {
                    mb.take_into(&mut inbox);
                    for msg in inbox.iter() {
                        seen.push(msg.tag as u64);
                    }
                }
                seen
            }
        }),
    ];
    let mut results = weave::thread::scope_join(tasks);
    let drained = match results.remove(1) {
        Ok(v) => v,
        Err(e) => std::panic::resume_unwind(e),
    };
    if let Err(e) = results.remove(0) {
        std::panic::resume_unwind(e);
    }
    let mut all = drained;
    for msg in mb.take().iter() {
        all.push(msg.tag as u64);
    }
    assert_eq!(
        all.len(),
        produced as usize,
        "no message lost or duplicated"
    );
    assert!(
        all.windows(2).all(|w| w[0] < w[1]),
        "batch swap/append preserves global FIFO order"
    );
}

/// The worker pool's dispatch protocol: two consecutive dispatches of
/// *different* jobs, each borrowing cells that die with its round, then
/// drop.
///
/// Each job reads an input cell the caller wrote before the dispatch
/// (the publish edge: `pool.epoch.publish` → `pool.epoch.poll`) and
/// writes its rank's own output cell; after `run` returns the caller
/// reads every output and overwrites every cell (the acknowledgement
/// edge: `pool.remaining.ack` → `pool.remaining.wait`). So a worker
/// that touched round 1's job after dispatch 1 returned races the
/// caller's overwrite, a worker that missed round 2's job leaves a
/// wrong output, and a worker stranded in `park` by the drop deadlocks
/// the join — the checker reports each.
#[expect(clippy::expect_used, reason = "a scenario fails by panicking")]
pub fn pool_dispatch(workers: usize) {
    let mut pool = WorkerPool::new(workers).expect("the model starts every worker");
    for round in 1..=2u64 {
        let input = RacyCell::new(0);
        let outputs: Vec<RacyCell> = (0..workers).map(|_| RacyCell::new(0)).collect();
        // SAFETY: no run is in flight; the cells are this thread's.
        unsafe { input.write(round * 100) };
        let job = |rank: usize| {
            // SAFETY: inside the run — `input` is read-only and
            // `outputs[rank]` is this worker's.
            unsafe { outputs[rank].write(input.read() + rank as u64) };
        };
        pool.run(&job);
        for (rank, out) in outputs.iter().enumerate() {
            // SAFETY: `run` returned, so every worker acknowledged and
            // none touches this round's cells again.
            assert_eq!(
                unsafe { out.read() },
                round * 100 + rank as u64,
                "every rank ran this round's job, once"
            );
            unsafe { out.write(0) };
        }
        // SAFETY: as above.
        unsafe { input.write(0) };
    }
    drop(pool);
}

/// Total-exchange program for the whole-engine scenario: both
/// processors send their pid to each other every round, checking
/// receipt the following superstep. With `mismatch_at`, rank 0 stops
/// at that step while its peer goes on: the run fails there, with
/// messages in both outboxes.
struct Exchange {
    rounds: usize,
    mismatch_at: Option<usize>,
}

impl SpmdProgram for Exchange {
    type State = u32;
    fn init(&self, _env: &ProcEnv) -> u32 {
        0
    }
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        state: &mut u32,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            assert_ne!(m.src, env.pid);
            *state += 1;
        }
        if step == self.rounds || (self.mismatch_at == Some(step) && env.pid.0 == 0) {
            return StepOutcome::Done;
        }
        ctx.charge(1.0);
        for q in 0..env.nprocs {
            if q != env.pid.rank() {
                ctx.send(ProcId(q as u32), 7, &env.pid.0.to_le_bytes());
            }
        }
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// The full engine on a two-processor machine: superstep bodies, slot
/// and outbox writes, leader routing, receiver pulls, and run teardown
/// all under the model. One runtime runs the exchange twice — the
/// second run in the frame the caller reset after the first — then a
/// run that fails at step 1, then the exchange again in the frame
/// rebuilt after the failure. So the caller's reset of the outboxes
/// between runs is checked against both runs' accesses. Too many
/// decision points for exhaustive DFS — the tests drive this with
/// seeded random walks.
#[expect(clippy::disallowed_methods, reason = "model-checks the engine itself")]
#[expect(clippy::unwrap_used, reason = "a scenario fails by panicking")]
pub fn engine_smoke(rounds: usize) {
    let tree = Arc::new(machine(Machine::Flat2));
    let rt = ThreadedRuntime::new(Arc::clone(&tree));
    let healthy = Exchange {
        rounds,
        mismatch_at: None,
    };
    let exchange = || {
        let (out, states) = rt.run_with_states(&healthy).unwrap();
        assert_eq!(out.virtual_outcome.num_steps(), rounds + 1);
        assert_eq!(
            out.virtual_outcome.messages_delivered,
            rounds as u64 * tree.num_procs() as u64,
            "every posted message delivered exactly once"
        );
        for st in states {
            assert_eq!(
                st as usize, rounds,
                "each peer's message arrived each round"
            );
        }
    };
    exchange();
    exchange();
    let failing = Exchange {
        rounds,
        mismatch_at: Some(1),
    };
    assert_eq!(
        rt.run(&failing).unwrap_err(),
        hbsp_sim::SimError::TerminationMismatch { step: 1 }
    );
    exchange();
}
