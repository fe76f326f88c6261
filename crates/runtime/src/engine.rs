//! The threaded execution engine.
//!
//! One OS thread per leaf processor — spawned by a runtime's first run,
//! parked between runs, joined when the runtime is dropped (see
//! `pool.rs`) — synchronized per superstep by a hierarchical
//! combining-tree barrier (see [`crate::barrier`]). What a run works in
//! (the barrier, the slots with their outboxes, the leader state and the
//! arrival board: a `RunFrame`) is built with the threads and kept with
//! them; between runs the caller resets it, releasing the outboxes'
//! byte arenas, and after a failed run it is built afresh. Only the
//! result cells (typed by the program's state) are built per run.
//! The per-step hot path is lock-free for the processor threads, and a
//! posted byte is written once, by the thread that sends it, and read in
//! place by the thread that receives it — the engine copies none:
//!
//! * each thread writes its superstep contribution (charged work,
//!   outcome) into its own cache-line-padded `ProcSlot` and posts its
//!   messages into one of the slot's two outboxes, `out[step & 1]` — no
//!   shared lock is taken between barriers;
//! * the barrier's leader section touches message *metadata* only: it
//!   settles the step through the settlement every engine runs
//!   (`hbsp_sim::step::Settlement`) over the `p` outboxes chained in pid
//!   order — the step's network faults are offset-table edits — and
//!   appends one `(src rank, index)` row per message it delivers to the
//!   destination's pull list, in delivery order;
//! * released into body `s + 1`, each thread's `ctx.messages()` is an
//!   `Inbox` over its pull list and the senders' step-`s` outboxes: the
//!   body reads every payload where its sender wrote it, for as long as
//!   the body runs, while it posts into its other outbox (the hand-off
//!   rides the barrier's own edges, see `ProcSlot`: no new atomic, lock
//!   or ordering site);
//! * run-level coordination state lives in a `LeaderState` mutex that
//!   only the leader section locks (uncontended by construction), with
//!   two atomics (`finished`, `failed`) publishing the step's verdict
//!   to the released threads.

use crate::barrier::{lock_anyway, BarrierKind, StepBarrier};
use crate::pool::WorkerPool;
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{cell_read, hb_assert, site_ord, Instant, Mutex, UnsafeCell};
use hbsp_core::{
    Inbox, MachineTree, MsgBatch, MsgView, ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome,
    WireWriter,
};
#[cfg(doc)]
use hbsp_obs::StepRecord;
use hbsp_obs::{ObsEvent, Probe, StepWall};
use hbsp_sim::step::{Posted, Settlement, StepEnv};
use hbsp_sim::{FaultPlan, NetConfig, SimError, SimOutcome};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// Watchdog armed at any step with a *scripted* barrier stall: peers
/// need not wait for a user deadline (possibly unlimited) to diagnose
/// a stall the fault plan guarantees will happen. Long enough that a
/// loaded CI machine still gets every healthy thread to the barrier
/// first; short enough that chaos runs stay fast.
const STALL_WATCHDOG: Duration = Duration::from_millis(100);

/// How long a scripted-stalled thread waits for its peers' watchdog
/// verdict before recording the (identical) timeout itself — the
/// fallback that keeps a stall of *every* processor from hanging.
const STALL_SELF_REPORT: Duration = Duration::from_millis(400);

/// Result of a threaded run: the same virtual-time outcome the
/// simulator would produce, plus real wall-clock duration.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Virtual-time outcome (identical to `Simulator::run` for the same
    /// program, machine, and config).
    pub virtual_outcome: SimOutcome,
    /// Real elapsed time of the threaded execution.
    pub wall: Duration,
}

/// One OS thread per leaf processor, superstep-synchronized.
pub struct ThreadedRuntime {
    tree: Arc<MachineTree>,
    cfg: NetConfig,
    step_limit: usize,
    barrier_kind: BarrierKind,
    check: bool,
    faults: FaultPlan,
    step_deadline: Option<Duration>,
    probe: Arc<dyn Probe>,
    /// The `p` processor threads and the frame their runs work in, both
    /// built by the first run and kept between runs; `None` before that
    /// and while a run has them.
    pool: Mutex<Option<Box<Kept>>>,
}

/// What a runtime keeps between runs. The pool is declared first so
/// that it drops first: its workers are joined before the frame they
/// borrow from goes.
struct Kept {
    pool: WorkerPool,
    frame: RunFrame,
}

/// What a run works in, kept with the worker pool between runs: the
/// barrier, the `p` slots with their outboxes, the leader state and the
/// arrival board. After a run that succeeded the caller resets it
/// ([`RunFrame::reset`]); after one that failed it is dropped and built
/// afresh — a watchdog abort kills the barrier, and an aborted step
/// leaves slots and the settlement mid-step.
struct RunFrame {
    barrier: StepBarrier,
    slots: Vec<ProcSlot>,
    leader: Mutex<LeaderState>,
    /// Arrival board: rank `i` stores `step + 1` right before its
    /// barrier arrival. A watchdog firing on an *unscripted* stall (a
    /// hung body under `step_deadline`) derives the missing-pid list
    /// from it; scripted stalls use the plan's own list so the error
    /// value matches the simulator's bit for bit.
    arrived: Vec<AtomicUsize>,
}

impl RunFrame {
    fn new(kind: BarrierKind, tree: &MachineTree) -> Self {
        let p = tree.num_procs();
        RunFrame {
            barrier: StepBarrier::new(kind, tree),
            slots: (0..p).map(|_| ProcSlot::new()).collect(),
            leader: Mutex::new(LeaderState::new(p)),
            arrived: (0..p).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Make the frame of a run that succeeded what [`RunFrame::new`]
    /// builds, keeping the barrier (and its generation count) and
    /// the room of the pull lists and the settlement, and releasing the
    /// outboxes' byte arenas. The slots' data needs nothing: such a run's
    /// leader took every outcome and work figure, and its last step
    /// delivered nothing. The caller does it between the run's last
    /// acknowledgement and the next run's epoch publish, so the pool's
    /// own edges order it after every access of the run before and
    /// before every access of the run after.
    fn reset(&mut self) {
        for slot in &self.slots {
            for parity in 0..2 {
                // SAFETY: `&mut self`. The accessor is used instead of
                // `get_mut` so that under the model the reset is an
                // access the checker orders against the run's: what makes
                // this `&mut` true is the pool's acknowledgement edge,
                // not the borrow checker.
                *unsafe { slot.outbox(parity) } = MsgBatch::default();
            }
        }
        let ls = self
            .leader
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        ls.settlement.reset(self.slots.len());
        for arrived in &mut self.arrived {
            *arrived.get_mut() = 0;
        }
    }
}

/// One processor's share of the engine's memory: its per-superstep
/// contribution and pull list (`data`) and the two outboxes it posts
/// into on alternate steps (`out`), each on its own cache lines so an
/// owner's writes never false-share with a peer's accesses.
///
/// Access protocol of `data` (what makes its `UnsafeCell` sound):
///
/// * between a barrier release and its next barrier arrival, slot `i`
///   is touched only by processor thread `i` (via [`ProcSlot::slot`]);
/// * inside the barrier's leader section — when every thread of the
///   generation has arrived and none has been released — all slots are
///   touched only by the leader.
///
/// Access protocol of `out[π]` (the outbox hand-off of
/// `docs/ordering_audit.md`), four phases per use:
///
/// 1. written by its owner in a body of parity π, cleared first;
/// 2. edited by the leader in that step's leader section (scripted
///    drops and truncations: offset-table edits);
/// 3. read *shared* by every rank for the whole of the next body, each
///    reading the messages routed to it in place, while the owner
///    holds `data` and `out[1 − π]` mutably and writes its own posts —
///    hence separate cells;
/// 4. next written by its owner two bodies later, after every reader
///    has arrived at the barrier in between.
///
/// The barrier's acquire/release edges order the phases of both: owner
/// writes happen-before the leader's accesses (the arrival chain),
/// leader writes happen-before what released threads do next (the
/// release flip), and a reader's last read — at the end of its body at
/// the latest — happens-before the owner's rewrite through one more
/// arrival and release. With one outbox per rank, phase 3 of a step
/// would overlap phase 1 of the next (`hbsp-race` holds that negative
/// control).
#[repr(align(128))]
struct ProcSlot {
    data: UnsafeCell<SlotData>,
    out: [Outbox; 2],
}

/// One outbox, on cache lines of its own.
#[repr(align(128))]
#[derive(Default)]
struct Outbox(UnsafeCell<MsgBatch>);

// SAFETY: shared access is mediated by the superstep barrier per the
// protocols documented on `ProcSlot` — at any instant a cell has at
// most one thread holding a `&mut` into it and no other reference, or
// any number of threads holding `&`s.
unsafe impl Sync for ProcSlot {}

impl ProcSlot {
    fn new() -> Self {
        ProcSlot {
            data: UnsafeCell::new(SlotData::default()),
            out: Default::default(),
        }
    }

    /// The outbox of `step`'s parity, for writing.
    ///
    /// # Safety
    /// The caller is the slot's processor thread in body `step`, or the
    /// leader in the leader section of `step` or `step + 1` (phases 1,
    /// 2 and, for an abort's scrub, the end of 3).
    #[allow(clippy::mut_from_ref)]
    unsafe fn outbox(&self, step: usize) -> &mut MsgBatch {
        let cell = &self.out[step & 1].0;
        // For the owner's refill: every reader of two steps ago is done.
        hb_assert!(
            cell,
            "outbox hand-off: every earlier writer and reader of this \
             parity has arrived at a barrier the caller was released from"
        );
        // SAFETY: per this function's contract no other reference into
        // the cell is live.
        unsafe { &mut *cell.get() }
    }

    /// What was posted in `step`, for reading alongside other readers.
    ///
    /// # Safety
    /// The caller is any processor thread in body `step + 1`, dropping
    /// the reference by the end of that body, or the leader in the
    /// leader section of `step` holding no `&mut` from [`Self::outbox`]
    /// (phases 3 and 2).
    unsafe fn posted(&self, step: usize) -> &MsgBatch {
        // SAFETY: per this function's contract every write to the cell
        // happens-before this read, and the next one happens-after.
        unsafe { &*cell_read(&self.out[step & 1].0) }
    }

    /// Access the slot's contents.
    ///
    /// # Safety
    /// The caller must hold the slot per the [`ProcSlot`] protocol:
    /// either it is processor thread `i` outside the leader section, or
    /// it is the leader inside the leader section.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot(&self) -> &mut SlotData {
        // The model-checkable form of this function's safety contract:
        // every prior access to the cell must happen-before this one.
        hb_assert!(
            self.data,
            "ProcSlot protocol: the caller is the slot's unique holder \
             for the current barrier phase"
        );
        // SAFETY: per this function's contract the caller is the slot's
        // unique holder for the current barrier phase, so no other
        // reference into the cell exists while this one lives.
        unsafe { &mut *self.data.get() }
    }
}

#[derive(Default)]
struct SlotData {
    /// Charged work units of the current step.
    work: f64,
    /// What this processor receives from the step the leader just
    /// closed: one `(src rank, index in src's outbox)` row per message,
    /// in (arrival, posting index) order — the rows the body's `Inbox`
    /// reads in place. Cleared and refilled by the leader every step: a
    /// rank that receives nothing sees nothing.
    pull: Vec<(u32, u32)>,
    /// The step body's outcome; consumed by the leader. A rank that
    /// arrives without one crashed at this step (a scripted crash: its
    /// body never ran).
    outcome: Option<StepOutcome>,
    /// A contained panic, recorded with the step it happened in. Only
    /// the *leader* (inside the barrier, when every thread of the
    /// generation has arrived) translates these into the shared error —
    /// publishing the error directly from the panicking thread would
    /// let a racing peer observe it during the *previous* step's check
    /// and exit before reaching the next barrier, stranding everyone
    /// else there.
    panicked: Option<usize>,
    /// Wall-clock body start of the current step (ns since the run
    /// began). Written by the owner thread only when a probe is
    /// enabled; read by the leader when emitting a [`StepRecord`].
    body_start_ns: u64,
    /// Wall-clock body end (barrier arrival) of the current step.
    body_end_ns: u64,
}

/// Run-level coordination state. Locked only inside the barrier's
/// leader section (and once after the run), so the mutex is always
/// uncontended — it exists to satisfy the borrow checker, not to
/// arbitrate threads.
#[derive(Default)]
struct LeaderState {
    /// The run's superstep accounting, settled step by step.
    settlement: Settlement,
    /// Set when the SPMD discipline is violated; threads bail out.
    error: Option<SimError>,
    /// `base[i]`: how many messages ranks below `i` posted this step —
    /// what turns a message's index in the chained pid-then-posting
    /// order into an index into its sender's outbox.
    base: Vec<usize>,
    /// This engine's wall-clock body marks (`[start, end]`, gathered
    /// from the slots for an enabled probe), reused across steps.
    body_ns: [Vec<u64>; 2],
}

impl LeaderState {
    fn new(p: usize) -> Self {
        let mut ls = LeaderState::default();
        ls.settlement.reset(p);
        ls
    }
}

impl ThreadedRuntime {
    /// Runtime with PVM-like default microcosts.
    #[expect(clippy::disallowed_methods, reason = "`with_config`, default costs")]
    pub fn new(tree: Arc<MachineTree>) -> Self {
        Self::with_config(tree, NetConfig::pvm_like())
    }

    /// Runtime with explicit microcosts.
    pub fn with_config(tree: Arc<MachineTree>, cfg: NetConfig) -> Self {
        ThreadedRuntime {
            tree,
            cfg,
            step_limit: 100_000,
            barrier_kind: BarrierKind::default(),
            check: cfg!(debug_assertions),
            faults: FaultPlan::new(),
            step_deadline: None,
            probe: hbsp_obs::noop(),
            pool: Mutex::new(None),
        }
    }

    /// Attach a telemetry [`Probe`] (default: the no-op probe). When
    /// enabled, the leader section emits one [`StepRecord`] per
    /// superstep carrying the same virtual-time schema the simulator
    /// produces *plus* wall-clock marks ([`StepWall`]) measured with
    /// `Instant`; watchdog aborts surface as [`ObsEvent`]s. When
    /// disabled nothing is assembled and the hot path is untouched.
    pub fn probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.probe = probe;
        self
    }

    /// Override the runaway-program guard (default 100 000 supersteps).
    pub fn step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    /// Toggle the static pre-flight check (`SpmdProgram::preflight`)
    /// run before any thread spawns. On by default in debug builds: a
    /// malformed program fails at submit time with
    /// [`SimError::Preflight`] instead of panicking a worker or
    /// hanging a barrier mid-run.
    pub fn check(mut self, enable: bool) -> Self {
        self.check = enable;
        self
    }

    /// Choose the superstep barrier implementation (default:
    /// [`BarrierKind::Hierarchical`]). The central barrier is kept as
    /// the baseline the hierarchical one is measured against.
    pub fn barrier(mut self, kind: BarrierKind) -> Self {
        self.barrier_kind = kind;
        self
    }

    /// Inject a scripted [`FaultPlan`]. Both engines honor the same
    /// plan at the same protocol points, in the same order (stall →
    /// crash → bodies → message corruption → straggle timing), so a
    /// fault run here yields the same typed error or virtual-time
    /// outcome as `Simulator` under the same plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Wall-clock watchdog on barrier arrival (default: unlimited): if
    /// any peer is still missing `deadline` after a thread started
    /// waiting, the run aborts with [`SimError::BarrierTimeout`]
    /// naming the absent pids instead of hanging. The deadline should
    /// comfortably exceed a superstep's real compute time. Mirrored in
    /// virtual time by `Simulator::step_deadline`.
    pub fn step_deadline(mut self, deadline: Duration) -> Self {
        self.step_deadline = Some(deadline);
        self
    }

    /// The machine being executed.
    pub fn tree(&self) -> &Arc<MachineTree> {
        &self.tree
    }

    /// Run `prog` on real threads; returns the outcome and every
    /// processor's final state.
    pub fn run_with_states<P: SpmdProgram>(
        &self,
        prog: &P,
    ) -> Result<(RunOutcome, Vec<P::State>), SimError> {
        self.cfg.validate()?;
        self.faults.validate(self.tree.num_procs())?;
        if self.check {
            prog.preflight(&self.tree)
                .map_err(|e| SimError::Preflight {
                    message: e.to_string(),
                })?;
        }
        let p = self.tree.num_procs();
        let began = Instant::now();
        let results: Vec<_> = (0..p).map(|_| Mutex::new(None)).collect();
        // The kept pool and frame, or — when another run has them (a
        // second caller, a program whose `step` runs a program on this
        // runtime) — private ones. Taken after `results`, so that
        // unwinding out of `run` joins the workers before the results go.
        let mut kept = match lock_anyway(&self.pool).take() {
            Some(kept) => kept,
            None => Box::new(Kept {
                pool: WorkerPool::new(p).map_err(|e| SimError::Spawn {
                    message: e.to_string(),
                })?,
                frame: RunFrame::new(self.barrier_kind, &self.tree),
            }),
        };
        let Kept { pool, frame } = &mut *kept;
        let RunFrame {
            barrier,
            slots,
            leader: leader_state,
            arrived,
        } = &*frame;
        let finished = &AtomicBool::new(false);
        let failed = &AtomicBool::new(false);

        let (tree, faults, probe) = (&self.tree, &self.faults, &*self.probe);
        let step_env = &StepEnv {
            tree,
            cfg: &self.cfg,
            faults,
            probe,
            deadline: None,
        };
        let observing = self.probe.enabled();
        let step_limit = self.step_limit;
        let user_deadline = self.step_deadline;
        // A rank's final state, or `None` when it saw the run fail (the
        // leader state holds why) or ran out of steps.
        let rank_body = |i: usize| -> Option<P::State> {
            let env = ProcEnv {
                pid: ProcId(i as u32),
                nprocs: p,
                tree: Arc::clone(tree),
            };
            // `init` is contained like a step body: a rank whose
            // `init` panicked has no state, and reports a
            // step-0 panic at its first body.
            let mut state =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prog.init(&env))).ok();
            // `sources[src]`: what `src` posted in the step before the
            // body that is running, filled at body start and emptied at
            // body end — allocated once per run.
            let mut sources: Vec<&MsgBatch> = Vec::with_capacity(p);
            for step in 0..step_limit {
                // Scripted stall: never arrive at this step's
                // barrier. The peers' watchdog (or, if every
                // processor stalled, our own fallback below)
                // converts the absence into a typed timeout.
                if faults.stalls(env.pid, step) {
                    let give_up = Instant::now() + STALL_SELF_REPORT;
                    while !failed.load(site_ord!("engine.failed.check", Ordering::Acquire)) {
                        if Instant::now() >= give_up {
                            let missing = faults.stalled_at(step);
                            record_timeout(missing, step, leader_state, failed, probe);
                            break;
                        }
                        crate::sync::thread::sleep(Duration::from_millis(1));
                    }
                    return None;
                }

                // Scripted crash: the body never runs, and the rank
                // makes one last barrier arrival without an outcome, so
                // the leader can diagnose every crashed rank of the step
                // at once.
                if !faults.crashes(env.pid, step) {
                    // Superstep body, in parallel with all
                    // peers. A panicking body must not strand
                    // the other threads at the barrier: contain
                    // it, report a typed error, and let
                    // everyone unwind together.
                    // SAFETY: this thread owns slot `i` outside
                    // the leader section (ProcSlot protocol).
                    let slot = unsafe { slots[i].slot() };
                    if observing {
                        slot.body_start_ns = began.elapsed().as_nanos() as u64;
                    }
                    // What the leader routed here is read in place,
                    // through the senders' outboxes of the last step.
                    if step > 0 {
                        // SAFETY: body `step` reads what was posted in
                        // `step - 1` (outbox hand-off, phase 3); the
                        // references go at the end of the body.
                        sources.extend(slots.iter().map(|s| unsafe { s.posted(step - 1) }));
                    }
                    // SAFETY: this thread owns its outbox of this
                    // parity for the body (outbox hand-off, phase 1).
                    let outbox = unsafe { slots[i].outbox(step) };
                    outbox.clear();
                    let mut ctx = ThreadCtx {
                        env: &env,
                        inbox: Inbox::per_sender(&sources, &slot.pull),
                        outbox,
                        work: 0.0,
                    };
                    let body = state.as_mut().and_then(|state| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            prog.step(step, &env, state, &mut ctx)
                        }))
                        .ok()
                    });
                    let work = ctx.work;
                    sources.clear();
                    slot.work = work;
                    if observing {
                        slot.body_end_ns = began.elapsed().as_nanos() as u64;
                    }
                    slot.outcome = Some(match body {
                        Some(o) => o,
                        None => {
                            slot.panicked = Some(step);
                            // Participate with a harmless
                            // outcome so the barrier still
                            // completes.
                            StepOutcome::Done
                        }
                    });
                }
                arrived[i].store(
                    step + 1,
                    site_ord!("engine.arrival.board", Ordering::Release),
                );
                // Watchdog: at a step with a scripted stall the
                // plan *guarantees* a missing peer, so a short
                // internal deadline applies even when the user
                // set none (or a long one).
                let scripted_stall = !faults.stalled_at(step).is_empty();
                let timeout = if scripted_stall {
                    Some(user_deadline.map_or(STALL_WATCHDOG, |d| d.min(STALL_WATCHDOG)))
                } else {
                    user_deadline
                };
                // Rendezvous; the thread completing the root
                // arrival does the step's sequential
                // coordination. The leader section is itself
                // panic-contained: an unwinding leader would
                // otherwise wedge every waiter.
                barrier.wait_leader_watched(
                    i,
                    timeout,
                    || {
                        let missing = if scripted_stall {
                            faults.stalled_at(step)
                        } else {
                            (0..p)
                                .filter(|&j| {
                                    arrived[j]
                                        .load(site_ord!("engine.arrival.scan", Ordering::Acquire))
                                        != step + 1
                                })
                                .map(|j| ProcId(j as u32))
                                .collect()
                        };
                        record_timeout(missing, step, leader_state, failed, probe);
                    },
                    || {
                        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let mut ls = lock_anyway(leader_state);
                            if ls.error.is_some() {
                                // A watchdog abort raced us
                                // here: don't stack step
                                // work on a dying run.
                                failed.store(
                                    true,
                                    site_ord!("engine.failed.publish", Ordering::Release),
                                );
                                return;
                            }
                            leader_step(step_env, slots, step, &mut ls, finished, failed, began);
                        }));
                        if ok.is_err() {
                            let mut ls = lock_anyway(leader_state);
                            if ls.error.is_none() {
                                ls.error = Some(SimError::LeaderPanicked { step });
                            }
                            drop(ls);
                            failed
                                .store(true, site_ord!("engine.failed.publish", Ordering::Release));
                        }
                    },
                );
                if failed.load(site_ord!("engine.failed.check", Ordering::Acquire)) {
                    return None;
                }
                if finished.load(site_ord!("engine.finished.check", Ordering::Acquire)) {
                    // Some: a rank whose `init` panicked fails step 0.
                    return state;
                }
            }
            None
        };
        let job = |i: usize| {
            let result = rank_body(i);
            *lock_anyway(&results[i]) = result;
        };
        pool.run(&job);
        let wall = began.elapsed();

        // The leader records every failure before any rank sees it, so a
        // rank without a state and no recorded error ran out of steps.
        let ls = frame
            .leader
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let verdict = match ls.error.take() {
            Some(e) => Err(e),
            None => results
                .into_iter()
                .map(|r| r.into_inner().unwrap_or_else(PoisonError::into_inner))
                .collect::<Option<Vec<_>>>()
                .ok_or(SimError::StepLimit { limit: step_limit }),
        }
        .map(|states| {
            let virtual_outcome = ls.settlement.outcome();
            (
                RunOutcome {
                    virtual_outcome,
                    wall,
                },
                states,
            )
        });
        if verdict.is_ok() {
            frame.reset();
        } else {
            *frame = RunFrame::new(self.barrier_kind, &self.tree);
        }
        // Keep the pool and frame that ran last; a displaced pair is
        // dropped here, outside the lock.
        let displaced = lock_anyway(&self.pool).replace(kept);
        drop(displaced);
        verdict
    }

    /// Run `prog`, discarding final states.
    pub fn run<P: SpmdProgram>(&self, prog: &P) -> Result<RunOutcome, SimError> {
        self.run_with_states(prog).map(|(o, _)| o)
    }
}

/// The watchdog's abort path: record a [`SimError::BarrierTimeout`]
/// (first writer wins). Unlike [`abort_step`] this does NOT touch the
/// `ProcSlot`s: the watchdog may fire while a straggling thread is
/// still writing its own slot or reading its peers' outboxes, so
/// only mutex-protected state is safe to reach from here. Nobody
/// writes a slot or an outbox again: the run is over once `failed`
/// flips.
fn record_timeout(
    missing: Vec<ProcId>,
    step: usize,
    leader_state: &Mutex<LeaderState>,
    failed: &AtomicBool,
    probe: &dyn Probe,
) {
    let mut ls = lock_anyway(leader_state);
    if ls.error.is_none() {
        // First writer wins for the event too: the self-report fallback
        // runs the same path, and the firing must be counted once.
        if probe.enabled() {
            probe.on_event(&ObsEvent::WatchdogFired {
                step,
                missing: &missing,
            });
        }
        ls.error = Some(SimError::BarrierTimeout { missing, step });
    }
    drop(ls);
    failed.store(true, site_ord!("engine.failed.publish", Ordering::Release));
}

/// Record `error` and scrub every queue: an aborted step must leave no
/// stale contribution or undelivered message behind. Runs inside the
/// leader section.
fn abort_step(error: SimError, slots: &[ProcSlot], ls: &mut LeaderState, failed: &AtomicBool) {
    if ls.error.is_none() {
        ls.error = Some(error);
    }
    for s in slots {
        // SAFETY: leader section — the leader owns every slot, and
        // every reader of either outbox has arrived.
        let slot = unsafe { s.slot() };
        slot.pull.clear();
        slot.outcome = None;
        slot.work = 0.0;
        for parity in 0..2 {
            // SAFETY: as above.
            unsafe { s.outbox(parity) }.clear();
        }
    }
    failed.store(true, site_ord!("engine.failed.publish", Ordering::Release));
}

/// The per-superstep sequential coordination: this engine's own
/// translation of crashes and panics, then the superstep settlement
/// every engine runs. Inside the barrier's leader section; `slots` are
/// all leader-owned here (see [`ProcSlot`]).
fn leader_step(
    env: &StepEnv<'_>,
    slots: &[ProcSlot],
    step: usize,
    ls: &mut LeaderState,
    finished: &AtomicBool,
    failed: &AtomicBool,
    began: Instant,
) {
    // Gather contributions (the messages stay where they were posted).
    // A rank without an outcome crashed at this step; crashes are
    // translated first — the simulator diagnoses a crash before any
    // body runs, so a crash outranks a panic that happened in the same
    // step's surviving bodies.
    let mut crashed: Vec<ProcId> = Vec::new();
    for (i, s) in slots.iter().enumerate() {
        // SAFETY: leader section — the leader owns every slot.
        let slot = unsafe { s.slot() };
        slot.pull.clear();
        match slot.outcome.take() {
            Some(outcome) => ls
                .settlement
                .contribute(std::mem::take(&mut slot.work), outcome),
            None => crashed.push(ProcId(i as u32)),
        }
    }
    if !crashed.is_empty() {
        let error = SimError::ProcCrashed {
            pids: crashed,
            step,
        };
        abort_step(error, slots, ls, failed);
        return;
    }
    // Translate contained panics into the shared error now that every
    // thread of this generation has arrived (lowest rank wins for
    // determinism).
    for (i, slot) in slots.iter().enumerate() {
        // SAFETY: leader section — the leader owns every slot.
        if let Some(pstep) = unsafe { slot.slot() }.panicked {
            let error = SimError::ProgramPanicked {
                pid: ProcId(i as u32),
                step: pstep,
            };
            abort_step(error, slots, ls, failed);
            return;
        }
    }
    let LeaderState {
        settlement,
        base,
        body_ns: [body_start_ns, body_end_ns],
        ..
    } = &mut *ls;
    // This engine's share of the telemetry record: the wall-clock marks
    // (the body marks in the slots are leader-readable here).
    let wall = move || {
        let (starts, ends) = (body_start_ns, body_end_ns);
        starts.clear();
        ends.clear();
        for slot in slots {
            // SAFETY: leader section — the leader owns every slot.
            let slot = unsafe { slot.slot() };
            starts.push(slot.body_start_ns);
            ends.push(slot.body_end_ns);
        }
        Some(StepWall {
            body_start_ns: starts,
            body_end_ns: ends,
            leader_done_ns: began.elapsed().as_nanos() as u64,
        })
    };
    let mut outboxes = Outboxes { slots, step, base };
    // Route with one pull-list row per message; the receivers read the
    // bytes in place after the release.
    let settled = settlement.settle(env, step, &mut outboxes, wall, |o, dst, src, mi| {
        let k = (mi - o.base[src as usize]) as u32;
        // SAFETY: leader section — the leader owns every slot.
        unsafe { slots[dst].slot() }.pull.push((src, k));
    });
    match settled {
        Ok(false) => {}
        Ok(true) => finished.store(
            true,
            site_ord!("engine.finished.publish", Ordering::Release),
        ),
        Err(e) => abort_step(e, slots, ls, failed),
    }
}

/// The `p` outboxes of one step, as the settlement reads them: chained
/// in pid order they are the exact posting order the simulator sees
/// when it runs processors sequentially. Leader section only.
struct Outboxes<'a> {
    slots: &'a [ProcSlot],
    step: usize,
    /// Filled as the faults leave the outboxes: see `LeaderState::base`.
    base: &'a mut Vec<usize>,
}

impl Posted for Outboxes<'_> {
    fn corrupt(&mut self, faults: &FaultPlan, step: usize) {
        self.base.clear();
        let mut posted = 0;
        for s in self.slots {
            // SAFETY: leader section — the leader owns the outboxes of
            // this step (outbox hand-off, phase 2).
            let outbox = unsafe { s.outbox(self.step) };
            faults.corrupt_batch(step, outbox);
            self.base.push(posted);
            posted += outbox.len();
        }
    }

    fn messages(&self) -> impl Iterator<Item = MsgView<'_>> {
        self.slots
            .iter()
            // SAFETY: leader section, no `&mut` into an outbox is live.
            .flat_map(|s| unsafe { s.posted(self.step) }.iter())
    }
}

/// The runtime's per-processor superstep context: reads the thread's
/// pull list in place through its senders' outboxes, writes sends
/// directly into the thread's outbox of the step — no per-message
/// allocation or copy on either side.
struct ThreadCtx<'a> {
    env: &'a ProcEnv,
    inbox: Inbox<'a>,
    outbox: &'a mut MsgBatch,
    work: f64,
}

impl SpmdContext for ThreadCtx<'_> {
    fn pid(&self) -> ProcId {
        self.env.pid
    }
    fn nprocs(&self) -> usize {
        self.env.nprocs
    }
    fn tree(&self) -> &MachineTree {
        &self.env.tree
    }
    fn messages(&self) -> Inbox<'_> {
        self.inbox
    }
    fn send_with(
        &mut self,
        dsts: &[ProcId],
        tag: u32,
        len: usize,
        fill: &mut dyn FnMut(&mut WireWriter<'_>),
    ) {
        if let Err(broken) = self.outbox.push_with(self.env.pid, dsts, tag, len, fill) {
            // Caught with the body, as this rank's `ProgramPanicked`.
            panic!("{}: {broken}", self.env.pid);
        }
    }
    fn charge(&mut self, units: f64) {
        assert!(
            units >= 0.0 && units.is_finite(),
            "charged work must be finite and non-negative"
        );
        self.work += units;
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests of the engine itself")]
mod tests {
    use super::*;
    use hbsp_core::{SyncScope, TreeBuilder};
    use hbsp_sim::Simulator;

    /// Total-exchange program: every processor sends its pid (as bytes)
    /// to everyone else each round.
    struct Exchange {
        rounds: usize,
    }

    impl SpmdProgram for Exchange {
        type State = Vec<(u32, u32)>; // (step received, src)
        fn init(&self, _env: &ProcEnv) -> Self::State {
            Vec::new()
        }
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            state: &mut Self::State,
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            for m in ctx.messages() {
                state.push((step as u32, m.src.0));
            }
            if step == self.rounds {
                return StepOutcome::Done;
            }
            ctx.charge(10.0);
            for q in 0..env.nprocs {
                if q != env.pid.rank() {
                    ctx.send(ProcId(q as u32), 7, &env.pid.0.to_le_bytes());
                }
            }
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }

    fn machine() -> Arc<MachineTree> {
        Arc::new(
            TreeBuilder::flat(
                1.0,
                25.0,
                &[(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 0.35)],
            )
            .unwrap(),
        )
    }

    /// An HBSP^2 machine so the hierarchical barrier has real clusters.
    fn clustered_machine() -> Arc<MachineTree> {
        Arc::new(
            TreeBuilder::two_level(
                1.0,
                100.0,
                &[
                    (10.0, vec![(1.0, 1.0), (2.0, 0.5), (1.5, 0.8)]),
                    (15.0, vec![(2.0, 0.5), (3.0, 0.4)]),
                    (12.0, vec![(1.2, 0.9), (2.5, 0.45), (4.0, 0.2)]),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn threaded_delivery_matches_bsp_guarantee() {
        let rt = ThreadedRuntime::new(machine());
        let (out, states) = rt.run_with_states(&Exchange { rounds: 2 }).unwrap();
        assert_eq!(out.virtual_outcome.num_steps(), 3);
        for (i, st) in states.iter().enumerate() {
            // Each proc gets 3 peers' messages per round, tagged with
            // the receiving step (1 and 2).
            assert_eq!(st.len(), 6, "proc {i}");
            assert!(st.iter().filter(|(s, _)| *s == 1).count() == 3);
            assert!(st.iter().all(|(_, src)| *src != i as u32));
        }
    }

    #[test]
    fn virtual_time_matches_simulator_exactly() {
        let tree = machine();
        let prog = Exchange { rounds: 4 };
        let sim = Simulator::new(Arc::clone(&tree)).run(&prog).unwrap();
        let thr = ThreadedRuntime::new(tree)
            .run(&prog)
            .unwrap()
            .virtual_outcome;
        assert_eq!(sim.total_time, thr.total_time);
        assert_eq!(sim.proc_finish, thr.proc_finish);
        assert_eq!(sim.messages_delivered, thr.messages_delivered);
        for (a, b) in sim.steps.iter().zip(&thr.steps) {
            assert_eq!(a.hrelation, b.hrelation);
            assert_eq!(a.release_max, b.release_max);
            assert_eq!(a.work_units, b.work_units);
            assert_eq!(a.traffic, b.traffic);
        }
    }

    #[test]
    fn both_barriers_agree_with_simulator_on_clustered_machine() {
        let tree = clustered_machine();
        let prog = Exchange { rounds: 5 };
        let sim = Simulator::new(Arc::clone(&tree)).run(&prog).unwrap();
        for kind in [BarrierKind::Central, BarrierKind::Hierarchical] {
            let thr = ThreadedRuntime::new(Arc::clone(&tree))
                .barrier(kind)
                .run(&prog)
                .unwrap()
                .virtual_outcome;
            assert_eq!(sim.total_time, thr.total_time, "{kind:?}");
            assert_eq!(sim.proc_finish, thr.proc_finish, "{kind:?}");
            assert_eq!(sim.messages_delivered, thr.messages_delivered, "{kind:?}");
        }
    }

    #[test]
    fn errors_propagate_from_leader() {
        struct Mixed;
        impl SpmdProgram for Mixed {
            type State = ();
            fn init(&self, _e: &ProcEnv) {}
            fn step(
                &self,
                _s: usize,
                env: &ProcEnv,
                _st: &mut (),
                _c: &mut dyn SpmdContext,
            ) -> StepOutcome {
                if env.pid.0.is_multiple_of(2) {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue(SyncScope::global(&env.tree))
                }
            }
        }
        let rt = ThreadedRuntime::new(machine());
        assert_eq!(
            rt.run(&Mixed).unwrap_err(),
            SimError::TerminationMismatch { step: 0 }
        );
    }

    /// Regression for the take-after-error audit: an aborting step must
    /// scrub every pull list and both of every processor's outboxes,
    /// leaving no queued messages behind.
    #[test]
    fn aborted_step_leaves_no_queued_messages() {
        let tree = machine();
        let p = tree.num_procs();
        let slots: Vec<ProcSlot> = (0..p).map(|_| ProcSlot::new()).collect();
        // Simulate mid-run state: pending deliveries and posted sends.
        for (i, s) in slots.iter().enumerate() {
            // SAFETY: single-threaded test — no concurrent slot holder.
            let slot = unsafe { s.slot() };
            slot.pull.push((0, 0));
            for parity in 0..2 {
                // SAFETY: as above.
                unsafe { s.outbox(parity) }.push(ProcId(i as u32), ProcId(0), 0, &[9; 16]);
            }
            // Mixed outcomes: a termination mismatch.
            slot.outcome = Some(if i == 0 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue(SyncScope::global(&tree))
            });
        }
        let mut ls = LeaderState::new(p);
        let finished = AtomicBool::new(false);
        let failed = AtomicBool::new(false);
        let env = StepEnv {
            tree: &tree,
            cfg: &NetConfig::pvm_like(),
            faults: &FaultPlan::new(),
            probe: &hbsp_obs::NoopProbe,
            deadline: None,
        };
        leader_step(&env, &slots, 3, &mut ls, &finished, &failed, Instant::now());
        assert!(failed.load(Ordering::Acquire));
        assert_eq!(ls.error, Some(SimError::TerminationMismatch { step: 3 }));
        for (i, s) in slots.iter().enumerate() {
            // SAFETY: single-threaded test — no concurrent slot holder.
            let slot = unsafe { s.slot() };
            assert!(slot.pull.is_empty(), "pull list {i} must be drained");
            for parity in 0..2 {
                // SAFETY: as above.
                let posted = unsafe { s.posted(parity) };
                assert!(posted.is_empty(), "outbox {i}/{parity} must be cleared");
            }
            assert!(slot.outcome.is_none(), "stale outcome {i} must be cleared");
        }
    }

    #[test]
    fn step_limit_enforced() {
        struct Forever;
        impl SpmdProgram for Forever {
            type State = ();
            fn init(&self, _e: &ProcEnv) {}
            fn step(
                &self,
                _s: usize,
                env: &ProcEnv,
                _st: &mut (),
                _c: &mut dyn SpmdContext,
            ) -> StepOutcome {
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        let rt = ThreadedRuntime::new(machine()).step_limit(5);
        assert_eq!(
            rt.run(&Forever).unwrap_err(),
            SimError::StepLimit { limit: 5 }
        );
    }

    #[test]
    fn panicking_program_yields_typed_error_not_deadlock() {
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
        let rt = ThreadedRuntime::new(machine());
        let err = rt.run(&Bomb).unwrap_err();
        assert_eq!(
            err,
            SimError::ProgramPanicked {
                pid: ProcId(2),
                step: 1
            }
        );
    }

    #[test]
    fn traced_timelines_match_the_simulator() {
        use hbsp_sim::ProcTimeline;
        let tree = machine();
        let prog = Exchange { rounds: 3 };
        let recorders = [(); 2].map(|()| Arc::new(hbsp_obs::Recorder::new()));
        Simulator::new(Arc::clone(&tree))
            .probe(recorders[0].clone())
            .run(&prog)
            .unwrap();
        ThreadedRuntime::new(tree)
            .probe(recorders[1].clone())
            .run(&prog)
            .unwrap();
        let [sim_tls, thr_tls] = recorders.map(|r| ProcTimeline::from_steps(&r.steps()));
        assert_eq!(sim_tls.len(), 4);
        assert_eq!(sim_tls.len(), thr_tls.len());
        for (a, b) in sim_tls.iter().zip(&thr_tls) {
            assert_eq!(a.pid, b.pid);
            assert!(!a.spans.is_empty());
            assert_eq!(a.spans, b.spans, "P{} timelines diverge", a.pid.0);
        }
    }

    #[test]
    fn wall_clock_is_measured() {
        let rt = ThreadedRuntime::new(machine());
        let out = rt.run(&Exchange { rounds: 1 }).unwrap();
        assert!(out.wall > Duration::ZERO);
    }

    #[test]
    fn scripted_crash_matches_simulator() {
        let tree = clustered_machine();
        let prog = Exchange { rounds: 5 };
        let plan = FaultPlan::new().crash(ProcId(3), 2).crash(ProcId(6), 2);
        let sim_err = Simulator::new(Arc::clone(&tree))
            .faults(plan.clone())
            .run(&prog)
            .unwrap_err();
        for kind in [BarrierKind::Central, BarrierKind::Hierarchical] {
            let thr_err = ThreadedRuntime::new(Arc::clone(&tree))
                .barrier(kind)
                .faults(plan.clone())
                .run(&prog)
                .unwrap_err();
            assert_eq!(sim_err, thr_err, "{kind:?}");
        }
        assert_eq!(
            sim_err,
            SimError::ProcCrashed {
                pids: vec![ProcId(3), ProcId(6)],
                step: 2
            }
        );
    }

    #[test]
    fn scripted_stall_times_out_identically_on_both_engines() {
        let tree = clustered_machine();
        let prog = Exchange { rounds: 5 };
        let plan = FaultPlan::new().stall(ProcId(4), 1);
        let sim_err = Simulator::new(Arc::clone(&tree))
            .faults(plan.clone())
            .run(&prog)
            .unwrap_err();
        for kind in [BarrierKind::Central, BarrierKind::Hierarchical] {
            let thr_err = ThreadedRuntime::new(Arc::clone(&tree))
                .barrier(kind)
                .faults(plan.clone())
                .run(&prog)
                .unwrap_err();
            assert_eq!(sim_err, thr_err, "{kind:?}");
        }
        assert_eq!(
            sim_err,
            SimError::BarrierTimeout {
                missing: vec![ProcId(4)],
                step: 1
            }
        );
    }

    #[test]
    fn every_processor_stalling_still_terminates() {
        let tree = machine();
        let p = tree.num_procs();
        let mut plan = FaultPlan::new();
        for i in 0..p {
            plan = plan.stall(ProcId(i as u32), 1);
        }
        let err = ThreadedRuntime::new(Arc::clone(&tree))
            .faults(plan.clone())
            .run(&Exchange { rounds: 4 })
            .unwrap_err();
        let sim_err = Simulator::new(tree)
            .faults(plan)
            .run(&Exchange { rounds: 4 })
            .unwrap_err();
        assert_eq!(err, sim_err);
        assert!(matches!(err, SimError::BarrierTimeout { step: 1, .. }));
    }

    #[test]
    fn straggle_and_corruption_match_simulator_bit_for_bit() {
        let tree = clustered_machine();
        let prog = Exchange { rounds: 4 };
        let plan = FaultPlan::new()
            .straggle(ProcId(2), 1, 8.0)
            .drop_msgs(ProcId(5), 2)
            .truncate(ProcId(0), 3, 0);
        let sim = Simulator::new(Arc::clone(&tree))
            .faults(plan.clone())
            .run(&prog)
            .unwrap();
        for kind in [BarrierKind::Central, BarrierKind::Hierarchical] {
            let thr = ThreadedRuntime::new(Arc::clone(&tree))
                .barrier(kind)
                .faults(plan.clone())
                .run(&prog)
                .unwrap()
                .virtual_outcome;
            assert_eq!(sim.total_time, thr.total_time, "{kind:?}");
            assert_eq!(sim.proc_finish, thr.proc_finish, "{kind:?}");
            assert_eq!(sim.messages_delivered, thr.messages_delivered, "{kind:?}");
        }
    }

    #[test]
    fn generous_step_deadline_never_fires() {
        let rt = ThreadedRuntime::new(clustered_machine()).step_deadline(Duration::from_secs(120));
        let out = rt.run(&Exchange { rounds: 5 }).unwrap();
        assert_eq!(out.virtual_outcome.num_steps(), 6);
    }

    #[test]
    fn step_deadline_catches_a_hung_body() {
        /// Rank 1's body sleeps far past the deadline at step 1.
        struct Hang;
        impl SpmdProgram for Hang {
            type State = ();
            fn init(&self, _e: &ProcEnv) {}
            fn step(
                &self,
                step: usize,
                env: &ProcEnv,
                _st: &mut (),
                _c: &mut dyn SpmdContext,
            ) -> StepOutcome {
                if step == 1 && env.pid.0 == 1 {
                    std::thread::sleep(Duration::from_secs(5));
                }
                if step == 2 {
                    return StepOutcome::Done;
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        let rt = ThreadedRuntime::new(machine()).step_deadline(Duration::from_millis(50));
        let err = rt.run(&Hang).unwrap_err();
        match err {
            SimError::BarrierTimeout { missing, step } => {
                assert_eq!(step, 1);
                assert_eq!(missing, vec![ProcId(1)], "the sleeper is named");
            }
            other => panic!("expected BarrierTimeout, got {other:?}"),
        }
    }

    // ---- the kept worker pool ----------------------------------------

    /// Ranks in `bombs` panic in `init`; everyone else is done at step 0.
    struct InitBomb {
        bombs: &'static [u32],
    }
    impl SpmdProgram for InitBomb {
        type State = ();
        fn init(&self, env: &ProcEnv) {
            assert!(!self.bombs.contains(&env.pid.0), "init boom");
        }
        fn step(
            &self,
            _s: usize,
            _e: &ProcEnv,
            _st: &mut (),
            _c: &mut dyn SpmdContext,
        ) -> StepOutcome {
            StepOutcome::Done
        }
    }

    /// Run `f` on its own thread and fail the test if it has not
    /// returned within a minute — the failure mode under test is a hang.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the run must return, not hang")
    }

    #[test]
    fn panicking_init_yields_typed_error_not_a_hang() {
        for deadline in [None, Some(Duration::from_secs(120))] {
            let err = within_a_minute(move || {
                let mut rt = ThreadedRuntime::new(machine());
                if let Some(d) = deadline {
                    rt = rt.step_deadline(d);
                }
                rt.run(&InitBomb { bombs: &[3, 2] }).unwrap_err()
            });
            let lowest = SimError::ProgramPanicked {
                pid: ProcId(2),
                step: 0,
            };
            assert_eq!(err, lowest, "deadline {deadline:?}");
        }
    }

    /// What "the same run" means: model time to the bit, every
    /// superstep's statistics, the message count and the final states.
    fn assert_same_run<S: PartialEq + std::fmt::Debug>(
        a: &(SimOutcome, Vec<S>),
        b: &(SimOutcome, Vec<S>),
        what: &str,
    ) {
        let bits = |o: &SimOutcome| {
            let steps: Vec<_> = o
                .steps
                .iter()
                .map(|s| {
                    let times = [s.start_min, s.finish_max, s.release_max];
                    (
                        (s.step, s.scope, s.traffic.clone()),
                        times.map(f64::to_bits),
                        (s.hrelation.to_bits(), s.work_units.to_bits()),
                    )
                })
                .collect();
            let finish: Vec<u64> = o.proc_finish.iter().map(|t| t.to_bits()).collect();
            (o.total_time.to_bits(), finish, steps, o.messages_delivered)
        };
        assert_eq!(bits(&a.0), bits(&b.0), "{what}");
        assert_eq!(a.1, b.1, "{what}: final states");
    }

    /// One engine configuration, buildable as a threaded runtime (any
    /// number of times) and as the simulator.
    #[derive(Clone, Default)]
    struct Setup {
        faults: FaultPlan,
        step_limit: Option<usize>,
        deadline: Option<Duration>,
    }

    impl Setup {
        fn runtime(&self, kind: BarrierKind) -> ThreadedRuntime {
            let mut rt = ThreadedRuntime::new(clustered_machine())
                .barrier(kind)
                .faults(self.faults.clone());
            if let Some(limit) = self.step_limit {
                rt = rt.step_limit(limit);
            }
            if let Some(d) = self.deadline {
                rt = rt.step_deadline(d);
            }
            rt
        }

        fn simulator(&self) -> Simulator {
            let sim = Simulator::new(clustered_machine()).faults(self.faults.clone());
            match self.step_limit {
                Some(limit) => sim.step_limit(limit),
                None => sim,
            }
        }

        /// `bad` ends a run on a runtime in an error `expect` accepts;
        /// the next run on the *same* runtime must then be the run a
        /// fresh runtime and the simulator give. The healthy program
        /// stops after step 1, before any fault this suite scripts.
        fn assert_next_run_is_fresh<B: SpmdProgram>(
            &self,
            bad: &B,
            expect: impl Fn(&SimError) -> bool,
        ) {
            let good = Exchange { rounds: 1 };
            let sim = self.simulator().run_with_states(&good).unwrap();
            for kind in [BarrierKind::Central, BarrierKind::Hierarchical] {
                let used = self.runtime(kind);
                let err = used.run(bad).unwrap_err();
                assert!(expect(&err), "{kind:?}: unexpected {err:?}");
                let virt = |rt: &ThreadedRuntime| {
                    let (out, states) = rt.run_with_states(&good).unwrap();
                    (out.virtual_outcome, states)
                };
                let after = virt(&used);
                assert_same_run(
                    &after,
                    &virt(&self.runtime(kind)),
                    &format!("{kind:?} vs fresh"),
                );
                assert_same_run(&after, &sim, &format!("{kind:?} vs simulator"));
            }
        }
    }

    #[test]
    fn run_after_a_panicking_init_is_fresh() {
        Setup::default().assert_next_run_is_fresh(&InitBomb { bombs: &[2] }, |e| {
            matches!(e, SimError::ProgramPanicked { step: 0, .. })
        });
    }

    #[test]
    fn run_after_a_panicking_step_is_fresh() {
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
                // Messages in flight when the panic ends the run.
                ctx.send(ProcId(0), 1, &[7; 32]);
                assert!(!(step == 1 && env.pid.0 == 5), "step boom");
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        Setup::default().assert_next_run_is_fresh(&Bomb, |e| {
            *e == SimError::ProgramPanicked {
                pid: ProcId(5),
                step: 1,
            }
        });
    }

    #[test]
    fn run_after_scripted_crash_and_stall_is_fresh() {
        let crash = Setup {
            faults: FaultPlan::new().crash(ProcId(3), 2),
            ..Setup::default()
        };
        crash.assert_next_run_is_fresh(&Exchange { rounds: 5 }, |e| {
            matches!(e, SimError::ProcCrashed { step: 2, .. })
        });
        let stall = Setup {
            faults: FaultPlan::new().stall(ProcId(4), 2),
            ..Setup::default()
        };
        stall.assert_next_run_is_fresh(&Exchange { rounds: 5 }, |e| {
            matches!(e, SimError::BarrierTimeout { step: 2, .. })
        });
    }

    #[test]
    fn run_after_step_limit_and_termination_mismatch_is_fresh() {
        struct Forever;
        impl SpmdProgram for Forever {
            type State = ();
            fn init(&self, _e: &ProcEnv) {}
            fn step(
                &self,
                _s: usize,
                env: &ProcEnv,
                _st: &mut (),
                ctx: &mut dyn SpmdContext,
            ) -> StepOutcome {
                ctx.send(ProcId(0), 1, &[7; 32]);
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        let limited = Setup {
            step_limit: Some(5),
            ..Setup::default()
        };
        limited.assert_next_run_is_fresh(&Forever, |e| *e == SimError::StepLimit { limit: 5 });

        struct Mixed;
        impl SpmdProgram for Mixed {
            type State = ();
            fn init(&self, _e: &ProcEnv) {}
            fn step(
                &self,
                _s: usize,
                env: &ProcEnv,
                _st: &mut (),
                ctx: &mut dyn SpmdContext,
            ) -> StepOutcome {
                ctx.send(ProcId(0), 1, &[7; 32]);
                if env.pid.0 == 1 {
                    return StepOutcome::Done;
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        Setup::default()
            .assert_next_run_is_fresh(&Mixed, |e| *e == SimError::TerminationMismatch { step: 0 });
    }

    /// The soundness invariant of the kept pool (and of `scope` before
    /// it): a run whose watchdog fired must still not return while a
    /// body is running, because the body borrows from the run.
    #[test]
    fn run_after_a_hung_body_is_fresh_and_waits_for_the_sleeper() {
        struct Hang {
            woke: std::sync::atomic::AtomicUsize,
        }
        impl SpmdProgram for Hang {
            type State = ();
            fn init(&self, _e: &ProcEnv) {}
            fn step(
                &self,
                step: usize,
                env: &ProcEnv,
                _st: &mut (),
                _c: &mut dyn SpmdContext,
            ) -> StepOutcome {
                if step == 1 && env.pid.0 == 1 {
                    std::thread::sleep(Duration::from_millis(400));
                    self.woke.fetch_add(1, Ordering::SeqCst);
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        let hang = Hang {
            woke: std::sync::atomic::AtomicUsize::new(0),
        };
        let runs = std::cell::Cell::new(0);
        let watched = Setup {
            deadline: Some(Duration::from_millis(50)),
            ..Setup::default()
        };
        watched.assert_next_run_is_fresh(&hang, |e| {
            runs.set(runs.get() + 1);
            assert_eq!(
                hang.woke.load(Ordering::SeqCst),
                runs.get(),
                "the run returned before its sleeping body did"
            );
            *e == SimError::BarrierTimeout {
                missing: vec![ProcId(1)],
                step: 1,
            }
        });
    }

    /// `f` of the hierarchical barrier `rt` keeps between runs.
    fn kept_barrier<T>(rt: &ThreadedRuntime, f: impl FnOnce(&crate::HierBarrier) -> T) -> T {
        match &lock_anyway(&rt.pool)
            .as_ref()
            .expect("a run kept a frame")
            .frame
            .barrier
        {
            StepBarrier::Hier(b) => f(b),
            StepBarrier::Central(_) => panic!("the default barrier is hierarchical"),
        }
    }

    /// One barrier serves every run of a runtime until one fails, so its
    /// generation count spans runs; a failed run rebuilds the frame, and
    /// the new barrier starts from generation 0.
    #[test]
    fn a_kept_barrier_counts_generations_across_runs() {
        let rt = ThreadedRuntime::new(clustered_machine());
        let generation = |rt: &ThreadedRuntime| kept_barrier(rt, crate::HierBarrier::generation);
        rt.run(&Exchange { rounds: 2 }).unwrap();
        assert_eq!(generation(&rt), 3, "one generation per superstep");
        rt.run(&Exchange { rounds: 4 }).unwrap();
        assert_eq!(generation(&rt), 8, "the second run went on counting");
        let limited = ThreadedRuntime::new(clustered_machine()).step_limit(2);
        limited.run(&Exchange { rounds: 1 }).unwrap();
        limited.run(&Exchange { rounds: 4 }).unwrap_err();
        assert_eq!(generation(&limited), 0, "a failed run's frame is rebuilt");
    }

    /// The watchdog names a hung rank from the arrival board, which a
    /// run leaves at its last step: the reset must zero it, or a rank
    /// that hangs at that step of the next run reads as arrived.
    #[test]
    fn a_hung_body_after_a_healthy_run_is_named() {
        struct Hang;
        impl SpmdProgram for Hang {
            type State = ();
            fn init(&self, _e: &ProcEnv) {}
            fn step(
                &self,
                _s: usize,
                env: &ProcEnv,
                _st: &mut (),
                _c: &mut dyn SpmdContext,
            ) -> StepOutcome {
                if env.pid.0 == 1 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                StepOutcome::Done
            }
        }
        let rt = ThreadedRuntime::new(machine()).step_deadline(Duration::from_millis(50));
        // One superstep: every rank's last arrival was at step 0.
        rt.run(&Exchange { rounds: 0 }).unwrap();
        assert_eq!(
            rt.run(&Hang).unwrap_err(),
            SimError::BarrierTimeout {
                missing: vec![ProcId(1)],
                step: 0
            }
        );
    }

    /// Between runs the frame keeps no message bytes — the outboxes'
    /// arenas go at the end of the run that filled them — and no slot
    /// data: a run that succeeded leaves every pull list and outcome
    /// empty.
    #[test]
    fn a_kept_frame_holds_no_message_bytes_between_runs() {
        let rt = ThreadedRuntime::new(clustered_machine());
        rt.run(&Exchange { rounds: 3 }).unwrap();
        let kept = lock_anyway(&rt.pool);
        let frame = &kept.as_ref().expect("a run kept a frame").frame;
        for (i, s) in frame.slots.iter().enumerate() {
            // SAFETY: no run is in flight; the lock is held.
            let slot = unsafe { s.slot() };
            assert!(slot.pull.is_empty() && slot.outcome.is_none(), "slot {i}");
            for parity in 0..2 {
                // SAFETY: as above.
                let posted = unsafe { s.posted(parity) };
                assert_eq!(posted.arena_capacity(), 0, "outbox {i}/{parity}");
            }
        }
    }

    /// Records which thread each rank ran on.
    struct WhoAmI;
    impl SpmdProgram for WhoAmI {
        /// `(ThreadId, /proc/thread-self target)` of the rank's thread.
        type State = (std::thread::ThreadId, Option<std::path::PathBuf>);
        fn init(&self, _e: &ProcEnv) -> Self::State {
            (
                std::thread::current().id(),
                std::fs::read_link("/proc/thread-self").ok(),
            )
        }
        fn step(
            &self,
            _s: usize,
            env: &ProcEnv,
            _st: &mut Self::State,
            _c: &mut dyn SpmdContext,
        ) -> StepOutcome {
            let name = format!("hbsp-p{}", env.pid.0);
            assert_eq!(std::thread::current().name(), Some(name.as_str()));
            StepOutcome::Done
        }
    }

    #[test]
    fn ranks_keep_their_threads_and_drop_frees_them() {
        let threads_of = |rt: &ThreadedRuntime| rt.run_with_states(&WhoAmI).unwrap().1;
        let rt = ThreadedRuntime::new(clustered_machine());
        let first = threads_of(&rt);
        for run in 2..=20 {
            assert_eq!(threads_of(&rt), first, "run {run}: rank i left thread i");
        }
        let distinct: std::collections::HashSet<_> = first.iter().map(|(id, _)| *id).collect();
        assert_eq!(distinct.len(), first.len(), "one thread per rank");
        assert!(!distinct.contains(&std::thread::current().id()));

        let other = ThreadedRuntime::new(clustered_machine());
        for (id, _) in threads_of(&other) {
            assert!(!distinct.contains(&id), "two runtimes share no thread");
        }

        // `Threads:` in /proc/self/status counts libtest's own threads
        // too; the kernel's per-thread directories count exactly these.
        // `join` returns once the kernel clears the child's tid, before
        // it reaps the task, so a directory may linger briefly — but
        // only for a thread that was exiting when `drop` returned.
        let dirs: Vec<_> = first
            .into_iter()
            .filter_map(|(_, task)| task)
            .map(|task| std::path::Path::new("/proc").join(task))
            .collect();
        assert!(dirs.iter().all(|d| exiting(d) == Some(false)));
        drop(rt);
        for dir in &dirs {
            assert_ne!(exiting(dir), Some(false), "{} still ran", dir.display());
        }
        let reaped_by = Instant::now() + Duration::from_secs(5);
        for dir in &dirs {
            while dir.exists() && Instant::now() < reaped_by {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(!dir.exists(), "{} outlived its runtime", dir.display());
        }
    }

    /// Whether a task is in `do_exit`: `PF_EXITING` (0x4) in its kernel
    /// flags, field 9 of its `stat`. `None` once the task is gone.
    fn exiting(task: &std::path::Path) -> Option<bool> {
        let stat = std::fs::read_to_string(task.join("stat")).ok()?;
        // Field 3 onward follow the parenthesised command name.
        let (_, fields) = stat.rsplit_once(')')?;
        let flags: u64 = fields.split_whitespace().nth(6)?.parse().ok()?;
        Some(flags & 0x4 != 0)
    }

    #[test]
    fn concurrent_and_reentrant_runs_fall_back_to_a_private_pool() {
        let tree = machine();
        let expect = Simulator::new(Arc::clone(&tree))
            .run_with_states(&Exchange { rounds: 3 })
            .unwrap();
        let rt = Arc::new(ThreadedRuntime::new(Arc::clone(&tree)));

        // Two OS threads on one runtime at once.
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let rt = Arc::clone(&rt);
                std::thread::spawn(move || {
                    (0..10)
                        .map(|_| {
                            let (out, states) =
                                rt.run_with_states(&Exchange { rounds: 3 }).unwrap();
                            (out.virtual_outcome, states)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for c in callers {
            for got in within_a_minute(move || c.join().unwrap()) {
                assert_same_run(&got, &expect, "concurrent caller");
            }
        }

        /// Rank 0's step 0 runs `Exchange` on the runtime it is running on.
        struct Nested {
            rt: Arc<ThreadedRuntime>,
        }
        impl SpmdProgram for Nested {
            type State = Option<(SimOutcome, Vec<Vec<(u32, u32)>>)>;
            fn init(&self, _e: &ProcEnv) -> Self::State {
                None
            }
            fn step(
                &self,
                _s: usize,
                env: &ProcEnv,
                st: &mut Self::State,
                _c: &mut dyn SpmdContext,
            ) -> StepOutcome {
                if env.pid.0 == 0 {
                    let (out, states) = self.rt.run_with_states(&Exchange { rounds: 3 }).unwrap();
                    *st = Some((out.virtual_outcome, states));
                }
                StepOutcome::Done
            }
        }
        let nested = Nested {
            rt: Arc::clone(&rt),
        };
        let states = within_a_minute(move || nested.rt.run_with_states(&nested).unwrap().1);
        let inner = states[0].as_ref().expect("rank 0 ran the inner program");
        assert_same_run(inner, &expect, "nested run");
    }
}
