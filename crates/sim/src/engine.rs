//! The simulation engine: executes an [`SpmdProgram`] superstep by
//! superstep, computing model time with the [`crate::timing`] algebra.

use crate::config::NetConfig;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::stats::SimOutcome;
use crate::step::{Settlement, StepEnv};
use hbsp_core::{
    Inbox, MachineTree, MsgBatch, ProcEnv, ProcId, SpmdContext, SpmdProgram, WireWriter,
};
#[cfg(doc)]
use hbsp_obs::StepRecord;
use hbsp_obs::{ObsEvent, Probe};
use std::sync::{Arc, Mutex, TryLockError};

/// Deterministic discrete-event simulator for one machine.
///
/// ```
/// use hbsp_core::{ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope, TreeBuilder};
/// use hbsp_sim::Simulator;
/// use std::sync::Arc;
///
/// /// Rank 1 pings rank 0 once.
/// struct Ping;
/// impl SpmdProgram for Ping {
///     type State = usize;
///     fn init(&self, _e: &ProcEnv) -> usize { 0 }
///     fn step(&self, step: usize, env: &ProcEnv, got: &mut usize,
///             ctx: &mut dyn SpmdContext) -> StepOutcome {
///         if step == 0 {
///             if env.pid == ProcId(1) { ctx.send(ProcId(0), 0, &[1, 2, 3, 4]); }
///             StepOutcome::Continue(SyncScope::global(&env.tree))
///         } else {
///             *got = ctx.messages().len();
///             StepOutcome::Done
///         }
///     }
/// }
///
/// let tree = Arc::new(TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap());
/// let (outcome, states) = Simulator::new(tree).run_with_states(&Ping).unwrap();
/// assert_eq!(states, vec![1, 0]);
/// assert!(outcome.total_time > 0.0);
/// ```
///
/// Programs read their messages in place: the bodies of a superstep
/// post into one shared arena, delivery writes one `(src, index)` row
/// per message onto its receiver's list, and the next superstep's
/// bodies read those rows out of that arena while posting into a second
/// one — the two swap every step, and no payload byte is copied after
/// its sender wrote it.
///
/// A `Simulator` keeps one of the two arenas, the row lists and the
/// buffers its superstep settlement works in, warm, from one run to the
/// next:
/// run many programs on one instance and only the first pays for
/// growing them. That memory — about the most traffic one superstep of
/// any run so far has carried — is freed when the `Simulator` is
/// dropped; the other arena, built by a run's first post into it with
/// room for twice the kept one's, lives for one run only (see `Scratch`
/// for why). Runs never see each other's data (the kept buffers
/// are emptied at the start of every run, whatever the previous one
/// left behind), and a run that finds them busy — a concurrent run on
/// another thread, or a program whose `step` runs a second program on
/// the same instance — works in private ones it drops on return.
pub struct Simulator {
    tree: Arc<MachineTree>,
    cfg: NetConfig,
    step_limit: usize,
    check: bool,
    faults: FaultPlan,
    step_deadline: Option<f64>,
    probe: Arc<dyn Probe>,
    scratch: Mutex<Scratch>,
}

impl Simulator {
    /// Simulator with the PVM-like default microcosts.
    #[expect(clippy::disallowed_methods, reason = "`with_config`, default costs")]
    pub fn new(tree: Arc<MachineTree>) -> Self {
        Simulator::with_config(tree, NetConfig::pvm_like())
    }

    /// Simulator with explicit microcosts.
    pub fn with_config(tree: Arc<MachineTree>, cfg: NetConfig) -> Self {
        Simulator {
            tree,
            cfg,
            step_limit: 100_000,
            check: cfg!(debug_assertions),
            faults: FaultPlan::new(),
            step_deadline: None,
            probe: hbsp_obs::noop(),
            scratch: Mutex::new(Scratch::default()),
        }
    }

    /// Override the runaway-program guard (default 100 000 supersteps).
    pub fn step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    /// Toggle the static pre-flight check (`SpmdProgram::preflight`)
    /// run before the first superstep. On by default in debug builds:
    /// a malformed program fails at submit time with
    /// [`SimError::Preflight`] instead of panicking or hanging a
    /// barrier mid-run.
    pub fn check(mut self, enable: bool) -> Self {
        self.check = enable;
        self
    }

    /// Inject a scripted [`FaultPlan`]. Both engines honor the same
    /// plan at the same protocol points, in the same order (stall →
    /// crash → bodies → message corruption → straggle timing), so
    /// fault runs stay reproducible across engines.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attach a telemetry [`Probe`] (default: the no-op probe). When
    /// the probe reports itself enabled the simulator emits one
    /// [`StepRecord`] per superstep in **virtual time** (the same
    /// schema the threaded runtime fills with wall-clock marks added)
    /// plus [`ObsEvent`]s for watchdog aborts; when disabled nothing
    /// is assembled. Per-processor activity timelines are a view over
    /// what a recording probe kept (see [`crate::trace`]).
    pub fn probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.probe = probe;
        self
    }

    /// Virtual-time guard on superstep duration (default: unlimited):
    /// a superstep whose slowest processor finishes more than
    /// `deadline` model-time units after the step's earliest release
    /// aborts with [`SimError::BarrierTimeout`] naming the laggards.
    /// Mirrors the threaded runtime's wall-clock
    /// `ThreadedRuntime::step_deadline`.
    pub fn step_deadline(mut self, deadline: f64) -> Self {
        self.step_deadline = Some(deadline);
        self
    }

    /// The machine being simulated.
    pub fn tree(&self) -> &Arc<MachineTree> {
        &self.tree
    }

    /// Execute `prog` to completion and also return each processor's
    /// final state (for result extraction).
    pub fn run_with_states<P: SpmdProgram>(
        &self,
        prog: &P,
    ) -> Result<(SimOutcome, Vec<P::State>), SimError> {
        self.cfg.validate()?;
        self.faults.validate(self.tree.num_procs())?;
        if self.check {
            prog.preflight(&self.tree)
                .map_err(|e| SimError::Preflight {
                    message: e.to_string(),
                })?;
        }
        match self.scratch.try_lock() {
            Ok(mut scratch) => self.run_in(prog, &mut scratch),
            // A program body panicked under an earlier run. Nothing in
            // the scratch outlives a run, so start over from empty.
            Err(TryLockError::Poisoned(poisoned)) => {
                self.scratch.clear_poison();
                let mut scratch = poisoned.into_inner();
                *scratch = Scratch::default();
                self.run_in(prog, &mut scratch)
            }
            // A concurrent or re-entrant run holds the arenas.
            Err(TryLockError::WouldBlock) => self.run_in(prog, &mut Scratch::default()),
        }
    }

    /// One run in `scratch`'s buffers, plus the other arena of the
    /// double buffer, which the run's first post into it builds with
    /// room for twice the kept one's (see [`Scratch`]); it replaces the
    /// kept one only if a step outgrew that room.
    fn run_in<P: SpmdProgram>(
        &self,
        prog: &P,
        scratch: &mut Scratch,
    ) -> Result<(SimOutcome, Vec<P::State>), SimError> {
        // A run that ended in an error left its messages behind; `reset`
        // empties them.
        scratch.reset(self.tree.num_procs());
        let mut spare = MsgBatch::new();
        let run = self.supersteps(prog, scratch, &mut spare);
        if spare.arena_capacity() > 2 * scratch.arena.arena_capacity() {
            std::mem::swap(&mut scratch.arena, &mut spare);
        }
        run
    }

    /// The superstep loop. Bodies of step `s` read rows into the arena
    /// step `s − 1` posted into and post into the other one; the two
    /// swap every step.
    fn supersteps<P: SpmdProgram>(
        &self,
        prog: &P,
        scratch: &mut Scratch,
        spare: &mut MsgBatch,
    ) -> Result<(SimOutcome, Vec<P::State>), SimError> {
        let p = self.tree.num_procs();
        let envs: Vec<ProcEnv> = (0..p)
            .map(|i| ProcEnv {
                pid: ProcId(i as u32),
                nprocs: p,
                tree: Arc::clone(&self.tree),
            })
            .collect();
        let mut states: Vec<P::State> = envs.iter().map(|e| prog.init(e)).collect();
        let Scratch {
            arena,
            pull,
            settlement,
        } = scratch;
        let (mut posted, mut sends) = (spare, arena);
        let mut sends_is_spare = false;
        let env = StepEnv {
            tree: &self.tree,
            cfg: &self.cfg,
            faults: &self.faults,
            probe: &*self.probe,
            deadline: self.step_deadline,
        };

        for step in 0..self.step_limit {
            // Scripted faults fire in a fixed order shared with the
            // threaded runtime: a stalled peer trips the watchdog
            // before a crash can be diagnosed, and a crash is seen
            // before any body runs.
            let stalled = self.faults.stalled_at(step);
            if !stalled.is_empty() {
                if self.probe.enabled() {
                    self.probe.on_event(&ObsEvent::WatchdogFired {
                        step,
                        missing: &stalled,
                    });
                }
                return Err(SimError::BarrierTimeout {
                    missing: stalled,
                    step,
                });
            }
            let crashed = self.faults.crashed_at(step);
            if !crashed.is_empty() {
                return Err(SimError::ProcCrashed {
                    pids: crashed,
                    step,
                });
            }

            // Run every processor's superstep body. Each reads its rows
            // of what the last step posted, in place, and all post into
            // the other arena; running them in pid order keeps posting
            // order identical to the threaded runtime's pid-ordered
            // outboxes.
            sends.clear();
            for i in 0..p {
                let mut ctx = SimCtx {
                    env: &envs[i],
                    inbox: Inbox::shared(posted, &pull[i]),
                    outbox: sends,
                    build_like: sends_is_spare.then_some(&*posted),
                    work: 0.0,
                    broken: false,
                };
                let outcome = prog.step(step, &envs[i], &mut states[i], &mut ctx);
                if ctx.broken {
                    let pid = envs[i].pid;
                    return Err(SimError::ProgramPanicked { pid, step });
                }
                settlement.contribute(ctx.work, outcome);
            }
            for rows in pull.iter_mut() {
                rows.clear();
            }
            // Each delivered message becomes one `(src, index)` row on
            // its receiver's list; the bytes stay where they were posted.
            let done = settlement.settle(
                &env,
                step,
                sends,
                || None,
                |_, dst, src, mi| {
                    pull[dst].push((src, mi as u32));
                },
            )?;
            if done {
                // Messages posted in the final step have no next
                // superstep to land in: counted as traffic, never read.
                return Ok((settlement.outcome(), states));
            }
            std::mem::swap(&mut posted, &mut sends);
            sends_is_spare = !sends_is_spare;
        }
        Err(SimError::StepLimit {
            limit: self.step_limit,
        })
    }

    /// Execute `prog` to completion, discarding final states.
    pub fn run<P: SpmdProgram>(&self, prog: &P) -> Result<SimOutcome, SimError> {
        self.run_with_states(prog).map(|(o, _)| o)
    }
}

/// What a run allocates that does not leave with its result: one of the
/// two message arenas, the receivers' row lists and the settlement's
/// buffers. Owned by the [`Simulator`] so that a second run starts with
/// them already grown.
///
/// The arenas are a double buffer — a step's bodies read their rows of
/// the one the step before posted into and post into the other. Exactly
/// one of them is kept between runs (`arena`). The other is built by the
/// run's first post into it — a run whose odd supersteps post nothing
/// never builds it — with room for twice the kept one's messages and
/// bytes, and freed when the run ends (it replaces the kept one only if
/// a step outgrew that room). Each part of that rule was measured, not
/// chosen. What they steer is glibc's *dynamic* mmap threshold: freeing
/// a block that was mmapped raises the threshold to the block's size,
/// and the heap is handed back to the kernel — to be faulted in again —
/// whenever its free top reaches twice the threshold. In a process that
/// runs collectives back to back, the per-run arena is the only block
/// large enough to set it (`coll_sim_1000kb`; `docs/performance.md` §8
/// has every run):
///
/// | per-run arena | threshold | page faults per op, by process |
/// |---|---|---|
/// | none (both kept) | 0.98 MiB | 5 000–6 200 in every process |
/// | every run, room for the kept one's | 12.45 MiB | ≈ 15 in some, ≈ 500 in others |
/// | every run, room for twice | 24.9 MiB | 6–28, but 360–530 in 3 of 64 |
/// | first post, room for twice | 24.9 MiB | 6–9; none of 96 trimmed |
///
/// With both kept, the threshold stays at the largest vector an
/// operation frees (a 1000 KB result) and the heap is trimmed after
/// every collective: `op_ms_p50` 1.6–2× the parent's. With room for the
/// kept one's, the trim line sits 0.24 MiB above what a sweep that
/// checks its results leaves free at the top of the heap, so whether it
/// is crossed depends on where a few small long-lived blocks landed.
/// Twice the room doubles the line, but an arena built at the start of
/// every run can land just below a collective's results, and once both
/// are freed the top holds the two together — the line again. Built by
/// the first post, the arena exists only in the runs that post in an odd
/// superstep (two of the sweep's seven collectives). A process none of
/// whose runs do that builds no second arena and frees nothing large:
/// the threshold is then wherever that process's own frees put it.
#[derive(Default)]
struct Scratch {
    arena: MsgBatch,
    /// `pull[dst]`: one `(src rank, index in the posted arena)` row per
    /// message delivered to `dst`, in (arrival, posting index) order.
    pull: Vec<Vec<(u32, u32)>>,
    settlement: Settlement,
}

impl Scratch {
    /// Empty the arena, the row lists and the settlement of whatever a
    /// previous run left in them, keeping the allocations, and size them
    /// for `p` processors.
    fn reset(&mut self, p: usize) {
        self.arena.clear();
        self.pull.resize_with(p, Vec::new);
        for rows in &mut self.pull {
            rows.clear();
        }
        self.settlement.reset(p);
    }
}

/// The simulator's per-processor superstep context: the processor's
/// rows of the last step's arena, read in place, plus write access to
/// the step's shared SoA outbox (bodies run sequentially, so pid order
/// == posting order).
struct SimCtx<'a> {
    env: &'a ProcEnv,
    inbox: Inbox<'a>,
    outbox: &'a mut MsgBatch,
    /// While `outbox` is the per-run arena: the kept one, whose room,
    /// twice over, the first post builds it with (see [`Scratch`]).
    build_like: Option<&'a MsgBatch>,
    work: f64,
    /// A `send_with` whose `fill` broke its promised length: the run
    /// fails with this rank's `ProgramPanicked` once the body returns.
    broken: bool,
}

impl SimCtx<'_> {
    /// The step's outbox, built first if this is the run's first post
    /// into the per-run arena.
    fn outbox(&mut self) -> &mut MsgBatch {
        if let Some(kept) = self.build_like {
            if self.outbox.is_empty() && self.outbox.arena_capacity() == 0 {
                *self.outbox = kept.empty_like(2);
            }
        }
        self.outbox
    }
}

impl SpmdContext for SimCtx<'_> {
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
        dst: ProcId,
        tag: u32,
        len: usize,
        fill: &mut dyn FnMut(&mut WireWriter<'_>),
    ) {
        let pid = self.env.pid;
        self.broken |= self.outbox().push_with(pid, dst, tag, len, fill).is_err();
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
    use hbsp_core::{StepOutcome, SyncScope, TreeBuilder};

    /// Every processor sends its pid to the next rank for `rounds`
    /// supersteps, then checks what it received.
    struct RingShift {
        rounds: usize,
    }

    impl SpmdProgram for RingShift {
        type State = Vec<u32>;
        fn init(&self, _env: &ProcEnv) -> Vec<u32> {
            Vec::new()
        }
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            state: &mut Vec<u32>,
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            for m in ctx.messages() {
                state.push(m.src.0);
            }
            if step == self.rounds {
                return StepOutcome::Done;
            }
            let next = ProcId(((env.pid.0 as usize + 1) % env.nprocs) as u32);
            ctx.send(next, 0, &[1, 2, 3, 4]);
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }

    fn flat4() -> Arc<MachineTree> {
        Arc::new(
            TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5), (2.0, 0.5), (3.0, 0.3)])
                .unwrap(),
        )
    }

    #[test]
    fn delivery_guarantee_messages_arrive_next_step() {
        let sim = Simulator::new(flat4());
        let (out, states) = sim.run_with_states(&RingShift { rounds: 3 }).unwrap();
        assert_eq!(out.num_steps(), 4, "3 sending steps + 1 final drain step");
        for (i, st) in states.iter().enumerate() {
            let prev = ((i + 4 - 1) % 4) as u32;
            assert_eq!(
                st,
                &vec![prev; 3],
                "proc {i} got 3 messages from its left neighbour"
            );
        }
        assert_eq!(out.messages_delivered, 12);
    }

    #[test]
    fn simulation_is_deterministic() {
        let sim = Simulator::new(flat4());
        let a = sim.run(&RingShift { rounds: 5 }).unwrap();
        let b = sim.run(&RingShift { rounds: 5 }).unwrap();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.proc_finish, b.proc_finish);
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.hrelation, y.hrelation);
            assert_eq!(x.release_max, y.release_max);
        }
    }

    #[test]
    fn time_advances_with_rounds() {
        let sim = Simulator::new(flat4());
        let t1 = sim.run(&RingShift { rounds: 1 }).unwrap().total_time;
        let t5 = sim.run(&RingShift { rounds: 5 }).unwrap().total_time;
        assert!(
            t5 > t1 * 3.0,
            "5 rounds should cost ~5x one round: {t1} vs {t5}"
        );
    }

    /// Deliberately divergent program: proc 0 finishes early.
    struct Divergent;
    impl SpmdProgram for Divergent {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            _step: usize,
            env: &ProcEnv,
            _state: &mut (),
            _ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            if env.pid.0 == 0 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
    }

    #[test]
    fn termination_mismatch_detected() {
        let sim = Simulator::new(flat4());
        assert_eq!(
            sim.run(&Divergent).unwrap_err(),
            SimError::TerminationMismatch { step: 0 }
        );
    }

    /// Program whose processors disagree on sync scope.
    struct ScopeFight;
    impl SpmdProgram for ScopeFight {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            _state: &mut (),
            _ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            if step == 1 {
                return StepOutcome::Done;
            }
            StepOutcome::Continue(SyncScope::Level(if env.pid.0 == 0 { 1 } else { 0 }))
        }
    }

    #[test]
    fn scope_mismatch_detected() {
        let sim = Simulator::new(flat4());
        assert!(matches!(
            sim.run(&ScopeFight),
            Err(SimError::ScopeMismatch { step: 0, .. })
        ));
    }

    /// Cross-cluster message under a cluster-local barrier.
    struct BadCrossSend;
    impl SpmdProgram for BadCrossSend {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            _state: &mut (),
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            if step == 1 {
                return StepOutcome::Done;
            }
            if env.pid.0 == 0 {
                // P0 is in cluster 0; the last proc is in cluster 1.
                ctx.send(ProcId(env.nprocs as u32 - 1), 0, &[0; 4]);
            }
            StepOutcome::Continue(SyncScope::Level(1))
        }
    }

    #[test]
    fn cross_cluster_send_under_local_sync_rejected() {
        let tree = Arc::new(
            TreeBuilder::two_level(
                1.0,
                50.0,
                &[(5.0, vec![(1.0, 1.0), (2.0, 0.5)]), (5.0, vec![(2.0, 0.5)])],
            )
            .unwrap(),
        );
        let sim = Simulator::new(tree);
        assert!(matches!(
            sim.run(&BadCrossSend),
            Err(SimError::CrossClusterSend { step: 0, .. })
        ));
    }

    /// Never-terminating program hits the step limit.
    struct Forever;
    impl SpmdProgram for Forever {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            _step: usize,
            env: &ProcEnv,
            _state: &mut (),
            _ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }

    #[test]
    fn step_limit_guards_runaway_programs() {
        let sim = Simulator::new(flat4()).step_limit(10);
        assert_eq!(
            sim.run(&Forever).unwrap_err(),
            SimError::StepLimit { limit: 10 }
        );
    }

    #[test]
    fn stats_capture_traffic_by_level() {
        let sim = Simulator::new(flat4());
        let out = sim.run(&RingShift { rounds: 1 }).unwrap();
        // One round: 4 messages of 1 word each, all at level 1.
        assert_eq!(out.steps[0].words_at(1), 4);
        assert_eq!(out.steps[0].traffic[1].messages, 4);
        assert!(out.steps[0].hrelation > 0.0);
    }

    #[test]
    fn tracing_records_consistent_timelines() {
        let recorder = Arc::new(hbsp_obs::Recorder::new());
        let sim = Simulator::new(flat4()).probe(recorder.clone());
        let out = sim.run(&RingShift { rounds: 3 }).unwrap();
        let tls = crate::trace::ProcTimeline::from_steps(&recorder.steps());
        assert_eq!(tls.len(), 4);
        for tl in &tls {
            // Spans are time-ordered, non-overlapping, and end by the
            // run's total time.
            for w in tl.spans.windows(2) {
                assert!(w[0].end <= w[1].start + 1e-9, "{:?}", tl);
            }
            let last = tl.spans.last().unwrap();
            assert!(last.end <= out.total_time + 1e-9);
            // Everyone spends some time waiting at barriers except
            // possibly the straggler.
            assert!(
                tl.time_in(crate::trace::SpanKind::Send) > 0.0,
                "everyone sends"
            );
        }
        // The Gantt chart renders one row per processor.
        let chart = crate::trace::ascii_gantt(&tls, 40);
        assert_eq!(chart.lines().count(), 5);
    }

    #[test]
    fn scripted_crash_and_stall_yield_typed_errors() {
        use crate::faults::FaultPlan;
        let sim = Simulator::new(flat4()).faults(FaultPlan::new().crash(ProcId(2), 1));
        assert_eq!(
            sim.run(&RingShift { rounds: 3 }).unwrap_err(),
            SimError::ProcCrashed {
                pids: vec![ProcId(2)],
                step: 1
            }
        );
        let sim = Simulator::new(flat4()).faults(FaultPlan::new().stall(ProcId(1), 2));
        assert_eq!(
            sim.run(&RingShift { rounds: 3 }).unwrap_err(),
            SimError::BarrierTimeout {
                missing: vec![ProcId(1)],
                step: 2
            }
        );
        // A stall scripted alongside a crash at the same step wins: the
        // watchdog fires before the crash can be diagnosed (the same
        // order the threaded runtime observes).
        let sim = Simulator::new(flat4())
            .faults(FaultPlan::new().crash(ProcId(0), 1).stall(ProcId(3), 1));
        assert!(matches!(
            sim.run(&RingShift { rounds: 3 }).unwrap_err(),
            SimError::BarrierTimeout { step: 1, .. }
        ));
    }

    #[test]
    fn straggler_inflates_time_without_changing_results() {
        use crate::faults::FaultPlan;
        let clean = Simulator::new(flat4())
            .run(&RingShift { rounds: 3 })
            .unwrap();
        let slow = Simulator::new(flat4())
            .faults(FaultPlan::new().straggle(ProcId(0), 1, 50.0))
            .run_with_states(&RingShift { rounds: 3 })
            .unwrap();
        assert!(
            slow.0.total_time > clean.total_time,
            "{} vs {}",
            slow.0.total_time,
            clean.total_time
        );
        assert_eq!(slow.0.messages_delivered, 12, "delivery unaffected");
        for (i, st) in slow.1.iter().enumerate() {
            assert_eq!(st.len(), 3, "proc {i} still got every message");
        }
    }

    #[test]
    fn dropped_and_truncated_messages_are_scripted_losses() {
        use crate::faults::FaultPlan;
        let sim = Simulator::new(flat4()).faults(FaultPlan::new().drop_msgs(ProcId(0), 1));
        let (out, states) = sim.run_with_states(&RingShift { rounds: 3 }).unwrap();
        assert_eq!(out.messages_delivered, 11, "one message lost");
        assert_eq!(states[1].len(), 2, "P1 misses P0's step-1 send");
        assert_eq!(states[0].len(), 3, "everyone else unaffected");

        let sim = Simulator::new(flat4()).faults(FaultPlan::new().truncate(ProcId(2), 0, 0));
        let (out, _) = sim.run_with_states(&RingShift { rounds: 1 }).unwrap();
        assert_eq!(out.messages_delivered, 4, "truncated but delivered");
        assert_eq!(out.steps[0].words_at(1), 3, "P2's word is gone");
    }

    #[test]
    fn virtual_step_deadline_names_laggards() {
        let sim = Simulator::new(flat4()).step_deadline(1e9);
        assert!(sim.run(&RingShift { rounds: 3 }).is_ok(), "generous budget");
        let sim = Simulator::new(flat4()).step_deadline(0.5);
        let err = sim.run(&RingShift { rounds: 3 }).unwrap_err();
        match err {
            SimError::BarrierTimeout { missing, step } => {
                assert_eq!(step, 0);
                assert!(!missing.is_empty());
            }
            other => panic!("expected BarrierTimeout, got {other:?}"),
        }
    }

    #[test]
    fn fault_runs_are_seed_reproducible() {
        use crate::faults::FaultPlan;
        let tree = flat4();
        let plan = FaultPlan::random(7, &tree);
        let run = || {
            Simulator::new(Arc::clone(&tree))
                .faults(plan.clone())
                .run(&RingShift { rounds: 3 })
        };
        let (a, b) = (run(), run());
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.total_time, y.total_time);
                assert_eq!(x.proc_finish, y.proc_finish);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            (x, y) => panic!("runs diverged: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn bad_destination_rejected() {
        struct BadDst;
        impl SpmdProgram for BadDst {
            type State = ();
            fn init(&self, _env: &ProcEnv) {}
            fn step(
                &self,
                _s: usize,
                env: &ProcEnv,
                _st: &mut (),
                ctx: &mut dyn SpmdContext,
            ) -> StepOutcome {
                ctx.send(ProcId(99), 0, &[]);
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        let sim = Simulator::new(flat4());
        assert_eq!(
            sim.run(&BadDst).unwrap_err(),
            SimError::NoSuchProc {
                step: 0,
                dst: ProcId(99)
            }
        );
    }

    /// What "the same run" means: model time to the bit, every
    /// superstep's statistics, the message count and the final states.
    fn assert_same_run(a: &(SimOutcome, Vec<Vec<u32>>), b: &(SimOutcome, Vec<Vec<u32>>)) {
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
        assert_eq!(bits(&a.0), bits(&b.0));
        assert_eq!(a.1, b.1, "final states");
    }

    /// `used` has just had a run end badly, with messages in flight;
    /// its next run must be the run a fresh engine of the same
    /// configuration gives. `RingShift` reads its inbox in superstep 0,
    /// so a message that survived shows up in the states.
    fn assert_next_run_is_fresh(used: &Simulator, fresh: Simulator) {
        let prog = RingShift { rounds: 1 };
        assert_same_run(
            &used.run_with_states(&prog).unwrap(),
            &fresh.run_with_states(&prog).unwrap(),
        );
    }

    fn two_clusters() -> Arc<MachineTree> {
        Arc::new(
            TreeBuilder::two_level(
                1.0,
                50.0,
                &[(5.0, vec![(1.0, 1.0), (2.0, 0.5)]), (5.0, vec![(2.0, 0.5)])],
            )
            .unwrap(),
        )
    }

    #[test]
    fn run_after_cross_cluster_send_is_fresh() {
        let sim = Simulator::new(two_clusters());
        assert!(matches!(
            sim.run(&BadCrossSend),
            Err(SimError::CrossClusterSend { step: 0, .. })
        ));
        assert_next_run_is_fresh(&sim, Simulator::new(two_clusters()));
    }

    #[test]
    fn run_after_no_such_proc_is_fresh() {
        /// One good round first, so the failing step has read delivered
        /// messages and leaves its own posted.
        struct LateBadDst;
        impl SpmdProgram for LateBadDst {
            type State = ();
            fn init(&self, _env: &ProcEnv) {}
            fn step(
                &self,
                step: usize,
                env: &ProcEnv,
                _st: &mut (),
                ctx: &mut dyn SpmdContext,
            ) -> StepOutcome {
                let dst = if step == 0 { env.pid } else { ProcId(99) };
                ctx.send(dst, 0, &[9; 4]);
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        let sim = Simulator::new(flat4());
        assert_eq!(
            sim.run(&LateBadDst).unwrap_err(),
            SimError::NoSuchProc {
                step: 1,
                dst: ProcId(99)
            }
        );
        assert_next_run_is_fresh(&sim, Simulator::new(flat4()));
    }

    #[test]
    fn run_after_step_limit_is_fresh() {
        // Two supersteps fit the limit; three do not.
        let sim = Simulator::new(flat4()).step_limit(2);
        assert_eq!(
            sim.run(&RingShift { rounds: 2 }).unwrap_err(),
            SimError::StepLimit { limit: 2 }
        );
        assert_next_run_is_fresh(&sim, Simulator::new(flat4()).step_limit(2));
    }

    #[test]
    fn run_after_scripted_crash_is_fresh() {
        // The plan fires at step 2; the follow-up program ends at 1.
        let plan = FaultPlan::new().crash(ProcId(2), 2);
        let sim = Simulator::new(flat4()).faults(plan.clone());
        assert!(matches!(
            sim.run(&RingShift { rounds: 3 }),
            Err(SimError::ProcCrashed { step: 2, .. })
        ));
        assert_next_run_is_fresh(&sim, Simulator::new(flat4()).faults(plan));
    }

    #[test]
    fn run_after_scripted_stall_is_fresh() {
        let plan = FaultPlan::new().stall(ProcId(1), 2);
        let sim = Simulator::new(flat4()).faults(plan.clone());
        assert!(matches!(
            sim.run(&RingShift { rounds: 3 }),
            Err(SimError::BarrierTimeout { step: 2, .. })
        ));
        assert_next_run_is_fresh(&sim, Simulator::new(flat4()).faults(plan));
    }

    #[test]
    fn run_after_a_panicking_program_is_fresh() {
        /// Sends for one round, then P2 panics with its inbox full and
        /// P0 and P1's sends of the round already posted.
        struct Bomb;
        impl SpmdProgram for Bomb {
            type State = ();
            fn init(&self, _env: &ProcEnv) {}
            fn step(
                &self,
                step: usize,
                env: &ProcEnv,
                _st: &mut (),
                ctx: &mut dyn SpmdContext,
            ) -> StepOutcome {
                assert!(step == 0 || env.pid != ProcId(2), "scripted panic");
                ctx.send(ProcId((env.pid.0 + 1) % 4), 0, &[7; 8]);
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        let sim = Simulator::new(flat4());
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(&Bomb)));
        assert!(died.is_err(), "the program's panic reaches the caller");
        assert_next_run_is_fresh(&sim, Simulator::new(flat4()));
        // The lock is healthy again: the run after that keeps its arenas.
        assert_next_run_is_fresh(&sim, Simulator::new(flat4()));
        assert!(!sim.scratch.is_poisoned());
    }

    #[test]
    fn a_program_may_run_another_on_the_same_simulator() {
        /// P0 runs a whole `RingShift` on `sim` in the middle of its own
        /// superstep 1, between reading its inbox and posting.
        struct Nested<'a> {
            sim: &'a Simulator,
        }
        impl SpmdProgram for Nested<'_> {
            type State = Vec<u32>;
            fn init(&self, _env: &ProcEnv) -> Vec<u32> {
                Vec::new()
            }
            fn step(
                &self,
                step: usize,
                env: &ProcEnv,
                state: &mut Vec<u32>,
                ctx: &mut dyn SpmdContext,
            ) -> StepOutcome {
                let outer = RingShift { rounds: 3 };
                if step == 1 && env.pid == ProcId(0) {
                    let inner = self.sim.run_with_states(&RingShift { rounds: 2 }).unwrap();
                    let alone = Simulator::new(flat4())
                        .run_with_states(&RingShift { rounds: 2 })
                        .unwrap();
                    assert_same_run(&inner, &alone);
                }
                outer.step(step, env, state, ctx)
            }
        }
        let sim = Simulator::new(flat4());
        let nested = sim.run_with_states(&Nested { sim: &sim }).unwrap();
        let plain = Simulator::new(flat4())
            .run_with_states(&RingShift { rounds: 3 })
            .unwrap();
        assert_same_run(&nested, &plain);
    }
}
