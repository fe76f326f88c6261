//! Engine selection and fault recovery: run the same program on the
//! simulator or on threads, optionally degrading around dead
//! processors.
//!
//! [`Executor`] is a *configuration* — engine kind, machine, microcosts,
//! pre-flight checking, an injected [`FaultPlan`], a telemetry probe and
//! a [`RecoveryPolicy`] — plus the engine built from it: the first
//! [`Executor::run`] builds the engine and every later one reuses it,
//! with the buffers it has grown, until the executor is reconfigured,
//! cloned or dropped. [`Executor::run_recovering`] builds a throw-away engine
//! per attempt instead, because each attempt may run on a different
//! (degraded) machine with a remapped fault plan.
//!
//! Recovery follows the superstep-boundary contract (`docs/faults.md`):
//! both engines fail *fast* with a typed [`SimError`] naming the dead
//! or absent processors; under [`RecoveryPolicy::Degrade`] the executor
//! catches that error, calls [`MachineTree::degrade`], re-makes the
//! program for the surviving machine (so collectives re-lower their
//! schedules), remaps the fault plan, and re-runs. The per-run
//! [`FaultReport`] records every recovery step.

use hbsp_core::{Degraded, MachineTree, ProcId, SpmdProgram};
use hbsp_obs::{ObsEvent, Probe};
use hbsp_runtime::ThreadedRuntime;
use hbsp_sim::{FaultPlan, NetConfig, SimError, SimOutcome, Simulator, SplitMix64};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Outcome of an execution on either engine.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Virtual (model) time outcome — identical across engines.
    pub sim: SimOutcome,
    /// Wall-clock duration, present for threaded runs.
    pub wall: Option<Duration>,
}

impl ExecOutcome {
    /// Model execution time `T` of the program.
    pub fn total_time(&self) -> f64 {
        self.sim.total_time
    }
}

/// Which engine an [`Executor`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineKind {
    Simulator,
    Threads,
}

/// What to do when a run dies with a fault-typed error.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecoveryPolicy {
    /// Surface the typed error to the caller (the default).
    #[default]
    FailFast,
    /// Degrade the machine around the dead processors and re-run from
    /// the superstep boundary ([`Executor::run_recovering`]).
    Degrade,
    /// Treat barrier stalls as *transient*: up to `max_attempts` times,
    /// clear the stall faults that just fired from the plan, charge a
    /// deterministically-seeded exponential backoff (base `backoff`,
    /// recorded in [`FaultReport::backoff_total`]), and replay from the
    /// superstep boundary on the *same* machine. A crash, a stall with
    /// no budget left, or a timeout the plan cannot explain escalates
    /// to the [`RecoveryPolicy::Degrade`] behavior.
    Retry {
        /// Replays allowed before a stall escalates to degradation.
        max_attempts: usize,
        /// Base backoff charge per retry; retry `k` charges
        /// `backoff · 2^(k-1)` scaled by a seeded jitter in `[0.5, 1)`.
        backoff: f64,
    },
}

/// One recovery step taken by [`Executor::run_recovering`].
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Superstep at which the fault was detected.
    pub step: usize,
    /// The typed error the engine raised.
    pub error: SimError,
    /// Processors declared dead and dropped from the machine.
    pub dead: Vec<ProcId>,
    /// Processors surviving after degradation.
    pub remaining: usize,
}

/// What happened across a whole [`Executor::run_recovering`] call.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Faults scripted into the executor's plan (before any remapping).
    pub faults_injected: usize,
    /// Every degradation performed, in order.
    pub events: Vec<RecoveryEvent>,
    /// Number of engine runs performed (1 = fault-free).
    pub attempts: usize,
    /// Supersteps re-executed across all restarts: each recovery
    /// restarts from superstep 0, so the steps completed before each
    /// detection are replayed on the surviving machine.
    pub steps_replayed: usize,
    /// Replays performed under [`RecoveryPolicy::Retry`] (stalls
    /// cleared as transient instead of degrading the machine).
    pub retries: usize,
    /// Total backoff charged across all retries (virtual-time units;
    /// deterministic for a given fault plan, identical on both
    /// engines).
    pub backoff_total: f64,
}

impl FaultReport {
    /// True if the run needed no recovery at all.
    pub fn clean(&self) -> bool {
        self.events.is_empty()
    }
}

/// A completed (possibly degraded) recovering run.
#[derive(Debug, Clone)]
pub struct Recovered<S> {
    /// Outcome of the final, successful attempt.
    pub outcome: ExecOutcome,
    /// Final per-processor states, indexed by the *final* machine's
    /// ranks.
    pub states: Vec<S>,
    /// Everything that went wrong and how it was handled.
    pub report: FaultReport,
    /// The machine the successful attempt ran on (the original tree if
    /// `report.clean()`, otherwise the degraded survivor tree).
    pub tree: Arc<MachineTree>,
}

/// A configured execution engine for one machine.
///
/// The executor owns its engine's memory: the engine, with the buffers
/// it keeps between runs (the simulator: one message arena and its row
/// lists; the threaded runtime: its processor threads), lives from the
/// first [`Executor::run`] until the executor is dropped or
/// reconfigured. A clone shares the configuration only and builds its
/// own engine.
pub struct Executor {
    tree: Arc<MachineTree>,
    cfg: Option<NetConfig>,
    kind: EngineKind,
    check: Option<bool>,
    faults: FaultPlan,
    recovery: RecoveryPolicy,
    probe: Option<Arc<dyn Probe>>,
    /// The engine [`Executor::run`] serves from, built on first use from
    /// the fields above; whatever changes one of them empties it.
    engine: OnceLock<EngineInstance>,
}

impl Clone for Executor {
    fn clone(&self) -> Self {
        Executor {
            tree: self.tree.clone(),
            cfg: self.cfg.clone(),
            kind: self.kind,
            check: self.check,
            faults: self.faults.clone(),
            recovery: self.recovery,
            probe: self.probe.clone(),
            engine: OnceLock::new(),
        }
    }
}

impl Executor {
    fn new(tree: Arc<MachineTree>, kind: EngineKind, cfg: Option<NetConfig>) -> Self {
        Executor {
            tree,
            cfg,
            kind,
            check: None,
            faults: FaultPlan::new(),
            recovery: RecoveryPolicy::default(),
            probe: None,
            engine: OnceLock::new(),
        }
    }

    /// Simulator with default (PVM-like) microcosts.
    pub fn simulator(tree: Arc<MachineTree>) -> Self {
        Executor::new(tree, EngineKind::Simulator, None)
    }

    /// Simulator with explicit microcosts.
    pub fn simulator_with(tree: Arc<MachineTree>, cfg: NetConfig) -> Self {
        Executor::new(tree, EngineKind::Simulator, Some(cfg))
    }

    /// Threaded runtime with default microcosts (for its virtual
    /// clock).
    pub fn threads(tree: Arc<MachineTree>) -> Self {
        Executor::new(tree, EngineKind::Threads, None)
    }

    /// Threaded runtime with explicit microcosts.
    pub fn threads_with(tree: Arc<MachineTree>, cfg: NetConfig) -> Self {
        Executor::new(tree, EngineKind::Threads, Some(cfg))
    }

    /// The executor whose [`Executor::engine_name`] is `name`, with
    /// default microcosts; `None` if no engine goes by that name.
    pub fn from_engine_name(name: &str, tree: Arc<MachineTree>) -> Option<Self> {
        [EngineKind::Simulator, EngineKind::Threads]
            .into_iter()
            .map(|kind| Executor::new(tree.clone(), kind, None))
            .find(|exec| exec.engine_name() == name)
    }

    /// Toggle the static pre-flight check ([`SpmdProgram::preflight`])
    /// on either engine. On by default in debug builds: a fatally
    /// malformed program — e.g. a schedule transferring data its source
    /// never holds — is rejected at submit time with
    /// `SimError::Preflight` instead of deadlocking or mis-delivering
    /// mid-run.
    pub fn check(mut self, enable: bool) -> Self {
        self.check = Some(enable);
        self.engine.take();
        self
    }

    /// Script deterministic faults into every run (see
    /// [`hbsp_sim::FaultPlan`]). Both engines honor the same plan with
    /// bit-identical outcomes.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self.engine.take();
        self
    }

    /// Attach a telemetry [`Probe`] (e.g. [`hbsp_obs::Recorder`]):
    /// every engine built by this executor publishes per-superstep
    /// [`hbsp_obs::StepRecord`]s through it, and
    /// [`Executor::run_recovering`] additionally reports degradations
    /// and restart attempts as [`ObsEvent`]s. Both engines emit the
    /// same schema; the threaded runtime adds wall-clock marks.
    /// Per-processor activity timelines (the raw material for §4.1's
    /// "faster machines sit idle" Gantt charts) are a view over what a
    /// recorder kept: `hbsp_sim::ProcTimeline::from_steps`.
    pub fn probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.probe = Some(probe);
        self.engine.take();
        self
    }

    /// Choose what happens when a run dies with a fault-typed error.
    /// [`RecoveryPolicy::Degrade`] only takes effect through
    /// [`Executor::run_recovering`]; plain [`Executor::run`] always
    /// fails fast.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self.engine.take();
        self
    }

    /// The machine this executor runs on.
    pub fn tree(&self) -> &Arc<MachineTree> {
        &self.tree
    }

    /// Stable engine name for forensics (`sim` or `threads`).
    pub fn engine_name(&self) -> &'static str {
        match self.kind {
            EngineKind::Simulator => "sim",
            EngineKind::Threads => "threads",
        }
    }

    /// Snapshot a post-mortem bundle from `flight`: the flight
    /// recorder's retained steps, events, and metrics, stamped with
    /// this executor's engine name, rendered machine tree, and
    /// rendered fault plan. Call it when a run dies to capture
    /// forensics before the error propagates:
    ///
    /// ```ignore
    /// let flight = Arc::new(FlightRecorder::new());
    /// let exec = Executor::threads(tree).probe(flight.clone());
    /// if let Err(e) = exec.run(&prog) {
    ///     let bundle = exec.postmortem(&format!("{e}"), &flight);
    ///     std::fs::write("postmortem.jsonl", bundle.to_jsonl())?;
    /// }
    /// ```
    pub fn postmortem(
        &self,
        reason: &str,
        flight: &hbsp_obs::FlightRecorder,
    ) -> hbsp_obs::PostmortemBundle {
        flight.bundle(
            reason,
            self.engine_name(),
            &self.tree.to_string(),
            &self.faults.render(),
        )
    }

    /// The configured fault plan (the adaptive executor re-bases it
    /// per segment).
    pub(crate) fn faults_ref(&self) -> &FaultPlan {
        &self.faults
    }

    /// The configured probe, if any (the adaptive executor forwards
    /// its re-plan events there).
    pub(crate) fn probe_ref(&self) -> Option<&Arc<dyn Probe>> {
        self.probe.as_ref()
    }

    /// Build an engine from this configuration for an explicit tree and
    /// fault plan (recovery rebuilds engines on degraded trees through
    /// this).
    #[expect(clippy::disallowed_methods, reason = "the seam: builds the engine")]
    fn build_engine(&self, tree: &Arc<MachineTree>, faults: &FaultPlan) -> EngineInstance {
        match self.kind {
            EngineKind::Simulator => {
                let mut sim = match &self.cfg {
                    Some(cfg) => Simulator::with_config(tree.clone(), cfg.clone()),
                    None => Simulator::new(tree.clone()),
                };
                sim = sim.faults(faults.clone());
                if let Some(chk) = self.check {
                    sim = sim.check(chk);
                }
                if let Some(p) = &self.probe {
                    sim = sim.probe(p.clone());
                }
                EngineInstance::Simulator(Box::new(sim))
            }
            EngineKind::Threads => {
                let mut rt = match &self.cfg {
                    Some(cfg) => ThreadedRuntime::with_config(tree.clone(), cfg.clone()),
                    None => ThreadedRuntime::new(tree.clone()),
                };
                rt = rt.faults(faults.clone());
                if let Some(chk) = self.check {
                    rt = rt.check(chk);
                }
                if let Some(p) = &self.probe {
                    rt = rt.probe(p.clone());
                }
                EngineInstance::Threads(rt)
            }
        }
    }

    /// Run `prog` once on `tree` with `faults`, on a throw-away engine
    /// built from this configuration.
    fn run_once<P: SpmdProgram>(
        &self,
        tree: &Arc<MachineTree>,
        faults: &FaultPlan,
        prog: &P,
    ) -> Result<(ExecOutcome, Vec<P::State>), SimError> {
        self.build_engine(tree, faults).run(prog)
    }

    /// Run `prog` to completion; returns the outcome and every
    /// processor's final state. Always fails fast: faults surface as
    /// typed [`SimError`]s regardless of the configured policy.
    ///
    /// The first call builds the engine; later calls reuse it, so a
    /// sequence of runs pays once for growing what the engine keeps. Outcomes are identical to those of a fresh executor per
    /// run, also after a run that failed or panicked.
    pub fn run<P: SpmdProgram>(&self, prog: &P) -> Result<(ExecOutcome, Vec<P::State>), SimError> {
        self.engine
            .get_or_init(|| self.build_engine(&self.tree, &self.faults))
            .run(prog)
    }

    /// Run with graceful degradation: on a fault-typed error
    /// ([`SimError::ProcCrashed`] or [`SimError::BarrierTimeout`]) and
    /// [`RecoveryPolicy::Degrade`], drop the dead processors from the
    /// machine ([`MachineTree::degrade`]), re-make the program via
    /// `factory` on the surviving tree (collectives re-lower their
    /// schedules here), remap the fault plan onto the new ranks, and
    /// re-run from the superstep boundary. Under
    /// [`RecoveryPolicy::FailFast`] this behaves exactly like
    /// [`Executor::run`] (plus a clean [`FaultReport`]).
    ///
    /// Degradation that is itself impossible (a cluster lost every
    /// leaf, or no processor survives) surfaces as
    /// [`SimError::DegradeFailed`].
    pub fn run_recovering<P, F>(&self, factory: F) -> Result<Recovered<P::State>, SimError>
    where
        P: SpmdProgram,
        F: Fn(&Arc<MachineTree>) -> Result<P, SimError>,
    {
        let mut tree = self.tree.clone();
        let mut faults = self.faults.clone();
        let mut report = FaultReport {
            faults_injected: self.faults.faults().len(),
            ..FaultReport::default()
        };
        // Each degradation removes at least one processor and each
        // retry spends budget, so p + max_attempts runs is a hard
        // bound; the loop normally exits far earlier.
        let observing = self.probe.as_ref().is_some_and(|p| p.enabled());
        let retry_budget = match self.recovery {
            RecoveryPolicy::Retry { max_attempts, .. } => max_attempts,
            _ => 0,
        };
        for _ in 0..=self.tree.num_procs() + retry_budget {
            let prog = factory(&tree)?;
            report.attempts += 1;
            if observing && report.attempts > 1 {
                if let Some(p) = &self.probe {
                    p.on_event(&ObsEvent::RecoveryAttempt {
                        attempt: report.attempts,
                    });
                }
            }
            match self.run_once(&tree, &faults, &prog) {
                Ok((outcome, states)) => {
                    return Ok(Recovered {
                        outcome,
                        states,
                        report,
                        tree,
                    });
                }
                Err(err) => match self.recovery {
                    RecoveryPolicy::FailFast => return Err(err),
                    RecoveryPolicy::Retry {
                        max_attempts,
                        backoff,
                    } => {
                        if let SimError::BarrierTimeout { missing, step } = &err {
                            let cleared = faults.without_stalls_at(missing, *step);
                            if report.retries < max_attempts && cleared != faults {
                                // The timeout is explained by scripted
                                // stalls: treat them as transient,
                                // charge a seeded backoff, and replay
                                // on the same machine.
                                report.retries += 1;
                                let mut rng = SplitMix64::new(
                                    0x7E7C_ACE5 ^ ((*step as u64) << 20) ^ report.retries as u64,
                                );
                                let jitter = 0.5 + rng.below(1_000) as f64 / 2_000.0;
                                let exp = (report.retries - 1).min(30) as u32;
                                report.backoff_total +=
                                    backoff.max(0.0) * (1u64 << exp) as f64 * jitter;
                                report.steps_replayed += step;
                                faults = cleared;
                                continue;
                            }
                        }
                        // Budget exhausted, an unexplained timeout, or
                        // a crash: escalate to degradation.
                        self.degrade_around(&mut tree, &mut faults, &mut report, err, observing)?;
                    }
                    RecoveryPolicy::Degrade => {
                        self.degrade_around(&mut tree, &mut faults, &mut report, err, observing)?;
                    }
                },
            }
        }
        unreachable!("each degradation removes a processor and each retry spends budget");
    }

    /// The shared escalation path of [`Executor::run_recovering`]: drop
    /// the dead processors from `tree`, remap `faults`, record the
    /// event, and report it to the probe.
    fn degrade_around(
        &self,
        tree: &mut Arc<MachineTree>,
        faults: &mut FaultPlan,
        report: &mut FaultReport,
        err: SimError,
        observing: bool,
    ) -> Result<(), SimError> {
        let (dead, step) = match &err {
            SimError::ProcCrashed { pids, step } => (pids.clone(), *step),
            SimError::BarrierTimeout { missing, step } => (missing.clone(), *step),
            _ => return Err(err),
        };
        let Degraded {
            tree: survivor,
            rank_map,
        } = tree.degrade(&dead).map_err(|de| SimError::DegradeFailed {
            message: de.to_string(),
        })?;
        *faults = faults.remap(&rank_map);
        report.steps_replayed += step;
        if observing {
            if let Some(p) = &self.probe {
                p.on_event(&ObsEvent::Degraded {
                    step,
                    dead: &dead,
                    remaining: survivor.num_procs(),
                });
            }
        }
        report.events.push(RecoveryEvent {
            step,
            error: err,
            dead,
            remaining: survivor.num_procs(),
        });
        *tree = Arc::new(survivor);
        Ok(())
    }
}

/// One engine, built once from an [`Executor`]'s configuration.
enum EngineInstance {
    Simulator(Box<Simulator>),
    Threads(ThreadedRuntime),
}

impl EngineInstance {
    /// Run one program to completion. The engines' determinism makes
    /// the outcome identical to the same program's on a fresh engine.
    fn run<P: SpmdProgram>(&self, prog: &P) -> Result<(ExecOutcome, Vec<P::State>), SimError> {
        match self {
            EngineInstance::Simulator(sim) => {
                let (out, states) = sim.run_with_states(prog)?;
                Ok((
                    ExecOutcome {
                        sim: out,
                        wall: None,
                    },
                    states,
                ))
            }
            EngineInstance::Threads(rt) => {
                let (out, states) = rt.run_with_states(prog)?;
                Ok((
                    ExecOutcome {
                        sim: out.virtual_outcome,
                        wall: Some(out.wall),
                    },
                    states,
                ))
            }
        }
    }
}

/// Price `prog` with the pure HBSP^k cost model (no microcosts): runs
/// the program on the simulator and prices what its supersteps did
/// ([`SimOutcome::model_cost`]), returning the `Σ (w + g·h + L)` report.
/// The analytic counterpart of [`Executor::run`].
#[expect(clippy::disallowed_methods, reason = "pricing runs the simulator")]
pub fn predict_program<P: SpmdProgram>(
    tree: Arc<MachineTree>,
    prog: &P,
) -> Result<hbsp_core::CostReport, SimError> {
    let outcome = Simulator::new(Arc::clone(&tree)).run(prog)?;
    Ok(outcome.model_cost(&tree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::{ProcEnv, ProcId, SpmdContext, StepOutcome, SyncScope, TreeBuilder};

    struct PingPong;
    impl SpmdProgram for PingPong {
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
            *state += ctx.messages().len() as u32;
            if step >= 2 {
                return StepOutcome::Done;
            }
            let peer = ProcId(1 - env.pid.0);
            ctx.send(peer, 0, &[0; 16]);
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }

    fn tree() -> Arc<MachineTree> {
        Arc::new(TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap())
    }

    #[test]
    fn engines_agree_through_executor() {
        let prog = PingPong;
        let (sim_out, sim_states) = Executor::simulator(tree()).run(&prog).unwrap();
        let (thr_out, thr_states) = Executor::threads(tree()).run(&prog).unwrap();
        assert_eq!(sim_states, thr_states);
        assert_eq!(sim_out.total_time(), thr_out.total_time());
        assert!(sim_out.wall.is_none());
        assert!(thr_out.wall.is_some());
    }

    #[test]
    fn one_session_accepts_many_submissions() {
        for (exec, fresh) in [
            (Executor::simulator(tree()), Executor::simulator(tree())),
            (Executor::threads(tree()), Executor::threads(tree())),
        ] {
            let (first, states1) = exec.run(&PingPong).unwrap();
            let (second, states2) = exec.run(&PingPong).unwrap();
            // The engine is reused, not rebuilt: outcomes stay
            // deterministic and identical to a fresh executor's.
            assert_eq!(states1, states2);
            assert_eq!(first.total_time(), second.total_time());
            let (oneshot, oneshot_states) = fresh.run(&PingPong).unwrap();
            assert_eq!(states1, oneshot_states);
            assert_eq!(first.total_time(), oneshot.total_time());
            assert_eq!(first.wall.is_some(), oneshot.wall.is_some());
        }
    }

    #[test]
    fn run_keeps_one_engine_and_a_clone_starts_cold() {
        let exec = Executor::simulator(tree());
        assert!(exec.engine.get().is_none(), "built on first use");
        exec.run(&PingPong).unwrap();
        let first = exec.engine.get().expect("kept after the run") as *const EngineInstance;
        exec.run(&PingPong).unwrap();
        assert!(std::ptr::eq(first, exec.engine.get().unwrap()));
        assert!(exec.clone().engine.get().is_none(), "a clone starts cold");
    }

    /// A program no machine can run: its pre-flight always refuses.
    struct Malformed;
    impl SpmdProgram for Malformed {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            _step: usize,
            _env: &ProcEnv,
            _state: &mut (),
            _ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            StepOutcome::Done
        }
        fn preflight(&self, _tree: &MachineTree) -> Result<(), hbsp_core::PreflightError> {
            Err(hbsp_core::PreflightError {
                violations: vec!["malformed on purpose".into()],
            })
        }
    }

    #[test]
    fn reconfiguring_a_warm_executor_never_reuses_its_engine() {
        for base in [Executor::simulator(tree()), Executor::threads(tree())] {
            // Warm: the engine now exists, with none of the settings below.
            let base = base.check(false);
            let (plain, plain_states) = base.run(&PingPong).unwrap();
            base.run(&Malformed).unwrap();

            let crashing = base.clone().faults(FaultPlan::new().crash(ProcId(1), 1));
            assert_eq!(
                crashing.run(&PingPong).unwrap_err(),
                SimError::ProcCrashed {
                    pids: vec![ProcId(1)],
                    step: 1
                }
            );

            let recorder = Arc::new(hbsp_obs::Recorder::new());
            let probed = base.clone().probe(recorder.clone());
            let (traced, traced_states) = probed.run(&PingPong).unwrap();
            assert_eq!(recorder.steps().len(), 3, "one record per superstep");
            assert_eq!(traced_states, plain_states);
            assert_eq!(traced.total_time().to_bits(), plain.total_time().to_bits());

            assert!(matches!(
                base.clone().check(true).run(&Malformed),
                Err(SimError::Preflight { .. })
            ));

            // The same on one value, each builder applied to an
            // executor whose engine the previous run just built.
            probed.run(&PingPong).unwrap();
            let exec = probed.probe(hbsp_obs::noop()).check(true);
            exec.run(&PingPong).unwrap();
            assert_eq!(recorder.recorded(), 6, "the replaced probe sees no more");
            assert!(exec.run(&Malformed).is_err());
            let exec = exec.faults(FaultPlan::new().crash(ProcId(0), 0));
            assert!(matches!(
                exec.run(&PingPong),
                Err(SimError::ProcCrashed { step: 0, .. })
            ));
        }
    }

    #[test]
    fn an_engine_name_round_trips_through_its_constructor() {
        for exec in [Executor::simulator(tree()), Executor::threads(tree())] {
            let named = Executor::from_engine_name(exec.engine_name(), tree()).unwrap();
            assert_eq!(named.engine_name(), exec.engine_name());
            let threaded = |e: &Executor| e.run(&PingPong).unwrap().0.wall.is_some();
            assert_eq!(threaded(&named), threaded(&exec));
        }
        assert!(Executor::from_engine_name("both", tree()).is_none());
    }

    #[test]
    fn predict_program_prices_the_same_program() {
        let report = predict_program(tree(), &PingPong).unwrap();
        assert_eq!(report.num_steps(), 3);
        assert!(report.total() > 0.0);
        // The model prediction is a lower bound on the simulated time
        // (the simulator adds pack/wire/unpack and per-message
        // overheads the model abstracts).
        let (sim_out, _) = Executor::simulator(tree()).run(&PingPong).unwrap();
        assert!(report.total() <= sim_out.total_time());
    }

    /// A stateless program whose every step is the closure `.0`.
    struct Steps<F>(F);
    impl<F> SpmdProgram for Steps<F>
    where
        F: Fn(usize, &ProcEnv, &mut dyn SpmdContext) -> StepOutcome + Sync,
    {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            _: &mut (),
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            (self.0)(step, env, ctx)
        }
    }

    /// Everyone charges 120 units and sends `words` words to rank 0.
    fn funnel(words: usize) -> impl SpmdProgram<State = ()> {
        Steps(move |step, env: &ProcEnv, ctx: &mut dyn SpmdContext| {
            if step > 0 {
                return StepOutcome::Done;
            }
            ctx.charge(120.0);
            if env.pid.0 != 0 {
                ctx.send(ProcId(0), 0, &vec![0u8; words * 4]);
            }
            StepOutcome::Continue(SyncScope::global(&env.tree))
        })
    }

    #[test]
    fn charges_the_paper_cost_exactly() {
        // g = 2, L = 30; r = [1, 2, 4], speeds = 1/r. Everyone sends
        // 100 words to rank 0 (which receives 200).
        let t =
            Arc::new(TreeBuilder::flat(2.0, 30.0, &[(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)]).unwrap());
        let report = predict_program(t, &funnel(100)).unwrap();
        assert_eq!(report.num_steps(), 2);
        let s0 = report.steps()[0];
        // w = 120 units at speed 0.25 = 480.
        assert_eq!(s0.w, 480.0);
        // h = max(r_1·100, r_2·100, r_0·200) = max(200, 400, 200) = 400.
        assert_eq!(s0.h, 400.0);
        assert_eq!(s0.comm, 800.0, "g = 2");
        assert_eq!(s0.sync, 30.0);
        // Final step: no traffic, no barrier.
        assert_eq!(report.steps()[1].total(), 0.0);
        assert_eq!(report.total(), 480.0 + 800.0 + 30.0);
    }

    #[test]
    fn matches_the_closed_form_gather_prediction() {
        // The h-relation shape of a flat gather; hbsp-collectives prices
        // the real gather program against the closed form itself.
        let t = Arc::new(TreeBuilder::flat(1.0, 50.0, &[(1.0, 1.0), (3.0, 0.3)]).unwrap());
        let report = predict_program(t, &funnel(500)).unwrap();
        // h = max(3·500 sender, 1·500 receiver) = 1500.
        assert_eq!(report.steps()[0].h, 1500.0);
        assert_eq!(report.total(), 120.0 / 0.3 + 1500.0 + 50.0);
    }

    #[test]
    fn cluster_scoped_steps_charge_the_largest_participating_l() {
        // Every rank messages its cluster peers, under a cluster barrier.
        let local_chat = Steps(|step, env: &ProcEnv, ctx: &mut dyn SpmdContext| {
            if step == 1 {
                return StepOutcome::Done;
            }
            let cluster = env.tree.cluster_of(env.pid, 1).expect("cluster exists");
            for &leaf in env.tree.subtree_leaves(cluster) {
                let q = env.tree.node(leaf).proc_id().unwrap();
                if q != env.pid {
                    ctx.send(q, 0, &[0u8; 4]);
                }
            }
            StepOutcome::Continue(SyncScope::Level(1))
        });
        let clusters = [
            (10.0, vec![(1.0, 1.0), (1.5, 0.6)]),
            (70.0, vec![(2.0, 0.5), (2.0, 0.5)]),
        ];
        let t = Arc::new(TreeBuilder::two_level(1.0, 999.0, &clusters).unwrap());
        let report = predict_program(t, &local_chat).unwrap();
        let s0 = report.steps()[0];
        assert_eq!(s0.sync, 70.0, "max participating L_{{1,j}}, not L_{{2,0}}");
        assert_eq!(s0.level, 1);
    }

    #[test]
    fn spmd_discipline_still_enforced() {
        // Rank 0 stops while the others go on.
        let mixed = Steps(
            |_, env: &ProcEnv, _: &mut dyn SpmdContext| match env.pid.0 {
                0 => StepOutcome::Done,
                _ => StepOutcome::Continue(SyncScope::global(&env.tree)),
            },
        );
        let t = Arc::new(TreeBuilder::homogeneous(1.0, 1.0, 3).unwrap());
        let err = predict_program(t, &mixed).unwrap_err();
        assert_eq!(err, SimError::TerminationMismatch { step: 0 });
    }

    #[test]
    fn trace_flows_through_both_engines() {
        let timelines = |exec: Executor| {
            let recorder = Arc::new(hbsp_obs::Recorder::new());
            exec.probe(recorder.clone()).run(&PingPong).unwrap();
            hbsp_sim::ProcTimeline::from_steps(&recorder.steps())
        };
        let [sim, thr] = [Executor::simulator(tree()), Executor::threads(tree())].map(timelines);
        assert_eq!(sim.len(), 2);
        assert!(sim.iter().all(|t| !t.spans.is_empty()));
        for (a, b) in sim.iter().zip(&thr) {
            assert_eq!((a.pid, &a.spans), (b.pid, &b.spans));
        }
    }

    #[test]
    fn custom_config_flows_through() {
        let cfg = NetConfig::ideal();
        let (a, _) = Executor::simulator_with(tree(), cfg.clone())
            .run(&PingPong)
            .unwrap();
        let (b, _) = Executor::threads_with(tree(), cfg).run(&PingPong).unwrap();
        assert_eq!(a.total_time(), b.total_time());
        // Ideal network is cheaper than the PVM-like default.
        let (c, _) = Executor::simulator(tree()).run(&PingPong).unwrap();
        assert!(a.total_time() < c.total_time());
    }

    /// A machine-shape-agnostic program: every processor counts the
    /// messages it hears from its peers each superstep, so it runs
    /// unchanged on any (possibly degraded) tree.
    struct Gossip {
        rounds: usize,
    }
    impl SpmdProgram for Gossip {
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
            *state += ctx.messages().len() as u32;
            if step >= self.rounds {
                return StepOutcome::Done;
            }
            for p in 0..env.nprocs {
                if p != env.pid.rank() {
                    ctx.send(ProcId(p as u32), 0, &[0; 4]);
                }
            }
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }

    fn clustered() -> Arc<MachineTree> {
        Arc::new(
            TreeBuilder::two_level(
                2.0,
                500.0,
                &[
                    (50.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                    (60.0, vec![(1.5, 0.8), (3.0, 0.3)]),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn fail_fast_surfaces_the_typed_error() {
        let exec = Executor::simulator(clustered()).faults(FaultPlan::new().crash(ProcId(1), 1));
        let err = exec.run(&Gossip { rounds: 3 }).unwrap_err();
        assert_eq!(
            err,
            SimError::ProcCrashed {
                pids: vec![ProcId(1)],
                step: 1
            }
        );
        // run_recovering under FailFast surfaces the same error.
        let err2 = exec
            .run_recovering(|_| Ok(Gossip { rounds: 3 }))
            .unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn degrade_policy_completes_on_the_survivor_tree() {
        for exec in [
            Executor::simulator(clustered()),
            Executor::threads(clustered()),
        ] {
            let exec = exec
                .faults(FaultPlan::new().crash(ProcId(1), 1))
                .recovery(RecoveryPolicy::Degrade);
            let rec = exec
                .run_recovering(|_| Ok(Gossip { rounds: 3 }))
                .expect("degrades and completes");
            assert_eq!(rec.tree.num_procs(), 3);
            assert_eq!(rec.states.len(), 3);
            // Each survivor heard 2 peers for 3 rounds on the replay.
            assert!(rec.states.iter().all(|&s| s == 6));
            assert_eq!(rec.report.attempts, 2);
            assert_eq!(rec.report.events.len(), 1);
            assert_eq!(rec.report.events[0].dead, vec![ProcId(1)]);
            assert_eq!(rec.report.events[0].step, 1);
            assert_eq!(rec.report.steps_replayed, 1);
            rec.tree.validate().unwrap();
        }
    }

    #[test]
    fn clean_runs_report_clean() {
        let rec = Executor::simulator(clustered())
            .recovery(RecoveryPolicy::Degrade)
            .run_recovering(|_| Ok(Gossip { rounds: 2 }))
            .unwrap();
        assert!(rec.report.clean());
        assert_eq!(rec.report.attempts, 1);
        assert_eq!(rec.report.steps_replayed, 0);
        assert_eq!(rec.tree.num_procs(), 4);
    }

    #[test]
    fn cascading_crashes_degrade_repeatedly() {
        // P1 dies at step 1; after degradation old P3 is rank 2 and its
        // remapped crash at step 2 kills the second attempt too.
        let plan = FaultPlan::new().crash(ProcId(1), 1).crash(ProcId(3), 2);
        let rec = Executor::simulator(clustered())
            .faults(plan)
            .recovery(RecoveryPolicy::Degrade)
            .run_recovering(|_| Ok(Gossip { rounds: 4 }))
            .unwrap();
        assert_eq!(rec.report.attempts, 3);
        assert_eq!(rec.report.events.len(), 2);
        assert_eq!(rec.tree.num_procs(), 2);
        assert_eq!(rec.report.steps_replayed, 1 + 2);
        rec.tree.validate().unwrap();
    }

    #[test]
    fn impossible_degradation_is_a_typed_error() {
        // Kill both processors of cluster 0 at once: the cluster
        // empties and degradation must refuse with a typed error.
        let plan = FaultPlan::new().crash(ProcId(0), 1).crash(ProcId(1), 1);
        let err = Executor::simulator(clustered())
            .faults(plan)
            .recovery(RecoveryPolicy::Degrade)
            .run_recovering(|_| Ok(Gossip { rounds: 3 }))
            .unwrap_err();
        match err {
            SimError::DegradeFailed { message } => {
                assert!(
                    message.contains("c0"),
                    "names the emptied cluster: {message}"
                )
            }
            other => panic!("expected DegradeFailed, got {other:?}"),
        }
    }

    #[test]
    fn retry_clears_a_transient_stall_without_degrading() {
        let plan = FaultPlan::new().stall(ProcId(3), 0);
        for exec in [
            Executor::simulator(clustered()),
            Executor::threads(clustered()),
        ] {
            let rec = exec
                .faults(plan.clone())
                .recovery(RecoveryPolicy::Retry {
                    max_attempts: 2,
                    backoff: 10.0,
                })
                .run_recovering(|_| Ok(Gossip { rounds: 2 }))
                .unwrap();
            assert_eq!(rec.tree.num_procs(), 4, "nobody degraded");
            assert!(rec.report.events.is_empty());
            assert_eq!(rec.report.attempts, 2);
            assert_eq!(rec.report.retries, 1);
            assert!(rec.report.backoff_total > 0.0);
            // Full machine: every survivor hears 3 peers for 2 rounds.
            assert!(rec.states.iter().all(|&s| s == 6));
        }
    }

    #[test]
    fn retry_budget_exhausted_escalates_to_degrade() {
        // Two stalls on P3 but only one retry allowed: the first
        // timeout is retried, the second degrades P3 away.
        let plan = FaultPlan::new().stall(ProcId(3), 0).stall(ProcId(3), 1);
        let rec = Executor::simulator(clustered())
            .faults(plan)
            .recovery(RecoveryPolicy::Retry {
                max_attempts: 1,
                backoff: 5.0,
            })
            .run_recovering(|_| Ok(Gossip { rounds: 3 }))
            .unwrap();
        assert_eq!(rec.report.retries, 1);
        assert_eq!(rec.report.events.len(), 1, "second stall degraded P3");
        assert_eq!(rec.tree.num_procs(), 3);
        rec.tree.validate().unwrap();
    }

    #[test]
    fn retry_escalates_crashes_immediately() {
        let rec = Executor::simulator(clustered())
            .faults(FaultPlan::new().crash(ProcId(1), 1))
            .recovery(RecoveryPolicy::Retry {
                max_attempts: 3,
                backoff: 1.0,
            })
            .run_recovering(|_| Ok(Gossip { rounds: 3 }))
            .unwrap();
        assert_eq!(rec.report.retries, 0, "crashes are not transient");
        assert_eq!(rec.report.events.len(), 1);
        assert_eq!(rec.tree.num_procs(), 3);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_engine_agnostic() {
        let plan = FaultPlan::new().stall(ProcId(0), 1);
        let run = |exec: Executor| {
            exec.faults(plan.clone())
                .recovery(RecoveryPolicy::Retry {
                    max_attempts: 2,
                    backoff: 7.0,
                })
                .run_recovering(|_| Ok(Gossip { rounds: 2 }))
                .unwrap()
                .report
        };
        let a = run(Executor::simulator(clustered()));
        let b = run(Executor::simulator(clustered()));
        let c = run(Executor::threads(clustered()));
        assert!(a.backoff_total > 0.0);
        assert_eq!(a.backoff_total.to_bits(), b.backoff_total.to_bits());
        assert_eq!(a.backoff_total.to_bits(), c.backoff_total.to_bits());
        assert_eq!(a.steps_replayed, 1);
    }

    #[test]
    fn stalled_processors_are_degraded_like_crashes() {
        let plan = FaultPlan::new().stall(ProcId(3), 0);
        for exec in [
            Executor::simulator(clustered()),
            Executor::threads(clustered()),
        ] {
            let rec = exec
                .faults(plan.clone())
                .recovery(RecoveryPolicy::Degrade)
                .run_recovering(|_| Ok(Gossip { rounds: 2 }))
                .unwrap();
            assert_eq!(rec.tree.num_procs(), 3);
            assert!(matches!(
                rec.report.events[0].error,
                SimError::BarrierTimeout { .. }
            ));
        }
    }
}
