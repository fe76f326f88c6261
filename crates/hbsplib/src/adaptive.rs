//! Closed-loop adaptive execution: calibrate → re-tune → re-balance
//! while the job is running.
//!
//! The paper's pipeline is open-loop: benchmark the machine once
//! (§5's BYTEmark numbers), write the machine file, tune, run. This
//! module closes the loop. [`AdaptiveExecutor`] runs a long job as a
//! sequence of *segments* (every [`AdaptiveConfig::window`] rounds is
//! one checkpointed superstep boundary) and drives a deterministic
//! controller between segments:
//!
//! * **Observe** — the run's one [`Recorder`], read by cursor, yields
//!   the segment's [`StepTrace`]s (virtual-time telemetry,
//!   bit-identical on both engines).
//! * **Detect** — the observed steps are folded against the
//!   prediction the planner made for the same schedule
//!   ([`DriftReport`]); the mean absolute per-step relative error is
//!   the drift statistic.
//! * **Replan** — when drift exceeds
//!   [`AdaptiveConfig::drift_threshold`], the cost model is
//!   re-calibrated from the trailing window
//!   ([`hbsp_obs::calibrate_robust`], so faulted steps don't poison
//!   the fit) and folded into the *belief tree* via
//!   [`MachineTree::reparameterize`]. The next segment's
//!   [`AdaptivePlan::lower`] call re-tunes on that belief — including
//!   switching flat ↔ hierarchical strategies mid-job — and
//!   re-partitions `c_{i,j}` workloads in proportion to the freshly
//!   observed speeds.
//! * **Migrate** — the re-lowered program executes on the *physical*
//!   tree from the checkpointed boundary, with the fault plan
//!   re-based onto the remaining window
//!   ([`FaultPlan::shifted`](hbsp_sim::FaultPlan::shifted)) the
//!   same way [`RecoveryPolicy::Degrade`] replays from a boundary.
//!
//! Every decision depends only on virtual-time telemetry, so the
//! [`AdaptiveOutcome::decision_log`] is bit-identical across the
//! simulator and the threaded runtime — the same determinism contract
//! the engines themselves keep. The static control arm
//! ([`AdaptiveExecutor::run_static`]) is the identical loop with an
//! infinite threshold: same segmentation, same telemetry, zero
//! re-plans — so "adaptive beats static" isolates exactly the value
//! of closing the loop.
//!
//! Observe, Detect and Replan are [`ClosedLoop`], the one copy of the
//! loop: the adaptive executor drives it per segment and `hbsp-sched`
//! per admission batch. Each caller keeps only how it plans
//! (lowering on the belief, or placing jobs on it) and what it
//! reports.
//!
//! [`RecoveryPolicy::Degrade`]: crate::executor::RecoveryPolicy

use crate::executor::{ExecOutcome, Executor};
use hbsp_core::{MachineTree, ObservedParams, SpmdProgram, SuperstepCost};
use hbsp_obs::{
    calibrate_robust, proc_estimates, CausalKind, CausalSpan, CausalTree, DriftReport, EventTrace,
    MetricSample, ObsEvent, PostmortemBundle, Probe, Recorder, StepTrace,
};
use hbsp_sim::SimError;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A re-plannable job: something that can lower itself onto any
/// (belief) tree for a given number of remaining rounds, together
/// with the cost model's per-superstep claim about the result.
///
/// The contract that makes mid-job migration safe: the belief tree
/// always has the same shape and pids as the physical tree (it is a
/// [`MachineTree::reparameterize`] of it), so a program lowered on
/// the belief is valid to execute on the physical machine.
pub trait AdaptivePlan {
    /// The program a lowering produces.
    type Prog: hbsp_core::SpmdProgram;

    /// Tune and lower `rounds` rounds of the job for `tree`.
    fn lower(&self, tree: &Arc<MachineTree>, rounds: usize) -> Result<Planned<Self::Prog>, String>;
}

/// One lowered segment: the program, the cost model's per-superstep
/// prediction for it (on the tree it was lowered for), and a
/// human-readable strategy tag for the decision log.
pub struct Planned<P> {
    /// The executable program.
    pub prog: P,
    /// Predicted cost of each superstep the program will execute, in
    /// order (free drains included, at zero).
    pub predicted: Vec<SuperstepCost>,
    /// Strategy tag, e.g. `broadcast/two_phase`.
    pub strategy: String,
}

/// Controller tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Rounds per segment: the controller observes, detects, and
    /// (maybe) re-plans at every `window`-round superstep boundary.
    pub window: usize,
    /// Re-plan when the segment's mean absolute per-step relative
    /// error exceeds this. `f64::INFINITY` never re-plans (the static
    /// control arm).
    pub drift_threshold: f64,
    /// `max_trim` handed to [`hbsp_obs::calibrate_robust`]: the
    /// fraction of the window that residual trimming may discard as
    /// transient glitches.
    pub calibration_trim: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window: 4,
            drift_threshold: 0.25,
            calibration_trim: 0.25,
        }
    }
}

/// Why an [`AdaptiveExecutor`] run failed.
#[derive(Debug)]
pub enum AdaptiveError {
    /// The planner could not lower a segment (e.g. the collective
    /// does not support repetition).
    Plan(String),
    /// An engine run died with a typed error. The attached
    /// [`PostmortemBundle`] ([`ClosedLoop::run`]) carries the segment's
    /// step records, events, metrics, the decision log up to the
    /// failure, and the causal span tree.
    Exec(SimError, Box<PostmortemBundle>),
}

impl AdaptiveError {
    /// The forensics bundle captured at the failing segment, if any.
    pub fn bundle(&self) -> Option<&PostmortemBundle> {
        match self {
            AdaptiveError::Exec(_, b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for AdaptiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptiveError::Plan(msg) => write!(f, "adaptive planning failed: {msg}"),
            AdaptiveError::Exec(err, _) => write!(f, "adaptive execution failed: {err}"),
        }
    }
}

impl std::error::Error for AdaptiveError {}

/// What the controller did at one segment boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Drift under threshold: keep the current belief and plan.
    Keep,
    /// Drift over threshold: belief re-calibrated, next segment
    /// re-tuned on it.
    Replan,
    /// Drift over threshold but re-calibration failed (singular fit
    /// *and* unusable fallback): belief kept unchanged.
    Hold,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Action::Keep => "keep",
            Action::Replan => "replan",
            Action::Hold => "hold",
        })
    }
}

/// One controller decision, recorded at a segment boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Segment index (0-based).
    pub segment: usize,
    /// Rounds executed in this segment.
    pub rounds: usize,
    /// Supersteps executed in this segment.
    pub steps: usize,
    /// Strategy tag of the plan that ran.
    pub strategy: String,
    /// Predicted virtual time of the segment (on the belief tree it
    /// was lowered for).
    pub predicted: f64,
    /// Observed virtual time of the segment.
    pub observed: f64,
    /// Drift statistic (mean absolute per-step relative error;
    /// `inf` when observation and prediction disagree structurally).
    pub drift: f64,
    /// What the controller did.
    pub action: Action,
}

impl Decision {
    /// One canonical log line. `f64`s print with Rust's
    /// shortest-roundtrip formatting, so textual equality of two logs
    /// is bit equality of every number in them.
    pub fn render(&self) -> String {
        format!(
            "segment={} rounds={} steps={} strategy={} predicted={} observed={} drift={} action={}",
            self.segment,
            self.rounds,
            self.steps,
            self.strategy,
            self.predicted,
            self.observed,
            self.drift,
            self.action
        )
    }
}

/// A completed adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// Total virtual time accumulated across all segments (each
    /// engine run restarts its clock at zero; this is the sum).
    pub total_time: f64,
    /// Accumulated wall-clock time, present for threaded runs.
    pub wall: Option<Duration>,
    /// Segments executed.
    pub segments: usize,
    /// Re-plans performed.
    pub replans: usize,
    /// Every controller decision, in order.
    pub decisions: Vec<Decision>,
    /// The final belief tree (the physical tree re-parameterized by
    /// every accepted calibration).
    pub belief: Arc<MachineTree>,
    /// Causal span tree of the run: one [`CausalKind::Segment`] span
    /// per segment (offset by the cumulative virtual time, since each
    /// engine run restarts its clock) containing one
    /// [`CausalKind::Superstep`] span per step.
    pub spans: Vec<CausalSpan>,
}

impl AdaptiveOutcome {
    /// The canonical decision log: one [`Decision::render`] line per
    /// segment. Bit-identical across engines for the same job.
    pub fn decision_log(&self) -> String {
        decision_log(&self.decisions)
    }
}

fn decision_log(decisions: &[Decision]) -> String {
    decisions.iter().map(|d| d.render() + "\n").collect()
}

/// Closed-loop executor: wraps a configured [`Executor`] (engine
/// kind, machine, microcosts, fault plan, probe) and runs an
/// [`AdaptivePlan`] through the Observe → Detect → Replan → Migrate
/// controller.
pub struct AdaptiveExecutor {
    exec: Executor,
    cfg: AdaptiveConfig,
}

impl AdaptiveExecutor {
    /// Wrap `exec` with default controller knobs.
    pub fn new(exec: Executor) -> Self {
        AdaptiveExecutor {
            exec,
            cfg: AdaptiveConfig::default(),
        }
    }

    /// Override the controller knobs.
    pub fn config(mut self, cfg: AdaptiveConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Run `total_rounds` rounds of `plan` adaptively.
    pub fn run<P: AdaptivePlan>(
        &self,
        plan: &P,
        total_rounds: usize,
    ) -> Result<AdaptiveOutcome, AdaptiveError> {
        self.run_with_threshold(plan, total_rounds, self.cfg.drift_threshold)
    }

    /// The static control arm: the identical segmented loop with an
    /// infinite drift threshold, so the initial tuning decision is
    /// never revisited. Comparing [`AdaptiveExecutor::run`] against
    /// this isolates the value of closing the loop.
    pub fn run_static<P: AdaptivePlan>(
        &self,
        plan: &P,
        total_rounds: usize,
    ) -> Result<AdaptiveOutcome, AdaptiveError> {
        self.run_with_threshold(plan, total_rounds, f64::INFINITY)
    }

    fn run_with_threshold<P: AdaptivePlan>(
        &self,
        plan: &P,
        total_rounds: usize,
        threshold: f64,
    ) -> Result<AdaptiveOutcome, AdaptiveError> {
        let cfg = AdaptiveConfig {
            drift_threshold: threshold,
            ..self.cfg
        };
        let mut cl = ClosedLoop::new(&self.exec, cfg, CausalKind::Segment);
        let mut rounds_done = 0usize;
        let mut steps_done = 0usize;
        let mut wall: Option<Duration> = None;
        let mut decisions: Vec<Decision> = Vec::new();
        while rounds_done < total_rounds {
            let rounds = self.cfg.window.max(1).min(total_rounds - rounds_done);
            let planned = plan
                .lower(cl.belief(), rounds)
                .map_err(AdaptiveError::Plan)?;
            // Migrate: execute on the physical machine from the
            // checkpointed boundary. `check(true)` forces the
            // hbsp-check preflight on every re-lowered schedule, and
            // the fault plan is re-based so faults scripted against
            // global superstep indices fire in the right segment.
            let exec = self
                .exec
                .clone()
                .faults(self.exec.faults_ref().shifted(steps_done))
                .check(true)
                .probe(cl.recorder());
            let seg = cl
                .run(&exec, &planned.prog, &planned.predicted, [], |rec| {
                    (decision_log(&decisions), rec.metrics())
                })
                .map_err(|(err, bundle)| AdaptiveError::Exec(err, bundle))?;
            if let Some(w) = seg.outcome.wall {
                *wall.get_or_insert(Duration::ZERO) += w;
            }
            steps_done += seg.steps.len();
            rounds_done += rounds;
            let action = if rounds_done < total_rounds {
                cl.replan(&seg, &planned.strategy)
            } else {
                Action::Keep
            };
            decisions.push(Decision {
                segment: decisions.len(),
                rounds,
                steps: seg.steps.len(),
                strategy: planned.strategy,
                predicted: seg.predicted,
                observed: (seg.drift.as_ref())
                    .map_or(seg.outcome.total_time(), DriftReport::observed_total),
                drift: seg.drift_stat(),
                action,
            });
        }
        Ok(AdaptiveOutcome {
            total_time: cl.clock(),
            wall,
            segments: decisions.len(),
            replans: cl.replans(),
            decisions,
            belief: cl.belief().clone(),
            spans: cl.into_spans(),
        })
    }
}

/// The shared half of every closed loop — Observe, Detect, Replan —
/// for a caller that plans each segment on [`ClosedLoop::belief`] and
/// hands the program to [`ClosedLoop::run`]. The adaptive executor
/// drives it per segment, `hbsp-sched` per admission batch.
///
/// The loop owns one [`Recorder`], read by cursor, so each segment
/// sees only its own steps and events while the recorder's metrics
/// count the whole run. It keeps the cumulative virtual clock (each
/// engine run restarts at zero), the causal span tree, the belief tree
/// and the re-plan count. A drift threshold of `f64::INFINITY` is the
/// open loop: [`ClosedLoop::replan`] never fires.
pub struct ClosedLoop {
    /// The executor the loop was built from: its machine, whole fault
    /// plan and engine name a failure bundle, and its probe hears
    /// every re-plan besides the loop's recorder.
    base: Executor,
    cfg: AdaptiveConfig,
    root: CausalKind,
    recorder: Arc<Recorder>,
    /// Cursors into `recorder`: steps and events already read.
    steps_read: u64,
    events_read: usize,
    clock: f64,
    causal: CausalTree,
    belief: Arc<MachineTree>,
    segments: usize,
    replans: usize,
}

/// One segment [`ClosedLoop::run`] executed and observed.
pub struct Observed<S> {
    /// The engine's outcome.
    pub outcome: ExecOutcome,
    /// Every processor's final state.
    pub states: Vec<S>,
    /// The segment's steps, in execution order.
    pub steps: Vec<StepTrace>,
    /// The events recorded while the segment ran.
    pub events: Vec<EventTrace>,
    /// Start on the loop's cumulative clock.
    pub start: f64,
    /// End on the loop's cumulative clock.
    pub end: f64,
    /// Predicted virtual time of the segment.
    pub predicted: f64,
    /// Observed steps against the prediction; `None` when the two
    /// disagree structurally (step counts differ, or steps were missed):
    /// the program did not execute the schedule that was priced.
    pub drift: Option<DriftReport>,
}

impl<S> Observed<S> {
    /// The drift statistic: mean absolute per-step relative error, or
    /// `f64::INFINITY` on a structural mismatch.
    pub fn drift_stat(&self) -> f64 {
        self.drift
            .as_ref()
            .map_or(f64::INFINITY, DriftReport::mean_abs_rel_error)
    }
}

impl ClosedLoop {
    /// A loop over `exec`'s machine, fault plan and engine, believing
    /// the machine file at first. Segments are spanned as `root`
    /// ([`CausalKind::Segment`] or [`CausalKind::Batch`]); re-plans
    /// follow `cfg`'s threshold and trimming budget.
    pub fn new(exec: &Executor, cfg: AdaptiveConfig, root: CausalKind) -> ClosedLoop {
        ClosedLoop {
            base: exec.clone(),
            cfg,
            root,
            recorder: Arc::new(Recorder::new()),
            steps_read: 0,
            events_read: 0,
            clock: 0.0,
            causal: CausalTree::new(),
            belief: exec.tree().clone(),
            segments: 0,
            replans: 0,
        }
    }

    /// The loop's recorder: attach it to every executor passed to
    /// [`ClosedLoop::run`].
    pub fn recorder(&self) -> Arc<Recorder> {
        self.recorder.clone()
    }

    /// The tree to plan on: the machine file re-parameterized by every
    /// re-plan so far. Same shape and pids as the physical machine, so
    /// what is planned on it runs there.
    pub fn belief(&self) -> &Arc<MachineTree> {
        &self.belief
    }

    /// The cumulative virtual clock.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Re-plans so far.
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// The causal span tree: per segment one root span containing its
    /// child spans and one [`CausalKind::Superstep`] span per step.
    pub fn into_spans(self) -> Vec<CausalSpan> {
        self.causal.into_spans()
    }

    /// Run `prog` on `exec` (which carries [`ClosedLoop::recorder`])
    /// as the next segment, and observe it. `predicted` holds one cost
    /// per step the program executes, free drains included;
    /// `children` are labels of [`CausalKind::Job`] spans under the
    /// segment's root span.
    ///
    /// If the engine fails, the error comes back with a
    /// [`PostmortemBundle`]: the dying segment's steps and events, the
    /// span tree with the segment ending at its last release, and the
    /// decision log and metrics `forensics` supplies (it is handed the
    /// loop's recorder and called only on failure). A failed run ends
    /// the loop.
    pub fn run<P: SpmdProgram>(
        &mut self,
        exec: &Executor,
        prog: &P,
        predicted: &[SuperstepCost],
        children: impl IntoIterator<Item = String>,
        forensics: impl FnOnce(&Recorder) -> (String, Vec<MetricSample>),
    ) -> Result<Observed<P::State>, (SimError, Box<PostmortemBundle>)> {
        let ran = exec.run(prog);
        let seen = self.recorder.steps_since(self.steps_read);
        let events = self.recorder.events_since(self.events_read);
        let start = self.clock;
        let end = match &ran {
            Ok((outcome, _)) => start + outcome.total_time(),
            // A dying segment ends at its last release.
            Err(_) => {
                let last = seen.steps.iter().flat_map(|s| s.releases().iter().copied());
                start + last.fold(0.0f64, f64::max)
            }
        };
        let label = format!("{} {}", self.root.name(), self.segments);
        let root = self.causal.push(self.root, label, None, start, end);
        for child in children {
            self.causal
                .push(CausalKind::Job, child, Some(root), start, end);
        }
        self.causal.push_steps(Some(root), &seen.steps, start);
        let (outcome, states) = match ran {
            Ok(ok) => ok,
            Err(err) => {
                let (decision_log, metrics) = forensics(&self.recorder);
                let bundle = PostmortemBundle {
                    reason: err.to_string(),
                    engine: self.base.engine_name().to_string(),
                    step: seen.steps.last().map_or(0, |s| s.step),
                    machine: self.base.tree().to_string(),
                    fault_plan: self.base.faults_ref().render(),
                    steps: seen.steps,
                    events,
                    decision_log,
                    metrics,
                    spans: self.causal.spans().to_vec(),
                };
                return Err((err, Box::new(bundle)));
            }
        };
        self.clock = end;
        self.steps_read = seen.next;
        self.events_read += events.len();
        self.segments += 1;
        let drift = match seen.missed {
            0 => DriftReport::new(&seen.steps, predicted).ok(),
            _ => None,
        };
        Ok(Observed {
            outcome,
            states,
            steps: seen.steps,
            events,
            start,
            end,
            predicted: predicted.iter().map(SuperstepCost::total).sum(),
            drift,
        })
    }

    /// Detect → Replan: when the segment's drift exceeds the
    /// threshold, fold its steps and events into the belief (robust
    /// calibration, trimmed by the configured budget) and report an
    /// [`ObsEvent::Replan`] tagged `strategy`. Call it only while work
    /// remains. `inf > inf` is false, so the open loop never re-plans,
    /// even on a structural mismatch.
    pub fn replan<S>(&mut self, seg: &Observed<S>, strategy: &str) -> Action {
        let drift = seg.drift_stat();
        let over = drift > self.cfg.drift_threshold;
        if !over {
            return Action::Keep;
        }
        let trim = self.cfg.calibration_trim;
        let Some(updated) = recalibrated(&self.belief, &seg.steps, &seg.events, trim) else {
            return Action::Hold;
        };
        self.belief = updated;
        self.replans += 1;
        let event = ObsEvent::Replan {
            segment: self.segments - 1,
            step: self.steps_read as usize,
            drift,
            strategy,
            predicted: seg.predicted,
        };
        self.recorder.on_event(&event);
        if let Some(p) = self.base.probe_ref().filter(|p| p.enabled()) {
            p.on_event(&event);
        }
        Action::Replan
    }
}

/// Fold the trailing window's telemetry into a new belief tree.
///
/// The full robust fit recovers `ĝ`, per-level `L̂`, speeds, and `r̂`
/// at once. When it is singular — a window of identical-`h` steps
/// cannot separate `g` from `L`, the shape of a repeated single-step
/// body — the fallback keeps the belief's `g`/`L` and refreshes only
/// the per-processor estimates. Crucially the fallback uses *raw*
/// send rates, not the min-normalized `r̂`: with a lone sender (a
/// one-phase broadcast root) normalization maps the only observation
/// to 1 and erases the straggle signal, while the raw rate is in
/// belief-`r` units (`send_word_cost ≈ 1`) and survives the merge
/// with the unobserved processors' kept beliefs. `None` only when
/// re-parameterization itself rejects the estimates.
#[expect(clippy::disallowed_methods, reason = "the loop's one recalibration")]
fn recalibrated(
    belief: &Arc<MachineTree>,
    steps: &[StepTrace],
    events: &[EventTrace],
    max_trim: f64,
) -> Option<Arc<MachineTree>> {
    let params = match calibrate_robust(steps, events, max_trim) {
        Ok(rc) => ObservedParams {
            g: Some(rc.calibration.g),
            r_by_proc: rc.calibration.r_by_proc,
            speed_by_proc: rc.calibration.speed_by_proc,
            l_by_level: rc.calibration.l_by_level,
        },
        Err(_) => {
            let est = proc_estimates(steps, belief.g());
            ObservedParams {
                g: None,
                r_by_proc: raw_send_rates(steps, belief.g()),
                speed_by_proc: est.speed_by_proc,
                l_by_level: Vec::new(),
            }
        }
    };
    belief.reparameterize(&params).ok().map(Arc::new)
}

/// Per-processor raw send rates over the window: observed pack time
/// per `g`-word, unnormalized (0 = sent nothing, keep the belief).
/// Under the default microcosts (`send_word_cost = 1`) this is in the
/// same units as the machine file's `r`, up to per-message overhead.
fn raw_send_rates(steps: &[StepTrace], g: f64) -> Vec<f64> {
    let p = steps.iter().map(|s| s.procs()).max().unwrap_or(0);
    let mut time = vec![0.0f64; p];
    let mut words = vec![0u64; p];
    for s in steps {
        for i in 0..s.procs() {
            time[i] += s.send_done()[i] - s.compute_done()[i];
            words[i] += s.sent_words()[i];
        }
    }
    (0..p)
        .map(|i| {
            if words[i] > 0 && g > 0.0 && time[i] > 0.0 {
                time[i] / (g * words[i] as f64)
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::{CostModel, HRelation, MachineId, TreeBuilder};
    use hbsp_core::{ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope};
    use hbsp_sim::FaultPlan;

    /// A trivially re-plannable job: `rounds` all-to-all gossip
    /// supersteps plus a final drain, priced with the pure cost
    /// model on whatever tree it is lowered for.
    struct GossipPlan;

    struct GossipProg {
        rounds: usize,
    }
    impl SpmdProgram for GossipProg {
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
                    ctx.send(ProcId(p as u32), 0, &[0u8; 4]);
                }
            }
            ctx.charge(1.0);
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }

    impl AdaptivePlan for GossipPlan {
        type Prog = GossipProg;
        fn lower(
            &self,
            tree: &Arc<MachineTree>,
            rounds: usize,
        ) -> Result<Planned<GossipProg>, String> {
            let cm = CostModel::new(tree);
            let p = tree.num_procs();
            let work: Vec<(ProcId, f64)> = (0..p).map(|i| (ProcId(i as u32), 1.0)).collect();
            // Every processor sends one word to each peer.
            let mut hr = HRelation::new();
            for i in 0..p {
                for j in 0..p {
                    if i != j {
                        hr.send(MachineId::new(0, i as u32), MachineId::new(0, j as u32), 1);
                    }
                }
            }
            let step_cost = cm.schedule_step(Some(tree.height()), &work, &hr);
            let mut predicted = vec![step_cost; rounds];
            predicted.push(cm.schedule_step(None, &[], &HRelation::new())); // free drain
            Ok(Planned {
                prog: GossipProg { rounds },
                predicted,
                strategy: "gossip/flat".to_string(),
            })
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

    /// Segments of `window` rounds, re-planned over `drift_threshold`.
    fn cfg(window: usize, drift_threshold: f64) -> AdaptiveConfig {
        AdaptiveConfig {
            window,
            drift_threshold,
            calibration_trim: 0.25,
        }
    }

    /// Nine rounds under a mild straggler on P3, in windows of three.
    fn ramped(exec: Executor) -> AdaptiveOutcome {
        let faults = FaultPlan::new().straggle_ramp(ProcId(3), 2, 6, 2.0, 1.0);
        (AdaptiveExecutor::new(exec.faults(faults)).config(cfg(3, 0.4)))
            .run(&GossipPlan, 9)
            .unwrap()
    }

    #[test]
    fn static_arm_never_replans() {
        let adaptive = AdaptiveExecutor::new(Executor::simulator(clustered()));
        let out = adaptive.run_static(&GossipPlan, 8).unwrap();
        assert_eq!(out.replans, 0);
        assert_eq!(out.segments, 2);
        assert!(out.decisions.iter().all(|d| d.action == Action::Keep));
        assert!(out.total_time > 0.0);
    }

    #[test]
    fn decision_logs_are_bit_identical_across_engines() {
        let sim = ramped(Executor::simulator(clustered()));
        let thr = ramped(Executor::threads(clustered()));
        assert_eq!(sim.decision_log(), thr.decision_log());
        assert_eq!(sim.total_time, thr.total_time);
        assert!(sim.wall.is_none());
        assert!(thr.wall.is_some());
        // The log is non-trivial: one line per segment.
        assert_eq!(sim.decision_log().lines().count(), sim.segments);
    }

    #[test]
    fn drift_over_threshold_triggers_a_replan() {
        // A hard persistent straggler on P3 from step 2 on: drift in
        // segment 0 stays low, later segments trip the threshold.
        let faults = FaultPlan::new().straggle_ramp(ProcId(3), 2, 8, 4.0, 2.0);
        let out = AdaptiveExecutor::new(Executor::simulator(clustered()).faults(faults))
            .config(cfg(2, 0.5))
            .run(&GossipPlan, 10)
            .unwrap();
        assert!(out.replans > 0, "log:\n{}", out.decision_log());
        assert!(out.decisions.iter().any(|d| d.action == Action::Replan));
        // The belief tree moved away from the machine file.
        let physical = clustered();
        assert_eq!(out.belief.num_procs(), physical.num_procs());
        out.belief.validate().unwrap();
    }

    #[test]
    fn causal_spans_nest_and_match_across_engines() {
        let sim = ramped(Executor::simulator(clustered()));
        let thr = ramped(Executor::threads(clustered()));
        hbsp_obs::check_causal_spans(&sim.spans).unwrap();
        assert_eq!(sim.spans, thr.spans);
        // One segment span per segment, each a root; supersteps nest
        // inside them.
        let seg_spans: Vec<_> = sim
            .spans
            .iter()
            .filter(|s| s.kind == CausalKind::Segment)
            .collect();
        assert_eq!(seg_spans.len(), sim.segments);
        assert!(seg_spans.iter().all(|s| s.parent.is_none()));
        assert!(sim
            .spans
            .iter()
            .filter(|s| s.kind == CausalKind::Superstep)
            .all(|s| s.parent.is_some()));
        // Segments tile the cumulative clock: the last ends at
        // total_time.
        let last = seg_spans.last().unwrap();
        assert!((last.end - sim.total_time).abs() < 1e-9 * (1.0 + sim.total_time));
    }

    #[test]
    fn failed_segment_attaches_a_postmortem_bundle() {
        // P2 crashes at (global) step 4 — inside the second segment —
        // and the executor's default recovery policy is fail-fast.
        let faults = FaultPlan::new().crash(ProcId(2), 4);
        let err = AdaptiveExecutor::new(Executor::simulator(clustered()).faults(faults))
            .config(cfg(3, 0.4))
            .run(&GossipPlan, 9)
            .unwrap_err();
        let bundle = err.bundle().expect("exec failure carries a bundle");
        bundle.validate().unwrap();
        assert_eq!(bundle.engine, "sim");
        assert!(!bundle.reason.is_empty());
        assert!(bundle.machine.contains("cluster") || !bundle.machine.is_empty());
        assert!(bundle.fault_plan.contains("crash"), "{}", bundle.fault_plan);
        // Segment 0 completed, so its decision is in the log.
        assert!(bundle.decision_log.contains("segment=0"));
        // The bundle round-trips and renders as a Chrome trace.
        let reparsed = hbsp_obs::PostmortemBundle::parse(&bundle.to_jsonl()).unwrap();
        assert_eq!(&reparsed, bundle);
        hbsp_obs::validate_chrome_trace(&bundle.chrome_trace()).unwrap();
        assert_eq!(
            bundle.to_jsonl(),
            include_str!("../../../tests/golden/postmortem_adaptive_segment.jsonl")
        );
    }

    #[test]
    fn replans_reach_the_attached_probe() {
        let faults = FaultPlan::new().straggle_ramp(ProcId(3), 2, 8, 4.0, 2.0);
        let recorder = Arc::new(Recorder::new());
        let out = AdaptiveExecutor::new(
            Executor::simulator(clustered())
                .faults(faults)
                .probe(recorder.clone()),
        )
        .config(cfg(2, 0.5))
        .run(&GossipPlan, 10)
        .unwrap();
        let replans = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, EventTrace::Replan { .. }))
            .count();
        assert_eq!(replans, out.replans);
        assert!(out.replans > 0);
        // The hbsp_adaptive_* metrics moved.
        let text = recorder.metrics_text();
        assert!(
            text.contains("hbsp_adaptive_replans_total"),
            "metrics:\n{text}"
        );
    }
}
