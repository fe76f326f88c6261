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
//! * **Observe** — a fresh [`Recorder`] captures the segment's
//!   [`StepTrace`]s (virtual-time telemetry, bit-identical on both
//!   engines).
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
//!   re-based onto the remaining window ([`FaultPlan::shifted`]) the
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
//! [`RecoveryPolicy::Degrade`]: crate::executor::RecoveryPolicy

use crate::executor::Executor;
use hbsp_core::{MachineTree, ObservedParams, SuperstepCost};
use hbsp_obs::{
    calibrate_robust, proc_estimates, CausalKind, CausalSpan, CausalTree, DriftReport, EventTrace,
    ObsEvent, PostmortemBundle, Recorder,
};
use hbsp_sim::SimError;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

#[cfg(doc)]
use hbsp_obs::StepTrace;
#[cfg(doc)]
use hbsp_sim::FaultPlan;

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
    /// [`PostmortemBundle`] (when the dying segment had telemetry)
    /// carries the segment's step records, events, metrics, the
    /// decision log up to the failure, and the causal span tree.
    Exec(SimError, Option<Box<PostmortemBundle>>),
}

impl AdaptiveError {
    /// The forensics bundle captured at the failing segment, if any.
    pub fn bundle(&self) -> Option<&PostmortemBundle> {
        match self {
            AdaptiveError::Exec(_, Some(b)) => Some(b),
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

impl From<SimError> for AdaptiveError {
    fn from(err: SimError) -> Self {
        AdaptiveError::Exec(err, None)
    }
}

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
    /// [`CausalKind::Superstep`] span per retained step. Supersteps
    /// discarded by the per-segment telemetry bound are not spanned.
    pub spans: Vec<CausalSpan>,
}

impl AdaptiveOutcome {
    /// The canonical decision log: one [`Decision::render`] line per
    /// segment. Bit-identical across engines for the same job.
    pub fn decision_log(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            out.push_str(&d.render());
            out.push('\n');
        }
        out
    }
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
        // Planning happens on the belief tree; execution always on
        // the physical tree. Re-parameterization preserves shape and
        // pids, so plans transfer.
        let mut belief = self.exec.tree().clone();
        let full_faults = self.exec.faults_ref().clone();
        let mut rounds_done = 0usize;
        let mut steps_done = 0usize;
        let mut total_time = 0.0f64;
        let mut wall = Duration::ZERO;
        let mut saw_wall = false;
        let mut decisions: Vec<Decision> = Vec::new();
        let mut causal = CausalTree::new();
        let mut replans = 0usize;
        let mut segment = 0usize;
        while rounds_done < total_rounds {
            let seg_rounds = self.cfg.window.max(1).min(total_rounds - rounds_done);
            let planned = plan
                .lower(&belief, seg_rounds)
                .map_err(AdaptiveError::Plan)?;
            // Migrate: execute on the physical machine from the
            // checkpointed boundary. `check(true)` forces the
            // hbsp-check preflight on every re-lowered schedule, and
            // the fault plan is re-based so faults scripted against
            // global superstep indices fire in the right segment.
            // The recorder is bounded at the planned step count: a
            // well-behaved segment drops nothing, and a runaway one
            // stops accumulating memory (and reads as infinite drift
            // below).
            let recorder = Arc::new(Recorder::new().keep_last(planned.predicted.len().max(1)));
            let seg_exec = self
                .exec
                .clone()
                .faults(full_faults.shifted(steps_done))
                .check(true)
                .probe(recorder.clone());
            let seg_offset = total_time;
            let (outcome, _states) = match seg_exec.run(&planned.prog) {
                Ok(ok) => ok,
                Err(err) => {
                    let bundle = self.segment_bundle(
                        &err,
                        &full_faults,
                        &recorder,
                        &causal,
                        &decisions,
                        segment,
                        seg_offset,
                    );
                    return Err(AdaptiveError::Exec(err, Some(Box::new(bundle))));
                }
            };
            total_time += outcome.total_time();
            if let Some(w) = outcome.wall {
                wall += w;
                saw_wall = true;
            }
            // Observe.
            let observed = recorder.steps_since(0);
            let steps = &observed.steps;
            let seg_steps = steps.len();
            steps_done += seg_steps;
            rounds_done += seg_rounds;
            let seg_span = causal.push(
                CausalKind::Segment,
                format!("segment {segment}"),
                None,
                seg_offset,
                seg_offset + outcome.total_time(),
            );
            causal.push_steps(Some(seg_span), steps, seg_offset);
            // Detect. A structural mismatch — step counts disagree
            // with the plan, or the bounded recorder's ring overwrote
            // steps (the program did not execute the schedule the
            // planner priced) — is infinite drift: always over any
            // finite threshold.
            let (drift, predicted_total, observed_total) = if observed.missed > 0 {
                (
                    f64::INFINITY,
                    planned.predicted.iter().map(SuperstepCost::total).sum(),
                    outcome.total_time(),
                )
            } else {
                match DriftReport::new(steps, &planned.predicted) {
                    Ok(rep) => (
                        rep.mean_abs_rel_error(),
                        rep.predicted_total(),
                        rep.observed_total(),
                    ),
                    Err(_) => (
                        f64::INFINITY,
                        planned.predicted.iter().map(SuperstepCost::total).sum(),
                        outcome.total_time(),
                    ),
                }
            };
            // Replan: only when drift trips the threshold and work
            // remains. (`inf > inf` is false, so the static arm never
            // re-plans, even on structural mismatch.)
            let mut action = Action::Keep;
            if drift > threshold && rounds_done < total_rounds {
                match recalibrated(
                    &belief,
                    steps,
                    &recorder.events(),
                    self.cfg.calibration_trim,
                ) {
                    Some(updated) => {
                        belief = updated;
                        replans += 1;
                        action = Action::Replan;
                        if let Some(p) = self.exec.probe_ref() {
                            if p.enabled() {
                                p.on_event(&ObsEvent::Replan {
                                    segment,
                                    step: steps_done,
                                    drift,
                                    strategy: &planned.strategy,
                                    predicted: predicted_total,
                                });
                            }
                        }
                    }
                    None => action = Action::Hold,
                }
            }
            decisions.push(Decision {
                segment,
                rounds: seg_rounds,
                steps: seg_steps,
                strategy: planned.strategy,
                predicted: predicted_total,
                observed: observed_total,
                drift,
                action,
            });
            segment += 1;
        }
        Ok(AdaptiveOutcome {
            total_time,
            wall: saw_wall.then_some(wall),
            segments: segment,
            replans,
            decisions,
            belief,
            spans: causal.into_spans(),
        })
    }

    /// Snapshot forensics for a segment that died mid-run: the
    /// segment recorder's retained steps/events/metrics, the decision
    /// log up to the failure, and the causal span tree so far plus a
    /// span for the dying segment (ending at its last retained
    /// release).
    #[allow(clippy::too_many_arguments)]
    fn segment_bundle(
        &self,
        err: &SimError,
        full_faults: &hbsp_sim::FaultPlan,
        recorder: &Recorder,
        causal: &CausalTree,
        decisions: &[Decision],
        segment: usize,
        seg_offset: f64,
    ) -> PostmortemBundle {
        let steps = recorder.steps();
        let mut spans = causal.spans().to_vec();
        let mut tail = CausalTree::new();
        let seg_end = seg_offset
            + steps
                .iter()
                .flat_map(|s| s.releases().iter().copied())
                .fold(0.0f64, f64::max);
        let seg_span = tail.push(
            CausalKind::Segment,
            format!("segment {segment}"),
            None,
            seg_offset,
            seg_end,
        );
        tail.push_steps(Some(seg_span), &steps, seg_offset);
        let base = spans.len();
        for mut cs in tail.into_spans() {
            cs.id += base;
            cs.parent = cs.parent.map(|p| p + base);
            spans.push(cs);
        }
        let mut decision_log = String::new();
        for d in decisions {
            decision_log.push_str(&d.render());
            decision_log.push('\n');
        }
        PostmortemBundle {
            reason: err.to_string(),
            engine: self.exec.engine_name().to_string(),
            step: steps.last().map(|s| s.step).unwrap_or(0),
            machine: self.exec.tree().to_string(),
            fault_plan: full_faults.render(),
            steps,
            events: recorder.events(),
            decision_log,
            metrics: recorder.metrics(),
            spans,
        }
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
///
/// Public because every closed-loop consumer (the [`AdaptiveExecutor`]
/// here, `hbsp-sched`'s batch re-placement) must fold telemetry into a
/// belief the same way, or their decision logs diverge.
pub fn recalibrated(
    belief: &Arc<MachineTree>,
    steps: &[hbsp_obs::StepTrace],
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
fn raw_send_rates(steps: &[hbsp_obs::StepTrace], g: f64) -> Vec<f64> {
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
        let faults = FaultPlan::new().straggle_ramp(ProcId(3), 2, 6, 2.0, 1.0);
        let run = |exec: Executor| {
            AdaptiveExecutor::new(exec.faults(faults.clone()))
                .config(AdaptiveConfig {
                    window: 3,
                    drift_threshold: 0.4,
                    calibration_trim: 0.25,
                })
                .run(&GossipPlan, 9)
                .unwrap()
        };
        let sim = run(Executor::simulator(clustered()));
        let thr = run(Executor::threads(clustered()));
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
            .config(AdaptiveConfig {
                window: 2,
                drift_threshold: 0.5,
                calibration_trim: 0.25,
            })
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
        let faults = FaultPlan::new().straggle_ramp(ProcId(3), 2, 6, 2.0, 1.0);
        let run = |exec: Executor| {
            AdaptiveExecutor::new(exec.faults(faults.clone()))
                .config(AdaptiveConfig {
                    window: 3,
                    drift_threshold: 0.4,
                    calibration_trim: 0.25,
                })
                .run(&GossipPlan, 9)
                .unwrap()
        };
        let sim = run(Executor::simulator(clustered()));
        let thr = run(Executor::threads(clustered()));
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
            .config(AdaptiveConfig {
                window: 3,
                drift_threshold: 0.4,
                calibration_trim: 0.25,
            })
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
        .config(AdaptiveConfig {
            window: 2,
            drift_threshold: 0.5,
            calibration_trim: 0.25,
        })
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
